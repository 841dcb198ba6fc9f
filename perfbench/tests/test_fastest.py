"""How a run turns its passes and reference loops into figures."""

import pytest

from run import REFERENCE_S, fastest_serial_pass, host_speed


def _pass(serial_s: float, **task_s: float) -> dict:
    return {"serial_s": serial_s, "task_s": task_s, "parallel_s": [1.0, 1.1]}


def test_each_task_and_the_executor_count_at_their_fastest():
    passes = [
        _pass(3.2, fig3=1.0, nist=2.0),  # 0.2 s outside the tasks
        _pass(2.9, fig3=1.5, nist=1.3),  # 0.1 s outside the tasks
    ]
    assert fastest_serial_pass(passes) == pytest.approx(1.0 + 1.3 + 0.1)


def test_one_pass_is_its_own_time():
    assert fastest_serial_pass([_pass(3.0, fig3=1.0, nist=1.5)]) == 3.0



def test_host_speed_is_a_quiet_host_over_the_fastest_reference_loop():
    assert host_speed([REFERENCE_S * 2, REFERENCE_S * 1.25]) == pytest.approx(0.8)
