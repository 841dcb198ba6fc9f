"""The output checks count exactly the operations that went wrong."""

import copy

from checks import fleet_failures, nist_minimum_passes, paper_failures


def _summary() -> dict:
    nist = {
        "passed": True,
        "sequences": 97,
        "bits_per_sequence": 96,
        "rows": [{"test": "Frequency", "proportion": 96 / 97, "passed": True}],
    }
    return {
        "dataset": "vt-like-synthetic",
        "table1_nist_case1": nist,
        "table2_nist_case2": copy.deepcopy(nist),
        "fig3_uniqueness": {"case1_mean_hd": 47.85, "case2_mean_hd": 47.85},
        "table5_bits": {"n=5": {"configurable": 48, "one_of_8": 32}},
        "_pipeline": {"jobs": 1, "total_wall_seconds": 3.2},
    }


def test_identical_passes_do_not_fail():
    reference = _summary()
    again = _summary()
    again["_pipeline"]["total_wall_seconds"] = 2.1  # timings are ignored
    assert paper_failures(reference, None) == []
    assert paper_failures(again, reference) == []


def test_one_changed_value_is_one_failed_operation():
    reference = _summary()
    changed = _summary()
    changed["table5_bits"]["n=5"]["configurable"] = 47
    failures = paper_failures(changed, reference)
    assert len(failures) == 1
    assert failures[0].startswith("table5_bits")


def test_error_entry_and_paper_level_claims_fail():
    summary = _summary()
    summary["table5_bits"] = {"error": "ValueError: boom", "attempts": 2}
    summary["table2_nist_case2"]["rows"][0]["proportion"] = 89 / 97
    summary["fig3_uniqueness"]["case2_mean_hd"] = 30.0
    failures = paper_failures(summary, None)
    assert [f.split(":")[0] for f in failures] == [
        "table2_nist_case2",
        "fig3_uniqueness",
        "table5_bits",
    ]


def test_one_failed_nist_table_is_one_failed_operation():
    summary = _summary()
    summary["table2_nist_case2"] = {"error": "ValueError: boom", "attempts": 2}
    failures = paper_failures(summary, None)
    assert len(failures) == 1
    assert failures[0].startswith("table2_nist_case2")


def test_nist_floor_is_familywise():
    # 97 sequences, 18 rows: ideal bits lose more than 7 sequences in a
    # row with probability < 0.001 / 18; the paper's raw bits lose 70+.
    assert nist_minimum_passes(97, 18) == 90
    assert nist_minimum_passes(97, 1) == 92


def _fleet() -> dict:
    return {
        "complete": True,
        "devices": 8192,
        "uniqueness": {"uniqueness_percent": 49.99},
        "uniformity": {"mean_uniformity_percent": 49.94},
        "_metrics": {"fleet.shards.generated": 2},
    }


def test_fleet_checks():
    reference = _fleet()
    assert fleet_failures(reference, None) == []
    assert fleet_failures(_fleet(), reference) == []
    changed = _fleet()
    changed["devices"] = 8191
    assert fleet_failures(changed, reference) == [
        "result differs from the first pass"
    ]
    skewed = _fleet()
    skewed["complete"] = False
    skewed["uniformity"]["mean_uniformity_percent"] = 60.0
    assert len(fleet_failures(skewed, None)) == 2
