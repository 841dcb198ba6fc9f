"""Self times, outermost spans and the import-time split."""

import layers


def _span(name, start, end, parent=-1, rid=0, **attrs):
    return [name, start, end, parent, rid, 1, attrs]


def test_self_time_subtracts_children_and_outermost_skips_recursion():
    doc = {
        "spans": [
            _span("core.puf.enroll", 0.0, 10.0),
            _span("core.puf.enroll", 1.0, 4.0, parent=0),
            _span("core.selection_batch", 5.0, 8.0, parent=0, rows=7),
            _span("core.puf.enroll", 20.0, 21.0),
        ]
    }
    process = layers.Process(doc)
    assert process.self_time[0] == 10.0 - 3.0 - 3.0
    assert process.select("core.puf.enroll") == [0, 3]
    assert process.total("core.puf.enroll") == 11.0
    assert process.total("core.puf.enroll", window=(15.0, 30.0)) == 1.0
    assert process.attr_sum("core.selection_batch", "rows") == 7


def test_import_layers_split():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | _io",
            "import time:       400 |        900 |     scipy.special",
            "import time:       200 |       1100 |   scipy",
            "import time:       300 |       1500 | repro.nist",
            "import time:        50 |        250 |   repro.core",
            "import time:       200 |       2000 | repro.cli",
        ]
    )
    split = layers.import_layers(stderr)
    assert split["import.total_s"] == (1500 + 2000) / 1e6
    assert split["import.scipy_s"] == 600 / 1e6
    assert split["import.repro_s"] == 550 / 1e6
