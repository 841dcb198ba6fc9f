"""A run counts each child that disagrees with the first one once."""

from run import Tally


def _child(digest: str) -> dict:
    return {"attempted": 26, "failures": [], "digest": digest}


def test_children_are_compared_with_the_first_one():
    tally = Tally()
    tally.child("paper", _child("a"))
    tally.child("paper", _child("a"))
    tally.child("paper", _child("b"))
    tally.child("fleet", _child("b"))  # each part has its own reference
    assert tally.attempted == 4 * 26 + 2
    assert tally.failures == ["paper: result differs from the first interpreter's"]
