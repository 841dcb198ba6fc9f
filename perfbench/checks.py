"""Output checks that feed the failed-operation count.

No golden digests are committed: a pass is compared with the first pass
of the same run (same seed), so a deliberate, versioned change of the
program's draw order still passes, while any nondeterminism, any
``jobs=1``/``jobs=2`` disagreement, or a broken result is counted.
"""

from __future__ import annotations

import math

from common import digest

#: NIST SP 800-22 significance level used by the paper's tables.
NIST_ALPHA = 0.01
#: Chance that ideal random bits fail the proportion check anywhere.
NIST_FAMILYWISE = 0.001
NIST_TABLES = ("table1_nist_case1", "table2_nist_case2")
#: Fig. 3 and the fleet statistics should sit near the ideal 50%.
NEAR_HALF = (45.0, 55.0)


def nist_minimum_passes(sequences: int, rows: int) -> int:
    """Fewest passing sequences a NIST row may have.

    Each row's failures are Binomial(sequences, alpha) for ideal random
    bits, so SP 800-22's per-row 3-sigma interval alone would flag one
    of the paper's ~18 rows on roughly one dataset seed in five.  The
    floor is set instead so that ideal bits fall below it in *any* of
    ``rows`` rows with probability at most :data:`NIST_FAMILYWISE`
    (Bonferroni), so that across the seeds of many runs a chance failure
    stays unlikely.  For 97 sequences and 18 rows that is 90 of 97; the
    undistilled bits the paper shows failing reach only 14-28 of 97.
    """
    per_row = NIST_FAMILYWISE / rows
    tail = 1.0  # P(failures >= allowed + 1), shrinking as allowed grows
    for allowed in range(sequences + 1):
        tail -= (
            math.comb(sequences, allowed)
            * NIST_ALPHA**allowed
            * (1.0 - NIST_ALPHA) ** (sequences - allowed)
        )
        if tail <= per_row:
            return sequences - allowed
    return 0


def _paper_level_ok(task: str, result, summary: dict) -> bool:
    """The claims EXPERIMENTS.md makes for this task hold."""
    if task in NIST_TABLES:
        rows = sum(
            len(summary[t]["rows"])
            for t in NIST_TABLES
            if isinstance(summary.get(t), dict) and "rows" in summary[t]
        )
        sequences = result["sequences"]
        floor = nist_minimum_passes(sequences, rows)
        return all(
            round(row["proportion"] * sequences) >= floor for row in result["rows"]
        )
    if task == "fig3_uniqueness":
        bits = summary.get("table1_nist_case1", {}).get("bits_per_sequence")
        if not bits:
            return False
        low, high = NEAR_HALF
        return all(
            low <= 100.0 * result[key] / bits <= high
            for key in ("case1_mean_hd", "case2_mean_hd")
        )
    return True


def task_names(summary: dict) -> list[str]:
    return [
        key for key in summary if key != "dataset" and not key.startswith("_")
    ]


def paper_digest(summary: dict) -> str:
    """Digest of a pass's task results, compared across interpreters."""
    return digest({task: digest(summary[task]) for task in task_names(summary)})


def paper_failures(summary: dict, reference: dict | None) -> list[str]:
    """One entry per task of ``summary`` that failed a check.

    A task fails when it returned an error entry, when its result differs
    from the same task in ``reference`` (the run's first pass), or when
    the paper-level claim for it does not hold.
    """
    failures = []
    for task in task_names(summary):
        result = summary[task]
        if isinstance(result, dict) and "error" in result:
            failures.append(f"{task}: error {result.get('error')}")
        elif reference is not None and digest(result) != digest(
            reference.get(task)
        ):
            failures.append(f"{task}: result differs from the first pass")
        elif not _paper_level_ok(task, result, summary):
            failures.append(f"{task}: paper-level check failed")
    return failures


def fleet_failures(result: dict, reference: dict | None) -> list[str]:
    """Why one fleet pass failed (empty when it passed)."""
    failures = []
    if not result.get("complete"):
        failures.append(f"incomplete: {result.get('shards')}")
    if reference is not None and digest(result) != digest(reference):
        failures.append("result differs from the first pass")
    low, high = NEAR_HALF
    uniqueness = (result.get("uniqueness") or {}).get("uniqueness_percent")
    uniformity = (result.get("uniformity") or {}).get("mean_uniformity_percent")
    for name, value in (("uniqueness", uniqueness), ("uniformity", uniformity)):
        if value is None or not low <= value <= high:
            failures.append(f"{name} {value} outside {low}-{high}%")
    return failures
