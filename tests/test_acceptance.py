"""Package acceptance gate: every shipped claim, one pass/fail line each.

Runs the full criteria list exactly as the ``suite`` CLI command does and
fails the build if any criterion misses its stated tolerance.  The
one-line verdicts are written straight to the terminal so they survive
pytest's capture.
"""

import sys

import pytest

from gamma_monodromy import mirror
from gamma_monodromy import suite as suite_mod

NAMES = [name for name, _ in suite_mod.ALL_CRITERIA]

_results = {}


@pytest.fixture(scope="module")
def results():
    if not _results:
        for res in suite_mod.run_suite():
            _results[res["name"]] = res
    return _results


@pytest.mark.parametrize("name", NAMES)
def test_criterion(results, name):
    res = results[name]
    line = "%s  %-14s residual=%.3e tol=%.1e (%.1fs)" % (
        "PASS" if res["pass"] else "FAIL", name,
        res["residual"], res["tol"], res["seconds"])
    print(line, file=sys.__stdout__)
    sys.__stdout__.flush()
    assert res["pass"], line


def test_every_criterion_is_covered(results):
    assert sorted(results) == sorted(NAMES)
    assert len(NAMES) == 10


def test_mirror_reports_every_sub_gate_margin(results):
    margins = results["mirror"]["details"]["margins"]
    assert sorted(margins) == sorted(["zero_window", "series_contour",
                                      "exponent", "inversion", "laplace"])
    assert all(margin < 1.0 for margin in margins.values()), margins


def test_mirror_residual_covers_inversion(results):
    res = results["mirror"]
    assert res["residual"] >= res["details"]["inversion_rel"]


def test_mirror_reports_the_j_counters(results):
    details = results["mirror"]["details"]
    runs = [mirror.inversion_consistency(n, 1.0) for n in (3, 4)]
    assert details["j_calls"] == sum(run["j_calls"] for run in runs) > 0
    assert details["j_nodes"] == sum(run["j_nodes"] for run in runs)
