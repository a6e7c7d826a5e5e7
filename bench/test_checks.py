"""Each independent check accepts real outputs and rejects tampered ones.

    python3 -m pytest bench -q

The untampered outputs come from the library (T8#5 and T8#1 at n=14, the
alt5-deg6 row), which takes a few seconds.
"""

import copy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402


def _op(workload, key, full=False):
    for op in workloads.prepare(workload, full):
        if workloads.op_key(op) == key:
            return op
    raise LookupError(key)


def _verified(key):
    op = _op("verify-n14", key)
    output = workloads.normalise(op, workloads.run_op(op))
    return output, workloads.check_input(op)


@pytest.fixture(scope="module")
def t8_5():
    return _verified("T8#5")


@pytest.fixture(scope="module")
def t8_1():
    return _verified("T8#1")


@pytest.fixture(scope="module")
def alt5():
    op = _op("search-tables", "alt5-deg6")
    return workloads.normalise(op, workloads.run_op(op)), workloads.check_input(op)


def test_real_outputs_pass(t8_5, t8_1, alt5):
    assert checks.check_verify_report(*t8_5) == []
    assert checks.check_verify_report(*t8_1) == []
    assert checks.check_search_row(*alt5) == []


def test_flipped_t8_verdicts_are_rejected(t8_5, t8_1):
    report, given = copy.deepcopy(t8_5)
    report["status"] = "PASS"
    report["checks"]["intersection_property"]["status"] = "pass"
    assert any("must fail" in p for p in checks.check_verify_report(report, given))

    report, given = copy.deepcopy(t8_1)
    report["status"] = "FAIL"
    report["checks"]["intersection_property"]["status"] = "fail"
    assert any("unexpected FAIL" in p
               for p in checks.check_verify_report(report, given))


def test_altered_witness_is_rejected(t8_5):
    report, given = copy.deepcopy(t8_5)
    evidence = report["checks"]["intersection_property"]["evidence"]
    assert evidence["witness"] == [[0, 1, 2], [1, 2, 3]]
    evidence["witness"] = [[0, 1], [1, 2]]
    assert any("no violation" in p
               for p in checks.check_verify_report(report, given))


def test_altered_order_and_symbol_are_rejected(t8_1):
    report, given = copy.deepcopy(t8_1)
    report["order"] //= 2
    report["schlafli"][0] += 1
    problems = checks.check_verify_report(report, given)
    assert any("catalog states" in p for p in problems)
    assert any("closure" in p for p in problems)
    assert any("Schlafli" in p for p in problems)


def test_dropped_printed_symbol_is_rejected(alt5):
    given = workloads.check_input(_op("search-tables", "s4wrS2-deg8", full=True))
    empty = {"completed": True, "merged": 0, "results": []}
    assert any("(3, 4, 4, 3)" in p for p in checks.check_search_row(empty, given))

    output, given = copy.deepcopy(alt5)
    output["results"] = [r for r in output["results"]
                         if checks.canonical_symbol(r["schlafli"]) != (3, 5)]
    assert any("not found" in p for p in checks.check_search_row(output, given))


def test_result_with_non_commuting_pair_is_rejected(alt5):
    output, given = copy.deepcopy(alt5)
    gens = output["results"][0]["gens"]
    gens[0], gens[1] = gens[1], gens[0]
    assert any("do not commute" in p
               for p in checks.check_search_row(output, given))


def test_incomplete_or_unexpected_rows_are_rejected(alt5):
    output, given = copy.deepcopy(alt5)
    output["completed"] = False
    assert any("did not complete" in p
               for p in checks.check_search_row(output, given))

    output, given = copy.deepcopy(alt5)
    given["ambient"] = "c2wrS4-deg8"
    assert any("prints no string C-group" in p
               for p in checks.check_search_row(output, given))
