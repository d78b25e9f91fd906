"""Self-tests of the benchmark: seeded inputs, input validity, output checks.

    python3 -m pytest bench -q

cmforge serves here as an independent oracle for input validity; the
benchmark itself picks inputs with its own arithmetic (inputs.py).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from cmforge.arith import is_fundamental_discriminant  # noqa: E402
from cmforge.quadforms import admissible_residues, class_number  # noqa: E402

CROSSCHECK = run.CHECKS["crosscheck_300"]


@pytest.fixture(scope="module")
def expected():
    return {w: inputs.load_expected(w) for w in inputs.WORKLOADS}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload, expected):
    first = inputs.Plan(workload, 11, expected[workload])
    again = inputs.Plan(workload, 11, expected[workload])
    other = inputs.Plan(workload, 12, expected[workload])
    assert first.ops == again.ops
    assert first.ops != other.ops
    assert sorted(first.ops) == sorted(other.ops)
    assert len(first.ops) >= 100  # the p90 needs ten samples beyond it


@pytest.mark.parametrize("workload", ["gznorm_large", "crosscheck_300"])
def test_pools_are_regenerated_exactly(workload, expected):
    pool = inputs.gznorm_pool() if workload == "gznorm_large" else inputs.crosscheck_pool()
    frozen = [[tuple(item["key"]) for item in cell] for cell in expected[workload]["cells"]]
    assert pool == frozen


@pytest.mark.parametrize("workload", ["gznorm_large", "crosscheck_300"])
def test_every_round_of_a_pass_fills_every_cell_once(workload, expected):
    ops = inputs.Plan(workload, 3, expected[workload]).ops
    cells = [{tuple(item["key"]) for item in cell} for cell in expected[workload]["cells"]]
    assert len(ops) == len(set(ops)) == sum(map(len, cells))
    for start in range(0, len(ops), len(cells)):
        keys = ops[start:start + len(cells)]
        assert all(len(cell.intersection(keys)) == 1 for cell in cells)


def test_pool_inputs_are_valid(expected):
    for workload, primes in (("gznorm_large", inputs.GENUS_ZERO_PRIMES),
                             ("crosscheck_300", inputs.ETA_QUOTIENT_PRIMES)):
        for cell in expected[workload]["cells"]:
            for item in cell:
                p, d, D = item["key"]
                assert p in primes
                assert d > 4 and D > 4 and d != D
                for disc in (d, D):
                    assert is_fundamental_discriminant(-disc)
                    assert admissible_residues(-disc, p)
    for p, d, D in (item["key"] for cell in expected["crosscheck_300"]["cells"] for item in cell):
        assert d < D <= inputs.CROSSCHECK_MAX_DISC
    for p, d, D in (item["key"] for cell in expected["gznorm_large"]["cells"] for item in cell):
        assert 10_000 <= D < 100_000


def test_classpoly_cases_are_valid_and_complete(expected):
    cases = inputs.classpoly_cases()
    assert len(cases) == len(set(cases)) == 191
    for p, d in cases:
        assert d > 4 and is_fundamental_discriminant(-d) and admissible_residues(-d, p)
    exits = [case["exit"] for case in expected["classpoly_sweep"]["cases"]]
    assert {code: exits.count(code) for code in set(exits)} == {0: 139, 2: 33, 5: 12, 3: 7}
    internal = {tuple(c["key"]) for c in expected["classpoly_sweep"]["cases"] if c["exit"] == 3}
    assert all(d % p == 0 for p, d in internal)


def test_own_arithmetic_matches_cmforge():
    for d in range(5, inputs.CLASSPOLY_MAX_D + 1):
        fundamental = d % 4 in (0, 3) and is_fundamental_discriminant(-d)
        assert inputs.is_fundamental(d) == fundamental
        if fundamental:
            assert inputs.class_number(d) == class_number(-d)
            for p in (2, 13, 71):
                assert inputs.admissible(d, p) == bool(admissible_residues(-d, p))


# -- output checks -------------------------------------------------------------

def _classpoly_stdout(coeffs, pairs):
    rows = [{"D": D, "x": x, "y": y, "x_mag": abs(x), "y_mag": abs(y)} for D, x, y in pairs]
    return json.dumps({"result": {"coefficients": coeffs, "pairs": rows}})


def _solved_classpoly(expected):
    return next(c for c in expected["classpoly_sweep"]["cases"] if c["exit"] == 0)


def test_classpoly_recorded_answer_passes_and_corruption_fails(expected):
    case = _solved_classpoly(expected)
    stdout = _classpoly_stdout(case["coefficients"], case["pairs"])
    assert checks.check_classpoly(case, 0, stdout).kind == checks.SOLVED
    bad = list(case["coefficients"])
    bad[0] += 1
    outcome = checks.check_classpoly(case, 0, _classpoly_stdout(bad, case["pairs"]))
    assert outcome.kind == checks.FAILED and outcome.wrong
    flipped = [[D, x, -y] for D, x, y in case["pairs"]]
    outcome = checks.check_classpoly(case, 0, _classpoly_stdout(case["coefficients"], flipped))
    assert outcome.kind == checks.FAILED and outcome.wrong


def test_classpoly_newly_solved_case_must_interpolate(expected):
    case = dict(_solved_classpoly(expected), exit=2)
    stdout = _classpoly_stdout(case["coefficients"], case["pairs"])
    assert checks.check_classpoly(case, 0, stdout).kind == checks.SOLVED
    shorter = _classpoly_stdout(case["coefficients"][1:] or [1], case["pairs"])
    assert checks.check_classpoly(case, 0, shorter).wrong


@pytest.mark.parametrize("rc, kind, wrong", [
    (2, checks.DECLINED, False),
    (5, checks.DECLINED, False),
    (3, checks.FAILED, False),
    (1, checks.FAILED, False),
    ("raised KeyError", checks.FAILED, False),
])
def test_exit_codes(expected, rc, kind, wrong):
    case = _solved_classpoly(expected)
    outcome = checks.check_classpoly(case, rc, "")
    assert (outcome.kind, outcome.wrong) == (kind, wrong)


def test_gznorm_checker_counts_corruption_as_failed(expected):
    item = expected["gznorm_large"]["cells"][0][0]
    result = json.loads(item["result"])
    assert checks.check_gznorm(item, 0, json.dumps({"result": result})).kind == checks.SOLVED
    prime = next(iter(result["exponents"]))
    result["exponents"][prime] = "999"
    outcome = checks.check_gznorm(item, 0, json.dumps({"result": result}))
    assert outcome.kind == checks.FAILED and outcome.wrong


def _crosscheck_stdout(item, **changes):
    check = {"status": "PASS", "passes": {"of_mD": True, "of_m": True},
             "relative_discrepancy": {"of_mD": item["relative_discrepancy"]},
             "lhs": item["lhs"], "rhs": {"of_mD": item["rhs"]}}
    check.update(changes)
    return json.dumps({"result": {"checks": [check]}})


def test_crosscheck_checker_counts_corruption_as_failed(expected):
    item = expected["crosscheck_300"]["cells"][0][0]
    assert CROSSCHECK(item, 0, _crosscheck_stdout(item)).kind == checks.SOLVED
    for changes in ({"relative_discrepancy": {"of_mD": 1e-100}},
                    {"status": "FAIL"},
                    {"lhs": item["lhs"] * (1 + 1e-9) + 1e-9},
                    {"lhs": item["lhs"] + 1.0, "rhs": {"of_mD": item["rhs"] + 1.0}}):
        outcome = CROSSCHECK(item, 0, _crosscheck_stdout(item, **changes))
        assert outcome.kind == checks.FAILED and outcome.wrong, changes
    assert CROSSCHECK(item, 4, "").wrong


def test_recorded_crosscheck_pairs_reach_the_precision(expected):
    for cell in expected["crosscheck_300"]["cells"]:
        for item in cell:
            assert item["relative_discrepancy"] <= 10.0 ** -inputs.CROSSCHECK_PRECISION


# -- tracer ----------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_counts():
    import cmforge.arith
    import cmforge.cli
    import cmforge.cmvalue
    from tracer import Tracer

    original = cmforge.arith.factorize
    tracer = Tracer()
    tracer.install()
    assert cmforge.arith.factorize is not original
    assert cmforge.cmvalue.factorize is cmforge.arith.factorize is cmforge.factorize
    rc, _, _, _ = tracer.call_op(run.run_op, cmforge.cli.main,
                                 inputs.WARMUP_ARGV["gznorm_large"])
    assert rc == 0
    summary = tracer.summary()
    assert summary["cli"]["calls"] == 1
    assert set(tracer.op) == {0}
    assert summary["gzrhs.gz_log_norm"]["calls"] == 2
    assert tracer.gz_distinct == 1
    assert summary["arith.factorize"]["calls"] > 0
    assert tracer.terms == summary["gzrhs.term_contribution"]["calls"] > 0
    for row in summary.values():
        assert 0 <= row["self_ns"] <= row["ns"]


def test_run_passes_fills_the_time_budget():
    class FakePlan:
        workload = "gznorm_large"
        ops = [(1,), (2,), (3,), (4,)]

        def argv(self, key):
            return []

    def fake_main(argv):
        time.sleep(0.01)
        return 0

    ops, clock, passes = run.run_passes(fake_main, FakePlan(), seconds=0.3)
    assert passes >= 3 and len(ops) == 4 * passes
    assert len(clock.scaled_times()) == len(ops) and clock.raw_s >= 0.01 * len(ops)
    ops, _, passes = run.run_passes(fake_main, FakePlan(), seconds=10, max_passes=1)
    assert passes == 1 and len(ops) == 4
