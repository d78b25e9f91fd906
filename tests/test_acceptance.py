"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import contextlib
import json
import random
import time

import pytest

from cmforge.arith import factorize, is_fundamental_discriminant, kronecker
from cmforge.cli import EXIT_INFEASIBLE, EXIT_USAGE, main
from cmforge.cmvalue import rho
from cmforge.crosscheck import (
    RELATIVE_TOLERANCE,
    admissible_pairs,
    run_crosscheck,
)
from cmforge.errors import SignResolutionError
from cmforge.gzrhs import (
    RAMIFIED_OF_M,
    RAMIFIED_OF_MD,
    enumerate_terms,
    gz_log_norm,
    gz_params,
)
from cmforge.hauptmodul import (
    ETA_QUOTIENT_PRIMES,
    Hauptmodul,
    eta_with_bound,
    value_with_bound,
    working_context,
)
from cmforge.hcp import build_pairs, interpolate, resolve_signs, s_set
from cmforge.quadforms import admissible_residues, class_number, heegner_reps


@contextlib.contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description} ({time.time() - start:.1f}s)")


def test_criterion_1_reference_example_end_to_end(capsys):
    with criterion(1, "classpoly --p 47 --d 39 reproduces the reference quartic"):
        start = time.time()
        code = main(["--format", "json", "classpoly", "--p", "47", "--d", "39"])
        elapsed = time.time() - start
        out = capsys.readouterr().out
        assert code == 0
        parsed = json.loads(out.strip())
        assert parsed["result"]["polynomial"] == "X^4 - X^3 + 2X^2 - 2X + 1"
        assert parsed["result"]["coefficients"] == [1, -2, 2, -1, 1]
        table = [(row["D"], row["x_mag"], row["y_mag"]) for row in parsed["result"]["pairs"]]
        assert table == [(11, 0, 1), (19, 1, 1), (43, 1, 7), (67, 2, 13), (163, 4, 217)]
        signed = [(row["x"], row["y"]) for row in parsed["result"]["pairs"]]
        assert signed == [(0, 1), (1, 1), (-1, 7), (2, 13), (4, 217)]
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_reference_components(capsys):
    with criterion(2, "S(47), h(-39), the residue 41, and the CM point are exact"):
        code = main(["--format", "json", "sset", "--p", "47"])
        parsed = json.loads(capsys.readouterr().out.strip())
        assert code == 0
        assert parsed["result"]["s_set"] == [-11, -19, -43, -67, -163]
        assert class_number(-39) == 4
        assert 41 in admissible_residues(-11, 47)
        reps = heegner_reps(-11, 47, 41)
        assert len(reps) == 1 and (reps[0].a, reps[0].b, reps[0].c) == (47, 41, 9)
        assert reps[0].discriminant == -11


def test_criterion_3_exact_vs_numeric_cross_validation():
    with criterion(3, "exact and numeric sides agree to 1e-8 on 5 pairs per prime"):
        start = time.time()
        differing = []
        for p in ETA_QUOTIENT_PRIMES:
            hm = Hauptmodul(p, digits=80)
            for d, D in admissible_pairs(p, max_disc=500, count=5):
                res = run_crosscheck(hm, d, D)
                assert res.passes[RAMIFIED_OF_MD], (p, d, D, res.discrepancy)
                assert res.discrepancy[RAMIFIED_OF_MD] < RELATIVE_TOLERANCE
                if res.variants_differ:
                    winner = [v for v, ok in res.passes.items() if ok]
                    differing.append(((p, d, D), winner))
        elapsed = time.time() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        # adjudication record: whenever the two ramified-exponent readings
        # disagree, the ord_q(m*D) variant is the one matching numerics
        assert differing, "expected at least one variant-differing pair"
        for pair, winner in differing:
            assert winner == [RAMIFIED_OF_MD], (pair, winner)
        print(f"  ramified-exponent adjudication on {len(differing)} differing "
              f"pairs: {RAMIFIED_OF_MD} passes, {RAMIFIED_OF_M} does not")


def test_criterion_4_oracle_equivalences():
    with criterion(4, "ideal counts, class numbers, and the product formula match oracles"):
        for D in (11, 19, 39, 43, 47, 67, 163):
            for n in range(1, 10 ** 4 + 1):
                expected = sum(kronecker(-D, t) for t in factorize(n).divisors())
                assert rho(n, D) == expected, (n, D)
        from test_quadforms import brute_force_class_count

        for disc in range(-2000, -2):
            if is_fundamental_discriminant(disc):
                assert class_number(disc) == brute_force_class_count(disc), disc
        from test_arith import hilbert_product_formula_holds, random_representative

        rng = random.Random(97)
        for _ in range(1000):
            assert hilbert_product_formula_holds(random_representative(rng),
                                                 random_representative(rng))


def test_criterion_5_modular_invariance():
    with criterion(5, "eta functional equations and generator invariance at 1e-70"):
        start = time.time()
        ctx = working_context(80)
        rng = random.Random(137)
        tol = ctx.mpf(10) ** -70
        shift_factor = ctx.expjpi(ctx.mpf(1) / 12)
        for _ in range(100):
            tau = ctx.mpc(str(rng.uniform(-0.5, 0.5)), str(rng.uniform(0.05, 5.0)))
            base = eta_with_bound(tau, ctx)[0]
            assert abs(eta_with_bound(tau + 1, ctx)[0] - shift_factor * base) < tol
            flipped = eta_with_bound(-1 / tau, ctx)[0]
            assert abs(flipped - ctx.sqrt(ctx.mpc(0, -1) * tau) * base) < tol
        for p in ETA_QUOTIENT_PRIMES:
            hm = Hauptmodul(p, digits=80)
            for _ in range(20):
                radius = ctx.mpf(str(rng.uniform(0.65, 1.55))) / ctx.sqrt(p)
                angle = ctx.mpf(str(rng.uniform(0.35, 0.75))) * ctx.pi
                tau = radius * ctx.mpc(ctx.cos(angle), ctx.sin(angle))
                v = value_with_bound(hm, tau, reduce_first=False)[0]
                shifted = value_with_bound(hm, tau + 1, reduce_first=False)[0]
                flipped = value_with_bound(hm, -1 / (p * tau), reduce_first=False)[0]
                scale = max(1, abs(v))
                assert abs(shifted - v) / scale < tol, (p, tau)
                assert abs(flipped - v) / scale < tol, (p, tau)
        elapsed = time.time() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_6_structural_invariants():
    with criterion(6, "terms positive and integral, exponents nonnegative, swap symmetry"):
        grid = []
        for p in ETA_QUOTIENT_PRIMES:
            grid += [(p, d, D) for d, D in admissible_pairs(p, max_disc=120, count=5)]
        grid += [(11, d, D) for d, D in admissible_pairs(11, max_disc=80, count=3)]
        grid += [(47, 11, 163), (47, 39, 163), (13, 43, 51)]
        for p, d, D in grid:
            params = gz_params(p=p, d=d, D=D)
            g = params.g
            for term in enumerate_terms(params):
                assert term.md > 0
                assert 4 * g * g * p * term.md == g * g * d * D - term.t ** 2
            pls = gz_log_norm(params)
            assert pls.nonnegative_integral(), (p, d, D)
            swapped = gz_log_norm(gz_params(p=p, d=D, D=d))
            assert pls == swapped, (p, d, D)


def test_criterion_7_negative_paths(capsys):
    with criterion(7, "rejections carry the documented exit codes"):
        assert main(["gznorm", "--p", "47", "--D", "39", "--d", "39"]) == EXIT_USAGE
        assert "distinct" in capsys.readouterr().err
        assert main(["gznorm", "--p", "47", "--D", "4", "--d", "39"]) == EXIT_USAGE
        assert "exceed 4" in capsys.readouterr().err
        assert main(["gznorm", "--p", "47", "--D", "163", "--d", "11",
                     "--beta", "40"]) == EXIT_USAGE
        assert "admissible" in capsys.readouterr().err
        assert main(["classpoly", "--p", "47", "--d", "151"]) == EXIT_INFEASIBLE
        capsys.readouterr()
        points = resolve_signs(build_pairs(39, 33, 47, -11), h=4)
        x, y = points[2]
        points[2] = (x, y + 1)
        with pytest.raises(SignResolutionError):
            interpolate(points, d=39, h=4)
