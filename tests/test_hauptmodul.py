import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp
from hypothesis import given, settings
from hypothesis import strategies as st

from cmforge import crosscheck, hauptmodul
from cmforge.arith import is_fundamental_discriminant
from cmforge.cli import EXIT_OK, main
from cmforge.errors import ParameterError, PrecisionError
from cmforge.hauptmodul import (
    ETA_QUOTIENT_PRIMES,
    GENUS_ZERO_FRICKE_PRIMES,
    MAX_DIGITS,
    Hauptmodul,
    QSeries,
    check_digits,
    cm_values,
    eta_quotient_qseries,
    eta_with_bound,
    lhs_log_norm,
    load_qseries,
    reduce_point,
    value_with_bound,
    working_context,
)
from cmforge.gzrhs import RAMIFIED_OF_M, RAMIFIED_OF_MD
from cmforge.quadforms import (
    QuadraticForm,
    admissible_residues,
    heegner_reps,
    reduced_forms,
    reduction_word,
)

DIGITS = 80  # the default; contexts carry 10 guard digits beyond it


def ctx80():
    return working_context(DIGITS)


def value_at(hm, tau, reduce_first=True):
    return value_with_bound(hm, tau, reduce_first)[0]


def random_tau(ctx, rng, im_low=0.05, im_high=5.0):
    re = ctx.mpf(str(rng.uniform(-0.5, 0.5)))
    im = ctx.mpf(str(rng.uniform(im_low, im_high)))
    return ctx.mpc(re, im)


def test_precision_validation():
    with pytest.raises(ParameterError):
        Hauptmodul(2, digits=0)
    with pytest.raises(ParameterError):
        working_context(0)
    assert Hauptmodul(2).ctx.dps == working_context(80).dps == 90
    assert check_digits(MAX_DIGITS) == MAX_DIGITS
    for digits in (MAX_DIGITS + 1, 10 ** 30):
        with pytest.raises(ParameterError, match="exceeds the ceiling of 10000 digits$"):
            check_digits(digits)
        with pytest.raises(ParameterError, match="exceeds the ceiling"):
            Hauptmodul(2, digits=digits)


def test_hauptmodul_checks_once():
    with pytest.raises(ParameterError, match="6 is not prime"):
        Hauptmodul(6)
    with pytest.raises(ParameterError, match="series is for p=5, not p=7"):
        Hauptmodul(7, series=eta_quotient_qseries(5, 8))
    assert Hauptmodul(47, series=QSeries(p=47, coefficients=(1, 0))).p == 47


def test_contexts_are_independent():
    a = working_context(40)
    b = working_context(200)
    assert a is not b
    assert a.dps != b.dps
    assert mpmath.mp.dps == 15  # global state untouched


def test_one_context_per_precision():
    assert Hauptmodul(2, 80).ctx is Hauptmodul(3, 80).ctx is working_context(80)
    assert Hauptmodul(5, 300).ctx is working_context(300)
    assert working_context(80).dps == 80 + hauptmodul.GUARD_DIGITS


def test_shared_context_keeps_its_precision_through_errors(monkeypatch, tmp_path, capsys):
    # a context is shared by every Hauptmodul at its precision, so no error
    # path may leave it at another one
    from cmforge.cli import EXIT_USAGE, main

    ctx = working_context(DIGITS)
    prec = ctx.prec
    with pytest.raises(PrecisionError, match="^CM values coincide to within"):
        lhs_log_norm(Hauptmodul(2), d=7, beta=1, D=7, mu=1)
    assert ctx.prec == prec

    series = eta_quotient_qseries(5, 6)  # too short for 80 digits at Im(tau) = 0.9
    path = tmp_path / "short.txt"
    path.write_text("\n".join(["p 5", f"count {len(series.coefficients)}",
                               *map(str, series.coefficients)]) + "\n")
    assert main(["--series", str(path), "eval", "--p", "5", "--tau", "0.1+0.9i"]) == EXIT_USAGE
    assert "truncation bound" in capsys.readouterr().err
    assert ctx.prec == prec

    def failing(*args):
        raise PrecisionError("synthetic failure inside workprec")

    monkeypatch.setattr(ctx, "expjpi", failing)  # q is computed at a raised precision
    with pytest.raises(PrecisionError, match="synthetic"):
        value_with_bound(Hauptmodul(2), ctx.mpc("0.1", "0.9"))
    assert ctx.prec == prec
    assert mpmath.mp.dps == 15


def test_eta_closed_forms():
    ctx = ctx80()
    tol = ctx.mpf(10) ** -(DIGITS - 5)
    v1 = eta_with_bound(ctx.mpc(0, 1), ctx)[0]
    ref1 = ctx.gamma(ctx.mpf(1) / 4) / (2 * ctx.pi ** (ctx.mpf(3) / 4))
    assert abs(v1 - ref1) < tol
    v2 = eta_with_bound(ctx.mpc(0, 2), ctx)[0]
    ref2 = ref1 / 2 ** (ctx.mpf(3) / 8)
    assert abs(v2 - ref2) < tol


def test_eta_functional_equations_random():
    ctx = ctx80()
    rng = random.Random(271)
    shift_factor = ctx.expjpi(ctx.mpf(1) / 12)
    tol = ctx.mpf(10) ** -(DIGITS - 5)
    for _ in range(100):
        tau = random_tau(ctx, rng)
        e0 = eta_with_bound(tau, ctx)[0]
        assert abs(eta_with_bound(tau + 1, ctx)[0] - shift_factor * e0) < tol
        lhs = eta_with_bound(-1 / tau, ctx)[0]
        rhs = ctx.sqrt(ctx.mpc(0, -1) * tau) * e0
        assert abs(lhs - rhs) < tol


def test_eta_low_imaginary_part_converges():
    ctx = ctx80()
    value, bound = eta_with_bound(ctx.mpc("0.3", "0.05"), ctx)
    assert bound < ctx.mpf(10) ** -(DIGITS - 2)
    assert abs(value) > 0


def test_eta_max_terms_exceeded(monkeypatch):
    # the term count is known before the series starts, so nothing is computed
    def no_series_work(*args):
        raise AssertionError("series work started before the term-count check")

    monkeypatch.setattr(hauptmodul, "MAX_ETA_TERMS", 8)
    monkeypatch.setattr(hauptmodul, "_rational_q", no_series_work)
    monkeypatch.setattr(hauptmodul, "_pentagonal_sum", no_series_work)
    with pytest.raises(PrecisionError, match="Im"):
        eta_with_bound(complex(0.0, 0.05), ctx80())
    with pytest.raises(PrecisionError, match="Im"):
        value_with_bound(Hauptmodul(2), complex(0.0, 0.05), reduce_first=False)
    # reduced by SL2(Z), tau and p tau move to 20i and 10i, where the same
    # ceiling of 8 terms is far more than the series needs
    monkeypatch.undo()
    direct = value_at(Hauptmodul(2), complex(0.0, 0.05), reduce_first=False)
    monkeypatch.setattr(hauptmodul, "MAX_ETA_TERMS", 8)
    assert abs(value_at(Hauptmodul(2), complex(0.0, 0.05)) - direct) < 1e-70 * abs(direct)


# one reduced Heegner point per eta prime: (p, D), the point of the first form
ORACLE_HEEGNER = ((2, 47), (3, 71), (5, 79), (7, 55), (13, 35))
#: Forms (a, b, c) with p not dividing a at most eta primes: p tau is the
#: point of (a, pb, p^2 c).
OFF_LEVEL_FORMS = (QuadraticForm(47, 41, 9), QuadraticForm(1, 1, 1000), QuadraticForm(3, 1, 5))


@pytest.mark.parametrize("digits", (30, 80, 300, 1000))
def test_eta_kernel_against_mpmath_oracle(digits):
    # mpmath.eta at 50 more digits is an independent oracle for both the
    # values and the returned error bounds, at numbers and at forms
    ctx = working_context(digits)
    oracle = mpmath.ctx_mp.MPContext()
    oracle.dps = digits + 50
    requested = oracle.mpf(10) ** -digits

    def check(value, bound, exact):
        assert abs(oracle.mpc(value) - exact) <= bound
        assert bound <= requested * max(abs(exact), 1)

    def check_eta(tau):
        value, bound = eta_with_bound(tau, ctx)
        check(value, bound, oracle.eta(oracle.mpc(tau)))

    for tau in (ctx.mpc(0, 1), ctx.mpc(0, 2), ctx.mpc("0.3", "0.05")):
        check_eta(tau)
    for form in OFF_LEVEL_FORMS:  # a form's z comes from its exact data
        value, bound = eta_with_bound(form, ctx)
        root = oracle.sqrt(-form.discriminant)
        check(value, bound, oracle.eta((oracle.mpc(-form.b, 0) + oracle.mpc(0, 1) * root)
                                       / (2 * form.a)))
    for p, D in ORACLE_HEEGNER:
        form = heegner_reps(-D, p, admissible_residues(-D, p)[0])[0]
        tau = (ctx.mpc(-form.b, 0) + ctx.mpc(0, 1) * ctx.sqrt(-form.discriminant)) / (2 * form.a)
        tau = reduce_point(tau, p, ctx)
        check_eta(tau)
        check_eta(p * tau)
        # value_with_bound takes q^p from q, i.e. the exact p times the rounded tau
        e = 24 // (p - 1)
        exact_tau = oracle.mpc(tau)
        t = (oracle.eta(exact_tau) / oracle.eta(p * exact_tau)) ** e
        value, bound = value_with_bound(Hauptmodul(p, digits), tau, reduce_first=False)
        check(value, bound, t + oracle.mpf(p) ** (e // 2) / t)


def pentagonal_terms(pairs):
    """{exponent: sign} of the terms of S(q) past 1 - q, for |k| <= pairs."""
    return {n: (-1) ** k for k in range(1, pairs + 1)
            for n in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if n > 1}


def run_steps(steps):
    """Play an addition sequence on exponents: each step must read powers
    made before it and not yet dropped.  Returns ({exponent: sign} of the
    summed powers, the exponents still held at the end, and for each step
    the exponents it holds afterwards)."""
    held, summed, after = {1}, {}, []
    for c, a, b, sign, spent in steps:
        assert {a, b} <= held and c == a + b, (c, a, b)
        held.add(c)
        if sign:
            assert c not in summed
            summed[c] = sign
        assert set(spent) <= held
        held -= set(spent)
        after.append(set(held))
    return summed, held, after


def test_addition_sequence_covers_every_term_from_earlier_powers():
    # every step reads only powers made before it, every pentagonal exponent
    # up to pairs(3 pairs + 1)/2 is made and summed once with its sign, and
    # a sequence built for its pair count holds only what later steps read
    full = hauptmodul._addition_sequence(2000)
    summed, _, _ = run_steps(full)
    assert summed == pentagonal_terms(2000)
    for pairs in (*range(0, 131), 500, 1999, 2000):
        steps = hauptmodul._pentagonal_steps(pairs)
        assert [s[:4] for s in steps] == [s[:4] for s in full[:len(steps)]]
        summed, _, _ = run_steps(steps)
        assert summed == pentagonal_terms(pairs)
    for pairs in (1, 2, 12, 34, 65, 500):
        steps = hauptmodul._addition_sequence(pairs)
        _, held, after = run_steps(steps)
        assert held == set()
        for i, kept in enumerate(after):
            later = {e for c, a, b, _, _ in steps[i + 1:] for e in (a, b)}
            assert kept <= later, (pairs, i)


def test_steps_past_the_table_build_only_the_later_pairs(monkeypatch):
    # past _TABLE_PAIRS the steps are _TABLE's products followed by those of
    # the later pairs, with the spent lists of the whole taken anew: the
    # sequence _addition_sequence builds, splitting only the later powers
    expected = hauptmodul._addition_sequence(83)
    split = []
    swap = hauptmodul._conjugate_swap

    def counting(z, m, u, v):
        split.append(z)
        return swap(z, m, u, v)

    monkeypatch.setattr(hauptmodul, "_conjugate_swap", counting)
    assert hauptmodul._pentagonal_steps(83) == expected
    assert min(split) == 6 * (hauptmodul._TABLE_PAIRS + 1) - 1
    assert max(split) == 6 * 83 + 1
    del split[:]
    assert hauptmodul._pentagonal_steps(hauptmodul._TABLE_PAIRS) == hauptmodul._TABLE
    assert split == []


def test_the_built_in_sequence_covers_heegner_points_at_1000_digits():
    # the sequence is built once for _TABLE_PAIRS pairs: every Heegner point
    # tau and p tau of these discriminants reduces by SL2(Z) to
    # Im >= sqrt(3)/2, where 17 pairs reach 1000 digits, and any point that
    # high needs at most _TABLE_PAIRS pairs at MAX_DIGITS
    ctx = working_context(1000)
    most = 0
    for p in ETA_QUOTIENT_PRIMES:
        for D in range(3, 400):
            if not is_fundamental_discriminant(-D) or not admissible_residues(-D, p):
                continue
            for form in heegner_reps(-D, p, admissible_residues(-D, p)[0]):
                for f in ((form.a, form.b, form.c), (form.a // p, form.b, p * form.c)):
                    height = mpmath.sqrt(D) / (2 * reduction_word(*f)[0][0])
                    assert height >= mpmath.sqrt(3) / 2
                    most = max(most, hauptmodul._pentagonal_pairs(height, ctx.prec))
    assert most == 17
    highest = working_context(MAX_DIGITS).prec
    assert hauptmodul._pentagonal_pairs(mpmath.sqrt(3) / 2, highest) == hauptmodul._TABLE_PAIRS


@pytest.mark.parametrize("digits, height, inside", ((300, "0.05", True), (1000, "0.1", True),
                                                    (30, "0.0015", False),
                                                    (80, "0.004", False)))
def test_pentagonal_sum_against_mpmath_oracle(digits, height, inside):
    # S(q) = eta(tau) e^(-pi i tau/12) from mpmath at 50 more digits, with
    # pair counts inside and beyond the sequence built at import
    ctx = working_context(digits)
    tau = ctx.mpc("0.3", height)
    pairs = hauptmodul._pentagonal_pairs(tau.imag, ctx.prec)
    assert (pairs <= hauptmodul._TABLE_PAIRS) == inside
    bits = hauptmodul._fixed_bits(ctx)
    x, y, one = hauptmodul._binary_point(tau)
    q = hauptmodul._to_fixed(hauptmodul._rational_q(ctx, (x, y), one), bits)
    oracle = mpmath.ctx_mp.MPContext()
    oracle.dps = digits + 50
    got, err = hauptmodul._pentagonal_sum(q, hauptmodul._Q_ERR_ULPS, pairs, bits).to_mpc(oracle)
    exact_tau = oracle.mpc(tau)
    exact = oracle.eta(exact_tau) / oracle.expjpi(exact_tau / 12)
    assert abs(got - exact) <= err <= oracle.mpf(10) ** -digits


def test_pentagonal_sum_takes_one_or_two_products_per_power(monkeypatch):
    # one or two per pentagonal power, where a recurrence advancing q^k and
    # q^(3k-2) takes 4 pairs - 1: 47 and 135
    products = []
    fixed_mul = hauptmodul.fixed_mul

    def counting(x, y, shift):
        products.append(shift)
        return fixed_mul(x, y, shift)

    monkeypatch.setattr(hauptmodul, "fixed_mul", counting)
    bits = 128
    for pairs, most in ((12, 39), (34, 97)):
        products.clear()
        hauptmodul._pentagonal_sum((3 << 124, 1 << 125), 8, pairs, bits)
        assert len(products) <= most


#: Per eta prime, (D, residue) whose Heegner forms include a self-paired one
#: and one with a > p and b != 0.
ORACLE_FORMS = {2: (23, 1), 3: (23, 1), 5: (31, 3), 7: (31, 5), 13: (23, 9)}


@pytest.mark.parametrize("digits", (30, 80, 300, 1000))
def test_value_at_a_form_against_mpmath_oracle(digits):
    # a form's q comes from its exact data, not from an mpc point: mpmath.eta
    # at the exact CM point (-b + sqrt(disc)) / (2a), at 50 more digits,
    # checks the value and the bound, with and without the exact reduction,
    # at the first form, at the self-paired one (a > p, b != 0), at the
    # first form shifted by 1, whose b lies outside (-a, a], and at the
    # forms of OFF_LEVEL_FORMS whose a p does not divide
    oracle = mpmath.ctx_mp.MPContext()
    oracle.dps = digits + 50
    requested = oracle.mpf(10) ** -digits

    def check(form, exact):
        for reduce_first in (True, False):
            value, bound = value_with_bound(hm, form, reduce_first)
            assert abs(oracle.mpc(value) - exact) <= bound, (p, form, reduce_first)
            assert bound <= requested * max(abs(exact), 1), (p, form, reduce_first)

    for p, (D, beta) in ORACLE_FORMS.items():
        hm = Hauptmodul(p, digits)
        e = 24 // (p - 1)
        forms = heegner_reps(-D, p, beta)
        partner = partners(forms, p)
        (paired,) = [form for i, form in enumerate(forms) if partner[i] == i]
        assert paired.a > p and paired.b != 0
        first = forms[0]
        shifted = QuadraticForm(first.a, first.b + 2 * first.a, first.a + first.b + first.c)
        points = [(first, (first, shifted)), (paired, (paired,))]
        points += [(form, (form,)) for form in OFF_LEVEL_FORMS if form.a % p]
        for form, forms_at_point in points:
            root = oracle.sqrt(-form.discriminant)
            tau = (oracle.mpc(-form.b, 0) + oracle.mpc(0, 1) * root) / (2 * form.a)
            t = (oracle.eta(tau) / oracle.eta(p * tau)) ** e
            for same in forms_at_point:  # j*_p(tau + 1) = j*_p(tau)
                check(same, t + oracle.mpf(p) ** (e // 2) / t)


def test_eta_rejects_lower_half_plane():
    with pytest.raises(ParameterError):
        eta_with_bound(complex(0.0, -1.0), ctx80())
    with pytest.raises(ParameterError):
        eta_with_bound(complex(1.0, 0.0), ctx80())


def test_generator_closed_form_value_at_i():
    # eta(2i) = eta(i)/2^(3/8) gives t = 2^9 at tau = i, so the value is 520
    ctx = ctx80()
    at_i = value_at(Hauptmodul(2), ctx.mpc(0, 1))
    assert abs(at_i - 520) < ctx.mpf(10) ** -(DIGITS - 5)


def test_fricke_constant_numerically():
    # t(-1/(p tau)) * t(tau) = p^(12/(p-1)) pins the closed-form constant
    ctx = ctx80()
    rng = random.Random(277)
    for p in ETA_QUOTIENT_PRIMES:
        e = 24 // (p - 1)
        tau = random_tau(ctx, rng, 0.3, 1.2)
        t1 = (eta_with_bound(tau, ctx)[0] / eta_with_bound(p * tau, ctx)[0]) ** e
        flipped = -1 / (p * tau)
        t2 = (eta_with_bound(flipped, ctx)[0] / eta_with_bound(p * flipped, ctx)[0]) ** e
        expected = ctx.mpf(p) ** (e // 2)
        assert abs(t1 * t2 - expected) < ctx.mpf(10) ** -(DIGITS - 10)


def fricke_circle_tau(ctx, rng, p):
    # |tau|^2 near 1/p keeps both tau and -1/(p tau) honestly evaluable
    radius = ctx.mpf(str(rng.uniform(0.65, 1.55))) / ctx.sqrt(p)
    angle = ctx.mpf(str(rng.uniform(0.35, 0.75))) * ctx.pi
    return radius * ctx.mpc(ctx.cos(angle), ctx.sin(angle))


def test_hauptmodul_invariance_at_generators():
    ctx = ctx80()
    rng = random.Random(281)
    tol = ctx.mpf(10) ** -70
    for p in ETA_QUOTIENT_PRIMES:
        hm = Hauptmodul(p)
        for _ in range(20):
            tau = fricke_circle_tau(ctx, rng, p)
            base = value_at(hm, tau, reduce_first=False)
            shifted = value_at(hm, tau + 1, reduce_first=False)
            flipped = value_at(hm, -1 / (p * tau), reduce_first=False)
            scale = max(1, abs(base))
            assert abs(shifted - base) / scale < tol, (p, tau)
            assert abs(flipped - base) / scale < tol, (p, tau)


def test_hauptmodul_gamma0_translates():
    # invariance under lower-triangular level-p matrices, reduced evaluation
    ctx = ctx80()
    rng = random.Random(283)
    tol = ctx.mpf(10) ** -65
    for p in (2, 5, 13):
        hm = Hauptmodul(p)
        for a, b, c, d in ((1, 1, 0, 1), (1, 0, p, 1), (p + 1, 1, p, 1)):
            assert a * d - b * c == 1
            tau = random_tau(ctx, rng, 0.4, 1.5)
            moved = (a * tau + b) / (c * tau + d)
            v1 = value_at(hm, tau)
            v2 = value_at(hm, moved)
            assert abs(v1 - v2) / max(1, abs(v1)) < tol


def test_reduction_consistency():
    ctx = ctx80()
    rng = random.Random(293)
    tol = ctx.mpf(10) ** -70
    for p in ETA_QUOTIENT_PRIMES:
        hm = Hauptmodul(p)
        for _ in range(5):
            tau = random_tau(ctx, rng, 0.45, 2.0)
            direct = value_at(hm, tau, reduce_first=False)
            reduced = value_at(hm, tau, reduce_first=True)
            assert abs(direct - reduced) / max(1, abs(direct)) < tol


def test_reduce_point_lands_in_domain():
    # the reduction is exact: at every genus-zero p the reduced point lies in
    # |Re| <= 1/2, p|tau|^2 >= 1 with no slack, no lower than tau and at
    # least as high as the coset start, sqrt(3)/(2p); the mpc reduce_point
    # returns is that point rounded
    ctx = ctx80()
    rng = random.Random(307)
    for p in sorted(GENUS_ZERO_FRICKE_PRIMES):
        for _ in range(25):
            tau = ctx.mpc(str(rng.uniform(-8, 8)), str(10 ** rng.uniform(-3, 0.5)))
            x, y, one = hauptmodul._binary_point(tau)
            (re, im), den = hauptmodul._fricke_point(x, y, one, p)
            re, im = Fraction(re, den), Fraction(im, den)
            assert abs(re) <= Fraction(1, 2) and p * (re * re + im * im) >= 1, (p, tau)
            assert im >= Fraction(y, one) and 4 * p * p * im * im >= 3, (p, tau)
            out = reduce_point(tau, p, ctx)
            got, exp = hauptmodul.exact_pair(out.real._mpf_, out.imag._mpf_)
            for part, want in zip(got, (re, im)):
                assert abs(part * Fraction(2) ** exp - want) <= abs(want) / 2 ** ctx.prec


def test_reduce_point_flip_ceiling(monkeypatch):
    # tau = 0.3 + 0.001i needs four flips at p = 2, and its cap, from
    # 2^-10 <= Im(tau) < 2^-9, is 12; a cap below four refuses with the
    # count rather than return an unreduced point
    ctx = ctx80()
    tau = ctx.mpc("0.3", "0.001")
    _, man, exp, _ = tau.imag._mpf_
    assert hauptmodul._max_flips(man, 1 << -exp) == 12
    reduced = reduce_point(tau, 2, ctx)
    monkeypatch.setattr(hauptmodul, "_max_flips", lambda y, one: 4)
    assert reduce_point(tau, 2, ctx) == reduced
    monkeypatch.setattr(hauptmodul, "_max_flips", lambda y, one: 3)
    with pytest.raises(PrecisionError, match="^tau not reduced at level 2 within 3 flips$"):
        reduce_point(tau, 2, ctx)


def test_qseries_heads_frozen():
    qs2 = eta_quotient_qseries(2, 8)
    assert qs2.coefficients[:4] == (1, -24, 4372, 96256)
    qs5 = eta_quotient_qseries(5, 8)
    assert qs5.coefficients[:4] == (1, -6, 134, 760)


def test_qseries_leading_behavior():
    # value * q -> 1 at high points: the expansion is q^(-1) + O(1)
    ctx = ctx80()
    hm = Hauptmodul(5, digits=40)
    for height in (3, 4):
        tau = ctx.mpc(0, height)
        q = ctx.expjpi(2 * tau)
        assert abs(value_at(hm, tau) * q - 1) < 10 * abs(q)


def test_qseries_matches_closed_form():
    ctx = ctx80()
    rng = random.Random(311)
    tol = ctx.mpf(10) ** -(DIGITS - 10)
    for p in ETA_QUOTIENT_PRIMES:
        closed, from_series = Hauptmodul(p), Hauptmodul(p, series=eta_quotient_qseries(p, 90))
        for _ in range(3):
            tau = random_tau(ctx, rng, 0.85, 1.6)
            direct = value_at(closed, tau)
            via_series = value_at(from_series, tau)
            assert abs(direct - via_series) / max(1, abs(direct)) < tol, p


def test_qseries_validation():
    with pytest.raises(ParameterError):
        QSeries(p=5, coefficients=(2, 0, 1))  # c(-1) != 1 rejected
    with pytest.raises(ParameterError):
        QSeries(p=5, coefficients=(1,))
    with pytest.raises(ParameterError):
        QSeries(p=6, coefficients=(1, 0))


def test_qseries_file_roundtrip(tmp_path):
    qs = eta_quotient_qseries(5, 40)
    path = tmp_path / "p5.qseries"
    lines = [f"# generator expansion for p={qs.p}", f"p {qs.p}", f"count {len(qs.coefficients)}"]
    lines += [str(c) for c in qs.coefficients]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    loaded = load_qseries(path)
    assert loaded.p == 5 and loaded.coefficients == qs.coefficients


def test_qseries_file_rejections(tmp_path):
    bad_residue = tmp_path / "bad1"
    bad_residue.write_text("p 5\ncount 3\n2\n0\n1\n", encoding="ascii")
    with pytest.raises(ParameterError, match="c\\(-1\\)"):
        load_qseries(bad_residue)
    wrong_count = tmp_path / "bad2"
    wrong_count.write_text("p 5\ncount 4\n1\n0\n1\n", encoding="ascii")
    with pytest.raises(ParameterError, match="expected 4"):
        load_qseries(wrong_count)
    no_header = tmp_path / "bad3"
    no_header.write_text("1\n0\n", encoding="ascii")
    with pytest.raises(ParameterError):
        load_qseries(no_header)
    not_integer = tmp_path / "bad4"
    not_integer.write_text("p 5\ncount 2\n1\n0.5\n", encoding="ascii")
    with pytest.raises(ParameterError, match="not an integer"):
        load_qseries(not_integer)


def test_series_required_for_large_primes():
    for p in (11, 17, 19, 23, 29, 31, 41, 47, 59, 71):
        with pytest.raises(ParameterError,
                           match=f"^no closed form for p={p}; supply a coefficient file$"):
            Hauptmodul(p)


def test_series_truncation_bound_enforced():
    short = Hauptmodul(5, series=eta_quotient_qseries(5, 6))
    ctx = ctx80()
    with pytest.raises(PrecisionError, match="^truncation bound .* exceeds the requested precision"):
        value_at(short, ctx.mpc("0.1", "0.9"))


def test_value_at_heegner_point():
    # a form evaluates like its explicit CM point (-41 + sqrt(-11)) / 94
    ctx = ctx80()
    form = QuadraticForm(47, 41, 9)
    explicit = (ctx.mpc(-41, 0) + ctx.mpc(0, 1) * ctx.sqrt(ctx.mpf(11))) / 94
    exact = value_at(Hauptmodul(2), form)
    assert abs(exact - value_at(Hauptmodul(2), explicit)) < ctx.mpf(10) ** -75 * abs(exact)


def test_value_at_indefinite_form_rejected():
    with pytest.raises(ParameterError, match="not positive definite"):
        value_with_bound(Hauptmodul(2), QuadraticForm(1, 5, 1))


def test_lhs_log_norm_swap_symmetry_and_stability():
    args = dict(d=7, beta=1, D=15, mu=1)
    base, base_error = lhs_log_norm(Hauptmodul(2), **args)
    swapped, _ = lhs_log_norm(Hauptmodul(2), d=15, beta=1, D=7, mu=1)
    assert abs(base - swapped) < 1e-20
    doubled, _ = lhs_log_norm(Hauptmodul(2, digits=160), **args)
    assert abs(base - doubled) < 1e-20
    assert base_error < 1e-60


def test_lhs_log_norm_guards():
    with pytest.raises(ParameterError):
        lhs_log_norm(Hauptmodul(2, digits=20), d=7, beta=1, D=15, mu=1)
    with pytest.raises(PrecisionError, match="^CM values coincide to within"):
        lhs_log_norm(Hauptmodul(2), d=7, beta=1, D=7, mu=1)


def heegner_classes(p, max_disc=300):
    """(d, beta, forms) for every fundamental -d with d < max_disc and every
    admissible residue beta mod 2p."""
    for d in range(3, max_disc):
        if is_fundamental_discriminant(-d):
            for beta in admissible_residues(-d, p):
                yield d, beta, heegner_reps(-d, p, beta)


def conjugate_form(form, p):
    """The Heegner form (pc, b, a/p) whose CM value is the complex conjugate of
    form's: j*_p has real coefficients, so the mirror (a, -b, c) carries the
    conjugate value, and (pc, b, a/p) is its image under the Fricke flip."""
    return QuadraticForm(p * form.c, form.b, form.a // p)


def partners(forms, p):
    def reduced(f):
        return reduction_word(f.a, f.b, f.c)[0]

    index = {reduced(f): i for i, f in enumerate(forms)}
    return [index[reduced(conjugate_form(f, p))] for f in forms]


def assert_reduced_form(form, p):
    assert -form.a < form.b <= form.a and p * form.c >= form.a and form.a % p == 0


@pytest.mark.parametrize("p", ETA_QUOTIENT_PRIMES)
def test_conjugate_forms_pair_the_cm_values(p):
    # the partner map is an involution on each class set, and the value at
    # the partner is the conjugate, within the two bounds; cm_values returns
    # that conjugate for the partner and a real value for a self-paired form,
    # and where p | d, when W_p also pairs the forms, it still agrees with
    # the direct value at every form
    hm = Hauptmodul(p)
    for d, beta, forms in heegner_classes(p):
        partner = partners(forms, p)
        assert [partner[j] for j in partner] == list(range(len(forms))), (d, beta)
        direct = [value_with_bound(hm, f) for f in forms]
        for i, j in enumerate(partner):
            (vi, ei), (vj, ej) = direct[i], direct[j]
            assert abs(vj - vi.conjugate()) <= ei + ej, (d, beta, forms[i])
        for i, (value, bound) in enumerate(cm_values(hm, -d, beta)):
            assert abs(value - direct[i][0]) <= bound + direct[i][1], (d, beta, forms[i])
            if partner[i] == i:
                assert value.imag == 0


def test_crosscheck_reduces_one_point_per_orbit(monkeypatch):
    # p = 2, d = 7, D = 71: h(-71) = 7 with one real point and three pairs,
    # h(-7) = 1 real; five evaluations instead of eight
    p, d, D = 2, 7, 71
    hm = Hauptmodul(p)
    classes = {}  # disc -> (forms, real values)
    orbits = 0
    for disc in (d, D):
        beta = min(admissible_residues(-disc, p))
        partner = partners(heegner_reps(-disc, p, beta), p)
        real = sum(i == j for i, j in enumerate(partner))
        classes[disc] = (len(partner), real)
        orbits += real + (len(partner) - real) // 2
    assert classes == {7: (1, 1), 71: (7, 1)}
    calls = []
    original = hauptmodul._form_value

    def counting(hm, form, *args, **kwargs):
        calls.append(form)
        return original(hm, form, *args, **kwargs)

    monkeypatch.setattr(hauptmodul, "_form_value", counting)
    result = crosscheck.run_crosscheck(hm, d, D)
    assert result.passed()
    assert len(calls) == orbits == 5
    assert all(isinstance(tau, QuadraticForm) for tau in calls)


def test_one_log_per_side_of_the_crosscheck(monkeypatch):
    # the numeric side takes one log of the product of all its factors, and
    # the exact side one log of the rational prod q^(e_q)
    from cmforge.gzrhs import PrimeLogSum

    hm = Hauptmodul(2)
    ctx = hm.ctx
    logs = []
    original = ctx.log

    def counting(x):
        logs.append(x)
        return original(x)

    monkeypatch.setattr(ctx, "log", counting)
    value, _ = lhs_log_norm(hm, d=7, beta=1, D=71, mu=min(admissible_residues(-71, 2)))
    assert len(logs) == 1
    exact = PrimeLogSum({3: 32, 5: 16, 7: 8, 13: -8})
    logged = exact.log_value_mpf(ctx)
    assert len(logs) == 2
    with ctx.workprec(ctx.prec + 20):
        direct = 32 * ctx.log(3) + 16 * ctx.log(5) + 8 * ctx.log(7) - 8 * ctx.log(13)
    assert abs(logged - direct) < ctx.mpf(10) ** -(DIGITS + 5)
    del logs[:]
    result = crosscheck.run_crosscheck(hm, 7, 71)
    assert result.passed() and result.lhs == float(value)
    # the left side and one log per distinct ramified variant: (7, 71) and
    # (7, 23) agree, so both variants take the same log, and (7, 15) differs
    assert not result.variants_differ and len(logs) == 2
    for D, differ, count in ((23, False, 2), (15, True, 3)):
        del logs[:]
        result = crosscheck.run_crosscheck(hm, 7, D)
        assert result.variants_differ == differ and len(logs) == count, D
        if not differ:
            assert result.rhs[RAMIFIED_OF_M] == result.rhs[RAMIFIED_OF_MD]


def test_lhs_error_estimate_covers_a_doubled_precision():
    for p in ETA_QUOTIENT_PRIMES:
        for d, D in crosscheck.admissible_pairs(p, count=4):
            beta = min(admissible_residues(-d, p))
            mu = min(admissible_residues(-D, p))
            value, bound = lhs_log_norm(Hauptmodul(p), d, beta, D, mu)
            finer, _ = lhs_log_norm(Hauptmodul(p, digits=160), d, beta, D, mu)
            assert 0 < bound < 1e-70
            assert abs(value - finer) <= bound, (p, d, D)


#: Per eta prime, a reduced form with |b| = a and one with pc = a.
BOUNDARY_FORMS = {2: ((2, 2, 3), (2, 1, 1)), 3: ((3, 3, 1), (3, 1, 1)),
                  5: ((5, 5, 2), (5, 3, 1)), 7: ((7, 7, 2), (7, 1, 1)),
                  13: ((13, 13, 4), (13, 5, 1))}


@pytest.mark.parametrize("p", ETA_QUOTIENT_PRIMES)
def test_reduce_point_reduces_heegner_forms_exactly(p):
    # the integer reduction lands in -a < b <= a, pc >= a, and evaluates
    # like the numeric reduction of the form's point, within both bounds;
    # shifts and flips of a boundary form reduce to a boundary form.  The
    # point is evaluated 30 digits finer, so the rounding of tau falls
    # inside the finer bound and the form's bound stands on its own
    hm = Hauptmodul(p)
    fine = Hauptmodul(p, hm.digits + 30)
    ctx = hm.ctx
    boundary = []
    for a, b, c in BOUNDARY_FORMS[p]:
        boundary += [QuadraticForm(a, b, c), QuadraticForm(p * c, -b, a // p)]
        boundary += [QuadraticForm(a, b + 2 * a * n, (a * n + b) * n + c) for n in (-2, 3)]
    for form in boundary:
        reduced = reduce_point(form, p, ctx)
        assert abs(reduced.b) == reduced.a or p * reduced.c == reduced.a, form
    forms = list(boundary)
    for _, _, reps in heegner_classes(p, 120):
        forms += reps
    for form in forms:
        reduced = reduce_point(form, p, ctx)
        assert_reduced_form(reduced, p)
        assert reduced.discriminant == form.discriminant
        exact, exact_bound = value_with_bound(hm, form)
        root = fine.ctx.sqrt(-form.discriminant)
        point = (fine.ctx.mpc(-form.b, 0) + fine.ctx.mpc(0, 1) * root) / (2 * form.a)
        numeric, numeric_bound = value_with_bound(fine, point)
        assert abs(fine.ctx.mpc(exact) - numeric) <= exact_bound + numeric_bound, (p, form)


def sl2_word(tau, word):
    """tau moved by word, a list of (n, flip): tau + n, then -1/tau if flip."""
    for n, flip in word:
        tau = tau + n
        if flip:
            tau = -1 / tau
    return tau


words = st.lists(st.tuples(st.integers(-3, 3), st.booleans()), max_size=6)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(word=words, re=st.floats(-0.5, 0.5), im=st.floats(0.87, 3.0),
       e=st.sampled_from([2, 4, 6, 12, 24]), disc=st.sampled_from([-23, -71, -84, -203]),
       pick=st.integers(0, 100))
def test_eta_multiplier_of_the_reduction_words(word, re, im, e, disc, pick):
    # eta^e(tau) = eta^e(W tau) zeta_12^(-k turns) / (c tau + d)^k, k = e/2,
    # for the word W with lower row (c, d) that each reduction finds: at a
    # point drawn as an SL2(Z) word applied to a point of Im >= 0.87, and at
    # a form drawn as a word applied to a reduced form of reduced_forms,
    # which must reduce back to it.  mpmath.eta at 60 digits is the oracle
    oracle = mpmath.ctx_mp.MPContext()
    oracle.dps = 60
    k = e // 2

    def check(tau, reduced, factor, turns):
        # factor is c tau + d for the lower row (c, d) of the word
        want = oracle.eta(tau) ** e
        got = (oracle.eta(reduced) ** e * oracle.expjpi(-oracle.mpf(k * turns) / 6)
               / factor ** k)
        assert abs(got - want) <= oracle.mpf(10) ** -50 * abs(want), (tau, word)
        assert abs(reduced.real) <= 0.5 + 1e-20 and abs(reduced) >= 1 - 1e-8

    ctx = working_context(60)
    tau = ctx.mpc(sl2_word(ctx.mpc(re, im), word))
    (x, y), exp = hauptmodul.exact_pair(tau.real._mpf_, tau.imag._mpf_)
    one = 1 << max(0, -exp)
    up, low, turns = hauptmodul._reduce_numeric(x << max(0, exp), y << max(0, exp), one)
    up, low = oracle.mpc(*up), oracle.mpc(*low)
    check(oracle.mpc(tau), up / low, low / one, turns)

    forms = reduced_forms(disc)
    start = forms[pick % len(forms)]
    a, b, c = start
    for n, flip in word:  # tau + n is (a, b - 2an, ...), -1/tau is (c, -b, a)
        a, b, c = a, b - 2 * a * n, a * n * n - b * n + c
        if flip:
            a, b, c = c, -b, a
    form = QuadraticForm(a, b, c)
    reduced, (c, d), shift, flips = reduction_word(a, b, c)
    assert reduced == start
    reduced, turns = QuadraticForm(*reduced), shift - 3 * flips

    def point(f):
        return (-f.b + oracle.sqrt(-f.discriminant) * 1j) / (2 * f.a)

    check(point(form), point(reduced), c * point(form) + d, turns)


@pytest.mark.parametrize("p", ETA_QUOTIENT_PRIMES)
def test_heegner_points_reduce_into_the_class_table(p):
    # tau and p tau of every Heegner form reduce, in integers, to members of
    # reduced_forms(-d): the forms whose eta^e the class table holds
    for d, beta, forms in heegner_classes(p, 200):
        table = set(reduced_forms(-d))
        for form in forms:
            for f in ((form.a, form.b, form.c), (form.a // p, form.b, p * form.c)):
                assert reduction_word(*f)[0] in table, (d, beta, form)


def test_partner_classes_follow_from_the_classes_of_tau_and_p_tau():
    # for every Heegner form (a, b, c) at the 15 genus-zero primes, with d <
    # 500 and every residue, the conjugate (pc, b, a/p) lies in the mirror
    # of p tau's class, the Fricke image (pc, -b, a/p) in p tau's class and
    # the mirror (a, -b, c) in the mirror of tau's class: the classes
    # _orbits reads its partners from, reduction_word the oracle throughout
    def reduced(a, b, c):
        return reduction_word(a, b, c)[0]

    def mirror(f):
        return reduced(f[0], -f[1], f[2])

    checked = 0
    for p in sorted(GENUS_ZERO_FRICKE_PRIMES):
        for d, beta, forms in heegner_classes(p, 500):
            for form in forms:
                a, b, c = form.a, form.b, form.c
                tau, p_tau = reduced(a, b, c), reduced(a // p, b, p * c)
                case = (p, d, beta, form)
                assert hauptmodul._mirror(tau) == mirror(tau), case
                assert hauptmodul._mirror(p_tau) == mirror(p_tau), case
                assert reduced(p * c, b, a // p) == mirror(p_tau), case
                assert reduced(p * c, -b, a // p) == p_tau, case
                assert reduced(a, -b, c) == mirror(tau), case
                checked += 1
    assert checked > 16_000


@pytest.mark.parametrize("p, d, D, values, reductions", [(2, 7, 71, 5, 13), (2, 56, 71, 6, 17)])
def test_orbits_reduce_each_form_once_and_each_p_tau_once(monkeypatch, p, d, D, values,
                                                          reductions):
    # beyond heegner_reps' own search, the reductions made from hauptmodul
    # are one per representative and one per orbit, the form of p tau of its
    # one _form_value; 2 | 56, so there W_p joins conjugation (2 orbits of
    # h(-56) = 4 forms, not 3), and 71 gives 4 orbits of 7, 7 one of 1
    words, forms = [], []
    monkeypatch.setattr(hauptmodul, "reduction_word",
                        lambda *f: words.append(f) or reduction_word(*f))
    original = hauptmodul._form_value

    def counting(hm, form, *args):
        forms.append(form)
        return original(hm, form, *args)

    monkeypatch.setattr(hauptmodul, "_form_value", counting)
    beta, mu = min(admissible_residues(-d, p)), min(admissible_residues(-D, p))
    lhs_log_norm(Hauptmodul(p, 300), d, beta, D, mu)
    h = len(heegner_reps(-d, p, beta)) + len(heegner_reps(-D, p, mu))
    assert len(forms) == values and len(words) == h + values == reductions


def test_integer_sqrt_rounds_as_mpf_sqrt():
    # the sqrt(size) of _form_exponentials' one exponential, from an integer
    # square root, is libmp.mpf_sqrt's, rounded down, bit for bit
    rng = random.Random(5)
    sizes = (list(range(1, 300)) + [4 ** 40, (2 ** 61 + 1) ** 2, 10 ** 7 - 1, 2 ** 127 - 1]
             + [rng.randrange(1, 10 ** 30) for _ in range(200)])
    for wp in (1, 2, 3, 53, 64, 366, 1040, 3400):
        for size in sizes:
            assert hauptmodul._sqrt(size, wp) == libmp.mpf_sqrt(libmp.from_int(size), wp), (size, wp)


#: The square roots a twelfth turn e^(pi i n/12) reads, by the sextant n mod 6.
SEXTANT_ROOTS = {0: set(), 1: {2, 6}, 2: {3}, 3: {2}, 4: {3}, 5: {2, 6}}


@pytest.mark.parametrize("wp", (53, 366, 1077))
def test_twelfth_turns_against_mpmath(wp):
    # e^(pi i n/12), n = 0..23, made from 1 by _twelfth_turn at wp: each
    # part within 2^(1 - wp) of mpmath's at 64 more bits, the quarter turns
    # exact, and only the square roots the sextant needs taken
    ctx = mpmath.ctx_mp.MPContext()
    ctx.prec = wp + 64
    for n in range(24):
        roots = {}
        re, im = hauptmodul._twelfth_turn(libmp.fone, libmp.fzero, n, roots, wp)
        exact = ctx.expjpi(ctx.mpf(n) / 12)
        assert set(roots) == SEXTANT_ROOTS[n % 6], (n, wp)
        if n % 6 == 0:
            assert ctx.mpc(ctx.make_mpf(re), ctx.make_mpf(im)) == exact == 1j ** (n // 6)
        for part, oracle in ((re, exact.real), (im, exact.imag)):
            assert abs(ctx.make_mpf(part) - oracle) <= ctx.ldexp(1, 1 - wp), (n, wp)


@pytest.mark.parametrize("m", (1, 2, 4, 6, 12, 24))
def test_form_exponentials_against_mpmath(m):
    # z = e^(2 pi i tau/m) at every reduced form of every fundamental -d,
    # d < 500, lies within _Q_REL_ULPS units of 2^-bits of mpmath's
    # expjpi(2 tau/m) at twice the precision, relatively (bits of 300 digits)
    bits = hauptmodul._fixed_bits(working_context(300))
    ctx = mpmath.ctx_mp.MPContext()
    ctx.prec = 2 * bits
    units = hauptmodul._Q_REL_ULPS * ctx.ldexp(1, -bits)
    checked = 0
    for d in range(3, 500):
        if not is_fundamental_discriminant(-d):
            continue
        forms = reduced_forms(-d)
        root = ctx.sqrt(d)
        zs = hauptmodul._form_exponentials(d, forms, m, bits)
        for (a, b, _), ((re, im), exp) in zip(forms, zs):
            exact = ctx.expjpi(ctx.mpc(-b, root) / (a * m))
            z = ctx.mpc(ctx.ldexp(re, exp), ctx.ldexp(im, exp))
            assert abs(z - exact) <= units * abs(exact), (d, a, b, m)
            checked += 1
    assert checked == 1026


def test_one_cosine_per_form_off_the_twelfth_turns(monkeypatch):
    # _form_exponentials calls mpf_cos_sin once for a form whose angle
    # -b/(am) is not a whole number of twelfth turns, am not dividing 12b,
    # and never for one whose angle is
    calls = []
    cos_sin = libmp.mpf_cos_sin
    monkeypatch.setattr(hauptmodul.libmp, "mpf_cos_sin", lambda *a: calls.append(a) or cos_sin(*a))
    bits = hauptmodul._fixed_bits(working_context(30))
    seen = set()
    for d in range(3, 500):
        if not is_fundamental_discriminant(-d):
            continue
        for a, b, c in reduced_forms(-d):
            for m in (1, 2, 4, 6, 12, 24):
                del calls[:]
                hauptmodul._form_exponentials(d, [(a, b, c)], m, bits)
                off = 12 * b % (a * m) != 0
                assert len(calls) == off, (d, a, b, m)
                seen.add(off)
    assert seen == {False, True}


def test_one_exponential_per_discriminant_and_one_eta_per_reduced_form(monkeypatch):
    # the class set of -d takes eta^e once at each reduced form up to the
    # mirror (a, -b, a), and every z from one exponential and roots of it
    etas, exps = [], []
    eta_power, exp = hauptmodul._eta_power, hauptmodul.libmp.mpf_exp
    monkeypatch.setattr(hauptmodul, "_eta_power", lambda *a: etas.append(a) or eta_power(*a))
    monkeypatch.setattr(hauptmodul.libmp, "mpf_exp", lambda *a: exps.append(a) or exp(*a))
    checked = 0
    for p in ETA_QUOTIENT_PRIMES:
        hm = Hauptmodul(p, 300)
        for d, beta, forms in heegner_classes(p, 120):
            del etas[:], exps[:]
            cm_values(hm, -d, beta)
            up_to_mirror = [f for f in reduced_forms(-d) if f[1] >= 0]
            assert len(etas) == len(up_to_mirror) and len(exps) == 1, (p, d)
            checked += len(forms) > len(up_to_mirror)
    assert checked >= 20


#: (p, d): evaluations per class set under conjugation alone, and with W_p.
FRICKE_SAVINGS = {(2, 56): (3, 2), (2, 104): (3, 2), (3, 231): (6, 4), (7, 203): (3, 2)}


def test_fricke_pairing_saves_evaluations_only_when_p_divides_d(monkeypatch):
    # one _form_value per evaluation; where p does not divide d the count
    # is the number of conjugation orbits, as before W_p joined
    calls = []
    original = hauptmodul._form_value

    def counting(hm, form, *args, **kwargs):
        calls.append(form)
        return original(hm, form, *args, **kwargs)

    monkeypatch.setattr(hauptmodul, "_form_value", counting)
    seen = {}
    for p in ETA_QUOTIENT_PRIMES:
        hm = Hauptmodul(p, 30)
        for d, beta, forms in heegner_classes(p):
            conjugation = sum(i <= j for i, j in enumerate(partners(forms, p)))
            del calls[:]
            cm_values(hm, -d, beta)
            if d % p:
                assert len(calls) == conjugation, (p, d, beta)
            else:
                assert len(calls) <= conjugation, (p, d, beta)
                seen[p, d] = (conjugation, len(calls))
    assert {key: seen[key] for key in FRICKE_SAVINGS} == FRICKE_SAVINGS


#: Per eta prime, a pair (d, D) with p | d D and at least two classes each.
FRICKE_PAIRS = {2: (15, 20), 3: (15, 20), 5: (15, 20), 7: (20, 35), 13: (23, 39)}


@pytest.mark.parametrize("digits", (80, 300))
def test_integer_lhs_log_norm_against_the_complex_formula(digits):
    # the formula on mpcs, 8 sum log|v_D - v_d| over every pair of forms,
    # each value evaluated at its own form at twice the digits, lies within
    # the bound of the integer product at digits
    for p, (d, D) in FRICKE_PAIRS.items():
        beta, mu = min(admissible_residues(-d, p)), min(admissible_residues(-D, p))
        value, bound = lhs_log_norm(Hauptmodul(p, digits), d, beta, D, mu)
        fine = Hauptmodul(p, 2 * digits)
        ctx = fine.ctx
        vals_d = [value_with_bound(fine, form)[0] for form in heegner_reps(-d, p, beta)]
        vals_D = [value_with_bound(fine, form)[0] for form in heegner_reps(-D, p, mu)]
        reference = 8 * ctx.fsum(ctx.log(abs(vD - vd)) for vD in vals_D for vd in vals_d)
        assert abs(ctx.mpf(value) - reference) <= bound, (p, d, D)
        assert 0 < bound < ctx.mpf(10) ** (10 - digits)


def test_crosscheck_through_a_series_file(tmp_path, capsys):
    # a coefficient file of p = 5 carries the crosscheck to PASS, and its lhs
    # matches the closed form's within the two bounds
    import json

    series = eta_quotient_qseries(5, 200)
    path = tmp_path / "p5.txt"
    path.write_text("\n".join(["p 5", f"count {len(series.coefficients)}",
                               *map(str, series.coefficients)]) + "\n", encoding="ascii")
    argv = ["--series", str(path), "--format", "json", "crosscheck", "--p", "5",
            "--d", "11", "--D", "15"]
    assert main(argv) == EXIT_OK
    (check,) = json.loads(capsys.readouterr().out)["result"]["checks"]
    assert check["status"] == "PASS"
    from_series = lhs_log_norm(Hauptmodul(5, series=load_qseries(path)), 11, 3, 15, 5)
    closed = lhs_log_norm(Hauptmodul(5), 11, 3, 15, 5)
    assert check["lhs"] == float(from_series[0])
    assert abs(from_series[0] - closed[0]) <= from_series[1] + closed[1]
    fine = Hauptmodul(5, 160)
    exact, _ = lhs_log_norm(fine, 11, 3, 15, 5)
    assert abs(fine.ctx.mpf(from_series[0]) - exact) <= from_series[1]


def test_series_tail_constant_is_computed_once_per_hauptmodul(monkeypatch):
    # the tail model's constant depends on the coefficient file alone: the
    # Hauptmodul computes it once, and a value then costs two exponentials
    # (the tail ratio and the tail bound) however many coefficients the file
    # has.  The constant is bit for bit the one the per-value loop computed,
    # at the same precision, so every bound is unchanged
    ctx = ctx80()
    tau = QuadraticForm(5, 1, 1)
    for count in (200, 400):
        series = eta_quotient_qseries(5, count)
        hm = Hauptmodul(5, series=series)
        growth = ctx.mpf(0)
        for k in range(1, series.top_exponent + 1):
            c = series.coefficients[k + 1]
            if c:
                growth = max(growth, abs(ctx.mpf(c)) * ctx.exp(-4 * ctx.pi * ctx.sqrt(k)))
        assert hm.tail_growth == max(growth, ctx.mpf(1))
        calls = []
        exp = ctx.exp
        monkeypatch.setattr(ctx, "exp", lambda x: calls.append(x) or exp(x), raising=False)
        value_with_bound(hm, tau)
        monkeypatch.undo()
        assert len(calls) == 2, count


#: (p, form, coefficients, digits): few coefficients at a Heegner point
#: where they reach digits with little to spare.
TAIL_CASES = ((2, (2, 2, 3), 10, 14), (3, (3, 2, 5), 6, 8), (5, (5, 2, 8), 4, 4))


@pytest.mark.parametrize("p, form, count, digits", TAIL_CASES)
def test_series_tail_covers_the_truncation(p, form, count, digits):
    # the value is accepted at digits, yet the truncated sum misses the
    # closed form by far more than the final rounding, 2^-prec of the
    # value: only the tail in the radius covers the miss
    hm = Hauptmodul(p, digits, series=eta_quotient_qseries(p, count))
    value, bound = value_with_bound(hm, QuadraticForm(*form))
    fine = Hauptmodul(p, 2 * digits + 20)
    exact, exact_bound = value_with_bound(fine, QuadraticForm(*form))
    miss = abs(fine.ctx.mpc(value) - exact)
    assert miss <= bound + exact_bound
    assert miss > 1000 * abs(exact) * fine.ctx.ldexp(1, -hm.ctx.prec)


#: (p, form, j*_p at the form): Heegner forms of class number one.
INTEGER_VALUES = ((2, (2, 1, 1), -47), (3, (3, 1, 1), 10), (5, (5, 3, 1), -18))


@pytest.mark.parametrize("p, form, integer", INTEGER_VALUES)
def test_series_radius_covers_the_rounding_of_a_cancelling_sum(p, form, integer):
    # a coefficient file whose constant term is lowered by the integer
    # j*_p at a point of class number one vanishes there: its terms cancel,
    # so the value computed is all rounding, of Horner's products and of q,
    # far beyond the tail and the final rounding of so small a value, and
    # the radius covers it
    fine = Hauptmodul(p, 60)
    exact, exact_bound = value_with_bound(fine, QuadraticForm(*form))
    assert abs(exact - integer) <= exact_bound
    c = eta_quotient_qseries(p, 200).coefficients
    hm = Hauptmodul(p, 30, series=QSeries(p, (c[0], c[1] - integer) + c[2:]))
    value, bound = value_with_bound(hm, QuadraticForm(*form))
    assert 0 < abs(value) <= bound


def test_series_values_lie_within_their_bounds():
    # a coefficient file's value carries its rounding as well as its tail:
    # the closed form at twice the digits lies within the series bound at
    # Heegner points and at points given as numbers, wherever 400
    # coefficients reach the precision
    ctx = ctx80()
    rng = random.Random(317)
    checked = 0
    for p in ETA_QUOTIENT_PRIMES:
        from_series = Hauptmodul(p, series=eta_quotient_qseries(p, 400))
        fine = Hauptmodul(p, 2 * DIGITS)
        points = [random_tau(ctx, rng, 0.6, 1.5) for _ in range(3)]
        for d, beta, forms in heegner_classes(p, 24):
            points += forms
        for tau in points:
            try:
                value, bound = value_with_bound(from_series, tau)
            except PrecisionError:  # a point too low for the coefficients
                continue
            exact, _ = value_with_bound(fine, tau)
            assert abs(fine.ctx.mpc(value) - exact) <= bound, (p, tau)
            checked += 1
    assert checked >= 50
