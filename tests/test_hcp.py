import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import factor_over_z, irreducible_over_z, sweep_cases
from cmforge.errors import (
    AmbiguousSignsError,
    DegenerateDataError,
    InfeasibleError,
    InternalError,
    ParameterError,
    SeriesRequiredError,
    SignResolutionError,
)
from cmforge.hauptmodul import Hauptmodul
from cmforge.hcp import (
    ClassPolynomial,
    InterpolationPair,
    build_pairs,
    class_polynomial,
    feasible,
    interpolate,
    read_signs,
    resolve_signs,
    s_set,
    usable_s_set,
)
from cmforge.quadforms import admissible_residues, class_number

FROZEN_S_SETS = {
    2: [-4, -7, -8],
    3: [-3, -8, -11],
    5: [-4, -11, -19],
    7: [-3, -7, -19],
    11: [-7, -8, -11, -19, -43],
    13: [-3, -4, -43],
    47: [-11, -19, -43, -67, -163],
}


def test_s_set_frozen():
    for p, expected in FROZEN_S_SETS.items():
        assert s_set(p) == expected, p


def test_s_set_members_are_admissible():
    for p in (2, 3, 5, 7, 11, 13, 47, 71):
        for disc in s_set(p):
            assert admissible_residues(disc, p)
            assert class_number(disc) == 1


def test_s_set_rejects_higher_genus():
    with pytest.raises(ParameterError):
        s_set(37)
    with pytest.raises(ParameterError):
        s_set(46)


def test_usable_s_set_drops_tiny_fields():
    assert usable_s_set(2) == [-7, -8]
    assert usable_s_set(47) == [-11, -19, -43, -67, -163]


def test_feasible():
    assert feasible(39, 47)
    assert class_number(-151) == 7 and not feasible(151, 47)
    assert not feasible(43, 13)  # only one usable discriminant
    assert not feasible(39, 2)   # h(-39)+1 = 5 > |usable S(2)| = 2
    assert feasible(39, 11)      # 7^2 = 5 = -39 mod 44; h+1 = 5 = |usable S(11)|
    assert not feasible(7, 2)    # the diagonal D = 7 leaves one pair for h+1 = 2
    with pytest.raises(ParameterError):
        feasible(15, 11)  # -15 = 29 mod 44 is not a square
    with pytest.raises(ParameterError):
        feasible(21, 47)  # -21 = 3 mod 4 is not a discriminant


def test_build_pairs_reference_magnitudes():
    pairs = build_pairs(d=39, beta=33, p=47, base_disc=-11)
    table = [(pr.D, pr.x_mag, pr.y_mag) for pr in pairs]
    assert table == [(11, 0, 1), (19, 1, 1), (43, 1, 7), (67, 2, 13), (163, 4, 217)]


def test_build_pairs_guards():
    with pytest.raises(ParameterError):
        build_pairs(d=39, beta=33, p=47, base_disc=-5)
    with pytest.raises(ParameterError):
        build_pairs(d=11, beta=41, p=47, base_disc=-11)  # base must differ from d


def test_build_pairs_skips_diagonal():
    pairs = build_pairs(d=11, beta=41, p=47, base_disc=-19)
    assert [pr.D for pr in pairs] == [19, 43, 67, 163]


def test_resolve_signs_search_reference_signs():
    pairs = build_pairs(d=39, beta=33, p=47, base_disc=-11)
    points = resolve_signs(pairs, h=4)
    assert points == [(0, 1), (1, 1), (-1, 7), (2, 13), (4, 217)]


def test_interpolate_reference_polynomial():
    points = resolve_signs(build_pairs(39, 33, 47, -11), h=4)
    poly = interpolate(points, d=39, h=4)
    assert poly.coefficients == (1, -2, 2, -1, 1)  # low degree first
    assert str(poly) == "X^4 - X^3 + 2X^2 - 2X + 1"
    for x, y in points:
        assert poly.evaluate(x) == y


def test_interpolate_linear_case():
    poly = interpolate([(0, -3), (4, 1)], d=11, h=1)  # h(-11) = 1
    assert poly.coefficients == (-3, 1)
    assert str(poly) == "X - 3"


def test_interpolate_rejects_duplicate_x():
    with pytest.raises(DegenerateDataError):
        interpolate([(1, 1), (1, 2)], d=11, h=1)


def test_interpolate_rejects_perturbed_data():
    points = resolve_signs(build_pairs(39, 33, 47, -11), h=4)
    x, y = points[-1]
    points[-1] = (x, y + 1)  # 217 -> 218 leaves the quartic through the others
    with pytest.raises(SignResolutionError):
        interpolate(points, d=39, h=4)


def test_search_rejects_perturbed_magnitudes():
    pairs = build_pairs(39, 33, 47, -11)
    pairs[-1] = dataclasses.replace(pairs[-1], y_mag=pairs[-1].y_mag + 1)
    with pytest.raises(SignResolutionError):
        resolve_signs(pairs, h=4)


def test_search_reports_genuine_ambiguity():
    # two sign assignments interpolate to X-3 and X+1, which are not mirrors
    pairs = [InterpolationPair(D=8, x_mag=1, y_mag=2),
             InterpolationPair(D=7, x_mag=2, y_mag=1)]
    with pytest.raises(AmbiguousSignsError) as info:
        resolve_signs(pairs, h=1)
    assert len(info.value.candidates) == 2


def test_resolve_signs_needs_enough_pairs():
    pairs = build_pairs(d=15, beta=1, p=2, base_disc=-7)  # h(-15) = 2, one pair short
    with pytest.raises(InfeasibleError):
        resolve_signs(pairs, h=2)


def test_numeric_sign_reader_validates_magnitudes():
    # handcrafted pair list for p=2, d=15; the reader cross-checks every
    # magnitude against the generator values before assigning signs
    pairs = [InterpolationPair(D=7, x_mag=0, y_mag=184275),
             InterpolationPair(D=8, x_mag=175, y_mag=207025)]
    points = read_signs(pairs, d=15, base_disc=-7, beta=1, hm=Hauptmodul(2))
    assert points == [(0, 184275), (175, 207025)]


def test_numeric_sign_reader_detects_wrong_magnitude():
    pairs = [InterpolationPair(D=7, x_mag=0, y_mag=184275),
             InterpolationPair(D=8, x_mag=176, y_mag=207025)]
    with pytest.raises(InternalError, match="disagrees"):
        read_signs(pairs, d=15, base_disc=-7, beta=1, hm=Hauptmodul(2))


def test_numeric_sign_reader_reuses_what_the_pipeline_holds(monkeypatch):
    # each degree-one residue is the smallest square root mod 4p, taken
    # without testing p or factoring |D| again, and the base value serves
    # the pair whose D is the base.  What is left is heegner_reps' own work:
    # p and each discriminant checked, and each candidate's nb factored
    import sys

    from cmforge import arith

    pairs = [InterpolationPair(D=7, x_mag=0, y_mag=184275),
             InterpolationPair(D=8, x_mag=175, y_mag=207025)]
    hm = Hauptmodul(2)
    calls = {"factorize": [], "is_prime": []}
    modules = [module for name, module in sys.modules.items() if name.startswith("cmforge.")]
    for name, seen in calls.items():
        original = getattr(arith, name)

        def counting(n, original=original, seen=seen):
            seen.append(n)
            return original(n)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    assert read_signs(pairs, d=15, base_disc=-7, beta=1, hm=hm) == [(0, 184275), (175, 207025)]
    assert calls == {"factorize": [7, 1, 15, 2, 8, 1], "is_prime": [2, 7, 2, 3, 5, 2, 2, 2]}


def test_interpolate_needs_enough_points():
    with pytest.raises(InfeasibleError, match="^need 3 points, got 2$"):
        interpolate([(0, 1), (1, 2)], d=15, h=2)


def test_numeric_strategy_requires_series_for_large_p():
    with pytest.raises(SeriesRequiredError):
        Hauptmodul(47)


def test_class_polynomial_pipeline_reference_case():
    report = class_polynomial(47, 39)
    assert report.base_disc == -11
    assert report.beta == 33
    assert report.s_set == FROZEN_S_SETS[47]
    assert str(report.polynomial) == "X^4 - X^3 + 2X^2 - 2X + 1"
    assert irreducible_over_z(report.polynomial.coefficients)
    # far smaller than the classical modular-invariant coefficients
    assert all(abs(c) <= 2 for c in report.polynomial.coefficients)


def test_class_polynomial_pipeline_p11():
    report = class_polynomial(11, 35)
    assert str(report.polynomial) == "X^2 - 10X + 5"
    for x, y in report.points:
        assert report.polynomial.evaluate(x) == y
    linear = class_polynomial(11, 7)
    assert linear.polynomial.degree == 1
    # the root magnitude equals the norm against the base discriminant
    from cmforge.gzrhs import GZParams, gz_log_norm
    root = -linear.polynomial.coefficients[0]
    expected = gz_log_norm(GZParams(p=11, d=-linear.base_disc, D=7)).norm()
    assert abs(root) == expected


def test_class_polynomial_same_field_other_prime():
    # a second generator for the same field: degree matches, pairs agree
    report = class_polynomial(11, 39)
    assert str(report.polynomial) == "X^4 - 3X^3 + 18X^2 - 18X + 9"
    assert report.polynomial.degree == class_number(-39)
    for pr, (x, y) in zip(report.pairs, report.points):
        assert (abs(x), abs(y)) == (pr.x_mag, pr.y_mag)
        assert report.polynomial.evaluate(x) == y


@pytest.mark.parametrize("p, d", [(47, 39), (11, 7)])  # the second has the diagonal D = d
def test_class_polynomial_derives_each_fact_once(monkeypatch, p, d):
    # one call computes S(p) once and h(-d) once, takes no residue through
    # admissible_residues, never tests p (a genus-zero p is prime) and
    # factors d once.  Each norm's GZParams still tests p and factors
    # its discriminants, and term_contribution factors the m*D of its
    # lattice term; calls inside those, and inside factorize, class_number
    # and s_set themselves, are not counted.
    import sys

    from cmforge.gzrhs import GZParams

    calls, stack = [], []  # (name, first argument, names of the open wrapped calls)

    def tracked(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args[0] if args else kwargs, set(stack)))
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return wrapper

    modules = [module for name, module in sys.modules.items() if name.startswith("cmforge.")]
    for home, name in (("hcp", "s_set"), ("quadforms", "admissible_residues"),
                       ("quadforms", "class_number"), ("quadforms", "count_classes"),
                       ("arith", "factorize"), ("arith", "is_prime"),
                       ("gzrhs", "term_contribution")):
        original = getattr(sys.modules[f"cmforge.{home}"], name, None)
        if original is None:
            continue
        wrapper = tracked(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(GZParams, "__post_init__", tracked("GZParams", GZParams.__post_init__))
    report = class_polynomial(p, d)

    def outside(name, exempt):
        return [arg for called, arg, open_ in calls if called == name and not open_ & exempt]

    assert outside("s_set", {"s_set"}) == [p]
    assert outside("admissible_residues", set()) == []
    counts = {"class_number", "count_classes"}
    assert outside("class_number", counts) + outside("count_classes", counts) == [-d]
    exempt = {"factorize", "term_contribution", "GZParams"}
    assert outside("is_prime", exempt) == []
    # the last factorization is the constant term's, whose divisors are the
    # candidate rational roots of the polynomial
    assert outside("factorize", exempt) == [d, abs(report.polynomial.coefficients[0])]


def test_class_polynomial_infeasible():
    with pytest.raises(InfeasibleError):
        class_polynomial(13, 43)
    with pytest.raises(InfeasibleError):
        class_polynomial(47, 151)  # h = 7 > |S(47)| - 1
    with pytest.raises(InfeasibleError):
        class_polynomial(2, 7)  # diagonal skip starves the pair list


def test_class_polynomial_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        class_polynomial(37, 39)  # not genus zero
    with pytest.raises(ParameterError):
        class_polynomial(47, 39, base_disc=-3)  # unusable base
    with pytest.raises(ParameterError, match="Hauptmodul is for p=2, not p=47"):
        class_polynomial(47, 39, hauptmodul=Hauptmodul(2))


def test_class_polynomial_invariants():
    with pytest.raises(InternalError):
        ClassPolynomial(d=39, h=4, coefficients=(1, -2, 2, -1, 2))  # not monic
    with pytest.raises(InternalError):
        ClassPolynomial(d=39, h=4, coefficients=(1, 1))  # degree != h(-39)
    poly = ClassPolynomial(d=39, h=4, coefficients=(1, -2, 2, -1, 1))
    assert poly.evaluate(Fraction(1, 2)) == Fraction(7, 16)


def test_is_irreducible_detects_rational_roots():
    # the rational-root check refuses (X-1)(X+1) and passes an irreducible
    # quadratic; sympy's factorization over Z is the oracle
    probe = ClassPolynomial(d=15, h=2, coefficients=(5, -45, 1))
    assert irreducible_over_z(probe.coefficients)
    assert not irreducible_over_z((-1, 0, 1))
    with pytest.raises(InternalError):
        ClassPolynomial(d=15, h=2, coefficients=(-1, 0, 1))


def value_at(coefficients, x):
    return sum(c * x ** k for k, c in enumerate(coefficients))


@st.composite
def monic_with_points(draw):
    """A monic integer f of degree 1..4 and 2..5 abscissae with one X = 0,
    distinct |X| <= 40 and no root of f among them."""
    h = draw(st.integers(1, 4))
    coefficients = tuple(draw(st.lists(st.integers(-20, 20), min_size=h, max_size=h))) + (1,)
    n = draw(st.integers(h + 1, 5))
    mags = draw(st.lists(st.integers(1, 40), min_size=n - 1, max_size=n - 1, unique=True))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n - 1, max_size=n - 1))
    xs = draw(st.permutations([0] + [s * m for s, m in zip(signs, mags)]))
    assume(all(value_at(coefficients, x) != 0 for x in xs))
    return coefficients, xs


@settings(max_examples=400, deadline=None)
@given(monic_with_points())
def test_sign_search_finds_the_polynomial_or_its_mirror(case):
    coefficients, xs = case
    h = len(coefficients) - 1
    mirror = tuple(c if (h - k) % 2 == 0 else -c for k, c in enumerate(coefficients))
    pairs = [InterpolationPair(D=k, x_mag=abs(x), y_mag=abs(value_at(coefficients, x)))
             for k, x in enumerate(xs)]
    try:
        points = resolve_signs(pairs, h)
    except AmbiguousSignsError as exc:
        assert coefficients in exc.candidates or mirror in exc.candidates
        return
    assert [(abs(x), abs(y)) for x, y in points] == [(pr.x_mag, pr.y_mag) for pr in pairs]
    assert any(all(value_at(f, x) == y for x, y in points) for f in (coefficients, mirror))


def test_sweep_outcomes_pinned():
    cases = sweep_cases()
    assert len(cases) == 191
    solved = ambiguous = candidates = infeasible = 0
    internal = []
    reducible = {}
    for p, d in cases:
        try:
            coefficients = class_polynomial(p, d).polynomial.coefficients
            solved += 1
            if not irreducible_over_z(coefficients):
                reducible[(p, d)] = factor_over_z(coefficients)
        except AmbiguousSignsError as exc:
            ambiguous += 1
            candidates += len(exc.candidates)
        except InfeasibleError:
            infeasible += 1  # the diagonal D = d leaves one pair short
        except InternalError:
            internal.append((p, d))
    assert (solved, ambiguous, candidates, infeasible) == (139, 33, 79, 12)
    # Known defect, ROADMAP item 1: when p divides d the interpolant has a
    # rational root, so the polynomial is reducible and the run exits 3.
    assert internal == [(11, 88), (11, 187), (17, 51), (17, 187), (23, 115),
                        (41, 123), (47, 235)]
    # Known defect of the same origin: three answers pass the rational-root
    # check but are Q^2 with Q an irreducible quadratic.
    assert sorted(reducible) == [(11, 55), (11, 132), (23, 184)]
    for (p, d), factors in reducible.items():
        assert [(len(q) - 1, m) for q, m in factors] == [(2, 2)], (p, d, factors)
