import dataclasses
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import factor_over_z, irreducible_over_z, sweep_cases
from cmforge.errors import (
    AmbiguousSignsError,
    InfeasibleError,
    InternalError,
    ParameterError,
    SignResolutionError,
)
from cmforge.hauptmodul import Hauptmodul
from cmforge.hcp import (
    CLASS_NUMBER_ONE_DISCRIMINANTS,
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
from cmforge.quadforms import admissible_residues, class_number, reduction_word

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


def test_resolve_signs_refuses_zero_x_magnitudes():
    # only the base discriminant's pair has X = 0, and the search needs a
    # nonzero X to fix the global mirror
    two_zeros = [InterpolationPair(7, 0, 1), InterpolationPair(8, 0, 1)]
    with pytest.raises(SignResolutionError, match="^more than one zero X magnitude$"):
        resolve_signs(two_zeros, 1)
    with pytest.raises(SignResolutionError, match="^all X magnitudes vanish$"):
        resolve_signs([InterpolationPair(7, 0, 1)], 0)


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
    with pytest.raises(SignResolutionError, match=r"^duplicate X values: \[1, 1\]$"):
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
    # p and each discriminant checked; its search lists each candidate's
    # divisors without factoring
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
    assert calls == {"factorize": [7, 15, 8], "is_prime": [2, 2, 2]}


def test_interpolate_needs_enough_points():
    with pytest.raises(InfeasibleError, match="^need 3 points, got 2$"):
        interpolate([(0, 1), (1, 2)], d=15, h=2)


def test_numeric_strategy_requires_series_for_large_p():
    with pytest.raises(ParameterError, match="^no closed form for p=47; supply a coefficient file$"):
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
    from cmforge.gzrhs import gz_log_norm, gz_params
    root = -linear.polynomial.coefficients[0]
    expected = gz_log_norm(gz_params(p=11, d=-linear.base_disc, D=7)).norm()
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
    # one call computes S(p) and its residues once, h(-d) once, never tests
    # p (the genus-zero check admits only primes) and factors each
    # discriminant once, counting inside every GZParams:
    # each non-diagonal usable member gets one field, which serves both its
    # norms.  term_contribution scores each of their lattice terms once,
    # exactly the terms of the norms' from-scratch params, from the sieve's
    # factorization of its m*D, so factorize never runs while scoring;
    # calls inside factorize and class_number themselves are not counted.
    import sys

    from cmforge.cmvalue import QuadraticCharacter
    from cmforge.gzrhs import GZParams, enumerate_terms, gz_params

    calls, stack = [], []  # (name, argument, names of the open wrapped calls)

    def tracked(name, fn, index=0):
        def wrapper(*args, **kwargs):
            calls.append((name, args[index] if len(args) > index else kwargs, list(stack)))
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return wrapper

    modules = [module for name, module in sys.modules.items() if name.startswith("cmforge.")]
    for home, name in (("quadforms", "admissible_residues"), ("quadforms", "square_roots_mod_4p"),
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
    monkeypatch.setattr(QuadraticCharacter, "__init__",
                        tracked("QuadraticCharacter", QuadraticCharacter.__init__, index=1))
    report = class_polynomial(p, d)
    monkeypatch.undo()

    def outside(name, exempt):
        return [arg for called, arg, open_ in calls if called == name and not set(open_) & exempt]

    assert outside("admissible_residues", set()) == []
    counts = {"class_number", "count_classes"}
    assert outside("class_number", counts) + outside("count_classes", counts) == [-d]
    # one residue per discriminant: the nine candidates of S(p), and -d
    # unless it is one of them
    residues = outside("square_roots_mod_4p", set())
    assert sorted(residues) == sorted(set(CLASS_NUMBER_ONE_DISCRIMINANTS) | {-d})
    assert outside("is_prime", set()) == []
    exempt = {"factorize"}
    # d, then one field per non-diagonal usable member, then, above degree
    # 1, the constant term, whose divisors are the candidate rational roots
    # of the polynomial
    members = [pr.D for pr in report.pairs]
    assert [factors.value for factors in outside("QuadraticCharacter", set())] == members
    constant = [abs(report.polynomial.coefficients[0])] if report.polynomial.degree > 1 else []
    assert outside("factorize", exempt) == [d, *members, *constant]
    # the norms' lattice terms, each scored once, as from scratch
    base = -report.base_disc
    expected = []
    for D in members:
        norms = [] if D == base else [gz_params(p, base, D)]
        for params in norms + [gz_params(p, d, D, beta=report.beta)]:
            expected += [term.md for term in enumerate_terms(params)]
    assert [arg.md for called, arg, _ in calls if called == "term_contribution"] == expected
    assert len(outside("GZParams", set())) == 2 * len(members) - 1


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


def test_a_linear_class_polynomial_scans_no_divisors(monkeypatch):
    # degree 1 is irreducible whatever its root, so its constant term is
    # neither factored nor scanned; degree 2 still is
    from cmforge import hcp

    factored = []
    factorize = hcp.factorize
    monkeypatch.setattr(hcp, "factorize", lambda n: factored.append(n) or factorize(n))
    ClassPolynomial(d=7, h=1, coefficients=(3375, 1))
    assert factored == []
    with pytest.raises(InternalError, match="^reducible: rational root 1$"):
        ClassPolynomial(d=15, h=2, coefficients=(-1, 0, 1))
    assert factored == [1]


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


def times_linear(coefficients, root):
    """coefficients * (X - root), low degree first."""
    shifted = [0] + list(coefficients)
    for k, c in enumerate(coefficients):
        shifted[k] -= root * c
    return shifted


def lagrange_monic_fit(xs, ys):
    """The monic polynomial of degree len(xs) through the points (distinct
    X), as integer coefficients low degree first, or None when one is not
    an integer: prod (X - x_j) plus the Lagrange interpolant of the ys, in
    rationals."""
    coefficients = [Fraction(0)] * len(xs) + [Fraction(1)]
    monic = [1]
    for x in xs:
        monic = times_linear(monic, x)
    for k, c in enumerate(monic[:-1]):
        coefficients[k] += c
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, scale = [1], 1
        for j, xj in enumerate(xs):
            if j != i:
                basis, scale = times_linear(basis, xj), scale * (xi - xj)
        for k, c in enumerate(basis):
            coefficients[k] += Fraction(yi * c, scale)
    if any(c.denominator != 1 for c in coefficients):
        return None
    return tuple(int(c) for c in coefficients)


def product_sign_search(pairs, h):
    """The sign search over every sign string: each string of the free X
    signs in itertools.product order, each with every sign string of the
    first h Y, fitted from scratch.  The oracle of resolve_signs, which must
    return the same points or raise the same error, message and candidates."""
    if len(pairs) < h + 1:
        raise InfeasibleError(f"need {h + 1} interpolation pairs, only {len(pairs)} available")
    zero_idx = [i for i, pr in enumerate(pairs) if pr.x_mag == 0]
    if len(zero_idx) > 1:
        raise SignResolutionError("more than one zero X magnitude")
    nonzero_idx = [i for i, pr in enumerate(pairs) if pr.x_mag != 0]
    if not nonzero_idx:
        raise SignResolutionError("all X magnitudes vanish")
    free_x = nonzero_idx[1:]  # the first nonzero X is +; the mirror gives the rest
    y_mags = [pr.y_mag for pr in pairs]
    accepted = []
    for x_bits in product((1, -1), repeat=len(free_x)):
        xs = [pr.x_mag for pr in pairs]
        for i, s in zip(free_x, x_bits):
            xs[i] = s * pairs[i].x_mag
        if len(set(xs)) != len(xs):
            continue
        for y_bits in product((1, -1), repeat=h):
            head = [s * m for s, m in zip(y_bits, y_mags)]
            coefficients = lagrange_monic_fit(xs[:h], head)
            if coefficients is None:
                continue
            tail = [value_at(coefficients, x) for x in xs[h:]]
            if all(abs(y) == m for y, m in zip(tail, y_mags[h:])):
                accepted.append((list(zip(xs, head + tail)), coefficients))
    if not accepted:
        raise SignResolutionError("no sign assignment yields a monic integer polynomial")
    distinct = sorted({coefficients for _, coefficients in accepted})
    if len(distinct) > 1:
        raise AmbiguousSignsError(
            f"{len(distinct)} distinct integer polynomials fit the magnitudes",
            candidates=distinct,
        )
    points, coefficients = accepted[0]
    mirror = tuple(c if (h - k) % 2 == 0 else -c for k, c in enumerate(coefficients))
    if mirror < coefficients:
        points = [(-x, y if h % 2 == 0 else -y) for x, y in points]
    return points


def search_outcome(search, pairs, h):
    """The points search returns, or its error's type, message and candidates."""
    try:
        return "points", search(pairs, h)
    except SignResolutionError as exc:
        return type(exc), str(exc), getattr(exc, "candidates", None)
    except InfeasibleError as exc:
        return type(exc), str(exc)


@st.composite
def magnitudes_near_a_polynomial(draw):
    """(h, [(x_mag, y_mag), ...]) for a monic integer f of degree h <= 3:
    f(-X) = (-1)^h f(X) half the time, so both signs of an X fit, |X| in
    1..6 with repeats, up to two zero X magnitudes, one pair short of h + 1
    one time in eight, and each Y magnitude |f(X)| at a drawn sign of X or,
    one time in six (always where f(X) = 0), a drawn one in 1..8."""
    h = draw(st.integers(0, 3))
    symmetric = draw(st.booleans())
    coefficients = [draw(st.integers(-6, 6)) if not symmetric or (h - k) % 2 == 0 else 0
                    for k in range(h)] + [1]
    n = max(draw(st.integers(h + 1, h + 3)) - (draw(st.integers(0, 7)) == 0), 1)
    zeros = min(draw(st.sampled_from((0, 0, 1, 1, 2))), n)
    mags = draw(st.permutations(
        [0] * zeros + draw(st.lists(st.integers(1, 6), min_size=n - zeros, max_size=n - zeros))))
    pairs = []
    for x_mag in mags:
        y_mag = abs(value_at(coefficients, draw(st.sampled_from((x_mag, -x_mag)))))
        if y_mag == 0 or draw(st.integers(0, 5)) == 0:
            y_mag = draw(st.integers(1, 8))
        pairs.append((x_mag, y_mag))
    return h, pairs


@settings(max_examples=400, deadline=None)
@given(magnitudes_near_a_polynomial())
@example((3, [(1, 2), (2, 10), (3, 30), (4, 68)]))  # X^3 + X fits every free X sign
@example((2, [(0, 1), (2, 5), (2, 5), (1, 2)]))  # a repeated |X| and a zero X
@example((1, [(1, 2), (2, 1)]))  # X - 3 and X + 1, not mirrors: ambiguous
@example((2, [(1, 2), (2, 5), (3, 11)]))  # off X^2 + 1 at 3: no fit
@example((1, [(0, 1), (0, 2), (1, 1)]))  # two zero X
@example((0, [(0, 1)]))  # every X zero
@example((2, [(1, 1), (2, 2)]))  # one pair short
def test_resolve_signs_is_the_product_search(case):
    # the walk accepts the sign strings the product search does, and of
    # those with one polynomial returns the same first one
    h, magnitudes = case
    pairs = [InterpolationPair(D=k, x_mag=x, y_mag=y) for k, (x, y) in enumerate(magnitudes)]
    assert search_outcome(resolve_signs, pairs, h) == search_outcome(product_sign_search, pairs, h)


def test_the_sweep_searches_walk_the_newton_table_without_refits(monkeypatch):
    # over the sweep's 179 searches the walk takes 5 580 exact divisions
    # (18 024 when each sign string was fitted from scratch) and no fit, and
    # each search ends as the product search does
    from cmforge import hcp

    divisions, fits, searches, inside = [0], [0], [], [False]
    resolve, fit = hcp.resolve_signs, hcp._monic_fit

    def counting_divmod(a, b):
        divisions[0] += inside[0]
        return divmod(a, b)

    def counting_fit(*args):
        fits[0] += inside[0]
        return fit(*args)

    def search(pairs, h):
        searches.append((pairs, h))
        inside[0] = True
        try:
            return resolve(pairs, h)
        finally:
            inside[0] = False

    monkeypatch.setattr(hcp, "divmod", counting_divmod, raising=False)
    monkeypatch.setattr(hcp, "_monic_fit", counting_fit)
    monkeypatch.setattr(hcp, "resolve_signs", search)
    for p, d in sweep_cases():
        try:
            class_polynomial(p, d)
        except (SignResolutionError, InfeasibleError, InternalError):
            pass
    monkeypatch.undo()
    assert (len(searches), divisions[0], fits[0]) == (179, 5580, 0)
    for pairs, h in searches:
        assert search_outcome(resolve_signs, pairs, h) == search_outcome(
            product_sign_search, pairs, h)


def test_a_sign_search_leaves_no_cyclic_garbage():
    # each search frees what it built as it returns; a reference cycle would
    # leave it to the cyclic collector, whose runs then vary a long process's
    # time and peak memory
    import gc

    ambiguous = [InterpolationPair(D=8, x_mag=1, y_mag=2),
                 InterpolationPair(D=7, x_mag=2, y_mag=1)]
    gc.collect()
    gc.disable()
    try:
        resolve_signs(build_pairs(39, 33, 47, -11), h=4)
        try:
            resolve_signs(ambiguous, h=1)
        except AmbiguousSignsError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sweep_outcomes_pinned():
    cases = sweep_cases()
    assert len(cases) == 191
    candidates = 0
    outcomes = {}
    reducible = {}
    for p, d in cases:
        try:
            coefficients = class_polynomial(p, d).polynomial.coefficients
            outcomes[p, d] = "solved"
            if not irreducible_over_z(coefficients):
                reducible[(p, d)] = factor_over_z(coefficients)
        except AmbiguousSignsError as exc:
            outcomes[p, d] = "ambiguous"
            candidates += len(exc.candidates)
        except InfeasibleError:
            outcomes[p, d] = "infeasible"  # the diagonal D = d leaves one pair short
        except InternalError:
            outcomes[p, d] = "internal"
    counts = Counter(outcomes.values())
    assert (counts["solved"], counts["ambiguous"], candidates, counts["infeasible"]) == (
        139, 33, 79, 12)
    internal = [case for case, outcome in outcomes.items() if outcome == "internal"]
    # Known defect, ROADMAP item 1: when p divides d the interpolant has a
    # rational root, so the polynomial is reducible and the run exits 3.
    assert internal == [(11, 88), (11, 187), (17, 51), (17, 187), (23, 115),
                        (41, 123), (47, 235)]
    # Known defect of the same origin: three answers pass the rational-root
    # check but are Q^2 with Q an irreducible quadratic.
    assert sorted(reducible) == [(11, 55), (11, 132), (23, 184)]
    for (p, d), factors in reducible.items():
        assert [(len(q) - 1, m) for q, m in factors] == [(2, 2)], (p, d, factors)
    # ROADMAP item 1, Fact 1: when p | d and the prime above p is not
    # principal, the Fricke involution pairs the Heegner points, and these
    # are exactly the exit-3 cases and the Q^2 answers; where it is
    # principal no answer is reducible
    fricke = {case: outcomes[case] for case in cases if case[1] % case[0] == 0}
    principal = {case: outcome for case, outcome in fricke.items()
                 if prime_above_p_is_principal(*case)}
    assert len(fricke) == 16
    assert sorted(set(fricke) - set(principal)) == sorted(internal + list(reducible))
    assert principal == {(2, 8): "infeasible", (7, 7): "infeasible", (11, 11): "solved",
                         (19, 19): "solved", (23, 23): "ambiguous", (59, 59): "ambiguous"}


def prime_above_p_is_principal(p, d):
    """Whether the prime ideal above p of discriminant -d, p | d, is
    principal: the form (p, beta, (beta^2 + d)/4p) reduces to a = 1."""
    beta = min(admissible_residues(-d, p))
    return reduction_word(p, beta, (beta * beta + d) // (4 * p))[0][0] == 1
