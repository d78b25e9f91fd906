from fractions import Fraction

import pytest

from cmforge.errors import (
    AmbiguousSignsError,
    DegenerateDataError,
    InfeasibleError,
    InternalError,
    NonIntegralMagnitudeError,
    ParameterError,
    SeriesRequiredError,
    SignResolutionError,
)
from cmforge.hcp import (
    ClassPolynomial,
    InterpolationPair,
    _resolve_by_numerics,
    build_pairs,
    class_polynomial,
    feasible,
    interpolate,
    is_irreducible,
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
    resolved = resolve_signs(pairs, d=39, strategy="search")
    assert [(pr.D, pr.signed_x(), pr.signed_y()) for pr in resolved] == [
        (11, 0, 1), (19, 1, 1), (43, -1, 7), (67, 2, 13), (163, 4, 217),
    ]


def test_interpolate_reference_polynomial():
    pairs = resolve_signs(build_pairs(39, 33, 47, -11), d=39)
    poly = interpolate(pairs, d=39)
    assert poly.coefficients == (1, -2, 2, -1, 1)  # low degree first
    assert str(poly) == "X^4 - X^3 + 2X^2 - 2X + 1"
    for pr in pairs:
        assert poly.evaluate(pr.signed_x()) == pr.signed_y()


def test_interpolate_linear_case():
    pairs = [InterpolationPair(D=8, x_mag=0, y_mag=3, y_sign=-1),
             InterpolationPair(D=7, x_mag=4, y_mag=1, x_sign=1, y_sign=1)]
    poly = interpolate(pairs, d=11)  # h(-11) = 1
    assert poly.coefficients == (-3, 1)
    assert str(poly) == "X - 3"


def test_interpolate_rejects_duplicate_x():
    pairs = [InterpolationPair(D=8, x_mag=1, y_mag=1, x_sign=1, y_sign=1),
             InterpolationPair(D=7, x_mag=1, y_mag=2, x_sign=1, y_sign=1)]
    with pytest.raises(DegenerateDataError):
        interpolate(pairs, d=11)


def test_interpolate_rejects_unresolved():
    pairs = [InterpolationPair(D=8, x_mag=1, y_mag=1),
             InterpolationPair(D=7, x_mag=2, y_mag=2)]
    with pytest.raises(SignResolutionError):
        interpolate(pairs, d=11)


def test_interpolate_rejects_perturbed_data():
    pairs = resolve_signs(build_pairs(39, 33, 47, -11), d=39)
    pairs[-1].y_mag += 1  # 217 -> 218 forces non-integer coefficients
    with pytest.raises(SignResolutionError):
        interpolate(pairs, d=39)


def test_search_rejects_perturbed_magnitudes():
    pairs = build_pairs(39, 33, 47, -11)
    pairs[-1].y_mag += 1
    with pytest.raises(SignResolutionError):
        resolve_signs(pairs, d=39, strategy="search")


def test_search_reports_genuine_ambiguity():
    # two sign assignments interpolate to X-3 and X+1, which are not mirrors
    pairs = [InterpolationPair(D=8, x_mag=1, y_mag=2),
             InterpolationPair(D=7, x_mag=2, y_mag=1)]
    with pytest.raises(AmbiguousSignsError) as info:
        resolve_signs(pairs, d=11, strategy="search")
    assert len(info.value.candidates) == 2


def test_resolve_signs_needs_enough_pairs():
    pairs = build_pairs(d=15, beta=1, p=2, base_disc=-7)  # h(-15) = 2, one pair short
    with pytest.raises(InfeasibleError):
        resolve_signs(pairs, d=15, strategy="search")


def test_numeric_sign_reader_validates_magnitudes():
    # handcrafted pair list for p=2, d=15; the reader cross-checks every
    # magnitude against the generator values before assigning signs
    pairs = [InterpolationPair(D=7, x_mag=0, y_mag=184275),
             InterpolationPair(D=8, x_mag=175, y_mag=207025)]
    out = _resolve_by_numerics(pairs, d=15, p=2, base_disc=-7, beta=1,
                               prec=None, series=None)
    assert [(pr.D, pr.signed_x(), pr.signed_y()) for pr in out] == [
        (7, 0, 184275), (8, 175, 207025),
    ]


def test_numeric_sign_reader_detects_wrong_magnitude():
    pairs = [InterpolationPair(D=7, x_mag=0, y_mag=184275),
             InterpolationPair(D=8, x_mag=176, y_mag=207025)]
    with pytest.raises(InternalError, match="disagrees"):
        _resolve_by_numerics(pairs, d=15, p=2, base_disc=-7, beta=1,
                             prec=None, series=None)


def test_numeric_strategy_requires_series_for_large_p():
    pairs = build_pairs(d=39, beta=33, p=47, base_disc=-11)
    with pytest.raises(SeriesRequiredError):
        resolve_signs(pairs, d=39, strategy="numeric", p=47, base_disc=-11, beta=33)


def test_class_polynomial_pipeline_reference_case():
    report = class_polynomial(47, 39)
    assert report.base_disc == -11
    assert report.beta == 33
    assert report.s_set == FROZEN_S_SETS[47]
    assert str(report.polynomial) == "X^4 - X^3 + 2X^2 - 2X + 1"
    assert is_irreducible(report.polynomial) is True
    # far smaller than the classical modular-invariant coefficients
    assert all(abs(c) <= 2 for c in report.polynomial.coefficients)


def test_class_polynomial_pipeline_p11():
    report = class_polynomial(11, 35)
    assert str(report.polynomial) == "X^2 - 10X + 5"
    for pr in report.pairs:
        assert report.polynomial.evaluate(pr.signed_x()) == pr.signed_y()
    linear = class_polynomial(11, 7)
    assert linear.polynomial.degree == 1
    # the root magnitude equals the norm against the base discriminant
    from cmforge.gzrhs import GZParams, gz_log_norm
    root = -linear.polynomial.coefficients[0]
    expected = gz_log_norm(GZParams.create(p=11, d=-linear.base_disc, D=7)).norm()
    assert abs(root) == expected


def test_class_polynomial_same_field_other_prime():
    # a second generator for the same field: degree matches, pairs agree
    report = class_polynomial(11, 39)
    assert str(report.polynomial) == "X^4 - 3X^3 + 18X^2 - 18X + 9"
    assert report.polynomial.degree == class_number(-39)
    for pr in report.pairs:
        assert report.polynomial.evaluate(pr.signed_x()) == pr.signed_y()


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
    # of_m gives Y_8 = 2^(-2) here; the error names the magnitude
    with pytest.raises(NonIntegralMagnitudeError, match="Y_8"):
        class_polynomial(11, 19, ramified_exponent="of_m")


def test_class_polynomial_invariants():
    with pytest.raises(InternalError):
        ClassPolynomial(d=39, coefficients=(1, -2, 2, -1, 2))  # not monic
    with pytest.raises(InternalError):
        ClassPolynomial(d=39, coefficients=(1, 1))  # degree != h(-39)
    poly = ClassPolynomial(d=39, coefficients=(1, -2, 2, -1, 1))
    assert poly.evaluate(Fraction(1, 2)) == Fraction(7, 16)


def test_is_irreducible_detects_rational_roots():
    # X^2 - 1 is not a legal ClassPolynomial, so probe the checker directly
    probe = ClassPolynomial(d=15, coefficients=(5, -45, 1))  # irreducible
    assert is_irreducible(probe) is True
    with pytest.raises(InternalError):
        ClassPolynomial(d=15, coefficients=(-1, 0, 1))  # (X-1)(X+1)
