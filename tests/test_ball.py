"""Each Ball operation's midpoint and radius contain the exact result.

The exact operands are drawn inside the operands' balls as Gaussian
rationals, and the exact result is computed in Fractions; a containment
|exact - mid| <= rad is compared squared, so it stays rational.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmforge.ball import Ball, ceil_shift, exact_pair, fixed_mul, power, radius, scaled, surd
from cmforge.errors import PrecisionError
from cmforge.hauptmodul import working_context

BITS = 64
UNIT = Fraction(1, 2 ** BITS)


def exact(x):
    """A scaled pair as a Gaussian rational (re, im)."""
    (re, im), exp = x
    scale = Fraction(2) ** exp
    return re * scale, im * scale


def times(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def inverse(y):
    norm = y[0] ** 2 + y[1] ** 2
    return y[0] / norm, -y[1] / norm


def relative_below(got, want, claim):
    # |got - want| < claim |want|, compared squared to stay rational
    diff = (got[0] - want[0]) ** 2 + (got[1] - want[1]) ** 2
    return diff < claim ** 2 * (want[0] ** 2 + want[1] ** 2)


def rad_of(ball):
    m, e = ball.rad
    return m * Fraction(2) ** e


def contains(ball, value):
    """|value - mid| <= rad, for a Gaussian rational value."""
    mid = exact(ball.mid)
    diff = (value[0] - mid[0]) ** 2 + (value[1] - mid[1]) ** 2
    return diff <= rad_of(ball) ** 2


def nonnegative(a, b):
    """a + b sqrt(3) >= 0 for rationals a and b."""
    if a >= 0 and b >= 0:
        return True
    if a >= 0:
        return a * a >= 3 * b * b
    return b > 0 and 3 * b * b >= a * a


@st.composite
def balls(draw, top=BITS + 2):
    """(Ball, a Gaussian rational inside it): a midpoint of about top bits at a
    drawn exponent, a radius from zero to far beyond its last bit, and a
    point of the ball at a drawn fraction of the radius in a drawn direction
    (|u|, |v| <= 7/10, so u + iv lies in the unit disc)."""
    size = draw(st.integers(1, top))
    part = st.integers(-2 ** size, 2 ** size)
    mid = (draw(part), draw(part)), draw(st.integers(-300, 300))
    assume(mid[0] != (0, 0))
    rad = radius(draw(st.integers(0, 2 ** 40)), mid[1] + draw(st.integers(-80, 20)))
    direction = [Fraction(draw(st.integers(-7, 7)), 10) for _ in range(2)]
    t = Fraction(draw(st.integers(0, 16)), 16) * rad[0] * Fraction(2) ** rad[1]
    centre = exact(mid)
    return Ball(mid, rad), (centre[0] + t * direction[0], centre[1] + t * direction[1])


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def integer_pairs(draw):
    """An integer pair whose parts have up to 1100 bits and either sign, each
    part zero a quarter of the time."""
    def part():
        if draw(st.integers(0, 3)) == 0:
            return 0
        size = 2 ** draw(st.integers(1, 1100))
        return draw(st.integers(-size, size))
    return part(), part()


@PROPERTY
@given(x=integer_pairs(), y=integer_pairs(), how=st.sampled_from(["two", "same", "equal"]),
       shift=st.integers(0, 3000))
def test_fixed_product_is_the_three_product_formula_bit_for_bit(x, y, how, shift):
    # whichever multiplications the operands need, the parts are those of
    # (a + b)(c + d) - ac - bd, floored: for two drawn pairs, one pair as
    # both operands, and a pair times an equal but distinct copy of it
    if how == "same":
        y = x
    elif how == "equal":
        y = (x[0], x[1])
        assert y is not x and y == x
    (a, b), (c, d) = x, y
    want = (a * c - b * d) >> shift, ((a + b) * (c + d) - a * c - b * d) >> shift
    assert fixed_mul(x, y, shift) == want


@PROPERTY
@given(x=balls(), y=balls(), bits=st.integers(8, 80))
def test_product_contains_the_exact_product(x, y, bits):
    (bx, vx), (by, vy) = x, y
    assert contains(bx.mul(by, bits), times(vx, vy))


@PROPERTY
@given(x=balls(), y=balls(), bits=st.integers(8, 80))
def test_square_and_real_times_complex_contain_the_exact_products(x, y, bits):
    # the branches of fixed_mul that take two multiplications: a ball times
    # itself, and a ball on the real line times any ball, either way round
    (bx, vx), (by, vy) = x, y
    assert contains(bx.mul(bx, bits), times(vx, vx))
    (re, _), exp = bx.mid
    assume(re)
    real = Ball(((re, 0), exp), bx.rad)
    value = vx[0], Fraction(0)  # |Re vx - re 2^exp| <= |vx - mid|: inside real
    assert contains(real.mul(by, bits), times(value, vy))
    assert contains(by.mul(real, bits), times(vy, value))


@PROPERTY
@given(x=balls(), y=balls(), bits=st.integers(8, 80))
def test_quotient_contains_the_exact_quotient_or_refuses_a_wide_divisor(x, y, bits):
    (bx, vx), (by, vy) = x, y
    try:
        quotient = bx.div(by, bits)
    except PrecisionError:
        # refused only where the divisor's radius reaches a quarter of its
        # midpoint's larger part, 2^(top - 2) at its exponent
        m, e = by.rad
        (re, im), exp = by.mid
        assert m * Fraction(2) ** e >= Fraction(2) ** (max(abs(re), abs(im)).bit_length() - 2
                                                      + exp)
        return
    assert vy != (0, 0)
    assert contains(quotient, times(vx, inverse(vy)))


@PROPERTY
@given(x=balls(), y=balls(), prec=st.integers(8, 80))
def test_rounded_sum_contains_the_exact_sum(x, y, prec):
    (bx, vx), (by, vy) = x, y
    total = bx.add(by, prec)
    assert contains(total, (vx[0] + vy[0], vx[1] + vy[1]))
    for part in total.mid[0]:  # each part rounded to prec bits
        assert part == 0 or (abs(part) >> (part & -part).bit_length() - 1).bit_length() <= prec


@PROPERTY
@given(x=balls(), n=st.integers(-10 ** 6, 10 ** 6))
def test_integer_multiple_and_conjugate_contain_the_exact_ones(x, n):
    bx, vx = x
    assert contains(bx.scale(n), (n * vx[0], n * vx[1]))
    assert contains(bx.conjugate(), (vx[0], -vx[1]))


@PROPERTY
@given(x=balls(), n=st.sampled_from([1, 2, 3, 4, 6, 12, 24]), bits=st.integers(8, 80))
def test_power_contains_the_exact_power(x, n, bits):
    bx, vx = x
    want = vx
    for _ in range(n - 1):
        want = times(want, vx)
    assert contains(bx.pow(n, bits), want)


@PROPERTY
@given(x=balls(), m=st.integers(-30, 30), bits=st.integers(8, 80))
def test_root_of_unity_multiple_contains_the_exact_multiple(x, m, bits):
    # zeta_12^m = i^j (alpha + beta sqrt(3)) with Gaussian rationals alpha, beta;
    # |mid - x zeta_12^m|^2 <= rad^2 is a + b sqrt(3) >= 0 for rationals a, b
    bx, vx = x
    j, r = divmod(m % 12, 3)
    half = Fraction(1, 2)
    alpha, beta = {0: ((1, 0), (0, 0)), 1: ((0, half), (half, 0)),
                   2: ((half, 0), (0, half))}[r]
    for _ in range(j):
        alpha, beta = times(alpha, (0, 1)), times(beta, (0, 1))
    rotated = bx.rotate(m, bits)
    mid = exact(rotated.mid)
    p, q = times(vx, alpha), times(vx, beta)
    u = (mid[0] - p[0], mid[1] - p[1])  # mid - x zeta = u - q sqrt(3)
    a = rad_of(rotated) ** 2 - (u[0] ** 2 + u[1] ** 2) - 3 * (q[0] ** 2 + q[1] ** 2)
    assert nonnegative(a, 2 * (u[0] * q[0] + u[1] * q[1]))


@PROPERTY
@given(x=balls(), finer=st.integers(-8, 40), bits=st.integers(24, 80))
def test_relative_ball_contains_a_value_within_its_relative_error(x, finer, bits):
    # the midpoint is the exact value floored finer bits below 2^-bits of its
    # larger part, and units the least count of 2^-bits above its relative
    # error, so the ball has no slack beyond its proof
    _, value = x
    assume(value != (0, 0))
    larger = max(abs(part) for part in value)
    k = bits + finer - (larger.numerator.bit_length() - larger.denominator.bit_length())
    mid = tuple(math.floor(part * Fraction(2) ** k) for part in value), -k
    got = exact(mid)
    diff = (got[0] - value[0]) ** 2 + (got[1] - value[1]) ** 2
    units = math.isqrt(math.floor(diff * 4 ** bits / (value[0] ** 2 + value[1] ** 2))) + 1
    assume(units < 2 ** (bits - 1))
    assert relative_below(got, value, units * Fraction(1, 2 ** bits))
    assert contains(Ball.relative(mid, units, bits), value)


def test_surd_is_the_floor_of_the_scaled_square_root():
    for l in (2, 3, 6):
        for bits in (53, 366, 1077):
            root = surd(l, bits)
            assert root ** 2 <= l * 4 ** bits < (root + 1) ** 2


def test_radius_and_ceil_shift_round_up():
    rng = random.Random(331)
    for _ in range(2000):
        m, e, d = rng.randrange(0, 2 ** rng.randrange(1, 200)), rng.randrange(-99, 99), \
            rng.randrange(-200, 200)
        top, exp = radius(m, e)
        assert top < 2 ** 31 and top * Fraction(2) ** exp >= m * Fraction(2) ** e
        assert ceil_shift(m, d) >= m * Fraction(2) ** d
        assert d < 0 or ceil_shift(m, d) == m << d


def test_mpc_conversions_are_exact_and_round_the_bound_up():
    ctx = working_context(30)
    rng = random.Random(337)
    for _ in range(200):
        value = ctx.mpc(ctx.mpf(rng.uniform(-1, 1)) * 2 ** rng.randrange(-300, 300),
                        ctx.mpf(rng.uniform(-1, 1)) * 2 ** rng.randrange(-300, 300))
        bound = ctx.mpf(rng.uniform(0, 1)) * 2 ** rng.randrange(-300, 0)
        _, man, exp, _ = bound._mpf_
        ball = Ball(exact_pair(value.real._mpf_, value.imag._mpf_), radius(man, exp))
        number, back = ball.to_mpc(ctx)
        assert number == value and back >= bound and back <= bound * (1 + ctx.mpf(2) ** -29)


def test_integer_pipeline_roundings_stay_within_their_claims():
    # the four claims of the integer pipeline, each on a Ball with an exact
    # midpoint, at a small bits where the roundings are large enough to see:
    # the fixed-point product is the four-multiplication one; the
    # product, the quotient and the power keep their midpoints within 2, 1
    # and 2 (n - 1) 2 units of 2^-bits of the exact result, relatively, and
    # their balls contain it; a scaled mpf is within one unit, relatively
    rng = random.Random(313)

    def pair(size):
        return ((rng.randrange(-2 ** size, 2 ** size), rng.randrange(-2 ** size, 2 ** size)),
                rng.randrange(-200, 200))

    for _ in range(300):
        x, y = pair(rng.randrange(BITS - 8, BITS + 8)), pair(rng.randrange(1, BITS + 8))
        if x[0] == (0, 0) or y[0] == (0, 0):
            continue
        a, b = x[0], y[0]
        shift = rng.randrange(0, 2 * BITS)
        assert fixed_mul(a, b, shift) == (
            (a[0] * b[0] - a[1] * b[1]) >> shift, (a[0] * b[1] + a[1] * b[0]) >> shift)
        product = Ball(x).mul(Ball(y), BITS)
        assert relative_below(exact(product.mid), times(exact(x), exact(y)), 2 * UNIT)
        assert contains(product, times(exact(x), exact(y)))
        quotient = Ball(x).div(Ball(y), BITS)
        want = times(exact(x), inverse(exact(y)))
        assert relative_below(exact(quotient.mid), want, UNIT)
        assert contains(quotient, want)
        n = rng.choice((2, 4, 6, 12, 24))  # e = 24/(p - 1); n - 1 floors, compounded
        raised = Ball(x).pow(n, BITS)
        assert raised.mid == power(Ball(x), n, lambda u, v: u.mul(v, BITS)).mid
        want = exact(x)
        for _ in range(n - 1):
            want = times(want, exact(x))
        assert relative_below(exact(raised.mid), want, 2 * (n - 1) * 2 * UNIT)
        assert contains(raised, want)
    ctx = working_context(15)
    for _ in range(100):
        value = ctx.mpc(ctx.mpf(rng.uniform(-1, 1)) * 2 ** rng.randrange(-300, 300),
                        ctx.mpf(rng.uniform(-1, 1)) * 2 ** rng.randrange(-300, 300))
        got = scaled(value.real._mpf_, value.imag._mpf_, BITS)
        want = tuple((-1) ** sign * man * Fraction(2) ** exp
                     for sign, man, exp, _ in (value.real._mpf_, value.imag._mpf_))
        assert relative_below(exact(got), want, UNIT)
        assert contains(Ball.relative(got, 1, BITS), want)


def test_a_divisor_whose_ball_reaches_half_its_modulus_is_refused():
    divisor = Ball(((4, 0), 0), (2, 0))  # |Y| = 4, radius 2: not below 2^(3 - 2)
    with pytest.raises(PrecisionError, match="half its modulus"):
        Ball(((1, 0), 0)).div(divisor, 16)
    assert contains(Ball(((1, 0), 0)).div(Ball(((8, 0), 0), (1, 0)), 16),
                    (Fraction(1, 9), Fraction(0)))
    # radius 1 at |Y| = 4 is accepted, and 1/3 lies in the quotient's ball:
    # the factor |Y|/(|Y| - s) the proof bounds by 2 is 4/3 here
    assert contains(Ball(((1, 0), 0)).div(Ball(((4, 0), 0), (1, 0)), 16),
                    (Fraction(1, 3), Fraction(0)))
