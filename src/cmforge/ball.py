"""Complex balls for CM values: a scaled integer midpoint and a radius held in
integers, with no floats (midpoint-radius arithmetic: Johansson, Arb,
IEEE Trans. Comput. 66, 2017; van der Hoeven, Ball arithmetic, 2009).

A scaled pair ((re, im), exp) stands for (re + i im) 2^exp; a fixed-point
pair (re, im) at 2^-bits is the scaled pair ((re, im), -bits).  A radius
(m, e), m >= 0, stands for m 2^e; every radius this module makes is an
upper bound whose mantissa m has at most 31 bits.  A Ball is a midpoint,
a scaled pair, and a radius, and the exact value lies within the radius of
the midpoint.  Each operation computes its midpoint with the fixed-point
primitives below and proves once, in its docstring, that its radius covers
the exact result of the exact operands anywhere in their balls.

The bounds read moduli from integers: |X| <= |Re X| + |Im X|, and
|X| >= 2^(top - 1 + exp), where top is the bit length of the larger part.
"""

from __future__ import annotations

import math

from mpmath import libmp

from .errors import PrecisionError


def fixed_mul(x, y, shift: int):
    """Product of two complex integer pairs, each part floored to 2^shift.

    Only the multiplications the operands need: one for two real pairs, two
    for a real pair and a complex one (ac and ad, or ac and bc), two for a
    pair times itself ((a + b)(a - b) and 2ab), and three otherwise, where
    (a + b)(c + d) - ac - bd is ad + bc.  Each case forms the same
    integers ac - bd and ad + bc before the floor, so each part is the
    four-multiplication one bit for bit.
    """
    (a, b), (c, d) = x, y
    if not b:
        if not d:
            return (a * c) >> shift, 0
        return (a * c) >> shift, (a * d) >> shift
    if not d:
        return (a * c) >> shift, (b * c) >> shift
    if x is y:
        return ((a + b) * (a - b)) >> shift, (a * b << 1) >> shift
    ac, bd = a * c, b * d
    return (ac - bd) >> shift, ((a + b) * (c + d) - ac - bd) >> shift


def surd(l: int, bits: int) -> int:
    """The floor of sqrt(l) 2^bits, for integers l, bits >= 0, from one
    integer square root, isqrt(l 2^(2 bits)): surd(l, bits) 2^-bits is less
    than 2^-bits below sqrt(l)."""
    return math.isqrt(l << 2 * bits)


def power(x, n: int, mul):
    """x^n for n >= 1 by repeated squaring under the product mul."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


def top_bits(x) -> int:
    """Bit length of the larger part of an integer pair."""
    return max(x[0].bit_length(), x[1].bit_length())


def scaled(re, im, bits: int):
    """Raw mpfs re + i im, not both zero, as a scaled pair whose larger part
    has bits + 2 bits, so the floor costs less than 2^-bits of the modulus."""
    top = max(exp + bc for _, man, exp, bc in (re, im) if man)
    shift = bits + 2 - top
    return (libmp.to_fixed(re, shift), libmp.to_fixed(im, shift)), -shift


def exact_pair(re, im):
    """Raw mpfs re + i im as a scaled pair, exactly: both parts at the
    smaller of their exponents."""
    exp = min((e for _, man, e, _ in (re, im) if man), default=0)
    return tuple((-man if sign else man) << (e - exp) if man else 0
                 for sign, man, e, _ in (re, im)), exp


def ceil_shift(m: int, d: int) -> int:
    """An integer at least m 2^d, for m >= 0; exact when d >= 0."""
    return m << d if d >= 0 else (m >> -d) + 1


def radius(m: int, e: int):
    """m 2^e, m >= 0, rounded up to a mantissa of at most 31 bits."""
    shift = m.bit_length() - 30
    if shift > 0:
        return (m >> shift) + 1, e + shift
    return m, e


class Ball:
    """A complex number within rad of the scaled pair mid.  The operations
    that round take bits, the working precision: a midpoint they round
    keeps bits + 2 bits in its larger part, as the eta kernel's products
    do."""

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad=(0, 0)):
        self.mid, self.rad = mid, rad

    @classmethod
    def relative(cls, mid, units: int, bits: int):
        """The ball of a scaled pair within units 2^-bits of the exact value,
        relatively, units < 2^(bits - 1): then |exact| <= 2 |mid|, and the
        radius 2 units 2^-bits |mid| covers the error."""
        (re, im), exp = mid
        return cls(mid, radius(2 * units * (abs(re) + abs(im)), exp - bits))

    def to_mpc(self, ctx):
        """(mpc, mpf bound) in ctx, both exact."""
        (re, im), exp = self.mid
        return (ctx.make_mpc((libmp.from_man_exp(re, exp), libmp.from_man_exp(im, exp))),
                ctx.make_mpf(libmp.from_man_exp(*self.rad)))

    def conjugate(self):
        (re, im), exp = self.mid
        return Ball(((re, -im), exp), self.rad)

    def scale(self, n: int):
        """self times the integer n, exactly: the radius grows by |n|."""
        (re, im), exp = self.mid
        return Ball(((re * n, im * n), exp), radius(self.rad[0] * abs(n), self.rad[1]))

    def mul(self, other, bits: int):
        """self times other.  The midpoint XY is shifted so that its larger
        part keeps bits + 2 bits, and each part is floored there, at 2^e:
        an error below 2 units of 2^e.  With x = X + dx, y = Y + dy,
        |dx| <= r and |dy| <= s, |xy - XY| <= |X| s + |Y| r + r s, each
        term rounded up to units of 2^e."""
        (xm, xe), (ym, ye) = self.mid, other.mid
        shift = max(0, top_bits(xm) + top_bits(ym) - bits - 2)
        e = xe + ye + shift
        (r, r_exp), (s, s_exp) = self.rad, other.rad
        units = (ceil_shift((abs(xm[0]) + abs(xm[1])) * s, xe + s_exp - e)
                 + ceil_shift((abs(ym[0]) + abs(ym[1])) * r, ye + r_exp - e)
                 + ceil_shift(r * s, r_exp + s_exp - e) + 2)
        return Ball((fixed_mul(xm, ym, shift), e), radius(units, e))

    def div(self, other, bits: int):
        """self divided by other.  The midpoint X/Y = X conj(Y)/|Y|^2 is
        shifted so that it exceeds 2^(bits + 1) in modulus before each part
        is floored, at 2^e: an error below 2 units of 2^e.  With the radii r
        and s, x/y - X/Y = ((x - X) Y - X (y - Y))/(yY), so |x/y - X/Y| <=
        (r|Y| + |X| s)/(|Y| (|Y| - s)) <= 2 (r|Y| + |X| s)/|Y|^2 once
        s <= |Y|/2, which holds when s < 2^(top - 2 + exp) for Y; a wider
        divisor raises PrecisionError.  |Y|^2 is the exact integer den
        2^(2 exp), and the quotient by it is rounded up to units of 2^e."""
        (xm, xe), (ym, ye) = self.mid, other.mid
        (r, r_exp), (s, s_exp) = self.rad, other.rad
        if s and s_exp + s.bit_length() > top_bits(ym) - 2 + ye:
            raise PrecisionError("a divisor's error bound reaches half its modulus")
        num = fixed_mul(xm, (ym[0], -ym[1]), 0)
        den = ym[0] * ym[0] + ym[1] * ym[1]
        shift = bits + 2 + den.bit_length() - top_bits(num)
        up, down = max(0, shift), den << max(0, -shift)
        mid = (num[0] << up) // down, (num[1] << up) // down
        e = xe - ye - shift
        base = 2 * ye + e - 1  # spread 2^base >= r|Y| + |X| s
        spread = (ceil_shift((abs(ym[0]) + abs(ym[1])) * r, r_exp + ye - base)
                  + ceil_shift((abs(xm[0]) + abs(xm[1])) * s, s_exp + xe - base))
        return Ball((mid, e), radius(-(-spread // den) + 2, e))

    def pow(self, n: int, bits: int):
        """self^n, n >= 1, by repeated squaring under mul."""
        return power(self, n, lambda x, y: x.mul(y, bits))

    def rotate(self, m: int, bits: int):
        """self times zeta_12^m, zeta_12 = e^(2 pi i/12): zeta_12^m = i^j
        zeta_12^r for m = 3j + r.  The quarter turns i^j are exact; zeta_12^r
        for r = 1 or 2, (sqrt(3) + i)/2 or (1 + i sqrt(3))/2, is floored at
        2^-bits, sqrt(3)/2 by less than one unit (surd(3, bits - 1)), so it
        is the ball of its floor with radius 2^-bits, and the product is
        mul's."""
        j, r = divmod(m % 12, 3)
        x = self
        if r:
            half, root3 = 1 << (bits - 1), surd(3, bits - 1)  # sqrt(3)/2
            root = (root3, half) if r == 1 else (half, root3)
            x = x.mul(Ball((root, -bits), (1, -bits)), bits)
        (re, im), exp = x.mid
        for _ in range(j):  # times i
            re, im = -im, re
        return Ball(((re, im), exp), x.rad)

    def add(self, other, prec: int):
        """self + other with each part of the midpoint rounded to nearest at
        prec bits.  The pairs are aligned at the larger exponent, exp, which
        floors one of them, an error below 2 units of 2^exp; rounding moves
        each part by at most 2^-prec of it, at most (|Re| + |Im|) 2^-prec
        for the integer sum, under ((|Re| + |Im|) >> prec) + 1 units.  The
        radii add, each rounded up to units of 2^exp."""
        (xm, xe), (ym, ye) = self.mid, other.mid
        exp = max(xe, ye)
        re = (xm[0] >> (exp - xe)) + (ym[0] >> (exp - ye))
        im = (xm[1] >> (exp - xe)) + (ym[1] >> (exp - ye))
        mid = exact_pair(libmp.from_man_exp(re, exp, prec, "n"),
                         libmp.from_man_exp(im, exp, prec, "n"))
        (r, r_exp), (s, s_exp) = self.rad, other.rad
        units = (ceil_shift(r, r_exp - exp) + ceil_shift(s, s_exp - exp)
                 + ((abs(re) + abs(im)) >> prec) + 3)
        return Ball(mid, radius(units, exp))
