"""The level-one Dedekind eta kernel: eta^e at the CM points of integer forms.

class_etas gives eta^e = z S(q)^e, z = e^(2 pi i tau e/24) and q = z^(24/e),
as a ball.Ball at the point of each form of one discriminant.  S(q) =
sum_k (-1)^k q^(k(3k-1)/2) is summed on integers scaled to 2^-bits, bits =
precision + ETA_GUARD_BITS, the term count fixed in advance from Im(tau),
with a bound on the tail and on every rounding; each power q^c comes from
earlier ones by an addition sequence (Enge, Hart and Johansson), built once
up to 10^4 digits.  Every z comes from form_exponentials: a root of one
exponential per discriminant, or one exponential at the exact point for a
square one, as a number's form has, turned by an exact twelfth turn.  The
kernel takes forms and an integer precision, never an mpmath context.
"""

from __future__ import annotations

import math

from mpmath import libmp

from .ball import Ball, ceil_shift, fixed_mul, power, radius, scaled, surd, top_bits
from .errors import PrecisionError

#: Safety bound on the eta series length; low Im(tau) raises PrecisionError.
MAX_ETA_TERMS = 10 ** 5
#: Bits the fixed-point eta kernel carries beyond the requested precision.
ETA_GUARD_BITS = 32
# Bits every z = e^(2 pi i tau/m) is computed with beyond the fixed-point
# precision, besides those of its exponential's argument (form_exponentials).
Q_GUARD_BITS = 8
# Relative error of the scaled q, in units of 2^-bits: the exponential and
# the angle at Q_GUARD_BITS more bits, and the floor of the pair.
Q_REL_ULPS = 4
# Error of the fixed-point q the eta kernel sums, in units of its last bit:
# |q| Q_REL_ULPS from the scaled q, and the floor of each part.
Q_ERR_ULPS = 8


def pentagonal_pairs(height, bits: int) -> int:
    """The K for which the pentagonal sum over |k| <= K misses less than 2^-bits.

    At Im(tau) = height, |q| = e^(-2 pi height); the omitted exponents are
    distinct integers from N = (K+1)(3K+2)/2 on, so the tail is below
    |q|^N / (1 - |q|).  Raises PrecisionError, before any series work, if
    the 2K+1 terms exceed MAX_ETA_TERMS.
    """
    rate = 2 * math.pi * float(height)  # -log|q|
    need = math.inf
    if rate > 0:
        need = (bits * math.log(2) - math.log(-math.expm1(-rate))) / rate
    pairs = (math.sqrt(1 + 24 * need) - 5) / 6  # root of (K+1)(3K+2)/2 = need
    if not 2 * pairs + 1 <= MAX_ETA_TERMS:
        raise PrecisionError(
            f"eta series needs more than {MAX_ETA_TERMS} terms at Im(tau)={height}"
        )
    return max(0, math.ceil(pairs))


def to_fixed(x, bits: int):
    """A scaled pair z of form_exponentials as a fixed-point pair at 2^-bits,
    each part floored; |z| < 1, so scaled's exponent top - bits - 2 < -bits."""
    (re, im), exp = x
    shift = -exp - bits
    return re >> shift, im >> shift


def conjugate_swap(z: int, m: int, u: int, v: int):
    """(x, y) >= 0 with x^2 + m y^2 = z^2 + m, from alpha = z + sqrt(-m) by
    replacing every factor pi = u + v sqrt(-m) (or its conjugate) of the prime
    l = u^2 + m v^2 with the other one; None when l does not divide z^2 + m.

    The coefficient 1 of sqrt(-m) keeps l itself from dividing alpha, so
    only one of the two factors does, and the swap keeps the norm.
    """
    l = u * u + m * v * v
    for w in (v, -v):
        x, y, k = z, 1, 0
        while (x * u + m * y * w) % l == 0 and (y * u - x * w) % l == 0:
            x, y, k = (x * u + m * y * w) // l, (y * u - x * w) // l, k + 1
        for _ in range(k):  # times the conjugate u - w sqrt(-m), k times
            x, y = x * u + m * y * w, y * u - x * w
        if k:
            return abs(x), abs(y)
    return None


#: Split primes of Z[i] below 30, as (u, v) with l = u^2 + v^2 the prime:
#: the factors addition_sequence swaps to split a pentagonal power into two.
GAUSSIAN_SPLITS = ((2, 1), (3, 2), (4, 1), (5, 2))


def addition_sequence(pairs: int) -> tuple:
    """The products that make q^c for every generalized pentagonal c up to
    pairs(3 pairs + 1)/2 from q, in increasing c: one step (c, a, b, sign,
    spent) per product q^c = q^a q^b, where sign is the term's (-1)^k, or 0
    for a power that is not a term, and spent lists the exponents that no
    later step reads, this one's own c among them when nothing reads it
    (with_spent; the products come from sequence_products).
    """
    return with_spent(sequence_products(1, pairs))


def sequence_products(first: int, last: int) -> list:
    """The steps (c, a, b, sign) of addition_sequence for the powers of the
    pairs first..last, k(3k -+ 1)/2 for first <= k <= last.

    Write 24c + 1 = Z^2, Z = 6k -+ 1 (Enge, Hart and Johansson, Short
    addition sequences for theta functions, J. Integer Seq. 21 (2018)).
    c = a + b is a second way to write Z^2 + 1 as X^2 + Y^2; swapping a
    prime of GAUSSIAN_SPLITS that divides Z + i gives one unless X or Y
    is 1, and X, Y are prime to 6 since the sum is 2 mod 8 and 2 mod 3.
    Otherwise c = 2a + b with Z^2 + 2 = 2X^2 + Y^2: 3 divides Z^2 + 2, and
    swapping the whole power of 1 +- sqrt(-2) in Z + sqrt(-2) leaves X and
    Y prime to 3 (and odd, the sum being 3 mod 8).  That costs q^2a and its
    product by q^b, or the square alone when b = 0.  Every power read is
    below c, and each c takes a few small-integer tests and one division
    and product per factor of 3, with no search over the earlier powers.
    """
    steps = []
    for k in range(first, last + 1):
        sign = -1 if k % 2 else 1
        for z in (6 * k - 1, 6 * k + 1):
            if z == 5:  # q itself
                continue
            c = (z * z - 1) // 24
            for u, v in GAUSSIAN_SPLITS:
                split = conjugate_swap(z, 1, u, v)
                if split and min(split) > 1:
                    x, y = split
                    steps.append((c, (x * x - 1) // 24, (y * y - 1) // 24, sign))
                    break
            else:
                x, y = conjugate_swap(z, 2, 1, 1)
                a, b = (y * y - 1) // 24, (x * x - 1) // 24
                if b:
                    steps.append((2 * a, a, a, 0))
                    steps.append((c, 2 * a, b, sign))
                else:
                    steps.append((c, a, a, sign))
    return steps


def with_spent(steps) -> tuple:
    """Steps (c, a, b, sign) with the spent list of each appended: the
    exponents it is the last step to make or read."""
    last = {}
    for i, (c, a, b, _) in enumerate(steps):
        last[c] = last[a] = last[b] = i
    spent = [[] for _ in steps]
    for exponent, i in last.items():
        spent[i].append(exponent)
    return tuple((*step, tuple(gone)) for step, gone in zip(steps, spent))


#: Pairs covered by the sequence built once, here: a point with
#: Im(tau) >= sqrt(3)/2, as every SL2(Z)-reduced point is, needs at most 53
#: pairs at 10^4 digits, hauptmodul.MAX_DIGITS (17 at 1000, 9 at 300).
TABLE_PAIRS = 53
TABLE = addition_sequence(TABLE_PAIRS)
#: TABLE_ENDS[k]: the number of TABLE's steps that make the powers of k pairs.
TABLE_ENDS = (0, *(i + 1 for i, (c, _, _, sign, _) in enumerate(TABLE)
                   if sign and math.isqrt(24 * c + 1) % 6 == 1))


def pentagonal_steps(pairs: int) -> tuple:
    """The steps of addition_sequence(pairs): within TABLE_PAIRS the first
    ones of TABLE, whose spent lists hold for the whole table, so a power
    read only by later table steps stays until the sum returns; past
    TABLE_PAIRS, TABLE's products followed by those of the later pairs,
    built here, with the spent lists of the whole taken anew."""
    if pairs <= TABLE_PAIRS:
        return TABLE[:TABLE_ENDS[pairs]]
    return with_spent([step[:4] for step in TABLE]
                       + sequence_products(TABLE_PAIRS + 1, pairs))


def pentagonal_sum(q, q_err: int, pairs: int, bits: int):
    """S(q) = sum_{|k| <= pairs} (-1)^k q^(k(3k-1)/2) as a Ball whose midpoint
    is a fixed-point pair at 2^-bits.

    q is a fixed-point pair (X, Y) standing for (X + iY) 2^-bits, within q_err
    units of the exact q = e^(2 pi i tau), and pairs comes from
    pentagonal_pairs(Im tau, bits - ETA_GUARD_BITS).  The powers come from
    q by the addition sequence of pentagonal_steps, one fixed-point product
    per step, and each is dropped once no later step reads it; the integer
    sums are exact.

    The radius, in units of 2^-bits, adds two parts.  Tail: the omitted
    exponents are distinct integers from N = (pairs+1)(3 pairs+2)/2 on, so
    they sum to at most |q|^N / (1 - |q|), with |q| <= size 2^(cut - bits):
    X and Y are read at 2^cut, about 16 bits each, rounded up, and size =
    isqrt of their squared modulus, plus one, plus q_err rounded up to
    units of 2^cut; a size that reaches 2^(bits - cut) raises PrecisionError,
    before any product is taken, as the test reads q alone.
    Fixed point: every product floors each part, an error below sqrt(2)
    units, and every factor has modulus at most 1, so errors add without
    growing.
    With u = q_err units on q, every power q^n of an addition sequence is
    within n(u + sqrt(2)) - sqrt(2) units: q is, and if q^a and q^b are,
    their floored product is within (a + b)(u + sqrt(2)) - 2 sqrt(2) +
    sqrt(2).  Summed over the terms, whose exponents k(3k-1)/2 and k(3k+1)/2
    add to 3k^2, this is below (u + sqrt(2)) K(K+1)(2K+1)/2 units for K =
    pairs; the bound doubles it to cover the second-order products of errors.
    """
    cut = max(0, top_bits(q) - 16)
    x, y = (abs(q[0]) >> cut) + 1, (abs(q[1]) >> cut) + 1  # |X|, |Y| < (x, y) 2^cut
    size = math.isqrt(x * x + y * y) + 2 + (q_err >> cut)
    if size >> (bits - cut):
        raise PrecisionError("the eta series cannot be bounded where |q| may reach 1")
    total_re, total_im = 1 << bits, 0
    if pairs:
        total_re, total_im = total_re - q[0], -q[1]
    powers = {1: q}
    for c, a, b, sign, spent in pentagonal_steps(pairs):
        x = powers[c] = fixed_mul(powers[a], powers[b], bits)
        total_re += sign * x[0]
        total_im += sign * x[1]
        for exponent in spent:
            del powers[exponent]
    exponent = (pairs + 1) * (3 * pairs + 2) // 2
    tail = ceil_shift(size ** exponent, (cut - bits) * exponent + 2 * bits)
    rounding = (q_err + 2) * pairs * (pairs + 1) * (2 * pairs + 1)
    return Ball(((total_re, total_im), -bits),
                radius(tail // ((1 << bits) - (size << cut)) + 1 + rounding, -bits))


def eta_power(z, pairs: int, e: int, bits: int, real: bool):
    """eta^e at a point tau as the Ball z S(q)^e: z = e^(2 pi i tau e/24), a
    scaled pair within Q_REL_ULPS units of 2^-bits, relatively, q = z^(24/e),
    pairs from pentagonal_pairs(Im tau, bits - ETA_GUARD_BITS), and real
    true when q is exactly real: 2 Re tau is an integer, that is a | b for
    the point of a form (a, b, c).

    The fixed-point z is within |z| Q_REL_ULPS + sqrt(2) <= Q_ERR_ULPS
    units, so its m-th power q, m = 24/e, is within m (Q_ERR_ULPS + 2), as
    in pentagonal_sum.  A real q's imaginary part is that power's rounding
    alone, where the turn of z is a surd, and is dropped: that moves the
    pair toward the exact q, so the bound still holds, and the sum and its
    power run on real pairs (ball.fixed_mul).
    """
    m = 24 // e
    q = power(to_fixed(z, bits), m, lambda x, y: fixed_mul(x, y, bits))
    if real:
        q = q[0], 0
    sum_ = pentagonal_sum(q, m * (Q_ERR_ULPS + 2), pairs, bits)
    return Ball.relative(z, Q_REL_ULPS, bits).mul(sum_.pow(e, bits), bits)


def form_exponentials(size: int, forms, m: int, bits: int, exact=None) -> list:
    """e^(2 pi i tau/m) at the CM point tau of each form (a, b, c) of forms,
    of discriminant -size, as scaled pairs within Q_REL_ULPS units of
    2^-bits, relatively, from exact data: at the point of (a, b, c),
    z = r e^(-pi i b/(a m)), a modulus r = e^(-pi sqrt(size)/(a m)) and a
    rotation each.  r is the a-th root of one exponential e^(-pi
    sqrt(size)/m) shared by all, or, for a square size, as a number's form
    has, with exact = isqrt(size), one exponential each at the exact
    rational exact/(am).

    The rotation's angle is split exactly, -b/(am) = n/12 + x/(12am) with
    |x/(12am)| <= 1/24: e^(pi i n/12) is an exact twelfth turn
    (twelfth_turn), and only pi x/(12am), at most pi/24, goes through a
    cosine, when x != 0, that is when am does not divide 12b.

    Each libmp operation rounds at wp and moves its result by less than
    2 u of itself, u = 2^-wp.  The exponential turns a relative rounding
    of its argument into one times the argument, so wp adds the argument's
    bits w to bits + Q_GUARD_BITS, one wp per call, at which the twelfth
    turns' surds are taken once: pi sqrt(size)/m < 4 (isqrt(size) // m + 1)
    < 2^w, or for a square size pi exact/(am) < 4 (exact // (am) + 1) < 2^w
    at the least a of forms, and w >= 3.  The shared argument, four
    roundings, is within 9 u 2^w, and its exponential within 10
    2^-(bits + Q_GUARD_BITS), relatively; a root divides that by a and
    adds its own rounding, 2 u.  A square size's argument, three roundings
    (pi, the rational and their product), is within 7 u 2^w, and its
    exponential within 8 2^-(bits + Q_GUARD_BITS).  The rotation adds at
    most 16 u, relatively: the residual turn 4 (its angle, below pi/24,
    within 6 u of itself, then the cosine and sine), its product 2, the
    surd 1 and the surd's products and sums 8 (2 u of (|Re| + |Im|)(|cos| +
    |sin|) <= 2 |z|, and 2 u of each part).  With u <= 2^-(bits +
    Q_GUARD_BITS + 3), z is within 13 2^-(bits + Q_GUARD_BITS) <
    2^-(bits + 4) of itself before scaled floors it, which costs less than
    2^-bits more: under 2 < Q_REL_ULPS units.
    """
    top = math.isqrt(size) // m if exact is None else exact // (m * min(f[0] for f in forms))
    wp = bits + Q_GUARD_BITS + (4 * (top + 1)).bit_length()
    pi = libmp.mpf_pi(wp)
    if exact is None:
        arg = libmp.mpf_div(libmp.mpf_mul(pi, floor_sqrt(size, wp), wp), libmp.from_int(m), wp)
        base = libmp.mpf_exp(libmp.mpf_neg(arg), wp)
    roots = {}  # the square roots the twelfth turns read, each taken once per call
    zs = []
    for a, b, _ in forms:
        if exact is None:
            re = libmp.mpf_nthroot(base, a, wp)
        else:
            re = libmp.mpf_exp(libmp.mpf_mul(pi, libmp.from_rational(-exact, a * m, wp), wp), wp)
        im = libmp.fzero
        a *= m
        n = (a - 24 * b) // (2 * a)  # the integer nearest -12b/a
        x = -12 * b - n * a
        if x:
            cos, sin = libmp.mpf_cos_sin(
                libmp.mpf_mul(pi, libmp.from_rational(x, 12 * a, wp), wp), wp)
            re, im = libmp.mpf_mul(re, cos, wp), libmp.mpf_mul(re, sin, wp)
        zs.append(scaled(*twelfth_turn(re, im, n, roots, wp), bits))
    return zs


def twelfth_turn(re, im, n: int, roots: dict, wp: int):
    """(re + i im) e^(pi i n/12) for mpfs re and im, the product rounded at
    wp: i^j times the quadratic surd e^(pi i k/12) for n = 6j + k mod 24,
    0 <= k < 6.  The surd's cosine and sine are (sqrt(6) + sqrt(2),
    sqrt(6) - sqrt(2))/4, (sqrt(3), 1)/2 and (sqrt(2), sqrt(2))/2 at k = 1,
    2, 3, swapped at 6 - k; each sqrt(l) is ball.surd(l, wp) 2^-wp, less
    than 2^-wp below it, so each part is an exact mpf within 2^-(wp + 1).
    roots keeps each surd once taken.  The quarter turns i^j are exact."""
    j, k = divmod(n % 24, 6)
    if k:
        def root(l: int) -> int:
            if l not in roots:
                roots[l] = surd(l, wp)
            return roots[l]

        if k in (1, 5):
            pair = root(6) + root(2), root(6) - root(2)
        elif k in (2, 4):
            pair = 2 * root(3), 1 << (wp + 1)
        else:
            pair = 2 * root(2), 2 * root(2)
        cos, sin = (libmp.from_man_exp(part, -wp - 2) for part in pair)
        if k > 3:
            cos, sin = sin, cos
        re, im = (libmp.mpf_sub(libmp.mpf_mul(re, cos, wp), libmp.mpf_mul(im, sin, wp), wp),
                  libmp.mpf_add(libmp.mpf_mul(re, sin, wp), libmp.mpf_mul(im, cos, wp), wp))
    for _ in range(j):  # times i
        re, im = libmp.mpf_neg(im), re
    return re, im


def floor_sqrt(size: int, wp: int):
    """sqrt(size) rounded down to wp bits, as libmp.mpf_sqrt(from_int(size),
    wp) rounds it, from the floor surd(size, wp) of sqrt(size) 2^wp: it has
    more than wp bits, and cutting it to wp bits floors sqrt(size) there."""
    return libmp.from_man_exp(surd(size, wp), -wp, wp, libmp.round_down)


def class_etas(prec: int, size: int, forms, m: int, exact) -> dict:
    """{f: eta^e at the CM point of f} over forms f = (a, b, c) of
    discriminant -size, e = 24/m, to prec bits, as eta_power gives each at
    bits = prec + ETA_GUARD_BITS, with z = e^(2 pi i tau/m) from
    form_exponentials; exact is isqrt(size) for a square size and None
    otherwise.  Every term count is known before the exponential; a
    number's height is capped at 2^64, as high as needs no term, so that it
    stays a float.  q is real where a | b.
    """
    bits = prec + ETA_GUARD_BITS
    pairs = [pentagonal_pairs(math.sqrt(size) / (2 * a) if exact is None
                              else min(exact, 2 * a << 64) / (2 * a), prec)
             for a, _, _ in forms]
    zs = form_exponentials(size, forms, m, bits, exact)
    return {f: eta_power(z, count, 24 // m, bits, f[1] % f[0] == 0)
            for f, z, count in zip(forms, zs, pairs)}
