"""High-precision evaluation of eta products and Fricke-invariant Hauptmoduls.

For p in {2, 3, 5, 7, 13} the normalized generator is realized in closed form:
with e = 24/(p-1) and t = (eta(tau)/eta(p tau))^e, the combination
t + p^(e/2)/t is invariant under the full Fricke group and expands as
q^(-1) + c(0) + c(1) q + ... .  For the other genus-zero primes a coefficient
file must be supplied; the repository ships none, so those paths are
data-driven only.  j*_p exists at the 15 genus-zero primes only.

Eta runs on one fixed-point kernel: with q = e^(2 pi i tau),
eta(tau) = e^(pi i tau/12) S(q) and S(q) = sum_k (-1)^k q^(k(3k-1)/2)
is summed on Python integers scaled to 2^-bits, bits = precision +
ETA_GUARD_BITS, the term count fixed in advance from Im(tau), with a bound
on the tail and on every rounding.  Each power q^c of the sum comes from
earlier ones by an addition sequence: one product for c = a + b, two for
c = 2a + b (Enge, Hart and Johansson), built once for the term counts of
points with Im(tau) >= sqrt(3)/2 up to MAX_DIGITS and extended per call
beyond.  In closed form, t = eta^e(tau)/eta^e(p tau) takes eta^e only at
SL2(Z)-reduced points: tau and p tau are each reduced, in integers for a
form and exactly at the binary point for any other tau, and the
multiplier of the eta transformation law along each reduction word (a
root of unity and (c tau + d)^(e/2), e even) is carried exactly.
eta^e = z S(q)^e with z = e^(2 pi i tau/(p - 1)) and q = z^(p - 1) is
evaluated once per reduced form of a discriminant up to the mirror
(a, -b, c), every z from one exponential, a root of it and an exact
twelfth turn (a cosine only of what is left, at most pi/24), and shared
by every CM point whose tau or p tau falls in that class (_orbits).  The
quotient, the multipliers and t + p^(e/2)/t are integer pairs with a
shared binary exponent, each complex product taking three integer
multiplications (ball.fixed_mul); the sum is rounded once to the context's
precision.  A coefficient file is summed by Horner's rule on the same
integer pairs, at an exact q: a form's point, reduced in integers by the
Fricke flip, or a binary point reduced exactly by it.  A CM value is a
ball.Ball, that integer pair with a radius held in integers, for either
realization, and so is eta itself (eta_with_bound): each operation bounds
its own rounding, with no floats and no working-precision arithmetic,
until value_with_bound makes one mpc of it or lhs_log_norm takes its
differences, product and one log on integers.  The one bound made
otherwise is a coefficient file's tail, a model fitted to the file
(_series_value), computed at the context's precision and added to the
radius, rounded up.  CM values are evaluated once per orbit of complex
conjugation and, when p | disc, the Fricke involution W_p.

A Hauptmodul fixes level, realization and precision once; its values live in
the mpmath context working_context(digits), one per precision per process and
shared by every Hauptmodul at that precision.  A caller changes a context's
precision only inside ctx.workprec(...), which restores it on exit, so the
shared context always stands at its own precision.  Nothing touches the
global mpmath state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath import libmp

from .arith import require_prime
from .ball import Ball, ceil_shift, exact_pair, fixed_mul, power, radius, scaled, top_bits
from .errors import InternalError, ParameterError, PrecisionError
from .quadforms import QuadraticForm, heegner_reps, reduction_word

#: Primes whose Fricke curve X0*(p) has genus zero: the domain of j*_p.
GENUS_ZERO_FRICKE_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 47, 59, 71))
#: Primes whose Fricke Hauptmodul has a closed eta-quotient form here.
ETA_QUOTIENT_PRIMES = (2, 3, 5, 7, 13)

#: Digits carried beyond the requested precision.
GUARD_DIGITS = 10
#: Most decimal digits numeric work accepts; eval takes about 0.5 s at the ceiling.
MAX_DIGITS = 10_000
#: Safety bound on the eta series length; low Im(tau) raises PrecisionError.
MAX_ETA_TERMS = 10 ** 5
#: Bits the fixed-point eta kernel carries beyond the context precision.
ETA_GUARD_BITS = 32
# Bits q is computed with beyond the fixed-point precision (_rational_q,
# _form_exponentials).
_Q_GUARD_BITS = 8
# Relative error of the scaled q, in units of 2^-bits: the exponential and
# the angle at _Q_GUARD_BITS more bits, and the floor of the pair.
_Q_REL_ULPS = 4
# Error of the fixed-point q the eta kernel sums, in units of its last bit:
# |q| _Q_REL_ULPS from the scaled q, and the floor of each part.
_Q_ERR_ULPS = 8


def require_genus_zero(p: int) -> None:
    """Refuse, with ParameterError, a p where X0*(p) is not genus zero: j*_p
    exists only there.  A p that is not prime is refused as such first, as
    every command does; the 15 genus-zero primes are not tested."""
    if p not in GENUS_ZERO_FRICKE_PRIMES:
        require_prime(p)
        raise ParameterError(f"p={p}: the Fricke curve is not genus zero")


def check_digits(digits: int) -> int:
    """digits, refused with ParameterError unless between 1 and MAX_DIGITS."""
    if digits < 1:
        raise ParameterError("precision parameters must be positive")
    if digits > MAX_DIGITS:
        raise ParameterError(f"precision {digits} exceeds the ceiling of {MAX_DIGITS} digits")
    return digits


@functools.cache
def working_context(digits: int):
    """The mpmath context carrying digits decimal digits plus GUARD_DIGITS.

    One context per precision per process: every call with the same digits
    returns the same context, whose precision changes only inside
    ctx.workprec(...).  Contexts at different precisions are distinct, and
    digits outside 1..MAX_DIGITS raise ParameterError and store nothing.
    """
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = check_digits(digits) + GUARD_DIGITS
    return ctx


@dataclass(frozen=True)
class QSeries:
    """Truncated Fourier expansion q^(-1) + c(0) + c(1) q + ... with exact coefficients."""

    p: int
    coefficients: tuple[int, ...]  # c(-1), c(0), c(1), ...

    def __post_init__(self):
        require_prime(self.p)
        if len(self.coefficients) < 2:
            raise ParameterError("need at least the residue and the constant term")
        if any(not isinstance(c, int) for c in self.coefficients):
            raise ParameterError("series coefficients must be integers")
        if self.coefficients[0] != 1:
            raise ParameterError("rejected: leading coefficient c(-1) must be 1")

    @property
    def top_exponent(self) -> int:
        return len(self.coefficients) - 2


def load_qseries(path) -> QSeries:
    """Read a coefficient file: 'p <prime>', 'count <n>', then n integers, one per line.

    A file that cannot be read or is malformed raises ParameterError naming
    the path, and the line where there is one.
    """
    header: dict[str, int] = {}
    coeffs: list[int] = []
    try:
        # non-ASCII bytes decode to lone surrogates, so the line that holds one is known
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line.isascii():
                    raise ParameterError(f"{path}:{lineno}: not ASCII text")
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if parts[0] in ("p", "count"):
                    if len(parts) != 2 or parts[0] in header:
                        raise ParameterError(f"{path}:{lineno}: malformed header line {line!r}")
                    header[parts[0]] = int(parts[1])
                    continue
                if len(header) < 2:
                    raise ParameterError(f"{path}:{lineno}: coefficients before the header")
                coeffs.append(int(line))
    except ValueError:  # from int(); decoding cannot fail under surrogateescape
        raise ParameterError(f"{path}:{lineno}: not an integer: {line!r}") from None
    except OSError as exc:
        raise ParameterError(f"{path}: cannot read the coefficient file: {exc.strerror}") from None
    if "p" not in header or "count" not in header:
        raise ParameterError(f"{path}: missing 'p' or 'count' header")
    if len(coeffs) != header["count"]:
        raise ParameterError(
            f"{path}: expected {header['count']} coefficients, found {len(coeffs)}"
        )
    try:
        return QSeries(p=header["p"], coefficients=tuple(coeffs))
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class Hauptmodul:
    """j*_p of a genus-zero level p, realized by its eta quotient or by a
    coefficient file of level p, at digits decimal digits; all checked here,
    once.  Its values live in ctx, the working_context(digits) it shares with
    every Hauptmodul at that precision.  A coefficient file's tail constant
    (see _series_value) depends on the file alone, so it is
    computed here, once, at that precision."""

    p: int
    digits: int = 80
    series: QSeries | None = None
    ctx: object = field(init=False, repr=False, compare=False)
    tail_growth: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "ctx", working_context(self.digits))
        require_genus_zero(self.p)
        if self.series is None and self.p not in ETA_QUOTIENT_PRIMES:
            raise ParameterError(f"no closed form for p={self.p}; supply a coefficient file")
        if self.series is not None:
            if self.series.p != self.p:
                raise ParameterError(f"series is for p={self.series.p}, not p={self.p}")
            object.__setattr__(self, "tail_growth", _tail_growth(self.ctx, self.series))


def _tail_growth(ctx, series: QSeries):
    """C = max(1, max_k |c(k)| exp(-4 pi sqrt(k))) over the coefficients
    c(1), c(2), ... of series: the constant of the tail model
    |c(k)| <= C exp(4 pi sqrt(k)), at ctx's precision."""
    growth = ctx.mpf(0)
    for k in range(1, series.top_exponent + 1):
        c = series.coefficients[k + 1]
        if c:
            growth = max(growth, abs(ctx.mpf(c)) * ctx.exp(-4 * ctx.pi * ctx.sqrt(k)))
    return max(growth, ctx.mpf(1))


# ---------------------------------------------------------------------------
# integer q-series arithmetic (exact expansions of the closed forms)

def _series_mul(a, b, n):
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if not ai:
            continue
        top = min(n - i, len(b))
        for j in range(top):
            out[i + j] += ai * b[j]
    return out


def _series_inv(a, n):
    # requires a[0] == 1
    if a[0] != 1:
        raise InternalError("series inversion needs unit constant term")
    out = [0] * n
    out[0] = 1
    for k in range(1, n):
        acc = 0
        for j in range(1, min(k, len(a) - 1) + 1):
            acc += a[j] * out[k - j]
        out[k] = -acc
    return out


def _series_pow(a, e, n):
    out = [0] * n
    out[0] = 1
    base = list(a[:n]) + [0] * max(0, n - len(a))
    while e:
        if e & 1:
            out = _series_mul(out, base, n)
        e >>= 1
        if e:
            base = _series_mul(base, base, n)
    return out


def _euler_product(n):
    """Coefficients of prod_{k>=1} (1 - q^k) up to q^(n-1)."""
    out = [0] * n
    out[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 < n:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g < n:
                out[g] += -1 if k % 2 else 1
        k += 1
    return out


def eta_quotient_qseries(p: int, count: int) -> QSeries:
    """Exact integer expansion of the closed-form invariant for p in the eta set."""
    if p not in ETA_QUOTIENT_PRIMES:
        raise ParameterError(f"no closed form for p={p}")
    if count < 2:
        raise ParameterError("count must be at least 2")
    e = 24 // (p - 1)
    n = count
    euler = _euler_product(n)
    stretched = [0] * n
    for i in range(0, n, p):
        stretched[i] = euler[i // p]
    quotient = _series_mul(euler, _series_inv(stretched, n), n)
    tq = _series_pow(quotient, e, n)  # q * t(tau)
    uq = _series_inv(tq, n)           # (1/t)(tau) / q
    const = p ** (e // 2)
    coeffs = [tq[0]]
    for k in range(0, count - 1):
        c = tq[k + 1] if k + 1 < n else 0
        if k >= 1:
            c += const * uq[k - 1]
        coeffs.append(c)
    return QSeries(p=p, coefficients=tuple(coeffs))


# ---------------------------------------------------------------------------
# numeric evaluation

def _pentagonal_pairs(height, bits: int) -> int:
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


def _fixed_bits(ctx) -> int:
    return ctx.prec + ETA_GUARD_BITS


def _to_fixed(x, bits: int):
    """A scaled pair as a fixed-point pair at 2^-bits, each part floored."""
    (re, im), exp = x
    shift = exp + bits
    if shift >= 0:
        return re << shift, im << shift
    return re >> -shift, im >> -shift


def _binary_point(tau):
    """(x, y, one) with the mpc tau = (x + iy)/one exactly, one a power of two."""
    (x, y), exp = exact_pair(tau.real._mpf_, tau.imag._mpf_)
    return x << max(0, exp), y << max(0, exp), 1 << max(0, -exp)


def _ratio(up, low):
    """The Gaussian rational U/L of two integer pairs as (U conj(L), |L|^2)."""
    return fixed_mul(up, (low[0], -low[1]), 0), low[0] * low[0] + low[1] * low[1]


def _rational_q(ctx, num, den: int):
    """e^(2 pi i w) for w = (num[0] + i num[1]) / den, Im(w) > 0, as a scaled
    pair at bits = _fixed_bits(ctx), within _Q_REL_ULPS units of 2^-bits of
    the exact value, relatively.

    Each part of w is rounded once, to wp = bits + _Q_GUARD_BITS + extra
    bits, with |Re w| + |Im w| < 2^(extra - 5), and the exponential runs at
    wp: each part moves by at most 2^(1 - wp) of itself, so 2 pi w moves by
    less than 2^(-bits - _Q_GUARD_BITS - 1), and the exponential by as
    much, relatively."""
    bits = _fixed_bits(ctx)
    wp = bits + _Q_GUARD_BITS + 5 + ((abs(num[0]) + num[1]) // den + 1).bit_length()
    with ctx.workprec(wp):
        q = ctx.expjpi(2 * ctx.make_mpc(tuple(libmp.from_rational(part, den, wp) for part in num)))
    return scaled(q.real._mpf_, q.imag._mpf_, bits)


def _conjugate_swap(z: int, m: int, u: int, v: int):
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
#: the factors _addition_sequence swaps to split a pentagonal power into two.
_GAUSSIAN_SPLITS = ((2, 1), (3, 2), (4, 1), (5, 2))


def _addition_sequence(pairs: int) -> tuple:
    """The products that make q^c for every generalized pentagonal c up to
    pairs(3 pairs + 1)/2 from q, in increasing c: one step (c, a, b, sign,
    spent) per product q^c = q^a q^b, where sign is the term's (-1)^k, or 0
    for a power that is not a term, and spent lists the exponents that no
    later step reads, this one's own c among them when nothing reads it
    (_with_spent; the products come from _sequence_products).
    """
    return _with_spent(_sequence_products(1, pairs))


def _sequence_products(first: int, last: int) -> list:
    """The steps (c, a, b, sign) of _addition_sequence for the powers of the
    pairs first..last, k(3k -+ 1)/2 for first <= k <= last.

    Write 24c + 1 = Z^2, Z = 6k -+ 1 (Enge, Hart and Johansson, Short
    addition sequences for theta functions, J. Integer Seq. 21 (2018)).
    c = a + b is a second way to write Z^2 + 1 as X^2 + Y^2; swapping a
    prime of _GAUSSIAN_SPLITS that divides Z + i gives one unless X or Y
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
            for u, v in _GAUSSIAN_SPLITS:
                split = _conjugate_swap(z, 1, u, v)
                if split and min(split) > 1:
                    x, y = split
                    steps.append((c, (x * x - 1) // 24, (y * y - 1) // 24, sign))
                    break
            else:
                x, y = _conjugate_swap(z, 2, 1, 1)
                a, b = (y * y - 1) // 24, (x * x - 1) // 24
                if b:
                    steps.append((2 * a, a, a, 0))
                    steps.append((c, 2 * a, b, sign))
                else:
                    steps.append((c, a, a, sign))
    return steps


def _with_spent(steps) -> tuple:
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
#: pairs at MAX_DIGITS (17 at 1000 digits, 9 at 300).
_TABLE_PAIRS = 53
_TABLE = _addition_sequence(_TABLE_PAIRS)
#: _TABLE_ENDS[k]: the number of _TABLE's steps that make the powers of k pairs.
_TABLE_ENDS = (0, *(i + 1 for i, (c, _, _, sign, _) in enumerate(_TABLE)
                    if sign and math.isqrt(24 * c + 1) % 6 == 1))


def _pentagonal_steps(pairs: int) -> tuple:
    """The steps of _addition_sequence(pairs): within _TABLE_PAIRS the first
    ones of _TABLE, whose spent lists hold for the whole table, so a power
    read only by later table steps stays until the sum returns; past
    _TABLE_PAIRS, _TABLE's products followed by those of the later pairs,
    built here, with the spent lists of the whole taken anew."""
    if pairs <= _TABLE_PAIRS:
        return _TABLE[:_TABLE_ENDS[pairs]]
    return _with_spent([step[:4] for step in _TABLE]
                       + _sequence_products(_TABLE_PAIRS + 1, pairs))


def _pentagonal_sum(q, q_err: int, pairs: int, bits: int):
    """S(q) = sum_{|k| <= pairs} (-1)^k q^(k(3k-1)/2) as a Ball whose midpoint
    is a fixed-point pair at 2^-bits.

    q is a fixed-point pair (X, Y) standing for (X + iY) 2^-bits, within q_err
    units of the exact q = e^(2 pi i tau), and pairs comes from
    _pentagonal_pairs(Im tau, bits - ETA_GUARD_BITS).  The powers come from
    q by the addition sequence of _pentagonal_steps, one fixed-point product
    per step, and each is dropped once no later step reads it; the integer
    sums are exact.

    The radius, in units of 2^-bits, adds two parts.  Tail: the omitted
    exponents are distinct integers from N = (pairs+1)(3 pairs+2)/2 on, so
    they sum to at most |q|^N / (1 - |q|), with |q| <= size 2^(cut - bits):
    X and Y are read at 2^cut, about 16 bits each, rounded up, and size =
    isqrt of their squared modulus, plus one, plus q_err rounded up to
    units of 2^cut; a size that reaches 2^(bits - cut) raises PrecisionError.
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
    total_re, total_im = 1 << bits, 0
    if pairs:
        total_re, total_im = total_re - q[0], -q[1]
    powers = {1: q}
    for c, a, b, sign, spent in _pentagonal_steps(pairs):
        x = powers[c] = fixed_mul(powers[a], powers[b], bits)
        total_re += sign * x[0]
        total_im += sign * x[1]
        for exponent in spent:
            del powers[exponent]
    cut = max(0, top_bits(q) - 16)
    x, y = (abs(q[0]) >> cut) + 1, (abs(q[1]) >> cut) + 1  # |X|, |Y| < (x, y) 2^cut
    size = math.isqrt(x * x + y * y) + 2 + (q_err >> cut)
    if size >> (bits - cut):
        raise PrecisionError("the eta series cannot be bounded where |q| may reach 1")
    exponent = (pairs + 1) * (3 * pairs + 2) // 2
    tail = ceil_shift(size ** exponent, (cut - bits) * exponent + 2 * bits)
    rounding = (q_err + 2) * pairs * (pairs + 1) * (2 * pairs + 1)
    return Ball(((total_re, total_im), -bits),
                radius(tail // ((1 << bits) - (size << cut)) + 1 + rounding, -bits))


def eta_with_bound(tau, ctx):
    """Dedekind eta at tau, a number or a QuadraticForm standing for its CM
    point, as (value, error bound): _eta_power at e = 1, eta = z S(z^24)
    with z = e^(2 pi i tau/24) from exact data, the binary tau/24
    (_rational_q) or the form's (_form_exponentials).  The bound is the
    radius of the Ball.
    """
    bits = _fixed_bits(ctx)
    if isinstance(tau, QuadraticForm):
        size = -tau.discriminant
        pairs = _pentagonal_pairs(math.sqrt(size) / (2 * tau.a), ctx.prec)
        (z,) = _form_exponentials(size, [(tau.a, tau.b, tau.c)], 24, bits)
    else:
        tau = ctx.mpc(tau)
        if tau.imag <= 0:
            raise ParameterError(f"eta requires Im(tau) > 0, got {tau.imag}")
        pairs = _pentagonal_pairs(tau.imag, ctx.prec)
        x, y, one = _binary_point(tau)
        z = _rational_q(ctx, (x, y), 24 * one)
    return _eta_power(z, pairs, 1, bits).to_mpc(ctx)


def reduce_point(tau, p: int, ctx):
    """Push tau into |Re| <= 1/2 with p|tau|^2 >= 1, exactly, by shifts and
    the Fricke flip tau -> -1/(p tau).

    Legal for evaluating any function invariant under the group generated by
    tau -> tau + 1 and tau -> -1/(p tau); a coefficient file is evaluated
    there (the closed form reduces by SL2(Z) instead, reduction_word and
    _reduce_numeric at level 1).  A QuadraticForm (a, b, c) stands for its
    CM point and gives a form: reduction_word's at level p of (a, b, c)
    when p | a, and otherwise of (pa, pb, pc), the same point.  Any other
    tau gives the point _fricke_point finds for the binary number tau,
    rounded to ctx's precision.
    """
    if isinstance(tau, QuadraticForm):
        n = 1 if tau.a % p == 0 else p
        return QuadraticForm(*reduction_word(n * tau.a, n * tau.b, n * tau.c, p)[0])
    num, den = _fricke_point(*_binary_point(ctx.mpc(tau)), p)
    return ctx.make_mpc(tuple(libmp.from_rational(part, den, ctx.prec, "n") for part in num))


def _fricke_point(x: int, y: int, one: int, p: int):
    """(num, den): tau = (x + iy)/one reduced as reduce_point says, as the
    exact (num[0] + i num[1])/den.

    The level-p loop of _reduce_numeric runs from tau and from one coset
    point, and the end of larger Im is kept, the first on a tie: for
    p >= 5, T and W_p do not generate the Fricke group, so the loop from
    tau alone can stop low (0.1234567 + 0.001i near Im 0.018 at p = 5).
    With W tau = U/L the SL2(Z) reduction of tau, at Im >= sqrt(3)/2, W's
    left column (w0, w2) is (Im U, Im L)/y.  The coset point is W tau when
    p | w2, and otherwise (W tau + j)/p with p | w0 + j w2: then W_p
    [[1, j], [0, p]] W = p [[-w2, -w3], [w0 + j w2, w1 + j w3]] lies in p
    Gamma0(p), so the point is in tau's orbit, at Im >= sqrt(3)/(2p).
    """
    up, low, _ = _reduce_numeric(x, y, one)
    w0, w2 = up[1] // y, low[1] // y
    scale, j = (1, 0) if w2 % p == 0 else (p, next(n for n in range(p) if (w0 + n * w2) % p == 0))
    coset = _ratio((up[0] + j * low[0], up[1] + j * low[1]), (scale * low[0], scale * low[1]))
    ends = [_reduce_numeric(*num, den, p) for num, den in (((x, y), one), coset)]
    return max((_ratio(*end[:2]) for end in ends), key=lambda point: Fraction(point[0][1], point[1]))


def _series_value(hm: Hauptmodul, tau, reduce_first: bool):
    """hm's coefficient file at tau, a form or an mpc, as a Ball whose
    midpoint is rounded to the context's precision: Horner's rule on Balls
    at an exact q, after reduce_point's reduction unless reduce_first is
    False.

    q = e^(2 pi i tau) comes from exact data, the form's
    (_form_exponentials at m = 1) or the point _fricke_point gives
    (_rational_q), within _Q_REL_ULPS units, relatively: its relative Ball.
    Each of Horner's products and sums and the quotient by q bounds its own
    rounding.  The tail model |c(k)| <= C exp(4 pi sqrt(k)) fits simple-pole
    generators; C is calibrated from the supplied coefficients, once per
    Hauptmodul (hm.tail_growth), and the tail it gives, a geometric sum
    from the first omitted term, is added to the radius, rounded up.  A
    series whose terms need not shrink, or whose tail exceeds the requested
    precision, raises PrecisionError.
    """
    ctx, series = hm.ctx, hm.series
    bits = _fixed_bits(ctx)
    if isinstance(tau, QuadraticForm):
        if reduce_first:
            tau = reduce_point(tau, hm.p, ctx)
        (pair,) = _form_exponentials(-tau.discriminant, [(tau.a, tau.b, tau.c)], 1, bits)
    else:
        x, y, one = _binary_point(tau)
        pair = _rational_q(ctx, *(_fricke_point(x, y, one, hm.p) if reduce_first else ((x, y), one)))
    q = Ball.relative(pair, _Q_REL_ULPS, bits)
    absq = abs(q.to_mpc(ctx)[0])
    top = series.top_exponent
    ratio = ctx.exp(4 * ctx.pi * (ctx.sqrt(top + 2) - ctx.sqrt(top + 1))) * absq
    if ratio >= 1:
        raise PrecisionError(
            f"series for p={series.p} cannot converge at |q|={mpmath.nstr(absq, 5)}"
        )
    tail = (hm.tail_growth * ctx.exp(4 * ctx.pi * ctx.sqrt(top + 1)) * absq ** (top + 1)
            / (1 - ratio))
    total = Ball(((series.coefficients[-1] << bits, 0), -bits))
    for c in reversed(series.coefficients[:-1]):
        total = total.mul(q, bits).add(Ball(((c << bits, 0), -bits)), bits)
    value = total.div(q, bits)
    if tail > ctx.mpf(10) ** (-hm.digits) * max(abs(value.to_mpc(ctx)[0]), 1):
        raise PrecisionError(
            f"truncation bound {mpmath.nstr(tail, 5)} exceeds the requested precision "
            f"for p={series.p}; supply more coefficients"
        )
    _, man, exp, _ = tail._mpf_
    return value.add(Ball(((0, 0), value.mid[1]), radius(man, exp)), ctx.prec)


# eta^e at SL2(Z)-reduced points.  With e = 24/(p - 1) = 2k and
# zeta = e^(2 pi i/24), eta^e(tau + n) = zeta^(ne) eta^e(tau) and
# eta^e(-1/tau) = (-i tau)^k eta^e(tau) (Apostol, Modular Functions and
# Dirichlet Series, ch. 3).  A reduction word W = ... S T^n1, n shifts in
# all and s flips, takes tau to W tau, and the flips' factors multiply to
# (-i)^(ks) (c tau + d)^k for the lower row (c, d) of W, so
#     eta^e(tau) = eta^e(W tau) zeta_12^(-k (n - 3s)) / (c tau + d)^k,
# with zeta_12 = e^(2 pi i/12); n - 3s is the word's turns.  A form's word
# is quadforms.reduction_word's, a numeric point's _reduce_numeric's, both
# at level 1.

def _max_flips(y: int, one: int) -> int:
    """s + 2 for a point with Im(tau) = y/one, where s = bits(one) -
    bits(y), at least 0, gives Im(tau) > 2^-(s + 1), and Im(tau) >= 2^-s
    when one is a power of two: the s + 1 flips _reduce_numeric needs at
    level 1 for such a one, and one more for any other one."""
    return max(0, one.bit_length() - y.bit_length()) + 2


def _reduce_numeric(x: int, y: int, one: int, level: int = 1):
    """(U, L, turns) for tau = (x + iy)/one exactly, y > 0: U = (a tau + b)
    one and L = (c tau + d) one, integer pairs, for the word W = (a, b, c,
    d) of shifts and flips tau -> -1/(N tau), N = level, with W tau = U
    conj(L)/|L|^2 in |Re| <= 1/2 and N|W tau|^2 >= 1, and W's turns.  A
    shift by n adds n L to U, a flip makes (U, L) (-L, N U), and the shift
    and the test N|U|^2 >= |L|^2 are exact integer arithmetic.

    At level 1, W lies in SL2(Z).  A flip at a point with |Re| <= 1/2 and
    Im <= 1/2 has |tau|^2 <= 1/2, so it at least doubles Im: from
    Im(tau) >= 2^-s there are at most s such flips.  A point with
    |Re| <= 1/2 and Im > 1/2 lies in F, S F or S T^(+-1) F (the images
    S T^n F with |n| >= 2 stay below Im 1/3), one flip from the fundamental
    domain F.  A point still unreduced after _max_flips flips raises
    PrecisionError; at a level p the cap is the same, with no such proof."""
    up, low, turns = (x, y), (one, 0), 0
    flips = _max_flips(y, one)
    for _ in range(flips + 1):
        den = low[0] * low[0] + low[1] * low[1]
        n = -((2 * (up[0] * low[0] + up[1] * low[1]) + den) // (2 * den))  # -floor(Re + 1/2)
        up, turns = (up[0] + n * low[0], up[1] + n * low[1]), turns + n
        if level * (up[0] * up[0] + up[1] * up[1]) >= den:
            return up, low, turns
        up, low, turns = (-low[0], -low[1]), (level * up[0], level * up[1]), turns - 3
    raise PrecisionError(f"tau not reduced at level {level} within {flips} flips")


def _eta_power(z, pairs: int, e: int, bits: int):
    """eta^e at a point tau as the Ball z S(q)^e: z = e^(2 pi i tau e/24), a
    scaled pair within _Q_REL_ULPS units of 2^-bits, relatively, q = z^(24/e),
    and pairs from _pentagonal_pairs(Im tau, bits - ETA_GUARD_BITS).

    The fixed-point z is within |z| _Q_REL_ULPS + sqrt(2) <= _Q_ERR_ULPS
    units, so its m-th power q, m = 24/e, is within m (_Q_ERR_ULPS + 2), as
    in _pentagonal_sum.
    """
    m = 24 // e
    q = power(_to_fixed(z, bits), m, lambda x, y: fixed_mul(x, y, bits))
    sum_ = _pentagonal_sum(q, m * (_Q_ERR_ULPS + 2), pairs, bits)
    return Ball.relative(z, _Q_REL_ULPS, bits).mul(sum_.pow(e, bits), bits)


def _form_exponentials(size: int, forms, m: int, bits: int) -> list:
    """e^(2 pi i tau/m) at the CM point tau of each form (a, b, c) of forms,
    of discriminant -size, as scaled pairs within _Q_REL_ULPS units of
    2^-bits, relatively, from exact data: at the point of (a, b, c),
    z = r^(1/a) e^(-pi i b/(a m)), from one exponential r = e^(-pi sqrt(size)/m)
    shared by all, an a-th root and a rotation each.

    The rotation's angle is split exactly, -b/(am) = n/12 + x/(12am) with
    |x/(12am)| <= 1/24: e^(pi i n/12) is an exact twelfth turn
    (_twelfth_turn), and only pi x/(12am), at most pi/24, goes through a
    cosine, when x != 0, that is when am does not divide 12b.

    Each libmp operation rounds at wp and moves its result by less than
    2 u of itself, u = 2^-wp.  The exponential turns a relative rounding
    of its argument into one times the argument, so wp adds the argument's
    bits w (pi sqrt(size)/m < 4 (isqrt(size) // m + 1) < 2^w, w >= 3) to
    bits + _Q_GUARD_BITS: the argument, four roundings, is within 9 u 2^w,
    and r within 10 2^-(bits + _Q_GUARD_BITS), relatively; a root divides
    that by a.  The rest adds at most 18 u, relatively: the root's
    rounding 2, the residual turn 4 (its angle, below pi/24, within 6 u of
    itself, then the cosine and sine), its product 2, the surd 1 and the
    surd's products and sums 8 (2 u of (|Re| + |Im|)(|cos| + |sin|) <= 2 |z|,
    and 2 u of each part).  With u <= 2^-(bits + _Q_GUARD_BITS + 3), z is
    within 13 2^-(bits + _Q_GUARD_BITS) < 2^-(bits + 4) of itself before
    scaled floors it, which costs less than 2^-bits more: under 2 <
    _Q_REL_ULPS units.
    """
    wp = bits + _Q_GUARD_BITS + (4 * (math.isqrt(size) // m + 1)).bit_length()
    pi = libmp.mpf_pi(wp)
    arg = libmp.mpf_div(libmp.mpf_mul(pi, _sqrt(size, wp), wp), libmp.from_int(m), wp)
    base = libmp.mpf_exp(libmp.mpf_neg(arg), wp)
    roots = {}  # the square roots the twelfth turns read, each taken once per call
    zs = []
    for a, b, _ in forms:
        re, im = libmp.mpf_nthroot(base, a, wp), libmp.fzero
        a *= m
        n = (a - 24 * b) // (2 * a)  # the integer nearest -12b/a
        x = -12 * b - n * a
        if x:
            cos, sin = libmp.mpf_cos_sin(
                libmp.mpf_mul(pi, libmp.from_rational(x, 12 * a, wp), wp), wp)
            re, im = libmp.mpf_mul(re, cos, wp), libmp.mpf_mul(re, sin, wp)
        zs.append(scaled(*_twelfth_turn(re, im, n, roots, wp), bits))
    return zs


def _twelfth_turn(re, im, n: int, roots: dict, wp: int):
    """(re + i im) e^(pi i n/12) for mpfs re and im, the product rounded at
    wp: i^j times the quadratic surd e^(pi i k/12) for n = 6j + k mod 24,
    0 <= k < 6.  The surd's cosine and sine are (sqrt(6) + sqrt(2),
    sqrt(6) - sqrt(2))/4, (sqrt(3), 1)/2 and (sqrt(2), sqrt(2))/2 at k = 1,
    2, 3, swapped at 6 - k; each sqrt(l) is isqrt(l 2^(2 wp)) 2^-wp, less
    than 2^-wp below it, so each part is an exact mpf within 2^-(wp + 1).
    roots keeps each isqrt once taken.  The quarter turns i^j are exact."""
    j, k = divmod(n % 24, 6)
    if k:
        def root(l: int) -> int:
            if l not in roots:
                roots[l] = math.isqrt(l << 2 * wp)
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


def _sqrt(size: int, wp: int):
    """sqrt(size) rounded down to wp bits, as libmp.mpf_sqrt(from_int(size),
    wp) rounds it, from one integer square root: isqrt(size 2^(2 wp)) has
    more than wp bits, and cutting it to wp bits floors sqrt(size) there."""
    return libmp.from_man_exp(math.isqrt(size << 2 * wp), -wp, wp, libmp.round_down)


def _class_etas(hm: Hauptmodul, size: int, forms) -> dict:
    """{f: eta^e at the CM point of f} over forms f = (a, b, c) of
    discriminant -size, e = 24/(p - 1), as _eta_power gives each, with
    z = e^(2 pi i tau/(p - 1)) from _form_exponentials.  Every term count is
    known before the exponential.
    """
    ctx, m = hm.ctx, hm.p - 1
    bits = _fixed_bits(ctx)
    pairs = [_pentagonal_pairs(math.sqrt(size) / (2 * a), ctx.prec) for a, _, _ in forms]
    zs = _form_exponentials(size, forms, m, bits)
    return {f: _eta_power(z, count, 24 // m, bits) for f, z, count in zip(forms, zs, pairs)}


def _quotient_value(hm: Hauptmodul, etas, turns: int, num, den: int):
    """The CM value t + p^k/t, k = e/2, as a Ball whose midpoint is rounded
    to the context's precision, for t = eta^e(tau)/eta^e(p tau)
    = (E1/E2) zeta_12^(k turns) num/den: etas the pair (E1, E2) of
    _eta_power values at the reduced points, turns the second word's
    turns less the first's, num a Ball and den a positive integer, the
    multiplier of the two words.
    """
    ctx, p = hm.ctx, hm.p
    bits, k = _fixed_bits(ctx), 12 // (p - 1)
    e1, e2 = etas
    t = e1.mul(num, bits).rotate(k * turns, bits).div(e2.scale(den), bits)
    return t.add(Ball(((p ** k, 0), 0)).div(t, bits), ctx.prec)


def _p_tau_form(p: int, a: int, b: int, c: int):
    """(l, m, f): the form f = (a/l, mb, pmc) whose CM point is p tau, for
    tau that of (a, b, c), with (l, m) = (p, 1) when p | a, f of the same
    size, and (1, p) otherwise, f of p^2 times the size."""
    ell, m = (p, 1) if a % p == 0 else (1, p)
    return ell, m, (a // ell, m * b, p * m * c)


def _form_value(hm: Hauptmodul, form: QuadraticForm, eta_at, root: int, words):
    """hm at the CM point tau of a form (a, b, c), as a Ball, from eta_at(f),
    eta^e at the point of a form f (_class_etas or a table of its values),
    root = isqrt(size 2^(2 bits)), size = 4ac - b^2, and words, the
    reduction words of (a, b, c) and of the form of p tau (_p_tau_form):
    quadforms.reduction_word's, or the identity word in its shape.

    Each point is taken exactly to that of its word's form, and with the
    lower row (g, h) of the word, g tau + h = (u + v sqrt(-size))/(2a) for
    u = 2ah - gb and v = g, where u^2 + v^2 size = 4aA for the reduced
    form's A, and g p tau + h = l (u + m v sqrt(-size))/(2a) for the second
    form (a/l, mb, pmc), u = 2ah/l - gmb.  The two multipliers leave
        t = (E1/E2) zeta_12^(k (turns2 - turns1)) (X + Y sqrt(-size))^k / (4aA1)^k
    with X = l (u1 u2 + m v1 v2 size) and Y = l (m u1 v2 - u2 v1); the power
    is exact in Z[sqrt(-size)], and Y sqrt(size) is floored from root,
    within |Y| units of 2^-bits: the radius of that factor's Ball.
    """
    p, bits = hm.p, _fixed_bits(hm.ctx)
    k = 12 // (p - 1)
    a, b, c = form.a, form.b, form.c
    size = -form.discriminant
    ell, m, second = _p_tau_form(p, a, b, c)
    (f1, (g1, h1), shift1, flips1), (f2, (g2, h2), shift2, flips2) = words
    u1, v1, u2, v2 = 2 * a * h1 - g1 * b, g1, 2 * second[0] * h2 - g2 * second[1], g2
    x, y = power((ell * (u1 * u2 + m * v1 * v2 * size), ell * (m * u1 * v2 - u2 * v1)), k,
                 lambda s, t: (s[0] * t[0] - size * s[1] * t[1], s[0] * t[1] + s[1] * t[0]))
    num = Ball(((x << bits, y * root), -bits), radius(abs(y), -bits))
    turns = shift2 - shift1 - 3 * (flips2 - flips1)
    return _quotient_value(hm, (eta_at(f1), eta_at(f2)), turns, num, (4 * a * f1[0]) ** k)


def _point_value(hm: Hauptmodul, tau, word):
    """hm at an mpc tau as a Ball, exact at the binary point tau.

    tau = (x + iy)/2^s and p tau = (px + ipy)/2^s exactly.  Each is taken to
    the point U conj(L)/|L|^2 its word, _reduce_numeric or the identity,
    gives, exactly, so eta^e there takes one exponential of an exact
    quotient (_rational_q), and the multipliers leave
        t = (E1/E2) zeta_12^(k (turns2 - turns1)) (L2 conj(L1))^k / |L1|^(2k),
    exact.  Both term counts are known before any series work.
    """
    ctx, p = hm.ctx, hm.p
    bits, e = _fixed_bits(ctx), 24 // (p - 1)
    x, y, one = _binary_point(tau)
    points = [(*_ratio(up, low), low, turns)
              for up, low, turns in (word(n * x, n * y, one) for n in (1, p))]
    # a height beyond 2^64 needs no terms, as 2^64 does; the cap keeps it a float
    pairs = [_pentagonal_pairs(min(num[1], den << 64) / den, ctx.prec) for num, den, _, _ in points]
    etas = [_eta_power(_rational_q(ctx, num, (p - 1) * den), count, e, bits)
            for (num, den, _, _), count in zip(points, pairs)]
    (_, _, low1, turns1), (_, _, low2, turns2) = points
    k = e // 2
    num, den = _ratio(low2, low1)
    return _quotient_value(hm, etas, turns2 - turns1,
                           Ball((power(num, k, lambda u, v: fixed_mul(u, v, 0)), 0)), den ** k)


def _cm_value(hm: Hauptmodul, tau, reduce_first: bool = True):
    """hm at tau as a Ball, in hm's precision; see value_with_bound.  Whether
    tau is reduced first is decided here: the helpers take a word to
    follow, the reduction's or the identity."""
    ctx = hm.ctx
    if not isinstance(tau, QuadraticForm):
        tau = ctx.mpc(tau)
        if tau.imag <= 0:
            raise ParameterError("evaluation point must lie in the upper half plane")
    if hm.series is not None:
        return _series_value(hm, tau, reduce_first)
    if isinstance(tau, QuadraticForm):
        word = reduction_word if reduce_first else lambda *f: (f, (0, 1), 0, 0)
        form = (tau.a, tau.b, tau.c)
        words = [word(*f) for f in (form, _p_tau_form(hm.p, *form)[2])]
        return _form_value(hm, tau, lambda f: _class_etas(hm, 4 * f[0] * f[2] - f[1] ** 2, [f])[f],
                           math.isqrt(-tau.discriminant << (2 * _fixed_bits(ctx))), words)
    word = _reduce_numeric if reduce_first else lambda x, y, one: ((x, y), (one, 0), 0)
    return _point_value(hm, tau, word)


def value_with_bound(hm: Hauptmodul, tau, reduce_first: bool = True):
    """(value, error bound) of hm at tau, in hm's context.  The additive constant
    is whatever the realization produces; only differences of values are
    normalization-independent.

    In closed form, t = eta^e(tau)/eta^e(p tau) and the value is
    t + p^(e/2)/t.  tau and p tau are each reduced by SL2(Z) to Im >= sqrt(3)/2
    (unless reduce_first is False), exactly: a form in integers
    (_form_value), any other point as the binary number it is
    (_point_value).  eta^e at each reduced point is z S(q)^e from one
    exponential z (_eta_power); the multipliers of the two words, a root of
    unity and an algebraic factor, are exact but for one fixed-point sqrt
    and a rounded root of unity.  Everything after the exponentials runs on
    integer pairs, rounded once to the context's precision, and one mpc is
    made at the end.  The bound is the radius of the value's Ball
    (_eta_power, _quotient_value).  A coefficient file is summed on Balls
    at the exact q of the point reduce_point's loops give (_series_value).
    """
    return _cm_value(hm, tau, reduce_first).to_mpc(hm.ctx)


def _mirror(form):
    """The reduced form of the class of (a, -b, c), for a reduced (a, b, c):
    the form itself when b = 0, b = a or a = c, each equivalent to its
    mirror, and (a, -b, c), reduced, otherwise."""
    a, b, c = form
    return form if b == 0 or b == a or a == c else (a, -b, c)


def _orbits(hm: Hauptmodul, disc: int, residue: int) -> list:
    """Per orbit of <complex conjugation, W_p> on the CM values of
    heegner_reps(disc, hm.p, residue), (same, conj, value): the CM value at
    the orbit's first form, a Ball evaluated once, the indices of the forms
    that share it and the indices of those that take its conjugate, empty
    for a real value.

    Each form's class is keyed by its reduced (a, b, c), as in
    heegner_reps, which also keys the eta^e table; each representative is
    reduced once, and the form (a/p, b, pc) of p tau once per orbit.  The
    class set is closed under conjugation, because the class polynomial
    has integer coefficients: j*_p has real coefficients, so the mirror
    (a, -b, c), at -conj(tau), carries the conjugate value, and so does its
    Fricke image (pc, b, a/p), the flip of the mirror (a/p, -b, pc) of
    p tau's form, which lies in the mirror of p tau's class.  When p | disc
    the residue satisfies beta = -beta mod 2p, so the set also holds the
    image (pc, -b, a/p) of a form under the Fricke involution W_p, which
    fixes j*_p and is the flip of p tau's form, in p tau's class, and the
    mirror, in the mirror of tau's class (Gross, Kohnen and Zagier, Heegner
    points and derivatives of L-series II, 1987, section II.1).  So the
    partners are read off the two classes each value reduces to anyway
    (_mirror).  A value shared with its conjugate is real, and its
    imaginary part, all rounding, is dropped: a real value within the radius
    of the midpoint is as near its real part.

    In closed form, eta^e is evaluated once per reduced form of disc up to
    the mirror, whose point -conj(tau) carries the conjugate eta^e, and
    each orbit's value reads the two classes its tau and p tau reduce to
    (_form_value).  The reduced forms are the keys of the class index:
    heegner_reps gives one form per class, as many as
    quadforms.reduced_forms enumerates.
    """
    p = hm.p
    forms = heegner_reps(disc, p, residue)
    words = [reduction_word(f.a, f.b, f.c) for f in forms]
    index = {word[0]: i for i, word in enumerate(words)}
    if hm.series is None:
        table = _class_etas(hm, -disc, [f for f in index if f[1] >= 0])

        def eta_at(f):
            a, b, c = f
            return table[f] if b >= 0 else table[a, -b, c].conjugate()

        root = math.isqrt(-disc << (2 * _fixed_bits(hm.ctx)))

        def value(form, pair):
            return _form_value(hm, form, eta_at, root, pair)
    else:
        def value(form, _):
            return _cm_value(hm, form)

    def at(reduced):
        i = index.get(reduced)
        if i is None:
            raise InternalError(f"{reduced} is not among the Heegner forms of {disc} at residue "
                                f"{residue} mod {2 * p}")
        return i

    fricke = disc % p == 0
    orbits, seen = [], set()
    for i, form in enumerate(forms):
        if i in seen:
            continue
        pair = words[i], reduction_word(*_p_tau_form(p, form.a, form.b, form.c)[2])
        tau_class, p_tau_class = pair[0][0], pair[1][0]
        same, conj = {i}, {at(_mirror(p_tau_class))}
        if fricke:
            same.add(at(p_tau_class))
            conj.add(at(_mirror(tau_class)))
        ball = value(form, pair)
        if same & conj:
            same, conj = same | conj, set()
            (re, _), exp = ball.mid
            ball = Ball(((re, 0), exp), ball.rad)
        seen |= same | conj
        orbits.append((sorted(same), sorted(conj), ball))
    return orbits


def cm_values(hm: Hauptmodul, disc: int, residue: int) -> list:
    """(value, error bound) of hm at the CM point of each form of
    heegner_reps(disc, hm.p, residue), in that order; each orbit of
    conjugation and, when p | disc, the Fricke involution costs one
    evaluation."""
    values = {}
    for same, conj, value in _orbits(hm, disc, residue):
        number, bound = value.to_mpc(hm.ctx)
        values.update(dict.fromkeys(same, (number, bound)))
        values.update(dict.fromkeys(conj, (number.conjugate(), bound)))
    return [values[i] for i in range(len(values))]


def check_lhs_digits(hm: Hauptmodul) -> None:
    """Refuse, with ParameterError, a Hauptmodul too coarse for the cross-check."""
    if hm.digits < 30:
        raise ParameterError("cross-check evaluation needs at least 30 digits")


def lhs_log_norm(hm: Hauptmodul, d: int, beta: int, D: int, mu: int) -> tuple:
    """8 * sum of log|j*(tau_{Q_D}) - j*(tau_{Q_d})| over both class sets,
    as (value, error bound) in hm's context.

    Each orbit of _orbits stands for its forms: the d-values are closed
    under conjugation, so a D-value counts once per form of its orbit, and
    a d-value once per form that takes it.  The CM values are aligned to
    the smallest exponent among them, exactly, so each difference and its
    squared modulus |v_D - v_d|^2 is an exact integer; each, raised to its
    weight, is multiplied into one product cut to bits = _fixed_bits bits,
    and the sum is 4 log of that product: one log per call.  Two values
    within 10^(-digits/2) of each other are refused.

    The bound adds, in units of 2^-bits, each term rounded up: 8 w (r_D +
    r_d)/|v_D - v_d| over the factors of weight w, the values' radii to
    first order, with |v_D - v_d| at least isqrt(norm >> 2 cut) 2^cut in
    units of the aligned exponent; a cut floors the product by less than
    2^(1-bits) of itself, so k cuts leave it within k 2^(1-bits) <= 1/2,
    relatively, its log within twice that and 4 log within 16 k units; and
    the log's own rounding of |log| 2^(1-prec), 4 times.
    """
    check_lhs_digits(hm)
    ctx = hm.ctx
    bits = _fixed_bits(ctx)
    d_values = []  # (Ball, forms taking the value)
    for same, conj, value in _orbits(hm, -d, beta):
        d_values.append((value, len(same)))
        if conj:
            d_values.append((value.conjugate(), len(conj)))
    D_values = [(value, len(same) + len(conj)) for same, conj, value in _orbits(hm, -D, mu)]
    exp = min((v.mid[1] for v, _ in d_values + D_values if v.mid[0] != (0, 0)), default=0)

    def aligned(values):
        return [((re << (e - exp), im << (e - exp)), v.rad, weight)
                for v, weight in values for (re, im), e in [v.mid]]

    d_values, D_values = aligned(d_values), aligned(D_values)
    exponent = -hm.digits // 2
    # |v_D - v_d|^2 < 10^(2 exponent) exactly when the integer norm is below this
    threshold = -(-(1 << max(0, -2 * exp)) // (10 ** (-2 * exponent) << max(0, 2 * exp)))
    product, shifted, cuts, err = 1, 0, 0, 0
    for (vr, vi), (m_D, e_D), weight_D in D_values:
        for (ur, ui), (m_d, e_d), weight_d in d_values:
            norm = (vr - ur) ** 2 + (vi - ui) ** 2
            if norm < threshold:
                raise PrecisionError(
                    f"CM values coincide to within {mpmath.nstr(ctx.mpf(10) ** exponent, 3)}; "
                    "equal discriminants or insufficient precision"
                )
            weight = weight_D * weight_d
            product *= norm ** weight
            excess = product.bit_length() - bits
            if excess > 0:
                product >>= excess
                shifted += excess
                cuts += 1
            cut = max(0, norm.bit_length() - 64) // 2
            base = cut + exp - bits  # |v_D - v_d| >= isqrt(norm >> 2 cut) 2^(base + bits)
            spread = ceil_shift(m_D, e_D - base) + ceil_shift(m_d, e_d - base)
            err += -(-8 * weight * spread // math.isqrt(norm >> 2 * cut))
    form_pairs = sum(v[-1] for v in D_values) * sum(v[-1] for v in d_values)
    total = ctx.log(ctx.make_mpf(libmp.from_man_exp(product, shifted + 2 * exp * form_pairs)))
    _, man, log_exp, _ = total._mpf_
    err += 16 * cuts + ceil_shift(man, log_exp + 3 - ctx.prec + bits)
    return 4 * total, ctx.make_mpf(libmp.from_man_exp(err, -bits))
