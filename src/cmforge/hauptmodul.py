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
on the tail and on every rounding.  In the quotient the prefactors cancel,
t = (S(q)/S(q^p))^e / q, and a value is computed on integers end to end:
q comes from a Heegner form's exact data, e^(-pi sqrt|disc|/a)
e^(-pi i b/a) (from one exponential at an mpc tau), q^p from q by integer
powering, and the quotient, its power, the division by q and
t + p^(e/2)/t are integer pairs with a shared binary exponent, each
complex product taking three integer multiplications (_fixed_mul); one
mpc is made at the end.  The error bound is read from integer bit lengths
and from floats that count relative errors in units of 2^-bits, with no
working-precision arithmetic.

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

import mpmath
from mpmath import libmp

from .arith import require_prime
from .errors import (
    IllConditionedError,
    InternalError,
    ParameterError,
    PrecisionError,
    SeriesRequiredError,
)
from .quadforms import QuadraticForm, heegner_reps, reduce

#: Primes whose Fricke curve X0*(p) has genus zero: the domain of j*_p.
GENUS_ZERO_FRICKE_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 47, 59, 71))
#: Primes whose Fricke Hauptmodul has a closed eta-quotient form here.
ETA_QUOTIENT_PRIMES = (2, 3, 5, 7, 13)

#: Digits carried beyond the requested precision.
GUARD_DIGITS = 10
#: Safety bound on the eta series length; low Im(tau) raises PrecisionError.
MAX_ETA_TERMS = 10 ** 6
#: Most flips reduce_point makes on a numeric point; one needing more raises PrecisionError.
MAX_REDUCTION_FLIPS = 64
#: Bits the fixed-point eta kernel carries beyond the context precision.
ETA_GUARD_BITS = 32
# Bits q is computed with beyond the fixed-point precision (_fixed_q, _form_q).
_Q_GUARD_BITS = 8
# Relative error of the scaled q, in units of 2^-bits: the exponential and
# the angle at _Q_GUARD_BITS more bits, and the floor of the pair.
_Q_REL_ULPS = 4
# Error of the fixed-point q the eta kernel sums, in units of its last bit:
# |q| _Q_REL_ULPS from the scaled q, and the floor of each part.
_Q_ERR_ULPS = 8


def require_genus_zero(p: int) -> None:
    """Refuse, with ParameterError, a p where X0*(p) is not genus zero: j*_p exists only there."""
    if p not in GENUS_ZERO_FRICKE_PRIMES:
        raise ParameterError(f"p={p}: the Fricke curve is not genus zero")


def check_digits(digits: int) -> int:
    """digits, refused with ParameterError unless at least 1."""
    if digits < 1:
        raise ParameterError("precision parameters must be positive")
    return digits


@functools.cache
def working_context(digits: int):
    """The mpmath context carrying digits decimal digits plus GUARD_DIGITS.

    One context per precision per process: every call with the same digits
    returns the same context, whose precision changes only inside
    ctx.workprec(...).  Contexts at different precisions are distinct, and
    digits below 1 raise ParameterError and store nothing.
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
    every Hauptmodul at that precision."""

    p: int
    digits: int = 80
    series: QSeries | None = None
    ctx: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ctx", working_context(self.digits))
        require_genus_zero(require_prime(self.p))
        if self.series is None and self.p not in ETA_QUOTIENT_PRIMES:
            raise SeriesRequiredError(f"no closed form for p={self.p}; supply a coefficient file")
        if self.series is not None and self.series.p != self.p:
            raise ParameterError(f"series is for p={self.series.p}, not p={self.p}")


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

def _as_point(ctx, tau):
    """tau as an mpc; a QuadraticForm stands for its CM point (-b + sqrt(disc)) / (2a)."""
    if isinstance(tau, QuadraticForm):
        root = ctx.sqrt(ctx.mpf(-tau.discriminant))
        return (ctx.mpc(-tau.b, 0) + ctx.mpc(0, 1) * root) / (2 * tau.a)
    return ctx.mpc(tau)


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


def _fixed_mul(x, y, shift: int):
    """Product of two complex integer pairs, each part floored to 2^shift.

    Three multiplications: (a + b)(c + d) - ac - bd is ad + bc exactly, so
    each part is the four-multiplication one bit for bit.
    """
    (a, b), (c, d) = x, y
    ac, bd = a * c, b * d
    return (ac - bd) >> shift, ((a + b) * (c + d) - ac - bd) >> shift


def _power(x, n: int, mul):
    """x^n for n >= 1 by repeated squaring under the product mul.

    Each product's rounding is raised to the power its result enters the
    answer with; those powers add up to n - 1.
    """
    result = None
    while True:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


def _top_bits(x) -> int:
    """Bit length of the larger part of an integer pair."""
    return max(x[0].bit_length(), x[1].bit_length())


def _to_fixed(x, bits: int):
    """A scaled pair as a fixed-point pair at 2^-bits, each part floored."""
    (re, im), exp = x
    shift = exp + bits
    if shift >= 0:
        return re << shift, im << shift
    return re >> -shift, im >> -shift


def _scaled(re, im, bits: int):
    """Raw mpfs re + i im, not both zero, as a scaled pair whose larger part
    has bits + 2 bits, so the floor costs less than 2^-bits of the modulus."""
    top = max(exp + bc for _, man, exp, bc in (re, im) if man)
    shift = bits + 2 - top
    return (libmp.to_fixed(re, shift), libmp.to_fixed(im, shift)), -shift


def _scaled_mul(x, y, bits: int):
    """Product of two scaled pairs, within 2^(1-bits) of the exact one, relatively.

    The shift leaves the exact product at least 2^bits in modulus, so the
    floor of both parts, under sqrt(2), is below 2^(1-bits) of it.
    """
    (xm, xe), (ym, ye) = x, y
    shift = max(0, _top_bits(xm) + _top_bits(ym) - bits - 2)
    return _fixed_mul(xm, ym, shift), xe + ye + shift


def _scaled_div(x, y, bits: int):
    """Quotient of two scaled pairs, within 2^-bits of the exact one, relatively.

    x/y = x conj(y) / |y|^2, shifted so that the exact quotient exceeds
    2^(bits + 1) in modulus before each part is floored.
    """
    (xm, xe), (ym, ye) = x, y
    num = _fixed_mul(xm, (ym[0], -ym[1]), 0)
    den = ym[0] * ym[0] + ym[1] * ym[1]
    shift = bits + 2 + den.bit_length() - _top_bits(num)
    if shift >= 0:
        re, im = (num[0] << shift) // den, (num[1] << shift) // den
    else:
        den <<= -shift
        re, im = num[0] // den, num[1] // den
    return (re, im), xe - ye - shift


def _relative_units(err: float, x, bits: int) -> float:
    """Relative error, in units of 2^-bits, of a fixed-point pair x that is
    within err units of its exact value: err / (|x| - err), read from
    |x| >= 2^(top - 1).  inf once err nears |x| or the count leaves floats."""
    top = _top_bits(x)
    head = err * 2.0 ** (1 - top)
    shift = bits + 1 - top
    if head >= 0.5 or shift > 900:
        return math.inf
    return err * 2.0 ** shift / (1 - head)


def _log2_above(n: int) -> float:
    """A float at least log2(n), for an integer n >= 1 of any size."""
    shift = max(0, n.bit_length() - 64)
    return math.log2((n >> shift) + 1) + shift


def _fixed_q(ctx, tau):
    """q = e^(2 pi i tau) at an mpc tau as a scaled pair at _fixed_bits(ctx),
    within _Q_REL_ULPS units of 2^-bits of the exact q, relatively.

    The exponential runs _Q_GUARD_BITS beyond the fixed-point precision.
    """
    bits = _fixed_bits(ctx)
    with ctx.workprec(bits + _Q_GUARD_BITS):
        q = ctx.expjpi(2 * tau)
    return _scaled(q.real._mpf_, q.imag._mpf_, bits)


def _form_q(form: QuadraticForm, bits: int):
    """q = e^(2 pi i tau) at the CM point of form, as _fixed_q gives it, from
    the form's exact data: q = e^(-pi sqrt|disc|/a) e^(-pi i b/a).

    The angle is split exactly, -b/a = n/2 + r/(2a) with |r/(2a)| <= 1/4:
    i^n is a quarter turn, and only pi r/(2a), at most pi/4, is rounded.
    The exponential turns a relative rounding of its argument into one
    times the argument, so the work precision adds the argument's bits
    (pi sqrt|disc|/a < 4 (isqrt|disc| // a + 1)) to _Q_GUARD_BITS.
    """
    a, b, size = form.a, form.b, -form.discriminant
    wp = bits + _Q_GUARD_BITS + (4 * (math.isqrt(size) // a + 1)).bit_length()
    pi = libmp.mpf_pi(wp)
    arg = libmp.mpf_div(libmp.mpf_mul(pi, libmp.mpf_sqrt(libmp.from_int(size), wp), wp),
                        libmp.from_int(a), wp)
    modulus = libmp.mpf_exp(libmp.mpf_neg(arg), wp)
    n = (a - 4 * b) // (2 * a)  # the integer nearest -2b/a
    angle = libmp.mpf_mul(pi, libmp.from_rational(-2 * b - n * a, 2 * a, wp), wp)
    cos, sin = libmp.mpf_cos_sin(angle, wp)
    for _ in range(n % 4):  # times i
        cos, sin = libmp.mpf_neg(sin), cos
    return _scaled(libmp.mpf_mul(modulus, cos, wp), libmp.mpf_mul(modulus, sin, wp), bits)


def _pentagonal_sum(q, q_err: int, pairs: int, bits: int):
    """S(q) = sum_{|k| <= pairs} (-1)^k q^(k(3k-1)/2) as a fixed-point pair at
    2^-bits, with a bound on its error in units of 2^-bits, as a float.

    q is a fixed-point pair (X, Y) standing for (X + iY) 2^-bits, within q_err
    units of the exact q = e^(2 pi i tau), and pairs comes from
    _pentagonal_pairs(Im tau, bits - ETA_GUARD_BITS).  Step k advances
    q^(3k-2), q^k and the pentagonal terms a_k = q^(k(3k-1)/2),
    b_k = a_k q^k by four fixed-point products; the integer sums are exact.

    The bound adds two parts.  Tail: the omitted exponents are distinct
    integers from N = (pairs+1)(3 pairs+2)/2 on, so they sum to at most
    |q|^N / (1 - |q|), with |q| <= (isqrt(X^2 + Y^2) + 1 + q_err) 2^-bits;
    it is summed in the log2 domain and doubled, far more than the float
    roundings move it, and a tail below 2^-64 units counts as 2^-64.  Fixed
    point: every product floors each part, an error below sqrt(2) units,
    and every factor has modulus at most 1, so errors add without growing.
    With u = q_err units on q, q^3 carries 3u + 2 sqrt(2), q^(3k-2) carries
    (3k-2)u + 2(k-1) sqrt(2), a_k carries n_k u + (k^2-1) sqrt(2) with
    n_k = k(3k-1)/2, and b_k carries (n_k + k)u + (k^2+k-1) sqrt(2).  Summed
    over k <= K this is below (u + sqrt(2)) K(K+1)(2K+1)/2 units; the bound
    doubles it to cover the second-order products of errors.
    """
    total_re, total_im = 1 << bits, 0
    cube = _fixed_mul(_fixed_mul(q, q, bits), q, bits)
    step = power = term = q  # q^(3k-2), q^k, q^(k(3k-1)/2) at k = 1
    for k in range(1, pairs + 1):
        if k > 1:
            step = _fixed_mul(step, cube, bits)
            power = _fixed_mul(power, q, bits)
            term = _fixed_mul(term, step, bits)
        other = _fixed_mul(term, power, bits)  # q^(k(3k+1)/2)
        sign = -1 if k % 2 else 1
        total_re += sign * (term[0] + other[0])
        total_im += sign * (term[1] + other[1])
    exponent = (pairs + 1) * (3 * pairs + 2) // 2
    log_q = _log2_above(math.isqrt(q[0] * q[0] + q[1] * q[1]) + 1 + q_err) - bits
    tail = math.inf
    if log_q < 0:
        size = 1 + bits + exponent * log_q - math.log2(-math.expm1(log_q * math.log(2)))
        if size < 1000:
            tail = 2.0 ** max(size, -64)
    rounding = (q_err + 2) * pairs * (pairs + 1) * (2 * pairs + 1)
    return (total_re, total_im), tail + rounding


def eta_with_bound(tau, ctx):
    """Dedekind eta as w S(q) with w = e^(pi i tau/12); returns (value, error bound).

    S(q) is the pentagonal sum of _pentagonal_sum, truncated below 2^-ctx.prec;
    the bound covers that kernel's tail and rounding, the rounding of S to
    ctx.prec bits and the product by w.
    """
    tau = _as_point(ctx, tau)
    if tau.imag <= 0:
        raise ParameterError(f"eta requires Im(tau) > 0, got {tau.imag}")
    pairs = _pentagonal_pairs(tau.imag, ctx.prec)
    bits = _fixed_bits(ctx)
    q = _to_fixed(_fixed_q(ctx, tau), bits)
    (re, im), err = _pentagonal_sum(q, _Q_ERR_ULPS, pairs, bits)
    total = ctx.mpc(ctx.ldexp(re, -bits), ctx.ldexp(im, -bits))
    bound = ctx.ldexp(err, -bits) + ctx.eps * (abs(total.real) + abs(total.imag))
    w = ctx.expjpi(tau / 12)
    value = w * total
    return value, abs(w) * bound + ctx.eps * abs(value)


def reduce_point(tau, p: int, ctx):
    """Push tau into |Re| <= 1/2 with p|tau|^2 >= 1, by shifts and the point flip.

    Legal for evaluating any function invariant under the group generated by
    tau -> tau + 1 and tau -> -1/(p tau).  A positive definite QuadraticForm
    (a, b, c) with p | a stands for its CM point and is reduced exactly, in
    integers, to a form with -a < b <= a and pc >= a: the shift is
    b -> b + 2an and the flip is (a, b, c) -> (pc, -b, a/p), which keeps
    p | a and makes a strictly smaller, so the loop ends.  Any other tau is
    reduced numerically; each flip strictly increases Im(tau), and a point
    still unreduced after MAX_REDUCTION_FLIPS flips raises PrecisionError.
    """
    if isinstance(tau, QuadraticForm):
        if tau.a % p == 0:
            a, b, c = tau.a, tau.b, tau.c
            while True:
                n = (a - b) // (2 * a)  # the shift that moves b into (-a, a]
                b, c = b + 2 * a * n, c + (a * n + b) * n
                if p * c >= a:
                    return QuadraticForm(a, b, c)
                a, b, c = p * c, -b, a // p
    tau = _as_point(ctx, tau)
    margin = 1 - ctx.mpf(10) ** (-9)
    for _ in range(MAX_REDUCTION_FLIPS + 1):
        shift = ctx.floor(tau.real + ctx.mpf("0.5"))
        tau = tau - shift
        if p * (tau.real ** 2 + tau.imag ** 2) >= margin:
            return tau
        tau = -1 / (p * tau)
    raise PrecisionError(
        f"tau not reduced for p={p} within MAX_REDUCTION_FLIPS = {MAX_REDUCTION_FLIPS} flips",
        bound=ctx.inf,
    )


def _eval_qseries_with_bound(hm: Hauptmodul, tau):
    """Evaluate hm's truncated expansion and bound the discarded tail.

    The tail model |c(k)| <= C exp(4 pi sqrt(k)) fits simple-pole generators;
    C is calibrated from the supplied coefficients.
    """
    ctx, series = hm.ctx, hm.series
    q = ctx.expjpi(2 * tau)
    absq = abs(q)
    value = ctx.mpc(0)
    for c in reversed(series.coefficients):
        value = value * q + c
    value = value / q
    top = series.top_exponent
    growth = ctx.mpf(0)
    for k in range(1, top + 1):
        c = series.coefficients[k + 1]
        if c:
            growth = max(growth, abs(ctx.mpf(c)) * ctx.exp(-4 * ctx.pi * ctx.sqrt(k)))
    growth = max(growth, ctx.mpf(1))
    ratio = ctx.exp(4 * ctx.pi * (ctx.sqrt(top + 2) - ctx.sqrt(top + 1))) * absq
    if ratio >= 1:
        raise PrecisionError(
            f"series for p={series.p} cannot converge at |q|={mpmath.nstr(absq, 5)}",
            bound=ctx.inf,
        )
    bound = growth * ctx.exp(4 * ctx.pi * ctx.sqrt(top + 1)) * absq ** (top + 1) / (1 - ratio)
    allowed = ctx.mpf(10) ** (-hm.digits) * max(abs(value), ctx.mpf(1))
    if bound > allowed:
        raise PrecisionError(
            f"truncation bound {mpmath.nstr(bound, 5)} exceeds the requested precision "
            f"for p={series.p}; supply more coefficients",
            bound=bound,
        )
    return value, bound


def _sum_with_bound(ctx, x, rel_x: float, y, rel_y: float, bits: int):
    """x + y as an mpc at ctx.prec, with an error bound, for scaled pairs x
    and y whose relative errors are below rel_x and rel_y units of 2^-bits.

    Each relative error compounds factors (1 + delta_i)^(+-1); while the
    sum S of their |delta_i| stays below 1/8, the compound is below 2S, so x
    is within 2S |x_exact| <= (8/3) S |x| of x_exact; the bound takes 3S,
    which leaves room for its own few float roundings.  |x| is read from the
    bit lengths.  Aligning the pairs floors one of them, less than 2 units
    of the sum's last bit.  Rounding each part to ctx.prec bits costs at
    most 2^-prec (|Re| + |Im|), charged from the integer sum with 53 bits
    rounded up.  The bound is one float times a power of two, and infinite
    once S reaches 1/8.
    """
    prec = ctx.prec
    (xm, xe), (ym, ye) = x, y
    exp = max(xe, ye)
    sum_m = ((xm[0] >> (exp - xe)) + (ym[0] >> (exp - ye)),
             (xm[1] >> (exp - xe)) + (ym[1] >> (exp - ye)))
    value = ctx.make_mpc((libmp.from_man_exp(sum_m[0], exp, prec, "n"),
                          libmp.from_man_exp(sum_m[1], exp, prec, "n")))
    if not max(rel_x, rel_y) < 2.0 ** min(bits - 3, 1000):
        return value, ctx.inf
    x_top, y_top = _top_bits(xm) + xe, _top_bits(ym) + ye  # |x| < 2^(x_top + 1/2)
    ref = max(x_top, y_top)
    parts = abs(sum_m[0]) + abs(sum_m[1])  # (|Re| + |Im|) 2^-exp
    shift = max(0, parts.bit_length() - 53)
    scale = (3 * (rel_x * 2.0 ** (x_top + 0.5 - ref) + rel_y * 2.0 ** (y_top + 0.5 - ref))
             + 2.0 ** (1 + exp + bits - ref)
             + ((parts >> shift) + 1) * 2.0 ** (shift + exp - prec + bits - ref))
    return value, ctx.ldexp(scale, ref - bits)


def value_with_bound(hm: Hauptmodul, tau, reduce_first: bool = True):
    """(value, error bound) of hm at tau, in hm's context.  The additive constant
    is whatever the realization produces; only differences of values are
    normalization-independent.

    In closed form, t = (eta(tau)/eta(p tau))^e = (S(q)/S(q^p))^e / q, since
    e(p-1) = 24 makes the prefactors e^(pi i tau/12) cancel.  q comes from
    the form's exact data (_form_q) or from one exponential at an mpc
    (_fixed_q); S(q) and S(q^p) from the fixed-point kernel, q^p by integer
    powering.  The quotient, its power, the division by q and
    t + p^(e/2)/t are integer pairs, and one mpc is made at the end.  The
    bound counts relative errors in units of 2^-bits: each S through
    _relative_units, one floor for the quotient, e - 1 compounded product
    floors in its e-th power, _Q_REL_ULPS for q and one floor for the
    division by it; p^(e/2)/t adds one more floor (_sum_with_bound).
    """
    ctx, p = hm.ctx, hm.p
    if not isinstance(tau, QuadraticForm):
        tau = ctx.mpc(tau)
        if tau.imag <= 0:
            raise ParameterError("evaluation point must lie in the upper half plane")
    if reduce_first:
        tau = reduce_point(tau, p, ctx)
    if hm.series is not None:
        return _eval_qseries_with_bound(hm, _as_point(ctx, tau))
    form = isinstance(tau, QuadraticForm)
    height = math.sqrt(-tau.discriminant) / (2 * tau.a) if form else tau.imag
    pairs = _pentagonal_pairs(height, ctx.prec)
    pairs_p = _pentagonal_pairs(p * height, ctx.prec)
    bits = _fixed_bits(ctx)
    q = _form_q(tau, bits) if form else _fixed_q(ctx, tau)
    q_fixed = _to_fixed(q, bits)  # within |q| _Q_REL_ULPS + sqrt(2) <= _Q_ERR_ULPS units
    # q^p is within p(u + sqrt(2)) units when q is within u, as in _pentagonal_sum
    q_p = _power(q_fixed, p, lambda x, y: _fixed_mul(x, y, bits))
    num, num_err = _pentagonal_sum(q_fixed, _Q_ERR_ULPS, pairs, bits)
    den, den_err = _pentagonal_sum(q_p, p * (_Q_ERR_ULPS + 2), pairs_p, bits)
    e = 24 // (p - 1)
    ratio = _scaled_div((num, -bits), (den, -bits), bits)
    t = _scaled_div(_power(ratio, e, lambda x, y: _scaled_mul(x, y, bits)), q, bits)
    rel_t = (e * (_relative_units(num_err, num, bits) + _relative_units(den_err, den, bits) + 1)
             + 2 * (e - 1) + _Q_REL_ULPS + 1)
    return _sum_with_bound(ctx, t, rel_t, _scaled_div(((p ** (e // 2), 0), 0), t, bits),
                           rel_t + 1, bits)


def conjugate_form(form: QuadraticForm, p: int) -> QuadraticForm:
    """The Heegner form (pc, b, a/p) whose CM value is the complex conjugate of
    form's: j*_p has real coefficients, so the mirror (a, -b, c) carries the
    conjugate value, and (pc, b, a/p) is its image under the Fricke flip."""
    return QuadraticForm(p * form.c, form.b, form.a // p)


def _conjugation_orbits(hm: Hauptmodul, disc: int, residue: int) -> list:
    """Per orbit of complex conjugation on the CM values of
    heegner_reps(disc, hm.p, residue), (i, j, value, bound): the value at form
    i, evaluated once, whose conjugate is the value at form j.  i == j marks a
    real value.  The class set is closed under conjugation, because the class
    polynomial has integer coefficients, and a form's class is keyed by its
    reduction, as in heegner_reps."""
    forms = heegner_reps(disc, hm.p, residue)
    index = {reduce(f): i for i, f in enumerate(forms)}
    orbits, seen = [], set()
    for i, form in enumerate(forms):
        if i in seen:
            continue
        j = index[reduce(conjugate_form(form, hm.p))]
        seen.update((i, j))
        value, bound = value_with_bound(hm, form)
        if i == j:  # the exact value is real, so dropping Im(value) keeps the bound
            value = hm.ctx.mpc(value.real)
        orbits.append((i, j, value, bound))
    return orbits


def cm_values(hm: Hauptmodul, disc: int, residue: int) -> list:
    """(value, error bound) of hm at the CM point of each form of
    heegner_reps(disc, hm.p, residue), in that order; each conjugate pair
    costs one evaluation."""
    values = {}
    for i, j, value, bound in _conjugation_orbits(hm, disc, residue):
        values[i] = value, bound
        values[j] = value.conjugate(), bound
    return [values[i] for i in range(len(values))]


def check_lhs_digits(hm: Hauptmodul) -> None:
    """Refuse, with ParameterError, a Hauptmodul too coarse for the cross-check."""
    if hm.digits < 30:
        raise ParameterError("cross-check evaluation needs at least 30 digits")


def lhs_log_norm(hm: Hauptmodul, d: int, beta: int, D: int, mu: int) -> tuple:
    """8 * sum of log|j*(tau_{Q_D}) - j*(tau_{Q_d})| over both class sets,
    as (value, error bound) in hm's context.

    The d-values are closed under conjugation, so a conjugate pair of D-values
    contributes twice the sum at one of them.  The squared moduli
    |v_D - v_d|^2 of all N factors are multiplied, squared for a pair, and
    the sum is 4 log of that product: one log per call.  The bound adds
    (e_D + e_d)/|v_D - v_d| over all factors, with the same weights, and the
    rounding: a factor's difference, squared modulus and share of the
    product round at most ten times, so the product is within N 2^(4-prec)
    of its exact value, relatively, and its log within twice that, plus the
    log's own rounding of |log| 2^(1-prec).  That sum runs at 53 bits and is
    scaled up past its own rounding.
    """
    check_lhs_digits(hm)
    ctx = hm.ctx
    prec = ctx.prec
    vals_d = cm_values(hm, -d, beta)
    exponent = -hm.digits // 2
    threshold_sq = ctx.mpf(10) ** (2 * exponent)
    product = ctx.mpf(1)
    factors = []  # (weight * (e_D + e_d), |v_D - v_d|^2)
    for i, j, vD, eD in _conjugation_orbits(hm, -D, mu):
        weight = 1 if i == j else 2
        for vd, ed in vals_d:
            diff = vD - vd
            norm = diff.real ** 2 + diff.imag ** 2
            if norm < threshold_sq:
                raise IllConditionedError(
                    f"CM values coincide to within {mpmath.nstr(ctx.mpf(10) ** exponent, 3)}; "
                    "equal discriminants or insufficient precision"
                )
            product *= norm if weight == 1 else norm * norm
            factors.append((weight * (eD + ed), norm))
    total = ctx.log(product)
    # each term rounds twice at 53 bits, the sum once per term, the rounding
    # term, the sums and the scaling four times more: N + 6 roundings of at
    # most 2^-53 each, which 1 + (N + 5) 2^-52 covers
    with ctx.workprec(53):
        scale = 1 + ctx.ldexp(len(factors) + 5, -52)
        err = sum(e / ctx.sqrt(norm) for e, norm in factors)
        rounding = ctx.ldexp(len(factors), 7 - prec) + ctx.ldexp(abs(total), 3 - prec)
        err = (8 * err + rounding) * scale
    return 4 * total, err
