"""Fricke-invariant Hauptmoduls of level p and their CM values, at high precision.

For p in {2, 3, 5, 7, 13} the normalized generator is realized in closed form:
with e = 24/(p-1) and t = (eta(tau)/eta(p tau))^e, the combination
t + p^(e/2)/t is invariant under the full Fricke group and expands as
q^(-1) + c(0) + c(1) q + ... .  For the other genus-zero primes a coefficient
file must be supplied; the repository ships none, so those paths are
data-driven only.  j*_p exists at the 15 genus-zero primes only.

In closed form, t = eta^e(tau)/eta^e(p tau) takes eta^e only at
SL2(Z)-reduced points, from the level-one kernel cmforge.eta (class_etas),
and the multiplier of the eta transformation law along each reduction word
(a root of unity and (c tau + d)^(e/2), e even) is carried exactly.  A
number is the binary (x + iy)/one it is, the CM point of the form (one^2,
-2x one, x^2 + y^2), so one loop, quadforms.reduction_word, reduces every
point in integers.  eta^e is evaluated once per reduced form of a
discriminant up to the mirror (a, -b, c), and shared by every CM point
whose tau or p tau falls in that class (_orbits).  The quotient, the
multipliers and t + p^(e/2)/t are integer pairs with a shared binary
exponent, each complex product taking the integer multiplications its
operands need (ball.fixed_mul), the same integers ac - bd and ad + bc
before the floor whatever the case, so the same bits; the sum is rounded
once to the context's precision.  A coefficient file is summed by Horner's
rule on the same integer pairs, at the exact q of the form's point reduced
by the Fricke flip (reduce_point).  A CM value is a ball.Ball, that integer
pair with a radius held in integers, for either realization, and so is eta
itself (eta_with_bound): each operation bounds its own rounding, with no
floats and no working-precision arithmetic, until value_with_bound makes
one mpc of it or lhs_log_norm takes its differences, product and one log
on integers.  The one bound made otherwise is a coefficient file's tail, a
model fitted to the file (_series_value), computed at the context's
precision and added to the radius, rounded up.  CM values are evaluated
once per orbit of complex conjugation and, when p | disc, the Fricke
involution W_p.

A Hauptmodul fixes level, realization and precision once; its values live in
the mpmath context working_context(digits), one per precision per process and
shared by every Hauptmodul at that precision.  No code changes a context's
precision: the eta kernel takes it as an integer, so the shared context
always stands at its own precision.  Nothing touches the global mpmath
state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath import libmp

from .arith import require_prime
from .ball import Ball, ceil_shift, exact_pair, fixed_mul, power, radius, surd
from .errors import InternalError, ParameterError, PrecisionError
from .eta import ETA_GUARD_BITS, Q_REL_ULPS, class_etas, form_exponentials
from .quadforms import QuadraticForm, heegner_reps, reduction_word

#: Primes whose Fricke curve X0*(p) has genus zero: the domain of j*_p.
GENUS_ZERO_FRICKE_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 47, 59, 71))
#: Primes whose Fricke Hauptmodul has a closed eta-quotient form here.
ETA_QUOTIENT_PRIMES = (2, 3, 5, 7, 13)

#: Digits carried beyond the requested precision.
GUARD_DIGITS = 10
#: Most decimal digits numeric work accepts.  At the ceiling, eval --p 13 takes
#: about 0.3 s at 0.1234+0.5i or 0.1+1.2i, and 3.8 s at 0.1234+1e-999i, 3.6 s
#: of that in mpmath.nstr (in-process, 2 vCPU).
MAX_DIGITS = 10_000


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
    returns the same context, whose precision no code changes.  Contexts
    at different precisions are distinct, and digits outside 1..MAX_DIGITS
    raise ParameterError and store nothing.
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
# exact expansions of the closed forms

def _euler_power(p: int, e: int, n: int) -> list:
    """Coefficients of q^0 .. q^(n-1) of prod_{p not dividing k} (1 - q^k)^e,
    for e of either sign.  Its logarithmic derivative gives
    k f_k = -sum_{j=1..k} s(j) f_(k-j), s(j) e times the sum of the divisors
    of j prime to p; the product has integer coefficients, so the division
    by k is exact."""
    s = [0] * n
    for d in range(1, n):
        if d % p:
            for j in range(d, n, d):
                s[j] += e * d
    f = [1] + [0] * (n - 1)
    for k in range(1, n):
        f[k] = -sum(s[j] * f[k - j] for j in range(1, k + 1)) // k
    return f


def eta_quotient_qseries(p: int, count: int) -> QSeries:
    """Exact integer expansion of the closed-form invariant for p in the eta set.

    The factors (1 - q^(pk))^e of eta^e(tau)/eta^e(p tau) cancel, so with
    e = 24/(p-1), q t = prod_{p not dividing k} (1 - q^k)^e and
    p^(e/2)/t = p^(e/2) q / (q t): both from _euler_power, at e and -e.
    """
    if p not in ETA_QUOTIENT_PRIMES:
        raise ParameterError(f"no closed form for p={p}")
    if count < 2:
        raise ParameterError("count must be at least 2")
    e = 24 // (p - 1)
    tq, uq = _euler_power(p, e, count), _euler_power(p, -e, count)
    const = p ** (e // 2)
    coeffs = [1, tq[1]] + [tq[k + 1] + const * uq[k - 1] for k in range(1, count - 1)]
    return QSeries(p=p, coefficients=tuple(coeffs))


# ---------------------------------------------------------------------------
# numeric evaluation

def _fixed_bits(ctx) -> int:
    return ctx.prec + ETA_GUARD_BITS


def _point_form(tau, ctx):
    """(form, root): the form (one^2, -2x one, x^2 + y^2), of discriminant
    -(2 one y)^2, whose CM point is the number tau as the binary number
    (x + iy)/one it is in ctx, one a power of two, and root = 2 one y, the
    square root of its size; a tau off the upper half plane is refused."""
    tau = ctx.mpc(tau)
    if tau.imag <= 0:
        raise ParameterError("evaluation point must lie in the upper half plane")
    (x, y), exp = exact_pair(tau.real._mpf_, tau.imag._mpf_)
    x, y, one = x << max(0, exp), y << max(0, exp), 1 << max(0, -exp)
    return QuadraticForm(one * one, -2 * x * one, x * x + y * y), 2 * one * y


def _exact_root(size: int):
    """isqrt(size) when size is a square, as a number's form has; else None."""
    root = math.isqrt(size)
    return root if root * root == size else None


def _form_of(tau, ctx):
    """(form, exact) for tau, a QuadraticForm standing for its CM point or a
    number standing for that of its form: the form, and exact = isqrt(size)
    when its size is a square, else None.  A number's root comes with its
    form (_point_form), so no square root is taken for it."""
    if isinstance(tau, QuadraticForm):
        return tau, _exact_root(-tau.discriminant)
    return _point_form(tau, ctx)


def eta_with_bound(tau, ctx):
    """Dedekind eta at tau, a QuadraticForm standing for its CM point or a
    number standing for that of its form (_point_form), as (value, error
    bound): eta.class_etas at m = 24, eta = z S(z^24) with z = e^(2 pi i
    tau/24) from the form's exact data.  The bound is the radius of the Ball.
    """
    form, exact = _form_of(tau, ctx)
    return class_etas(ctx.prec, -form.discriminant, [form], 24, exact)[form].to_mpc(ctx)


def reduce_point(form: QuadraticForm, p: int) -> QuadraticForm:
    """Push the CM point tau of form into |Re| <= 1/2 with p|tau|^2 >= 1,
    exactly, by shifts and the Fricke flip tau -> -1/(p tau): a form of the
    point reached.  Legal for any function invariant under tau -> tau + 1
    and tau -> -1/(p tau), as a coefficient file is (the closed form
    reduces by SL2(Z) instead).

    For p >= 5, T and W_p do not generate the Fricke group, so the level-p
    reduction_word from tau alone can stop low (0.1234567 + 0.001i near Im
    0.018 at p = 5).  It also runs from a coset point, each start scaled by
    p when p does not divide its a, and the end of larger Im is kept,
    compared exactly, the first on a tie.  With W = [[w0, w1], [w2, w3]]
    the SL2(Z) word of tau and (A, B, C) the form of W tau, the coset point
    is W tau when p | w2, and otherwise (W tau + j)/p with p | w0 + j w2, of
    the form (p^2 A, p B', C') for the form (A, B', C') of W tau + j: W_p
    [[1, j], [0, p]] W = p [[-w2, -w3], [w0 + j w2, w1 + j w3]] lies in p
    Gamma0(p), so the point is in tau's orbit, at Im >= sqrt(3)/(2p).  The
    end kept can have p^2 times tau's discriminant (some Heegner forms, from
    p = 7 on).
    """
    (a, b, c), (w0, _, w2, _), _, _ = reduction_word(*form)
    if w2 % p:
        j = next(n for n in range(p) if (w0 + n * w2) % p == 0)
        a, b, c = p * p * a, p * (b - 2 * a * j), (a * j - b) * j + c
    ends = [reduction_word(*(n * part for part in f), p)[0]
            for f in (form, (a, b, c)) for n in [1 if f[0] % p == 0 else p]]
    a, b, c = max(ends, key=lambda f: Fraction(4 * f[0] * f[2] - f[1] ** 2, f[0] * f[0]))
    return QuadraticForm(a, b, c)


def _series_value(hm: Hauptmodul, tau: QuadraticForm, reduce_first: bool):
    """hm's coefficient file at the CM point of the form tau, as a Ball whose
    midpoint is rounded to the context's precision: Horner's rule on Balls
    at an exact q, after reduce_point's reduction unless reduce_first is
    False.

    q = e^(2 pi i tau) comes from the form's exact data (form_exponentials
    at m = 1), within Q_REL_ULPS units, relatively: its relative Ball.
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
    if reduce_first:
        tau = reduce_point(tau, hm.p)
    size = -tau.discriminant
    (pair,) = form_exponentials(size, [tau], 1, bits, _exact_root(size))
    q = Ball.relative(pair, Q_REL_ULPS, bits)
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
# with zeta_12 = e^(2 pi i/12); n - 3s is the word's turns.  The word is
# quadforms.reduction_word's at level 1, a number's that of its form.

def _p_tau_form(p: int, a: int, b: int, c: int):
    """(l, m, f): the form f = (a/l, mb, pmc) whose CM point is p tau, for
    tau that of (a, b, c), with (l, m) = (p, 1) when p | a, f of the same
    size, and (1, p) otherwise, f of p^2 times the size."""
    ell, m = (p, 1) if a % p == 0 else (1, p)
    return ell, m, (a // ell, m * b, p * m * c)


def _form_value(hm: Hauptmodul, form: QuadraticForm, eta_at, words, exact, root):
    """hm at the CM point tau of a form (a, b, c), t + p^k/t for k = e/2 and
    t = eta^e(tau)/eta^e(p tau), as a Ball whose midpoint is rounded to the
    context's precision, from eta_at(f), eta^e at the point of a form f
    (eta.class_etas or a table of its values), words, the reduction words of
    (a, b, c) and of the form of p tau (_p_tau_form): reduction_word's, or
    the identity word in its shape, and the square root of size = 4ac - b^2:
    exact = isqrt(size) when size is a square, and otherwise None and root =
    surd(size, bits), which a square size does not read.

    Each point is taken exactly to that of its word's form, and with the
    lower row (g, h) of the word, g tau + h = (u + v sqrt(-size))/(2a) for
    u = 2ah - gb and v = g, where u^2 + v^2 size = 4aA for the reduced
    form's A, and g p tau + h = l (u + m v sqrt(-size))/(2a) for the second
    form (a/l, mb, pmc), u = 2ah/l - gmb.  The two multipliers leave
        t = (E1/E2) zeta_12^(k (turns2 - turns1)) (X + Y sqrt(-size))^k / (4aA1)^k
    with E1, E2 the eta^e of the two reduced forms, X = l (u1 u2 + m v1 v2
    size) and Y = l (m u1 v2 - u2 v1); the power is exact in Z[sqrt(-size)],
    and Y sqrt(size) is floored from root, within |Y| units of 2^-bits: the
    radius of that factor's Ball.  When size is a square s^2, s = exact, as
    for a number's form (one^2, -2x one, x^2 + y^2), b and s are even, so X + i Y
    s = 4a^2 (g2 p tau + h2) conj(g1 tau + h1) and 4aA1 are multiples of 4a:
    divided by it, the power is exact in Z[i], a Ball of radius 0 (for a
    number, L2 conj(L1) and |L1|^2 for the integer pairs L = (g tau + h) one).
    """
    p, bits = hm.p, _fixed_bits(hm.ctx)
    k = 12 // (p - 1)
    a, b, c = form
    size = -form.discriminant
    ell, m, second = _p_tau_form(p, a, b, c)
    (f1, (_, _, g1, h1), shift1, flips1), (f2, (_, _, g2, h2), shift2, flips2) = words
    u1, v1, u2, v2 = 2 * a * h1 - g1 * b, g1, 2 * second[0] * h2 - g2 * second[1], g2
    x, y = ell * (u1 * u2 + m * v1 * v2 * size), ell * (m * u1 * v2 - u2 * v1)
    den = 4 * a * f1[0]
    if exact is None:
        x, y = power((x, y), k,
                     lambda s, t: (s[0] * t[0] - size * s[1] * t[1], s[0] * t[1] + s[1] * t[0]))
        num = Ball(((x << bits, y * root), -bits), radius(abs(y), -bits))
    else:  # x + i y s and den over 4a, in Z[i]
        num = Ball((power((x // (4 * a), y * exact // (4 * a)), k,
                          lambda s, t: fixed_mul(s, t, 0)), 0))
        den //= 4 * a
    turns = shift2 - shift1 - 3 * (flips2 - flips1)
    t = eta_at(f1).mul(num, bits).rotate(k * turns, bits).div(eta_at(f2).scale(den ** k), bits)
    return t.add(Ball(((p ** k, 0), 0)).div(t, bits), hm.ctx.prec)


def value_with_bound(hm: Hauptmodul, tau, reduce_first: bool = True):
    """(value, error bound) of hm at tau, in hm's context.  The additive constant
    is whatever the realization produces; only differences of values are
    normalization-independent.

    tau is a QuadraticForm standing for its CM point, or a number standing
    for that of its form (_point_form).  In closed form, t =
    eta^e(tau)/eta^e(p tau) and the value is t + p^(e/2)/t.  tau and p tau
    are each reduced by SL2(Z) to Im >= sqrt(3)/2 in integers, and
    _form_value follows those words, or the identity's if reduce_first is
    False.  eta^e at each reduced point comes from eta.class_etas; the
    multipliers of the two words are exact but for a rounded root of unity
    and one fixed-point sqrt of the size, taken once for both (p tau's form
    has scale^2 times the size) and never for a number, whose form comes
    with its root.  The bound is the radius of the value's Ball, made one
    mpc at the end.  A coefficient file is summed on Balls at the exact q
    of the point reduce_point gives (_series_value).
    """
    ctx = hm.ctx
    tau, exact = _form_of(tau, ctx)
    if hm.series is not None:
        return _series_value(hm, tau, reduce_first).to_mpc(ctx)
    m, size = hm.p - 1, -tau.discriminant
    word = reduction_word if reduce_first else lambda *f: (f, (1, 0, 0, 1), 0, 0)
    _, scale, second = _p_tau_form(hm.p, *tau)
    words = [word(*f) for f in (tau, second)]
    etas = {}
    for (f, *_), n in zip(words, (1, scale)):
        etas.update(class_etas(ctx.prec, n * n * size, [f], m,
                               None if exact is None else n * exact))
    root = surd(size, _fixed_bits(ctx)) if exact is None else None
    return _form_value(hm, tau, etas.__getitem__, words, exact, root).to_mpc(ctx)


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
    words = [reduction_word(*f) for f in forms]
    index = {word[0]: i for i, word in enumerate(words)}
    if hm.series is None:
        exact = _exact_root(-disc)
        table = class_etas(hm.ctx.prec, -disc, [f for f in index if f[1] >= 0], p - 1, exact)

        def eta_at(f):
            return table[f] if f[1] >= 0 else table[_mirror(f)].conjugate()

        root = surd(-disc, _fixed_bits(hm.ctx)) if exact is None else None

        def value(form, pair):
            return _form_value(hm, form, eta_at, pair, exact, root)
    else:
        def value(form, _):
            return _series_value(hm, form, True)

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
        pair = words[i], reduction_word(*_p_tau_form(p, *form)[2])
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
