"""High-precision evaluation of eta products and Fricke-invariant Hauptmoduls.

For p in {2, 3, 5, 7, 13} the normalized generator is realized in closed form:
with e = 24/(p-1) and t = (eta(tau)/eta(p tau))^e, the combination
t + p^(e/2)/t is invariant under the full Fricke group and expands as
q^(-1) + c(0) + c(1) q + ... .  For other primes a coefficient file must be
supplied; the repository ships none, so those paths are data-driven only.

Precision is carried by explicit mpmath contexts created per call; nothing
touches the global mpmath state.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from .arith import is_prime
from .errors import (
    IllConditionedError,
    InternalError,
    ParameterError,
    PrecisionError,
    SeriesRequiredError,
)
from .quadforms import HeegnerPoint, heegner_point, heegner_reps

#: Primes whose Fricke Hauptmodul has a closed eta-quotient form here.
ETA_QUOTIENT_PRIMES = (2, 3, 5, 7, 13)

#: Digits carried beyond the requested precision.
GUARD_DIGITS = 10
#: Safety bound on the eta series length; low Im(tau) raises PrecisionError.
MAX_ETA_TERMS = 10 ** 6


@dataclass(frozen=True)
class PrecisionConfig:
    """Working-precision contract for complex evaluation."""

    decimal_digits: int = 80

    def __post_init__(self):
        if self.decimal_digits < 1:
            raise ParameterError("precision parameters must be positive")

    @property
    def working_dps(self) -> int:
        return self.decimal_digits + GUARD_DIGITS

    def context(self):
        """Fresh mpmath context at the working precision."""
        ctx = mpmath.ctx_mp.MPContext()
        ctx.dps = self.working_dps
        return ctx


DEFAULT_PRECISION = PrecisionConfig()


@dataclass(frozen=True)
class QSeries:
    """Truncated Fourier expansion q^(-1) + c(0) + c(1) q + ... with exact coefficients."""

    p: int
    coefficients: tuple[int, ...]  # c(-1), c(0), c(1), ...

    def __post_init__(self):
        if not is_prime(self.p):
            raise ParameterError(f"{self.p} is not prime")
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
    """Read a coefficient file: 'p <prime>', 'count <n>', then n integers, one per line."""
    header: dict[str, int] = {}
    coeffs: list[int] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
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
            try:
                coeffs.append(int(line))
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: not an integer: {line!r}") from None
    if "p" not in header or "count" not in header:
        raise ParameterError(f"{path}: missing 'p' or 'count' header")
    if len(coeffs) != header["count"]:
        raise ParameterError(
            f"{path}: expected {header['count']} coefficients, found {len(coeffs)}"
        )
    return QSeries(p=header["p"], coefficients=tuple(coeffs))


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
    if isinstance(tau, HeegnerPoint):
        root = ctx.sqrt(ctx.mpf(-tau.disc))
        return (ctx.mpc(-tau.b, 0) + ctx.mpc(0, 1) * root) / (2 * tau.a)
    return ctx.mpc(tau)


def eta_with_bound(tau, prec: PrecisionConfig | None = None, ctx=None):
    """Dedekind eta via the sparse pentagonal series; returns (value, tail bound).

    Terms are (-1)^k w^((6k-1)^2) with w = exp(pi*i*tau/12), truncated once the
    next magnitude drops below 10^-working_dps.  The bound covers the discarded
    tail plus accumulated rounding.
    """
    prec = prec or DEFAULT_PRECISION
    if ctx is None:
        ctx = prec.context()
    tau = _as_point(ctx, tau)
    if tau.imag <= 0:
        raise ParameterError(f"eta requires Im(tau) > 0, got {tau.imag}")
    w = ctx.expjpi(tau / 12)
    absw = abs(w)
    target = ctx.mpf(10) ** -prec.working_dps
    total = w  # k = 0 term
    used = 1
    k = 1
    while True:
        e_small = (6 * k - 1) ** 2
        mag = absw ** e_small
        if mag < target:
            tail = 2 * mag / (1 - absw)
            break
        sign = -1 if k % 2 else 1
        total += sign * (w ** e_small + w ** ((6 * k + 1) ** 2))
        used += 2
        if used > MAX_ETA_TERMS:
            raise PrecisionError(
                f"eta series needs more than {MAX_ETA_TERMS} terms at Im(tau)={tau.imag}"
            )
        k += 1
    rounding = (used + 4) * ctx.eps * max(abs(total), ctx.mpf(1))
    return total, tail + rounding


def reduce_point(tau, p: int, ctx):
    """Push tau into |Re| <= 1/2 with p|tau|^2 >= 1, by shifts and the point flip.

    Legal for evaluating any function invariant under the group generated by
    tau -> tau + 1 and tau -> -1/(p tau); each flip strictly increases Im(tau).
    """
    tau = ctx.mpc(tau)
    margin = 1 - ctx.mpf(10) ** (-9)
    for _ in range(64):
        shift = ctx.floor(tau.real + ctx.mpf("0.5"))
        tau = tau - shift
        if p * (tau.real ** 2 + tau.imag ** 2) < margin:
            tau = -1 / (p * tau)
        else:
            return tau
    return tau  # boundary orbit; current point is fine for evaluation


def _eval_qseries_with_bound(series: QSeries, tau, prec: PrecisionConfig, ctx):
    """Evaluate a truncated expansion and bound the discarded tail.

    The tail model |c(k)| <= C exp(4 pi sqrt(k)) fits simple-pole generators;
    C is calibrated from the supplied coefficients.
    """
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
            f"series for p={series.p} cannot converge at |q|={absq}",
            bound=ctx.inf,
        )
    bound = growth * ctx.exp(4 * ctx.pi * ctx.sqrt(top + 1)) * absq ** (top + 1) / (1 - ratio)
    allowed = ctx.mpf(10) ** (-prec.decimal_digits) * max(abs(value), ctx.mpf(1))
    if bound > allowed:
        raise PrecisionError(
            f"truncation bound {mpmath.nstr(bound, 5)} exceeds the requested precision "
            f"for p={series.p}; supply more coefficients",
            bound=bound,
        )
    return value, bound


def value_with_bound(p: int, tau, prec: PrecisionConfig, ctx,
                     series: QSeries | None = None, reduce_first: bool = True):
    """Generator value at tau in the given context, with an error bound on it."""
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    tau = _as_point(ctx, tau)
    if tau.imag <= 0:
        raise ParameterError("evaluation point must lie in the upper half plane")
    if reduce_first:
        tau = reduce_point(tau, p, ctx)
    if series is not None:
        if series.p != p:
            raise ParameterError(f"series is for p={series.p}, not p={p}")
        return _eval_qseries_with_bound(series, tau, prec, ctx)
    if p not in ETA_QUOTIENT_PRIMES:
        raise SeriesRequiredError(
            f"no closed form for p={p}; supply a coefficient file"
        )
    e = 24 // (p - 1)
    num, num_err = eta_with_bound(tau, prec, ctx)
    den, den_err = eta_with_bound(p * tau, prec, ctx)
    t = (num / den) ** e
    const = ctx.mpf(p) ** (e // 2)
    value = t + const / t
    rel = e * (num_err / abs(num) + den_err / abs(den))
    bound = rel * (abs(t) + const / abs(t)) + 8 * ctx.eps * max(abs(value), ctx.mpf(1))
    return value, bound


def hauptmodul_value(p: int, tau, prec: PrecisionConfig | None = None,
                     series: QSeries | None = None, reduce_first: bool = True):
    """Value of the normalized genus-zero generator for the Fricke group of p.

    The additive constant is whatever the realization produces; only
    differences of values are normalization-independent.
    """
    prec = prec or DEFAULT_PRECISION
    ctx = prec.context()
    value, _ = value_with_bound(p, tau, prec, ctx, series, reduce_first)
    return value


@dataclass(frozen=True)
class LhsValue:
    """Numeric log-norm together with a propagated error estimate."""

    value: object
    error_estimate: object


def lhs_log_norm(p: int, d: int, beta: int, D: int, mu: int,
                 prec: PrecisionConfig | None = None,
                 series: QSeries | None = None) -> LhsValue:
    """8 * sum of log|j*(tau_{Q_D}) - j*(tau_{Q_d})| over both class sets."""
    prec = prec or DEFAULT_PRECISION
    if prec.decimal_digits < 30:
        raise ParameterError("cross-check evaluation needs at least 30 digits")
    ctx = prec.context()
    vals_D = [
        value_with_bound(p, heegner_point(f), prec, ctx, series)
        for f in heegner_reps(-D, p, mu)
    ]
    vals_d = [
        value_with_bound(p, heegner_point(f), prec, ctx, series)
        for f in heegner_reps(-d, p, beta)
    ]
    threshold = ctx.mpf(10) ** (-prec.decimal_digits // 2)
    total = ctx.mpf(0)
    err = ctx.mpf(0)
    for vD, eD in vals_D:
        for vd, ed in vals_d:
            diff = abs(vD - vd)
            if diff < threshold:
                raise IllConditionedError(
                    f"CM values coincide to within {mpmath.nstr(threshold, 3)}; "
                    "equal discriminants or insufficient precision"
                )
            total += ctx.log(diff)
            err += (eD + ed) / diff
    return LhsValue(value=8 * total, error_estimate=8 * err)
