"""Class polynomial construction from exact norm magnitudes.

The pipeline: pick the base discriminant that pins the generator's zero,
compute the exact magnitudes (X_D, Y_D) for every usable degree-one
discriminant, resolve the two sign strings into signed points (X, Y), and fit
the monic integer polynomial of degree h(-d) through them.  One pass derives
what the stages share: S(p), the feasibility verdict, h(-d) and beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import mpmath

from .arith import factorize
from .errors import (
    AmbiguousSignsError,
    DegenerateDataError,
    InfeasibleError,
    InternalError,
    ParameterError,
    SignResolutionError,
)
from .gzrhs import GZParams, gz_log_norm
from .hauptmodul import Hauptmodul, cm_values, require_genus_zero
from .quadforms import (
    admissible_residues,  # unused here; bench/record.py reads hcp.admissible_residues
    count_classes,
    fundamental,
    smallest_residue,
    square_roots_mod_4p,
)

#: The nine imaginary quadratic fields with trivial class group.
CLASS_NUMBER_ONE_DISCRIMINANTS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)


def s_set(p: int) -> list[int]:
    """Degree-one discriminants that are squares mod 4p, by increasing |D|.

    A genus-zero p is prime and the nine discriminants are fundamental, so
    neither is checked again.
    """
    require_genus_zero(p)
    return [disc for disc in CLASS_NUMBER_ONE_DISCRIMINANTS if square_roots_mod_4p(disc, p)]


def _usable(members: list[int]) -> list[int]:
    """The members of S(p) with |D| > 4 (the ones the norm formula accepts)."""
    return [disc for disc in members if disc < -4]


def usable_s_set(p: int) -> list[int]:
    """s_set members with |D| > 4 (the ones the norm formula accepts)."""
    return _usable(s_set(p))


@dataclass(frozen=True)
class PipelineFacts:
    """What the stages of one class polynomial share about p and d, each
    derived once: S(p), the smallest admissible residue beta of -d, and
    h = h(-d)."""

    d: int
    members: list[int]
    beta: int
    h: int

    @property
    def usable(self) -> list[int]:
        return _usable(self.members)

    def feasible(self) -> bool:
        usable = self.usable
        return self.h + 1 <= len(usable) - (-self.d in usable)


def _facts(p: int, d: int, members: list[int]) -> PipelineFacts:
    """The facts of d at p, given S(p); refused unless -d is fundamental and
    a square mod 4p."""
    fundamental(-d)
    return PipelineFacts(d, members, smallest_residue(-d, p), count_classes(-d))


def feasible(d: int, p: int) -> bool:
    """Whether h(-d)+1 interpolation pairs can exist at all.

    The diagonal D = d is not counted: build_pairs skips it.
    """
    return _facts(p, d, s_set(p)).feasible()


@dataclass(frozen=True)
class InterpolationPair:
    """One (X_D, Y_D) magnitude pair."""

    D: int
    x_mag: int
    y_mag: int

    def __post_init__(self):
        if self.y_mag <= 0 or self.x_mag < 0:
            raise InternalError(f"magnitudes out of range for D={self.D}")


@dataclass(frozen=True)
class ClassPolynomial:
    """Monic integer polynomial of degree h = h(-d); coefficients low degree first."""

    d: int
    h: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients or self.coefficients[-1] != 1:
            raise InternalError(f"polynomial for d={self.d} is not monic")
        if any(not isinstance(c, int) for c in self.coefficients):
            raise InternalError("coefficients must be integers")
        if self.degree != self.h:
            raise InternalError(
                f"degree {self.degree} differs from the class number h(-{self.d}) = {self.h}"
            )
        for root_num in _rational_root_candidates(self.coefficients):
            if self.evaluate(root_num) == 0 and self.degree > 1:
                raise InternalError(f"reducible: rational root {root_num}")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x):
        return _horner(self.coefficients, x)

    def __str__(self):
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "X" if mag == 1 else f"{mag}X"
            else:
                body = f"X^{k}" if mag == 1 else f"{mag}X^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def _horner(coefficients, x):
    """Value at x of the polynomial with coefficients low degree first."""
    acc = 0
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def _rational_root_candidates(coefficients):
    # monic, so rational roots are integer divisors of the constant term
    constant = coefficients[0]
    if constant == 0:
        return [0]
    return [s * k for k in factorize(abs(constant)).divisors() for s in (1, -1)]


def build_pairs(d: int, beta: int, p: int, base_disc: int) -> list[InterpolationPair]:
    """Magnitude pairs over the usable degree-one discriminants.

    The diagonal D = d (possible when d itself has class number one) is
    skipped: its Y vanishes identically and the norm formula requires
    distinct discriminants.
    """
    return _magnitude_pairs(usable_s_set(p), p, d, beta, base_disc)


def _magnitude_pairs(usable: list[int], p: int, d: int, beta: int,
                     base_disc: int) -> list[InterpolationPair]:
    """build_pairs over the usable members of S(p)."""
    if base_disc not in usable:
        raise ParameterError(f"base discriminant {base_disc} is not usable for p={p}")
    if -base_disc == d:
        raise ParameterError("base discriminant must differ from d")
    pairs = []
    for disc in usable:
        D = -disc
        if D == d:
            continue
        if disc == base_disc:
            x = 0
        else:
            x = gz_log_norm(GZParams(p, -base_disc, D)).norm()
        y = gz_log_norm(GZParams(p, d, D, beta=beta)).norm()
        pairs.append(InterpolationPair(D=D, x_mag=x, y_mag=y))
    return pairs


def _monic_fit(xs, ys, h):
    """The monic degree-h polynomial through the first h points (distinct
    integer X), as integer coefficients low degree first; None when they are
    not all integers.

    The Newton divided differences of a polynomial with integer coefficients
    at integer nodes are integers, and conversely, so they are computed in
    integers and the first inexact division rejects the fit.
    """
    newton = list(ys[:h])
    for k in range(1, h):
        for i in range(h - 1, k - 1, -1):
            newton[i], rem = divmod(newton[i] - newton[i - 1], xs[i] - xs[i - k])
            if rem:
                return None
    # f = newton[0] + (X - x_0)(newton[1] + ... (X - x_{h-1}) * 1), expanded
    coeffs = [1]
    for k in range(h - 1, -1, -1):
        shifted = [0] + coeffs  # coeffs * X
        for i, c in enumerate(coeffs):
            shifted[i] -= xs[k] * c
        shifted[0] += newton[k]
        coeffs = shifted
    return tuple(coeffs)


def _mirror_coeffs(coeffs):
    h = len(coeffs) - 1
    return tuple(c if (h - k) % 2 == 0 else -c for k, c in enumerate(coeffs))


def resolve_signs(pairs: list[InterpolationPair], h: int) -> list[tuple[int, int]]:
    """Resolve the sign strings by search: the signed points (X_D, Y_D), in pair order.

    Accept exactly the sign assignments whose points lie on a monic integer
    polynomial of degree h = h(-d); unique up to the global mirror
    (X, Y) -> (-X, (-1)^h Y), canonicalized to the lexicographically smaller
    coefficient tuple.
    """
    if len(pairs) < h + 1:
        raise InfeasibleError(
            f"need {h + 1} interpolation pairs, only {len(pairs)} available"
        )
    zero_idx = [i for i, pr in enumerate(pairs) if pr.x_mag == 0]
    if len(zero_idx) > 1:
        raise DegenerateDataError("more than one zero X magnitude")
    nonzero_idx = [i for i, pr in enumerate(pairs) if pr.x_mag != 0]
    if not nonzero_idx:
        raise DegenerateDataError("all X magnitudes vanish")
    free_x = nonzero_idx[1:]  # first nonzero X fixed +1; mirror restores the other half
    y_mags = [pr.y_mag for pr in pairs]
    accepted = []
    for x_bits in product((1, -1), repeat=len(free_x)):
        xs = [pr.x_mag for pr in pairs]
        for i, s in zip(free_x, x_bits):
            xs[i] = s * pairs[i].x_mag
        if len(set(xs)) != len(xs):
            continue
        # a fit through the first h points is the only candidate through all
        # of them; the signs of the remaining Y are read off it
        for y_bits in product((1, -1), repeat=h):
            head = [s * m for s, m in zip(y_bits, y_mags)]
            coeffs = _monic_fit(xs, head, h)
            if coeffs is None:
                continue
            tail = [_horner(coeffs, x) for x in xs[h:]]
            if all(abs(y) == m for y, m in zip(tail, y_mags[h:])):
                accepted.append((list(zip(xs, head + tail)), coeffs))
    if not accepted:
        raise SignResolutionError("no sign assignment yields a monic integer polynomial")
    distinct = sorted({coeffs for _, coeffs in accepted})
    if len(distinct) > 1:
        raise AmbiguousSignsError(
            f"{len(distinct)} distinct integer polynomials fit the magnitudes",
            candidates=distinct,
        )
    points, coeffs = accepted[0]
    if _mirror_coeffs(coeffs) < coeffs:
        points = [(-x, y if h % 2 == 0 else -y) for x, y in points]
    return points


def read_signs(pairs: list[InterpolationPair], d: int, base_disc: int, beta: int,
               hm: Hauptmodul) -> list[tuple[int, int]]:
    """The signed points (X_D, Y_D), in pair order, read off the values of hm
    at the CM points; each magnitude is checked against them first.  The
    pairs come from the pipeline, so each -D is a member of S(hm.p)."""
    ctx = hm.ctx
    tol = ctx.mpf(10) ** (-hm.digits // 4)

    def value_at(disc):
        # a degree-one discriminant has one class, so one CM point
        return cm_values(hm, disc, smallest_residue(disc, hm.p))[0][0]

    base_val = value_at(base_disc)
    d_vals = [value for value, _ in cm_values(hm, -d, beta)]
    points = []
    for pr in pairs:
        val_D = base_val if -pr.D == base_disc else value_at(-pr.D)
        x_num = val_D - base_val
        y_num = ctx.mpc(1)
        for v in d_vals:
            y_num *= val_D - v
        for label, numeric, magnitude in (("X", x_num, pr.x_mag),
                                          ("Y", y_num, pr.y_mag)):
            if abs(numeric.imag) > tol * max(1, abs(numeric)):
                raise InternalError(
                    f"{label}_{pr.D} is not numerically real: {mpmath.nstr(numeric, 8)}"
                )
            if abs(abs(numeric.real) - magnitude) > tol * max(1, magnitude):
                raise InternalError(
                    f"numeric |{label}_{pr.D}| = {mpmath.nstr(abs(numeric.real), 12)} "
                    f"disagrees with the exact magnitude {magnitude}"
                )
        points.append((pr.x_mag if x_num.real > 0 else -pr.x_mag,
                       pr.y_mag if y_num.real > 0 else -pr.y_mag))
    return points


def interpolate(points: list[tuple[int, int]], d: int, h: int) -> ClassPolynomial:
    """The monic integer polynomial of degree h = h(-d) through the signed points."""
    if len(points) < h + 1:
        raise InfeasibleError(f"need {h + 1} points, got {len(points)}")
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise DegenerateDataError(f"duplicate X values: {sorted(xs)}")
    coeffs = _monic_fit(xs, [y for _, y in points], h)
    if coeffs is None or any(_horner(coeffs, x) != y for x, y in points):
        raise SignResolutionError(
            f"the points {points} do not lie on a monic integer polynomial of degree {h}"
        )
    return ClassPolynomial(d=d, h=h, coefficients=coeffs)


@dataclass
class ClassPolyReport:
    p: int
    d: int
    beta: int
    base_disc: int
    s_set: list[int]
    pairs: list[InterpolationPair]
    points: list[tuple[int, int]]
    polynomial: ClassPolynomial


def require_feasible(p: int, d: int) -> list[int]:
    """usable_s_set(p), or InfeasibleError saying what is missing if not feasible(d, p)."""
    return _feasible_facts(p, d).usable


def _feasible_facts(p: int, d: int) -> PipelineFacts:
    """The facts of d at p, or InfeasibleError saying what is missing if not feasible(d, p)."""
    facts = _facts(p, d, s_set(p))
    if not facts.feasible():
        usable = facts.usable
        if -d in usable:
            detail = f"{len(usable) - 1} are available (the diagonal D = d pair is degenerate)"
        else:
            detail = f"{len(usable)} usable degree-one discriminants exist for p={p}"
        raise InfeasibleError(f"need h(-{d})+1 = {facts.h + 1} pairs but only {detail}")
    return facts


def class_polynomial(p: int, d: int, base_disc: int | None = None,
                     hauptmodul: Hauptmodul | None = None) -> ClassPolyReport:
    """End-to-end pipeline: S(p), feasibility, pairs, signs, interpolation.

    Each fact the stages share is derived once, here, and handed down.  The
    signs are read off the values of hauptmodul when one is given, and found
    by search otherwise.
    """
    if hauptmodul is not None and hauptmodul.p != p:
        raise ParameterError(f"the Hauptmodul is for p={hauptmodul.p}, not p={p}")
    facts = _feasible_facts(p, d)
    if base_disc is None:
        base_disc = next(disc for disc in facts.usable if -disc != d)
    pairs = _magnitude_pairs(facts.usable, p, d, facts.beta, base_disc)
    points = (resolve_signs(pairs, facts.h) if hauptmodul is None
              else read_signs(pairs, d, base_disc, facts.beta, hauptmodul))
    poly = interpolate(points, d, facts.h)
    return ClassPolyReport(p=p, d=d, beta=facts.beta, base_disc=base_disc,
                           s_set=facts.members, pairs=pairs, points=points, polynomial=poly)
