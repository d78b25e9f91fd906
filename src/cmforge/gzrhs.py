"""Exact evaluation of the CM-norm lattice sum as a formal prime-log combination.

gz_log_norm(params) returns the logarithm of the 8th-power norm
prod prod |j_p*(tau_{Q_D}) - j_p*(tau_{Q_d})|^8 as an exact map
prime -> exponent, assembled from finitely many lattice terms.  Each term
(sign, y, n) has t = g*mu*(sign*beta) - 2npD - 2gpy with t^2 < g^2 dD and needs
only the integer md = m*D = (g^2 dD - t^2)/(4 g^2 p), and contributes only
when the local obstruction set of m is a single prime.  Each term is scored
from one factorization of md, for both ramified exponents at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import gcd, isqrt

from .arith import Factorization, factorize, require_prime
from .cmvalue import QuadraticCharacter, diff_set, ideal_count, o_of_m
from .errors import (
    IntegralityError,
    InternalError,
    NonIntegralMagnitudeError,
    ParameterError,
)
from .quadforms import fundamental, smallest_residue

RAMIFIED_OF_M = "of_m"
RAMIFIED_OF_MD = "of_mD"
#: "of_mD" uses ord_q(m*D) as the ramified-term exponent, "of_m" uses ord_q(m).
#: The numeric cross-check singles out "of_mD"; "of_m" is kept for comparison.
DEFAULT_RAMIFIED_EXPONENT = RAMIFIED_OF_MD

_RAMIFIED_CHOICES = (RAMIFIED_OF_M, RAMIFIED_OF_MD)

#: Most lattice terms enumerate_terms accepts.  A (p, d, D) has about
#: 2*sqrt(d*D)/p terms, each held in memory and scored by one factorization,
#: so the ceiling bounds both the time and the memory of one evaluation.
MAX_LATTICE_TERMS = 10 ** 6


@dataclass(frozen=True)
class GZParams:
    """Validated input tuple (p, d, D, mu, beta) plus the derived factored p, gcd g and
    the field chi of D, whose character table fills as the terms of these params are scored.

    A residue left as None becomes the smallest admissible one.  The checks
    run in a fixed order: d and D exceed 4; p is prime; each discriminant
    whose residue is chosen (D, then d) is fundamental and a square mod 4p;
    each one whose residue is given (d, then D) is fundamental; d != D; the
    given residues are admissible.  p is tested once and d and D are
    factored once each; chi is built from the factorization of D.
    """

    p: int
    d: int
    D: int
    mu: int | None = None
    beta: int | None = None
    p_factors: Factorization = field(init=False, repr=False)
    g: int = field(init=False)
    chi: QuadraticCharacter = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in (("d", self.d), ("D", self.D)):
            if value <= 4:
                raise ParameterError(f"{name} must exceed 4, got {value}")
        require_prime(self.p)
        object.__setattr__(self, "p_factors", Factorization(self.p, ((self.p, 1),)))
        chosen = [(name, residue) for name, residue in (("D", "mu"), ("d", "beta"))
                  if getattr(self, residue) is None]
        given = [(name, residue) for name, residue in (("d", "beta"), ("D", "mu"))
                 if getattr(self, residue) is not None]
        for name, residue in chosen + given:
            disc = -getattr(self, name)
            factors = fundamental(disc)
            if name == "D":
                object.__setattr__(self, "chi", QuadraticCharacter(factors))
            if getattr(self, residue) is None:
                object.__setattr__(self, residue, smallest_residue(disc, self.p))
        if self.d == self.D:
            raise ParameterError("d and D must be distinct")
        object.__setattr__(self, "mu", self.mu % (2 * self.p))
        object.__setattr__(self, "beta", self.beta % (2 * self.p))
        if (self.mu * self.mu + self.D) % (4 * self.p):
            raise ParameterError(
                f"mu={self.mu} is not admissible for -{self.D} mod {4 * self.p}"
            )
        if (self.beta * self.beta + self.d) % (4 * self.p):
            raise ParameterError(
                f"beta={self.beta} is not admissible for -{self.d} mod {4 * self.p}"
            )
        # gcd(0, 2p) = 2p covers the mu = 0 convention
        object.__setattr__(self, "g", gcd(self.mu, 2 * self.p))


@dataclass(frozen=True)
class LatticeTerm:
    """One admissible (sign, y, n) triple with its t and md = m*D."""

    n: int
    y: int
    sign: int  # +1 for the beta sum, -1 for the mirrored sum
    t: int
    md: int


@dataclass
class PrimeLogSum:
    """Finite formal sum of e_q * log(q) with integer exponents."""

    exponents: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for q, e in self.exponents.items():
            if not isinstance(e, int):
                raise ParameterError(f"exponent {e!r} of prime {q} is not an integer")
        self.exponents = {q: e for q, e in self.exponents.items() if e}

    @classmethod
    def total(cls, contributions, ramified_exponent: str) -> "PrimeLogSum":
        """The sum of lattice-term contributions under one ramified exponent."""
        if ramified_exponent not in _RAMIFIED_CHOICES:
            raise ParameterError(f"unknown ramified_exponent {ramified_exponent!r}")
        exponents: dict[int, int] = {}
        for contribution in contributions:
            coeff = getattr(contribution, ramified_exponent)
            if coeff:
                exponents[contribution.prime] = exponents.get(contribution.prime, 0) + coeff
        return cls(exponents)

    def is_zero(self) -> bool:
        return not self.exponents

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.exponents.items())

    def log_value(self) -> float:
        return math.fsum(e * math.log(q) for q, e in self.exponents.items())

    def log_value_mpf(self, ctx):
        """Value as an mpf in the supplied mpmath context: one log of the
        exact rational prod q^(e_q), rounded to the context's precision."""
        num = den = 1
        for q, e in self.exponents.items():
            if e > 0:
                num *= q ** e
            else:
                den *= q ** -e
        return ctx.log(ctx.mpf(num) / den)

    def nonnegative_integral(self) -> bool:
        return all(e >= 0 for e in self.exponents.values())

    def norm(self) -> int:
        """The unsigned norm prod q^(e_q/8) whose 8th power this sum is the log of.

        Raises NonIntegralMagnitudeError unless every e_q is a non-negative
        multiple of 8, i.e. unless that norm is an integer.
        """
        value = 1
        for q, e in self.items():
            if e < 0 or e % 8:
                g = gcd(e, 8)
                shown = e // 8 if g == 8 else f"{e // g}/{8 // g}"
                raise NonIntegralMagnitudeError(
                    f"norm exponent {shown} of prime {q} is not a non-negative integer"
                )
            value *= q ** (e // 8)
        return value


def enumerate_terms(params: GZParams) -> list[LatticeTerm]:
    """All lattice terms for both the beta and the -beta sums, in (sign, y, n) order.

    t = g*mu*(sign*beta) - 2gp*k with k = y + (D/g)*n, so one loop over the t
    with t^2 < g^2 dD recovers each (n, y) as divmod(k, D/g).
    """
    p, d, D, g = params.p, params.d, params.D, params.g
    dD = d * D
    if isqrt(dD) ** 2 == dD:
        raise InternalError(f"d*D = {dD} is a perfect square; impossible for distinct "
                            "fundamental discriminants")
    if D % g:
        raise InternalError(f"g = {g} does not divide D = {D}")
    bound_sq = g * g * dD
    s_max = isqrt(bound_sq - 1)  # largest |t| with t^2 < g^2 dD
    step = 2 * g * p
    denominator = 4 * g * g * p
    ranges = {}  # sign -> (head, range of k)
    for sign in (1, -1):
        head = g * params.mu * (sign * params.beta)
        ranges[sign] = head, range(-((s_max - head) // step), (head + s_max) // step + 1)
    count = sum(len(ks) for _, ks in ranges.values())
    if count > MAX_LATTICE_TERMS:
        raise ParameterError(f"{count} lattice terms exceed the ceiling {MAX_LATTICE_TERMS}; "
                             "the count is about 2*sqrt(d*D)/p")
    terms = []
    for sign, (head, ks) in ranges.items():
        block = []
        for k in ks:
            t = head - step * k
            n, y = divmod(k, D // g)
            md, rest = divmod(bound_sq - t * t, denominator)
            if rest:
                raise IntegralityError(f"m*D is not integral for term (sign={sign}, y={y}, n={n})")
            block.append(LatticeTerm(n=n, y=y, sign=sign, t=t, md=md))
        block.sort(key=lambda term: (term.y, term.n))
        terms += block
    return terms


@dataclass(frozen=True)
class TermContribution:
    """One lattice term's coefficient of log(prime), under both ramified exponents.

    Each coefficient field is named after its ramified exponent, so
    getattr(contribution, ramified_exponent) reads it.  The two coefficients
    differ only at a ramified prime q, where "of_m" drops
    weight * ord_q(D) * rho(m*D) from the "of_mD" coefficient.  A term that
    contributes nothing has both coefficients 0 (and prime 1).
    """

    prime: int = 1
    of_mD: int = 0
    of_m: int = 0

    def is_zero(self) -> bool:
        return not (self.of_mD or self.of_m)


def term_contribution(term: LatticeTerm, params: GZParams) -> TermContribution:
    """Weighted prime-log coefficients of one lattice term, from one factorize(m*D).

    Zero unless the obstruction set of m is a single prime q.  The weight
    2^(o(m)+1) includes a factor 2 because both orientations of the CM plane
    contribute one copy of the lattice sum.  Every count is read off the
    factorization of md = m*D: an inert q lowers q's exponent by one for
    rho(m*D/q) instead of factoring m*D/q.
    """
    md_factors = factorize(term.md)
    chi = params.chi
    obstructed = diff_set(md_factors, params.p_factors, chi)
    if len(obstructed) != 1:
        return TermContribution()
    q = obstructed[0]
    weight = 2 ** (o_of_m(md_factors, chi) + 1)
    order = dict(md_factors.factors).get(q, 0)
    if chi[q] == -1:
        if not order:
            raise IntegralityError(f"m*D/{q} is not integral for term {term}")
        lowered = [(r, e - (r == q)) for r, e in md_factors.factors]
        coeff = weight * (order + 1) * ideal_count(lowered, chi)
        return TermContribution(q, coeff, coeff)
    if chi[q] == 0:
        scale = weight * ideal_count(md_factors.factors, chi)
        return TermContribution(q, scale * order, scale * (order - chi.orders[q]))
    raise InternalError(f"split prime {q} appeared in the obstruction set of m*D={term.md}")


def gz_log_norm(params: GZParams,
                ramified_exponent: str = DEFAULT_RAMIFIED_EXPONENT) -> PrimeLogSum:
    """Exact log of the 8th-power norm as a prime-log sum."""
    return PrimeLogSum.total((term_contribution(term, params)
                              for term in enumerate_terms(params)), ramified_exponent)
