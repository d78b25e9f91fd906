"""Exact evaluation of the CM-norm lattice sum as a formal prime-log combination.

gz_log_norm(params) returns the logarithm of the 8th-power norm
prod prod |j_p*(tau_{Q_D}) - j_p*(tau_{Q_d})|^8 as an exact map
prime -> exponent, assembled from finitely many lattice terms.  Each term
(sign, y, n) has t = g*mu*(sign*beta) - 2npD - 2gpy with t^2 < g^2 dD and needs
only the integer md = m*D = (g^2 dD - t^2)/(4 g^2 p), and contributes only
when the local obstruction set of m is a single prime.  Each term is scored
from one factorization of md, for both ramified exponents at once.  Along a
sign block md is a quadratic in the lattice index k, 4g^2 p md = g^2 dD -
t^2, so one sieve finds every factorization (factor_terms): an odd prime l
not dividing p divides md only at the k where t is a square root of g^2 dD
mod l, at most two classes mod l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from math import gcd, isqrt
from operator import itemgetter
from typing import NamedTuple

from mpmath import libmp

from .arith import Factorization, primes_up_to, require_prime, sqrt_mod
from .cmvalue import QuadraticCharacter, diff_set
from .errors import InternalError, NonIntegralMagnitudeError, ParameterError
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
#: gznorm --p 2 --d 7 --D 130000000007 has 953 940 terms, just under it,
#: and takes 30 to 37 s in-process with a peak RSS near 300 MB (2 vCPU,
#: Python 3.11): 8 s to enumerate, sieve and score, the rest to multiply
#: out the norm and print it.
MAX_LATTICE_TERMS = 10 ** 6


def _check_sizes(d: int, D: int) -> None:
    for name, value in (("d", d), ("D", D)):
        if value <= 4:
            raise ParameterError(f"{name} must exceed 4, got {value}")


@dataclass(frozen=True)
class GZParams:
    """An input tuple of the norm formula: the prime p, d, the field chi of
    D (its table fills as the terms are scored), mu, beta.

    D is read off chi, which proves -D fundamental; the builder vouches for
    p being prime and for -d.  The constructor checks the rest: d and D
    exceed 4, d != D, and mu and beta, reduced mod 2p, are admissible.
    gz_params builds one from integers, and the class polynomial pipeline
    from the facts it holds.
    """

    p: int
    d: int
    chi: QuadraticCharacter
    mu: int
    beta: int

    def __post_init__(self):
        _check_sizes(self.d, self.D)
        if self.d == self.D:
            raise ParameterError("d and D must be distinct")
        object.__setattr__(self, "mu", self.mu % (2 * self.p))
        object.__setattr__(self, "beta", self.beta % (2 * self.p))
        for name, residue, disc in (("mu", self.mu, self.D), ("beta", self.beta, self.d)):
            if (residue * residue + disc) % (4 * self.p):
                raise ParameterError(
                    f"{name}={residue} is not admissible for -{disc} mod {4 * self.p}"
                )

    @property
    def D(self) -> int:
        return self.chi.D

    @property
    def g(self) -> int:
        # gcd(0, 2p) = 2p covers the mu = 0 convention
        return gcd(self.mu, 2 * self.p)


def gz_params(p: int, d: int, D: int, mu: int | None = None,
              beta: int | None = None) -> GZParams:
    """The GZParams of integers p, d, D and residues mu, beta, each checked;
    a residue left as None becomes the smallest admissible one.

    The checks run in a fixed order: d and D exceed 4; p is prime; each
    discriminant whose residue is chosen (D, then d) is fundamental and a
    square mod 4p; each one whose residue is given (d, then D) is
    fundamental; then the record's own.  require_prime tests p once, and d
    and D are factored once each.
    """
    _check_sizes(d, D)
    require_prime(p)
    D_first = mu is None  # D's residue is chosen, so D is checked before d
    if D_first:
        chi = QuadraticCharacter(fundamental(-D))
        mu = smallest_residue(-D, p)
    fundamental(-d)
    if beta is None:
        beta = smallest_residue(-d, p)
    if not D_first:
        chi = QuadraticCharacter(fundamental(-D))
    return GZParams(p, d, chi, mu, beta)


class LatticeTerm(NamedTuple):
    """One admissible (sign, y, n) triple with its t and md = m*D: a tuple,
    as an evaluation may build up to MAX_LATTICE_TERMS of them."""

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

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.exponents.items())

    def log_value(self) -> float:
        return math.fsum(e * math.log(q) for q, e in self.exponents.items())

    def log_value_mpf(self, ctx):
        """Value as an mpf in the supplied mpmath context: the sum of
        e_q * log(q), rounded once to the context's precision prec.

        Each log(q) is taken at wp = prec + 32 + bits(n) for n primes, within
        one ulp there, and multiplied by e_q with one more rounding to nearest
        at wp; the n products are added exactly (mpf_sum) and the sum rounded
        to nearest at prec (mpf_pos).  Before that last rounding the sum is
        within 3 * 2^-wp * S < 2^-(prec+30) * S of the exact value, where S is
        the sum of |e_q| * log(q); without cancellation the result is within
        about half an ulp.  No product of prime powers is formed, so the cost
        grows with the number of primes, not with the size of the norm.
        """
        prec, nearest = ctx.prec, libmp.round_nearest
        wp = prec + 32 + len(self.exponents).bit_length()
        terms = [libmp.mpf_mul_int(libmp.mpf_log(libmp.from_int(q), wp, nearest), e, wp, nearest)
                 for q, e in self.exponents.items()]
        return ctx.make_mpf(libmp.mpf_pos(libmp.mpf_sum(terms), prec, nearest))

    def nonnegative_integral(self) -> bool:
        return all(e >= 0 for e in self.exponents.values())

    def norm(self) -> int:
        """The unsigned norm prod q^(e_q/8) whose 8th power this sum is the log of.

        Raises NonIntegralMagnitudeError unless every e_q is a non-negative
        multiple of 8, i.e. unless that norm is an integer; every exponent is
        checked, in the order of items(), before any product is formed.  The
        prime powers are multiplied pairwise up a balanced tree, so that the
        large factors meet only near its root.
        """
        items = self.items()
        for q, e in items:
            if e < 0 or e % 8:
                g = gcd(e, 8)
                shown = e // 8 if g == 8 else f"{e // g}/{8 // g}"
                raise NonIntegralMagnitudeError(
                    f"norm exponent {shown} of prime {q} is not a non-negative integer"
                )
        factors = [q ** (e // 8) for q, e in items] or [1]
        step = 1
        while step < len(factors):  # factors[i] takes the product of i .. i + 2 step - 1
            for i in range(0, len(factors) - step, 2 * step):
                factors[i] *= factors[i + step]
            step *= 2
        return factors[0]


def _sign_block(params: GZParams, sign: int) -> tuple[int, range]:
    """(head, range of k) of the beta (sign +1) or -beta (sign -1) sum: the
    terms of a block have t = head - 2gp*k, one for each k with t^2 < g^2 dD."""
    g = params.g
    s_max = isqrt(g * g * params.d * params.D - 1)  # largest |t| with t^2 < g^2 dD
    step = 2 * g * params.p
    head = g * params.mu * (sign * params.beta)
    return head, range(-((s_max - head) // step), (head + s_max) // step + 1)


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
    step = 2 * g * p
    denominator = 4 * g * g * p
    blocks = [(sign, *_sign_block(params, sign)) for sign in (1, -1)]
    count = sum(len(ks) for _, _, ks in blocks)
    if count > MAX_LATTICE_TERMS:
        raise ParameterError(f"{count} lattice terms exceed the ceiling {MAX_LATTICE_TERMS}; "
                             "the count is about 2*sqrt(d*D)/p")
    terms = []
    for sign, head, ks in blocks:
        block = []
        for k in ks:
            t = head - step * k
            n, y = divmod(k, D // g)
            md, rest = divmod(bound_sq - t * t, denominator)
            if rest:
                raise InternalError(f"m*D is not integral for term (sign={sign}, y={y}, n={n})")
            block.append(LatticeTerm(n, y, sign, t, md))
        block.sort(key=itemgetter(1, 0))  # by (y, n)
        terms += block
    return terms


def sieve_primes(params: GZParams) -> list[tuple[int, int, tuple[int, ...]]]:
    """The primes the lattice sieve divides by, increasing, as (l, inverse,
    roots): every prime up to the square root of the largest md that can
    divide some md.

    Every md is at most dD/4p.  l = 2 and l = p come with roots () and are
    tried at every index.  Any other l that divides md divides 4g^2 p md =
    g^2 dD - t^2, and l does not divide 4g^2 p, so t is a root of g^2 dD
    mod l: roots lists those roots, (0,) when l | dD, and a prime where
    g^2 dD is not a square is left out.  inverse is 1/2gp mod l, so the
    term at lattice index k has l | md exactly when k = (head - r) * inverse
    mod l for a root r.
    """
    p, g, dD = params.p, params.g, params.d * params.D
    step, square = 2 * g * p, g * g * dD
    primes = []
    for l in primes_up_to(isqrt(dD // (4 * p))):
        if l == 2 or l == p:
            primes.append((l, 0, ()))
            continue
        root = sqrt_mod(square, l)
        if root is not None:
            primes.append((l, pow(step, -1, l), (root, l - root) if root else (0,)))
    return primes


def factor_terms(params: GZParams, terms: list[LatticeTerm]):
    """Yield the factorization of each term's md, in order, for the terms
    that enumerate_terms(params) returns.

    One sieve serves both sign blocks: the -1 block is the mirror image of
    the +1 block, its term at lattice index k having t = -(head - 2gp(-k))
    and so the md of the +1 term at -k.  The +1 block is sieved over
    sieve_primes(params): each prime's classes of lattice indices are
    walked, and l is divided out fully wherever it divides; an index of a
    class that l does not divide is an InternalError.  What is left of md
    is 1 or prime, as md < (B+1)^2 for the sieve's bound B and no prime up
    to B divides it, so each factorization is proven.  Only that one
    block's factorizations are held.
    """
    primes = sieve_primes(params)
    head, ks = _sign_block(params, 1)
    step, k0, count = 2 * params.g * params.p, ks.start, len(ks)
    if len(terms) != 2 * count:
        raise InternalError(f"{len(terms)} terms given, not the {2 * count} of the lattice")
    rest = [0] * count  # what is left of each md, by lattice index - k0 of the +1 block
    for term in terms:  # each index is filled twice, once from each block
        rest[(head - term.sign * term.t) // step - k0] = term.md
    found = [()] * count  # the (prime, exponent) pairs divided out so far
    for l, inverse, roots in primes:
        once = ((l, 1),)
        # 2 and p are tried at every index, any other l only on its classes
        walks = [range(((head - r) * inverse - k0) % l, count, l) for r in roots] or [range(count)]
        for walk in walks:
            for i in walk:
                value, remainder = divmod(rest[i], l)
                if remainder:
                    if roots:
                        raise InternalError(f"{l} does not divide m*D = {rest[i]} at its "
                                            "sieve class")
                    continue
                e = 1
                while not value % l:
                    value //= l
                    e += 1
                rest[i] = value
                found[i] += once if e == 1 else ((l, e),)
    for term in terms:
        i = (head - term.sign * term.t) // step - k0
        factors, cofactor = found[i], rest[i]
        yield Factorization(term.md, factors + ((cofactor, 1),) if cofactor > 1 else factors)


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


#: The contribution of every term that contributes nothing, shared.
NO_CONTRIBUTION = TermContribution()


def term_contribution(term: LatticeTerm, params: GZParams,
                      md_factors: Factorization) -> TermContribution:
    """Weighted prime-log coefficients of one lattice term, from md_factors,
    the factorization of its m*D (factor_terms).

    Zero unless the obstruction set of m is a single prime q.  The weight
    2^(o(m)+1) includes a factor 2 because both orientations of the CM plane
    contribute one copy of the lattice sum.  Once diff_set has named q, one
    scan of md's factorization gives all three counts: o(m), the primes of
    md that divide D; ord_q(md); and the ideal count rho(md), or rho(md/q)
    for an inert q, whose exponent the scan lowers by one instead of
    factoring md/q.

    diff_set reads the ramified symbol only at the odd q | D that divide
    md*p, read off md's factorization and p; at every other odd q | D the
    lattice congruence settles it as +1.  There 4g^2 p md = g^2 dD - t^2
    gives -md*p = (t/2g)^2 mod q, with 2g | 4p prime to q, and md*p is a
    unit at q, so -md*p is a nonzero square mod q and (-md*p | q) = 1: the
    symbol diff_set would compute at q, since ord_q(md*p) = 0 and ord_q(D)
    = 1 for fundamental -D.
    """
    chi, p = params.chi, params.p
    symbols, ramified = chi.ramified, []
    for q, _ in md_factors.factors:
        if q in symbols:
            ramified.append(q)
    if p in symbols and term.md % p:
        ramified.append(p)
    obstructed = diff_set(md_factors, p, chi, ramified)
    if len(obstructed) != 1:
        return NO_CONTRIBUTION
    q = obstructed[0]
    inert = chi[q] == -1
    if not inert and chi[q]:
        raise InternalError(f"split prime {q} appeared in the obstruction set of m*D={term.md}")
    # a prime of D adds 1 to o(m) and a factor 1 to the ideal count
    D_orders = chi.orders
    weight, order, count = 2, 0, 1
    for r, e in md_factors.factors:
        if r == q:
            order = e
            if inert:
                e -= 1
        if r in D_orders:
            weight *= 2
        elif chi[r] == 1:
            count *= e + 1
        elif e % 2:
            count = 0
    if inert:
        if not order:
            raise InternalError(f"m*D/{q} is not integral for term {term}")
        coeff = weight * (order + 1) * count
        return TermContribution(q, coeff, coeff)
    scale = weight * count
    return TermContribution(q, scale * order, scale * (order - D_orders[q]))


def _contributions(params: GZParams, terms: list[LatticeTerm]):
    """term_contribution of each of terms, in order, as they are scored."""
    return map(term_contribution, terms, repeat(params), factor_terms(params, terms))


def score_terms(params: GZParams) -> tuple[list[LatticeTerm], list[TermContribution]]:
    """Every lattice term and its contribution, in enumerate_terms order.

    factor_terms sieves the terms once enumerate_terms has bounded the
    lattice, and hands each term its factorization as it is scored.
    """
    terms = enumerate_terms(params)
    return terms, list(_contributions(params, terms))


def gz_log_norm(params: GZParams,
                ramified_exponent: str = DEFAULT_RAMIFIED_EXPONENT) -> PrimeLogSum:
    """Exact log of the 8th-power norm as a prime-log sum.

    The terms are scored as score_terms scores them, but each contribution
    is added as it comes and none is kept.
    """
    return PrimeLogSum.total(_contributions(params, enumerate_terms(params)), ramified_exponent)
