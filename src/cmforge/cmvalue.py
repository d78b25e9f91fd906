"""Ideal-norm counts, ramification weights, and local obstruction sets.

These are the arithmetic ingredients of the per-term coefficients, all
functions of the integer md = m*D of a lattice term: rho counts integral
ideals of a given norm in an imaginary quadratic field, o_of_m counts
ramified primes dividing m*D, and diff_set collects the finite places where
-m*N(a) fails to be a local norm.  The field Q(sqrt(-D)) is one value, a
QuadraticCharacter built from the factorization of D: callers validate D
once, factor it once and keep one such value, and factor md once per term.
"""

from __future__ import annotations

from .arith import Factorization, factorize, kronecker, local_hilbert_symbol
from .errors import IntegralityError, ParameterError


class QuadraticCharacter(dict):
    """The field Q(sqrt(-D)), given by the certified factorization of D.

    chi.D is D, chi.factors its factorization and chi.orders maps each prime
    q | D to ord_q(D).  chi[q] reads chi_{-D}(q) = kronecker(-D, q) at a
    prime q, and chi.ramified(q) the Hilbert symbol (q, -D)_q at a prime
    q | D.  Each symbol is computed on first use and kept in this table, so
    a caller that holds one value per field pays one Kronecker symbol per
    prime.
    """

    def __init__(self, factors: Factorization):
        super().__init__()
        self.D = factors.value
        self.factors = factors
        self.orders = dict(factors.factors)
        self._ramified: dict[int, int] = {}

    def __missing__(self, q: int) -> int:
        value = self[q] = kronecker(-self.D, q)
        return value

    def ramified(self, q: int) -> int:
        """(q, -D)_q at a prime q | D: the part of every symbol (x, -D)_q
        that depends on D alone, read from ord_q(D) with one
        kronecker(-D/q^ord, q) per odd prime."""
        value = self._ramified.get(q)
        if value is None:
            beta = self.orders[q]
            value = self._ramified[q] = local_hilbert_symbol(q, 1, 1, beta, -self.D // q ** beta)
        return value


def rho(n: int, D: int) -> int:
    """Number of integral ideals of norm n in Q(sqrt(-D)).

    A non-integer n is a caller bug.  See ideal_count for the count itself.
    """
    if not isinstance(n, int):
        raise IntegralityError(f"ideal counts need an integer norm, got {n!r}")
    if n < 1:
        raise ParameterError(f"ideal norm must be positive, got {n}")
    return ideal_count(factorize(n).factors, QuadraticCharacter(factorize(D)))


def ideal_count(factors, chi: QuadraticCharacter) -> int:
    """rho of prod q^e over certified (prime q, exponent e >= 0) pairs.

    Multiplicative: a split prime power q^e contributes e+1, an inert one
    kills the count unless e is even, a ramified one contributes 1.
    """
    count = 1
    for q, e in factors:
        value = chi[q]
        if value == 1:
            count *= e + 1
        elif value == -1 and e % 2:
            return 0
    return count


def o_of_m(md_factors: Factorization, chi: QuadraticCharacter) -> int:
    """Number of primes q | D that divide md = m*D, given factorize(md)."""
    return len(chi.orders.keys() & md_factors.primes())


def diff_set(md_factors: Factorization, N_factors: Factorization,
             chi: QuadraticCharacter) -> tuple[int, ...]:
    """Finite primes where -m * N(a) is obstructed from being a local norm.

    -md*N(a)*D = -m*N(a)*D^2 has the local symbols of -m*N(a).  The symbol is
    +1 at any odd prime where both it and -D are units, so only the odd
    primes of D, N(a) and md are scanned.  At an odd q not dividing D it is
    chi_{-D}(q)^ord_q(x), read from chi, the field of D.  At an odd q | D,
    with x = q^alpha u, bilinearity splits it as (q, -D)_q^alpha (u, -D)_q:
    the first factor is chi.ramified(q), fixed per D, and the second needs
    only ord_q(D) from chi.orders and kronecker(u, q).  All three integers
    come factored, so no further valuation or primality work is done;
    factorize(md) has already rejected a non-integer or non-positive md.
    The archimedean symbol is -1 (x < 0 and -D < 0), so by the product
    formula an odd number of finite places is obstructed, which decides 2.
    """
    D = chi.D
    x = -md_factors.value * N_factors.value * D
    alphas: dict[int, int] = {}  # ord_q(x) over the scanned odd primes
    for factors in (md_factors, N_factors, chi.factors):
        for q, e in factors.factors:
            if q != 2:
                alphas[q] = alphas.get(q, 0) + e
    obstructed = []
    for q in sorted(alphas):
        alpha, beta = alphas[q], chi.orders.get(q)  # ord_q(x), ord_q(-D)
        if beta is None:
            if alpha % 2 and chi[q] == -1:
                obstructed.append(q)
        else:
            symbol = local_hilbert_symbol(q, 0, x // q ** alpha, beta, -D // q ** beta)
            if alpha % 2:
                symbol *= chi.ramified(q)
            if symbol == -1:
                obstructed.append(q)
    if len(obstructed) % 2 == 0:
        obstructed.insert(0, 2)
    return tuple(obstructed)
