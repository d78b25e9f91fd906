"""Ideal-norm counts, ramification weights, and local obstruction sets.

These are the arithmetic ingredients of the per-term coefficients, all
functions of the integer md = m*D of a lattice term: rho counts integral
ideals of a given norm in an imaginary quadratic field, o_of_m counts
ramified primes dividing m*D, and diff_set collects the finite places where
-m*N(a) fails to be a local norm.  The field Q(sqrt(-D)) is passed as the
factorization of D; callers validate D once and factor it once.
"""

from __future__ import annotations

from .arith import Factorization, factorize, hilbert_symbol, kronecker
from .errors import IntegralityError, ParameterError


def rho(n: int, D: int) -> int:
    """Number of integral ideals of norm n in Q(sqrt(-D)).

    A non-integer n is a caller bug.  Multiplicative over factorize(n): a
    split prime power q^e contributes e+1, an inert one kills the count
    unless e is even, a ramified one contributes 1.
    """
    if not isinstance(n, int):
        raise IntegralityError(f"ideal counts need an integer norm, got {n!r}")
    if n < 1:
        raise ParameterError(f"ideal norm must be positive, got {n}")
    count = 1
    for q, e in factorize(n).factors:
        chi = kronecker(-D, q)
        if chi == 1:
            count *= e + 1
        elif chi == -1 and e % 2:
            return 0
    return count


def o_of_m(md: int, D_factors: Factorization) -> int:
    """Number of primes q | D that divide md = m*D."""
    if not isinstance(md, int) or md <= 0:
        raise ParameterError(f"m*D must be a positive integer, got {md!r}")
    return sum(1 for q in D_factors.primes() if md % q == 0)


def diff_set(md: int, D_factors: Factorization,
             N_factors: Factorization) -> tuple[int, ...]:
    """Finite primes where -m * N(a) is obstructed from being a local norm.

    -md*N(a)*D = -m*N(a)*D^2 has the local symbols of -m*N(a).  The symbol is
    +1 at any odd prime where both it and -D are units, so scanning 2 together
    with the primes of D, N(a) and md suffices.  The ideal norm N(a) comes
    factored like D, since it is fixed across the terms of one sum;
    factorize(md) rejects a non-integer or non-positive md.
    """
    D = D_factors.value
    candidates = {2, *D_factors.primes(), *N_factors.primes(), *factorize(md).primes()}
    x = -md * N_factors.value * D
    return tuple(q for q in sorted(candidates) if hilbert_symbol(x, -D, q) == -1)
