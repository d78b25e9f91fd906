"""Ideal-norm counts, ramification weights, and local obstruction sets.

These are the arithmetic ingredients of the per-term coefficients: rho counts
integral ideals of a given norm in an imaginary quadratic field, o_of_m counts
ramified primes showing up in m*D, and diff_set collects the finite places
where -m*N(a) fails to be a local norm.  The field Q(sqrt(-D)) is passed as
the factorization of D; callers validate D once and factor it once.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Factorization, factorize, hilbert_symbol, kronecker, ord_q
from .errors import IntegralityError, ParameterError


def rho(n, D: int) -> int:
    """Number of integral ideals of norm n in Q(sqrt(-D)).

    n may be an integral Fraction; a non-integral n is a caller bug.
    Multiplicative over factorize(n): a split prime power q^e contributes e+1,
    an inert one kills the count unless e is even, a ramified one contributes 1.
    """
    if isinstance(n, Fraction) and n.denominator == 1:
        n = n.numerator
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


def o_of_m(m, D_factors: Factorization) -> int:
    """Number of primes q | D with positive valuation in m*D."""
    m = Fraction(m)
    if m <= 0:
        raise ParameterError(f"m must be positive, got {m}")
    md = m * D_factors.value
    return sum(1 for q in D_factors.primes() if ord_q(md, q) > 0)


def diff_set(m, D_factors: Factorization, ideal_norm: int) -> tuple[int, ...]:
    """Finite primes where -m * N(a) is obstructed from being a local norm.

    The local symbol is +1 at any odd prime where both -m*N(a) and -D are
    units, so scanning 2 together with the primes of D, N(a) and m suffices.
    """
    m = Fraction(m)
    if m <= 0:
        raise ParameterError(f"m must be positive, got {m}")
    x = -m * ideal_norm
    candidates = {2, *D_factors.primes()}
    for source in (ideal_norm, m.numerator, m.denominator):
        candidates.update(factorize(source).primes())
    return tuple(
        q for q in sorted(candidates) if hilbert_symbol(x, -D_factors.value, q) == -1
    )
