"""Ideal-norm counts and local obstruction sets.

These are the arithmetic ingredients of the per-term coefficients, all
functions of the integer md = m*D of a lattice term: rho counts integral
ideals of a given norm in an imaginary quadratic field, and diff_set
collects the finite places where -m*N(a) fails to be a local norm.  The
field Q(sqrt(-D)) is one value, a QuadraticCharacter built from the
factorization of D: callers validate D once, factor it once and keep one
such value, and factor md once per term.
diff_set reads a local symbol only where it can be -1: at an odd prime of
md*p outside D from the character's table, and at an odd prime of D by one
Kronecker symbol, at each such prime the caller names (all by default).  On
a lattice term the symbol at an odd q | D dividing neither md nor p is +1,
so the scorer names only those dividing md*p (gzrhs.term_contribution).
"""

from __future__ import annotations

from .arith import Factorization, factorize, kronecker, local_hilbert_symbol
from .errors import InternalError, ParameterError


class QuadraticCharacter(dict):
    """The field Q(sqrt(-D)), given by the factorization of D.

    chi.D is D, chi.factors its factorization and chi.orders maps each prime
    q | D to ord_q(D).  chi[q] reads chi_{-D}(q) = kronecker(-D, q) at a
    prime q, computed on first use and kept in this table, so a caller that
    holds one value per field pays one Kronecker symbol per prime.
    chi.ramified maps each odd prime q | D to the Hilbert symbol (q, -D)_q,
    the part of every symbol (x, -D)_q that depends on D alone: it is read
    from ord_q(D) with one kronecker(-D/q^ord, q) per prime, when the field
    is built.  The tables are derived from D: equality, hash and repr read
    D alone.
    """

    def __init__(self, factors: Factorization):
        super().__init__()
        self.D = D = factors.value
        self.factors = factors
        self.orders = dict(factors.factors)
        self.ramified = {q: local_hilbert_symbol(q, 1, 1, beta, -D // q ** beta)
                         for q, beta in factors.factors if q != 2}

    def __eq__(self, other):
        return isinstance(other, QuadraticCharacter) and other.D == self.D

    __ne__ = object.__ne__  # dict's own compares the tables

    def __hash__(self):
        return hash(self.D)

    def __repr__(self):
        return f"QuadraticCharacter(D={self.D})"

    def __missing__(self, q: int) -> int:
        value = self[q] = kronecker(-self.D, q)
        return value


def rho(n: int, D: int) -> int:
    """Number of integral ideals of norm n in Q(sqrt(-D)).

    A non-integer n is a caller bug.  See ideal_count for the count itself.
    """
    if not isinstance(n, int):
        raise InternalError(f"ideal counts need an integer norm, got {n!r}")
    if n < 1:
        raise ParameterError(f"ideal norm must be positive, got {n}")
    return ideal_count(factorize(n).factors, QuadraticCharacter(factorize(D)))


def ideal_count(factors, chi: QuadraticCharacter) -> int:
    """rho of prod q^e over (proven prime q, exponent e >= 0) pairs.

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


def diff_set(md_factors: Factorization, p: int, chi: QuadraticCharacter,
             ramified: list[int] | None = None) -> tuple[int, ...]:
    """Finite primes where -m * N(a) is obstructed from being a local norm,
    for an ideal a of prime norm p.

    -md*p*D = -m*p*D^2 has the local symbols of x = md*p*(-D), so only the
    odd primes of md, p and D can be obstructed.  At an odd q not dividing D
    the symbol (x, -D)_q is chi_{-D}(q)^ord_q(x), read from chi.  At an odd
    q | D, write md*p = q^a u with u a unit; bilinearity splits the symbol
    as (q, -D)_q^a (u, -D)_q (-D, -D)_q, and the last two factors make
    (-u|q)^ord_q(D).  So a term needs a, read off md's factorization and p,
    one kronecker(-u, q), and chi.ramified[q], which is fixed per D.
    ramified lists the odd q | D whose symbol is read, every one of them
    (the keys of chi.ramified) when None; a symbol not read counts as +1.
    Called so, on any md, every finite place is decided.  The lattice
    scorer passes only the q that divide md*p, because on a lattice term
    the symbol at the others is +1 (gzrhs.term_contribution).  Factoring md
    has already rejected a non-integer or non-positive md.  The
    archimedean symbol is -1 (x < 0 and -D < 0), so by the product formula
    an odd number of finite places is obstructed, which decides 2.
    """
    D_orders = chi.orders
    orders = {q: e for q, e in md_factors.factors if q != 2}  # ord_q(md*p), odd q
    if p != 2:
        orders[p] = orders.get(p, 0) + 1
    obstructed = [q for q, e in orders.items()
                  if e % 2 and q not in D_orders and chi[q] == -1]
    mdp = md_factors.value * p
    for q in chi.ramified if ramified is None else ramified:
        a = orders.get(q, 0)
        symbol = kronecker(-(mdp // q ** a), q) if D_orders[q] % 2 else 1
        if a % 2:
            symbol *= chi.ramified[q]
        if symbol == -1:
            obstructed.append(q)
    obstructed.sort()
    if len(obstructed) % 2 == 0:
        obstructed.insert(0, 2)
    return tuple(obstructed)
