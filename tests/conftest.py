"""Shared test oracles."""

from fractions import Fraction

import sympy


def _primitive_solution_at_level(az, bz, q, k):
    mod = q ** k
    squares = {}
    for z in range(mod):
        squares.setdefault(z * z % mod, []).append(z)
    for x in range(mod):
        for y in range(mod):
            w = (az * x * x + bz * y * y) % mod
            for z in squares.get(w, ()):
                if x % q or y % q or z % q:
                    return True
    return False


def brute_local_solvable(a, b, q):
    """Whether a x^2 + b y^2 = z^2 has a nontrivial q-adic solution.

    Climbs prime-power levels: a missing primitive solution at any level
    certifies insolvability; a solution at the Hensel margin certifies
    solvability.
    """
    a, b = Fraction(a), Fraction(b)
    az = a.numerator * a.denominator
    bz = b.numerator * b.denominator
    margin = 3
    n = 4 * az * bz
    while n % q == 0:
        n //= q
        margin += 1
    for k in range(1, margin + 1):
        if not _primitive_solution_at_level(az, bz, q, k):
            return False
    return True


def factor_over_z(coefficients):
    """Irreducible factors over Z of the polynomial with integer coefficients
    low degree first, as (coefficients low degree first, multiplicity)."""
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(coefficients)), x).factor_list()
    return sorted((tuple(reversed([int(c) for c in f.all_coeffs()])), m) for f, m in factors)


def irreducible_over_z(coefficients):
    return [m for _, m in factor_over_z(coefficients)] == [1]
