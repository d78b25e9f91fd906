"""Shared test oracles."""

import os
from fractions import Fraction
from pathlib import Path

import sympy

import cmforge
from cmforge.arith import is_fundamental_discriminant
from cmforge.hauptmodul import GENUS_ZERO_FRICKE_PRIMES
from cmforge.hcp import usable_s_set
from cmforge.quadforms import admissible_residues, class_number


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


def sweep_cases():
    """Every (p, d <= 400) with -d fundamental and admissible and h(-d)+1 at
    most the usable degree-one discriminants, built without feasible()."""
    return [
        (p, d)
        for p in sorted(GENUS_ZERO_FRICKE_PRIMES)
        for d in range(5, 401)
        if is_fundamental_discriminant(-d) and admissible_residues(-d, p)
        and class_number(-d) + 1 <= len(usable_s_set(p))
    ]


def child_env():
    """os.environ for a child interpreter that imports cmforge: the
    package's src directory put in front of the caller's PYTHONPATH, so
    whatever the caller reaches through it, mpmath too, stays reachable."""
    src = str(Path(cmforge.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
