"""Binary quadratic forms: reduction, class numbers, Heegner representatives.

A form (a, b, c) of negative discriminant with p | a and b in a fixed residue
class mod 2p carries a CM point (-b + sqrt(disc)) / (2a); this module picks one
such form per equivalence class, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import (
    Factorization,
    factorize,
    fundamental_factors,
    require_prime,
    sqrt_mod,
)
from .errors import EnumerationExhaustedError, InternalError, ParameterError

#: Largest |disc| class_number accepts.  The count scans O(|disc|) candidate
#: forms, under a second at this ceiling, and every path to a CM point
#: (heegner, classpoly, crosscheck) goes through it.
MAX_CLASS_NUMBER_DISC = 10 ** 7


@dataclass(frozen=True)
class QuadraticForm:
    """A positive definite form a x^2 + b xy + c y^2; any other is refused here."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.discriminant >= 0 or self.a <= 0:
            raise ParameterError(f"form {self} is not positive definite")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def __str__(self):
        return f"({self.a}, {self.b}, {self.c})"


def reduce(f: QuadraticForm) -> QuadraticForm:
    """Canonical representative under unimodular equivalence.

    Output satisfies |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    """
    a, b, c = f.a, f.b, f.c
    while True:
        if not -a < b <= a:
            r = (a - b) // (2 * a)
            c = a * r * r + b * r + c
            b = b + 2 * r * a
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if a == c and b < 0:
        b = -b
    out = QuadraticForm(a, b, c)
    assert out.discriminant == f.discriminant
    return out


def fundamental(disc: int) -> Factorization:
    """factorize(-disc), refused with ParameterError unless disc is a
    fundamental discriminant."""
    factors = fundamental_factors(disc)
    if factors is None:
        raise ParameterError(f"{disc} is not a fundamental discriminant")
    return factors


def smallest_residue(disc: int, p: int) -> int:
    """The least of square_roots_mod_4p(disc, p), refused with ParameterError
    if there is none; p is prime and disc = 0 or 1 mod 4, neither checked here."""
    residues = square_roots_mod_4p(disc, p)
    if not residues:
        raise ParameterError(f"{disc} is not a square mod {4 * p}")
    return residues[0]


def class_number(disc: int) -> int:
    """Number of classes of primitive positive-definite forms of discriminant disc."""
    # count_classes refuses a disc above the ceiling before disc is factored here
    if -disc <= MAX_CLASS_NUMBER_DISC:
        fundamental(disc)
    return count_classes(disc)


def count_classes(disc: int) -> int:
    """class_number(disc) for a fundamental disc, which is not checked here;
    the ceiling is."""
    if -disc > MAX_CLASS_NUMBER_DISC:
        raise ParameterError(
            f"|disc| = {-disc} exceeds the class number ceiling {MAX_CLASS_NUMBER_DISC}"
        )
    count = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            count += 1
        a += 1
    return count


def admissible_residues(disc: int, p: int) -> list[int]:
    """All residues beta mod 2p with beta^2 = disc mod 4p, sorted; empty if none exist.

    p must be prime and disc a fundamental discriminant; both are checked
    here, and square_roots_mod_4p does the rest.
    """
    require_prime(p)
    fundamental(disc)
    return square_roots_mod_4p(disc, p)


def square_roots_mod_4p(disc: int, p: int) -> list[int]:
    """admissible_residues(disc, p) for a prime p and a disc = 0 or 1 mod 4,
    neither of which is checked here.

    For odd p, beta^2 = disc mod 4 fixes the parity of beta and
    beta^2 = disc mod p fixes beta mod p up to sign, so the residues are the
    square roots of disc mod p moved to that parity.  For p = 2 the four
    residues mod 4 are tried.
    """
    if p == 2:
        return [beta for beta in range(4) if (beta * beta - disc) % 8 == 0]
    root = sqrt_mod(disc, p)
    if root is None:
        return []
    parity = disc % 2
    return sorted({r if r % 2 == parity else r + p for r in (root, -root % p)})


def heegner_reps(disc: int, p: int, beta: int) -> list[QuadraticForm]:
    """One form (a, b, c) per class, with p | a and b = beta mod 2p.

    Exactly class_number(disc) forms are returned.  Candidates are scanned by
    increasing |b| level; within the scanned window the representative of each
    class minimizes (a, |b|, b), which makes the choice deterministic.
    """
    require_prime(p)
    fundamental(disc)
    if (beta * beta - disc) % (4 * p):
        raise ParameterError(f"residue {beta} is not admissible for disc {disc} mod {4 * p}")
    h = count_classes(disc)
    b0 = beta % (2 * p)
    bound = 2 * p * h * (isqrt(-disc) + 1)
    best: dict[QuadraticForm, tuple[tuple[int, int, int], QuadraticForm]] = {}
    level = 0
    while True:
        offsets = (0,) if level == 0 else (-level, level)
        bs = [b0 + 2 * p * j for j in offsets]
        if min(abs(b) for b in bs) > bound:
            raise EnumerationExhaustedError(
                f"found {len(best)} of {h} classes for disc {disc}, p={p}, "
                f"beta={beta} within |b| <= {bound}"
            )
        for b in bs:
            n4 = b * b - disc
            if n4 % (4 * p):
                raise InternalError(f"b={b} violates the admissibility congruence")
            nb = n4 // (4 * p)
            for k in factorize(nb).divisors():
                cand = QuadraticForm(p * k, b, nb // k)
                if not cand.is_primitive():
                    continue
                assert cand.discriminant == disc
                red = reduce(cand)
                key = (cand.a, abs(b), b)
                cur = best.get(red)
                if cur is None or key < cur[0]:
                    best[red] = (key, cand)
        if len(best) > h:
            raise InternalError(f"more than h({disc}) = {h} classes enumerated")
        if len(best) == h:
            reps = [cand for _, cand in best.values()]
            reps.sort(key=lambda f: (f.a, abs(f.b), f.b, f.c))
            return reps
        level += 1

