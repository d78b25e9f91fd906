"""Binary quadratic forms: reduction, class numbers, Heegner representatives.

A form (a, b, c) of negative discriminant with p | a and b in a fixed residue
class mod 2p carries a CM point (-b + sqrt(disc)) / (2a); this module picks one
such form per equivalence class, deterministically.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import itemgetter

from .arith import (
    Factorization,
    fundamental_factors,
    require_prime,
    sqrt_mod,
)
from .errors import InternalError, ParameterError, PrecisionError

#: Largest |disc| class_number accepts.  The count scans O(|disc|) candidate
#: forms, under a second at this ceiling, and every path to a CM point
#: (heegner, classpoly, crosscheck) goes through it.
MAX_CLASS_NUMBER_DISC = 10 ** 7


class QuadraticForm(tuple):
    """A positive definite form a x^2 + b xy + c y^2, refused here otherwise: the
    triple (a, b, c) itself, equal to the plain triples reduction_word gives."""

    __slots__ = ()
    a, b, c = (property(itemgetter(i)) for i in range(3))

    def __new__(cls, a: int, b: int, c: int):
        if b * b - 4 * a * c >= 0 or a <= 0:
            raise ParameterError(f"form {(a, b, c)} is not positive definite")
        return super().__new__(cls, (a, b, c))

    def __getnewargs__(self):  # copy and pickle rebuild a form through __new__
        return tuple(self)

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def reduction_word(a: int, b: int, c: int, level: int = 1):
    """((a', b', c'), (w0, w1, w2, w3), shift, flips): the form the shifts
    and the flip of level N = level make of the positive definite (a, b, c),
    with N | a, neither checked here, the word W = [[w0, w1], [w2, w3]] that
    takes the point tau = (-b + sqrt(disc))/(2a) of (a, b, c) to that of
    (a', b', c'), W tau = (w0 tau + w1)/(w2 tau + w3), the sum of W's shifts
    tau -> tau + n and its number of flips tau -> -1/(N tau).  The result
    has -a' < b' <= a' and N c' >= a', with b' >= 0 when N c' = a'; at
    level 1 it is the reduced form of the class, |b'| <= a' <= c' with
    b' >= 0 when |b'| = a' or a' = c', and W lies in SL2(Z).  It is the
    package's one reduction loop, for numbers too, each the point of a form.

    On points, b -> b + 2an is tau -> tau - n and (a, b, c) -> (Nc, -b, a/N)
    is tau -> -1/(N tau); so is the last step, (a, b, a/N) -> (a, -b, a/N).
    Each other flip makes a smaller and keeps N | a, so the loop ends.

    Those flips are capped by the height (_flip_cap): Im(tau) > 2^-(s + 1)
    for s = bits(2a) - bits(isqrt(4ac - b^2)), at least 0.  At level 1 a
    flip at |Re| <= 1/2 and Im <= 1/2 at least doubles Im (|tau|^2 <= 1/2),
    so s + 1 of them at most, and a point with |Re| <= 1/2 and Im > 1/2
    lies in F, S F or S T^(+-1) F (S T^n F, |n| >= 2, stays below Im 1/3),
    one flip from the fundamental domain F.  One flip more raises
    PrecisionError; at a level p the cap is the same, with no such proof.
    """
    start, w0, w1, w2, w3 = a, 1, 0, 0, 1
    shift = flips = 0
    while True:
        if not -a < b <= a:
            n = (a - b) // (2 * a)
            b, c = b + 2 * n * a, a * n * n + b * n + c
            w0, w1 = w0 - n * w2, w1 - n * w3
            shift -= n
        if a > level * c or (a == level * c and b < 0):
            # the cap is at least 2: read from the third flip on, which most forms never make
            if flips >= 2 and a != level * c and flips == _flip_cap(start, 4 * a * c - b * b):
                raise PrecisionError(f"tau not reduced at level {level} within {flips} flips")
            a, b, c = level * c, -b, a // level
            w0, w1, w2, w3 = -w2, -w3, level * w0, level * w1
            flips += 1
            if a != level * c:
                continue
        return (a, b, c), (w0, w1, w2, w3), shift, flips


def _flip_cap(a: int, size: int) -> int:
    """s + 2 for s = max(0, bits(2a) - bits(isqrt(size))), isqrt's bits (bits(size) + 1) // 2."""
    return max(0, (2 * a).bit_length() - (size.bit_length() + 1) // 2) + 2


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
    return len(reduced_forms(disc))


def reduced_forms(disc: int) -> list[tuple[int, int, int]]:
    """(a, b, c) of each reduced primitive form of discriminant disc, as
    reduction_word gives them, by increasing a and then b: one per class.  A
    disc whose size exceeds MAX_CLASS_NUMBER_DISC is refused with ParameterError,
    before any work."""
    if -disc > MAX_CLASS_NUMBER_DISC:
        raise ParameterError(
            f"|disc| = {-disc} exceeds the class number ceiling {MAX_CLASS_NUMBER_DISC}"
        )
    forms = []
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
            forms.append((a, b, c))
        a += 1
    return forms


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
    class minimizes (a, |b|, b), which makes the choice deterministic.  The
    candidates at b are (pk, b, nb/k) for the divisors k of nb = (b^2 - disc)/4p,
    of discriminant disc by construction and primitive, as disc is fundamental
    (a common factor g > 1 would make disc/g^2 a discriminant), each kept as the
    integers (a, |b|, b, c) under its class's reduction_word form, so the least
    one is the representative; only the representatives become QuadraticForms.
    """
    require_prime(p)
    fundamental(disc)
    if (beta * beta - disc) % (4 * p):
        raise ParameterError(f"residue {beta} is not admissible for disc {disc} mod {4 * p}")
    h = count_classes(disc)
    b0 = beta % (2 * p)
    bound = 2 * p * h * (isqrt(-disc) + 1)
    best: dict[tuple[int, int, int], tuple[int, int, int, int]] = {}
    level = 0
    while True:
        offsets = (0,) if level == 0 else (-level, level)
        bs = [b0 + 2 * p * j for j in offsets]
        if min(abs(b) for b in bs) > bound:
            raise InternalError(
                f"found {len(best)} of {h} classes for disc {disc}, p={p}, "
                f"beta={beta} within |b| <= {bound}"
            )
        for b in bs:
            n4 = b * b - disc
            if n4 % (4 * p):
                raise InternalError(f"b={b} violates the admissibility congruence")
            nb = n4 // (4 * p)
            for k in _divisors(nb):
                a, c = p * k, nb // k
                red = reduction_word(a, b, c)[0]
                cand = (a, abs(b), b, c)
                if red not in best or cand < best[red]:
                    best[red] = cand
        if len(best) > h:
            raise InternalError(f"more than h({disc}) = {h} classes enumerated")
        if len(best) == h:
            return [QuadraticForm(a, b, c) for a, _, b, c in sorted(best.values())]
        level += 1


def _divisors(n: int) -> list[int]:
    """The positive divisors of n > 0, in increasing order.  Trial division
    takes out each prime as it is found and stops at the square root of the
    cofactor left, which is then 1 or a prime."""
    divisors = [1]
    q = 2
    while q * q <= n:
        if n % q == 0:
            powers = [1]
            while n % q == 0:
                n //= q
                powers.append(powers[-1] * q)
            divisors = [k * power for k in divisors for power in powers]
        q += 1 if q == 2 else 2
    if n > 1:
        divisors += [k * n for k in divisors]
    return sorted(divisors)
