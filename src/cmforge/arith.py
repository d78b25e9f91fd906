"""Exact integer primitives used by every other module.

Everything here is pure and deterministic: the factoring fallback sweeps
Pollard-Brent parameters in a fixed order instead of drawing random starting
points, so repeated runs are reproducible bit for bit.  Valuations and local
symbols take nonzero integers only: a rational x/y has the symbols of x*y.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from math import gcd

from .errors import InternalError, ParameterError, UndefinedValuationError

# The first t primes make Miller-Rabin deterministic for n < psi_t, the
# smallest strong pseudoprime to all of them (OEIS A014233; Jaeschke, Math.
# Comp. 61 (1993)); is_prime refuses inputs at or above psi_12.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, 318665857834031151167461)
_MR_BOUND = _MR_PSI[-1]
# An n with no prime factor among the bases is prime if n < 41^2, 41 being the next prime.
_MR_TRIAL_SQUARE = 41 * 41

_TRIAL_LIMIT = 10 ** 6

#: Marker for the archimedean place in hilbert_symbol.
INFINITE_PLACE = math.inf


def is_prime(n: int) -> bool:
    """Deterministic primality test below psi_12.

    Trial division by the bases decides every n < 41^2; above that,
    Miller-Rabin runs with the leading bases 2, 3, 5, ... up to the first
    t for which n < psi_t.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_TRIAL_SQUARE:
        return True
    if n >= _MR_BOUND:
        raise ParameterError(f"primality of {n} is not certified at or above {_MR_BOUND}")
    t = bisect_right(_MR_PSI, n) + 1  # least t with n < psi_t
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[:t]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(n: int) -> int:
    """n, refused with ParameterError unless prime."""
    if not is_prime(n):
        raise ParameterError(f"{n} is not prime")
    return n


@dataclass(frozen=True)
class Factorization:
    """A certified prime factorization of a positive integer; the product
    check refuses any other value."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise InternalError(f"factor primes not increasing: {self.factors}")
            if e < 1:
                raise InternalError(f"non-positive exponent in {self.factors}")
            if not is_prime(p):
                raise InternalError(f"{p} is not prime in {self.factors}")
            prod *= p ** e
            last = p
        if prod != self.value:
            raise InternalError(f"factors {self.factors} do not multiply to {self.value}")

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def divisors(self) -> list[int]:
        """All positive divisors, sorted."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p ** k for d in divs for k in range(e + 1)]
        return sorted(divs)


def _pollard_brent(n: int) -> int:
    """Return a nontrivial factor of composite odd n; deterministic parameter sweep."""
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InternalError(f"factorization parameter sweep exhausted for {n}")


def factorize(n: int) -> Factorization:
    """Factor a positive integer; n = 1 yields the empty product."""
    if not isinstance(n, int):
        raise ParameterError(f"factorize expects an integer, got {n!r}")
    if n < 1:
        raise ParameterError(f"cannot factor non-positive integer {n}")
    value = n
    counts: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    # 30-wheel trial division
    f = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f <= _TRIAL_LIMIT:
        while n % f == 0:
            counts[f] = counts.get(f, 0) + 1
            n //= f
        f += increments[i]
        i = (i + 1) % 8
    if n > 1 and f * f > n:
        # no prime up to sqrt(n) divides n, so n is prime; Factorization certifies it
        counts[n] = 1
        n = 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(value, tuple(sorted(counts.items())))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), completely multiplicative in n."""
    if a == 0 and n == 0:
        raise ParameterError("kronecker(0, 0) is undefined")
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        two = 1 if a % 8 in (1, 7) else -1
        while n % 2 == 0:
            n //= 2
            sign *= two
    # Jacobi loop on odd positive n
    a %= n
    result = sign
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p (Tonelli-Shanks); None if a is not a square.

    p must be a certified odd prime; nothing is checked here.
    """
    a %= p
    if a == 0:
        return 0
    if kronecker(a, p) != 1:
        return None
    # p - 1 = q * 2^s with q odd; z is the least non-residue
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    c, t, root = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # least i with t^(2^i) = 1; then i < s, and the loop lowers s to i
        i, square = 0, t
        while square != 1:
            square = square * square % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, root = t * c % p, root * b % p
    return root


def ord_q(x: int, q: int) -> int:
    """q-adic valuation of a nonzero integer."""
    require_prime(q)
    if not isinstance(x, int):
        raise ParameterError(f"valuations take integers, got {x!r}")
    if x == 0:
        raise UndefinedValuationError("valuation of zero is undefined")
    v = 0
    while x % q == 0:
        x //= q
        v += 1
    return v


def hilbert_symbol(a: int, b: int, q) -> int:
    """Local Hilbert symbol (a, b)_q of nonzero integers, q a prime or the infinite place."""
    if not (isinstance(a, int) and isinstance(b, int)) or a == 0 or b == 0:
        raise ParameterError(f"hilbert symbol requires nonzero integers, got {a!r}, {b!r}")
    if q == INFINITE_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    q = int(q)
    alpha = ord_q(a, q)
    beta = ord_q(b, q)
    return local_hilbert_symbol(q, alpha, a // q ** alpha, beta, b // q ** beta)


def local_hilbert_symbol(q: int, alpha: int, u: int, beta: int, v: int) -> int:
    """Hilbert symbol (q^alpha u, q^beta v)_q for q-adic units u, v.

    q must be a certified prime and u, v integers prime to q; nothing is
    checked here, so callers holding a Factorization skip the valuation and
    primality work of hilbert_symbol.
    """
    if q == 2:
        # epsilon(x) = (x-1)/2, omega(x) = (x^2-1)/8, both mod 2, via x mod 8
        um, vm = u % 8, v % 8
        eps_u, eps_v = (um - 1) // 2 % 2, (vm - 1) // 2 % 2
        om_u, om_v = (um * um - 1) // 8 % 2, (vm * vm - 1) // 8 % 2
        exponent = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if exponent % 2 else 1
    sign = -1 if (alpha % 2) and (beta % 2) and (q - 1) // 2 % 2 else 1
    if beta % 2:
        sign *= kronecker(u, q)
    if alpha % 2:
        sign *= kronecker(v, q)
    return sign


def fundamental_factors(disc: int) -> Factorization | None:
    """factorize(-disc) if disc is the discriminant of an imaginary quadratic
    ring of integers, else None.

    That is disc = 1 mod 4 squarefree, or disc = 4m with m = 2, 3 mod 4
    squarefree: disc is 1 mod 4 or 8, 12 mod 16, and no odd prime divides it
    twice.  The congruence is tested first, so a disc that fails it is never
    factored.
    """
    if disc >= 0:
        raise ParameterError(f"expected a negative discriminant, got {disc}")
    if disc % 4 != 1 and disc % 16 not in (8, 12):
        return None
    factors = factorize(-disc)
    return factors if all(e == 1 for q, e in factors.factors if q != 2) else None


def is_fundamental_discriminant(disc: int) -> bool:
    """True iff disc is the discriminant of an imaginary quadratic ring of integers."""
    return fundamental_factors(disc) is not None
