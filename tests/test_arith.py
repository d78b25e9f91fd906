import random
from fractions import Fraction

import pytest
import sympy
from conftest import brute_local_solvable
from hypothesis import given, settings
from hypothesis import strategies as st

from cmforge.arith import (
    _TRIAL_LIMIT,
    INFINITE_PLACE,
    factorize,
    hilbert_symbol,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    local_hilbert_symbol,
    ord_q,
    primes_up_to,
    require_prime,
    sqrt_mod,
)
from cmforge.errors import ParameterError


def sieve_primes(n):
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if flags[p]:
            flags[p * p:: p] = b"\x00" * len(flags[p * p:: p])
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES = sieve_primes(20000)


def test_is_prime_matches_sieve():
    prime_set = set(SMALL_PRIMES)
    for n in range(20000):
        assert is_prime(n) == (n in prime_set)


def test_is_prime_large():
    assert is_prime(10 ** 12 + 39)
    assert not is_prime(10 ** 12 + 37)
    assert is_prime(2 ** 61 - 1)


PSI_12 = 318665857834031151167461  # smallest strong pseudoprime to bases 2..37


def test_is_prime_refuses_uncertified_range():
    assert PSI_12 == 399165290221 * 798330580441
    with pytest.raises(ParameterError, match=str(PSI_12)):
        is_prime(PSI_12)
    assert not is_prime(2 * PSI_12)  # a small factor still decides


# psi_1 ... psi_9 of OEIS A014233: the least strong pseudoprime to the first t
# prime bases, one entry per distinct value (psi_7 = psi_8)
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 3825123056546413051)


def test_is_prime_rejects_each_strong_pseudoprime():
    # psi_t passes the strong test to the first t bases, so is_prime must run
    # at least one more round on it; all are composite
    for psi in STRONG_PSEUDOPRIMES:
        assert not sympy.isprime(psi)
        assert not is_prime(psi), psi


def test_is_prime_near_each_strong_pseudoprime():
    # primes on both sides of every boundary where the number of bases changes
    for psi in STRONG_PSEUDOPRIMES:
        below, above = psi, psi
        for _ in range(3):
            below, above = sympy.prevprime(below), sympy.nextprime(above)
            assert is_prime(below) and is_prime(above), psi
        for n in range(psi - 40, psi + 40):
            assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_trial_division_range():
    # below 41^2 the base divisions alone decide; 41^2 and 41 * 43 are the
    # first composites with no factor among the bases
    assert [n for n in range(1600, 1700) if is_prime(n)] == \
        [n for n in range(1600, 1700) if n in set(SMALL_PRIMES)]
    assert not is_prime(41 * 41) and not is_prime(41 * 43)


def test_sqrt_mod_against_squares():
    for p in SMALL_PRIMES[1:60]:
        roots = {}
        for r in range(p):
            roots.setdefault(r * r % p, set()).add(r)
        for a in range(-p, 2 * p):
            root = sqrt_mod(a, p)
            if a % p in roots:
                assert root in roots[a % p], (a, p)
            else:
                assert root is None, (a, p)
    big = 10 ** 12 + 39  # p = 3 mod 4 and p - 1 divisible by 2 only once
    for p in (big, 2 ** 61 - 1, 7340033):  # 7340033 = 7 * 2^20 + 1
        for a in range(1, 200):
            root = sqrt_mod(a, p)
            assert (root is not None) == (kronecker(a, p) == 1)
            assert root is None or root * root % p == a


def test_sqrt_mod_at_3_mod_4_is_one_power(monkeypatch):
    # at p = 3 mod 4 the root is a^((p+1)/4), the one Tonelli-Shanks takes
    # there, and squaring it tells a square from a non-square: no Kronecker
    # symbol and no search for a non-residue
    import cmforge.arith as arith

    def refused(a, n):
        raise AssertionError(f"kronecker({a}, {n}) called")

    monkeypatch.setattr(arith, "kronecker", refused)
    for p in [q for q in SMALL_PRIMES[1:200] if q % 4 == 3] + [10 ** 12 + 39, 2 ** 61 - 1]:
        for a in range(1, min(p, 300)):
            square = pow(a, (p - 1) // 2, p) == 1
            assert sqrt_mod(a, p) == (pow(a, (p + 1) // 4, p) if square else None), (a, p)
        assert sqrt_mod(p, p) == 0


def test_factorize_frozen():
    assert factorize(1).factors == ()
    assert factorize(188).factors == ((2, 2), (47, 1))
    assert factorize(217).factors == ((7, 1), (31, 1))


def test_factorize_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10 ** 9)
        fac = factorize(n)
        value = 1
        last = 1
        for p, e in fac.factors:
            assert is_prime(p) and p > last and e >= 1
            value *= p ** e
            last = p
        assert value == n


def test_factorize_semiprime_beyond_trial_range():
    p, q = 1000003, 1000033
    fac = factorize(p * q)
    assert fac.factors == ((p, 1), (q, 1))
    big = 999999999989  # prime near 1e12
    assert factorize(big).factors == ((big, 1),)


def test_factorize_rejects_bad_input():
    with pytest.raises(ParameterError):
        factorize(0)
    with pytest.raises(ParameterError):
        factorize(-6)
    with pytest.raises(ParameterError):
        factorize(PSI_12)  # was returned as a single certified prime


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10 ** 13))
def test_factorize_matches_sympy(n):
    assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items()))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_factorize_matches_sympy_on_the_pollard_path(data):
    # two primes above the trial limit, p <= q, and a small cofactor: trial
    # division stops at the limit and is_prime with Pollard-Brent splits what
    # is left, up to 10^13 (prime gaps here are below 200)
    p = sympy.nextprime(data.draw(st.integers(_TRIAL_LIMIT, 3 * 10 ** 6)))
    q = sympy.nextprime(data.draw(st.integers(p - 1, 10 ** 13 // p - 200)))
    n = data.draw(st.integers(1, 10 ** 13 // (p * q))) * p * q
    assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items()))


def counting_is_prime(monkeypatch):
    """The list of n each is_prime(n) call receives from here on."""
    import cmforge.arith as arith

    tested, original = [], arith.is_prime

    def counting(n):
        tested.append(n)
        return original(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    return tested


def test_factorize_proves_its_primes_without_testing_them_again(monkeypatch):
    # when trial division finishes, the primes it found and the cofactor left
    # above the square root of what remains are proven: no is_prime call
    tested = counting_is_prime(monkeypatch)
    rng = random.Random(11)
    for n in [rng.randrange(1, 10 ** 12) for _ in range(300)] + [999999999989, 2 ** 40, 1]:
        factorize(n)
    assert tested == []
    # past the trial limit, is_prime proves each piece Pollard-Brent leaves once
    p, q = 1000003, 1000033
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert sorted(tested) == [p, q, p * q]


def test_primes_up_to_matches_sieve():
    assert primes_up_to(20000) == SMALL_PRIMES
    assert [primes_up_to(n) for n in (-1, 0, 1, 2, 3, 4)] == [[], [], [], [2], [2, 3], [2, 3]]
    assert all(primes_up_to(n) == [q for q in SMALL_PRIMES if q <= n] for n in range(200))




def test_require_prime_tests_p_once(monkeypatch):
    tested = counting_is_prime(monkeypatch)
    assert require_prime(47) == 47
    assert tested == [47]
    with pytest.raises(ParameterError, match="^91 is not prime$"):
        require_prime(91)


def test_divisors():
    assert factorize(36).divisors() == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert factorize(1).divisors() == [1]


def test_kronecker_frozen():
    assert kronecker(5, 1) == 1
    assert kronecker(-39, 2) == 1  # -39 = 1 mod 8
    assert kronecker(-11, 3) == 1  # -11 = 1 mod 3, a square


def euler_legendre(a, q):
    r = pow(a % q, (q - 1) // 2, q)
    return r - q if r == q - 1 else r


def test_kronecker_against_euler_criterion():
    rng = random.Random(11)
    odd_primes = [q for q in SMALL_PRIMES if q % 2 and q < 500]
    for q in odd_primes:
        for _ in range(5):
            a = rng.randrange(-1000, 1000)
            assert kronecker(a, q) == euler_legendre(a, q)


def test_kronecker_at_two():
    for a in range(-40, 40):
        expected = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
        assert kronecker(a, 2) == expected


def test_kronecker_at_negative_n_against_sympy():
    # (a|n) for n < 0 is (a|-1)(a|-n), with (a|-1) = -1 exactly when a < 0
    for a in range(-60, 61):
        for n in range(-60, 0):
            assert kronecker(a, n) == sympy.kronecker_symbol(a, n), (a, n)


def test_kronecker_multiplicative_in_n():
    rng = random.Random(13)
    for _ in range(300):
        a = rng.randrange(-200, 200)
        n = rng.randrange(1, 200) * 2 + 1
        m = rng.randrange(1, 200) * 2 + 1
        assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)


def test_kronecker_edge_cases():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    with pytest.raises(ParameterError):
        kronecker(0, 0)


def test_ord_q_frozen():
    assert ord_q(8, 2) == 3
    assert ord_q(-12, 2) == 2
    assert ord_q(39 * 188, 47) == 1
    for bad in (Fraction(3, 4), Fraction(8, 1), 8.0):
        with pytest.raises(ParameterError):
            ord_q(bad, 2)


def test_ord_q_zero_rejected():
    with pytest.raises(ParameterError, match="^valuation of zero is undefined$"):
        ord_q(0, 5)


def test_hilbert_frozen():
    rng = random.Random(17)
    for _ in range(20):
        b = rng.randrange(1, 50) * rng.randrange(1, 50)
        q = rng.choice([2, 3, 5, 7, 11, INFINITE_PLACE])
        assert hilbert_symbol(1, b, q) == 1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, INFINITE_PLACE) == -1
    assert hilbert_symbol(2, 7, 7) == 1
    with pytest.raises(ParameterError):
        hilbert_symbol(0, 3, 5)
    for a, b in ((Fraction(1, 2), 3), (3, Fraction(6, 1)), (1.0, 3)):
        with pytest.raises(ParameterError):
            hilbert_symbol(a, b, 5)


def random_representative(rng, span=60):
    """num * den for a random nonzero rational num/den: it has the same local symbols."""
    num = 0
    while num == 0:
        num = rng.randrange(-span, span)
    return num * rng.randrange(1, span)


def relevant_places(a, b):
    places = {2, INFINITE_PLACE}
    for x in (a, b):
        places.update(q for q, _ in factorize(abs(x)).factors)
    return places


def hilbert_product_formula_holds(a, b):
    prod = 1
    for v in relevant_places(a, b):
        prod *= hilbert_symbol(a, b, v)
    return prod == 1


def test_hilbert_product_formula():
    rng = random.Random(19)
    for _ in range(1000):
        a, b = random_representative(rng), random_representative(rng)
        assert hilbert_product_formula_holds(a, b)


def test_hilbert_square_invariance():
    rng = random.Random(23)
    for _ in range(200):
        a, b = random_representative(rng), random_representative(rng)
        s, t = random_representative(rng, 12), random_representative(rng, 12)
        q = rng.choice([2, 3, 5, 7, 13, INFINITE_PLACE])
        assert hilbert_symbol(a, b, q) == hilbert_symbol(a * s * s, b * t * t, q)


def test_hilbert_symmetry_and_multiplicativity():
    rng = random.Random(29)
    for _ in range(200):
        a, b, c = (random_representative(rng) for _ in range(3))
        q = rng.choice([2, 3, 5, 7, 11, INFINITE_PLACE])
        assert hilbert_symbol(a, b, q) == hilbert_symbol(b, a, q)
        assert hilbert_symbol(a * b, c, q) == hilbert_symbol(a, c, q) * hilbert_symbol(b, c, q)


def test_hilbert_against_brute_force_solvability():
    rng = random.Random(31)
    cases = []
    for _ in range(12):
        a = rng.choice([-15, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 10])
        b = rng.choice([-30, -10, -7, -5, -3, -1, 1, 2, 5, 7, 15])
        cases.append((a, b))
    for a, b in cases:
        for q in (2, 3, 5):
            expected = 1 if brute_local_solvable(a, b, q) else -1
            assert hilbert_symbol(a, b, q) == expected, (a, b, q)


@settings(max_examples=600, deadline=None)
@given(q=st.sampled_from((2, 3, 5, 7, 11, 13, 10007)),
       powers=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       rests=st.tuples(st.integers(-10 ** 6, 10 ** 6).filter(bool),
                       st.integers(-10 ** 6, 10 ** 6).filter(bool)))
def test_local_hilbert_symbol_from_factorizations(q, powers, rests):
    # valuations and units read off factorize(|a|) and factorize(|b|), as a
    # caller holding factorizations does, give the symbol hilbert_symbol gives
    a, b = (rest * q ** k for rest, k in zip(rests, powers))
    alpha = dict(factorize(abs(a)).factors).get(q, 0)
    beta = dict(factorize(abs(b)).factors).get(q, 0)
    got = local_hilbert_symbol(q, alpha, a // q ** alpha, beta, b // q ** beta)
    assert got == hilbert_symbol(a, b, q)


def is_squarefree_trial(n):
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def test_fundamental_discriminant_frozen():
    assert is_fundamental_discriminant(-39)
    assert not is_fundamental_discriminant(-12)
    assert not is_fundamental_discriminant(-188)
    for disc in (-3, -4, -7, -8, -11, -15, -19, -20, -24, -43, -67, -163):
        assert is_fundamental_discriminant(disc)
    for disc in (-9, -16, -27, -32, -44, -99):
        assert not is_fundamental_discriminant(disc)
    with pytest.raises(ParameterError):
        is_fundamental_discriminant(5)


def test_fundamental_discriminant_against_definition():
    for disc in range(-500, 0):
        if disc % 4 == 1:
            expected = is_squarefree_trial(-disc)
        elif disc % 4 == 0:
            quarter = disc // 4
            expected = quarter % 4 in (2, 3) and is_squarefree_trial(-quarter)
        else:
            expected = False
        assert is_fundamental_discriminant(disc) == expected
