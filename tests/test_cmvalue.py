import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from conftest import brute_local_solvable
from hypothesis import given, settings
from hypothesis import strategies as st

from cmforge.arith import (
    factorize,
    hilbert_symbol,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
)
from cmforge.cmvalue import QuadraticCharacter, diff_set, rho
from cmforge.errors import InternalError, ParameterError
from cmforge.gzrhs import gz_params

RHO_FIELDS = (11, 19, 39, 43, 47, 67, 163)


def divisor_sum_oracle(n, D):
    return sum(kronecker(-D, t) for t in factorize(n).divisors())


def test_rho_divisor_sum_oracle_full_range():
    # smallest-prime-factor sieve keeps the 7 x 10^4 sweep quick
    limit = 10 ** 4
    spf = list(range(limit + 1))
    for p in range(2, int(limit ** 0.5) + 1):
        if spf[p] == p:
            for k in range(p * p, limit + 1, p):
                if spf[k] == k:
                    spf[k] = p
    def divisors(n):
        divs = [1]
        while n > 1:
            p = spf[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            divs = [d * p ** k for d in divs for k in range(e + 1)]
        return divs
    for D in RHO_FIELDS:
        chi = {}
        for n in range(1, limit + 1):
            total = 0
            for t in divisors(n):
                if t not in chi:
                    chi[t] = kronecker(-D, t)
                total += chi[t]
            assert rho(n, D) == total, (n, D)


def test_rho_frozen():
    for D in RHO_FIELDS:
        assert rho(1, D) == 1
    # 3 splits in the field of discriminant -11, so rho(9) counts three ideals
    assert rho(9, 11) == 3 == divisor_sum_oracle(9, 11)
    assert rho(217, 163) == 0 == divisor_sum_oracle(217, 163)


def test_rho_multiplicative():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randrange(1, 400)
        m = rng.randrange(1, 400)
        if gcd(n, m) != 1:
            continue
        D = rng.choice(RHO_FIELDS)
        assert rho(n * m, D) == rho(n, D) * rho(m, D)


def test_rho_rejects_bad_input():
    with pytest.raises(ParameterError):
        rho(0, 11)
    integral_norm = "^ideal counts need an integer norm"
    with pytest.raises(InternalError, match=integral_norm):
        rho(Fraction(1, 2), 11)  # type: ignore[arg-type]
    with pytest.raises(InternalError, match=integral_norm):
        rho(Fraction(3, 2), 11)
    with pytest.raises(InternalError, match=integral_norm):
        rho(Fraction(6, 2), 11)  # integral, but not an int


def test_field_data_validation():
    # the field data reaches cmvalue through gz_params, which validates it once
    gz_params(p=47, d=39, D=11)
    with pytest.raises(ParameterError, match="exceed 4"):
        gz_params(p=2, d=7, D=4)  # w(k) special cases excluded
    with pytest.raises(ParameterError, match="exceed 4"):
        gz_params(p=2, d=7, D=3)
    with pytest.raises(ParameterError, match="fundamental"):
        gz_params(p=3, d=11, D=12)  # -12 is a square mod 12 but not fundamental
    with pytest.raises(ParameterError, match="not prime"):
        gz_params(p=0, d=7, D=15)  # the ideal norm p must be prime


def is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


def sample_mds(rng, count=120):
    return [rng.randrange(1, 3600) for _ in range(count)]


def test_diff_set_parity_odd():
    rng = random.Random(43)
    fields = [(11, 47), (15, 2), (163, 47), (8, 3), (20, 5)]
    for D, norm in fields:
        for md in sample_mds(rng):
            if is_square(md * norm):
                continue  # -m N(a) * (-D) = md N(a) square: every local symbol is +1
            members = diff_set(factorize(md), norm, QuadraticCharacter(factorize(D)))
            assert len(members) % 2 == 1, (md, D, norm)


def test_diff_set_never_contains_split_primes():
    rng = random.Random(47)
    for D, norm in ((11, 47), (15, 2), (39, 13)):
        for md in sample_mds(rng, 80):
            for q in diff_set(factorize(md), norm, QuadraticCharacter(factorize(D))):
                assert kronecker(-D, q) != 1, (md, D, norm, q)


def test_diff_set_scan_window_is_sufficient():
    # symbols at primes outside the scanned support must all be +1
    rng = random.Random(53)
    D, norm = 15, 2
    for md in sample_mds(rng, 40):
        x = -md * norm * D  # the square class of -m N(a)
        support = set(diff_set(factorize(md), norm, QuadraticCharacter(factorize(D))))
        for q in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            if x % q:
                assert hilbert_symbol(x, -D, q) == 1
                assert q not in support


def test_diff_set_membership_against_local_solvability():
    D, norm = 15, 2
    # m = 1, 13/15, 4/5, 2/3, 7/15, 1/5
    for md in (15, 13, 12, 10, 7, 3):
        members = diff_set(factorize(md), norm, QuadraticCharacter(factorize(D)))
        x = -md * norm * D
        for q in (2, 3, 5):
            solvable = brute_local_solvable(x, -D, q)
            assert (q in members) == (not solvable), (md, q)


def test_diff_set_spec_instance():
    # scan set for m=1 (m*D = 11), D=11, N(a)=47 is {2, 11, 47}; brute-check
    # the small primes on -47, which has the symbols of -m*D * N(a) * D
    members = diff_set(factorize(11), 47, QuadraticCharacter(factorize(11)))
    x = -47
    for q in (2, 11):
        solvable = brute_local_solvable(x, -11, q)
        assert (q in members) == (not solvable)
    # the membership of 47 is then forced by the odd-parity product formula
    infinite_sign = -1  # both arguments negative
    parity = (-1) ** (len(members))
    assert infinite_sign * parity == 1
    assert len(members) % 2 == 1


def test_diff_set_vanishing_rule_cases():
    # |diff| = 1 permits a contribution, |diff| = 3 forces zero; both occur
    sizes = {len(diff_set(factorize(md), 2, QuadraticCharacter(factorize(15))))
             for md in sample_mds(random.Random(59), 200)}
    assert 1 in sizes and 3 in sizes


FUNDAMENTAL_D = [D for D in range(5, 3000) if is_fundamental_discriminant(-D)]
SMALL_PRIMES = [q for q in range(2, 400) if is_prime(q)]


@settings(max_examples=400, deadline=None)
@given(md=st.integers(1, 10 ** 7), D=st.sampled_from(FUNDAMENTAL_D),
       norm=st.sampled_from(SMALL_PRIMES))
def test_diff_set_equals_place_by_place_symbols(md, D, norm):
    # diff_set reads odd places off exponents and chi, and 2 off the product
    # formula; hilbert_symbol at every candidate place is the oracle
    x = -md * norm * D
    places = {2, norm, *(q for n in (md, D) for q, _ in factorize(n).factors)}  # primes of md*p*D
    expected = tuple(sorted(q for q in places if hilbert_symbol(x, -D, q) == -1))
    got = diff_set(factorize(md), norm, QuadraticCharacter(factorize(D)))
    assert got == expected
    assert len(got) % 2 == 1


def test_ramified_symbol_equals_hilbert_symbol():
    # chi.ramified[q] reads (q, -D)_q off ord_q(D) at each odd prime q | D;
    # hilbert_symbol, which finds the valuations itself, is the reference
    for D in FUNDAMENTAL_D:
        if D >= 2000:
            break
        chi = QuadraticCharacter(factorize(D))
        odd = [q for q, _ in chi.factors.factors if q != 2]
        assert list(chi.ramified) == odd, D
        for q in odd:
            assert chi.ramified[q] == hilbert_symbol(q, -D, q), (D, q)
