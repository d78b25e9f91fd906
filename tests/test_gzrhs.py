import math
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmforge.arith import (
    factorize,
    hilbert_symbol,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    ord_q,
    primes_up_to,
)
from cmforge.cmvalue import QuadraticCharacter
from cmforge.crosscheck import admissible_pairs
from cmforge.errors import InternalError, NonIntegralMagnitudeError, ParameterError
from cmforge.gzrhs import (
    RAMIFIED_OF_M,
    RAMIFIED_OF_MD,
    GZParams,
    PrimeLogSum,
    TermContribution,
    enumerate_terms,
    factor_terms,
    gz_log_norm,
    gz_params,
    score_terms,
    sieve_primes,
    term_contribution,
)
from cmforge.hauptmodul import GENUS_ZERO_FRICKE_PRIMES, Hauptmodul, working_context
from cmforge.quadforms import fundamental, square_roots_mod_4p


def exponent_map(pls):
    return {q: e for q, e in pls.items()}


def test_params_validation():
    with pytest.raises(ParameterError):
        gz_params(p=47, d=39, D=39)      # distinctness
    with pytest.raises(ParameterError):
        gz_params(p=47, d=3, D=39)       # d > 4 required
    with pytest.raises(ParameterError):
        gz_params(p=47, d=39, D=4)       # D > 4 required
    with pytest.raises(ParameterError):
        gz_params(p=47, d=12, D=39)      # -12 not fundamental
    with pytest.raises(ParameterError):
        gz_params(p=46, d=11, D=39)      # 46 not prime
    with pytest.raises(ParameterError):
        gz_params(p=47, d=11, D=39, mu=33, beta=40)  # beta inadmissible
    with pytest.raises(ParameterError):
        gz_params(p=47, d=5, D=39)       # -5 = 3 mod 4, not a discriminant


def test_params_normalization_and_g():
    params = gz_params(p=47, d=39, D=163, mu=5 + 94, beta=33 - 94)
    assert params.mu == 5 and params.beta == 33
    assert params.g == 1
    # mu = 0 forces g = 2p
    params2 = gz_params(p=2, d=7, D=8, mu=0, beta=1)
    assert params2.g == 4
    params3 = gz_params(p=3, d=8, D=15, mu=3, beta=2)
    assert params3.g == 3


def test_create_picks_smallest_residues():
    params = gz_params(p=47, d=39, D=163)
    assert (params.mu, params.beta) == (5, 33)


def test_enumerate_terms_frozen_lattice():
    params = gz_params(p=47, d=39, D=163)
    terms = enumerate_terms(params)
    assert len(terms) == 4
    by_sign = {1: [], -1: []}
    for term in terms:
        by_sign[term.sign].append(term)
    assert sorted(t.t for t in by_sign[1]) == [-23, 71]
    assert sorted(t.t for t in by_sign[-1]) == [-71, 23]
    assert {t.md for t in terms} == {7, 31}  # m = 7/163 and 31/163
    for term in terms:
        assert 0 < 4 * 47 * term.md <= 39 * 163  # 0 < m <= d/(4p)


def test_enumerate_terms_ordering_deterministic():
    params = gz_params(p=2, d=7, D=15)
    terms = enumerate_terms(params)
    keys = [(-t.sign, t.y, t.n) for t in terms]
    assert keys == sorted(keys)
    assert terms == enumerate_terms(params)


def test_empty_enumeration_gives_unit_norm():
    params = gz_params(p=47, d=11, D=19)
    assert enumerate_terms(params) == []
    assert gz_log_norm(params).exponents == {}
    assert gz_log_norm(params).norm() == 1


REFERENCE_X_47 = {19: 1, 43: 1, 67: 2, 163: 4}
REFERENCE_Y_47 = {11: 1, 19: 1, 43: 7, 67: 13, 163: 217}


def test_reference_x_magnitudes_p47():
    for D, expected in REFERENCE_X_47.items():
        assert gz_log_norm(gz_params(p=47, d=11, D=D)).norm() == expected, D


def test_reference_y_magnitudes_p47():
    for D, expected in REFERENCE_Y_47.items():
        assert gz_log_norm(gz_params(p=47, d=39, D=D)).norm() == expected, D


def test_reference_exponent_map_p47():
    pls = gz_log_norm(gz_params(p=47, d=39, D=163))
    assert exponent_map(pls) == {7: Fraction(8), 31: Fraction(8)}
    assert abs(pls.log_value() - 8 * math.log(217)) < 1e-12


def test_adjudicated_exponents_2_7_15():
    # frozen against the independent numeric evaluation of the product,
    # which gives exactly 13 * 7 * 3^4 * 5^2 = 184275
    params = gz_params(p=2, d=7, D=15)
    full = gz_log_norm(params, RAMIFIED_OF_MD)
    assert exponent_map(full) == {3: Fraction(32), 5: Fraction(16),
                                  7: Fraction(8), 13: Fraction(8)}
    assert full.norm() == 184275
    dropped = gz_log_norm(params, RAMIFIED_OF_M)
    assert exponent_map(dropped) == {7: Fraction(8), 13: Fraction(8)}


def test_ramified_variant_only_changes_ramified_terms():
    params = gz_params(p=47, d=39, D=163)  # all contributions inert here
    assert gz_log_norm(params, RAMIFIED_OF_M) == gz_log_norm(params, RAMIFIED_OF_MD)
    term = enumerate_terms(params)[0]
    with pytest.raises(ParameterError):
        PrimeLogSum.total([term_contribution(term, params, factorize(term.md))], "bogus")
    with pytest.raises(ParameterError):
        gz_log_norm(params, "bogus")


def grid_params():
    out = []
    for p in (2, 3, 5, 7, 13):
        for d, D in admissible_pairs(p, max_disc=80, count=4):
            out.append(gz_params(p=p, d=d, D=D))
    for d, D in admissible_pairs(11, max_disc=60, count=3):
        out.append(gz_params(p=11, d=d, D=D))
    return out


def test_grid_term_invariants():
    for params in grid_params():
        g2dD = params.g ** 2 * params.d * params.D
        for term in enumerate_terms(params):
            assert term.md > 0
            assert 4 * params.p * term.md <= params.d * params.D
            assert 4 * params.g ** 2 * params.p * term.md == g2dD - term.t ** 2
            assert term.t ** 2 < g2dD


def reference_terms(params):
    """The terms by the nested loop over y in range(D/g) and n, as (sign, y, n, t, m*D)."""
    p, d, D, g = params.p, params.d, params.D, params.g
    bound_sq = g * g * d * D
    s_max = isqrt(bound_sq - 1)
    step = 2 * p * D
    out = []
    for sign in (1, -1):
        for y in range(D // g):
            head = g * params.mu * (sign * params.beta) - 2 * g * p * y
            for n in range(-((s_max - head) // step), (head + s_max) // step + 1):
                t = head - step * n
                m = Fraction(d, 4 * p) - Fraction(t * t, 4 * g * g * p * D)
                assert m > 0 and (m * D).denominator == 1
                out.append((sign, y, n, t, m * D))
    return out


# (p, d, D) with D of the sizes the gznorm_large benchmark workload runs
LARGE_TRIPLES = ((2, 7, 12228), (3, 11, 24756), (5, 11, 48795))


def test_enumerate_terms_matches_reference_loop():
    cases = grid_params() + [gz_params(p=p, d=d, D=D) for p, d, D in LARGE_TRIPLES]
    for params in cases:
        got = [(t.sign, t.y, t.n, t.t, t.md) for t in enumerate_terms(params)]
        assert got == reference_terms(params), params


def test_grid_exponents_nonnegative_integral():
    for params in grid_params():
        pls = gz_log_norm(params)
        assert pls.nonnegative_integral(), params


def test_grid_swap_symmetry():
    for params in grid_params():
        swapped = gz_params(p=params.p, d=params.D, D=params.d)
        assert gz_log_norm(params) == gz_log_norm(swapped), params


def test_term_contribution_vanishing():
    # terms whose obstruction set is not a singleton contribute nothing
    from cmforge.cmvalue import QuadraticCharacter, diff_set

    params = gz_params(p=13, d=43, D=51)
    vanished = 0
    for term, contribution in zip(*score_terms(params)):
        obstructed = diff_set(factorize(term.md), 13, QuadraticCharacter(factorize(51)))
        if len(obstructed) != 1:
            assert len(obstructed) == 3  # odd by the product formula
            assert contribution.is_zero()
            vanished += 1
    assert vanished >= 2
    assert gz_log_norm(params).nonnegative_integral()


def test_gz_log_norm_factors_ideal_norm_once(monkeypatch):
    # every lattice term is scored from the sieve's factorization of its
    # m*D, handed to it in order; the ideal norm p comes factored with the
    # params and is never factored again, and factorize does not run while
    # scoring
    import sys

    from cmforge import arith, gzrhs

    params = gz_params(p=2, d=7, D=12228)
    terms = enumerate_terms(params)
    factored, scored = [], []
    factorize_, contribution = arith.factorize, gzrhs.term_contribution

    def counting(n):
        factored.append(n)
        return factorize_(n)

    def scoring(term, params, md_factors):
        scored.append((term, md_factors.value))
        return contribution(term, params, md_factors)

    for name, module in list(sys.modules.items()):
        if name.startswith("cmforge") and getattr(module, "factorize", None) is factorize_:
            monkeypatch.setattr(module, "factorize", counting)
    monkeypatch.setattr(gzrhs, "term_contribution", scoring)
    gz_log_norm(params)
    assert factored == []
    assert scored == [(term, term.md) for term in terms]


def test_gz_log_norm_computes_chi_once_per_prime(monkeypatch):
    # chi_{-D}(q) is read from the params' own table: at most one
    # kronecker(-D, q) per distinct q over all the terms, wherever it is called
    from collections import Counter

    from cmforge import arith, cmvalue, gzrhs

    params = gz_params(p=2, d=7, D=12228)
    calls = Counter()
    original = arith.kronecker

    def counting(a, n):
        if a == -params.D:
            calls[n] += 1
        return original(a, n)

    for module in (arith, cmvalue, gzrhs):
        monkeypatch.setattr(module, "kronecker", counting, raising=False)
    gz_log_norm(params)
    assert calls and max(calls.values()) == 1


def test_gz_log_norm_computes_ramified_symbol_once_per_prime(monkeypatch):
    # at an odd q | D the symbol (x, -D)_q needs kronecker(-D/q, q), fixed by
    # D: it is computed once per q, when the field is built, not once per term
    from collections import Counter

    from cmforge import arith, cmvalue, gzrhs

    D = 12228
    ramified = {q: -D // q for q, _ in factorize(D).factors if q != 2}
    assert sorted(ramified) == [3, 1019]
    calls = Counter()
    original = arith.kronecker

    def counting(a, n):
        if ramified.get(n) == a:
            calls[n] += 1
        return original(a, n)

    for module in (arith, cmvalue, gzrhs):
        monkeypatch.setattr(module, "kronecker", counting, raising=False)
    gz_log_norm(gz_params(p=2, d=7, D=D))
    assert calls == Counter({3: 1, 1019: 1})


def test_gz_log_norm_reads_valuations_off_factorizations(monkeypatch):
    # every valuation and local symbol comes from the factorizations of p, D
    # and each m*D: no hilbert_symbol and no ord_q on the scoring path
    from collections import Counter

    from cmforge import arith, cmvalue, gzrhs

    params = gz_params(2, 7, 12228)
    calls = Counter()

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("hilbert_symbol", "ord_q"):
        wrapped = counting(name, getattr(arith, name))
        for module in (arith, cmvalue, gzrhs):
            monkeypatch.setattr(module, name, wrapped, raising=False)
    assert gz_log_norm(params).exponents
    assert calls == Counter()


FUNDAMENTAL_BELOW_3000 = [D for D in range(5, 3000) if is_fundamental_discriminant(-D)]
ADMISSIBLE_BELOW_3000 = {p: [D for D in FUNDAMENTAL_BELOW_3000 if square_roots_mod_4p(-D, p)]
                         for p in sorted(GENUS_ZERO_FRICKE_PRIMES)}


@st.composite
def lattice_params(draw):
    """The GZParams of an admissible (p, d, D) with d, D < 3000 at a
    genus-zero p, with any admissible mu and beta.  D is drawn a third of
    the time among the multiples of p and a third among those of 4p, where
    mu = 0 and g = 2p."""
    p = draw(st.sampled_from(sorted(ADMISSIBLE_BELOW_3000)))
    admissible = ADMISSIBLE_BELOW_3000[p]
    step = draw(st.sampled_from((1, p, 4 * p)))
    D = draw(st.sampled_from([D for D in admissible if D % step == 0]))
    d = draw(st.sampled_from([d for d in admissible if d != D]))
    mu = draw(st.sampled_from(square_roots_mod_4p(-D, p)))
    beta = draw(st.sampled_from(square_roots_mod_4p(-d, p)))
    return gz_params(p, d, D, mu=mu, beta=beta)


@settings(max_examples=200, deadline=None)
@given(params=lattice_params())
def test_the_lattice_congruence_admits_primes_and_settles_ramified_symbols(params):
    # 4g^2 p md = g^2 dD - t^2 with g | 2p.  (a) A prime l not dividing 2p
    # with (dD | l) = -1 divides no md, since l | md forces t^2 = g^2 dD mod l,
    # so the sieve leaves it out (sieve_primes).  (b) At
    # an odd q | D dividing neither md nor p, -md p = (t/2g)^2 is a nonzero
    # square mod q, so the local symbol there is +1: the scorer,
    # term_contribution, has diff_set skip its Kronecker symbol at such q
    # (ROADMAP item 11).
    p, d, D = params.p, params.d, params.D
    odd_D = [q for q, _ in factorize(D).factors if q != 2]
    for term in enumerate_terms(params):
        md_factors = factorize(term.md)
        assert all(q in (2, p) or kronecker(d * D, q) != -1 for q, _ in md_factors.factors)
        for q in odd_D:
            if term.md * p % q:
                assert hilbert_symbol(-term.md * p * D, -D, q) == 1, (params, term, q)


def test_scoring_reads_ramified_symbols_only_where_q_divides_md_p(monkeypatch):
    # with 4g^2 p md = g^2 dD - t^2, the symbol at an odd q | D dividing
    # neither md nor p is +1, so scoring reads kronecker at such a q for no
    # term; at q | md p it reads it once per term.  D = 3 * 5 * 3253 holds
    # p = 5.  kronecker is counted at every binding in the package, inside
    # term_contribution, and the character's values at D's primes are read
    # before counting
    import sys
    from collections import Counter

    from cmforge import arith, gzrhs

    params = gz_params(p=5, d=11, D=48795)
    p, chi = params.p, params.chi
    ramified = [q for q, _ in factorize(params.D).factors if q != 2]
    for q in ramified:
        chi[q]
    expected = gz_log_norm(params)
    calls, current = [], []
    original, contribution = arith.kronecker, gzrhs.term_contribution

    def counted(a, n):
        calls.append((current[-1] if current else None, n))
        return original(a, n)

    def tracked(term, *args):
        current.append(term)
        return contribution(term, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("cmforge") and getattr(module, "kronecker", None) is original:
            monkeypatch.setattr(module, "kronecker", counted)
    monkeypatch.setattr(gzrhs, "term_contribution", tracked)
    terms, contributions = gzrhs.score_terms(params)
    assert PrimeLogSum.total(contributions, RAMIFIED_OF_MD) == expected
    read = [(term, q) for term, q in calls if term and q in ramified]  # sieve_primes' first
    assert Counter(read) == Counter((term, q) for term in terms for q in ramified
                                    if term.md * p % q == 0)
    assert {q for _, q in read} == {3, 5}  # 3253 divides no md


def test_the_two_sign_blocks_list_the_same_md():
    # the sign -1 block's md at lattice index k is the sign +1 block's at
    # -k, and the index ranges are mirror images, so the two blocks hold
    # the same multiset of md (ROADMAP item 11, step 2)
    from collections import Counter

    for params in grid_params() + [gz_params(p=p, d=d, D=D) for p, d, D in LARGE_TRIPLES]:
        blocks = {1: Counter(), -1: Counter()}
        for term in enumerate_terms(params):
            blocks[term.sign][term.md] += 1
        assert blocks[1] == blocks[-1], params


def test_sieve_primes_are_2_p_and_the_primes_where_dD_is_a_square():
    # up to the square root of the largest md: 2 and p, tried at every
    # index, and each other l where g^2 dD is a square, with its roots
    for params in grid_params() + [gz_params(p=p, d=d, D=D) for p, d, D in LARGE_TRIPLES]:
        p, g, dD = params.p, params.g, params.d * params.D
        limit = isqrt(dD // (4 * p))
        assert all(isqrt(term.md) <= limit for term in enumerate_terms(params))
        primes = sieve_primes(params)
        assert [l for l, _, _ in primes] == [
            q for q in range(2, limit + 1)
            if is_prime(q) and (q in (2, p) or dD % q == 0 or pow(dD, (q - 1) // 2, q) == 1)]
        for l, inverse, roots in primes:
            if l in (2, p):
                assert roots == ()
                continue
            assert inverse * 2 * g * p % l == 1
            assert sorted(roots) == [r for r in range(l) if (r * r - g * g * dD) % l == 0]


def test_no_term_is_sieved_by_an_excluded_prime(monkeypatch):
    # one list of sieve primes per evaluation, made before any term is
    # scored; it holds no l not dividing 2p with (dD | l) = -1, so no m*D
    # is divided by such an l
    from cmforge import gzrhs

    for p, d, D in ((2, 7, 12228), (3, 11, 24756), (5, 11, 9060), (47, 39, 400003)):
        params = gz_params(p, d, D)
        lists, scored = [], []

        def recording(params):
            lists.append((len(scored), sieve_primes(params)))
            return lists[-1][1]

        def scoring(term, *args):
            scored.append(term)
            return term_contribution(term, *args)

        monkeypatch.setattr(gzrhs, "sieve_primes", recording)
        monkeypatch.setattr(gzrhs, "term_contribution", scoring)
        gz_log_norm(params)
        monkeypatch.undo()
        dD = d * D
        excluded = {q for q in primes_up_to(isqrt(dD)) if (2 * p) % q and kronecker(dD, q) == -1}
        [(before, primes)] = lists
        assert before == 0 and primes, params
        assert not {l for l, _, _ in primes} & excluded, params


@settings(max_examples=200, deadline=None)
@given(params=lattice_params())
def test_the_sieve_factors_every_term_as_factorize_does(params):
    # one sieve of the +1 block serves both blocks: each md's factorization
    # is factorize's, term by term in enumerate_terms order
    terms = enumerate_terms(params)
    assert list(factor_terms(params, terms)) == [factorize(term.md) for term in terms]


def sieve_grid():
    """At each genus-zero p, the largest admissible D below 3000 prime to
    p, divisible by p and divisible by 4p (mu = 0, g = 2p), each with the
    largest admissible d besides it."""
    out = []
    for p, admissible in sorted(ADMISSIBLE_BELOW_3000.items()):
        for kind in (lambda D: D % p, lambda D: D % p == 0, lambda D: D % (4 * p) == 0):
            D = next((D for D in reversed(admissible) if kind(D)), None)
            if D is not None:
                out.append(gz_params(p, next(d for d in reversed(admissible) if d != D), D))
    return out


def test_the_sieve_meets_each_kind_of_prime_on_a_fixed_grid():
    # the grid reaches every way a prime enters a factorization: 2 and p at
    # every index, a sieved l dividing dD (one class) and one not dividing
    # it (two classes), each to the first power and with l^2 | m*D, and a
    # prime cofactor above the sieve's bound
    reached = set()
    grid = sieve_grid()
    assert {params.p for params in grid} == set(ADMISSIBLE_BELOW_3000)
    assert any(params.g == 2 * params.p for params in grid)
    for params in grid:
        p, dD = params.p, params.d * params.D
        limit = isqrt(dD // (4 * p))
        terms = enumerate_terms(params)
        for term, md_factors in zip(terms, factor_terms(params, terms)):
            assert md_factors == factorize(term.md), (params, term)
            for l, e in md_factors.factors:
                if l > limit:
                    reached.add("cofactor")
                elif l in (2, p):
                    reached.add(l == 2 or "p")
                else:
                    reached.add(("divides dD" if dD % l == 0 else "two classes", min(e, 2)))
    assert reached == {True, "p", "cofactor", ("divides dD", 1), ("divides dD", 2),
                       ("two classes", 1), ("two classes", 2)}


@pytest.mark.parametrize("mu", [None, 2])
def test_create_factors_D_once(monkeypatch, mu):
    # one factorization of D serves the fundamental check, the residue choice
    # and the scoring; D/4 is not factored on the side
    from cmforge import arith, cmvalue, gzrhs, quadforms

    D = 12228
    calls = []
    original = arith.factorize

    def counting(n):
        calls.append(n)
        return original(n)

    for module in (arith, cmvalue, gzrhs, quadforms):
        monkeypatch.setattr(module, "factorize", counting, raising=False)
    params = gz_params(p=2, d=7, D=D, mu=mu)
    assert [n for n in calls if n in (D, D // 4)] == [D]
    assert params.chi.factors == original(D)
    assert params == gz_params(p=2, d=7, D=D, mu=params.mu, beta=params.beta)


def test_create_tests_p_once_and_factors_d_once(monkeypatch):
    # one primality test of p and one factorization each of D and d serve
    # the residue choice and the constructor; factorize proves the primes of
    # D and d as it finds them, so no primality test runs again
    from cmforge import arith, cmvalue, gzrhs, quadforms

    factored, tested = [], []
    factorize_, is_prime_ = arith.factorize, arith.is_prime

    def counting_factorize(n):
        factored.append(n)
        return factorize_(n)

    def counting_is_prime(n):
        tested.append(n)
        return is_prime_(n)

    for module in (arith, cmvalue, gzrhs, quadforms):
        monkeypatch.setattr(module, "factorize", counting_factorize, raising=False)
        monkeypatch.setattr(module, "is_prime", counting_is_prime, raising=False)
    params = gz_params(2, 7, 12228)
    assert factored == [12228, 7]
    assert tested == [2]
    assert (params.p, params.chi.factors) == (2, factorize_(12228))


FUNDAMENTAL_D = [n for n in range(5, 700) if is_fundamental_discriminant(-n)]


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([q for q in range(2, 72) if is_prime(q)]), data=st.data())
def test_params_from_certified_facts_equal_params_from_scratch(p, data):
    # a caller that has checked p, d and D builds the record from p and D's
    # field: the params, and the norm they score to, are the ones gz_params
    # parses from the integers, residues given or chosen
    admissible = [n for n in FUNDAMENTAL_D if square_roots_mod_4p(-n, p)]
    assume(len(admissible) >= 2)
    d, D = data.draw(st.lists(st.sampled_from(admissible), min_size=2, max_size=2, unique=True))
    scratch = gz_params(p, d, D)
    chi = QuadraticCharacter(fundamental(-D))
    mu = data.draw(st.sampled_from(square_roots_mod_4p(-D, p)))
    beta = data.draw(st.sampled_from(square_roots_mod_4p(-d, p)))
    for record, parsed in ((GZParams(p, d, chi, scratch.mu, scratch.beta), scratch),
                           (GZParams(p, d, chi, mu, beta), gz_params(p, d, D, mu, beta))):
        assert record == parsed and hash(record) == hash(parsed)
        assert record.chi.factors == parsed.chi.factors
        for variant in (RAMIFIED_OF_MD, RAMIFIED_OF_M):
            assert gz_log_norm(record, variant) == gz_log_norm(parsed, variant)


def test_params_read_p_and_D_off_their_facts():
    # D is the field's value, so it cannot disagree with it; the rules the
    # facts do not cover are still refused by the record itself
    chi = QuadraticCharacter(factorize(163))
    params = GZParams(47, 39, chi, 5 + 94, 33)
    assert (params.p, params.D, params.mu, params.g) == (47, 163, 5, 1)
    assert params == gz_params(47, 39, 163)
    other = GZParams(47, 39, QuadraticCharacter(factorize(67)), 11, 33)
    assert other.D == 67 and other != params
    with pytest.raises(ParameterError, match="^d must exceed 4, got 3$"):
        GZParams(47, 3, chi, 5, 33)
    with pytest.raises(ParameterError, match="^D must exceed 4, got 4$"):
        GZParams(47, 39, QuadraticCharacter(factorize(4)), 5, 33)
    with pytest.raises(ParameterError, match="^d and D must be distinct$"):
        GZParams(47, 163, chi, 5, 5)
    with pytest.raises(ParameterError, match="^mu=6 is not admissible for -163 mod 188$"):
        GZParams(47, 39, chi, 6, 33)
    with pytest.raises(ParameterError, match="^beta=40 is not admissible for -39 mod 188$"):
        GZParams(47, 39, chi, 5, 40)


def test_enumerate_terms_ceiling_counts_terms_exactly(monkeypatch):
    # the count checked against MAX_LATTICE_TERMS before the loop is the
    # number of terms the loop yields, for both signs and every edge case
    from cmforge import gzrhs

    cases = grid_params() + [gz_params(p=p, d=d, D=D) for p, d, D in LARGE_TRIPLES]
    for params in cases:
        count = len(enumerate_terms(params))
        monkeypatch.setattr(gzrhs, "MAX_LATTICE_TERMS", count)
        assert len(enumerate_terms(params)) == count
        monkeypatch.setattr(gzrhs, "MAX_LATTICE_TERMS", count - 1)
        with pytest.raises(ParameterError, match=f"^{count} lattice terms exceed"):
            enumerate_terms(params)
        monkeypatch.undo()


def test_run_crosscheck_enumerates_lattice_once(monkeypatch):
    # both ramified variants come out of one enumeration and one scoring pass
    from cmforge import crosscheck, gzrhs

    calls = []
    original = gzrhs.enumerate_terms

    def counting(params):
        calls.append(params)
        return original(params)

    for module in (gzrhs, crosscheck):
        monkeypatch.setattr(module, "enumerate_terms", counting, raising=False)
    res = crosscheck.run_crosscheck(Hauptmodul(2), 7, 15)
    assert len(calls) == 1
    assert res.passes == {RAMIFIED_OF_MD: True, RAMIFIED_OF_M: False}
    assert res.variants_differ


def reference_rho(n, D):
    count = 1
    for q, e in factorize(n).factors:
        chi = kronecker(-D, q)
        if chi == 1:
            count *= e + 1
        elif chi == -1 and e % 2:
            return 0
    return count


def reference_obstructed(term, params):
    """The places where hilbert_symbol(-m*D*p*D, -D) is -1, over 2 and the
    primes of D, p and m*D."""
    md, D, N = term.md, params.D, params.p
    x = -md * N * D
    candidates = {2, *(q for n in (D, N, md) for q, _ in factorize(n).factors)}
    return [q for q in sorted(candidates) if hilbert_symbol(x, -D, q) == -1]


def reference_contribution(term, params, ramified_exponent):
    """Exponent map of one term by the per-symbol formula: ord_q and hilbert_symbol
    at each scanned prime, and rho of a freshly factored m*D or m*D/q."""
    md, D = term.md, params.D
    obstructed = reference_obstructed(term, params)
    if len(obstructed) != 1:
        return {}
    q = obstructed[0]
    weight = 2 ** (sum(1 for r, _ in factorize(D).factors if md % r == 0) + 1)
    chi = kronecker(-D, q)
    assert chi != 1
    if chi == -1:
        coeff = weight * (ord_q(md, q) + 1) * reference_rho(md // q, D)
    else:
        order = ord_q(md, q)
        if ramified_exponent == RAMIFIED_OF_M:
            order -= ord_q(D, q)
        coeff = weight * order * reference_rho(md, D)
    return {q: coeff} if coeff else {}


#: Triples with p | d or p | D, so that the scorer meets q = p (only when
#: p | D: otherwise -D is a nonzero square mod 4p and p splits) and an odd
#: ramified q of even order (only when q | gcd(d, D): otherwise the lattice
#: congruence gives ord_q(m*D) = 1).
BRANCH_TRIPLES = ((2, 20, 8), (3, 24, 15), (2, 56, 7))

#: The scorer's branches as (chi_{-D}(q), q == 2, q == p, ord_q(m*D) mod 2)
#: of the one obstructed prime q, and "zero" for every other term.  An
#: obstructed inert q has odd order and is neither p nor a split prime.
SCAN_BRANCHES = {
    "zero",
    (-1, False, False, 1), (-1, True, False, 1),
    (0, False, False, 1), (0, False, False, 0), (0, True, False, 1), (0, True, False, 0),
    (0, False, True, 1), (0, False, True, 0), (0, True, True, 1), (0, True, True, 0),
}


def scan_branch(term, params):
    obstructed = reference_obstructed(term, params)
    if len(obstructed) != 1:
        return "zero"
    q = obstructed[0]
    return kronecker(-params.D, q), q == 2, q == params.p, ord_q(term.md, q) % 2


def test_term_contribution_matches_per_symbol_reference():
    cases = grid_params() + [gz_params(p=p, d=d, D=D)
                             for p, d, D in LARGE_TRIPLES + BRANCH_TRIPLES]
    reached = set()
    for params in cases:
        for term, contribution in zip(*score_terms(params)):
            reached.add(scan_branch(term, params))
            for variant in (RAMIFIED_OF_MD, RAMIFIED_OF_M):
                expected = reference_contribution(term, params, variant)
                assert PrimeLogSum.total([contribution], variant).exponents == expected, \
                    (params, term)
            assert contribution.is_zero() == (
                not reference_contribution(term, params, RAMIFIED_OF_MD)
                and not reference_contribution(term, params, RAMIFIED_OF_M))
    assert reached == SCAN_BRANCHES


def test_the_sieve_refuses_bad_input_and_tests_nothing(monkeypatch):
    # a term list that is not the lattice's, or a sieve class that its prime
    # does not divide, is refused; each factorization the sieve yields is
    # proven without a primality test
    from cmforge import arith, gzrhs

    params = gz_params(p=47, d=39, D=163)
    terms = enumerate_terms(params)
    expected = [factorize(term.md) for term in terms]
    with pytest.raises(InternalError, match=f"^{len(terms) - 1} terms given, not the "
                                            f"{len(terms)} of the lattice$"):
        list(factor_terms(params, terms[1:]))
    tested, original = [], arith.is_prime

    def counting(n):
        tested.append(n)
        return original(n)

    for module in (arith, gzrhs):
        monkeypatch.setattr(module, "is_prime", counting, raising=False)
    assert list(factor_terms(params, terms)) == expected
    assert tested == []
    wrong = [(l, inverse, tuple(r + 1 for r in roots) if roots else roots)
             for l, inverse, roots in sieve_primes(params)]
    monkeypatch.setattr(gzrhs, "sieve_primes", lambda params: wrong)
    with pytest.raises(InternalError, match="^3 does not divide m\\*D = [0-9]+ at its sieve class$"):
        list(factor_terms(params, terms))


def test_term_contribution_keeps_its_checks(monkeypatch):
    # obstruction sets the local symbols never produce (an inert prime not
    # dividing m*D, a split prime) are refused rather than scored
    from cmforge import gzrhs

    params = gz_params(p=47, d=39, D=163)
    term = enumerate_terms(params)[0]
    md_factors = factorize(term.md)
    primes = (2, 3, 5, 7, 11, 13, 41, 43, 47)
    inert = next(q for q in primes if kronecker(-163, q) == -1 and term.md % q)
    split = next(q for q in primes if kronecker(-163, q) == 1)
    monkeypatch.setattr(gzrhs, "diff_set", lambda *args: (inert,))
    with pytest.raises(InternalError, match=f"^m\\*D/{inert} is not integral"):
        term_contribution(term, params, md_factors)
    monkeypatch.setattr(gzrhs, "diff_set", lambda *args: (split,))
    with pytest.raises(InternalError, match="split prime"):
        term_contribution(term, params, md_factors)


def test_primelogsum_total():
    # sums the coefficients of one ramified exponent straight from the terms
    parts = [TermContribution(2, 3, 3), TermContribution(5, 1, 1), TermContribution(),
             TermContribution(2, -3, -3), TermContribution(7, 2, 0), TermContribution(3, 0, 4)]
    assert exponent_map(PrimeLogSum.total(parts, RAMIFIED_OF_MD)) == {5: 1, 7: 2}
    assert exponent_map(PrimeLogSum.total(parts, RAMIFIED_OF_M)) == {3: 4, 5: 1}
    assert PrimeLogSum.total([], RAMIFIED_OF_MD).exponents == {}
    with pytest.raises(ParameterError):
        PrimeLogSum.total([], "bogus")


def test_edge_convention_pairs_crosscheck():
    # mu = 0 (so g = 2p), beta = p (mirror sum duplicates the beta sum), and a
    # non-coprime discriminant pair all in one: gcd(39, 52) = 13 = p
    from cmforge.crosscheck import run_crosscheck

    params = gz_params(p=13, d=39, D=52)
    assert (params.mu, params.beta, params.g) == (0, 13, 26)
    res = run_crosscheck(Hauptmodul(13), 39, 52)
    assert res.passes[RAMIFIED_OF_MD]
    assert res.discrepancy[RAMIFIED_OF_MD] < 1e-80


def test_primelogsum_algebra():
    cleaned = PrimeLogSum({2: 3, 3: 0, 5: 2})
    assert exponent_map(cleaned) == {2: 3, 5: 2}
    assert all(type(e) is int for e in cleaned.exponents.values())
    assert PrimeLogSum({2: 0}).exponents == {}
    assert abs(PrimeLogSum({4: 1}).log_value() - math.log(4)) < 1e-15
    assert not PrimeLogSum({2: -1}).nonnegative_integral()
    assert PrimeLogSum({2: 1}).nonnegative_integral()
    # exponents are integers; a rational or float one is refused, not rounded
    for bad in (Fraction(1, 2), Fraction(3), 0.5):
        with pytest.raises(ParameterError):
            PrimeLogSum({2: bad})


def test_log_value_mpf_is_the_prime_log_sum_within_its_bound():
    # within half an ulp plus 2^-(prec+30) * sum |e_q| log q of the sum taken
    # 64 bits finer; {2: 10^8} and the 500-prime sum stand for 8th powers of
    # 10^8 bits and more, and 2^301994 / 3^190537 cancels to 6.5e-8, where
    # the sum of |e_q| log q is 4.2e5
    rng = random.Random(17)
    cases = [{2: 10 ** 8}, {3: 8 * 10 ** 6, 7: -5 * 10 ** 6, 1000003: 16},
             {q: rng.randrange(-10 ** 5, 10 ** 5) for q in primes_up_to(3571)},
             {2: 301994, 3: -190537}]
    for digits in (30, 80, 300):
        ctx = working_context(digits)
        for exponents in cases:
            logged, prec = PrimeLogSum(exponents).log_value_mpf(ctx), ctx.prec
            with ctx.workprec(prec + 64):
                direct = ctx.fsum(e * ctx.log(q) for q, e in exponents.items())
                size = ctx.fsum(abs(e) * ctx.log(q) for q, e in exponents.items())
                bound = ctx.ldexp(abs(direct), -prec) + ctx.ldexp(size, -prec - 30)
                assert abs(logged - direct) <= bound, (digits, exponents)


def test_norm_and_integrality():
    assert gz_log_norm(gz_params(p=47, d=39, D=163)).norm() == 217
    assert gz_log_norm(gz_params(p=47, d=11, D=19)).norm() == 1
    assert PrimeLogSum({2: 16, 7: 8}).norm() == 28
    for exponents, shown in (({2: 4}, "1/2"), ({2: -8}, "-1"), ({2: -48}, "-6"),
                             ({3: 12}, "3/2"), ({5: -6}, "-3/4")):
        with pytest.raises(NonIntegralMagnitudeError,
                           match=f"^norm exponent {shown} of prime "):
            PrimeLogSum(exponents).norm()
    with pytest.raises(ParameterError):
        PrimeLogSum({2: Fraction(8, 3)})
    # of_m puts a negative exponent on 2 here
    with pytest.raises(NonIntegralMagnitudeError):
        gz_log_norm(gz_params(p=2, d=8, D=52), RAMIFIED_OF_M).norm()


@settings(max_examples=200, deadline=None)
@given(exponents=st.dictionaries(st.integers(2, 10 ** 6), st.integers(-3, 40), max_size=40))
def test_norm_product_tree_equals_the_product_taken_one_by_one(exponents):
    # norm multiplies up a balanced tree; the product taken one prime power at
    # a time, in sorted order, is the oracle, and so is the refusal: the
    # first prime in sorted order whose exponent fails is the one named
    value = PrimeLogSum({q: 8 * e for q, e in exponents.items()})
    if all(e >= 0 for e in exponents.values()):
        one_by_one = 1
        for q, e in sorted(value.exponents.items()):
            one_by_one *= q ** (e // 8)
        assert value.norm() == one_by_one
    else:
        first = min(q for q, e in exponents.items() if e < 0)
        with pytest.raises(NonIntegralMagnitudeError, match=f" of prime {first} is not"):
            value.norm()
    odd = PrimeLogSum({q: 8 * abs(e) + (q % 7 == 0) * 4 for q, e in exponents.items()})
    if any(q % 7 == 0 and e for q, e in odd.exponents.items()):
        first = min(q for q, e in odd.exponents.items() if e % 8)
        with pytest.raises(NonIntegralMagnitudeError, match=f" of prime {first} is not"):
            odd.norm()


def test_square_dd_guard_unreachable():
    # distinct fundamental discriminants never have square product; the
    # internal guard still exists for malformed hand-built params
    params = gz_params(p=2, d=7, D=15)
    assert enumerate_terms(params)  # no InternalError
    with pytest.raises(InternalError):
        object.__setattr__(params, "d", 15)  # force d == D past validation
        enumerate_terms(params)
