import random
from math import gcd, isqrt

import pytest

from cmforge.arith import is_fundamental_discriminant, is_prime
from cmforge.errors import ParameterError
from cmforge.quadforms import (
    QuadraticForm,
    admissible_residues,
    class_number,
    heegner_reps,
    reduced_forms,
    reduction_word,
)


def reduce(f):
    """The reduced form of f's class: reduction_word's at level 1."""
    return QuadraticForm(*reduction_word(f.a, f.b, f.c)[0])


def is_primitive(f):
    return gcd(gcd(f.a, f.b), f.c) == 1


def is_reduced(f):
    return (
        abs(f.b) <= f.a <= f.c
        and (f.b >= 0 or (abs(f.b) != f.a and f.a != f.c))
    )


def random_posdef_form(rng, span=40):
    a = rng.randrange(1, span)
    c = rng.randrange(1, span)
    limit = isqrt(4 * a * c - 1)
    b = rng.randrange(-limit, limit + 1)
    return QuadraticForm(a, b, c)


def apply_sl2(f, mat):
    # (a, b, c) under X -> alpha X + beta Y, Y -> gamma X + delta Y
    alpha, beta, gamma, delta = mat
    assert alpha * delta - beta * gamma == 1
    a = f.a * alpha * alpha + f.b * alpha * gamma + f.c * gamma * gamma
    b = 2 * f.a * alpha * beta + f.b * (alpha * delta + beta * gamma) + 2 * f.c * gamma * delta
    c = f.a * beta * beta + f.b * beta * delta + f.c * delta * delta
    return QuadraticForm(a, b, c)


def random_sl2(rng, steps=8):
    mat = (1, 0, 0, 1)
    for _ in range(steps):
        n = rng.randrange(-3, 4)
        a, b, c, d = mat
        if rng.random() < 0.5:
            mat = (a, b + n * a, c, d + n * c)  # translation
        else:
            mat = (b, -a, d, -c)  # inversion
    return mat


def test_reduce_frozen():
    assert reduce(QuadraticForm(1, 0, 1)) == QuadraticForm(1, 0, 1)
    assert reduce(QuadraticForm(1, 1, 10)) == QuadraticForm(1, 1, 10)
    assert reduce(QuadraticForm(2, 1, 5)) == QuadraticForm(2, 1, 5)
    assert QuadraticForm(2, 1, 5).discriminant == -39


def test_reduce_properties():
    rng = random.Random(101)
    for _ in range(400):
        f = random_posdef_form(rng)
        red = reduce(f)
        assert is_reduced(red)
        assert red.discriminant == f.discriminant
        assert reduce(red) == red


def test_reduce_is_class_invariant():
    rng = random.Random(103)
    for _ in range(300):
        f = random_posdef_form(rng)
        g = apply_sl2(f, random_sl2(rng))
        assert g.discriminant == f.discriminant
        assert reduce(g) == reduce(f)


def test_reduce_rejects_indefinite():
    # only a positive definite form can be reduced: QuadraticForm refuses any other
    with pytest.raises(ParameterError):
        QuadraticForm(1, 5, 1)
    with pytest.raises(ParameterError):
        QuadraticForm(-1, 0, -1)


def test_class_number_frozen():
    assert class_number(-39) == 4
    assert class_number(-11) == 1
    assert class_number(-47) == 5
    assert class_number(-20) == 2
    assert class_number(-163) == 1
    assert class_number(-151) == 7


def test_class_number_rejects_non_fundamental():
    with pytest.raises(ParameterError):
        class_number(-12)


def brute_force_class_count(disc):
    """Independent reduced-form count: scan b, then split 4ac = b^2 - disc."""
    count = 0
    b = disc % 2
    while 3 * b * b <= -disc:
        n4 = b * b - disc
        if n4 % 4 == 0:
            n = n4 // 4
            for a in range(max(b, 1), isqrt(n) + 1):
                if n % a:
                    continue
                c = n // a
                if gcd(gcd(a, b), c) != 1:
                    continue
                count += 1  # (a, b, c) with 0 <= b <= a <= c
                # negative b twin unless it reduces to the same form
                if 0 < b < a < c:
                    count += 1
        b += 2
    return count


def test_class_number_brute_force_to_2000():
    for disc in range(-2000, -2):
        if not is_fundamental_discriminant(disc):
            continue
        assert class_number(disc) == brute_force_class_count(disc), disc


def test_reduced_forms_are_one_reduced_form_per_class():
    # each listed form is primitive, of the discriminant and its own
    # reduction, and the list holds every class of the Heegner forms once
    for disc in range(-600, -2):
        if not is_fundamental_discriminant(disc):
            continue
        forms = [QuadraticForm(*f) for f in reduced_forms(disc)]
        assert all(f.discriminant == disc and is_primitive(f) and reduce(f) == f
                   for f in forms), disc
        assert len(set(forms)) == len(forms) == class_number(disc)
        for p in (2, 13):
            for beta in admissible_residues(disc, p)[:1]:
                assert {reduce(f) for f in heegner_reps(disc, p, beta)} == set(forms), (disc, p)
    with pytest.raises(ParameterError, match="exceeds the class number ceiling"):
        reduced_forms(-(10 ** 7) - 3)


def test_admissible_residues_frozen():
    assert 41 in admissible_residues(-11, 47)
    assert admissible_residues(-3, 2) == []
    assert admissible_residues(-39, 47) != []
    assert admissible_residues(-11, 47) == [41, 53]
    with pytest.raises(ParameterError, match="^4 is not prime$"):
        admissible_residues(-7, 4)


def test_admissible_residues_definition():
    rng = random.Random(107)
    for p in (2, 3, 5, 7, 11, 13, 47):
        for disc in (-7, -8, -11, -15, -20, -24, -39, -43):
            got = admissible_residues(disc, p)
            expected = [b for b in range(2 * p) if (b * b - disc) % (4 * p) == 0]
            assert got == expected


def test_admissible_residues_match_the_scan():
    # square roots mod p joined with the parity of beta equal the scan over
    # range(2p), for every prime p < 500 and fundamental |disc| < 2000
    discs = [-n for n in range(3, 2000) if n % 4 in (0, 3) and is_fundamental_discriminant(-n)]
    for p in (q for q in range(2, 500) if is_prime(q)):
        residues_of = {}
        for beta in range(2 * p):
            residues_of.setdefault(beta * beta % (4 * p), []).append(beta)
        for disc in discs:
            assert admissible_residues(disc, p) == residues_of.get(disc % (4 * p), []), (disc, p)


def heegner_grid_cases():
    cases = []
    for p in (2, 3, 5, 7, 13, 47):
        for d in range(5, 120):
            disc = -d
            if d % 4 not in (0, 3) or not is_fundamental_discriminant(disc):
                continue
            residues = admissible_residues(disc, p)
            if residues:
                cases.append((disc, p, residues[0]))
    return cases


def test_heegner_reps_frozen():
    assert heegner_reps(-11, 47, 41) == [QuadraticForm(47, 41, 9)]
    assert len(heegner_reps(-39, 47, 33)) == 4
    assert len(heegner_reps(-20, 3, 2)) == 2


def test_heegner_reps_grid_invariants():
    for disc, p, beta in heegner_grid_cases():
        reps = heegner_reps(disc, p, beta)
        assert len(reps) == class_number(disc)
        reduced_seen = set()
        for f in reps:
            assert f.discriminant == disc
            assert f.a % p == 0
            assert (f.b - beta) % (2 * p) == 0
            assert is_primitive(f)
            assert isinstance(f, QuadraticForm)  # positive definite by construction
            reduced_seen.add(reduce(f))
        assert len(reduced_seen) == len(reps)


def test_heegner_reps_deterministic():
    a = heegner_reps(-39, 47, 33)
    b = heegner_reps(-39, 47, 33)
    assert a == b


def test_heegner_reps_rejects_bad_residue():
    with pytest.raises(ParameterError):
        heegner_reps(-11, 47, 40)




def test_heegner_reps_factors_disc_once(monkeypatch):
    # one factorization of |disc| serves the fundamental check and the
    # class count, and the search lists each candidate's divisors without one
    from cmforge import arith

    calls = []
    original = arith.factorize

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(arith, "factorize", counting)
    assert len(heegner_reps(-39, 47, 33)) == 4
    assert calls == [39]
