"""The level-one eta kernel, cmforge.eta, on its public names: it takes
integer forms and an integer precision, and no mpmath context."""

import mpmath
import pytest

from cmforge import eta
from cmforge.errors import PrecisionError
from cmforge.hauptmodul import eta_with_bound, working_context
from cmforge.quadforms import reduced_forms


@pytest.mark.parametrize("m", (1, 2, 4, 6, 12, 24))
def test_class_etas_at_an_integer_precision_against_mpmath(m):
    # eta^e, e = 24/m, at every reduced form of a few discriminants, the
    # square -4 among them, from the precision alone: mpmath.eta at twice
    # the bits lies within each Ball's radius, and the radius within
    # 2^-prec of the value or, below 1, of 1
    prec = 200
    oracle = mpmath.ctx_mp.MPContext()
    oracle.prec = 2 * prec
    for size in (3, 4, 23, 71, 203):
        forms = reduced_forms(-size)
        exact = 2 if size == 4 else None
        table = eta.class_etas(prec, size, forms, m, exact)
        assert list(table) == forms
        for (a, b, _), ball in table.items():
            got, err = ball.to_mpc(oracle)
            want = oracle.eta(oracle.mpc(-b, oracle.sqrt(size)) / (2 * a)) ** (24 // m)
            bound = oracle.ldexp(max(abs(want), 1), -prec)
            assert abs(got - want) <= err <= bound, (size, a, b, m)


def test_pentagonal_sum_refuses_where_q_may_reach_one():
    # at Im(tau) = 1e-6 the term count stays below MAX_ETA_TERMS, but
    # |q| = e^(-2 pi 10^-6), read at the 16 bits the tail bound takes, may
    # reach 1, so the tail has no bound
    ctx = working_context(30)
    with pytest.raises(PrecisionError,
                       match=r"^the eta series cannot be bounded where \|q\| may reach 1$"):
        eta_with_bound(ctx.mpc(0, "1e-6"), ctx)


def test_pentagonal_sum_refuses_before_any_product(monkeypatch):
    # the refusal reads q alone, so it comes before the sum: at 10 000
    # digits, where the sum would take about 25 000 pairs, it is raised
    # at once, and the addition sequence is never walked
    import time

    ctx = working_context(10000)
    walked = []
    steps = eta.pentagonal_steps
    monkeypatch.setattr(eta, "pentagonal_steps", lambda pairs: walked.append(pairs) or steps(pairs))
    start = time.perf_counter()
    with pytest.raises(PrecisionError,
                       match=r"^the eta series cannot be bounded where \|q\| may reach 1$"):
        eta_with_bound(ctx.mpc(0, "1e-6"), ctx)
    assert time.perf_counter() - start < 2
    assert walked == []
