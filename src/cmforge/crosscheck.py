"""Comparison of the exact prime-log sum against the numeric evaluator.

The relative tolerance is pinned at 1e-8; runs at the default 80 digits land
many orders of magnitude below it when the exact side is correct, so a FAIL is
a genuine disagreement, not noise.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice

from .arith import fundamental_factors, require_prime
from .errors import ParameterError
from .gzrhs import (
    DEFAULT_RAMIFIED_EXPONENT,
    RAMIFIED_OF_M,
    RAMIFIED_OF_MD,
    GZParams,
    PrimeLogSum,
    enumerate_terms,
    term_contribution,
)
from .hauptmodul import Hauptmodul, check_lhs_digits, lhs_log_norm
from .quadforms import square_roots_mod_4p

RELATIVE_TOLERANCE = 1e-8


@dataclass
class CrosscheckResult:
    p: int
    d: int
    D: int
    beta: int
    mu: int
    lhs: float
    lhs_error_estimate: float
    rhs: dict = field(default_factory=dict)          # variant -> float value
    discrepancy: dict = field(default_factory=dict)  # variant -> relative discrepancy
    passes: dict = field(default_factory=dict)       # variant -> bool
    variants_differ: bool = False

    def passed(self, variant: str = DEFAULT_RAMIFIED_EXPONENT) -> bool:
        return self.passes[variant]


def run_crosscheck(hm: Hauptmodul, d: int, D: int) -> CrosscheckResult:
    """Evaluate both sides for one discriminant pair at the smallest residues."""
    check_lhs_digits(hm)  # before the lattice work, which no precision changes
    p = hm.p
    params = GZParams(p, d, D)
    # one scoring pass gives both ramified variants
    contributions = [term_contribution(term, params) for term in enumerate_terms(params)]
    sums = {variant: PrimeLogSum.total(contributions, variant)
            for variant in (RAMIFIED_OF_MD, RAMIFIED_OF_M)}
    ctx = hm.ctx
    lhs_value, lhs_error = lhs_log_norm(hm, params.d, params.beta, params.D, params.mu)
    result = CrosscheckResult(
        p=p, d=params.d, D=params.D, beta=params.beta, mu=params.mu,
        lhs=float(lhs_value), lhs_error_estimate=float(lhs_error),
        variants_differ=sums[RAMIFIED_OF_MD] != sums[RAMIFIED_OF_M],
    )
    denom = max(ctx.mpf(1), abs(lhs_value))
    for variant, pls in sums.items():
        rhs_value = pls.log_value_mpf(ctx)
        rel = float(abs(rhs_value - lhs_value) / denom)
        result.rhs[variant] = float(rhs_value)
        result.discrepancy[variant] = rel
        result.passes[variant] = rel < RELATIVE_TOLERANCE
    return result


def admissible_discriminants(p: int, max_disc: int = 500) -> Iterator[int]:
    """Positive d <= max_disc with -d fundamental, d > 4, and -d a square mod 4p,
    in increasing order.  p is tested for primality once, and each candidate
    is factored at most once (fundamental_factors tests the congruence first)."""
    require_prime(p)
    for d in range(5, max_disc + 1):
        if fundamental_factors(-d) is not None and square_roots_mod_4p(-d, p):
            yield d


def admissible_pairs(p: int, max_disc: int = 500, count: int = 5) -> list[tuple[int, int]]:
    """First `count` admissible (d, D) pairs with d < D, ordered by (d + D, d).

    They lie among the first count + 1 admissible discriminants d_0 < d_1 < ...:
    a pair with D beyond d_count has a larger sum than each of the `count`
    pairs (d_0, d_j), so the scan stops there.
    """
    if count < 1:
        raise ParameterError(f"pair count must be at least 1, got {count}")
    discs = list(islice(admissible_discriminants(p, max_disc), count + 1))
    available = len(discs) * (len(discs) - 1) // 2
    if available < count:
        raise ParameterError(
            f"only {available} admissible pairs exist for p={p} below {max_disc}"
        )
    pairs = ((a, b) for i, a in enumerate(discs) for b in discs[i + 1:])
    return heapq.nsmallest(count, pairs, key=lambda pair: (pair[0] + pair[1], pair[0], pair[1]))
