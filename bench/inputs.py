"""Seeded workload inputs, built without calling cmforge.

A change to cmforge's own feasibility or pair discovery must not change what
the benchmark runs, so the arithmetic needed to pick inputs lives here:
fundamental discriminants, residues mod 4p and class numbers by counting
reduced forms.  The classpoly sweep is rebuilt from these rules and compared
with the frozen case list; the gznorm and crosscheck workloads draw their
inputs from frozen pools whose expected outputs were recorded once (see
record.py).

A run repeats passes over the seed's operation list.  For the pooled
workloads a pass is the whole frozen pool, cut into rounds that hold one
candidate of every cell each, so every seed runs the same operations and the
seed sets their order.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Primes whose Fricke curve has genus zero.
GENUS_ZERO_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 47, 59, 71)
#: |D| of the nine imaginary quadratic fields with class number one.
CLASS_NUMBER_ONE = (3, 4, 7, 8, 11, 19, 43, 67, 163)
#: Primes with a closed-form generator, so crosscheck can evaluate them.
ETA_QUOTIENT_PRIMES = (2, 3, 5, 7, 13)

CLASSPOLY_MAX_D = 400
CROSSCHECK_PRECISION = 300
CROSSCHECK_MAX_DISC = 300

# Pool layout.  Changing any of these changes the pools, so they are frozen
# together with the recorded outputs.  The candidates of one cell cost about
# the same.  The cell counts (45 and 25) put the median and the 90th
# percentile inside a cell rather than on the boundary between two, where the
# gap between cell costs would make them jump.
#: Candidates per cell; a pass runs them all, about 20 s on a 2 GHz core.
POOL_CANDIDATES = {"gznorm_large": 3, "crosscheck_300": 5}
#: gznorm cells per prime: (rank of d among p's admissible d, band of D).
GZNORM_CELLS = ((0, (12_000, 13_000)), (1, (24_000, 26_000)), (0, (48_000, 52_000)))
#: crosscheck cells per prime: h(-d) + h(-D), the number of CM points evaluated.
CROSSCHECK_POINTS = (4, 6, 8, 10, 12)

WORKLOADS = ("classpoly_sweep", "gznorm_large", "crosscheck_300")

# One small fixed operation per workload, run before timing so that lazy
# set-up (mpmath constants at the working precision) is paid in set-up.
WARMUP_ARGV = {
    "classpoly_sweep": ["--format", "json", "classpoly", "--p", "47", "--d", "39"],
    "gznorm_large": ["--format", "json", "gznorm", "--p", "47", "--d", "39", "--D", "163"],
    "crosscheck_300": ["--precision", str(CROSSCHECK_PRECISION), "--format", "json",
                       "crosscheck", "--p", "5", "--d", "11", "--D", "19"],
}


def _squarefree(n: int) -> bool:
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def is_fundamental(d: int) -> bool:
    """Whether -d (d > 0) is a fundamental discriminant."""
    if d % 4 == 3:
        return _squarefree(d)
    if d % 4 == 0:
        return (d // 4) % 4 in (1, 2) and _squarefree(d // 4)
    return False


def admissible(d: int, p: int) -> bool:
    """Whether -d is a square mod 4p."""
    return any((beta * beta + d) % (4 * p) == 0 for beta in range(2 * p))


def class_number(d: int) -> int:
    """h(-d), counting reduced primitive forms of discriminant -d."""
    h = 0
    a = 1
    while 3 * a * a <= d:
        for b in range(-a + 1, a + 1):
            if (b * b + d) % (4 * a):
                continue
            c = (b * b + d) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if gcd(a, b, c) == 1:
                h += 1
        a += 1
    return h


def usable_degree_one(p: int) -> list[int]:
    """|D| > 4 of class number one that are squares mod 4p."""
    return [D for D in CLASS_NUMBER_ONE if D > 4 and admissible(D, p)]


def admissible_discs(p: int, lo: int, hi: int) -> list[int]:
    """d in [lo, hi) with d > 4, -d fundamental and a square mod 4p."""
    return [d for d in range(max(lo, 5), hi) if is_fundamental(d) and admissible(d, p)]


def classpoly_cases() -> list[tuple[int, int]]:
    """Every (p, d <= 400) with enough degree-one discriminants to interpolate."""
    cases = []
    for p in GENUS_ZERO_PRIMES:
        room = len(usable_degree_one(p))
        for d in admissible_discs(p, 5, CLASSPOLY_MAX_D + 1):
            if class_number(d) + 1 <= room:
                cases.append((p, d))
    return cases


def gznorm_pool() -> list[list[tuple[int, int, int]]]:
    """Cells (p, d, D band) of distinct (p, d, D) triples with D of order 10^4.

    The term count, about 2*sqrt(d*D)/p, is fixed by the cell up to the
    band's width.
    """
    rng = random.Random("gznorm_large/pool")
    cells = []
    for p in GENUS_ZERO_PRIMES:
        small = admissible_discs(p, 5, 100)
        for rank, (lo, hi) in GZNORM_CELLS:
            d = small[rank]
            cell = set()
            while len(cell) < POOL_CANDIDATES["gznorm_large"]:
                D = rng.randrange(lo, hi)
                if is_fundamental(D) and admissible(D, p):
                    cell.add((p, d, D))
            cells.append(sorted(cell))
    return cells


def crosscheck_pool() -> list[list[tuple[int, int, int]]]:
    """Cells (p, CM points) of distinct (p, d, D) pairs with d < D <= 300.

    A pair costs about 15 ms per CM point at 300 digits, so the cell fixes
    the cost up to the spread of the points' heights.
    """
    rng = random.Random("crosscheck_300/pool")
    cells = []
    for p in ETA_QUOTIENT_PRIMES:
        discs = admissible_discs(p, 5, CROSSCHECK_MAX_DISC + 1)
        h = {d: class_number(d) for d in discs}
        for points in CROSSCHECK_POINTS:
            pairs = [(p, d, D) for D in discs for d in discs if d < D and h[d] + h[D] == points]
            cells.append(sorted(rng.sample(pairs, POOL_CANDIDATES["crosscheck_300"])))
    return cells


def argv_for(workload: str, key: tuple[int, ...]) -> list[str]:
    """The exact cmforge command line of one operation."""
    if workload == "classpoly_sweep":
        p, d = key
        return ["--format", "json", "classpoly", "--p", str(p), "--d", str(d)]
    p, d, D = key
    if workload == "gznorm_large":
        return ["--format", "json", "gznorm", "--p", str(p), "--d", str(d), "--D", str(D)]
    return ["--precision", str(CROSSCHECK_PRECISION), "--format", "json",
            "crosscheck", "--p", str(p), "--d", str(d), "--D", str(D)]


def load_expected(workload: str) -> dict:
    with open(EXPECTED_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _items(expected: dict) -> list[dict]:
    if "cases" in expected:
        return expected["cases"]
    return [item for cell in expected["cells"] for item in cell]


class Plan:
    """One seeded pass of operation keys for a workload, with their expectations."""

    def __init__(self, workload: str, seed: int, expected: dict):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self._expected = {tuple(item["key"]): item for item in _items(expected)}
        rng = random.Random(f"{workload}/{seed}")
        if workload == "classpoly_sweep":
            self.ops = classpoly_cases()
            if sorted(self.ops) != sorted(self._expected):
                raise RuntimeError("classpoly cases differ from the frozen case list")
            rng.shuffle(self.ops)
        else:
            cells = [[tuple(item["key"]) for item in cell] for cell in expected["cells"]]
            orders = [rng.sample(cell, len(cell)) for cell in cells]
            self.ops = []
            for r in range(POOL_CANDIDATES[workload]):
                keys = [order[r] for order in orders]
                rng.shuffle(keys)
                self.ops.extend(keys)

    def expected_for(self, key) -> dict:
        return self._expected[key]

    def argv(self, key) -> list[str]:
        return argv_for(self.workload, key)
