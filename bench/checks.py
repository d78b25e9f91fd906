"""Output checks against the expectations recorded in expected/.

Each operation ends in one of three outcomes:

- ``solved``: exit 0 and the answer passed its check;
- ``declined``: a documented decline, exit 2 (ambiguous signs, invalid
  parameters) or exit 5 (infeasible);
- ``failed``: exit 3, any undocumented exit code, an exception escaping the
  CLI, or an answer that failed its check.  The last kind is ``wrong``; a
  run with a wrong answer is not correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

SOLVED, DECLINED, FAILED = "solved", "declined", "failed"
DOCUMENTED_DECLINES = (2, 5)
EXIT_INTERNAL = 3


@dataclass(frozen=True)
class Outcome:
    kind: str
    reason: str = ""
    wrong: bool = False


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _result(stdout: str):
    return json.loads(stdout)["result"]


def _by_exit(rc) -> Outcome | None:
    """Outcome fixed by the exit code alone; None when the answer must be read."""
    if rc == 0:
        return None
    if rc in DOCUMENTED_DECLINES:
        return Outcome(DECLINED, f"exit {rc}")
    if rc == EXIT_INTERNAL:
        return Outcome(FAILED, "exit 3 (internal)")
    return Outcome(FAILED, f"undocumented exit {rc!r}")


def _wrong(reason: str) -> Outcome:
    return Outcome(FAILED, reason, wrong=True)


def check_classpoly(expected: dict, rc, stdout: str) -> Outcome:
    """Outcome class, polynomial and magnitude table of one classpoly case.

    A case recorded as solved must reproduce the recorded polynomial and
    magnitude table.  A case recorded as declined or failed that now answers
    counts as solved only if the polynomial is monic of degree h(-d), passes
    through its signed pairs, and the magnitudes match those recorded.
    """
    by_exit = _by_exit(rc)
    if by_exit is not None:
        return by_exit
    try:
        result = _result(stdout)
        coeffs = [int(c) for c in result["coefficients"]]
        pairs = [(int(pr["D"]), int(pr["x"]), int(pr["y"]),
                  int(pr["x_mag"]), int(pr["y_mag"])) for pr in result["pairs"]]
    except (ValueError, KeyError, TypeError) as exc:
        return _wrong(f"unreadable classpoly output: {exc!r}")
    table = [[D, xm, ym] for D, _, _, xm, ym in pairs]
    if expected["exit"] == 0 and coeffs != expected["coefficients"]:
        return _wrong(f"polynomial {coeffs} != recorded {expected['coefficients']}")
    if expected["magnitudes"] is not None and table != expected["magnitudes"]:
        return _wrong("magnitude table differs from the recorded one")
    if not coeffs or coeffs[-1] != 1 or len(coeffs) - 1 != expected["h"]:
        return _wrong(f"not monic of degree h(-d) = {expected['h']}: {coeffs}")
    for D, x, y, xm, ym in pairs:
        if abs(x) != xm or abs(y) != ym:
            return _wrong(f"signed pair at D={D} disagrees with its magnitudes")
        value = 0
        for c in reversed(coeffs):
            value = value * x + c
        if value != y:
            return _wrong(f"polynomial misses the pair ({x}, {y}) at D={D}")
    return Outcome(SOLVED)


def check_gznorm(expected: dict, rc, stdout: str) -> Outcome:
    """Byte-identical canonical JSON ``result``."""
    by_exit = _by_exit(rc)
    if by_exit is not None:
        return by_exit
    try:
        got = canonical(_result(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return _wrong(f"unreadable gznorm output: {exc!r}")
    if got != expected["result"]:
        return _wrong("result differs from the recorded one")
    return Outcome(SOLVED)


def check_crosscheck(expected: dict, rc, stdout: str, digits: int) -> Outcome:
    """PASS for of_mD, both sides agreeing to `digits` digits, values as recorded.

    Exit 4 (the program reports a disagreement) on a pair recorded as passing
    is a wrong answer.  The recorded numeric and exact values guard against a
    change that makes the two sides agree by moving both.
    """
    if rc == 4:
        return _wrong("exit 4: crosscheck reported a disagreement")
    by_exit = _by_exit(rc)
    if by_exit is not None:
        return by_exit
    try:
        (check,) = _result(stdout)["checks"]
        status = check["status"]
        passes = check["passes"]["of_mD"]
        discrepancy = float(check["relative_discrepancy"]["of_mD"])
        lhs = float(check["lhs"])
        rhs = float(check["rhs"]["of_mD"])
    except (ValueError, KeyError, TypeError) as exc:
        return _wrong(f"unreadable crosscheck output: {exc!r}")
    if status != "PASS" or passes is not True:
        return _wrong(f"status {status}, of_mD passes={passes}")
    if Fraction(discrepancy) > Fraction(1, 10 ** digits):
        return _wrong(f"sides agree to only {discrepancy:.3e}, not 1e-{digits}")
    for name, got, want in (("lhs", lhs, expected["lhs"]), ("rhs", rhs, expected["rhs"])):
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            return _wrong(f"{name} = {got!r}, recorded {want!r}")
    return Outcome(SOLVED)
