"""The CLI contract over every argv the parser accepts: each call ends in a
documented exit code within a time limit, and an error is one line on stderr.

Exit 0 (an answer) and exit 4 (a cross-check that disagrees, reported on
stdout) print nothing on stderr; exits 2 and 5 print one "error: " line.
Exit 3 means a bug.  The one known case is the classpoly fit at p | d that
is Q^2 with Q linear (ROADMAP item 1): seven sweep cases exit 3 with one
"internal error: reducible" line, and no other call may.

Calls run in-process, each under an interval timer, from a derandomized
hypothesis search, so every run of the suite tries the same calls.  The
integer bands keep each call's cost small: --count and the size of d*D are
requests for work with no ceiling of their own (ROADMAP item 5): gznorm at
d*D = 7*10^9 takes 18 s.  Digits have a ceiling, MAX_DIGITS, far above the
drawn ones; eval at that ceiling takes 0.3 s at moderate points and 3.8 s at
Im(tau) = 1e-999, most of it printing the value.  Large values are drawn far
beyond those bands, where a refusal must come at once.

Argv the parser refuses, and digits above the ceiling, are drawn apart:
each ends at once in exit 2 with one "error: " line and nothing else.
"""

import contextlib
import io
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmforge.arith import is_fundamental_discriminant
from cmforge.cli import (
    EXIT_CROSSCHECK_FAILED,
    EXIT_INFEASIBLE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from cmforge.hauptmodul import GENUS_ZERO_FRICKE_PRIMES, MAX_DIGITS
from cmforge.quadforms import admissible_residues

#: (p, d) of the sweep whose search fit is Q^2 with Q linear (ROADMAP item 1).
KNOWN_REDUCIBLE = {(11, 88): 21, (11, 187): 45, (17, 51): 2, (17, 187): 10,
                   (23, 115): 3, (41, 123): 2, (47, 235): 2}

#: Seconds one call may take.
CALL_LIMIT_S = 20
#: Seconds a call refused before any work may take.
REFUSAL_LIMIT_S = 2


class CallTimedOut(BaseException):
    """Raised by the interval timer; no handler in the package catches it."""


def _timed_out(signum, frame):
    raise CallTimedOut


def call(argv):
    """(exit code, stdout, stderr) of main(argv), run under the call limit."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except CallTimedOut:
        pytest.fail(f"{argv} ran past {CALL_LIMIT_S} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv, code, out, err, reducible=None):
    """The exit code is documented and stderr carries exactly what it says."""
    if code in (EXIT_OK, EXIT_CROSSCHECK_FAILED):
        assert err == "" and out, (argv, code, err)
    elif code in (EXIT_USAGE, EXIT_INFEASIBLE):
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), \
            (argv, code, err)
    else:
        assert code == EXIT_INTERNAL and reducible is not None, (argv, code, err)
        assert err.startswith("internal error: reducible: rational root ") \
            and err.count("\n") == 1, (argv, err)


PRIMES = sorted(GENUS_ZERO_FRICKE_PRIMES)
ETA_PRIMES = [2, 3, 5, 7, 13]  # the primes with a closed form, where eval and crosscheck run
FUNDAMENTAL = [n for n in range(5, 3000) if is_fundamental_discriminant(-n)]
#: d with -d fundamental and a square mod 4p, by p.
ADMISSIBLE = {p: [n for n in FUNDAMENTAL if admissible_residues(-n, p)] for p in PRIMES}

huge = st.integers(10 ** 24, 10 ** 40)
any_int = st.one_of(st.integers(-5, 3000), huge)
real = st.one_of(st.integers(-3, 3).map(str), st.decimals(-5, 5, places=3).map(str),
                 st.sampled_from(["1e-9", "1e-12", "1e+300", "-2.555"]))
height = st.one_of(st.decimals("0.05", 5, places=3).map(str),
                   st.sampled_from(["1", "1e-9", "1e-12", "1e+300", "0", "-1"]))
tau = st.one_of(st.builds("{}+{}i".format, real, height),
                st.sampled_from(["i", "1+i", "", "x+yi", "0.5-0.5i"]))


def option(flag, value):
    return [] if value is None else [f"{flag}={value}"]


@st.composite
def cli_calls(draw):
    """An argv the parser accepts.  Half the calls draw their numbers from
    the admissible ones, so they reach the command's work; the others draw
    every number and option from the wide bands, so they meet its refusals."""
    admissible = draw(st.booleans())

    def pick(valid, wide):
        return draw(valid if admissible else wide)

    command = draw(st.sampled_from(["gznorm", "crosscheck", "classpoly", "heegner", "sset",
                                    "eval"]))
    eta = command in ("crosscheck", "eval")
    p = pick(st.sampled_from(ETA_PRIMES if eta else PRIMES),
             st.one_of(st.sampled_from(PRIMES), st.integers(-3, 80), huge))
    discs = st.sampled_from(ADMISSIBLE[p]) if p in ADMISSIBLE else any_int
    argv = option("--precision", pick(st.sampled_from([None, 30, 80, 200]), st.integers(-2, 300)))
    argv += option("--format", draw(st.sampled_from([None, "json", "csv", "text"])))
    argv += option("--ramified-exponent", pick(st.sampled_from([None, "of_mD"]),
                                               st.sampled_from([None, "of_mD", "of_m"])))
    argv += option("--base-discriminant",
                   pick(st.none(), st.one_of(st.none(),
                                             st.sampled_from([-7, -8, -11, -19, -43, -67, -163]),
                                             st.integers(-200, 10))))
    argv += option("--series", pick(st.none(), st.sampled_from([None, "missing-coefficients.txt"])))
    argv += [command] + option("--p", p)
    if command in ("gznorm", "crosscheck"):
        shape = "pair" if command == "gznorm" else draw(st.sampled_from(["pair", "batch",
                                                                         "partial"]))
        if shape == "pair":
            d, D = pick(st.lists(discs, min_size=2, max_size=2, unique=True),
                        st.tuples(any_int, any_int))
            argv += option("--d", d) + option("--D", D)
        elif shape == "partial":
            argv += option(draw(st.sampled_from(["--d", "--D"])), draw(any_int))
        else:
            argv += option("--max-disc", pick(st.integers(5, 120), st.one_of(st.integers(-3, 200),
                                                                            huge)))
            argv += option("--count", pick(st.integers(1, 2), st.integers(-2, 2)))
    if command == "gznorm":
        for flag in ("--beta", "--mu"):
            argv += option(flag, pick(st.none(), st.one_of(st.none(), st.integers(-3, 200), huge)))
        if draw(st.booleans()):
            argv.append("--breakdown")
    elif command == "classpoly":
        # h(-d) + 1 pairs exist only for small d
        small = st.sampled_from(ADMISSIBLE[p][:25]) if p in ADMISSIBLE else any_int
        argv += option("--d", pick(small, any_int))
        argv += option("--strategy", draw(st.sampled_from([None, "search", "numeric"])))
    elif command == "heegner":
        d = pick(discs, any_int)
        residues = admissible_residues(-d, p) if admissible else []
        argv += option("--d", d) + option("--beta", draw(st.sampled_from(residues) if residues
                                                          else st.integers(-3, 30)))
    elif command == "eval":
        argv += option("--tau", draw(tau))
    return argv


def reducible_case(argv):
    """The known root when argv is a search classpoly call at a KNOWN_REDUCIBLE case."""
    if "classpoly" not in argv:
        return None
    values = dict(arg.split("=", 1) for arg in argv if arg.startswith("--") and "=" in arg)
    try:
        return KNOWN_REDUCIBLE.get((int(values["--p"]), int(values["--d"])))
    except (KeyError, ValueError):
        return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=cli_calls())
def test_every_call_ends_in_a_documented_exit(argv):
    code, out, err = call(argv)
    assert_contract(argv, code, out, err, reducible_case(argv))


@pytest.mark.parametrize("p, d", sorted(KNOWN_REDUCIBLE))
def test_known_reducible_fits_exit_internal(p, d):
    # asserted as the known defect they are, not filtered out of the contract
    argv = ["--format", "json", "classpoly", f"--p={p}", f"--d={d}"]
    code, out, err = call(argv)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == f"internal error: reducible: rational root {KNOWN_REDUCIBLE[p, d]}\n"


@st.composite
def refused_calls(draw):
    """(argv, message): a call cli_calls draws, broken in one way that is
    refused before any work, and the error message that must say so."""
    argv = draw(cli_calls())
    flaw = draw(st.sampled_from(["digits", "unknown flag", "missing flag", "not an integer"]))
    if flaw == "digits":
        digits = draw(st.one_of(st.integers(MAX_DIGITS + 1, 10 ** 6), huge))
        argv = [f"--precision={digits}"] + [a for a in argv if not a.startswith("--precision=")]
        return argv, f"precision {digits} exceeds the ceiling of {MAX_DIGITS} digits"
    if flaw == "unknown flag":
        at = draw(st.integers(0, len(argv)))
        return argv[:at] + ["--no-such-flag"] + argv[at:], "unrecognized arguments: --no-such-flag"
    # every command requires --p
    at = next(i for i, arg in enumerate(argv) if arg.startswith("--p="))
    if flaw == "missing flag":
        return argv[:at] + argv[at + 1:], "the following arguments are required: --p"
    text = draw(st.sampled_from(["x", "1.5", "", "0x10", "1e3", "seven"]))
    return argv[:at] + [f"--p={text}"] + argv[at + 1:], f"argument --p: invalid int value: {text!r}"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(call_and_message=refused_calls())
def test_refused_argv_exits_2_at_once(call_and_message):
    argv, message = call_and_message
    start = time.perf_counter()
    code, out, err = call(argv)
    assert time.perf_counter() - start < REFUSAL_LIMIT_S, argv
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n"), argv


def test_eval_next_to_a_cusp_at_a_tiny_height_answers():
    # 13 tau for tau = -2.555 + 1e-300i needs 82 SL2(Z) flips (tau itself
    # 48), beyond any fixed cap of 64; the cap grows with the bits of
    # Im(tau), so the call answers under the call limit, with the value
    # value_with_bound gives
    from cmforge.hauptmodul import Hauptmodul, value_with_bound

    code, out, err = call(["--precision", "30", "eval", "--p", "13", "--tau=-2.555+1e-300i"])
    assert (code, err) == (EXIT_OK, "")
    hm = Hauptmodul(13, 30)
    value, _ = value_with_bound(hm, hm.ctx.mpc("-2.555", "1e-300"))
    assert out == f"{hm.ctx.nstr(value.real, 30)} {hm.ctx.nstr(value.imag, 30)}i\n"
