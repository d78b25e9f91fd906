"""Byte-exact stdout of reference commands.

The expected strings are literal recordings of the command line; a change to
any of them is a change of the output format and must be made on purpose.
"""

import contextlib
import hashlib
import io
import json
import re

import pytest

from conftest import sweep_cases
from test_gzrhs import LARGE_TRIPLES
from cmforge.cli import EXIT_OK, main
from cmforge.gzrhs import RAMIFIED_OF_M, RAMIFIED_OF_MD

SWEEP_DIGEST = "90f757eb0269db3bed8fc6c3e8f2065506d50207f8f79f12c7fab5007586c755"
NUMERIC_DIGEST = "387de983636f3826a8b707f110505acf84220a2a1bbc2f5d8042713ccf47fe03"
NUMERIC_STABLE_DIGEST = "338a6228729f0970a884a18f46705b2a2a873ec0532f99d075a261efd0fd69b5"
GZNORM_LARGE_DIGEST = "7f08d4fe974866dd0a3333292b8a73f444721cff3b3705a43cf3590ee251094d"
CLASSPOLY_REFUSAL_DIGEST = "b0f572ee9f90bcc7beeb9e35c5df5e73919110a6330910f25cf37130f8e63fd0"
GZNORM_REFUSAL_DIGEST = "c67f3e4d532fcbac21a49fb1624dc1e5c992bac0f9ab9ed5a6115c4085b711fb"
INPUT_REFUSAL_DIGEST = "d5bd809e803fbdc98068b167e93c2681d62d4da38c84db995f48bc022a203525"
ETA_PRIMES = (2, 3, 5, 7, 13)
#: (p, d, D) with D >= 12000, the sizes of the gznorm_large benchmark workload:
#: test_gzrhs's large triples and two more at each of p = 11, 29, 71.
BENCH_SIZE_TRIPLES = LARGE_TRIPLES + ((11, 7, 12003), (11, 8, 24004), (29, 7, 12007),
                                      (29, 20, 24007), (71, 7, 12020), (71, 11, 24011))

GOLDEN = [
    (
        '--format json gznorm --p 47 --D 163 --d 39 --breakdown',
        '{"command":"gznorm","params":{"D":163,"beta":33,"d":39,"mu":5,"p":47},'
        '"result":{"exponents":{"31":"8/1","7":"8/1"},'
        '"log_value":43.03917882832368,"norm":{"factors":{"31":"1/1","7":"1/1"},'
        '"integral":true,"value":217},"ramified_exponent":"of_mD",'
        '"terms":[{"contribution":{"7":"4/1"},"m":"7/163","n":0,"sign":1,"t":71,'
        '"y":1},{"contribution":{"31":"4/1"},"m":"31/163","n":0,"sign":1,"t":-23,'
        '"y":2},{"contribution":{"31":"4/1"},"m":"31/163","n":-1,"sign":-1,'
        '"t":23,"y":161},{"contribution":{"7":"4/1"},"m":"7/163","n":-1,'
        '"sign":-1,"t":-71,"y":162}]},"warnings":[]}\n'
    ),
    (
        '--format json classpoly --p 47 --d 39',
        '{"command":"classpoly","params":{"d":39,"p":47},'
        '"result":{"base_discriminant":-11,"beta":33,"coefficients":[1,-2,2,-1,'
        '1],"degree":4,"pairs":[{"D":11,"x":0,"x_mag":0,"y":1,"y_mag":1},{"D":19,'
        '"x":1,"x_mag":1,"y":1,"y_mag":1},{"D":43,"x":-1,"x_mag":1,"y":7,'
        '"y_mag":7},{"D":67,"x":2,"x_mag":2,"y":13,"y_mag":13},{"D":163,"x":4,'
        '"x_mag":4,"y":217,"y_mag":217}],"polynomial":"X^4 - X^3 + 2X^2 - 2X + 1"'
        ',"s_set":[-11,-19,-43,-67,-163]},"warnings":[]}\n'
    ),
    (
        '--format json classpoly --p 11 --d 39',
        '{"command":"classpoly","params":{"d":39,"p":11},'
        '"result":{"base_discriminant":-7,"beta":7,"coefficients":[9,-18,18,-3,'
        '1],"degree":4,"pairs":[{"D":7,"x":0,"x_mag":0,"y":9,"y_mag":9},{"D":8,'
        '"x":1,"x_mag":1,"y":7,"y_mag":7},{"D":11,"x":-1,"x_mag":1,"y":49,'
        '"y_mag":49},{"D":19,"x":3,"x_mag":3,"y":117,"y_mag":117},{"D":43,"x":15,'
        '"x_mag":15,"y":44289,"y_mag":44289}],"polynomial":"X^4 - 3X^3 + 18X^2 - '
        '18X + 9","s_set":[-7,-8,-11,-19,-43]},"warnings":[]}\n'
    ),
    (
        '--format json heegner --d 11 --p 47 --beta 41',
        '{"command":"heegner","params":{"beta":41,"d":11,"p":47},'
        '"result":{"count":1,"forms":[{"a":47,"b":41,"c":9,'
        '"tau":"(-41 + sqrt(-11)) / 94"}]},"warnings":[]}\n'
    ),
    (
        'gznorm --p 47 --D 163 --d 39',
        'p=47 d=39 D=163 beta=33 mu=5\nexponents: 7^8 31^8\nlog value: 43.039178828'
        '3\nnorm: 217\n'
    ),
    (
        '--format csv gznorm --p 47 --D 163 --d 39',
        'p,d,beta,D,mu,prime,exponent\r\n47,39,33,163,5,7,8/1\r\n47,39,33,163,5,31,'
        '8/1\r\n'
    ),
    (
        '--format json --ramified-exponent of_m gznorm --p 2 --d 8 --D 52',
        '{"command":"gznorm","params":{"D":52,"beta":0,"d":8,"mu":2,"p":2},'
        '"result":{"exponents":{"2":"-64/1","5":"32/1"},'
        '"log_value":7.140593642054711,"norm":{"factors":{"2":"-8/1","5":"4/1"},'
        '"integral":false,"value":2.4414062499999996},'
        '"ramified_exponent":"of_m"},"warnings":[]}\n'
    ),
    (
        '--ramified-exponent of_m gznorm --p 2 --d 8 --D 52',
        'p=2 d=8 D=52 beta=0 mu=2\nexponents: 2^-64 5^32\nlog value: 7.14059364205\n'
        'norm: 2^-8*5^4\n'
    ),
    (
        'gznorm --p 47 --D 163 --d 39 --breakdown',
        'p=47 d=39 D=163 beta=33 mu=5\nexponents: 7^8 31^8\nlog value: 43.039178828'
        '3\nnorm: 217\n  sign=+1 y=1 n=0 t=71 m=7/163 -> 7^4\n  sign=+1 y=2 n=0 t=-23 '
        'm=31/163 -> 31^4\n  sign=-1 y=161 n=-1 t=23 m=31/163 -> 31^4\n  sign=-1 y=162 '
        'n=-1 t=-71 m=7/163 -> 7^4\n'
    ),
    (
        'heegner --d 39 --p 2 --beta 1',
        '(2, 1, 5)  tau = (-1 + sqrt(-39)) / 4\n(4, -3, 3)  tau = (3 + sqrt(-39)) / 8\n'
        '(6, -3, 2)  tau = (3 + sqrt(-39)) / 12\n(10, 1, 1)  tau = (-1 + sqrt(-39)) / 20\n'
    ),
    (
        '--format json heegner --d 39 --p 47 --beta 33',
        '{"command":"heegner","params":{"beta":33,"d":39,"p":47},'
        '"result":{"count":4,"forms":[{"a":47,"b":33,"c":6,'
        '"tau":"(-33 + sqrt(-39)) / 94"},{"a":94,"b":33,"c":3,'
        '"tau":"(-33 + sqrt(-39)) / 188"},{"a":141,"b":33,"c":2,'
        '"tau":"(-33 + sqrt(-39)) / 282"},{"a":282,"b":33,"c":1,'
        '"tau":"(-33 + sqrt(-39)) / 564"}]},"warnings":[]}\n'
    ),
    (
        'heegner --d 8 --p 2 --beta 0',
        '(2, 0, 1)  tau = (0 + sqrt(-8)) / 4\n'
    ),
]


@pytest.mark.parametrize("command, expected", GOLDEN,
                         ids=[c.replace("--", "").replace(" ", "-") for c, _ in GOLDEN])
def test_reference_stdout_is_byte_identical(capsys, command, expected):
    assert main(command.split()) == EXIT_OK
    assert capsys.readouterr().out == expected


def calls_digest(calls, mask=lambda out: out):
    """sha256 over (argv, exit code, mask(stdout), stderr) of each call, in order."""
    digest = hashlib.sha256()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = [argv, code, mask(out.getvalue()), err.getvalue()]
        digest.update(json.dumps(record).encode("utf-8") + b"\n")
    return digest.hexdigest()


def sweep_digest():
    """calls_digest of every sweep case of classpoly in each output format."""
    return calls_digest(
        ["--format", output_format, "classpoly", "--p", str(p), "--d", str(d)]
        for output_format in ("json", "text", "csv")
        for p, d in sweep_cases()
    )


#: p of each kind classpoly meets: not prime, prime but not genus zero, and
#: genus zero with and without a closed form.
REFUSAL_PRIMES = (0, 1, 4, 9, 37, 1867, 2, 3, 5, 7, 11, 13, 47)
#: Base discriminants tried at each p of the base grid, by preference; the
#: first that differs from -d stands for a valid base (usable at the
#: genus-zero primes 2, 7, 11 and 47).
BASE_CHOICES = {4: (-7, -8), 37: (-7, -8), 2: (-8, -7), 7: (-19, -7), 11: (-43, -19),
                47: (-163, -67)}


def refusal_calls():
    """classpoly at d <= 60 in both strategies: at every p of REFUSAL_PRIMES
    without a base discriminant, and at the p of BASE_CHOICES with an
    unusable base (-3), a non-discriminant (-5), -d and a valid one."""
    calls = []
    for strategy in ("search", "numeric"):
        for d in range(-1, 61):
            tail = ["classpoly", "--d", str(d), "--strategy", strategy]
            calls += [["--format", "json", *tail, "--p", str(p)] for p in REFUSAL_PRIMES]
            for p, choices in BASE_CHOICES.items():
                valid = next(base for base in choices if base != -d)
                calls += [["--format", "json", "--base-discriminant", str(base), *tail,
                           "--p", str(p)] for base in (-3, -5, -d, valid)]
    calls.append(["--ramified-exponent", RAMIFIED_OF_M, "classpoly", "--p", "47", "--d", "39"])
    return calls


#: p of each kind gznorm meets: not prime, prime without a Hauptmodul, and
#: genus zero; 10^12 + 39 is prime.
GZNORM_REFUSAL_PRIMES = (0, 1, 4, 46, 1867, 2, 3, 5, 47, 10 ** 12 + 39)
#: d and D of each kind: below 5, not a discriminant, not fundamental, and
#: fundamental at some of the primes above and not at others.
GZNORM_REFUSAL_DISCS = (-1, 3, 4, 5, 7, 8, 12, 39, 163)


def gznorm_refusal_calls():
    """gznorm over GZNORM_REFUSAL_PRIMES and every d, D in
    GZNORM_REFUSAL_DISCS, with mu and beta each absent, admissible at some
    p or at none; then single-pair crosschecks below and above the
    crosscheck precision floor."""
    calls = []
    for p in GZNORM_REFUSAL_PRIMES:
        for d in GZNORM_REFUSAL_DISCS:
            for D in GZNORM_REFUSAL_DISCS:
                for mu in (None, 0, 5, 33):
                    for beta in (None, 1, 33, 40):
                        argv = ["--format", "json", "gznorm", "--p", str(p),
                                "--d", str(d), "--D", str(D)]
                        argv += [] if mu is None else ["--mu", str(mu)]
                        argv += [] if beta is None else ["--beta", str(beta)]
                        calls.append(argv)
    calls += [["--format", "json", "--precision", str(digits), "crosscheck", "--p", str(p),
               "--d", str(d), "--D", str(D)]
              for p in (0, 4, 2, 5, 13, 47) for d in (-1, 3, 7, 8, 11, 12, 39)
              for D in (3, 7, 12, 15, 19, 39) for digits in (20, 80)]
    return calls


#: The 15 primes at which the Fricke curve X0*(p) has genus zero.
FRICKE_GENUS_ZERO = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 47, 59, 71)


def input_refusal_calls():
    """heegner, sset and eval over inputs that fail each of their checks in
    turn: p not prime, prime but not genus zero (heegner and sset only, as
    eval refuses those primes by name), and genus zero with and without a
    closed form; d below 5, not fundamental or not a square mod 4p; residues
    admissible at some p or at none; points at, below and off the upper
    half plane."""
    calls = [["--format", "json", "heegner", "--p", str(p), "--d", str(d), "--beta", str(beta)]
             for p in (0, 1, 4, 37, 2, 3, 47) for d in (-1, 3, 4, 7, 8, 11, 12, 39, 163)
             for beta in (0, 1, 33, 41, 93)]
    calls += [["--format", "json", "sset", "--p", str(p)]
              for p in (0, 1, 4, 9, 37, 1867) + FRICKE_GENUS_ZERO]
    calls += [["--precision", str(digits), "eval", "--p", str(p), "--tau", tau]
              for digits in (30, 80) for p in (0, 1, 4, 2, 5, 13, 47)
              for tau in ("0.1+1.2i", "0.1-1.0i", "0.3+0i", "1+2")]
    return calls


def numeric_calls():
    """Batch crosschecks in json and text, eval at 80 and 300 digits at every
    closed-form prime, and one crosscheck at 300 digits."""
    calls = [["--format", output_format, "crosscheck", "--p", str(p),
              "--count", "6", "--max-disc", "200"]
             for p in ETA_PRIMES for output_format in ("json", "text")]
    calls += [["eval", "--p", str(p), "--tau", "0.1+1.2i"] for p in ETA_PRIMES]
    calls += [["--precision", "300", "eval", "--p", str(p), "--tau=-0.4+0.3i"]
              for p in ETA_PRIMES]
    calls.append(["--precision", "300", "crosscheck", "--p", "5", "--d", "11", "--D", "19"])
    return calls


def without_rounding_floor(out):
    """stdout with the fields that sit at the rounding floor removed: the
    relative discrepancy (near 1e-91 when both sides agree) and the error
    bound, whose last digits follow the order of the floating-point sums."""
    out = re.sub(r'"lhs_error_estimate":[^,]*,', "", out)
    out = re.sub(r'"relative_discrepancy":\{[^}]*\},', "", out)
    return re.sub(r"rel=\S+", "rel=*", out)


def test_classpoly_sweep_output_is_byte_identical():
    # every stdout, stderr and exit code of the 191 sweep cases in json, text
    # and csv; a change here is a change of output and must be made on purpose
    assert sweep_digest() == SWEEP_DIGEST


def test_classpoly_refusals_are_byte_identical():
    # exit code, stdout and stderr of classpoly where it refuses its input,
    # which the sweep never does: which error wins when several apply is
    # part of the output
    assert calls_digest(refusal_calls()) == CLASSPOLY_REFUSAL_DIGEST


def test_gznorm_refusals_are_byte_identical():
    # exit code, stdout and stderr of gznorm and single-pair crosscheck over
    # inputs that fail each check of GZParams in turn: which error wins when
    # several apply is part of the output
    assert calls_digest(gznorm_refusal_calls()) == GZNORM_REFUSAL_DIGEST


def test_input_refusals_are_byte_identical():
    # exit code, stdout and stderr of heegner, sset and eval where they
    # refuse their input or answer next to a refusal: which error wins when
    # several apply is part of the output
    assert calls_digest(input_refusal_calls()) == INPUT_REFUSAL_DIGEST


def test_numeric_commands_output_is_byte_identical():
    # crosscheck and eval read j*_p numerically; their values are printed to
    # the last digit, so this pins the numeric path byte for byte
    assert calls_digest(numeric_calls()) == NUMERIC_DIGEST


def test_numeric_values_are_stable():
    # the same calls with the rounding-floor fields masked: lhs, rhs, status
    # and every eval digit, which no reordering of the sums may move
    assert calls_digest(numeric_calls(), without_rounding_floor) == NUMERIC_STABLE_DIGEST


def test_gznorm_at_bench_sizes_is_byte_identical():
    # json gznorm in both ramified variants where every term is scored by
    # the exact per-term arithmetic at benchmark sizes; recorded before that
    # arithmetic was cut down, so any change of a norm or exponent shows here
    calls = [["--format", "json", "--ramified-exponent", variant, "gznorm",
              "--p", str(p), "--d", str(d), "--D", str(D)]
             for p, d, D in BENCH_SIZE_TRIPLES for variant in (RAMIFIED_OF_MD, RAMIFIED_OF_M)]
    assert calls_digest(calls) == GZNORM_LARGE_DIGEST
