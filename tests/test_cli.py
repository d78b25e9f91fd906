import csv
import hashlib
import importlib
import io
import json
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import mpmath
import pytest

from conftest import child_env
from cmforge.arith import is_fundamental_discriminant
from cmforge.cli import (
    EXIT_CROSSCHECK_FAILED,
    EXIT_INFEASIBLE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    canonical_json,
    main,
)
from cmforge.crosscheck import admissible_discriminants, admissible_pairs
from cmforge.errors import ParameterError
from cmforge.hauptmodul import GENUS_ZERO_FRICKE_PRIMES, Hauptmodul, value_with_bound
from cmforge.quadforms import MAX_CLASS_NUMBER_DISC, admissible_residues


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sset_text(capsys):
    code, out, err = run_cli(capsys, "sset", "--p", "47")
    assert code == EXIT_OK
    assert out.strip() == "{-11, -19, -43, -67, -163}"
    assert err == ""


def test_sset_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "sset", "--p", "47")
    assert code == EXIT_OK
    line = out.strip()
    parsed = json.loads(line)
    assert parsed["command"] == "sset"
    assert parsed["result"]["s_set"] == [-11, -19, -43, -67, -163]
    assert canonical_json(parsed) == line  # byte-identical reserialization


def test_gznorm_reference_values(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "gznorm",
                           "--p", "47", "--D", "163", "--d", "39")
    assert code == EXIT_OK
    parsed = json.loads(out.strip())
    assert parsed["result"]["norm"]["value"] == 217
    assert parsed["result"]["exponents"] == {"7": "8/1", "31": "8/1"}
    assert canonical_json(parsed) == out.strip()

    code, out, _ = run_cli(capsys, "--format", "json", "gznorm",
                           "--p", "47", "--D", "19", "--d", "11")
    parsed = json.loads(out.strip())
    assert parsed["result"]["norm"]["value"] == 1
    assert parsed["result"]["exponents"] == {}


def test_gznorm_breakdown_text(capsys):
    code, out, _ = run_cli(capsys, "gznorm", "--p", "47", "--D", "163", "--d", "39",
                           "--breakdown")
    assert code == EXIT_OK
    assert "norm: 217" in out
    assert out.count("sign=") == 4


def test_gznorm_breakdown_text_rows_read_like_the_exponents_line(capsys):
    # of_m zeroes the ramified terms at q = 3 and 5; their rows show (empty)
    code, out, _ = run_cli(capsys, "--ramified-exponent", "of_m", "gznorm",
                           "--p", "2", "--D", "15", "--d", "7", "--breakdown")
    assert code == EXIT_OK
    rows = [line.split(" -> ")[1] for line in out.splitlines() if " -> " in line]
    assert rows == ["13^4", "(empty)", "7^4", "(empty)", "(empty)",
                    "13^4", "(empty)", "(empty)", "7^4", "(empty)"]


def test_gznorm_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "gznorm",
                           "--p", "47", "--D", "163", "--d", "39")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "d", "beta", "D", "mu", "prime", "exponent"]
    assert rows[1] == ["47", "39", "33", "163", "5", "7", "8/1"]
    assert rows[2] == ["47", "39", "33", "163", "5", "31", "8/1"]


#: Triples whose of_m norm exceeds the float range (log of the norm about 751).
OF_M_BEYOND_FLOAT = ((2, 8, 24484), (3, 11, 24756), (5, 11, 49236))


def test_gznorm_norm_beyond_float_range(capsys):
    for p, d, D in OF_M_BEYOND_FLOAT:
        argv = ["--ramified-exponent", "of_m", "gznorm", "--p", str(p), "--d", str(d),
                "--D", str(D)]
        for fmt in ("json", "csv", "text"):
            code, out, err = run_cli(capsys, "--format", fmt, *argv)
            assert (code, err) == (EXIT_OK, ""), (p, d, D, fmt)
            assert out
            if fmt == "json":
                norm = json.loads(out)["result"]["norm"]
        # the value is a decimal string, correct to its 17 digits
        assert norm["integral"] is False and isinstance(norm["value"], str)
        with mpmath.workdps(40):
            exact = mpmath.exp(mpmath.fsum(
                mpmath.mpf(int(e.split("/")[0])) / int(e.split("/")[1]) * mpmath.log(int(q))
                for q, e in norm["factors"].items()))
            assert abs(mpmath.mpf(norm["value"]) / exact - 1) < mpmath.mpf(10) ** -16
            assert exact > mpmath.mpf(10) ** 308


def test_gznorm_norm_beyond_int_string_limit(capsys):
    # the integral norm has 8574 digits, past the interpreter's 4300-digit
    # limit on str(int); it prints in every format without raising that limit
    argv = ["gznorm", "--p", "2", "--d", "7", "--D", "1000007"]
    printed = {}
    for fmt in ("json", "csv", "text"):
        code, out, err = run_cli(capsys, "--format", fmt, *argv)
        assert (code, err) == (EXIT_OK, ""), fmt
        printed[fmt] = out
    norm = json.loads(printed["json"])["result"]["norm"]
    assert norm["integral"] is True
    value = norm["value"]
    assert len(value) == 8574
    assert hashlib.sha256(value.encode()).hexdigest() == (
        "e81f52129ef7f64828f5f3e852e50793078b5f0bcf84945380941ca999763d93")
    assert f"\nnorm: {value}\n" in printed["text"]
    assert printed["csv"].startswith("p,d,beta,D,mu,prime,exponent\r\n2,7,")


def test_gznorm_rejects_equal_discriminants(capsys):
    code, out, err = run_cli(capsys, "gznorm", "--p", "47", "--D", "39", "--d", "39")
    assert code == EXIT_USAGE
    assert "distinct" in err
    assert out == ""


def test_every_command_refuses_a_composite_p_as_not_prime(capsys):
    # one precedence for a bad p: "not prime" before "not genus zero"
    for argv in (("sset",), ("classpoly", "--d", "39"), ("gznorm", "--d", "8", "--D", "19"),
                 ("eval", "--tau", "0.1+1.2i"), ("crosscheck", "--d", "8", "--D", "19"),
                 ("heegner", "--d", "7", "--beta", "1")):
        for p in ("4", "9"):
            code, out, err = run_cli(capsys, *argv, "--p", p)
            assert (code, out, err) == (EXIT_USAGE, "", f"error: {p} is not prime\n"), argv


def test_gznorm_rejects_small_and_inadmissible(capsys):
    code, _, err = run_cli(capsys, "gznorm", "--p", "47", "--D", "3", "--d", "39")
    assert code == EXIT_USAGE and "exceed 4" in err
    code, _, err = run_cli(capsys, "gznorm", "--p", "47", "--D", "163", "--d", "11",
                           "--beta", "40")
    assert code == EXIT_USAGE and "admissible" in err


def test_gznorm_refuses_a_prime_with_no_hauptmodul(capsys):
    # the norm is defined through j*_p, which exists only at the 15
    # genus-zero primes; the checks of the inputs come first
    code, out, err = run_cli(capsys, "gznorm", "--p", "1867", "--d", "8", "--D", "19")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: p=1867: the Fricke curve is not genus zero\n"
    for argv, message in ((("--p", "1868", "--d", "8", "--D", "19"), "1868 is not prime"),
                          (("--p", "1867", "--d", "8", "--D", "12"),
                           "-12 is not a fundamental discriminant"),
                          (("--p", "1867", "--d", "8", "--D", "8"), "d and D must be distinct")):
        assert run_cli(capsys, "gznorm", *argv)[1:] == ("", f"error: {message}\n")
    for p in (11, 17, 19, 23, 29, 31, 41, 59, 71):  # the primes with no closed form
        d, D = [n for n in range(5, 400)
                if is_fundamental_discriminant(-n) and admissible_residues(-n, p)][:2]
        assert run_cli(capsys, "gznorm", "--p", str(p), "--d", str(d), "--D", str(D))[0] == EXIT_OK


def test_classpoly_reference_example(capsys):
    code, out, _ = run_cli(capsys, "classpoly", "--p", "47", "--d", "39")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[-1] == "X^4 - X^3 + 2X^2 - 2X + 1"
    assert "(11, 0, 1) (19, 1, 1) (43, -1, 7) (67, 2, 13) (163, 4, 217)" in out


def test_classpoly_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "classpoly",
                           "--p", "47", "--d", "39")
    parsed = json.loads(out.strip())
    assert parsed["result"]["coefficients"] == [1, -2, 2, -1, 1]
    assert parsed["result"]["base_discriminant"] == -11
    assert canonical_json(parsed) == out.strip()


def test_classpoly_infeasible_exit(capsys):
    code, out, err = run_cli(capsys, "classpoly", "--p", "13", "--d", "43")
    assert code == EXIT_INFEASIBLE
    assert "pairs" in err
    code, _, err = run_cli(capsys, "classpoly", "--p", "47", "--d", "151")
    assert code == EXIT_INFEASIBLE
    assert "h(-151)+1 = 8" in err


def test_classpoly_invalid_prime(capsys):
    code, _, err = run_cli(capsys, "classpoly", "--p", "46", "--d", "39")
    assert code == EXIT_USAGE
    assert err == "error: 46 is not prime\n"
    code, _, err = run_cli(capsys, "classpoly", "--p", "37", "--d", "39")
    assert code == EXIT_USAGE
    assert "genus" in err


def test_classpoly_refuses_the_of_m_norms(capsys):
    # of_m fails the numeric cross-check; (23, 155) and (23, 184) used to
    # interpolate its norms into a polynomial and exit 0
    for p, d in (("11", "19"), ("23", "155"), ("23", "184")):
        code, out, err = run_cli(capsys, "--ramified-exponent", "of_m",
                                 "classpoly", "--p", p, "--d", d)
        assert code == EXIT_USAGE, (p, d)
        assert out == ""
        assert "of_mD" in err


def test_malformed_series_files_exit_usage(tmp_path, capsys):
    bad_header = tmp_path / "header.txt"
    bad_header.write_text("p five\ncount 2\n1\n0\n", encoding="ascii")
    non_ascii = tmp_path / "bytes.txt"
    non_ascii.write_bytes(b"p 5\ncount 2\n1\n\xc3\xa9\n")
    not_prime = tmp_path / "p6.txt"
    not_prime.write_text("p 6\ncount 2\n1\n0\n", encoding="ascii")
    bad_residue = tmp_path / "residue.txt"
    bad_residue.write_text("p 5\ncount 2\n2\n0\n", encoding="ascii")
    too_short = tmp_path / "short.txt"
    too_short.write_text("p 5\ncount 1\n1\n", encoding="ascii")
    long_header = tmp_path / "long.txt"
    long_header.write_text("p 5 7\ncount 2\n1\n0\n", encoding="ascii")
    twice = tmp_path / "twice.txt"
    twice.write_text("count 2\np 5\np 5\n1\n0\n", encoding="ascii")
    no_count = tmp_path / "nocount.txt"
    no_count.write_text("# p 5 only\np 5\n", encoding="ascii")
    cases = [
        (bad_header, f"{bad_header}:1: not an integer: 'p five'"),
        (long_header, f"{long_header}:1: malformed header line 'p 5 7'\n"),
        (twice, f"{twice}:3: malformed header line 'p 5'\n"),
        (no_count, f"{no_count}: missing 'p' or 'count' header\n"),
        (non_ascii, f"{non_ascii}:4: not ASCII text"),
        (tmp_path / "missing.txt", f"{tmp_path / 'missing.txt'}: cannot read"),
        (tmp_path, f"{tmp_path}: cannot read"),
        (not_prime, f"{not_prime}: 6 is not prime\n"),
        (bad_residue, f"{bad_residue}: rejected: leading coefficient c(-1) must be 1\n"),
        (too_short, f"{too_short}: need at least the residue and the constant term\n"),
    ]
    for path, message in cases:
        code, out, err = run_cli(capsys, "--series", str(path),
                                 "eval", "--p", "5", "--tau", "0.2+1.3i")
        assert code == EXIT_USAGE, path
        assert out == ""
        assert err.startswith(f"error: {message}"), err


def test_heegner_output(capsys):
    code, out, _ = run_cli(capsys, "heegner", "--d", "11", "--p", "47", "--beta", "41")
    assert code == EXIT_OK
    assert out.strip() == "(47, 41, 9)  tau = (-41 + sqrt(-11)) / 94"
    code, out, _ = run_cli(capsys, "--format", "csv", "heegner",
                           "--d", "39", "--p", "47", "--beta", "33")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a", "b", "c"]
    assert len(rows) == 5  # header + h(-39) forms


def test_heegner_refuses_discriminant_above_class_number_ceiling(capsys):
    # the class number scan is O(|d|); above its ceiling the CLI refuses at
    # once, both just past it and where the scan would run for hours
    start = time.perf_counter()
    for d in (10_000_004, 1_000_000_000_004):
        code, out, err = run_cli(capsys, "heegner", "--d", str(d), "--p", "2", "--beta", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"ceiling {MAX_CLASS_NUMBER_DISC}" in err
    assert time.perf_counter() - start < 5


def test_crosscheck_single_pass(capsys):
    code, out, _ = run_cli(capsys, "--precision", "40", "crosscheck",
                           "--p", "2", "--d", "7", "--D", "15")
    assert code == EXIT_OK
    assert "PASS" in out
    assert "passing variant: of_mD" in out


def test_crosscheck_wrong_variant_fails(capsys):
    code, out, _ = run_cli(capsys, "--precision", "40", "--ramified-exponent", "of_m",
                           "crosscheck", "--p", "2", "--d", "7", "--D", "15")
    assert code == EXIT_CROSSCHECK_FAILED
    assert "FAIL" in out


def test_crosscheck_batch_sorted(capsys):
    code, out, _ = run_cli(capsys, "--precision", "40", "--format", "json",
                           "crosscheck", "--p", "3", "--max-disc", "40", "--count", "3")
    assert code == EXIT_OK
    parsed = json.loads(out.strip())
    checks = parsed["result"]["checks"]
    assert len(checks) == 3
    assert [(c["d"], c["D"]) for c in checks] == sorted((c["d"], c["D"]) for c in checks)
    assert parsed["result"]["all_pass"] is True


def reference_admissible_pairs(p, max_disc, count):
    """The batch pair list as first written: every pair below max_disc, sorted."""
    discs = [d for d in range(5, max_disc + 1)
             if is_fundamental_discriminant(-d) and admissible_residues(-d, p)]
    pairs = [(a, b) for i, a in enumerate(discs) for b in discs[i + 1:]]
    pairs.sort(key=lambda pair: (pair[0] + pair[1], pair[0], pair[1]))
    if len(pairs) < count:
        raise ParameterError(
            f"only {len(pairs)} admissible pairs exist for p={p} below {max_disc}"
        )
    return pairs[:count]


def test_admissible_pairs_match_full_enumeration():
    for p in (2, 3, 5, 7, 11, 13, 47):
        reference = reference_admissible_pairs(p, 400, 39)
        for count in range(1, 40):
            assert admissible_pairs(p, 400, count) == reference[:count], (p, count)
        # the shortfall error still counts every pair below max_disc
        for max_disc in (20, 60):
            with pytest.raises(ParameterError) as full:
                reference_admissible_pairs(p, max_disc, 10 ** 6)
            available = int(str(full.value).split()[1])
            if available:
                assert (admissible_pairs(p, max_disc, available)
                        == reference_admissible_pairs(p, max_disc, available))
            with pytest.raises(ParameterError) as bounded:
                admissible_pairs(p, max_disc, available + 1)
            assert str(bounded.value) == str(full.value), (p, max_disc)


def test_admissible_pairs_factor_each_candidate_once(monkeypatch):
    # one fundamental_factors per candidate d decides fundamentality, and the
    # square-root test reuses it; p is tested for primality once, up front
    from cmforge import arith, crosscheck, quadforms

    reference = reference_admissible_pairs(2, 500, 5)
    factored = []
    original = arith.factorize

    def counting(n):
        factored.append(n)
        return original(n)

    for module in (arith, crosscheck, quadforms):
        monkeypatch.setattr(module, "factorize", counting, raising=False)
    assert admissible_pairs(2, 500, 5) == reference
    assert len(factored) == len(set(factored)) == 8
    with pytest.raises(ParameterError, match="^4 is not prime$"):
        admissible_pairs(4, 500, 5)


def test_crosscheck_batch_scan_stops_at_count():
    # the scan stops after count + 1 admissible discriminants, however large
    # --max-disc is; a child process turns an unbounded scan into a timeout
    proc = subprocess.run(
        [sys.executable, "-m", "cmforge.cli", "--format", "json", "crosscheck", "--p", "2",
         "--count", "1", "--max-disc", "1000000000000"],
        capture_output=True, text=True, timeout=10,
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    checks = json.loads(proc.stdout)["result"]["checks"]
    assert [(c["d"], c["D"]) for c in checks] == admissible_pairs(2, 500, 1)


def test_crosscheck_count_above_the_ceiling_is_refused_before_any_scan(capsys, monkeypatch):
    # a batch ranks about count^2/2 pairs, so a count above MAX_PAIRS exits 2
    # with no discriminant scanned; a count at the ceiling still answers
    from cmforge import crosscheck

    def scan(*args):
        raise AssertionError("a discriminant was scanned")

    with monkeypatch.context() as patched:
        patched.setattr(crosscheck, "admissible_discriminants", scan)
        for count in (crosscheck.MAX_PAIRS + 1, 10 ** 6):
            assert run_cli(capsys, "crosscheck", "--p", "2", "--max-disc", "10000000",
                           "--count", str(count)) == (
                EXIT_USAGE, "", f"error: pair count {count} exceeds the ceiling 1000\n")
    pairs = admissible_pairs(2, 10 ** 7, crosscheck.MAX_PAIRS)
    assert len(pairs) == len(set(pairs)) == 1000


def test_eval_near_a_cusp_answers_at_once():
    # tau = -2.555 + 1e-9 i lies next to the cusp -511/200, where the eta
    # series at tau itself would need 279 241 pairs.  tau and 13 tau reduce
    # by SL2(Z) to Im >= sqrt(3)/2 in a few flips, so a child process
    # answers well inside the timer.  The value agrees with the values at
    # tau + 1 and at W_13 tau = -1/(13 tau), within their bounds; those two
    # points are taken 30 digits finer, where tau + 1 is exact and the
    # rounding of W_13 tau moves the value far below the coarse bound
    proc = subprocess.run(
        [sys.executable, "-m", "cmforge.cli", "--precision", "300", "--format", "json", "eval",
         "--p", "13", "--tau=-2.555+1e-09i"],
        capture_output=True, text=True, timeout=10,
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    printed = json.loads(proc.stdout)["result"]
    hm = Hauptmodul(13, 300)
    tau = hm.ctx.mpc("-2.555", "1e-09")
    value, bound = value_with_bound(hm, tau)
    assert printed == {"re": mpmath.nstr(value.real, 300), "im": mpmath.nstr(value.imag, 300)}
    assert abs(value) > mpmath.mpf(10) ** 5000
    fine = Hauptmodul(13, 330)
    tau = fine.ctx.mpc(tau)
    for moved in (tau + 1, -1 / (13 * tau)):
        other, other_bound = value_with_bound(fine, moved)
        assert abs(fine.ctx.mpc(value) - other) <= bound + other_bound


@pytest.mark.parametrize("tau", ["0+1e308i", "0.5+1e-400i"])
def test_eval_answers_where_the_two_terms_differ_past_the_floats(capsys, tau):
    # t and p^k/t differ by more than 2^(10^308) in size here; summing them
    # keeps the bound's weights inside the floats instead of overflowing
    code, out, err = run_cli(capsys, "--precision", "30", "eval", "--p", "13", f"--tau={tau}")
    assert (code, err) == (EXIT_OK, "")
    assert "e+" in out.split()[0]


@pytest.mark.parametrize("tau, code", [("0+1e-5000i", EXIT_USAGE), ("0+1e-4200i", EXIT_USAGE),
                                       ("0+1e-998i", EXIT_OK)])
def test_eval_prints_exponents_of_at_most_1000_digits(tau, code):
    # tau reduces to Im 10^5000, 10^4200 or 10^998, where the value's binary
    # exponent has about as many digits.  Printed, the first would pass the
    # interpreter's limit on integer-to-string conversion and the second
    # take 10 s in mpmath.nstr, so both are refused at once; the third
    # prints.  A child process turns a slow print into a timeout
    proc = subprocess.run(
        [sys.executable, "-m", "cmforge.cli", "--precision", "30", "eval", "--p", "2",
         f"--tau={tau}"],
        capture_output=True, text=True, timeout=20,
        env=child_env(),
    )
    assert proc.returncode == code
    if code == EXIT_OK:
        assert proc.stderr == "" and "e+" in proc.stdout.split()[0]
    else:
        assert (proc.stdout, proc.stderr) == (
            "", f"error: the value at tau={tau} lies beyond 2^(+-10^1000), too far from 1 to "
                "print\n")


def test_crosscheck_sums_prime_logs_near_a_million():
    # the exact side of (2, 10007, 1000007) is the 8th power of a 23.2 M-bit
    # norm; summing its prime logs takes about a second, where one log of
    # the product took minutes.  A child process turns a slow sum into a timeout
    proc = subprocess.run(
        [sys.executable, "-m", "cmforge.cli", "crosscheck", "--p", "2", "--d", "10007",
         "--D", "1000007"],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout.splitlines()[0].endswith(" PASS")


#: classpoly's outcomes over every admissible d < 3000, by prime: exit code ->
#: count.  It answers only at eight primes; at the eta primes, 29 and 31 S(p)
#: has two usable members, and the diagonal D = d leaves too few.
CLASSPOLY_REACH = {
    2: {EXIT_INFEASIBLE: 607}, 3: {EXIT_INFEASIBLE: 568}, 5: {EXIT_INFEASIBLE: 535},
    7: {EXIT_INFEASIBLE: 513}, 13: {EXIT_INFEASIBLE: 484},
    11: {EXIT_OK: 45, EXIT_INTERNAL: 2, EXIT_INFEASIBLE: 448},
    17: {EXIT_OK: 14, EXIT_USAGE: 1, EXIT_INTERNAL: 2, EXIT_INFEASIBLE: 464},
    19: {EXIT_OK: 8, EXIT_USAGE: 2, EXIT_INFEASIBLE: 470},
    23: {EXIT_OK: 41, EXIT_USAGE: 7, EXIT_INTERNAL: 1, EXIT_INFEASIBLE: 428},
    29: {EXIT_INFEASIBLE: 472}, 31: {EXIT_INFEASIBLE: 472},
    41: {EXIT_OK: 11, EXIT_INTERNAL: 1, EXIT_INFEASIBLE: 457},
    47: {EXIT_OK: 42, EXIT_USAGE: 6, EXIT_INTERNAL: 1, EXIT_INFEASIBLE: 423},
    59: {EXIT_OK: 11, EXIT_USAGE: 10, EXIT_INFEASIBLE: 445},
    71: {EXIT_OK: 13, EXIT_USAGE: 8, EXIT_INFEASIBLE: 449},
}


def test_classpoly_reach_below_3000(capsys):
    # 7461 calls, about a second; a change that answers more cases, or
    # fewer, moves this table on purpose
    reach = {}
    for p in GENUS_ZERO_FRICKE_PRIMES:
        outcomes = Counter(main(["classpoly", "--p", str(p), "--d", str(d)])
                           for d in admissible_discriminants(p, 2999))
        capsys.readouterr()
        reach[p] = dict(outcomes)
    assert reach == CLASSPOLY_REACH


def test_crosscheck_requires_series_for_large_p(capsys):
    code, _, err = run_cli(capsys, "crosscheck", "--p", "47", "--d", "39", "--D", "163")
    assert code == EXIT_USAGE
    assert "coefficient" in err or "series" in err.lower()


def test_primes_outside_the_genus_zero_fifteen_are_refused_by_name(tmp_path, capsys,
                                                                    monkeypatch):
    # j*_p exists only where X0*(p) has genus zero: eval and crosscheck
    # refuse any other prime as gznorm does, with or without a coefficient
    # file, and before any lattice work
    from cmforge import gzrhs

    def no_lattice(params):
        raise AssertionError("the lattice was enumerated")

    monkeypatch.setattr(gzrhs, "enumerate_terms", no_lattice)
    series = tmp_path / "p37.txt"
    series.write_text("p 37\ncount 3\n1\n0\n5\n", encoding="ascii")
    for p in ("37", "1867"):
        for command in (["eval", "--p", p, "--tau", "0.1+1.2i"],
                        ["crosscheck", "--p", p, "--d", "7", "--D", "11"],
                        ["crosscheck", "--p", p]):
            for prefix in ([], ["--series", str(series)]):
                code, out, err = run_cli(capsys, *prefix, *command)
                assert (code, out) == (EXIT_USAGE, ""), (prefix, command)
                assert err == f"error: p={p}: the Fricke curve is not genus zero\n"


def test_missing_coefficient_file_is_reported_before_lattice_work(capsys, monkeypatch):
    from cmforge import gzrhs

    def no_lattice(params):
        raise AssertionError("the lattice was enumerated")

    monkeypatch.setattr(gzrhs, "enumerate_terms", no_lattice)
    for argv in (["crosscheck", "--p", "47", "--d", "39", "--D", "163"],
                 ["crosscheck", "--p", "47"],
                 ["classpoly", "--p", "47", "--d", "39", "--strategy", "numeric"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err == "error: no closed form for p=47; supply a coefficient file\n", argv


def test_low_precision_is_reported_before_lattice_work(capsys, monkeypatch):
    from cmforge import gzrhs

    def no_lattice(params):
        raise AssertionError("the lattice was enumerated")

    monkeypatch.setattr(gzrhs, "enumerate_terms", no_lattice)
    for argv in (["--precision", "20", "crosscheck", "--p", "2", "--d", "7", "--D", "20015"],
                 ["--precision", "29", "crosscheck", "--p", "2"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err == "error: cross-check evaluation needs at least 30 digits\n", argv


def test_numeric_classpoly_reports_too_few_pairs_before_a_missing_file(capsys):
    # h(-151) + 1 = 8 pairs cannot exist at p = 47, series or not
    code, out, err = run_cli(capsys, "classpoly", "--p", "47", "--d", "151",
                             "--strategy", "numeric")
    assert (code, out) == (EXIT_INFEASIBLE, "")
    assert "h(-151)+1 = 8" in err


def test_crosscheck_partial_pair_rejected(capsys):
    code, _, err = run_cli(capsys, "crosscheck", "--p", "2", "--d", "7")
    assert code == EXIT_USAGE
    # a batch of no pairs would be a vacuous PASS; a negative count used to slice
    for count in ("0", "-1"):
        code, out, err = run_cli(capsys, "--format", "json", "crosscheck", "--p", "3",
                                 "--max-disc", "40", "--count", count)
        assert code == EXIT_USAGE and out == "" and "count" in err, count


def test_crosscheck_equal_discriminants_rejected(capsys):
    code, _, err = run_cli(capsys, "crosscheck", "--p", "2", "--d", "7", "--D", "7")
    assert code == EXIT_USAGE
    assert "distinct" in err


def test_internal_errors_map_to_exit_3(capsys, monkeypatch):
    from cmforge import cli as cli_mod
    from cmforge.errors import InternalError

    def boom(args):
        raise InternalError("synthetic consistency failure")

    monkeypatch.setattr(cli_mod, "cmd_sset", boom)
    code = cli_mod.main(["sset", "--p", "47"])
    assert code == cli_mod.EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


#: The documented exit code of each exception class, and the prefix of its one stderr line.
EXIT_OF_ERROR = {
    "CMForgeError": (EXIT_USAGE, "error"),
    "ParameterError": (EXIT_USAGE, "error"),
    "PrecisionError": (EXIT_USAGE, "error"),
    "SignResolutionError": (EXIT_USAGE, "error"),
    "AmbiguousSignsError": (EXIT_USAGE, "error"),
    "NonIntegralMagnitudeError": (EXIT_USAGE, "error"),
    "InternalError": (EXIT_INTERNAL, "internal error"),
    "InfeasibleError": (EXIT_INFEASIBLE, "error"),
}


def test_errors_module_holds_one_class_per_exit_outcome():
    import inspect

    from cmforge import errors

    defined = {name for name, value in vars(errors).items()
               if inspect.isclass(value) and value.__module__ == errors.__name__}
    assert defined == set(EXIT_OF_ERROR)


@pytest.mark.parametrize("name", sorted(EXIT_OF_ERROR))
def test_each_error_class_exits_with_its_documented_code(capsys, monkeypatch, name):
    from cmforge import cli as cli_mod
    from cmforge import errors

    def boom(args):
        raise getattr(errors, name)(f"synthetic {name}")

    monkeypatch.setattr(cli_mod, "cmd_sset", boom)
    code, prefix = EXIT_OF_ERROR[name]
    assert run_cli(capsys, "sset", "--p", "47") == (code, "", f"{prefix}: synthetic {name}\n")


def test_eval_matches_direct_recomputation(capsys):
    code, out, _ = run_cli(capsys, "--precision", "50", "eval",
                           "--p", "2", "--tau", "0.0+1.0i")
    assert code == EXIT_OK
    shown = out.split()
    from cmforge.hauptmodul import eta_with_bound, working_context

    ctx = working_context(50)
    tau = ctx.mpc(0, 1)
    t = (eta_with_bound(tau, ctx)[0] / eta_with_bound(2 * tau, ctx)[0]) ** 24
    expected = t + 4096 / t
    assert abs(ctx.mpf(shown[0]) - expected.real) < ctx.mpf(10) ** -45
    assert abs(expected.imag) < ctx.mpf(10) ** -45


def test_eval_with_series_file(tmp_path, capsys):
    from cmforge.hauptmodul import eta_quotient_qseries

    qs = eta_quotient_qseries(5, 80)
    path = tmp_path / "p5.txt"
    body = [f"p {qs.p}", f"count {len(qs.coefficients)}"] + [str(c) for c in qs.coefficients]
    path.write_text("\n".join(body) + "\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "--precision", "40", "--series", str(path),
                           "eval", "--p", "5", "--tau", "0.2+1.3i")
    assert code == EXIT_OK
    code2, out2, _ = run_cli(capsys, "--precision", "40", "eval",
                             "--p", "5", "--tau", "0.2+1.3i")
    assert out.split()[0][:30] == out2.split()[0][:30]


def test_eval_with_series_file_near_a_cusp(tmp_path, capsys):
    # at p = 5, shifts and the Fricke flip alone leave 0.1234567 + 0.001i
    # near Im 0.018, where 200 coefficients cannot converge; the loop from
    # the coset point of its SL2(Z) reduction lands higher, and the digits
    # are the closed form's
    from cmforge.hauptmodul import eta_quotient_qseries

    qs = eta_quotient_qseries(5, 200)
    path = tmp_path / "p5.txt"
    body = [f"p {qs.p}", f"count {len(qs.coefficients)}"] + [str(c) for c in qs.coefficients]
    path.write_text("\n".join(body) + "\n", encoding="ascii")
    argv = ["--precision", "30", "eval", "--p", "5", "--tau=0.1234567+0.001i"]
    code, out, _ = run_cli(capsys, "--series", str(path), *argv)
    assert code == EXIT_OK
    assert out == run_cli(capsys, *argv)[1]
    assert out.startswith("99.0344171882399001979069199112 314.942183583954873949818500312i")


def test_series_divergence_shows_q_to_five_digits(tmp_path, capsys):
    # |q| is printed like the truncation bound, not at working precision
    path = tmp_path / "p11.txt"
    path.write_text("p 11\ncount 3\n1\n0\n5\n", encoding="ascii")
    for digits in ("80", "300"):
        code, out, err = run_cli(capsys, "--precision", digits, "--series", str(path),
                                 "eval", "--p", "11", "--tau", "0.1+0.3i")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: series for p=11 cannot converge at |q|=0.15184\n"


def test_eval_bad_tau(capsys):
    code, _, err = run_cli(capsys, "eval", "--p", "2", "--tau", "nonsense")
    assert code == EXIT_USAGE
    assert "tau" in err


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CMFORGE_PRECISION", "45")
    code, out, _ = run_cli(capsys, "eval", "--p", "2", "--tau", "0.0+2.0i")
    assert code == EXIT_OK
    mantissa = out.split()[0].split(".")[1]
    assert len(mantissa) <= 46
    monkeypatch.setenv("CMFORGE_PRECISION", "whoops")
    code, _, err = run_cli(capsys, "eval", "--p", "2", "--tau", "0.0+2.0i")
    assert code == EXIT_USAGE and "CMFORGE_PRECISION" in err


def test_usage_error_exit_code(capsys):
    assert main(["gznorm", "--p", "47"]) == EXIT_USAGE  # missing required flags
    assert main(["unknown-command"]) == EXIT_USAGE


def test_parse_error_prints_one_line(capsys):
    # the parser's message alone, without its usage lines, on the top-level
    # parser and on each subcommand's
    for argv, message in (
        (["gznorm", "--p", "47"], "the following arguments are required: --d, --D"),
        (["--bogus", "sset", "--p", "2"], "unrecognized arguments: --bogus"),
        (["sset", "--p", "x"], "argument --p: invalid int value: 'x'"),
        (["--precision", "many", "sset", "--p", "2"],
         "argument --precision: invalid int value: 'many'"),
    ):
        assert run_cli(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n"), argv


def test_long_flags_are_taken_only_in_full(capsys):
    # an abbreviation is refused on the top-level parser, where --p would be
    # read as --precision, and on each subcommand's; the full flag and the
    # --flag=value form still parse
    commands = "'gznorm', 'crosscheck', 'classpoly', 'heegner', 'sset', 'eval'"
    for argv, message in (
        (["--p", "47", "sset", "--p", "2"],
         f"argument command: invalid choice: '47' (choose from {commands})"),
        (["--p", "47", "gznorm", "--d", "39", "--D", "163"],
         f"argument command: invalid choice: '47' (choose from {commands})"),
        (["--prec", "30", "sset", "--p", "2"],
         f"argument command: invalid choice: '30' (choose from {commands})"),
        (["gznorm", "--p", "47", "--d", "39", "--D", "163", "--break"],
         "unrecognized arguments: --break"),
        (["crosscheck", "--p", "2", "--max", "50"], "unrecognized arguments: --max 50"),
    ):
        assert run_cli(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n"), argv
    full = run_cli(capsys, "sset", "--p", "2")
    assert full[0] == EXIT_OK
    assert run_cli(capsys, "--precision=30", "sset", "--p=2") == full


def test_precision_ceiling_refuses_at_once(capsys, monkeypatch):
    # a precision above MAX_DIGITS is refused before any context is built,
    # from the flag and from the environment alike
    from cmforge import hauptmodul
    from cmforge.hauptmodul import MAX_DIGITS

    def no_context(digits):
        raise AssertionError("a context was built")

    monkeypatch.setattr(hauptmodul, "working_context", no_context)
    message = f"error: precision {MAX_DIGITS + 1} exceeds the ceiling of 10000 digits\n"
    argv = ["eval", "--p", "2", "--tau", "0+1i"]
    assert run_cli(capsys, "--precision", str(MAX_DIGITS + 1), *argv) == (EXIT_USAGE, "", message)
    monkeypatch.setenv("CMFORGE_PRECISION", str(MAX_DIGITS + 1))
    assert run_cli(capsys, *argv) == (EXIT_USAGE, "", message)
    code, _, err = run_cli(capsys, "--precision", "100000", "sset", "--p", "2")
    assert (code, err) == (EXIT_USAGE, "error: precision 100000 exceeds the ceiling of 10000 "
                                       "digits\n")


def test_big_integers_serialized_as_strings():
    big = 2 ** 61
    assert canonical_json({"x": big}) == f'{{"x":"{big}"}}'
    assert canonical_json({"x": 7}) == '{"x":7}'


# In the child, time main() alone: interpreter start-up and imports are not
# the refusal's cost.  The subprocess timeout turns an unbounded run into a failure.
TIMED_MAIN = ("import sys, time\n"
              "from cmforge.cli import main\n"
              "start = time.perf_counter()\n"
              "code = main(sys.argv[1:])\n"
              "print(time.perf_counter() - start)\n"
              "sys.exit(code)\n")


def timed_child(*argv):
    """(exit code, stderr, seconds spent in main) of a child process running main(argv)."""
    proc = subprocess.run([sys.executable, "-c", TIMED_MAIN, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=child_env())
    return proc.returncode, proc.stderr, float(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("d", ["7", "478"])
def test_residues_of_a_large_prime_are_found_without_a_scan(d):
    # -1359147 is not a square mod p = 10^12 + 39; a scan of range(2p) would
    # not end, square roots mod p decide it at once
    code, err, seconds = timed_child("gznorm", "--p", "1000000000039", "--d", d,
                                     "--D", "1359147")
    assert code == EXIT_USAGE
    assert err == "error: -1359147 is not a square mod 4000000000156\n"
    assert seconds < 1


@pytest.mark.parametrize("argv, count", [
    (("gznorm", "--p", "23", "--d", "56", "--D", "2305843009213693951"), 988123076),
    (("crosscheck", "--p", "5", "--d", "31", "--D", "1000000000039"), 2227106),
])
def test_lattice_term_ceiling_refuses_before_enumerating(argv, count):
    code, err, seconds = timed_child(*argv)
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {count} lattice terms exceed the ceiling 1000000")
    assert seconds < 1


def test_lattice_term_ceiling_accepts_readme_sizes(capsys):
    code, out, err = run_cli(capsys, "gznorm", "--p", "2", "--d", "7", "--D", "1000007")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("p=2 d=7 D=1000007 ")


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    from cmforge import cli as cli_mod

    calls = []
    original = cli_mod.build_parser

    def counting():
        calls.append(1)
        return original()

    monkeypatch.setattr(cli_mod, "_parser", None)
    monkeypatch.setattr(cli_mod, "build_parser", counting)
    for _ in range(5):
        assert cli_mod.main(["sset", "--p", "47"]) == EXIT_OK
        assert cli_mod.main(["sset"]) == EXIT_USAGE  # argparse: --p is required
    assert len(calls) == 1
    capsys.readouterr()


def test_command_rebound_after_the_parser_exists_is_dispatched(capsys, monkeypatch):
    # the command is looked up by name at call time, not bound into the parser
    from cmforge import cli as cli_mod

    assert cli_mod.main(["sset", "--p", "47"]) == EXIT_OK
    assert cli_mod._parser is not None
    seen = []
    monkeypatch.setattr(cli_mod, "cmd_sset", lambda args: seen.append(args.p) or 7)
    assert cli_mod.main(["sset", "--p", "47"]) == 7
    assert seen == [47]
    capsys.readouterr()


def test_call_after_a_usage_error_matches_a_fresh_process(capsys):
    # a parse that fails leaves nothing behind in the stored parser
    argv = ["--format", "json", "classpoly", "--p", "47", "--d", "39"]
    assert run_cli(capsys, "classpoly", "--p", "47", "--d", "x")[0] == EXIT_USAGE
    assert run_cli(capsys, "--format", "yaml", "sset", "--p", "47")[0] == EXIT_USAGE
    code, out, _ = run_cli(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "cmforge.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=child_env())
    assert code == proc.returncode == EXIT_OK
    assert out == proc.stdout


def test_help_is_the_parser_help(capsys):
    from cmforge.cli import build_parser

    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (EXIT_OK, "")
    assert out == build_parser().format_help()


def test_decimal_conversion_equals_str_without_the_digit_limit():
    # around the piece size, where one str() call suffices, and far above
    # it, where the balanced split joins pieces; the reference str() runs
    # with the interpreter's digit limit lifted, _decimal under the default
    from cmforge.cli import _DECIMAL_PIECE_BITS, _decimal

    rng = random.Random(347)
    cases = [0, 1, -1]
    for bits in (_DECIMAL_PIECE_BITS - 1, _DECIMAL_PIECE_BITS, _DECIMAL_PIECE_BITS + 1,
                 2 * _DECIMAL_PIECE_BITS + 1, 100_003, 390_748):
        cases += [2 ** bits - 1, 2 ** bits, 10 ** (bits * 3 // 10), rng.getrandbits(bits)]
    cases += [-n for n in cases]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(n) for n in cases]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [_decimal(n) for n in cases] == expected


def test_json_gznorm_converts_its_norm_once(capsys, monkeypatch):
    # the text line and the JSON value share one conversion of the norm
    from cmforge import cli as cli_mod

    calls = []
    decimal = cli_mod._decimal
    monkeypatch.setattr(cli_mod, "_decimal", lambda n: calls.append(n) or decimal(n))
    for output_format in ("json", "text"):
        del calls[:]
        code, out, _ = run_cli(capsys, "--format", output_format, "gznorm", "--p", "2",
                               "--d", "7", "--D", "10007")
        assert code == EXIT_OK and len(calls) == 1 and calls[0].bit_length() > 53
        assert (f'"value":"{decimal(calls[0])}"' in out if output_format == "json"
                else f"norm: {decimal(calls[0])}\n" in out)


#: What the installed script prints for --format json sset --p 2.
SSET_2_JSON = ('{"command":"sset","params":{"p":2},"result":{"s_set":[-4,-7,-8],"size":3},'
               '"warnings":[]}')


def test_console_script_entry_point(capsys, monkeypatch):
    # the [project.scripts] line of pyproject.toml, read as text (tomllib
    # is missing before Python 3.11), names the function an installed
    # cmforge runs; it reads sys.argv and exits with main's code
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (line,) = [line for line in pyproject.read_text(encoding="utf-8").splitlines()
               if line.startswith("cmforge = ")]
    assert line == 'cmforge = "cmforge.cli:run"'
    module, _, name = line.split('"')[1].partition(":")
    entry = getattr(importlib.import_module(module), name)
    for argv, code, out in ((["--format", "json", "sset", "--p", "2"], EXIT_OK, SSET_2_JSON + "\n"),
                            (["--no-such-flag", "sset", "--p", "2"], EXIT_USAGE, "")):
        monkeypatch.setattr(sys, "argv", ["cmforge", *argv])
        with pytest.raises(SystemExit) as exited:
            entry()
        assert exited.value.code == code
        assert capsys.readouterr().out == out
