import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest

import cmforge
from cmforge.arith import is_fundamental_discriminant
from cmforge.cli import (
    EXIT_CROSSCHECK_FAILED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    canonical_json,
    main,
)
from cmforge.crosscheck import admissible_pairs
from cmforge.errors import ParameterError
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
    src = Path(cmforge.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "cmforge.cli", "--format", "json", "crosscheck", "--p", "2",
         "--count", "1", "--max-disc", "1000000000000"],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    checks = json.loads(proc.stdout)["result"]["checks"]
    assert [(c["d"], c["D"]) for c in checks] == admissible_pairs(2, 500, 1)


def test_crosscheck_requires_series_for_large_p(capsys):
    code, _, err = run_cli(capsys, "crosscheck", "--p", "47", "--d", "39", "--D", "163")
    assert code == EXIT_USAGE
    assert "coefficient" in err or "series" in err.lower()


def test_primes_outside_the_genus_zero_fifteen_are_refused_by_name(tmp_path, capsys,
                                                                    monkeypatch):
    # j*_p exists only where X0*(p) has genus zero: eval and crosscheck
    # refuse any other prime as gznorm does, with or without a coefficient
    # file, and before any lattice work
    from cmforge import crosscheck

    def no_lattice(params):
        raise AssertionError("the lattice was enumerated")

    monkeypatch.setattr(crosscheck, "enumerate_terms", no_lattice)
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
    from cmforge import crosscheck

    def no_lattice(params):
        raise AssertionError("the lattice was enumerated")

    monkeypatch.setattr(crosscheck, "enumerate_terms", no_lattice)
    for argv in (["crosscheck", "--p", "47", "--d", "39", "--D", "163"],
                 ["crosscheck", "--p", "47"],
                 ["classpoly", "--p", "47", "--d", "39", "--strategy", "numeric"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err == "error: no closed form for p=47; supply a coefficient file\n", argv


def test_low_precision_is_reported_before_lattice_work(capsys, monkeypatch):
    from cmforge import crosscheck

    def no_lattice(params):
        raise AssertionError("the lattice was enumerated")

    monkeypatch.setattr(crosscheck, "enumerate_terms", no_lattice)
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
    src = Path(cmforge.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", TIMED_MAIN, *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
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
    src = Path(cmforge.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "cmforge.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert code == proc.returncode == EXIT_OK
    assert out == proc.stdout


def test_help_is_the_parser_help(capsys):
    from cmforge.cli import build_parser

    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (EXIT_OK, "")
    assert out == build_parser().format_help()
