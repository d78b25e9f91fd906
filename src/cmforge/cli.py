"""Command line front end.  Besides hauptmodul.load_qseries, which reads
coefficient files, it is the only code that performs I/O.

Exit codes: 0 success; 2 a refusal, that is every CMForgeError not named
below (ParameterError, PrecisionError, SignResolutionError and its
AmbiguousSignsError, NonIntegralMagnitudeError); 3 an InternalError or a
failed assertion; 4 cross-check disagreement; 5 an InfeasibleError.
Diagnostics go to stderr; stdout carries data only.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import math
import os
import re
import sys
from fractions import Fraction

import mpmath

from . import crosscheck as crosscheck_mod
from .errors import (
    CMForgeError,
    InfeasibleError,
    InternalError,
    NonIntegralMagnitudeError,
    ParameterError,
)
from .gzrhs import (
    DEFAULT_RAMIFIED_EXPONENT,
    RAMIFIED_OF_M,
    RAMIFIED_OF_MD,
    PrimeLogSum,
    gz_log_norm,
    gz_params,
    score_terms,
)
from .hauptmodul import (
    Hauptmodul,
    check_digits,
    load_qseries,
    require_genus_zero,
    value_with_bound,
    working_context,
)
from .hcp import class_polynomial, require_feasible, s_set
from .quadforms import heegner_reps

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_CROSSCHECK_FAILED = 4
EXIT_INFEASIBLE = 5

_INT_STRING_LIMIT = 2 ** 53
#: Largest bit length converted by one str() call: about 3900 digits, inside
#: the interpreter's default limit of 4300 on integer-to-string conversion.
_DECIMAL_PIECE_BITS = 13000
#: Significant digits of a norm value shown as a decimal string.
_VALUE_DIGITS = 17
#: eval prints a value only while each part's binary exponent is below
#: 10^_EXPONENT_DIGITS in size: mpmath.nstr's cost grows with the exponent's
#: digits (0.24 s at 1000, 1.5 s at 2000) up to the int-to-str limit.
_EXPONENT_DIGITS = 1000


def _decimal(n: int) -> str:
    """str(n), without the interpreter's limit on integer-to-string conversion.

    Beyond _DECIMAL_PIECE_BITS, n is split in halves by bit length down to
    pieces inside the limit, and decimal.Decimal, exact at MAX_PREC, joins
    them as high 2^k + low: a balanced split, as CPython's _pylong converts,
    in place of divisions by powers of ten.
    """
    if n.bit_length() <= _DECIMAL_PIECE_BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)

    def join(m, bits):
        if bits <= _DECIMAL_PIECE_BITS:
            return decimal.Decimal(m)
        half = bits // 2
        high = m >> half
        return join(high, bits - half) * decimal.Decimal(2) ** half + join(m - (high << half), half)

    with decimal.localcontext() as context:
        context.prec, context.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        return str(join(n, n.bit_length()))


def _jsonable(obj):
    """Canonical JSON form: big integers as strings, rationals as 'num/den'."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj if abs(obj) <= _INT_STRING_LIMIT else _decimal(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def _emit(report: dict, output_format: str, csv_rows=None, csv_header=None, text_lines=None):
    if output_format == "json":
        print(canonical_json(report))
    elif output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header or ["key", "value"])
        for row in csv_rows or _flat_rows(report["result"]):
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
    else:
        for line in text_lines or [canonical_json(report)]:
            print(line)


def _flat_rows(result, prefix=""):
    rows = []
    if isinstance(result, dict):
        for k, v in sorted(result.items(), key=lambda kv: str(kv[0])):
            rows.extend(_flat_rows(v, f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(result, (list, tuple)):
        for i, v in enumerate(result):
            rows.extend(_flat_rows(v, f"{prefix}{i}."))
    else:
        rows.append([prefix.rstrip("."), result])
    return rows


def _parse_tau(text: str):
    """Parse 're+im i' decimal pairs like 0.0+1.0i or -0.5-2e-1i."""
    compact = text.replace(" ", "")
    match = re.fullmatch(
        r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
        r"([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i",
        compact,
    )
    if not match:
        raise ParameterError(f"cannot parse tau {text!r}; expected re+im i")
    return match.group(1), match.group(2)


def _series(args):
    return load_qseries(args.series) if args.series else None


def _exponent_map(items):
    return {str(q): Fraction(e) for q, e in items}


def _exponent_text(items):
    return " ".join(f"{q}^{e}" for q, e in items) or "(empty)"


def _float_or_decimal(pls):
    """The norm exp(log_value / 8) as a float, or as a decimal string where
    that float would overflow or underflow to zero."""
    try:
        value = math.exp(pls.log_value() / 8)
    except OverflowError:
        value = 0.0
    if value:
        return value
    ctx = working_context(_VALUE_DIGITS)
    return ctx.nstr(ctx.exp(pls.log_value_mpf(ctx) / 8), _VALUE_DIGITS)


def _norm_payload(pls):
    """JSON payload and text form of the norm prod q^(e_q/8) of a prime-log sum.
    An integral norm is converted to decimal once: the payload holds the
    text where _jsonable would convert the int again."""
    factors = [(q, Fraction(e, 8)) for q, e in pls.items()]
    try:
        norm = pls.norm()
    except NonIntegralMagnitudeError:
        integral, value = False, _float_or_decimal(pls)
        text = "*".join(
            f"{q}^({e})" if e.denominator != 1 else f"{q}^{e}" for q, e in factors
        )
    else:
        text = _decimal(norm)
        integral, value = True, norm if abs(norm) <= _INT_STRING_LIMIT else text
    payload = {"factors": {str(q): e for q, e in factors}, "integral": integral,
               "value": value}
    return payload, text


def cmd_gznorm(args) -> int:
    params = gz_params(args.p, args.d, args.D, mu=args.mu, beta=args.beta)
    require_genus_zero(params.p)  # the norm is defined through j*_p
    variant = args.ramified_exponent
    if args.breakdown:
        terms, contributions = score_terms(params)
        pls = PrimeLogSum.total(contributions, variant)
    else:
        pls = gz_log_norm(params, variant)
    norm, norm_text = _norm_payload(pls)
    result = {
        "exponents": _exponent_map(pls.items()),
        "log_value": pls.log_value(),
        "norm": norm,
        "ramified_exponent": variant,
    }
    text = [
        f"p={params.p} d={params.d} D={params.D} beta={params.beta} mu={params.mu}",
        f"exponents: {_exponent_text(pls.items())}",
        f"log value: {pls.log_value():.12g}",
        f"norm: {norm_text}",
    ]
    if args.breakdown:
        rows = []
        for term, contribution in zip(terms, contributions):
            m = Fraction(term.md, params.D)
            coeff = getattr(contribution, variant)
            items = [(contribution.prime, coeff)] if coeff else []
            rows.append(
                {
                    "sign": term.sign,
                    "y": term.y,
                    "n": term.n,
                    "t": term.t,
                    "m": m,
                    "contribution": _exponent_map(items),
                }
            )
            text.append(
                f"  sign={term.sign:+d} y={term.y} n={term.n} t={term.t} m={m} "
                f"-> {_exponent_text(items)}"
            )
        result["terms"] = rows
    report = _report("gznorm", {"p": params.p, "d": params.d, "D": params.D,
                                "beta": params.beta, "mu": params.mu}, result)
    csv_rows = [[params.p, params.d, params.beta, params.D, params.mu, q, f"{e}/1"]
                for q, e in pls.items()]
    _emit(report, args.output_format, csv_rows=csv_rows,
          csv_header=["p", "d", "beta", "D", "mu", "prime", "exponent"],
          text_lines=text)
    return EXIT_OK


def _report(command: str, params: dict, result: dict, warnings=()) -> dict:
    return {"command": command, "params": params, "result": result,
            "warnings": list(warnings)}


def cmd_crosscheck(args) -> int:
    hm = Hauptmodul(args.p, args.digits, _series(args))
    if args.d is not None and args.D is not None:
        results = [crosscheck_mod.run_crosscheck(hm, args.d, args.D)]
    elif args.d is None and args.D is None:
        pairs = crosscheck_mod.admissible_pairs(args.p, args.max_disc, args.count)
        results = [crosscheck_mod.run_crosscheck(hm, d, D) for d, D in sorted(pairs)]
    else:
        raise ParameterError("supply both --d and --D, or neither for a batch run")

    rows = []
    text = []
    all_pass = True
    for res in results:
        default_pass = res.passed(args.ramified_exponent)
        all_pass = all_pass and default_pass
        entry = {
            "d": res.d, "D": res.D, "beta": res.beta, "mu": res.mu,
            "lhs": res.lhs, "lhs_error_estimate": res.lhs_error_estimate,
            "rhs": res.rhs, "relative_discrepancy": res.discrepancy,
            "variants_differ": res.variants_differ,
            "passes": res.passes,
            "status": "PASS" if default_pass else "FAIL",
        }
        rows.append(entry)
        text.append(
            f"p={args.p} d={res.d} D={res.D}: LHS={res.lhs:.10g} "
            f"RHS[{args.ramified_exponent}]={res.rhs[args.ramified_exponent]:.10g} "
            f"rel={res.discrepancy[args.ramified_exponent]:.3e} "
            f"{'PASS' if default_pass else 'FAIL'}"
        )
        if res.variants_differ:
            winner = [v for v, ok in res.passes.items() if ok]
            text.append(
                f"  ramified-exponent variants differ; passing variant: "
                f"{', '.join(winner) if winner else 'none'}"
            )
    report = _report("crosscheck",
                     {"p": args.p, "tolerance": crosscheck_mod.RELATIVE_TOLERANCE},
                     {"checks": rows, "all_pass": all_pass,
                      "variant": args.ramified_exponent})
    _emit(report, args.output_format, text_lines=text)
    return EXIT_OK if all_pass else EXIT_CROSSCHECK_FAILED


def cmd_classpoly(args) -> int:
    if args.ramified_exponent != RAMIFIED_OF_MD:
        raise ParameterError(
            f"classpoly interpolates only the {RAMIFIED_OF_MD} norms; "
            f"--ramified-exponent {args.ramified_exponent} fails the numeric cross-check"
        )
    series = _series(args)
    hauptmodul = None
    if args.strategy == "numeric":
        require_feasible(args.p, args.d)  # too few pairs exits 5, with or without a series
        hauptmodul = Hauptmodul(args.p, args.digits, series)
    report_data = class_polynomial(args.p, args.d, args.base_discriminant, hauptmodul)
    poly = report_data.polynomial
    pair_rows = [
        {"D": pr.D, "x": x, "y": y, "x_mag": pr.x_mag, "y_mag": pr.y_mag}
        for pr, (x, y) in zip(report_data.pairs, report_data.points)
    ]
    result = {
        "polynomial": str(poly),
        "coefficients": list(poly.coefficients),
        "degree": poly.degree,
        "s_set": report_data.s_set,
        "base_discriminant": report_data.base_disc,
        "beta": report_data.beta,
        "pairs": pair_rows,
    }
    text = [
        f"S({args.p}) = {{{', '.join(str(x) for x in report_data.s_set)}}}",
        f"base discriminant: {report_data.base_disc}",
        "pairs (D, X, Y): " + " ".join(f"({r['D']}, {r['x']}, {r['y']})" for r in pair_rows),
        str(poly),
    ]
    _emit(_report("classpoly", {"p": args.p, "d": args.d}, result), args.output_format,
          text_lines=text)
    return EXIT_OK


def cmd_heegner(args) -> int:
    forms = heegner_reps(-args.d, args.p, args.beta)
    rows = []
    text = []
    for f in forms:
        tau = f"({-f.b} + sqrt({f.discriminant})) / {2 * f.a}"
        rows.append(dict(zip("abc", f), tau=tau))
        text.append(f"{f}  tau = {tau}")
    result = {"forms": rows, "count": len(rows)}
    _emit(_report("heegner", {"d": args.d, "p": args.p, "beta": args.beta}, result),
          args.output_format,
          csv_rows=forms, csv_header=["a", "b", "c"],
          text_lines=text)
    return EXIT_OK


def cmd_sset(args) -> int:
    members = s_set(args.p)
    result = {"s_set": members, "size": len(members)}
    _emit(_report("sset", {"p": args.p}, result), args.output_format,
          csv_rows=[[m] for m in members], csv_header=["D"],
          text_lines=["{" + ", ".join(str(m) for m in members) + "}"])
    return EXIT_OK


def cmd_eval(args) -> int:
    re_part, im_part = _parse_tau(args.tau)
    hm = Hauptmodul(args.p, args.digits, _series(args))
    value, _ = value_with_bound(hm, hm.ctx.mpc(re_part, im_part))
    for _, man, exp, bc in (value.real._mpf_, value.imag._mpf_):
        if man and abs(exp + bc) >= 10 ** _EXPONENT_DIGITS:
            raise ParameterError(f"the value at tau={args.tau} lies beyond 2^(+-10^"
                                 f"{_EXPONENT_DIGITS}), too far from 1 to print")
    result = {
        "re": mpmath.nstr(value.real, hm.digits),
        "im": mpmath.nstr(value.imag, hm.digits),
    }
    _emit(_report("eval", {"p": args.p, "tau": args.tau}, result), args.output_format,
          text_lines=[f"{result['re']} {result['im']}i"])
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose parse errors print one line, without the usage,
    and that takes long flags only in full: an abbreviation such as --p
    before the command would otherwise be read as --precision.  Subcommand
    parsers are built from this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cmforge",
        description="Exact CM-value norms, numeric cross-checks, and class polynomials "
                    "for Fricke-group Hauptmoduls.",
    )
    parser.add_argument("--precision", type=int, default=None,
                        help="decimal digits for numeric work (default 80; "
                             "CMFORGE_PRECISION overrides)")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text",
                        dest="output_format")
    parser.add_argument("--ramified-exponent", choices=(RAMIFIED_OF_MD, RAMIFIED_OF_M),
                        default=DEFAULT_RAMIFIED_EXPONENT)
    parser.add_argument("--series", default=None, help="path to a q-expansion file")
    parser.add_argument("--base-discriminant", type=int, default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    gz = sub.add_parser("gznorm", help="exact factored norm for one discriminant pair")
    gz.add_argument("--p", type=int, required=True)
    gz.add_argument("--d", type=int, required=True)
    gz.add_argument("--D", type=int, required=True)
    gz.add_argument("--beta", type=int, default=None)
    gz.add_argument("--mu", type=int, default=None)
    gz.add_argument("--breakdown", action="store_true", help="per-term table")

    cc = sub.add_parser("crosscheck", help="compare the exact norm against numerics")
    cc.add_argument("--p", type=int, required=True)
    cc.add_argument("--d", type=int, default=None)
    cc.add_argument("--D", type=int, default=None)
    cc.add_argument("--max-disc", type=int, default=500, help="batch-mode bound")
    cc.add_argument("--count", type=int, default=5, help="batch-mode pair count")

    cp = sub.add_parser("classpoly", help="construct a class polynomial")
    cp.add_argument("--p", type=int, required=True)
    cp.add_argument("--d", type=int, required=True)
    cp.add_argument("--strategy", choices=("search", "numeric"), default="search")

    hg = sub.add_parser("heegner", help="representative forms and CM points")
    hg.add_argument("--d", type=int, required=True)
    hg.add_argument("--p", type=int, required=True)
    hg.add_argument("--beta", type=int, required=True)

    ss = sub.add_parser("sset", help="usable degree-one discriminants for p")
    ss.add_argument("--p", type=int, required=True)

    ev = sub.add_parser("eval", help="evaluate the generator at a point")
    ev.add_argument("--p", type=int, required=True)
    ev.add_argument("--tau", type=str, required=True, help='complex point "re+im i"')

    return parser


def _default_digits() -> int:
    env = os.environ.get("CMFORGE_PRECISION")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"CMFORGE_PRECISION={env!r} is not an integer") from None
    return 80


#: The parser main uses, built on its first call.  argparse keeps no state
#: between parses, so one parser serves every call of the process.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        digits = args.precision if args.precision is not None else _default_digits()
        args.digits = check_digits(digits)
        # looked up per call, so a cmd_* rebound after the parser exists still runs
        return globals()[f"cmd_{args.command}"](args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CMForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
