"""cmforge benchmark: seeded closed-loop CLI workloads with checked outputs.

    python3 bench/run.py --workload classpoly_sweep --seed 1 --seconds 30 --trace 0

One client calls ``cmforge.cli.main([..., "--format", "json", ...])``
in-process with stdout and stderr captured; the next call starts when the
previous one returns.  Every output is checked against expected/.

With ``--trace 0`` the run measures whole passes over the seed's operations
for about ``--seconds`` seconds and the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` it runs one pass untraced, then the
same pass with spans around cmforge's public functions, and reports the
per-layer metrics and the tracing overhead.  Times are rescaled to a
reference speed of the host (clock.py).  Details and spans go to out/.  See
NOTES.md for the metric definitions and why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import checks
import inputs
from clock import Clock
from tracer import OP_SPAN, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 7
#: Stop starting passes after this long, whatever --seconds says.
MAX_MEASURE_S = 120.0

#: Calibration kernel of each workload (clock.py).
KERNEL = {
    "classpoly_sweep": "fractions",
    "gznorm_large": "fractions",
    "crosscheck_300": "mpmath",
}

CHECKS = {
    "classpoly_sweep": checks.check_classpoly,
    "gznorm_large": checks.check_gznorm,
    "crosscheck_300": partial(checks.check_crosscheck, digits=inputs.CROSSCHECK_PRECISION),
}

NO_WAITING = ("no queue or thread lies on these paths, so no layer has a waiting "
              "time; none is reported")


def import_cli():
    """cmforge.cli.main from the checkout's src/, never from an installed copy."""
    if not (SRC / "cmforge" / "cli.py").is_file():
        raise FileNotFoundError(f"no cmforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cmforge.cli

    if not Path(cmforge.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cmforge imported from {cmforge.cli.__file__}, not {SRC}")
    return cmforge.cli.main


@dataclass
class Op:
    key: tuple
    rc: object
    stdout: str


def run_op(main, argv):
    """One CLI call; returns (exit code, stdout, stderr, raw seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # an escaping exception is a failed operation
            rc = f"raised {type(exc).__name__}"
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


def prepare(workload: str, seed: int):
    """Everything set-up covers: import, input generation and warm-up."""
    main = import_cli()
    plan = inputs.Plan(workload, seed, inputs.load_expected(workload))
    run_op(main, inputs.WARMUP_ARGV[workload])
    return main, plan


def measure_setup(workload: str, seed: int) -> float:
    """Median raw set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_passes(main, plan, seconds: float, max_passes: int | None = None):
    """Closed loop over whole passes; another starts only if it should end in time."""
    clock = Clock(KERNEL[plan.workload])
    ops = []
    start = time.perf_counter()
    passes = 0
    while True:
        for key in plan.ops:
            rc, out, _, op_seconds = run_op(main, plan.argv(key))
            ops.append(Op(key, rc, out))
            clock.add(op_seconds)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes == max_passes or elapsed >= MAX_MEASURE_S:
            break
        if elapsed * (passes + 1) / passes > seconds:
            break
    return ops, clock, passes


def tally(workload: str, plan, ops) -> dict:
    check = CHECKS[workload]
    counts = {checks.SOLVED: 0, checks.DECLINED: 0, checks.FAILED: 0, "wrong": 0}
    failures = {}
    for op in ops:
        outcome = check(plan.expected_for(op.key), op.rc, op.stdout)
        counts[outcome.kind] += 1
        counts["wrong"] += outcome.wrong
        if outcome.kind == checks.FAILED:
            failures[" ".join(map(str, op.key))] = outcome.reason
    counts["failures"] = dict(sorted(failures.items()))
    return counts


def end_to_end(ops, clock: Clock, counts: dict, setup_s: float) -> dict:
    n = len(ops)
    times_ms = [seconds * 1000 for seconds in clock.scaled_times()]
    return {
        "ops_per_s": (n / math.fsum(times_ms) * 1000, "op/s"),
        "op_ms_p50": (statistics.median(times_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(times_ms, n=10, method="inclusive")[8], "ms"),
        "solved_ratio": (counts[checks.SOLVED] / n, "fraction"),
        "sound_ratio": ((n - counts[checks.FAILED]) / n, "fraction"),
        "setup_s": (setup_s * clock.factor, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, ops: int, traced: Clock, untraced: Clock) -> dict:
    """Per-op span metrics of the traced pass, rescaled like the op times."""
    summary = tracer.summary()
    for row in summary.values():
        row["ns"] *= traced.factor
        row["self_ns"] *= traced.factor
    metrics = {"cli.ms": (summary[OP_SPAN]["self_ns"] / 1e6 / ops, "ms/op")}
    for name, row in summary.items():
        if name == OP_SPAN:
            continue
        metrics[f"{name}.ms"] = (row["ns"] / 1e6 / ops, "ms/op")
        metrics[f"{name}.self_ms"] = (row["self_ns"] / 1e6 / ops, "ms/op")
        metrics[f"{name}.calls"] = (row["calls"] / ops, "1/op")
        metrics[f"{name}.raised"] = (row["raised"] / ops, "1/op")
    for name, calls in tracer.counts.items():
        metrics[f"{name}.calls"] = (calls / ops, "1/op")
    gz_calls = summary["gzrhs.gz_log_norm"]["calls"]
    contributions = summary["gzrhs.term_contribution"]["calls"]
    points = summary["hauptmodul.reduce_point"]["calls"]
    metrics.update({
        "hcp.sign_candidates": (tracer.sign_candidates / ops, "1/op"),
        "gzrhs.gz_log_norm.distinct_ratio":
            (tracer.gz_distinct / gz_calls if gz_calls else 0.0, "ratio"),
        "gzrhs.terms": (tracer.terms / ops, "1/op"),
        "gzrhs.contributing_ratio":
            (tracer.contributing / contributions if contributions else 0.0, "ratio"),
        "hauptmodul.points": (points / ops, "1/op"),
        "hauptmodul.ms_per_point":
            (summary["hauptmodul.lhs_log_norm"]["ns"] / 1e6 / points if points else 0.0, "ms"),
        "trace.overhead": (traced.scaled_s / untraced.scaled_s, "ratio"),
    })
    return metrics


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    import mpmath

    digest = hashlib.sha256()
    for path in sorted((SRC / "cmforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli_main, plan = prepare(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "environment": env, "waiting": NO_WAITING,
              "loop": "closed, one client, in-process cmforge.cli.main",
              "kernel": KERNEL[args.workload]}

    gc.collect()
    if args.trace:
        untraced, untraced_clock, _ = run_passes(cli_main, plan, 0, max_passes=1)
        tracer = Tracer()
        tracer.install()
        traced, clock, passes = run_passes(partial(tracer.call_op, cli_main), plan, 0,
                                           max_passes=1)
        ops = untraced + traced
        counts = tally(args.workload, plan, ops)
        metrics = per_layer(tracer, len(traced), clock, untraced_clock)
        report["spans"] = tracer.write(stem.with_suffix(".spans.csv.gz"))
        report["span_summary"] = tracer.summary()
    else:
        ops, clock, passes = run_passes(cli_main, plan, args.seconds)
        counts = tally(args.workload, plan, ops)
        metrics = end_to_end(ops, clock, counts, setup_s)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    report.update(passes=passes, attempted=len(ops), outcomes=counts,
                  raw_seconds=clock.raw_s, scaled_seconds=clock.scaled_s,
                  calibrations=clock.calibrations, metrics=metrics)
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops in "
          f"{passes} pass(es){' untraced, then traced' if args.trace else ''}, "
          "closed loop with one client")
    print(f"time in cmforge: {clock.raw_s:.3f} s wall, {clock.scaled_s:.3f} s at the "
          f"reference speed ({clock.kernel_name} kernel at {clock.reference_s * 1000:g} ms)")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"outcomes: {counts[checks.SOLVED]} solved, {counts[checks.DECLINED]} declined, "
          f"{counts[checks.FAILED]} failed ({counts['wrong']} wrong answers), "
          f"failed_ratio {counts[checks.FAILED] / len(ops):.4f}")
    if args.trace:
        print(f"waiting: {NO_WAITING}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": len(ops),
        "failed": counts[checks.FAILED],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
