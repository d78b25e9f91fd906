"""Record the expected outputs that run.py checks every operation against.

Run once, from the repository root, at the commit that defines the
benchmark:

    python3 bench/record.py

It writes expected/<workload>.json.  Re-recording at a later commit would
make the checks accept whatever that commit prints, so a later change that
alters an output must justify the new expectation on its own.
"""

from __future__ import annotations

import json
import sys
import time

import inputs
from checks import canonical
from run import SRC, run_op


def _pairs_table(hcp, p, d):
    """Magnitude table [D, |X_D|, |Y_D|] as class_polynomial builds it, or None."""
    from cmforge.errors import CMForgeError

    beta = min(hcp.admissible_residues(-d, p))
    base = next(disc for disc in hcp.usable_s_set(p) if -disc != d)
    try:
        pairs = hcp.build_pairs(d, beta, p, base)
    except CMForgeError:
        return None
    return [[pr.D, pr.x_mag, pr.y_mag] for pr in pairs]


def record_classpoly(main):
    from cmforge import hcp

    cases = []
    for p, d in inputs.classpoly_cases():
        rc, stdout, _, _ = run_op(main, inputs.argv_for("classpoly_sweep", (p, d)))
        entry = {"key": [p, d], "exit": rc, "h": inputs.class_number(d),
                 "coefficients": None, "pairs": None, "magnitudes": _pairs_table(hcp, p, d)}
        if rc == 0:
            result = json.loads(stdout)["result"]
            entry["coefficients"] = [int(c) for c in result["coefficients"]]
            entry["pairs"] = [[pr["D"], int(pr["x"]), int(pr["y"])] for pr in result["pairs"]]
            table = [[pr["D"], int(pr["x_mag"]), int(pr["y_mag"])] for pr in result["pairs"]]
            if table != entry["magnitudes"]:
                raise RuntimeError(f"classpoly {p} {d}: CLI and library tables differ")
        cases.append(entry)
    return {"cases": cases}


def record_pool(main, workload, pool):
    cells = []
    for cell in pool:
        items = []
        for key in cell:
            rc, stdout, stderr, seconds = run_op(main, inputs.argv_for(workload, key))
            if rc != 0:
                raise RuntimeError(f"{workload} {key}: exit {rc}: {stderr.strip()}")
            result = json.loads(stdout)["result"]
            item = {"key": list(key), "seconds": round(seconds, 3)}
            if workload == "gznorm_large":
                item["result"] = canonical(result)
            else:
                (check,) = result["checks"]
                item["lhs"] = check["lhs"]
                item["rhs"] = check["rhs"]["of_mD"]
                item["relative_discrepancy"] = check["relative_discrepancy"]["of_mD"]
            items.append(item)
        cells.append(items)
    total = sum(item["seconds"] for cell in cells for item in cell)
    print(f"{workload}: {len(cells)} cells, {total:.1f} s per pass", file=sys.stderr)
    return {"cells": cells}


def main(argv=None) -> int:
    sys.path.insert(0, str(SRC))
    from cmforge.cli import main as cli_main

    targets = argv or list(inputs.WORKLOADS)
    for workload in targets:
        start = time.perf_counter()
        if workload == "classpoly_sweep":
            data = record_classpoly(cli_main)
        elif workload == "gznorm_large":
            data = record_pool(cli_main, workload, inputs.gznorm_pool())
        else:
            data = record_pool(cli_main, workload, inputs.crosscheck_pool())
        with open(inputs.EXPECTED_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: recorded in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
