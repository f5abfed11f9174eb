"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        [--workloads reflections mirror period-sweep] [--seconds S]

Runs ``run.py`` once per (workload, seed), one after another, and prints
for every end-to-end metric its median over the seeds and the distance
between its first and third quartile as a share of the median, next to
the metric's bound in BENCHMARK.json.  A spread above a third of its
bound is flagged, except for setup_s, whose run-to-run spread is not
bounded.  Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (workload, seed,
                                               proc.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v[-1]) for k, v in values.items())),
                flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            spread = stats.quartile_spread(vals)
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  above a third of the bound"
            print("%-14s %-24s median %-12.6g spread %6.3f bound %.3f%s"
                  % (workload, name, statistics.median(vals), spread,
                     bounds[name], flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
