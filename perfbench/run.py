"""Benchmark of the gamma_monodromy reflection-vector pipeline.

    python3 perfbench/run.py --workload reflections|mirror|period-sweep|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
``all`` runs the three workloads one after another, each for S seconds,
and exits non-zero if any of them does.

Each workload is a closed loop: one client in one process sends its
requests one after another.  Every repetition runs in a fresh interpreter
(no cache survives between repetitions) with ``GM_THREADS`` removed from
the environment and the BLAS thread setting left as the user has it.
Repetitions continue while the next one fits in ``--seconds``; at least
one always runs.

--trace 0 reports the end-to-end metrics: medians over repetitions of
the timed phase's wall and CPU time and of peak memory, request latency
percentiles over all requests, and the median of at least SETUP_SAMPLES
set-ups.  --trace 1 alternates untraced and traced repetitions and
reports per-layer counts and times from the traced ones; it also checks
that the workloads still bypass the layers they are meant to bypass and
that the deterministic counts repeat.

Human-readable lines come first; the last line of standard output is the
JSON result.  The exit code is 0 when every gate passed, 1 when a gate or
a self-check failed, 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("reflections", "mirror", "period-sweep")
SETUP_SAMPLES = 5
# a run must end within 180 s whatever --seconds says: no repetition may
# outlast this
TOTAL_LIMIT_S = 170.0
MARGIN_CAP = 300.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_METRICS = (("wall_s", "s"), ("cpu_s", "s"), ("request_p50_s", "s"),
               ("request_p90_s", "s"), ("setup_s", "s"),
               ("peak_rss_mb", "MB"), ("fail_frac", "ratio"),
               ("accuracy_margin_digits", "decades"))
# Printed but left out of the result line: fail_frac is exactly 0 whenever
# every gate passes (the result line carries failed out of attempted), and
# accuracy_margin_digits swings by a factor of three between seeds on
# reflections, where the P^3 composite residual is erratic in q.
RESULT_E2E_METRICS = tuple(
    name for name, _unit in E2E_METRICS
    if name not in ("fail_frac", "accuracy_margin_digits"))

# bypass self-check: calls that must be zero / layers that must be used
BYPASSED = {
    "reflections": ("mirror.phi_mb_batch.calls",),
    "mirror": ("numerics.ode_continue.calls",),
    "period-sweep": ("numerics.ode_continue.calls",
                     "mirror.phi_mb_batch.calls"),
}
LAYER_HOME = {"numerics": "reflections", "cohomology": "reflections",
              "monodromy": "reflections", "mirror": "mirror",
              "quantum": "period-sweep", "periods": "period-sweep"}
# counts that must repeat exactly for a fixed seed
DETERMINISTIC = ("numerics.rhs_evals", "periods.master_period.calls",
                 "mirror.mb_nodes", "mirror.oscillatory_j.calls")

# per-layer metrics of the traced run, layer by layer: (name, unit)
LAYER_METRICS = (
    ("numerics.ode_continue.calls", "count"),
    ("numerics.ode_continue.self_s", "s"),
    ("numerics.rhs_evals", "count"),
    ("numerics.rhs.s", "s"),
    ("numerics.eig_unit_minus.s", "s"),
    ("numerics.polygamma.calls", "count"),
    ("numerics.polygamma.s", "s"),
    ("numerics.recip_gamma_jet.calls", "count"),
    ("quantum.sseries.calls", "count"),
    ("quantum.sseries.s", "s"),
    ("quantum.sseries.hit_ratio", "ratio"),
    ("periods.fundamental_solution.calls", "count"),
    ("periods.fundamental_solution.self_s", "s"),
    ("periods.master_period.calls", "count"),
    ("periods.master_period.s", "s"),
    ("periods.terms_per_solution", "terms/call"),
    ("cohomology.psi_map.calls", "count"),
    ("cohomology.psi_map.s", "s"),
    ("monodromy.monodromy_matrix.calls", "count"),
    ("monodromy.monodromy_matrix.self_s", "s"),
    ("monodromy.reflection_vector.s", "s"),
    ("monodromy.big_circle_matrix.s", "s"),
    ("monodromy.twisted_reflection_check.self_s", "s"),
    ("mirror.phi_mb_batch.calls", "count"),
    ("mirror.phi_mb_batch.s", "s"),
    ("mirror.mb_nodes", "count"),
    ("mirror.mb_T_max", "height"),
    ("mirror.phi_residue_series.calls", "count"),
    ("mirror.phi_residue_series.s", "s"),
    ("mirror.oscillatory_j.calls", "count"),
    ("mirror.oscillatory_j.s", "s"),
    ("mirror.zero_region_scan.self_s", "s"),
    ("mirror.local_exponent_fit.self_s", "s"),
    ("mirror.inversion_consistency.self_s", "s"),
    ("mirror.laplace_spot_check.self_s", "s"),
) + tuple(("%s.errors" % layer, "count") for layer in LAYER_HOME) + (
    ("trace.overhead_s", "s"),
)
# The result line carries every count and ratio but, of the times, only
# the tracing overhead: each layer time reads exactly zero on the
# workloads that bypass its layer (and on all of them once a change
# deletes the function), so the times are printed above it.
RESULT_LAYER_METRICS = tuple(
    name for name, unit in LAYER_METRICS
    if unit != "s" or name == "trace.overhead_s")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed gate)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(workload: str, seed: int, rep: int, deadline: float,
          extra=()) -> dict:
    """Run one child to completion; returns its JSON plus its duration."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a repetition could run")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           str(rep), repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                              cwd=ROOT, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("repetition exceeded %.0f s" % timeout) from exc
    if proc.returncode != 0:
        raise BenchError("repetition exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("repetition printed no result")
    out = json.loads(lines[-1])
    out["process_s"] = time.monotonic() - t0
    return out


def run_reps(workload: str, seed: int, seconds: float, trace: bool,
             started: float) -> list[dict]:
    """Repetitions while the next one is expected to end within the run.

    At least one runs.  Each repetition of an untraced run draws its own
    inputs from the seed.  A traced run alternates untraced and traced
    repetitions of the same inputs, at least one of each, so that their
    difference is the tracing overhead and the traced counts must repeat."""
    reps: list[dict] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        if len(reps) >= (2 if trace else 1):
            expected = max(r["process_s"] for r in reps
                           if r["traced"] == traced)
            if time.monotonic() + expected > started + seconds:
                return reps
        extra = ()
        if traced:
            OUT_DIR.mkdir(exist_ok=True)
            extra = ("--trace", str(OUT_DIR / ("%s-seed%d-spans.npz"
                                               % (workload, seed))))
        rep = spawn(workload, seed, 0 if trace else len(reps),
                    started + TOTAL_LIMIT_S, extra)
        rep["traced"] = traced
        reps.append(rep)


def gate_margin(residual: float, tol: float) -> float:
    """log10(tol / residual) in decades, within +-MARGIN_CAP; a NaN or
    infinite residual gets -MARGIN_CAP."""
    if not residual < math.inf:
        return -MARGIN_CAP
    return max(-MARGIN_CAP,
               min(MARGIN_CAP, math.log10(tol / max(residual, 1e-300))))


def gate_summary(reps: list[dict]) -> tuple[int, int, float, list[str]]:
    """(attempted, failed, accuracy margin in decades, failure lines)."""
    attempted = failed = 0
    margin = MARGIN_CAP
    failures = []
    for r_i, rep in enumerate(reps):
        for q_i, req in enumerate(rep["requests"]):
            attempted += 1
            bad = []
            if req["error"]:
                bad.append(req["error"])
            for name, residual, tol in req["gates"]:
                if not residual < tol:
                    bad.append("%s residual %r >= %r" % (name, residual, tol))
                margin = min(margin, gate_margin(residual, tol))
            if bad:
                failed += 1
                failures.append("rep %d request %d: %s"
                                % (r_i, q_i, "; ".join(bad)))
    return attempted, failed, margin, failures


def end_to_end(reps: list[dict], latencies: list[float],
               setups: list[float], attempted: int, failed: int,
               margin: float) -> dict:
    return {
        "wall_s": statistics.median([r["wall_s"] for r in reps]),
        "cpu_s": statistics.median([r["cpu_s"] for r in reps]),
        "request_p50_s": stats.percentile(latencies, 50)[0],
        "request_p90_s": stats.percentile(latencies, 90)[0],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
        "fail_frac": failed / attempted,
        "accuracy_margin_digits": margin,
    }


def layer_metrics(traced: dict, overhead_s: float) -> dict:
    """The per-layer metrics of one traced repetition's summary."""
    spans = traced["spans"]

    def get(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    out = {}
    for metric, _unit in LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        if field in ("calls", "s", "self_s"):
            out[metric] = get(span, field)
    fs_calls = get("periods.fundamental_solution", "calls")
    lookups = traced["sseries_hits"] + traced["sseries_misses"]
    out.update({
        "numerics.rhs_evals": get("numerics.rhs", "calls"),
        "quantum.sseries.hit_ratio":
            traced["sseries_hits"] / lookups if lookups else 0.0,
        "periods.terms_per_solution":
            get("periods.master_period", "calls") / fs_calls
            if fs_calls else 0.0,
        "mirror.mb_nodes": traced["mb_nodes"],
        "mirror.mb_T_max": traced["mb_T_max"],
        "trace.overhead_s": overhead_s,
    })
    for layer, count in traced["errors"].items():
        out["%s.errors" % layer] = count
    return {name: out[name] for name, _unit in LAYER_METRICS}


def self_checks(workload: str, traced_reps: list[dict],
                metrics: dict) -> list[str]:
    problems = []
    for name in BYPASSED[workload]:
        if metrics[name] != 0:
            problems.append("bypass broken: %s = %s on %s"
                            % (name, metrics[name], workload))
    for layer, home in LAYER_HOME.items():
        if home != workload:
            continue
        calls = sum(v["calls"] for k, v in traced_reps[0]["spans"].items()
                    if k.split(".")[0] == layer)
        if calls == 0:
            problems.append("layer %s made no calls on %s" % (layer, home))
    first = layer_metrics(traced_reps[0], 0.0)
    for rep in traced_reps[1:]:
        again = layer_metrics(rep, 0.0)
        for name in DETERMINISTIC:
            if again[name] != first[name]:
                problems.append("count %s did not repeat: %s vs %s"
                                % (name, first[name], again[name]))
    return problems


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    """One run of one workload; prints its report and result line and
    returns the exit code."""
    started = time.monotonic()
    try:
        reps = run_reps(workload, seed, seconds, trace, started)
        setups = [r["setup_s"] for r in reps if not r["traced"]]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, 0,
                                started + TOTAL_LIMIT_S,
                                ("--setup-only",))["setup_s"])
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted, failed, margin, failures = gate_summary(reps)
    latencies = [q["latency_s"] for r in plain for q in r["requests"]]
    info = {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "versions": reps[0]["versions"], "src_lines": src_lines(),
        "repetitions": len(plain), "traced_repetitions": len(traced),
        "requests_per_repetition": len(reps[0]["requests"]),
        "latency_samples": len(latencies),
        "setup_samples": len(setups),
    }
    print("info " + json.dumps(info, sort_keys=True))
    for line in failures:
        print("FAIL " + line)

    problems: list[str] = []
    if trace:
        overhead = (statistics.median([r["wall_s"] for r in traced])
                    - statistics.median([r["wall_s"] for r in plain]))
        metrics = layer_metrics(traced[-1]["trace"], overhead)
        problems = self_checks(workload, [r["trace"] for r in traced],
                               metrics)
        absent = traced[-1]["trace"]["absent"]
        print("absent wrappers: %s" % (", ".join(absent) or "none"))
        for name, unit in LAYER_METRICS:
            print("%-44s %14.6g %s" % (name, metrics[name], unit))
        units = dict(LAYER_METRICS)
        metrics = {name: metrics[name] for name in RESULT_LAYER_METRICS}
    else:
        metrics = end_to_end(plain, latencies, setups, attempted, failed,
                             margin)
        units = dict(E2E_METRICS)
        _, n, beyond = stats.percentile(latencies, 90)
        for name, unit in E2E_METRICS:
            note = ""
            if name == "request_p90_s":
                note = " (n=%d, %d beyond%s)" % (
                    n, beyond, "" if stats.resolved(latencies, 90)
                    else ", unresolved")
            print("%-24s %14.6g %s%s" % (name, metrics[name], unit, note))
        metrics = {name: metrics[name] for name in RESULT_E2E_METRICS}
    for line in problems:
        print("CHECK " + line)

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs the workloads one after another")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gamma_monodromy" / "__init__.py").is_file():
        print("perfbench: no package source under %s" % SRC, file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
