"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED REP SPAWNED_AT [--setup-only]
                               [--trace SPANS_PATH]

The requests are generated from (WORKLOAD, SEED, REP).

SPAWNED_AT is the parent's time.monotonic() taken just before it started
this process; CLOCK_MONOTONIC is shared by all processes, so setup_s
covers interpreter start, the package import (numpy, scipy, mpmath
included) and input generation.  The timed phase then runs every request
of the workload one after another, each one checked against its gates.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    workload, seed, rep = argv[0], int(argv[1]), int(argv[2])
    spawned_at = float(argv[3])
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    import json
    import resource

    import numpy as np

    import workloads
    from gamma_monodromy.mirror import FitQualityError
    from gamma_monodromy.numerics import NumericsError

    requests = workloads.make_inputs(workload, seed, rep)
    out = {"setup_s": time.monotonic() - spawned_at}
    if setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if spans_path:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    results = []
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for i, req in enumerate(requests):
        if tracer:
            tracer.request = i
        r0 = time.perf_counter()
        try:
            gates = workloads.run_request(req)
            error = None
        except (NumericsError, FitQualityError, np.linalg.LinAlgError) as exc:
            gates = []
            error = "%s: %s" % (type(exc).__name__, exc)
        results.append({"latency_s": time.perf_counter() - r0,
                        "gates": gates, "error": error})
    out["wall_s"] = time.perf_counter() - wall0
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["requests"] = results
    out["versions"] = {
        "python": sys.version.split()[0],
        **{mod: getattr(sys.modules.get(mod), "__version__", "not loaded")
           for mod in ("numpy", "scipy", "mpmath")}}
    if tracer:
        out["trace"] = tracer.summary()
        tracer.dump(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
