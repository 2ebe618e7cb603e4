"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload beam-ops --seed 1 --seconds 36 --trace 0

Run from the repository root; the program is imported from ``src/``.
One process serves one workload as a closed loop with one client: each
request starts when the previous one has finished and been checked.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics named in ``BENCHMARK.json``, their times scaled to reference
speed by the calibration kernel timed between requests (see
``calibration.py``).  ``--trace 1`` serves the
workload's fixed traced request set on an untraced and a traced session
in turn, and reports the per-layer metrics plus the tracing overhead;
its spans are written to ``perfbench/traces/<workload>-seed<seed>.jsonl``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
program source beside it, the command exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-ups per untraced run; ``setup_s`` reports their median
SETUP_REPEATS = 5
#: times the import of the workloads in a fresh interpreter; run with
#: the benchmark's directory and the program source as arguments
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; "
    "began = time.perf_counter(); import workloads; "
    "print(time.perf_counter() - began)"
)
#: longest stretch of requests between two calibration-kernel passes
CALIBRATION_INTERVAL_S = 0.5
#: generated programs per second of run time (policy-infer's input
#: pool; over twice the rate measured on a 2-core x86-64 box)
PROGRAMS_PER_SECOND = 40
#: failed-check messages printed per run
MAX_ERRORS_SHOWN = 5


@dataclass
class Served:
    """What one closed-loop pass over a session measured."""

    latencies: list[float] = field(default_factory=list)
    work: float = 0.0
    attempted: int = 0
    failed: int = 0
    speedups: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    #: ``latencies`` at reference speed (see ``calibration``)
    scaled: list[float] = field(default_factory=list)
    #: the factor of each scaled stretch of requests
    factors: list[float] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def scale_since(
        self, first: int, before: float, sensitivity: float
    ) -> float:
        """Time the calibration kernel, scale the latencies from index
        ``first`` on by it and ``before``; return the new kernel time."""
        import calibration

        after = calibration.kernel_seconds()
        factor = calibration.scale(before, after, sensitivity)
        self.scaled += [t * factor for t in self.latencies[first:]]
        self.factors.append(factor)
        return after


def serve(session, seconds: float) -> Served:
    """Serve requests one after another for ``seconds``, or until the
    session's inputs run out.

    The calibration kernel runs before the first request and then
    between requests whenever :data:`CALIBRATION_INTERVAL_S` has passed
    since it last ran, and after the last.  Each request's latency is
    scaled to reference speed by the kernel times on either side of it.
    """
    import calibration

    served = Served()
    start = time.perf_counter()
    before = calibration.kernel_seconds()
    calibrated_at = time.perf_counter()
    unscaled = 0
    for index in range(session.limit):
        now = time.perf_counter()
        if now - start >= seconds:
            break
        if now - calibrated_at >= CALIBRATION_INTERVAL_S:
            before = served.scale_since(
                unscaled, before, session.host_sensitivity
            )
            unscaled = len(served.latencies)
            calibrated_at = time.perf_counter()
        serve_one(served, session, index)
    served.scale_since(unscaled, before, session.host_sensitivity)
    return served


def serve_one(served: Served, session, index: int, tracer=None) -> None:
    """Time request ``index``, then check its output untimed and, under
    a tracer, untraced."""
    served.attempted += 1
    with tracer.paused() if tracer else nullcontext():
        session.prepare(index)
    if tracer is not None:
        tracer.request_id = index
    began = time.perf_counter()
    try:
        with tracer.span("request") if tracer else nullcontext():
            output = session.request(index)
    except Exception:
        served.failed += 1
        served.errors.append(f"request {index}: {traceback.format_exc()}")
        return
    served.latencies.append(time.perf_counter() - began)
    with tracer.paused() if tracer else nullcontext():
        outcome = session.check(index, output)
    served.work += outcome.work
    served.speedups += outcome.speedups
    if outcome.errors:
        served.failed += 1
        served.errors += outcome.errors


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile_ms(latencies: list[float], share: float) -> float:
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))] * 1e3


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds() -> float:
    """Time, in a fresh interpreter, the import of the workloads and with
    them numpy and every ``repro`` package they use."""
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(result.stdout)


def untraced_run(workload, seed: int, seconds: float):
    """Set up ``SETUP_REPEATS`` times, then serve for ``seconds``.

    A set-up is an import in a fresh interpreter plus the construction
    of a session.  Every set-up sits between two passes of the
    calibration kernel, and the times behind the metrics are scaled to
    reference speed.
    """
    import calibration
    from repro.machine import reset_pool

    inputs = max(1, math.ceil(seconds * PROGRAMS_PER_SECOND))
    calibration.kernel_seconds()  # warm-up, not used
    before = calibration.kernel_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        took = import_seconds()
        reset_pool()
        began = time.perf_counter()
        session = workload(seed, inputs)
        took += time.perf_counter() - began
        after = calibration.kernel_seconds()
        setups.append(
            took * calibration.scale(before, after, workload.host_sensitivity)
        )
        before = after
    served = serve(session, seconds)
    values = {
        "setup_s": statistics.median(setups),
        "latency_ms_p50": statistics.median(served.scaled) * 1e3,
        "throughput": served.work / sum(served.scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    # Shown where they apply, not part of the BENCHMARK.json contract.
    extra = {
        "requests": len(served.latencies),
        "host_speed": statistics.median(served.factors),
        "wall_latency_ms_p50": statistics.median(served.latencies) * 1e3,
        "wall_throughput": served.work / served.busy,
    }
    if len(served.latencies) >= 100:
        # at least ten samples lie beyond the 90th percentile
        extra["latency_ms_p90"] = percentile_ms(served.scaled, 0.9)
    if served.speedups:
        extra["speedup_geomean"] = geomean(served.speedups)
    extra["error_rate"] = served.failed / max(1, served.attempted)
    return served, values, extra


def traced_run(workload, seed: int, requests: int | None = None):
    """Serve the traced request set on two sessions, untraced and traced.

    One untraced request first pays the process's one-time costs.  The
    two sessions then take turns request by request, so drift in the
    machine's speed hits both alike.  Returns the tracer, the traced
    pass, its session and the ratio of traced to untraced busy time
    (the tracing overhead).
    """
    from repro.machine import reset_pool
    from tracer import Tracer

    requests = requests or workload.trace_requests
    reset_pool()
    warm = Served()
    serve_one(warm, workload(seed, requests), 0)
    reset_pool()
    plain_session = workload(seed, requests)
    tracer = Tracer()
    with tracer.installed():
        tracer.request_id = "setup"
        with tracer.span("setup"):
            session = workload(seed, requests)
    plain, traced = Served(), Served()
    for index in range(min(requests, session.limit)):
        serve_one(plain, plain_session, index)
        with tracer.installed():
            serve_one(traced, session, index, tracer)
    for untraced in (warm, plain):
        traced.attempted += untraced.attempted
        traced.failed += untraced.failed
        traced.errors += untraced.errors
    return tracer, traced, session, traced.busy / plain.busy


def layer_values(tracer, traced: Served, session, overhead: float) -> dict:
    from tracer import TARGETS
    from workloads import CACHE_COUNTERS

    values: dict[str, float] = {}
    for name in tracer.calls.keys() | {n for n, _, _ in TARGETS}:
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.s"] = tracer.self_seconds[name]
    cache = session.cache_totals()
    for key in CACHE_COUNTERS:
        values[f"machine.cache.{key}"] = cache[key]
    lookups = cache["hits"] + cache["misses"]
    values["machine.cache.hit_rate"] = cache["hits"] / lookups if lookups else 0.0
    values["search.candidates"] = session.candidates
    values["search.scoring.s"] = session.scoring_seconds
    values["search.candidates_per_s"] = (
        session.candidates / session.scoring_seconds
        if session.scoring_seconds
        else 0.0
    )
    values["speedup_geomean"] = (
        geomean(traced.speedups) if traced.speedups else 0.0
    )
    values["trace.overhead_ratio"] = overhead
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, fixed before numpy is first imported.
    for variable in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    if args.trace:
        tracer, served, session, overhead = traced_run(workload, args.seed)
        values = layer_values(tracer, served, session, overhead)
        listed = contract["per_layer"]
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{workload.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path)
        extra = {"spans": len(tracer.spans), "spans_file": str(path.relative_to(ROOT))}
    else:
        served, values, extra = untraced_run(
            workload, args.seed, args.seconds
        )
        listed = contract["end_to_end"]
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in listed
    }

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"  work unit: {workload.work_unit}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in extra.items():
        shown = f"{value:>14.6g}" if isinstance(value, float) else value
        print(f"  {name:32s} {shown}")
    for error in served.errors[:MAX_ERRORS_SHOWN]:
        print(f"  FAILED {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": served.failed == 0,
                "attempted": served.attempted,
                "failed": served.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
