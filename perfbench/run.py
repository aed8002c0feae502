"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload {paper-small,tpch-evolve,lake} \
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (set-up time, peak memory,
throughput, latency percentiles); with ``--trace 1`` they are the
per-layer ones of a traced run, including the tracing overhead against
an untraced run of the same work.  The line before it carries
diagnostics that are never metrics: the host-reference loop time before
and after the run, per-kind sample counts, the score and input digests
and, when traced, the exact work counts.  A readable report goes to
standard error.

The package is imported from ``src/`` of the checkout; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
"""Scratch space (the lake's on-disk store), removed after each run."""
SETUP_REPEATS = 3
"""Set-ups per untraced run; ``setup_s`` is their median."""
HOST_REFERENCE_LOOPS = 2_000_000

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "aux_p50_ms": "ms",
}


def host_reference() -> float:
    """Seconds one fixed pure-Python loop takes: a host-speed diagnostic.

    Timed before and after every run and printed beside the metrics, so
    a disagreement between two sets of runs can be traced to a slow host
    phase.  It never rescales a metric.
    """
    start = time.perf_counter()
    total = 0
    for i in range(HOST_REFERENCE_LOOPS):
        total = (total * 31 + i) % 1_000_003
    return time.perf_counter() - start


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def fresh_state(workload, args):
    """Set the workload up from its seed; returns (state, seconds)."""
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(args.seed, args.seconds, WORKDIR)
    return state, time.perf_counter() - start


def timed_phase(workload, state, tracer=None):
    """Run the timed operations, then the untimed post-run checks."""
    from workloads import Recorder

    rec = Recorder()
    # Freezing the set-up heap keeps full collections during the timed
    # phase to the objects the operations create: unfrozen, every ~4th
    # tpch-evolve step rescanned the whole corpus and session, which made
    # its latencies swing with the host's memory speed.
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        if tracer is None:
            facts = workload.run(state, rec)
        else:
            with tracer:
                facts = workload.run(state, rec)
        wall_s = time.perf_counter() - start - rec.paused_s
    finally:
        gc.unfreeze()
    workload.verify(state, rec)
    return rec, wall_s, facts


def untraced_run(workload, args):
    setups, state = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
                state = None
            state, seconds = fresh_state(workload, args)
            setups.append(seconds)
        inputs = workload.input_digest(state)
        rec, wall_s, _facts = timed_phase(workload, state)
    finally:
        if state is not None:
            workload.close(state)
    completed = sum(len(values) for values in rec.latencies.values())
    metrics = {
        "setup_s": p50(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": completed / wall_s if wall_s > 0 else 0.0,
        "op_p50_ms": p50(rec.latencies["op"]),
        "op_p95_ms": p95(rec.latencies["op"]),
        "aux_p50_ms": p50(rec.latencies["aux"]),
    }
    diagnostics = {"setups_s": setups, "wall_s": wall_s, "input_digest": inputs}
    return rec, rec.attempted, rec.failed, metrics, diagnostics


def traced_run(workload, args):
    from layers import LayerTrace

    plain_state, _ = fresh_state(workload, args)
    try:
        plain, plain_wall, _ = timed_phase(workload, plain_state)
    finally:
        workload.close(plain_state)
    del plain_state
    state, _ = fresh_state(workload, args)
    tracer = LayerTrace()
    try:
        inputs = workload.input_digest(state)
        rec, wall_s, facts = timed_phase(workload, state, tracer)
    finally:
        workload.close(state)
    overhead_pct = (wall_s / plain_wall - 1.0) * 100.0 if plain_wall > 0 else 0.0
    metrics = tracer.metrics(facts, overhead_pct)
    diagnostics = {
        "wall_s": wall_s,
        "untraced_wall_s": plain_wall,
        "input_digest": inputs,
        "untraced_score_digest": plain.score_digest,
        "work_counts": tracer.work_counts(facts),
    }
    return (rec, plain.attempted + rec.attempted, plain.failed + rec.failed,
            metrics, diagnostics)


def report(workload, args, rec, attempted, failed, metrics, units, diagnostics):
    """The readable report on standard error, latencies under per-workload names."""
    err = sys.stderr
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {attempted} attempted, {failed} failed", file=err)
    for kind, description in workload.kinds.items():
        values = rec.latencies.get(kind, [])
        names = workload.kind_names
        tail = names.get(f"{kind}_p95_ms")
        print(f"  {kind:3s} = {description}: n={len(values)}  "
              f"{names[f'{kind}_p50_ms']}={p50(values):.3f} ms"
              + (f"  {tail}={p95(values):.3f} ms" if tail and values else ""),
              file=err)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.4f} {units[name]}", file=err)
    print(f"  host reference loop: {diagnostics['host_ref_before_s']:.3f} s before, "
          f"{diagnostics['host_ref_after_s']:.3f} s after", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-small", "tpch-evolve", "lake"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # Set and dict iteration orders, and with them the exact work
        # counts, follow the hash seed: re-run under a fixed one.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
        import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the repro package from {src}: {error}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro was imported from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(WORKDIR, exist_ok=True)
    before = host_reference()
    if args.trace:
        from layers import PER_LAYER

        units = {name: unit for name, (unit, _better) in PER_LAYER.items()}
        rec, attempted, failed, metrics, diagnostics = traced_run(workload, args)
    else:
        units = END_TO_END
        rec, attempted, failed, metrics, diagnostics = untraced_run(workload, args)
    after = host_reference()
    try:
        os.rmdir(WORKDIR)
    except OSError:
        pass  # another run still uses it

    diagnostics.update(
        host_ref_before_s=before,
        host_ref_after_s=after,
        samples={kind: len(values) for kind, values in rec.latencies.items()},
        score_digest=rec.score_digest,
    )
    report(workload, args, rec, attempted, failed, metrics, units, diagnostics)
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
