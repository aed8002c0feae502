"""Command-line interface: compare two CSV files with labeled nulls.

Usage::

    python -m repro compare left.csv right.csv \
        --preset versioning --lam 0.5 --algorithm signature --explain

    python -m repro similarity left.csv right.csv

    python -m repro diff old.csv new.csv    # structured version delta

    python -m repro index build lake.idx a.csv b.csv   # persistent index
    python -m repro index search lake.idx query.csv --top-k 3
    python -m repro index dedup lake.idx --threshold 0.8 --clusters

    python -m repro serve --store lake.idx --port 8645   # HTTP service

Labeled nulls are encoded in the CSV cells with the ``_N:`` prefix
(``_N:N1``); see :mod:`repro.io_.csvio`.  The exit code is 0 on success,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import compare
from .algorithms.options import Algorithm
from .core.errors import ReproError
from .io_.csvio import NULL_PREFIX, read_csv
from .io_.serialization import result_to_dict
from .mappings.constraints import MatchOptions
from .parallel import compare_many
from .runtime import Executor, FaultPlan, RetryPolicy, WorkerLimits

PRESETS = {
    "general": MatchOptions.general,
    "versioning": MatchOptions.versioning,
    "record-merging": MatchOptions.record_merging,
    "universal-vs-core": MatchOptions.universal_vs_core,
    "universal-vs-universal": MatchOptions.universal_vs_universal,
    "data-repair": MatchOptions.data_repair,
}


ALGORITHMS = (
    "signature", "assignment", "exact", "ground", "partial", "anytime"
)
"""The ``--algorithm`` vocabulary, shared by every command that compares."""


def _add_algorithm_flag(sub) -> None:
    """The one ``--algorithm`` flag definition (compare *and* index)."""
    sub.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="signature",
        help=(
            "comparison algorithm; the same vocabulary everywhere "
            "(default: signature)"
        ),
    )


def _add_match_flags(
    sub, default_preset: str, preset_help: str | None = None
) -> None:
    """The one ``--preset``/``--lam`` flags definition."""
    sub.add_argument(
        "--preset", choices=sorted(PRESETS), default=default_preset,
        help=preset_help or "match-constraint preset (paper Sec. 4.3)",
    )
    sub.add_argument(
        "--lam", type=float, default=0.5,
        help="null-to-constant penalty λ in [0, 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Similarity of incomplete database instances (EDBT 2024). "
            "Cells starting with the null prefix are labeled nulls."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    helps = {
        "compare": "full comparison with match and stats",
        "similarity": "print only the similarity score",
        "diff": "structured version delta (updates / inserts / deletes)",
        "compare-many": "batch comparison over a worker pool with caching",
    }
    for command in ("compare", "similarity", "diff", "compare-many"):
        sub = subparsers.add_parser(command, help=helps[command])
        if command == "compare-many":
            sub.add_argument(
                "inputs", nargs="+", metavar="CSV",
                help=(
                    "with --baseline: variant files, each compared against "
                    "the baseline; without: an even count consumed as "
                    "consecutive (left, right) pairs"
                ),
            )
            sub.add_argument(
                "--baseline", default=None, metavar="CSV",
                help="compare this file against every input file",
            )
            sub.add_argument(
                "--jobs", type=int, default=1, metavar="N",
                help=(
                    "worker fan-out: 1 (default) runs in-process, N > 1 "
                    "fans pairs over N fork workers"
                ),
            )
            sub.add_argument(
                "--json", action="store_true",
                help="emit all results (and cache stats) as JSON",
            )
        else:
            sub.add_argument("left", help="left CSV file")
            sub.add_argument("right", help="right CSV file")
        _add_algorithm_flag(sub)
        _add_match_flags(sub, "general")
        sub.add_argument(
            "--relation", default="R",
            help="relation name used for both CSVs",
        )
        sub.add_argument(
            "--null-prefix", default=NULL_PREFIX,
            help=f"cell prefix marking labeled nulls (default {NULL_PREFIX!r})",
        )
        if command != "compare-many":
            sub.add_argument(
                "--align-schemas", action="store_true",
                help="pad differing columns with fresh nulls (Sec. 4.3)",
            )
        if command == "compare-many":
            sub.add_argument(
                "--deadline", type=float, default=None, metavar="SECONDS",
                help="per-pair wall-clock allowance",
            )
            sub.add_argument(
                "--max-memory", type=float, default=None, metavar="MB",
                help="address-space cap per worker, in MiB (forces workers)",
            )
            sub.add_argument(
                "--retries", type=int, default=0, metavar="N",
                help=(
                    "retry a dead pair up to N times before degrading it "
                    "to the signature floor"
                ),
            )
            sub.add_argument(
                "--fault-plan", default=None, metavar="SPEC",
                help="inject deterministic faults into every pair's worker",
            )
        if command in ("compare", "similarity"):
            sub.add_argument(
                "--deadline", type=float, default=None, metavar="SECONDS",
                help=(
                    "wall-clock allowance; supported by signature, exact, "
                    "and anytime"
                ),
            )
            sub.add_argument(
                "--on-budget-exhausted",
                choices=("fail", "degrade"),
                default="degrade",
                help=(
                    "when a budget or deadline cuts the search short — or "
                    "the exact stage dies hard (oom/killed/crashed) under "
                    "--isolate/--retries: 'degrade' (default) reports the "
                    "lower-bound score with a warning, 'fail' exits with "
                    "status 3"
                ),
            )
            sub.add_argument(
                "--isolate", action="store_true",
                help=(
                    "run the exponential stage in a worker subprocess with "
                    "hard resource caps; its death degrades the comparison "
                    "to the signature tier instead of crashing (exact and "
                    "anytime only)"
                ),
            )
            sub.add_argument(
                "--max-memory", type=float, default=None, metavar="MB",
                help=(
                    "address-space cap for the isolated worker, in MiB "
                    "(implies --isolate)"
                ),
            )
            sub.add_argument(
                "--retries", type=int, default=0, metavar="N",
                help=(
                    "retry a dead exponential stage up to N times with "
                    "exponential backoff before degrading"
                ),
            )
            sub.add_argument(
                "--fault-plan", default=None, metavar="SPEC",
                help=(
                    "inject deterministic faults for testing degradation "
                    "paths: comma-separated kind@site:N[#attempt], e.g. "
                    "'memory-error@budget:3' (kinds: memory-error, "
                    "timeout-error, crash, transient-error, garbage-result; "
                    "sites: budget, chase, io, worker, *)"
                ),
            )
        if command == "compare":
            sub.add_argument(
                "--explain", action="store_true",
                help="print the instance match explanation",
            )
            sub.add_argument(
                "--json", action="store_true",
                help="emit the full result as JSON",
            )
        _add_obs_flags(sub)

    _add_index_parser(subparsers)
    _add_obs_parser(subparsers)
    _add_serve_parser(subparsers)
    return parser


def _add_obs_flags(sub) -> None:
    """Observability output flags, shared by every comparison command."""
    sub.add_argument(
        "--metrics", default=None, metavar="OUT.json",
        help=(
            "collect per-layer counters/gauges/histograms during the run "
            "and write the aggregated snapshot as JSON"
        ),
    )
    sub.add_argument(
        "--trace", default=None, metavar="OUT.jsonl",
        help="trace the run and write one span per line (JSON Lines)",
    )
    sub.add_argument(
        "--profile", default=None, metavar="OUT.json",
        help="sample hotspot sites and write the top-K summary as JSON",
    )


def _add_index_parser(subparsers) -> None:
    """The ``index`` command family: persistent sketch-based retrieval."""
    index_parser = subparsers.add_parser(
        "index",
        help="build, maintain, and query a persistent similarity index",
        description=(
            "Sub-linear dataset search and dedup over a persisted sketch "
            "index (see docs/INDEX.md). Match options and sketch params "
            "are fixed at build time and stored in the index manifest."
        ),
    )
    actions = index_parser.add_subparsers(dest="index_command", required=True)

    build = actions.add_parser(
        "build", help="create a store and index one or more CSV tables"
    )
    build.add_argument("store", help="index store directory (created)")
    build.add_argument(
        "inputs", nargs="+", metavar="CSV",
        help="tables to index; each is registered under its file path",
    )
    _add_match_flags(
        build, "versioning",
        preset_help="match-constraint preset baked into the index",
    )
    build.add_argument(
        "--perms", type=int, default=64, metavar="N",
        help="min-hash signature length",
    )
    build.add_argument(
        "--bands", type=int, default=16, metavar="N",
        help="LSH band count",
    )
    build.add_argument(
        "--rows-per-band", type=int, default=4, metavar="N",
        help="signature rows per LSH band (bands*rows <= perms)",
    )
    build.add_argument(
        "--seed", type=int, default=0,
        help="min-hash permutation seed (part of the index identity)",
    )

    add = actions.add_parser(
        "add", help="incrementally add tables to an existing store"
    )
    add.add_argument("store", help="existing index store directory")
    add.add_argument("inputs", nargs="+", metavar="CSV", help="tables to add")
    add.add_argument(
        "--update", action="store_true",
        help=(
            "allow re-adding known table names: the new content is "
            "diffed against the stored instance and the sketch/LSH "
            "state is repaired in place (delta maintenance)"
        ),
    )
    add.add_argument(
        "--json", action="store_true",
        help=(
            "emit one update report per table as JSON (what was "
            "inserted/deleted/updated, sketch columns repaired vs "
            "rebuilt, min-hash slots patched, LSH buckets moved)"
        ),
    )

    search = actions.add_parser(
        "search", help="rank indexed tables against a query CSV"
    )
    search.add_argument("store", help="existing index store directory")
    search.add_argument("query", help="query CSV file")
    search.add_argument(
        "--top-k", type=int, default=5, metavar="K",
        help="number of hits to return",
    )
    _add_algorithm_flag(search)
    search.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan refinement over N fork workers (1 = in-process)",
    )
    search.add_argument(
        "--brute-force", action="store_true",
        help=(
            "bypass the sketch index and compare against every table "
            "(same results by construction; used by CI to verify parity)"
        ),
    )
    search.add_argument(
        "--json", action="store_true",
        help="emit hits plus the refinement report as JSON",
    )

    dedup = actions.add_parser(
        "dedup", help="find near-duplicate table pairs in the index"
    )
    dedup.add_argument("store", help="existing index store directory")
    dedup.add_argument(
        "--threshold", type=float, default=0.8,
        help="minimum similarity for a duplicate pair",
    )
    _add_algorithm_flag(dedup)
    dedup.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan refinement over N fork workers (1 = in-process)",
    )
    dedup.add_argument(
        "--clusters", action="store_true",
        help="also report connected duplicate clusters",
    )
    dedup.add_argument(
        "--brute-force", action="store_true",
        help="compare every pair without bound pruning (parity checks)",
    )
    dedup.add_argument(
        "--json", action="store_true",
        help="emit pairs (and clusters) plus the report as JSON",
    )

    recover = actions.add_parser(
        "recover",
        help="replay the store's write-ahead log and report what recovery did",
        description=(
            "Open the store exactly as any reader would: scan the WAL "
            "segment to its last valid record, truncate a torn tail left "
            "by a power cut, replay the log, and print the recovery "
            "report. Exit 0 means the store is consistent and open-able."
        ),
    )
    verify = actions.add_parser(
        "verify",
        help="audit manifest, tables, and WAL; report every corruption",
        description=(
            "Read-only integrity audit: checks the manifest, every table "
            "file's fingerprints, and the WAL checksums without modifying "
            "anything, and reports every finding (not just the first). "
            "Exits non-zero if any error-severity corruption is found."
        ),
    )
    compact = actions.add_parser(
        "compact",
        help="fold the write-ahead log into a new snapshot generation",
        description=(
            "Rewrites logged mutations as snapshot table files, starts a "
            "fresh WAL segment, and atomically switches the manifest; "
            "reclaims removed tables' files and bounds future recovery "
            "time. Safe against crashes at any point."
        ),
    )
    for sub in (recover, verify, compact):
        sub.add_argument("store", help="existing index store directory")
        sub.add_argument(
            "--json", action="store_true",
            help="emit the report as JSON",
        )
    for sub in (build, add, search):
        sub.add_argument(
            "--relation", default="R",
            help="relation name used for every CSV",
        )
        sub.add_argument(
            "--null-prefix", default=NULL_PREFIX,
            help=f"cell prefix marking labeled nulls (default {NULL_PREFIX!r})",
        )


def _add_serve_parser(subparsers) -> None:
    """The ``serve`` command: run the similarity service (docs/SERVE.md)."""
    serve_parser = subparsers.add_parser(
        "serve",
        help="run the resilient similarity HTTP server",
        description=(
            "Serve search/compare/dedup/ingest over HTTP/JSON with "
            "per-request deadlines, bounded admission, load shedding down "
            "the anytime ladder, supervised fork workers, and graceful "
            "drain on SIGTERM (see docs/SERVE.md)."
        ),
    )
    serve_parser.add_argument(
        "inputs", nargs="*", metavar="CSV",
        help="tables to serve; each is registered under its file path",
    )
    serve_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="serve an existing index store instead of loose CSVs",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address",
    )
    serve_parser.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="bind port (0 = ephemeral; default 8645)",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="worker slots (max concurrently forked compute workers)",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=16, metavar="N",
        help="max waiting requests before arrivals shed with 429",
    )
    serve_parser.add_argument(
        "--timeout-ms", type=int, default=2000, metavar="MS",
        help="default per-request deadline",
    )
    serve_parser.add_argument(
        "--max-timeout-ms", type=int, default=30000, metavar="MS",
        help="ceiling a request's timeout_ms is clamped to",
    )
    serve_parser.add_argument(
        "--kill-grace-ms", type=int, default=1000, metavar="MS",
        help="grace past the deadline before the worker is hard-killed",
    )
    serve_parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retries per request after a crashed worker attempt",
    )
    serve_parser.add_argument(
        "--no-exact-pressure", type=float, default=0.5, metavar="P",
        help="queue pressure at which the exact rung is dropped",
    )
    serve_parser.add_argument(
        "--signature-only-pressure", type=float, default=0.85, metavar="P",
        help="queue pressure at which answers become signature-only",
    )
    serve_parser.add_argument(
        "--drain-deadline", type=float, default=5.0, metavar="S",
        help="seconds in-flight requests get to finish on SIGTERM",
    )
    serve_parser.add_argument(
        "--max-memory-mb", type=float, default=None, metavar="MB",
        help="per-worker address-space cap (deaths classify as oom)",
    )
    serve_parser.add_argument(
        "--metrics", default=None, metavar="OUT.json",
        help="flush the aggregated metrics snapshot here on drain",
    )
    _add_match_flags(
        serve_parser, "versioning",
        preset_help="match-constraint preset (CSV mode; stores bake in their own)",
    )
    serve_parser.add_argument(
        "--relation", default="R", help="relation name used for every CSV",
    )
    serve_parser.add_argument(
        "--null-prefix", default=NULL_PREFIX,
        help=f"cell prefix marking labeled nulls (default {NULL_PREFIX!r})",
    )


def _run_serve(args, parser) -> int:
    """The ``serve`` command: build/load the index, run the server."""
    import asyncio

    from .index import SimilarityIndex
    from .obs.metrics import MetricsRegistry, set_metrics
    from .serve import DEFAULT_PORT, ServerConfig
    from .serve.app import serve as serve_app

    index = index_loader = None
    try:
        if args.store is not None:
            if args.inputs:
                parser.error("pass either --store or loose CSVs, not both")
            # Recovery (WAL replay, torn-tail repair) happens *behind* the
            # listener: the loader runs after the port is bound, /readyz
            # answers {"status": "recovering"} (503) until it finishes.
            store_path = args.store
            index_loader = lambda: SimilarityIndex.load(store_path)  # noqa: E731
        else:
            index = SimilarityIndex(options=PRESETS[args.preset](lam=args.lam))
            for path in args.inputs:
                index.add(path, _read_index_table(args, path, path))
        config = ServerConfig(
            host=args.host,
            port=args.port if args.port is not None else DEFAULT_PORT,
            jobs=args.jobs,
            max_queue=args.max_queue,
            default_timeout_ms=args.timeout_ms,
            max_timeout_ms=args.max_timeout_ms,
            kill_grace_ms=args.kill_grace_ms,
            no_exact_pressure=args.no_exact_pressure,
            signature_only_pressure=args.signature_only_pressure,
            retries=args.retries,
            drain_deadline_seconds=args.drain_deadline,
            max_memory_mb=args.max_memory_mb,
            metrics_path=args.metrics,
        )
    except (OSError, ValueError, ReproError) as error:
        parser.error(str(error))
    registry = MetricsRegistry()
    set_metrics(registry)
    try:
        return asyncio.run(serve_app(
            config, index, metrics=registry, index_loader=index_loader
        ))
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        return 0
    finally:
        set_metrics(None)


def _add_obs_parser(subparsers) -> None:
    """The ``obs`` command family: inspect exported observability artifacts."""
    obs_parser = subparsers.add_parser(
        "obs",
        help="render reports from --metrics/--trace/--profile artifacts",
        description=(
            "Offline inspection of observability artifacts written by the "
            "comparison commands (see docs/OBSERVABILITY.md). Artifacts "
            "are validated against their schemas before rendering."
        ),
    )
    actions = obs_parser.add_subparsers(dest="obs_command", required=True)
    report = actions.add_parser(
        "report", help="render a plain-text summary grouped by layer"
    )
    report.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="metrics snapshot JSON written by --metrics",
    )
    report.add_argument(
        "--trace", default=None, metavar="FILE",
        help="span JSONL written by --trace",
    )
    report.add_argument(
        "--profile", default=None, metavar="FILE",
        help="profile summary JSON written by --profile",
    )


def _run_obs(args, parser) -> int:
    """The ``obs report`` command: validate artifacts and print the report."""
    from .obs import SchemaError, Tracer, render_report

    if not (args.metrics or args.trace or args.profile):
        parser.error(
            "obs report needs at least one of --metrics / --trace / --profile"
        )
    metrics = spans = profile = None
    try:
        if args.metrics:
            with open(args.metrics, encoding="utf-8") as handle:
                metrics = json.load(handle)
        if args.trace:
            with open(args.trace, encoding="utf-8") as handle:
                spans = Tracer.import_jsonl(handle)
        if args.profile:
            with open(args.profile, encoding="utf-8") as handle:
                profile = json.load(handle)
        print(
            render_report(metrics=metrics, spans=spans, profile=profile),
            end="",
        )
    except (OSError, ValueError, SchemaError) as error:
        parser.error(str(error))
    return 0


class _ObsSession:
    """Metrics/trace/profile collection scopes driven by the CLI flags.

    Enters a collection scope for each requested artifact, and writes the
    files on exit *even when the command fails partway* — a budget-tripped
    or degraded run is exactly when the artifacts matter most.
    """

    def __init__(self, args) -> None:
        self.metrics_path = getattr(args, "metrics", None)
        self.trace_path = getattr(args, "trace", None)
        self.profile_path = getattr(args, "profile", None)
        self._scopes: list = []
        self._registry = None
        self._tracer = None
        self._profiler = None

    def __enter__(self) -> "_ObsSession":
        from .obs import collect_metrics, collect_profile, collect_trace

        if self.metrics_path:
            scope = collect_metrics()
            self._registry = scope.__enter__()
            self._scopes.append(scope)
        if self.trace_path:
            scope = collect_trace()
            self._tracer = scope.__enter__()
            self._scopes.append(scope)
        if self.profile_path:
            scope = collect_profile()
            self._profiler = scope.__enter__()
            self._scopes.append(scope)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._scopes:
            self._scopes.pop().__exit__(*exc_info)
        if self._registry is not None:
            with open(self.metrics_path, "w", encoding="utf-8") as handle:
                json.dump(
                    self._registry.snapshot().as_dict(),
                    handle,
                    indent=2,
                    sort_keys=True,
                )
                handle.write("\n")
        if self._tracer is not None:
            self._tracer.export_path(self.trace_path)
        if self._profiler is not None:
            with open(self.profile_path, "w", encoding="utf-8") as handle:
                json.dump(
                    self._profiler.as_dict(), handle, indent=2, sort_keys=True
                )
                handle.write("\n")
        return None


def _build_executor(args, parser) -> Executor | None:
    """Assemble the fault-tolerance policy from the CLI flags (or ``None``).

    Any of ``--isolate`` / ``--max-memory`` / ``--retries`` /
    ``--fault-plan`` activates the executor; it requires the ``exact`` or
    ``anytime`` algorithm (the stages with a degradation tier below them).
    Retry/degradation progress is logged to stderr as it happens.
    """
    isolate = getattr(args, "isolate", False)
    max_memory = getattr(args, "max_memory", None)
    retries = getattr(args, "retries", 0)
    fault_plan_text = getattr(args, "fault_plan", None)
    if not (isolate or max_memory is not None or retries or fault_plan_text):
        return None
    if args.algorithm not in ("exact", "anytime"):
        parser.error(
            "--isolate/--max-memory/--retries/--fault-plan require "
            "--algorithm exact or anytime"
        )
    if retries < 0:
        parser.error(f"--retries must be >= 0, got {retries}")
    plan = None
    if fault_plan_text:
        try:
            plan = FaultPlan.parse(fault_plan_text)
        except ValueError as error:
            parser.error(str(error))
    return Executor(
        isolate=isolate or max_memory is not None,
        limits=WorkerLimits(max_memory_mb=max_memory),
        retry=RetryPolicy(retries=retries),
        fault_plan=plan,
        out=lambda line: print(line, file=sys.stderr),
    )


def _run_compare_many(args, parser) -> int:
    """The ``compare-many`` command: batch comparison over the engine."""
    read = lambda path, name: read_csv(  # noqa: E731
        path, relation_name=args.relation,
        null_prefix=args.null_prefix, name=name,
    )
    try:
        if args.baseline is not None:
            baseline = read(args.baseline, "baseline")
            pairs = [(baseline, read(path, path)) for path in args.inputs]
            labels = [(args.baseline, path) for path in args.inputs]
        else:
            if len(args.inputs) % 2:
                parser.error(
                    "compare-many without --baseline needs an even number "
                    "of files (consecutive left/right pairs)"
                )
            pairs = [
                (read(left, left), read(right, right))
                for left, right in zip(args.inputs[::2], args.inputs[1::2])
            ]
            labels = list(zip(args.inputs[::2], args.inputs[1::2]))
    except (OSError, ValueError, ReproError) as error:
        parser.error(str(error))

    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    plan = None
    if args.fault_plan:
        try:
            plan = FaultPlan.parse(args.fault_plan)
        except ValueError as error:
            parser.error(str(error))
    limits = (
        WorkerLimits(max_memory_mb=args.max_memory)
        if args.max_memory is not None
        else None
    )

    try:
        results = compare_many(
            pairs,
            Algorithm(args.algorithm),
            PRESETS[args.preset](lam=args.lam),
            jobs=args.jobs,
            deadline=args.deadline,
            limits=limits,
            retry=RetryPolicy(retries=args.retries),
            fault_plan=plan,
            out=lambda line: print(line, file=sys.stderr),
        )
    except ValueError as error:
        parser.error(str(error))

    cache_stats = results[0].stats["cache"] if results else {}
    if args.json:
        payload = {
            "pairs": [
                {
                    "left": left,
                    "right": right,
                    **result_to_dict(result),
                }
                for (left, right), result in zip(labels, results)
            ],
            "cache": cache_stats,
            "jobs": args.jobs,
        }
        print(json.dumps(payload, indent=2, default=str))
        return 0

    for (left, right), result in zip(labels, results):
        marker = "" if result.outcome.is_complete else f" {result.outcome.marker}"
        print(
            f"{left} vs {right}: {result.similarity:.6f} "
            f"[{result.algorithm}]{marker}"
        )
    print(
        f"cache: {cache_stats.get('hits', 0)} hits / "
        f"{cache_stats.get('misses', 0)} misses "
        f"(hit rate {cache_stats.get('hit_rate', 0.0):.2f})",
        file=sys.stderr,
    )
    return 0


def _read_index_table(args, path: str, name: str):
    return read_csv(
        path, relation_name=args.relation,
        null_prefix=args.null_prefix, name=name,
    )


def _run_index(args, parser) -> int:
    """The ``index`` command family: build / add / search / dedup."""
    from .index import (
        IndexParams,
        RefinePolicy,
        SimilarityIndex,
        brute_force_dedup,
        brute_force_search,
        cluster_duplicates,
    )

    if args.index_command in ("recover", "verify", "compact"):
        return _run_index_maintenance(args, parser)

    try:
        if args.index_command == "build":
            try:
                params = IndexParams(
                    num_perms=args.perms,
                    bands=args.bands,
                    rows=args.rows_per_band,
                    seed=args.seed,
                )
            except ValueError as error:
                parser.error(str(error))
            index = SimilarityIndex(
                params=params, options=PRESETS[args.preset](lam=args.lam)
            )
            for path in args.inputs:
                index.add(path, _read_index_table(args, path, path))
            index.save(args.store)
            print(f"indexed {len(index)} tables -> {args.store}")
            return 0

        if args.index_command == "add":
            index = SimilarityIndex.load(args.store)
            reports = []
            for path in args.inputs:
                table = _read_index_table(args, path, path)
                if args.update and path in index:
                    reports.append(index.update(path, table))
                else:
                    reports.append(index.add(path, table))
            if args.json:
                print(json.dumps(
                    {
                        "store": args.store,
                        "tables": len(index),
                        "updates": [report.as_dict() for report in reports],
                    },
                    indent=2, sort_keys=True,
                ))
            else:
                print(
                    f"added {len(args.inputs)} tables "
                    f"({len(index)} total) -> {args.store}"
                )
            return 0

        index = SimilarityIndex.load(args.store)
        if args.jobs < 1:
            parser.error(f"--jobs must be >= 1, got {args.jobs}")
        if args.brute_force and args.algorithm != "signature":
            parser.error(
                "--brute-force always refines with the signature "
                "algorithm; drop --algorithm or the parity flag"
            )
        policy = RefinePolicy(
            jobs=args.jobs,
            algorithm=Algorithm(args.algorithm),
            out=lambda line: print(line, file=sys.stderr),
        )

        if args.index_command == "search":
            query = _read_index_table(args, args.query, "query")
            if args.brute_force:
                hits = brute_force_search(index, query, args.top_k)
                report = None
            else:
                hits = index.search(query, top_k=args.top_k, policy=policy)
                report = index.last_report
            if args.json:
                payload = {
                    "hits": [
                        {
                            "name": h.name,
                            "similarity": h.similarity,
                            "matched_tuples": h.matched_tuples,
                        }
                        for h in hits
                    ],
                    "report": report.as_dict() if report else None,
                }
                print(json.dumps(payload, indent=2))
                return 0
            for h in hits:
                print(f"{h.similarity:.6f}  {h.name}  ({h.matched_tuples} matched)")
            if report is not None:
                print(
                    f"refined {report.refined}/{report.candidates} candidates "
                    f"(pruned {report.pruned} by bound)",
                    file=sys.stderr,
                )
            return 0

        # dedup
        if args.brute_force:
            pairs = brute_force_dedup(index, args.threshold)
            report = None
        else:
            pairs = index.near_duplicates(
                threshold=args.threshold, policy=policy
            )
            report = index.last_report
        clusters = (
            cluster_duplicates(index.names(), pairs)
            if args.clusters else None
        )
        if args.json:
            payload = {
                "pairs": [
                    {
                        "first": p.first,
                        "second": p.second,
                        "similarity": p.similarity,
                    }
                    for p in pairs
                ],
                "clusters": (
                    [sorted(c) for c in clusters]
                    if clusters is not None else None
                ),
                "report": report.as_dict() if report else None,
            }
            print(json.dumps(payload, indent=2))
            return 0
        for p in pairs:
            print(f"{p.similarity:.6f}  {p.first} ~ {p.second}")
        if clusters is not None:
            for cluster in clusters:
                print("cluster: " + ", ".join(sorted(cluster)))
        if report is not None:
            print(
                f"refined {report.refined} pairs "
                f"(pruned {report.pruned} by bound)",
                file=sys.stderr,
            )
        return 0
    except (OSError, ValueError, ReproError) as error:
        parser.error(str(error))
    raise AssertionError("unreachable")  # pragma: no cover


def _run_index_maintenance(args, parser) -> int:
    """The ``index recover|verify|compact`` verbs (docs/STORE.md)."""
    from .index import IndexStore

    store = IndexStore(args.store)

    if args.index_command == "verify":
        try:
            findings = store.verify()
        except OSError as error:
            parser.error(str(error))
        errors = sum(1 for f in findings if f.severity == "error")
        warnings = len(findings) - errors
        if args.json:
            print(json.dumps(
                {
                    "store": args.store,
                    "ok": errors == 0,
                    "errors": errors,
                    "warnings": warnings,
                    "findings": [f.as_dict() for f in findings],
                },
                indent=2, default=str,
            ))
        else:
            for f in findings:
                where = f" [table {f.table}]" if f.table else ""
                print(f"{f.severity}: {f.kind}{where}: {f.message}")
            if errors:
                print(
                    f"{args.store}: CORRUPT — {errors} error(s), "
                    f"{warnings} warning(s)"
                )
            else:
                print(f"{args.store}: ok ({warnings} warning(s))")
        return 1 if errors else 0

    try:
        report = store.open()
        if args.index_command == "recover":
            payload = {"store": args.store, **report.as_dict()}
            store.close()
            if args.json:
                print(json.dumps(payload, indent=2, default=str))
                return 0
            print(
                f"generation {report.generation}: "
                f"{report.snapshot_tables} snapshot table(s), "
                f"{report.wal_records} log record(s) replayed"
            )
            if report.was_torn:
                print(
                    f"torn tail truncated at byte {report.torn_offset}: "
                    f"{report.torn_reason} "
                    f"({report.torn_bytes_dropped} byte(s) dropped)"
                )
            return 0

        # compact
        folded = store.compact()
        store.close()
        if args.json:
            print(json.dumps(
                {"store": args.store, **folded.as_dict()},
                indent=2, default=str,
            ))
            return 0
        if folded.records_folded == 0:
            print(
                f"{args.store}: log is empty "
                f"(generation {folded.new_generation}); nothing to compact"
            )
            return 0
        print(
            f"compacted generation {folded.old_generation} -> "
            f"{folded.new_generation}: folded {folded.records_folded} "
            f"record(s), rewrote {folded.tables_rewritten} table(s), "
            f"dropped {folded.tables_dropped}, removed "
            f"{folded.files_removed} file(s)"
        )
        return 0
    except (OSError, ValueError, ReproError) as error:
        parser.error(str(error))
    raise AssertionError("unreachable")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "index":
        return _run_index(args, parser)

    if args.command == "obs":
        return _run_obs(args, parser)

    if args.command == "serve":
        return _run_serve(args, parser)

    with _ObsSession(args):
        if args.command == "compare-many":
            return _run_compare_many(args, parser)
        return _run_single(args, parser)


def _run_single(args, parser) -> int:
    """The ``compare`` / ``similarity`` / ``diff`` commands."""
    try:
        left = read_csv(
            args.left, relation_name=args.relation,
            null_prefix=args.null_prefix, name="left",
        )
        right = read_csv(
            args.right, relation_name=args.relation,
            null_prefix=args.null_prefix, name="right",
        )
    except (OSError, ValueError, ReproError) as error:
        parser.error(str(error))

    executor = _build_executor(args, parser)

    options = PRESETS[args.preset](lam=args.lam)

    if args.command == "diff":
        from .versioning.delta import diff_versions

        delta = diff_versions(left, right, options=options)
        print(delta.render())
        return 0

    try:
        result = compare(
            left,
            right,
            algorithm=Algorithm(args.algorithm),
            options=options,
            align_schemas=args.align_schemas,
            deadline=getattr(args, "deadline", None),
            executor=executor,
        )
    except ValueError as error:
        parser.error(str(error))

    if not result.outcome.is_complete:
        if result.outcome.value in ("oom", "killed", "crashed"):
            detail = (
                f"the exponential stage died ({result.outcome}) and the "
                "comparison degraded to the approximate tier"
            )
        else:
            detail = f"comparison did not complete ({result.outcome})"
        if getattr(args, "on_budget_exhausted", "degrade") == "fail":
            print(
                f"error: {detail}; score {result.similarity:.6f} is only "
                "a lower bound",
                file=sys.stderr,
            )
            return 3
        print(
            f"warning: {detail}; the score is a lower bound",
            file=sys.stderr,
        )

    if args.command == "similarity":
        print(f"{result.similarity:.6f}")
        return 0

    if getattr(args, "json", False):
        print(json.dumps(result_to_dict(result), indent=2, default=str))
        return 0

    print(f"similarity: {result.similarity:.6f}")
    print(f"algorithm:  {result.algorithm} ({options.describe()})")
    stats = result.statistics()
    print(
        f"matched: {stats.matched_pairs}  "
        f"unmatched left: {stats.left_non_matching}  "
        f"unmatched right: {stats.right_non_matching}"
    )
    violations = result.constraint_violations()
    for violation in violations:
        print(f"warning: {violation}")
    if getattr(args, "explain", False):
        print()
        print(result.explain())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
