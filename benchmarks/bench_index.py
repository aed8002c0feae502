"""Benchmark the sketch index against brute force; emit ``BENCH_index.json``.

Standalone (not pytest-benchmark, like ``bench_parallel.py``) so CI can run
it on a small corpus and archive the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_index.py \
        --rows 40 --versions 6 --unrelated 4 --out BENCH_index.json

Builds a data-lake corpus (one base table, a chain of perturbed versions,
several unrelated tables with discriminative content, and one structurally
incomparable table), then measures:

* **exactness gates** (any failure exits 1):
  - index search hits are *identical* to the brute-force oracle
    (``brute_force_search`` on a second index over the same corpus) for
    every query and ``top_k`` — names, scores, tie order (recall@k = 1.0);
  - index ``near_duplicates`` matches ``brute_force_dedup`` at every
    threshold;
  - a persisted store reloads deterministically (same search results, and
    two saves of the loaded index are byte-identical);
* **efficiency gate**: index search performs strictly fewer full
  ``signature_compare`` refinements than brute force on the corpus;
* latency of index vs brute-force search, and cold vs warm store loads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.core.instance import Instance  # noqa: E402
from repro.datagen.perturb import PerturbationConfig, perturb  # noqa: E402
from repro.datagen.synthetic import generate_dataset  # noqa: E402
from repro.index import (  # noqa: E402
    SimilarityIndex,
    brute_force_dedup,
    brute_force_search,
    load_index,
)


def build_corpus(rows: int, versions: int, unrelated: int, seed: int):
    """A lake of named instances with duplicates, versions, and noise."""
    corpus: dict[str, Instance] = {}
    base = generate_dataset("doct", rows=rows, seed=seed)
    corpus["base"] = base
    current = base
    for step in range(1, versions + 1):
        scenario = perturb(
            current, PerturbationConfig.mod_cell(5.0, seed=seed + step)
        )
        current = scenario.target
        corpus[f"v{step}"] = current
    relation = base.schema.relation_names()[0]
    attrs = base.schema.relation(relation).attributes
    for k in range(unrelated):
        # Discriminative content: unique per-table constants, so the
        # admissible bound actually separates these from the version family.
        corpus[f"noise{k}"] = Instance.from_rows(
            relation, attrs,
            [
                tuple(f"n{k}-r{r}-c{c}" for c in range(len(attrs)))
                for r in range(rows)
            ],
            name=f"noise{k}",
        )
    corpus["incomparable"] = Instance.from_rows(
        "SomethingElse", ("Z",), [("z",)], name="incomparable"
    )
    return corpus


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


def snapshot(path: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(path)): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=40)
    parser.add_argument("--versions", type=int, default=6)
    parser.add_argument("--unrelated", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top-k", type=int, nargs="+", default=[1, 3, 5])
    parser.add_argument(
        "--thresholds", type=float, nargs="+", default=[0.5, 0.8]
    )
    parser.add_argument("--out", default="BENCH_index.json")
    args = parser.parse_args(argv)

    corpus = build_corpus(args.rows, args.versions, args.unrelated, args.seed)

    index = SimilarityIndex()
    # The oracle's side: its own index (so its own cache, and cold
    # timings), queried only through the brute-force scan.
    brute = SimilarityIndex()
    build_elapsed = 0.0
    for name, instance in sorted(corpus.items()):
        _, elapsed = timed(index.add, name, instance)
        build_elapsed += elapsed
        brute.add(name, instance)

    failures: list[str] = []
    queries = {
        "self": corpus["base"],
        "mid-version": corpus[f"v{max(1, args.versions // 2)}"],
        "noise": corpus["noise0"],
    }

    searches = []
    index_refined_total = 0
    brute_compared_total = 0
    for label, query in sorted(queries.items()):
        for top_k in args.top_k:
            index_hits, index_elapsed = timed(
                index.search, query, top_k
            )
            report = index.last_report
            brute_hits, brute_elapsed = timed(
                brute_force_search, brute, query, top_k
            )
            brute_compared = report.candidates  # one compare per comparable
            identical = index_hits == brute_hits
            if not identical:
                failures.append(
                    f"DIVERGENCE: search({label!r}, top_k={top_k}) "
                    f"index={index_hits} brute={brute_hits}"
                )
            index_refined_total += report.refined
            brute_compared_total += brute_compared
            searches.append({
                "query": label,
                "top_k": top_k,
                "index_seconds": index_elapsed,
                "brute_seconds": brute_elapsed,
                "speedup": (
                    brute_elapsed / index_elapsed if index_elapsed else 0.0
                ),
                "refined": report.refined,
                "pruned": report.pruned,
                "candidates": report.candidates,
                "incomparable": report.incomparable,
                "hits_identical": identical,
                "recall_at_k": 1.0 if identical else 0.0,
            })

    dedups = []
    for threshold in args.thresholds:
        index_pairs, index_elapsed = timed(
            index.near_duplicates, threshold
        )
        report = index.last_report
        brute_pairs, brute_elapsed = timed(
            brute_force_dedup, brute, threshold
        )
        identical = index_pairs == brute_pairs
        if not identical:
            failures.append(
                f"DIVERGENCE: near_duplicates({threshold}) disagrees"
            )
        dedups.append({
            "threshold": threshold,
            "index_seconds": index_elapsed,
            "brute_seconds": brute_elapsed,
            "pairs": len(index_pairs),
            "refined": report.refined,
            "pruned": report.pruned,
            "pairs_identical": identical,
        })

    if index_refined_total >= brute_compared_total:
        failures.append(
            f"EFFICIENCY: index refined {index_refined_total} >= brute "
            f"{brute_compared_total} full comparisons"
        )

    # Persistence: deterministic reload, identical post-reload results.
    workdir = Path(tempfile.mkdtemp(prefix="bench_index_"))
    try:
        store_path = workdir / "store"
        _, save_elapsed = timed(index.save, store_path)
        loaded_cold, cold_elapsed = timed(load_index, store_path)
        _, warm_elapsed = timed(load_index, store_path)
        reload_hits = loaded_cold.search(corpus["base"], args.top_k[-1])
        original_hits = index.search(corpus["base"], args.top_k[-1])
        if reload_hits != original_hits:
            failures.append("RELOAD: search results changed after reload")
        first = snapshot(store_path)
        loaded_cold.save(workdir / "resaved")
        if snapshot(workdir / "resaved") != first:
            failures.append("RELOAD: re-saved store is not byte-identical")
        store = {
            "save_seconds": save_elapsed,
            "cold_load_seconds": cold_elapsed,
            "warm_load_seconds": warm_elapsed,
            "reload_identical": reload_hits == original_hits,
            "store_bytes": sum(len(v) for v in first.values()),
            "files": len(first),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report_payload = {
        "benchmark": "sketch-index-vs-brute-force",
        "tables": len(corpus),
        "rows": args.rows,
        "build_seconds": build_elapsed,
        "searches": searches,
        "dedup": dedups,
        "store": store,
        "refined_full_comparisons": {
            "index": index_refined_total,
            "brute_force": brute_compared_total,
        },
        "lsh": index.lsh.bucket_stats(),
        "recall_at_k": 1.0 if not failures else 0.0,
        "gates_passed": not failures,
    }
    with open(args.out, "w") as handle:
        json.dump(report_payload, handle, indent=2)

    for row in searches:
        print(
            f"search {row['query']:>11} top_k={row['top_k']}: "
            f"index {row['index_seconds']*1000:7.1f}ms "
            f"(refined {row['refined']}/{row['candidates']}) vs "
            f"brute {row['brute_seconds']*1000:7.1f}ms "
            f"[{'ok' if row['hits_identical'] else 'DIVERGED'}]"
        )
    for row in dedups:
        print(
            f"dedup t={row['threshold']}: index {row['index_seconds']*1000:7.1f}ms "
            f"(refined {row['refined']}, pruned {row['pruned']}) vs "
            f"brute {row['brute_seconds']*1000:7.1f}ms "
            f"[{'ok' if row['pairs_identical'] else 'DIVERGED'}]"
        )
    print(
        f"full comparisons: index {index_refined_total} vs brute "
        f"{brute_compared_total}; store load cold "
        f"{store['cold_load_seconds']*1000:.1f}ms / warm "
        f"{store['warm_load_seconds']*1000:.1f}ms"
    )
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
