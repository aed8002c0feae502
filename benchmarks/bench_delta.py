"""Benchmark the incremental delta pipeline; emit ``BENCH_delta.json``.

Standalone (not pytest-benchmark, like ``bench_wal.py``) so CI can run it
and archive the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_delta.py \
        --sf 0.01 --mutation-rate 0.01 --out BENCH_delta.json

The scenario is the ROADMAP's live-versioning rung: two prepared copies
of a TPC-H corpus are compared cold, then a seeded mutation batch
(deletes, null-injecting updates, and inserts over ``mutation-rate`` of
the right side's tuples) arrives and the evolved pair is re-compared two
ways — cold from scratch, and warm through :class:`repro.delta`.

Gates (any failure exits 1):

* **speed** — incremental index maintenance (sketch repair + LSH
  rebucket) plus ``DeltaSession.advance`` costs **< 10%** of the cold
  path (full re-sketch + re-bucket + cold ``signature_compare``);
* **sketch equality** — the delta-maintained sketch is dict-identical to
  a cold ``InstanceSketch.build`` of the mutated instance;
* **LSH equality** — band membership after ``rebucket`` equals a cold
  rebuild's;
* **warm validity** — the warm similarity equals ``score_match`` of the
  warm match bit for bit (the reported score is exact for the match it
  ships);
* **staleness honesty** — the cold similarity never exceeds the warm
  similarity plus the certified ``staleness_bound``;
* **staleness exact** — the warm ``staleness_bound``, built on column
  overlaps the session patches per batch, equals ``max(0, min(1,
  similarity_upper_bound(cold left sketch, cold right sketch)) -
  similarity)`` bit for bit;
* **warm match complete** — the warm match, whose value mappings the
  session retargets per dirty class, satisfies ``h_l(t) = h_r(t')`` on
  every pair (``InstanceMatch.is_complete``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.algorithms.signature import signature_compare  # noqa: E402
from repro.core.instance import prepare_for_comparison  # noqa: E402
from repro.core.values import LabeledNull  # noqa: E402
from repro.datagen.tpch import generate_tpch  # noqa: E402
from repro.delta.batch import DeltaBatch, TupleOp  # noqa: E402
from repro.delta.engine import DeltaSession  # noqa: E402
from repro.delta.maintenance import SketchMaintainer  # noqa: E402
from repro.index import IndexParams  # noqa: E402
from repro.index.lsh import LSHIndex  # noqa: E402
from repro.index.sketch import (  # noqa: E402
    InstanceSketch,
    similarity_upper_bound,
    sketch_to_dict,
)
from repro.scoring.match_score import score_match  # noqa: E402

# lineitem alone is ~4/5 of SF 0.01; the remaining tables keep the bench
# inside a CI minute while still crossing all five TPC-H value domains.
DEFAULT_TABLES = ("region", "nation", "supplier", "customer", "part")
SPEED_GATE_FRACTION = 0.10
EPS = 1e-9


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


def mutation_batch(instance, rate: float, seed: int) -> DeltaBatch:
    """Delete/update/insert over ``rate`` of the instance's tuples."""
    rng = random.Random(seed)
    ids = sorted(instance.ids())
    rng.shuffle(ids)
    n_mut = max(1, int(len(ids) * rate))
    ops = []
    fresh = 0
    for tuple_id in ids[:n_mut]:
        t = instance.get_tuple(tuple_id)
        rel_name = t.relation.name
        roll = rng.random()
        if roll < 0.25:
            ops.append(
                TupleOp("delete", rel_name, tuple_id, old_values=t.values)
            )
        elif roll < 0.85:  # null-injecting cell update
            values = list(t.values)
            fresh += 1
            values[rng.randrange(len(values))] = LabeledNull(f"MUT{fresh}")
            ops.append(
                TupleOp("update", rel_name, tuple_id,
                        values=tuple(values), old_values=t.values)
            )
        else:  # re-insert a clone row under a fresh id
            fresh += 1
            ops.append(
                TupleOp("insert", rel_name, f"mut{fresh}", values=t.values)
            )
    return DeltaBatch(ops)


def lsh_state(lsh: LSHIndex):
    return dict(lsh._members), [dict(band) for band in lsh._buckets]


def run(args) -> dict:
    params = IndexParams(num_perms=64, bands=16, rows=4)
    corpus = generate_tpch(
        args.sf, seed=args.seed, tables=tuple(args.tables),
        null_rate=args.null_rate,
    )
    left, right = prepare_for_comparison(corpus, corpus)
    print(f"corpus: TPC-H sf={args.sf} tables={','.join(args.tables)} "
          f"({len(right)} tuples/side)")

    session = DeltaSession(left, right)
    maintainer = SketchMaintainer(right, params)
    warm_lsh = LSHIndex(params)
    warm_lsh.add("right", maintainer.sketch_for(right).minhash)

    batch = mutation_batch(right, args.mutation_rate, args.seed + 1)
    new_right = batch.apply(right)
    summary = batch.summary()
    print(f"mutation: {len(batch)} ops over {args.mutation_rate:.1%} of "
          f"the right side {summary}")

    # -- cold path: re-sketch, re-bucket, re-match from scratch -------------
    cold_sketch, t_cold_sketch = timed(
        InstanceSketch.build, new_right, params
    )
    cold_lsh = LSHIndex(params)
    _, t_cold_bucket = timed(cold_lsh.add, "right", cold_sketch.minhash)
    cold_result, t_cold_compare = timed(
        signature_compare, left, new_right
    )
    t_cold = t_cold_sketch + t_cold_bucket + t_cold_compare

    # -- incremental path: repair sketch + buckets, advance warm ------------
    (warm_sketch, repair), t_warm_sketch = timed(
        maintainer.apply, batch, new_right
    )
    _, t_warm_bucket = timed(
        warm_lsh.rebucket, "right", warm_sketch.minhash
    )
    warm_result, t_warm_compare = timed(session.advance, batch)
    t_warm = t_warm_sketch + t_warm_bucket + t_warm_compare

    ratio = t_warm / t_cold if t_cold > 0 else float("inf")
    bound = warm_result.stats["staleness_bound"]
    rescored = score_match(warm_result.match, lam=warm_result.options.lam)
    cold_upper = similarity_upper_bound(
        InstanceSketch.build(left, params), cold_sketch, warm_result.options
    )
    cold_staleness = max(0.0, min(1.0, cold_upper) - warm_result.similarity)

    checks = {
        "speed_ratio_below_gate": ratio < SPEED_GATE_FRACTION,
        "sketch_identical": sketch_to_dict(warm_sketch)
        == sketch_to_dict(cold_sketch),
        "lsh_identical": lsh_state(warm_lsh) == lsh_state(cold_lsh),
        "warm_score_valid": warm_result.similarity == rescored,
        "staleness_honest": cold_result.similarity
        <= warm_result.similarity + bound + EPS,
        "staleness_exact": bound == cold_staleness,
        "warm_match_complete": warm_result.match.is_complete(),
    }

    report = {
        "corpus": {
            "sf": args.sf,
            "tables": list(args.tables),
            "tuples_per_side": len(right),
            "null_rate": args.null_rate,
            "seed": args.seed,
        },
        "mutation": {"rate": args.mutation_rate, "ops": len(batch),
                     **summary},
        "cold": {
            "sketch_seconds": t_cold_sketch,
            "bucket_seconds": t_cold_bucket,
            "compare_seconds": t_cold_compare,
            "total_seconds": t_cold,
            "similarity": cold_result.similarity,
        },
        "incremental": {
            "sketch_seconds": t_warm_sketch,
            "bucket_seconds": t_warm_bucket,
            "compare_seconds": t_warm_compare,
            "total_seconds": t_warm,
            "similarity": warm_result.similarity,
            "mode": warm_result.stats["delta_mode"],
            "staleness_bound": bound,
            "certified_exact": warm_result.stats["certified_exact"],
            "minhash_slots_patched": repair.minhash_slots_patched,
            "minhash_slots_rebuilt": repair.minhash_slots_rebuilt,
            "rescored_pairs": warm_result.stats["rescored_pairs"],
            "reused_pairs": warm_result.stats["reused_pairs"],
        },
        "speedup": 1.0 / ratio if ratio > 0 else float("inf"),
        "ratio": ratio,
        "gate_fraction": SPEED_GATE_FRACTION,
        "checks": checks,
    }

    print(f"cold   : {t_cold:8.3f}s  (sketch {t_cold_sketch:.3f}s, "
          f"compare {t_cold_compare:.3f}s)  sim={cold_result.similarity:.6f}")
    print(f"warm   : {t_warm:8.3f}s  (repair {t_warm_sketch:.3f}s, "
          f"advance {t_warm_compare:.3f}s)  "
          f"sim={warm_result.similarity:.6f}  bound={bound:.2e}")
    print(f"ratio  : {ratio:.4f}  (gate < {SPEED_GATE_FRACTION})  "
          f"speedup ×{report['speedup']:.1f}")
    for name, passed in checks.items():
        print(f"check  : {name:28s} {'PASS' if passed else 'FAIL'}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sf", type=float, default=0.01)
    parser.add_argument("--mutation-rate", type=float, default=0.01)
    parser.add_argument("--null-rate", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--tables", nargs="+", default=list(DEFAULT_TABLES))
    parser.add_argument("--out", default="BENCH_delta.json")
    args = parser.parse_args(argv)

    report = run(args)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"wrote {args.out}")

    if not all(report["checks"].values()):
        failed = [k for k, v in report["checks"].items() if not v]
        print(f"GATE FAILURES: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
