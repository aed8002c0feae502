"""Benchmark the assignment algorithm; emit ``BENCH_assignment.json``.

Standalone (not pytest-benchmark, like ``bench_delta.py``) so CI can run
it and archive the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_assignment.py \
        --sf 0.01 --out BENCH_assignment.json

The scenario is the ROADMAP's globally-optimal matching rung: the greedy
signature algorithm commits pairs in local-score order and can strand a
tuple with its second-best partner, while the assignment algorithm solves
each relation's candidate matrix as a min-cost 1:1 completion
(Jonker-Volgenant / Hungarian) and therefore never scores below greedy.

Gates (any failure exits 1):

* **dominance** — on every benchmark cell (TPC-H identity, perturbed
  synthetic pairs, the constructed trap), assignment similarity ≥ greedy
  similarity;
* **strict win** — on the constructed greedy-trap cell the assignment
  score is *strictly* higher than greedy (and equals the exact optimum);
* **admissibility** — the solved relaxation's upper bound is ≥ the exact
  similarity on the constructed cell;
* **pruning** — the exact search, which prunes with the relaxation,
  explores fewer nodes on the constructed cell than the pair bound alone
  needed (``PAIR_BOUND_NODES``) and returns the score of the unpruned
  search (``prune=False``);
* **overhead** — on the TPC-H corpus, assignment costs ≤ 5× the plain
  signature comparison (the solve is polynomial over sparse candidate
  blocks; oversized blocks fall back to the greedy pairs).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.algorithms.assignment import (  # noqa: E402
    assignment_bounds,
    assignment_compare,
)
from repro.algorithms.exact import exact_compare  # noqa: E402
from repro.algorithms.signature import signature_compare  # noqa: E402
from repro.core.instance import Instance, prepare_for_comparison  # noqa: E402
from repro.core.values import LabeledNull  # noqa: E402
from repro.datagen.perturb import PerturbationConfig, perturb  # noqa: E402
from repro.datagen.synthetic import generate_dataset  # noqa: E402
from repro.datagen.tpch import generate_tpch  # noqa: E402
from repro.mappings.constraints import MatchOptions  # noqa: E402

# Same table subset as bench_delta.py: lineitem alone is ~4/5 of SF 0.01,
# the rest keeps the bench inside a CI minute across all value domains.
DEFAULT_TABLES = ("region", "nation", "supplier", "customer", "part")
OVERHEAD_GATE = 5.0
EPS = 1e-9
# Nodes the exact search explored on the constructed trap when it pruned
# with the pair bound alone; pruning with the relaxation must beat it.
PAIR_BOUND_NODES = 8


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


def constructed_trap() -> tuple[Instance, Instance, MatchOptions]:
    """The documented greedy trap (see ``repro.algorithms.assignment``).

    Greedy pairs left tuple A with right tuple X (its locally best
    partner, 8 agreeing-or-optimistic cells) which strands B with Y;
    the global optimum swaps nothing A cares about but lifts the total:
    greedy scores 0.90625, the optimal 1:1 completion 0.96875.
    """
    attrs = ("A", "B", "C", "D", "E", "F", "G", "H")
    left = Instance.from_rows(
        "R",
        attrs,
        [
            ("a", "b", "c", "d", LabeledNull("n1"), LabeledNull("n2"),
             LabeledNull("n3"), LabeledNull("n4")),
            ("a", "b", LabeledNull("m1"), LabeledNull("m2"),
             LabeledNull("m3"), LabeledNull("m4"), LabeledNull("m5"),
             LabeledNull("m6")),
        ],
        id_prefix="L",
    )
    right = Instance.from_rows(
        "R",
        attrs,
        [
            ("a", "b", "c", LabeledNull("p1"), LabeledNull("p2"),
             LabeledNull("p3"), LabeledNull("p4"), LabeledNull("p5")),
            ("a", "b", LabeledNull("q1"), LabeledNull("q2"),
             LabeledNull("q3"), LabeledNull("q4"), LabeledNull("q5"),
             LabeledNull("q6")),
        ],
        id_prefix="Rr",
    )
    return left, right, MatchOptions.versioning()


def benchmark_cells(args) -> list[dict]:
    """(name, prepared pair, options) for every dominance-gate cell."""
    cells = []

    corpus = generate_tpch(
        args.sf, seed=args.seed, tables=tuple(args.tables),
        null_rate=args.null_rate,
    )
    left, right = prepare_for_comparison(corpus, corpus)
    cells.append(("tpch-identity", left, right, MatchOptions.general()))

    for percent in (5.0, 20.0):
        base = generate_dataset("doct", rows=args.rows, seed=args.seed)
        scenario = perturb(
            base, PerturbationConfig.mod_cell(percent, seed=args.seed)
        )
        source, target = prepare_for_comparison(
            scenario.source, scenario.target
        )
        cells.append(
            (f"doct-mod{percent:g}", source, target,
             MatchOptions.versioning())
        )

    trap_left, trap_right, trap_options = constructed_trap()
    trap_left, trap_right = prepare_for_comparison(trap_left, trap_right)
    cells.append(("constructed-trap", trap_left, trap_right, trap_options))
    return cells


def run(args) -> dict:
    cells = benchmark_cells(args)
    cell_reports = []
    dominance = True
    trap_report = None
    tpch_times = {}

    for name, left, right, options in cells:
        greedy, t_greedy = timed(
            signature_compare, left, right, options=options
        )
        assigned, t_assigned = timed(
            assignment_compare, left, right, options=options
        )
        ok = assigned.similarity >= greedy.similarity - EPS
        dominance = dominance and ok
        entry = {
            "cell": name,
            "tuples": len(left),
            "greedy_similarity": greedy.similarity,
            "assignment_similarity": assigned.similarity,
            "improved": bool(assigned.stats.get("assignment_improved")),
            "blocks_solved": assigned.stats.get("assignment_blocks_solved"),
            "blocks_skipped": assigned.stats.get("assignment_blocks_skipped"),
            "greedy_seconds": t_greedy,
            "assignment_seconds": t_assigned,
            "dominates": ok,
        }
        cell_reports.append(entry)
        if name == "constructed-trap":
            trap_report = (left, right, options, greedy, assigned)
        if name == "tpch-identity":
            tpch_times = {"greedy": t_greedy, "assignment": t_assigned}
        print(f"cell   : {name:18s} greedy={greedy.similarity:.6f}  "
              f"assignment={assigned.similarity:.6f}  "
              f"({t_greedy:.3f}s → {t_assigned:.3f}s)")

    # -- the constructed trap: strict win, admissibility, exact pruning -----
    trap_left, trap_right, trap_options, trap_greedy, trap_assigned = (
        trap_report
    )
    exact_plain = exact_compare(
        trap_left, trap_right, options=trap_options, prune=False
    )
    exact_gated = exact_compare(trap_left, trap_right, options=trap_options)
    bound = assignment_bounds(trap_left, trap_right, trap_options)
    nodes_plain = exact_plain.stats["nodes_explored"]
    nodes_gated = exact_gated.stats["nodes_explored"]

    overhead = (
        tpch_times["assignment"] / tpch_times["greedy"]
        if tpch_times.get("greedy", 0) > 0
        else float("inf")
    )

    checks = {
        "assignment_dominates_greedy_everywhere": dominance,
        "strict_win_on_constructed_trap": (
            trap_assigned.similarity > trap_greedy.similarity + EPS
        ),
        "assignment_matches_exact_on_trap": math.isclose(
            trap_assigned.similarity, exact_plain.similarity,
            rel_tol=EPS, abs_tol=1e-12,
        ),
        "bound_admissible_on_trap": (
            bound.upper_bound >= exact_plain.similarity - EPS
        ),
        "exact_nodes_reduced_by_bound": nodes_gated < PAIR_BOUND_NODES,
        "exact_score_unchanged_by_bound": math.isclose(
            exact_gated.similarity, exact_plain.similarity,
            rel_tol=EPS, abs_tol=1e-12,
        ),
        "overhead_within_gate": overhead <= OVERHEAD_GATE,
    }

    report = {
        "corpus": {
            "sf": args.sf,
            "tables": list(args.tables),
            "rows": args.rows,
            "null_rate": args.null_rate,
            "seed": args.seed,
        },
        "cells": cell_reports,
        "constructed_trap": {
            "greedy_similarity": trap_greedy.similarity,
            "assignment_similarity": trap_assigned.similarity,
            "exact_similarity": exact_plain.similarity,
            "upper_bound": bound.upper_bound,
            "relaxation_value": bound.relaxation_value,
            "nodes_ungated": nodes_plain,
            "nodes_pair_bound_only": PAIR_BOUND_NODES,
            "nodes_with_assignment_bound": nodes_gated,
        },
        "overhead_ratio": overhead,
        "overhead_gate": OVERHEAD_GATE,
        "checks": checks,
    }

    print(f"trap   : greedy={trap_greedy.similarity:.6f} < "
          f"assignment={trap_assigned.similarity:.6f} = "
          f"exact={exact_plain.similarity:.6f}  "
          f"bound={bound.upper_bound:.6f}")
    print(f"nodes  : {nodes_plain} unpruned, {PAIR_BOUND_NODES} pair bound "
          f"only → {nodes_gated} with the assignment bound")
    print(f"ratio  : assignment/greedy on TPC-H = {overhead:.2f}  "
          f"(gate ≤ {OVERHEAD_GATE})")
    for name, passed in checks.items():
        print(f"check  : {name:38s} {'PASS' if passed else 'FAIL'}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sf", type=float, default=0.01)
    parser.add_argument("--rows", type=int, default=100)
    parser.add_argument("--null-rate", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--tables", nargs="+", default=list(DEFAULT_TABLES))
    parser.add_argument("--out", default="BENCH_assignment.json")
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
