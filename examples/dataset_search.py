"""Dataset search in a data lake: find tables similar to an example.

One of the paper's motivating applications (Sec. 1): given a user-provided
data example, find the most similar datasets in a lake — even when the
candidates are incomplete, have no shared keys, and may be near-duplicate
derivatives of each other.

The lake here holds several derived versions of two base tables (perturbed,
truncated, shuffled) plus unrelated tables; the query is a small sample of
one base table.  Ranking by instance similarity surfaces the right family.

The search runs on the ``repro.index`` retrieval layer (see
``docs/INDEX.md``): every table is sketched once when it enters the index,
the query prunes candidates through an admissible upper bound on the
similarity score, and refinement runs best-bound-first — the ranking is
identical to a brute-force scan, with fewer full comparisons.

Run with::

    python examples/dataset_search.py
"""

import random

from repro import Instance
from repro.datagen.perturb import PerturbationConfig, perturb
from repro.datagen.synthetic import generate_dataset
from repro.index import SimilarityIndex
from repro.versioning.operations import removed_rows_version, shuffled_version


def build_lake() -> dict[str, Instance]:
    """A small data lake: derivatives of 'doct' and 'nba' plus noise."""
    doct = generate_dataset("doct", rows=150, seed=0)
    nba_raw = generate_dataset("nba", rows=150, seed=0)
    # Align the decoy's schema name/arity with nothing — search compares
    # only same-schema candidates, so give every lake table the doct schema
    # to make the task non-trivial: project/rename nba onto 5 columns.
    nba = Instance.from_rows(
        "Doctor",
        doct.schema.relation("Doctor").attributes,
        [t.values[:5] for t in nba_raw.tuples()],
        name="nba-reshaped",
    )

    lake: dict[str, Instance] = {}
    lake["doct-v2-dirty"] = perturb(
        doct, PerturbationConfig.mod_cell(5.0, seed=1)
    ).target
    lake["doct-v3-dirtier"] = perturb(
        doct, PerturbationConfig.mod_cell(20.0, seed=2)
    ).target
    lake["doct-sample"] = removed_rows_version(
        doct, remove_fraction=0.5, seed=3
    )
    lake["doct-shuffled"] = shuffled_version(doct, seed=4)
    lake["unrelated-nba"] = nba
    lake["unrelated-random"] = Instance.from_rows(
        "Doctor",
        doct.schema.relation("Doctor").attributes,
        [
            tuple(f"junk{random.Random(i).randrange(10 ** 6)}_{j}"
                  for j in range(5))
            for i in range(150)
        ],
        name="random",
    )
    return lake


def main() -> None:
    base = generate_dataset("doct", rows=150, seed=0)
    # The user's query: a 40-row example extracted from the base table.
    query = removed_rows_version(base, remove_fraction=0.73, seed=9)
    query = Instance.from_rows(
        "Doctor",
        base.schema.relation("Doctor").attributes,
        [t.values for t in query.tuples()],
        name="query-example",
    )
    print(f"Query example: {len(query)} rows of an (unlabeled) dataset\n")

    index = SimilarityIndex()
    for name, table in build_lake().items():
        index.add(name, table)          # sketched + LSH-bucketed on entry
    hits = index.search(query, top_k=len(index))
    report = index.last_report

    print(f"{'rank':<5} {'dataset':<22} {'similarity':>10} {'matched':>8}")
    print("-" * 50)
    for rank, hit in enumerate(hits, start=1):
        print(
            f"{rank:<5} {hit.name:<22} {hit.similarity:>10.3f} "
            f"{hit.matched_tuples:>8}"
        )

    print(
        f"\nindex: refined {report.refined}/{report.candidates} candidates "
        f"(pruned {report.pruned} by the admissible\nsketch bound) — the "
        "ranking is identical to a brute-force scan of the lake."
    )
    print(
        "\nEvery member of the query's dataset family outranks the "
        "unrelated tables, with the\nsimilarity grading how far each "
        "version has drifted — no keys required, and labeled\nnulls in the "
        "dirty versions are matched semantically rather than textually."
    )


if __name__ == "__main__":
    main()
