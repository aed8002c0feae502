"""The benchmark's three workloads: paper-small, tpch-evolve and lake.

Every workload is a single-process closed loop with one client: the next
operation starts when the previous one has returned, with ``jobs=1`` and
no fork workers.  All work is fixed by the seed and the run length:
``--seconds`` sets the *number* of operations through a per-workload rate
calibrated on a 2-core host, never a deadline, so a slow host phase
stretches a run instead of shrinking its work.

Each workload has two kinds of operation, each of similar cost within
its kind; ``op`` is the kind with enough samples for a p95 tail and
``aux`` the other one.  Every output is checked with the clock paused; an
operation fails when it raises or fails its check.  See README.md for why
each workload was chosen.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

from repro import (
    Algorithm,
    AnytimeOptions,
    Comparator,
    Instance,
    LabeledNull,
    MatchOptions,
    RelationSchema,
    SimilarityIndex,
    instance_fingerprint,
    prepare_for_comparison,
    score_match,
)
from repro.datagen.perturb import PerturbationConfig, perturb
from repro.datagen.synthetic import generate_dataset
from repro.datagen.tpch import generate_tpch
from repro.delta.batch import DeltaBatch, TupleOp
from repro.index.refine import SearchHit
from repro.index.store import load_index

SCORE_TOL = 1e-9
"""Absolute tolerance when two computations of one score are compared."""


class Recorder:
    """Latencies by operation kind, failures, and the paused check clock."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.paused_s = 0.0
        self.problems: list[str] = []
        self._scores = hashlib.sha256()

    def op(self, kind: str, fn, *args, **kwargs):
        """Run and time one operation; ``None`` when it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            # A raising operation is a failed operation, not the end of
            # the run: record it and keep the closed loop going.
            self.failed += 1
            self._report(f"{kind} raised:\n{traceback.format_exc()}")
            return None
        self.latencies[kind].append((time.perf_counter() - start) * 1000.0)
        return result

    @contextmanager
    def paused(self):
        """Benchmark bookkeeping and output checks run off the clock."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - start

    def verdict(self, kind: str, problems: list[str]) -> None:
        """Count one operation failed when its check found problems."""
        if problems:
            self.failed += 1
            self._report(f"{kind} failed its check: {'; '.join(problems)}")

    def digest(self, *scores) -> None:
        """Fold output scores into the run's score digest."""
        for score in scores:
            self._scores.update(repr(score).encode())
            self._scores.update(b";")

    @property
    def score_digest(self) -> str:
        return self._scores.hexdigest()

    def _report(self, message: str) -> None:
        if len(self.problems) < 5:
            print(f"perfbench: {message}", file=sys.stderr)
        self.problems.append(message)


def check_score(result, lam: float) -> list[str]:
    """The reported similarity equals ``score_match`` of the shipped match."""
    rescored = score_match(result.match, lam=lam)
    if abs(rescored - result.similarity) > SCORE_TOL:
        return [f"similarity {result.similarity!r} != score_match {rescored!r}"]
    return []


def _fingerprints(instances) -> str:
    digest = hashlib.sha256()
    for instance in instances:
        digest.update(instance_fingerprint(instance).encode())
    return digest.hexdigest()


# -- paper-small --------------------------------------------------------------


class PaperSmall:
    """The paper's modCell-5% pairs through the anytime ladder."""

    name = "paper-small"
    kinds = {"op": "anytime comparison", "aux": "signature comparison"}
    kind_names = {"op_p50_ms": "op_p50_ms", "op_p95_ms": "op_p95_ms",
                   "aux_p50_ms": "signature_p50_ms", "aux_p95_ms": "signature_p95_ms"}
    PROFILES = ("doct", "bike", "git")
    ROWS = 30
    """Tuples per side: at 60, 7 of 45 pairs hit the node cap."""
    NODE_CAP = 20_000
    PAIRS_PER_SECOND = 30

    def setup(self, seed: int, seconds: int, workdir: str):
        rng = random.Random(f"paper-small:{seed}")
        count = len(self.PROFILES) * max(
            1, round(seconds * self.PAIRS_PER_SECOND / len(self.PROFILES))
        )
        pairs = []
        for i in range(count):
            base = generate_dataset(
                self.PROFILES[i % len(self.PROFILES)],
                rows=self.ROWS,
                seed=rng.randrange(2**31),
            )
            pairs.append(
                perturb(base, PerturbationConfig.mod_cell(5.0, seed=rng.randrange(2**31)))
            )
        options = MatchOptions.versioning()
        return SimpleNamespace(
            pairs=pairs,
            options=options,
            ladder=Comparator(AnytimeOptions(node_budget=self.NODE_CAP), options),
            floor=Comparator(Algorithm.SIGNATURE, options),
        )

    def input_digest(self, state) -> str:
        return _fingerprints(
            instance for scenario in state.pairs
            for instance in (scenario.source, scenario.target)
        )

    def run(self, state, rec: Recorder) -> dict:
        lam = state.options.lam
        for scenario in state.pairs:
            ladder = rec.op("op", state.ladder.compare_anytime,
                            scenario.source, scenario.target)
            floor = rec.op("aux", state.floor.compare_one,
                           scenario.source, scenario.target)
            with rec.paused():
                if floor is not None:
                    rec.verdict("aux", check_score(floor, lam))
                if ladder is not None:
                    rec.verdict("op", self.check(ladder, floor, scenario, lam))
                rec.digest(getattr(ladder, "similarity", None),
                           getattr(floor, "similarity", None))
        return {}

    @staticmethod
    def check(ladder, floor, scenario, lam: float) -> list[str]:
        """Ladder score: exact for its match, ≥ floor, ≥ gold when exact."""
        problems = check_score(ladder, lam)
        if floor is not None and ladder.similarity < floor.similarity - SCORE_TOL:
            problems.append(
                f"ladder {ladder.similarity!r} below the signature floor "
                f"{floor.similarity!r}"
            )
        if ladder.stats.get("anytime_score_is_exact"):
            gold = scenario.gold_score(lam)
            if ladder.similarity < gold - SCORE_TOL:
                problems.append(
                    f"exact ladder {ladder.similarity!r} below the gold "
                    f"score {gold!r}"
                )
        return problems

    def verify(self, state, rec: Recorder) -> None:
        pass

    def close(self, state) -> None:
        pass


# -- tpch-evolve --------------------------------------------------------------


class TpchEvolve:
    """A TPC-H corpus evolving under small mutation batches, compared warm."""

    name = "tpch-evolve"
    kinds = {"op": "warm compare_delta", "aux": "cold checkpoint compare"}
    kind_names = {"op_p50_ms": "warm_p50_ms", "op_p95_ms": "warm_p95_ms",
                   "aux_p50_ms": "cold_p50_ms", "aux_p95_ms": None}
    TABLES = ("region", "nation", "supplier", "customer", "part")
    SF = 0.01
    NULL_RATE = 0.02
    MUTATION_RATE = 0.002
    COLD_EVERY = 16
    CHECK_EVERY = 8
    """Rescoring a 3.6k-tuple match costs about two warm steps, so the
    score check runs on every 8th warm result (each checkpoint's too)."""
    STEPS_PER_SECOND = 12

    def setup(self, seed: int, seconds: int, workdir: str):
        corpus = generate_tpch(
            self.SF, seed=seed, tables=self.TABLES, null_rate=self.NULL_RATE
        )
        left, right = prepare_for_comparison(corpus, corpus)
        comparator = Comparator(options=MatchOptions.versioning())
        session = comparator.delta_session(left, right)
        return SimpleNamespace(
            corpus=corpus,
            left=left,
            comparator=comparator,
            session=session,
            result=session.last_result,
            ids=sorted(right.ids()),
            rng=random.Random(f"tpch-evolve:{seed}"),
            fresh=0,
            steps=max(self.COLD_EVERY, round(seconds * self.STEPS_PER_SECOND)),
        )

    def input_digest(self, state) -> str:
        return _fingerprints([state.corpus])

    def _batch(self, state) -> DeltaBatch:
        """Deletes, null-injecting updates and inserts over ~0.2% of tuples."""
        rng = state.rng
        current = state.result.match.right
        ops = []
        count = max(1, int(len(state.ids) * self.MUTATION_RATE))
        for tuple_id in rng.sample(state.ids, count):
            t = current.get_tuple(tuple_id)
            relation = t.relation.name
            roll = rng.random()
            state.fresh += 1
            if roll < 0.25:
                ops.append(TupleOp("delete", relation, tuple_id, old_values=t.values))
                state.ids.remove(tuple_id)
            elif roll < 0.85:
                values = list(t.values)
                values[rng.randrange(len(values))] = LabeledNull(f"evo_null{state.fresh}")
                ops.append(TupleOp("update", relation, tuple_id,
                                   values=tuple(values), old_values=t.values))
            else:
                new_id = f"evo{state.fresh}"
                ops.append(TupleOp("insert", relation, new_id, values=t.values))
                state.ids.append(new_id)
        return DeltaBatch(ops)

    def run(self, state, rec: Recorder) -> dict:
        lam = state.comparator.options.lam
        for step in range(1, state.steps + 1):
            with rec.paused():
                batch = self._batch(state)
            warm = rec.op("op", state.comparator.compare_delta, state.result, batch)
            if warm is None:
                continue
            state.result = warm
            with rec.paused():
                if step % self.CHECK_EVERY == 0:
                    rec.verdict("op", check_score(warm, lam))
                rec.digest(warm.similarity, warm.stats["staleness_bound"])
            if step % self.COLD_EVERY == 0:
                cold = rec.op("aux", state.comparator.compare, state.left,
                              warm.match.right)
                if cold is not None:
                    with rec.paused():
                        rec.verdict("aux", self.check_cold(cold, warm, lam))
                        rec.digest(cold.similarity)
        return {}

    @staticmethod
    def check_cold(cold, warm, lam: float) -> list[str]:
        """Cold score is exact for its match and ≤ warm + staleness bound."""
        problems = check_score(cold, lam)
        bound = warm.stats["staleness_bound"]
        if cold.similarity > warm.similarity + bound + SCORE_TOL:
            problems.append(
                f"cold {cold.similarity!r} > warm {warm.similarity!r} + "
                f"staleness bound {bound!r}"
            )
        return problems

    def verify(self, state, rec: Recorder) -> None:
        pass

    def close(self, state) -> None:
        pass


# -- lake ---------------------------------------------------------------------


class Lake:
    """A WAL-backed similarity index under interleaved searches and edits."""

    name = "lake"
    kinds = {"op": "search", "aux": "update_delta"}
    kind_names = {"op_p50_ms": "search_p50_ms", "op_p95_ms": "search_p95_ms",
                   "aux_p50_ms": "update_p50_ms", "aux_p95_ms": "update_p95_ms"}
    PROFILES = ("doct", "iris", "bike", "nba")
    """The narrow profiles: wide ones (git, bus) cost ~10 ms a refinement."""
    ROWS = 32
    VERSIONS = 5
    """Versions per family besides the base (one family per profile)."""
    TABLES = 150
    UNRELATED_ROWS = (24, 32, 40)
    DISJOINT = (0.9, 1.0)
    """Shares of an unrelated table's columns whose constants it owns alone."""
    TOP_K = 1
    QUERY_NOISE = 2.0
    """modCell percent between a query and the family member it came from."""
    OPS_PER_SECOND = 60
    SAMPLE_EVERY = 16
    """Every 16th search is re-ranked by brute force after the run."""

    def setup(self, seed: int, seconds: int, workdir: str):
        rng = random.Random(f"lake:{seed}")
        tables: dict[str, Instance] = {}
        for profile in self.PROFILES:
            base = generate_dataset(profile, rows=self.ROWS, seed=rng.randrange(2**31))
            tables[f"{profile}.v0"] = base
            for version in range(1, self.VERSIONS + 1):
                scenario = perturb(
                    base, PerturbationConfig.mod_cell(5.0, seed=rng.randrange(2**31))
                )
                tables[f"{profile}.v{version}"] = scenario.target
        families = sorted(tables)
        # Shapes cycle with the table number, so every seed builds a lake
        # of one shape and only the values differ.
        for number in range(self.TABLES - len(tables)):
            profile = self.PROFILES[number % len(self.PROFILES)]
            shape = number // len(self.PROFILES)
            tables[f"{profile}.u{number}"] = self._unrelated(
                profile,
                self.UNRELATED_ROWS[shape % len(self.UNRELATED_ROWS)],
                self.DISJOINT[shape % len(self.DISJOINT)],
                rng,
                number,
            )
        index = SimilarityIndex()
        for name in sorted(tables):
            index.add(name, tables[name])
        store_path = os.path.join(workdir, f"lake-{os.getpid()}-{time.monotonic_ns()}")
        index.save(store_path)

        # Exactly one update per search, in a seeded order; queries visit
        # the family members round-robin.
        searches = max(1, round(seconds * self.OPS_PER_SECOND / 2))
        kinds = ["search"] * searches + ["update"] * searches
        rng.shuffle(kinds)
        ops, queries = [], 0
        for kind in kinds:
            if kind == "search":
                member = tables[families[queries % len(families)]]
                queries += 1
                ops.append(("search", perturb(member, PerturbationConfig.mod_cell(
                    self.QUERY_NOISE, seed=rng.randrange(2**31)
                )).target))
            else:
                ops.append(("update", rng.choice(sorted(tables))))
        return SimpleNamespace(
            index=index, store_path=store_path, ops=ops, rng=rng,
            edits=0, samples=[],
        )

    @staticmethod
    def _unrelated(
        profile: str, rows: int, disjoint: float, rng: random.Random, number: int
    ) -> Instance:
        """A same-schema table owning the constants of ``disjoint`` of its columns.

        Its sketch bound against a family member then sits below the
        members' own, so the bound can prune it.
        """
        generated = generate_dataset(profile, rows=rows, seed=rng.randrange(2**31))
        [(relation, columns)] = generated.to_columns().items()
        owned = set(rng.sample(range(len(columns)), round(disjoint * len(columns))))
        tagged = [
            [f"u{number}:{value}" for value in values] if position in owned else values
            for position, values in enumerate(columns.values())
        ]
        return Instance.from_columns(
            RelationSchema(relation, tuple(columns)), tagged,
            name=f"{profile}.u{number}", id_prefix="t",
        )

    def input_digest(self, state) -> str:
        index = state.index
        return _fingerprints(
            [index.get(name) for name in index.names()]
            + [op[1] for op in state.ops if op[0] == "search"]
        )

    def _edit(self, state, name: str) -> tuple[DeltaBatch, int]:
        """Rewrite one cell in each of two tuples; returns the batch + bytes."""
        rng = state.rng
        [relation] = list(state.index.get(name).relations())
        ops, changed_bytes = [], 0
        for t in rng.sample(list(relation), 2):
            state.edits += 1
            values = list(t.values)
            if rng.random() < 0.5:
                value = LabeledNull(f"lake_null{state.edits}")
            else:
                value = f"edit{state.edits}"
            values[rng.randrange(len(values))] = value
            changed_bytes += len(str(value).encode())
            ops.append(TupleOp("update", relation.schema.name, t.tuple_id,
                               values=tuple(values), old_values=t.values))
        return DeltaBatch(ops), changed_bytes

    def _wal_size(self, state) -> int:
        store = state.index.store
        return os.path.getsize(os.path.join(store.path, store.manifest()["wal"]))

    def run(self, state, rec: Recorder) -> dict:
        index = state.index
        with rec.paused():
            wal_before = self._wal_size(state)
        updates = changed_bytes = searches = 0
        for kind, payload in state.ops:
            if kind == "search":
                searches += 1
                hits = rec.op("op", index.search, payload, top_k=self.TOP_K)
                if hits is None:
                    continue
                with rec.paused():
                    rec.digest(*[(hit.name, hit.similarity) for hit in hits])
                    if searches % self.SAMPLE_EVERY == 1:
                        snapshot = {name: index.get(name) for name in index.names()}
                        state.samples.append((payload, hits, snapshot))
            else:
                with rec.paused():
                    batch, size = self._edit(state, payload)
                report = rec.op("aux", index.update_delta, payload, batch)
                if report is None:
                    continue
                updates += 1
                changed_bytes += size
                with rec.paused():
                    rec.verdict("aux", [] if report.mode == "incremental"
                                else [f"update mode {report.mode!r}"])
        with rec.paused():
            wal_bytes = self._wal_size(state) - wal_before
        return {"wal_bytes": wal_bytes, "wal_updates": updates,
                "changed_cell_bytes": changed_bytes}

    def verify(self, state, rec: Recorder) -> None:
        """Sampled searches equal brute force; a reload reproduces the index."""
        for query, hits, snapshot in state.samples:
            rec.verdict("op", self.check_hits(
                hits, brute_force(query, snapshot, state.index.options, self.TOP_K)
            ))
        rec.attempted += 1
        rec.verdict("reload", self.check_reload(state))

    @staticmethod
    def check_hits(hits, expected) -> list[str]:
        got = [(hit.name, hit.similarity, hit.matched_tuples) for hit in hits]
        want = [(hit.name, hit.similarity, hit.matched_tuples) for hit in expected]
        if len(got) != len(want) or any(
            g[0] != w[0] or g[2] != w[2] or abs(g[1] - w[1]) > SCORE_TOL
            for g, w in zip(got, want)
        ):
            return [f"hits {got} != brute force {want}"]
        return []

    @staticmethod
    def check_reload(state) -> list[str]:
        index = state.index
        loaded = load_index(state.store_path)
        try:
            if loaded.names() != index.names():
                return ["reloaded table names differ"]
            return [
                f"table {name!r} reloads with another fingerprint"
                for name in index.names()
                if loaded.sketch(name).fingerprint != index.sketch(name).fingerprint
                or instance_fingerprint(loaded.get(name))
                != instance_fingerprint(index.get(name))
            ]
        finally:
            loaded.store.close()

    def close(self, state) -> None:
        if state.index.store is not None:
            state.index.store.close()
        shutil.rmtree(state.store_path, ignore_errors=True)


def brute_force(query: Instance, tables: dict, options, top_k: int) -> list:
    """The exact top-k ranking by comparing ``query`` with every table."""
    comparator = Comparator(options=options)
    wanted = set(query.schema.relation_names())
    ranked = []
    for name in sorted(tables):
        if set(tables[name].schema.relation_names()) != wanted:
            continue
        result = comparator.compare(query, tables[name])
        ranked.append(SearchHit(name, result.similarity, len(result.match.m)))
    ranked.sort(key=lambda hit: (-hit.similarity, hit.name))
    return ranked[:top_k]


WORKLOADS = {cls.name: cls for cls in (PaperSmall, TpchEvolve, Lake)}
