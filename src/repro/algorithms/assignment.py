"""Globally-optimal 1:1 assignment matching (the signature→exact middle rung).

The signature algorithm completes matches *greedily*: each probe commits to
the first (or best-aligned) consistent candidate, so two probes competing
for the same tuple resolve by scan order, not by total score.  On
Table-2-style cells this undershoots — the classic petals example: with
pair weights ``A→X: 0.90, A→Y: 0.85, B→X: 0.88, B→Y: 0.70`` greedy takes
``A→X`` then settles for ``B→Y`` (1.60) while the optimal 1:1 completion is
``A→Y + B→X`` (1.73).

This module solves the completion *optimally* over the optimistic pair
scores (:func:`~repro.algorithms.signature.optimistic_pair_score`) of the
``CompatibleTuples`` candidate matrix:

* :func:`solve_assignment` — a dependency-free sparse **Jonker-Volgenant**
  (shortest-augmenting-path) max-weight assignment solver.  Rows may stay
  unmatched (each row owns a zero-weight dummy column), the dual is seeded
  from the row maxima so greedy-optimal rows pre-match without a single
  Dijkstra step, and small blocks take a dense O(n³) Hungarian fallback.
* :func:`assignment_compare` — the ``Algorithm.ASSIGNMENT`` rung: greedy
  seeds (and floors) the result, the solver re-derives the per-relation
  1:1 core optimally, the greedy completion step extends it where the
  options allow non-injective extras, and the better of the two matches is
  returned.  Under a tripped runtime :class:`~repro.runtime.Budget` the
  rung *degrades to greedy*: the floor result is returned carrying the
  triggering :class:`~repro.runtime.Outcome`.
* :func:`assignment_bounds` — the solved relaxation as an **admissible
  upper bound** on the true similarity.  It is the one builder of the
  relaxation: every pruned exact search (:mod:`repro.algorithms.exact`)
  reads its blocks and solved value, and the rung reports the same bound
  from the block solves it has already run.  The index does not use it:
  there it would prune one polynomial signature comparison, which costs
  less than the solve (:mod:`repro.index.refine` keeps the sketch bound).

Admissibility (why the bound never undershoots the optimum): every cell
score is bounded by its optimistic value (1 for equal constants, 1 for
null-null, λ for null-constant — the ⊓ penalties of Def. 5.2 can only
lower it), so every pair's total score is ≤ its optimistic weight.  Under
**fully injective** options each matched tuple has exactly one partner,
making the match numerator ``2·Σ pair scores ≤ 2·(max-weight 1:1
assignment)``.  Without full injectivity a tuple may absorb several
partners, so the 1:1 relaxation is *not* valid there; the bound falls back
to the per-tuple maxima ``Σ_t max_t' w(t,t') + Σ_t' max_t w(t,t')``, which
dominates any distribution over images.

Determinism: solver input is canonicalized (rows and columns sorted by
tuple id), both solvers break ties by column index, and solved pairs are
committed to the match in **descending weight, then (left id, right id)**
order — the documented tie-break the differential tests pin down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Mapping

from ..core.instance import Instance
from ..mappings.constraints import MatchOptions
from ..obs.metrics import active_metrics
from ..obs.trace import annotate_budget, span
from ..runtime.budget import Budget, resolve_control
from ..runtime.faults import InjectedFault
from ..runtime.outcome import Outcome
from ..scoring.match_score import score_match
from ..scoring.sizes import normalization_denominator
from .compatibility import compatible_tuples_of_instances
from .result import ComparisonResult
from .signature import optimistic_pair_score, signature_compare

DEFAULT_MAX_BLOCK_SIZE = 512
"""Per-relation block-size cap: larger candidate blocks keep greedy pairs
(and enter :func:`assignment_bounds` with their row maxima, unsolved)."""

DENSE_FALLBACK_SIZE = 24
"""Blocks up to this many rows/columns use the dense Hungarian fallback."""

_EPS = 1e-9


# -- low-level solvers -------------------------------------------------------


@dataclass(frozen=True)
class AssignmentSolution:
    """One solved block: the optimal value and the selected (row, col) pairs.

    ``value`` is the maximum total weight of any matching in the block
    (rows/columns used at most once, either side may stay unmatched).
    ``pairs`` realize it, sorted by the documented commit tie-break
    ``(-weight, row, col)``.  ``solver`` names the code path (``"jv"`` or
    ``"dense"``) and ``seeded`` counts rows the greedy dual seeding
    pre-matched without an augmentation.
    """

    value: float
    pairs: tuple[tuple[int, int, float], ...]
    solver: str
    seeded: int = 0


def solve_assignment(
    weights: Mapping[tuple[int, int], float],
    n_rows: int,
    n_cols: int,
    *,
    control: Budget | None = None,
    dense_threshold: int = DENSE_FALLBACK_SIZE,
) -> AssignmentSolution | None:
    """Maximum-weight matching over a sparse non-negative weight matrix.

    ``weights`` maps ``(row, col)`` to a weight ≥ 0; absent entries are
    forbidden edges.  Rows and columns may stay unmatched (zero-weight
    edges are dropped — they never change the value and keep the output
    canonical).  Blocks whose larger side is ≤ ``dense_threshold`` run the
    dense O(n³) Hungarian fallback; larger blocks run sparse JV.

    ``control`` is spent one node per augmented row; a tripped budget
    aborts and returns ``None`` (the caller degrades to its greedy seed).
    """
    edges: dict[int, list[tuple[int, float]]] = {}
    for (row, col), weight in weights.items():
        if weight <= _EPS:
            continue
        if not 0 <= row < n_rows or not 0 <= col < n_cols:
            raise ValueError(
                f"edge ({row}, {col}) outside block {n_rows}x{n_cols}"
            )
        edges.setdefault(row, []).append((col, float(weight)))
    if not edges:
        return AssignmentSolution(0.0, (), "jv")
    for row_edges in edges.values():
        row_edges.sort()
    if max(n_rows, n_cols) <= dense_threshold:
        return _solve_dense(edges, n_rows, n_cols, control)
    return _solve_sparse_jv(edges, n_cols, control)


def _canonical_pairs(
    matched: list[tuple[int, int]],
    weight_of: Mapping[tuple[int, int], float],
) -> tuple[tuple[int, int, float], ...]:
    """Pairs in the documented commit order: (-weight, row, col)."""
    triples = [(row, col, weight_of[(row, col)]) for row, col in matched]
    triples.sort(key=lambda item: (-item[2], item[0], item[1]))
    return tuple(triples)


def _solve_sparse_jv(
    edges: dict[int, list[tuple[int, float]]],
    n_cols: int,
    control: Budget | None,
) -> AssignmentSolution | None:
    """Sparse Jonker-Volgenant shortest augmenting paths with potentials.

    Maximization via ``cost = maxw - w``.  Every row ``r`` additionally
    owns a private dummy column ``n_cols + r`` of weight 0 (cost ``maxw``),
    so each row is always matchable and a shortest path terminating at a
    dummy leaves the corresponding row effectively unmatched.  The row
    dual is seeded at ``maxw - rowmax`` — exactly the potential a greedy
    row-max assignment is tight against — so rows whose best column is
    uncontested pre-match without entering Dijkstra.
    """
    rows = sorted(edges)
    maxw = max(w for row_edges in edges.values() for _, w in row_edges)
    weight_lookup = {
        (row, col): w
        for row, row_edges in edges.items()
        for col, w in row_edges
    }
    # Adjacency on costs, dummy column last (ties prefer real columns).
    adj = {
        row: [(col, maxw - w) for col, w in edges[row]]
        + [(n_cols + row, maxw)]
        for row in rows
    }
    row_best = {row: max(w for _, w in edges[row]) for row in rows}
    u = {row: maxw - row_best[row] for row in rows}
    v: dict[int, float] = {}
    row_of: dict[int, int] = {}  # column -> matched row
    col_of: dict[int, int] = {}  # row -> matched column

    # Greedy dual seeding: rows on a tight edge to a free column pre-match.
    seeded = 0
    for row in rows:
        for col, w in edges[row]:
            if col in row_of:
                continue
            if w >= row_best[row] - _EPS:
                row_of[col] = row
                col_of[row] = col
                seeded += 1
                break

    for start_row in rows:
        if start_row in col_of:
            continue
        if control is not None and not control.spend():
            return None
        # Dijkstra over columns on reduced costs (clamped at 0 against
        # float drift) until the first free column — real or dummy.
        dist: dict[int, float] = {}
        parent: dict[int, int] = {}  # column -> row it was reached from
        finalized: set[int] = set()
        heap: list[tuple[float, int]] = []
        for col, cost in adj[start_row]:
            reduced = max(0.0, cost - u[start_row] - v.get(col, 0.0))
            if col not in dist or reduced < dist[col]:
                dist[col] = reduced
                parent[col] = start_row
                heappush(heap, (reduced, col))
        end_col = -1
        while heap:
            d, col = heappop(heap)
            if col in finalized or d > dist[col]:
                continue
            finalized.add(col)
            occupant = row_of.get(col)
            if occupant is None:
                end_col = col
                break
            for next_col, cost in adj[occupant]:
                if next_col in finalized:
                    continue
                reduced = d + max(
                    0.0, cost - u[occupant] - v.get(next_col, 0.0)
                )
                if next_col not in dist or reduced < dist[next_col]:
                    dist[next_col] = reduced
                    parent[next_col] = occupant
                    heappush(heap, (reduced, next_col))
        if end_col < 0:  # unreachable: the private dummy is always free
            raise AssertionError("augmenting path search exhausted")
        # Standard potential update over finalized columns.
        path_len = dist[end_col]
        for col in finalized:
            if col == end_col:
                continue
            v[col] = v.get(col, 0.0) + (dist[col] - path_len)
            occupant = row_of.get(col)
            if occupant is not None:
                u[occupant] += path_len - dist[col]
        u[start_row] += path_len
        # Augment: flip the alternating path back to ``start_row``.
        col = end_col
        while True:
            row = parent[col]
            previous_col = col_of.get(row)
            row_of[col] = row
            col_of[row] = col
            if row == start_row:
                break
            col = previous_col

    matched = [(r, c) for c, r in row_of.items() if c < n_cols]
    value = sum(weight_lookup[pair] for pair in matched)
    return AssignmentSolution(
        value, _canonical_pairs(matched, weight_lookup), "jv", seeded=seeded
    )


def _solve_dense(
    edges: dict[int, list[tuple[int, float]]],
    n_rows: int,
    n_cols: int,
    control: Budget | None,
) -> AssignmentSolution | None:
    """Dense O(n³) Hungarian fallback on a square padded cost matrix.

    Forbidden edges and dummy padding share the cost ``maxw`` (= weight 0),
    so the min-cost perfect matching on the padded square is exactly the
    max-weight matching with unmatched rows/columns allowed.
    """
    weight_lookup = {
        (row, col): w
        for row, row_edges in edges.items()
        for col, w in row_edges
    }
    n = max(n_rows, n_cols)
    maxw = max(weight_lookup.values())
    cost = [[maxw] * n for _ in range(n)]
    for (row, col), w in weight_lookup.items():
        cost[row][col] = maxw - w

    # Potentials + shortest augmenting path; column ``n`` is the virtual
    # start column and row index ``n`` marks a free column.
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match_col = [n] * (n + 1)  # match_col[j]: row matched to column j
    way = [n] * (n + 1)
    for i in range(n):
        if control is not None and not control.spend():
            return None
        match_col[n] = i
        j0 = n
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = INF
            j1 = n
            for j in range(n):
                if used[j]:
                    continue
                current = cost[i0][j] - u[i0] - v[j]
                if current < minv[j]:
                    minv[j] = current
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == n:
                break
        while j0 != n:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1

    matched = [
        (match_col[j], j)
        for j in range(n)
        if match_col[j] != n and (match_col[j], j) in weight_lookup
    ]
    value = sum(weight_lookup[pair] for pair in matched)
    return AssignmentSolution(
        value, _canonical_pairs(matched, weight_lookup), "dense"
    )


def brute_force_best_matching(
    weights: Mapping[tuple[int, int], float],
    n_rows: int,
    n_cols: int,
) -> float:
    """Reference oracle: the max-weight matching value by full enumeration.

    Exponential — intended for the differential test harness on blocks of
    ≤ ~6 rows only.
    """
    by_row: dict[int, list[tuple[int, float]]] = {}
    for (row, col), w in weights.items():
        if w > _EPS:
            by_row.setdefault(row, []).append((col, w))
    rows = sorted(by_row)

    def best_from(i: int, used: frozenset) -> float:
        if i == len(rows):
            return 0.0
        best = best_from(i + 1, used)  # leave this row unmatched
        for col, w in sorted(by_row[rows[i]]):
            if col in used:
                continue
            best = max(best, w + best_from(i + 1, used | {col}))
        return best

    return best_from(0, frozenset())


# -- candidate matrix extraction ---------------------------------------------


@dataclass(frozen=True)
class RelationBlock:
    """One relation's candidate weight matrix in canonical (id-sorted) order."""

    name: str
    left_ids: tuple[str, ...]
    right_ids: tuple[str, ...]
    weights: dict[tuple[int, int], float]

    @property
    def size(self) -> int:
        return max(len(self.left_ids), len(self.right_ids))

    def row_maxima(self) -> list[float]:
        out = [0.0] * len(self.left_ids)
        for (row, _col), w in self.weights.items():
            if w > out[row]:
                out[row] = w
        return out

    def col_maxima(self) -> list[float]:
        out = [0.0] * len(self.right_ids)
        for (_row, col), w in self.weights.items():
            if w > out[col]:
                out[col] = w
        return out


def candidate_blocks(
    left: Instance,
    right: Instance,
    lam: float,
    compatible: dict[str, list[str]] | None = None,
) -> list[RelationBlock]:
    """Per-relation sparse weight blocks over the compatible-pair matrix.

    Rows/columns are sorted by tuple id (canonical order — this is what
    makes the solver invariant under tuple shuffles), weights are
    :func:`optimistic_pair_score`.  Relations without candidate pairs
    yield empty-weight blocks.
    """
    if compatible is None:
        compatible = compatible_tuples_of_instances(left, right)
    blocks = []
    for relation in left.relations():
        name = relation.schema.name
        right_relation = right.relation(name)
        left_ids = tuple(sorted(t.tuple_id for t in relation))
        right_ids = tuple(sorted(t.tuple_id for t in right_relation))
        col_index = {right_id: j for j, right_id in enumerate(right_ids)}
        weights: dict[tuple[int, int], float] = {}
        for row, left_id in enumerate(left_ids):
            t = left.get_tuple(left_id)
            for right_id in compatible.get(left_id, ()):
                col = col_index.get(right_id)
                if col is None:  # candidate from another relation
                    continue
                weights[(row, col)] = optimistic_pair_score(
                    t, right.get_tuple(right_id), lam
                )
        blocks.append(RelationBlock(name, left_ids, right_ids, weights))
    return blocks


# -- admissible bounds --------------------------------------------------------


@dataclass(frozen=True)
class AssignmentBound:
    """The solved relaxation packaged as an admissible similarity bound.

    ``upper_bound`` is an admissible upper bound on the *true*
    (exact-optimal) similarity — and therefore on every algorithm's score —
    in ``[0, 1]``.  ``relaxation_value`` is Σ over relations of the solved
    1:1 assignment value (only meaningful when ``injective_relaxation``);
    ``per_tuple_value`` is the ``Σ rowmax + Σ colmax`` numerator bound
    valid under any options; ``per_relation`` maps relation name to its
    solved (or row-maxima fallback) value.  ``blocks`` are the candidate
    blocks the bound was built from, so a consumer (the exact search)
    reads per-pair weights and row maxima without rebuilding them.
    """

    upper_bound: float
    relaxation_value: float
    per_tuple_value: float
    injective_relaxation: bool
    per_relation: dict[str, float]
    blocks: tuple[RelationBlock, ...]


def assignment_bounds(
    left: Instance,
    right: Instance,
    options: MatchOptions | None = None,
    *,
    compatible: dict[str, list[str]] | None = None,
) -> AssignmentBound:
    """Admissible upper bound on the true similarity of ``left``/``right``.

    Fully injective options get ``min(2·relaxation, per-tuple) / denom``;
    anything weaker gets the per-tuple-maxima bound alone (a 1:1
    relaxation is unsound once a tuple may score against several
    partners).  Blocks over :data:`DEFAULT_MAX_BLOCK_SIZE` contribute
    their row-maxima sum instead of a solved value: still admissible, just
    looser.
    """
    if options is None:
        options = MatchOptions.general()
    blocks = candidate_blocks(left, right, options.lam, compatible=compatible)
    solved: dict[str, float] = {}
    if options.fully_injective:
        for block in blocks:
            if block.weights and block.size <= DEFAULT_MAX_BLOCK_SIZE:
                solved[block.name] = solve_assignment(
                    block.weights, len(block.left_ids), len(block.right_ids)
                ).value
    return _relaxation_bound(left, right, options, blocks, solved)


def _relaxation_bound(
    left: Instance,
    right: Instance,
    options: MatchOptions,
    blocks: list[RelationBlock],
    solved: Mapping[str, float],
) -> AssignmentBound:
    """Package solved block values as an :class:`AssignmentBound`.

    ``solved`` maps relation name to its block's solved 1:1 value; a block
    with candidates but no solved value contributes its row-maxima sum.
    """
    denominator = normalization_denominator(left, right)
    if denominator == 0:
        return AssignmentBound(1.0, 0.0, 0.0, True, {}, tuple(blocks))
    per_tuple = 0.0
    relaxation = 0.0
    per_relation: dict[str, float] = {}
    injective = options.fully_injective
    for block in blocks:
        row_max = block.row_maxima()
        per_tuple += sum(row_max) + sum(block.col_maxima())
        if not injective:
            continue
        if not block.weights:
            per_relation[block.name] = 0.0
            continue
        value = solved.get(block.name)
        per_relation[block.name] = sum(row_max) if value is None else value
        relaxation += per_relation[block.name]
    numerator = min(2.0 * relaxation, per_tuple) if injective else per_tuple
    return AssignmentBound(
        upper_bound=min(1.0, numerator / denominator),
        relaxation_value=relaxation,
        per_tuple_value=per_tuple,
        injective_relaxation=injective,
        per_relation=per_relation,
        blocks=tuple(blocks),
    )


# -- the ASSIGNMENT algorithm -------------------------------------------------


def _fault_outcome(error: BaseException) -> Outcome:
    """Classify a caught resource fault (see ``repro.runtime.faults``)."""
    if isinstance(error, MemoryError):
        return Outcome.OOM
    if isinstance(error, TimeoutError):
        return Outcome.KILLED
    return Outcome.CRASHED


def assignment_compare(
    left: Instance,
    right: Instance,
    options: MatchOptions | None = None,
    align_preference: bool = True,
    max_block_size: int = DEFAULT_MAX_BLOCK_SIZE,
    dense_threshold: int = DENSE_FALLBACK_SIZE,
    control: Budget | None = None,
    left_index=None,
    right_index=None,
    seed_result: ComparisonResult | None = None,
) -> ComparisonResult:
    """Greedy-seeded, optimally-completed 1:1 matching (the assignment rung).

    Runs in three phases:

    1. **greedy floor** — :func:`signature_compare` (or the supplied
       ``seed_result``, e.g. the anytime ladder's refined floor).  The
       returned score never drops below this floor.
    2. **solve** — per relation, the max-weight 1:1 assignment over the
       optimistic pair scores of the compatible-pair matrix (sparse JV;
       dense Hungarian below ``dense_threshold``; blocks larger than
       ``max_block_size`` keep the floor's pairs for that relation).
    3. **commit** — solved pairs enter a fresh match in descending-weight
       order (the documented tie-break), the greedy completion step then
       extends it where the options allow, and the better-scoring of
       {floor, solved} is returned (ties keep the floor).

    A budget trip (deadline, node cap, cancellation — including injected
    ``"budget"`` faults) during phases 2–3 **degrades to greedy**: the
    floor result is returned with the triggering outcome and
    ``stats["degraded_to_greedy"] = True``.
    """
    # Private helpers reused in place; signature.py does not import us.
    from .signature import _MatchState, _completion_step

    if options is None:
        options = MatchOptions.general()
    left.assert_comparable_with(right)
    started = time.perf_counter()
    control = resolve_control(control)

    with span("assignment.compare") as compare_span:
        # Phase 1 — greedy floor.  Like the anytime ladder's signature
        # rung it runs under a token-only budget so there is always a
        # result to degrade to; the solver phases run under ``control``.
        if seed_result is None:
            floor = signature_compare(
                left,
                right,
                options=options,
                align_preference=align_preference,
                control=Budget(
                    token=control.token,
                    check_interval=control.check_interval,
                ),
                left_index=left_index,
                right_index=right_index,
            )
        else:
            floor = seed_result
        floor_score = floor.similarity

        solved_result: ComparisonResult | None = None
        bound: AssignmentBound | None = None
        blocks_solved = 0
        blocks_skipped = 0
        seeded_rows = 0
        solvers_used: set[str] = set()
        try:
            degraded = not control.check()
        except (MemoryError, TimeoutError, InjectedFault) as error:
            degraded = True
            control.trip(_fault_outcome(error))

        if not degraded:
            try:
                blocks = candidate_blocks(left, right, options.lam)
                floor_by_relation: dict[str, list[tuple[str, str]]] = {}
                for left_id, right_id in floor.match.m:
                    name = left.get_tuple(left_id).relation.name
                    floor_by_relation.setdefault(name, []).append(
                        (left_id, right_id)
                    )
                selected: list[tuple[float, str, str]] = []
                solved: dict[str, float] = {}
                for block in blocks:
                    if not block.weights:
                        continue
                    if block.size > max_block_size:
                        # Too large under the cap: keep the greedy pairs
                        # for this relation instead of solving.
                        blocks_skipped += 1
                        for l_id, r_id in floor_by_relation.get(
                            block.name, ()
                        ):
                            selected.append(
                                (
                                    optimistic_pair_score(
                                        left.get_tuple(l_id),
                                        right.get_tuple(r_id),
                                        options.lam,
                                    ),
                                    l_id,
                                    r_id,
                                )
                            )
                        continue
                    solution = solve_assignment(
                        block.weights,
                        len(block.left_ids),
                        len(block.right_ids),
                        control=control,
                        dense_threshold=dense_threshold,
                    )
                    if solution is None:
                        degraded = True
                        break
                    blocks_solved += 1
                    solved[block.name] = solution.value
                    seeded_rows += solution.seeded
                    solvers_used.add(solution.solver)
                    for row, col, weight in solution.pairs:
                        selected.append(
                            (
                                weight,
                                block.left_ids[row],
                                block.right_ids[col],
                            )
                        )
                if not degraded:
                    # Commit in the documented tie-break order; try_add
                    # enforces injectivity and value-mapping consistency.
                    selected.sort(
                        key=lambda item: (-item[0], item[1], item[2])
                    )
                    state = _MatchState(
                        left,
                        right,
                        options,
                        align_preference=align_preference,
                        control=control,
                    )
                    for _weight, left_id, right_id in selected:
                        if not control.spend():
                            degraded = True
                            break
                        state.try_add(
                            left.get_tuple(left_id),
                            right.get_tuple(right_id),
                            policy="any",
                        )
                if not degraded:
                    # Non-injective options may extend past 1:1; the
                    # completion step also sweeps up pairs the unifier
                    # rejected above.
                    _completion_step(state)
                    if control.interrupted:
                        degraded = True
                if not degraded:
                    match = state.build_match()
                    solved_result = ComparisonResult(
                        similarity=score_match(match, lam=options.lam),
                        match=match,
                        options=options,
                        algorithm="assignment",
                    )
                    bound = _relaxation_bound(
                        left, right, options, blocks, solved
                    )
            except (MemoryError, TimeoutError, InjectedFault) as error:
                # Injected (or real) resource faults degrade to the floor
                # with a classified outcome.  InjectedCrash is a
                # BaseException and intentionally passes through.
                degraded = True
                control.trip(_fault_outcome(error))

        improved = (
            solved_result is not None
            and solved_result.similarity > floor_score
        )
        best = solved_result if improved else floor
        annotate_budget(compare_span, control)
        compare_span.set(
            blocks_solved=blocks_solved,
            blocks_skipped=blocks_skipped,
            improved=improved,
            degraded=degraded,
        )

    stats = {
        **floor.stats,
        "greedy_similarity": floor_score,
        "assignment_blocks_solved": blocks_solved,
        "assignment_blocks_skipped": blocks_skipped,
        "assignment_seeded_rows": seeded_rows,
        "assignment_solvers": ",".join(sorted(solvers_used)),
        "assignment_improved": improved,
        "degraded_to_greedy": degraded,
        "outcome": control.outcome.value,
    }
    if bound is not None:
        stats["assignment_relaxation"] = bound.relaxation_value
        stats["assignment_upper_bound"] = bound.upper_bound

    registry = active_metrics()
    if registry is not None:
        registry.counter("assignment.runs")
        registry.counter("assignment.blocks_solved", blocks_solved)
        registry.counter("assignment.improved", 1 if improved else 0)
        registry.counter(
            "assignment.outcome", 1, outcome=control.outcome.value
        )

    return ComparisonResult(
        similarity=best.similarity,
        match=best.match,
        options=options,
        algorithm="assignment",
        outcome=control.outcome,
        stats=stats,
        elapsed_seconds=time.perf_counter() - started,
    )


__all__ = [
    "AssignmentBound",
    "AssignmentSolution",
    "DEFAULT_MAX_BLOCK_SIZE",
    "DENSE_FALLBACK_SIZE",
    "RelationBlock",
    "assignment_bounds",
    "assignment_compare",
    "brute_force_best_matching",
    "candidate_blocks",
    "solve_assignment",
]
