"""The exact instance-comparison algorithm (paper Alg. 1).

The exact algorithm solves the optimization problem of Def. 3.2: among all
complete instance matches (subject to the requested injectivity constraints)
find one maximizing ``score(M)``.

Step 1 finds compatible tuple pairs with the hash-based
:func:`repro.algorithms.compatibility.compatible_tuples` index.  Step 2
searches the combinations:

* **functional search** (left-injective options): depth-first over left
  tuples, assigning each either one compatible right tuple or "unmatched".
  Because the score of a subset may beat the score of a superset (matching a
  tuple can force value-mapping merges that penalize other pairs), the
  "unmatched" branch is always explored — this realizes the paper's
  observation that all non-total sub-mappings must be considered.
* **non-functional search** (general options): depth-first include/exclude
  over the whole list of compatible pairs — the powerset construction of
  Alg. 1 lines 3–5.

Candidate mappings are kept consistent incrementally with a snapshotting
:class:`~repro.algorithms.unifier.Unifier` (the ``FindCompleteInstanceMatch``
check).  Two admissible upper bounds prune hopeless subtrees: a per-pair
arity bound and the solved assignment relaxation
(:func:`repro.algorithms.assignment.assignment_bounds`).  A tighter
admissible bound cuts only subtrees holding no strictly better leaf and
leaves the search order alone, so it changes node counts, never the
answer of a completed search.

The search is exponential — Theorem 5.11 shows the problem is NP-hard — so
it runs under a :class:`~repro.runtime.Budget` combining a node cap, an
optional wall-clock deadline, and cooperative cancellation; when any limit
trips, the result carries the triggering :class:`~repro.runtime.Outcome`
and the score is a lower bound.
"""

from __future__ import annotations

import time

from ..core.errors import UnificationConflict
from ..core.instance import Instance
from ..core.tuples import Tuple
from ..mappings.constraints import MatchOptions
from ..mappings.instance_match import InstanceMatch
from ..mappings.tuple_mapping import TupleMapping
from ..obs.metrics import active_metrics
from ..obs.profile import active_profiler
from ..obs.trace import annotate_budget, span
from ..runtime.budget import Budget, resolve_control
from ..runtime.cancellation import CancellationToken
from ..runtime.outcome import Outcome
from ..scoring.match_score import score_committed_pairs
from .assignment import assignment_bounds
from .pair import PreparedPair
from .result import ComparisonResult
from .unifier import Unifier

DEFAULT_NODE_BUDGET = 2_000_000
"""Default cap on search nodes before the exact search gives up."""


class _ExactSearch:
    """Shared state of the exact depth-first search."""

    def __init__(
        self, pair: PreparedPair, control: Budget, prune: bool = True
    ) -> None:
        self.left = pair.left
        self.right = pair.right
        self.options = pair.options
        self.control = control
        self.prune = prune
        self.denominator = pair.denominator
        self.unifier = pair.unifier()
        self.current_pairs: list[tuple[str, str]] = []
        # Σ 2 · arity over current_pairs, kept where they are pushed and
        # popped, and the largest arity present: the pair bound's terms.
        self.committed_arity = 0
        self.max_arity = max(
            (rel.arity for rel in self.left.schema), default=0
        )
        self.best_score = -1.0
        self.best_pairs: list[tuple[str, str]] = []
        self.compatible = pair.compatible
        self.right_use_count: dict[str, int] = {}
        # Pruning runs the solved assignment relaxation beside the pair
        # bound: one polynomial solve against an exponential search.
        self.relaxation = (
            assignment_bounds(self.left, self.right, pair=pair)
            if prune
            else None
        )
        self.opt_weight: dict[tuple[str, str], float] = {}
        self.committed_opt = 0.0
        self.suffix_row_max: list[float] = []
        self.col_total = 0.0

    def _evaluate_leaf(self) -> None:
        """Score the current candidate tuple mapping and update the best."""
        score = score_committed_pairs(
            self.left, self.right, self.current_pairs,
            self.unifier.side_counts, self.options.lam,
        ).score
        if score > self.best_score:
            self.best_score = score
            self.best_pairs = list(self.current_pairs)

    def _pair_bound(self, pair_count_bound: int) -> float:
        """Optimistic score bound for a completion with ≤ ``pair_count_bound``
        additional high-value pairs.

        Each matched pair (t, t') can contribute at most ``arity`` to the
        score of ``t`` plus ``arity`` to the score of ``t'``; image averaging
        and ⊓ penalties only lower that.
        """
        if self.denominator == 0:
            return 1.0
        # Upper-bound the remaining pairs with the largest arity present.
        return (
            self.committed_arity + 2 * self.max_arity * pair_count_bound
        ) / self.denominator

    def _assignment_bound(self, suffix_index: int | None) -> float:
        """Admissible score bound from the solved assignment relaxation.

        In the functional search ``suffix_index`` points into the
        suffix-row-maxima array (the optimistic weight still reachable by
        the unassigned left tuples); in the powerset search it is ``None``
        and the relaxation's global bound applies.  Fully injective options
        additionally cap the total at the solved 1:1 relaxation value.
        """
        bound = self.relaxation
        if suffix_index is None or self.denominator == 0:
            return bound.upper_bound
        total = self.committed_opt + self.suffix_row_max[suffix_index]
        if bound.injective_relaxation:
            numerator = 2.0 * min(bound.relaxation_value, total)
        else:
            numerator = total + self.col_total
        return numerator / self.denominator

    # -- functional (left-injective) search ------------------------------------

    def run_functional(self) -> None:
        """DFS assigning each left tuple one right tuple or "unmatched"."""
        left_tuples = sorted(
            self.left.tuples(),
            key=lambda t: (len(self.compatible.get(t.tuple_id, [])), t.tuple_id),
        )
        if self.relaxation is not None:
            row_max: dict[str, float] = {}
            for block in self.relaxation.blocks:
                for (i, j), weight in block.weights.items():
                    pair = (block.left_ids[i], block.right_ids[j])
                    self.opt_weight[pair] = weight
                row_max.update(zip(block.left_ids, block.row_maxima()))
                self.col_total += sum(block.col_maxima())
            # suffix_row_max[i] = Σ_{j ≥ i} rowmax(left_tuples[j]): the most
            # the still-unassigned left tuples can contribute.
            suffix = [0.0] * (len(left_tuples) + 1)
            for i in range(len(left_tuples) - 1, -1, -1):
                suffix[i] = suffix[i + 1] + row_max[left_tuples[i].tuple_id]
            self.suffix_row_max = suffix
        self._functional_dfs(left_tuples, 0)

    def _functional_dfs(self, left_tuples: list[Tuple], index: int) -> None:
        if not self.control.spend():
            return
        if index == len(left_tuples):
            self._evaluate_leaf()
            return
        remaining = len(left_tuples) - index
        if self.prune and (
            self._pair_bound(remaining) <= self.best_score
            or self._assignment_bound(index) <= self.best_score
        ):
            return
        t = left_tuples[index]
        for right_id in self.compatible.get(t.tuple_id, []):
            if (
                self.options.right_injective
                and self.right_use_count.get(right_id, 0) > 0
            ):
                continue
            t_prime = self.right.get_tuple(right_id)
            token = self.unifier.snapshot()
            if not _unify_quietly(self.unifier, t, t_prime):
                self.unifier.rollback(token)
                continue
            self.current_pairs.append((t.tuple_id, right_id))
            self.committed_arity += 2 * t.relation.arity
            self.right_use_count[right_id] = (
                self.right_use_count.get(right_id, 0) + 1
            )
            pair_opt = self.opt_weight.get((t.tuple_id, right_id), 0.0)
            self.committed_opt += pair_opt
            self._functional_dfs(left_tuples, index + 1)
            self.committed_opt -= pair_opt
            self.right_use_count[right_id] -= 1
            self.committed_arity -= 2 * t.relation.arity
            self.current_pairs.pop()
            self.unifier.rollback(token)
            if self.control.interrupted:
                return
        # "Unmatched" branch: subsets may score higher than supersets.
        self._functional_dfs(left_tuples, index + 1)

    # -- non-functional (general) search ------------------------------------

    def run_non_functional(self) -> None:
        """DFS including/excluding every compatible pair (powerset search)."""
        pairs = [
            (left_id, right_id)
            for left_id, right_ids in sorted(self.compatible.items())
            for right_id in right_ids
        ]
        self._powerset_dfs(pairs, 0)

    def _powerset_dfs(self, pairs: list[tuple[str, str]], index: int) -> None:
        if not self.control.spend():
            return
        if index == len(pairs):
            self._evaluate_leaf()
            return
        if self.prune and (
            self._pair_bound(len(pairs) - index) <= self.best_score
            or self._assignment_bound(None) <= self.best_score
        ):
            return
        left_id, right_id = pairs[index]
        t = self.left.get_tuple(left_id)
        t_prime = self.right.get_tuple(right_id)
        allowed = not (
            self.options.right_injective
            and self.right_use_count.get(right_id, 0) > 0
        )
        if allowed:
            token = self.unifier.snapshot()
            if _unify_quietly(self.unifier, t, t_prime):
                self.current_pairs.append((left_id, right_id))
                self.committed_arity += 2 * t.relation.arity
                self.right_use_count[right_id] = (
                    self.right_use_count.get(right_id, 0) + 1
                )
                self._powerset_dfs(pairs, index + 1)
                self.right_use_count[right_id] -= 1
                self.committed_arity -= 2 * t.relation.arity
                self.current_pairs.pop()
            self.unifier.rollback(token)
            if self.control.interrupted:
                return
        self._powerset_dfs(pairs, index + 1)


def _unify_quietly(unifier: Unifier, t: Tuple, t_prime: Tuple) -> bool:
    """Unify the pair cell-wise inside the caller's snapshot; True on success."""
    try:
        for left_value, right_value in zip(t.values, t_prime.values):
            unifier.unify(left_value, right_value)
    except UnificationConflict:  # caller rolls back
        return False
    return True


def exact_compare(
    left: Instance,
    right: Instance,
    options: MatchOptions | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    prune: bool = True,
    deadline: float | None = None,
    token: CancellationToken | None = None,
    control: Budget | None = None,
    pair: PreparedPair | None = None,
) -> ComparisonResult:
    """Run the exact algorithm (Alg. 1) and return the best instance match.

    Parameters
    ----------
    left, right:
        The instances to compare.  They must satisfy the comparison
        preconditions (shared schema, disjoint ids and nulls) — use
        :func:`repro.core.instance.prepare_for_comparison` if they may not.
    options:
        Match constraints and λ; defaults to the fully general setting.
    node_budget:
        Cap on explored search nodes; must be positive (``ValueError``
        otherwise) or ``None`` for unlimited.  On overrun the result
        carries ``outcome=BUDGET_EXHAUSTED`` and the best score found so
        far (a lower bound).
    prune:
        Enable the branch-and-bound pruning: the per-pair arity bound and
        the solved assignment relaxation
        (:func:`repro.algorithms.assignment.assignment_bounds`, one solve
        per search).  Both are admissible, so pruning never changes a
        completed search's answer; disable it only for the ablation
        benchmark or as the reference oracle in tests.
    deadline:
        Optional wall-clock allowance in seconds for this search.
    token:
        Optional :class:`~repro.runtime.CancellationToken`.
    control:
        A pre-built :class:`~repro.runtime.Budget` governing this search
        (e.g. shared across an anytime ladder).  When given, it supersedes
        ``node_budget`` / ``deadline`` / ``token``.
    pair:
        The :class:`~repro.algorithms.pair.PreparedPair` of ``left`` and
        ``right`` (its compatibility map, blocks, nulls and denominator);
        built here when omitted.

    Examples
    --------
    >>> from repro.core.instance import Instance
    >>> I = Instance.from_rows("R", ("A",), [("x",)], id_prefix="l")
    >>> J = Instance.from_rows("R", ("A",), [("x",)], id_prefix="r")
    >>> exact_compare(I, J).similarity
    1.0
    """
    pair = PreparedPair.of(pair, left, right, options)
    options = pair.options
    started = time.perf_counter()
    control = resolve_control(
        control, node_limit=node_budget, deadline=deadline, token=token
    )
    nodes_before = control.nodes
    search = _ExactSearch(pair, control, prune=prune)
    with span(
        "exact.search", functional=options.functional, prune=prune
    ) as search_span:
        if control.check():
            try:
                if options.functional:
                    search.run_functional()
                else:
                    search.run_non_functional()
            except RecursionError:
                # A blown stack on a very deep search is a structured CRASHED
                # outcome, not an escaping RecursionError: the best match found
                # before the crash still scores as a lower bound.
                control.trip(Outcome.CRASHED)
        annotate_budget(search_span, control)

    # Rebuild the winning match (the search unifier has been rolled back).
    final_unifier = pair.unifier()
    for left_id, right_id in search.best_pairs:
        final_unifier.unify_tuples(
            left.get_tuple(left_id), right.get_tuple(right_id)
        )
    score = score_committed_pairs(
        left, right, search.best_pairs, final_unifier.side_counts,
        options.lam,
    ).score
    h_l, h_r = final_unifier.to_value_mappings()
    match = InstanceMatch(
        left, right, h_l, h_r, TupleMapping(search.best_pairs)
    )
    candidate_pairs = sum(len(v) for v in search.compatible.values())
    nodes_spent = control.nodes - nodes_before
    registry = active_metrics()
    if registry is not None:
        registry.counter("exact.searches")
        registry.counter("exact.nodes", nodes_spent)
        registry.counter("exact.candidate_pairs", candidate_pairs)
        registry.counter("exact.outcome", 1, outcome=control.outcome.value)
        registry.observe("exact.nodes_per_search", nodes_spent)
    profiler = active_profiler()
    if profiler is not None:
        for left_id in sorted(search.compatible):
            profiler.observe(
                "exact.fanout", len(search.compatible[left_id]), left_id
            )
    return ComparisonResult(
        similarity=score,
        match=match,
        options=options,
        algorithm="exact",
        outcome=control.outcome,
        stats={
            "nodes_explored": nodes_spent,
            "candidate_pairs": candidate_pairs,
            "node_budget": control.node_limit,
            "assignment_bound": search.relaxation is not None,
            "outcome": control.outcome.value,
        },
        elapsed_seconds=time.perf_counter() - started,
    )
