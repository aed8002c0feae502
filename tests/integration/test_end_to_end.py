"""Cross-module integration tests: full pipelines through the public API."""

import pytest

from repro import (
    Algorithm,
    ExactOptions,
    Instance,
    LabeledNull,
    MatchOptions,
    compare,
    prepare_for_comparison,
    similarity,
)


class TestPublicAPI:
    def test_compare_prepares_automatically(self):
        # Same tuple ids and same null labels on both sides: compare()
        # must make them disjoint without changing semantics.
        left = Instance.from_rows(
            "R", ("A",), [(LabeledNull("N1"),)], name="L"
        )
        right = Instance.from_rows(
            "R", ("A",), [(LabeledNull("N1"),)], name="R"
        )
        assert compare(left, right).similarity == pytest.approx(1.0)

    def test_similarity_shortcut(self):
        left = Instance.from_rows("R", ("A",), [("x",)], id_prefix="l")
        right = Instance.from_rows("R", ("A",), [("x",)], id_prefix="r")
        assert similarity(left, right) == 1.0

    def test_unknown_algorithm_rejected(self):
        left = Instance.from_rows("R", ("A",), [("x",)], id_prefix="l")
        right = Instance.from_rows("R", ("A",), [("x",)], id_prefix="r")
        with pytest.raises(ValueError, match="not a valid Algorithm"):
            compare(left, right, algorithm=Algorithm("quantum"))

    def test_all_algorithms_agree_on_ground_identical(self):
        left = Instance.from_rows(
            "R", ("A", "B"), [("x", 1), ("y", 2)], id_prefix="l"
        )
        right = Instance.from_rows(
            "R", ("A", "B"), [("y", 2), ("x", 1)], id_prefix="r"
        )
        options = MatchOptions.versioning()
        for algorithm in (
            Algorithm.SIGNATURE, Algorithm.EXACT,
            Algorithm.GROUND, Algorithm.PARTIAL,
        ):
            assert compare(
                left, right, algorithm=algorithm, options=options
            ).similarity == pytest.approx(1.0), algorithm

    def test_kwargs_forwarded(self):
        left = Instance.from_rows("R", ("A",), [("x",)], id_prefix="l")
        right = Instance.from_rows("R", ("A",), [("x",)], id_prefix="r")
        result = compare(left, right, algorithm=ExactOptions(node_budget=10))
        assert result.stats["node_budget"] == 10


class TestRoundTripPipelines:
    def test_csv_to_comparison(self, tmp_path):
        """CSV in, comparison out — the data-repair evaluation pipeline."""
        import io

        from repro.io_.csvio import instance_to_csv_text, read_csv

        gold_text = "Name,Org\nVLDB,VLDB End.\nSIGMOD,ACM\n"
        repaired_text = "Name,Org\nVLDB,_N:V1\nSIGMOD,ACM\n"
        gold = read_csv(io.StringIO(gold_text), name="gold")
        repaired = read_csv(io.StringIO(repaired_text), name="repaired")
        result = compare(
            repaired, gold, options=MatchOptions.data_repair()
        )
        # One null approximating a constant: (3 + λ) / 4 per side.
        assert result.similarity == pytest.approx((3 + 0.5) / 4)
        # and serialize back out
        assert "_N:" in instance_to_csv_text(repaired)

    def test_perturb_compare_serialize(self):
        from repro.datagen.perturb import PerturbationConfig, perturb
        from repro.datagen.synthetic import generate_dataset
        from repro.io_.serialization import result_to_dict

        scenario = perturb(
            generate_dataset("iris", rows=60, seed=0),
            PerturbationConfig.mod_cell(5.0, seed=1),
        )
        result = compare(
            scenario.source, scenario.target,
            options=MatchOptions.versioning(), prepare=False,
        )
        payload = result_to_dict(result)
        assert payload["similarity"] == pytest.approx(result.similarity)
        assert len(payload["match"]["pairs"]) == len(result.match.m)


class TestThreeColorabilityGadget:
    """The Theorem 5.11 reduction, end to end (see examples/)."""

    def _graph(self, edges, name):
        nulls = {
            v: LabeledNull(f"{name}_{v}") for edge in edges for v in edge
        }
        return Instance.from_rows(
            "Edge", ("From", "To"),
            [(nulls[u], nulls[v]) for u, v in edges],
            name=name, id_prefix=f"{name}e",
        )

    def _colors(self):
        colors = ("r", "g", "b")
        return Instance.from_rows(
            "Edge", ("From", "To"),
            [(a, b) for a in colors for b in colors if a != b],
            name="colors", id_prefix="c",
        )

    def _symmetric(self, pairs):
        return [p for u, v in pairs for p in ((u, v), (v, u))]

    def test_triangle_is_colorable(self):
        from repro.homomorphism.homomorphism import find_homomorphism

        triangle = self._graph(
            self._symmetric([("a", "b"), ("b", "c"), ("a", "c")]), "K3"
        )
        h = find_homomorphism(triangle, self._colors())
        assert h is not None
        # the witness is a proper coloring
        coloring = {null: color for null, color in h.items()}
        for t in triangle.tuples():
            assert coloring[t["From"]] != coloring[t["To"]]

    def test_k4_is_not_colorable(self):
        from itertools import combinations

        from repro.homomorphism.homomorphism import has_homomorphism

        k4 = self._graph(
            self._symmetric(list(combinations("abcd", 2))), "K4"
        )
        assert not has_homomorphism(k4, self._colors())

    def test_colorability_reflected_in_match_coverage(self):
        """With exact search, K3's edge tuples are all matched; K4's not."""
        from itertools import combinations

        from repro.algorithms.exact import exact_compare

        colors = self._colors()
        triangle = self._graph(
            self._symmetric([("a", "b"), ("b", "c"), ("a", "c")]), "T"
        )
        result = exact_compare(
            triangle, colors, MatchOptions.record_merging(lam=0.9)
        )
        assert result.exhausted
        assert not result.match.unmatched_left()

        k4 = self._graph(
            self._symmetric(list(combinations("abcd", 2))), "Q"
        )
        result = exact_compare(
            k4, colors, MatchOptions.record_merging(lam=0.9),
            node_budget=5_000_000,
        )
        if result.exhausted:
            assert result.match.unmatched_left()
