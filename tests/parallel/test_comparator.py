"""The Comparator session object (repro.comparator)."""

import pytest

import repro
from repro import Algorithm, Comparator, ExactOptions, Instance, LabeledNull
from repro.mappings.constraints import MatchOptions
from repro.parallel import SignatureCache


def instance(rows):
    return Instance.from_rows("R", ("A", "B"), list(rows))


@pytest.fixture()
def pair():
    N1 = LabeledNull("N1")
    return (
        instance([("a", 1), ("b", 2)]),
        instance([("a", 1), ("b", N1)]),
    )


class TestComparator:
    def test_compare_uses_the_configured_algorithm(self, pair):
        comparator = Comparator(algorithm=Algorithm.EXACT)
        result = comparator.compare(*pair)
        assert result.algorithm == "exact"
        # b↦N1 maps a constant onto a null: the λ=0.5 penalty on one of
        # the four cells gives 1 - 0.5/4.
        assert result.similarity == pytest.approx(0.875)

    def test_typed_options_carry_knobs(self, pair):
        comparator = Comparator(algorithm=ExactOptions(node_budget=1))
        assert not comparator.compare(*pair).outcome.is_complete

    def test_match_options_apply_to_every_comparison(self, pair):
        strict = Comparator(options=MatchOptions.versioning())
        result = strict.compare(*pair)
        assert result.options.describe() == (
            MatchOptions.versioning().describe()
        )

    def test_cache_persists_across_calls(self, pair):
        comparator = Comparator()
        comparator.compare(*pair)
        misses = comparator.cache.misses
        comparator.compare(*pair)
        assert comparator.cache.misses == misses
        assert comparator.cache.hits >= 2

    def test_repeat_comparisons_are_stable(self, pair):
        comparator = Comparator(algorithm=Algorithm.EXACT)
        first = comparator.compare(*pair)
        second = comparator.compare(*pair)
        assert first.similarity == second.similarity

    def test_compare_many_in_input_order(self, pair):
        left, right = pair
        far = instance([("x", 8), ("y", 9)])
        comparator = Comparator(algorithm=Algorithm.EXACT)
        results = comparator.compare_many([(left, right), (left, far)])
        assert results[0].similarity > results[1].similarity

    def test_compare_many_jobs_override(self, pair):
        comparator = Comparator(algorithm=Algorithm.EXACT, jobs=1)
        serial = comparator.compare_many([pair])
        parallel = comparator.compare_many([pair], jobs=2)
        assert serial[0].similarity == parallel[0].similarity

    def test_shared_cache_between_sessions(self, pair):
        cache = SignatureCache()
        Comparator(cache=cache).compare(*pair)
        other = Comparator(cache=cache)
        other.compare(*pair)
        assert cache.hits >= 2

    def test_cache_stats_shape(self, pair):
        comparator = Comparator()
        comparator.compare(*pair)
        stats = comparator.cache_stats()
        assert set(stats) == {
            "entries", "hits", "misses", "evictions", "hit_rate",
        }

    def test_legacy_string_algorithm_raises(self):
        with pytest.raises(TypeError, match=r"Algorithm\('exact'\)"):
            Comparator(algorithm="exact")
        comparator = Comparator(algorithm=Algorithm("exact"))
        assert comparator.spec.algorithm is Algorithm.EXACT

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            Comparator(jobs=0)

    def test_repr_mentions_algorithm_and_cache(self, pair):
        comparator = Comparator(algorithm=Algorithm.EXACT)
        comparator.compare(*pair)
        text = repr(comparator)
        assert "exact" in text and "hits" in text

    def test_exported_from_the_package_root(self):
        assert repro.Comparator is Comparator
