"""Tests for the banded LSH candidate-generation layer."""

import pytest

from repro.core.instance import Instance
from repro.index.lsh import LSHIndex
from repro.index.sketch import IndexParams, InstanceSketch

PARAMS = IndexParams(num_perms=16, bands=8, rows=2)


def sketch_of(rows, relation="R", attrs=("A", "B")):
    return InstanceSketch.build(
        Instance.from_rows(relation, attrs, rows), PARAMS
    )


@pytest.fixture
def trio():
    base = sketch_of([("x", 1), ("y", 2), ("z", 3)])
    near = sketch_of([("x", 1), ("y", 2), ("q", 9)])
    far = sketch_of([("p", 7), ("q", 8), ("r", 9)])
    return base, near, far


class TestMembership:
    def test_add_and_len(self, trio):
        base, near, far = trio
        lsh = LSHIndex(PARAMS)
        lsh.add("base", base.minhash)
        lsh.add("near", near.minhash)
        assert len(lsh) == 2
        assert "base" in lsh and "far" not in lsh

    def test_duplicate_add_rejected(self, trio):
        base, _, _ = trio
        lsh = LSHIndex(PARAMS)
        lsh.add("base", base.minhash)
        with pytest.raises(ValueError, match="already"):
            lsh.add("base", base.minhash)

    def test_remove(self, trio):
        base, _, _ = trio
        lsh = LSHIndex(PARAMS)
        lsh.add("base", base.minhash)
        lsh.remove("base")
        assert len(lsh) == 0
        assert lsh.candidates(base.minhash) == set()
        assert lsh.bucket_stats()["buckets"] == 0  # empty buckets pruned

    def test_remove_unknown_rejected(self):
        with pytest.raises(KeyError, match="not in the LSH index"):
            LSHIndex(PARAMS).remove("ghost")

    def test_short_signature_rejected(self):
        lsh = LSHIndex(PARAMS)
        with pytest.raises(ValueError, match="too short"):
            lsh.add("x", (1, 2, 3))


class TestCandidates:
    def test_identical_sketch_is_always_a_candidate(self, trio):
        base, near, far = trio
        lsh = LSHIndex(PARAMS)
        lsh.add("base", base.minhash)
        lsh.add("near", near.minhash)
        lsh.add("far", far.minhash)
        assert "base" in lsh.candidates(base.minhash)

    def test_disjoint_tables_do_not_collide(self, trio):
        base, _, far = trio
        lsh = LSHIndex(PARAMS)
        lsh.add("far", far.minhash)
        assert "far" not in lsh.candidates(base.minhash)

    def test_candidate_pairs_sorted_and_deduplicated(self, trio):
        base, near, _ = trio
        lsh = LSHIndex(PARAMS)
        lsh.add("b", base.minhash)
        lsh.add("a", base.minhash)  # identical signature: collides everywhere
        lsh.add("n", near.minhash)
        pairs = lsh.candidate_pairs()
        assert ("a", "b") in pairs
        assert pairs == sorted(set(pairs))

    def test_stats(self, trio):
        base, _, _ = trio
        lsh = LSHIndex(PARAMS)
        lsh.add("a", base.minhash)
        stats = lsh.bucket_stats()
        assert stats["members"] == 1
        assert stats["bands"] == PARAMS.bands
        assert stats["buckets"] == PARAMS.bands
        assert stats["largest_bucket"] == 1
