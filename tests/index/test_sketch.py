"""Tests for per-instance sketches and the admissible similarity bound."""

import hashlib
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import FormatError
from repro.core.instance import Instance, prepare_for_comparison
from repro.core.values import LabeledNull
from repro.algorithms.signature import signature_compare
from repro.datagen.perturb import PerturbationConfig, perturb
from repro.datagen.synthetic import generate_dataset
from repro.datagen.tpch import generate_tpch
from repro.index import sketch as sketch_module
from repro.index.sketch import (
    _MERSENNE_PRIME,
    IndexParams,
    InstanceSketch,
    _constant_token,
    _minhash,
    _minhash_numpy,
    comparable,
    estimated_jaccard,
    similarity_upper_bound,
    sketch_from_dict,
    sketch_to_dict,
    stable_hash64,
)
from repro.index.wal import encode_payload
from repro.mappings.constraints import MatchOptions

PARAMS = IndexParams(num_perms=32, bands=8, rows=4)


def simple(rows, relation="R", attrs=("A", "B"), name="I"):
    return Instance.from_rows(relation, attrs, rows, name=name)


def true_similarity(left, right, options):
    left, right = prepare_for_comparison(left, right)
    return signature_compare(left, right, options).similarity


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("hello") == stable_hash64("hello")

    def test_distinct_inputs(self):
        assert stable_hash64("a") != stable_hash64("b")

    def test_64_bit_range(self):
        assert 0 <= stable_hash64("x") < 2**64


class TestIndexParams:
    def test_defaults_valid(self):
        params = IndexParams()
        assert params.bands * params.rows <= params.num_perms

    def test_bands_times_rows_must_fit(self):
        with pytest.raises(ValueError, match="exceeds"):
            IndexParams(num_perms=8, bands=4, rows=4)

    @pytest.mark.parametrize("field", ["num_perms", "bands", "rows"])
    def test_positive_required(self, field):
        with pytest.raises(ValueError):
            IndexParams(**{field: 0})

    def test_coefficients_deterministic(self):
        assert IndexParams(seed=7).coefficients() == IndexParams(
            seed=7
        ).coefficients()
        assert IndexParams(seed=7).coefficients() != IndexParams(
            seed=8
        ).coefficients()

    def test_roundtrip(self):
        params = IndexParams(num_perms=16, bands=4, rows=2, seed=3)
        assert IndexParams.from_dict(params.as_dict()) == params

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(FormatError):
            IndexParams.from_dict({"num_perms": "many"})


class TestSketchBuild:
    def test_null_label_invariance(self):
        """Renaming null labels must not change the sketch at all."""
        a = simple([("x", LabeledNull("N1")), (LabeledNull("N2"), "y")])
        b = simple([("x", LabeledNull("Z9")), (LabeledNull("Q0"), "y")])
        sa = InstanceSketch.build(a, PARAMS)
        sb = InstanceSketch.build(b, PARAMS)
        assert sa.fingerprint == sb.fingerprint
        assert sa.minhash == sb.minhash
        assert sa.relations == sb.relations

    def test_row_order_invariance(self):
        a = simple([("x", 1), ("y", 2)])
        b = simple([("y", 2), ("x", 1)])
        sa = InstanceSketch.build(a, PARAMS)
        sb = InstanceSketch.build(b, PARAMS)
        assert sa.minhash == sb.minhash
        assert sa.relations == sb.relations

    def test_duplicate_rows_change_the_sketch(self):
        """Multiset semantics: a duplicated row is a different instance."""
        once = InstanceSketch.build(simple([("x", 1)]), PARAMS)
        twice = InstanceSketch.build(simple([("x", 1), ("x", 1)]), PARAMS)
        assert once.minhash != twice.minhash
        assert once.token_count == 2
        assert twice.token_count == 4

    def test_column_counts(self):
        sketch = InstanceSketch.build(
            simple([("x", LabeledNull("N")), ("x", 2)]), PARAMS
        )
        column_a = sketch.relations["R"].columns["A"]
        column_b = sketch.relations["R"].columns["B"]
        assert column_a.constant_count == 2
        assert column_a.null_count == 0
        assert list(column_a.constants.values()) == [2]
        assert column_b.constant_count == 1
        assert column_b.null_count == 1

    def test_empty_instance(self):
        sketch = InstanceSketch.build(simple([]), PARAMS)
        assert sketch.token_count == 0
        assert all(s == sketch.minhash[0] for s in sketch.minhash)

    def test_typed_constants_distinct(self):
        """1 (int) and "1" (str) must sketch as different constants."""
        ints = InstanceSketch.build(simple([(1, 1)]), PARAMS)
        strs = InstanceSketch.build(simple([("1", "1")]), PARAMS)
        assert ints.minhash != strs.minhash


class TestConstantSpelling:
    """The matcher compares cells with ``==``, so equal numbers spell alike."""

    @pytest.mark.parametrize(
        "value, spelling",
        [
            ("1", "str:'1'"),
            (7, "int:7"),
            (2.5, "float:2.5"),
            (True, "int:1"),
            (1.0, "int:1"),
            (Decimal("1"), "int:1"),
            (-0.0, "int:0"),
            (Fraction(1, 2), "float:0.5"),
            (Decimal("0.5"), "float:0.5"),
            (Decimal("0.1"), "Fraction:1/10"),
            (Decimal("Infinity"), "float:inf"),
            (complex(3, 0), "int:3"),
            (None, "NoneType:None"),
        ],
    )
    def test_spelling(self, value, spelling):
        assert _constant_token(value) == spelling


class TestJaccard:
    def test_identical(self):
        sketch = InstanceSketch.build(simple([("x", 1), ("y", 2)]), PARAMS)
        assert estimated_jaccard(sketch, sketch) == 1.0

    def test_disjoint_low(self):
        a = InstanceSketch.build(simple([("x", 1), ("y", 2)]), PARAMS)
        b = InstanceSketch.build(simple([("p", 7), ("q", 8)]), PARAMS)
        assert estimated_jaccard(a, b) < 0.5

    def test_length_mismatch_rejected(self):
        a = InstanceSketch.build(simple([("x", 1)]), PARAMS)
        b = InstanceSketch.build(
            simple([("x", 1)]), IndexParams(num_perms=16, bands=8, rows=2)
        )
        with pytest.raises(ValueError, match="num_perms"):
            estimated_jaccard(a, b)


class TestUpperBound:
    @pytest.mark.parametrize(
        "options",
        [MatchOptions.versioning(), MatchOptions.general()],
        ids=["versioning", "general"],
    )
    def test_identical_instances_bound_one(self, options):
        sketch = InstanceSketch.build(simple([("x", 1), ("y", 2)]), PARAMS)
        assert similarity_upper_bound(sketch, sketch, options) == 1.0

    def test_incomparable_bound_zero(self):
        a = InstanceSketch.build(simple([("x", 1)]), PARAMS)
        b = InstanceSketch.build(
            simple([("x", 1)], relation="Other"), PARAMS
        )
        assert not comparable(a, b)
        assert similarity_upper_bound(
            a, b, MatchOptions.versioning()
        ) == 0.0

    def test_both_empty_bound_one(self):
        a = InstanceSketch.build(simple([]), PARAMS)
        assert similarity_upper_bound(a, a, MatchOptions.versioning()) == 1.0

    def test_one_empty_bound_zero(self):
        a = InstanceSketch.build(simple([]), PARAMS)
        b = InstanceSketch.build(simple([("x", 1)]), PARAMS)
        assert similarity_upper_bound(a, b, MatchOptions.versioning()) == 0.0

    @pytest.mark.parametrize(
        "options",
        [MatchOptions.versioning(), MatchOptions.general()],
        ids=["versioning", "general"],
    )
    def test_bound_dominates_truth_on_overlap(self, options):
        left = simple([("x", 1), ("y", 2), ("z", 3)])
        right = simple([("x", 1), ("y", 9), (LabeledNull("N"), 3)])
        bound = similarity_upper_bound(
            InstanceSketch.build(left, PARAMS),
            InstanceSketch.build(right, PARAMS),
            options,
        )
        assert bound >= true_similarity(left, right, options)

    def test_bound_dominates_truth_across_schema_drift(self):
        """Bound must be computed on the Sec. 4.3 aligned (padded) schema."""
        from repro.versioning.operations import align_schemas

        options = MatchOptions.versioning()
        left = simple([("x", 1), ("y", 2)])
        right = simple([("x",), ("y",)], attrs=("A",))
        bound = similarity_upper_bound(
            InstanceSketch.build(left, PARAMS),
            InstanceSketch.build(right, PARAMS),
            options,
        )
        aligned_left, aligned_right = align_schemas(left, right)
        truth = true_similarity(aligned_left, aligned_right, options)
        assert bound >= truth
        assert truth > 0.5  # padding bridges the drift, so this is a match

    def test_disjoint_constants_bound_below_one(self):
        """The injective bound must separate dissimilar tables."""
        options = MatchOptions.versioning()
        left = simple([("x", 1), ("y", 2), ("z", 3)])
        right = simple([("p", 7), ("q", 8), ("r", 9)])
        bound = similarity_upper_bound(
            InstanceSketch.build(left, PARAMS),
            InstanceSketch.build(right, PARAMS),
            options,
        )
        assert bound <= options.lam
        assert bound >= true_similarity(left, right, options)

    def test_tuple_count_cap(self):
        """A tiny table cannot bound-match a huge one at 1.0 (injective cap)."""
        options = MatchOptions.versioning()
        small = simple([("x", 1)])
        big = simple([("x", 1)] * 10)
        bound = similarity_upper_bound(
            InstanceSketch.build(small, PARAMS),
            InstanceSketch.build(big, PARAMS),
            options,
        )
        # at most one tuple on each side can participate: 2*2 cells of 22
        assert bound <= 4 / 22 + 1e-9
        assert bound >= true_similarity(small, big, options)


class TestSerialization:
    def test_roundtrip(self):
        sketch = InstanceSketch.build(
            simple([("x", LabeledNull("N1")), ("y", 2)]), PARAMS
        )
        assert sketch_from_dict(sketch_to_dict(sketch)) == sketch

    def test_payload_is_json_safe(self):
        import json

        sketch = InstanceSketch.build(simple([("x", 1)]), PARAMS)
        text = json.dumps(sketch_to_dict(sketch), sort_keys=True)
        assert sketch_from_dict(json.loads(text)) == sketch

    def test_malformed_payload_rejected(self):
        with pytest.raises(FormatError, match="sketch payload"):
            sketch_from_dict({"fingerprint": "x"})


# SHA-256 of the canonical bytes (:func:`repro.index.wal.encode_payload`)
# of ``sketch_to_dict`` under the default params.  Stores and WAL records
# persist exactly these bytes, so a changed digest is a store-format change.
PINNED_DIGESTS = {
    "bike": (
        "b150860f44534b7edee882ed2d8e9632"
        "321867cc9b2f34e12e9d238fc369e969"
    ),
    "bike-modcell5": (
        "ff4dbc7f8256281daaa55d4418d03b6f"
        "eeabb152e5ff53722b203cb615579b81"
    ),
    "bus": (
        "128827489e941bf43f5b83a0464eeff7"
        "4c654a74c9ab5e9ea29a4cd144df75dd"
    ),
    "bus-modcell5": (
        "29775e34d472800b9bddd6cf6023cfff"
        "33b97b30abe59387792f09ab7bc9b65b"
    ),
    "doct": (
        "35cdc9a50624f8f2e172ff1fe097142d"
        "61172cb9aa555b3bbf9f35f913182302"
    ),
    "doct-modcell5": (
        "218131ee09e06f3557d84036a4e63a82"
        "6ca5c9d5a386718f585682886f0d51dc"
    ),
    "git": (
        "f7593ecae8c0ada7767d6aac603999a9"
        "15a56bf8443b8e8bb0913982ef1147f2"
    ),
    "git-modcell5": (
        "de94fb460d24231a06ad790646fabd9f"
        "acadf346d630025cf8b118658e2c39be"
    ),
    "iris": (
        "0739c220fc192d8f36652fd7dedbcedf"
        "4afe8b15a75eedef28d0327fa6a2f2d8"
    ),
    "iris-modcell5": (
        "7537716e40a067103a5d05c6051409ec"
        "6c694597797e27423ad9c4e6a45f1512"
    ),
    "nba": (
        "d6a9126088565d5ed884762916164899"
        "c89b426d30af85cfec9b7b81fb42101f"
    ),
    "nba-modcell5": (
        "497509bb048134b73170ea0e016d707d"
        "6a1f97d80fd3ce59fb99159bcacd49ac"
    ),
    "tpch-customer": (
        "47903e62603649feead4203eb0b93962"
        "e67da29d343efb0d3de21434d6f337c6"
    ),
}


def pinned_instance(key: str) -> Instance:
    if key == "tpch-customer":
        return generate_tpch(0.01, seed=7, tables=("customer",), null_rate=0.02)
    profile, _, variant = key.partition("-")
    instance = generate_dataset(profile, rows=60, seed=7)
    if variant:
        instance = perturb(
            instance, PerturbationConfig.mod_cell(5.0, seed=7)
        ).target
    return instance


class TestPersistedBytes:
    @pytest.mark.parametrize("cached_view", [False, True])
    @pytest.mark.parametrize("key", sorted(PINNED_DIGESTS))
    def test_sketch_bytes_pinned(self, key, cached_view):
        # Pickles never carry the columnar view, so the copy starts without.
        instance = pickle.loads(pickle.dumps(pinned_instance(key)))
        if cached_view:
            instance.columns()
        assert (instance._columnar is not None) == cached_view
        payload = encode_payload(
            sketch_to_dict(InstanceSketch.build(instance, IndexParams()))
        )
        assert hashlib.sha256(payload).hexdigest() == PINNED_DIGESTS[key]


SPECIAL_HASHES = [
    0, _MERSENNE_PRIME - 1, _MERSENNE_PRIME, _MERSENNE_PRIME + 1, 2**64 - 1
]


class TestMinhashLanes:
    @pytest.mark.skipif(sketch_module._np is None, reason="needs numpy")
    @given(
        hashes=st.sets(
            st.one_of(
                st.sampled_from(SPECIAL_HASHES),
                st.integers(min_value=0, max_value=2**64 - 1),
            ),
            min_size=1,
            max_size=600,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_numpy_lane_bit_exact_with_pure_loop(self, hashes):
        vectorized = _minhash_numpy(hashes, PARAMS)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sketch_module, "_np", None)
            assert _minhash(hashes, PARAMS) == vectorized
