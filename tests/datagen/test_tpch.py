"""Tests for the dbgen-free TPC-H synthesizer (columnar-scale workload)."""

import pytest

from repro.core.errors import FormatError, SchemaError
from repro.core.values import is_null
from repro.datagen.tpch import (
    TPCH_FKS,
    TPCH_KEYS,
    TPCH_SCHEMAS,
    TPCH_TABLES,
    fk_violations,
    generate_tpch,
    pk_duplicates,
    read_tbl,
    tpch_cardinality,
    write_tbl,
)
from repro.parallel.cache import instance_fingerprint

SF = 0.002  # ~12k tuples: large enough to exercise everything, fast in CI


class TestSchemas:
    def test_all_eight_tables(self):
        assert set(TPCH_SCHEMAS) == set(TPCH_TABLES)
        assert len(TPCH_TABLES) == 8

    def test_standard_arities(self):
        assert TPCH_SCHEMAS["region"].arity == 3
        assert TPCH_SCHEMAS["nation"].arity == 4
        assert TPCH_SCHEMAS["supplier"].arity == 7
        assert TPCH_SCHEMAS["part"].arity == 9
        assert TPCH_SCHEMAS["partsupp"].arity == 5
        assert TPCH_SCHEMAS["customer"].arity == 8
        assert TPCH_SCHEMAS["orders"].arity == 9
        assert TPCH_SCHEMAS["lineitem"].arity == 16

    def test_keys_and_fks_name_real_attributes(self):
        for table, key in TPCH_KEYS.items():
            for attribute in key:
                assert attribute in TPCH_SCHEMAS[table].attributes
        for table, edges in TPCH_FKS.items():
            for attribute, parent, parent_attribute in edges:
                assert attribute in TPCH_SCHEMAS[table].attributes
                assert parent_attribute in TPCH_SCHEMAS[parent].attributes


class TestCardinalities:
    def test_spec_cardinalities_at_sf1(self):
        assert tpch_cardinality("region", 1) == 5
        assert tpch_cardinality("nation", 1) == 25
        assert tpch_cardinality("supplier", 1) == 10_000
        assert tpch_cardinality("part", 1) == 200_000
        assert tpch_cardinality("partsupp", 1) == 800_000
        assert tpch_cardinality("customer", 1) == 150_000
        assert tpch_cardinality("orders", 1) == 1_500_000

    def test_generated_counts_match_plan(self):
        instance = generate_tpch(SF, seed=11)
        for table in TPCH_TABLES:
            planned = tpch_cardinality(table, SF)
            actual = len(instance.relation(table))
            if table == "lineitem":  # expectation, not exact
                assert planned * 0.8 <= actual <= planned * 1.2
            else:
                assert actual == planned

    def test_rejects_bad_inputs(self):
        with pytest.raises(SchemaError):
            tpch_cardinality("nope", 1)
        with pytest.raises(ValueError):
            tpch_cardinality("orders", 0)
        with pytest.raises(SchemaError):
            generate_tpch(SF, tables=("orders", "nope"))
        with pytest.raises(ValueError):
            generate_tpch(SF, null_rate=1.5)


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        a = generate_tpch(SF, seed=3)
        b = generate_tpch(SF, seed=3)
        assert instance_fingerprint(a) == instance_fingerprint(b)

    def test_different_seed_different_fingerprint(self):
        a = generate_tpch(SF, seed=3)
        b = generate_tpch(SF, seed=4)
        assert instance_fingerprint(a) != instance_fingerprint(b)

    def test_table_subset_reproduces_full_run_rows(self):
        full = generate_tpch(SF, seed=9)
        sub = generate_tpch(SF, seed=9, tables=("customer",))
        assert [t.values for t in sub.relation("customer")] == [
            t.values for t in full.relation("customer")
        ]

    def test_injection_is_seeded(self):
        a = generate_tpch(SF, seed=5, null_rate=0.05, violation_rate=0.02)
        b = generate_tpch(SF, seed=5, null_rate=0.05, violation_rate=0.02)
        assert instance_fingerprint(a) == instance_fingerprint(b)


class TestIntegrity:
    def test_clean_instance_has_no_violations(self):
        instance = generate_tpch(SF, seed=2)
        assert fk_violations(instance) == {}
        assert pk_duplicates(instance) == {}

    def test_violation_injection_plants_both_kinds(self):
        instance = generate_tpch(SF, seed=2, violation_rate=0.02)
        assert sum(fk_violations(instance).values()) > 0
        assert sum(pk_duplicates(instance).values()) > 0

    def test_null_rate_injects_nulls_outside_keys(self):
        instance = generate_tpch(SF, seed=2, null_rate=0.08)
        cells = nulls = 0
        for relation in instance.relations():
            key = set(TPCH_KEYS[relation.schema.name])
            for t in relation:
                for attribute, value in zip(
                    relation.schema.attributes, t.values
                ):
                    cells += 1
                    if is_null(value):
                        nulls += 1
                        assert attribute not in key
        assert 0.02 < nulls / cells < 0.08  # keys excluded pulls it down

    def test_zero_rates_inject_nothing(self):
        clean = generate_tpch(SF, seed=6)
        also_clean = generate_tpch(
            SF, seed=6, null_rate=0.0, violation_rate=0.0
        )
        assert instance_fingerprint(clean) == instance_fingerprint(also_clean)


class TestTblRoundTrip:
    def test_round_trip_preserves_content(self, tmp_path):
        instance = generate_tpch(SF, seed=8, null_rate=0.03)
        paths = write_tbl(instance, tmp_path)
        assert len(paths) == 8
        back = read_tbl(tmp_path, name=instance.name)
        assert instance_fingerprint(back) == instance_fingerprint(instance)

    def test_read_subset(self, tmp_path):
        instance = generate_tpch(SF, seed=8, tables=("region", "nation"))
        write_tbl(instance, tmp_path)
        back = read_tbl(tmp_path, tables=("nation",))
        assert tuple(back.schema.relation_names()) == ("nation",)
        assert len(back.relation("nation")) == 25

    def test_read_errors(self, tmp_path):
        with pytest.raises(FormatError):
            read_tbl(tmp_path)
        (tmp_path / "region.tbl").write_text("0|AFRICA|\n")  # arity 2 != 3
        with pytest.raises(FormatError):
            read_tbl(tmp_path)
        (tmp_path / "region.tbl").write_text("x|AFRICA|c|\n")  # bad int key
        with pytest.raises(FormatError):
            read_tbl(tmp_path)
