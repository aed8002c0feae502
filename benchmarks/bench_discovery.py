"""Benchmarks: data-lake discovery and version-history reconstruction."""

import pytest

from repro.core.instance import Instance
from repro.datagen.perturb import PerturbationConfig, perturb
from repro.datagen.synthetic import generate_dataset
from repro.index import SimilarityIndex
from repro.versioning.history import reconstruct_history


def _as_version(instance, name):
    attrs = instance.schema.relation(
        instance.schema.relation_names()[0]
    ).attributes
    return Instance.from_rows(
        instance.schema.relation_names()[0], attrs,
        [t.values for t in instance.tuples()], name=name,
    )


@pytest.fixture(scope="module")
def version_family():
    base = generate_dataset("doct", rows=150, seed=0)
    versions = {"v1": _as_version(base, "v1")}
    current = versions["v1"]
    for index in range(2, 5):
        scenario = perturb(
            current, PerturbationConfig.mod_cell(4.0, seed=index)
        )
        current = _as_version(scenario.target, f"v{index}")
        versions[f"v{index}"] = current
    return versions


def test_lake_search(benchmark, version_family):
    lake = SimilarityIndex()
    for name, version in version_family.items():
        lake.add(name, version)
    query = version_family["v2"]
    hits = benchmark(lake.search, query, 4)
    assert hits[0].name == "v2"


def test_near_duplicates(benchmark, version_family):
    lake = SimilarityIndex()
    for name, version in version_family.items():
        lake.add(name, version)
    pairs = benchmark(lake.near_duplicates, 0.7)
    assert pairs


def test_history_reconstruction(benchmark, version_family):
    history = benchmark(reconstruct_history, version_family, "v1")
    assert history.root == "v1"
