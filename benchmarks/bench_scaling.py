"""Scaling bench: signature algorithm runtime across instance sizes.

The paper's Table 2 shows near-linear scaling on Doctors (5 attributes) and
the sensitivity to arity (GitHub's 19 attributes cost two orders more at
equal row counts).  This bench records both trends::

    PYTHONPATH=src python -m pytest benchmarks/bench_scaling.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

import pytest

from repro.datagen.perturb import PerturbationConfig, perturb
from repro.datagen.synthetic import generate_dataset
from repro.mappings.constraints import MatchOptions
from repro.algorithms.signature import signature_compare

OPTIONS = MatchOptions.versioning()


@pytest.mark.parametrize("rows", [100, 300, 1000])
def test_signature_scaling_rows(benchmark, rows):
    scenario = perturb(
        generate_dataset("doct", rows=rows, seed=0),
        PerturbationConfig.mod_cell(5.0, seed=1),
    )
    result = benchmark(
        signature_compare, scenario.source, scenario.target, OPTIONS
    )
    assert result.similarity > 0.5


@pytest.mark.parametrize("dataset", ["doct", "bike", "git"])
def test_signature_scaling_arity(benchmark, dataset):
    """Same row count, increasing arity (5 / 9 / 19 attributes)."""
    scenario = perturb(
        generate_dataset(dataset, rows=300, seed=0),
        PerturbationConfig.mod_cell(5.0, seed=1),
    )
    result = benchmark(
        signature_compare, scenario.source, scenario.target, OPTIONS
    )
    assert result.similarity > 0.2
