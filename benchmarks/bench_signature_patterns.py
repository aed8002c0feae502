"""Ablation bench: pattern-keyed probing vs powerset enumeration
(DESIGN.md decision 2).

Alg. 4 line 6 literally enumerates the powerset of a probe tuple's constant
attributes.  Our implementation probes only the distinct null-position
patterns of the indexed side, each compiled once per index into a plan
(constant-position bitmask plus positional key).  This bench quantifies the
gap at arity 9 (Bikeshare-like) — at arity 19+ the powerset variant is
simply infeasible.
"""

from itertools import combinations

import pytest

from repro.algorithms.signature import (
    SignatureIndex,
    _constant_mask,
    signature_of,
)
from repro.datagen.perturb import PerturbationConfig, perturb
from repro.datagen.synthetic import generate_dataset


@pytest.fixture(scope="module")
def scenario():
    return perturb(
        generate_dataset("bike", rows=400, seed=0),
        PerturbationConfig.mod_cell(5.0, seed=1),
    )


@pytest.fixture(scope="module")
def left_signatures(scenario):
    """The indexed side's signature map and plans, as Alg. 4 probes them."""
    (name,) = scenario.source.schema.relation_names()
    return SignatureIndex.build(scenario.source).relation(name)


def test_pattern_keyed_probing(benchmark, scenario, left_signatures):
    """The implemented strategy: one lookup per left-side pattern plan."""
    right = list(scenario.target.tuples())
    sigmap, plans = left_signatures.sigmap, left_signatures.plans

    def run():
        hits = 0
        for probe in right:
            values = probe.values
            ground = _constant_mask(values)
            for mask, pairs in plans:
                if mask & ground == mask and (
                    tuple([(a, values[p]) for a, p in pairs]) in sigmap
                ):
                    hits += 1
        return hits

    assert benchmark(run) > 0


def test_powerset_probing(benchmark, scenario, left_signatures):
    """The literal Alg. 4: enumerate every subset of the probe's constants.

    Run on a small slice only — the point of the bench is the per-tuple
    cost blowup (2^9 subsets at Bikeshare's arity).
    """
    right = list(scenario.target.tuples())[:40]
    sigmap = left_signatures.sigmap

    def run():
        hits = 0
        for probe in right:
            ground = sorted(probe.constant_attributes())
            for width in range(len(ground), 0, -1):
                for subset in combinations(ground, width):
                    if signature_of(probe, subset) in sigmap:
                        hits += 1
        return hits

    assert benchmark(run) >= 0
