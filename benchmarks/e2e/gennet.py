"""Seeded sensor network and evidence generators for the generated workloads.

The network is a latent chain ``h00 -> h01 -> ...`` where every hidden
node has up to two hidden parents and a fixed number of noisy sensors.
Its *structure* is fixed; the seed draws only CPT values (Dirichlet
rows, never zero) and the evidence streams, so every seed costs the
engine the same work and no evidence row ever has probability 0.

The joint of the target and all sensors is far larger than
``MAX_BATCH_TABLE_ENTRIES``, so every engine miss runs a junction-tree
calibration instead of slicing a cached joint.

Only the public ``BayesianNetwork`` / ``CPT`` / ``Variable`` API is used.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

import numpy as np

from repro.bayesnet.cpt import CPT
from repro.bayesnet.engine import MAX_BATCH_TABLE_ENTRIES
from repro.bayesnet.inference.junction_tree import JunctionTree
from repro.bayesnet.network import BayesianNetwork
from repro.bayesnet.variable import Variable

HIDDEN = 16
SENSORS_PER_HIDDEN = 2
CARDINALITY = 4
#: Queried node: the middle of the latent chain.
TARGET = f"h{HIDDEN // 2:02d}"

Evidence = Dict[str, str]


def _states() -> List[str]:
    return [f"s{k}" for k in range(CARDINALITY)]


def sensor_names() -> List[str]:
    return [f"x{i:02d}_{j}" for i in range(HIDDEN)
            for j in range(SENSORS_PER_HIDDEN)]


def build_network(seed: int) -> BayesianNetwork:
    """The seeded generated network (same structure for every seed)."""
    rng = np.random.default_rng([seed, 0])
    states = _states()
    bn = BayesianNetwork(f"gen-sensor-chain-{seed}")
    hidden: List[Variable] = []
    for i in range(HIDDEN):
        var = Variable(f"h{i:02d}", states)
        parents = hidden[max(0, i - 2):i]
        rows = CARDINALITY ** len(parents)
        table = rng.dirichlet(np.ones(CARDINALITY), size=rows)
        shape = tuple(p.cardinality for p in parents) + (CARDINALITY,)
        bn.add_cpt(CPT(var, parents, table.reshape(shape)))
        hidden.append(var)
    for name in sensor_names():
        var = Variable(name, states)
        parent = hidden[int(name[1:3])]
        # Peaked but full-support rows: informative sensors, no zeros.
        table = np.clip(rng.dirichlet(np.full(CARDINALITY, 0.7),
                                      size=CARDINALITY), 1e-3, None)
        bn.add_cpt(CPT(var, [parent],
                       table / table.sum(axis=1, keepdims=True)))
    return bn


def shape(network: BayesianNetwork) -> Dict[str, int]:
    """Nodes, cardinality and largest clique, recorded with each result."""
    tree = JunctionTree(network.factors())
    joint = CARDINALITY ** (len(sensor_names()) + 1)
    return {"nodes": len(network.node_names), "cardinality": CARDINALITY,
            "sensors": len(sensor_names()),
            "cliques": len(tree.cliques),
            "largest_clique_vars": max(len(c) for c in tree.cliques),
            "largest_clique_entries": int(max(tree.clique_state_sizes)),
            "target_evidence_joint_entries": joint,
            "max_batch_table_entries": MAX_BATCH_TABLE_ENTRIES}


def probe_row() -> Evidence:
    """The fixed set-up probe: every sensor in its first state."""
    return {name: "s0" for name in sensor_names()}


def _key(row: Evidence) -> Tuple[str, ...]:
    return tuple(row[name] for name in sensor_names())


def _fresh_rows(rng: np.random.Generator, seen: Set[Tuple[str, ...]],
                count: int) -> List[Evidence]:
    """``count`` uniformly random full sensor rows not seen before."""
    names, states = sensor_names(), _states()
    out: List[Evidence] = []
    while len(out) < count:
        for draw in rng.integers(CARDINALITY, size=(count, len(names))):
            row = {name: states[int(k)] for name, k in zip(names, draw)}
            if _key(row) not in seen and len(out) < count:
                seen.add(_key(row))
                out.append(row)
    return out


def walk(seed: int, client: int) -> Iterator[Evidence]:
    """One client's endless monitoring walk: flip one sensor per request.

    No row repeats (nor equals the probe), so the engines' evidence
    caches never hit, while consecutive rows differ in exactly one
    sensor.
    """
    rng = np.random.default_rng([seed, 1, client])
    names, states = sensor_names(), _states()
    seen: Set[Tuple[str, ...]] = {_key(probe_row())}
    row = _fresh_rows(rng, seen, 1)[0]
    yield row
    while True:
        name = names[int(rng.integers(len(names)))]
        state = states[int(rng.integers(CARDINALITY))]
        candidate = dict(row)
        candidate[name] = state
        if _key(candidate) in seen:
            continue
        seen.add(_key(candidate))
        row = candidate
        yield row


def blocks(seed: int, client: int, rows: int) -> Iterator[List[Evidence]]:
    """One client's endless stream of blocks of independent random rows."""
    rng = np.random.default_rng([seed, 2, client])
    seen: Set[Tuple[str, ...]] = {_key(probe_row())}
    while True:
        yield _fresh_rows(rng, seen, rows)
