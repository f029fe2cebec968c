"""Compiled, target-directed stacked calibration: parity and sharing.

``JunctionTree.calibrate_batch(rows, target=...)`` sends only the
messages directed toward the target's home clique.  On seeded generated
networks (treewidth 1–3, cardinality 2–5, zero CPT entries) its
posteriors must be BYTE-IDENTICAL to the full collect/distribute pass
and to the engine's scalar ``query``, within 1e-12 of variable
elimination, and within 1e-6 in float32; probability-0 rows raise with
the full pass's ``row_index``; malformed input raises before any work.
Forked engines share the compiled schedules and no writable buffer.
"""

import sys
import threading
from functools import lru_cache

import numpy as np
import pytest

from repro.bayesnet import engine as engine_module
from repro.bayesnet.cpt import CPT
from repro.bayesnet.engine import CompiledNetwork
from repro.bayesnet.factor import BatchedFactor, Factor
from repro.bayesnet.inference.junction_tree import JunctionTree
from repro.bayesnet.inference.variable_elimination import variable_elimination
from repro.bayesnet.network import BayesianNetwork
from repro.bayesnet.variable import Variable
from repro.errors import GraphError, InferenceError

CASES = [(width, seed) for width in (1, 2, 3) for seed in range(3)]


@lru_cache(maxsize=None)
def generated_network(width: int, seed: int,
                      n_nodes: int = 9) -> BayesianNetwork:
    """A seeded DAG of treewidth <= ``width`` with zero CPT entries.

    Width 1 hangs each node under one earlier node (a random tree);
    wider nets draw parents from the previous ``width`` nodes, so the
    moral graph has bandwidth <= ``width``.  About a fifth of the CPT
    entries are zero; every CPT row keeps one positive entry.
    """
    rng = np.random.default_rng([seed, width])
    variables = [Variable(f"n{i}", tuple(f"s{j}" for j in
                                         range(int(rng.integers(2, 6)))))
                 for i in range(n_nodes)]
    bn = BayesianNetwork(f"generated-w{width}-{seed}")
    for i, var in enumerate(variables):
        if i == 0:
            parents = []
        elif width == 1:
            parents = [variables[int(rng.integers(i))]]
        else:
            window = list(range(max(0, i - width), i))
            k = int(rng.integers(1, len(window) + 1))
            parents = [variables[j] for j in
                       sorted(rng.choice(window, size=k, replace=False))]
        card = var.cardinality
        rows = rng.random((int(np.prod([p.cardinality for p in parents])),
                           card))
        rows[rng.random(rows.shape) < 0.2] = 0.0
        empty = np.flatnonzero(rows.sum(axis=1) == 0.0)
        rows[empty, rng.integers(card, size=empty.size)] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
        shape = tuple(p.cardinality for p in parents) + (card,)
        bn.add_cpt(CPT(var, parents, rows.reshape(shape)))
    return bn


def evidence_rows(bn: BayesianNetwork, seed: int, count: int) -> list:
    """``count`` seeded rows observing random subsets of the nodes."""
    rng = np.random.default_rng([seed, 99])
    names = sorted(bn.dag.nodes)
    out = []
    for _ in range(count):
        picked = rng.choice(len(names), size=int(rng.integers(len(names))),
                            replace=False)
        row = {}
        for j in sorted(picked):
            states = bn.variable(names[j]).states
            row[names[j]] = states[int(rng.integers(len(states)))]
        out.append(row)
    return out


def split_rows(jt: JunctionTree, rows: list):
    """(possible rows, impossible rows) under the full stacked pass."""
    possible, impossible = [], []
    for row in rows:
        try:
            jt.calibrate_batch([row])
        except InferenceError as exc:
            assert exc.row_index == 0
            impossible.append(row)
        else:
            possible.append(row)
    return possible, impossible


def reference_marginal(jt: JunctionTree, rows: list, target: str,
                       dtype=np.float64) -> np.ndarray:
    """The per-message ``BatchedFactor`` pass the compiled schedule
    replaced, as an oracle: full collect/distribute over the tree's
    schedule, C-order potential copies, in-place products in
    ``_neighbors`` order, leaf sums over broadcast views, and the
    target read from the first clique holding it."""
    n = len(rows)
    first = {name: next(k for k, c in enumerate(jt.cliques) if name in c)
             for name in jt._variables}
    observed = {}
    for r, row in enumerate(rows):
        for name, state in row.items():
            observed.setdefault(name, {})[r] = \
                jt._variables[name].index_of(state)
    potentials = []
    for k, names in enumerate(jt._clique_names):
        base = Factor.ones([jt._variables[name] for name in names])
        for idx in jt._clique_factors[k]:
            base = base.multiply(jt._factors[idx])
        pot = BatchedFactor.broadcast(base, n, dtype=dtype)
        homed = sorted(name for name in observed if first[name] == k)
        if homed:
            pot = pot.materialize()
        for name in homed:
            lam = np.ones((n, jt._variables[name].cardinality), dtype=dtype)
            hit = list(observed[name])
            lam[hit] = 0.0
            lam[hit, list(observed[name].values())] = 1.0
            pot.imultiply(BatchedFactor._wrap([jt._variables[name]], lam))
        potentials.append(pot)

    messages = {}

    def product(i, skip):
        inbound = [messages[(k, i)] for k, _ in jt._neighbors[i]
                   if k != skip]
        if not inbound:
            return potentials[i]
        acc = BatchedFactor._wrap(potentials[i].variables,
                                  potentials[i].table.copy(order="C"))
        for m in inbound:
            acc.imultiply(m)
        return acc

    def send(i, j):
        acc = product(i, j)
        drop = set(acc.names) - set(dict(jt._neighbors[i])[j])
        out = np.empty((n,) + tuple(v.cardinality for v in acc.variables
                                    if v.name not in drop), dtype=dtype)
        messages[(i, j)] = acc.marginalize(drop, out=out)

    order, parent, children = jt._schedule()
    for i in reversed(order):
        if parent[i] is not None:
            send(i, parent[i])
    for i in order:
        for j in children[i]:
            send(i, j)
    belief = product(first[target], None)
    marg = belief.marginalize(set(belief.names) - {target}).table
    return marg / marg.sum(axis=1)[:, None]


@pytest.fixture
def stacked_engines(monkeypatch):
    """Force every engine query onto the junction tree (no joint slice)."""
    monkeypatch.setattr(engine_module, "MAX_BATCH_TABLE_ENTRIES", 0)


@pytest.mark.parametrize("width,seed", CASES)
class TestTargetDirectedParity:
    def test_equals_full_pass_bitwise(self, width, seed):
        bn = generated_network(width, seed)
        jt = JunctionTree(bn.factors())
        rows, _ = split_rows(jt, evidence_rows(bn, seed, 12))
        assert len(rows) >= 4
        for dtype in (np.float64, np.float32):
            full = jt.calibrate_batch(rows, dtype=dtype)
            for target in sorted(bn.dag.nodes):
                want = full.marginal_batch(target)
                block = jt.calibrate_batch(rows, dtype=dtype, target=target)
                assert block.marginal_batch(target).tobytes() \
                    == want.tobytes()
                for r in (0, len(rows) // 2, len(rows) - 1):
                    one = jt.calibrate_batch([rows[r]], dtype=dtype,
                                             target=target)
                    assert one.marginal_batch(target).tobytes() \
                        == want[r:r + 1].tobytes()

    def test_equals_per_message_reference_bitwise(self, width, seed):
        bn = generated_network(width, seed)
        jt = JunctionTree(bn.factors())
        rows, _ = split_rows(jt, evidence_rows(bn, seed, 12))
        for dtype in (np.float64, np.float32):
            for target in sorted(bn.dag.nodes):
                want = reference_marginal(jt, rows, target, dtype)
                got = jt.calibrate_batch(rows, dtype=dtype, target=target)
                assert got.marginal_batch(target).tobytes() \
                    == want.tobytes()
                one = jt.calibrate_batch(rows[:1], dtype=dtype,
                                         target=target)
                assert one.marginal_batch(target).tobytes() \
                    == reference_marginal(jt, rows[:1], target,
                                          dtype).tobytes()

    def test_equals_scalar_query_and_ve(self, width, seed, stacked_engines):
        bn = generated_network(width, seed)
        engine = CompiledNetwork(bn, cache_size=0)
        fast = CompiledNetwork(bn, cache_size=0, batch_dtype="float32")
        jt = JunctionTree(bn.factors())
        factors = bn.factors()
        for target in sorted(bn.dag.nodes):
            raw = [{k: v for k, v in r.items() if k != target}
                   for r in evidence_rows(bn, seed, 8)]
            rows, _ = split_rows(jt, raw)
            got = jt.calibrate_batch(rows, target=target) \
                .marginal_batch(target)
            batched = engine.query_batch(target, rows)
            lowp = fast.query_batch(target, rows)
            for r, row in enumerate(rows):
                assert list(engine.query(target, row).values()) \
                    == got[r].tolist()
                assert list(batched[r].values()) == got[r].tolist()
                exact = variable_elimination(factors, [target], row)
                np.testing.assert_allclose(
                    got[r], list(exact.distribution().values()),
                    rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(
                    list(lowp[r].values()), got[r], rtol=0.0, atol=1e-6)

    def test_zero_probability_rows_match_full_pass(self, width, seed):
        bn = generated_network(width, seed)
        jt = JunctionTree(bn.factors())
        possible, impossible = split_rows(jt, evidence_rows(bn, seed, 40))
        assert len(possible) >= 5 and len(impossible) >= 2
        block = possible[:3] + impossible[:1] + possible[3:5] \
            + impossible[1:2]
        with pytest.raises(InferenceError) as full:
            jt.calibrate_batch(block)
        assert full.value.row_index == 3
        for target in sorted(bn.dag.nodes):
            with pytest.raises(InferenceError) as directed:
                jt.calibrate_batch(block, target=target)
            assert directed.value.row_index == full.value.row_index

    def test_half_the_messages(self, width, seed):
        bn = generated_network(width, seed)
        jt = JunctionTree(bn.factors())
        target = sorted(bn.dag.nodes)[-1]
        jt.calibrate_batch([{}])
        jt.calibrate_batch([{}], target=target)
        n = len(jt.cliques)
        assert len(jt._compiled[(None, "float64")].steps) == 2 * (n - 1)
        assert len(jt._compiled[(jt._home[target], "float64")].steps) \
            == n - 1


class TestFailsBeforeWork:
    def tree(self):
        return JunctionTree(generated_network(2, 0).factors())

    def test_unknown_variable(self):
        jt = self.tree()
        with pytest.raises(InferenceError, match="unknown"):
            jt.calibrate_batch([{"n0": "s0"}, {"nope": "s0"}], target="n1")
        assert jt._compiled == {} and jt._substrates == {}

    def test_unknown_state(self):
        jt = self.tree()
        with pytest.raises(GraphError, match="not in the ontology"):
            jt.calibrate_batch([{"n0": "s0"}, {"n2": "bogus"}], target="n1")
        assert jt._compiled == {} and jt._substrates == {}

    def test_unknown_target(self):
        jt = self.tree()
        with pytest.raises(InferenceError, match="not found"):
            jt.calibrate_batch([{"n0": "s0"}], target="nope")
        assert jt._compiled == {} and jt._substrates == {}

    def test_directed_beliefs_serve_only_their_home(self):
        jt = self.tree()
        names = sorted(generated_network(2, 0).dag.nodes)
        target = names[-1]
        other = next(n for n in names if jt._home[n] != jt._home[target])
        beliefs = jt.calibrate_batch([{}], target=target)
        with pytest.raises(InferenceError, match="target-directed"):
            beliefs.marginal_batch(other)


def walk(bn: BayesianNetwork, free: str, seed: int, steps: int) -> list:
    """A seeded walk that sets one node other than ``free`` per step,
    keeping only rows of positive probability."""
    rng = np.random.default_rng([seed, 7])
    jt = JunctionTree(bn.factors())
    names = sorted(n for n in bn.dag.nodes if n != free)
    row: dict = {}
    out = []
    while len(out) < steps:
        name = names[int(rng.integers(len(names)))]
        states = bn.variable(name).states
        candidate = dict(row, **{name: states[int(rng.integers(len(states)))]})
        if split_rows(jt, [candidate])[0]:
            row = candidate
            out.append(row)
    return out


def test_forks_answer_divergent_walks_concurrently(stacked_engines):
    """Forks of one prewarmed engine on more threads than cores match
    serial answers byte for byte, share compiled steps by identity and
    share no writable buffer.

    Two targets are compiled before forking; the other two are compiled
    by the racing forks themselves, into the shared schedule table.
    """
    bn = generated_network(3, 1, n_nodes=14)
    targets = ("n0", "n13", "n6", "n9")
    walks = [walk(bn, target, k, 60) for k, target in enumerate(targets)]
    serial = [[CompiledNetwork(bn, cache_size=0).query(target, row)
               for row in rows] for target, rows in zip(targets, walks)]

    engine = CompiledNetwork(bn, cache_size=0).prewarm()
    for target, rows in zip(targets[:2], walks):
        engine.query(target, rows[0])
    forks = [engine.fork() for _ in targets]
    answers = [None] * len(targets)
    errors = []
    barrier = threading.Barrier(len(targets))

    def run(k: int) -> None:
        try:
            barrier.wait(timeout=10)
            answers[k] = [forks[k].query(targets[k], row)
                          for row in walks[k]]
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,))
               for k in range(len(targets))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for got, want in zip(answers, serial):
        assert [[p.hex() for p in a.values()] for a in got] \
            == [[p.hex() for p in a.values()] for a in want]

    trees = [engine._jt] + [f._jt for f in forks]
    assert all(t._compiled is trees[0]._compiled for t in trees)
    assert all(t._substrates is trees[0]._substrates for t in trees)
    homes = {(trees[0]._home[t], "float64") for t in targets}
    assert homes <= set(trees[0]._compiled)
    for schedule in trees[0]._compiled.values():
        for base in schedule.bases:
            assert not base.flags.writeable
        for _, _, likelihoods in schedule.evidence.values():
            assert not likelihoods.flags.writeable
