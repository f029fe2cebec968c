"""Junction-tree (clique-tree) exact inference with Hugin message passing.

Compiles a Bayesian network's moral graph into a tree of cliques, then
calibrates clique potentials by two-phase sum-product propagation.  After
calibration, every marginal (given the same evidence) is a cheap clique
marginalization — the right tool when many queries share one evidence set.

Calibration is **incremental** (Darwiche-style lazy propagation): the
message schedule (root, DFS order, parent/child maps) is computed once,
clique potentials are memoized per evidence-restriction, and on a
``calibrate(new_evidence)`` call only the cliques whose attached evidence
actually changed are rebuilt.  A directed message ``i -> j`` is
re-propagated only when a dirty clique lies in the subtree behind ``i``;
every other message is reused from the previous calibration (the values
are identical — a message depends only on the potentials behind it).
Clique beliefs are materialized lazily per query, so the dominant
sweep workload — flip one evidence variable, read one posterior — costs
one potential rebuild plus the messages on paths out of the dirty
region, not a full propagation.

Batched calibration (:meth:`JunctionTree.calibrate_batch`) runs a whole
evidence matrix through a message schedule compiled once per (target
home clique, dtype) into flat step records; a target-directed pass
sends only the messages toward the target's clique.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from repro.bayesnet.factor import Factor, ScalarFactor
from repro.bayesnet.graph import maximum_spanning_junction_tree, triangulate
from repro.bayesnet.variable import Variable
from repro.errors import InferenceError
from repro.telemetry.tracing import active as _trace_active

#: Memoized (clique, evidence-restriction) potentials kept per tree.
POTENTIAL_MEMO_SIZE = 512

#: One clique's evidence restriction: sorted ((name, state), ...) items.
_PotKey = Tuple[Tuple[str, str], ...]

#: Inbound message slots of a stacked product: ((slot, broadcast shape), ...).
_Inbound = Tuple[Tuple[int, Tuple[int, ...]], ...]

#: Per variable: (home clique, one-hot broadcast shape, likelihood table).
_Evidence = Dict[str, Tuple[int, Tuple[int, ...], np.ndarray]]


class JunctionTree:
    """Compiled junction tree for one Bayesian network.

    Parameters
    ----------
    factors:
        One CPT-factor per node of the network.
    """

    def __init__(self, factors: Sequence[Factor]):
        self._factors = list(factors)
        self._variables: Dict[str, Variable] = {}
        for f in self._factors:
            for v in f.variables:
                existing = self._variables.get(v.name)
                if existing is not None and existing != v:
                    raise InferenceError(f"conflicting definitions of {v.name!r}")
                self._variables[v.name] = v
        adjacency: Dict[str, Set[str]] = {n: set() for n in self._variables}
        for f in self._factors:
            names = f.names
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    adjacency[a].add(b)
                    adjacency[b].add(a)
        _, cliques = triangulate(adjacency)
        self.cliques: List[FrozenSet[str]] = cliques
        self.tree_edges = maximum_spanning_junction_tree(cliques)
        self._neighbors: Dict[int, List[Tuple[int, FrozenSet[str]]]] = {
            i: [] for i in range(len(cliques))}
        for i, j, sep in self.tree_edges:
            self._neighbors[i].append((j, sep))
            self._neighbors[j].append((i, sep))
        # Assign each factor to one clique containing its scope.
        self._assignment: List[int] = []
        for f in self._factors:
            home = next((k for k, c in enumerate(cliques) if f.scope <= c), None)
            if home is None:
                raise InferenceError(
                    f"no clique contains factor scope {sorted(f.scope)} — "
                    "triangulation failed")
            self._assignment.append(home)
        self._clique_factors: List[List[int]] = [[] for _ in cliques]
        for idx, home in enumerate(self._assignment):
            self._clique_factors[home].append(idx)
        self._clique_names: List[List[str]] = [sorted(c) for c in cliques]
        #: Each variable's home: the first clique holding it.
        self._home: Dict[str, int] = {}
        for k, names in enumerate(self._clique_names):
            for name in names:
                self._home.setdefault(name, k)

        n = len(cliques)
        # -- incremental-calibration state -----------------------------------
        #: Message schedule (order, parent, children) — built on first use so
        #: the disconnected-tree error keeps surfacing at calibrate time.
        self._plan: Optional[Tuple[List[int], List[Optional[int]],
                                   List[List[int]]]] = None
        self._potentials: List[Optional[Factor]] = [None] * n
        self._pot_keys: List[Optional[_PotKey]] = [None] * n
        self._clique_scalars: List[float] = [1.0] * n
        self._pot_memo: Dict[Tuple[int, _PotKey], Tuple[Factor, float]] = {}
        self._messages: Dict[Tuple[int, int], Factor] = {}
        self._beliefs: List[Optional[Factor]] = [None] * n
        self._evidence: Dict[str, str] = {}
        self._log_partition: Optional[float] = None
        self._ready = False
        #: After a fork, message buffers may be shared with the twin tree —
        #: in-place reuse of a previous message's table is then forbidden.
        self._owns_buffers = True
        # -- batched-calibration state ----------------------------------------
        #: Immutable compiled artifacts, built lazily and shared by identity
        #: with forked twins: per-dtype clique bases and evidence encodings,
        #: and the compiled schedules keyed (home clique or None, dtype).
        self._substrates: Dict[str, Tuple[List[np.ndarray], _Evidence]] = {}
        self._compiled: Dict[Tuple[Optional[int], str], _Schedule] = {}
        #: Cumulative and last-call propagation work, for EngineStats.
        self.messages_total = 0
        self.messages_recomputed = 0
        self.last_messages_total = 0
        self.last_messages_recomputed = 0

    # -- calibration -----------------------------------------------------------

    def calibrate(self, evidence: Optional[Mapping[str, str]] = None) -> None:
        """Incremental two-phase (collect/distribute) sum-product propagation."""
        evidence = dict(evidence or {})
        tracer = _trace_active()
        if tracer is not None:
            with tracer.span("inference.jt_calibrate",
                             n_cliques=len(self.cliques),
                             n_evidence=len(evidence)):
                return self._calibrate(evidence)
        return self._calibrate(evidence)

    def fork(self) -> "JunctionTree":
        """A calibration-sharing copy safe to use from another thread.

        The clone shares every immutable compiled artifact — cliques,
        edges, schedule, factors, memoized potentials and the *current*
        messages (factor tables are never mutated in place once
        published) — but owns private mutable containers, so the clone
        and the original can calibrate divergent evidence sequences
        concurrently without racing.  The compiled stacked schedules and
        their read-only bases are shared by identity, including those
        either twin compiles later; ``calibrate_batch`` allocates every
        buffer it writes per call.
        """
        clone = JunctionTree.__new__(JunctionTree)
        clone.__dict__.update(self.__dict__)
        clone._potentials = list(self._potentials)
        clone._pot_keys = list(self._pot_keys)
        clone._clique_scalars = list(self._clique_scalars)
        clone._pot_memo = dict(self._pot_memo)
        clone._messages = dict(self._messages)
        clone._beliefs = list(self._beliefs)
        clone._evidence = dict(self._evidence)
        # Both twins now reference the same message tables; neither may
        # recycle them as in-place output buffers.
        self._owns_buffers = False
        clone._owns_buffers = False
        return clone

    def _schedule(self) -> Tuple[List[int], List[Optional[int]],
                                 List[List[int]]]:
        """(DFS order from root 0, parent per clique, children per clique)."""
        if self._plan is None:
            order, parent = self._rooted(0)
            children: List[List[int]] = [[] for _ in self.cliques]
            for node in order:
                if parent[node] is not None:
                    children[parent[node]].append(node)
            self._plan = (order, parent, children)
        return self._plan

    def _rooted(self, root: int) -> Tuple[List[int], List[Optional[int]]]:
        """(DFS order from ``root``, parent per clique) of the hung tree."""
        order = self._dfs_order(root)
        parent: List[Optional[int]] = [None] * len(self.cliques)
        for node in order:
            for j, _ in self._neighbors[node]:
                if j != parent[node]:
                    parent[j] = node
        return order, parent

    def _pot_key(self, k: int, evidence: Mapping[str, str]) -> _PotKey:
        """Evidence restricted to clique ``k``'s scope, as a hashable key."""
        return tuple((name, evidence[name]) for name in self._clique_names[k]
                     if name in evidence)

    def _build_potential(self, k: int, key: _PotKey) -> Tuple[Factor, float]:
        """Clique ``k``'s evidence-reduced potential and scalar residue.

        The potential is the product of the clique's assigned
        CPT-factors, each reduced over the clique's evidence
        restriction, on a ones-base over the unobserved clique
        variables.  Factors that reduce to a constant contribute to the
        scalar residue (folded into the partition function only).
        """
        local = dict(key)
        keep = [self._variables[name] for name in self._clique_names[k]
                if name not in local]
        pot: Factor = Factor.ones(keep) if keep else ScalarFactor(1.0)
        scalar = 1.0
        for idx in self._clique_factors[k]:
            reduced = self._factors[idx].reduce(local)
            if isinstance(reduced, ScalarFactor):
                scalar *= reduced.partition()
            elif isinstance(pot, ScalarFactor):
                pot = reduced.multiply(pot)
            else:
                pot = pot.multiply(reduced)
        return pot, scalar

    def _potential_for(self, k: int, key: _PotKey) -> Tuple[Factor, float]:
        memo_key = (k, key)
        cached = self._pot_memo.get(memo_key)
        if cached is not None:
            return cached
        built = self._build_potential(k, key)
        if len(self._pot_memo) >= POTENTIAL_MEMO_SIZE:
            self._pot_memo.pop(next(iter(self._pot_memo)))
        self._pot_memo[memo_key] = built
        return built

    def _combine(self, base: Factor, messages: Sequence[Factor]) -> Factor:
        """``base * prod(messages)`` with one allocation.

        Message scopes are subsets of the base potential's scope
        (separators minus evidence), so the product accumulates in place
        into a single copy of the base table.
        """
        if isinstance(base, ScalarFactor):
            value = base.partition()
            for m in messages:
                value *= m.partition()  # all-observed clique: scalars only
            return ScalarFactor(value)
        if not messages:
            return base
        acc = Factor._wrap(base.variables, base.table.copy())
        for m in messages:
            acc.imultiply(m)
        return acc

    def _message(self, i: int, j: int, evidence: Dict[str, str],
                 sep: FrozenSet[str]) -> Factor:
        """Recompute the directed message ``i -> j``."""
        inbound = [self._messages[(k, i)] for k, _ in self._neighbors[i]
                   if k != j]
        combined = self._combine(self._potentials[i], inbound)
        if isinstance(combined, ScalarFactor):
            return combined
        keep = set(sep) - set(evidence)
        drop = set(combined.names) - keep
        out = None
        if self._owns_buffers:
            prev = self._messages.get((i, j))
            if (prev is not None and not isinstance(prev, ScalarFactor)
                    and [v.name for v in prev.variables]
                    == [v.name for v in combined.variables
                        if v.name not in drop]):
                out = prev.table  # recycle the stale message's buffer
        return combined.marginalize(drop, out=out)

    def _calibrate(self, evidence: Dict[str, str]) -> None:
        for name, state in evidence.items():
            variable = self._variables.get(name)
            if variable is None:
                raise InferenceError(f"evidence variable {name!r} unknown")
            variable.index_of(state)  # unknown states fail before any mutation
        order, parent, children = self._schedule()
        n = len(self.cliques)
        n_messages = 2 * (n - 1)
        self.last_messages_total = n_messages
        self.messages_total += n_messages

        try:
            # Phase 1: diff evidence per clique; rebuild dirty potentials.
            dirty = [False] * n
            for k in range(n):
                key = self._pot_key(k, evidence)
                if key != self._pot_keys[k] or self._potentials[k] is None:
                    pot, scalar = self._potential_for(k, key)
                    self._potentials[k] = pot
                    self._clique_scalars[k] = scalar
                    self._pot_keys[k] = key
                    dirty[k] = True

            # Phase 2: re-propagate only messages with a dirty clique in the
            # subtree behind them; reuse every other cached message.
            recomputed = 0
            up_dirty: Dict[int, bool] = {}
            down_dirty: Dict[int, bool] = {}
            for i in reversed(order):  # collect: leaves toward root
                p = parent[i]
                if p is None:
                    continue
                stale = dirty[i] or any(up_dirty[c] for c in children[i])
                if stale or (i, p) not in self._messages:
                    sep = next(s for j, s in self._neighbors[i] if j == p)
                    self._messages[(i, p)] = self._message(i, p, evidence, sep)
                    recomputed += 1
                    stale = True
                up_dirty[i] = stale
            if order:
                down_dirty[order[0]] = False
            for i in order:  # distribute: root toward leaves
                for j in children[i]:
                    stale = (dirty[i] or down_dirty[i]
                             or any(up_dirty[c] for c in children[i]
                                    if c != j))
                    if stale or (i, j) not in self._messages:
                        sep = next(s for k, s in self._neighbors[i] if k == j)
                        self._messages[(i, j)] = self._message(i, j, evidence,
                                                               sep)
                        recomputed += 1
                        stale = True
                    down_dirty[j] = stale
        except Exception:
            # A partial update would desynchronize potentials and
            # messages; drop the incremental state so the next calibrate
            # starts from scratch.
            self._invalidate()
            raise

        self._evidence = evidence
        self.last_messages_recomputed = recomputed
        self.messages_recomputed += recomputed
        if any(dirty) or recomputed or not self._ready:
            # Every belief depends on evidence everywhere in the tree, so
            # any change invalidates all of them; they rematerialize
            # lazily per query.  The root belief is built eagerly to
            # price the evidence (and fail loudly on P(evidence) = 0).
            self._beliefs = [None] * n
            self._ready = False
            self._log_partition = None
            scalar = 1.0
            for s in self._clique_scalars:
                scalar *= s
            z = self._belief(order[0]).partition() * scalar
            if z <= 0.0:
                raise InferenceError(
                    "evidence has probability 0 under the model")
            self._log_partition = float(np.log(z))
            self._ready = True

    def predict_recalibration(self, evidence: Optional[Mapping[str, str]]
                              = None) -> Tuple[int, int]:
        """Predicted ``(dirty cliques, messages to recompute)`` for
        calibrating ``evidence`` from the tree's *current* state.

        A side-effect-free dry run of :meth:`calibrate`'s two phases:
        the per-clique evidence diff marks dirty cliques, then the
        collect/distribute staleness propagation counts the messages a
        real calibration would rebuild.  The query planner prices the
        incremental-JT backend with this — a tree already calibrated on
        similar evidence predicts (and costs) almost nothing.
        """
        evidence = dict(evidence or {})
        order, parent, children = self._schedule()
        n = len(self.cliques)
        dirty = [False] * n
        for k in range(n):
            key = self._pot_key(k, evidence)
            if key != self._pot_keys[k] or self._potentials[k] is None:
                dirty[k] = True
        recomputed = 0
        up_dirty: Dict[int, bool] = {}
        for i in reversed(order):          # collect: leaves toward root
            p = parent[i]
            if p is None:
                continue
            stale = dirty[i] or any(up_dirty[c] for c in children[i])
            if stale or (i, p) not in self._messages:
                recomputed += 1
                stale = True
            up_dirty[i] = stale
        down_dirty: Dict[int, bool] = {}
        if order:
            down_dirty[order[0]] = False
        for i in order:                    # distribute: root toward leaves
            for j in children[i]:
                stale = (dirty[i] or down_dirty[i]
                         or any(up_dirty[c] for c in children[i] if c != j))
                if stale or (i, j) not in self._messages:
                    recomputed += 1
                    stale = True
                down_dirty[j] = stale
        return sum(dirty), recomputed

    # -- batched calibration ----------------------------------------------------

    def _batched_substrate(self, dtype: np.dtype
                           ) -> Tuple[List[np.ndarray], _Evidence]:
        """Per-dtype clique bases and evidence encodings, built once.

        The bases are every clique's full-scope potential (no
        evidence): the product of its assigned CPT-factors on a
        ones-base over *all* clique variables (sorted-name axis order).
        Evidence never reduces them — the batched path folds evidence in
        as per-row one-hot likelihoods instead — so they are immutable
        and shared across every stacked calibration (and across forked
        twins).  Each variable's encoding is its home clique, the shape
        its likelihood broadcasts to against that clique, and a
        ``(card + 1, card)`` table: one one-hot row per state plus an
        all-ones row (index ``card``) for batch rows that leave it free.
        Every array is frozen read-only, so sharing them is safe.
        """
        substrate = self._substrates.get(dtype.name)
        if substrate is None:
            bases = []
            for k, names in enumerate(self._clique_names):
                pot = Factor.ones([self._variables[name] for name in names])
                for idx in self._clique_factors[k]:
                    pot = pot.multiply(self._factors[idx])
                bases.append(np.ascontiguousarray(pot.table, dtype=dtype))
            evidence: _Evidence = {}
            for name, k in self._home.items():
                card = self._variables[name].cardinality
                evidence[name] = (
                    k, tuple(card if other == name else 1
                             for other in self._clique_names[k]),
                    np.vstack([np.eye(card, dtype=dtype),
                               np.ones((1, card), dtype=dtype)]))
            for table in bases + [e[2] for e in evidence.values()]:
                table.flags.writeable = False
            substrate = self._substrates[dtype.name] = (bases, evidence)
        return substrate

    def _compile(self, home: Optional[int], dtype: np.dtype) -> "_Schedule":
        """Flatten the stacked message schedule into step records.

        ``home=None`` compiles the full collect/distribute pass (every
        clique's belief is then readable); a clique index compiles only
        the ``n - 1`` messages directed toward that clique.  Messages
        are numbered by step, so each step names its inbound messages
        by slot — in ``_neighbors`` order, the multiplication order the
        bytes depend on — with the broadcast shape each one takes
        against the receiving clique.
        """
        order, parent = self._rooted(0 if home is None else home)
        edges = [(i, parent[i]) for i in reversed(order)
                 if parent[i] is not None]        # collect: leaves first
        if home is None:                          # distribute: root first
            edges += [(parent[j], j) for j in order if parent[j] is not None]
        slot = {edge: s for s, edge in enumerate(edges)}
        seps = {(i, j): sep for i in self._neighbors
                for j, sep in self._neighbors[i]}

        def inbound(i: int, skip: Optional[int]) -> _Inbound:
            into = self._clique_names[i]
            return tuple(
                (slot[(k, i)], tuple(self._variables[name].cardinality
                                     if name in seps[(k, i)] else 1
                                     for name in into))
                for k, _ in self._neighbors[i] if k != skip)

        steps = []
        for i, j in edges:
            names = self._clique_names[i]
            sep = seps[(i, j)]
            steps.append((
                i, inbound(i, j),
                tuple(a + 1 for a, name in enumerate(names)
                      if name not in sep),
                tuple(self._variables[name].cardinality
                      for name in names if name in sep)))
        bases, evidence = self._batched_substrate(dtype)
        beliefs = range(len(self.cliques)) if home is None else (home,)
        schedule = _Schedule(
            bases=bases, evidence=evidence, steps=tuple(steps),
            inbound={k: inbound(k, None) for k in beliefs}, root=order[0])
        self._compiled[(home, dtype.name)] = schedule
        return schedule

    def calibrate_batch(self, rows: Sequence[Mapping[str, str]], *,
                        dtype=np.float64,
                        target: Optional[str] = None) -> "BatchedBeliefs":
        """One stacked calibration pass over an evidence matrix.

        Every row of ``rows`` is one evidence assignment; rows with
        *different* evidence signatures ride together.  Evidence enters
        as per-row one-hot likelihoods multiplied into each observed
        variable's home clique, so clique potentials become
        ``(n_rows, *clique shape)`` stacks and the whole matrix moves
        through the tree's compiled message schedule in single
        vectorized passes — no per-row python loop.

        ``target=None`` runs the full collect/distribute pass, after
        which :meth:`BatchedBeliefs.marginal_batch` answers any
        variable.  ``target="name"`` sends only the ``n - 1`` messages
        directed toward ``name``'s home clique (the first clique holding
        it) and materializes only that clique's belief: the returned
        beliefs answer ``marginal_batch`` for variables homed in that
        clique, bitwise equal to the full pass, at half the messages.

        Independent of the incremental scalar state: ``calibrate``'s
        memoized potentials and cached messages are neither read nor
        disturbed.  Unknown evidence variables or states and an unknown
        ``target`` raise before any propagation; any zero-probability
        row raises an :class:`~repro.errors.InferenceError` carrying
        ``row_index``.  Every call allocates its own buffers, so forked
        twins may calibrate concurrently.
        """
        n = len(rows)
        if n == 0:
            raise InferenceError(
                "calibrate_batch needs at least one evidence row")
        observed: Dict[str, List[int]] = {}
        for r, row in enumerate(rows):
            for name, state in row.items():
                variable = self._variables.get(name)
                if variable is None:
                    raise InferenceError(
                        f"evidence variable {name!r} unknown")
                states = observed.get(name)
                if states is None:  # free rows pick the all-ones row
                    states = observed[name] = [variable.cardinality] * n
                states[r] = variable.index_of(state)
        home = None
        if target is not None:
            home = self._home.get(target)
            if home is None:
                raise InferenceError(
                    f"variable {target!r} not found in any clique")
        dtype = np.dtype(dtype)
        schedule = self._compiled.get((home, dtype.name))
        if schedule is None:  # racing twins may both compile; equal results
            schedule = self._compile(home, dtype)
        bases = schedule.bases

        potentials: List[Optional[np.ndarray]] = [None] * len(bases)
        for name in sorted(observed):
            k, shape, likelihoods = schedule.evidence[name]
            pot = potentials[k]
            if pot is None:
                pot = potentials[k] = np.empty((n,) + bases[k].shape, dtype)
                pot[...] = bases[k]
            pot *= likelihoods[observed[name]].reshape((n,) + shape)

        messages: List[np.ndarray] = []
        for i, inbound, axes, kept in schedule.steps:
            acc = _accumulate(bases[i], potentials[i], inbound, messages, n)
            out = np.empty((n,) + kept, dtype)
            acc.sum(axis=axes, out=out)
            messages.append(out)

        beliefs = BatchedBeliefs(self, schedule, potentials, messages, n)
        _check_rows(beliefs.partition())
        return beliefs

    def _invalidate(self) -> None:
        """Drop all incremental state; the next calibrate is from scratch."""
        n = len(self.cliques)
        self._potentials = [None] * n
        self._pot_keys = [None] * n
        self._clique_scalars = [1.0] * n
        self._messages = {}
        self._beliefs = [None] * n
        self._evidence = {}
        self._log_partition = None
        self._ready = False

    def _belief(self, i: int) -> Factor:
        """Clique ``i``'s (unnormalized) belief, materialized on demand."""
        belief = self._beliefs[i]
        if belief is None:
            inbound = [self._messages[(j, i)] for j, _ in self._neighbors[i]]
            belief = self._combine(self._potentials[i], inbound)
            self._beliefs[i] = belief
        return belief

    def _dfs_order(self, root: int) -> List[int]:
        order: List[int] = []
        seen = {root}
        stack = [root]
        while stack:
            i = stack.pop()
            order.append(i)
            for j, _ in self._neighbors[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(order) != len(self.cliques):
            raise InferenceError(
                "junction tree is disconnected — network factors do not share "
                "variables; query the components separately")
        return order

    # -- queries ----------------------------------------------------------------

    def marginal(self, name: str) -> Dict[str, float]:
        """Posterior marginal of one variable under the calibrated evidence."""
        if not self._ready:
            raise InferenceError("call calibrate() before querying")
        if name in self._evidence:
            return {s: (1.0 if s == self._evidence[name] else 0.0)
                    for s in self._variables[name].states}
        if name not in self._home:
            raise InferenceError(f"variable {name!r} not found in any clique")
        belief = self._belief(self._home[name])
        drop = set(belief.names) - {name}
        return belief.marginalize(drop).distribution()

    def joint_marginal(self, names: Sequence[str]) -> Factor:
        """Joint posterior of variables that co-occur in one clique."""
        if not self._ready:
            raise InferenceError("call calibrate() before querying")
        wanted = set(names) - set(self._evidence)
        for k, clique in enumerate(self.cliques):
            if wanted <= clique:
                belief = self._belief(k)
                if isinstance(belief, ScalarFactor):
                    continue
                drop = set(belief.names) - wanted
                return belief.marginalize(drop).normalize()
        raise InferenceError(
            f"variables {sorted(wanted)} do not share a clique; use variable "
            "elimination for out-of-clique joints")

    def log_evidence(self) -> float:
        """log P(evidence) from the last calibration."""
        if self._log_partition is None:
            raise InferenceError("call calibrate() before querying")
        return self._log_partition

    @property
    def width(self) -> int:
        """Tree width + 1 = size of the largest clique (cost driver)."""
        return max(len(c) for c in self.cliques)

    @property
    def clique_state_sizes(self) -> List[int]:
        """State-space size (product of cardinalities) of each clique.

        Their sum is the table volume one calibration sweeps — the
        per-item cost driver parallel sharding balances on (DESIGN §14).
        """
        sizes: List[int] = []
        for clique in self.cliques:
            size = 1
            for name in clique:
                size *= len(self._variables[name].states)
            sizes.append(size)
        return sizes

    def __repr__(self) -> str:
        return (f"JunctionTree(cliques={len(self.cliques)}, "
                f"max_clique={self.width})")


class _Schedule(NamedTuple):
    """One compiled stacked-calibration schedule (per home clique, dtype).

    ``steps`` are ``(source clique, inbound, sum axes, kept shape)``
    records; step ``s`` writes message slot ``s``.  ``inbound`` entries
    are ``(slot, broadcast shape)`` pairs in ``_neighbors`` order.
    ``evidence`` maps each variable to its home clique, its one-hot
    broadcast shape against that clique and its likelihood table.
    """

    bases: List[np.ndarray]
    evidence: _Evidence
    steps: Tuple[Tuple[int, _Inbound, Tuple[int, ...], Tuple[int, ...]], ...]
    #: Clique -> inbound slots, for every belief this schedule serves.
    inbound: Dict[int, _Inbound]
    #: The clique whose belief prices each row's evidence.
    root: int


def _accumulate(base: np.ndarray, potential: Optional[np.ndarray],
                inbound: _Inbound, messages: List[np.ndarray],
                n: int) -> np.ndarray:
    """A clique's ``(n, *shape)`` potential stack times its inbound messages.

    The product lands in a private C-order copy (batch axis outermost,
    so each row's later reductions accumulate in the same order for any
    ``n``).  With nothing to multiply, the potential itself is returned:
    the evidence-multiplied stack, or a zero-stride view of the shared
    base — the layout ``np.broadcast_to`` gives, which fixes the order
    the caller's sums accumulate in (DESIGN §12).  Callers only read the
    result.
    """
    if inbound:
        acc = np.empty((n,) + base.shape, base.dtype)
        acc[...] = base if potential is None else potential
        for slot, shape in inbound:
            acc *= messages[slot].reshape((n,) + shape)
        return acc
    if potential is None:
        return np.ndarray((n,) + base.shape, base.dtype, base, 0,
                          (0,) + base.strides)
    return potential


def _check_rows(z: np.ndarray) -> None:
    """Raise for the first row whose evidence mass ``z`` is not positive;
    the :class:`~repro.errors.InferenceError` carries its ``row_index``."""
    bad = np.flatnonzero(~(z > 0.0))
    if bad.size:
        exc = InferenceError(
            f"evidence row {int(bad[0])} has probability 0 under the model")
        exc.row_index = int(bad[0])
        raise exc


class BatchedBeliefs:
    """Calibrated stacked clique beliefs for one evidence matrix.

    The query surface of :meth:`JunctionTree.calibrate_batch`: per-row
    posteriors come out as ``(n_rows, cardinality)`` arrays.  Beliefs
    materialize lazily per clique; a target-directed pass serves only
    its target's home clique.
    """

    def __init__(self, tree: JunctionTree, schedule: _Schedule,
                 potentials: List[Optional[np.ndarray]],
                 messages: List[np.ndarray], n_rows: int):
        self._tree = tree
        self._schedule = schedule
        self._potentials = potentials
        self._messages = messages
        self.n_rows = n_rows
        self._beliefs: Dict[int, np.ndarray] = {}
        self._z: Optional[np.ndarray] = None

    def _belief(self, k: int) -> np.ndarray:
        belief = self._beliefs.get(k)
        if belief is None:
            inbound = self._schedule.inbound.get(k)
            if inbound is None:
                raise InferenceError(
                    f"clique {k} is not calibrated by this target-directed "
                    "pass; calibrate toward its variables instead")
            belief = _accumulate(self._schedule.bases[k],
                                 self._potentials[k], inbound,
                                 self._messages, self.n_rows)
            self._beliefs[k] = belief
        return belief

    def partition(self) -> np.ndarray:
        """Per-row evidence mass: the ``(n_rows,)`` Z vector."""
        if self._z is None:
            belief = self._belief(self._schedule.root)
            self._z = belief.sum(axis=tuple(range(1, belief.ndim)))
        return self._z

    def marginal_batch(self, name: str) -> np.ndarray:
        """Normalized posterior rows for one variable: ``(n_rows, card)``.

        Rows where ``name`` was itself observed come out as exact
        one-hot vectors — the indicator encoding zeroes every other
        state bitwise, so no per-row special-casing is needed.
        """
        k = self._tree._home.get(name)
        if k is None:
            raise InferenceError(f"variable {name!r} not found in any clique")
        belief = self._belief(k)
        axes = tuple(a + 1 for a, other in
                     enumerate(self._tree._clique_names[k]) if other != name)
        marg = belief.sum(axis=axes) if axes else belief.copy()
        z = marg.sum(axis=1)
        _check_rows(z)
        return marg / z[:, None]

    def __repr__(self) -> str:
        return (f"BatchedBeliefs(rows={self.n_rows}, "
                f"cliques={len(self._potentials)})")
