"""Vectorized sampling kernels over integer state-index matrices.

The seed estimators in :mod:`repro.bayesnet.inference.sampling` drew one
sample at a time in a Python loop — every draw paid dict construction,
string keying and a ``rng.choice`` call.  :class:`CompiledSampler`
compiles a network once into flat numpy artifacts and then operates on
``n × |V|`` integer matrices:

- each variable owns one column of state **indices** (its position in the
  network's topological order);
- each CPT is reshaped to a ``(n_parent_configs, cardinality)`` row
  matrix plus its cumulative form; a parent configuration is located by a
  stride dot product over the parent columns;
- categorical draws are batched inverse-CDF lookups
  (``(u[:, None] < cum_rows).argmax(axis=1)``) — one vectorized
  operation per node per batch instead of one ``rng.choice`` per sample.

The public estimators stay dict-in/dict-out thin adapters in
``sampling.py``; this module is the engine room.  Mirroring
:class:`~repro.bayesnet.engine.CompiledNetwork`, a sampler snapshot is
keyed to the network's mutation counter via :attr:`version` so cached
handles can detect staleness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import InferenceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.bayesnet.network import BayesianNetwork

#: Parallel Gibbs chains run per query (each burned in independently).
DEFAULT_GIBBS_CHAINS = 32


class _NodePlan:
    """Flat per-node artifacts: parent columns, strides, CPT row tables."""

    __slots__ = ("name", "column", "cardinality", "parent_columns",
                 "strides", "probs", "cum")

    def __init__(self, name: str, column: int, cardinality: int,
                 parent_columns: np.ndarray, strides: np.ndarray,
                 probs: np.ndarray):
        self.name = name
        self.column = column
        self.cardinality = cardinality
        self.parent_columns = parent_columns   # (k,) intp
        self.strides = strides                 # (k,) int64
        self.probs = probs                     # (n_configs, cardinality)
        cum = np.cumsum(probs, axis=1)
        cum[:, -1] = 1.0  # guard against float drift: u < 1.0 always lands
        self.cum = cum

    def configs(self, matrix: np.ndarray) -> np.ndarray:
        """Flattened parent-configuration index per row of ``matrix``."""
        if self.parent_columns.size == 0:
            return np.zeros(matrix.shape[0], dtype=np.int64)
        return (matrix[:, self.parent_columns] * self.strides).sum(axis=1)


class CompiledSampler:
    """A Bayesian network compiled for batched sampling.

    Immutable snapshot of the network at construction time; compare
    :attr:`version` against ``network.version`` to detect staleness (the
    cached handle in :meth:`BayesianNetwork.sampler` does exactly that).
    """

    def __init__(self, network: "BayesianNetwork"):
        network.validate()
        self._network = network
        self._version = network.version
        self.order: List[str] = list(network.dag.topological_order())
        self._columns: Dict[str, int] = {name: j
                                         for j, name in enumerate(self.order)}
        self.variables = [network.variable(name) for name in self.order]

        self._plans: List[_NodePlan] = []
        for column, name in enumerate(self.order):
            cpt = network.cpt(name)
            cards = [p.cardinality for p in cpt.parents]
            strides = np.ones(len(cards), dtype=np.int64)
            for i in range(len(cards) - 2, -1, -1):
                strides[i] = strides[i + 1] * cards[i + 1]
            parent_columns = np.array(
                [self._columns[p] for p in cpt.parent_names], dtype=np.intp)
            probs = np.ascontiguousarray(
                cpt.table.reshape(-1, cpt.child.cardinality))
            self._plans.append(_NodePlan(name, column,
                                         cpt.child.cardinality,
                                         parent_columns, strides, probs))

        # child links for Gibbs full conditionals: for each node, the
        # plans of its children plus the node's stride within each child's
        # parent configuration (column order => deterministic sweeps).
        self._children: List[List[Tuple[_NodePlan, int]]] = []
        for column, name in enumerate(self.order):
            links: List[Tuple[_NodePlan, int]] = []
            for child in sorted(network.dag.children(name),
                                key=self._columns.__getitem__):
                plan = self._plans[self._columns[child]]
                position = list(
                    network.cpt(child).parent_names).index(name)
                links.append((plan, int(plan.strides[position])))
            self._children.append(links)

    # -- identity ---------------------------------------------------------------

    @property
    def network(self) -> "BayesianNetwork":
        return self._network

    @property
    def version(self) -> int:
        """The network mutation count this sampler was compiled against."""
        return self._version

    def column(self, name: str) -> int:
        try:
            return self._columns[name]
        except KeyError:
            raise InferenceError(f"unknown variable {name!r}") from None

    def state_index(self, name: str, state: str) -> int:
        var = self.variables[self.column(name)]
        try:
            return var.index_of(state)
        except Exception as exc:
            raise InferenceError(
                f"unknown state {state!r} for variable {name!r}") from exc

    def evidence_columns(self, evidence: Mapping[str, str]) -> Dict[int, int]:
        """Evidence as {column: state index}, validated."""
        return {self.column(name): self.state_index(name, state)
                for name, state in evidence.items()}

    # -- kernels ----------------------------------------------------------------

    def _forward(self, rng: np.random.Generator, n: int,
                 clamp: Optional[Dict[int, int]] = None,
                 weighted: bool = False
                 ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Ancestral sampling of ``n`` rows, topological column order.

        ``clamp`` pins columns to fixed state indices (evidence); with
        ``weighted`` the likelihood-weighting weights — the product of
        each clamped node's probability given its sampled parents — come
        back alongside the matrix.
        """
        if n <= 0:
            raise InferenceError("n must be positive")
        clamp = clamp or {}
        matrix = np.zeros((n, len(self.order)), dtype=np.int64)
        weights = np.ones(n) if weighted else None
        for plan in self._plans:
            configs = plan.configs(matrix)
            pinned = clamp.get(plan.column)
            if pinned is not None:
                matrix[:, plan.column] = pinned
                if weighted:
                    weights *= plan.probs[configs, pinned]
            else:
                u = rng.random(n)
                matrix[:, plan.column] = (
                    u[:, None] < plan.cum[configs]).argmax(axis=1)
        return matrix, weights

    def forward_matrix(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` joint samples as an ``(n, |V|)`` state-index matrix."""
        matrix, _ = self._forward(rng, n)
        return matrix

    def likelihood_matrix(self, rng: np.random.Generator,
                          evidence: Mapping[str, str],
                          n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Likelihood-weighted samples: (state matrix, weight vector)."""
        clamp = self.evidence_columns(evidence)
        matrix, weights = self._forward(rng, n, clamp=clamp, weighted=True)
        return matrix, weights

    def decode_rows(self, matrix: np.ndarray) -> List[Dict[str, str]]:
        """State-index rows back to the historical list-of-dicts form."""
        columns = [np.asarray(var.states, dtype=object)[matrix[:, j]]
                   for j, var in enumerate(self.variables)]
        return [dict(zip(self.order, row)) for row in zip(*columns)]

    def rejection_counts(self, rng: np.random.Generator, query: str,
                         evidence: Mapping[str, str],
                         n: int) -> Tuple[np.ndarray, int]:
        """Accepted-state counts for the query column, streamed.

        Returns ``(counts, accepted)`` where ``counts[i]`` is the number
        of evidence-consistent samples with query state ``i`` — no
        per-sample dicts are ever materialized.
        """
        clamp = self.evidence_columns(evidence)
        qcol = self.column(query)
        matrix = self.forward_matrix(rng, n)
        mask = np.ones(n, dtype=bool)
        for column, index in clamp.items():
            mask &= matrix[:, column] == index
        accepted = int(mask.sum())
        counts = np.bincount(matrix[mask, qcol],
                             minlength=self.variables[qcol].cardinality)
        return counts, accepted

    def weighted_counts(self, rng: np.random.Generator, query: str,
                        evidence: Mapping[str, str],
                        n: int) -> Tuple[np.ndarray, float]:
        """Likelihood-weighting totals per query state, plus weight sum."""
        qcol = self.column(query)
        matrix, weights = self.likelihood_matrix(rng, evidence, n)
        totals = np.bincount(matrix[:, qcol], weights=weights,
                             minlength=self.variables[qcol].cardinality)
        return totals, float(weights.sum())

    # -- Gibbs ------------------------------------------------------------------

    def gibbs_counts(self, rng: np.random.Generator, query: str,
                     evidence: Mapping[str, str], n: int,
                     burn_in: int = 100, thin: int = 1,
                     n_chains: int = DEFAULT_GIBBS_CHAINS
                     ) -> Tuple[np.ndarray, int]:
        """Kept-state counts from ``n_chains`` vectorized Gibbs chains.

        All chains advance in lockstep: one sweep updates every free
        variable across every chain with batched full-conditional draws.
        Preserves the seed semantics callers rely on — an all-zero full
        conditional raises, and a chain frozen by deterministic CPT
        structure (every conditional a point mass at every sweep) raises
        instead of silently reporting one forward sample.
        """
        clamp = self.evidence_columns(evidence)
        qcol = self.column(query)
        free = [plan for plan in self._plans if plan.column not in clamp]
        m = max(1, min(int(n_chains), n))
        keeps = -(-n // m)  # ceil: kept samples total m * keeps >= n

        matrix, _ = self._forward(rng, m, clamp=clamp)
        counts = np.zeros(self.variables[qcol].cardinality, dtype=np.int64)
        kept = 0
        ever_stochastic = False
        total_sweeps = burn_in + keeps * thin
        for sweep in range(total_sweeps):
            for plan in free:
                scores = np.empty((m, plan.cardinality))
                own_configs = plan.configs(matrix)
                bases = []
                for child, stride in self._children[plan.column]:
                    base = (child.configs(matrix)
                            - matrix[:, plan.column] * stride)
                    bases.append((child, stride, base))
                for s in range(plan.cardinality):
                    score = plan.probs[own_configs, s].copy()
                    for child, stride, base in bases:
                        score *= child.probs[base + s * stride,
                                             matrix[:, child.column]]
                    scores[:, s] = score
                totals = scores.sum(axis=1)
                if np.any(totals <= 0.0):
                    raise InferenceError(
                        f"Gibbs conditional for {plan.name!r} is all-zero — "
                        "deterministic structure blocks the chain; use "
                        "exact inference")
                probs = scores / totals[:, None]
                if np.any(probs.max(axis=1) < 1.0 - 1e-12):
                    ever_stochastic = True
                cum = np.cumsum(probs, axis=1)
                cum[:, -1] = 1.0
                u = rng.random(m)
                matrix[:, plan.column] = (u[:, None] < cum).argmax(axis=1)
            if sweep >= burn_in and (sweep - burn_in) % thin == 0:
                counts += np.bincount(
                    matrix[:, qcol],
                    minlength=self.variables[qcol].cardinality)
                kept += m
        if not ever_stochastic and len(free) > 1:
            # Every full conditional was a point mass at every sweep: the
            # chains are frozen at their initialization by deterministic
            # couplings and the counts reflect forward samples, not the
            # posterior.
            raise InferenceError(
                "Gibbs chain is frozen by deterministic CPT structure "
                "(every full conditional was a point mass); use exact "
                "inference")
        return counts, kept

    def __repr__(self) -> str:
        return (f"CompiledSampler({self._network.name!r}, "
                f"nodes={len(self.order)}, version={self._version})")
