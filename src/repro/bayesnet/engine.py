"""Compiled inference engine: cached query plans and batched evidence sweeps.

Every analysis layer built on the paper's §V-B Bayesian network — removal
sweeps, sensitivity tornados, value-of-information rankings, robustness
campaigns — issues thousands of near-identical posterior queries.  The
naive path recompiles everything per call: validate the DAG, convert every
CPT to a factor, rebuild the interaction graph, rerun min-fill.  This
module compiles a network **once** and reuses the artifacts:

- **factor cache** — CPT→factor conversion done once per parameter
  version;
- **plan cache** — deterministic min-fill elimination orders keyed by
  (targets, evidence-variable signature); an order is valid for *any*
  evidence states over the same variables, so sweeps hit the cache;
- **junction-tree reuse** — one compiled clique tree recalibrated per
  evidence set, with calibrated marginals memoized;
- **batched sweeps** — :meth:`CompiledNetwork.query_batch` eliminates down
  to one joint factor over (targets ∪ evidence variables) and answers all
  evidence rows with a single vectorized numpy gather.

Caches are guarded by a structure fingerprint plus a parameter version:
``replace_cpt`` keeps the plans (structure unchanged), ``add_cpt`` or an
edge change drops them.  An :class:`EngineStats` block records what the
engine actually did — query counts, plan hits/misses, compile vs execute
wall time — so campaign evidence can cite it.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import (TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Tuple, Union)

import numpy as np

try:  # Protocol is typing-native from 3.8 on
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - py<3.8 fallback, unsupported
    Protocol = object

    def runtime_checkable(cls):
        return cls

from repro.bayesnet.factor import Factor, ScalarFactor
from repro.bayesnet.graph import min_fill_elimination_order
from repro.bayesnet.inference.junction_tree import JunctionTree
from repro.bayesnet.inference.variable_elimination import (
    evidence_probability,
    variable_elimination,
)
from repro.bayesnet.variable import Variable
from repro.errors import EngineError, InferenceError
from repro.telemetry.metrics import (
    ENGINE_BATCH_ROWS,
    ENGINE_EVIDENCE_CACHE_REQUESTS,
    ENGINE_JT_MESSAGES,
    ENGINE_PLAN_REQUESTS,
    ENGINE_QUERIES,
    ENGINE_QUERY_SECONDS,
    ENGINE_RECOMPILES,
)
from repro.telemetry import tracing as _tracing
from repro.telemetry.tracing import active as _trace_active

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.bayesnet.network import BayesianNetwork

#: Joint tables larger than this (entries) make query_batch fall back to
#: per-row elimination instead of materializing the gather table.
MAX_BATCH_TABLE_ENTRIES = 1 << 22

#: Calibrated-marginal memo entries kept per engine (small LRU).
MARGINAL_CACHE_SIZE = 128

#: Default capacity of the evidence-keyed posterior LRU (per engine).
DEFAULT_EVIDENCE_CACHE_SIZE = 1024

#: Cache-miss sentinel: ``probability_of_evidence`` can legitimately
#: cache 0.0, so absence cannot be signalled by a falsy value.
_MISS = object()

#: Accepted ``batch_dtype`` values for the stacked-calibration substrate.
BATCH_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass
class EngineStats:
    """What an engine actually did — exported into campaign evidence."""

    queries: int = 0
    batch_queries: int = 0
    batch_rows: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    evidence_cache_hits: int = 0
    evidence_cache_misses: int = 0
    messages_recomputed: int = 0
    messages_total: int = 0
    recompiles: int = 0
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0

    #: Snapshot keys whose values are wall-clock measurements and hence
    #: not reproducible run to run; deterministic exports drop them.
    TIMING_FIELDS = ("compile_seconds", "execute_seconds")

    @property
    def plan_hit_rate(self) -> float:
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0

    @property
    def evidence_cache_hit_rate(self) -> float:
        total = self.evidence_cache_hits + self.evidence_cache_misses
        return self.evidence_cache_hits / total if total else 0.0

    def snapshot(self, *, include_timings: bool = True) -> Dict[str, float]:
        """Plain-dict copy (report/dossier friendly).

        Keys are emitted in sorted (alphabetical) order so serialized
        exports are byte-stable; ``include_timings=False`` additionally
        drops the wall-clock fields, leaving only values that are
        deterministic for a seeded run.
        """
        out = dict(asdict(self))
        out["plan_hit_rate"] = self.plan_hit_rate
        out["evidence_cache_hit_rate"] = self.evidence_cache_hit_rate
        if not include_timings:
            for key in self.TIMING_FIELDS:
                out.pop(key, None)
        return {key: out[key] for key in sorted(out)}

    def reset(self) -> None:
        self.__init__()


@runtime_checkable
class InferenceEngine(Protocol):
    """The single seam every inference consumer talks to.

    Implementations answer posterior queries over one Bayesian network and
    expose :class:`EngineStats` describing the work performed.
    """

    def query(self, target: str,
              evidence: Optional[Mapping[str, str]] = None
              ) -> Dict[str, float]:
        """Posterior marginal P(target | evidence)."""
        ...

    def joint_query(self, targets: Sequence[str],
                    evidence: Optional[Mapping[str, str]] = None) -> Factor:
        """Joint posterior factor over several targets."""
        ...

    def marginals(self, evidence: Optional[Mapping[str, str]] = None
                  ) -> Dict[str, Dict[str, float]]:
        """All posterior marginals under one evidence set."""
        ...

    def probability_of_evidence(self, evidence: Mapping[str, str]) -> float:
        """P(evidence) — the normalizing constant."""
        ...

    def query_batch(self, targets: Union[str, Sequence[str]],
                    evidence_rows: Sequence[Mapping[str, str]]
                    ) -> List:
        """Posteriors for many evidence rows over one compiled plan."""
        ...

    @property
    def stats(self) -> EngineStats:
        ...


def structure_fingerprint(network: "BayesianNetwork") -> str:
    """Hash of the network's *structure*: nodes, state sets, parent sets.

    CPT values are deliberately excluded — elimination orders and clique
    trees depend only on structure, so parameter edits (``replace_cpt``)
    keep the plan cache warm.
    """
    h = hashlib.sha256()
    for name in sorted(network.dag.nodes):
        cpt = network.cpt(name)
        h.update(name.encode())
        h.update(b"\x00")
        h.update("\x1f".join(cpt.child.states).encode())
        h.update(b"\x00")
        h.update("\x1f".join(sorted(cpt.parent_names)).encode())
        h.update(b"\x01")
    return h.hexdigest()


class CompiledNetwork:
    """:class:`InferenceEngine` that compiles once and reuses everything.

    Example::

        engine = CompiledNetwork(build_fig4_network())
        rows = [{"perception": o} for o in outputs] * 100
        posteriors = engine.query_batch("ground_truth", rows)
        engine.stats.plan_hit_rate   # ~1.0 after the first sweep

    ``cache_size`` bounds the evidence-keyed posterior LRU shared by
    ``query``/``marginals``/``probability_of_evidence``/``query_batch``
    (``None`` → :data:`DEFAULT_EVIDENCE_CACHE_SIZE`; ``0`` disables
    storing while still counting misses, so instrumentation snapshots
    stay comparable with the cache on).

    ``batch_dtype`` selects the float width of the stacked-calibration
    substrate behind ``query_batch`` (and the scalar fallback sharing
    its kernels).  ``"float64"`` (default) is byte-identical to the
    scalar path; ``"float32"`` halves memory traffic at ~1e-6 absolute
    posterior tolerance (see DESIGN §12).
    """

    def __init__(self, network: "BayesianNetwork",
                 cache_size: Optional[int] = None,
                 batch_dtype: str = "float64"):
        if cache_size is None:
            cache_size = DEFAULT_EVIDENCE_CACHE_SIZE
        cache_size = int(cache_size)
        if cache_size < 0:
            raise EngineError(
                f"cache_size must be non-negative, got {cache_size}")
        if batch_dtype not in BATCH_DTYPES:
            raise EngineError(
                f"batch_dtype must be one of {sorted(BATCH_DTYPES)}, "
                f"got {batch_dtype!r}")
        self._network = network
        self._cache_size = cache_size
        self._batch_dtype = BATCH_DTYPES[batch_dtype]
        self._stats = EngineStats()
        self._compiled_version: Optional[int] = None
        self._structure_fp: Optional[str] = None
        self._factors: List[Factor] = []
        self._variables: Dict[str, Variable] = {}
        self._plans: Dict[Tuple[FrozenSet[str], FrozenSet[str]],
                          Tuple[str, ...]] = {}
        self._joints: Dict[FrozenSet[str], Factor] = {}
        self._jt: Optional[JunctionTree] = None
        #: Evidence-keyed posterior LRU: key -> cached result.  Keys are
        #: ``(kind, structure_fp, frozenset(evidence.items()), target)``
        #: tuples; values are already-copied, immutable-by-convention
        #: results (dicts are copied again on the way out).
        self._evidence_cache: "OrderedDict[tuple, object]" = OrderedDict()
        #: Lazily created adaptive query planner (persists its calibrated
        #: cost model across queries — see repro.bayesnet.planner).
        self._planner = None

    # -- compilation -----------------------------------------------------------

    @property
    def network(self) -> "BayesianNetwork":
        return self._network

    @property
    def stats(self) -> EngineStats:
        return self._stats

    def _count_plan(self, *, hit: bool) -> None:
        """One plan/joint cache lookup; the per-engine :class:`EngineStats`
        view always counts, the process registry only under telemetry."""
        if hit:
            self._stats.plan_hits += 1
        else:
            self._stats.plan_misses += 1
        if _trace_active() is not None:
            ENGINE_PLAN_REQUESTS.inc(result="hit" if hit else "miss")

    # -- evidence-keyed posterior cache ----------------------------------------

    def _cache_get(self, key: tuple):
        """Look up one evidence-keyed result; counts hit/miss either way.

        A hit also counts as a plan hit — the cached posterior stands in
        for re-executing the compiled plan, exactly like the joint-table
        memo it shortcuts.
        """
        value = self._evidence_cache.get(key, _MISS)
        if value is _MISS:
            self._stats.evidence_cache_misses += 1
            if _trace_active() is not None:
                ENGINE_EVIDENCE_CACHE_REQUESTS.inc(result="miss")
            return _MISS
        self._evidence_cache.move_to_end(key)
        self._stats.evidence_cache_hits += 1
        self._count_plan(hit=True)
        if _trace_active() is not None:
            ENGINE_EVIDENCE_CACHE_REQUESTS.inc(result="hit")
        return value

    def _cache_put(self, key: tuple, value) -> None:
        """Install one computed result; errors are never cached (callers
        only reach here after a successful computation)."""
        if self._cache_size <= 0:
            return
        if key not in self._evidence_cache \
                and len(self._evidence_cache) >= self._cache_size:
            self._evidence_cache.popitem(last=False)
        self._evidence_cache[key] = value
        self._evidence_cache.move_to_end(key)

    def cached_posterior(self, target: str,
                         evidence: Optional[Mapping[str, str]] = None
                         ) -> Optional[Dict[str, float]]:
        """Evidence-cache peek: a scalar posterior if cached, else ``None``.

        Never computes anything and never touches the hit/miss counters —
        this is the serving runtime's cache-tier probe, and counting its
        routine misses would skew the engine's cache statistics.
        """
        self._refresh()
        key = ("query", self._structure_fp,
               frozenset(dict(evidence or {}).items()), target)
        value = self._evidence_cache.get(key, _MISS)
        if value is _MISS:
            return None
        self._evidence_cache.move_to_end(key)
        return dict(value)

    def invalidate(self) -> None:
        """Drop every value-dependent cache (posteriors, joints, tree).

        Structure-dependent artifacts — elimination plans, converted
        factors — survive; they are guarded by the structure fingerprint
        and stay valid.  Use after out-of-band CPT mutation or to bound
        memory between sweeps.
        """
        self._evidence_cache.clear()
        self._joints.clear()
        self._jt = None

    def _note_calibration(self, jt: JunctionTree) -> None:
        """Fold one junction-tree calibration's message work into stats."""
        self._stats.messages_total += jt.last_messages_total
        self._stats.messages_recomputed += jt.last_messages_recomputed
        if _trace_active() is not None:
            if jt.last_messages_recomputed:
                ENGINE_JT_MESSAGES.inc(jt.last_messages_recomputed,
                                       result="recomputed")
            reused = jt.last_messages_total - jt.last_messages_recomputed
            if reused > 0:
                ENGINE_JT_MESSAGES.inc(reused, result="reused")

    def prewarm(self) -> "CompiledNetwork":
        """Compile and calibrate the evidence-free junction tree now.

        After this, :meth:`fork` clones ship an already-calibrated tree,
        so parallel workers start from warm state instead of each paying
        the full first propagation.  Returns ``self`` for chaining.
        """
        self._refresh()
        jt = self._junction_tree()
        jt.calibrate({})
        self._note_calibration(jt)
        return self

    def plan_cost(self) -> float:
        """Total clique state-table volume of the compiled junction tree.

        A structural proxy for the work one calibration (one campaign
        trial, one posterior sweep) performs on this network — the
        clique-width term of the parallel sharder's per-item cost model
        (DESIGN §14).  Deterministic for a given structure, so shard
        cuts derived from it are reproducible.
        """
        self._refresh()
        return float(sum(self._junction_tree().clique_state_sizes))

    def planner(self, *, seed: int = 0, clock=None):
        """The adaptive query planner bound to this engine (created once).

        The planner persists here so its online-calibrated cost model
        (EWMA seconds-per-work-unit per backend × plan fingerprint)
        survives across queries; ``query(..., route=True)`` and
        ``query_batch(..., route=True)`` delegate to it.  ``seed`` and
        ``clock`` only take effect on first creation.
        """
        if self._planner is None:
            from repro.bayesnet.planner import QueryPlanner
            self._planner = QueryPlanner(self, seed=seed, clock=clock)
        return self._planner

    def fork(self) -> "CompiledNetwork":
        """A cache-sharing clone safe to use from another thread.

        The clone shares the immutable compiled artifacts (factors,
        plans, joint tables, cached posteriors — all copied as
        containers, shared as values) and forks the junction tree's
        calibration state; its :class:`EngineStats` start fresh.  The
        clone does not track subsequent mutations of the source network
        deterministically with the original — treat the network as
        read-only while forks are live.
        """
        self._refresh()
        clone = CompiledNetwork.__new__(CompiledNetwork)
        clone._network = self._network
        clone._cache_size = self._cache_size
        clone._batch_dtype = self._batch_dtype
        clone._stats = EngineStats()
        clone._compiled_version = self._compiled_version
        clone._structure_fp = self._structure_fp
        clone._factors = list(self._factors)
        clone._variables = dict(self._variables)
        clone._plans = dict(self._plans)
        clone._joints = dict(self._joints)
        clone._jt = self._jt.fork() if self._jt is not None else None
        clone._evidence_cache = OrderedDict(self._evidence_cache)
        # Planners hold a private RNG and mutable route statistics;
        # each fork builds its own on first use.
        clone._planner = None
        return clone

    def _refresh(self) -> None:
        """Re-sync caches with the network if it mutated since compile."""
        version = self._network.version
        if version == self._compiled_version:
            return
        tracer = _trace_active()
        if tracer is None:
            self._recompile(version)
            return
        with tracer.span("engine.compile", network=self._network.name):
            self._recompile(version)
        ENGINE_RECOMPILES.inc()

    def _recompile(self, version: int) -> None:
        t0 = time.perf_counter()
        self._network.validate()
        fp = structure_fingerprint(self._network)
        if fp != self._structure_fp:
            self._plans.clear()
            self._structure_fp = fp
        self._factors = self._network.factors()
        self._variables = {}
        for f in self._factors:
            for v in f.variables:
                self._variables[v.name] = v
        # Potentials, joints and cached posteriors embed CPT values, so
        # any mutation invalidates them along with the calibrated tree.
        self._joints.clear()
        self._jt = None
        self._evidence_cache.clear()
        self._compiled_version = version
        self._stats.recompiles += 1
        self._stats.compile_seconds += time.perf_counter() - t0

    def _plan(self, keep: FrozenSet[str],
              evidence_names: FrozenSet[str]) -> Tuple[str, ...]:
        """Cached elimination order for one (targets, evidence-vars) shape."""
        key = (keep, evidence_names)
        order = self._plans.get(key)
        if order is not None:
            self._count_plan(hit=True)
            return order
        self._count_plan(hit=False)
        t0 = time.perf_counter()
        adj: Dict[str, set] = {}
        for f in self._factors:
            live = [n for n in f.names if n not in evidence_names]
            for n in live:
                adj.setdefault(n, set())
            for i, a in enumerate(live):
                for b in live[i + 1:]:
                    adj[a].add(b)
                    adj[b].add(a)
        order = tuple(min_fill_elimination_order(adj, keep=keep))
        self._plans[key] = order
        self._stats.compile_seconds += time.perf_counter() - t0
        return order

    def _junction_tree(self) -> JunctionTree:
        if self._jt is None:
            t0 = time.perf_counter()
            self._jt = JunctionTree(self._factors)
            self._stats.compile_seconds += time.perf_counter() - t0
        return self._jt

    def _variable(self, name: str) -> Variable:
        try:
            return self._variables[name]
        except KeyError:
            raise InferenceError(
                f"variable {name!r} not in compiled network") from None

    def _joint_for(self, keep: FrozenSet[str]) -> Optional[Factor]:
        """Cached unnormalized-equivalent joint P(keep) — or None if the
        table would exceed :data:`MAX_BATCH_TABLE_ENTRIES`.

        Because the network's full joint sums to one, eliminating every
        other variable with no evidence applied yields exactly the joint
        distribution over ``keep``; every posterior whose targets and
        evidence variables lie inside ``keep`` is then a slice of this
        table plus a renormalization.
        """
        joint = self._joints.get(keep)
        if joint is not None:
            self._count_plan(hit=True)
            return joint
        entries = 1
        for name in keep:
            entries *= self._variable(name).cardinality
            if entries > MAX_BATCH_TABLE_ENTRIES:
                return None
        order = self._plan(keep, frozenset())
        t0 = time.perf_counter()
        joint = variable_elimination(self._factors, sorted(keep), {},
                                     order=order)
        self._stats.execute_seconds += time.perf_counter() - t0
        if len(self._joints) >= MARGINAL_CACHE_SIZE:
            self._joints.pop(next(iter(self._joints)))
        self._joints[keep] = joint
        return joint

    def _posterior_from_joint(self, joint: Factor, evidence: Dict[str, str]
                              ) -> Factor:
        """Slice a cached joint at the evidence states and renormalize."""
        axis_of = {v.name: i for i, v in enumerate(joint.variables)}
        index: List = [slice(None)] * len(joint.variables)
        keep_vars: List[Variable] = []
        for v in joint.variables:
            state = evidence.get(v.name)
            if state is None:
                keep_vars.append(v)
            else:
                index[axis_of[v.name]] = v.index_of(state)
        table = joint.table[tuple(index)]
        total = float(table.sum())
        if total <= 0.0:
            raise InferenceError(
                f"evidence {evidence!r} has probability 0 under the model — "
                "posterior is undefined")
        return Factor(keep_vars, table / total)

    # -- scalar queries --------------------------------------------------------

    def _check_query(self, targets: Sequence[str],
                     evidence: Mapping[str, str]) -> None:
        overlap = set(targets) & set(evidence)
        if overlap:
            raise InferenceError(
                f"variables {sorted(overlap)} are both queried and observed")
        for name in list(targets) + list(evidence):
            self._variable(name)

    def query(self, target: str,
              evidence: Optional[Mapping[str, str]] = None, *,
              route: bool = False,
              error_budget: Optional[float] = None,
              frozen: bool = False) -> Dict[str, float]:
        # Opt-in adaptive routing: the planner picks the cheapest
        # backend whose predicted error fits the budget (a zero/absent
        # budget admits only exact plans, so the default path's answer
        # bytes are preserved).  ``frozen=True`` prices from structural
        # priors only — deterministic decisions for seeded runs.
        if route or error_budget is not None:
            return self.planner().route(
                target, evidence,
                error_budget=error_budget or 0.0, frozen=frozen).posterior
        # Hot path: one module-global attribute read (no call frame), no
        # telemetry objects built and no copies taken (_query reads the
        # mapping, never mutates).
        tracer = _tracing._active_tracer
        if tracer is None:
            return self._query(target, evidence or {})
        evidence = dict(evidence or {})
        with tracer.span("engine.query", target=target,
                         evidence=",".join(sorted(evidence)) or "none"):
            t0 = time.perf_counter()
            out = self._query(target, evidence)
        ENGINE_QUERIES.inc(kind="scalar")
        ENGINE_QUERY_SECONDS.observe(time.perf_counter() - t0, kind="scalar")
        return out

    def _query(self, target: str,
               evidence: Mapping[str, str]) -> Dict[str, float]:
        self._refresh()
        self._stats.queries += 1
        self._check_query([target], evidence)
        key = ("query", self._structure_fp, frozenset(evidence.items()),
               target)
        cached = self._cache_get(key)
        if cached is not _MISS:
            return dict(cached)
        keep = frozenset([target]) | frozenset(evidence)
        joint = self._joint_for(keep)
        t0 = time.perf_counter()
        if joint is not None:
            # Fast path: the cached joint slices straight to a 1-D posterior
            # vector — no factor objects, one normalization.
            index = tuple(v.index_of(evidence[v.name])
                          if v.name in evidence else slice(None)
                          for v in joint.variables)
            table = joint.table[index]
            total = float(table.sum())
            if total <= 0.0:
                raise InferenceError(
                    f"evidence {evidence!r} has probability 0 under the "
                    "model — posterior is undefined")
            states = self._variable(target).states
            out = {s: float(table[j]) / total for j, s in enumerate(states)}
            self._stats.execute_seconds += time.perf_counter() - t0
        else:
            # Joint too large to materialize: a 1-row, target-directed
            # pass through the stacked-calibration substrate — the same
            # kernels query_batch runs, so batched and scalar answers
            # stay byte-identical at float64 (batch-invariance of the
            # row-wise numpy reductions).
            self._count_plan(hit=self._jt is not None)
            jt = self._junction_tree()
            try:
                beliefs = jt.calibrate_batch([evidence],
                                             dtype=self._batch_dtype,
                                             target=target)
                vec = beliefs.marginal_batch(target)[0]
            except InferenceError as exc:
                if getattr(exc, "row_index", None) is not None:
                    raise InferenceError(
                        f"evidence {dict(evidence)!r} has probability 0 "
                        "under the model — posterior is undefined"
                    ) from None
                raise
            out = {s: float(vec[j])
                   for j, s in enumerate(self._variable(target).states)}
            self._stats.execute_seconds += time.perf_counter() - t0
        self._cache_put(key, dict(out))
        return out

    def joint_query(self, targets: Sequence[str],
                    evidence: Optional[Mapping[str, str]] = None) -> Factor:
        targets = list(targets)
        evidence = dict(evidence or {})
        self._refresh()
        self._stats.queries += 1
        if not targets:
            raise InferenceError("query must name at least one variable")
        self._check_query(targets, evidence)
        keep = frozenset(targets) | frozenset(evidence)
        joint = self._joint_for(keep)
        t0 = time.perf_counter()
        if joint is not None:
            factor = self._posterior_from_joint(joint, evidence)
        else:
            order = self._plan(frozenset(targets), frozenset(evidence))
            factor = variable_elimination(self._factors, targets, evidence,
                                          order=order)
        self._stats.execute_seconds += time.perf_counter() - t0
        return factor

    def probability_of_evidence(self, evidence: Mapping[str, str]) -> float:
        evidence = dict(evidence)
        self._refresh()
        self._stats.queries += 1
        if not evidence:
            return 1.0
        self._check_query([], evidence)
        key = ("z", self._structure_fp, frozenset(evidence.items()))
        cached = self._cache_get(key)
        if cached is not _MISS:
            return cached
        joint = self._joint_for(frozenset(evidence))
        t0 = time.perf_counter()
        if joint is not None:
            index = tuple(v.index_of(evidence[v.name])
                          for v in joint.variables)
            p = float(joint.table[index])
        else:
            order = self._plan(frozenset(), frozenset(evidence))
            p = evidence_probability(self._factors, evidence, order=order)
        self._stats.execute_seconds += time.perf_counter() - t0
        self._cache_put(key, p)
        return p

    def marginals(self, evidence: Optional[Mapping[str, str]] = None
                  ) -> Dict[str, Dict[str, float]]:
        """All posterior marginals via the cached junction tree.

        The compiled tree recalibrates incrementally across evidence
        sets (only messages behind changed evidence re-propagate);
        calibrated results are additionally memoized in the
        evidence-keyed posterior cache.
        """
        tracer = _trace_active()
        if tracer is None:
            return self._marginals(evidence or {})
        evidence = dict(evidence or {})
        with tracer.span("engine.marginals",
                         evidence=",".join(sorted(evidence)) or "none"):
            t0 = time.perf_counter()
            out = self._marginals(evidence)
        ENGINE_QUERIES.inc(kind="marginals")
        ENGINE_QUERY_SECONDS.observe(time.perf_counter() - t0,
                                     kind="marginals")
        return out

    def _marginals(self, evidence: Mapping[str, str]
                   ) -> Dict[str, Dict[str, float]]:
        self._refresh()
        self._stats.queries += 1
        key = ("marginals", self._structure_fp,
               frozenset(evidence.items()))
        cached = self._cache_get(key)
        if cached is not _MISS:
            return {n: dict(d) for n, d in cached.items()}
        jt = self._junction_tree()
        t0 = time.perf_counter()
        jt.calibrate(evidence)
        self._note_calibration(jt)
        out = {name: jt.marginal(name) for name in self._network.dag.nodes}
        self._stats.execute_seconds += time.perf_counter() - t0
        self._cache_put(key, {n: dict(d) for n, d in out.items()})
        return out

    # -- batched sweeps --------------------------------------------------------

    def query_batch(self, targets: Union[str, Sequence[str]],
                    evidence_rows: Sequence[Mapping[str, str]], *,
                    route: bool = False,
                    error_budget: Optional[float] = None,
                    frozen: bool = False) -> List:
        """Posteriors for every evidence row, vectorized over one plan.

        Rows are grouped by evidence-variable signature; per group the
        engine eliminates down to a single joint factor over
        (targets ∪ evidence variables), then answers all rows in that
        group with one numpy gather + renormalize.  A row whose evidence
        has probability zero raises :class:`InferenceError`, matching the
        scalar path.

        Returns one ``{state: p}`` dict per row for a single target name,
        or one normalized :class:`Factor` per row for a target list.

        ``route=True`` / ``error_budget=`` hand the block to the
        planner's :meth:`~repro.bayesnet.planner.QueryPlanner.route_batch`
        (single-target only): the batched stacked substrate competes
        with per-row sampling under the budget.
        """
        single = isinstance(targets, str)
        if route or error_budget is not None:
            if not single:
                raise InferenceError(
                    "routed query_batch supports a single target name")
            answers = self.planner().route_batch(
                targets, evidence_rows, error_budget=error_budget or 0.0,
                frozen=frozen)
            return [a.posterior for a in answers]
        target_list = [targets] if single else list(targets)
        if not target_list:
            raise InferenceError("query_batch needs at least one target")
        rows = [dict(r) for r in evidence_rows]
        # Per-batch, not per-query, so recorded unconditionally: the
        # serving `/metrics` surface shows batch throughput even without
        # an active tracing session.
        ENGINE_BATCH_ROWS.inc(len(rows), engine="compiled")
        tracer = _trace_active()
        if tracer is None:
            return self._query_batch(target_list, rows, single)
        with tracer.span("engine.query_batch",
                         targets=",".join(target_list), rows=len(rows)):
            t0 = time.perf_counter()
            out = self._query_batch(target_list, rows, single)
        ENGINE_QUERIES.inc(kind="batch")
        ENGINE_QUERY_SECONDS.observe(time.perf_counter() - t0, kind="batch")
        return out

    def _query_batch(self, target_list: List[str],
                     rows: List[Dict[str, str]], single: bool) -> List:
        self._refresh()
        self._stats.batch_queries += 1
        self._stats.batch_rows += len(rows)

        target_vars = [self._variable(t) for t in target_list]
        results: List = [None] * len(rows)
        if single:
            self._batch_single(target_list[0], target_vars[0], rows, results)
            return results
        groups: Dict[FrozenSet[str], List[int]] = {}
        for i in range(len(rows)):
            groups.setdefault(frozenset(rows[i]), []).append(i)
        for signature in sorted(groups, key=lambda s: tuple(sorted(s))):
            indices = sorted(
                groups[signature],
                key=lambda i: tuple(sorted(rows[i].items())))
            self._check_query(target_list, dict.fromkeys(signature, ""))
            self._batch_group(target_list, target_vars, sorted(signature),
                              [rows[i] for i in indices], indices, results)
        return results

    def _batch_single(self, target: str, target_var: Variable,
                      rows: List[Dict[str, str]], results: List) -> None:
        """Single-target batch: each distinct evidence row computed once.

        Rows are deduplicated by evidence assignment, so a sweep that
        repeats a handful of configurations pays one posterior-cache
        lookup and one computation per *unique* row, then fans the
        answers back out as fresh dicts.  Unique rows missing from the
        cache are grouped by evidence-variable signature: groups whose
        (target ∪ evidence) joint fits the table budget are answered by
        the vectorized gather; every remaining row — across signatures —
        is pushed through ONE stacked junction-tree calibration
        (:meth:`JunctionTree.calibrate_batch`), the same kernels the
        scalar no-joint path runs, so batched posteriors stay
        byte-identical to per-row queries at float64.
        """
        keys = [frozenset(r.items()) for r in rows]
        first: Dict[FrozenSet, int] = {}
        for i, k in enumerate(keys):
            first.setdefault(k, i)
        unique_out: Dict[FrozenSet, Dict[str, float]] = {}
        pending: List[int] = []        # first-occurrence row indices
        for k, i in first.items():
            cached = self._cache_get(
                ("query", self._structure_fp, k, target))
            if cached is _MISS:
                pending.append(i)
            else:
                unique_out[k] = cached
        # Deterministic order: signature first, assignment second — the
        # evidence-similarity sort the incremental path relied on, kept
        # so results and stacked-row order are reproducible.
        pending.sort(key=lambda i: (tuple(sorted(keys[i])),))
        groups: Dict[FrozenSet[str], List[int]] = {}
        for i in pending:
            groups.setdefault(frozenset(rows[i]), []).append(i)
        stacked: List[int] = []
        for signature in sorted(groups, key=lambda s: tuple(sorted(s))):
            indices = groups[signature]
            self._check_query([target], dict.fromkeys(signature, ""))
            joint = self._joint_for(frozenset([target]) | signature)
            if joint is None:
                stacked.extend(indices)
            else:
                self._gather_rows(target, target_var, sorted(signature),
                                  joint, indices, rows, keys, unique_out)
        if stacked:
            self._stacked_rows(target, target_var, stacked, rows, keys,
                               unique_out)
        for i, k in enumerate(keys):
            results[i] = dict(unique_out[k])

    def _gather_rows(self, target: str, target_var: Variable,
                     evidence_names: List[str], joint: Factor,
                     indices: List[int], rows: List[Dict[str, str]],
                     keys: List[FrozenSet],
                     unique_out: Dict[FrozenSet, Dict[str, float]]) -> None:
        """Answer one evidence-signature group from its cached joint."""
        t0 = time.perf_counter()
        group_rows = [rows[i] for i in indices]
        # Axes rearranged to (evidence..., target) so one advanced-index
        # gather yields (n_rows, target_cardinality).
        axis_of = {v.name: i for i, v in enumerate(joint.variables)}
        ev_axes = [axis_of[n] for n in evidence_names]
        table = np.transpose(joint.table, ev_axes + [axis_of[target]])
        if evidence_names:
            gather = tuple(
                np.asarray([joint.variables[axis_of[name]].index_of(row[name])
                            for row in group_rows])
                for name in evidence_names)
            sliced = table[gather]          # (n_rows, target_cardinality)
        else:
            sliced = np.broadcast_to(table, (len(group_rows),) + table.shape)
        flat = sliced.reshape(len(group_rows), -1)
        norms = flat.sum(axis=1)
        zero = np.flatnonzero(norms <= 0.0)
        if zero.size:
            bad = group_rows[int(zero[0])]
            raise InferenceError(
                f"evidence row {bad!r} has probability 0 under the model — "
                "posterior is undefined")
        posts = flat / norms[:, None]
        for k, i in enumerate(indices):
            out = {s: float(posts[k, j])
                   for j, s in enumerate(target_var.states)}
            unique_out[keys[i]] = out
            self._cache_put(("query", self._structure_fp, keys[i], target),
                            dict(out))
        self._stats.execute_seconds += time.perf_counter() - t0

    def _stacked_rows(self, target: str, target_var: Variable,
                      indices: List[int], rows: List[Dict[str, str]],
                      keys: List[FrozenSet],
                      unique_out: Dict[FrozenSet, Dict[str, float]]) -> None:
        """Answer every no-joint row with one stacked calibration pass.

        Mixed evidence signatures share the pass: evidence enters as
        per-row one-hot likelihood vectors, so the whole block runs one
        schedule, directed toward the target's home clique, regardless
        of which variables each row observes.
        """
        self._count_plan(hit=self._jt is not None)
        jt = self._junction_tree()
        t0 = time.perf_counter()
        stack = [rows[i] for i in indices]
        try:
            beliefs = jt.calibrate_batch(stack, dtype=self._batch_dtype,
                                         target=target)
            posts = beliefs.marginal_batch(target)
        except InferenceError as exc:
            bad = getattr(exc, "row_index", None)
            if bad is not None:
                raise InferenceError(
                    f"evidence row {stack[bad]!r} has probability 0 under "
                    "the model — posterior is undefined") from None
            raise
        for k, i in enumerate(indices):
            out = {s: float(posts[k, j])
                   for j, s in enumerate(target_var.states)}
            unique_out[keys[i]] = out
            self._cache_put(("query", self._structure_fp, keys[i], target),
                            dict(out))
        self._stats.execute_seconds += time.perf_counter() - t0

    def _batch_group(self, target_list: List[str],
                     target_vars: List[Variable],
                     evidence_names: List[str],
                     group_rows: List[Dict[str, str]],
                     indices: List[int], results: List) -> None:
        """Answer a multi-target evidence-signature group."""
        keep = frozenset(target_list) | frozenset(evidence_names)
        joint = self._joint_for(keep)
        if joint is None:
            # Multi-target fallback: per-row elimination over the cached
            # per-signature plan.
            order = self._plan(frozenset(target_list), frozenset(evidence_names))
            t0 = time.perf_counter()
            for row, out_i in zip(group_rows, indices):
                factor = variable_elimination(self._factors, target_list,
                                              row, order=order)
                results[out_i] = factor.normalize()
            self._stats.execute_seconds += time.perf_counter() - t0
            return

        t0 = time.perf_counter()
        # Axes rearranged to (evidence..., targets...) so one advanced-index
        # gather yields (n_rows, *target_shape).
        axis_of = {v.name: i for i, v in enumerate(joint.variables)}
        ev_axes = [axis_of[n] for n in evidence_names]
        tgt_axes = [axis_of[t] for t in target_list]
        table = np.transpose(joint.table, ev_axes + tgt_axes)
        if evidence_names:
            gather = tuple(
                np.asarray([joint.variables[axis_of[name]].index_of(row[name])
                            for row in group_rows])
                for name in evidence_names)
            sliced = table[gather]          # (n_rows, *target_shape)
        else:
            sliced = np.broadcast_to(table, (len(group_rows),) + table.shape)
        flat = sliced.reshape(len(group_rows), -1)
        norms = flat.sum(axis=1)
        zero = np.flatnonzero(norms <= 0.0)
        if zero.size:
            bad = group_rows[int(zero[0])]
            raise InferenceError(
                f"evidence row {bad!r} has probability 0 under the model — "
                "posterior is undefined")
        posts = flat / norms[:, None]
        tgt_shape = tuple(v.cardinality for v in target_vars)
        for k, out_i in enumerate(indices):
            results[out_i] = Factor(target_vars,
                                    posts[k].reshape(tgt_shape))
        self._stats.execute_seconds += time.perf_counter() - t0

    def __repr__(self) -> str:
        compiled = self._compiled_version is not None
        return (f"CompiledNetwork({self._network.name!r}, "
                f"compiled={compiled}, plans={len(self._plans)}, "
                f"queries={self._stats.queries})")


class RecompilingEngine:
    """Baseline :class:`InferenceEngine` that recompiles on every call.

    Reproduces the pre-engine hot path — full validation, CPT→factor
    conversion and min-fill ordering per query — as the honest comparison
    point for the engine-cache benchmark.
    """

    def __init__(self, network: "BayesianNetwork"):
        self._network = network
        self._stats = EngineStats()

    @property
    def network(self) -> "BayesianNetwork":
        return self._network

    @property
    def stats(self) -> EngineStats:
        return self._stats

    def _fresh_factors(self) -> List[Factor]:
        t0 = time.perf_counter()
        self._network.validate(force=True)
        factors = [self._network.cpt(name).to_factor()
                   for name in self._network.dag.nodes]
        self._stats.recompiles += 1
        self._stats.compile_seconds += time.perf_counter() - t0
        return factors

    def invalidate(self) -> None:
        """Nothing to drop — this engine never caches anything."""

    def query(self, target: str,
              evidence: Optional[Mapping[str, str]] = None
              ) -> Dict[str, float]:
        self._stats.queries += 1
        factors = self._fresh_factors()
        t0 = time.perf_counter()
        out = variable_elimination(factors, [target],
                                   dict(evidence or {})).distribution()
        self._stats.execute_seconds += time.perf_counter() - t0
        return out

    def joint_query(self, targets: Sequence[str],
                    evidence: Optional[Mapping[str, str]] = None) -> Factor:
        self._stats.queries += 1
        return variable_elimination(self._fresh_factors(), list(targets),
                                    dict(evidence or {}))

    def marginals(self, evidence: Optional[Mapping[str, str]] = None
                  ) -> Dict[str, Dict[str, float]]:
        self._stats.queries += 1
        jt = JunctionTree(self._fresh_factors())
        jt.calibrate(dict(evidence or {}))
        return {name: jt.marginal(name) for name in self._network.dag.nodes}

    def probability_of_evidence(self, evidence: Mapping[str, str]) -> float:
        self._stats.queries += 1
        return evidence_probability(self._fresh_factors(), dict(evidence))

    def query_batch(self, targets: Union[str, Sequence[str]],
                    evidence_rows: Sequence[Mapping[str, str]]) -> List:
        """Scalar loop over ONE freshly compiled factor set.

        Still recompiles per call — that is this engine's contract — but
        the compiled factors are shared across the batch's rows, and the
        stats count the batch the way :class:`CompiledNetwork` does (one
        ``batch_queries`` bump, ``len(rows)`` ``batch_rows``, no per-row
        ``queries`` inflation), so EngineStats comparisons between the
        two engines are apples-to-apples.
        """
        single = isinstance(targets, str)
        target_list = [targets] if single else list(targets)
        rows = [dict(r) for r in evidence_rows]
        self._stats.batch_queries += 1
        self._stats.batch_rows += len(rows)
        ENGINE_BATCH_ROWS.inc(len(rows), engine="recompiling")
        factors = self._fresh_factors()
        t0 = time.perf_counter()
        out: List = []
        for row in rows:
            posterior = variable_elimination(factors, target_list, row)
            out.append(posterior.distribution() if single
                       else posterior.normalize())
        self._stats.execute_seconds += time.perf_counter() - t0
        return out

    def __repr__(self) -> str:
        return f"RecompilingEngine({self._network.name!r})"


def as_engine(network_or_engine) -> InferenceEngine:
    """Coerce a :class:`BayesianNetwork` (or pass through an engine).

    The migration shim for the engine seam: consumers accept either and
    normalize here, so call sites upgrade incrementally.  Unsupported
    input raises the typed :class:`~repro.errors.EngineError` (an
    :class:`~repro.errors.InferenceError` subclass) naming the offending
    type; a failure *inside* the ``engine()`` accessor is wrapped in an
    :class:`EngineError` chained to the original exception
    (``raise ... from exc``), so service-level error reports keep the
    root cause.
    """
    if hasattr(network_or_engine, "query_batch"):
        return network_or_engine
    engine = getattr(network_or_engine, "engine", None)
    if callable(engine):
        try:
            return engine()
        except EngineError:
            raise
        except Exception as exc:
            raise EngineError(
                "obtaining an inference engine from "
                f"{type(network_or_engine).__name__!r} failed: {exc}"
            ) from exc
    raise EngineError(
        "cannot obtain an inference engine from unsupported type "
        f"{type(network_or_engine).__name__!r}")
