"""The fault-tolerant inference service: deadlines, ladder, breakers.

This is the paper's runtime-uncertainty-management claim turned into a
long-running component.  Every request carries a deadline budget; the
service answers it from a **graceful-degradation ladder** whose tiers
trade accuracy for latency, and *reports the epistemic cost* of whichever
tier answered — exactly the "know what you do not know" discipline the
paper prescribes for the systems it analyses:

====================  =====================================  ==============
tier                  mechanism                              reported cost
====================  =====================================  ==============
``exact``             pooled incremental-JT compiled engine  error 0
``cache``             previously computed exact posterior    error 0
``approximate``       vectorized likelihood weighting        standard error
``stale``             last known answer / prior marginal     ``stale=True``
====================  =====================================  ==============

Each computing tier is guarded by a :class:`CircuitBreaker`; tier health
feeds the existing :class:`DegradationSupervisor`, whose hysteretic mode
machine drives the `/health` status.  A
:class:`~repro.robustness.faults.FaultInjector` can be threaded into the
exact-backend path so robustness campaigns can attack the service itself
(chaos testing): injected latency counts against the deadline budget
precisely as if the backend were genuinely stuck.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bayesnet.engine import CompiledNetwork
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    GraphError,
    InferenceError,
    OverloadError,
    ServingError,
)
from repro.robustness.faults import ChannelTelemetry, FaultInjector, FaultModel
from repro.robustness.supervisor import DegradationSupervisor, RetryPolicy
from repro.means.tolerance import ACT_NORMALLY, CAUTIOUS_MODE, MINIMAL_RISK
from repro.serving.breaker import CircuitBreaker
from repro.serving.pool import EnginePool
from repro.telemetry import tracing as _tracing
from repro.telemetry.clock import SystemClock
from repro.bayesnet.planner import (
    MIN_SAMPLES,
    samples_for_budget,
    sampling_error_bound,
)
from repro.telemetry.metrics import (
    SERVING_DEADLINE_EVENTS,
    SERVING_MICROBATCH_SIZE,
    SERVING_REQUEST_SECONDS,
    SERVING_REQUESTS,
    SERVING_TIER_LATENCY,
)
from repro.telemetry.observe import (
    EVENT_ADMIT,
    EVENT_DEADLINE,
    EVENT_ERROR,
    EVENT_LADDER,
    EVENT_MICROBATCH,
    EVENT_SHED,
    FlightRecorder,
    SLOEngine,
    default_serving_slos,
)
from repro.telemetry.tracing import correlate, current_request_id

#: Ladder tiers, most capable first.  ``TIER_STALE`` is the floor: it
#: cannot fail once the service is warm, so the ladder always answers.
TIER_EXACT = "exact"
TIER_CACHE = "cache"
TIER_APPROXIMATE = "approximate"
TIER_STALE = "stale"
LADDER: Tuple[str, ...] = (TIER_EXACT, TIER_CACHE, TIER_APPROXIMATE,
                           TIER_STALE)

#: Tiers guarded by a circuit breaker (and mirrored as supervisor
#: channels).  The stale floor has no breaker — there is nothing below
#: it to rest towards.
GUARDED_TIERS: Tuple[str, ...] = (TIER_EXACT, TIER_CACHE, TIER_APPROXIMATE)

#: Supervisor modes → `/health` status strings.
_MODE_STATUS = {ACT_NORMALLY: "ok", CAUTIOUS_MODE: "degraded",
                MINIMAL_RISK: "critical"}

#: Channel label fed to the supervisor for a healthy serving tier; any
#: non-``none`` label that equals the fused value reads as agreement.
_HEALTHY_OUTPUT = "ok"

#: EWMA smoothing for per-tier latency estimates.
_LATENCY_ALPHA = 0.2

#: Initial per-sample cost guess for sizing likelihood-weighting draws,
#: refined by an EWMA of observed cost after every approximate answer.
_INITIAL_SECONDS_PER_SAMPLE = 2e-5

#: Cold-start per-tier latency priors for planner-driven ordering,
#: used until the observed :attr:`InferenceService._tier_latency` EWMAs
#: exist.  Order-of-magnitude guesses only — one answered request per
#: tier replaces them.
_INITIAL_TIER_LATENCY = {TIER_CACHE: 5e-6, TIER_EXACT: 1e-4,
                         TIER_APPROXIMATE: 2e-3, TIER_STALE: 5e-6}


@dataclass(frozen=True)
class ServiceRequest:
    """One posterior query with a latency budget.

    ``error_budget`` opts the request into planner-driven tier ordering:
    the ladder descends by predicted latency over the tiers whose error
    bound fits the budget, instead of the fixed capability order.
    """

    target: str
    evidence: Mapping[str, str] = field(default_factory=dict)
    deadline_seconds: Optional[float] = None  # None -> service default
    error_budget: Optional[float] = None      # None -> service default


@dataclass
class ServiceResponse:
    """A posterior plus the epistemic cost of how it was obtained.

    ``tier`` names the ladder rung that answered; ``estimated_error`` is
    an upper bound on the per-state absolute error this tier introduces
    (0.0 for exact/cache, a likelihood-weighting standard error for
    approximate, and ``None`` — honestly unknown — for stale answers,
    which additionally carry ``stale=True``).
    """

    target: str
    evidence: Dict[str, str]
    posterior: Dict[str, float]
    tier: str
    degraded: bool
    stale: bool
    estimated_error: Optional[float]
    deadline_seconds: float
    latency_seconds: float
    injected_latency_seconds: float = 0.0
    faults_fired: Tuple[str, ...] = ()
    attempts: Tuple[str, ...] = ()
    mode: str = ACT_NORMALLY
    request_id: Optional[str] = None
    error_budget: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rendering (the HTTP response body)."""
        return {
            "error_budget": self.error_budget,
            "target": self.target,
            "evidence": dict(self.evidence),
            "posterior": dict(self.posterior),
            "tier": self.tier,
            "degraded": self.degraded,
            "stale": self.stale,
            "estimated_error": self.estimated_error,
            "deadline_seconds": self.deadline_seconds,
            "latency_seconds": self.latency_seconds,
            "injected_latency_seconds": self.injected_latency_seconds,
            "faults_fired": list(self.faults_fired),
            "attempts": list(self.attempts),
            "mode": self.mode,
            "request_id": self.request_id,
        }


class InferenceService:
    """Resilient serving runtime around one compiled Bayesian network.

    Parameters
    ----------
    network:
        A :class:`~repro.bayesnet.network.BayesianNetwork` or an already
        compiled :class:`CompiledNetwork` (must support fork/prewarm).
    pool_size / max_queue:
        Engine-pool width and the bounded wait queue behind it; the
        service additionally sheds any request arriving while
        ``pool_size + max_queue`` are already in flight.
    default_deadline:
        Per-request budget in seconds when the request names none.
    ladder:
        ``False`` disables degradation: deadline and backend failures
        surface to the caller instead of falling to cheaper tiers (the
        honest baseline for the EXT-S availability comparison).
    approx_samples / min_approx_samples:
        Likelihood-weighting draw bounds; the actual draw count is sized
        to the remaining budget from an observed per-sample cost EWMA.
    breaker_threshold / recovery_hysteresis / retry:
        Circuit-breaker tuning shared by all guarded tiers; ``retry``
        (a :class:`RetryPolicy`) also paces in-request retries of failed
        exact calls and the breakers' open→half-open backoff.
    fault_injector:
        A :class:`FaultInjector` (or a sequence of :class:`FaultModel`)
        applied to the exact backend per request — the chaos hook.
    seed:
        Seed of the private RNG behind approximate answers.
    clock:
        Telemetry-style clock (``wall()``) for latency accounting;
        inject a :class:`~repro.telemetry.clock.ManualClock` for
        deterministic tests.
    microbatch_window:
        Seconds the first concurrent exact request waits for companions
        before flushing; all requests that arrive inside the window are
        coalesced into one :meth:`CompiledNetwork.query_batch` call per
        target on a single engine lease.  ``0.0`` (the default)
        disables coalescing — each request runs its own scalar query.
    slo_engine / flight:
        Inject a preconfigured :class:`SLOEngine` / :class:`FlightRecorder`
        (deterministic tests pass clock-injected instances); by default
        the service builds one of each — the SLO set from
        :func:`default_serving_slos` pinned to ``default_deadline``, the
        recorder at its default capacity.
    flight_dump_path:
        When set, the flight-recorder ring is dumped (JSON Lines) to
        this path after every hard request failure and on :meth:`close`,
        so an incident leaves its black box behind.
    """

    def __init__(self, network, *, pool_size: int = 2, max_queue: int = 8,
                 default_deadline: float = 0.1, ladder: bool = True,
                 approx_samples: int = 2000, min_approx_samples: int = 128,
                 breaker_threshold: int = 3, recovery_hysteresis: int = 3,
                 retry: Optional[RetryPolicy] = None,
                 fault_injector: Union[FaultInjector,
                                       Sequence[FaultModel]] = (),
                 result_cache_size: int = 4096, seed: int = 0,
                 clock=None, microbatch_window: float = 0.0,
                 slo_engine: Optional[SLOEngine] = None,
                 flight: Optional[FlightRecorder] = None,
                 flight_dump_path: Optional[str] = None,
                 error_budget: Optional[float] = None,
                 disabled_tiers: Sequence[str] = ()):
        if default_deadline <= 0.0:
            raise ServingError(
                f"default_deadline must be positive, got {default_deadline}")
        if error_budget is not None and error_budget < 0.0:
            raise ServingError(
                f"error_budget must be non-negative, got {error_budget}")
        unknown_tiers = set(disabled_tiers) - set(LADDER)
        if unknown_tiers:
            raise ServingError(
                f"unknown tiers in disabled_tiers: {sorted(unknown_tiers)}; "
                f"choose from {list(LADDER)}")
        if min_approx_samples < 1 or approx_samples < min_approx_samples:
            raise ServingError(
                "need approx_samples >= min_approx_samples >= 1, got "
                f"{approx_samples} / {min_approx_samples}")
        if result_cache_size < 1:
            raise ServingError("result_cache_size must be at least 1, got "
                               f"{result_cache_size}")
        if microbatch_window < 0.0:
            raise ServingError(
                "microbatch_window must be >= 0 (0 disables), got "
                f"{microbatch_window}")
        engine = network if isinstance(network, CompiledNetwork) \
            else CompiledNetwork(network)
        self._network = engine.network
        self.default_deadline = float(default_deadline)
        self.ladder_enabled = bool(ladder)
        #: Planner integration: when a request (or this default) carries
        #: an error budget, tier order becomes latency-EWMA-driven
        #: instead of the fixed LADDER, and approximate answers size
        #: their sample counts from the budget.
        self.default_error_budget = (None if error_budget is None
                                     else float(error_budget))
        #: Chaos kill switch: tiers listed here refuse immediately, as a
        #: dead backend would (`repro serve --kill-tier ...`).
        self.disabled_tiers = frozenset(disabled_tiers)
        self.approx_samples = int(approx_samples)
        self.min_approx_samples = int(min_approx_samples)
        self.retry = retry or RetryPolicy(max_retries=1, backoff_base=0.005)
        self._clock = clock or SystemClock()
        self._sleep = time.sleep
        #: Self-observation: the flight recorder and SLO engine run on
        #: their own (system) clocks by default so injecting a
        #: ManualClock for latency accounting does not skew them.
        self.flight = flight or FlightRecorder()
        self.flight_dump_path = flight_dump_path
        self.slo = slo_engine or SLOEngine(
            default_serving_slos(default_deadline))
        self.pool = EnginePool(engine, size=pool_size, max_queue=max_queue,
                               recorder=self.flight)
        self.max_inflight = pool_size + max_queue
        self.breakers: Dict[str, CircuitBreaker] = {
            tier: CircuitBreaker(tier, failure_threshold=breaker_threshold,
                                 recovery_hysteresis=recovery_hysteresis,
                                 retry=self.retry, recorder=self.flight)
            for tier in GUARDED_TIERS}
        self.supervisor = DegradationSupervisor(
            n_channels=len(GUARDED_TIERS), retry=self.retry,
            recovery_hysteresis=recovery_hysteresis,
            minimal_risk_quorum=1.0)
        self.fault_injector = (fault_injector
                               if isinstance(fault_injector, FaultInjector)
                               else FaultInjector(fault_injector))
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()      # rng + stores + supervisor
        self._inflight = 0
        self._shed = 0
        self._requests = 0
        self._by_tier: Dict[str, int] = {tier: 0 for tier in LADDER}
        self._tier_latency: Dict[str, float] = {}
        self._seconds_per_sample = _INITIAL_SECONDS_PER_SAMPLE
        #: (target, frozenset(evidence)) -> (posterior, source tier);
        #: bounded FIFO — the cache tier reads exact entries, the stale
        #: floor reads anything.
        self._results: Dict[Tuple[str, frozenset], Tuple[Dict[str, float],
                                                         str]] = {}
        self._result_cache_size = int(result_cache_size)
        #: Evidence-free marginals computed at startup: the stale floor's
        #: last resort, so a warm service can always answer.
        self._priors: Dict[str, Dict[str, float]] = \
            self.pool.template.marginals({})
        self._executor = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="repro-serving")
        self.microbatch_window = float(microbatch_window)
        #: Micro-batch coalescing state: the first thread to append to
        #: ``_mb_pending`` while no leader is active becomes the leader;
        #: it sleeps out the window, drains the list, and answers every
        #: drained item.  Followers wait on their item's event.
        self._mb_lock = threading.Lock()
        self._mb_pending: List[_MicroBatchItem] = []
        self._mb_leader_active = False
        self._mb_flush_ids = itertools.count(1)
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting work and release the worker threads."""
        self._closed = True
        self._executor.shutdown(wait=True)
        self._dump_flight()

    def _dump_flight(self) -> None:
        """Best-effort black-box dump (on error and on close)."""
        if self.flight_dump_path is None:
            return
        try:
            self.flight.dump_jsonl(self.flight_dump_path)
        except OSError:  # pragma: no cover - disk trouble must not crash
            pass

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def inject_faults(self, faults: Union[FaultInjector,
                                          Sequence[FaultModel]]) -> None:
        """Swap the chaos hook at runtime (campaign phase changes)."""
        self.fault_injector = (faults if isinstance(faults, FaultInjector)
                               else FaultInjector(faults))

    # -- request path ----------------------------------------------------------

    def submit(self, target: str,
               evidence: Optional[Mapping[str, str]] = None,
               deadline_seconds: Optional[float] = None,
               error_budget: Optional[float] = None) -> ServiceResponse:
        """Answer one posterior query within its deadline budget."""
        return self.handle(ServiceRequest(target=target,
                                          evidence=dict(evidence or {}),
                                          deadline_seconds=deadline_seconds,
                                          error_budget=error_budget))

    def handle(self, request: ServiceRequest) -> ServiceResponse:
        if self._closed:
            raise ServingError("service is closed")
        deadline = (self.default_deadline
                    if request.deadline_seconds is None
                    else float(request.deadline_seconds))
        if deadline <= 0.0:
            raise ServingError(
                f"deadline_seconds must be positive, got {deadline}")
        error_budget = (self.default_error_budget
                        if request.error_budget is None
                        else float(request.error_budget))
        if error_budget is not None and error_budget < 0.0:
            raise ServingError(
                f"error_budget must be non-negative, got {error_budget}")
        evidence = self._validate(request.target,
                                  dict(request.evidence or {}))
        # Correlation: reuse the id the HTTP layer (or any caller) bound,
        # else mint one here, so every span/flight event this request
        # touches carries the same request_id.
        with correlate(current_request_id()) as rid:
            with self._lock:
                if self._inflight >= self.max_inflight:
                    self._shed += 1
                    SERVING_REQUESTS.inc(tier="none", outcome="shed")
                    self.flight.record(EVENT_SHED, where="service",
                                       in_flight=self._inflight)
                    self.slo.record(latency_seconds=0.0, outcome="shed",
                                    estimated_error=None)
                    raise OverloadError(
                        f"service at capacity: {self._inflight} requests in "
                        f"flight (max {self.max_inflight})",
                        queue_depth=self._inflight)
                self._inflight += 1
                self._requests += 1
            self.flight.record(EVENT_ADMIT, rid, target=request.target,
                               deadline_seconds=deadline)
            try:
                response = self._answer(request.target, evidence, deadline,
                                        error_budget)
                response.request_id = rid
                self.slo.record(latency_seconds=response.latency_seconds,
                                outcome="ok",
                                estimated_error=response.estimated_error,
                                stale=response.stale)
                return response
            except InferenceError:
                # A model-level answer (e.g. probability-0 evidence) is
                # not a service fault: report it without degrading
                # `/health` or charging the SLOs.
                SERVING_REQUESTS.inc(tier="none", outcome="invalid")
                raise
            except Exception as exc:
                SERVING_REQUESTS.inc(tier="none", outcome="error")
                self._tick_supervisor(success=False)
                self.slo.record(latency_seconds=deadline, outcome="error",
                                estimated_error=None)
                self.flight.record(EVENT_ERROR, target=request.target,
                                   error=f"{type(exc).__name__}: {exc}")
                self._dump_flight()
                raise
            finally:
                with self._lock:
                    self._inflight -= 1

    def submit_batch(self, target: str,
                     evidence_rows: Sequence[Mapping[str, str]],
                     deadline_seconds: Optional[float] = None
                     ) -> List[Dict[str, object]]:
        """Answer a whole evidence block with one batched exact pass.

        The sweep surface behind ``POST /batch``: the block shares one
        deadline, one admission slot and one engine lease, and runs as a
        single :meth:`CompiledNetwork.query_batch` call (stacked clique
        calibration — no per-row python loop).  There is no degradation
        ladder here: sweeps want exact numbers or an explicit error.

        Returns one dict per row — a
        :meth:`ServiceResponse.to_dict` document for answered rows, or
        ``{"evidence": ..., "error": ...}`` for rows whose evidence has
        probability 0 (other rows in the block still answer).
        """
        if self._closed:
            raise ServingError("service is closed")
        deadline = (self.default_deadline if deadline_seconds is None
                    else float(deadline_seconds))
        if deadline <= 0.0:
            raise ServingError(
                f"deadline_seconds must be positive, got {deadline}")
        rows = [self._validate(target, dict(r)) for r in evidence_rows]
        if not rows:
            raise ServingError("batch needs at least one evidence row")
        with correlate(current_request_id()) as rid:
            with self._lock:
                if self._inflight >= self.max_inflight:
                    self._shed += 1
                    SERVING_REQUESTS.inc(tier="none", outcome="shed")
                    self.flight.record(EVENT_SHED, where="service",
                                       in_flight=self._inflight,
                                       rows=len(rows))
                    self.slo.record(latency_seconds=0.0, outcome="shed",
                                    estimated_error=None)
                    raise OverloadError(
                        f"service at capacity: {self._inflight} requests in "
                        f"flight (max {self.max_inflight})",
                        queue_depth=self._inflight)
                self._inflight += 1
                self._requests += len(rows)
            self.flight.record(EVENT_ADMIT, target=target,
                               deadline_seconds=deadline, rows=len(rows))
            t0 = self._clock.wall()
            try:
                SERVING_MICROBATCH_SIZE.observe(len(rows))
                engine = self.pool.checkout(timeout=deadline)

                def call() -> List:
                    try:
                        try:
                            return engine.query_batch(target, rows)
                        except InferenceError:
                            # One poisoned row fails the whole stacked call:
                            # replay per row so only that row reports the
                            # error.
                            out: List = []
                            for row in rows:
                                try:
                                    out.append(engine.query(target, row))
                                except InferenceError as exc:
                                    out.append(exc)
                            return out
                    finally:
                        self.pool.checkin(engine)

                future = self._executor.submit(
                    contextvars.copy_context().run, call)
                try:
                    posts = future.result(timeout=deadline)
                except FutureTimeoutError:
                    future.cancel()
                    SERVING_DEADLINE_EVENTS.inc(tier=TIER_EXACT)
                    self.flight.record(EVENT_DEADLINE, tier=TIER_EXACT,
                                       where="batch", rows=len(rows))
                    self.slo.record(latency_seconds=deadline,
                                    outcome="error", estimated_error=None)
                    raise DeadlineExceededError(
                        f"batch of {len(rows)} rows missed its "
                        f"{deadline:.4f}s deadline") from None
                latency = self._clock.wall() - t0
                results: List[Dict[str, object]] = []
                for row, post in zip(rows, posts):
                    if isinstance(post, Exception):
                        SERVING_REQUESTS.inc(tier="none", outcome="invalid")
                        results.append({"target": target, "evidence": row,
                                        "error": str(post)})
                        continue
                    response = ServiceResponse(
                        target=target, evidence=row, posterior=post,
                        tier=TIER_EXACT, degraded=False, stale=False,
                        estimated_error=0.0, deadline_seconds=deadline,
                        latency_seconds=latency, request_id=rid)
                    self._record(response)
                    self.slo.record(latency_seconds=latency, outcome="ok",
                                    estimated_error=0.0)
                    response.mode = self._tick_supervisor(success=True)
                    results.append(response.to_dict())
                return results
            finally:
                with self._lock:
                    self._inflight -= 1

    def _validate(self, target: str,
                  evidence: Dict[str, str]) -> Dict[str, str]:
        """Reject malformed queries up front — bad requests must not trip
        breakers or consume ladder budget.

        Returns ``evidence`` (same order, equal strings) rewritten onto
        the network's own ``Variable.name`` / ``Variable.states`` string
        objects, so the result and posterior caches keyed on it share
        those strings instead of holding each request's decoded copies.
        """
        if target in evidence:
            raise InferenceError(
                f"{target!r} is both queried and observed")
        shared: Dict[str, Tuple[str, str]] = {}
        for name, state in [(target, None)] + sorted(evidence.items()):
            try:
                variable = self._network.variable(name)
            except GraphError as exc:
                # Normalize to the request-level error type so the HTTP
                # layer maps it to 400, not 500.
                raise InferenceError(str(exc)) from exc
            if state is None:
                continue
            if state not in variable.states:
                raise InferenceError(
                    f"unknown state {state!r} for variable {name!r} "
                    f"(states: {list(variable.states)})")
            shared[name] = (variable.name,
                            variable.states[variable.states.index(state)])
        return dict(shared[name] for name in evidence)

    def _answer(self, target: str, evidence: Dict[str, str],
                deadline: float,
                error_budget: Optional[float] = None) -> ServiceResponse:
        """Traced wrapper: one ``serving.request`` span per ladder descent."""
        tracer = _tracing._active_tracer
        if tracer is None:
            return self._descend(target, evidence, deadline, error_budget)
        with tracer.span("serving.request", target=target,
                         deadline_seconds=deadline) as sp:
            response = self._descend(target, evidence, deadline, error_budget)
            sp.set_attribute("tier", response.tier)
            sp.set_attribute("degraded", response.degraded)
            if response.estimated_error is not None:
                sp.set_attribute("estimated_error", response.estimated_error)
            return response

    def _descend(self, target: str, evidence: Dict[str, str],
                 deadline: float,
                 error_budget: Optional[float] = None) -> ServiceResponse:
        t0 = self._clock.wall()
        attempts: List[str] = []
        with self._lock:
            self.fault_injector.begin_encounter()
            injected = self.fault_injector.extra_latency()
            fired = self.fault_injector.fired_names()

        response: Optional[ServiceResponse] = None
        if not self.ladder_enabled:
            ladder: Tuple[str, ...] = (TIER_EXACT,)
        elif error_budget is not None:
            ladder = self._ladder_order(error_budget, deadline)
        else:
            ladder = LADDER
        failure: Optional[Exception] = None
        for tier in ladder:
            if tier in self.disabled_tiers:
                attempts.append(f"{tier}:disabled")
                failure = ServingError(f"tier {tier!r} is disabled")
                self.flight.record(EVENT_LADDER, tier=tier,
                                   reason="Disabled")
                continue
            remaining = deadline - (self._clock.wall() - t0)
            try:
                if tier == TIER_EXACT:
                    posterior = self._tier_exact(
                        target, evidence, remaining, injected, attempts)
                    error: Optional[float] = 0.0
                    stale = False
                elif tier == TIER_CACHE:
                    posterior = self._tier_cache(target, evidence, attempts)
                    error, stale = 0.0, False
                elif tier == TIER_APPROXIMATE:
                    posterior, error = self._tier_approximate(
                        target, evidence, remaining, attempts,
                        error_budget=error_budget)
                    stale = False
                else:
                    posterior = self._tier_stale(target, evidence, attempts)
                    error, stale = None, True
            except _TierUnavailable as exc:
                failure = exc.reason
                # The ladder hop is flight-recorded with *why* the tier
                # refused, so a replay shows the whole descent.
                self.flight.record(EVENT_LADDER, tier=tier,
                                   reason=type(exc.reason).__name__)
                continue
            if (error_budget is not None and error is not None
                    and error > error_budget and tier != ladder[-1]):
                # The answer landed outside the promised budget (e.g. a
                # degenerate effective sample size): charge the attempt
                # and fall to the next candidate rather than return it.
                attempts.append(f"{tier}:budget")
                failure = ServingError(
                    f"tier {tier!r} answered with estimated error "
                    f"{error:.4g} > budget {error_budget:.4g}")
                self.flight.record(EVENT_LADDER, tier=tier,
                                   reason="BudgetExceeded")
                continue
            response = ServiceResponse(
                target=target, evidence=evidence, posterior=posterior,
                tier=tier, degraded=tier != TIER_EXACT, stale=stale,
                estimated_error=error, deadline_seconds=deadline,
                latency_seconds=(self._clock.wall() - t0) + injected,
                injected_latency_seconds=injected, faults_fired=fired,
                attempts=tuple(attempts), error_budget=error_budget)
            break
        if response is None:
            # Only reachable with the ladder disabled (the stale floor
            # cannot fail on a warm service): surface the exact tier's
            # own failure.
            raise failure if failure is not None else DeadlineExceededError(
                f"no ladder tier answered within {deadline:.4f}s "
                f"(attempts: {attempts})")

        self._record(response)
        response.mode = self._tick_supervisor(success=True)
        return response

    def _ladder_order(self, error_budget: float,
                      deadline: float) -> Tuple[str, ...]:
        """Planner-driven tier order for budgeted requests.

        Admissible tiers (predicted error within the budget) are tried
        cheapest-first by their observed latency EWMAs — cold-started
        from ``_INITIAL_TIER_LATENCY`` priors — instead of the fixed
        ``LADDER`` order.  The approximate tier is admissible only when
        its worst-case sampling bound at the configured sample ceiling
        fits the budget; the stale floor always rides last so a warm
        service keeps its every-request-answers guarantee.
        """
        candidates = [TIER_CACHE, TIER_EXACT]
        if sampling_error_bound(self.approx_samples) <= error_budget:
            candidates.append(TIER_APPROXIMATE)
        with self._lock:
            latency = {tier: self._tier_latency.get(
                tier, _INITIAL_TIER_LATENCY[tier]) for tier in candidates}
        # Tiers predicted to blow the whole deadline sort last among the
        # admissible set rather than being dropped: the prediction is an
        # estimate, the deadline check inside each tier is the law.
        ordered = sorted(candidates,
                         key=lambda t: (latency[t] > deadline, latency[t]))
        return tuple(ordered) + (TIER_STALE,)

    # -- ladder tiers ----------------------------------------------------------

    def _tier_exact(self, target: str, evidence: Dict[str, str],
                    remaining: float, injected: float,
                    attempts: List[str]) -> Dict[str, float]:
        breaker = self.breakers[TIER_EXACT]
        if not breaker.allow():
            attempts.append("exact:open")
            raise _TierUnavailable(CircuitOpenError(
                f"circuit breaker for tier {TIER_EXACT!r} is open"))
        # Injected chaos latency counts against the budget exactly as a
        # stuck backend would: if it alone blows the deadline, the call
        # is never issued.
        budget = remaining - injected
        if budget <= 0.0:
            breaker.record_failure()
            attempts.append("exact:deadline")
            SERVING_DEADLINE_EVENTS.inc(tier=TIER_EXACT)
            self.flight.record(EVENT_DEADLINE, tier=TIER_EXACT,
                               where="injected", injected_seconds=injected)
            raise _TierUnavailable(DeadlineExceededError(
                f"injected latency {injected:.4f}s exceeded the remaining "
                f"budget {remaining:.4f}s"))
        tier_start = self._clock.wall()
        delays = iter(self.retry.delays())
        attempt = 0
        while True:
            budget_now = budget - (self._clock.wall() - tier_start)
            try:
                if budget_now <= 0.0:
                    raise DeadlineExceededError(
                        f"exact budget {budget:.4f}s exhausted after "
                        f"{attempt} attempt(s)")
                posterior = self._run_exact(target, evidence, budget_now)
                breaker.record_success()
                attempts.append("exact:ok")
                self._note_latency(TIER_EXACT, injected)
                return posterior
            except (DeadlineExceededError, FutureTimeoutError) as exc:
                breaker.record_failure()
                attempts.append("exact:deadline")
                SERVING_DEADLINE_EVENTS.inc(tier=TIER_EXACT)
                self.flight.record(EVENT_DEADLINE, tier=TIER_EXACT,
                                   where="backend")
                raise _TierUnavailable(DeadlineExceededError(str(exc)))
            except OverloadError as exc:
                # Pool saturation is load, not backend fault: degrade
                # without charging the breaker.
                attempts.append("exact:overload")
                raise _TierUnavailable(exc)
            except InferenceError:
                # A model-level answer ("evidence has probability 0"):
                # no fallback tier can answer it better — propagate.
                raise
            except Exception as exc:
                # Transient backend failure: bounded retry with the
                # reused exponential-backoff policy, budget permitting.
                attempt += 1
                delay = next(delays, None)
                budget_now = budget - (self._clock.wall() - tier_start)
                if delay is not None and delay < budget_now:
                    attempts.append(f"exact:retry{attempt}")
                    with self._lock:
                        self.supervisor.note_retry(0, attempt, delay)
                    self._sleep(delay)
                    continue
                breaker.record_failure()
                attempts.append("exact:error")
                raise _TierUnavailable(exc)

    def _run_exact(self, target: str, evidence: Dict[str, str],
                   budget: float) -> Dict[str, float]:
        if self.microbatch_window <= 0.0:
            return self._run_exact_single(target, evidence, budget)
        return self._run_exact_batched(target, evidence, budget)

    def _run_exact_single(self, target: str, evidence: Dict[str, str],
                          budget: float) -> Dict[str, float]:
        """One deadline-bounded exact query on a pooled engine.

        The engine is leased inside the worker closure and checked in
        when the query finishes — even if this caller has already given
        up waiting — so an abandoned (timed-out) call can never leak a
        lease.
        """
        engine = self.pool.checkout(timeout=budget)

        def call() -> Dict[str, float]:
            try:
                return engine.query(target, evidence)
            finally:
                self.pool.checkin(engine)

        # The copied context carries the request id (and the current
        # span) into the worker thread, so engine spans nest under
        # serving.request instead of floating as orphan roots.
        future = self._executor.submit(contextvars.copy_context().run, call)
        try:
            return future.result(timeout=budget)
        except FutureTimeoutError:
            future.cancel()  # drop it if it never started
            raise

    def _run_exact_batched(self, target: str, evidence: Dict[str, str],
                           budget: float) -> Dict[str, float]:
        """Exact query via the micro-batcher (leader election).

        The request enqueues an item; the first thread to arrive while
        no leader is active becomes the leader, sleeps out
        ``microbatch_window`` (bounded by its own budget), drains every
        item that accumulated, and answers them all with one
        ``query_batch`` per target on a single engine lease.  Followers
        block on their item's event for at most their own budget —
        a leader that cannot finish in time costs the follower its
        deadline, exactly as a slow scalar backend would.
        """
        item = _MicroBatchItem(target, evidence)
        with self._mb_lock:
            self._mb_pending.append(item)
            leader = not self._mb_leader_active
            if leader:
                self._mb_leader_active = True
        if leader:
            self._sleep(min(self.microbatch_window, budget))
            with self._mb_lock:
                # Drain + leader-reset atomically: the next arrival
                # after this point elects a fresh leader.
                batch = self._mb_pending
                self._mb_pending = []
                self._mb_leader_active = False
            self._flush_microbatch(batch, budget)
        elif not item.event.wait(budget):
            raise DeadlineExceededError(
                f"micro-batched exact query missed its {budget:.4f}s "
                "budget waiting for the batch leader")
        # Every rider (leader and followers alike) stamps which flush
        # answered it, so a trace reconstructs batch membership.
        tracer = _tracing._active_tracer
        if tracer is not None and item.flush_id is not None:
            sp = tracer.current_span()
            if sp is not None:
                sp.set_attribute("batch_flush", item.flush_id)
        if item.error is not None:
            raise item.error
        if item.result is None:
            raise DeadlineExceededError(
                "micro-batch flush was dropped before answering")
        return item.result

    def _flush_microbatch(self, batch: List["_MicroBatchItem"],
                          budget: float) -> None:
        """Answer one drained micro-batch on a single engine lease.

        Per-item outcomes land on the items themselves (result or
        error); every item's event is always set, so followers never
        wait past their own budget + this method's bounded lifetime.  A
        batch-level :class:`InferenceError` (one poisoned row fails the
        whole ``query_batch`` call) triggers a per-row scalar replay so
        the error lands only on the row that earned it.
        """
        SERVING_MICROBATCH_SIZE.observe(len(batch))
        flush_id = next(self._mb_flush_ids)
        for it in batch:
            it.flush_id = flush_id
        # The flight event names every rider, so one JSONL line answers
        # "which requests rode flush N" without joining span dumps.
        self.flight.record(EVENT_MICROBATCH, flush_id=flush_id,
                           size=len(batch),
                           request_ids=[it.request_id for it in batch])
        groups: Dict[str, List[_MicroBatchItem]] = {}
        for it in batch:
            groups.setdefault(it.target, []).append(it)
        try:
            engine = self.pool.checkout(timeout=budget)
        except Exception as exc:
            for it in batch:
                it.error = exc
                it.event.set()
            return

        def call() -> None:
            try:
                for tgt, items in groups.items():
                    rows = [it.evidence for it in items]
                    try:
                        posts: List = engine.query_batch(tgt, rows)
                    except InferenceError:
                        posts = []
                        for it in items:
                            try:
                                posts.append(engine.query(tgt, it.evidence))
                            except InferenceError as exc:
                                posts.append(exc)
                    for it, post in zip(items, posts):
                        if isinstance(post, Exception):
                            it.error = post
                        else:
                            it.result = post
            except Exception as exc:  # lease-wide failure: fan out
                for it in batch:
                    if it.result is None and it.error is None:
                        it.error = exc
            finally:
                self.pool.checkin(engine)
                for it in batch:
                    it.event.set()

        future = self._executor.submit(contextvars.copy_context().run, call)
        try:
            future.result(timeout=budget)
        except FutureTimeoutError:
            if future.cancel():
                # Never started: nobody will set the events — do it
                # here so followers fail fast instead of sleeping out
                # their full budgets.
                exc = DeadlineExceededError(
                    "micro-batch flush timed out before starting")
                self.pool.checkin(engine)
                for it in batch:
                    if it.result is None and it.error is None:
                        it.error = exc
                    it.event.set()
            raise

    def _tier_cache(self, target: str, evidence: Dict[str, str],
                    attempts: List[str]) -> Dict[str, float]:
        breaker = self.breakers[TIER_CACHE]
        if not breaker.allow():
            attempts.append("cache:open")
            raise _TierUnavailable(CircuitOpenError(
                f"circuit breaker for tier {TIER_CACHE!r} is open"))
        key = (target, frozenset(evidence.items()))
        with self._lock:
            entry = self._results.get(key)
        if entry is not None and entry[1] in (TIER_EXACT, TIER_CACHE):
            breaker.record_success()
            attempts.append("cache:hit")
            return dict(entry[0])
        # The template engine's own evidence-keyed cache still holds
        # anything computed at prewarm/startup.
        cached = self.pool.template.cached_posterior(target, evidence)
        if cached is not None:
            breaker.record_success()
            attempts.append("cache:hit")
            return cached
        breaker.record_success()  # a miss is an answer, not a fault
        attempts.append("cache:miss")
        raise _TierUnavailable(ServingError(
            f"no cached exact posterior for {target!r} | {evidence!r}"))

    def _tier_approximate(self, target: str, evidence: Dict[str, str],
                          remaining: float, attempts: List[str],
                          error_budget: Optional[float] = None
                          ) -> Tuple[Dict[str, float], float]:
        breaker = self.breakers[TIER_APPROXIMATE]
        if not breaker.allow():
            attempts.append("approximate:open")
            raise _TierUnavailable(CircuitOpenError(
                f"circuit breaker for tier {TIER_APPROXIMATE!r} is open"))
        if remaining <= 0.0:
            attempts.append("approximate:deadline")
            SERVING_DEADLINE_EVENTS.inc(tier=TIER_APPROXIMATE)
            self.flight.record(EVENT_DEADLINE, tier=TIER_APPROXIMATE,
                               where="budget")
            raise _TierUnavailable(DeadlineExceededError(
                "no budget left for the approximate tier"))
        n = int(remaining / self._seconds_per_sample)
        n = max(self.min_approx_samples, min(self.approx_samples, n))
        if error_budget is not None:
            # Budgeted requests size the draw from the declared error
            # budget (worst-case bound 0.5/sqrt(n)), not just from time:
            # if the accuracy-required count cannot fit the remaining
            # time, the tier refuses instead of answering out of budget.
            needed = samples_for_budget(error_budget)
            if needed > self.approx_samples or \
                    needed * self._seconds_per_sample > remaining:
                attempts.append("approximate:budget")
                raise _TierUnavailable(ServingError(
                    f"error budget {error_budget:.4g} needs {needed} "
                    f"samples; unattainable within {remaining:.4f}s at "
                    f"ceiling {self.approx_samples}"))
            n = max(n, max(MIN_SAMPLES, needed))
        try:
            t0 = self._clock.wall()
            sampler = self._network.sampler()
            with self._lock:
                matrix, weights = sampler.likelihood_matrix(
                    self._rng, evidence, n)
            qcol = sampler.column(target)
            states = self._network.variable(target).states
            totals = np.bincount(matrix[:, qcol], weights=weights,
                                 minlength=len(states))
            weight_sum = float(weights.sum())
            if weight_sum <= 0.0:
                raise InferenceError(
                    f"evidence {evidence!r} has probability 0 under the "
                    "model — posterior is undefined")
            probs = totals / weight_sum
            sq = float(np.square(weights).sum())
            ess = weight_sum * weight_sum / sq if sq > 0.0 else float(n)
            error = float(np.sqrt(np.max(probs * (1.0 - probs))
                                  / max(ess, 1.0)))
            elapsed = self._clock.wall() - t0
            if elapsed > 0.0:
                self._note_sample_cost(elapsed / n)
            self._note_latency(TIER_APPROXIMATE, elapsed)
        except InferenceError:
            raise  # model-level: the ladder cannot fix probability-0
        except Exception as exc:
            breaker.record_failure()
            attempts.append("approximate:error")
            raise _TierUnavailable(exc)
        breaker.record_success()
        attempts.append("approximate:ok")
        return ({s: float(probs[i]) for i, s in enumerate(states)}, error)

    def _tier_stale(self, target: str, evidence: Dict[str, str],
                    attempts: List[str]) -> Dict[str, float]:
        key = (target, frozenset(evidence.items()))
        with self._lock:
            entry = self._results.get(key)
            if entry is not None:
                attempts.append("stale:hit")
                return dict(entry[0])
            prior = self._priors.get(target)
        if prior is None:  # pragma: no cover - priors cover every node
            raise _TierUnavailable(ServingError(
                f"no stale answer or prior for {target!r}"))
        attempts.append("stale:prior")
        return dict(prior)

    # -- bookkeeping -----------------------------------------------------------

    def _record(self, response: ServiceResponse) -> None:
        SERVING_REQUESTS.inc(tier=response.tier, outcome="ok")
        SERVING_REQUEST_SECONDS.observe(response.latency_seconds,
                                        tier=response.tier)
        with self._lock:
            self._by_tier[response.tier] += 1
            if response.tier in (TIER_EXACT, TIER_APPROXIMATE):
                key = (response.target,
                       frozenset(response.evidence.items()))
                if key not in self._results and \
                        len(self._results) >= self._result_cache_size:
                    self._results.pop(next(iter(self._results)))
                # Exact answers overwrite approximate ones, never the
                # reverse: the store keeps the best-known answer.
                held = self._results.get(key)
                if held is None or held[1] != TIER_EXACT \
                        or response.tier == TIER_EXACT:
                    self._results[key] = (dict(response.posterior),
                                          response.tier)
        self._note_latency(response.tier, response.latency_seconds)

    def _note_latency(self, tier: str, seconds: float) -> None:
        with self._lock:
            prior = self._tier_latency.get(tier)
            value = (seconds if prior is None else
                     (1.0 - _LATENCY_ALPHA) * prior
                     + _LATENCY_ALPHA * seconds)
            self._tier_latency[tier] = value
        SERVING_TIER_LATENCY.set(value, tier=tier)

    def _note_sample_cost(self, seconds_per_sample: float) -> None:
        with self._lock:
            self._seconds_per_sample = (
                (1.0 - _LATENCY_ALPHA) * self._seconds_per_sample
                + _LATENCY_ALPHA * seconds_per_sample)

    def _tick_supervisor(self, *, success: bool) -> str:
        """Feed tier health into the degradation supervisor's mode machine.

        Each guarded tier is a supervisor channel: an open breaker reads
        as a watchdog timeout, so escalation is immediate while recovery
        needs ``recovery_hysteresis`` consecutive clean requests — the
        hysteretic `/health` behaviour the paper's tolerance mean asks
        for.
        """
        with self._lock:
            telemetry = []
            for tier in GUARDED_TIERS:
                open_ = self.breakers[tier].state != "closed"
                telemetry.append(ChannelTelemetry(
                    output=_HEALTHY_OUTPUT, epistemic_score=0.0,
                    latency=self._tier_latency.get(tier, 0.0),
                    timed_out=open_))
            fused = _HEALTHY_OUTPUT if success else None
            return self.supervisor.step(telemetry, fused)

    # -- surfaces --------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """The `/health` document: mode, breakers, pool, counts."""
        with self._lock:
            by_tier = dict(self._by_tier)
            requests, shed, inflight = (self._requests, self._shed,
                                        self._inflight)
            tier_latency = dict(self._tier_latency)
            mode = self.supervisor.mode
        status = _MODE_STATUS.get(mode, "degraded")
        return {
            "status": status,
            "mode": mode,
            "ladder": self.ladder_enabled,
            "error_budget": self.default_error_budget,
            "disabled_tiers": sorted(self.disabled_tiers),
            "tier_latency_seconds": tier_latency,
            "breakers": {tier: breaker.snapshot()
                         for tier, breaker in sorted(self.breakers.items())},
            "pool": self.pool.snapshot(),
            "requests": {"total": requests, "in_flight": inflight,
                         "shed": shed, "by_tier": by_tier},
            "slo": self.slo.snapshot(),
            "flight": self.flight.snapshot(),
            "network": self._network.name,
        }

    def __repr__(self) -> str:
        return (f"InferenceService({self._network.name!r}, "
                f"pool={self.pool.size}, ladder={self.ladder_enabled}, "
                f"mode={self.supervisor.mode!r})")


class _MicroBatchItem:
    """One enqueued exact query awaiting a micro-batch flush.

    Carries the enqueuing request's correlation id (read at construction,
    on the request's own thread) and, once flushed, the id of the flush
    that answered it — the two halves of batch-membership correlation.
    """

    __slots__ = ("target", "evidence", "event", "result", "error",
                 "request_id", "flush_id")

    def __init__(self, target: str, evidence: Dict[str, str]):
        self.target = target
        self.evidence = evidence
        self.event = threading.Event()
        self.result: Optional[Dict[str, float]] = None
        self.error: Optional[Exception] = None
        self.request_id: Optional[str] = current_request_id()
        self.flush_id: Optional[int] = None


class _TierUnavailable(Exception):
    """Ladder control flow: this tier cannot answer, try the next."""

    def __init__(self, reason: Exception):
        super().__init__(str(reason))
        self.reason = reason
