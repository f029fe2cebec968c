"""InferenceService: the degradation ladder, deadlines, chaos, health."""

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InferenceError,
    OverloadError,
    ServingError,
)
from repro.perception.chain import build_fig4_network
from repro.robustness.faults import FaultInjector, LatencyFault
from repro.robustness.supervisor import RetryPolicy
from repro.serving import (
    TIER_APPROXIMATE,
    TIER_CACHE,
    TIER_EXACT,
    TIER_STALE,
    InferenceService,
    ServiceRequest,
)

EVIDENCE = {"perception": "car"}

#: A chaos fault that fires on every encounter with a spike far beyond
#: any test deadline — the injected latency alone blows the budget, so
#: the exact tier degrades without ever really sleeping.
STUCK = LatencyFault(intensity=1.0, seed=1, mean_delay=60.0)


@pytest.fixture
def service():
    with InferenceService(build_fig4_network(), pool_size=2, max_queue=4,
                          default_deadline=0.5) as svc:
        yield svc


def exact_posterior():
    from repro.bayesnet.engine import CompiledNetwork
    return CompiledNetwork(build_fig4_network()).query("ground_truth",
                                                       EVIDENCE)


class TestValidation:
    def test_constructor_validation(self):
        with pytest.raises(ServingError):
            InferenceService(build_fig4_network(), default_deadline=0.0)
        with pytest.raises(ServingError):
            InferenceService(build_fig4_network(), approx_samples=10,
                             min_approx_samples=20)

    def test_rejects_unknown_variable(self, service):
        with pytest.raises(InferenceError, match="nonsense"):
            service.submit("nonsense")

    def test_rejects_unknown_state(self, service):
        with pytest.raises(InferenceError, match="'bicycle'"):
            service.submit("ground_truth", {"perception": "bicycle"})

    def test_rejects_query_that_is_also_evidence(self, service):
        with pytest.raises(InferenceError, match="queried and observed"):
            service.submit("perception", {"perception": "car"})

    def test_rejects_nonpositive_deadline(self, service):
        with pytest.raises(ServingError, match="deadline"):
            service.submit("ground_truth", deadline_seconds=0.0)

    def test_cache_keys_hold_the_networks_own_strings(self, service):
        # Fresh string objects, as decoded from each request's JSON.
        name, state = "".join(["percep", "tion"]), "".join(["ca", "r"])
        response = service.submit("ground_truth", {name: state})
        assert response.evidence == {"perception": "car"}
        variable = service.pool.template.network.variable("perception")
        (key,) = [k for k in service._results if k[0] == "ground_truth"]
        ((held_name, held_state),) = key[1]
        assert held_name is variable.name
        assert held_state is variable.states[variable.index_of("car")]
        rows = service.submit_batch("ground_truth", [{name: state}])
        assert rows[0]["evidence"] == {"perception": "car"}

    def test_bad_requests_do_not_degrade_health(self, service):
        for _ in range(5):
            with pytest.raises(InferenceError):
                service.submit("nonsense")
        assert service.health()["status"] == "ok"
        assert service.breakers[TIER_EXACT].state == "closed"


class TestExactTier:
    def test_healthy_service_answers_exactly(self, service):
        response = service.submit("ground_truth", EVIDENCE)
        assert response.tier == TIER_EXACT
        assert not response.degraded
        assert not response.stale
        assert response.estimated_error == 0.0
        assert response.posterior == pytest.approx(exact_posterior())

    def test_handle_accepts_request_objects(self, service):
        response = service.handle(ServiceRequest("ground_truth", EVIDENCE))
        assert response.tier == TIER_EXACT

    def test_attempts_report_the_path_taken(self, service):
        response = service.submit("ground_truth", EVIDENCE)
        assert response.attempts == ("exact:ok",)


class TestDegradationLadder:
    def test_stuck_backend_degrades_to_approximate(self, service):
        service.inject_faults([STUCK])
        response = service.submit("ground_truth", {"perception": "none"},
                                  deadline_seconds=0.05)
        assert response.tier == TIER_APPROXIMATE
        assert response.degraded
        assert not response.stale
        # The approximate tier reports its sampling standard error.
        assert response.estimated_error is not None
        assert 0.0 < response.estimated_error < 0.2
        assert "exact:deadline" in response.attempts
        assert response.faults_fired == ("LatencyFault",)

    def test_injected_latency_counts_against_the_budget(self, service):
        service.inject_faults([STUCK])
        response = service.submit("ground_truth", EVIDENCE,
                                  deadline_seconds=0.05)
        # The injected spike (mean 60s) is virtual: the request reports
        # it as latency but never actually slept through it.
        assert response.injected_latency_seconds > 0.05
        assert response.latency_seconds >= response.injected_latency_seconds

    def test_exact_answer_feeds_the_cache_tier(self, service):
        exact = service.submit("ground_truth", EVIDENCE)
        service.inject_faults([STUCK])
        degraded = service.submit("ground_truth", EVIDENCE,
                                  deadline_seconds=0.05)
        assert degraded.tier == TIER_CACHE
        assert degraded.degraded
        assert degraded.estimated_error == 0.0
        assert degraded.posterior == pytest.approx(exact.posterior)

    def test_approximate_tracks_the_exact_posterior(self, service):
        service.inject_faults([STUCK])
        response = service.submit("ground_truth", EVIDENCE,
                                  deadline_seconds=0.2)
        truth = exact_posterior()
        for state, p in response.posterior.items():
            assert p == pytest.approx(truth[state], abs=0.08)

    def test_stale_floor_serves_priors_when_sampling_is_broken(self):
        # Sabotage both exact and approximate: a tiny deadline starves
        # the sampler sizing, and we force the approximate breaker open.
        with InferenceService(build_fig4_network(),
                              default_deadline=0.05) as svc:
            svc.inject_faults([STUCK])
            svc.breakers[TIER_APPROXIMATE].record_failure()
            svc.breakers[TIER_APPROXIMATE]._trip()  # force it open
            response = svc.submit("ground_truth", EVIDENCE)
            assert response.tier == TIER_STALE
            assert response.stale
            assert response.estimated_error is None  # honestly unknown
            assert response.posterior  # priors still sum to one
            assert sum(response.posterior.values()) == pytest.approx(1.0)

    def test_stale_floor_prefers_the_last_known_answer(self, service):
        exact = service.submit("ground_truth", EVIDENCE)
        service.inject_faults([STUCK])
        service.breakers[TIER_APPROXIMATE]._trip()
        response = service.submit("ground_truth", EVIDENCE,
                                  deadline_seconds=0.05)
        # cache tier answers first here; force it open too
        if response.tier == TIER_CACHE:
            service.breakers[TIER_CACHE]._trip()
            response = service.submit("ground_truth", EVIDENCE,
                                      deadline_seconds=0.05)
        assert response.tier == TIER_STALE
        assert response.stale
        assert response.posterior == pytest.approx(exact.posterior)
        assert "stale:hit" in response.attempts

    def test_probability_zero_evidence_propagates(self):
        # Evidence with probability 0 must raise, not degrade: no ladder
        # tier can answer an undefined posterior better.
        from repro.bayesnet.cpt import CPT
        from repro.bayesnet.network import BayesianNetwork
        from repro.bayesnet.variable import Variable
        a = Variable("a", ["x", "y"])
        b = Variable("b", ["on", "off"])
        bn = BayesianNetwork("zero-evidence")
        bn.add_cpt(CPT.prior(a, {"x": 0.5, "y": 0.5}))
        bn.add_cpt(CPT.from_dict(b, [a], {
            ("x",): {"on": 1.0, "off": 0.0},
            ("y",): {"on": 1.0, "off": 0.0},
        }))
        with InferenceService(bn, fault_injector=[STUCK]) as svc:
            with pytest.raises(InferenceError, match="probability 0"):
                svc.submit("a", {"b": "off"}, deadline_seconds=0.05)
            # ...and the model-level answer does not poison `/health`.
            assert svc.health()["status"] == "ok"


class TestLadderDisabled:
    def test_deadline_surfaces_without_ladder(self):
        with InferenceService(build_fig4_network(), ladder=False,
                              fault_injector=[STUCK]) as svc:
            with pytest.raises(DeadlineExceededError):
                svc.submit("ground_truth", EVIDENCE, deadline_seconds=0.05)

    def test_open_breaker_surfaces_without_ladder(self):
        with InferenceService(build_fig4_network(), ladder=False,
                              breaker_threshold=1,
                              fault_injector=[STUCK]) as svc:
            with pytest.raises(DeadlineExceededError):
                svc.submit("ground_truth", EVIDENCE, deadline_seconds=0.05)
            with pytest.raises(CircuitOpenError):
                svc.submit("ground_truth", EVIDENCE, deadline_seconds=0.05)


class TestBreakers:
    def test_repeated_deadline_failures_trip_the_exact_breaker(self):
        with InferenceService(build_fig4_network(), breaker_threshold=2,
                              fault_injector=[STUCK]) as svc:
            svc.submit("ground_truth", EVIDENCE, deadline_seconds=0.05)
            assert svc.breakers[TIER_EXACT].state == "closed"
            svc.submit("ground_truth", EVIDENCE, deadline_seconds=0.05)
            assert svc.breakers[TIER_EXACT].state == "open"
            # With the breaker open the exact tier is skipped outright.
            response = svc.submit("ground_truth", EVIDENCE,
                                  deadline_seconds=0.05)
            assert response.attempts[0] == "exact:open"

    def test_breaker_recovery_closes_after_hysteresis(self):
        retry = RetryPolicy(max_retries=1, backoff_base=0.0)
        with InferenceService(build_fig4_network(), breaker_threshold=1,
                              recovery_hysteresis=2, retry=retry,
                              fault_injector=[STUCK]) as svc:
            svc.submit("ground_truth", EVIDENCE, deadline_seconds=0.05)
            # backoff_base=0: the tripped breaker is immediately
            # probe-ready, so its state reads half_open.
            assert svc.breakers[TIER_EXACT].state in ("open", "half_open")
            svc.inject_faults(())  # the backend heals
            # backoff_base=0: the breaker probes immediately; two clean
            # probes close it again.
            first = svc.submit("ground_truth", EVIDENCE)
            second = svc.submit("ground_truth", EVIDENCE)
            assert first.tier == TIER_EXACT
            assert second.tier == TIER_EXACT
            assert svc.breakers[TIER_EXACT].state == "closed"


class TestSupervisorAndHealth:
    def test_healthy_service_reports_ok(self, service):
        service.submit("ground_truth", EVIDENCE)
        health = service.health()
        assert health["status"] == "ok"
        assert health["mode"] == "act_normally"
        assert health["requests"]["total"] == 1
        assert health["requests"]["by_tier"][TIER_EXACT] == 1

    def test_open_breaker_degrades_health(self):
        with InferenceService(build_fig4_network(), breaker_threshold=1,
                              fault_injector=[STUCK]) as svc:
            svc.submit("ground_truth", EVIDENCE, deadline_seconds=0.05)
            svc.submit("ground_truth", EVIDENCE, deadline_seconds=0.05)
            health = svc.health()
            assert health["status"] == "degraded"
            assert health["breakers"][TIER_EXACT]["state"] == "open"

    def test_health_recovers_hysteretically(self):
        retry = RetryPolicy(max_retries=1, backoff_base=0.0)
        with InferenceService(build_fig4_network(), breaker_threshold=1,
                              recovery_hysteresis=2, retry=retry,
                              fault_injector=[STUCK]) as svc:
            svc.submit("ground_truth", EVIDENCE, deadline_seconds=0.05)
            svc.submit("ground_truth", EVIDENCE, deadline_seconds=0.05)
            assert svc.health()["status"] == "degraded"
            svc.inject_faults(())
            modes = [svc.submit("ground_truth", EVIDENCE).mode
                     for _ in range(4)]
            # Recovery needs consecutive clean ticks (hysteresis), then
            # sticks.
            assert modes[-1] == "act_normally"
            assert svc.health()["status"] == "ok"


class TestAdmission:
    def test_sheds_beyond_max_inflight(self):
        with InferenceService(build_fig4_network(), pool_size=1,
                              max_queue=0) as svc:
            svc._inflight = svc.max_inflight  # simulate saturation
            try:
                with pytest.raises(OverloadError):
                    svc.submit("ground_truth", EVIDENCE)
            finally:
                svc._inflight = 0
            assert svc.health()["requests"]["shed"] == 1

    def test_closed_service_refuses(self, service):
        service.close()
        with pytest.raises(ServingError, match="closed"):
            service.submit("ground_truth", EVIDENCE)


class TestResponseDocument:
    def test_to_dict_is_json_ready(self, service):
        import json
        doc = service.submit("ground_truth", EVIDENCE).to_dict()
        round_tripped = json.loads(json.dumps(doc))
        assert round_tripped["tier"] == TIER_EXACT
        assert round_tripped["degraded"] is False
        assert round_tripped["stale"] is False
        assert round_tripped["estimated_error"] == 0.0
        assert round_tripped["mode"] == "act_normally"

    def test_fault_injector_instance_accepted(self):
        injector = FaultInjector([STUCK])
        with InferenceService(build_fig4_network(),
                              fault_injector=injector) as svc:
            assert svc.fault_injector is injector
