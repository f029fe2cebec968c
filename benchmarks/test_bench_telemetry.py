"""EXT-P — telemetry overhead: traced vs untraced engine throughput.

The zero-cost-when-disabled contract, quantified: the same 1k-query
EXT-O-style loop runs (a) with telemetry fully disabled, (b) under an
active tracing session, and (c) against the raw implementation with the
instrumentation seam bypassed.  Disabled tracing must cost < 5% against
the bypassed path, and the run writes ``BENCH_telemetry.json`` so CI can
track the overhead over time.
"""

import json
import time
from pathlib import Path

from benchmarks.conftest import print_table
from repro import telemetry
from repro.bayesnet.engine import CompiledNetwork
from repro.perception.chain import build_fig4_network

#: The ISSUE acceptance ceiling on the disabled-tracing overhead.
MAX_DISABLED_OVERHEAD = 0.05

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_telemetry.json"


def _loop_seconds(fn, target, evidence, n):
    t0 = time.perf_counter()
    for _ in range(n):
        fn(target, evidence)
    return time.perf_counter() - t0


def _measure(n=1000, reps=7):
    engine = CompiledNetwork(build_fig4_network())
    evidence = {"perception": "none"}
    for _ in range(50):  # warm plans, caches, interpreter
        engine.query("ground_truth", evidence)
        engine._query("ground_truth", evidence)

    bypassed, disabled, traced = [], [], []
    for _ in range(reps):
        bypassed.append(_loop_seconds(engine._query, "ground_truth",
                                      evidence, n))
        disabled.append(_loop_seconds(engine.query, "ground_truth",
                                      evidence, n))
        with telemetry.session(max_spans=n + 1):
            traced.append(_loop_seconds(engine.query, "ground_truth",
                                        evidence, n))
    return {
        "queries": n,
        "bypassed_qps": n / min(bypassed),
        "disabled_qps": n / min(disabled),
        "traced_qps": n / min(traced),
        "disabled_overhead": min(disabled) / min(bypassed) - 1.0,
        "traced_overhead": min(traced) / min(bypassed) - 1.0,
    }


def test_disabled_tracing_is_free_traced_is_bounded(benchmark):
    """Throughput of the fig4 query loop under the three telemetry modes."""
    result = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print_table(
        "EXT-P telemetry overhead: 1k-query fig4 loop",
        ["mode", "queries/s", "overhead vs bypassed"],
        [("bypassed (no seam)", result["bypassed_qps"], 0.0),
         ("telemetry disabled", result["disabled_qps"],
          result["disabled_overhead"]),
         ("tracing enabled", result["traced_qps"],
          result["traced_overhead"])])
    for key, value in result.items():
        benchmark.extra_info[key] = value
    RESULT_PATH.write_text(json.dumps(result, indent=2, sort_keys=True)
                           + "\n")

    # The acceptance claim, with the same retry discipline as the tier-1
    # test: a real regression fails every attempt, timing noise does not.
    overhead = result["disabled_overhead"]
    for _ in range(3):
        if overhead <= MAX_DISABLED_OVERHEAD:
            break
        overhead = _measure()["disabled_overhead"]
    assert overhead <= MAX_DISABLED_OVERHEAD, overhead
    # Enabled tracing is allowed to cost real time, but the per-span work
    # on a ~10 microsecond query must stay within an order of magnitude.
    assert result["traced_qps"] > result["disabled_qps"] / 10.0


def test_traced_loop_records_every_query():
    """The traced loop's spans and counters agree with the work done."""
    engine = CompiledNetwork(build_fig4_network())
    evidence = {"perception": "none"}
    n = 200
    from repro.telemetry.metrics import ENGINE_QUERIES
    before = ENGINE_QUERIES.value(kind="scalar")
    with telemetry.session(max_spans=n) as tracer:
        for _ in range(n):
            engine.query("ground_truth", evidence)
    assert len(tracer.finished) == n
    assert tracer.span_counts() == {"engine.query": n}
    assert ENGINE_QUERIES.value(kind="scalar") - before == n


def test_disabled_overhead_under_five_percent():
    """The acceptance bar: the no-op check on the engine's query hot
    path costs < 5% against calling the implementation directly.

    A wall-clock ratio measures the host's load as much as the code, so
    it runs here with the benchmarks rather than in the unit tests.
    """
    engine = CompiledNetwork(build_fig4_network())
    evidence = {"perception": "none"}
    for _ in range(50):  # warm the plan cache and the interpreter
        engine.query("ground_truth", evidence)
        engine._query("ground_truth", evidence)

    n = 1000
    # Min-of-N per side catches a quiet scheduling window; a real
    # overhead regression shows up in *every* attempt, while one-off
    # timing noise (CPU scaling, co-tenant bursts) does not, so the
    # test retries before declaring a regression.
    ratios = []
    for _ in range(4):
        wrapped_times, direct_times = [], []
        for _ in range(7):
            wrapped_times.append(_loop_seconds(engine.query, "ground_truth",
                                               evidence, n))
            direct_times.append(_loop_seconds(engine._query, "ground_truth",
                                              evidence, n))
        ratios.append(min(wrapped_times) / min(direct_times))
        if ratios[-1] <= 1.0 + MAX_DISABLED_OVERHEAD:
            break
    assert telemetry.active() is None
    assert min(ratios) <= 1.0 + MAX_DISABLED_OVERHEAD, (
        f"disabled-tracing overhead too high in every attempt: "
        f"ratios {[f'{r:.3f}' for r in ratios]}")
