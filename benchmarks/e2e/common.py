"""Shared helpers: paths, child environment, statistics, layer metrics."""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Dict, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launcher.py")
#: Run artifacts (server logs, trace dumps, result documents).
WORK = os.path.join(ROOT, ".e2e_bench")

#: Tiers whose answers carry a nonzero or unknown error.
INEXACT = ("approximate", "stale")

class BenchError(Exception):
    """The benchmark could not run or the program answered wrongly."""


@dataclass
class Result:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    info: Dict[str, object] = field(default_factory=dict)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONUNBUFFERED"] = "1"
    return env


def declared_units(kind: str) -> Dict[str, str]:
    """``{metric: unit}`` of one metric list of ``BENCHMARK.json``
    (``"end_to_end"`` or ``"per_layer"``), in declared order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def context() -> Dict[str, object]:
    """Hardware and software the numbers were measured on."""
    import numpy
    return {"cpu_count": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "platform": platform.platform(),
            "loadavg": list(os.getloadavg())}


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _per_call_ms(dump: dict, layer: str) -> float:
    calls = dump["calls"].get(layer, 0)
    return 1e3 * dump["seconds"].get(layer, 0.0) / calls if calls else 0.0


def _engine_layers(dump: dict) -> Dict[str, float]:
    calls, units = dump["calls"], dump["units"]
    cache = dump["engine_cache"]
    lookups = cache["hits"] + cache["misses"]
    calibrations = calls.get("bayesnet.inference.junction_tree.calibrate", 0)
    return {
        "bayesnet.engine.query_ms": _per_call_ms(dump,
                                                 "bayesnet.engine.query"),
        "bayesnet.engine.queries": calls.get("bayesnet.engine.query", 0),
        "bayesnet.engine.cache_hit_ratio": (cache["hits"] / lookups
                                            if lookups else 0.0),
        "bayesnet.engine.query_batch_ms": _per_call_ms(
            dump, "bayesnet.engine.query_batch"),
        "bayesnet.engine.batch_rows": units.get("bayesnet.engine.query_batch",
                                               0),
        "bayesnet.inference.junction_tree.calibrate_ms": _per_call_ms(
            dump, "bayesnet.inference.junction_tree.calibrate"),
        "bayesnet.inference.junction_tree.rows_per_call": (
            units.get("bayesnet.inference.junction_tree.calibrate", 0)
            / calibrations if calibrations else 0.0),
        "bayesnet.planner.routes": calls.get("bayesnet.planner.route", 0),
    }


def _zeros() -> Dict[str, float]:
    """Every per-layer metric at 0: each workload reports all of them,
    0 where the layer is not on its path."""
    return {name: 0.0 for name in declared_units("per_layer")}


def serving_layers(dump: dict, client_seconds: float) -> Dict[str, float]:
    """Per-layer metrics of a traced serving window.

    HTTP self time is the server's time handling a request minus the
    time in ``InferenceService.submit``/``submit_batch``; service self
    time is that submit time minus pool lease waits and engine calls.
    Coverage is server handling time over client-observed latency.
    """
    seconds, calls = dump["seconds"], dump["calls"]
    requests = calls.get("serving.http", 0)
    if not requests:
        raise BenchError("traced server recorded no requests")
    submit = (seconds.get("serving.service.submit", 0.0)
              + seconds.get("serving.service.submit_batch", 0.0))
    inner = (seconds.get("serving.pool.checkout", 0.0)
             + seconds.get("bayesnet.engine.query", 0.0)
             + seconds.get("bayesnet.engine.query_batch", 0.0))
    tier = {t: calls.get(f"serving.service.tier.{t}", 0)
            for t in ("exact", "cache") + INEXACT}
    out = _zeros()
    out.update(_engine_layers(dump))
    out.update({
        "serving.http.self_ms": 1e3 * (seconds["serving.http"] - submit)
        / requests,
        "serving.service.self_ms": 1e3 * (submit - inner) / requests,
        "serving.service.exact_answers": tier["exact"],
        "serving.service.cache_answers": tier["cache"],
        "serving.service.inexact_answers": sum(tier[t] for t in INEXACT),
        "serving.pool.lease_wait_ms": _per_call_ms(dump,
                                                   "serving.pool.checkout"),
        "serving.pool.leases": calls.get("serving.pool.checkout", 0),
        "trace.coverage": seconds["serving.http"] / client_seconds,
    })
    return out


def campaign_layers(dump: dict, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced ``repro campaign`` process.

    The baseline is the time from entering ``run_campaign`` to entering
    the executor's map.  Imbalance is the busiest worker's summed cell
    time over the mean per worker; busy share is summed cell time over
    workers x map wall time.  Coverage is the time inside
    ``run_campaign`` plus report serialization over the process wall.
    """
    seconds, calls, units = dump["seconds"], dump["calls"], dump["units"]
    cells = [c["seconds"] for c in dump["cells"]]
    maps = calls.get("parallel.executor.map", 0)
    if not cells or not maps:
        raise BenchError("traced campaign recorded no cells")
    workers = calls["parallel.executor.workers"] / maps
    per_worker: Dict[int, float] = {}
    for cell in dump["cells"]:
        per_worker[cell["pid"]] = per_worker.get(cell["pid"], 0.0) \
            + cell["seconds"]
    packs = calls.get("parallel.arena.pack", 0)
    marks = dump["marks"]
    out = _zeros()
    out.update(_engine_layers(dump))
    out.update({
        "robustness.campaign.cell_ms": 1e3 * sum(cells) / len(cells),
        "robustness.campaign.cells": len(cells),
        "robustness.campaign.baseline_ms": 1e3 * (marks["map.start"]
                                                  - marks["campaign.start"]),
        "robustness.report.serialize_ms": _per_call_ms(
            dump, "robustness.report.serialize"),
        "parallel.arena.pack_ms": _per_call_ms(dump, "parallel.arena.pack"),
        "parallel.arena.bytes": units.get("parallel.arena.pack", 0) / packs
        if packs else 0.0,
        "parallel.sharder.partition_ms": _per_call_ms(
            dump, "parallel.sharder.partition"),
        "parallel.sharder.imbalance": max(per_worker.values())
        / (sum(cells) / workers),
        "parallel.executor.map_ms": _per_call_ms(dump,
                                                 "parallel.executor.map"),
        "parallel.executor.busy_share": sum(cells)
        / (workers * seconds["parallel.executor.map"]),
        "trace.coverage": (seconds["robustness.campaign.run"]
                           + seconds.get("robustness.report.serialize", 0.0))
        / wall,
    })
    return out
