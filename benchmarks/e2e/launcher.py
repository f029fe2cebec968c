"""Enter ``repro.cli`` with optional layer timers and a generated network.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python benchmarks/e2e/launcher.py [--gen-seed N] [--trace-out PATH] \
        serve --port 0 ...
    python benchmarks/e2e/launcher.py --trace-out PATH campaign --json ...

``--gen-seed N`` makes ``repro serve`` build its usual stack (the same
``InferenceService`` and ``repro.serving.http.serve`` calls, with the
same defaults) around the seeded generated network of :mod:`gennet`
instead of the Fig. 4 network.

``--trace-out PATH`` wraps the public entry points of each layer in
wall-clock timers before the CLI runs, and writes the totals to PATH as
JSON when it returns.  Nothing inside ``src/`` is changed.  ``SIGUSR1``
zeroes the totals, so a caller can start counting after warm-up.
Campaign workers are forked from this process, so they inherit the
timers; they append their cell times to ``PATH.cells/<pid>.jsonl``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class LayerTrace:
    """Thread-safe per-layer totals: seconds, calls and work units
    (rows, or bytes for the arena)."""

    def __init__(self, cell_dir: str):
        self.cell_dir = cell_dir
        self._lock = threading.Lock()
        self._engines: Dict[int, object] = {}
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.seconds: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.units: Dict[str, int] = defaultdict(int)
            self.marks: Dict[str, float] = {}
            self._cache_base = {key: self._cache_counts(engine)
                                for key, engine in self._engines.items()}

    def add(self, layer: str, seconds: float, units: int = 0) -> None:
        with self._lock:
            self.seconds[layer] += seconds
            self.calls[layer] += 1
            self.units[layer] += units

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.calls[name] += n

    def mark(self, name: str, when: float) -> None:
        with self._lock:
            self.marks.setdefault(name, when)

    def see_engine(self, engine) -> None:
        with self._lock:
            if id(engine) not in self._engines:
                self._engines[id(engine)] = engine
                self._cache_base[id(engine)] = self._cache_counts(engine)

    @staticmethod
    def _cache_counts(engine):
        stats = engine.stats
        return stats.evidence_cache_hits, stats.evidence_cache_misses

    def record_cell(self, seconds: float) -> None:
        """One campaign cell; called in whichever process ran it."""
        os.makedirs(self.cell_dir, exist_ok=True)
        path = os.path.join(self.cell_dir, f"{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps({"pid": os.getpid(),
                                     "seconds": seconds}) + "\n")

    def dump(self, path: str) -> None:
        cells: List[dict] = []
        if os.path.isdir(self.cell_dir):
            for name in sorted(os.listdir(self.cell_dir)):
                with open(os.path.join(self.cell_dir, name)) as handle:
                    cells.extend(json.loads(line) for line in handle)
        with self._lock:
            hits = misses = 0
            for key, engine in self._engines.items():
                base_hits, base_misses = self._cache_base.get(key, (0, 0))
                now_hits, now_misses = self._cache_counts(engine)
                hits += now_hits - base_hits
                misses += now_misses - base_misses
            doc = {"seconds": dict(self.seconds), "calls": dict(self.calls),
                   "units": dict(self.units), "marks": dict(self.marks),
                   "engine_cache": {"hits": hits, "misses": misses},
                   "cells": cells}
        with open(path, "w") as handle:
            json.dump(doc, handle, sort_keys=True)


def _wrap(owner, attr: str, after: Callable, *, static: bool = False
          ) -> None:
    """Replace ``owner.attr`` with a timer calling
    ``after(seconds, args, kwargs, result)`` once the call returns."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        result = original(*args, **kwargs)
        after(time.perf_counter() - t0, args, kwargs, result)
        return result

    setattr(owner, attr, staticmethod(timed) if static else timed)


def install(trace: LayerTrace) -> None:
    """Time each layer's public entry points (see README.md)."""
    from repro.bayesnet.engine import CompiledNetwork
    from repro.bayesnet.inference.junction_tree import JunctionTree
    from repro.bayesnet.planner import QueryPlanner
    from repro.parallel import arena, executor, sharder
    from repro.robustness import campaign
    from repro.robustness.report import RobustnessReport
    from repro.serving.http import ServiceHTTPServer
    from repro.serving.pool import EnginePool
    from repro.serving.service import InferenceService

    def simple(layer: str) -> Callable:
        return lambda s, args, kwargs, result: trace.add(layer, s)

    def submitted(s, args, kwargs, response):
        trace.add("serving.service.submit", s)
        trace.count(f"serving.service.tier.{response.tier}")

    def submitted_batch(s, args, kwargs, results):
        trace.add("serving.service.submit_batch", s, units=len(results))
        trace.count("serving.service.tier.exact",
                    sum(1 for r in results if "error" not in r))

    def engine_query(s, args, kwargs, result):
        trace.see_engine(args[0])
        trace.add("bayesnet.engine.query", s)

    def engine_batch(s, args, kwargs, result):
        trace.see_engine(args[0])
        trace.add("bayesnet.engine.query_batch", s, units=len(result))

    def calibrated(s, args, kwargs, beliefs):
        trace.add("bayesnet.inference.junction_tree.calibrate", s,
                  units=len(args[1]))

    def campaign_run(s, args, kwargs, report):
        trace.mark("campaign.start", time.perf_counter() - s)
        trace.add("robustness.campaign.run", s)

    def mapped(s, args, kwargs, results):
        trace.mark("map.start", time.perf_counter() - s)
        trace.add("parallel.executor.map", s)
        trace.count("parallel.executor.workers", args[0].workers)

    def packed(s, args, kwargs, packed_arena):
        nbytes = packed_arena.nbytes if packed_arena is not None else 0
        trace.add("parallel.arena.pack", s, units=nbytes)

    _wrap(ServiceHTTPServer, "finish_request", simple("serving.http"))
    _wrap(InferenceService, "submit", submitted)
    _wrap(InferenceService, "submit_batch", submitted_batch)
    _wrap(EnginePool, "checkout", simple("serving.pool.checkout"))
    _wrap(CompiledNetwork, "query", engine_query)
    _wrap(CompiledNetwork, "query_batch", engine_batch)
    _wrap(JunctionTree, "calibrate_batch", calibrated)
    _wrap(QueryPlanner, "route", simple("bayesnet.planner.route"))
    _wrap(QueryPlanner, "route_batch", simple("bayesnet.planner.route"))
    _wrap(campaign, "run_campaign", campaign_run)
    _wrap(campaign, "run_cell",
          lambda s, args, kwargs, cell: trace.record_cell(s))
    _wrap(executor.ParallelExecutor, "map_with_context", mapped)
    _wrap(arena.FactorArena, "pack", packed, static=True)
    for module in (executor, sharder):
        _wrap(module, "balanced_partition",
              simple("parallel.sharder.partition"))
    _wrap(RobustnessReport, "to_json", simple("robustness.report.serialize"))


def use_generated_network(seed: int) -> None:
    """Make ``repro serve`` build its stack around the generated network."""
    import gennet
    from repro.perception import chain
    chain.build_fig4_network = lambda *args, **kwargs: \
        gennet.build_network(seed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gen-seed", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="arguments for repro.cli")
    args = parser.parse_args(argv)
    if args.gen_seed is not None:
        use_generated_network(args.gen_seed)
    trace = None
    if args.trace_out is not None:
        trace = LayerTrace(args.trace_out + ".cells")
        install(trace)
        signal.signal(signal.SIGUSR1, lambda signum, frame: trace.reset())
    from repro.cli import main as cli_main
    code = cli_main(args.cli)
    sys.stdout.flush()
    if trace is not None:
        trace.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
