"""End-to-end, layer-by-layer benchmark of ``repro serve`` and ``repro campaign``.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload serve-gen-walk --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no timers installed;
``--trace 1`` runs the workload once plain and once under the layer
timers of ``launcher.py`` and reports the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat
every metric by name and unit, with the hardware and software context.
The full result document is written to ``.e2e_bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import Dict

import common

WORKLOADS = ("serve-fig4-mixed", "serve-gen-walk", "sweep-gen-batch",
             "campaign-w2")


def _print_summary(name: str, result: common.Result,
                   units: Dict[str, str]) -> None:
    print(f"workload {name}: {result.attempted} attempted, "
          f"{result.failed} failed")
    for key, value in sorted(result.info.items()):
        print(f"  {key}: {value}")
    for key, value in result.metrics.items():
        print(f"  {key} = {value!r} {units[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(common.SRC, "repro", "cli.py")):
        print(f"no repro sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    import campaign_bench
    import serve_bench

    work = os.path.join(common.WORK, f"{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = common.context()
    bench = campaign_bench if args.workload == "campaign-w2" else serve_bench
    try:
        result = bench.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), work)
    except common.BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    ctx["loadavg_after"] = list(os.getloadavg())
    result.info["context"] = ctx
    units = common.declared_units("per_layer" if args.trace
                                  else "end_to_end")
    if set(result.metrics) != set(units):
        print("measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(result.metrics) ^ set(units))}", file=sys.stderr)
        return 1
    metrics = {key: {"value": float(value), "unit": units[key]}
               for key, value in result.metrics.items()}
    with open(os.path.join(work, "result.json"), "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "attempted": result.attempted, "failed": result.failed,
                   "info": result.info, "metrics": metrics}, handle,
                  indent=2, sort_keys=True)
    _print_summary(args.workload, result, units)
    print(json.dumps({"correct": result.failed == 0,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
