"""The campaign workload: ``repro campaign`` as a process.

Each measured run is one ``repro campaign --json --workers W --backend
process`` process, with W clamped to the machine's CPU count.  Its
report must match the bytes of the serial ``--workers 1`` report for the
same seed, computed after the measured window.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from typing import Callable, List, Optional, Tuple

import common

WORKERS = 2
SETUP_RUNS = 5
PROCESS_TIMEOUT = 60.0


def workers() -> int:
    """The worker count, clamped so no run claims cores it lacks."""
    return max(1, min(WORKERS, os.cpu_count() or 1))


def _command(seed: int, n_workers: int, trials: Optional[int] = None,
             trace_out: Optional[str] = None) -> List[str]:
    cli = ["campaign", "--json", "--seed", str(seed),
           "--workers", str(n_workers)]
    if n_workers > 1:
        cli += ["--backend", "process"]
    if trials is not None:
        cli += ["--trials", str(trials)]
    if trace_out is None:
        return [sys.executable, "-m", "repro"] + cli
    return [sys.executable, common.LAUNCHER, "--trace-out", trace_out] + cli


def run_process(command: List[str], work: str, tag: str
                ) -> Tuple[bytes, float, float]:
    """Run one campaign process: ``(stdout, wall seconds, peak RSS MB)``.

    The peak RSS is the largest of the process and the workers it
    waited for, as the kernel reports it to ``wait4``.
    """
    out_path = os.path.join(work, f"{tag}.out")
    with open(out_path, "wb") as out, \
            open(os.path.join(work, "campaign.log"), "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, cwd=common.ROOT,
                                env=common.child_env(), stdout=out,
                                stderr=log)
        watchdog = threading.Timer(PROCESS_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise common.BenchError(
            f"{' '.join(command)} exited with {proc.returncode}")
    with open(out_path, "rb") as handle:
        return handle.read(), wall, usage.ru_maxrss / 1024.0


def matches(report: bytes, serial: bytes) -> bool:
    """A parallel report is correct when it has the serial report's bytes."""
    return report == serial


def corrupt(report: bytes) -> bytes:
    """The report with one digit of a cell statistic changed."""
    at = report.index(b'"cells"')
    while not report[at:at + 1].isdigit():
        at += 1
    digit = b"%d" % ((int(report[at:at + 1]) + 1) % 10)
    return report[:at] + digit + report[at + 1:]


def _answers(report: bytes) -> int:
    """Encounters the report answers: every trial of both architectures
    in every cell, plus both no-fault baselines."""
    doc = json.loads(report)
    return doc["trials"] * (2 * len(doc["cells"]) + 2)


def _window(seconds: float, run_one: Callable[[int], tuple]) -> List[tuple]:
    """Run ``run_one(i)`` back to back until ``seconds`` have passed."""
    results: List[tuple] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        results.append(run_one(len(results)))
    return results


def run(name: str, seed: int, seconds: float, trace: bool, work: str
        ) -> common.Result:
    n_workers = workers()
    info = {"workers": n_workers, "workers_requested": WORKERS}

    def plain(i: int) -> tuple:
        return run_process(_command(seed, n_workers), work, f"run{i}")

    def traced(i: int) -> tuple:
        trace_out = os.path.join(work, f"trace{i}.json")
        out, wall, _ = run_process(
            _command(seed, n_workers, trace_out=trace_out), work,
            f"traced{i}")
        with open(trace_out) as handle:
            return out, wall, common.campaign_layers(json.load(handle), wall)

    if not trace:
        setups = [run_process(_command(seed, n_workers, trials=1), work,
                              f"setup{i}")[1] for i in range(SETUP_RUNS)]
        runs = _window(seconds, plain)
    else:
        runs = _window(seconds / 2, plain)
        traced_runs = _window(seconds / 2, traced)
    reports = [r[0] for r in runs]
    walls = [r[1] for r in runs]
    if trace:
        reports += [r[0] for r in traced_runs]
    serial, _, _ = run_process(_command(seed, 1), work, "serial")
    failed = sum(not matches(report, serial) for report in reports)
    if matches(corrupt(serial), serial):
        raise common.BenchError("self-check: a corrupted report passed")
    attempted = len(reports)
    info["samples"] = len(reports)
    if trace:
        layers = {key: common.median([r[2][key] for r in traced_runs])
                  for key in traced_runs[0][2]}
        layers["trace.overhead"] = (common.median([r[1] for r in traced_runs])
                                    / common.median(walls) - 1.0)
        return common.Result(layers, attempted, failed, info)
    info.update({"campaign_s": common.median(walls), "setup_samples": setups,
                 "failed_share": failed / attempted, "inexact_share": 0.0,
                 "latency_max_ms": 1e3 * max(walls)})
    metrics = {
        "setup_s": common.median(setups),
        "latency_p50_ms": 1e3 * common.median(walls),
        "answers_per_s": common.median([_answers(r) / wall for r, wall
                                        in zip(reports, walls)]),
        "success_share": 1.0 - failed / attempted,
        # No --error-budget: every campaign answer is exact.
        "exact_share": 1.0,
        "peak_rss_mb": max(r[2] for r in runs),
    }
    return common.Result(metrics, attempted, failed, info)
