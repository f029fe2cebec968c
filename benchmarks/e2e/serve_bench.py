"""Serving workloads: ``repro serve`` over a real socket.

A closed loop: ``CLIENTS`` threads in this process, each sending its next
request only after the previous response body has been read, over a
fresh connection per request (the server speaks HTTP/1.0), so at most
``CLIENTS`` connections are open at once.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import common
import gennet

CLIENTS = 2
#: Server spawns per run; the median of their set-up times is reported
#: and the last one serves the measured window.
SETUP_SPAWNS = 5
WARMUP_SECONDS = 1.0
REQUEST_TIMEOUT = 30.0
START_TIMEOUT = 60.0
#: Rows per ``POST /batch`` block on sweep-gen-batch.  The clients leave
#: the server's default 100 ms deadline in force; 32-row blocks reach
#: it at p99 when the host runs slow and then fail, and 16-row blocks
#: came within 22% of it.
BATCH_ROWS = 8
#: An approximate answer passes when every state lies within this many
#: reported standard errors (``estimated_error``) of the exact answer.
APPROX_SIGMAS = 4.0
#: Reference rows re-checked through the scalar ``query`` path.
SCALAR_SAMPLE = 32
#: Rows per reference ``query_batch`` call.
REFERENCE_BLOCK = 512

FIG4_OUTPUTS = ("car", "pedestrian", "car/pedestrian", "none")

Request = Tuple[str, dict]   # (path, JSON payload)


@dataclass
class Sample:
    path: str
    payload: dict
    latency: float           # seconds, send to full body read or error
    status: Optional[int]    # None on a connection error
    body: bytes


# -- workload definitions -----------------------------------------------------


@dataclass
class ServeWorkload:
    command: Callable[[int, Optional[str]], List[str]]
    network: Callable[[int], object]
    probe: Request
    client: Callable[[int, int], Iterator[Request]]
    shape: Callable[[object], dict]


def _fig4_command(seed: int, trace_out: Optional[str]) -> List[str]:
    cli = ["serve", "--port", "0", "--seed", str(seed)]
    if trace_out is None:
        return [sys.executable, "-m", "repro"] + cli
    return [sys.executable, common.LAUNCHER, "--trace-out", trace_out] + cli


def _gen_command(seed: int, trace_out: Optional[str]) -> List[str]:
    cmd = [sys.executable, common.LAUNCHER, "--gen-seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    return cmd + ["serve", "--port", "0", "--seed", str(seed)]


def _fig4_network(seed: int):
    from repro.perception.chain import build_fig4_network
    return build_fig4_network()


def _fig4_mix(seed: int, client: int) -> Iterator[Request]:
    """The EXT-V mix: zero-budget audits, 0.05-budget monitoring probes
    and hot zero-budget repeats of one diagnosis, in seeded order."""
    rng = np.random.default_rng([seed, 3, client])
    while True:
        kind = int(rng.integers(3))
        state = FIG4_OUTPUTS[int(rng.integers(len(FIG4_OUTPUTS)))]
        if kind == 2:
            state, budget = FIG4_OUTPUTS[0], 0.0
        else:
            budget = 0.05 if kind == 1 else 0.0
        yield "/query", {"target": "ground_truth",
                         "evidence": {"perception": state},
                         "error_budget": budget}


def _walk(seed: int, client: int) -> Iterator[Request]:
    for row in gennet.walk(seed, client):
        yield "/query", {"target": gennet.TARGET, "evidence": row}


def _sweep(seed: int, client: int) -> Iterator[Request]:
    for block in gennet.blocks(seed, client, BATCH_ROWS):
        yield "/batch", {"target": gennet.TARGET, "rows": block}


_GEN_PROBE = ("/query", {"target": gennet.TARGET,
                         "evidence": gennet.probe_row()})

WORKLOADS: Dict[str, ServeWorkload] = {
    "serve-fig4-mixed": ServeWorkload(
        _fig4_command, _fig4_network,
        ("/query", {"target": "ground_truth",
                    "evidence": {"perception": FIG4_OUTPUTS[0]}}),
        _fig4_mix, lambda network: {"network": "fig4", "nodes": 2}),
    "serve-gen-walk": ServeWorkload(
        _gen_command, gennet.build_network, _GEN_PROBE, _walk,
        gennet.shape),
    "sweep-gen-batch": ServeWorkload(
        _gen_command, gennet.build_network, _GEN_PROBE, _sweep,
        gennet.shape),
}


# -- HTTP client --------------------------------------------------------------


def post(port: int, path: str, payload: dict) -> Tuple[Optional[int], bytes]:
    """One request on a fresh connection; ``(None, b"")`` on a socket
    error."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT)
    try:
        conn.request("POST", path, body=json.dumps(payload),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return None, b""
    finally:
        conn.close()


def drive(port: int, clients: List[Iterator[Request]], seconds: float
          ) -> Tuple[List[Sample], float]:
    """Closed loop: each client sends until ``seconds`` have passed.
    Returns the samples and the wall time until the last response."""
    samples: List[List[Sample]] = [[] for _ in clients]
    start = time.perf_counter()

    def loop(index: int) -> None:
        source, out = clients[index], samples[index]
        while time.perf_counter() - start < seconds:
            path, payload = next(source)
            t0 = time.perf_counter()
            status, body = post(port, path, payload)
            t1 = time.perf_counter()
            out.append(Sample(path, payload, t1 - t0, status, body))

    threads = [threading.Thread(target=loop, args=(i,))
               for i in range(len(clients))]
    # A full collection of the growing sample list would stall both
    # clients for ~15 ms and land in the measured tail, so collection
    # waits until the window ends.
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    return [s for per in samples for s in per], time.perf_counter() - start


# -- server processes ---------------------------------------------------------


class Server:
    """One spawned server; ``setup_s`` is spawn to first correct answer."""

    def __init__(self, command: List[str], probe: Request,
                 probe_answer: Dict[str, float], log_path: str):
        self._log = open(log_path, "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=common.ROOT,
                                     env=common.child_env(),
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        try:
            self.port = self._read_port()
            status, body = post(self.port, *probe)
            if status != 200 or \
                    json.loads(body)["posterior"] != probe_answer:
                raise common.BenchError(
                    f"first answer wrong: status {status}, {body[:200]!r}")
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.close()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline().decode()
            if not line:
                break
            match = re.search(r"http://[^:\s]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise common.BenchError(
            f"server did not start: {' '.join(self.proc.args)}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise common.BenchError("no VmHWM in /proc status")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def close(self) -> None:
        """SIGINT (clean shutdown, flushes any trace), then kill."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# -- correctness --------------------------------------------------------------


def _key(target: str, evidence: dict) -> Tuple:
    return (target,) + tuple(sorted(evidence.items()))


class Checker:
    """Checks served answers against a reference engine built here.

    Exact and cache answers (every ``/batch`` row included) must equal
    the reference posterior bit for bit after the JSON round trip, which
    is exact for floats.  Approximate answers must fit their declared
    error budget and lie within ``APPROX_SIGMAS`` reported standard
    errors of the exact posterior.  Stale answers carry no error bound
    and are only counted as inexact.
    """

    def __init__(self, network, seed: int):
        from repro.bayesnet.engine import CompiledNetwork
        self._scalar = CompiledNetwork(network)
        self._batched = CompiledNetwork(network)
        self._seed = seed
        self._exact: Dict[Tuple, Dict[str, float]] = {}

    def reference(self, target: str, evidence: dict) -> Dict[str, float]:
        """``CompiledNetwork.query`` on a fresh engine, memoized."""
        key = _key(target, evidence)
        if key not in self._exact:
            self._exact[key] = self._scalar.query(target, evidence)
        return self._exact[key]

    def prepare(self, samples: List[Sample]) -> None:
        """Reference answers for every row served, computed in stacked
        ``query_batch`` blocks; a seeded sample of them must equal the
        scalar ``query`` answer as well."""
        pending: Dict[Tuple, Tuple[str, dict]] = {}
        for sample in samples:
            target = sample.payload["target"]
            rows = sample.payload.get("rows") or \
                [sample.payload["evidence"]]
            for row in rows:
                key = _key(target, row)
                if key not in self._exact:
                    pending[key] = (target, row)
        keys = sorted(pending)
        for start in range(0, len(keys), REFERENCE_BLOCK):
            block = keys[start:start + REFERENCE_BLOCK]
            by_target: Dict[str, List[Tuple]] = {}
            for key in block:
                by_target.setdefault(pending[key][0], []).append(key)
            for target, group in by_target.items():
                posts = self._batched.query_batch(
                    target, [pending[key][1] for key in group])
                self._exact.update(zip(group, posts))
        rng = np.random.default_rng([self._seed, 9])
        for index in rng.permutation(len(keys))[:SCALAR_SAMPLE]:
            target, row = pending[keys[int(index)]]
            if self._scalar.query(target, row) != self._exact[_key(target,
                                                                  row)]:
                raise common.BenchError(
                    "reference query_batch and query disagree")

    def answer_ok(self, target: str, doc: dict,
                  budget: Optional[float]) -> bool:
        exact = self._exact[_key(target, doc["evidence"])]
        tier = doc.get("tier")
        if tier in ("exact", "cache"):
            return doc["posterior"] == exact
        if tier == "approximate":
            error = doc["estimated_error"]
            if error is None or (budget is not None and error > budget):
                return False
            return all(abs(doc["posterior"][s] - p)
                       <= APPROX_SIGMAS * error + 1e-12
                       for s, p in exact.items())
        return tier == "stale"

    def check(self, sample: Sample) -> Tuple[bool, int, int]:
        """``(ok, answers, inexact answers)`` for one request."""
        if sample.status != 200:
            return False, 0, 0
        doc = json.loads(sample.body)
        payload = sample.payload
        if sample.path == "/batch":
            results = doc["results"]
            ok = len(results) == len(payload["rows"]) and all(
                "error" not in r and r["evidence"] == row
                and self.answer_ok(payload["target"], r, None)
                for r, row in zip(results, payload["rows"]))
            return ok, len(results), sum(
                1 for r in results if r.get("tier") in common.INEXACT)
        ok = doc.get("evidence") == payload["evidence"] and self.answer_ok(
            payload["target"], doc, payload.get("error_budget"))
        return ok, 1, int(doc.get("tier") in common.INEXACT)


def corrupt(sample: Sample) -> Sample:
    """A copy of one answer with one posterior value nudged by 1 ulp."""
    doc = json.loads(sample.body)
    answer = doc["results"][0] if sample.path == "/batch" else doc
    state = sorted(answer["posterior"])[0]
    answer["posterior"][state] = float(
        np.nextafter(answer["posterior"][state], 2.0))
    return Sample(sample.path, sample.payload, sample.latency, sample.status,
                  json.dumps(doc).encode())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    answers: int = 0
    inexact: int = 0


def verify(checker: Checker, samples: List[Sample]) -> Tally:
    """Check every answer and count failures; raise if the checker
    accepts a deliberately corrupted answer."""
    checker.prepare(samples)
    tally = Tally()
    exact: Optional[Sample] = None
    for sample in samples:
        ok, answers, inexact = checker.check(sample)
        tally.attempted += 1
        tally.failed += not ok
        if ok:
            tally.answers += answers
            tally.inexact += inexact
            if exact is None and not inexact:
                exact = sample
    if exact is None or checker.check(corrupt(exact))[0]:
        raise common.BenchError("self-check: a corrupted answer passed")
    return tally


# -- runs ---------------------------------------------------------------------


def _phase(workload: ServeWorkload, seed: int, seconds: float,
           work: str, checker: Checker, probe_answer: Dict[str, float],
           trace_out: Optional[str] = None, spawns: int = 1) -> dict:
    """Spawn the server (``spawns`` times, serving from the last), warm
    it up, measure a window, shut it down and check every answer."""
    log = os.path.join(work, "server.log")
    command = workload.command(seed, trace_out)
    setups = []
    for _ in range(spawns - 1):
        server = Server(command, workload.probe, probe_answer, log)
        setups.append(server.setup_s)
        server.close()
    server = Server(command, workload.probe, probe_answer, log)
    setups.append(server.setup_s)
    try:
        clients = [workload.client(seed, c) for c in range(CLIENTS)]
        drive(server.port, clients, WARMUP_SECONDS)
        if trace_out is not None:
            server.signal(signal.SIGUSR1)   # count the window only
            time.sleep(0.05)
        samples, elapsed = drive(server.port, clients, seconds)
        rss = server.peak_rss_mb()
    finally:
        server.close()
    tally = verify(checker, samples)
    # Every attempted request is timed, failures included, so a change
    # that makes requests fail slowly shows in the tail.
    return {"setups": setups, "tally": tally,
            "rate": tally.answers / elapsed,
            "latencies": sorted(s.latency for s in samples), "rss": rss}


def run(name: str, seed: int, seconds: float, trace: bool, work: str
        ) -> common.Result:
    workload = WORKLOADS[name]
    network = workload.network(seed)
    checker = Checker(network, seed)
    probe_answer = checker.reference(workload.probe[1]["target"],
                                     workload.probe[1]["evidence"])
    info = {"shape": workload.shape(network), "clients": CLIENTS,
            "loop": "closed", "warmup_s": WARMUP_SECONDS}
    if name == "sweep-gen-batch":
        info["batch_rows"] = BATCH_ROWS
    if not trace:
        phase = _phase(workload, seed, seconds, work, checker, probe_answer,
                       spawns=SETUP_SPAWNS)
        tally = phase["tally"]
        info.update({"samples": len(phase["latencies"]),
                     "setup_samples": phase["setups"],
                     "failed_share": tally.failed / tally.attempted,
                     "inexact_share": tally.inexact / max(tally.answers, 1),
                     # Printed, not bounded: see README.md.
                     "latency_p99_ms": 1e3 * common.percentile(
                         phase["latencies"], 99)})
        metrics = {
            "setup_s": common.median(phase["setups"]),
            "latency_p50_ms": 1e3 * common.percentile(phase["latencies"], 50),
            "answers_per_s": phase["rate"],
            "success_share": 1.0 - tally.failed / tally.attempted,
            "exact_share": 1.0 - tally.inexact / max(tally.answers, 1),
            "peak_rss_mb": phase["rss"],
        }
        return common.Result(metrics, tally.attempted, tally.failed, info)

    half = seconds / 2.0
    plain = _phase(workload, seed, half, work, checker, probe_answer)
    trace_out = os.path.join(work, "trace.json")
    traced = _phase(workload, seed, half, work, checker, probe_answer,
                    trace_out=trace_out)
    with open(trace_out) as handle:
        dump = json.load(handle)
    layers = common.serving_layers(dump, sum(traced["latencies"]))
    layers["trace.overhead"] = plain["rate"] / traced["rate"] - 1.0
    info["samples"] = len(traced["latencies"])
    attempted = plain["tally"].attempted + traced["tally"].attempted
    failed = plain["tally"].failed + traced["tally"].failed
    return common.Result(layers, attempted, failed, info)
