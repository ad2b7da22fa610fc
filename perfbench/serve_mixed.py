"""serve-mixed: open-loop HTTP traffic against a ``repro serve`` subprocess.

The server runs in its own process with one worker per core and a
fresh shared cache.  Arrivals come at :data:`RATE` requests per
second, each at a seeded random point of its own 1/RATE slot, fixed
before the run starts (a Poisson stream's bursts made the p95 of a
200-request run too unsteady to bound).  They come in blocks of nine: the eight conformance instances once each
(warm: set-up sent each of them once) and one fresh exact instance
(cold: a new rigid motion of a pinned pool member), in seeded order.

The generator is one process with at most one sending thread, and so
one connection, per core.  Each request is timed from when it was
due, so time spent waiting for a free connection counts.  A run whose
sends ran late (``loadgen.lag_p95_ms`` above :data:`LAG_LIMIT_MS`)
is refused as invalid.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.domains.conformance import CONFORMANCE_CASES
from repro.netgen import two_tier_library

from . import instances, layers
from .common import ROOT, OUT_DIR, Outcome, cost_matches, median, nproc, peak_rss_mb, percentile

#: offered load, requests per second: 40% of the 25 req/s the server
#: sustained on this mix closed-loop, one connection per core (2-core
#: x86-64 VM, numpy kernels).  At half of it the p95 of a 200-request
#: run spread too far from run to run.
RATE = 10.0
#: arrivals come in blocks: each conformance instance once, one fresh.
BLOCK = len(CONFORMANCE_CASES) + 1
#: server start-up (to a healthy ``/v1/health``) is timed this often.
SERVER_STARTS = 3
#: a run whose sends were later than this at p95 is invalid.
LAG_LIMIT_MS = 100.0
#: closed-loop repeats per conformance instance when measuring the
#: tracing overhead in the traced run.
OVERHEAD_REPEATS = 3
_HOST = "127.0.0.1"
_REQUEST_TIMEOUT_S = 120.0
_START_TIMEOUT_S = 60.0
_CONFORMANCE_FIXTURE = ROOT / "tests" / "fixtures" / "conformance.json"


@dataclass
class _Request:
    due_s: float
    name: str
    body: bytes
    expected: float


@dataclass
class _Sample:
    request: _Request
    status: int
    record: Dict[str, Any]
    conn_wait_s: float
    lag_s: float
    latency_s: float


def _post(port: int, body: bytes):
    conn = http.client.HTTPConnection(_HOST, port, timeout=_REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", "/v1/synthesize", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _get(port: int, path: str):
    conn = http.client.HTTPConnection(_HOST, port, timeout=10.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class _Server:
    """One ``repro serve`` subprocess in its own session (so stopping it
    reaches its pool workers too)."""

    def __init__(self, directory: Path, workers: int) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self.cache = directory / "cache"
        self.workers = workers
        self.port: Optional[int] = None
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> float:
        """Spawn the server; returns seconds until ``/v1/health`` said ok."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        log_path = self.directory / "server.log"
        started = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", _HOST, "--port", "0",
                 "--workers", str(self.workers), "--cache", str(self.cache),
                 "--spool", str(self.directory / "spool")],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
                env=env, cwd=str(ROOT), start_new_session=True,
            )
        while self.port is None:
            match = re.search(rb"listening on http://[^:]+:(\d+)", log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
            elif self.proc.poll() is not None or time.perf_counter() - started > _START_TIMEOUT_S:
                raise RuntimeError(f"repro serve did not start; see {log_path}")
            else:
                time.sleep(0.005)
        while True:
            try:
                status, doc = _get(self.port, "/v1/health")
                if status == 200 and doc.get("status") == "ok":
                    return time.perf_counter() - started
            except OSError:
                pass
            if time.perf_counter() - started > _START_TIMEOUT_S:
                raise RuntimeError("repro serve never reported healthy")
            time.sleep(0.005)

    def stop(self) -> None:
        """Drain (SIGTERM), then kill the whole session if it lingers."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.proc = None


def _pinned_conformance() -> Dict[str, float]:
    pinned = json.loads(_CONFORMANCE_FIXTURE.read_text())
    return {name: pinned[name]["total_cost"] for name in CONFORMANCE_CASES}


def _body(doc: Dict[str, Any], name: str, trace: bool) -> bytes:
    return json.dumps(dict(doc, name=name, client="perfbench", trace=trace)).encode()


def _schedule(seed: int, seconds: float, trace: bool, conformance: Dict[str, Dict],
              pinned: Dict[str, float]) -> List[_Request]:
    """Every request of the run, with its due time, built before it starts:
    ``RATE * seconds`` of them, so each run has the same sample size."""
    rng = np.random.default_rng([seed, 2])
    fresh_costs = instances.load_expected()["fresh8"]
    fresh_order = [int(s) for s in rng.permutation(instances.FRESH_POOL)]
    conf_bodies = {name: _body(doc, name, trace) for name, doc in conformance.items()}
    requests: List[_Request] = []
    count = max(1, round(RATE * seconds))
    fresh = 0
    while len(requests) < count:
        for slot in rng.permutation(BLOCK):
            if len(requests) == count:
                break
            due = (len(requests) + float(rng.uniform())) / RATE
            if slot < len(conformance):
                name = list(conformance)[slot]
                requests.append(_Request(due, name, conf_bodies[name], pinned[name]))
            else:
                pool_seed = fresh_order[fresh % len(fresh_order)]
                name = f"fresh-s{seed}-{fresh}-p{pool_seed}"
                doc = instances.fresh_doc(name, pool_seed, rng)
                requests.append(_Request(due, name, _body(doc, name, trace),
                                         fresh_costs[str(pool_seed)]))
                fresh += 1
    return requests


def _drive(port: int, schedule: List[_Request], senders: int) -> List[_Sample]:
    """Send ``schedule`` open-loop over at most ``senders`` connections."""
    samples: List[Optional[_Sample]] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(schedule):
                return
            request = schedule[i]
            due = t0 + request.due_s
            free = time.perf_counter()
            if free < due:
                time.sleep(due - free)
            sent = time.perf_counter()
            try:
                status, record = _post(port, request.body)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                status, record = 0, {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}
            done = time.perf_counter()
            samples[i] = _Sample(request, status, record, max(0.0, free - due),
                                 sent - max(due, free), done - due)

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(senders)]
    for thread in threads:
        thread.start()
    end_by = t0 + schedule[-1].due_s + 2 * _REQUEST_TIMEOUT_S
    for thread in threads:
        thread.join(timeout=max(0.0, end_by - time.perf_counter()))
    return [s for s in samples if s is not None]


def _block_means(samples: List[_Sample]) -> List[float]:
    """Mean server-side solve time of each block of nine arrivals (one
    of each request kind), so the median is over like mixes."""
    blocks: Dict[int, List[float]] = {}
    for i, sample in enumerate(samples):
        if sample.status == 200:
            blocks.setdefault(i // BLOCK, []).append(sample.record.get("elapsed_s", 0.0))
    return [sum(v) / len(v) for v in blocks.values()]


def _check(outcome: Outcome, name: str, status: int, record: Dict[str, Any], expected: float) -> None:
    outcome.attempted += 1
    if status != 200:
        outcome.fail(f"{name}: HTTP {status}: {record.get('error')}")
    elif record.get("status") != "ok":
        # "ok" also means the Definition 2.4 validator passed in the
        # worker (requests keep validate_result=True).
        outcome.fail(f"{name}: status {record.get('status')}: {record.get('error')}")
    elif not cost_matches(record.get("cost"), expected):
        outcome.fail(f"{name}: cost {record.get('cost')!r} != pinned {expected!r}")


def _warm(port: int, senders: int, bodies: List[tuple], outcome: Outcome) -> None:
    """Send each ``(name, body, expected)`` once, ``senders`` at a time."""
    with ThreadPoolExecutor(max_workers=senders) as pool:
        answers = list(pool.map(lambda item: _post(port, item[1]), bodies))
    for (name, _, expected), (status, record) in zip(bodies, answers):
        _check(outcome, name, status, record, expected)


def run(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    outcome = Outcome()
    work = OUT_DIR / f"work-serve-mixed-{os.getpid()}"
    servers: List[_Server] = []
    try:
        return _run(outcome, work, servers, seed, seconds, trace, import_s)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)


def _run(outcome, work, servers, seed, seconds, trace, import_s) -> Outcome:
    jobs = nproc()
    started = time.perf_counter()
    conformance = instances.conformance_docs()
    pinned = _pinned_conformance()
    schedule = _schedule(seed, seconds, trace, conformance, pinned)
    warmup = [(name, _body(doc, name, False), pinned[name]) for name, doc in conformance.items()]
    warm_name = "warmup-fresh"
    warm_doc = instances.fresh_doc(warm_name, instances.WARMUP_SEED, np.random.default_rng(0))
    generation_s = time.perf_counter() - started

    start_times = []
    for k in range(SERVER_STARTS):
        server = _Server(work / f"server{k}", jobs)
        servers.append(server)
        start_times.append(server.start())
        if k + 1 < SERVER_STARTS:
            server.stop()
    started = time.perf_counter()
    status, record = _post(server.port, _body(warm_doc, warm_name, False))
    outcome.attempted += 1
    if status != 200 or record.get("status") != "ok":
        outcome.fail(f"{warm_name}: HTTP {status}, status {record.get('status')}")
    _warm(server.port, jobs, warmup, outcome)
    warmup_s = time.perf_counter() - started
    setup_s = import_s + generation_s + median(start_times) + warmup_s

    samples = _drive(server.port, schedule, jobs)
    if len(samples) < len(schedule):
        outcome.fail(f"{len(schedule) - len(samples)} requests never completed")
    for sample in samples:
        _check(outcome, sample.request.name, sample.status, sample.record, sample.request.expected)
    served = [s for s in samples if s.status == 200 and s.record.get("status") == "ok"]
    lag_p95_ms = 1000.0 * percentile([s.lag_s for s in samples], 95)
    if lag_p95_ms > LAG_LIMIT_MS:
        outcome.fail(f"invalid run: the generator fell behind (send lag p95 {lag_p95_ms:.1f} ms)")

    if trace:
        overhead = _trace_overhead(server.port, conformance, pinned, outcome)
        _, stats = _get(server.port, "/v1/stats")
        libraries = [b()[1] for b, _ in CONFORMANCE_CASES.values()] + [two_tier_library()]
        probe = layers.cache_probe(server.cache, libraries)
    server.stop()

    latencies = [1000.0 * s.latency_s for s in samples]
    solve = [s.record.get("elapsed_s", 0.0) for s in served]
    if not trace:
        last_done = max(s.request.due_s + s.latency_s for s in samples)
        outcome.metrics = {
            "setup_s": setup_s,
            "solve_s": median(_block_means(samples)),
            "instances_per_s": len(served) / (last_done - samples[0].request.due_s),
            "latency_p50_ms": median(latencies),
            "latency_p95_ms": percentile(latencies, 95),
            "design_cost_ratio": sum(s.record["cost"] for s in served)
            / sum(s.record["result"]["point_to_point_cost"] for s in served),
            "peak_rss_mb": peak_rss_mb(),
        }
        return outcome

    total: Dict[str, float] = {}
    hits = misses = 0.0
    layer_s = 0.0
    for sample in served:
        call = layers.call_metrics(sample.record.get("metrics") or {})
        layers.add_into(total, call)
        layer_s += sum(call[m] for m in layers.LAYER_METRICS)
        hits += sample.record.get("cache", {}).get("hits", 0)
        misses += sample.record.get("cache", {}).get("misses", 0)
    metrics = layers.finish_layer_metrics(total, len(served))
    metrics.update(probe)
    overheads = [1000.0 * (s.latency_s - s.conn_wait_s - s.record.get("queue_wait_s", 0.0)
                           - s.record.get("elapsed_s", 0.0)) for s in served]
    metrics.update({
        "cache.hits": hits / len(served),
        "cache.misses": misses / len(served),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.queue_wait_ms_p50": 1000.0 * median([s.record.get("queue_wait_s", 0.0) for s in served]),
        "serve.solve_ms_p50": 1000.0 * median(solve),
        "serve.solve_ms_p95": 1000.0 * percentile(solve, 95),
        "serve.overhead_ms_p50": median(overheads),
        "serve.shed": float(stats["admission"]["shed"]),
        "serve.worker_recoveries": float(stats["worker_recoveries"]),
        "loadgen.lag_p95_ms": lag_p95_ms,
        "loadgen.conn_wait_ms_p50": 1000.0 * median([s.conn_wait_s for s in samples]),
        "trace.overhead_frac": overhead,
        "trace.unattributed_frac": 1.0 - layer_s / sum(s.latency_s for s in served),
    })
    outcome.metrics = metrics
    outcome.layer_table = _layer_rows(samples, served)
    outcome.notes = {"requests": len(schedule), "rate_per_s": RATE, "senders": jobs}
    return outcome


def _trace_overhead(port: int, conformance, pinned, outcome: Outcome) -> float:
    """Server-side solve time of the warm conformance set, traced over
    untraced, from one closed-loop connection."""
    untraced = traced = 0.0
    for _ in range(OVERHEAD_REPEATS):
        for name, doc in conformance.items():
            for flag in (False, True):
                status, record = _post(port, _body(doc, name, flag))
                _check(outcome, name, status, record, pinned[name])
                if flag:
                    traced += record.get("elapsed_s", 0.0)
                else:
                    untraced += record.get("elapsed_s", 0.0)
    return traced / untraced - 1.0


def _layer_rows(samples: List[_Sample], served: List[_Sample]) -> List[Dict[str, Any]]:
    """The request path as the benchmark saw it, then the spans the
    server returned per request (aggregated there, so no self time)."""
    def row(span, values, self_s=None):
        return {"span": span, "calls": len(values), "wall_s": sum(values), "self_s": self_s}

    solve = [s.record.get("elapsed_s", 0.0) for s in served]
    queue = [s.record.get("queue_wait_s", 0.0) for s in served]
    conn = [s.conn_wait_s for s in samples]
    latency = [s.latency_s for s in samples]
    rows = [
        row("request", latency, sum(latency) - sum(conn) - sum(queue) - sum(solve)),
        row("request.conn_wait", conn, sum(conn)),
        row("request.queue_wait", queue, sum(queue)),
        row("request.solve", solve),
    ]
    spans: Dict[str, Dict[str, Any]] = {}
    for sample in served:
        for span in (sample.record.get("metrics") or {}).get("spans", ()):
            entry = spans.setdefault(span["name"], {"span": "request.solve/" + span["name"],
                                                    "calls": 0, "wall_s": 0.0, "self_s": None})
            entry["calls"] += span["count"]
            entry["wall_s"] += span["wall_s"]
    return rows + list(spans.values())
