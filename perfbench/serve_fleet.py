"""``serve-fleet``: ``repro serve`` with one worker process per CPU.

The load is a closed loop from this process: one client thread per CPU
(``os.sched_getaffinity``), each submitting a batch over HTTP, polling
its jobs in submission order until every one is done, fetching the
results, and only then sending its next batch.  A batch holds every
spec of ``POOL`` twice, in a seeded order, from 2–4 seeded tenants, so
every batch does the same work and duplicates meet both within a batch
and across clients.  One op is one job; its latency is ``finished_at -
submitted_at`` on the server's clock, read from the store after the run.

Set-up is starting the server and its fleet until ``/healthz`` reports
every worker alive.  Each run starts from a fresh store under
``.bench_run/`` and removes it afterwards.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import signal
import subprocess
import statistics
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.exec.cache import result_digest, stable_digest
from repro.replay.engine import ReplayEngine
from repro.replay.recorder import record_store
from repro.serve.client import ServeClient
from repro.serve.jobs import validate_spec
from repro.serve.store import JobStore
from repro.workloads.suite import workload

from perfbench import RUN_DIR, kernels, layers
from perfbench.measure import (
    OpTally,
    Patches,
    SpanRecorder,
    peak_rss_mb,
    percentile,
)

#: The distinct job specs: Table-3 workloads on the small-test system,
#: cheap enough that the service path (HTTP, WAL, leases) shows.
POOL = [
    validate_spec(
        {
            "kind": "workload",
            "workload": name,
            "paradigm": "inf-s",
            "scale": 0.05,
            "system": "small-test",
        }
    )
    for name in ("stencil1d", "stencil2d", "dwt2d", "mm", "kmeans", "gather_mlp")
]
COPIES = 2
SETUP_REPEATS = 5
POLL_SECONDS = 0.01
TERMINAL = ("done", "failed", "cancelled")


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve --workers N`` process over a fresh store."""

    def __init__(self, index: int, workers: int, env: dict) -> None:
        # A fresh, uniquely named store: process ids wrap around, so a
        # name made from one could meet a directory an earlier run left.
        self.root = root = Path(
            tempfile.mkdtemp(prefix=f"serve-{index}-", dir=RUN_DIR)
        )
        self.workers = workers
        self.log_path = root.with_suffix(".log")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--dir", str(root),
                "--port", "0",
                "--workers", str(workers),
                "--max-queued", "10000",
            ],
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.url = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the HTTP API answers and every worker is alive."""
        deadline = time.monotonic() + timeout
        while self.url is None:
            for line in self.log_path.read_text().splitlines():
                if line.startswith("serving on "):
                    self.url = line.split()[2]
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited: {self.log_path.read_text()}")
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve printed no address")
            time.sleep(0.005)
        client = ServeClient(self.url, timeout=30.0)
        client.wait_until_healthy(timeout=timeout, backoff=0.005, max_interval=0.05)
        while client.healthz()["workers"]["alive"] < self.workers:
            if time.monotonic() > deadline:
                raise RuntimeError("fleet workers did not start")
            time.sleep(0.005)

    def stop(self) -> None:
        """Graceful SIGTERM; the whole process group is killed if that
        does not end it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait(timeout=60)
        self._log.close()

    def log_tail(self, lines: int = 40) -> str:
        try:
            return "\n".join(self.log_path.read_text().splitlines()[-lines:])
        except OSError as exc:
            return f"(no log: {exc})"

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.log_path.unlink(missing_ok=True)


def _start(index: int, workers: int, env: dict, servers: list) -> float:
    """Start a server, appended to *servers* at once so that it is
    stopped and removed even if it never becomes ready; its set-up
    seconds."""
    start = time.perf_counter()
    server = Server(index, workers, env)
    servers.append(server)
    server.wait_ready()
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# The closed-loop clients
# ----------------------------------------------------------------------
def _batch(seed: int, tenants: int, client_index: int, k: int):
    """The k-th batch of one client: [(spec, tenant)], seeded."""
    rng = random.Random(seed * 1_000_003 + client_index * 10_007 + k)
    specs = [spec for spec in POOL for _ in range(COPIES)]
    rng.shuffle(specs)
    return [(spec, f"tenant-{rng.randrange(tenants)}") for spec in specs]


def _client(url, seed, tenants, index, first_batch, stop_at, batches):
    """Run batches until *stop_at* (or exactly *batches*); returns
    (thread seconds, batches done, [(job id, spec, status, digest)])."""
    client = ServeClient(url, timeout=60.0)
    done = []
    k = 0
    start = time.perf_counter()
    while (k < batches) if batches is not None else (time.perf_counter() < stop_at):
        submitted = [
            (client.submit(spec, tenant=tenant), spec)
            for spec, tenant in _batch(seed, tenants, index, first_batch + k)
        ]
        # Wait on the jobs in submission order: only the oldest
        # unfinished job is polled, so the polls stay few and do not
        # load the server the benchmark measures.
        statuses = {}
        for job_id, _spec in submitted:
            status = client.status(job_id)
            while status["state"] not in TERMINAL:
                time.sleep(POLL_SECONDS)
                status = client.status(job_id)
            statuses[job_id] = status
        for job_id, spec in submitted:
            status = statuses[job_id]
            digest = (
                result_digest(client.result(job_id))
                if status["state"] == "done"
                else None
            )
            done.append((job_id, spec, status, digest))
        k += 1
    return time.perf_counter() - start, k, done


def _window(server, seed, tenants, clients, first_batch, seconds, batches):
    """All clients at once; (wall, thread seconds, batches, jobs)."""
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        futures = [
            pool.submit(
                _client,
                server.url,
                seed,
                tenants,
                index,
                first_batch,
                start + seconds,
                None if batches is None else batches[index],
            )
            for index in range(clients)
        ]
        outs = [f.result() for f in futures]
    wall = time.perf_counter() - start
    thread_seconds = sum(o[0] for o in outs)
    return wall, thread_seconds, [o[1] for o in outs], [j for o in outs for j in o[2]]


def _warm(server, seed, tenants, clients):
    """One untimed batch per client (worker imports, first compiles), so
    that the timed batches run on warm worker caches; its jobs."""
    return _window(server, seed, tenants, clients, 0, 0.0, [1] * clients)[3]


def _fleet_counters(server) -> dict[str, float]:
    """serve.jobs.executed / serve.coalesce.hits from ``/metrics``."""
    out = {}
    for line in ServeClient(server.url).metrics().splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("serve.jobs.executed", "serve.coalesce.hits"):
            out[parts[0]] = float(parts[1].replace(",", ""))
    return out


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _check(root: Path, jobs, problems: list[str]) -> dict:
    """No job lost or failed; every result equals a local execution of
    its spec; duplicates got byte-identical results.  Returns the
    stored jobs by id."""
    store = JobStore(root)
    try:
        stored = {job.job_id: job for job in store.jobs()}
        session = record_store(store)
    finally:
        store.close()
    for job_id, spec, status, digest in jobs:
        job = stored.get(job_id)
        if job is None:
            problems.append(f"job {job_id} lost")
        elif status["state"] != "done" or job.state.value != "done":
            problems.append(f"job {job_id} ended {job.state.value}: {job.error}")
        elif digest != result_digest(job.result):
            problems.append(f"job {job_id}: fetched result differs from the store")
    by_spec: dict[str, set] = {}
    for _job_id, spec, _status, digest in jobs:
        by_spec.setdefault(stable_digest(spec), set()).add(digest)
    for fingerprint, digests in by_spec.items():
        if len(digests) != 1:
            problems.append(f"spec {fingerprint[:12]}: {len(digests)} distinct results")
    report = ReplayEngine(session).replay()
    if not report.ok:
        problems.append(f"local replay: {report.summary()}")
    if report.jobs_checked != len(stored):
        problems.append(
            f"local replay checked {report.jobs_checked} of {len(stored)} jobs"
        )
    return stored


def _store_medians(stored, jobs) -> dict[str, float]:
    """Median queue wait and execute time of the window's executed jobs."""
    waits, executes = [], []
    for job_id, *_ in jobs:
        job = stored[job_id]
        if job.coalesced_with or job.started_at is None:
            continue
        waits.append(job.started_at - job.submitted_at)
        executes.append(job.finished_at - job.started_at)
    return {
        "serve.queue_wait_s": statistics.median(waits) if waits else 0.0,
        "serve.execute_s": statistics.median(executes) if executes else 0.0,
    }


def run(seed: int, seconds: float, traced: bool, env: dict) -> dict:
    workers = clients = _cpus()
    tenants = random.Random(seed).randint(2, 4)
    RUN_DIR.mkdir(exist_ok=True)

    setup = []
    servers = []
    problems: list[str] = []
    try:
        for index in range(SETUP_REPEATS):
            setup.append(_start(index, workers, env, servers))
            if index < SETUP_REPEATS - 1:
                servers[-1].stop()
        server = servers[-1]
        warm_jobs = _warm(server, seed, tenants, clients)
        wall, _threads, batches, jobs = _window(
            server, seed, tenants, clients, 1, seconds, None
        )
        server.stop()
        traced_jobs = []
        if traced:
            # The traced window repeats the timed one on a fresh server:
            # a fresh store, the same warm-up and the same batches, so
            # its wall time differs by the tracing, not by a store that
            # already holds the timed window's jobs.
            _start(SETUP_REPEATS, workers, env, servers)
            again = servers[-1]
            warm_again = _warm(again, seed, tenants, clients)
            before = _fleet_counters(again)
            recorder = SpanRecorder()
            with Patches(recorder) as patches:
                layers.wrap_serve_client(patches)
                t_wall, t_threads, _b, traced_jobs = _window(
                    again, seed, tenants, clients, 1, 0.0, batches
                )
            after = _fleet_counters(again)
            again.stop()
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        # Job ids restart in every store: each is checked on its own.
        stored = _check(server.root, warm_jobs + jobs, problems)
        if traced:
            stored_again = _check(again.root, warm_again + traced_jobs, problems)
    except BaseException:
        if servers:
            print(
                f"repro serve log:\n{servers[-1].log_tail()}", file=sys.stderr
            )
        raise
    finally:
        for s in servers:
            if s.proc.poll() is None:
                s.stop()
            s.remove()

    # Latencies on the server's clock, read from the stopped store: the
    # server builds a status answer outside its store lock, so a poll
    # that races a WAL catch-up can carry a job's new state before its
    # timestamps.
    done = [stored.get(job_id) for job_id, *_ in jobs]
    latencies = [
        job.finished_at - job.submitted_at
        for job in done
        if job is not None and job.state.value == "done"
    ]
    tally = OpTally(attempted=len(jobs) + len(traced_jobs))
    for _id, spec, status, _digest in jobs + traced_jobs:
        if status["state"] != "done":
            tally.failures.append((spec["workload"], status["state"], str(status["error"])))
    out = {
        "tally": tally,
        "problems": problems,
        "log": (
            f"{workers} workers, {clients} clients x {tenants} tenants, "
            f"{sum(batches)} batches, {len(jobs)} jobs in {wall:.2f}s"
        ),
        "metrics": {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(latencies) / wall,
            "peak_rss_mb": rss,
            "op_p50_s": percentile(latencies, 0.50),
            "op_p90_s": percentile(latencies, 0.90),
            "opt_cost": kernels.first_region_cost(
                [workload(spec["workload"], spec["scale"]) for spec in POOL]
            ),
            "opt_speedup": 1.0,
        },
    }
    if traced:
        executed = after["serve.jobs.executed"] - before["serve.jobs.executed"]
        hits = after["serve.coalesce.hits"] - before["serve.coalesce.hits"]
        extra = _store_medians(stored_again, traced_jobs)
        extra.update(
            {
                "serve.executed": executed,
                "serve.coalesce_hits": hits,
                "serve.coalesce_ratio": hits / (executed + hits) if executed + hits else 0.0,
                "trace.overhead_ratio": t_wall / wall - 1.0,
            }
        )
        out["trace"] = (recorder, t_threads, extra)
    return out
