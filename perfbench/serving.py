"""``serving-http``: small group audits submitted over HTTP to a
``ServingGateway`` and run by one worker subprocess.

The gateway runs in the benchmark process; the worker is started by
the benchmark's own launcher (``worker_main.py``). Two client threads
each keep ``JOBS_PER_CLIENT`` jobs outstanding (a closed loop with a
window of four), submitting for eight tenants over sequential
connections and polling each job's result. Job ``i`` has a fixed spec
and seed, so the first ``PRICED_JOBS`` jobs pay the same tasks on every
run with one seed. Each job's audit is a few milliseconds; the rest of
its time is board scans and claims, oracle builds, per-step checkpoint
writes, HTTP and worker idling.
"""

from __future__ import annotations

import collections
import itertools
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import harness
import spans
from audits import fingerprint_dict
from repro.audit import AuditReport, AuditSession, GroupAuditSpec
from repro.crowd.backends import LatencyModelBackend
from repro.data.groups import group
from repro.errors import JobFailedError
from repro.service import AuditService
from repro.serving import (
    ServingClient,
    ServingConfig,
    ServingGateway,
    init_serving_root,
)
from repro.serving.protocol import ServerBusyError

N_CLIENTS = 2
JOBS_PER_CLIENT = 2
N_TENANTS = 8
RESULT_POLL_S = 0.01
SETUP_REPEATS = 5
#: Untimed traffic after each boot: the first seconds of a fresh worker
#: run well below its steady rate.
WARMUP_S = 3.0
READY_TIMEOUT_S = 60.0
#: Jobs whose paid tasks, dollars and virtual makespan are reported.
PRICED_JOBS = 64
#: p99 has only ~13 samples beyond it in a run, so one stray slow
#: request moves it; p95 has ~65.
TAIL_PERCENTILE = 95
#: The latency model is fixed; the workload seed varies the rows and jobs.
LATENCY_SEED = 7


def recipe(seed: int) -> dict:
    return {"kind": "synthetic-binary", "n": 400, "n_minority": 60, "dataset_seed": seed}


def job(seed: int, position: int) -> tuple[GroupAuditSpec, str, int]:
    """Job ``position``'s spec, tenant and audit seed."""
    spec = GroupAuditSpec(
        predicate=group(gender="female" if position % 2 else "male"),
        tau=10 + (position * 7) % 40,
    )
    return spec, f"tenant-{position % N_TENANTS}", seed * 1_000_003 + position


class Worker:
    """One launcher subprocess serving ``root``."""

    def __init__(self, root: Path, work: Path, name: str, trace: bool) -> None:
        self.ready = work / f"{name}.ready"
        self.trace_out = work / f"{name}.trace.json" if trace else None
        self.log = work / f"{name}.stderr"
        command = [
            sys.executable,
            str(Path(__file__).with_name("worker_main.py")),
            "--root", str(root),
            "--worker-id", name,
            "--ready", str(self.ready),
        ]
        if self.trace_out is not None:
            command += ["--trace-out", str(self.trace_out)]
        env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                command, env=env, stdout=subprocess.DEVNULL, stderr=log
            )

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not self.ready.exists():
            if self.process.poll() is not None:
                raise RuntimeError(
                    "worker exited during start-up: "
                    + self.log.read_text(errors="replace")
                )
            if time.monotonic() > deadline:
                raise RuntimeError("worker did not start in time")
            time.sleep(0.002)

    def mark(self) -> None:
        """Mark the start or the end of the measured window (traced)."""
        self.process.send_signal(signal.SIGUSR1)

    def wait_trace(self) -> None:
        """Wait for the spans the end-of-window mark writes out."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not self.trace_out.exists():
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "worker wrote no trace: " + self.log.read_text(errors="replace")
                )
            time.sleep(0.002)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def boot(root: Path, work: Path, name: str, trace: bool):
    """Set-up: start the gateway and one worker, wait until it serves."""
    gateway = ServingGateway(root)
    gateway.start()
    try:
        worker = Worker(root, work, name, trace)
    except OSError:
        gateway.stop()
        raise
    try:
        worker.wait_ready()
    except RuntimeError:
        gateway.stop()
        worker.stop()
        raise
    return gateway, worker


class Clients:
    """Closed-loop HTTP clients sharing one job counter."""

    def __init__(self, port: int, seed: int, first: int) -> None:
        self.port = port
        self.seed = seed
        self.next_position = first
        self.lock = threading.Lock()
        self.latencies: list[float] = []
        self.results: dict[int, dict] = {}
        self.rejected = 0
        self.submit_s = 0.0
        self.result_s = 0.0
        self.errors: list[str] = []

    def _take(self) -> int:
        with self.lock:
            position = self.next_position
            self.next_position += 1
            return position

    def _submit(self, client: ServingClient, position: int):
        spec, tenant, seed = job(self.seed, position)
        started = time.perf_counter()
        while True:
            try:
                record = client.submit(spec, tenant=tenant, seed=seed)
                break
            except ServerBusyError as busy:
                with self.lock:
                    self.rejected += 1
                time.sleep(busy.retry_after)
        with self.lock:
            self.submit_s += time.perf_counter() - started
        return position, record["job_id"], started

    def _loop(self, deadline: float) -> None:
        client = ServingClient("127.0.0.1", self.port)
        outstanding = collections.deque()
        try:
            while outstanding or time.perf_counter() < deadline:
                while len(outstanding) < JOBS_PER_CLIENT and time.perf_counter() < deadline:
                    outstanding.append(self._submit(client, self._take()))
                position, job_id, started = outstanding.popleft()
                polled = time.perf_counter()
                try:
                    record = client.result(job_id, poll_interval=RESULT_POLL_S)
                except JobFailedError as failure:
                    record = {"report": None, "tasks_paid": 0, "error": str(failure)}
                done = time.perf_counter()
                with self.lock:
                    self.result_s += done - polled
                    self.latencies.append(done - started)
                    self.results[position] = record
        except Exception:  # a client thread's failure fails the run
            with self.lock:
                self.errors.append(traceback.format_exc())

    def run(self, seconds: float) -> float:
        started = time.perf_counter()
        threads = [
            threading.Thread(target=self._loop, args=(started + seconds,))
            for _ in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self.errors:
            raise RuntimeError("client threads failed:\n" + "\n".join(self.errors))
        return time.perf_counter() - started


def reference(seed: int, positions) -> dict:
    """In-process session runs of the given jobs with their audit seeds."""
    config = ServingConfig(recipe=recipe(seed))
    oracle = config.build_oracle()
    expected = {}
    for position in positions:
        spec, _, audit_seed = job(seed, position)
        with AuditSession(
            oracle, engine=True, batch_size=config.batch_size, seed=audit_seed
        ) as session:
            report = session.run(spec)
        expected[position] = report
    return expected


def virtual_makespan(seed: int) -> float:
    """Simulated crowd time of the priced jobs served one after another,
    as the single worker serves them, on the latency-model backend."""
    config = ServingConfig(recipe=recipe(seed))
    service = AuditService(
        config.build_oracle(),
        backend=lambda proxy: LatencyModelBackend(
            proxy, rng=np.random.default_rng(LATENCY_SEED)
        ),
        batch_size=config.batch_size,
        max_active_jobs=1,
    )
    with service:
        for position in range(PRICED_JOBS):
            spec, tenant, audit_seed = job(seed, position)
            service.submit(spec, tenant=tenant, seed=audit_seed)
        service.drain()
        return service.backend.clock.now()


def serve(root, work, seed: int, name: str, trace: bool, seconds: float):
    """Boot a gateway and worker, warm them up, then measure a window.
    Returns the warm-up's and the window's clients, the window's wall
    time, the worker's peak RSS and the stopped worker. A traced worker
    records spans over the window only."""
    gateway, worker = boot(root, work, name, trace)
    try:
        warm = Clients(gateway.port, seed, 0)
        warm.run(WARMUP_S)
        if trace:
            worker.mark()
        clients = Clients(gateway.port, seed, warm.next_position)
        wall = clients.run(seconds)
        if trace:
            worker.mark()
            worker.wait_trace()
        peak_rss = harness.pid_peak_rss_mb(worker.process.pid)
    finally:
        gateway.stop()
        worker.stop()
    return warm, clients, wall, peak_rss, worker


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload with the whole serving system on one core.

    The benchmark process (gateway and client threads) and the worker it
    starts share the lowest core this process may use. The workload's
    speed then follows one core's share of the host, as an in-process
    workload's does, and not also whether the host lends a second core:
    unpinned, runs made minutes apart differed by up to 2.5 times.
    """
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        return _run(seed, seconds, trace)
    finally:
        os.sched_setaffinity(0, cores)


def _run(seed: int, seconds: float, trace: bool) -> dict:
    calibration = harness.HostCalibration()
    calibration.mark()
    with harness.WorkDir("serving-http") as work:
        root = init_serving_root(work / "root", ServingConfig(recipe=recipe(seed)))
        boots = itertools.count()

        def setup():
            gateway, worker = boot(root, work, f"w{next(boots)}", trace=False)
            gateway.stop()
            worker.stop()

        setup_s, _ = harness.median_setup(setup, SETUP_REPEATS)
        calibration.mark()
        per_layer: dict = {}
        # A traced run measures its first half untraced (the base of
        # trace.overhead) and takes the per-layer figures from the second:
        # the same jobs on a fresh board of its own, served by a worker
        # with the span wrappers installed.
        warm, clients, wall, peak_rss, _ = serve(
            root, work, seed, "measured", False, seconds / 2 if trace else seconds
        )
        halves = [warm.results, clients.results]
        if trace:
            traced_root = init_serving_root(
                work / "root-traced", ServingConfig(recipe=recipe(seed))
            )
            traced_warm, traced, traced_wall, _, worker = serve(
                traced_root, work, seed, "traced", True, seconds / 2
            )
            shutil.copyfile(worker.trace_out, harness.trace_path("serving-http", seed))
            per_layer = layer_metrics(spans.Recorder.load(worker.trace_out), traced)
            per_layer["trace.overhead"] = (len(traced.latencies) / traced_wall) / (
                len(clients.latencies) / wall
            )
            halves += [traced_warm.results, traced.results]
    calibration.mark()

    measured = {**warm.results, **clients.results}
    if not all(p in measured for p in range(PRICED_JOBS)):
        raise AssertionError(f"fewer than {PRICED_JOBS} jobs finished in the window")
    expected = reference(seed, sorted({p for half in halves for p in half}))
    attempted = ok = ok_window = 0
    for half in halves:
        for position, record in sorted(half.items()):
            want = expected[position]
            got = fingerprint_dict(record["report"]) if record["report"] else None
            if harness.PLANT_WRONG_VERDICT and attempted == 0:
                got = "planted-wrong-verdict"
            passed = got == fingerprint_dict(want.to_dict()) and (
                record["tasks_paid"] == want.tasks.total
            )
            attempted += 1
            ok += passed
            ok_window += passed and half is clients.results
    per_layer["host.calib_s"] = calibration.value()
    per_layer["wall.audits_per_s"] = ok_window / wall
    per_layer["wall.p50_s"] = harness.percentile(clients.latencies, 50)
    per_layer["wall.tail_s"] = harness.percentile(clients.latencies, TAIL_PERCENTILE)
    return {
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "end_to_end": {
            "setup_s": setup_s,
            "tasks_paid": sum(measured[p]["tasks_paid"] for p in range(PRICED_JOBS)),
            "dollars_paid": harness.fixed_price_dollars(
                expected[p].tasks for p in range(PRICED_JOBS)
            ),
            "virtual_makespan_s": virtual_makespan(seed),
            "ok_ratio": ok / attempted,
            "peak_rss_mb": peak_rss,
        },
        "per_layer": per_layer,
        "untouched": UNTOUCHED,
        "samples": len(clients.latencies),
    }


#: Per-layer metrics of layers this workload does not run (reported as 0).
UNTOUCHED = (
    "index.build_s",
    "shard.loads",
    "shard.loads_per_audit",
    "shard.prefix_builds",
    "shard.prefix_evictions",
    "shard.chunk_s",
    "shard.peak_tracked_bytes",
    "kernels.fused_s",
    "platform.publish_s",
    "platform.hits",
    "platform.assignments",
    "reliability.votes_per_hit",
    "reliability.quarantined",
    "service.resume_s",
)


def layer_metrics(recorder, clients: Clients) -> dict:
    """Per-layer figures of the traced window: the worker's spans, the
    served reports' paid queries and the clients' HTTP timings."""
    metrics = spans.layer_metrics(recorder)
    # The audit's own compute inside the worker: scheduler steps and the
    # spans under them, except the checkpoint writes.
    metrics["worker.audit_s"] = recorder.seconds(
        "service.step",
        "core.pending",
        "core.feed",
        "engine.pump",
        "engine.absorb",
        "oracle.ask",
        "index.query",
    )
    metrics.update(
        spans.task_metrics(
            AuditReport.from_dict(record["report"]).tasks
            for record in clients.results.values()
            if record["report"]
        )
    )
    # A service's group-job reports count no round-trips; the engine's
    # dispatched batches are those jobs' oracle round-trips.
    metrics["oracle.round_trips"] = recorder.all_counters().get("engine.round_trips", 0)
    metrics.update(
        {
            "http.submit_s": clients.submit_s,
            "http.result_s": clients.result_s,
            "http.rejected": clients.rejected,
        }
    )
    return metrics
