"""``crowd-service``: waves of tenant jobs through one ``AuditService``
over a simulated paid crowd.

Each wave builds a ``CrowdPlatform`` (25% spammers, adaptive assignment
routing, fixed HIT pricing) behind a ``LatencyModelBackend``. Four
tenants each submit two jobs (group and multiple audits), the second
when the first finishes, and the service steps until every job is done,
checkpointing to a ``DirectoryJobStore``. The wave ends with
``AuditService.resume`` onto a fresh platform that reads the store
back. A cycle is four waves over four seeded datasets; cycles repeat
one wave at a time on one thread, so every cycle pays the same tasks,
dollars and virtual makespan.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

import harness
import spans
from repro.audit import AuditSession, GroupAuditSpec, MultipleAuditSpec
from repro.crowd.backends import LatencyModelBackend
from repro.crowd.oracle import CrowdOracle, GroundTruthOracle
from repro.crowd.platform import CrowdPlatform
from repro.crowd.reliability import AdaptiveAssignmentPolicy
from repro.crowd.workers import make_worker_pool
from repro.data.dataset import LabeledDataset
from repro.data.groups import group
from repro.data.synthetic import single_attribute_dataset
from repro.service import AuditService, DirectoryJobStore

#: Members per race: asian falls short of TAU, the others are covered.
#: Every job's threshold is at least 50% away from its group's count, so
#: crowd noise does not flip a verdict (asian at TAU // 2 did: 15
#: members were over-counted past 20 on some seeds).
COUNTS = {"white": 1200, "black": 90, "asian": 15, "other": 70}
TAU = 40
SET_SIZE = 50
N_CROWD_WORKERS = 16
SPAMMER_FRACTION = 0.25
LOG_ODDS_THRESHOLD = 3.5
TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
SETUP_REPEATS = 40
#: The crowd (who spams, how answers are drawn), its latency model and
#: the jobs' sampling seeds are fixed; the workload seed varies the rows.
POOL_SEED = 3
LATENCY_SEED = 7
AUDIT_SEED = 1000
TAIL_PERCENTILE = 90
#: Waves per cycle, each over its own seeded rows, so a run's figures
#: average over several datasets.
WAVES_PER_CYCLE = 4


def wave_specs() -> list[tuple[str, object]]:
    """``(tenant, spec)`` submissions of one wave: two per tenant."""
    races = tuple(group(race=value) for value in ("black", "asian", "other"))
    return [
        ("tenant-a", GroupAuditSpec(predicate=group(race="black"), tau=TAU, n=SET_SIZE)),
        ("tenant-b", GroupAuditSpec(predicate=group(race="asian"), tau=TAU, n=SET_SIZE)),
        ("tenant-c", GroupAuditSpec(predicate=group(race="other"), tau=TAU, n=SET_SIZE)),
        ("tenant-d", MultipleAuditSpec(groups=races, tau=TAU, n=SET_SIZE)),
        ("tenant-a", GroupAuditSpec(predicate=group(race="white"), tau=TAU, n=SET_SIZE)),
        ("tenant-b", MultipleAuditSpec(groups=races[:2], tau=TAU, n=SET_SIZE)),
        ("tenant-c", GroupAuditSpec(predicate=group(race="other"), tau=TAU // 2, n=SET_SIZE)),
        ("tenant-d", GroupAuditSpec(predicate=group(race="black"), tau=3 * TAU // 2, n=SET_SIZE)),
    ]


def covered_flags(result) -> tuple:
    """A group verdict, or every group's verdict of a multiple audit."""
    if hasattr(result, "covered"):
        return (result.covered,)
    return tuple((str(entry.group), entry.covered) for entry in result.entries)


class Crowd:
    """Factory for a wave's crowd: platform, oracle, backend, service."""

    def __init__(self, dataset) -> None:
        self.dataset = dataset

    def oracle(self) -> CrowdOracle:
        workers = make_worker_pool(
            N_CROWD_WORKERS,
            np.random.default_rng([POOL_SEED, 1]),
            error_rate=0.03,
            spammer_fraction=SPAMMER_FRACTION,
            spammer_error_rate=0.45,
        )
        platform = CrowdPlatform(
            self.dataset,
            workers,
            np.random.default_rng([POOL_SEED, 2]),
            reliability=AdaptiveAssignmentPolicy(log_odds_threshold=LOG_ODDS_THRESHOLD),
        )
        return CrowdOracle(platform)

    def backend(self, proxy) -> LatencyModelBackend:
        return LatencyModelBackend(proxy, rng=np.random.default_rng(LATENCY_SEED))

    def service(self, store) -> AuditService:
        return AuditService(
            self.oracle(),
            backend=self.backend,
            max_active_jobs=len(TENANTS),
            seed=AUDIT_SEED,
            job_store=store,
        )


def run_wave(crowd: Crowd, store_dir, latencies: list) -> dict:
    """One wave: each tenant submits its jobs one after another, the
    next when the previous finishes; checkpoint, then resume."""
    store = DirectoryJobStore(store_dir)
    service = crowd.service(store)
    queues: dict[str, list] = {}
    for index, (tenant, spec) in enumerate(wave_specs()):
        queues.setdefault(tenant, []).append((index, spec))
    index_of: dict[str, int] = {}
    pending: dict[str, tuple] = {}

    def submit_next(tenant: str) -> None:
        if queues[tenant]:
            index, spec = queues[tenant].pop(0)
            handle = service.submit(spec, tenant=tenant)
            index_of[handle.job_id] = index
            pending[handle.job_id] = (handle, tenant, time.perf_counter())

    def flags_of(running: AuditService) -> list:
        flags = [None] * len(index_of)
        for job_id, index in index_of.items():
            flags[index] = covered_flags(running.handle(job_id).result(drain=False).result)
        return flags

    with service:
        for tenant in queues:
            submit_next(tenant)
        while pending:
            service.step()
            for job_id, (handle, tenant, submitted) in list(pending.items()):
                if handle.status.terminal:
                    latencies.append(time.perf_counter() - submitted)
                    del pending[job_id]
                    submit_next(tenant)
        service.checkpoint()
        flags = flags_of(service)
        oracle = service.oracle
        outcome = {
            "flags": flags,
            "tasks": oracle.ledger.total,
            "usage": oracle.ledger,
            "dollars": oracle.platform.ledger.total_cost,
            "makespan": service.backend.clock.now(),
            "hits": oracle.platform.ledger.n_hits,
            "assignments": oracle.platform.ledger.n_assignments,
            "reliability": service.reliability_report(),
        }
    fresh = crowd.oracle()
    with AuditService.resume(store, fresh, backend=crowd.backend) as revived:
        revived.drain()
        outcome["resumed_flags"] = flags_of(revived)
    outcome["reasked"] = fresh.ledger.total
    return outcome


def reference_flags(dataset) -> list:
    """Ground-truth verdicts of one wave's jobs, in ``wave_specs`` order."""
    flags = []
    for number, (_, spec) in enumerate(wave_specs()):
        with AuditSession(GroundTruthOracle(dataset), seed=AUDIT_SEED + number) as session:
            flags.append(covered_flags(session.run(spec).result))
    return flags


def run(seed: int, seconds: float, trace: bool) -> dict:
    calibration = harness.HostCalibration()
    calibration.mark()
    datasets = [
        single_attribute_dataset(COUNTS, rng=np.random.default_rng([seed, wave]))
        for wave in range(WAVES_PER_CYCLE)
    ]
    expected = [reference_flags(dataset) for dataset in datasets]
    crowds = [Crowd(dataset) for dataset in datasets]

    with harness.WorkDir("crowd-service") as work:
        stores = (work / f"store-{number}" for number in itertools.count())
        # The set-ups' stores are made up front: directory creation is
        # file-system time, not the service's set-up.
        setup_stores = iter(
            [DirectoryJobStore(next(stores)) for _ in range(SETUP_REPEATS * len(datasets))]
        )

        def build():
            # Fresh dataset objects, so membership indexes are rebuilt too.
            return [
                Crowd(LabeledDataset(d.schema, d.codes)).service(next(setup_stores))
                for d in datasets
            ]

        setup_s, _ = harness.median_setup(build, SETUP_REPEATS)

        def window(span: float, latencies: list, recorder=None) -> tuple[list, float]:
            waves = []
            started = time.perf_counter()
            while True:
                for crowd in crowds:
                    if recorder is not None:
                        recorder.audit_id = f"wave-{len(waves)}"
                    waves.append(run_wave(crowd, next(stores), latencies))
                if time.perf_counter() - started >= span:
                    return waves, time.perf_counter() - started

        # Warm-up cycle, untimed: the reference every later cycle repeats.
        reference, _ = window(0.0, [])
        calibration.mark()
        per_layer: dict = {}
        latencies: list[float] = []
        # A traced run measures its first half untraced (the base of
        # trace.overhead) and takes the per-layer figures from the second.
        waves, wall = window(seconds / 2 if trace else seconds, latencies)
        traced: list = []
        if trace:
            recorder = spans.Recorder()
            spans.install_layers(recorder)
            try:
                traced, traced_wall = window(seconds / 2, [], recorder)
            finally:
                recorder.uninstall()
            recorder.dump(harness.trace_path("crowd-service", seed))
            per_layer = layer_metrics(recorder, traced)
            per_layer["trace.overhead"] = (len(traced) / traced_wall) / (len(waves) / wall)
    peak_rss = harness.self_peak_rss_mb()
    calibration.mark()

    checked = waves + traced
    for number, wave in enumerate(checked):
        for key in ("tasks", "dollars", "makespan"):
            want = reference[number % WAVES_PER_CYCLE][key]
            if wave[key] != want:
                raise AssertionError(
                    f"wave {number}: {key} {wave[key]} differs from the "
                    f"reference cycle's {want}"
                )
    attempted = ok = ok_window = 0
    for number, wave in enumerate(checked):
        flags = list(wave["flags"])
        if harness.PLANT_WRONG_VERDICT and number == 0:
            flags[0] = ("planted-wrong-verdict",)
        want_flags = expected[number % WAVES_PER_CYCLE]
        for got, resumed, want in zip(flags, wave["resumed_flags"], want_flags):
            passed = got == want and resumed == want and wave["reasked"] == 0
            attempted += 1
            ok += passed
            ok_window += passed and number < len(waves)
    per_layer["host.calib_s"] = calibration.value()
    per_layer["wall.audits_per_s"] = ok_window / wall
    per_layer["wall.p50_s"] = harness.percentile(latencies, 50)
    per_layer["wall.tail_s"] = harness.percentile(latencies, TAIL_PERCENTILE)
    return {
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "end_to_end": {
            "setup_s": setup_s,
            "tasks_paid": sum(w["tasks"] for w in reference),
            "dollars_paid": sum(w["dollars"] for w in reference),
            "virtual_makespan_s": sum(w["makespan"] for w in reference),
            "ok_ratio": ok / attempted,
            "peak_rss_mb": peak_rss,
        },
        "per_layer": per_layer,
        "untouched": UNTOUCHED,
        "samples": len(latencies),
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
    "board.scan_s",
    "board.claim_s",
    "board.state_write_s",
    "board.claims",
    "worker.oracle_build_s",
    "worker.audit_s",
    "worker.idle_s",
    "http.submit_s",
    "http.result_s",
    "http.rejected",
)


def layer_metrics(recorder, waves) -> dict:
    """Per-layer figures of the traced half of a run."""
    metrics = spans.layer_metrics(recorder)
    metrics.update(spans.task_metrics(w["usage"] for w in waves))
    votes = sum(w["reliability"].n_votes for w in waves)
    reliability_hits = sum(w["reliability"].n_hits for w in waves)
    metrics.update(
        {
            "platform.hits": sum(w["hits"] for w in waves),
            "platform.assignments": sum(w["assignments"] for w in waves),
            "reliability.votes_per_hit": votes / reliability_hits if reliability_hits else 0.0,
            "reliability.quarantined": statistics.median(
                w["reliability"].n_quarantined for w in waves
            ),
        }
    )
    return metrics
