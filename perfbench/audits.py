"""``dense-1m`` and ``sharded-1m``: closed-loop coverage audits over one
seeded 1M-row dataset.

Both workloads run the same spec cycle over the same rows. Each spec
runs once sequentially (the paper's query order) and once in engine
mode, one audit at a time on one thread. ``dense-1m`` answers from the
in-memory membership index; ``sharded-1m`` answers from 8 shards with at
most 2 resident and 8 cached prefix tables, so chunks are reloaded and
boundary tables rebuilt as the audits move between predicates. Both read
the same seeded rows, so they must give identical verdicts and task
counts, spec by spec and mode by mode.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np

import harness
import spans
from repro.audit import (
    AuditSession,
    BaseAuditSpec,
    GroupAuditSpec,
    IntersectionalAuditSpec,
    MultipleAuditSpec,
)
from repro.crowd.backends import LatencyModelBackend
from repro.crowd.oracle import GroundTruthOracle
from repro.data.dataset import LabeledDataset
from repro.data.groups import group
from repro.data.membership import GroupMembershipIndex
from repro.data.schema import Schema
from repro.data.sharded import ShardedDataset, ShardedMembershipIndex, ShardExecutor
from repro.service import AuditService

SCHEMA = Schema.from_dict(
    {"gender": ["male", "female"], "race": ["white", "black", "asian", "other"]}
)
N_ROWS = 1_000_000
N_SHARDS = 8
MAX_RESIDENT_SHARDS = 2
MAX_CACHED_PREFIXES = 8
TAU = 50
SET_SIZE = 500
SETUP_REPEATS = 5

#: Members of each minority race in every shard (black is covered at
#: TAU overall, asian and other fall short) and the female count among
#: them; the rest of a shard is white, female with FEMALE_SHARE odds.
MINORITY_PER_SHARD = {"black": (10, 3), "asian": (5, 2), "other": (4, 1)}
FEMALE_SHARE = 0.3
#: The reported tail percentile: the middle of one band of the 11-audit
#: cycle's sorted latencies (band 9 of 0-10 for dense, band 8 for
#: sharded), so it never falls between two spec kinds. Each is the
#: highest band with at least ten samples beyond it in a 25 s run
#: (15 to 30 cycles dense, 5 to 8 sharded on a 2-core container).
TAIL_PERCENTILE = {False: 100 * 9.5 / 11, True: 100 * 8.5 / 11}
#: Audit rng seeds are part of the fixed spec cycle; the workload seed
#: varies the rows. The latency model is likewise fixed.
AUDIT_SEED = 1000
LATENCY_SEED = 7


def chunk(seed: int, shard_index: int, start: int, stop: int) -> np.ndarray:
    """Rows ``[start, stop)`` of the dataset, regenerated identically on
    every call from ``(seed, shard_index)``: exact minority counts at
    seeded positions."""
    rng = np.random.default_rng([seed, shard_index])
    rows = np.zeros((stop - start, 2), dtype=np.int16)
    rows[:, 0] = rng.random(stop - start, dtype=np.float32) < FEMALE_SHARE
    n_minority = sum(count for count, _ in MINORITY_PER_SHARD.values())
    positions = iter(rng.choice(stop - start, size=n_minority, replace=False))
    for code, (count, female) in enumerate(MINORITY_PER_SHARD.values(), start=1):
        for member in range(count):
            row = next(positions)
            rows[row] = (int(member < female), code)
    return rows


def stored_chunk(rows: np.ndarray, shard_index: int, start: int, stop: int) -> np.ndarray:
    """The sharded dataset's chunk source: a fresh copy of the shard's
    rows on every load, as a page-cached memory map hands them back. The
    rows are generated once, as input, so a load costs the program's own
    work (copy, validation, residency) and not the benchmark's rng."""
    return rows[start:stop].copy()


def spec_cycle() -> list[tuple]:
    """The fixed audit cycle: ``(spec, engine, rng offset)`` in run order.

    Every spec runs once per execution mode it has: sequentially (the
    paper's query order) and in engine mode; the Base-Coverage baseline
    has no engine form and runs once. Both modes of a spec draw from one
    seed. The cycle's 11 audits sort into bands by kind (baseline and
    covered group < uncovered groups < multiple < intersectional); with
    an odd count, the median always falls inside the middle band, never
    between two bands, however many whole cycles a run completes.
    """
    races = tuple(group(race=value) for value in MINORITY_PER_SHARD)
    specs = [
        GroupAuditSpec(predicate=group(race="black"), tau=TAU, n=SET_SIZE),
        GroupAuditSpec(predicate=group(race="asian"), tau=TAU, n=SET_SIZE),
        GroupAuditSpec(predicate=group(race="other"), tau=TAU, n=SET_SIZE),
        MultipleAuditSpec(groups=races, tau=TAU, n=SET_SIZE),
        IntersectionalAuditSpec(schema=SCHEMA, tau=TAU, n=SET_SIZE),
    ]
    cycle = [(BaseAuditSpec(predicate=group(gender="female"), tau=TAU), None, 0)]
    cycle += [
        (spec, engine, number)
        for number, spec in enumerate(specs, start=1)
        for engine in (None, True)
    ]
    return cycle


def indexed_predicates() -> list:
    """Predicates whose index structures set-up builds up front."""
    races = [group(race=value) for value in MINORITY_PER_SHARD]
    cells = [
        group(gender=gender, race=race)
        for gender in ("male", "female")
        for race in ("white", "black", "asian", "other")
    ]
    return races + cells


def generate_rows(seed: int) -> np.ndarray:
    """The benchmark's input: every shard's rows, concatenated."""
    size = N_ROWS // N_SHARDS
    return np.concatenate(
        [chunk(seed, s, s * size, (s + 1) * size) for s in range(N_SHARDS)]
    )


class DenseTarget:
    """The in-memory dataset plus its warm membership index."""

    def __init__(self, rows: np.ndarray) -> None:
        self.dataset = LabeledDataset(SCHEMA, rows)
        self.index = GroupMembershipIndex.for_dataset(self.dataset)
        started = time.perf_counter()
        for predicate in indexed_predicates():
            self.index.prefix(predicate)
        self.index_build_s = time.perf_counter() - started

    def oracle(self) -> GroundTruthOracle:
        return GroundTruthOracle(self.dataset, index=self.index)

    def layer_counters(self) -> dict:
        return {}


class ShardedTarget:
    """Sharded dataset plus the sharded index with its shard totals built."""

    def __init__(self, rows: np.ndarray) -> None:
        self.executor = ShardExecutor(mode="serial")
        self.dataset = ShardedDataset.from_generator(
            SCHEMA,
            N_ROWS,
            N_ROWS // N_SHARDS,
            functools.partial(stored_chunk, rows),
            executor=self.executor,
            max_resident_shards=MAX_RESIDENT_SHARDS,
        )
        self.index = ShardedMembershipIndex(
            self.dataset,
            executor=self.executor,
            max_cached_prefixes=MAX_CACHED_PREFIXES,
        )
        started = time.perf_counter()
        self.index.build_totals(indexed_predicates())
        self.index_build_s = time.perf_counter() - started

    def oracle(self) -> GroundTruthOracle:
        return GroundTruthOracle(self.dataset, index=self.index)

    def layer_counters(self) -> dict:
        report = self.index.memory_report()
        return {
            "shard.loads": report["chunk_loads"],
            "shard.prefix_builds": report["prefix_builds"],
            "shard.prefix_evictions": report["prefix_evictions"],
            "shard.peak_tracked_bytes": report["peak_tracked_bytes"],
        }


def _scrub_costs(payload):
    """Drop cost counters at every level, so the fingerprint compares
    verdict substance only (engine mode legitimately spends differently)."""
    if isinstance(payload, dict):
        return {
            key: _scrub_costs(value)
            for key, value in payload.items()
            if key not in ("tasks", "engine_stats")
        }
    if isinstance(payload, list):
        return [_scrub_costs(item) for item in payload]
    return payload


def fingerprint_dict(report: dict) -> str:
    """Verdict fingerprint of a one-entry report in its wire form."""
    (entry,) = report["entries"]
    return json.dumps(_scrub_costs(entry["result"]), sort_keys=True)


def fingerprint(report) -> str:
    return fingerprint_dict(report.to_dict())


def run_audit(target, spec, engine, offset: int):
    """One closed-loop audit: submit to verdict, as the caller sees it."""
    started = time.perf_counter()
    with AuditSession(target.oracle(), engine=engine, seed=AUDIT_SEED + offset) as session:
        report = session.run(spec)
    return time.perf_counter() - started, report


def run_cycles(target, cycle, seconds: float, recorder=None):
    """Whole cycles until ``seconds`` have passed; returns the per-audit
    latencies, ``(position, report)`` pairs and the window's wall time.
    A ``recorder`` gets each audit's id for the spans it records."""
    latencies: list[float] = []
    reports: list[tuple[int, object]] = []
    started = time.perf_counter()
    while True:
        for position, (spec, engine, offset) in enumerate(cycle):
            if recorder is not None:
                recorder.audit_id = f"audit-{len(reports)}"
            elapsed, report = run_audit(target, spec, engine, offset)
            latencies.append(elapsed)
            reports.append((position, report))
        if time.perf_counter() - started >= seconds:
            return latencies, reports, time.perf_counter() - started


def cycle_virtual_makespan(target, cycle, reference) -> float:
    """Simulated crowd time of the cycle's distinct specs served together
    by one service on the latency-model backend (answers identical)."""
    specs = [spec for spec, engine, _ in cycle if engine]
    oracle = target.oracle()
    service = AuditService(
        oracle,
        backend=lambda proxy: LatencyModelBackend(
            proxy, rng=np.random.default_rng(LATENCY_SEED)
        ),
        max_active_jobs=len(specs),
    )
    with service:
        handles = [
            service.submit(spec, seed=AUDIT_SEED + offset)
            for spec, engine, offset in cycle
            if engine
        ]
        service.drain()
        makespan = service.backend.clock.now()
        got = [fingerprint(handle.result()) for handle in handles]
    expected = [
        fingerprint(report)
        for (_, engine, _), report in zip(cycle, reference)
        if engine
    ]
    if got != expected:
        raise AssertionError(
            "latency-backend service verdicts differ from the session runs"
        )
    return makespan


def verify(reference, reports) -> list[bool]:
    """Per audit: do its verdict fingerprint and task count match the
    reference cycle's audit at the same position?"""
    expected = [(fingerprint(r), r.tasks.total) for r in reference]
    passed = []
    for number, (position, report) in enumerate(reports):
        got = (fingerprint(report), report.tasks.total)
        if harness.PLANT_WRONG_VERDICT and number == 0:
            got = ("planted-wrong-verdict", got[1])
        passed.append(got == expected[position])
    return passed


def check_modes_agree(cycle, reference) -> None:
    """Sequential and engine runs of one spec reach one verdict."""
    by_spec: dict = {}
    for (spec, _, _), report in zip(cycle, reference):
        by_spec.setdefault(spec, set()).add(fingerprint(report))
    split = [spec for spec, prints in by_spec.items() if len(prints) != 1]
    if split:
        raise AssertionError(f"engine and sequential verdicts differ for {split}")


#: Per-layer metrics of layers neither workload runs (reported as 0).
UNTOUCHED = (
    "platform.publish_s",
    "platform.hits",
    "platform.assignments",
    "reliability.votes_per_hit",
    "reliability.quarantined",
    "service.step_s",
    "service.checkpoint_s",
    "service.resume_s",
    "store.save_answers_s",
    "store.bytes_written",
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
#: The shard and kernel layers, which ``dense-1m`` does not run.
SHARD_LAYERS = (
    "shard.loads",
    "shard.loads_per_audit",
    "shard.prefix_builds",
    "shard.prefix_evictions",
    "shard.chunk_s",
    "shard.peak_tracked_bytes",
    "kernels.fused_s",
)


def layer_metrics(recorder, target, reports, before: dict) -> dict:
    """Per-layer figures of the traced half of a run."""
    metrics = spans.layer_metrics(recorder)
    metrics.update(spans.task_metrics(report.tasks for _, report in reports))
    after = target.layer_counters()
    for name in ("shard.loads", "shard.prefix_builds", "shard.prefix_evictions"):
        if name in after:
            metrics[name] = after[name] - before[name]
    if "shard.loads" in metrics:
        metrics["shard.loads_per_audit"] = metrics["shard.loads"] / max(len(reports), 1)
        metrics["shard.peak_tracked_bytes"] = after["shard.peak_tracked_bytes"]
    return metrics


def run(sharded: bool, seed: int, seconds: float, trace: bool) -> dict:
    calibration = harness.HostCalibration()
    calibration.mark()
    rows = generate_rows(seed)
    if sharded:
        build = functools.partial(ShardedTarget, rows)
    else:
        build = functools.partial(DenseTarget, rows)
    builds: list = []

    def timed_build():
        target = build()
        builds.append(target.index_build_s)
        return target

    setup_s, target = harness.median_setup(timed_build, SETUP_REPEATS)
    cycle = spec_cycle()
    # Warm-up cycle, untimed: fills the lazily built index entries and
    # is the reference every later cycle must repeat.
    reference = [
        run_audit(target, spec, engine, offset)[1]
        for spec, engine, offset in cycle
    ]
    check_modes_agree(cycle, reference)
    tasks_per_cycle = [r.tasks.total for r in reference]

    per_layer: dict = {}
    calibration.mark()
    # A traced run measures its first half untraced (the base of
    # trace.overhead) and takes the per-layer figures from the second.
    latencies, reports, wall = run_cycles(target, cycle, seconds / 2 if trace else seconds)
    if trace:
        recorder = spans.Recorder()
        before = target.layer_counters()
        spans.install_layers(recorder)
        if sharded:
            # Chunk loads: the dataset's bound loader, per instance.
            recorder.wrap(target.dataset, "_loader", "shard.chunk")
        try:
            _, traced, traced_wall = run_cycles(target, cycle, seconds / 2, recorder)
        finally:
            recorder.uninstall()
        recorder.dump(harness.trace_path("sharded-1m" if sharded else "dense-1m", seed))
        per_layer = layer_metrics(recorder, target, traced, before)
        per_layer["index.build_s"] = statistics.median(builds)
        per_layer["trace.overhead"] = (len(traced) / traced_wall) / (len(reports) / wall)
    else:
        traced = []
    peak_rss = harness.self_peak_rss_mb()
    calibration.mark()

    checked = reports + traced
    for number, (position, report) in enumerate(checked):
        if report.tasks.total != tasks_per_cycle[position]:
            raise AssertionError(
                f"audit {number} (cycle position {position}) paid "
                f"{report.tasks.total} tasks, the reference paid "
                f"{tasks_per_cycle[position]}: task counts are not repeatable"
            )
    if sharded:
        # Every sharded audit must match the dense reading of the same
        # rows bit for bit: verdict fingerprint and task count.
        dense = DenseTarget(rows)
        expected = [
            run_audit(dense, spec, engine, offset)[1]
            for spec, engine, offset in cycle
        ]
    else:
        dense, expected = target, reference
    passed = verify(expected, checked)
    ok = sum(passed)
    makespan = cycle_virtual_makespan(dense, cycle, expected)
    per_layer["host.calib_s"] = calibration.value()
    per_layer["wall.audits_per_s"] = sum(passed[: len(reports)]) / wall
    per_layer["wall.p50_s"] = harness.percentile(latencies, 50)
    per_layer["wall.tail_s"] = harness.percentile(latencies, TAIL_PERCENTILE[sharded])

    return {
        "correct": ok == len(checked),
        "attempted": len(checked),
        "failed": len(checked) - ok,
        "end_to_end": {
            "setup_s": setup_s,
            "tasks_paid": sum(tasks_per_cycle),
            "dollars_paid": harness.fixed_price_dollars(r.tasks for r in reference),
            "virtual_makespan_s": makespan,
            "ok_ratio": ok / len(checked),
            "peak_rss_mb": peak_rss,
        },
        "per_layer": per_layer,
        "untouched": UNTOUCHED if sharded else UNTOUCHED + SHARD_LAYERS,
        "samples": len(latencies),
    }
