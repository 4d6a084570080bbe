"""Service benchmark: latency overlap of concurrent audit jobs.

The paper's cost model counts tasks; a deployment also pays *latency* —
a published batch of HITs answers seconds to minutes later. This
harness measures what the multi-tenant :class:`~repro.service.AuditService`
buys on that axis: it runs N group audits over a
:class:`~repro.crowd.backends.LatencyModelBackend` (simulated per-worker
latency on a virtual clock, identical answers and dollar charges)

* **serially** — ``max_active_jobs=1``: each audit waits out its own
  batches, one after another (the blocking-oracle execution model), and
* **overlapped** — all N jobs in flight on the shared engine: every
  audit keeps its frontier outstanding while the others wait.

Answers are identical and per-job task spend is unchanged (distinct
predicates, shared cache notwithstanding) — only the clock differs. The
harness asserts identical total spend and the wall-clock speedup target
(≥ 4× at 8 jobs), plus bit-identical verdicts between an
InlineBackend-driven service and the session API.

A second, **mixed-kinds** arm serves group, multiple and intersectional
audits together (no two of them share a query), serially and
overlapped. Multiple and intersectional jobs are flow trees on the
shared engine, so their batches overlap too: the harness asserts the
overlapped makespan is at most ``MIXED_MAKESPAN_CEILING`` of the
serial one at identical verdicts and task totals.

Results land in ``BENCH_service.json``; CI runs this script on every
push. Full run::

    PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import argparse
import itertools
import json
import time

import numpy as np

from repro.audit import (
    AuditSession,
    GroupAuditSpec,
    IntersectionalAuditSpec,
    MultipleAuditSpec,
)
from repro.crowd.backends import LatencyModelBackend
from repro.crowd.oracle import GroundTruthOracle
from repro.data import Schema, intersectional_dataset
from repro.data.groups import group
from repro.data.synthetic import single_attribute_dataset
from repro.service import AuditService

DEFAULT_JOBS = 8
DEFAULT_TAU = 100
SPEEDUP_TARGET = 4.0
#: Overlapped over serial virtual makespan the mixed-kinds arm must beat.
MIXED_MAKESPAN_CEILING = 0.6
#: Service seed of the mixed arm (its multiple/intersectional jobs sample).
MIXED_SEED = 3

#: Mixed-arm attributes and each value's relative size.
MIXED_VALUES = {
    "gender": {"male": 1.0, "female": 0.55},
    "race": {"white": 1.0, "black": 0.25, "asian": 0.12, "other": 0.06},
    "age": {"young": 1.0, "old": 0.35},
}


def build_dataset(n_jobs: int, rng: np.random.Generator):
    counts = {f"group{i:02d}": 150 + 35 * i for i in range(n_jobs)}
    return single_attribute_dataset(counts, rng=rng), list(counts)


def build_specs(values: list[str], tau: int) -> list[GroupAuditSpec]:
    return [GroupAuditSpec(predicate=group(race=value), tau=tau) for value in values]


def build_mixed(tau: int, rng: np.random.Generator):
    """The mixed-kinds arm: a gender x race x age dataset and six audits
    of three kinds that share no set query (distinct predicates, no
    super-group member in common)."""
    schema = Schema.from_dict(
        {name: list(sizes) for name, sizes in MIXED_VALUES.items()}
    )
    joint_counts = {}
    for values in itertools.product(*(MIXED_VALUES[name] for name in MIXED_VALUES)):
        weight = 1.0
        for name, value in zip(MIXED_VALUES, values):
            weight *= MIXED_VALUES[name][value]
        joint_counts[values] = int(round(1200 * weight))
    dataset = intersectional_dataset(schema, joint_counts, rng=rng)

    def values(name):
        return list(MIXED_VALUES[name])

    specs = [
        GroupAuditSpec(predicate=group(gender="female", age="old"), tau=tau),
        GroupAuditSpec(predicate=group(gender="male", age="old"), tau=tau),
        MultipleAuditSpec(groups=tuple(group(race=v) for v in values("race")), tau=tau),
        MultipleAuditSpec(
            groups=tuple(group(gender=v) for v in values("gender")), tau=tau
        ),
        IntersectionalAuditSpec(
            schema=Schema.from_dict({"gender": values("gender"), "race": values("race")}),
            tau=tau,
        ),
        IntersectionalAuditSpec(
            schema=Schema.from_dict({"race": values("race"), "age": values("age")}),
            tau=tau,
        ),
    ]
    return dataset, specs


def verdict_summary(result) -> dict:
    """A readable verdict of any audit kind for the JSON rows."""
    if hasattr(result, "mups"):
        return {"mups": [pattern.describe() for pattern in result.mups]}
    if hasattr(result, "uncovered_groups"):
        return {"uncovered": [g.describe() for g in result.uncovered_groups]}
    return {"covered": result.covered, "count": result.count}


def full_verdict(report):
    """A report's result in wire form without its cost fields — what
    two arms must agree on exactly."""

    def scrub(payload):
        if isinstance(payload, dict):
            return {
                key: scrub(value)
                for key, value in payload.items()
                if key not in ("tasks", "engine_stats")
            }
        if isinstance(payload, list):
            return [scrub(item) for item in payload]
        return payload

    return scrub(report.to_dict()["entries"][0]["result"])


def run_arm(dataset, specs, *, max_active_jobs: int, seed=None):
    """One benchmark arm: all specs through a latency-backend service.
    Returns the JSON row and the job reports."""
    oracle = GroundTruthOracle(dataset)
    service = AuditService(
        oracle,
        backend=lambda proxy: LatencyModelBackend(
            proxy, rng=np.random.default_rng(1234)
        ),
        max_active_jobs=max_active_jobs,
        seed=seed,
    )
    started = time.perf_counter()
    with service:
        handles = [
            service.submit(spec, tenant=f"tenant-{position}")
            for position, spec in enumerate(specs)
        ]
        service.drain()
        reports = [handle.result() for handle in handles]
        makespan = service.backend.clock.now()
    real_seconds = time.perf_counter() - started
    return {
        "max_active_jobs": max_active_jobs,
        "n_jobs": len(specs),
        "tasks": oracle.ledger.total,
        "oracle_round_trips": oracle.ledger.n_rounds,
        "virtual_makespan_seconds": makespan,
        "jobs_per_virtual_hour": len(specs) / makespan * 3600.0,
        "real_seconds": real_seconds,
        "job_tasks": [report.tasks.total for report in reports],
        "verdicts": [verdict_summary(report.result) for report in reports],
    }, reports


def check_inline_equivalence(dataset, specs) -> dict:
    """The zero-latency service must be bit-identical to the session API."""
    session_oracle = GroundTruthOracle(dataset)
    with AuditSession(session_oracle, engine=True) as session:
        reference = session.run_many(specs)

    service_oracle = GroundTruthOracle(dataset)
    with AuditService(service_oracle, max_active_jobs=len(specs)) as service:
        handles = [service.submit(spec) for spec in specs]
        service.drain()
        reports = [handle.result() for handle in handles]
        engine_stats = service.engine.stats

    for report, entry in zip(reports, reference.entries):
        assert report.result.covered == entry.result.covered, "verdict drift"
        assert report.result.count == entry.result.count, "count drift"
        assert (
            report.tasks.n_set_queries == entry.result.tasks.n_set_queries
        ), "per-job attribution drift"
    assert service_oracle.ledger.total == session_oracle.ledger.total, "spend drift"
    assert engine_stats == reference.engine_stats, "engine-stats drift"
    return {
        "tasks": service_oracle.ledger.total,
        "scheduler_rounds": engine_stats.scheduler_rounds,
        "oracle_round_trips": engine_stats.oracle_round_trips,
    }


def run_mixed_arm(tau: int) -> dict:
    """Group, multiple and intersectional jobs, serial then overlapped."""
    dataset, specs = build_mixed(tau, np.random.default_rng(7))
    serial, serial_reports = run_arm(
        dataset, specs, max_active_jobs=1, seed=MIXED_SEED
    )
    overlapped, overlapped_reports = run_arm(
        dataset, specs, max_active_jobs=len(specs), seed=MIXED_SEED
    )
    assert [full_verdict(r) for r in serial_reports] == [
        full_verdict(r) for r in overlapped_reports
    ], "mixed overlap changed a verdict"
    assert serial["job_tasks"] == overlapped["job_tasks"], (
        f"mixed overlap changed a job's bill: {serial['job_tasks']} vs "
        f"{overlapped['job_tasks']}"
    )
    assert serial["tasks"] == overlapped["tasks"] == sum(serial["job_tasks"])
    ratio = (
        overlapped["virtual_makespan_seconds"] / serial["virtual_makespan_seconds"]
    )
    print(f"  mixed kinds ({len(specs)} group/multiple/intersectional jobs, "
          f"N={len(dataset)}): serial {serial['virtual_makespan_seconds']:,.0f} "
          f"vs overlapped {overlapped['virtual_makespan_seconds']:,.0f} virtual s "
          f"= {ratio:.2f}x (ceiling {MIXED_MAKESPAN_CEILING}x) at "
          f"{serial['tasks']} tasks each")
    assert ratio <= MIXED_MAKESPAN_CEILING, (
        f"mixed overlapped makespan is {ratio:.2f}x the serial one, above "
        f"the {MIXED_MAKESPAN_CEILING}x ceiling"
    )
    return {
        "dataset_size": len(dataset),
        "kinds": [type(spec).__name__ for spec in specs],
        "serial": serial,
        "overlapped": overlapped,
        "speedup": 1.0 / ratio,
        "makespan_ceiling": MIXED_MAKESPAN_CEILING,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    parser.add_argument("--tau", type=int, default=DEFAULT_TAU)
    parser.add_argument("--out", default="BENCH_service.json")
    args = parser.parse_args()
    if args.jobs < 2:
        parser.error("--jobs must be >= 2 (overlap needs concurrency)")

    dataset, values = build_dataset(args.jobs, np.random.default_rng(7))
    specs = build_specs(values, args.tau)

    print(f"service benchmark: {args.jobs} group audits, tau={args.tau}, "
          f"N={len(dataset)}")
    inline = check_inline_equivalence(dataset, specs)
    print(f"  inline equivalence ok: {inline['tasks']} tasks, "
          f"{inline['oracle_round_trips']} round-trips, bit-identical to sessions")

    serial, _ = run_arm(dataset, specs, max_active_jobs=1)
    overlapped, _ = run_arm(dataset, specs, max_active_jobs=args.jobs)

    assert serial["verdicts"] == overlapped["verdicts"], (
        "overlap changed a verdict"
    )
    assert serial["tasks"] == overlapped["tasks"], (
        f"overlap changed the crowd bill: serial {serial['tasks']} vs "
        f"overlapped {overlapped['tasks']}"
    )
    speedup = (
        serial["virtual_makespan_seconds"] / overlapped["virtual_makespan_seconds"]
    )
    for row in (serial, overlapped):
        mode = "serial " if row["max_active_jobs"] == 1 else "overlap"
        print(
            f"  {mode}: {row['virtual_makespan_seconds']:>10,.0f} virtual s, "
            f"{row['tasks']} tasks, {row['jobs_per_virtual_hour']:.2f} jobs/h, "
            f"{row['real_seconds']:.2f} real s"
        )
    print(f"  wall-clock speedup of overlap vs serial: {speedup:.1f}x "
          f"(target >= {SPEEDUP_TARGET}x) at identical task spend")
    assert speedup >= SPEEDUP_TARGET, (
        f"overlap speedup {speedup:.2f}x is below the {SPEEDUP_TARGET}x target"
    )

    mixed = run_mixed_arm(args.tau)

    payload = {
        "benchmark": "audit-service latency overlap",
        "n_jobs": args.jobs,
        "tau": args.tau,
        "dataset_size": len(dataset),
        "inline_equivalence": inline,
        "serial": serial,
        "overlapped": overlapped,
        "speedup": speedup,
        "speedup_target": SPEEDUP_TARGET,
        "mixed": mixed,
    }
    with open(args.out, "w") as sink:
        json.dump(payload, sink, indent=2)
    print(f"  wrote {args.out}")


if __name__ == "__main__":
    main()
