"""Multiple and intersectional jobs as flow trees on the service engine.

They run next to group jobs instead of blocking the service loop: the
verdicts match a session run, per-job task counts are exact, their
crowd latency overlaps, and cancel, budget suspension and resume act on
the whole tree.
"""

from __future__ import annotations

import numpy as np
import pytest

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
from repro.errors import BudgetExceededError
from repro.service import AuditService, InMemoryJobStore, JobStatus

SCHEMA = Schema.from_dict(
    {"gender": ["male", "female"], "race": ["white", "black", "asian"]}
)
COUNTS = {
    ("male", "white"): 900,
    ("female", "white"): 420,
    ("male", "black"): 130,
    ("female", "black"): 28,
    ("male", "asian"): 70,
    ("female", "asian"): 16,
}
RACES = tuple(group(race=value) for value in ("white", "black", "asian"))
GENDERS = tuple(group(gender=value) for value in ("male", "female"))

#: (spec, seed) per job: group, multiple and intersectional kinds mixed.
JOBS = (
    (GroupAuditSpec(predicate=group(gender="female"), tau=40), None),
    (MultipleAuditSpec(groups=RACES, tau=40), 11),
    (IntersectionalAuditSpec(schema=SCHEMA, tau=30), 12),
    (MultipleAuditSpec(groups=GENDERS, tau=60), 13),
    (GroupAuditSpec(predicate=group(race="asian"), tau=50), None),
)

BACKENDS = {
    "inline": None,
    "latency": lambda proxy: LatencyModelBackend(
        proxy, rng=np.random.default_rng(4)
    ),
}


#: Five minorities merged into super-groups that come back covered: the
#: tree grows penalty re-runs mid-flight.
PENALTY_COUNTS = {"major": 3000, **{f"m{i}": 28 for i in range(5)}}
PENALTY_SPEC = MultipleAuditSpec(
    groups=tuple(group(race=value) for value in PENALTY_COUNTS), tau=50
)


@pytest.fixture(scope="module")
def dataset():
    return intersectional_dataset(SCHEMA, COUNTS, rng=np.random.default_rng(5))


@pytest.fixture(scope="module")
def penalty_dataset():
    return single_attribute_dataset(PENALTY_COUNTS, rng=np.random.default_rng(5))


def verdict(report) -> object:
    """A report's result in wire form, without its cost fields."""

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


def session_report(dataset, spec, seed):
    with AuditSession(GroundTruthOracle(dataset), engine=True, seed=seed) as session:
        return session.run(spec)


def run_service(dataset, jobs, *, backend=None, max_active_jobs=8):
    oracle = GroundTruthOracle(dataset)
    service = AuditService(
        oracle, backend=backend, max_active_jobs=max_active_jobs
    )
    with service:
        handles = [service.submit(spec, seed=seed) for spec, seed in jobs]
        service.drain()
        reports = [handle.result() for handle in handles]
        clock = getattr(service.backend, "clock", None)
        makespan = clock.now() if clock is not None else None
    return oracle, reports, makespan


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_mixed_jobs_match_session_verdicts_and_account_exactly(dataset, backend):
    oracle, reports, _ = run_service(dataset, JOBS, backend=BACKENDS[backend])
    for (spec, seed), report in zip(JOBS, reports):
        assert verdict(report) == verdict(session_report(dataset, spec, seed))
    # Every paid task is billed to exactly one job.
    assert sum(report.tasks.total for report in reports) == oracle.ledger.total
    assert (
        sum(report.tasks.n_point_queries for report in reports)
        == oracle.ledger.n_point_queries
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_multiple_job_without_shared_queries_reports_its_solo_spend(
    dataset, backend
):
    # Race groups never share a set query with gender groups, and group
    # jobs ask no point queries: the multiple job's bill is its own.
    spec = MultipleAuditSpec(groups=RACES, tau=40)
    jobs = (
        (GroupAuditSpec(predicate=group(gender="female"), tau=40), None),
        (spec, 11),
        (GroupAuditSpec(predicate=group(gender="male"), tau=80), None),
    )
    _, reports, _ = run_service(dataset, jobs, backend=BACKENDS[backend])
    solo = session_report(dataset, spec, 11)
    assert reports[1].tasks.n_set_queries == solo.tasks.n_set_queries
    assert reports[1].tasks.n_point_queries == solo.tasks.n_point_queries
    assert reports[1].result.tasks.total == solo.tasks.total


def test_overlapped_makespan_beats_serial(dataset):
    serial_oracle, serial, serial_makespan = run_service(
        dataset, JOBS, backend=BACKENDS["latency"], max_active_jobs=1
    )
    overlap_oracle, overlapped, overlap_makespan = run_service(
        dataset, JOBS, backend=BACKENDS["latency"], max_active_jobs=len(JOBS)
    )
    assert [verdict(r) for r in overlapped] == [verdict(r) for r in serial]
    assert overlap_makespan < serial_makespan


def test_cancel_running_multiple_job_retires_its_whole_tree(penalty_dataset):
    oracle = GroundTruthOracle(penalty_dataset)
    with AuditService(oracle, max_active_jobs=2) as service:
        victim = service.submit(PENALTY_SPEC, seed=11)
        survivor = service.submit(
            GroupAuditSpec(predicate=group(race="major"), tau=40)
        )
        job = service._job(victim.job_id)
        # Step until a covered super-group has spawned its penalty re-runs.
        while len(list(job.tree_flows())) == len(job.flows):
            service.step()
        assert victim.status == JobStatus.RUNNING
        tree = list(job.tree_flows())
        assert not all(flow.finished for flow in tree)
        assert victim.cancel()
        assert all(flow.finished or flow.retired for flow in tree)
        service.drain()
        assert victim.status == JobStatus.CANCELLED
        assert survivor.status == JobStatus.SUCCEEDED
        assert all(flow.outstanding == 0 for flow in tree)
        assert service.engine.active_flows == 0


def test_budget_exhausted_by_sampling_suspends_every_job(dataset):
    store = InMemoryJobStore()
    oracle = GroundTruthOracle(dataset)
    service = AuditService(
        oracle, max_active_jobs=2, job_store=store, task_budget=50
    )
    group_spec = GroupAuditSpec(predicate=group(gender="female"), tau=40)
    multiple_spec = MultipleAuditSpec(groups=RACES, tau=40)  # samples 80
    with service:
        first = service.submit(group_spec)
        second = service.submit(multiple_spec, seed=11)
        with pytest.raises(BudgetExceededError):
            service.step()
        assert first.status == JobStatus.SUSPENDED
        assert second.status == JobStatus.SUSPENDED
        assert oracle.ledger.n_point_queries == 0  # the batch was refused whole
        assert service.engine.active_flows == 0

    revived = AuditService.resume(store, oracle, task_budget=100_000)
    with revived:
        revived.drain()
        reports = [handle.result() for handle in revived.jobs()]
    assert verdict(reports[1]) == verdict(session_report(dataset, multiple_spec, 11))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_checkpoint_mid_multiple_job_resumes_without_reasking(
    penalty_dataset, backend
):
    # No query is shared between the jobs, so the uninterrupted bill is
    # exactly what the two halves together must pay.
    jobs = (
        (PENALTY_SPEC, 11),
        (GroupAuditSpec(predicate=group(race="major"), tau=40), None),
    )
    reference_oracle, reference, _ = run_service(
        penalty_dataset, jobs, backend=BACKENDS[backend]
    )

    store = InMemoryJobStore()
    oracle = GroundTruthOracle(penalty_dataset)
    with AuditService(
        oracle, backend=BACKENDS[backend], job_store=store
    ) as service:
        handles = [service.submit(spec, seed=seed) for spec, seed in jobs]
        job = service._job(handles[0].job_id)
        while len(list(job.tree_flows())) == len(job.flows):
            service.step()
        assert handles[0].status == JobStatus.RUNNING
        service.checkpoint()
    paid_before = oracle.ledger.total

    fresh = GroundTruthOracle(penalty_dataset)
    with AuditService.resume(store, fresh, backend=BACKENDS[backend]) as revived:
        revived.drain()
        resumed = [handle.result() for handle in revived.jobs()]
    assert [verdict(r) for r in resumed] == [verdict(r) for r in reference]
    # Everything paid before the checkpoint replays for free.
    assert paid_before + fresh.ledger.total == reference_oracle.ledger.total
