"""Kill/resume conformance for reliability-enabled service jobs.

The ISSUE-9 acceptance bar: abandoning a service run mid-flight and
resuming from the :class:`DirectoryJobStore` onto a *fresh*,
identically-configured reliability platform must reproduce the
uninterrupted run bit-for-bit — same verdicts, same task counts, same
estimator state — and must not re-ask a single paid query.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit import GroupAuditSpec
from repro.crowd.oracle import CrowdOracle
from repro.crowd.platform import CrowdPlatform
from repro.crowd.reliability import AdaptiveAssignmentPolicy
from repro.crowd.workers import make_worker_pool
from repro.data.groups import group
from repro.data.synthetic import binary_dataset
from repro.errors import BudgetExceededError, CheckpointVersionError
from repro.service import AuditService, DirectoryJobStore

SPECS = (
    GroupAuditSpec(predicate=group(gender="female"), tau=30),
    GroupAuditSpec(predicate=group(gender="male"), tau=30),
)


@pytest.fixture(scope="module")
def dataset():
    return binary_dataset(1_500, 25, rng=np.random.default_rng(7))


def reliability_oracle(dataset):
    """A fresh, deterministically-configured adaptive crowd oracle."""
    pool = make_worker_pool(
        15,
        np.random.default_rng(3),
        error_rate=0.03,
        spammer_fraction=0.2,
        spammer_error_rate=0.45,
    )
    platform = CrowdPlatform(
        dataset,
        pool,
        np.random.default_rng(11),
        reliability=AdaptiveAssignmentPolicy(log_odds_threshold=3.5),
    )
    return CrowdOracle(platform)


def test_kill_resume_is_bit_identical_and_reasks_nothing(tmp_path, dataset):
    # Uninterrupted reference run.
    reference_oracle = reliability_oracle(dataset)
    with AuditService(reference_oracle, seed=9) as service:
        handles = [service.submit(spec) for spec in SPECS]
        service.drain()
        reference = [handle.result() for handle in handles]
    reference_state = reference_oracle.platform.reliability.state_dict()

    # Interrupted run: the budget kills the service mid-flight; the
    # suspension auto-checkpoints jobs, answers, and reliability state.
    store = DirectoryJobStore(tmp_path / "state")
    first_oracle = reliability_oracle(dataset)
    service = AuditService(
        first_oracle, job_store=store, task_budget=130, seed=9
    )
    with service:
        for spec in SPECS:
            service.submit(spec)
        with pytest.raises(BudgetExceededError):
            service.drain()
    paid_before_kill = first_oracle.ledger.total
    assert 0 < paid_before_kill <= 130

    # Resume onto a *fresh* identically-configured platform: nothing of
    # the first platform's in-memory state survives except what the
    # checkpoint carries.
    fresh_oracle = reliability_oracle(dataset)
    revived = AuditService.resume(store, fresh_oracle, task_budget=100_000)
    with revived:
        revived.drain()
        resumed = [handle.result() for handle in revived.jobs()]

    # Bit-identical verdicts and coverage counts.
    for ours, theirs in zip(resumed, reference):
        assert ours.result.covered == theirs.result.covered
        assert ours.result.count == theirs.result.count

    # Bit-identical estimator / tracker / router state.
    assert (
        fresh_oracle.platform.reliability.state_dict() == reference_state
    )

    # Zero re-asked paid queries: the two phases together paid exactly
    # the uninterrupted bill, in tasks and in dollars.
    assert (
        paid_before_kill + fresh_oracle.ledger.total
        == reference_oracle.ledger.total
    )
    assert (
        first_oracle.platform.ledger.n_assignments
        + fresh_oracle.platform.ledger.n_assignments
        == reference_oracle.platform.ledger.n_assignments
    )
    assert first_oracle.platform.ledger.total_cost + (
        fresh_oracle.platform.ledger.total_cost
    ) == pytest.approx(reference_oracle.platform.ledger.total_cost)

    report = revived.reliability_report()
    assert report is not None
    assert "quarantined" in revived.describe()


def test_checkpoint_carries_versioned_reliability_section(tmp_path, dataset):
    store = DirectoryJobStore(tmp_path / "state")
    oracle = reliability_oracle(dataset)
    with AuditService(oracle, job_store=store, seed=9) as service:
        service.submit(SPECS[0])
        service.drain()
        service.checkpoint()
    answers = store.load_answers()
    assert answers["version"] == 2
    assert answers["reliability"]["version"] == 1
    assert answers["reliability"]["platform_rng_state"] is not None


def test_resume_without_reliability_platform_rejected(tmp_path, dataset):
    from repro.crowd.oracle import GroundTruthOracle

    store = DirectoryJobStore(tmp_path / "state")
    oracle = reliability_oracle(dataset)
    with AuditService(oracle, job_store=store, seed=9) as service:
        service.submit(SPECS[0])
        service.drain()
        service.checkpoint()
    with pytest.raises(CheckpointVersionError):
        AuditService.resume(store, GroundTruthOracle(dataset))


def test_v1_answer_log_without_reliability_still_resumes(tmp_path, dataset):
    from repro.crowd.oracle import GroundTruthOracle

    store = DirectoryJobStore(tmp_path / "state")
    oracle = GroundTruthOracle(dataset)
    with AuditService(oracle, job_store=store, seed=9) as service:
        service.submit(SPECS[0])
        service.drain()
        service.checkpoint()
    # Down-convert to the v1 shape an older build wrote: no reliability.
    answers = store.load_answers()
    answers["version"] = 1
    answers.pop("reliability", None)
    store.save_answers(answers)
    revived = AuditService.resume(store, GroundTruthOracle(dataset))
    with revived:
        revived.drain()
    assert revived.reliability_report() is None


@pytest.mark.parametrize("n_workers", [17, 33])
def test_kill_resume_with_point_answers_past_sixteen_workers(
    tmp_path, dataset, n_workers
):
    # A multiple audit's sampling phase records point answers; with
    # more than 16 workers the estimator's point matrices outgrow their
    # first row block, and the checkpoint must still load.
    from repro.audit import MultipleAuditSpec

    spec = MultipleAuditSpec(
        groups=(group(gender="female"), group(gender="male")), tau=30
    )

    def oracle():
        pool = make_worker_pool(
            n_workers,
            np.random.default_rng(3),
            error_rate=0.03,
            spammer_fraction=0.2,
            spammer_error_rate=0.45,
        )
        platform = CrowdPlatform(
            dataset,
            pool,
            np.random.default_rng(11),
            reliability=AdaptiveAssignmentPolicy(log_odds_threshold=3.5),
        )
        return CrowdOracle(platform)

    reference_oracle = oracle()
    with AuditService(reference_oracle, seed=9) as service:
        reference = service.submit(spec).result()
    estimator = reference_oracle.platform.reliability.estimator
    assert len(estimator.worker_ids) == n_workers
    assert estimator.n_point_batches > 0

    store = DirectoryJobStore(tmp_path / "state")
    first_oracle = oracle()
    budget = reference.tasks.total // 2
    service = AuditService(first_oracle, job_store=store, task_budget=budget, seed=9)
    with service:
        service.submit(spec)
        with pytest.raises(BudgetExceededError):
            service.drain()
    paid_before_kill = first_oracle.ledger.total
    assert first_oracle.ledger.n_point_queries > 0

    fresh_oracle = oracle()
    revived = AuditService.resume(store, fresh_oracle, task_budget=100_000)
    with revived:
        revived.drain()
        (resumed,) = [handle.result() for handle in revived.jobs()]

    for ours, theirs in zip(resumed.result.entries, reference.result.entries):
        assert (ours.covered, ours.count) == (theirs.covered, theirs.count)
    # Zero re-asks: the two phases together paid the uninterrupted bill.
    assert paid_before_kill + fresh_oracle.ledger.total == reference_oracle.ledger.total
