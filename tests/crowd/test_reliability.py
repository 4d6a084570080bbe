"""Tests for the online worker-reliability subsystem.

Covers the streaming estimator (:class:`OnlineDawidSkene`), the
quarantine lifecycle (:class:`ReliabilityTracker`), the adaptive router
(:class:`AdaptiveAssignmentPolicy`), platform wiring, backend vote
surfacing, and the session checkpoint round trip.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.crowd.oracle import CrowdOracle
from repro.crowd.platform import CrowdPlatform
from repro.crowd.queries import PointQuery, SetQuery
from repro.crowd.reliability import (
    AdaptiveAssignmentPolicy,
    OnlineDawidSkene,
    ReliabilitySnapshot,
    ReliabilityTracker,
)
from repro.crowd.workers import Worker, make_worker_pool
from repro.data.groups import group
from repro.data.synthetic import binary_dataset
from repro.errors import CheckpointVersionError, InvalidParameterError

FEMALE = group(gender="female")


def _feed(estimator, rng, n_hits, behaviors):
    """Stream ``n_hits`` synthetic set HITs; ``behaviors`` maps worker id
    to a callable ``truth, rng -> answer``."""
    for _ in range(n_hits):
        truth = bool(rng.random() < 0.5)
        votes = [(w, bool(answer(truth, rng))) for w, answer in behaviors.items()]
        estimator.observe_set_batch([votes])


def good(error=0.05):
    return lambda truth, rng: truth if rng.random() > error else not truth


def always(value):
    return lambda truth, rng: value


def uniform():
    return lambda truth, rng: bool(rng.random() < 0.5)


def adversarial(error=0.9):
    return lambda truth, rng: (not truth) if rng.random() < error else truth


class TestOnlineDawidSkene:
    def test_ranks_workers_by_quality(self, rng):
        est = OnlineDawidSkene()
        _feed(est, rng, 60, {0: good(0.02), 1: good(0.02), 2: good(0.3)})
        assert est.worker_accuracy(0) > est.worker_accuracy(2)
        assert est.n_observations(0) == 60
        assert est.worker_ids == (0, 1, 2)

    def test_vote_log_odds_signs(self, rng):
        est = OnlineDawidSkene()
        _feed(est, rng, 40, {0: good(0.02), 1: good(0.02), 2: good(0.02)})
        assert est.vote_log_odds(0, True) > 0
        assert est.vote_log_odds(0, False) < 0
        # A good worker's learned vote outweighs an unknown worker's.
        assert est.vote_log_odds(0, True) > est.vote_log_odds(99, True)

    def test_unknown_worker_gets_prior_confusion(self):
        est = OnlineDawidSkene(prior_correct=0.7)
        confusion = est.confusion(5)
        assert np.allclose(confusion, [[0.7, 0.3], [0.3, 0.7]])
        assert est.n_observations(5) == 0

    def test_empty_batch_is_a_no_op(self):
        est = OnlineDawidSkene()
        assert est.observe_set_batch([]).shape == (0,)
        assert est.observe_point_batch([]) == []

    def test_posterior_follows_reliable_majority(self, rng):
        est = OnlineDawidSkene()
        _feed(est, rng, 40, {0: good(0.02), 1: good(0.02), 2: good(0.02)})
        post = est.observe_set_batch([[(0, True), (1, True), (2, True)]])
        assert post[0] > 0.9
        post = est.observe_set_batch([[(0, False), (1, False), (2, False)]])
        assert post[0] < 0.1

    def test_decay_tracks_drifting_quality(self, rng):
        sticky = OnlineDawidSkene(decay=1.0)
        forgetful = OnlineDawidSkene(decay=0.9)
        for est in (sticky, forgetful):
            feed_rng = np.random.default_rng(17)
            _feed(est, feed_rng, 80, {0: good(0.02), 1: good(0.02), 2: good(0.02)})
            _feed(est, feed_rng, 40, {0: adversarial(), 1: good(0.02), 2: good(0.02)})
        # The forgetful estimator notices worker 0 went bad much faster.
        assert forgetful.worker_accuracy(0) < sticky.worker_accuracy(0)

    def test_point_batch_learns_map_labels(self, rng):
        est = OnlineDawidSkene()
        for _ in range(30):
            est.observe_point_batch(
                [[(0, {"gender": "f"}), (1, {"gender": "f"}), (2, {"gender": "m"})]]
            )
        labels = est.observe_point_batch(
            [[(0, {"gender": "f"}), (1, {"gender": "f"}), (2, {"gender": "m"})]]
        )
        assert labels == [{"gender": "f"}]
        posteriors = est.point_posteriors([(0, {"gender": "f"})])
        assert posteriors["gender"]["f"] > posteriors["gender"]["m"]

    def test_state_round_trips_bit_identically_through_json(self, rng):
        est = OnlineDawidSkene(decay=0.95)
        _feed(est, rng, 25, {0: good(), 3: uniform(), 7: adversarial()})
        est.observe_point_batch([[(0, {"gender": "f"}), (3, {"gender": "m"})]])
        state = json.loads(json.dumps(est.state_dict()))
        clone = OnlineDawidSkene(decay=0.95)
        clone.load_state_dict(state)
        assert clone.state_dict() == est.state_dict()
        assert np.array_equal(clone.confusion(7), est.confusion(7))
        # Subsequent updates evolve identically.
        more = [[(0, True), (3, False), (7, True)]]
        assert np.array_equal(
            clone.observe_set_batch(more), est.observe_set_batch(more)
        )
        assert clone.state_dict() == est.state_dict()

    @pytest.mark.parametrize("n_workers", [17, 33])
    def test_point_state_round_trips_past_the_first_row_block(self, rng, n_workers):
        # Point matrices grow in 16-row blocks; more than 16 workers used
        # to save them at the grown capacity and fail to load.
        est = OnlineDawidSkene()
        _feed(est, rng, 10, {worker: good() for worker in range(n_workers)})
        est.observe_point_batch(
            [[(worker, {"gender": "f" if worker % 3 else "m"}) for worker in range(n_workers)]]
        )
        state = json.loads(json.dumps(est.state_dict()))
        assert len(state["point"]["gender"]["obs"]) == n_workers
        clone = OnlineDawidSkene()
        clone.load_state_dict(state)
        assert clone.state_dict() == est.state_dict()
        votes = [[(worker, {"gender": "f"}) for worker in range(n_workers)]]
        assert clone.observe_point_batch(votes) == est.observe_point_batch(votes)
        assert clone.state_dict() == est.state_dict()

        # A checkpoint that saved the whole grown capacity still loads.
        legacy = json.loads(json.dumps(state))
        capacity = est._point_models["gender"].obs.shape[0]
        k = len(legacy["point"]["gender"]["values"])
        legacy["point"]["gender"]["obs"] = (
            np.asarray(state["point"]["gender"]["obs"]).tolist()
            + [[[0.0] * k] * k] * (capacity - n_workers)
        )
        assert capacity > n_workers
        old = OnlineDawidSkene()
        old.load_state_dict(legacy)
        assert old.state_dict() == state

    def test_invalid_parameters_rejected(self):
        for kwargs in (
            {"damping": 0.0},
            {"damping": 1.5},
            {"decay": 0.0},
            {"prior_correct": 0.4},
            {"prior_correct": 1.0},
            {"prior_strength": 0.0},
            {"sweeps": 0},
        ):
            with pytest.raises(InvalidParameterError):
                OnlineDawidSkene(**kwargs)


class TestReliabilityTracker:
    def _tracked(self, rng, behaviors, n_hits=60, **kwargs):
        est = OnlineDawidSkene()
        tracker = ReliabilityTracker(est, **kwargs)
        _feed(est, rng, n_hits, behaviors)
        tracker.review()
        return est, tracker

    def test_flags_always_yes_and_always_no(self, rng):
        behaviors = {
            0: good(0.02), 1: good(0.02), 2: good(0.02),
            8: always(True), 9: always(False),
        }
        _, tracker = self._tracked(rng, behaviors)
        assert tracker.flag(8) == "always_yes"
        assert tracker.flag(9) == "always_no"
        assert tracker.is_quarantined(8) and tracker.is_quarantined(9)
        assert not tracker.is_quarantined(0)
        assert tracker.quarantined_ids() == (8, 9)

    def test_flags_adversary_with_negative_j(self, rng):
        behaviors = {0: good(0.02), 1: good(0.02), 2: good(0.02), 7: adversarial()}
        _, tracker = self._tracked(rng, behaviors)
        assert tracker.flag(7) == "adversary"
        assert tracker.youden_j(7) < 0

    def test_flags_uniform_guesser(self, rng):
        behaviors = {0: good(0.02), 1: good(0.02), 2: good(0.02), 5: uniform()}
        _, tracker = self._tracked(rng, behaviors, n_hits=120)
        assert tracker.flag(5) == "uniform_guesser"

    def test_insufficient_evidence_never_flags(self, rng):
        behaviors = {0: good(0.02), 1: good(0.02), 5: always(True)}
        _, tracker = self._tracked(rng, behaviors, n_hits=5, min_observations=12)
        assert tracker.flag(5) is None
        assert not tracker.is_quarantined(5)

    def test_probation_reinstates_recovered_worker(self, rng):
        est = OnlineDawidSkene(decay=0.97)
        tracker = ReliabilityTracker(
            est, min_observations=10, probation_votes=5, reentry_margin=0.2
        )
        _feed(est, rng, 40, {0: good(0.02), 1: good(0.02), 2: always(True)})
        tracker.review()
        assert tracker.is_quarantined(2)
        assert tracker.n_quarantines == 1
        # The worker recovers; probe votes keep feeding the estimator.
        for _ in range(60):
            _feed(est, rng, 1, {0: good(0.02), 1: good(0.02), 2: good(0.02)})
            tracker.review()
        assert not tracker.is_quarantined(2)
        assert tracker.n_reinstatements == 1
        assert tracker.flag(2) is None

    def test_state_round_trips_through_json(self, rng):
        _, tracker = self._tracked(
            rng, {0: good(0.02), 1: good(0.02), 2: good(0.02), 8: always(True)}
        )
        state = json.loads(json.dumps(tracker.state_dict()))
        clone = ReliabilityTracker(tracker.estimator)
        clone.load_state_dict(state)
        assert clone.state_dict() == tracker.state_dict()
        assert clone.is_quarantined(8)

    def test_invalid_parameters_rejected(self):
        est = OnlineDawidSkene()
        for kwargs in (
            {"min_observations": 0},
            {"spam_margin": 0.0},
            {"extreme_rate": 0.5},
            {"reentry_margin": 1.0},
            {"probation_votes": 0},
        ):
            with pytest.raises(InvalidParameterError):
                ReliabilityTracker(est, **kwargs)


class TestAdaptiveAssignmentPolicy:
    def _pool(self, n=6):
        return [Worker(worker_id=i, set_error_rate=0.02) for i in range(n)]

    def test_plan_excludes_quarantined_and_caps(self, rng):
        policy = AdaptiveAssignmentPolicy(max_assignments=3)
        feed_rng = np.random.default_rng(1)
        _feed(
            policy.estimator, feed_rng, 60,
            {0: good(0.02), 1: good(0.02), 2: good(0.02), 3: always(True)},
        )
        policy.tracker.review()
        pool = self._pool(4)
        order, probe = policy.plan(pool, rng)
        assert len(order) <= 3
        assert 3 not in order  # quarantined position (worker_id == position)
        assert probe is None or probe == 3

    def test_plan_falls_back_to_full_pool_when_all_quarantined(self, rng):
        policy = AdaptiveAssignmentPolicy()
        feed_rng = np.random.default_rng(2)
        _feed(policy.estimator, feed_rng, 60,
              {0: good(0.02), 1: good(0.02), 2: always(True)})
        policy.tracker.review()
        pool = [Worker(worker_id=2, set_error_rate=0.02)]
        order, _ = policy.plan(pool, rng)
        assert order == [0]

    def test_probe_fires_on_probation_cadence(self, rng):
        policy = AdaptiveAssignmentPolicy(probation_interval=3)
        feed_rng = np.random.default_rng(3)
        _feed(policy.estimator, feed_rng, 60,
              {0: good(0.02), 1: good(0.02), 2: good(0.02), 3: always(False)})
        policy.tracker.review()
        pool = self._pool(4)
        probes = []
        for hit in range(6):
            _, probe = policy.plan(pool, rng)
            probes.append(probe)
            policy.n_hits += 1  # simulate the observe step advancing hits
        assert probes[2] == 3 and probes[5] == 3
        assert probes[0] is None and probes[1] is None

    def test_stop_rule_respects_bounds(self):
        policy = AdaptiveAssignmentPolicy(
            min_assignments=2, max_assignments=4, log_odds_threshold=1.0
        )
        assert not policy.should_stop(99.0, n_votes=1)  # below min
        assert policy.should_stop(1.5, n_votes=2)       # threshold cleared
        assert not policy.should_stop(0.1, n_votes=3)   # not confident yet
        assert policy.should_stop(0.1, n_votes=4)       # max exhausted
        assert policy.decide(0.2) is True
        assert policy.decide(-0.2) is False

    def test_observe_set_updates_counters_and_report(self, rng):
        policy = AdaptiveAssignmentPolicy()
        policy.observe_set([(0, True), (1, True), (2, False)], n_probes=1)
        report = policy.report()
        assert report.n_hits == 1
        assert report.n_votes == 2
        assert report.n_probes == 1
        assert report.n_workers == 3
        assert report.mean_votes_per_hit == 2.0

    def test_empty_pool_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            AdaptiveAssignmentPolicy().plan([], rng)

    def test_invalid_parameters_rejected(self):
        for kwargs in (
            {"min_assignments": 0},
            {"min_assignments": 5, "max_assignments": 3},
            {"log_odds_threshold": 0.0},
            {"exploration": -0.1},
            {"probation_interval": 0},
        ):
            with pytest.raises(InvalidParameterError):
                AdaptiveAssignmentPolicy(**kwargs)


class TestAdaptivePlatform:
    @pytest.fixture
    def dataset(self):
        return binary_dataset(1000, 20, rng=np.random.default_rng(7))

    def _pool(self):
        return make_worker_pool(
            20, np.random.default_rng(3), error_rate=0.03,
            spammer_fraction=0.25, spammer_error_rate=0.45,
        )

    def _run(self, dataset, reliability, n=150):
        platform = CrowdPlatform(
            dataset, self._pool(), np.random.default_rng(11),
            reliability=reliability,
        )
        query_rng = np.random.default_rng(42)
        for _ in range(n):
            indices = query_rng.choice(len(dataset), size=15, replace=False)
            platform.publish_set_query(
                SetQuery(np.asarray(indices, dtype=np.int64), FEMALE)
            )
        return platform

    def test_adaptive_spends_fewer_assignments_at_equal_accuracy(self, dataset):
        fixed = self._run(dataset, None)
        adaptive = self._run(
            dataset, AdaptiveAssignmentPolicy(log_odds_threshold=3.5)
        )
        assert adaptive.ledger.n_assignments < fixed.ledger.n_assignments
        assert adaptive.n_aggregated_incorrect <= fixed.n_aggregated_incorrect
        assert adaptive.ledger.n_hits == fixed.ledger.n_hits

    def test_assignments_match_cost_ledger_and_raw_answers(self, dataset):
        adaptive = self._run(dataset, AdaptiveAssignmentPolicy())
        assert adaptive.ledger.n_assignments == adaptive.n_raw_answers
        report = adaptive.reliability.report()
        assert report.n_votes + report.n_probes == adaptive.n_raw_answers

    def test_adaptive_runs_are_deterministic(self, dataset):
        a = self._run(dataset, AdaptiveAssignmentPolicy(), n=60)
        b = self._run(dataset, AdaptiveAssignmentPolicy(), n=60)
        assert a.ledger.n_assignments == b.ledger.n_assignments
        assert a.n_aggregated_incorrect == b.n_aggregated_incorrect
        assert (
            a.reliability.estimator.state_dict()
            == b.reliability.estimator.state_dict()
        )

    def test_record_votes_buffers_and_drains(self, dataset):
        adaptive = self._run(dataset, AdaptiveAssignmentPolicy(), n=10)
        votes = adaptive.drain_set_votes()
        assert len(votes) == 10
        assert all(
            isinstance(w, int) and isinstance(a, bool)
            for hit in votes for (w, a) in hit
        )
        assert adaptive.drain_set_votes() == []  # drained

    def test_plain_platform_records_votes_when_asked(self, dataset, rng):
        platform = CrowdPlatform(
            dataset, self._pool(), np.random.default_rng(1), record_votes=True
        )
        indices = np.arange(5, dtype=np.int64)
        platform.publish_set_query(SetQuery(indices, FEMALE))
        votes = platform.drain_set_votes()
        assert len(votes) == 1
        assert len(votes[0]) == platform.assignments_per_hit

    def test_adaptive_point_query_reaches_truth(self, dataset):
        policy = AdaptiveAssignmentPolicy(log_odds_threshold=1.5)
        platform = CrowdPlatform(
            dataset, self._pool(), np.random.default_rng(5), reliability=policy
        )
        labels = platform.publish_point_query(PointQuery(3))
        assert labels == dataset.value_row(3)
        assert policy.n_hits == 1

    def test_probes_are_billed_but_not_verdict_bearing(self, dataset):
        policy = AdaptiveAssignmentPolicy(
            probation_interval=1, log_odds_threshold=3.5
        )
        platform = CrowdPlatform(
            dataset, self._pool(), np.random.default_rng(11), reliability=policy
        )
        # Quarantine someone first so probes have a target.
        feed_rng = np.random.default_rng(8)
        _feed(policy.estimator, feed_rng, 60,
              {0: good(0.02), 1: good(0.02), 2: good(0.02),
               platform.eligible_workers[0].worker_id: always(True)})
        policy.tracker.review()
        assert policy.tracker.quarantined_ids()
        before = platform.ledger.n_assignments
        platform.publish_set_query(
            SetQuery(np.arange(4, dtype=np.int64), FEMALE)
        )
        billed = platform.ledger.n_assignments - before
        report = policy.report()
        assert report.n_probes >= 1
        assert billed == report.n_votes + report.n_probes


class TestSessionReliabilityCheckpoint:
    def _build(self, policy):
        dataset = binary_dataset(800, 25, rng=np.random.default_rng(7))
        pool = make_worker_pool(
            15, np.random.default_rng(3), error_rate=0.03,
            spammer_fraction=0.2, spammer_error_rate=0.45,
        )
        platform = CrowdPlatform(
            dataset, pool, np.random.default_rng(11), reliability=policy
        )
        return dataset, CrowdOracle(platform)

    def test_checkpoint_carries_versioned_reliability_section(self):
        from repro.audit.session import AuditSession
        from repro.audit.specs import GroupAuditSpec

        _, oracle = self._build(AdaptiveAssignmentPolicy())
        with AuditSession(oracle, seed=5) as session:
            session.run(GroupAuditSpec(predicate=FEMALE, tau=10))
            payload = json.loads(session.checkpoint())
        assert payload["version"] == 3
        assert payload["reliability"]["version"] == 1
        assert payload["reliability"]["platform_rng_state"] is not None
        assert session.reliability_report().n_hits > 0

    def test_checkpoint_reliability_none_without_policy(self):
        from repro.audit.session import AuditSession
        from repro.audit.specs import GroupAuditSpec

        _, oracle = self._build(None)
        with AuditSession(oracle, seed=5) as session:
            session.run(GroupAuditSpec(predicate=FEMALE, tau=10))
            payload = json.loads(session.checkpoint())
        assert payload["reliability"] is None
        assert session.reliability_report() is None

    def test_resume_restores_estimator_and_rng_bit_identically(self):
        from repro.audit.session import AuditSession
        from repro.audit.specs import GroupAuditSpec

        specs = [
            GroupAuditSpec(predicate=FEMALE, tau=10),
            GroupAuditSpec(predicate=group(gender="male"), tau=10),
        ]
        # Uninterrupted reference run.
        _, oracle = self._build(AdaptiveAssignmentPolicy())
        with AuditSession(oracle, seed=5) as session:
            reference = [session.run(spec) for spec in specs]
            reference_state = oracle.platform.reliability.state_dict()

        # Interrupted run: checkpoint after the first spec, resume onto a
        # *fresh* identically-configured platform, run the second spec.
        _, first_oracle = self._build(AdaptiveAssignmentPolicy())
        with AuditSession(first_oracle, seed=5) as session:
            first_report = session.run(specs[0])
            checkpoint = session.checkpoint()
        _, fresh_oracle = self._build(AdaptiveAssignmentPolicy())
        resumed = AuditSession.resume(checkpoint, fresh_oracle)
        with resumed:
            second_report = resumed.run(specs[1])

        assert first_report.entries[0].result == reference[0].entries[0].result
        assert (
            second_report.entries[0].result == reference[1].entries[0].result
        )
        assert (
            fresh_oracle.platform.reliability.state_dict() == reference_state
        )
        # No recorded answer was re-asked: the resumed session paid only
        # for the second spec's queries.
        assert (
            first_oracle.ledger.total + fresh_oracle.ledger.total
            == oracle.ledger.total
        )

    def test_resume_without_reliability_platform_rejected(self):
        from repro.audit.session import AuditSession
        from repro.audit.specs import GroupAuditSpec

        _, oracle = self._build(AdaptiveAssignmentPolicy())
        with AuditSession(oracle, seed=5) as session:
            session.run(GroupAuditSpec(predicate=FEMALE, tau=10))
            checkpoint = session.checkpoint()
        _, bare_oracle = self._build(None)
        with pytest.raises(CheckpointVersionError):
            AuditSession.resume(checkpoint, bare_oracle)

    def test_snapshot_rejects_unknown_versions_and_missing_keys(self):
        with pytest.raises(CheckpointVersionError):
            ReliabilitySnapshot.from_dict({"version": 99})
        with pytest.raises(CheckpointVersionError):
            ReliabilitySnapshot.from_dict({"policy": {}})
