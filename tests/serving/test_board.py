"""The job board's lease protocol: atomic claims, stale takeover,
heartbeat fencing — the invariants kill/resume recovery rests on."""

from __future__ import annotations

import threading
import time

import pytest

from repro.audit import GroupAuditSpec
from repro.data.groups import group
from repro.errors import InvalidParameterError
from repro.serving import LeaseLostError, Submission
from repro.serving.board import _read_json


def submitted_job(board, tau=40, tenant="lease"):
    submission = Submission.from_spec(
        GroupAuditSpec(predicate=group(gender="female"), tau=tau),
        tenant=tenant,
    )
    job_id, _ = board.submit(submission)
    return job_id


class TestClaims:
    def test_exactly_one_of_many_racers_claims(self, board):
        job_id = submitted_job(board)
        barrier = threading.Barrier(8)
        wins = []

        def claim(worker):
            barrier.wait()
            lease = board.try_claim(job_id, worker, ttl=30)
            if lease is not None:
                wins.append(lease)

        threads = [
            threading.Thread(target=claim, args=(f"w{i}",)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(wins) == 1
        info = board.lease_info(job_id)
        assert info["worker"] == wins[0].worker

    def test_live_lease_blocks_reclaim(self, board):
        job_id = submitted_job(board)
        assert board.try_claim(job_id, "first", ttl=30) is not None
        assert board.try_claim(job_id, "second", ttl=30) is None
        assert not board.claimable(job_id, ttl=30)

    def test_stale_lease_is_taken_over_by_exactly_one(self, board):
        job_id = submitted_job(board)
        assert board.try_claim(job_id, "doomed", ttl=30) is not None
        time.sleep(0.15)  # let the heartbeat age past the tiny ttl
        barrier = threading.Barrier(6)
        wins = []

        def takeover(worker):
            barrier.wait()
            lease = board.try_claim(job_id, worker, ttl=0.1)
            if lease is not None:
                wins.append(lease)

        threads = [
            threading.Thread(target=takeover, args=(f"t{i}",))
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(wins) == 1
        assert board.lease_info(job_id)["worker"] == wins[0].worker

    def test_takeover_after_a_completed_takeover_loses(self, board, monkeypatch):
        # Forced interleaving: racer B reads the stale lease, then racer
        # A runs a whole takeover before B acts on what it read. B must
        # not move A's fresh lease aside.
        job_id = submitted_job(board)
        assert board.try_claim(job_id, "doomed", ttl=30) is not None
        time.sleep(0.15)  # let the heartbeat age past the tiny ttl
        lease_path = board.job_dir(job_id) / "lease.json"
        first = []

        def read_then_race(path):
            info = _read_json(path)
            if path == lease_path and not first:
                first.append(None)
                first[0] = board.try_claim(job_id, "a", ttl=0.1)
            return info

        monkeypatch.setattr("repro.serving.board._read_json", read_then_race)
        late = board.try_claim(job_id, "b", ttl=0.1)
        monkeypatch.undo()
        assert first[0] is not None and first[0].worker == "a"
        assert late is None
        assert board.lease_info(job_id)["token"] == first[0].token
        board.heartbeat(first[0])  # A still owns the lease

    def test_release_then_reclaim(self, board):
        job_id = submitted_job(board)
        lease = board.try_claim(job_id, "one", ttl=30)
        board.release(lease)
        assert board.claimable(job_id, ttl=30)
        assert board.try_claim(job_id, "two", ttl=30) is not None


class TestHeartbeats:
    def test_heartbeat_keeps_the_lease_fresh(self, board):
        job_id = submitted_job(board)
        lease = board.try_claim(job_id, "beater", ttl=0.3)
        for _ in range(4):
            time.sleep(0.1)
            board.heartbeat(lease)
        assert not board.lease_is_stale(board.lease_info(job_id), 0.3)

    def test_heartbeat_after_takeover_raises_lease_lost(self, board):
        job_id = submitted_job(board)
        doomed = board.try_claim(job_id, "doomed", ttl=0.05)
        time.sleep(0.1)
        thief = board.try_claim(job_id, "thief", ttl=0.05)
        assert thief is not None
        with pytest.raises(LeaseLostError):
            board.heartbeat(doomed)
        # The loser's release must not evict the new owner either.
        board.release(doomed)
        assert board.lease_info(job_id)["worker"] == "thief"

    def test_heartbeat_on_released_lease_raises(self, board):
        job_id = submitted_job(board)
        lease = board.try_claim(job_id, "gone", ttl=30)
        board.release(lease)
        with pytest.raises(LeaseLostError):
            board.heartbeat(lease)


class TestStateRecords:
    def test_unknown_job_raises_typed_error(self, board):
        with pytest.raises(InvalidParameterError, match="unknown job id"):
            board.read_state("j" + "0" * 16)
        with pytest.raises(InvalidParameterError, match="unknown job id"):
            board.request_cancel("j" + "0" * 16)

    def test_cancel_marker_round_trip(self, board):
        job_id = submitted_job(board)
        assert not board.cancel_requested(job_id)
        board.request_cancel(job_id)
        board.request_cancel(job_id)  # idempotent
        assert board.cancel_requested(job_id)

    def test_counts_tally_statuses(self, board):
        first = submitted_job(board, tau=10)
        submitted_job(board, tau=11)
        state = board.read_state(first)
        state["status"] = "succeeded"
        board.write_state(first, state)
        assert board.counts() == {"succeeded": 1, "queued": 1}
