"""Span recorder for the traced run.

The benchmark wraps the public calls of each layer from the outside
(class attributes and module functions are swapped for timing
wrappers); the program itself carries no tracing. Every wrapped call
opens a span (name, start, end, parent, audit id). Self time is the
span's duration minus the time its child spans cover. Totals are kept
for every span; the raw spans are kept in memory up to ``RAW_CAP`` and
written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

#: Raw spans kept for the written trace; aggregates cover every span.
RAW_CAP = 20_000


class Recorder:
    """Collects spans and counters from installed wrappers."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.raw: list[tuple] = []
        #: Query engines created while installed; their lifetime stats
        #: become the ``engine.*`` counters.
        self.engines: list = []
        self.audit_id: str | None = None
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        """Forget everything recorded so far (spans in flight go on)."""
        self.self_s.clear()
        self.calls.clear()
        self.counters.clear()
        self.raw.clear()
        self.engines.clear()

    # -- spans ------------------------------------------------------------
    def _timed(self, name: str, fn, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if len(self.raw) < RAW_CAP:
                    self.raw.append((name, start, end, parent, self.audit_id))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    @staticmethod
    def _counted(fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str | None, after=None) -> None:
        """Swap ``owner.attr`` (a method, classmethod or module function)
        for a span-recording wrapper (``name=None``: no span, only the
        ``after`` counter hook); :meth:`uninstall` restores it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        inner = original.__func__ if isinstance(original, classmethod) else original
        if name is None:
            replacement = self._counted(inner, after)
        else:
            replacement = self._timed(name, inner, after)
        if isinstance(original, classmethod):
            replacement = classmethod(replacement)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------
    def seconds(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def all_counters(self) -> dict[str, float]:
        """The wrappers' counters plus the recorded engines' totals."""
        counters = dict(self.counters)
        for engine in self.engines:
            stats = engine.stats
            for name, value in (
                ("engine.rounds", stats.scheduler_rounds),
                ("engine.round_trips", stats.oracle_round_trips),
                ("engine.dispatched", stats.dispatched_queries),
                ("engine.cache_hits", stats.cache_hits),
                ("engine.cache_misses", stats.cache_misses),
            ):
                counters[name] = counters.get(name, 0) + value
        return counters

    def to_dict(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": self.all_counters(),
            "raw_fields": ["name", "start", "end", "parent", "audit_id"],
            "raw": self.raw,
        }

    def dump(self, path) -> None:
        """Write the spans to ``path`` atomically (readers never see a
        partial file)."""
        scratch = f"{path}.tmp"
        with open(scratch, "w", encoding="utf-8") as sink:
            json.dump(self.to_dict(), sink)
        os.replace(scratch, path)

    @classmethod
    def load(cls, path) -> "Recorder":
        with open(path, encoding="utf-8") as source:
            data = json.load(source)
        recorder = cls()
        recorder.self_s.update(data["self_s"])
        recorder.calls.update(data["calls"])
        recorder.counters.update(data["counters"])
        return recorder


def install_layers(recorder: Recorder) -> None:
    """Wrap the public calls of every layer the workloads measure."""
    from repro.audit.proxy import RecordingOracleProxy
    from repro.core.group_coverage import GroupCoverageStepper
    from repro.crowd.backends.base import CrowdBackend
    from repro.crowd.oracle import Oracle
    from repro.crowd.platform import CrowdPlatform
    from repro.data import sharded
    from repro.data.membership import GroupMembershipIndex
    from repro.engine.scheduler import QueryEngine
    from repro.service import store as store_module
    from repro.service.service import AuditService

    wrap = recorder.wrap
    wrap(GroupCoverageStepper, "pending", "core.pending")
    wrap(GroupCoverageStepper, "feed", "core.feed")

    def engine_made(args, kwargs, result):
        recorder.engines.append(args[0])

    wrap(QueryEngine, "__init__", None, engine_made)
    wrap(QueryEngine, "_pump", "engine.pump")
    wrap(QueryEngine, "absorb", "engine.absorb")
    # The proxy -> oracle hop: every ask_* entry point of the base oracle
    # and of the recording proxy sessions and services put in front of it.
    for owner in (Oracle, RecordingOracleProxy):
        for attr in ("ask_set", "ask_set_batch", "ask_point", "ask_point_batch"):
            if attr in owner.__dict__:
                wrap(owner, attr, "oracle.ask")
    for owner in (GroupMembershipIndex, sharded.ShardedMembershipIndex):
        for attr in (
            "count",
            "any_match",
            "any_match_runs",
            "any_match_batch",
            "matches",
            "value_rows",
        ):
            if attr in owner.__dict__:
                wrap(owner, attr, "index.query")
    wrap(sharded.ShardedMembershipIndex, "build_totals", "index.build")
    for attr in ("fused_prefix_tables", "fused_source_pass"):
        wrap(sharded, attr, "kernels.fused")
    wrap(CrowdPlatform, "publish_set_query", "platform.publish")
    wrap(CrowdPlatform, "publish_point_query", "platform.publish")
    wrap(CrowdBackend, "submit", "backend.submit")
    wrap(AuditService, "step", "service.step")
    wrap(AuditService, "checkpoint", "service.checkpoint")
    wrap(AuditService, "resume", "service.resume")
    wrap(store_module.DirectoryJobStore, "save_answers", "store.save_answers")

    def written(args, kwargs, result):
        path = args[1]
        try:
            recorder.counters["store.bytes_written"] += path.stat().st_size
        except FileNotFoundError:
            pass  # superseded by a concurrent writer

    wrap(store_module.DirectoryJobStore, "_write_atomic", None, written)


def install_serving(recorder: Recorder) -> None:
    """Wrap the serving tier's board, worker and oracle-build calls
    (installed inside the worker process by the benchmark's launcher)."""
    from repro.serving import board as board_module
    from repro.serving import config as config_module
    from repro.serving import worker as worker_module

    board = board_module.JobBoard

    def claimed(args, kwargs, lease):
        if lease is not None:
            recorder.counters["board.claims"] += 1
            recorder.audit_id = lease.job_id

    recorder.wrap(board, "job_ids", "board.scan")
    recorder.wrap(board, "try_claim", "board.claim", claimed)
    recorder.wrap(board, "write_state", "board.state_write")
    recorder.wrap(config_module.ServingConfig, "build_oracle", "worker.oracle_build")

    # The worker loop sleeps through ``time.sleep`` when the board has
    # nothing claimable: route its module's ``time`` through a proxy
    # whose sleep is a span.
    class _TimeProxy:
        def __getattr__(self, attr):
            return getattr(time, attr)

    proxy = _TimeProxy()
    proxy.sleep = recorder._timed("worker.idle", time.sleep)
    worker_module.time = proxy
    recorder._undo.append((worker_module, "time", time))


#: Per-layer metric -> the spans whose self time it sums.
SPAN_SECONDS = {
    "core.pending_s": ("core.pending",),
    "core.feed_s": ("core.feed",),
    "engine.pump_s": ("engine.pump",),
    "engine.absorb_s": ("engine.absorb",),
    "oracle.ask_s": ("oracle.ask",),
    "index.query_s": ("index.query",),
    "shard.chunk_s": ("shard.chunk",),
    "kernels.fused_s": ("kernels.fused",),
    "platform.publish_s": ("platform.publish",),
    "backend.submit_s": ("backend.submit",),
    "service.step_s": ("service.step",),
    "service.checkpoint_s": ("service.checkpoint",),
    "service.resume_s": ("service.resume",),
    "store.save_answers_s": ("store.save_answers",),
    "board.scan_s": ("board.scan",),
    "board.claim_s": ("board.claim",),
    "board.state_write_s": ("board.state_write",),
    "worker.oracle_build_s": ("worker.oracle_build",),
    "worker.idle_s": ("worker.idle",),
}

#: Per-layer metric -> the span whose call count it reports.
SPAN_CALLS = {"index.calls": "index.query", "backend.tickets": "backend.submit"}

#: Per-layer metrics the wrappers count directly.
COUNTERS = ("store.bytes_written", "board.claims", "engine.rounds", "engine.dispatched")


def layer_metrics(recorder: Recorder) -> dict:
    """Every per-layer figure ``recorder`` holds evidence for: a span
    metric once one of its spans was recorded, a counter once counted."""
    metrics = {}
    for name, spans in SPAN_SECONDS.items():
        if any(recorder.count(span) for span in spans):
            metrics[name] = recorder.seconds(*spans)
    for name, span in SPAN_CALLS.items():
        if recorder.count(span):
            metrics[name] = recorder.count(span)
    counters = recorder.all_counters()
    for name in COUNTERS:
        if name in counters:
            metrics[name] = counters[name]
    if "engine.rounds" in counters:
        lookups = counters["engine.cache_hits"] + counters["engine.cache_misses"]
        metrics["engine.cache_hit_ratio"] = (
            counters["engine.cache_hits"] / lookups if lookups else 0.0
        )
    return metrics


def task_metrics(usages) -> dict:
    """Paid-query figures summed over ``TaskUsage``-like ledgers."""
    usages = list(usages)
    return {
        "oracle.set_queries": sum(u.n_set_queries for u in usages),
        "oracle.point_queries": sum(u.n_point_queries for u in usages),
        "oracle.round_trips": sum(u.n_rounds for u in usages),
    }
