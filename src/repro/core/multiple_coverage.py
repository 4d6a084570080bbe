"""Multiple-Coverage (Algorithm 2): many non-intersectional groups at once.

For an attribute with cardinality ``c`` the naive plan runs Group-Coverage
``c`` times. Algorithm 2 spends ``c·tau`` point queries on a sampling
phase first and uses the estimates to (a) pre-credit every group's
threshold with its already-labeled members and (b) merge expected-minority
groups into super-groups (Algorithm 6), so that a *single* Group-Coverage
run can certify several groups uncovered together.

The known failure mode (§6.5.2, the "adversarial" setting) is faithfully
reproduced: when a super-group turns out to be *covered*, nothing is
learned about its individual members and the algorithm must re-run
Group-Coverage for each of them — the aggregation penalty.

Execution modes
---------------
Sequential (default) issues every query one at a time, exactly as the
paper's pseudo-code. Passing an ``engine``
(:class:`repro.engine.QueryEngine`) instead:

* batches the sampling phase into one point-query round-trip,
* runs every super-group's Group-Coverage tree concurrently, batching the
  ready frontiers across runs,
* registers the super-group -> member implication with the engine's
  answer cache, so the covered-super-group penalty re-runs get every
  chunk the super-group run pruned answered for free, and
* batches the member-attribution point queries of uncovered super-groups.

Engine mode is split at phase 3: :func:`start_multiple_coverage` runs
phases 1–2 and returns a :class:`SupergroupRuns` flow tree, which an
:class:`~repro.audit.AuditSession` drives with one ``engine.run`` and an
:class:`~repro.service.AuditService` interleaves with other jobs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.aggregate import aggregate_groups
from repro.core.group_coverage import GroupCoverageStepper, execute_group_coverage
from repro.core.results import (
    GroupCoverageResult,
    GroupEntry,
    LedgerWindow,
    MultipleCoverageReport,
    TaskUsage,
)
from repro.core.sampling import LabeledPool, label_samples
from repro.core.views import resolve_view
from repro.crowd.oracle import Oracle
from repro.data.groups import Group, SuperGroup
from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.engine.scheduler import QueryEngine
    from repro.engine.stats import EngineStats

__all__ = [
    "multiple_coverage",
    "execute_multiple_coverage",
    "start_multiple_coverage",
    "SupergroupRuns",
]


def _singleton_entry(
    entries: dict[Group, GroupEntry],
    super_group: SuperGroup,
    run: GroupCoverageResult,
    pool: LabeledPool,
) -> None:
    member = super_group.members[0]
    entries[member] = GroupEntry(
        group=member,
        covered=run.covered,
        count=pool.count(member) + run.count,
        count_is_exact=not run.covered,
        via_supergroup=super_group,
    )


def _covered_supergroup_entries(
    entries: dict[Group, GroupEntry],
    super_group: SuperGroup,
    member_runs: dict[Group, GroupCoverageResult],
    pool: LabeledPool,
) -> None:
    for member in super_group:
        member_run = member_runs[member]
        entries[member] = GroupEntry(
            group=member,
            covered=member_run.covered,
            count=pool.count(member) + member_run.count,
            count_is_exact=not member_run.covered,
            via_supergroup=super_group,
        )


def _uncovered_supergroup_entries(
    entries: dict[Group, GroupEntry],
    oracle: Oracle,
    super_group: SuperGroup,
    run: GroupCoverageResult,
    pool: LabeledPool,
    *,
    attribute_members: bool,
    batched: bool,
) -> None:
    member_counts = {member: pool.count(member) for member in super_group}
    exact = False
    if attribute_members:
        # Attribute every isolated member to its group with one point
        # query each; counts become exact.
        if batched:
            rows = oracle.ask_point_batch(list(run.discovered_indices))
        else:
            rows = [oracle.ask_point(index) for index in run.discovered_indices]
        for labels in rows:
            for member in super_group:
                if member.matches_row(labels):
                    member_counts[member] += 1
                    break
        exact = True
    for member in super_group:
        entries[member] = GroupEntry(
            group=member,
            covered=False,
            count=member_counts[member],
            count_is_exact=exact,
            via_supergroup=super_group,
        )


def _run_supergroups_sequential(
    oracle: Oracle,
    super_groups: Sequence[SuperGroup],
    pool: LabeledPool,
    tau: int,
    n: int,
    remaining_view: np.ndarray,
    attribute_supergroup_members: bool,
    on_round: Callable[[], None] | None = None,
) -> dict[Group, GroupEntry]:
    """Phase 3, paper order: one Group-Coverage run per super-group, plus
    per-member re-runs when a genuine super-group comes back covered."""
    entries: dict[Group, GroupEntry] = {}
    for super_group in super_groups:
        labeled_credit = sum(pool.count(member) for member in super_group)
        tau_prime = tau - labeled_credit
        run = execute_group_coverage(
            oracle,
            super_group if len(super_group) > 1 else super_group.members[0],
            max(tau_prime, 0),
            n=n,
            view=remaining_view,
            on_round=on_round,
        )
        if len(super_group) == 1:
            _singleton_entry(entries, super_group, run, pool)
            continue
        if run.covered:
            # Penalty path: the merged minorities are jointly covered, so
            # each member must be examined individually (sample credits
            # still apply).
            member_runs = {
                member: execute_group_coverage(
                    oracle,
                    member,
                    max(tau - pool.count(member), 0),
                    n=n,
                    view=remaining_view,
                    on_round=on_round,
                )
                for member in super_group
            }
            _covered_supergroup_entries(entries, super_group, member_runs, pool)
        else:
            _uncovered_supergroup_entries(
                entries,
                oracle,
                super_group,
                run,
                pool,
                attribute_members=attribute_supergroup_members,
                batched=False,
            )
    return entries


class SupergroupRuns:
    """Phase 3 of Algorithm 2 in engine form, for any caller to run.

    A caller admits :attr:`roots` (one Group-Coverage stepper per
    super-group, pre-credited with its sampled members) with
    :meth:`on_complete` as their completion hook, and calls
    :meth:`finish` once every flow of the tree has finished.
    :attr:`point_queries` counts the point tasks this audit paid
    (sampling plus attribution; replayed answers are free).
    """

    def __init__(
        self,
        oracle: Oracle,
        engine: "QueryEngine",
        groups: Sequence[Group],
        super_groups: Sequence[SuperGroup],
        pool: LabeledPool,
        tau: int,
        n: int,
        remaining_view: np.ndarray,
        attribute_supergroup_members: bool,
        point_queries: int,
    ) -> None:
        self.oracle = oracle
        self.groups = tuple(groups)
        self.super_groups = super_groups
        self.pool = pool
        self.tau = tau
        self.point_queries = point_queries
        self._n = n
        self._view = remaining_view
        self._speculation = engine.speculation
        self._attribute = attribute_supergroup_members
        self._runs: dict[SuperGroup, GroupCoverageResult] = {}
        self._member_runs: dict[SuperGroup, dict[Group, GroupCoverageResult]] = {}
        self._roles: dict[GroupCoverageStepper, tuple[SuperGroup, Group | None]] = {}
        self.roots: list[GroupCoverageStepper] = []
        for super_group in super_groups:
            if len(super_group) > 1:
                # A "no" for the super-group over a range rules out every
                # member on that range — the penalty re-runs cash this in.
                engine.cache.register_implication(super_group, super_group.members)
            labeled_credit = sum(pool.count(member) for member in super_group)
            stepper = self._stepper(
                super_group if len(super_group) > 1 else super_group.members[0],
                tau - labeled_credit,
            )
            self._roles[stepper] = (super_group, None)
            self.roots.append(stepper)

    def _stepper(self, predicate, tau_prime: int) -> GroupCoverageStepper:
        return GroupCoverageStepper(
            predicate,
            max(tau_prime, 0),
            n=self._n,
            view=self._view,
            speculation=self._speculation,
        )

    def on_complete(
        self, stepper: GroupCoverageStepper
    ) -> list[GroupCoverageStepper] | None:
        """The engine completion hook: record the run; a covered genuine
        super-group returns its members' penalty re-runs."""
        super_group, member = self._roles[stepper]
        run = stepper.result()
        if member is not None:
            self._member_runs.setdefault(super_group, {})[member] = run
            return None
        self._runs[super_group] = run
        if len(super_group) == 1 or not run.covered:
            return None
        spawned = []
        for sibling in super_group:
            sibling_stepper = self._stepper(sibling, self.tau - self.pool.count(sibling))
            self._roles[sibling_stepper] = (super_group, sibling)
            spawned.append(sibling_stepper)
        return spawned

    def finish(
        self,
        usage: Callable[[], TaskUsage],
        engine_stats: "EngineStats | None" = None,
    ) -> MultipleCoverageReport:
        """Attribute the members of uncovered super-groups (one point
        batch each) and build the report; ``usage`` is read after the
        attribution, so its count includes it."""
        entries: dict[Group, GroupEntry] = {}
        points_before = self.oracle.ledger.n_point_queries
        for super_group in self.super_groups:
            run = self._runs[super_group]
            if len(super_group) == 1:
                _singleton_entry(entries, super_group, run, self.pool)
            elif run.covered:
                _covered_supergroup_entries(
                    entries, super_group, self._member_runs[super_group], self.pool
                )
            else:
                _uncovered_supergroup_entries(
                    entries,
                    self.oracle,
                    super_group,
                    run,
                    self.pool,
                    attribute_members=self._attribute,
                    batched=True,
                )
        self.point_queries += self.oracle.ledger.n_point_queries - points_before
        return MultipleCoverageReport(
            entries=tuple(entries[g] for g in self.groups),
            super_groups=self.super_groups,
            sampled_counts={g: self.pool.count(g) for g in self.groups},
            tasks=usage(),
            engine_stats=engine_stats,
        )


def _sample_and_aggregate(
    oracle: Oracle,
    groups: Sequence[Group],
    tau: int,
    *,
    c: float,
    rng: np.random.Generator,
    view: np.ndarray | None,
    dataset_size: int | None,
    multi: bool,
    engine: "QueryEngine | None",
) -> tuple[np.ndarray, LabeledPool, list[SuperGroup]]:
    """Validation plus phases 1–2: returns the unlabeled remainder of the
    view, the labeled pool and the super-groups."""
    if tau <= 0:
        raise InvalidParameterError(f"tau must be positive, got {tau}")
    if not groups:
        raise InvalidParameterError("multiple_coverage needs at least one group")
    view = resolve_view(view, dataset_size)
    if engine is not None:
        engine.ensure_executes_for(oracle)

    # Phase 1: sampling. Labeled objects leave the unlabeled pool for good.
    remaining_view, pool = label_samples(
        oracle, view, tau, c=c, rng=rng, batched=engine is not None
    )

    # Phase 2: super-group formation from the sampled estimates. N in the
    # expectation formula is the full (pre-sampling) search-space size, as
    # in the pseudo-code.
    super_groups = aggregate_groups(
        pool, len(view), tau, list(groups), multi=multi
    )
    return remaining_view, pool, super_groups


def start_multiple_coverage(
    oracle: Oracle,
    engine: "QueryEngine",
    groups: Sequence[Group],
    tau: int,
    *,
    n: int = 50,
    c: float = 2.0,
    rng: np.random.Generator,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
    multi: bool = False,
    attribute_supergroup_members: bool = False,
) -> SupergroupRuns:
    """Validate, run phases 1–2 (one batched point sample, then the
    super-groups) and return phase 3 as a :class:`SupergroupRuns` for
    ``engine`` to drive."""
    points_before = oracle.ledger.n_point_queries
    remaining_view, pool, super_groups = _sample_and_aggregate(
        oracle, groups, tau, c=c, rng=rng, view=view,
        dataset_size=dataset_size, multi=multi, engine=engine,
    )
    return SupergroupRuns(
        oracle, engine, groups, super_groups, pool, tau, n, remaining_view,
        attribute_supergroup_members,
        point_queries=oracle.ledger.n_point_queries - points_before,
    )


def execute_multiple_coverage(
    oracle: Oracle,
    groups: Sequence[Group],
    tau: int,
    *,
    n: int = 50,
    c: float = 2.0,
    rng: np.random.Generator,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
    multi: bool = False,
    attribute_supergroup_members: bool = False,
    engine: "QueryEngine | None" = None,
    on_round: Callable[[], None] | None = None,
) -> MultipleCoverageReport:
    """Execution backend of Algorithm 2 (see :func:`multiple_coverage`).

    Dispatched to by :meth:`repro.audit.AuditSession.run` for a
    :class:`~repro.audit.MultipleAuditSpec`; ``on_round`` fires after
    each Group-Coverage answer/engine batch in phase 3.
    """
    window = LedgerWindow(oracle.ledger)
    if engine is not None:
        snapshot = engine.snapshot()
        runs = start_multiple_coverage(
            oracle, engine, groups, tau, n=n, c=c, rng=rng, view=view,
            dataset_size=dataset_size, multi=multi,
            attribute_supergroup_members=attribute_supergroup_members,
        )
        engine.run(runs.roots, on_complete=runs.on_complete, on_round=on_round)
        return runs.finish(window.usage, engine.stats_since(snapshot))

    remaining_view, pool, super_groups = _sample_and_aggregate(
        oracle, groups, tau, c=c, rng=rng, view=view,
        dataset_size=dataset_size, multi=multi, engine=None,
    )
    # Phase 3: the Group-Coverage runs.
    entries = _run_supergroups_sequential(
        oracle, super_groups, pool, tau, n,
        remaining_view, attribute_supergroup_members, on_round,
    )
    return MultipleCoverageReport(
        entries=tuple(entries[g] for g in groups),
        super_groups=super_groups,
        sampled_counts={g: pool.count(g) for g in groups},
        tasks=window.usage(),
        engine_stats=None,
    )


def multiple_coverage(
    oracle: Oracle,
    groups: Sequence[Group],
    tau: int,
    *,
    n: int = 50,
    c: float = 2.0,
    rng: np.random.Generator,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
    multi: bool = False,
    attribute_supergroup_members: bool = False,
    engine: "QueryEngine | None" = None,
) -> MultipleCoverageReport:
    """Run Algorithm 2.

    Thin wrapper over :class:`~repro.audit.MultipleAuditSpec` — the
    :class:`~repro.audit.AuditSession` API is the blessed entry point.

    Parameters
    ----------
    oracle:
        Answer source (ledger-charged).
    groups:
        The target groups (an attribute's values, or fully-specified
        subgroups when called from Intersectional-Coverage).
    tau:
        Coverage threshold.
    n:
        Set-query size bound for the inner Group-Coverage runs.
    c:
        Sampling budget multiplier; the sampling phase labels ``c·tau``
        random objects (``c=2`` is the paper's default; ``c=0`` disables
        sampling and aggregation degrades to singletons).
    view / dataset_size:
        The search space, as in :func:`~repro.core.group_coverage.group_coverage`.
    multi:
        Enforce the sibling constraint during aggregation (set by
        Intersectional-Coverage).
    attribute_supergroup_members:
        When a super-group is certified *uncovered*, spend one point query
        per isolated member to attribute it to its individual group, making
        every per-group count exact. This is our documented extension used
        by Intersectional-Coverage, whose pattern roll-up needs exact leaf
        counts (DESIGN.md §4); costs at most ``tau - 1`` extra point
        queries per uncovered super-group.
    engine:
        A :class:`repro.engine.QueryEngine` bound to ``oracle``. When
        given, all phases batch their queries and the super-group runs
        execute concurrently with shared cached answers; verdicts and
        counts match the sequential mode under a deterministic oracle.

    Returns
    -------
    MultipleCoverageReport
    """
    from repro.audit.runners import run_spec
    from repro.audit.session import warn_on_adhoc_engine
    from repro.audit.specs import MultipleAuditSpec

    warn_on_adhoc_engine("multiple_coverage", oracle, engine)
    spec = MultipleAuditSpec(
        groups=tuple(groups),
        tau=tau,
        n=n,
        c=c,
        multi=multi,
        attribute_supergroup_members=attribute_supergroup_members,
        view=view,
    )
    return run_spec(oracle, spec, engine=engine, rng=rng, dataset_size=dataset_size)
