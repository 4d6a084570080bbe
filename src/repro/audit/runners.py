"""Spec dispatch: one executable entry point per audit spec kind.

:func:`run_spec` is the single seam between the declarative layer
(:mod:`repro.audit.specs`) and the algorithm executors in
:mod:`repro.core`. Both the blessed :class:`~repro.audit.session.AuditSession`
and the legacy function forms (``group_coverage`` & friends) funnel
through it, which is what makes ``session.run(spec)`` bit-identical to
the function call: same executor, same validation order, same oracle
call sequence, same ledger charging.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.audit.specs import (
    AuditSpec,
    BaseAuditSpec,
    ClassifierAuditSpec,
    GroupAuditSpec,
    IntersectionalAuditSpec,
    MultipleAuditSpec,
)
from repro.core.base_coverage import execute_base_coverage
from repro.core.classifier_coverage import execute_classifier_coverage
from repro.core.group_coverage import GroupCoverageStepper, execute_group_coverage
from repro.core.intersectional_coverage import (
    LeafRuns,
    execute_intersectional_coverage,
    start_intersectional_coverage,
)
from repro.core.multiple_coverage import (
    SupergroupRuns,
    execute_multiple_coverage,
    start_multiple_coverage,
)
from repro.core.views import resolve_view
from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.crowd.oracle import Oracle
    from repro.engine.scheduler import QueryEngine

__all__ = ["run_spec", "make_group_stepper", "start_flow_tree"]


def _require_rng(spec: AuditSpec, rng: np.random.Generator | None) -> np.random.Generator:
    if rng is None:
        raise InvalidParameterError(
            f"{type(spec).__name__} needs a random generator; construct the "
            "AuditSession with seed=... or rng=... (or pass rng= to the "
            "legacy function form)"
        )
    return rng


def run_spec(
    oracle: "Oracle",
    spec: AuditSpec,
    *,
    engine: "QueryEngine | None" = None,
    rng: np.random.Generator | None = None,
    dataset_size: int | None = None,
    on_round: Callable[[], None] | None = None,
) -> Any:
    """Execute ``spec`` against ``oracle`` and return its result dataclass.

    ``engine``/``rng``/``dataset_size`` are the execution bindings a
    session holds; the legacy wrappers pass exactly their own keyword
    arguments through, so validation and behavior match the pre-spec
    functions call for call.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.audit import GroupAuditSpec, run_spec
    >>> from repro.crowd.oracle import GroundTruthOracle
    >>> from repro.data.groups import group
    >>> from repro.data.synthetic import binary_dataset
    >>> ds = binary_dataset(500, 10, rng=np.random.default_rng(0))
    >>> result = run_spec(GroundTruthOracle(ds),
    ...                   GroupAuditSpec(predicate=group(gender="female"), tau=5),
    ...                   dataset_size=len(ds))
    >>> result.covered
    True
    """
    if isinstance(spec, GroupAuditSpec):
        return execute_group_coverage(
            oracle,
            spec.predicate,
            spec.tau,
            n=spec.n,
            view=spec.view_array(),
            dataset_size=dataset_size,
            engine=engine,
            on_round=on_round,
        )
    if isinstance(spec, BaseAuditSpec):
        return execute_base_coverage(
            oracle,
            spec.predicate,
            spec.tau,
            view=spec.view_array(),
            dataset_size=dataset_size,
            on_round=on_round,
        )
    if isinstance(spec, MultipleAuditSpec):
        return execute_multiple_coverage(
            oracle,
            spec.groups,
            spec.tau,
            n=spec.n,
            c=spec.c,
            rng=_require_rng(spec, rng),
            view=spec.view_array(),
            dataset_size=dataset_size,
            multi=spec.multi,
            attribute_supergroup_members=spec.attribute_supergroup_members,
            engine=engine,
            on_round=on_round,
        )
    if isinstance(spec, IntersectionalAuditSpec):
        return execute_intersectional_coverage(
            oracle,
            spec.schema,
            spec.tau,
            n=spec.n,
            c=spec.c,
            rng=_require_rng(spec, rng),
            view=spec.view_array(),
            dataset_size=dataset_size,
            engine=engine,
            on_round=on_round,
        )
    if isinstance(spec, ClassifierAuditSpec):
        return execute_classifier_coverage(
            oracle,
            spec.group,
            spec.tau,
            spec.predicted_positive_array(),
            n=spec.n,
            sample_fraction=spec.sample_fraction,
            fp_threshold=spec.fp_threshold,
            rng=_require_rng(spec, rng),
            view=spec.view_array(),
            dataset_size=dataset_size,
            on_round=on_round,
        )
    raise InvalidParameterError(
        f"run_spec does not know how to execute {type(spec).__name__}"
    )


def make_group_stepper(
    spec: GroupAuditSpec,
    *,
    dataset_size: int | None = None,
    speculation: int = 0,
) -> GroupCoverageStepper:
    """The resumable stepper for a group spec — what ``run_many``
    schedules concurrently on one engine."""
    return GroupCoverageStepper(
        spec.predicate,
        spec.tau,
        n=spec.n,
        view=resolve_view(spec.view_array(), dataset_size),
        speculation=speculation,
    )


def start_flow_tree(
    oracle: "Oracle",
    spec: MultipleAuditSpec | IntersectionalAuditSpec,
    engine: "QueryEngine",
    *,
    rng: np.random.Generator | None,
    dataset_size: int | None = None,
) -> SupergroupRuns | LeafRuns:
    """Validate a multiple or intersectional spec and run its phases 1–2
    (sampling, super-groups); returns phase 3 as a flow tree for a
    caller to admit on ``engine`` — what ``AuditService`` interleaves
    with every other job. ``run_spec`` drives the same object through
    ``engine.run``."""
    if isinstance(spec, MultipleAuditSpec):
        return start_multiple_coverage(
            oracle,
            engine,
            spec.groups,
            spec.tau,
            n=spec.n,
            c=spec.c,
            rng=_require_rng(spec, rng),
            view=spec.view_array(),
            dataset_size=dataset_size,
            multi=spec.multi,
            attribute_supergroup_members=spec.attribute_supergroup_members,
        )
    return start_intersectional_coverage(
        oracle,
        engine,
        spec.schema,
        spec.tau,
        n=spec.n,
        c=spec.c,
        rng=_require_rng(spec, rng),
        view=spec.view_array(),
        dataset_size=dataset_size,
    )
