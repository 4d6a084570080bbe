"""Self-test of the benchmark on a tiny slice of every workload.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it checks that

* every declared metric (end-to-end untraced, per-layer traced) prints
  with its declared unit, and outputs verify (``ok_ratio`` = 1);
* no layer the workload declares untouched records a span or counter;
* the count metrics (paid tasks, dollars, virtual makespan, ``ok_ratio``)
  repeat exactly across two runs with one seed;
* a planted wrong verdict drops ``ok_ratio`` below 1.

The slice shrinks the inputs (rows, waves, jobs, warm-up) so the whole
test takes a minute or two; the measured code paths are the same.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import harness
import run as runner

SEED = 11
SLICE_S = 0.5
COUNTS = ("tasks_paid", "dollars_paid", "virtual_makespan_s", "ok_ratio")


def shrink() -> None:
    """Small inputs for every workload."""
    import audits
    import crowd
    import serving

    audits.N_ROWS = 80_000
    audits.SETUP_REPEATS = 2
    crowd.SETUP_REPEATS = 2
    serving.SETUP_REPEATS = 1
    serving.WARMUP_S = 0.5
    serving.PRICED_JOBS = 8


def printed(outcome: dict, trace: bool) -> dict:
    """The metrics exactly as the result line prints them."""
    return json.loads(harness.result_line(outcome, trace))["metrics"]


def check_workload(name: str) -> list[str]:
    problems = []
    first = runner.run_workload(name, SEED, SLICE_S, trace=False)
    second = runner.run_workload(name, SEED, SLICE_S, trace=False)
    traced = runner.run_workload(name, SEED, SLICE_S, trace=True)
    for trace, outcome in ((False, first), (True, traced)):
        metrics = printed(outcome, trace)
        for metric, unit in harness.declared_metrics(trace).items():
            if metrics.get(metric, {}).get("unit") != unit:
                problems.append(f"{name}: {metric} not printed in {unit}")
        if not outcome["correct"] or outcome["failed"]:
            problems.append(f"{name}: outputs failed verification (trace={trace})")
    touched = sorted(set(traced["untouched"]) & set(traced["per_layer"]))
    if touched:
        problems.append(f"{name}: layers declared untouched were measured: {touched}")
    one, two = printed(first, False), printed(second, False)
    for metric in COUNTS:
        if one[metric]["value"] != two[metric]["value"]:
            problems.append(
                f"{name}: {metric} {one[metric]['value']} vs {two[metric]['value']} "
                "across two same-seed runs"
            )
    harness.PLANT_WRONG_VERDICT = True
    try:
        planted = runner.run_workload(name, SEED, SLICE_S, trace=False)
    finally:
        harness.PLANT_WRONG_VERDICT = False
    if planted["end_to_end"]["ok_ratio"] >= 1.0 or planted["correct"]:
        problems.append(f"{name}: a planted wrong verdict left ok_ratio at 1")
    return problems


def main() -> int:
    runner.use_checkout_source()
    shrink()
    problems = []
    for name in runner.WORKLOADS:
        found = check_workload(name)
        print(f"{name}: {'ok' if not found else 'FAILED'}", file=sys.stderr)
        problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
