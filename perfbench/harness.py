"""Shared measurement pieces: the metric table, timing, percentiles,
host calibration, memory and the per-run work directory.

Everything here is benchmark-side. The program under ``src/`` is only
ever imported and called, never changed.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

#: The benchmark's declaration, at the root of the checkout.
BENCHMARK_JSON = Path("BENCHMARK.json")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit: the per-layer metrics of a traced run, else
    the end-to-end ones."""
    bench = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


#: Sentinel checked by every workload's verifier; the self-test sets it
#: to corrupt one verdict and expects ``ok_ratio`` to fall below 1.
PLANT_WRONG_VERDICT = False

#: Paid assignments per HIT on the paper's fixed-redundancy crowd; used
#: to price ground-truth workloads' tasks in dollars.
ASSIGNMENTS_PER_HIT = 3

#: Pure-Python reference loop size: ~20-40 ms on a 2-core container.
_CALIB_ITERATIONS = 300_000


def calib_once() -> float:
    """Time one fixed reference loop (host-speed diagnostic)."""
    started = time.perf_counter()
    total = 0
    for value in range(_CALIB_ITERATIONS):
        total += value * value
    elapsed = time.perf_counter() - started
    if total <= 0:
        raise AssertionError("calibration loop did not run")
    return elapsed


class HostCalibration:
    """Reference-loop timings at the start, middle and end of a run.

    The median is reported as ``host.calib_s``. Compared across runs,
    it tells host drift from a program change. It never feeds an
    end-to-end metric.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def mark(self) -> None:
        self.samples.append(min(calib_once() for _ in range(3)))

    def value(self) -> float:
        return statistics.median(self.samples) if self.samples else 0.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median_setup(build, repeats: int):
    """Run ``build()`` ``repeats`` times from scratch; return the median
    wall time and the last build's result (the one the run keeps).

    Like ``timeit``, each build runs with the cyclic garbage collector
    paused, after collecting what the previous build left behind.
    """
    times = []
    result = None
    for _ in range(repeats):
        result = None  # drop the previous build before timing the next
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            result = build()
            times.append(time.perf_counter() - started)
        finally:
            gc.enable()
    return statistics.median(times), result


def fixed_price_dollars(usages) -> float:
    """Dollars the paid queries of ``usages`` (``TaskUsage`` records)
    cost as HITs on the crowd platform's default fixed pricing."""
    from repro.crowd.pricing import CostLedger

    ledger = CostLedger()
    for usage in usages:
        for is_set, n in ((True, usage.n_set_queries), (False, usage.n_point_queries)):
            for _ in range(n):
                ledger.charge(is_set_query=is_set, n_assignments=ASSIGNMENTS_PER_HIT)
    return ledger.total_cost


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: Where traced runs leave their spans (inside the checkout, kept).
TRACE_DIR = Path(".perfbench_traces")


def trace_path(workload: str, seed: int) -> Path:
    """The file a traced run of ``workload`` writes its spans to."""
    TRACE_DIR.mkdir(exist_ok=True)
    return TRACE_DIR / f"{workload}-seed{seed}.json"


class WorkDir:
    """A per-run scratch directory inside the checkout, removed on exit."""

    ROOT = Path(".perfbench_work")

    def __init__(self, tag: str) -> None:
        self.path = self.ROOT / f"{tag}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def result_line(outcome: dict, trace: bool) -> str:
    """The final JSON line: every declared metric of the run's kind.

    A traced run reports 0 for the per-layer metrics of layers its
    workload declares it does not run (``outcome["untouched"]``); any
    other metric the run did not measure is an error.
    """
    table = declared_metrics(trace)
    values = dict(outcome["per_layer" if trace else "end_to_end"])
    if trace:
        untouched = set(outcome["untouched"])
        unknown = sorted(untouched - set(table))
        if unknown:
            raise AssertionError(f"undeclared metrics marked untouched: {unknown}")
        for name in untouched - set(values):
            values[name] = 0.0
    missing = sorted(set(table) - set(values))
    if missing:
        raise AssertionError(f"workload did not measure {missing}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in table.items()
    }
    return json.dumps(
        {
            "correct": bool(outcome["correct"]),
            "attempted": int(outcome["attempted"]),
            "failed": int(outcome["failed"]),
            "metrics": metrics,
        }
    )
