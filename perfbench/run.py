"""Run one benchmark workload and print its result as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense-1m --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics instead. The last
line of standard output is the result object; progress goes to
standard error. The program is imported from ``src/`` of the checkout
and never modified.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

WORKLOADS = ("dense-1m", "sharded-1m", "crowd-service", "serving-http")


def use_checkout_source() -> None:
    """Import the program from ``./src``; exit non-zero without it."""
    source = Path("src")
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(
            "perfbench: no ./src/repro here; run from the root of a checkout"
        )
    # One core's worth of compute per in-process workload: no BLAS or
    # OpenMP thread pools (set before the program imports numpy).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    path = str(source.resolve())
    if path not in sys.path:
        sys.path.insert(0, path)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload on the checkout's program."""
    use_checkout_source()
    if name in ("dense-1m", "sharded-1m"):
        import audits

        return audits.run(name == "sharded-1m", seed, seconds, trace)
    if name == "crowd-service":
        import crowd

        return crowd.run(seed, seconds, trace)
    import serving

    return serving.run(seed, seconds, trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import harness

    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    diagnostics = outcome["per_layer"]
    print(
        f"{args.workload}: {outcome['attempted']} operations, "
        f"{outcome['failed']} failed, {outcome['samples']} latency samples, "
        f"wall.audits_per_s {diagnostics['wall.audits_per_s']:.4f}, "
        f"wall.p50_s {diagnostics['wall.p50_s']:.4f}, "
        f"wall.tail_s {diagnostics['wall.tail_s']:.4f}, "
        f"host.calib_s {diagnostics['host.calib_s']:.4f}",
        file=sys.stderr,
    )
    print(harness.result_line(outcome, bool(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
