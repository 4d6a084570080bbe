"""Benchmark-owned launcher for one serving worker process.

Runs :func:`repro.serving.worker.run_worker` over ``--root`` until it
receives SIGTERM. With ``--trace-out`` it first installs the span
wrappers of :mod:`spans` (the same ones the in-process workloads use,
plus the board, oracle-build and idle-sleep spans); SIGUSR1 then marks
the measured window: the first forgets the spans recorded so far (the
warm-up's), the second writes the recorded spans to that file.
``--ready`` names a file created once imports, wrappers and signal
handlers are in place, which the benchmark waits for.
"""

from __future__ import annotations

import argparse
import functools
import signal
import sys
import threading
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--worker-id", required=True)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())

    from repro.serving.worker import run_worker

    if args.trace_out:
        from spans import Recorder, install_layers, install_serving

        recorder = Recorder()
        install_layers(recorder)
        install_serving(recorder)
        marks = [recorder.reset, functools.partial(recorder.dump, args.trace_out)]
        signal.signal(signal.SIGUSR1, lambda *_: marks.pop(0)())
    Path(args.ready).write_text("ready", encoding="ascii")
    run_worker(args.root, args.worker_id, stop_event=stop)
    return 0


if __name__ == "__main__":
    sys.exit(main())
