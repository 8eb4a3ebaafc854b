"""One benchmark iteration in a fresh interpreter, as a CLI user runs it.

Usage: ``python3 worker.py WORKLOAD SEED TRACE`` with the checkout's ``src``
on ``PYTHONPATH``, run inside an empty directory.  The worker imports
``casimir_lab.cli``, makes the workload's ``main`` calls there (wrapped by the
tracer when TRACE is 1) and writes ``worker.json`` next to their outputs.

A fresh process per iteration keeps every sample cold: no ``lru_cache`` of
the library survives from one answer to the next, as for a user who runs
the CLI once per answer.
"""

import time

from casimir_lab import cli  # set-up ends when this import returns

IMPORTED_AT = time.monotonic()

import json
import platform
import resource
import sys

import numpy as np

import workloads
from tracer import Tracer


def _thread_count():
    from casimir_lab import lifshitz

    # None once the library drops its grid thread pool
    count = getattr(lifshitz, "thread_count", None)
    return count() if count is not None else None


def main(workload, seed, trace):
    tracer = Tracer() if trace else None
    calls = workloads.cli_calls(workload, seed)
    codes = []
    restored = None
    if tracer is not None:
        tracer.install()
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        for argv in calls:
            if tracer is None:
                codes.append(cli.main(argv))
            else:
                codes.append(tracer.span("cli", cli.main, argv))
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        if tracer is not None:
            restored = tracer.restore()
    result = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": codes,
        "restored": restored,
        "layers": tracer.metrics() if tracer is not None else None,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "thread_count": _thread_count(),
        },
    }
    with open("worker.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
