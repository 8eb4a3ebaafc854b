"""End-to-end and per-layer benchmark of the casimir-lab CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {verdict,curves,band} --seed N \\
        --seconds S --trace {0,1}

Each workload is a closed loop with one client: an iteration starts a fresh
interpreter (``worker.py``), which imports ``casimir_lab.cli`` from the
checkout's ``src`` and makes the workload's CLI calls through
``casimir_lab.cli.main``; the next iteration starts when the previous one has
returned.  Iterations start until ``--seconds`` have passed.
``CASIMIR_LAB_THREADS`` is removed from the environment, so the grid pool
gets its automatic size, as a user's would.

Each worker is pinned to one CPU, the highest this process may use.  The
pool keeps its size (``thread_count()`` reads ``os.cpu_count()``, which
pinning leaves alone), but its GIL-bound threads then hand over on one core
instead of waking a second one.  On a shared two-vCPU VM those cross-CPU
wake-ups wait on the host's scheduler: unpinned, the median ``wall_s`` of
``curves`` spread 24-36 % of its value over ten runs of the same code and
ran 10-30 % above ``cpu_s``; pinned, ten runs of each workload spread at
most 8 % and ``wall_s`` stayed within 3 % of ``cpu_s``.  What pinning leaves out is the
cost of those hand-overs between cores on an unpinned run.

Workloads (see ``workloads.py`` for the calls and correctness gates):

* ``verdict`` -- ``simulate --seed N`` with the default campaign, then
  ``fit`` on its CSV with all four models: the end-to-end question, and the
  only workload where the campaign, electrostatics, fluctuation stencil and
  fit layers do work.  Only this workload uses the seed.
* ``curves`` -- ``force --all-models`` on the default 30-point grid: the
  grid path and its thread pool, without stencil or campaign.
* ``band`` -- ``band --family drude`` then ``--family plasma`` at 300 K: the
  Matsubara ladder and the 1-D quadrature, without the T = 0 integral; the
  plasma family repeats parameter sets.

With ``--trace 0`` the last line reports the end-to-end metrics, medians
over the iterations: ``wall_s`` (time over the CLI calls), ``cpu_s``
(process CPU time over the same calls, all threads), ``setup_s`` (from
interpreter start to ``casimir_lab.cli`` imported), ``peak_rss_mb`` and
``ok_frac`` (share of iterations whose outputs pass every gate).  With
``--trace 1`` untraced and traced iterations alternate; the last line
reports the per-layer metrics of ``tracer.py``, medians over the traced
iterations, and ``trace.overhead_frac`` (traced over untraced median wall
time, minus one).  A traced iteration fails unless its outputs are
byte-identical to the untraced ones and every wrapped name was restored.

The line before the last records the environment: CPU count, Python and
numpy versions, the grid pool's thread count, the CPU the workers are
pinned to, the git commit and the seed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Iteration directories of this process; removed when the run ends.
WORK = HERE / ".work" / f"run-{os.getpid()}"

#: Longest a single iteration may take before it counts as failed.
ITERATION_TIMEOUT_S = 120

#: The CPU every worker is pinned to (see the module docstring).
WORKER_CPU = max(os.sched_getaffinity(0))

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def per_layer_unit(name):
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("frac"):
        return "frac"
    if name.endswith("speedup"):
        return "x"
    return "count"


def _pin_worker():
    os.sched_setaffinity(0, {WORKER_CPU})


def run_once(workload, seed, trace, directory):
    """Run one iteration in ``directory``; returns its sample dict."""
    directory.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("CASIMIR_LAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1" if trace else "0"]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=directory, env=env, capture_output=True, text=True,
            timeout=ITERATION_TIMEOUT_S, preexec_fn=_pin_worker,
        )
    except subprocess.TimeoutExpired:
        return {"result": None, "failures": [f"timed out after {ITERATION_TIMEOUT_S} s"]}
    report = directory / "worker.json"
    if proc.returncode != 0 or not report.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"result": None, "failures": [f"worker exit {proc.returncode}: {tail[0]}"]}
    result = json.loads(report.read_text(encoding="utf-8"))
    result["setup_s"] = result["imported_at"] - spawned_at
    outputs = {
        p.name: p.read_bytes()
        for p in sorted(directory.iterdir())
        if p.is_file() and p.name != "worker.json"
    }
    failures = workloads.check(workload, directory, result["exit_codes"])
    if trace and result["restored"] is not True:
        failures.append("the tracer left a wrapped name in place")
    return {"result": result, "outputs": outputs, "failures": failures}


def measure(workload, seed, seconds, trace):
    """Closed loop until ``seconds`` have passed; returns (plain, traced)."""
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while True:
        n = len(plain) + len(traced)
        plain.append(run_once(workload, seed, False, WORK / str(n)))
        if trace:
            traced.append(run_once(workload, seed, True, WORK / str(n + 1)))
        if time.monotonic() >= deadline:
            return plain, traced


def _remove_work():
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def _median(samples, key):
    return statistics.median(s["result"][key] for s in samples)


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarize(plain, traced):
    """The final result object, or None when no iteration produced one."""
    good_plain = [s for s in plain if s["result"] is not None]
    good_traced = [s for s in traced if s["result"] is not None]
    if not good_plain or (traced and not good_traced):
        return None
    reference = good_plain[0]["outputs"]
    for s in good_traced:
        if s["outputs"] != reference:
            s["failures"].append("traced outputs differ from untraced outputs")

    samples = plain + traced
    failed = sum(1 for s in samples if s["result"] is None or s["failures"])
    if traced:
        layers = [s["result"]["layers"] for s in good_traced]
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["trace.overhead_frac"] = (
            _median(good_traced, "wall_s") / _median(good_plain, "wall_s") - 1.0
        )
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        values = {key: _median(good_plain, key) for key in END_TO_END_UNITS if key != "ok_frac"}
        values["ok_frac"] = 1.0 - failed / len(samples)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "casimir_lab" / "cli.py").is_file():
        print(f"perfbench: no casimir_lab sources under {SRC}", file=sys.stderr)
        return 2

    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _remove_work()

    summary = summarize(plain, traced)
    for s in plain + traced:
        for failure in s["failures"]:
            print(f"perfbench: {args.workload}: {failure}", file=sys.stderr)
    if summary is None:
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    env = next(s["result"]["env"] for s in plain if s["result"] is not None)
    env.update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        worker_cpu=WORKER_CPU,
        commit=_git_commit(),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        iterations={"untraced": len(plain), "traced": len(traced)},
    )
    print(json.dumps({"env": env}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
