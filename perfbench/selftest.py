"""Self-test of the benchmark's wiring, kept out of the library's test suite.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``
(about half a minute on two cores).  It checks that

* every metric declared in ``BENCHMARK.json`` has a name and a unit, and
  ``run.py`` reports exactly the declared metrics with the declared units,
  with tracing off and on (one short ``curves`` run each; the traced run
  also checks byte-identical outputs and restored names);
* the ``verdict`` outputs are byte-identical for the same seed and differ
  for another seed.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import subprocess
import sys

import run


def _declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not metric.get("name") or not metric.get("unit"):
                failures.append(f"{group} entry {metric} lacks a name or a unit")
    units = {
        trace: {m["name"]: m["unit"] for m in spec[group]}
        for trace, group in ((0, "end_to_end"), (1, "per_layer"))
    }
    return units, failures


def _reported(trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "curves",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    units, failures = _declared()
    for trace, declared in units.items():
        result = _reported(trace)
        if result is None:
            failures.append(f"run.py --trace {trace} failed")
            continue
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        if reported != declared:
            failures.append(f"--trace {trace} reports {reported}, BENCHMARK.json declares {declared}")
        if not result["correct"]:
            failures.append(f"--trace {trace} run was not correct")

    try:
        a, b, c = (
            run.run_once("verdict", seed, False, run.WORK / f"selftest-{i}")
            for i, seed in enumerate((11, 11, 12))
        )
    finally:
        run._remove_work()
    for sample in (a, b, c):
        failures += sample["failures"]
    if a["result"] and b["result"] and c["result"]:
        if a["outputs"] != b["outputs"]:
            failures.append("verdict outputs differ between two runs of seed 11")
        for name in ("campaign.csv", "report.json"):
            if a["outputs"][name] == c["outputs"][name]:
                failures.append(f"{name} is the same for seeds 11 and 12")

    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
