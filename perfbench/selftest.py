"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs the frames workload through the real harness three times, one job
each, and exits 1 if any of these promises is broken:

- BENCHMARK.json declares exactly the workloads of workloads.py;
- an untraced run prints exactly the declared end-to-end metrics, and a
  traced run exactly the declared per-layer metrics, with their units;
- a run whose expected value is wrong counts its job as failed, reports
  correct=false and keeps the failed job's timing out of the metrics.
"""

import dataclasses
import json
import sys

import run
from workloads import WORKLOADS


def _declared(section):
    return {m["name"]: m["unit"] for m in section}


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    expect({w["name"] for w in bench["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json declares the workloads of workloads.py")

    run.OUT.mkdir(exist_ok=True)
    workload = WORKLOADS["frames"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record, metrics, attempted, failed = run.measure(workload, 0, trace, 0)
        printed = {name: unit for name, (_, unit) in metrics.items()}
        expect(printed == _declared(bench[section]),
               f"--trace {trace} prints exactly the {section} metrics")
        expect(failed == 0, f"--trace {trace} run passes its output check")

    wrong = dataclasses.replace(
        workload, expected={**workload.expected, "checks": 9441})
    record, metrics, attempted, failed = run.measure(wrong, 0, 0, 0)
    problems = [p for child in record["children"] for job in child["jobs"]
                for p in job["problems"]]
    expect(failed == attempted == 1, "a wrong expected value fails the job")
    expect(any(p.startswith("checks:") for p in problems),
           "the failure names the mismatched field")
    expect(metrics["wall_s"][0] == 0 and metrics["pass_ratio"][0] == 0,
           "the failed job's timing is discarded")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
