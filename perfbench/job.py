"""Child process of the benchmark: import finord, run one job repeatedly.

    python3 perfbench/job.py --probe
    python3 perfbench/job.py WORKLOAD SECONDS [--trace SPANS.json]

run.py starts this with `src` on PYTHONPATH.  The first statement imports
finord.cli, so the time from spawn to `t_imported` is the set-up cost a
user of the command pays.  Then the job runs again and again, each run
timed on its own, until another run would end after SECONDS; it runs at
least once.  Each run's report is
reduced to the workload's summary, outside the timed window, for run.py
to check.  With --trace the job runs once, with the layer wrappers
installed just before `run`, and the spans are written after the timed
window.  Prints one JSON object on stdout.
"""

import finord.cli  # noqa: F401  (set-up ends when this import does)
import time

T_IMPORTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def run_once(workload, tracer=None):
    """One timed run of the job -> its times and summary."""
    if tracer:
        spans.install(tracer)
        tracer.start()
    t0, c0 = time.perf_counter(), time.process_time()
    code, report = workload.run()
    t1, c1 = time.perf_counter(), time.process_time()
    if tracer:
        tracer.stop()
    rep = {"wall_s": t1 - t0, "cpu_s": c1 - c0, "summary": None, "error": None}
    try:
        rep["summary"] = workload.summary(code, json.loads(report))
    except (ValueError, KeyError, TypeError) as exc:
        rep["error"] = f"unreadable report: {exc!r}"
    return rep


def main(argv):
    if argv == ["--probe"]:
        json.dump({"t_imported": T_IMPORTED}, sys.stdout)
        return 0

    from finord import kernels

    from workloads import WORKLOADS

    workload, seconds = WORKLOADS[argv[0]], float(argv[1])
    trace_path = argv[3] if argv[2:3] == ["--trace"] else None
    if trace_path:
        tracer = spans.Tracer()
        reps = [run_once(workload, tracer)]
        tracer.dump(trace_path)
    else:
        start = time.perf_counter()
        reps = [run_once(workload)]
        while time.perf_counter() - start + reps[-1]["wall_s"] <= seconds:
            reps.append(run_once(workload))
    json.dump({"t_imported": T_IMPORTED, "kernels": kernels.ACTIVE,
               "reps": reps}, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
