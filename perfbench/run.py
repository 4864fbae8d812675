"""Benchmark of finord's exhaustive verification jobs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is obstruct or frames (see workloads.py for what each runs, and
BENCHMARK.json for why), or `all`, which runs every workload in an order
shuffled by the seed.  The jobs are exhaustive, so the seed changes nothing
else.

Jobs run in child processes (job.py), one child at a time, each repeating
the job in a closed loop for up to CHILD_SECONDS, under a wall-clock
timeout and an address-space cap; a child that exceeds either is a DNF.
Children follow each other for as long as another job is expected to fit
in --seconds (at least one job runs).  Every job's output is checked; a job
that fails the check or does not finish counts in `failed` and its timing
is discarded.

With --trace 0 the end-to-end metrics are reported: the fastest job's wall
time and CPU time, work items per second at that wall time, the median
set-up time (spawn until `import finord.cli` is done, also measured by
dedicated probe children), the median peak RSS of the children, and the
share of jobs that passed.  Job times are minima, not medians, because the
jobs are deterministic and single-threaded, so other load on a shared host
can only add to a job's time: the median moves with that load from minute
to minute, while the fastest of a hundred or more short jobs stays put.
The quartiles of the job times are printed and written too.  With --trace 1
the same loop gives the untraced fastest time, then one more job runs with
the layer wrappers of spans.py installed and the per-layer metrics come
from its spans; the traced run also checks the layer split the workload
states.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Each run also writes
its full record, stamped with seed, commit, Python version, active kernel,
nproc and the caps, to perfbench/out/.
"""

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
JOB = ROOT / "perfbench" / "job.py"

# a fresh child every few seconds adds set-up and RSS samples
CHILD_SECONDS = 5
PROBES_PER_CHILD = 2
JOB_TIMEOUT_S = 120
ADDRESS_SPACE_MB = 2048
# every invocation must end within 180 s, including its set-up probes
RUN_DEADLINE_S = 165
CAPS = {"child_seconds": CHILD_SECONDS, "job_timeout_s": JOB_TIMEOUT_S,
        "address_space_mb": ADDRESS_SPACE_MB, "run_deadline_s": RUN_DEADLINE_S}


def _cap_address_space():
    cap = ADDRESS_SPACE_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, timeout):
    """Run job.py with `args`; -> dict with its JSON, set-up, RSS, DNF."""
    out_path, err_path = OUT / "child.out", OUT / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(JOB), *args], cwd=ROOT, env=_child_env(),
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            preexec_fn=_cap_address_space)
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - t_spawn > timeout:
                proc.send_signal(signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - t_spawn
    got = {"elapsed_s": elapsed, "peak_rss_mb": usage.ru_maxrss / 1024,
           "dnf": None, "data": None}
    if timed_out:
        got["dnf"] = f"timeout after {timeout:.0f} s"
    elif proc.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()
        last = tail[-1] if tail else f"exit {proc.returncode}"
        got["dnf"] = ("address-space cap" if "MemoryError" in last
                      else "crashed: " + last[:200])
    else:
        got["data"] = json.loads(out_path.read_text())
        got["setup_s"] = got["data"]["t_imported"] - t_spawn
    return got


def check(expected, summary):
    """Mismatches between a job's summary and its expected fields."""
    return [f"{key}: expected {want!r}, got {summary.get(key)!r}"
            for key, want in expected.items() if summary.get(key) != want]


def run_child(workload, seconds, timeout, trace_path=None):
    """One child running the job for `seconds` (once if traced); its runs
    of the job, each checked, are in "jobs".  A child that does not finish
    leaves one failed job and no timing."""
    args = [workload.name, str(seconds)]
    if trace_path:
        args += ["--trace", str(trace_path)]
    child = spawn(args, timeout)
    if child["dnf"] is not None:
        child["jobs"] = [{"ok": False, "problems": [child["dnf"]]}]
        return child
    data = child.pop("data")
    child["kernels"] = data["kernels"]
    child["jobs"] = []
    for rep in data["reps"]:
        problems = ([rep["error"]] if rep["error"]
                    else check(workload.expected, rep["summary"]))
        job = {"wall_s": rep["wall_s"], "cpu_s": rep["cpu_s"],
               "ok": not problems, "problems": problems}
        if not problems:
            job["items"] = workload.items(rep["summary"])
        child["jobs"].append(job)
    return child


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def measure(workload, seconds, trace, seed):
    """One benchmark run of one workload -> (record, metrics, attempted, failed)."""
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S

    def remaining():
        return deadline - time.perf_counter()

    # children of at most CHILD_SECONDS each, until the next job would
    # end after `seconds`; at least one child runs the job at least once.
    # Set-up probes go before each child, so that the set-up median spans
    # the whole run.
    setups = []
    children = []
    loop_start = time.perf_counter()
    while True:
        for _ in range(PROBES_PER_CHILD):
            probe = spawn(["--probe"], min(JOB_TIMEOUT_S, remaining()))
            if probe["dnf"]:
                raise SystemExit(f"set-up probe failed: {probe['dnf']}")
            setups.append(probe["setup_s"])
        left = seconds - (time.perf_counter() - loop_start)
        child_s = max(0.0, min(CHILD_SECONDS, left))
        children.append(run_child(
            workload, child_s,
            min(child_s + JOB_TIMEOUT_S, max(remaining(), 1))))
        timed = [j["wall_s"] for c in children for j in c["jobs"] if "wall_s" in j]
        expected_next = statistics.median(timed) if timed else JOB_TIMEOUT_S
        spent = time.perf_counter() - loop_start
        if spent + expected_next > seconds or expected_next > remaining():
            break

    # a job that failed its check or did not finish leaves no timing
    jobs = [j for c in children for j in c["jobs"]]
    ok = [j for j in jobs if j["ok"]]
    setups += [c["setup_s"] for c in children if c["dnf"] is None]
    walls = [j["wall_s"] for j in ok] or [0.0]
    wall_q = quartiles(walls)
    fastest = min(walls)
    record = {
        "workload": workload.name, "seconds": seconds, "trace": trace,
        "stamp": {"seed": seed, "commit": _commit(),
                  "python": platform.python_version(),
                  "kernels": next((c["kernels"] for c in children
                                   if "kernels" in c), "unknown"),
                  "nproc": len(os.sched_getaffinity(0)), "caps": CAPS},
        "children": children, "setup_samples_s": setups,
        "wall_s": {"min": fastest, "q1": wall_q[0], "median": wall_q[1],
                   "q3": wall_q[2], "n": len(ok)},
        "items_unit": workload.unit,
    }

    if not trace:
        items = ok[0]["items"] if ok else 0
        rss = [c["peak_rss_mb"] for c in children if c["dnf"] is None]
        metrics = {
            "wall_s": (fastest, "s"),
            "cpu_s": (min((j["cpu_s"] for j in ok), default=0.0), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB"),
            "items_per_s": (items / fastest if ok else 0.0, "1/s"),
            "pass_ratio": (len(ok) / len(jobs), "ratio"),
        }
    else:
        trace_path = OUT / f"spans-{workload.name}-seed{seed}.json"
        traced = run_child(workload, 0, min(JOB_TIMEOUT_S, max(remaining(), 1)),
                           trace_path)
        traced["traced"] = True
        children.append(traced)
        jobs += traced["jobs"]
        if traced["jobs"][0]["ok"]:
            doc = json.loads(trace_path.read_text())
            record["split"] = spans.check_split(doc, workload.split)
            record["spans_file"] = str(trace_path.relative_to(ROOT))
        else:
            doc = {"spans": [[0, spans.JOB, -1, 0, 0]], "aggregates": [],
                   "counters": {}}
        metrics = spans.layer_metrics(doc, fastest)
    failed = sum(not j["ok"] for j in jobs)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record, metrics, len(jobs), failed


def _print_run(record):
    stamp = record["stamp"]
    print(f"== {record['workload']}  seed {stamp['seed']}  trace {record['trace']}  "
          f"kernels {stamp['kernels']}  nproc {stamp['nproc']}  "
          f"commit {stamp['commit'][:12]}  python {stamp['python']}")
    for child in record["children"]:
        times = [j["wall_s"] for j in child["jobs"] if j["ok"]]
        bad = [p for j in child["jobs"] for p in j["problems"]]
        kind = "traced child" if child.get("traced") else "child"
        fastest = f"fastest {min(times):.4f} s" if times else "no timing"
        print(f"   {kind} {child['elapsed_s']:7.2f} s  rss "
              f"{child['peak_rss_mb']:7.1f} MB  {len(child['jobs'])} jobs  "
              f"{fastest}  {'; '.join(bad[:3]) or 'ok'}")
    w = record["wall_s"]
    print(f"   wall_s min {w['min']:.4f} s  q1 {w['q1']:.4f}  "
          f"median {w['median']:.4f}  q3 {w['q3']:.4f}  n {w['n']}  "
          f"items: {record['items_unit']}")
    for name, m in record["metrics"].items():
        print(f"   {name:32s} {m['value']:>16.6g} {m['unit']}")
    for claim in record.get("split", []):
        verdict = "holds" if claim["holds"] else "DIFFERS"
        print(f"   split {verdict:7s} {claim['claim']}: {claim['terms']} = "
              f"{claim['measured']:.3f} {claim['unit']} "
              f"(stated {claim['low']}..{claim['high']})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "finord" / "cli.py").is_file():
        print(f"perfbench: no finord sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = [args.workload]
    if args.workload == "all":
        names = sorted(WORKLOADS)
        random.Random(args.seed).shuffle(names)

    metrics, attempted, failed = {}, 0, 0
    for name in names:
        record, got, n, bad = measure(WORKLOADS[name], args.seconds,
                                      args.trace, args.seed)
        out = OUT / f"run-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        _print_run(record)
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in got.items()})
        attempted += n
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
