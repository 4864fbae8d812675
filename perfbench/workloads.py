"""The two verification jobs the benchmark runs, and what each must return.

Every job is exhaustive, so its input is fixed: the seed never changes it.
job.py runs a job again and again in a child process: each time only `run`
is timed, and its report is then reduced by `summary`.  The parent checks
every summary against `expected` and discards the timing of any job that
does not match.

Each job is a scaled-down instance of the run it stands for, 0.1 to 0.7 s
long, so that a measured run holds a hundred jobs or more and the fastest
of them is a steady figure on a shared host.

`items` turns a checked summary into the workload's unit of work, and
`split` states how the traced time should divide between layers, as
stated for the full-size runs; the traced run reports where the scaled job
differs.  See spans.ENTRY_POINTS for the bucket names.  Why each workload
was chosen is recorded in BENCHMARK.json.
"""

import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what `items` counts
    argv: tuple  # the finord command line
    expected: dict
    # (buckets joined by "+", low, high, unit "share" or "s", the claim)
    split: tuple

    def run(self):
        """Run the command as `finord` would; -> (exit code, report text)."""
        from finord import cli

        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(list(self.argv))
        return code, out.getvalue()

    def summary(self, code, report):
        raise NotImplementedError

    def items(self, summary):
        raise NotImplementedError


def _digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Obstruct(Workload):
    def summary(self, code, report):
        certs = report["certificates"]
        return {"exit": code, "posets": report["posets"],
                "candidates": report["candidates"],
                "refuted": report["refuted"],
                "certificate_kinds": dict(
                    Counter(c["certificate_kind"] for c in certs)),
                "certificates_sha256": _digest(certs)}

    def items(self, summary):
        return summary["candidates"]


class Frames(Workload):
    def summary(self, code, report):
        return {"exit": code, "frames": report["frames"],
                "preorders": report["preorders"], "checks": report["checks"],
                "violations": report["violations"]}

    def items(self, summary):
        return summary["checks"]


WORKLOADS = {w.name: w for w in (
    Obstruct(
        name="obstruct",
        unit="candidates",
        argv=("obstruct", "--all-posets", "5"),
        expected={"exit": 0, "posets": 87, "candidates": 2737,
                  "refuted": 2737,
                  "certificate_kinds": {"empty_mediating_set": 2737},
                  "certificates_sha256": (
                      "9ea190d2d8a15ad0eba84011e3ebd41e"
                      "7dc6529d41efa8a76d8ad9643076d3b7")},
        split=(("order.enumerate", 0.25, 0.55, "share",
                "about 40% is order.enumerate_posets"),
               ("maps.wrap+kernels.maps+hierarchy.materialize"
                "+maps.obstruction", 0.30, 0.75, "share",
                "most of the rest is mediating_search, the map kernel "
                "and materialize"),
               ("hsets.order", 0.0, 0.05, "share",
                "the hsets order layer is near zero")),
    ),
    Frames(
        name="frames",
        unit="checks",
        argv=("verify", "coreflect", "--states", "3"),
        expected={"exit": 0, "frames": 530, "preorders": 5, "checks": 1735,
                  "violations": []},
        split=(("kripke.classify", 0.65, 0.95, "share",
                "about 80% is kripke.frames_up_to_iso"),
               ("kripke.verify+kripke.coreflect+kripke.pmorphism", 0.05,
                0.35, "share",
                "most of the rest is verify_coreflection and coreflect"),
               ("layer.hsets+layer.hierarchy+kernels.maps", 0.0, 0.0,
                "share", "no hsets, hierarchy or map-kernel calls")),
    ),
)}
