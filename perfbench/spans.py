"""Layer tracing from outside the package.

`install()` wraps the public entry points of each finord module listed in
ENTRY_POINTS, in place, so every caller goes through the wrapper: module
functions are replaced in every finord module that imported them by name,
methods are replaced on their class.  Nothing inside `src/` changes.

Two kinds of record are kept in memory and written out by `Tracer.dump`:

- a span per call of a coarse entry point: name, parent span, start, end;
- an aggregate per (parent span, name) for the hot leaf entry points
  (universe order queries, interning), which run millions of times: a call
  count and the summed duration.  Only the outermost call is timed; calls
  nested inside a leaf (the recursion of `Universe.lt`) and any other
  wrapped call made from inside it run unwrapped.  For a method this is
  done by switching the instance to a subclass that holds the originals for
  the duration of the outermost call.

Span 0 is the job itself.  `layer_times` derives self time per bucket: a
span's duration minus the durations of its child spans and aggregates.  The
process is single-threaded, so children never overlap and their summed
durations are exactly the part of the parent they cover.
"""

import importlib
import json
import sys
from collections import Counter
from time import perf_counter_ns

JOB = "job"


def _count_results(key):
    def hook(tr, args, out):
        tr.counters[key] += len(out)
    return hook


def _universe(tr, args, out):
    tr.universes[id(args[0])] = args[0]


def _antichains(tr, args, out):
    masks, hit = out
    tr.counters["kernels.antichains_results"] += len(masks)
    tr.counters["kernels.antichains_truncated"] += int(hit)


def _maps_kernel(tr, args, out):
    tables, nodes = out
    tr.counters["kernels.maps_results"] += len(tables)
    tr.counters["kernels.maps_nodes"] += nodes


def _materialize(tr, args, out):
    h, alpha = args[0], args[1]
    tr.distinct.setdefault("hierarchy.materialize", set()).add((id(h), alpha))


def _mediating(tr, args, out):
    tr.counters["maps.pointmaps"] += len(out[0])


def _pmorphisms(tr, args, out):
    f, g = args[0], args[1]
    tr.counters["kripke.functions_tested"] += g.n ** f.n
    tr.counters["kripke.pmorphisms_found"] += len(out)


def _coreflect(tr, args, out):
    f = args[0]
    tr.distinct.setdefault("kripke.coreflect", set()).add((f.n, f.succ))


def _render(tr, args, out):
    tr.counters["cli.report_bytes"] += len(out.encode())


# (module, attribute, bucket, leaf, counter hook).  "Class.method" attributes
# are patched on the class.  Buckets are "<module>.<layer>"; a counter hook
# runs only on the outermost call of its bucket, so nested calls of the same
# layer (enumerate_frames inside frames_up_to_iso) are not counted twice.
ENTRY_POINTS = (
    ("hsets", "Universe.lt", "hsets.order", True, None),
    ("hsets", "Universe.leq", "hsets.order", True, None),
    ("hsets", "Universe.comparable", "hsets.order", True, None),
    ("hsets", "Universe.intern", "hsets.intern", True, _universe),
    ("hsets", "Universe.peek", "hsets.intern", True, _universe),
    ("kernels", "antichains", "kernels.antichains", False, _antichains),
    ("kernels", "enumerate_maps", "kernels.maps", False, _maps_kernel),
    ("hierarchy", "build", "hierarchy.build", False, None),
    ("hierarchy", "materialize", "hierarchy.materialize", False, _materialize),
    ("maps", "enumerate_open_maps", "maps.wrap", False,
     _count_results("maps.pointmaps")),
    ("maps", "mediating_search", "maps.wrap", False, _mediating),
    ("maps", "product_obstruction", "maps.obstruction", False, None),
    ("order", "enumerate_posets", "order.enumerate", False,
     _count_results("order.structures")),
    ("order", "enumerate_preorders", "order.enumerate", False,
     _count_results("order.structures")),
    ("kripke", "frames_up_to_iso", "kripke.classify", False,
     _count_results("kripke.frames")),
    ("kripke", "enumerate_frames", "kripke.classify", False,
     _count_results("kripke.frames")),
    ("kripke", "pmorphisms", "kripke.pmorphism", False, _pmorphisms),
    ("kripke", "coreflect", "kripke.coreflect", False, _coreflect),
    ("kripke", "verify_coreflection", "kripke.verify", False, None),
    ("cli", "main", "cli.main", False, None),
    ("cli", "_render", "cli.render", False, _render),
)

MODULES = ("hsets", "hierarchy", "kernels", "maps", "order", "kripke", "cli")


class Tracer:
    """Spans, leaf aggregates and counters of one traced job."""

    def __init__(self):
        # span: [name, parent span id, start ns, end ns]
        self.spans = [[JOB, -1, 0, 0]]
        self.stack = [0]
        self.buckets = [JOB]  # bucket of each open span, parallel to stack
        self.aggregates = {}  # (parent span id, bucket) -> [calls, ns]
        self.counters = Counter()
        self.distinct = {}
        self.universes = {}
        self.in_leaf = False

    def span(self, bucket, fn, hook):
        spans, stack, buckets = self.spans, self.stack, self.buckets

        def wrapped(*args, **kwargs):
            if self.in_leaf:
                return fn(*args, **kwargs)
            rec = [bucket, stack[-1], 0, 0]
            outer = buckets[-1] != bucket
            stack.append(len(spans))
            buckets.append(bucket)
            spans.append(rec)
            rec[2] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter_ns()
                stack.pop()
                buckets.pop()
            if hook is not None and outer:
                hook(self, args, out)
            return out
        return wrapped

    def leaf(self, bucket, fn, hook, raw_cls=None):
        """Aggregate wrapper.  For a method, `raw_cls` is a subclass whose
        methods are the unwrapped originals: the instance (args[0]) takes it
        on for the outermost call, so nested calls skip the wrapper."""
        aggregates, stack = self.aggregates, self.stack

        def wrapped(*args, **kwargs):
            if self.in_leaf:
                return fn(*args, **kwargs)
            self.in_leaf = True
            if raw_cls is not None:
                inst = args[0]
                cls = inst.__class__
                inst.__class__ = raw_cls
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                if raw_cls is not None:
                    inst.__class__ = cls
                self.in_leaf = False
            key = (stack[-1], bucket)
            agg = aggregates.get(key)
            if agg is None:
                aggregates[key] = [1, elapsed]
            else:
                agg[0] += 1
                agg[1] += elapsed
            if hook is not None:
                hook(self, args, out)
            return out
        return wrapped

    def start(self):
        self.spans[0][2] = perf_counter_ns()

    def stop(self):
        self.spans[0][3] = perf_counter_ns()

    def dump(self, path):
        """Write spans, aggregates and counters as JSON, times in ns."""
        counters = dict(self.counters)
        counters["hsets.universe_ids"] = sum(len(u) for u in self.universes.values())
        for bucket, keys in self.distinct.items():
            counters[bucket + "_distinct"] = len(keys)
        doc = {
            "fields": {"spans": ["id", "name", "parent", "start_ns", "end_ns"],
                       "aggregates": ["parent", "name", "calls", "total_ns"]},
            "spans": [[i, *rec] for i, rec in enumerate(self.spans)],
            "aggregates": [[parent, name, calls, total]
                           for (parent, name), (calls, total)
                           in self.aggregates.items()],
            "counters": counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer):
    """Route every entry point in ENTRY_POINTS through `tracer`."""
    modules = [mod for name, mod in sys.modules.items()
               if name == "finord" or name.startswith("finord.")]
    raw_classes = {}
    for mod_name, attr, bucket, leaf, hook in ENTRY_POINTS:
        owner = importlib.import_module("finord." + mod_name)
        if "." not in attr:
            original = getattr(owner, attr)
            wrapped = (tracer.leaf if leaf else tracer.span)(bucket, original, hook)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
            continue
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        original = getattr(cls, meth)
        if not leaf:
            setattr(cls, meth, tracer.span(bucket, original, hook))
            continue
        # one subclass per class keeps the original of every leaf method
        raw = raw_classes.get(cls)
        if raw is None:
            raw = raw_classes[cls] = type(cls.__name__, (cls,), {})
        setattr(raw, meth, original)
        setattr(cls, meth, tracer.leaf(bucket, original, hook, raw))


def layer_times(doc):
    """Self time (s) and call count per bucket, from a dumped trace."""
    spans = doc["spans"]
    covered = [0] * len(spans)
    for sid, name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_ns = Counter()
    calls = Counter()
    for parent, name, count, total in doc["aggregates"]:
        covered[parent] += total
        self_ns[name] += total
        calls[name] += count
    for sid, name, parent, start, end in spans:
        self_ns[name] += end - start - covered[sid]
        calls[name] += 1
    wall_ns = spans[0][4] - spans[0][3]
    self_s = Counter({k: v / 1e9 for k, v in self_ns.items()})
    return self_s, calls, wall_ns / 1e9


def _bucket_sum(self_s, expr):
    """Self time of "+"-joined terms: a bucket, or "layer.<module>"."""
    total = 0.0
    for term in expr.split("+"):
        if term.startswith("layer."):
            prefix = term[len("layer."):] + "."
            total += sum(v for k, v in self_s.items() if k.startswith(prefix))
        else:
            total += self_s.get(term, 0.0)
    return total


def layer_metrics(doc, untraced_wall_s):
    """Per-layer metrics of one traced job: name -> (value, unit)."""
    self_s, calls, wall_s = layer_times(doc)
    counters = Counter(doc["counters"])
    nodes = counters["kernels.maps_nodes"]
    results = counters["kernels.maps_results"]
    m = {
        "hsets.order_calls": (calls["hsets.order"], "count"),
        "hsets.order_s": (self_s["hsets.order"], "s"),
        "hsets.intern_calls": (calls["hsets.intern"], "count"),
        "hsets.intern_s": (self_s["hsets.intern"], "s"),
        "hsets.universe_ids": (counters["hsets.universe_ids"], "count"),
        "kernels.antichains_calls": (calls["kernels.antichains"], "count"),
        "kernels.antichains_s": (self_s["kernels.antichains"], "s"),
        "kernels.antichains_results":
            (counters["kernels.antichains_results"], "count"),
        "kernels.antichains_truncated":
            (counters["kernels.antichains_truncated"], "count"),
        "hierarchy.build_self_s": (self_s["hierarchy.build"], "s"),
        "hierarchy.materialize_calls": (calls["hierarchy.materialize"], "count"),
        "hierarchy.materialize_distinct":
            (counters["hierarchy.materialize_distinct"], "count"),
        "hierarchy.materialize_s": (self_s["hierarchy.materialize"], "s"),
        "kernels.maps_calls": (calls["kernels.maps"], "count"),
        "kernels.maps_s": (self_s["kernels.maps"], "s"),
        "kernels.maps_nodes": (nodes, "count"),
        "kernels.maps_results": (results, "count"),
        "kernels.maps_yield": (results / nodes if nodes else 0.0, "ratio"),
        "maps.wrap_s": (self_s["maps.wrap"], "s"),
        "maps.pointmaps": (counters["maps.pointmaps"], "count"),
        "maps.obstruction_s": (self_s["maps.obstruction"], "s"),
        "order.enumerate_s": (self_s["order.enumerate"], "s"),
        "order.structures": (counters["order.structures"], "count"),
        "kripke.classify_s": (self_s["kripke.classify"], "s"),
        "kripke.frames": (counters["kripke.frames"], "count"),
        "kripke.pmorphism_calls": (calls["kripke.pmorphism"], "count"),
        "kripke.pmorphism_s": (self_s["kripke.pmorphism"], "s"),
        "kripke.functions_tested": (counters["kripke.functions_tested"], "count"),
        "kripke.pmorphisms_found": (counters["kripke.pmorphisms_found"], "count"),
        "kripke.coreflect_calls": (calls["kripke.coreflect"], "count"),
        "kripke.coreflect_distinct":
            (counters["kripke.coreflect_distinct"], "count"),
        "kripke.coreflect_s": (self_s["kripke.coreflect"], "s"),
        "kripke.verify_self_s": (self_s["kripke.verify"], "s"),
        "cli.render_s": (self_s["cli.render"], "s"),
        "cli.report_bytes": (counters["cli.report_bytes"], "B"),
        "cli.self_s": (self_s["cli.main"], "s"),
    }
    for module in MODULES:
        m[f"layer.{module}_s"] = (_bucket_sum(self_s, "layer." + module), "s")
    m["trace.overhead_s"] = (wall_s - untraced_wall_s, "s")
    m["trace.unattributed_s"] = (self_s[JOB], "s")
    return m


def check_split(doc, claims):
    """Evaluate a workload's stated layer split against a traced job.

    Each claim is (terms, low, high, unit, text); a "share" is self time
    over the traced job's wall time.  -> list of result dicts.
    """
    self_s, _, wall_s = layer_times(doc)
    out = []
    for terms, low, high, unit, text in claims:
        value = _bucket_sum(self_s, terms)
        if unit == "share":
            value /= wall_s
        out.append({"claim": text, "terms": terms, "unit": unit,
                    "measured": value, "low": low, "high": high,
                    "holds": low <= value <= high})
    return out
