"""Command-line front end.

Three subcommands: `hierarchy` builds antichain towers and exports them,
`verify` runs the named exhaustive verification suites, and `obstruct`
searches for mediating maps and emits refutation certificates.

Reports are JSON on stdout with a fixed envelope (schema version, tool
version, effective config and its hash).  With a fixed seed the bytes are
reproducible; `elapsed` stays null unless --timing is given, precisely so
that repeated runs compare equal.  Every report and exported tower is
`json.dumps(..., indent=2, sort_keys=True)`.  `obstruct` writes each
certificate as pieces of a fixed template in that layout, cut at its
slots, and shares every piece between the certificates it fits; the report
splices the pieces into the rest of its body in one join.

Exit codes: 0 success / no violations / all candidates refuted; 1 invalid
configuration or violations found; 2 budget exhausted.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from itertools import combinations
from pathlib import Path
from random import Random

from finord import __version__
from finord import heyting as heyting_mod
from finord import hierarchy as hierarchy_mod
from finord import hsets
from finord import kripke as kripke_mod
from finord import maps as maps_mod
from finord import order as order_mod
from finord.errors import BudgetError, FinordError, FormatError
from finord.order import sierpinski

SCHEMA = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2

# characters per write of a report or document; it is ASCII (json.dumps
# escapes the rest), so each write encodes at most 1 MiB, not a whole copy
WRITE_SLICE = 1 << 20


class _Parser(argparse.ArgumentParser):
    # bad flags are an invalid configuration: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_FAIL)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="finord", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"finord {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, depth_default=None):
        p.add_argument("--depth", type=int, default=depth_default,
                       help="stage depth to build or verify")
        p.add_argument("--budget", type=int,
                       default=hierarchy_mod.DEFAULT_BUDGET,
                       help="max elements per hierarchy level")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for sampled checks")
        p.add_argument("--out", type=Path, default=None,
                       help="write the document or report here as well")
        p.add_argument("--timing", action="store_true",
                       help="fill the elapsed field (breaks byte-identity)")

    ph = sub.add_parser("hierarchy", help="build and export antichain towers")
    ph.add_argument("action", choices=("build", "stats", "export"))
    ph.add_argument("--base", default="thm33",
                    help="thm33 | antichain3 | file:PATH")
    ph.add_argument("--format", choices=("json", "dot", "text"),
                    default="json")
    common(ph, depth_default=2)
    ph.set_defaults(func=cmd_hierarchy)

    pv = sub.add_parser("verify", help="run an exhaustive verification suite")
    pv.add_argument("suite", choices=SUITES)
    pv.add_argument("--max-size", type=int, default=None,
                    help="carrier size bound for enumerated structures")
    pv.add_argument("--states", type=int, default=None,
                    help="state count bound for frame suites")
    pv.add_argument("--samples", type=int, default=2000,
                    help="sampled checks beyond the exhaustive range")
    common(pv)
    pv.set_defaults(func=cmd_verify)

    po = sub.add_parser("obstruct",
                        help="emit product-obstruction certificates")
    group = po.add_mutually_exclusive_group(required=True)
    group.add_argument("--poset",
                       help="singleton | sierpinski | product2x2 | file:PATH")
    group.add_argument("--all-posets", type=int, metavar="N",
                       help="all posets with up to N elements, up to iso")
    common(po, depth_default=2)
    po.set_defaults(func=cmd_obstruct)
    return parser


# ---------------------------------------------------------------------------
# config plumbing

def _config_of(args) -> dict:
    skip = {"func", "command", "out", "timing"}
    cfg = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        cfg[key.replace("_", "-")] = str(val) if isinstance(val, Path) else val
    return cfg


def _render(command: str, config: dict, payload: dict, elapsed) -> str:
    body = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest()[:12],
        "elapsed": elapsed,
    }
    body.update(payload)
    pieces = body.get("certificates")
    if not pieces:
        return json.dumps(body, indent=2, sort_keys=True) + "\n"
    # an obstruct report's certificate pieces: render the rest around an
    # empty list, whose key is the first match ("candidates", the one key
    # before it, holds an int), and join the pieces in uncopied
    body["certificates"] = []
    head, tail = json.dumps(body, indent=2, sort_keys=True).split(
        '"certificates": []', 1)
    return "".join([head, '"certificates": [', *pieces, "\n  ]", tail, "\n"])


def _resolve_base(spec: str):
    """-> (universe, base ids).  Accepts thm33 | antichain3 | file:PATH."""
    if spec == "thm33":
        u = hsets.Universe()
        return u, tuple(hsets.concrete_claw(u))
    if spec == "antichain3":
        u, ids = hsets.abstract_antichain(3)
        return u, tuple(ids)
    if spec.startswith("file:"):
        data = _read_json(spec[5:])
        try:
            atoms, leq, chosen = data["atoms"], data["leq"], data["base"]
        except (KeyError, TypeError) as exc:
            raise FormatError(
                "base file needs 'atoms', 'leq', and 'base'") from exc
        if not (_is_label_list(atoms) and _is_label_list(chosen)
                and isinstance(leq, list)
                and all(_is_label_list(pair) and len(pair) == 2
                        for pair in leq)):
            raise FormatError("base file needs 'atoms' and 'base' as lists "
                              "of labels and 'leq' as a list of label pairs")
        pairs = [tuple(pair) for pair in leq]
        unknown = sorted({lbl for pair in pairs for lbl in pair
                          if lbl not in atoms})
        if unknown:
            raise FormatError(f"leq labels not among atoms: {unknown}")
        try:
            u = hsets.Universe(hsets.base_poset(atoms, pairs))
        except ValueError as exc:
            raise FormatError(f"bad base poset: {exc}") from exc
        missing = [lbl for lbl in chosen if lbl not in atoms]
        if missing:
            raise FormatError(f"base labels not among atoms: {missing}")
        return u, tuple(u.atom(lbl) for lbl in chosen)
    raise FormatError(f"unknown base {spec!r}")


def _is_label_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _resolve_poset(spec: str) -> order_mod.FinitePreorder:
    if spec == "singleton":
        return order_mod.singleton()
    if spec == "sierpinski":
        return sierpinski()
    if spec == "product2x2":
        return order_mod.product(sierpinski(), sierpinski())
    if spec.startswith("file:"):
        return order_mod.from_json(_read_json(spec[5:]))
    raise FormatError(f"unknown poset {spec!r}")


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _require_complete(h: hierarchy_mod.Hierarchy):
    if not h.complete:
        raise hierarchy_mod.budget_error(h, "level budget exhausted")


def _pick(value, default):
    return default if value is None else value


# ---------------------------------------------------------------------------
# hierarchy

def cmd_hierarchy(args):
    if args.depth < 0 or args.budget <= 0:
        raise FormatError("depth must be >= 0 and budget positive")
    u, base = _resolve_base(args.base)
    h = hierarchy_mod.build(base, args.depth, u, args.budget)
    payload = {
        "action": args.action,
        "levels": [len(level) for level in h.levels],
        "new_per_level": [len(h.new_at(a)) for a in range(len(h.levels))],
        "growth": hierarchy_mod.growth_stats(h),
        "truncated_at": h.truncated_at,
        "base_ids": sorted(h.base),
        "base_elements": [u.dump_line(x) for x in sorted(h.base)],
    }
    document = None
    if args.action == "export" or (args.action == "build" and args.out):
        if args.format == "json":
            document = hierarchy_mod.dumps(h)
        elif args.format == "dot":
            document = hierarchy_mod.level_dot(h, h.depth)
        else:
            document = u.dump()
    code = EXIT_OK if h.complete else EXIT_BUDGET
    return code, payload, document


# ---------------------------------------------------------------------------
# verify suites

def _suite_lemma23(args, rng):
    """Stage structure and base-restriction comparisons, both towers."""
    depth = _pick(args.depth, 2)
    if depth < 1:
        raise FormatError("lemma23 needs --depth >= 1: its shifted base "
                          "lies in stage 1")
    checks = 0
    violations = []

    for name in ("thm33", "antichain3"):
        u, base = _resolve_base(name)
        h = hierarchy_mod.build(base, depth, u, args.budget)
        _require_complete(h)
        rep = hierarchy_mod.verify_stage_properties(h)
        checks += rep.stages
        violations += [[name, *map(str, v)] for v in rep.violations]

    # sub-antichains of the free 3-antichain against the full base, whose
    # tower h the loop above left built
    for r in (1, 2, 3):
        for m in combinations(base, r):
            hm = h if m == base else hierarchy_mod.build(m, depth, u,
                                                         args.budget)
            rep = hierarchy_mod.verify_restriction(hm, h)
            checks += 1
            violations += [["restriction", str(m), *map(str, v)]
                           for v in rep.violations]

    # a base living one stage up: offset containment must kick in
    a, b, c = base
    shifted = (u.intern([a, b]), u.intern([b, c]))
    rep = hierarchy_mod.verify_restriction(
        hierarchy_mod.build(shifted, depth, u, args.budget), h)
    checks += 1
    if rep.offset != 1:
        violations.append(["restriction_offset", str(rep.offset)])
    violations += [["restriction_shifted", *map(str, v)]
                   for v in rep.violations]

    return {"checks": checks, "violations": violations}


def _suite_lemma24(args, rng):
    """Pairing every stage element with an incomparable outsider."""
    depth = _pick(args.depth, 2)
    u, ids = hsets.abstract_antichain(4)
    h = hierarchy_mod.build(ids[:3], depth, u, args.budget)
    _require_complete(h)
    checks = 0
    violations = []
    for alpha in range(len(h.levels)):
        rep = hierarchy_mod.fan(h.levels[alpha], ids[3], u)
        checks += len(rep.pair_ids)
        violations += [["fan", str(alpha), *map(str, v)]
                       for v in rep.violations]
    return {"checks": checks, "violations": violations}


def _suite_lemma31(args, rng):
    """The three openness characterizations agree on every function."""
    preorders = order_mod.enumerate_preorders(_pick(args.max_size, 3))
    functions = 0
    violations = []

    def check(f, tag):
        v1 = maps_mod.is_open_v1(f)
        v2 = maps_mod.is_open_v2(f)
        v3 = maps_mod.is_open_v3(f)
        if not v1 == v2 == v3:
            violations.append([tag, order_mod.to_json(f.dom)["leq"],
                               order_mod.to_json(f.cod)["leq"], list(f.table),
                               int(v1), int(v2), int(v3)])

    for p in preorders:
        for q in preorders:
            for f in maps_mod.all_functions(p, q):
                functions += 1
                check(f, "exhaustive")
    samples = 0
    for _ in range(args.samples):
        p = order_mod.sample_preorder(rng.choice((4, 5)), rng)
        q = order_mod.sample_preorder(rng.choice((4, 5)), rng)
        table = tuple(rng.randrange(q.n) for _ in range(p.n))
        samples += 1
        check(maps_mod.PointMap(p, q, table), "sampled")
    return {"pairs": len(preorders) ** 2,
            "functions": functions, "samples": samples,
            "checks": functions + samples, "violations": violations}


def _suite_lemma32(args, rng):
    """Open maps injective on the base stay injective on the stage."""
    depth = _pick(args.depth, 1)
    u, base = _resolve_base("thm33")
    h = hierarchy_mod.build(base, depth, u, args.budget)
    _require_complete(h)
    posets = order_mod.enumerate_posets(_pick(args.max_size, 4))
    open_maps = injective = 0
    violations = []
    for p in posets:
        rep = maps_mod.injectivity_report(h, depth, p)
        open_maps += rep.open_maps
        injective += rep.injective_on_base
        violations += [["injectivity", p.n, list(t)] for t in rep.violations]
    return {"posets": len(posets),
            "open_maps": open_maps, "injective_on_base": injective,
            "checks": open_maps, "violations": violations}


def _suite_thm26(args, rng):
    """Strict growth of the doubleton tower, fanned against the triple."""
    depth = _pick(args.depth, 3)
    # growth_witness builds its own base, the three doubletons
    u, ids = hsets.abstract_antichain(3)
    rep = hierarchy_mod.growth_witness(ids, depth, u, args.budget)
    violations = []
    if any(g < 3 for g in rep.growth):
        violations.append(["growth_below_three", rep.growth])
    if rep.violations:
        violations.append(["fans"])
    return {"level_sizes": rep.level_sizes,
            "growth": rep.growth, "fan_sizes": rep.fan_sizes,
            "checks": len(rep.growth) + len(rep.fan_sizes),
            "violations": violations}


def _suite_coreflect(args, rng):
    """Definitional vs fixpoint coreflection, then the universal property."""
    states = _pick(args.states, 3)
    if states >= 1:
        kripke_mod.check_relation_budget(states)
    checks = 0
    frames = [f for n in range(1, states + 1)
              for f in (kripke_mod.enumerate_frames(n) if n <= 3
                        else kripke_mod.frames_up_to_iso(n))]
    preorders = order_mod.enumerate_preorders(_pick(args.max_size, 2))
    mismatches = []
    universal = []
    sweep = kripke_mod.verify_coreflections(frames, preorders)
    for i, (f, (cor, reports)) in enumerate(zip(frames, sweep)):
        checks += 1
        if kripke_mod.coreflect_fixpoint(f) != cor.member_mask:
            mismatches.append(["fixpoint_mismatch", i])
        for p, rep in zip(preorders, reports):
            checks += rep.pmorphisms
            if rep.violations:
                universal.append(["universal", i, order_mod.to_json(p)["leq"],
                                  [list(map(str, v)) for v in rep.violations]])
    return {"frames": len(frames),
            "preorders": len(preorders), "checks": checks,
            "violations": mismatches + universal}


def _suite_duality(args, rng):
    """Unit isomorphism and fullness of the downset functor."""
    posets = order_mod.enumerate_posets(_pick(args.max_size, 4))
    checks = 0
    violations = []
    for i, p in enumerate(posets):
        checks += 1
        if not heyting_mod.verify_adjunction_unit(p):
            violations.append(["unit", i])
    small = [p for p in posets if p.n <= 3]
    for i, p in enumerate(small):
        for j, q in enumerate(small):
            rep = heyting_mod.fullness_report(p, q)
            checks += 1
            if rep.violations:
                violations.append(["fullness", i, j, rep.open_maps,
                                   rep.morphisms])
    return {"posets": len(posets),
            "fullness_pairs": len(small) ** 2, "checks": checks,
            "violations": violations}


def _suite_bao(args, rng):
    """Closure-algebra bridge, modal inequality, and the frame round trip."""
    states = _pick(args.states, 3)
    if states >= 1:
        kripke_mod.check_relation_budget(states)
    checks = 0
    violations = []
    for n in range(1, states + 1):
        for i, f in enumerate(kripke_mod.enumerate_frames(n)):
            checks += 1
            if not kripke_mod.closure_iff_preorder(f):
                violations.append(["closure_bridge", n, i])
            if not kripke_mod.verify_bao_adjunction(f):
                violations.append(["round_trip", n, i])
    sampled = 0
    for _ in range(args.samples):
        f = kripke_mod.sample_frame(5, rng)
        sampled += 1
        if not kripke_mod.closure_iff_preorder(f):
            violations.append(["closure_bridge_sampled",
                               kripke_mod.frame_to_json(f)["relation"]])
    checks += sampled
    baos = 0
    for _ in range(64):
        dia = tuple(rng.getrandbits(4) for _ in range(4))
        a = kripke_mod.FiniteBAO(4, dia)
        rep = kripke_mod.box_diamond_report(a)
        baos += 1
        checks += rep.pairs_checked
        if rep.violations:
            violations.append(["box_diamond", list(dia)])
    for f in kripke_mod.enumerate_frames(2):
        for g in kripke_mod.enumerate_frames(2):
            rep = kripke_mod.fullness_frames_report(f, g)
            checks += rep.functions
            if rep.violations:
                violations.append(["powerset_fullness",
                                   kripke_mod.frame_to_json(f)["relation"],
                                   kripke_mod.frame_to_json(g)["relation"]])
    return {"frames_sampled": sampled,
            "baos_sampled": baos, "checks": checks, "violations": violations}


# suite -> (its function, its --max-size bound, or None when it enumerates
# by no --max-size).  lemma31's bound is below its enumeration's cap: it checks
# every function between two preorders, 24,872 at 3 points, 33,827,262 at 4
SUITES = {
    "lemma23": (_suite_lemma23, None),
    "lemma24": (_suite_lemma24, None),
    "lemma31": (_suite_lemma31, 3),
    "lemma32": (_suite_lemma32, order_mod.MAX_POSET_SIZE),
    "thm26": (_suite_thm26, None),
    "coreflect": (_suite_coreflect, order_mod.MAX_PREORDER_SIZE),
    "duality": (_suite_duality, order_mod.MAX_POSET_SIZE),
    "bao": (_suite_bao, None),
}


def cmd_verify(args):
    if args.budget <= 0 or args.samples < 0:
        raise FormatError("budget must be positive and samples nonnegative")
    if args.depth is not None and args.depth < 0:
        raise FormatError("depth must be >= 0")
    suite, bound = SUITES[args.suite]
    if bound is not None and _pick(args.max_size, 0) > bound:
        raise FormatError(
            f"--max-size for {args.suite} must be at most {bound}")
    payload = {"suite": args.suite, **suite(args, Random(args.seed))}
    code = EXIT_OK if not payload["violations"] else EXIT_FAIL
    return code, payload, None


# ---------------------------------------------------------------------------
# obstruct

# a certificate as `json.dumps(..., indent=2, sort_keys=True)` writes its dict
# at depth 2 (report -> "certificates" -> certificate): its keys in sorted
# order, a %s for each value; cmd_obstruct cuts it at the %s slots
_CERTIFICATE = "{" + ",".join(f'\n      "{key}": %s' for key in (
    "candidates_examined", "certificate_kind", "elapsed", "mediating_found",
    "p1", "p2", "poset", "size", "stage")) + "\n    }"


def cmd_obstruct(args):
    if args.depth < 1 or args.budget <= 0:
        raise FormatError("depth must be >= 1 and budget positive")
    bound = order_mod.MAX_POSET_SIZE
    if args.all_posets is not None and not 1 <= args.all_posets <= bound:
        raise FormatError(f"--all-posets needs a bound in 1..{bound}")
    u, base = _resolve_base("thm33")
    h = hierarchy_mod.build(base, args.depth, u, args.budget)
    _require_complete(h)
    if args.poset is not None:
        posets = [_resolve_poset(args.poset)]
        names = [args.poset]
    else:
        posets = order_mod.enumerate_posets(args.all_posets)
        first = {}  # size -> index of the first poset of that size
        names = [f"poset{p.n}.{i - first.setdefault(p.n, i)}"
                 for i, p in enumerate(posets)]
    # each certificate is four shared pieces of _CERTIFICATE, cut at its
    # slots and set per poset in one slice each: a head through "p1" per
    # verdict, opening with the comma between certificates; p1's table;
    # "p2", its table and the poset's tail through "stage"; the stage and }
    cut = _CERTIFICATE.split("%s")
    texts = {}  # a projection's table -> its text
    # by the id of a verdict (the sweep shares them): the verdict, kept so no
    # other takes its id, and its head cut at elapsed; its head; its stage
    kept, heads, stages = {}, {}, {}
    pieces = []
    refuted = 0
    tick = time.perf_counter()
    for i, firsts, seconds, verdicts in maps_mod.product_obstructions(
            h, posets):
        for t in set(firsts).union(seconds).difference(texts):
            # json.dumps(t, indent=2) with its lines indented by 6
            texts[t] = ("[\n        " + ",\n        ".join(map(str, t))
                        + "\n      ]") if t else "[]"
        tail = f"{cut[6]}{json.dumps(names[i])}{cut[7]}{posets[i].n}{cut[8]}"
        ids = list(map(id, verdicts))
        distinct = set(ids)
        for key in distinct.difference(kept):
            v = verdicts[ids.index(key)]
            kept[key] = v, (f",\n    {cut[0]}{v.candidates_examined}{cut[1]}"
                            f"{json.dumps(v.certificate_kind)}{cut[2]}",
                            f"{cut[3]}{v.mediating_found}{cut[4]}")
            heads[key] = "null".join(kept[key][1])
            stages[key] = f"{v.stage}{cut[9]}"
        refuted += len(ids) - sum(ids.count(key) for key in distinct
                                  if not kept[key][0].refuted)
        block = [None] * (4 * len(ids))
        block[0::4] = map(heads.__getitem__, ids)
        block[1::4] = [texts[p1] for p1 in firsts for _ in seconds]
        block[2::4] = [f"{cut[5]}{texts[p2]}{tail}"
                       for p2 in seconds] * len(firsts)
        block[3::4] = map(stages.__getitem__, ids)
        if args.timing:
            # since the previous certificate, so a poset's first carries its
            # stage searches and the preparation of each stage it first reaches
            for j, key in enumerate(ids):
                now = time.perf_counter()
                elapsed, tick = float.__repr__(round(now - tick, 6)), now
                block[4 * j] = elapsed.join(kept[key][1])
        pieces += block
    if pieces:
        pieces[0] = pieces[0][1:]  # no comma before the first certificate
    candidates = len(pieces) // 4
    payload = {"posets": len(posets), "candidates": candidates,
               "refuted": refuted, "certificates": pieces}
    code = EXIT_OK if refuted == candidates else EXIT_FAIL
    return code, payload, None


# ---------------------------------------------------------------------------
# entry point

def _write(stream, text: str):
    """Write text in slices of WRITE_SLICE characters."""
    for start in range(0, len(text), WRITE_SLICE):
        stream.write(text[start:start + WRITE_SLICE])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code, payload, document = args.func(args)
    except BudgetError as exc:
        error = {"message": str(exc), "stage": exc.stage, "used": exc.used,
                 "budget": exc.budget}
        code, payload, document = EXIT_BUDGET, {"error": error}, None
    except (FinordError, OSError) as exc:
        print(f"finord: error: {exc}", file=sys.stderr)
        return EXIT_FAIL

    elapsed = round(time.perf_counter() - start, 6) if args.timing else None
    report = _render(args.command, _config_of(args), payload, elapsed)
    # the report holds every certificate: free the list of their pieces
    del payload
    try:
        if args.out:
            with args.out.open("w", encoding="utf-8") as out:
                _write(out, report if document is None else document)
        _write(sys.stdout, document if document is not None and not args.out
               else report)
        sys.stdout.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader is gone: the flush at exit writes to nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"finord: error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    raise SystemExit(main())
