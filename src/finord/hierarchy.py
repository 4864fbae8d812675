"""Stagewise towers of hereditary nontrivial antichains.

Starting from a finite base M of interned elements, each stage adjoins every
nontrivial antichain of the previous stage as a new set:

    levels[0] = M
    levels[a+1] = levels[a] + {intern(A) : A a >= 2-element antichain of levels[a]}

Level sizes explode combinatorially, so generation carries a hard per-level
budget and stops with an explicit truncation status instead of grinding on.

The verification suites in this module recheck, by exhaustive computation on
the generated data, the structural facts the constructions rely on: stages
are downsets of later stages, the fresh part of each stage is an antichain,
restricting the base restricts the tower, and pairing a stage with an outside
element produces antichains ("fans") that witness unbounded growth.
"""

import json
from dataclasses import dataclass, field

from finord import kernels
from finord import order as order_mod
from finord.errors import BudgetError, FormatError, HypothesisError
from finord.hsets import BasePoset, Universe, is_antichain, load
from finord.kernels import bits

DEFAULT_BUDGET = 200_000


@dataclass
class Hierarchy:
    universe: Universe
    base: tuple[int, ...]
    levels: list[frozenset[int]]
    budget: int
    requested_depth: int
    truncated_at: int | None = None
    # on truncation, the size of the overflowing level, or a lower bound on
    # it when the antichain kernel stopped counting (`used_is_bound`)
    used: int | None = None
    used_is_bound: bool = False

    @property
    def depth(self) -> int:
        """Deepest fully generated stage."""
        return len(self.levels) - 1

    @property
    def complete(self) -> bool:
        return self.truncated_at is None

    def new_at(self, alpha: int) -> frozenset:
        """Elements first appearing at stage alpha."""
        if alpha == 0:
            return self.levels[0]
        return self.levels[alpha] - self.levels[alpha - 1]


def _local_rows(ids, u: Universe) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The universe order on a list of distinct ids, as rows over positions.

    Bit j of down[i] is set iff ids[j] < ids[i], and bit j of up[i] iff
    ids[i] < ids[j].
    """
    down = kernels.restrict([u.below(x) for x in ids], ids)
    return down, kernels.transpose(down)


def _comparable_pairs(m: int, u: Universe) -> list[tuple[int, int]]:
    """Every comparable pair of members of the id mask m, as (smaller id,
    larger id), in ascending order.

    The order is strict, so each pair shows up in exactly one member's row.
    """
    return sorted((min(x, y), max(x, y))
                  for x in bits(m) for y in bits(u.below(x) & m))


def build(base_ids, depth: int, u: Universe, budget: int = DEFAULT_BUDGET) -> Hierarchy:
    """Generate stages 0..depth, stopping early if a level would exceed budget.

    On truncation the result keeps every fully generated level and records
    the offending stage in `truncated_at` and its size, or a lower bound on
    it (`used_is_bound`), in `used`; nothing from the overflowing level is
    interned.  A base larger than the budget raises HypothesisError.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if budget <= 0:
        raise ValueError("budget must be positive")
    base = tuple(sorted(set(base_ids)))
    for x in base:
        if not 0 <= x < len(u):
            raise ValueError(f"base id {x} not interned")
    if len(base) > budget:
        raise HypothesisError(
            f"budget {budget} is below the base size {len(base)}")

    h = Hierarchy(u, base, [frozenset(base)], budget, depth)
    for stage in range(1, depth + 1):
        level = h.levels[-1]
        elems = sorted(level)
        down, up = _local_rows(elems, u)
        comp = [d | a for d, a in zip(down, up)]
        masks, hit = kernels.antichains(comp, budget + 1)
        if hit:
            # more candidate antichains than any level may hold; the kernel
            # counted limit + 1 of them, and distinct antichains intern to
            # distinct sets, so the level holds at least that many
            h.truncated_at, h.used = stage, budget + 2
            h.used_is_bound = True
            break
        fresh = []
        for m in masks:
            kids = tuple(elems[i] for i in bits(m))
            got = u.peek(kids)
            if got is None or got not in level:
                fresh.append(kids)
        if len(level) + len(fresh) > budget:
            h.truncated_at, h.used = stage, len(level) + len(fresh)
            break
        h.levels.append(level | {u.intern(kids) for kids in fresh})
    return h


def budget_error(h: Hierarchy, message: str) -> BudgetError:
    """The BudgetError of a truncated tower: its stage, `used` and budget.

    When `used` is only a lower bound, the message says so.
    """
    if h.used_is_bound:
        message += " (used is a lower bound)"
    return BudgetError(message, stage=h.truncated_at, used=h.used,
                       budget=h.budget)


def materialize(h: Hierarchy, alpha: int):
    """Stage alpha as a FinitePreorder plus its sorted id list.

    Element i of the preorder is ids[i]; the relation is the restriction of
    the universe order.  The result is always a poset.
    """
    ids = tuple(sorted(h.levels[alpha]))
    _, above = _local_rows(ids, h.universe)
    up = tuple(row | 1 << i for i, row in enumerate(above))
    return order_mod.FinitePreorder(len(ids), up), ids


# ---------------------------------------------------------------------------
# verification suites

@dataclass
class StageReport:
    stages: int
    violations: list = field(default_factory=list)


def verify_stage_properties(h: Hierarchy) -> StageReport:
    """Exhaustively check the stage structure of a built hierarchy.

    Per stage alpha: levels[alpha] is a downset of the top level; the fresh
    elements of stage alpha form an antichain; and (for alpha >= 2) every
    fresh element has a child fresh at the previous stage.  Each check reads
    the `below` rows of the members against the mask of a level, so none
    compares pairs.  Failures come back as report entries, never
    exceptions, listed by stage and then by ascending id.
    """
    u = h.universe
    masks = [kernels.mask(level) for level in h.levels]
    violations = []
    prev_fresh = 0
    for alpha, level in enumerate(masks):
        outside = masks[-1] & ~level
        for x in bits(level):
            violations += [("not_downset", alpha, y, x)
                           for y in bits(u.below(x) & outside)]

        fresh = level & ~masks[alpha - 1] if alpha > 0 else 0
        violations += [("fresh_comparable", alpha, x, y)
                       for x, y in _comparable_pairs(fresh, u)]

        if alpha >= 2:
            violations += [
                ("stale_children", alpha, x) for x in bits(fresh)
                if u.kind(x) == "set"
                and not kernels.mask(u.children(x)) & prev_fresh]
        prev_fresh = fresh
    return StageReport(len(h.levels), violations)


@dataclass
class RestrictionReport:
    offset: int | None
    violations: list = field(default_factory=list)


def verify_restriction(hm: Hierarchy, hp: Hierarchy) -> RestrictionReport:
    """Compare the built towers of a base M and an enlarged base M'.

    Two checks, each run when its hypothesis holds:

    - equality (needs M and M' antichains with M a subset of M'): stage alpha
      of M equals stage alpha of M' intersected with M's top stage;
    - offset containment (needs M inside some stage of M''s tower): the least
      c with M inside levels_M'[c] makes levels_M[alpha] a subset of
      levels_M'[alpha + c] wherever both are built.

    Both towers must live in one universe.  Raises HypothesisError when
    neither hypothesis holds.
    """
    u = hm.universe
    m = frozenset(hm.base)
    mp = frozenset(hp.base)
    violations = []

    equality_applicable = (m <= mp and is_antichain(m, u) and is_antichain(mp, u))
    if equality_applicable:
        top = hm.levels[-1]
        for alpha in range(min(len(hm.levels), len(hp.levels))):
            expected = hp.levels[alpha] & top
            if hm.levels[alpha] != expected:
                violations.append(("stage_mismatch", alpha,
                                   sorted(hm.levels[alpha] ^ expected)))

    offset = next((c for c, lev in enumerate(hp.levels) if m <= lev), None)
    if offset is not None:
        for alpha in range(min(len(hm.levels), len(hp.levels) - offset)):
            extra = hm.levels[alpha] - hp.levels[alpha + offset]
            if extra:
                violations.append(("not_contained", alpha, offset, sorted(extra)))

    if not equality_applicable and offset is None:
        raise HypothesisError(
            "need M inside M' (both antichains) or M inside some stage of M'")
    return RestrictionReport(offset, violations)


@dataclass
class FanReport:
    pair_ids: tuple[int, ...]
    violations: list = field(default_factory=list)


def fan(a_ids, outside: int, u: Universe) -> FanReport:
    """Pair every element of A with one fixed outside element.

    Verifies the claims the growth argument rests on: each {x, outside} is a
    nontrivial antichain and the pairs are pairwise incomparable.  Violations
    are reported, not raised; an outside element inside A raises
    HypothesisError.
    """
    xs = sorted(set(a_ids))
    if outside in xs:
        raise HypothesisError("the outside element lies in A")
    violations = [("bad_pair", x, outside) for x in xs
                  if u.comparable(x, outside)]
    pair_ids = [u.intern([x, outside]) for x in xs]
    violations += [("fan_comparable", p, q)
                   for p, q in _comparable_pairs(kernels.mask(pair_ids), u)]
    return FanReport(tuple(pair_ids), violations)


def growth_stats(h: Hierarchy) -> list[int]:
    """|levels[a+1] - levels[a]| for each generated a."""
    return [len(h.levels[a + 1]) - len(h.levels[a])
            for a in range(len(h.levels) - 1)]


@dataclass
class GrowthReport:
    level_sizes: list[int]
    growth: list[int]
    fan_sizes: list[int]
    violations: list = field(default_factory=list)


def growth_witness(triple, depth: int, u: Universe,
                   budget: int = DEFAULT_BUDGET) -> GrowthReport:
    """Finite reflection of the unbounded-growth argument.

    From a 3-element antichain {x, y, z}: take the three doubletons as a new
    base, build their tower, and fan each stage whose growth is measured
    against the interned triple {x, y, z} (which stays incomparable to
    everything the doubleton tower generates).  Reports per-stage growth
    (each must be >= 3, which the caller reads off `growth`) and the fan
    violations, tagged with their stage.  The deepest stage is counted but
    not fanned: fanning it would intern one pair per element of a stage
    whose size only matters as a cardinality.
    """
    trip = sorted(set(triple))
    if len(trip) != 3:
        raise HypothesisError("need exactly three elements")
    if not is_antichain(trip, u):
        raise HypothesisError("the three elements must form an antichain")
    a, b, c = trip
    doubles = (u.intern([a, b]), u.intern([a, c]), u.intern([b, c]))
    triple_id = u.intern(trip)
    h = build(doubles, depth, u, budget)
    if not h.complete:
        raise budget_error(h, "doubleton tower exceeded budget")

    fan_sizes = []
    violations = []
    for alpha in range(len(h.levels) - 1):
        report = fan(h.levels[alpha], triple_id, u)
        fan_sizes.append(len(report.pair_ids))
        violations += [("fan", alpha, *v) for v in report.violations]

    return GrowthReport([len(l) for l in h.levels], growth_stats(h),
                        fan_sizes, violations)


# ---------------------------------------------------------------------------
# export

def to_json(h: Hierarchy) -> dict:
    """The tower as a JSON document; a universe with atoms adds its base
    poset, labels and `order.to_json` relation, under `base_poset`."""
    data = {
        "base": list(h.base),
        "levels": [sorted(level) for level in h.levels],
        "budget": h.budget,
        "requested_depth": h.requested_depth,
        "truncated_at": h.truncated_at,
        "universe": h.universe.dump(),
    }
    base = h.universe.base
    if base is not None:
        data["base_poset"] = {"labels": list(base.labels),
                              "order": order_mod.to_json(base.relation)}
    return data


def from_json(data: dict) -> Hierarchy:
    """Reload `to_json` output; the round-trip oracle of `hierarchy export`."""
    try:
        base = None
        if "base_poset" in data:
            base = _base_poset(data["base_poset"])
        u = load(data["universe"], base)
        levels = [frozenset(level) for level in data["levels"]]
        h = Hierarchy(u, tuple(data["base"]), levels, data["budget"],
                      data["requested_depth"], data.get("truncated_at"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad hierarchy JSON: {exc}") from exc
    if not levels or levels[0] != frozenset(h.base):
        raise FormatError("levels[0] must equal the base")
    return h


def _base_poset(data: dict) -> BasePoset:
    try:
        return BasePoset(tuple(data["labels"]),
                         order_mod.from_json(data["order"]))
    except ValueError as exc:
        raise FormatError(f"bad base poset: {exc}") from exc


def dumps(h: Hierarchy) -> str:
    return json.dumps(to_json(h), indent=2, sort_keys=True) + "\n"


def level_dot(h: Hierarchy, alpha: int) -> str:
    """DOT Hasse diagram of stage alpha; nodes carry universe ids."""
    p, ids = materialize(h, alpha)
    return order_mod.to_dot(p, labels={i: str(ids[i]) for i in range(p.n)})
