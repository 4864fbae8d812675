"""Maps between finite preorders: monotonicity, openness, obstruction search.

Openness has three equivalent faces, all implemented and tested against each
other:

- v1: monotone and the image of every downset is a downset;
- v2: f[down(p)] = down(f(p)) for every point p;
- v3: f-preimage of up(q) equals the up closure of the preimage of q, for
  every point q.

v2 and v3 each force monotonicity on their own, so the three agree on all
functions, not just monotone ones.

The obstruction machinery drives the package's headline computation: for a
candidate product object P with projections to the two-point chain, search
each tower stage for an open mediating map compatible with the stage's two
coordinate maps, and certify failure either by exhaustive emptiness or by a
cardinality bound via injectivity.  A sweep over many posets builds each
candidate from a pair of open maps into the two-point chain, prepares each
stage once, and searches each stage once per poset for all of that poset's
candidates still standing, in one batched kernel walk that gives each
candidate its own search's maps and node count.
"""

from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import NamedTuple

from finord import hierarchy as hierarchy_mod
from finord import kernels
from finord import order as order_mod
from finord.errors import BudgetError, HypothesisError
from finord.hsets import chain_hypothesis, is_convex
from finord.order import FinitePreorder, sierpinski


@dataclass(frozen=True)
class PointMap:
    dom: FinitePreorder
    cod: FinitePreorder
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.dom.n:
            raise ValueError("table must cover the whole domain")
        if self.table and (min(self.table) < 0
                           or max(self.table) >= self.cod.n):
            raise ValueError("table value outside codomain")


def all_functions(p: FinitePreorder, q: FinitePreorder):
    """Every function p -> q, ascending table order."""
    for table in iproduct(range(q.n), repeat=p.n):
        yield PointMap(p, q, table)


def is_monotone(f: PointMap) -> bool:
    """No point's up row has an image outside the up row of its value."""
    return not any(kernels.image(f.table, f.dom.up[i]) & ~f.cod.up[v]
                   for i, v in enumerate(f.table))


def is_open_v1(f: PointMap) -> bool:
    """Monotone and images of downsets are downsets.

    A monotone map on more than `order.MAX_DOWNSET_SIZE` points raises the
    BudgetError of `order.all_downsets`.
    """
    if not is_monotone(f):
        return False
    return all(
        order_mod.is_downset(f.cod, kernels.image(f.table, d))
        for d in order_mod.all_downsets(f.dom)
    )


def is_open_v2(f: PointMap) -> bool:
    """Pointwise: image of each principal downset is the principal downset
    of the image point: `kernels.is_open` on down rows."""
    return kernels.is_open(f.table, f.dom.down, f.cod.down)


def is_open_v3(f: PointMap) -> bool:
    """Pointwise on the codomain: preimage of up(q) is the up closure of the
    preimage of q."""
    return all(
        kernels.preimage(f.table, f.cod.up[q]) ==
        kernels.union(f.dom.up, kernels.preimage(f.table, 1 << q))
        for q in range(f.cod.n)
    )


def enumerate_open_maps(p: FinitePreorder, q: FinitePreorder):
    """The tables of the open maps p -> q, in kernels.enumerate_maps order."""
    return kernels.enumerate_maps(p.down, p.up, q.down, q.up)[0]


# ---------------------------------------------------------------------------
# coordinate maps out of a tower stage

def coordinate_map(h, alpha: int, branch: int, materialized=None) -> PointMap:
    """The branch indicator used in the product obstruction.

    For a base with a unique minimum b0 below incomparable tops, the map
    sends b0 and the chosen top to 0 and everything else in stage alpha to 1.
    With the chain hypothesis this is exactly the indicator of the principal
    downset of the chosen top, hence open.
    """
    u = h.universe
    base = h.base
    bottoms = [b for b in base if all(u.leq(b, x) for x in base)]
    if len(bottoms) != 1:
        raise HypothesisError("base needs a unique minimum")
    tops = [x for x in base if x != bottoms[0]]
    if not 1 <= branch <= len(tops):
        raise HypothesisError(f"branch must be in 1..{len(tops)}")
    stage, ids = materialized or hierarchy_mod.materialize(h, alpha)
    chosen = {bottoms[0], tops[branch - 1]}
    s = sierpinski()
    return PointMap(stage, s, tuple(
        0 if ids[i] in chosen else 1 for i in range(stage.n)))


# ---------------------------------------------------------------------------
# injectivity experiment

@dataclass
class InjectivityReport:
    open_maps: int
    injective_on_base: int
    violations: list = field(default_factory=list)


def injectivity_report(h, alpha: int, p: FinitePreorder) -> InjectivityReport:
    """Check that open maps injective on the base stay injective on the stage.

    Enumerates every open map from stage alpha to p; for those whose
    restriction to the base is injective, verifies injectivity on the whole
    stage.  The property is proved under convexity of the base and the chain
    hypothesis, so a base that breaks either raises HypothesisError.
    """
    u = h.universe
    if not (is_convex(h.base, u) and chain_hypothesis(h.base, u)):
        raise HypothesisError("base must be convex and satisfy the chain hypothesis")
    stage, ids = hierarchy_mod.materialize(h, alpha)
    pos = {x: i for i, x in enumerate(ids)}
    base_pos = [pos[m] for m in h.base]
    maps = enumerate_open_maps(stage, p)
    injective = 0
    violations = []
    for t in maps:
        base_vals = [t[i] for i in base_pos]
        if len(set(base_vals)) != len(base_vals):
            continue
        injective += 1
        if len(set(t)) != stage.n:
            violations.append(t)
    return InjectivityReport(len(maps), injective, violations)


# ---------------------------------------------------------------------------
# mediating maps and the product obstruction

def _check_into_sierpinski(f: PointMap, name: str):
    if f.cod != sierpinski():
        raise HypothesisError(f"{name} must land in the two-point chain")
    if not is_open_v2(f):
        raise HypothesisError(f"{name} must be open")


def mediating_search(q: FinitePreorder, f1: PointMap, f2: PointMap,
                     p: FinitePreorder, p1: PointMap, p2: PointMap):
    """All open f: q -> p with p1 o f = f1 and p2 o f = f2.

    Every point's value is pinned to the fiber of its (f1, f2) pair under
    (p1, p2): `kernels.enumerate_pinned` with (p1, p2) as its one
    candidate.  Returns (tables, nodes_examined).
    """
    for f, name in ((f1, "f1"), (f2, "f2"), (p1, "p1"), (p2, "p2")):
        _check_into_sierpinski(f, name)
    if f1.dom != q or f2.dom != q or p1.dom != p or p2.dom != p:
        raise HypothesisError("map domains must match the given preorders")
    found, _, (nodes,) = kernels.enumerate_pinned(
        q.down, q.up, p.down, p.up, _classes(f1, f2),
        _members(p, [p1.table], [p2.table]), 1)
    return found, nodes


def _classes(f1: PointMap, f2: PointMap):
    """Each point's (f1, f2) value pair (a, b), as the fiber index 2 * a + b."""
    return tuple(2 * a + b for a, b in zip(f1.table, f2.table))


class ObstructionVerdict(NamedTuple):
    # cardinality_bound only from a tower of depth 0, where nothing is searched
    certificate_kind: str  # empty_mediating_set | cardinality_bound | non_injective_mediating
    stage: int
    # summed over the stages searched
    candidates_examined: int
    mediating_found: int

    @property
    def refuted(self) -> bool:
        return self.certificate_kind in ("empty_mediating_set", "cardinality_bound")


def product_obstruction(p: FinitePreorder, p1: PointMap, p2: PointMap,
                        h) -> ObstructionVerdict:
    """Certify that (p, p1, p2) cannot mediate the stage coordinate maps.

    Checks that p1 and p2 are open maps from p to the two-point chain, then
    walks the tower's stages 1..depth.  An exhaustively empty mediating set
    refutes at that stage ("empty_mediating_set").  If every stage still
    admits mediating maps, they are all injective on the stage (checked; the
    coordinate pairing is injective on the base and injectivity
    propagates), so the first stage outgrowing |p| refutes by counting
    ("cardinality_bound").  Raises BudgetError when the tower is too shallow
    to reach either certificate, with |p| as its usage and the size of the
    tower's top stage as its budget.  The verdict is the sweep's
    (`product_obstructions`), from its loop run on this one candidate.
    """
    for f, name in ((p1, "p1"), (p2, "p2")):
        _check_into_sierpinski(f, name)
    if p1.dom != p or p2.dom != p:
        raise HypothesisError("map domains must match the given preorders")
    (_, _, _, verdicts), = _sweep(h, [p], [([p1.table], [p2.table])])
    return verdicts[0]


def product_obstructions(h, posets):
    """Yield (i, firsts, seconds, verdicts) for each of the posets.

    firsts and seconds both list the tables of the open maps posets[i] ->
    S, S the two-point chain, in the order of `enumerate_open_maps`;
    verdicts holds product_obstruction's verdict on each pair of them, p1
    outer.  The projections are open by construction, so none is checked
    again.
    Every poset's open maps are enumerated first: a poset with k of them
    makes k * k candidates, and a sweep of more than
    `order.MAX_CANDIDATES` raises BudgetError before its first search.
    """
    s = sierpinski()
    open_maps = [enumerate_open_maps(p, s) for p in posets]
    used = sum(len(opens) ** 2 for opens in open_maps)
    if used > order_mod.MAX_CANDIDATES:
        raise BudgetError("too many candidates for one sweep", stage=1,
                          used=used, budget=order_mod.MAX_CANDIDATES)
    yield from _sweep(h, posets, [(opens, opens) for opens in open_maps])


def _sweep(h, posets, projections):
    """The verdicts of stages 1..h.depth, on projections already checked.

    Yields (i, firsts, seconds, verdicts) per poset, for (firsts, seconds)
    = projections[i], tables into the two-point chain:
    verdicts[len(seconds) * a + b] is the verdict on (firsts[a],
    seconds[b]), whose fibers are the points of posets[i] by value pair
    (a, b), at index 2 * a + b.  A stage is prepared
    (materialized, its coordinate maps built and checked open) the first
    time a candidate reaches it, for this call only.  Each stage is
    searched for all of a poset's candidates still standing by one
    `kernels.enumerate_pinned` call, with those candidates as its lanes in
    the order of `_members`, numbered from 0.  Refutations with equal
    (stage, nodes, maps) share one verdict.  A candidate standing after
    the top stage raises BudgetError before its poset's block, unless some
    stage outgrows its poset.
    """
    stages = []  # (stage, f1, f2, classes) for alpha = 1, 2, ...
    empty = {}  # (stage, maps found) -> nodes -> empty_mediating_set verdict
    for i, (p, (firsts, seconds)) in enumerate(zip(posets, projections)):
        width = len(seconds)
        verdicts = [None] * (len(firsts) * width)
        # the candidates standing -> their (nodes examined, maps found) over
        # the stages before
        standing = dict.fromkeys(range(len(verdicts)), (0, 0))
        members = _members(p, firsts, seconds)
        for alpha in range(1, h.depth + 1):
            if not standing:
                break
            if len(stages) < alpha:
                materialized = hierarchy_mod.materialize(h, alpha)
                f1 = coordinate_map(h, alpha, 1, materialized)
                f2 = coordinate_map(h, alpha, 2, materialized)
                _check_into_sierpinski(f1, "f1")
                _check_into_sierpinski(f2, "f2")
                stages.append((materialized[0], f1, f2, _classes(f1, f2)))
            stage, f1, f2, classes = stages[alpha - 1]
            lanes = list(standing)
            rows = members if alpha == 1 else [
                [sum((m >> j & 1) << k for k, j in enumerate(lanes))
                 for m in row] for row in members]
            found, masks, nodes = kernels.enumerate_pinned(
                stage.down, stage.up, p.down, p.up, classes, rows, len(lanes))
            if alpha == 1:  # all lanes, in order, with nothing found before
                shared = empty.setdefault((1, 0), {})
                for n in set(nodes).difference(shared):
                    shared[n] = ObstructionVerdict("empty_mediating_set", 1,
                                                   n, 0)
                verdicts = list(map(shared.__getitem__, nodes))
            else:
                nodes = [e + n for (e, _), n in zip(standing.values(), nodes)]
                for j, n, (_, total) in zip(lanes, nodes, standing.values()):
                    shared = empty.setdefault((alpha, total), {})
                    verdicts[j] = shared.get(n) or shared.setdefault(
                        n, ObstructionVerdict("empty_mediating_set", alpha,
                                              n, total))
            before, standing = standing, {}
            for k in sorted({i for a in masks for i in kernels.bits(a)}):
                j = lanes[k]
                ts = [t for t, a in zip(found, masks) if a >> k & 1]
                p1, p2 = firsts[j // width], seconds[j % width]
                for t in ts:
                    assert tuple(p1[v] for v in t) == f1.table
                    assert tuple(p2[v] for v in t) == f2.table
                counts = nodes[k], before[j][1] + len(ts)
                if any(len(set(t)) != stage.n for t in ts):
                    verdicts[j] = ObstructionVerdict(
                        "non_injective_mediating", alpha, *counts)
                else:
                    standing[j] = counts
        if standing:
            bound = next((alpha for alpha, level in enumerate(h.levels)
                          if len(level) > p.n), None)
            if bound is None:
                raise BudgetError(
                    "no stage within the tower outgrows the candidate",
                    stage=h.depth, used=p.n, budget=len(h.levels[-1]))
            for j, counts in standing.items():
                verdicts[j] = ObstructionVerdict("cardinality_bound", bound,
                                                 *counts)
        yield i, firsts, seconds, verdicts


def _members(p, firsts, seconds):
    """members[2 * a + b][v]: the candidates (p1, p2) of tables, numbered
    len(seconds) * (index of p1) + (index of p2), that send the point v of
    p to the value pair (a, b)."""
    members = [[0] * p.n for _ in range(4)]
    shift = len(seconds)
    for v in range(p.n):
        cols = [0, 0]  # the indices of the p2 that send v to 0, to 1
        for j, p2 in enumerate(seconds):
            cols[p2[v]] |= 1 << j
        rows = [0, 0]  # bit shift * j for each p1 that sends v to 0, to 1
        for j, p1 in enumerate(firsts):
            rows[p1[v]] |= 1 << shift * j
        # a copy of cols[b] < 2 ** shift per bit of rows[a]: no carries
        members[0][v], members[1][v] = rows[0] * cols[0], rows[0] * cols[1]
        members[2][v], members[3][v] = rows[1] * cols[0], rows[1] * cols[1]
    return members

