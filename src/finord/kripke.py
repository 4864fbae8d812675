"""Kripke frames, p-morphisms, the preorder coreflector, and finite BAOs.

A frame is a carrier with an arbitrary relation, stored as successor masks.
Frames generalize preorders: a preorder P corresponds to the frame of its
opposite order (x R y iff y <= x; its successor rows are P's down rows),
under which open maps of preorders and p-morphisms of frames are the same
functions; that bridge is tested exhaustively.

The coreflector extracts the largest R-upset on which the relation is a
preorder, read off the frame's reachability rows.  The complex algebra turns
a frame into a finite Boolean algebra with an additive diamond (stored on
atoms); in the other direction, the algebra's reflexive-transitive core
recovers a frame from the columns of the diamond table, and for powerset
algebras the round trip returns the frame itself.  Neither direction scans
subsets or elements.
"""

from dataclasses import dataclass, field
from itertools import permutations, product as iproduct
from typing import NamedTuple

from finord import kernels
from finord.errors import BudgetError
from finord.kernels import bits
from finord.order import FinitePreorder

# most relations `enumerate_frames` and `frames_up_to_iso` may walk; there
# are 2 ** (n * n) on n states, so n <= 4
RELATION_BUDGET = 1 << 20
# largest algebra whose 4 ** atoms element pairs `box_diamond_report` checks
MAX_BOX_DIAMOND_ATOMS = 8


@dataclass(frozen=True)
class KripkeFrame:
    n: int
    succ: tuple[int, ...]  # succ[i] = {j : i R j}
    # pred[j] = {i : i R j}; every map search and complex algebra reads it,
    # so it is built with the frame
    pred: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.succ) != self.n:
            raise ValueError("succ must have one row per state")
        full = (1 << self.n) - 1
        if min(self.succ, default=0) < 0 or max(self.succ, default=0) > full:
            raise ValueError("relation mentions states outside the carrier")
        object.__setattr__(self, "pred", kernels.transpose(self.succ))


# ---------------------------------------------------------------------------
# p-morphisms

def is_pmorphism(table, f: KripkeFrame, g: KripkeFrame) -> bool:
    """f[R[x]] = S[f(x)] for every state x, by `kernels.is_open`."""
    return kernels.is_open(table, f.succ, g.succ)


def _check_function_space(n_f: int, n_g: int):
    """Raise a BudgetError past `kernels.NODE_BUDGET` functions n_f -> n_g."""
    if n_g ** n_f > kernels.NODE_BUDGET:
        raise BudgetError("function space too large", used=n_g ** n_f,
                          budget=kernels.NODE_BUDGET)


def pmorphisms(f: KripkeFrame, g: KripkeFrame):
    """All p-morphisms f -> g, ascending: `kernels.enumerate_into` with g
    as its one codomain.

    A p-morphism is a map with f[R[x]] = S[f(x)] for every state x, which is
    the kernel's openness test with successor rows as the down rows.
    `kernels.NODE_BUDGET` bounds the function space g.n ** f.n before the
    search starts, and with it the search tree (at most f.n * g.n ** f.n
    nodes), so the walk needs no node budget of its own.
    """
    _check_function_space(f.n, g.n)
    return kernels.enumerate_into(f.succ, f.pred, [(g.succ, g.pred)])[0]


# ---------------------------------------------------------------------------
# coreflection into preorders

@dataclass
class Coreflection:
    members: tuple[int, ...]       # states of Y, ascending
    preorder: FinitePreorder       # converse of R restricted to Y
    member_mask: int


def is_preorder_on(f: KripkeFrame, mask: int) -> bool:
    """R restricted to the states in mask is reflexive and transitive: each
    x in mask has x R x, and the successors in mask of its successors in
    mask are its own."""
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        row = f.succ[low.bit_length() - 1]
        if not row & low or kernels.union(f.succ, row & mask) & mask & ~row:
            return False
    return True


def coreflect(f: KripkeFrame) -> Coreflection:
    """The largest R-upset on which R is a preorder, ordered by converse R.

    Read off the reflexive reachability rows: the members are the union of
    those on which R is a preorder.  Every R-upset is the union of its
    members' rows, and every upset inside a good upset is good, so this is
    the union of all good upsets; and a union of good upsets is good, as a
    state's successors stay in each upset that holds it.
    """
    y = 0
    for row in kernels.closure([r | 1 << i for i, r in enumerate(f.succ)]):
        if is_preorder_on(f, row):
            y |= row
    members = tuple(bits(y))
    # converse: a <= b in the coreflection iff b R a
    up = kernels.restrict([f.pred[a] for a in members], members)
    return Coreflection(members, FinitePreorder(len(members), up), y)


def coreflect_fixpoint(f: KripkeFrame) -> int:
    """Member mask by iterated removal; must match coreflect on all frames.

    Drops states that are irreflexive, escape the candidate set, or head a
    transitivity failure, until stable.
    """
    y = (1 << f.n) - 1
    changed = True
    while changed:
        changed = False
        rest = y
        while rest:
            low = rest & -rest
            rest ^= low
            row = f.succ[low.bit_length() - 1]
            if (not row & low or row & ~y
                    or kernels.union(f.succ, row & y) & y & ~row):
                y ^= low
                changed = True
    return y


class CoreflectionReport(NamedTuple):
    # immutable, so every (frame, preorder) pair with no map shares _NO_MAPS
    pmorphisms: int
    violations: tuple = ()


_NO_MAPS = CoreflectionReport(0)


def verify_coreflection(f: KripkeFrame, preorders):
    """Universal property at desk scale, by exhausting all p-morphisms.

    Returns the coreflection of f and a tuple of one CoreflectionReport per
    preorder p in `preorders`, in order: `verify_coreflections` on f alone.
    """
    return next(verify_coreflections([f], preorders))


def verify_coreflections(frames, preorders):
    """Yield (coreflection, reports) for each frame of `frames`, in order.

    Every p-morphism from a preorder p's opposite frame (successor rows
    p.down) into a frame f must land inside the coreflection and
    corestrict to an open map into the coreflected preorder, one
    `kernels.is_open` call per map; it is a p-morphism into f's subframe
    on the members too iff that subframe's rows are the preorder's down
    rows, compared once per frame with a map, and each map inside is a
    "route_disagreement" if they differ.  The factorization is through an
    inclusion, so uniqueness is automatic.  reports is a tuple of one
    CoreflectionReport per preorder of `preorders`, in order.

    The p-morphisms are searched by one `kernels.enumerate_into` walk per
    preorder, from its down and up rows into every frame at once.  Before
    any walk, each preorder's function space into each frame size is
    checked, sizes in the order the frames first have them, as the
    per-frame checks would; so the first BudgetError of that order is
    raised.  Each frame is coreflected; only a frame with some map gets a
    position map and restricted rows, and a pair with no map gets the
    shared `_NO_MAPS`.
    """
    frames, preorders = list(frames), list(preorders)
    for n in dict.fromkeys(f.n for f in frames):
        for p in preorders:
            _check_function_space(p.n, n)
    rows = [(f.succ, f.pred) for f in frames]
    walks = [kernels.enumerate_into(p.down, p.up, rows) for p in preorders]
    # per frame, its tables from each preorder; with no preorder, none
    per_frame = zip(*walks) if walks else [()] * len(frames)
    no_maps = (_NO_MAPS,) * len(preorders)
    for f, found in zip(frames, per_frame):
        cor = coreflect(f)
        if not any(found):
            yield cor, no_maps
            continue
        pos = {x: k for k, x in enumerate(cor.members)}
        # the frame route: f's rows on the members are cor's down rows
        sub = kernels.restrict([f.succ[a] for a in cor.members], cor.members)
        disagree = sub != cor.preorder.down
        reports = []
        for p, tables in zip(preorders, found):
            violations = []
            for table in tables:
                if kernels.mask(table) & ~cor.member_mask:
                    violations.append(("image_escapes", table))
                    continue
                if disagree:
                    violations.append(("route_disagreement", table))
                g = tuple(map(pos.__getitem__, table))
                if not kernels.is_open(g, p.down, cor.preorder.down):
                    violations.append(("corestriction_not_open", table))
            reports.append(CoreflectionReport(len(tables), tuple(violations))
                           if tables else _NO_MAPS)
        yield cor, tuple(reports)


# ---------------------------------------------------------------------------
# complex algebras and finite BAOs

@dataclass(frozen=True)
class FiniteBAO:
    """Powerset Boolean algebra over `atoms` generators with an additive
    diamond given on atoms and extended by unions."""

    atoms: int
    dia_atom: tuple[int, ...]

    def __post_init__(self):
        if len(self.dia_atom) != self.atoms:
            raise ValueError("diamond table must cover all atoms")
        full = (1 << self.atoms) - 1
        if any(row & ~full for row in self.dia_atom):
            raise ValueError("diamond row outside the carrier")

    @property
    def top(self) -> int:
        return (1 << self.atoms) - 1

    def dia(self, a: int) -> int:
        return kernels.union(self.dia_atom, a)

    def box(self, a: int) -> int:
        return self.dia(self.top & ~a) ^ self.top


def complex_algebra(f: KripkeFrame) -> FiniteBAO:
    """Powerset algebra with diamond = R-preimage."""
    return FiniteBAO(f.n, f.pred)


def is_closure_algebra(a: FiniteBAO) -> bool:
    """a <= dia(a) and dia(dia(a)) <= dia(a); atom checks suffice by
    additivity."""
    for u in range(a.atoms):
        d = a.dia_atom[u]
        if not d >> u & 1:
            return False
        if a.dia(d) & ~d:
            return False
    return True


def closure_iff_preorder(f: KripkeFrame) -> bool:
    """The biconditional itself; True means the two sides agree."""
    return (is_preorder_on(f, (1 << f.n) - 1)
            == is_closure_algebra(complex_algebra(f)))


@dataclass
class BoxDiamondReport:
    pairs_checked: int
    violations: list = field(default_factory=list)


def box_diamond_report(a: FiniteBAO) -> BoxDiamondReport:
    """box(x) & dia(y) <= dia(x & y) over all pairs.

    The inequality holds in every BAO, so any violation is an implementation
    bug surfacing.  Above MAX_BOX_DIAMOND_ATOMS atoms raises BudgetError.
    """
    if a.atoms > MAX_BOX_DIAMOND_ATOMS:
        raise BudgetError("pair scan beyond the cap", used=a.atoms,
                          budget=MAX_BOX_DIAMOND_ATOMS)
    violations = []
    space = range(1 << a.atoms)
    for x in space:
        for y in space:
            if a.box(x) & a.dia(y) & ~a.dia(x & y):
                violations.append((x, y))
    return BoxDiamondReport(len(space) ** 2, violations)


def bao_L(a: FiniteBAO) -> KripkeFrame:
    """Frame recovered from the algebra's reflexive part.

    s joins every element below its own box (finite carriers make the
    spatiality side conditions automatic); the frame lives on the atoms
    under s with x R y iff x <= s & dia(y).  The diamond is a union over
    atoms, so dia(0) = 0 and box(top) = top: s is top, every atom is a
    state, and x R y iff x lies in dia of the atom y, a column of the
    diamond table.
    """
    return KripkeFrame(a.atoms, kernels.transpose(a.dia_atom))


def verify_bao_adjunction(f: KripkeFrame) -> bool:
    """bao_L(complex_algebra(f)) is f itself: the transpose of `f.pred` is
    `f.succ`, so the round trip relabels nothing and equality is the
    isomorphism test."""
    return bao_L(complex_algebra(f)) == f


# ---------------------------------------------------------------------------
# frame enumeration, sampling

def check_relation_budget(n: int):
    """Raise the BudgetError that enumerating the frames on n states would.

    There are 2 ** (n * n) relations on n states, and more than
    RELATION_BUDGET of them raise.  `enumerate_frames` and
    `frames_up_to_iso` raise it before they build any frame; a caller
    walking sizes 1..n checks n first, so no smaller size is enumerated in
    vain.
    """
    if (1 << n * n) > RELATION_BUDGET:
        raise BudgetError("too many relations", used=1 << n * n,
                          budget=RELATION_BUDGET)


def enumerate_frames(n: int):
    """All labeled frames on n states, relation bits ascending."""
    check_relation_budget(n)
    full = (1 << n) - 1
    return [KripkeFrame(n, tuple(code >> i * n & full for i in range(n)))
            for code in range(1 << n * n)]


def frames_up_to_iso(n: int):
    """One representative per isomorphism class of n-state frames.

    The representative is the class's first labeled frame in relation-bit
    order: frames are walked in that order, and each unmarked one marks its
    whole relabeling orbit.  Classes are listed by their canonical key, the
    least row tuple in the orbit.
    """
    check_relation_budget(n)
    full = (1 << n) - 1
    # per relabeling p: the row map (state j of the image is state p[j])
    # and the row order (image row i is source row p[i])
    perms = []
    for p in permutations(range(n)):
        row_map = [0] * (1 << n)
        for row in range(1 << n):
            for j in range(n):
                if row >> p[j] & 1:
                    row_map[row] |= 1 << j
        perms.append((p, row_map))
    marked = bytearray(1 << n * n)
    classes = []
    for code in range(1 << n * n):
        if marked[code]:
            continue
        succ = [(code >> i * n) & full for i in range(n)]
        images = [tuple(row_map[succ[p[i]]] for i in range(n))
                  for p, row_map in perms]
        for image in images:
            marked[sum(row << i * n for i, row in enumerate(image))] = 1
        classes.append((min(images), KripkeFrame(n, tuple(succ))))
    classes.sort(key=lambda c: c[0])
    return [f for _, f in classes]


def sample_frame(n: int, rng, density: float = 0.4) -> KripkeFrame:
    return KripkeFrame(n, tuple(
        sum(1 << j for j in range(n) if rng.random() < density)
        for _ in range(n)))


# ---------------------------------------------------------------------------
# powerset functor fullness

@dataclass
class FrameFullnessReport:
    functions: int
    violations: list = field(default_factory=list)


def fullness_frames_report(f: KripkeFrame, g: KripkeFrame
                           ) -> FrameFullnessReport:
    """Preimages of p-morphisms are exactly the diamond-preserving preimages.

    For every function f -> g: the preimage map powerset(g) -> powerset(f)
    is always a complete Boolean morphism, so membership in the BAO-morphism
    side reduces to preserving the diamond on every element; that must
    coincide with being a p-morphism, function by function.  The loop over
    all functions is the check itself: the two definitions are compared on
    the functions that are not p-morphisms too, so no map search can stand
    in for it.  `kernels.NODE_BUDGET` bounds the function space.
    """
    _check_function_space(f.n, g.n)
    ca_f, ca_g = complex_algebra(f), complex_algebra(g)
    count = 0
    violations = []
    for table in iproduct(range(g.n), repeat=f.n):
        count += 1
        preserves = all(
            kernels.preimage(table, ca_g.dia(b))
            == ca_f.dia(kernels.preimage(table, b))
            for b in range(1 << g.n)
        )
        if is_pmorphism(table, f, g) != preserves:
            violations.append(table)
    return FrameFullnessReport(count, violations)


# ---------------------------------------------------------------------------
# serialization

def frame_to_json(f: KripkeFrame) -> dict:
    """Row-major relation bit string; char i*n+j is '1' iff i R j."""
    return {"size": f.n, "relation": kernels.row_string(f.succ)}

