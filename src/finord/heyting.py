"""Finite Heyting algebras of downsets and their complete morphisms.

The algebra of downsets of a finite preorder is a complete Heyting algebra:
meet and join are intersection and union, and relative implication has the
closed form

    a -> b = {p : down(p) & a <= b}

which the tests hold to agreement with the brute-force "largest downset x
with a & x <= b".  Open maps contravariantly induce complete morphisms by
preimage; join-irreducibles recover the underlying poset, giving the finite
duality that the verification suites exercise.
"""

from bisect import bisect_left
from dataclasses import dataclass, field

from finord import kernels
from finord import maps as maps_mod
from finord import order as order_mod
from finord.errors import BudgetError, HypothesisError
from finord.order import FinitePreorder


@dataclass(frozen=True)
class DownsetAlgebra:
    base: FinitePreorder
    elements: tuple[int, ...]  # every downset mask, ascending

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return (1 << self.base.n) - 1

    def position(self, a: int) -> int:
        """Index of a downset in `elements`."""
        i = bisect_left(self.elements, a)
        if i == len(self.elements) or self.elements[i] != a:
            raise ValueError(f"{a:b} is not a downset of the base")
        return i

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        return a | b

    def implies(self, a: int, b: int) -> int:
        """Residual: the largest downset x with a & x <= b, in closed form."""
        out = 0
        for p in range(self.base.n):
            if self.base.down[p] & a & ~b == 0:
                out |= 1 << p
        return out


def downset_algebra(p: FinitePreorder) -> DownsetAlgebra:
    """All downsets of p; more than `order.MAX_DOWNSET_SIZE` points raise
    the BudgetError of `order.all_downsets`."""
    return DownsetAlgebra(p, tuple(order_mod.all_downsets(p)))


def _inclusion_order(alg: DownsetAlgebra) -> FinitePreorder:
    """The elements of alg ordered by inclusion, as a preorder on their
    indices in `alg.elements`."""
    return FinitePreorder(len(alg.elements), tuple(
        kernels.mask(v for v, y in enumerate(alg.elements) if not x & ~y)
        for x in alg.elements))


@dataclass(frozen=True)
class HAMorphism:
    dom: DownsetAlgebra
    cod: DownsetAlgebra
    table: tuple[int, ...]  # dom.elements[i] maps to the mask table[i]

    def __call__(self, a: int) -> int:
        return self.table[self.dom.position(a)]


def is_complete_ha_morphism(phi: HAMorphism) -> bool:
    """Bounds, meets, joins, and implication, exhaustively over pairs.

    On a finite algebra binary joins/meets plus both bounds give all complete
    joins/meets, so this is full completeness.
    """
    dom, cod = phi.dom, phi.cod
    if phi(dom.bottom) != cod.bottom or phi(dom.top) != cod.top:
        return False
    if any(v not in cod.elements for v in phi.table):
        return False
    for a in dom.elements:
        for b in dom.elements:
            if phi(dom.meet(a, b)) != cod.meet(phi(a), phi(b)):
                return False
            if phi(dom.join(a, b)) != cod.join(phi(a), phi(b)):
                return False
            if phi(dom.implies(a, b)) != cod.implies(phi(a), phi(b)):
                return False
    return True


def preimage_morphism(f: maps_mod.PointMap) -> HAMorphism:
    """The contravariant morphism O(cod) -> O(dom) of an open map.

    Rejects non-open maps; the error carries a witness pair (a, b) with
    preimage(a -> b) != preimage(a) -> preimage(b) when one exists.
    """
    dom_alg = downset_algebra(f.cod)
    cod_alg = downset_algebra(f.dom)
    if not maps_mod.is_open_v2(f):
        witness = None
        for a in dom_alg.elements:
            for b in dom_alg.elements:
                lhs = kernels.preimage(f.table, dom_alg.implies(a, b))
                pa = kernels.preimage(f.table, a)
                pb = kernels.preimage(f.table, b)
                if (not order_mod.is_downset(f.dom, pa)
                        or lhs != cod_alg.implies(pa, pb)):
                    witness = (a, b)
                    break
            if witness:
                break
        raise HypothesisError(f"map is not open; witness pair: {witness}")
    table = tuple(kernels.preimage(f.table, a) for a in dom_alg.elements)
    return HAMorphism(dom_alg, cod_alg, table)


def join_irreducibles(alg: DownsetAlgebra):
    """The irreducible elements ordered by inclusion, with their masks.

    An element is join-irreducible when it differs from the join of the
    elements strictly below it; for a downset algebra these are exactly the
    principal downsets.  Returns (poset, masks).
    """
    inc = _inclusion_order(alg)
    irr = [u for u, x in enumerate(alg.elements)
           if kernels.union(alg.elements, inc.down[u] & ~(1 << u)) != x]
    up = kernels.restrict([inc.up[u] for u in irr], irr)
    return FinitePreorder(len(irr), up), [alg.elements[u] for u in irr]


def verify_adjunction_unit(p: FinitePreorder) -> bool:
    """The join-irreducible poset of the downset algebra recovers p, up to
    isomorphism: the two have the same `order.canonical_form`."""
    if not p.is_poset:
        raise HypothesisError("the unit isomorphism needs a poset")
    ji, _ = join_irreducibles(downset_algebra(p))
    return order_mod.canonical_form(ji) == order_mod.canonical_form(p)


def cha_morphisms(a: DownsetAlgebra, b: DownsetAlgebra):
    """Every complete Heyting morphism a -> b, deterministic order.

    A complete morphism is fixed by its values on join-irreducibles, and in a
    distributive lattice those values must be assigned monotonically; each
    monotone assignment extends by joins and is then verified against the
    full definition.  A brute-force cross-check over all tables lives in the
    test suite for the smallest algebras.  More than `kernels.NODE_BUDGET`
    candidate assignments raise BudgetError before any is built.
    """
    ji_poset, ji = join_irreducibles(a)
    k = len(ji)
    if len(b.elements) ** k > kernels.NODE_BUDGET:
        raise BudgetError("too many candidate assignments",
                          used=len(b.elements) ** k,
                          budget=kernels.NODE_BUDGET)
    out = []
    for assign in _monotone_assignments(ji_poset, b):
        table = []
        for x in a.elements:
            v = b.bottom
            for j in range(k):
                if not ji[j] & ~x:
                    v = b.join(v, assign[j])
            table.append(v)
        phi = HAMorphism(a, b, tuple(table))
        if is_complete_ha_morphism(phi):
            out.append(phi)
    return out


def _monotone_assignments(ji_poset: FinitePreorder, b: DownsetAlgebra):
    """All ji-monotone tuples of b-elements, lexicographic order.

    A monotone map J -> D(P) is a downset of the product of J reversed with
    P, b's base: row j of the downset, its points (j, p), is j's value.
    The downsets are the unions of the product's down rows, as many as the
    assignments, which `cha_morphisms` bounds first.
    """
    n = b.base.n
    prod = order_mod.product(FinitePreorder(ji_poset.n, ji_poset.down), b.base)
    return sorted(tuple(d >> j * n & b.top for j in range(ji_poset.n))
                  for d in kernels.unions(prod.down))


@dataclass
class FullnessReport:
    open_maps: int
    morphisms: int
    violations: list = field(default_factory=list)


def fullness_report(p: FinitePreorder, q: FinitePreorder) -> FullnessReport:
    """Open maps p -> q biject with complete morphisms O(q) -> O(p).

    Both sides enumerated exhaustively; the preimage functor must be
    injective on the open maps and hit every enumerated morphism.
    """
    opens = maps_mod.enumerate_open_maps(p, q)
    images = [preimage_morphism(maps_mod.PointMap(p, q, t)).table
              for t in opens]
    alg_q = downset_algebra(q)
    alg_p = downset_algebra(p)
    morphs = [phi.table for phi in cha_morphisms(alg_q, alg_p)]
    violations = []
    if len(opens) != len(morphs):
        violations.append("open maps and morphisms differ in number")
    if len(set(images)) != len(images):
        violations.append("preimage functor not injective on open maps")
    if set(images) != set(morphs):
        violations.append("preimage images differ from enumerated morphisms")
    return FullnessReport(len(opens), len(morphs), violations)
