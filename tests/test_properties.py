"""Property tests over generated structures."""

from functools import reduce
from itertools import combinations
from operator import or_

from hypothesis import given, settings, strategies as st

from finord import heyting, kernels, kripke, maps, order
from finord.kripke import FiniteBAO, KripkeFrame
from finord.maps import PointMap
from oracles import implies_bruteforce, is_pmorphism_via_preimages


@st.composite
def comparability_masks(draw, max_n=8):
    """A symmetric, irreflexive relation given as per-element masks."""
    n = draw(st.integers(0, max_n))
    comp = [0] * n
    for i, j in combinations(range(n), 2):
        if draw(st.booleans()):
            comp[i] |= 1 << j
            comp[j] |= 1 << i
    return n, comp


@st.composite
def posets(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .map(lambda t: (min(t), max(t))).filter(lambda t: t[0] != t[1]),
        max_size=n * 2))
    return order.from_pairs(n, pairs)


@st.composite
def frames(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    succ = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    return KripkeFrame(n, succ)


@st.composite
def baos(draw, max_atoms=6):
    atoms = draw(st.integers(1, max_atoms))
    table = tuple(draw(st.integers(0, (1 << atoms) - 1))
                  for _ in range(atoms))
    return FiniteBAO(atoms, table)


@given(comparability_masks())
def test_antichain_kernel_against_set_oracle(case):
    n, comp = case
    masks, hit = kernels.antichains(comp, 1 << n)
    assert not hit
    brute = {
        mask for mask in range(1 << n)
        if bin(mask).count("1") >= 2 and not any(
            comp[i] >> j & 1
            for i in range(n) if mask >> i & 1
            for j in range(n) if mask >> j & 1)
    }
    assert set(masks) == brute
    assert len(masks) == len(brute)


@given(st.integers(0, 8).flatmap(lambda n: st.lists(
    st.integers(0, (1 << n) - 1), max_size=n)))
def test_unions_against_every_subset_union(rows):
    brute = {reduce(or_, subset, 0) for k in range(len(rows) + 1)
             for subset in combinations(rows, k)}
    assert kernels.unions(rows) == sorted(brute)


@given(posets(), st.data())
def test_residuation_is_an_adjunction(p, data):
    alg = heyting.downset_algebra(p)
    a = data.draw(st.sampled_from(alg.elements))
    b = data.draw(st.sampled_from(alg.elements))
    imp = alg.implies(a, b)
    assert imp == implies_bruteforce(alg, a, b)
    for x in alg.elements:
        assert (not x & ~imp) == (not alg.meet(x, a) & ~b)


@given(posets(max_n=5))
def test_join_irreducibles_recover_the_poset(p):
    assert heyting.verify_adjunction_unit(p)


@given(posets(max_n=4), posets(max_n=4), st.data())
def test_openness_conditions_agree(p, q, data):
    table = tuple(data.draw(st.integers(0, q.n - 1)) for _ in range(p.n))
    f = PointMap(p, q, table)
    assert maps.is_open_v1(f) == maps.is_open_v2(f) == maps.is_open_v3(f)


@given(posets(max_n=4), posets(max_n=4), st.data())
def test_open_maps_are_pmorphisms_of_opposites(p, q, data):
    table = tuple(data.draw(st.integers(0, q.n - 1)) for _ in range(p.n))
    fp, fq = kripke.opposite_frame(p), kripke.opposite_frame(q)
    assert (maps.is_open_v2(PointMap(p, q, table))
            == kripke.is_pmorphism(table, fp, fq)
            == is_pmorphism_via_preimages(table, fp, fq))


@given(frames())
def test_coreflection_routes_agree(f):
    assert kripke.coreflect_fixpoint(f) == kripke.coreflect(f).member_mask


@given(frames())
def test_closure_condition_mirrors_preorder_condition(f):
    assert kripke.closure_iff_preorder(f)


@given(frames(max_n=4))
def test_complex_algebra_round_trip(f):
    assert kripke.verify_bao_adjunction(f)


@settings(max_examples=60)
@given(baos(), st.data())
def test_box_diamond_inequality_always_holds(a, data):
    x = data.draw(st.integers(0, a.top))
    y = data.draw(st.integers(0, a.top))
    assert a.box(x) & a.dia(y) & ~a.dia(x & y) == 0
