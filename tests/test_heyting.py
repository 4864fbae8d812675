"""Downset algebras: residuation, duality with open maps, the adjunction unit."""

import random
from itertools import product as iproduct

import pytest

from finord import heyting, hierarchy, hsets, kernels, maps, order
from finord.errors import BudgetError, HypothesisError
from finord.hsets import Universe
from finord.maps import PointMap
from finord.order import chain, from_pairs, sierpinski
from oracles import implies_bruteforce, relation_iso, sample_poset


def claw_stage(alpha):
    u = Universe()
    base = hsets.concrete_claw(u)
    h = hierarchy.build(base, 2, u)
    stage, _ = hierarchy.materialize(h, alpha)
    return h, stage


def test_sierpinski_algebra():
    alg = heyting.downset_algebra(sierpinski())
    assert alg.elements == (0b00, 0b01, 0b11)
    assert alg.implies(0b01, 0) == 0b00
    assert alg.implies(alg.implies(0b01, 0), 0) == alg.top
    # double negation is not the identity here
    assert alg.implies(alg.implies(0b01, 0), 0) != 0b01


def test_implies_closed_form_exhaustive():
    for p in order.enumerate_posets(4):
        alg = heyting.downset_algebra(p)
        for a in alg.elements:
            for b in alg.elements:
                assert alg.implies(a, b) == implies_bruteforce(alg, a, b)


def test_implies_closed_form_on_samples():
    rng = random.Random(41)
    for _ in range(60):
        alg = heyting.downset_algebra(sample_poset(6, rng))
        for _ in range(40):
            a = rng.choice(alg.elements)
            b = rng.choice(alg.elements)
            assert alg.implies(a, b) == implies_bruteforce(alg, a, b)
            assert not alg.meet(a, alg.implies(a, b)) & ~b


def test_residuation_law():
    three = [p for p in order.enumerate_posets(3) if p.n == 3]
    alg = heyting.downset_algebra(three[4])
    for a, b, x in iproduct(alg.elements, repeat=3):
        assert (not x & ~alg.implies(a, b)) == (not alg.meet(x, a) & ~b)


def test_claw_tower_algebra_counts():
    _, stage0 = claw_stage(0)
    _, stage1 = claw_stage(1)
    assert len(heyting.downset_algebra(stage0).elements) == 9
    alg1 = heyting.downset_algebra(stage1)
    assert len(alg1.elements) == 27
    ji_poset, masks = heyting.join_irreducibles(alg1)
    assert len(masks) == 8
    assert relation_iso(ji_poset.up, stage1.up) is not None


def test_adjunction_unit_small_posets():
    for p in order.enumerate_posets(4):
        assert heyting.verify_adjunction_unit(p)


def test_adjunction_unit_agrees_with_the_oracle():
    # the unit check compares canonical forms; the oracle searches for an
    # isomorphism, to the poset and to its converse, which is not always one
    negatives = 0
    for p in order.enumerate_posets(6):
        ji, _ = heyting.join_irreducibles(heyting.downset_algebra(p))
        assert heyting.verify_adjunction_unit(p) == (
            relation_iso(ji.up, p.up) is not None)
        converse = order.FinitePreorder(p.n, p.down)
        iso = relation_iso(ji.up, converse.up)
        assert (order.canonical_form(ji)
                == order.canonical_form(converse)) == (iso is not None)
        negatives += iso is None
    assert negatives > 0


def test_adjunction_unit_rejects_preorder():
    cyclic = order.FinitePreorder(2, (0b11, 0b11))
    with pytest.raises(HypothesisError):
        heyting.verify_adjunction_unit(cyclic)


def test_preimage_of_open_maps():
    s = sierpinski()
    for p in order.enumerate_posets(3):
        for t in maps.enumerate_open_maps(p, s):
            phi = heyting.preimage_morphism(maps.PointMap(p, s, t))
            assert heyting.is_complete_ha_morphism(phi)


def test_preimage_of_coordinate_map():
    h, stage1 = claw_stage(1)
    phi = heyting.preimage_morphism(maps.coordinate_map(h, 1, 1))
    assert heyting.is_complete_ha_morphism(phi)
    assert len(phi.table) == 3


def test_preimage_rejects_non_open():
    s = sierpinski()
    const1 = PointMap(s, s, (1, 1))
    with pytest.raises(HypothesisError, match="witness"):
        heyting.preimage_morphism(const1)


def test_budget_errors_carry_usage_and_budget():
    # the downsets of a 6-antichain have 6 join-irreducibles, each with 16
    # candidate values among the downsets of a 4-antichain
    six = heyting.downset_algebra(from_pairs(6, ()))
    four = heyting.downset_algebra(from_pairs(4, ()))
    cases = [
        (lambda: heyting.downset_algebra(chain(21)), 21, 20),
        (lambda: heyting.cha_morphisms(six, four), 16 ** 6,
         kernels.NODE_BUDGET),
        (lambda: maps.is_open_v1(PointMap(chain(21), chain(1), (0,) * 21)),
         21, 20),
    ]
    for call, used, budget in cases:
        with pytest.raises(BudgetError) as exc:
            call()
        assert (exc.value.used, exc.value.budget) == (used, budget)


def test_budgets_fire_just_past_their_bound(monkeypatch):
    assert len(heyting.downset_algebra(chain(20)).elements) == 21
    one = heyting.downset_algebra(chain(1))
    # two candidate values for the one join-irreducible
    monkeypatch.setattr(kernels, "NODE_BUDGET", 2)
    assert len(heyting.cha_morphisms(one, one)) == 1
    monkeypatch.setattr(kernels, "NODE_BUDGET", 1)
    with pytest.raises(BudgetError) as exc:
        heyting.cha_morphisms(one, one)
    assert (exc.value.used, exc.value.budget) == (2, 1)


def test_cha_morphisms_match_bruteforce():
    cases = [sierpinski(), chain(2), from_pairs(2, ()), chain(3)]
    for p in cases:
        for q in cases:
            a = heyting.downset_algebra(p)
            b = heyting.downset_algebra(q)
            brute = {
                table
                for table in iproduct(b.elements, repeat=len(a.elements))
                if heyting.is_complete_ha_morphism(
                    heyting.HAMorphism(a, b, table))
            }
            fast = {phi.table for phi in heyting.cha_morphisms(a, b)}
            assert fast == brute, (p, q)


def lexicographic_monotone_assignments(ji_poset, b):
    """The hand-written search cha_morphisms used before it ran on the map
    kernel: ji-monotone tuples of b-elements, built position by position."""
    n = ji_poset.n
    out = []
    cur = [None] * n

    def extend(i):
        if i == n:
            out.append(tuple(cur))
            return
        for v in b.elements:
            ok = all(
                (not ji_poset.up[j] >> i & 1 or not cur[j] & ~v)
                and (not ji_poset.up[i] >> j & 1 or not v & ~cur[j])
                for j in range(i)
            )
            if ok:
                cur[i] = v
                extend(i + 1)
        cur[i] = None

    extend(0)
    return out


def test_monotone_assignments_match_the_lexicographic_search():
    # every poset up to 4 points, and every labeled one up to 3, into the
    # downsets of every poset up to 3 points and of every labeled preorder
    # up to 3, whose bases need not be antisymmetric; the assignments are
    # read off the downsets of a product, whose own order is not the
    # reference's
    algebras = [heyting.downset_algebra(q) for q in
                order.enumerate_posets(3) + order.enumerate_preorders(3)]
    posets = ([p for p in order.enumerate_preorders(3) if p.is_poset]
              + [p for p in order.enumerate_posets(4) if p.n == 4])
    for p in posets:
        ji_poset, _ = heyting.join_irreducibles(heyting.downset_algebra(p))
        for b in algebras:
            assert heyting._monotone_assignments(ji_poset, b) == (
                lexicographic_monotone_assignments(ji_poset, b))


def test_fullness_small_pairs():
    posets = order.enumerate_posets(3)
    for p in posets:
        for q in posets:
            rep = heyting.fullness_report(p, q)
            assert not rep.violations, (p, q, rep.violations)
            assert rep.open_maps == rep.morphisms
