"""Frames, p-morphisms, the preorder coreflection, and complex algebras."""

import random
import time
from itertools import permutations, product as iproduct

import pytest

from finord import kernels, kripke, maps, order
from finord.errors import BudgetError
from finord.kripke import FiniteBAO, KripkeFrame
from finord.maps import PointMap
from finord.order import sierpinski
from oracles import (bao_join_by_scan, coreflect_by_upsets,
                     is_pmorphism_via_preimages, opposite_frame, upsets)


def all_frames(n):
    return kripke.enumerate_frames(n)


def test_frame_validation():
    with pytest.raises(ValueError, match="one row per state"):
        KripkeFrame(2, (0b01,))
    # (0b01, -1) has its largest row inside the carrier
    for n, succ in ((1, (0b10,)), (2, (0b11, 0b100)), (1, (-1,)),
                    (2, (0b01, -1))):
        with pytest.raises(ValueError,
                           match="relation mentions states outside"):
            KripkeFrame(n, succ)
    assert KripkeFrame(0, ()).pred == ()


def test_pred_and_rel():
    f = KripkeFrame(2, (0b10, 0b00))
    assert f.succ[0] >> 1 & 1 and not f.succ[1] >> 0 & 1
    assert f.pred == (0b00, 0b01)


def test_opposite_frame_round_trip():
    for p in order.enumerate_preorders(3):
        f = opposite_frame(p)
        assert f.succ == p.down
        assert kripke.is_preorder_on(f, (1 << f.n) - 1)
        back = order.FinitePreorder(f.n, f.succ)
        assert back.down == p.up


def test_open_maps_are_pmorphisms_of_opposite_frames():
    preorders = order.enumerate_preorders(3)
    for p in preorders:
        fp = opposite_frame(p)
        for q in preorders:
            fq = opposite_frame(q)
            for table in iproduct(range(q.n), repeat=p.n):
                is_open = maps.is_open_v2(PointMap(p, q, table))
                route1 = kripke.is_pmorphism(table, fp, fq)
                route2 = is_pmorphism_via_preimages(table, fp, fq)
                assert is_open == route1 == route2


def test_pmorphism_routes_agree_on_arbitrary_frames():
    rng = random.Random(47)
    for _ in range(400):
        f = kripke.sample_frame(4, rng)
        g = kripke.sample_frame(3, rng)
        table = tuple(rng.randrange(g.n) for _ in range(f.n))
        assert (kripke.is_pmorphism(table, f, g)
                == is_pmorphism_via_preimages(table, f, g))


def test_pmorphisms_enumeration():
    f = opposite_frame(sierpinski())
    tables = kripke.pmorphisms(f, f)
    assert (0, 1) in tables
    assert all(kripke.is_pmorphism(t, f, f) for t in tables)


def test_pmorphisms_match_the_is_pmorphism_filter(monkeypatch):
    # every labeled frame on up to two states into every one on up to three
    sources = [f for n in (1, 2) for f in all_frames(n)]
    targets = sources + all_frames(3)
    for f in sources:
        for g in targets:
            expected = tuple(t for t in iproduct(range(g.n), repeat=f.n)
                             if kripke.is_pmorphism(t, f, g))
            assert kripke.pmorphisms(f, g) == expected, (f, g)
    # seeded 3- and 4-state sources, where the search prunes, into targets
    # on 1..3 states; the sample must hold irreflexive states,
    # non-transitive relations and pairs with p-morphisms
    rng = random.Random(73)
    irreflexive = intransitive = found = 0
    for _ in range(300):
        f = kripke.sample_frame(rng.choice((3, 4)), rng,
                                rng.choice((0.3, 0.6, 0.9)))
        g = kripke.sample_frame(rng.randint(1, 3), rng,
                                rng.choice((0.3, 0.6, 0.9)))
        expected = tuple(t for t in iproduct(range(g.n), repeat=f.n)
                         if kripke.is_pmorphism(t, f, g))
        assert kripke.pmorphisms(f, g) == expected, (f, g)
        irreflexive += any(not f.succ[x] >> x & 1 for x in range(f.n))
        intransitive += any(f.succ[y] & ~f.succ[x] for x in range(f.n)
                            for y in range(f.n) if f.succ[x] >> y & 1)
        found += bool(expected)
    assert irreflexive and intransitive and found
    # empty relations: every one of the 3**2 functions is a p-morphism
    f, g = all_frames(2)[0], all_frames(3)[0]
    monkeypatch.setattr(kernels, "NODE_BUDGET", 9)
    assert len(kripke.pmorphisms(f, g)) == 9
    monkeypatch.setattr(kernels, "NODE_BUDGET", 8)
    with pytest.raises(BudgetError) as exc:
        kripke.pmorphisms(f, g)
    assert (exc.value.used, exc.value.budget) == (9, 8)


def test_budget_errors_carry_usage_and_budget():
    # 8 ** 8 functions between 8-state frames
    f8 = KripkeFrame(8, (0,) * 8)
    cases = [
        (lambda: kripke.pmorphisms(f8, f8), 8 ** 8, kernels.NODE_BUDGET),
        (lambda: kripke.fullness_frames_report(f8, f8), 8 ** 8,
         kernels.NODE_BUDGET),
        (lambda: kripke.enumerate_frames(5), 1 << 25, 1 << 20),
        (lambda: kripke.frames_up_to_iso(5), 1 << 25, 1 << 20),
        (lambda: kripke.box_diamond_report(FiniteBAO(9, (0,) * 9)), 9, 8),
    ]
    for call, used, budget in cases:
        with pytest.raises(BudgetError) as exc:
            call()
        assert (exc.value.used, exc.value.budget) == (used, budget)


def test_coreflect_and_bao_L_scale_past_the_subset_count():
    # a 12-point chain, 6 irreflexive states and 6 reflexive states that see
    # the chain's top but not below it: 2 ** 24 subsets, none scanned
    succ = tuple([(1 << x + 1) - 1 for x in range(12)] + [0] * 6
                 + [1 << x | 1 << 11 for x in range(18, 24)])
    f = KripkeFrame(24, succ)
    start = time.perf_counter()
    cor = kripke.coreflect(f)
    assert time.perf_counter() - start < 0.1
    assert cor.member_mask == kripke.coreflect_fixpoint(f) == (1 << 12) - 1
    rng = random.Random(67)
    a = FiniteBAO(24, tuple(rng.getrandbits(24) for _ in range(24)))
    start = time.perf_counter()
    g = kripke.bao_L(a)
    assert time.perf_counter() - start < 0.1
    assert (g.n, g.succ) == (24, kernels.transpose(a.dia_atom))


def test_coreflect_matches_the_upset_oracle():
    frames = [f for n in (1, 2, 3) for f in all_frames(n)]
    for f in frames + kripke.frames_up_to_iso(4):
        mask = kripke.coreflect(f).member_mask
        assert mask == coreflect_by_upsets(f), f
        assert kripke.is_preorder_on(f, mask)


def test_bao_join_scan_reaches_top():
    # bao_L takes every atom as a state because this scan always joins to top
    algebras = [kripke.complex_algebra(f) for n in (1, 2, 3)
                for f in all_frames(n)]
    rng = random.Random(71)
    for _ in range(200):
        atoms = rng.randint(0, 8)
        algebras.append(FiniteBAO(atoms, tuple(rng.getrandbits(atoms)
                                               for _ in range(atoms))))
    for a in algebras:
        assert bao_join_by_scan(a) == a.top, a


def test_coreflect_drops_irreflexive_state():
    f = KripkeFrame(2, (0b10, 0b10))
    cor = kripke.coreflect(f)
    assert cor.members == (1,)
    assert cor.member_mask == 0b10
    assert cor.preorder == order.singleton()


def test_coreflect_fixes_preorder_frames():
    for p in order.enumerate_preorders(3):
        cor = kripke.coreflect(opposite_frame(p))
        assert cor.member_mask == (1 << p.n) - 1
        assert cor.preorder == p


def test_fixpoint_matches_definition_exhaustively():
    for n in (1, 2, 3):
        for f in all_frames(n):
            assert kripke.coreflect_fixpoint(f) == kripke.coreflect(f).member_mask


def test_coreflection_universal_property_small():
    preorders = order.enumerate_preorders(2)
    for f in all_frames(2):
        cor, reports = kripke.verify_coreflection(f, preorders)
        assert cor == kripke.coreflect(f)
        assert len(reports) == len(preorders)
        for p, report in zip(preorders, reports):
            assert not report.violations, (f, p, report.violations)


def test_upsets_are_the_masks_closed_under_succ():
    for n in (1, 2, 3):
        for f in all_frames(n):
            closed = [m for m in range(1 << n)
                      if not kernels.union(f.succ, m) & ~m]
            assert upsets(f) == closed


def test_coreflection_routes_are_independent(monkeypatch):
    # a planted coreflection whose preorder is R on the members, not its
    # converse: the open route reads that preorder, the frame route reads
    # f's rows, so every p-morphism is flagged by both checks
    def unconversed(f):
        members = tuple(range(f.n))
        up = kernels.restrict([f.succ[a] for a in members], members)
        return kripke.Coreflection(members, order.FinitePreorder(f.n, up),
                                   (1 << f.n) - 1)

    monkeypatch.setattr(kripke, "coreflect", unconversed)
    f = KripkeFrame(2, (0b11, 0b10))
    _, reports = kripke.verify_coreflection(f, order.enumerate_preorders(2))
    kinds = [kind for r in reports for kind, _ in r.violations]
    assert sum(r.pmorphisms for r in reports) == 7
    assert kinds.count("route_disagreement") == 7
    assert kinds.count("corestriction_not_open") == 7


def test_closure_iff_preorder_exhaustive():
    for n in (1, 2, 3):
        assert all(kripke.closure_iff_preorder(f) for f in all_frames(n))


def test_complex_algebra_of_sierpinski_frame():
    a = kripke.complex_algebra(opposite_frame(sierpinski()))
    assert a.dia(0b01) == 0b11
    assert a.box(0b10) == 0b00
    assert kripke.is_closure_algebra(a)


def test_bao_validation():
    with pytest.raises(ValueError):
        FiniteBAO(2, (0b01,))
    with pytest.raises(ValueError):
        FiniteBAO(1, (0b10,))


def test_box_diamond_exhaustive():
    rng = random.Random(53)
    for _ in range(30):
        a = FiniteBAO(3, tuple(rng.getrandbits(3) for _ in range(3)))
        report = kripke.box_diamond_report(a)
        assert not report.violations
        assert report.pairs_checked == 64


def test_box_diamond_refuses_above_cutoff():
    rng = random.Random(59)
    a = FiniteBAO(9, tuple(rng.getrandbits(9) for _ in range(9)))
    with pytest.raises(BudgetError) as exc:
        kripke.box_diamond_report(a)
    assert (exc.value.used, exc.value.budget) == (9, 8)


def test_bao_round_trip_exhaustive():
    for n in (1, 2, 3):
        for f in all_frames(n):
            assert kripke.verify_bao_adjunction(f)


def test_bao_L_recovers_relation():
    rng = random.Random(61)
    for _ in range(50):
        a = FiniteBAO(4, tuple(rng.getrandbits(4) for _ in range(4)))
        g = kripke.bao_L(a)
        assert g.n == a.atoms
        assert g.pred == a.dia_atom


def _frames_up_to_iso_by_key(n):
    # oracle: canonicalize every labeled frame, keep each key's first frame
    seen = {}
    for f in kripke.enumerate_frames(n):
        key = min(
            tuple(_permuted_row(f.succ[p[i]], p, n) for i in range(n))
            for p in permutations(range(n)))
        seen.setdefault(key, f)
    return [seen[k] for k in sorted(seen)]


def _permuted_row(row, p, n):
    return sum(1 << j for j in range(n) if row >> p[j] & 1)


def test_frames_up_to_iso_matches_the_key_route(monkeypatch):
    for n in (1, 2, 3):
        assert kripke.frames_up_to_iso(n) == _frames_up_to_iso_by_key(n)
    monkeypatch.setattr(kripke, "RELATION_BUDGET", 512)
    assert len(kripke.enumerate_frames(3)) == 512
    monkeypatch.setattr(kripke, "RELATION_BUDGET", 511)
    with pytest.raises(BudgetError) as exc:
        kripke.frames_up_to_iso(3)
    assert (exc.value.used, exc.value.budget) == (512, 511)


def test_enumeration_counts():
    assert len(all_frames(1)) == 2
    assert len(all_frames(2)) == 16
    assert [len(kripke.frames_up_to_iso(n)) for n in (1, 2, 3)] == [2, 10, 104]


def test_sample_frame_is_deterministic():
    a = kripke.sample_frame(5, random.Random(7))
    b = kripke.sample_frame(5, random.Random(7))
    assert a == b


def test_fullness_all_two_state_pairs():
    for f in all_frames(2):
        for g in all_frames(2):
            report = kripke.fullness_frames_report(f, g)
            assert not report.violations, (f, g, report.violations)
            assert report.functions == 4


def test_frame_json_round_trip():
    f = KripkeFrame(3, (0b011, 0b010, 0b101))
    assert kripke.frame_to_json(f) == {"size": 3, "relation": "110010101"}
