"""Acceptance gate: eleven pinned criteria, one printed verdict line each.

Each criterion times itself against its stated wall-clock limit and prints
`criterion N: PASS|FAIL` directly to the terminal, bypassing capture, so the
gate is auditable from any pytest run.
"""

import json
import random
import time
from itertools import product as iproduct

from finord import cli, heyting, hierarchy, hsets, kripke, maps, order
from finord.hsets import Universe
from finord.kripke import FiniteBAO
from finord.maps import PointMap
from finord.order import sierpinski
from oracles import (implies_bruteforce, is_pmorphism_via_preimages,
                     opposite_frame)


def _run(capsys, num, limit, body):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except Exception as exc:
        failure = exc
    elapsed = time.perf_counter() - start
    ok = failure is None and elapsed < limit
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} "
              f"[{elapsed:.2f}s, limit {limit:.0f}s]")
    if failure is not None:
        raise failure
    assert elapsed < limit, f"criterion {num} exceeded {limit}s"


def _claw_tower(depth=2):
    u = Universe()
    base = hsets.concrete_claw(u)
    return u, base, hierarchy.build(base, depth, u)


# -- 1: the pictured stages -------------------------------------------------

def _figure_pin():
    u, base, h = _claw_tower()
    m0, m1, m2, m3 = base
    fresh = h.new_at(1)
    assert {frozenset(u.children(x)) for x in fresh} == {
        frozenset({m1, m2}), frozenset({m1, m3}), frozenset({m2, m3}),
        frozenset({m1, m2, m3}),
    }
    d12 = u.peek([m1, m2])
    d13 = u.peek([m1, m3])
    d23 = u.peek([m2, m3])
    t = u.peek([m1, m2, m3])
    pair_sets = u.peek([d12, d13])
    pair_mixed = u.peek([d12, m3])
    assert pair_sets in h.levels[2] and pair_mixed in h.levels[2]

    p1, ids1 = hierarchy.materialize(h, 1)
    edges = {(ids1[i], ids1[j]) for i, j in order.covers(p1)}
    assert edges == {
        (m0, m1), (m0, m2), (m0, m3),
        (m1, d12), (m1, d13), (m2, d12), (m2, d23), (m3, d13), (m3, d23),
        (m1, t), (m2, t), (m3, t),
    }

    p2, ids2 = hierarchy.materialize(h, 2)
    below = {pair_sets: set(), pair_mixed: set()}
    for i, j in order.covers(p2):
        if ids2[j] in below:
            below[ids2[j]].add(ids2[i])
    assert below[pair_sets] == {d12, d13}
    assert below[pair_mixed] == {d12, m3}


def test_criterion_01(capsys):
    _run(capsys, 1, 1.0, _figure_pin)


# -- 2: concrete and abstract modes agree ----------------------------------

def _base_facts_and_agreement():
    u, base, h = _claw_tower()
    m0, m1, m2, m3 = base
    assert u.lt(m0, m1) and u.lt(m0, m2) and u.lt(m0, m3)
    assert hsets.is_antichain([m1, m2, m3], u)
    assert hsets.is_convex(base, u)
    assert hsets.chain_hypothesis(base, u)

    ua = Universe(hsets.base_poset(
        ["m0", "m1", "m2", "m3"],
        [("m0", "m1"), ("m0", "m2"), ("m0", "m3")]))
    abase = tuple(ua.atom(f"m{i}") for i in range(4))
    ha = hierarchy.build(abase, 2, ua)

    phi = dict(zip(base, abase))
    for alpha in (1, 2):
        for x in sorted(h.new_at(alpha)):
            image = ua.peek(sorted(phi[c] for c in u.children(x)))
            assert image is not None
            phi[x] = image
    top = sorted(h.levels[-1])
    assert {phi[x] for x in top} == ha.levels[-1]
    for x in top:
        for y in top:
            assert u.lt(x, y) == ua.lt(phi[x], phi[y])
            assert u.leq(x, y) == ua.leq(phi[x], phi[y])
            assert u.comparable(x, y) == ua.comparable(phi[x], phi[y])


def test_criterion_02(capsys):
    _run(capsys, 2, 1.0, _base_facts_and_agreement)


# -- 3: stage checks with negative controls ---------------------------------

def _stage_suite():
    u, base, h = _claw_tower()
    assert not hierarchy.verify_stage_properties(h).violations

    ua, ids = hsets.abstract_antichain(3)
    hfree = hierarchy.build(ids, 2, ua)
    assert not hierarchy.verify_stage_properties(hfree).violations

    # restriction, equality clause: every nonempty sub-antichain
    for k in range(1, 8):
        sub = tuple(ids[i] for i in range(3) if k >> i & 1)
        # the clause's hypothesis: M inside M', both antichains
        assert set(sub) <= set(ids)
        assert hsets.is_antichain(sub, ua) and hsets.is_antichain(ids, ua)
        rep = hierarchy.verify_restriction(hierarchy.build(sub, 2, ua),
                                           hfree)
        assert not rep.violations, rep.violations

    # restriction, offset clause: doubleton base sits one stage up
    a, b, c = ids
    doubles = (ua.intern([a, b]), ua.intern([a, c]), ua.intern([b, c]))
    rep = hierarchy.verify_restriction(hierarchy.build(doubles, 2, ua), hfree)
    assert rep.offset == 1
    assert not rep.violations, rep.violations

    # corrupted fixtures must be caught
    u1, base1, h1 = _claw_tower()
    h1.levels[1] = h1.levels[1] - {u1.peek([base1[1], base1[2], base1[3]])}
    assert any(v[0] == "fresh_comparable"
               for v in hierarchy.verify_stage_properties(h1).violations)

    u2, base2, h2 = _claw_tower()
    h2.levels[1] = h2.levels[1] - {base2[0]}
    assert any(v[0] == "not_downset"
               for v in hierarchy.verify_stage_properties(h2).violations)

    u3, base3, h3 = _claw_tower()
    d12 = u3.peek([base3[1], base3[2]])
    d13 = u3.peek([base3[1], base3[3]])
    h3.levels[1] = h3.levels[1] | {u3.peek([d12, d13])}
    assert any(v[0] == "fresh_comparable"
               for v in hierarchy.verify_stage_properties(h3).violations)


def test_criterion_03(capsys):
    _run(capsys, 3, 10.0, _stage_suite)


# -- 4: growth of the doubleton tower ---------------------------------------

def _growth():
    u, ids = hsets.abstract_antichain(3)
    rep = hierarchy.growth_witness(ids, 3, u)
    assert rep.level_sizes == [3, 7, 21, 16739]
    assert rep.growth == [4, 14, 16718]
    assert rep.growth[0] == 4
    assert min(rep.growth) >= 3
    assert rep.fan_sizes == [3, 7, 21]
    assert not rep.violations


def test_criterion_04(capsys):
    _run(capsys, 4, 60.0, _growth)


# -- 5: the three openness conditions agree ----------------------------------

def _openness_equivalence():
    preorders = order.enumerate_preorders(3)
    monotone_seen = 0
    for p in preorders:
        for q in preorders:
            for table in iproduct(range(q.n), repeat=p.n):
                f = PointMap(p, q, table)
                v1 = maps.is_open_v1(f)
                assert v1 == maps.is_open_v2(f) == maps.is_open_v3(f)
                monotone_seen += maps.is_monotone(f)
    assert monotone_seen > 0

    rng = random.Random(2026)
    samples = 10_000
    for _ in range(samples):
        p = order.sample_preorder(rng.choice((4, 5)), rng)
        q = order.sample_preorder(rng.choice((4, 5)), rng)
        f = PointMap(p, q, tuple(rng.randrange(q.n) for _ in range(p.n)))
        v1 = maps.is_open_v1(f)
        assert v1 == maps.is_open_v2(f) == maps.is_open_v3(f)


def test_criterion_05(capsys):
    _run(capsys, 5, 60.0, _openness_equivalence)


# -- 6: injectivity propagates from the base ---------------------------------

def _injectivity_experiment():
    _, _, h = _claw_tower(depth=1)
    total_open = 0
    for p in order.enumerate_posets(5):
        rep = maps.injectivity_report(h, 1, p)
        assert not rep.violations, (p.n, rep.violations)
        total_open += rep.open_maps
    assert total_open > 0


def test_criterion_06(capsys):
    _run(capsys, 6, 300.0, _injectivity_experiment)


# -- 7: obstruction certificates for every small poset -----------------------

def _obstruction_sweep(capsys):
    code = cli.main(["obstruct", "--all-posets", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["posets"] == 24
    assert doc["candidates"] == 310
    assert doc["refuted"] == 310
    for cert in doc["certificates"]:
        assert cert["stage"] <= 2
        assert cert["certificate_kind"] in ("empty_mediating_set",
                                            "cardinality_bound")


def test_criterion_07(capsys):
    _run(capsys, 7, 600.0, lambda: _obstruction_sweep(capsys))


# -- 8: residuation in closed form -------------------------------------------

def _residuation():
    for p in order.enumerate_posets(4):
        alg = heyting.downset_algebra(p)
        for a in alg.elements:
            for b in alg.elements:
                assert alg.implies(a, b) == implies_bruteforce(alg, a, b)
    alg = heyting.downset_algebra(sierpinski())
    assert alg.implies(alg.implies(0b01, 0), 0) == alg.top


def test_criterion_08(capsys):
    _run(capsys, 8, 30.0, _residuation)


# -- 9: the finite duality ----------------------------------------------------

def _duality():
    for p in order.enumerate_posets(5):
        assert heyting.verify_adjunction_unit(p)
    small = order.enumerate_posets(3)
    for p in small:
        for q in small:
            rep = heyting.fullness_report(p, q)
            assert not rep.violations, (p, q, rep.violations)
            assert rep.open_maps == rep.morphisms


def test_criterion_09(capsys):
    _run(capsys, 9, 300.0, _duality)


# -- 10: frames, coreflection, complex algebras -------------------------------

def _preorder_classes(max_n):
    # canonical forms of different sizes differ in length, so one set serves
    classes = []
    seen = set()
    for p in order.enumerate_preorders(max_n):
        canon = order.canonical_form(p)
        if canon not in seen:
            seen.add(canon)
            classes.append(p)
    return classes


def _kripke_suite():
    # open maps are p-morphisms of opposite frames, all functions between
    # all preorder classes on up to four points
    classes = _preorder_classes(4)
    assert len(classes) == 46
    for p in classes:
        fp = opposite_frame(p)
        for q in classes:
            fq = opposite_frame(q)
            for table in iproduct(range(q.n), repeat=p.n):
                a = maps.is_open_v2(PointMap(p, q, table))
                assert a == kripke.is_pmorphism(table, fp, fq)
                assert a == is_pmorphism_via_preimages(table, fp, fq)

    # coreflection universal property: frame classes on up to four states
    # against every labeled preorder on up to three, in one sweep
    preorders = order.enumerate_preorders(3)
    frames = (kripke.frames_up_to_iso(1) + kripke.frames_up_to_iso(2)
              + kripke.frames_up_to_iso(3) + kripke.frames_up_to_iso(4))
    sweep = kripke.verify_coreflections(frames, preorders)
    for f, (_, reports) in zip(frames, sweep, strict=True):
        assert len(reports) == len(preorders)
        for p, rep in zip(preorders, reports):
            assert not rep.violations, (f, p, rep.violations)

    # closure algebra iff preorder, exhaustively then sampled
    for n in (1, 2, 3):
        for f in kripke.enumerate_frames(n):
            assert kripke.closure_iff_preorder(f)
    rng = random.Random(2026)
    for _ in range(10_000):
        assert kripke.closure_iff_preorder(kripke.sample_frame(5, rng))

    # box-diamond inequality, exhaustive pair sweep per sampled algebra
    for _ in range(64):
        a = FiniteBAO(4, tuple(rng.getrandbits(4) for _ in range(4)))
        rep = kripke.box_diamond_report(a)
        assert not rep.violations and rep.pairs_checked == 256
    for _ in range(4):
        a = FiniteBAO(8, tuple(rng.getrandbits(8) for _ in range(8)))
        rep = kripke.box_diamond_report(a)
        assert not rep.violations and rep.pairs_checked == 256 * 256

    # the complex-algebra round trip on every small frame
    for n in (1, 2, 3):
        for f in kripke.enumerate_frames(n):
            assert kripke.verify_bao_adjunction(f)


def test_criterion_10(capsys):
    _run(capsys, 10, 600.0, _kripke_suite)


# -- 11: byte-identical reports -----------------------------------------------

def _determinism(capsys):
    for argv in (
        ["hierarchy", "build", "--base", "thm33"],
        ["verify", "lemma24", "--depth", "1"],
        ["verify", "lemma31", "--max-size", "2", "--samples", "200"],
        ["verify", "bao", "--states", "2", "--samples", "100"],
        ["obstruct", "--all-posets", "3"],
    ):
        code1 = cli.main(argv)
        out1 = capsys.readouterr().out
        code2 = cli.main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["schema"] == 1


def test_criterion_11(capsys):
    _run(capsys, 11, 60.0, lambda: _determinism(capsys))
