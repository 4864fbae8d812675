"""Monotone and open maps, coordinate indicators, the product obstruction."""

import random
from itertools import product as iproduct

import pytest

from finord import heyting, hierarchy, hsets, kernels, maps, order
from finord.errors import BudgetError, HypothesisError
from finord.hsets import Universe
from finord.maps import PointMap
from finord.order import sierpinski
from oracles import is_monotone_pairwise, swept


def claw_tower(depth=2):
    u = Universe()
    base = hsets.concrete_claw(u)
    return u, base, hierarchy.build(base, depth, u)


def test_pointmap_validation():
    p, q = sierpinski(), order.chain(3)
    with pytest.raises(ValueError, match="table must cover the whole domain"):
        PointMap(p, q, (0,))
    # (-1, 0) has its largest value inside the codomain
    for table in ((0, 3), (-1, 0), (2, -1), (-3, 5)):
        with pytest.raises(ValueError, match="table value outside codomain"):
            PointMap(p, q, table)
    assert PointMap(p, q, (0, 2)).table == (0, 2)
    empty = order.FinitePreorder(0, ())
    assert PointMap(empty, empty, ()).table == ()


def all_openness_verdicts(f):
    return (maps.is_open_v1(f), maps.is_open_v2(f), maps.is_open_v3(f))


def compose(g, f):
    """g after f."""
    assert f.cod == g.dom
    return PointMap(f.dom, g.cod, tuple(g.table[v] for v in f.table))


def product_with_projections(p, q):
    """Componentwise product and its two projection maps."""
    prod = order.product(p, q)
    proj1 = PointMap(prod, p, tuple(i // q.n for i in range(prod.n)))
    proj2 = PointMap(prod, q, tuple(i % q.n for i in range(prod.n)))
    return prod, proj1, proj2


def test_identity_and_constants_on_sierpinski():
    s = sierpinski()
    assert all(all_openness_verdicts(PointMap(s, s, tuple(range(s.n)))))
    const0 = PointMap(s, s, (0, 0))
    const1 = PointMap(s, s, (1, 1))
    assert all(all_openness_verdicts(const0))
    assert not any(all_openness_verdicts(const1))


def test_openness_conditions_agree_exhaustively_small():
    preorders = order.enumerate_preorders(2)
    for p in preorders:
        for q in preorders:
            for f in maps.all_functions(p, q):
                v1, v2, v3 = all_openness_verdicts(f)
                assert v1 == v2 == v3, (p, q, f.table)


def test_openness_conditions_agree_on_samples():
    rng = random.Random(29)
    for _ in range(800):
        p = order.sample_preorder(rng.choice((3, 4, 5)), rng)
        q = order.sample_preorder(rng.choice((3, 4, 5)), rng)
        table = tuple(rng.randrange(q.n) for _ in range(p.n))
        v1, v2, v3 = all_openness_verdicts(PointMap(p, q, table))
        assert v1 == v2 == v3


def test_is_monotone_matches_the_pairwise_definition():
    preorders = order.enumerate_preorders(3)
    verdicts = set()
    for p in preorders:
        for q in preorders:
            for f in maps.all_functions(p, q):
                verdicts.add(maps.is_monotone(f))
                assert maps.is_monotone(f) == is_monotone_pairwise(f), f
    assert verdicts == {True, False}


def test_open_implies_monotone():
    rng = random.Random(31)
    for _ in range(300):
        p = order.sample_preorder(4, rng)
        q = order.sample_preorder(4, rng)
        f = PointMap(p, q, tuple(rng.randrange(q.n) for _ in range(p.n)))
        if maps.is_open_v2(f):
            assert maps.is_monotone(f)


def test_enumerations_respect_composition():
    s = sierpinski()
    p = order.product(s, s)
    opens = [PointMap(p, s, t) for t in maps.enumerate_open_maps(p, s)]
    assert all(maps.is_open_v2(f) for f in opens)
    for f in opens:
        for t in maps.enumerate_open_maps(s, s):
            g = PointMap(s, s, t)
            assert maps.is_open_v2(compose(g, f))


def test_returned_tables_are_the_open_maps_by_brute_force():
    # the tables enumerate_open_maps and mediating_search return, against
    # every function (every function through the fibers, for a mediating
    # search): each builds a valid PointMap and is open, and none is missing
    small = order.enumerate_posets(3)
    for p in order.enumerate_posets(4):
        for q in small:
            tables = maps.enumerate_open_maps(p, q)
            assert all(maps.is_open_v2(PointMap(p, q, t)) for t in tables)
            assert sorted(tables) == [f.table for f in maps.all_functions(p, q)
                                      if maps.is_open_v2(f)], (p, q)
    # stage 1 into itself has candidates with mediating maps
    _, _, h = claw_tower(depth=1)
    stage, _ = hierarchy.materialize(h, 1)
    f1, f2 = maps.coordinate_map(h, 1, 1), maps.coordinate_map(h, 1, 2)
    s = sierpinski()
    found_any = 0
    for p in small + [stage]:
        opens = [PointMap(p, s, t) for t in maps.enumerate_open_maps(p, s)]
        for p1 in opens:
            for p2 in opens:
                pairs = list(zip(p1.table, p2.table))
                fibers = [[x for x in range(p.n) if pairs[x] == (a, b)]
                          for a, b in zip(f1.table, f2.table)]
                brute = [t for t in iproduct(*fibers)
                         if maps.is_open_v2(PointMap(stage, p, t))]
                found, _ = maps.mediating_search(stage, f1, f2, p, p1, p2)
                assert all(maps.is_open_v2(PointMap(stage, p, t))
                           for t in found)
                assert sorted(found) == brute, (p, p1.table, p2.table)
                found_any += len(found)
    assert found_any == 6


def test_coordinate_maps_are_open_at_every_stage(monkeypatch):
    _, _, h = claw_tower()
    # v1 enumerates the downsets of stage 2, which has 22 points
    monkeypatch.setattr(order, "MAX_DOWNSET_SIZE", 22)
    for alpha in (0, 1, 2):
        for branch in (1, 2, 3):
            f = maps.coordinate_map(h, alpha, branch)
            assert all(all_openness_verdicts(f))


def test_coordinate_map_rejects_bad_branch():
    _, _, h = claw_tower()
    with pytest.raises(HypothesisError):
        maps.coordinate_map(h, 1, 4)


def test_pairing_values_separate_the_base():
    _, _, h = claw_tower()
    _, ids = hierarchy.materialize(h, 0)
    f1 = maps.coordinate_map(h, 0, 1)
    f2 = maps.coordinate_map(h, 0, 2)
    pos = {x: i for i, x in enumerate(ids)}
    assert [(f1.table[pos[m]], f2.table[pos[m]]) for m in h.base] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]


def test_base_pairing_is_monotone_but_not_open():
    # the unique commuting candidate into the square factors the coordinate
    # pair; it is monotone yet fails openness at the third top
    _, base, h = claw_tower()
    s = sierpinski()
    prod, p1, p2 = product_with_projections(s, s)
    stage, ids = hierarchy.materialize(h, 0)
    f1 = maps.coordinate_map(h, 0, 1)
    f2 = maps.coordinate_map(h, 0, 2)
    pairing = PointMap(stage, prod,
                       tuple(a * 2 + b for a, b in zip(f1.table, f2.table)))
    assert compose(p1, pairing).table == f1.table
    assert compose(p2, pairing).table == f2.table
    assert maps.is_monotone(pairing)
    assert not maps.is_open_v2(pairing)
    found, _ = maps.mediating_search(stage, f1, f2, prod, p1, p2)
    assert found == []


def test_mediating_search_finds_identity_on_self():
    _, _, h = claw_tower()
    stage, _ = hierarchy.materialize(h, 1)
    f1 = maps.coordinate_map(h, 1, 1)
    f2 = maps.coordinate_map(h, 1, 2)
    found, _ = maps.mediating_search(stage, f1, f2, stage, f1, f2)
    tables = set(found)
    assert PointMap(stage, stage, tuple(range(stage.n))).table in tables


def test_mediating_search_validates_inputs():
    _, _, h = claw_tower()
    s = sierpinski()
    stage, _ = hierarchy.materialize(h, 1)
    f1 = maps.coordinate_map(h, 1, 1)
    not_open = PointMap(stage, s, tuple(1 for _ in range(stage.n)))
    prod, p1, p2 = product_with_projections(s, s)
    with pytest.raises(HypothesisError):
        maps.mediating_search(stage, f1, not_open, prod, p1, p2)


def test_obstruction_square_refuted_at_stage_one():
    _, _, h = claw_tower()
    s = sierpinski()
    prod, p1, p2 = product_with_projections(s, s)
    verdict = maps.product_obstruction(prod, p1, p2, h)
    assert verdict.certificate_kind == "empty_mediating_set"
    assert verdict.stage == 1
    assert verdict.refuted


def test_obstruction_singleton_refuted():
    _, _, h = claw_tower()
    s = sierpinski()
    p = order.singleton()
    const0 = PointMap(p, s, (0,))
    verdict = maps.product_obstruction(p, const0, const0, h)
    assert verdict.refuted
    assert verdict.certificate_kind == "empty_mediating_set"


def test_obstruction_budget_when_tower_too_shallow():
    u = Universe()
    base = hsets.concrete_claw(u)
    h = hierarchy.build(base, 1, u)
    stage, _ = hierarchy.materialize(h, 1)
    f1 = maps.coordinate_map(h, 1, 1)
    f2 = maps.coordinate_map(h, 1, 2)
    with pytest.raises(BudgetError):
        maps.product_obstruction(stage, f1, f2, h)


def test_sweep_over_the_candidate_cap_raises_before_any_search(monkeypatch):
    # the 2x2 square has 5 open maps into the chain: 25 candidates
    _, _, h = claw_tower()
    square = [order.product(sierpinski(), sierpinski())]
    monkeypatch.setattr(order, "MAX_CANDIDATES", 25)
    assert len(swept(h, square)) == 25
    searches = []
    search = kernels.enumerate_maps

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(kernels, "enumerate_maps", counted)
    monkeypatch.setattr(order, "MAX_CANDIDATES", 24)
    with pytest.raises(BudgetError) as exc:
        next(maps.product_obstructions(h, square))
    assert (exc.value.stage, exc.value.used, exc.value.budget) == (1, 25, 24)
    # the square's open maps were enumerated; no candidate was searched
    assert len(searches) == 1


def test_all_small_posets_refuted_by_stage_one():
    _, _, h = claw_tower()
    s = sierpinski()
    for p in order.enumerate_posets(3):
        opens = [PointMap(p, s, t) for t in maps.enumerate_open_maps(p, s)]
        for p1 in opens:
            for p2 in opens:
                verdict = maps.product_obstruction(p, p1, p2, h)
                assert verdict.refuted
                assert verdict.stage == 1


def oracle_verdict(p, p1, p2, h):
    """The obstruction verdict on the projection tables p1 and p2, rebuilt
    stage by stage from public calls."""
    p1, p2 = PointMap(p, sierpinski(), p1), PointMap(p, sierpinski(), p2)
    examined = found_total = 0
    for alpha in range(1, h.depth + 1):
        stage, _ = hierarchy.materialize(h, alpha)
        f1 = maps.coordinate_map(h, alpha, 1)
        f2 = maps.coordinate_map(h, alpha, 2)
        found, nodes = maps.mediating_search(stage, f1, f2, p, p1, p2)
        injective = all(len(set(t)) == stage.n for t in found)
        examined += nodes
        found_total += len(found)
        if not found:
            return maps.ObstructionVerdict("empty_mediating_set", alpha,
                                           examined, found_total)
        if not injective:
            return maps.ObstructionVerdict("non_injective_mediating", alpha,
                                           examined, found_total)
    alpha = next(a for a, level in enumerate(h.levels) if len(level) > p.n)
    return maps.ObstructionVerdict("cardinality_bound", alpha, examined,
                                   found_total)


def test_sweep_matches_oracle_on_small_posets():
    _, _, h = claw_tower(depth=2)
    s = sierpinski()
    # stage 1 is a candidate too: with its own coordinate maps as the
    # projections it mediates at stage 1, not at 2
    stage, _ = hierarchy.materialize(h, 1)
    posets = order.enumerate_posets(3) + [stage]
    expected = []
    for i, p in enumerate(posets):
        opens = maps.enumerate_open_maps(p, s)
        expected += [(i, p1, p2) for p1 in opens for p2 in opens]
    candidates = swept(h, posets)
    assert [(i, p1, p2) for i, p1, p2, _ in candidates] == expected
    for i, p1, p2, verdict in candidates:
        assert verdict == oracle_verdict(posets[i], p1, p2, h), (i, p1, p2)
        assert maps.product_obstruction(posets[i], PointMap(posets[i], s, p1),
                                        PointMap(posets[i], s, p2),
                                        h) == verdict
    coordinates = (maps.coordinate_map(h, 1, 1).table,
                   maps.coordinate_map(h, 1, 2).table)
    mediated = [v for _, p1, p2, v in candidates if (p1, p2) == coordinates]
    assert len(mediated) == 1
    assert (mediated[0].certificate_kind, mediated[0].stage) == (
        "empty_mediating_set", 2)
    assert mediated[0].mediating_found == 1


def test_sweep_searches_each_stage_once_per_candidate(monkeypatch):
    # per poset, one kernel call for its open maps and one pinned search
    # per stage that any of its candidates reaches: stage 1 mediates for
    # some candidates of stage 1 itself, which go on to stage 2 together,
    # with stage 1's search handed over, not repeated
    _, _, h = claw_tower(depth=2)
    stage, _ = hierarchy.materialize(h, 1)
    posets = order.enumerate_posets(3) + [stage]
    calls = {"enumerate_maps": 0, "enumerate_pinned": 0}
    for name in calls:
        def counted(*args, name=name, search=getattr(kernels, name)):
            calls[name] += 1
            return search(*args)

        monkeypatch.setattr(kernels, name, counted)
    verdicts = [v for _, _, _, v in swept(h, posets)]
    assert {v.certificate_kind for v in verdicts} == {"empty_mediating_set"}
    assert sum(v.stage == 2 for v in verdicts) == 6
    assert calls == {"enumerate_maps": len(posets),
                     "enumerate_pinned": len(posets) + 1}


def test_sweep_prepares_only_the_stages_a_candidate_reaches(monkeypatch):
    # stage 1 as the poset of a depth-3 tower: six candidates stand through
    # stage 1 and are refuted at stage 2, so stage 3 is never materialized
    _, _, h = claw_tower(depth=3)
    stage, _ = hierarchy.materialize(h, 1)
    prepared = []
    materialize = hierarchy.materialize

    def counted(h, alpha):
        prepared.append(alpha)
        return materialize(h, alpha)

    monkeypatch.setattr(hierarchy, "materialize", counted)
    candidates = swept(h, [stage])
    assert prepared == [1, 2]
    monkeypatch.undo()
    assert len(candidates) == 676
    assert sum(v.stage == 2 for _, _, _, v in candidates) == 6
    for _, p1, p2, verdict in candidates:
        assert verdict == oracle_verdict(stage, p1, p2, h)


def test_sweep_on_a_tower_of_depth_zero_matches_oracle():
    # no stage to search: each verdict compares the base with the poset,
    # and the first poset the base does not outgrow ends the sweep
    _, _, h = claw_tower(depth=0)
    s = sierpinski()
    posets = order.enumerate_posets(4)
    count = 0
    with pytest.raises(BudgetError) as exc:
        for i, firsts, seconds, verdicts in maps.product_obstructions(
                h, posets):
            pairs = [(p1, p2) for p1 in firsts for p2 in seconds]
            for (p1, p2), verdict in zip(pairs, verdicts, strict=True):
                assert verdict == oracle_verdict(posets[i], p1, p2, h)
                assert maps.product_obstruction(
                    posets[i], PointMap(posets[i], s, p1),
                    PointMap(posets[i], s, p2), h) == verdict
                assert verdict.candidates_examined == 0
                count += 1
    assert exc.value.used == len(h.levels[0])
    assert count == sum(len(maps.enumerate_open_maps(p, s)) ** 2
                        for p in posets if p.n < len(h.levels[0]))


def test_obstruction_rejects_non_open_projection():
    _, _, h = claw_tower()
    s = sierpinski()
    p = order.chain(2)
    p1 = PointMap(p, s, (0, 1))
    not_open = PointMap(p, s, (1, 0))
    assert maps.product_obstruction(p, p1, p1, h).refuted
    with pytest.raises(HypothesisError):
        maps.product_obstruction(p, p1, not_open, h)
    with pytest.raises(HypothesisError):
        maps.product_obstruction(order.chain(3), p1, p1, h)


def test_injectivity_propagates_small():
    _, _, h = claw_tower()
    for p in order.enumerate_posets(4):
        rep = maps.injectivity_report(h, 1, p)
        assert not rep.violations, (p.n, rep.violations)


def test_injectivity_requires_hypotheses():
    # a, b < c with a and b incomparable: what lies below c is no chain
    u = Universe(hsets.base_poset("abc", [("a", "c"), ("b", "c")]))
    h = hierarchy.build([u.atom(x) for x in "abc"], 1, u)
    assert not hsets.chain_hypothesis(h.base, u)
    with pytest.raises(HypothesisError):
        maps.injectivity_report(h, 1, order.chain(2))


def test_enumerate_open_counts_to_sierpinski():
    # indicators of nonempty downsets; every stage has a unique minimum
    _, _, h = claw_tower()
    s = sierpinski()
    stage1, _ = hierarchy.materialize(h, 1)
    assert len(maps.enumerate_open_maps(stage1, s)) == 26
    # monotone maps, as heyting's monotone assignments into the downsets of
    # a point: the downsets of stage 1 reversed
    assert len(heyting._monotone_assignments(
        stage1, heyting.downset_algebra(order.singleton()))) == 27
