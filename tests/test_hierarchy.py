"""Antichain towers: frozen level contents, stage checks, negative controls."""

import dataclasses
from collections import Counter
from random import Random

import pytest

from finord import hierarchy, hsets, order
from finord.errors import BudgetError, FormatError, HypothesisError
from finord.hsets import Universe

CLAW_SIZES = [4, 8, 22]
FREE3_SIZES = [3, 7, 21, 16739]


def claw_tower(depth=2):
    u = Universe()
    base = hsets.concrete_claw(u)
    return u, base, hierarchy.build(base, depth, u)


def test_claw_level_sizes():
    _, _, h = claw_tower()
    assert [len(l) for l in h.levels] == CLAW_SIZES
    assert h.complete


def test_free_antichain_level_sizes():
    u, ids = hsets.abstract_antichain(3)
    h = hierarchy.build(ids, 3, u)
    assert [len(l) for l in h.levels] == FREE3_SIZES


def test_stage_one_contents_are_the_four_antichains():
    u, (m0, m1, m2, m3), h = claw_tower()
    fresh = {u.children(x) for x in h.new_at(1)}
    assert fresh == {(m1, m2), (m1, m3), (m2, m3), (m1, m2, m3)}


def test_stage_two_contains_the_pictured_elements():
    u, (m0, m1, m2, m3), h = claw_tower()
    d12 = u.peek([m1, m2])
    d13 = u.peek([m1, m3])
    assert d12 is not None and d13 is not None
    assert u.peek([d12, d13]) in h.levels[2]
    assert u.peek([d12, m3]) in h.levels[2]
    assert len(h.new_at(2)) == 14


def test_stage_one_covering_edges():
    u, (m0, m1, m2, m3), h = claw_tower()
    p, ids = hierarchy.materialize(h, 1)
    d12, d13, d23 = u.peek([m1, m2]), u.peek([m1, m3]), u.peek([m2, m3])
    t = u.peek([m1, m2, m3])
    pos = {x: i for i, x in enumerate(ids)}
    expected = {
        (m0, m1), (m0, m2), (m0, m3),
        (m1, d12), (m2, d12), (m1, d13), (m3, d13), (m2, d23), (m3, d23),
        (m1, t), (m2, t), (m3, t),
    }
    got = {(ids[i], ids[j]) for i, j in order.covers(p)}
    assert got == expected


def test_stage_two_covers_of_pictured_elements():
    u, (m0, m1, m2, m3), h = claw_tower()
    p, ids = hierarchy.materialize(h, 2)
    pos = {x: i for i, x in enumerate(ids)}
    d12, d13 = u.peek([m1, m2]), u.peek([m1, m3])
    pair_sets = u.peek([d12, d13])
    pair_mixed = u.peek([d12, m3])
    below = {x: set() for x in (pair_sets, pair_mixed)}
    for i, j in order.covers(p):
        if ids[j] in below:
            below[ids[j]].add(ids[i])
    assert below[pair_sets] == {d12, d13}
    assert below[pair_mixed] == {d12, m3}


def test_materialized_stage_is_poset():
    _, _, h = claw_tower()
    for alpha in range(3):
        p, ids = hierarchy.materialize(h, alpha)
        assert p.is_poset
        assert p.n == CLAW_SIZES[alpha]


def test_stage_properties_pass_on_honest_towers():
    for make in (claw_tower,):
        _, _, h = make()
        report = hierarchy.verify_stage_properties(h)
        assert not report.violations
    u, ids = hsets.abstract_antichain(3)
    h = hierarchy.build(ids, 2, u)
    assert not hierarchy.verify_stage_properties(h).violations


def test_corrupted_level_fails_freshness():
    u, base, h = claw_tower()
    t = u.peek([base[1], base[2], base[3]])
    h.levels[1] = h.levels[1] - {t}
    report = hierarchy.verify_stage_properties(h)
    assert any(v[0] == "fresh_comparable" for v in report.violations)


def test_corrupted_level_fails_downset():
    u, base, h = claw_tower()
    h.levels[1] = h.levels[1] - {base[0]}
    report = hierarchy.verify_stage_properties(h)
    assert any(v[0] == "not_downset" for v in report.violations)


def test_smuggled_element_fails_antichain():
    u, base, h = claw_tower()
    d12 = u.peek([base[1], base[2]])
    d13 = u.peek([base[1], base[3]])
    h.levels[1] = h.levels[1] | {u.peek([d12, d13])}
    report = hierarchy.verify_stage_properties(h)
    assert any(v[0] == "fresh_comparable" for v in report.violations)


def test_stage_one_set_dropped_fails_stale_children():
    # d12 turns fresh at stage 2 with only base children a1, a2
    u, base, h = claw_tower()
    d12 = u.peek([base[1], base[2]])
    h.levels[1] = h.levels[1] - {d12}
    report = hierarchy.verify_stage_properties(h)
    assert ("stale_children", 2, d12) in report.violations


def pairwise_stage_violations(h):
    """The stage check by comparing pairs; the oracle of the row-based one."""
    u = h.universe
    top = h.levels[-1]
    violations = []
    for alpha, level in enumerate(h.levels):
        for x in level:
            violations += [("not_downset", alpha, y, x) for y in top
                           if y not in level and u.lt(y, x)]
        fresh = sorted(h.new_at(alpha)) if alpha > 0 else []
        violations += [("fresh_comparable", alpha, x, y)
                       for i, x in enumerate(fresh) for y in fresh[i + 1:]
                       if u.comparable(x, y)]
        if alpha >= 2:
            prev_fresh = h.new_at(alpha - 1)
            violations += [
                ("stale_children", alpha, x) for x in fresh
                if u.kind(x) == "set" and not set(u.children(x)) & prev_fresh]
    return violations


def test_stage_check_agrees_with_pairwise_oracle_on_corruptions():
    rng = Random(23)
    towers = [claw_tower()[2]]
    u, ids = hsets.abstract_antichain(3)
    towers.append(hierarchy.build(ids, 2, u))
    failing = 0
    kinds = set()
    for trial in range(300):
        h = towers[trial % 2]
        levels = list(h.levels)
        for _ in range(rng.randint(1, 2)):
            alpha = rng.randrange(len(levels))
            x = rng.randrange(len(h.universe))
            if x in levels[alpha] and len(levels[alpha]) > 1:
                levels[alpha] = levels[alpha] - {x}
            else:
                levels[alpha] = levels[alpha] | {x}
        bad = dataclasses.replace(h, levels=levels)
        got = hierarchy.verify_stage_properties(bad).violations
        assert Counter(got) == Counter(pairwise_stage_violations(bad))
        failing += bool(got)
        kinds.update(v[0] for v in got)
    # the corruptions must exercise every failing route, not only pass
    assert failing >= 100
    assert kinds == {"not_downset", "fresh_comparable", "stale_children"}


def test_corrupted_dump_rejected():
    u, base, h = claw_tower()
    text = hierarchy.dumps(h)
    assert hierarchy.from_json(__import__("json").loads(text)) is not None
    with pytest.raises(FormatError):
        hsets.load(u.dump() + "999 := { 0 }\n")


def test_restriction_equality_clause():
    u, ids = hsets.abstract_antichain(3)
    for m in ((ids[0],), (ids[0], ids[1]), tuple(ids)):
        # the clause's hypothesis: M inside M', both antichains
        assert set(m) <= set(ids)
        assert hsets.is_antichain(m, u) and hsets.is_antichain(ids, u)
        rep = hierarchy.verify_restriction(hierarchy.build(m, 2, u),
                                           hierarchy.build(ids, 2, u))
        assert not rep.violations, rep.violations


def test_restriction_offset_clause():
    u, ids = hsets.abstract_antichain(3)
    a, b, c = ids
    shifted = (u.intern([a, b]), u.intern([b, c]))
    # the equality clause does not apply: M is not inside M'
    assert not set(shifted) <= set(ids)
    rep = hierarchy.verify_restriction(hierarchy.build(shifted, 2, u),
                                       hierarchy.build(ids, 2, u))
    assert rep.offset == 1
    assert not rep.violations, rep.violations


def test_restriction_requires_a_relation():
    u, ids = hsets.abstract_antichain(3)
    with pytest.raises(HypothesisError):
        hierarchy.verify_restriction(hierarchy.build((ids[0],), 1, u),
                                     hierarchy.build((ids[1],), 1, u))


def test_fan_rejects_outside_element_in_a():
    u, ids = hsets.abstract_antichain(3)
    with pytest.raises(HypothesisError):
        hierarchy.fan([ids[0]], ids[0], u)


def test_fan_reports_comparable_pair():
    u, base, _ = claw_tower(depth=0)
    rep = hierarchy.fan([base[0]], base[1], u)
    assert ("bad_pair", base[0], base[1]) in rep.violations


def test_fan_over_free_antichain():
    u, ids = hsets.abstract_antichain(4)
    h = hierarchy.build(ids[:3], 2, u)
    for alpha in range(3):
        rep = hierarchy.fan(h.levels[alpha], ids[3], u)
        assert not rep.violations
        assert len(rep.pair_ids) == len(h.levels[alpha])


def test_growth_witness_frozen_values():
    u, ids = hsets.abstract_antichain(3)
    rep = hierarchy.growth_witness(ids, 2, u)
    assert rep.level_sizes == [3, 7, 21]
    assert rep.growth == [4, 14]
    assert rep.fan_sizes == [3, 7]
    assert not rep.violations and min(rep.growth) >= 3


def test_budget_below_the_base_size_is_a_hypothesis_error():
    u, ids = hsets.abstract_antichain(3)
    with pytest.raises(HypothesisError, match="budget 2 is below the base "
                                              "size 3"):
        hierarchy.build(ids, 1, u, budget=2)
    assert len(hierarchy.build(ids, 0, u, budget=3).levels[0]) == 3


def test_budget_truncation_keeps_prefix():
    u, ids = hsets.abstract_antichain(3)
    h = hierarchy.build(ids, 2, u, budget=10)
    assert h.truncated_at == 2
    assert [len(l) for l in h.levels] == [3, 7]
    v, ids2 = hsets.abstract_antichain(3)
    full = hierarchy.build(ids2, 2, v)
    assert [len(l) for l in h.levels] == [len(l) for l in full.levels[:2]]


@pytest.mark.parametrize("budget", [7, 16, 17, 20])
def test_truncation_records_the_level_size_or_a_lower_bound(budget):
    # stage 2 of this tower has 21 elements, from stage 1's 18 antichains of
    # two or more: up to a budget of 16 the kernel stops counting them at
    # budget + 2, and above it the fresh sets overflow the level
    u, ids = hsets.abstract_antichain(3)
    h = hierarchy.build(ids, 2, u, budget=budget)
    assert h.truncated_at == 2
    assert h.used == (budget + 2 if budget <= 16 else 21)
    assert hierarchy.build(ids, 2, u, budget=21).used is None


def test_truncation_interns_nothing_beyond_the_level():
    u, ids = hsets.abstract_antichain(3)
    h = hierarchy.build(ids, 2, u, budget=10)
    assert set(u.ids()) - set().union(*h.levels) == {
        x for x in u.ids() if u.kind(x) == "atom" and x not in h.levels[0]}


def test_json_round_trip():
    import json
    u, base, h = claw_tower()
    data = json.loads(hierarchy.dumps(h))
    g = hierarchy.from_json(data)
    assert [sorted(l) for l in g.levels] == [sorted(l) for l in h.levels]
    assert g.universe.dump() == u.dump()


def test_from_json_requires_base_level():
    import json
    _, _, h = claw_tower()
    data = json.loads(hierarchy.dumps(h))
    data["levels"][0] = data["levels"][0][:-1]
    with pytest.raises(FormatError):
        hierarchy.from_json(data)


def test_from_json_rejects_bad_base_poset():
    import json
    u, ids = hsets.abstract_antichain(2)
    data = json.loads(hierarchy.dumps(hierarchy.build(ids, 1, u)))
    data["base_poset"]["labels"] = ["a0", "a0"]
    with pytest.raises(FormatError, match="^bad base poset: "):
        hierarchy.from_json(data)
    data["base_poset"] = {"labels": ["a0", "a1"]}
    with pytest.raises(FormatError, match="^bad hierarchy JSON: "):
        hierarchy.from_json(data)


def test_level_dot_mentions_every_member():
    _, _, h = claw_tower()
    dot = hierarchy.level_dot(h, 1)
    assert dot.count("label=") == 8
