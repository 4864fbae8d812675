"""Hereditary-set universes: interning, the order rows, serialization."""

import random

import pytest

from finord import hsets, kernels
from finord.errors import FormatError
from finord.hsets import Universe
from finord.kernels import bits
from oracles import abstract_claw, ordinal, relation_iso


def claw_universe():
    u = Universe()
    return u, hsets.concrete_claw(u)


def lt_oracle(u, x, y):
    """The recursive characterization of the order, read off the structure
    alone: for a set y, x < y iff x <= some child of y; for atoms, the base
    order."""
    if u.kind(y) == "atom":
        rel = u.base.relation
        return (u.kind(x) == "atom"
                and bool((rel.up[x] & ~rel.down[x]) >> y & 1))
    return any(x == c or lt_oracle(u, x, c) for c in u.children(y))


def assert_matches_oracle(u, pairs):
    for x, y in pairs:
        below, above = lt_oracle(u, x, y), lt_oracle(u, y, x)
        assert u.lt(x, y) == below, (x, y)
        assert u.leq(x, y) == (x == y or below), (x, y)
        assert u.comparable(x, y) == (below or above), (x, y)


def all_pairs(u):
    return [(x, y) for x in u.ids() for y in u.ids()]


def test_ordinals_nest():
    u = Universe()
    zero = ordinal(u, 0)
    three = ordinal(u, 3)
    assert u.children(zero) == ()
    assert len(u.children(three)) == 3
    assert u.lt(zero, three)
    assert not u.lt(three, zero)


def flat_universe(*labels):
    u = Universe(hsets.base_poset(labels, []))
    return u, [u.atom(lab) for lab in labels]


def test_intern_dedupes_and_sorts():
    u, (a, b) = flat_universe("a", "b")
    x = u.intern([b, a, b])
    y = u.intern([a, b])
    assert x == y
    assert u.children(x) == (a, b)


def test_atoms_are_the_first_ids():
    u, (a, b) = flat_universe("a", "b")
    u.intern([a, b])
    assert [u.kind(x) for x in u.ids()] == ["atom", "atom", "set"]
    assert (u.atom("b"), u.base.labels[b]) == (b, "b")
    with pytest.raises(ValueError, match="is not a set"):
        u.children(a)
    with pytest.raises(IndexError):
        u.kind(3)
    for universe in (u, Universe()):
        with pytest.raises(KeyError, match="not in this universe"):
            universe.atom("c")


def test_peek_never_inserts():
    u, (a, b) = flat_universe("a", "b")
    before = len(list(u.ids()))
    assert u.peek([a, b]) is None
    assert len(list(u.ids())) == before


def test_claw_base_facts():
    u, (m0, m1, m2, m3) = claw_universe()
    assert u.lt(m0, m1) and u.lt(m0, m2) and u.lt(m0, m3)
    assert hsets.is_antichain([m1, m2, m3], u)
    assert len({m1, m2, m3}) >= 2
    assert not hsets.is_antichain([m0, m1], u)
    assert hsets.chain_hypothesis([m0, m1, m2, m3], u)
    assert hsets.is_convex([m0, m1, m2, m3], u)


def test_transitive_closure_of_first_claw_element():
    u, (m0, _, _, _) = claw_universe()
    # m0 = {1} where 1 = {0}: members all the way down are 1 and 0
    assert u.below(m0) == 1 << 0 | 1 << 1


def test_sets_never_sit_below_atoms():
    u, (a, b) = flat_universe("a", "b")
    s = u.intern([a, b])
    assert not u.lt(s, a)
    assert u.lt(a, s)


def test_order_rows_match_oracle_on_generated_universe():
    from finord import hierarchy
    for u, base in (claw_universe(), hsets.abstract_antichain(3)):
        hierarchy.build(base, 2, u)
        assert_matches_oracle(u, all_pairs(u))


def test_order_rows_match_oracle_when_labels_are_not_a_linear_extension():
    # b < a1, b < a2 and a2 < c, but a1 precedes b in label order
    base = hsets.base_poset(["a1", "b", "a2", "c"],
                            [("b", "a1"), ("b", "a2"), ("a2", "c")])
    u = Universe(base)
    a1, b, a2, c = (u.atom(lab) for lab in base.labels)
    assert u.lt(b, a1) and u.lt(b, c) and not u.comparable(a1, c)
    from finord import hierarchy
    hierarchy.build([a1, c], 2, u)
    u.intern([b, c])
    assert_matches_oracle(u, all_pairs(u))
    v = hsets.load(u.dump(), base)
    assert v.dump() == u.dump()
    assert_matches_oracle(v, all_pairs(v))


def test_order_rows_match_oracle_on_sampled_deep_stage():
    u, base = claw_universe()
    from finord import hierarchy
    h = hierarchy.build(base, 3, u)
    assert h.complete and len(u) > 16_000
    rng = random.Random(20240611)
    n = len(u)
    pairs = []
    for _ in range(2000):
        # half the samples draw x from below y, so both verdicts occur
        y = rng.randrange(n)
        below = list(bits(u.below(y)))
        x = rng.choice(below) if below and rng.random() < 0.5 else rng.randrange(n)
        pairs.append((x, y))
    assert sum(u.lt(x, y) for x, y in pairs) > 500
    assert_matches_oracle(u, pairs)


def test_chains_and_convexity():
    u = Universe()
    chain = [ordinal(u, k) for k in range(4)]
    assert hsets.is_chain(chain, u)
    assert not hsets.is_convex([chain[0], chain[3]], u)
    assert hsets.is_convex(chain, u)


def random_universe(rng, atoms):
    """A universe on `atoms` atoms, ordered at random with labels that are
    not a linear extension, and about 30 sets of earlier ids on top."""
    base = None
    if atoms:
        labels = [f"a{i}" for i in range(atoms)]
        rank = rng.sample(labels, atoms)
        base = hsets.base_poset(labels, [
            (rank[i], rank[j]) for i in range(atoms)
            for j in range(i + 1, atoms) if rng.random() < 0.3])
    u = Universe(base)
    for _ in range(30):
        u.intern(rng.sample(list(u.ids()), min(len(u), rng.randrange(4))))
    return u


def random_id_set(rng, u):
    """Random ids, half the time all at or below one id, so that chains and
    convex sets occur as often as their failures."""
    if rng.random() < 0.5:
        top = rng.randrange(len(u))
        pool = list(bits(u.below(top))) + [top]
    else:
        pool = list(u.ids())
    return rng.sample(pool, min(len(pool), rng.randrange(6)))


def pairwise_antichain(ids, u):
    return not any(u.comparable(x, y) for x in ids for y in ids if x != y)


def pairwise_chain(ids, u):
    return all(u.comparable(x, y) for x in ids for y in ids if x != y)


def pairwise_convex(ids, u):
    return not any(
        any(u.lt(p, q) for p in ids) and any(u.lt(q, r) for r in ids)
        for q in u.ids() if q not in ids)


def pairwise_chain_hypothesis(ids, u):
    return all(pairwise_chain([x for x in ids if u.leq(x, top)], u)
               for top in ids)


def test_row_predicates_match_pairwise_definitions():
    rng = random.Random(20261019)
    cases = [(hsets.is_antichain, pairwise_antichain),
             (hsets.is_chain, pairwise_chain),
             (hsets.is_convex, pairwise_convex),
             (hsets.chain_hypothesis, pairwise_chain_hypothesis)]
    verdicts = [set() for _ in cases]
    for trial in range(200):
        u = random_universe(rng, rng.choice((0, 3, 5)))
        for _ in range(20):
            ids = random_id_set(rng, u)
            for (rows, pairwise), seen in zip(cases, verdicts):
                expected = pairwise(ids, u)
                assert rows(ids, u) == expected, (rows.__name__, trial, ids)
                seen.add(expected)
    assert all(seen == {False, True} for seen in verdicts)


def test_restrict_matches_brute_force():
    rng = random.Random(20261020)
    for _ in range(200):
        u = random_universe(rng, rng.choice((0, 3, 5)))
        n = len(u)
        members = rng.sample(range(n), rng.randrange(n + 1))
        # the universe order, and an arbitrary relation with bits outside
        # the members
        for rows in ([u.below(x) for x in members],
                     [rng.getrandbits(n) for _ in members]):
            expected = tuple(
                sum(1 << j for j, y in enumerate(members) if row >> y & 1)
                for row in rows)
            assert kernels.restrict(rows, members) == expected


def test_dump_load_round_trip():
    u, base = claw_universe()
    from finord import hierarchy
    hierarchy.build(base, 2, u)
    text = u.dump()
    v = hsets.load(text)
    assert v.dump() == text
    assert_matches_oracle(v, all_pairs(v))


def test_load_rejects_malformed_lines():
    ab = hsets.base_poset(["a", "b"], [])
    cases = [
        ("0 := atom a\n1 := atom b\n2 := { 0 1 }\n", 3),  # missing comma
        ("0 := atom a\n1 := atom b\n3 := { 0 }\n", 3),  # id gap
        ("0 := atom a\n1 := atom b\n2 := { 0, 0 }\n", 3),  # duplicate child
        ("0 := atom a\n1 := atom b\n2 := { 5 }\n", 3),  # unknown child
        ("0 := atom a\n0 := atom b\n", 2),              # repeated id
        ("0 := atom b\n1 := atom a\n", 1),              # out of label order
        ("0 := atom a\n1 := atom a\n", 2),              # repeated atom
        ("0 := atom a\n1 := atom b\n2 := { 0 }\n1 := atom b\n", 4),
        # an atom line after a set line
        ("0 := atom a\n1 := atom z\n", 2),              # label not in the base
    ]
    for text, line in cases:
        with pytest.raises(FormatError, match=rf"^line {line}: "):
            hsets.load(text, ab)
    with pytest.raises(FormatError, match=r"^line 1: "):
        hsets.load("0 := atom a\n")                      # atom line, no base


def test_load_accepts_empty_set_line():
    v = hsets.load("0 := { }\n")
    assert v.kind(0) == "set"
    assert v.children(0) == ()


def test_base_poset_orders_atoms():
    bp = hsets.base_poset(["x", "y", "z"], [("x", "y")])
    u = Universe(bp)
    x, y, z = u.atom("x"), u.atom("y"), u.atom("z")
    assert u.lt(x, y)
    assert not u.lt(y, x)
    assert not u.comparable(x, z)


def test_base_poset_rejects_cycles():
    with pytest.raises(ValueError):
        hsets.base_poset(["x", "y"], [("x", "y"), ("y", "x")])


def test_bad_labels_rejected():
    with pytest.raises(ValueError):
        hsets.base_poset(["ok", "has space"], [])
    with pytest.raises(ValueError):
        hsets.base_poset(["dup", "dup"], [])


def test_abstract_claw_matches_concrete_on_order_queries():
    uc, basec = claw_universe()
    ua, basea = abstract_claw()
    from finord import hierarchy
    hc = hierarchy.build(basec, 2, uc)
    ha = hierarchy.build(basea, 2, ua)
    assert [len(l) for l in hc.levels] == [len(l) for l in ha.levels]
    # order isomorphism between the top stages via matched materializations
    pc, _ = hierarchy.materialize(hc, 2)
    pa, _ = hierarchy.materialize(ha, 2)
    assert relation_iso(pc.up, pa.up) is not None


def test_abstract_antichain_is_flat():
    u, ids = hsets.abstract_antichain(3)
    assert len(ids) == 3
    for x in ids:
        for y in ids:
            if x != y:
                assert not u.comparable(x, y)
