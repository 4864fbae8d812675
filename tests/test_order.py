"""Finite preorder machinery: construction, closures, enumeration, export."""

import hashlib
import random
from collections import Counter
from itertools import permutations

import pytest

from finord import hierarchy, hsets, kernels, order
from finord.errors import FormatError
from finord.order import FinitePreorder
from oracles import (canonical_form_bruteforce, covers_pairwise,
                     posets_unpruned, relation_iso, sample_poset)

# counts of posets on n labeled-up-to-iso / preorders on n labeled elements
POSETS_UP_TO_ISO = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}
LABELED_PREORDERS = {1: 1, 2: 4, 3: 29, 4: 355}


def test_reflexivity_required():
    with pytest.raises(ValueError):
        FinitePreorder(2, (0b01, 0b00))


def test_transitivity_required():
    # 0 <= 1 <= 2 but 0 </= 2
    with pytest.raises(ValueError):
        FinitePreorder(3, (0b011, 0b110, 0b100))


def test_from_pairs_closes_transitively():
    p = order.from_pairs(3, [(0, 1), (1, 2)])
    assert p.up[0] >> 2 & 1
    assert p.is_poset


def test_sierpinski_is_two_chain():
    assert order.sierpinski() == order.chain(2)
    s = order.sierpinski()
    assert s.up[0] >> 1 & 1 and not s.up[1] >> 0 & 1


def test_product_orders_componentwise():
    p = order.product(order.chain(2), order.chain(3))
    assert p.n == 6
    # (i, j) sits at index i * 3 + j
    assert p.up[0 * 3 + 0] >> (1 * 3 + 2) & 1
    assert not p.up[0 * 3 + 2] >> (1 * 3 + 1) & 1


def test_down_closure_and_is_downset():
    p = order.chain(4)
    assert kernels.union(p.down, 0b0100) == 0b0111
    assert kernels.union(p.up, 0b0010) == 0b1110
    assert order.is_downset(p, 0b0011)
    assert not order.is_downset(p, 0b0100)


def test_all_downsets_counts():
    assert len(order.all_downsets(order.chain(4))) == 5
    assert len(order.all_downsets(order.from_pairs(3, ()))) == 8
    assert len(order.all_downsets(order.sierpinski())) == 3


def test_all_downsets_deduplicates_equivalent_elements():
    # two equivalent points close to the same downset
    p = FinitePreorder(2, (0b11, 0b11))
    downs = order.all_downsets(p)
    assert downs == sorted(set(downs)) == [0b00, 0b11]


def test_covers_of_chain():
    assert order.covers(order.chain(3)) == [(0, 1), (1, 2)]


def test_covers_match_the_pairwise_definition():
    rng = random.Random(19)
    samples = [order.sample_preorder(rng.randrange(9), rng)
               for _ in range(300)]
    samples += [sample_poset(rng.randrange(9), rng) for _ in range(100)]
    assert any(not p.is_poset for p in samples)
    stages = []
    for u, base in [(hsets.Universe(), None), hsets.abstract_antichain(3)]:
        h = hierarchy.build(base or hsets.concrete_claw(u), 2, u)
        stages += [hierarchy.materialize(h, alpha)[0] for alpha in range(3)]
    assert [p.n for p in stages] == [4, 8, 22, 3, 7, 21]
    for p in [*samples, *order.enumerate_preorders(4),
              *order.enumerate_posets(6), *stages]:
        assert order.covers(p) == covers_pairwise(p), p


def test_poset_iso_relabeling():
    # isomorphism is equality of canonical forms; the oracle finds the map
    p = order.from_pairs(3, [(0, 1), (0, 2)])
    q = order.from_pairs(3, [(2, 0), (2, 1)])
    assert order.canonical_form(p) == order.canonical_form(q)
    assert relation_iso(p.up, q.up)[0] == 2
    chain, antichain = order.chain(3), order.from_pairs(3, ())
    assert order.canonical_form(chain) != order.canonical_form(antichain)
    assert relation_iso(chain.up, antichain.up) is None


def test_canonical_form_permutation_invariant():
    rng = random.Random(2)
    for _ in range(20):
        p = sample_poset(4, rng)
        canon = order.canonical_form(p)
        for perm in permutations(range(4)):
            up = [0] * 4
            for i in range(4):
                for j in range(4):
                    if p.up[i] >> j & 1:
                        up[perm[i]] |= 1 << perm[j]
            assert order.canonical_form(FinitePreorder(4, tuple(up))) == canon


def test_canonical_form_is_least_bit_string():
    # labeled preorders up to 4 points against the least string itself, and
    # the brute-force oracle on larger inputs; preorders that are not
    # antisymmetric have true twins, and posets have incomparable twins
    for p in order.enumerate_preorders(4):
        strings = [
            "".join(str(p.up[i] >> j & 1) for i in perm for j in perm)
            for perm in permutations(range(p.n))
        ]
        assert order.canonical_form(p) == min(strings)
    rng = random.Random(20)
    samples = [order.sample_preorder(rng.randrange(5, 8), rng)
               for _ in range(200)]
    samples += [sample_poset(7, rng) for _ in range(50)]
    assert any(not p.is_poset for p in samples)
    for p in [*order.enumerate_posets(6), *samples]:
        assert order.canonical_form(p) == canonical_form_bruteforce(p), p


def test_enumerate_posets_counts():
    got = order.enumerate_posets(max(POSETS_UP_TO_ISO))
    assert Counter(p.n for p in got) == POSETS_UP_TO_ISO
    assert all(p.is_poset for p in got)
    # by size, smallest first
    assert [p.n for p in got] == sorted(p.n for p in got)


def test_enumerators_bound_their_sizes():
    assert order.enumerate_posets(0) == order.enumerate_posets(-1) == []
    assert order.enumerate_preorders(0) == order.enumerate_preorders(-1) == []
    with pytest.raises(ValueError):
        order.enumerate_posets(order.MAX_POSET_SIZE + 1)
    with pytest.raises(ValueError):
        order.enumerate_preorders(order.MAX_PREORDER_SIZE + 1)


def test_enumerate_posets_matches_reference_route():
    # same representatives, same labelings, same order as the unpruned
    # generation with the brute-force canonical form
    n = max(POSETS_UP_TO_ISO)
    got = [p.up for p in order.enumerate_posets(n)]
    assert got == [p.up for p in posets_unpruned(n, canonical_form_bruteforce)]


def test_twin_skipping_keeps_every_representative(monkeypatch):
    # enumerate_posets skips the candidates that a swap of twins maps to a
    # smaller downset; each has an earlier isomorphic candidate, so the
    # list is the unpruned generation's, element by element
    for n in range(order.MAX_POSET_SIZE + 1):
        assert order.enumerate_posets(n) == posets_unpruned(n), n
    monkeypatch.setattr(order, "MAX_POSET_SIZE", 7)
    assert order.enumerate_posets(7) == posets_unpruned(7)


def test_enumerate_posets_six_digest():
    # digest of the six-point up rows as the reference route produced them
    got = [p.up for p in order.enumerate_posets(6) if p.n == 6]
    assert len(got) == 318
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "bd40db4d01f4f9baba5fb3d4fa56155b3302d509ec1e68f042e7a55bfbaac3cc")


def test_enumerate_posets_seven_digest(monkeypatch):
    # the size cap bounds a sweep's report, not enumeration; digest of the
    # seven-point up rows as the n!-relabeling route produced them
    monkeypatch.setattr(order, "MAX_POSET_SIZE", 7)
    got = [p.up for p in order.enumerate_posets(7) if p.n == 7]
    assert len(got) == 2045
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "880d255da12dd3f3d25812021ad9f2d7ee010e80e17abaea2f08e12bb181d770")


def test_enumerate_posets_no_duplicate_classes():
    got = [p for p in order.enumerate_posets(5) if p.n == 5]
    for i in range(len(got)):
        for j in range(i + 1, len(got)):
            assert relation_iso(got[i].up, got[j].up) is None


def test_enumerate_preorders_counts():
    got = order.enumerate_preorders(max(LABELED_PREORDERS))
    assert Counter(p.n for p in got) == LABELED_PREORDERS
    assert [p.n for p in got] == sorted(p.n for p in got)


def test_sampling_produces_valid_preorders():
    rng = random.Random(7)
    for _ in range(50):
        p = order.sample_preorder(rng.randrange(1, 7), rng)
        assert isinstance(p, FinitePreorder)
        q = sample_poset(rng.randrange(1, 7), rng)
        assert q.is_poset


def test_json_round_trip():
    rng = random.Random(13)
    for _ in range(20):
        p = order.sample_preorder(5, rng)
        assert order.from_json(order.to_json(p)) == p


def test_from_json_rejects_garbage():
    with pytest.raises(FormatError):
        order.from_json({"size": 2})
    with pytest.raises(FormatError):
        order.from_json({"size": 2, "leq": "10x0"})
    with pytest.raises(FormatError):
        order.from_json({"size": 2, "leq": "10"})
    # a bool is not a size, and leq must be one string
    for bad in ({"size": True, "leq": "1"}, {"size": 1, "leq": 5},
                {"size": 1, "leq": ["1"]}):
        with pytest.raises(FormatError):
            order.from_json(bad)


def test_to_dot_hasse_edges():
    dot = order.to_dot(order.chain(3))
    assert "digraph" in dot
    assert dot.count("->") == 2
