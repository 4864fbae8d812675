"""The enumeration kernels against brute force, output order included."""

import random
from itertools import permutations, product as iproduct

import pytest

from finord import kernels, kripke, maps, order
from finord.errors import BudgetError
from finord.kernels import bits


def random_comparability(n, rng, density=0.3):
    comp = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                comp[i] |= 1 << j
                comp[j] |= 1 << i
    return comp


def brute_antichains(n, comp, min_size):
    out = set()
    for mask in range(1 << n):
        bits = [i for i in range(n) if mask >> i & 1]
        if len(bits) < min_size:
            continue
        if all(not comp[i] >> j & 1 for i in bits for j in bits):
            out.add(mask)
    return out


def index_tuple(n, mask):
    return tuple(i for i in range(n) if mask >> i & 1)


def test_antichains_brute_force_agreement():
    rng = random.Random(11)
    for n in range(0, 11):
        for _ in range(8):
            comp = random_comparability(n, rng)
            for min_size in (0, 2):
                masks, hit = kernels.antichains(n, comp, min_size=min_size)
                assert not hit
                # documented order: lexicographic over sorted index tuples
                assert masks == sorted(brute_antichains(n, comp, min_size),
                                       key=lambda m: index_tuple(n, m))


def test_antichains_limit_is_prefix():
    rng = random.Random(5)
    comp = random_comparability(9, rng)
    full, _ = kernels.antichains(9, comp, min_size=2)
    for limit in (0, 1, len(full) // 2, len(full), len(full) + 5):
        got, hit = kernels.antichains(9, comp, min_size=2, limit=limit)
        assert got == full[:limit]
        assert hit == (len(full) > limit)


def test_antichains_empty_graph_counts():
    masks, hit = kernels.antichains(4, [0, 0, 0, 0], min_size=0)
    assert not hit and len(masks) == 16
    masks, hit = kernels.antichains(4, [0, 0, 0, 0], min_size=2)
    assert len(masks) == 16 - 1 - 4


def brute_maps(p, q, allowed, require_open):
    out = []
    for table in iproduct(range(q.n), repeat=p.n):
        if any(not allowed[i] >> table[i] & 1 for i in range(p.n)):
            continue
        f = maps.PointMap(p, q, table)
        if not maps.is_monotone(f):
            continue
        if require_open and not maps.is_open_v2(f):
            continue
        out.append(table)
    return out


def test_enumerate_maps_brute_force_agreement():
    rng = random.Random(23)
    for _ in range(40):
        p = order.sample_preorder(rng.randrange(1, 5), rng)
        q = order.sample_preorder(rng.randrange(1, 4), rng)
        full = (1 << q.n) - 1
        # documented order: ascending values, assigned in the linear
        # extension of P by (downset size, index)
        ext = sorted(range(p.n), key=lambda i: (p.down[i].bit_count(), i))
        # several searches per domain: all but the first reuse its plan
        for _ in range(3):
            allowed = [full if rng.random() < 0.8 else rng.getrandbits(q.n)
                       for _ in range(p.n)]
            for require_open in (False, True):
                got, _ = kernels.enumerate_maps(p.n, q.n, p.down, p.up,
                                                q.down, q.up, allowed,
                                                require_open)
                assert got == sorted(brute_maps(p, q, allowed, require_open),
                                     key=lambda t: [t[x] for x in ext])


def test_enumerate_maps_budget():
    p = order.antichain(8)
    q = order.antichain(8)
    full = (1 << q.n) - 1
    with pytest.raises(BudgetError):
        kernels.enumerate_maps(p.n, q.n, p.down, p.up, q.down, q.up,
                               [full] * p.n, False, node_budget=10)


def test_enumerate_maps_on_relation_rows():
    # random frames, irreflexive and non-transitive rows included: open maps
    # are the p-morphisms, injective ones their injective part, and with a
    # reflexive codomain monotone maps are the relation-preserving functions
    rng = random.Random(31)
    for _ in range(150):
        f = kripke.sample_frame(rng.randrange(1, 5), rng)
        g = kripke.sample_frame(rng.randrange(1, 4), rng)
        # documented order: ascending values, assigned by (row size, index)
        ext = sorted(range(f.n), key=lambda i: (f.succ[i].bit_count(), i))
        tables = sorted(iproduct(range(g.n), repeat=f.n),
                        key=lambda t: [t[x] for x in ext])
        full = [(1 << g.n) - 1] * f.n
        pm = [t for t in tables if kripke.is_pmorphism(t, f, g)]
        got, _ = kernels.enumerate_maps(f.n, g.n, f.succ, f.pred, g.succ,
                                        g.pred, full, True)
        assert got == pm, (f, g)
        got, _ = kernels.enumerate_maps(f.n, g.n, f.succ, f.pred, g.succ,
                                        g.pred, full, True, injective=True)
        assert got == [t for t in pm if len(set(t)) == f.n], (f, g)
        refl = kripke.KripkeFrame(g.n, tuple(row | 1 << j
                                             for j, row in enumerate(g.succ)))
        got, _ = kernels.enumerate_maps(f.n, g.n, f.succ, f.pred, refl.succ,
                                        refl.pred, full, False)
        assert got == [t for t in tables
                       if all(refl.rel(t[x], t[y]) for x in range(f.n)
                              for y in bits(f.succ[x]))], (f, g)


def brute_iso(n_a, rel_a, n_b, rel_b):
    """Least permutation p with rel_a(i, j) == rel_b(p[i], p[j]), or None."""
    if n_a != n_b:
        return None
    for perm in permutations(range(n_a)):  # lexicographic order
        if all(rel_a(i, j) == rel_b(perm[i], perm[j])
               for i in range(n_a) for j in range(n_a)):
            return perm
    return None


def relabel_rows(rows, perm):
    """Rows of the relation carried along perm: i R j becomes perm[i] R perm[j]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            out[perm[i]] |= 1 << perm[j]
    return tuple(out)


def test_isomorphisms_are_the_least_permutation():
    preorders = order.enumerate_preorders(3)
    for p in preorders:
        for q in preorders:
            assert order.poset_iso(p, q) == brute_iso(p.n, p.leq, q.n, q.leq)
    frames = [f for n in (1, 2) for f in kripke.enumerate_frames(n)]
    for f in frames:
        for g in frames:
            assert kripke.frame_iso(f, g) == brute_iso(f.n, f.rel, g.n, g.rel)
    rng = random.Random(41)
    nones = 0
    for _ in range(200):
        perm = list(range(5))
        rng.shuffle(perm)
        p = order.sample_preorder(5, rng)
        f = kripke.sample_frame(5, rng)
        for q in (order.FinitePreorder(5, relabel_rows(p.up, perm)),
                  order.sample_preorder(5, rng)):
            expected = brute_iso(5, p.leq, 5, q.leq)
            assert order.poset_iso(p, q) == expected
            nones += expected is None
        for g in (kripke.KripkeFrame(5, relabel_rows(f.succ, perm)),
                  kripke.sample_frame(5, rng)):
            expected = brute_iso(5, f.rel, 5, g.rel)
            assert kripke.frame_iso(f, g) == expected
            nones += expected is None
    assert nones > 0
