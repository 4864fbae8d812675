"""The enumeration kernels against brute force, output order included."""

import random
from itertools import product as iproduct

import pytest

from finord import kernels, maps, order
from finord.errors import BudgetError


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


def test_enumerate_maps_rejects_non_reflexive_row():
    # row 1 of the domain lacks 1 itself; its openness check would have no
    # point to be filed under
    p_down = (0b01, 0b01)
    p_up = (0b11, 0b00)
    q = order.chain(2)
    with pytest.raises(ValueError, match="row 1"):
        kernels.enumerate_maps(2, q.n, p_down, p_up, q.down, q.up,
                               [0b11, 0b11], True)
