"""The enumeration kernels against brute force, output order included."""

import random
from itertools import permutations, product as iproduct

import pytest
from hypothesis import given, strategies as st

from finord import hierarchy, hsets, kernels, kripke, maps, order
from finord.errors import BudgetError
from finord.kernels import bits
from oracles import relation_iso


def random_comparability(n, rng, density=0.3):
    comp = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                comp[i] |= 1 << j
                comp[j] |= 1 << i
    return comp


def brute_antichains(n, comp):
    out = set()
    for mask in range(1 << n):
        bits = [i for i in range(n) if mask >> i & 1]
        if len(bits) < 2:
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
            masks, hit = kernels.antichains(comp, 1 << n)
            assert not hit
            # documented order: lexicographic over sorted index tuples
            assert masks == sorted(brute_antichains(n, comp),
                                   key=lambda m: index_tuple(n, m))


def test_antichains_limit_keeps_nothing_on_overflow():
    rng = random.Random(5)
    comp = random_comparability(9, rng)
    full, _ = kernels.antichains(comp, 1 << 9)
    for limit in (0, len(full) - 1, len(full), len(full) + 1):
        got, hit = kernels.antichains(comp, limit)
        assert hit == (len(full) > limit)
        assert got == ([] if hit else full)


def test_antichains_empty_graph_counts():
    masks, hit = kernels.antichains([0, 0, 0, 0], 16)
    assert not hit and len(masks) == 16 - 1 - 4


def brute_maps(p, q, allowed):
    out = []
    for table in iproduct(range(q.n), repeat=p.n):
        if any(not allowed[i] >> table[i] & 1 for i in range(p.n)):
            continue
        f = maps.PointMap(p, q, table)
        if maps.is_monotone(f) and maps.is_open_v2(f):
            out.append(table)
    return out


def pinned_alone(p_down, p_up, q_down, q_up, allowed):
    """The open-map search that allows element i the values allowed[i]:
    `kernels.enumerate_pinned` with it as its one candidate, as the
    (maps list, nodes) of `enumerate_maps`."""
    members = [[a >> v & 1 for v in range(len(q_down))] for a in allowed]
    found, _, (nodes,) = kernels.enumerate_pinned(
        p_down, p_up, q_down, q_up, range(len(p_down)), members, 1)
    return found, nodes


def test_enumerate_maps_brute_force_agreement():
    rng = random.Random(23)
    for _ in range(40):
        p = order.sample_preorder(rng.randrange(1, 5), rng)
        q = order.sample_preorder(rng.randrange(1, 4), rng)
        full = (1 << q.n) - 1
        # documented order: ascending values, assigned in the linear
        # extension of P by (downset size, index)
        ext = sorted(range(p.n), key=lambda i: (p.down[i].bit_count(), i))

        def walk_order(tables):
            return sorted(tables, key=lambda t: [t[x] for x in ext])

        got, _ = kernels.enumerate_maps(p.down, p.up, q.down, q.up)
        assert got == walk_order(brute_maps(p, q, [full] * p.n))
        # pinned searches from the same domain, in the same order
        for _ in range(3):
            allowed = [full if rng.random() < 0.8 else rng.getrandbits(q.n)
                       for _ in range(p.n)]
            got, _ = pinned_alone(p.down, p.up, q.down, q.up, allowed)
            assert got == walk_order(brute_maps(p, q, allowed))


def test_enumerate_maps_budget(monkeypatch):
    # every map between 8-point antichains is open: 8 ** 8 of them
    p = order.from_pairs(8, ())
    q = order.from_pairs(8, ())
    monkeypatch.setattr(kernels, "NODE_BUDGET", 10)
    with pytest.raises(BudgetError) as exc:
        kernels.enumerate_maps(p.down, p.up, q.down, q.up)
    assert (exc.value.used, exc.value.budget) == (11, 10)


def test_enumerate_maps_on_relation_rows():
    # random frames, irreflexive and non-transitive rows included: open maps
    # are the p-morphisms
    rng = random.Random(31)
    for _ in range(150):
        f = kripke.sample_frame(rng.randrange(1, 5), rng)
        g = kripke.sample_frame(rng.randrange(1, 4), rng)
        # documented order: ascending values, assigned by (row size, index)
        ext = sorted(range(f.n), key=lambda i: (f.succ[i].bit_count(), i))
        tables = sorted(iproduct(range(g.n), repeat=f.n),
                        key=lambda t: [t[x] for x in ext])
        pm = [t for t in tables if kripke.is_pmorphism(t, f, g)]
        got, _ = kernels.enumerate_maps(f.succ, f.pred, g.succ, g.pred)
        assert got == pm, (f, g)


def recursive_maps(n_p, n_q, p_down, p_up, q_down, q_up, allowed,
                   node_budget=10_000_000):
    """The recursive form of `kernels.enumerate_maps`, plan included.

    Kept as the oracle for the loop kernel: same output, same order, same
    node count and the same BudgetError at the same node.
    """
    if n_p == 0:
        return [()], 0
    order = sorted(range(n_p), key=lambda i: (p_down[i].bit_count(), i))
    pos = [0] * n_p
    for k, x in enumerate(order):
        pos[x] = k
    check_at = [[] for _ in range(n_p)]
    for w in range(n_p):
        check_at[max(pos[z] for z in bits(p_down[w] | 1 << w))].append(w)
    later = [[(z, bool(p_up[x] >> z & 1), bool(p_down[x] >> z & 1))
              for z in order[k + 1:] if (p_up[x] | p_down[x]) >> z & 1]
             for k, x in enumerate(order)]
    cand = [allowed[i] & ((1 << n_q) - 1) for i in range(n_p)]
    f = [-1] * n_p
    out = []
    nodes = 0

    def backtrack(k):
        nonlocal nodes
        if k == n_p:
            out.append(tuple(f))
            return
        x = order[k]
        m = cand[x]
        while m:
            bit = m & -m
            m ^= bit
            v = bit.bit_length() - 1
            nodes += 1
            if nodes > node_budget:
                raise BudgetError("map search exceeded node budget",
                                  used=nodes, budget=node_budget)
            f[x] = v
            undo = []
            ok = True
            for z, above, below in later[k]:
                old = cand[z]
                new = old
                if above:
                    new &= q_up[v]
                if below:
                    new &= q_down[v]
                if new != old:
                    cand[z] = new
                    undo.append((z, old))
                    if not new:
                        ok = False
                        break
            if ok:
                for w in check_at[k]:
                    img = 0
                    for z in bits(p_down[w]):
                        img |= 1 << f[z]
                    if img != q_down[f[w]]:
                        ok = False
                        break
            if ok:
                backtrack(k + 1)
            for z, old in undo:
                cand[z] = old
        f[x] = -1

    backtrack(0)
    return out, nodes


def random_rows(rng):
    """Rows of a random preorder or of a random frame, as (n, down, up)."""
    if rng.random() < 0.5:
        p = order.sample_preorder(rng.randrange(1, 6), rng)
        return p.n, p.down, p.up
    f = kripke.sample_frame(rng.randrange(1, 6), rng)
    return f.n, f.succ, f.pred


def test_loop_kernel_matches_the_recursive_oracle(monkeypatch):
    # every value allowed on `enumerate_maps`, random pins on the pinned
    # walk as a batch of one
    rng = random.Random(53)
    budget_cases = 0
    for _ in range(400):
        n_p, p_down, p_up = random_rows(rng)
        n_q, q_down, q_up = random_rows(rng)
        full = (1 << n_q) - 1
        allowed = [full if rng.random() < 0.6 else rng.getrandbits(n_q)
                   for _ in range(n_p)]
        rows = (p_down, p_up, q_down, q_up)
        for pins, search in (
                ([full] * n_p, lambda: kernels.enumerate_maps(*rows)),
                (allowed, lambda: pinned_alone(*rows, allowed))):
            monkeypatch.undo()
            args = (n_p, n_q, *rows, pins)
            expected = recursive_maps(*args)
            assert search() == expected, args
            # at the boundary: exactly the nodes used pass, one fewer fails
            # at the same node
            nodes = expected[1]
            monkeypatch.setattr(kernels, "NODE_BUDGET", nodes)
            assert search() == expected
            if not nodes:
                continue
            budget_cases += 1
            for budget in {nodes - 1, rng.randrange(nodes)}:
                monkeypatch.setattr(kernels, "NODE_BUDGET", budget)
                with pytest.raises(BudgetError) as want:
                    recursive_maps(*args, node_budget=budget)
                with pytest.raises(BudgetError) as got:
                    search()
                assert (got.value.used, got.value.budget) == (
                    want.value.used, want.value.budget) == (budget + 1, budget)
    assert budget_cases > 750


def member_pins(classes, members, j):
    """The allowed vector of candidate j of a pinned batch."""
    return [sum(1 << v for v, row in enumerate(members[c]) if row >> j & 1)
            for c in classes]


def per_lane(found, masks, nodes):
    """The (maps, nodes) of each lane of an `enumerate_pinned` result: the
    maps whose lane mask holds its bit, in walk order, as a tuple."""
    return [(tuple(t for t, lanes in zip(found, masks) if lanes >> j & 1), n)
            for j, n in enumerate(nodes)]


def assert_pinned_matches_each_search(p_down, p_up, q_down, q_up, classes,
                                      members, count):
    """The batch equals every member's own search, and a batch of one
    equals that search too, under the same `kernels.NODE_BUDGET`; -> the
    batch's (maps, nodes) per member."""
    found, masks, nodes = kernels.enumerate_pinned(
        p_down, p_up, q_down, q_up, classes, members, count)
    assert len(nodes) == count and len(masks) == len(found)
    assert all(0 < lanes < 1 << count for lanes in masks)
    got = per_lane(found, masks, nodes)
    for j, result in enumerate(got):
        allowed = member_pins(classes, members, j)
        tables, nodes = recursive_maps(len(p_down), len(q_down), p_down,
                                       p_up, q_down, q_up, allowed,
                                       kernels.NODE_BUDGET)
        expected = (tuple(tables), nodes)
        assert result == expected, (j, allowed)
        alone = [[row >> j & 1 for row in rows] for rows in members]
        assert per_lane(*kernels.enumerate_pinned(
            p_down, p_up, q_down, q_up, classes, alone, 1)) == [expected]
    return got


def sweep_batches(h, posets):
    """Per poset: the stage-1 arguments of the sweep's pinned search, from
    its open maps into the two-point chain."""
    stage, _ = hierarchy.materialize(h, 1)
    f1 = maps.coordinate_map(h, 1, 1)
    f2 = maps.coordinate_map(h, 1, 2)
    classes = [2 * a + b for a, b in zip(f1.table, f2.table)]
    for p in posets:
        opens = maps.enumerate_open_maps(p, order.sierpinski())
        yield (stage.down, stage.up, p.down, p.up, classes,
               maps._members(p, opens, opens), len(opens) ** 2, opens)


def test_pinned_search_matches_each_sweep_candidate():
    # every candidate of the size-5 sweep, whose stage-1 searches find no
    # map, and stage 1 as a candidate of its own, where some find maps
    u = hsets.Universe()
    h = hierarchy.build(hsets.concrete_claw(u), 1, u)
    stage, _ = hierarchy.materialize(h, 1)
    for posets, examined, found in (
            (order.enumerate_posets(5), 9482, 0),
            (order.enumerate_posets(3) + [stage], 3630, 6)):
        nodes = maps_found = 0
        for *args, opens in sweep_batches(h, posets):
            # candidate len(opens) * i + j projects by (opens[i], opens[j])
            classes, members = args[4], args[5]
            for i, p1 in enumerate(opens):
                for j, p2 in enumerate(opens):
                    assert member_pins(classes, members,
                                       len(opens) * i + j) == [
                        sum(1 << v for v in range(len(p1))
                            if 2 * p1[v] + p2[v] == c)
                        for c in classes]
            for tables, n in assert_pinned_matches_each_search(*args):
                maps_found += len(tables)
                nodes += n
        assert (maps_found, nodes) == (found, examined)


def test_pinned_search_matches_each_search_on_random_batches(monkeypatch):
    # random preorders and frames, random class vectors and member rows
    rng = random.Random(61)
    found = empty_members = 0
    for _ in range(300):
        n_p, p_down, p_up = random_rows(rng)
        n_q, q_down, q_up = random_rows(rng)
        n_classes = rng.randrange(1, 5)
        classes = [rng.randrange(n_classes) for _ in range(n_p)]
        count = rng.randrange(1, 7)
        # dense rows find maps; sparse ones leave fibers, and sometimes a
        # whole member, empty
        density = rng.choice((0.2, 0.7, 1.0))
        members = [[sum(1 << j for j in range(count)
                        if rng.random() < density)
                    for _ in range(n_q)] for _ in range(n_classes)]
        if rng.random() < 0.2:
            drop = rng.randrange(count)
            members = [[row & ~(1 << drop) for row in rows]
                       for rows in members]
        args = (p_down, p_up, q_down, q_up, classes, members, count)
        got = assert_pinned_matches_each_search(*args)
        found += sum(len(tables) for tables, _ in got)
        nodes = [n for _, n in got]
        empty_members += nodes.count(0)
        # at the boundary: the largest member's count passes, one fewer
        # raises that member's error
        worst = max(nodes)
        monkeypatch.setattr(kernels, "NODE_BUDGET", worst)
        assert_pinned_matches_each_search(*args)
        if worst:
            monkeypatch.setattr(kernels, "NODE_BUDGET", worst - 1)
            with pytest.raises(BudgetError) as exc:
                kernels.enumerate_pinned(*args)
            assert (exc.value.used, exc.value.budget) == (worst, worst - 1)
        monkeypatch.undo()
    assert found > 100 and empty_members > 20


def test_pinned_search_budget_counts_each_member_alone(monkeypatch):
    # one element into a four-point antichain: each of two candidates tries
    # two of the four values, so the shared walk makes four nodes
    p = order.from_pairs(1, ())
    q = order.from_pairs(4, ())
    members = [[0b01, 0b10, 0b01, 0b10]]
    args = (p.down, p.up, q.down, q.up, [0], members, 2)
    monkeypatch.setattr(kernels, "NODE_BUDGET", 2)
    assert kernels.enumerate_pinned(*args) == (
        [(0,), (1,), (2,), (3,)], [0b01, 0b10, 0b01, 0b10], [2, 2])
    monkeypatch.setattr(kernels, "NODE_BUDGET", 1)
    with pytest.raises(BudgetError) as exc:
        kernels.enumerate_pinned(*args)
    assert (exc.value.used, exc.value.budget) == (2, 1)


def test_pinned_search_counts_past_one_byte():
    # three elements into a seven-point antichain: 7 + 49 + 343 nodes for
    # a candidate pinned nowhere, fewer for the others
    p = order.from_pairs(3, ())
    q = order.from_pairs(7, ())
    members = [[0b111, 0b011, 0b001, 0b111, 0b111, 0b111, 0b111]]
    got = assert_pinned_matches_each_search(p.down, p.up, q.down, q.up,
                                            [0, 0, 0], members, 3)
    assert [nodes for _, nodes in got] == [399, 258, 155]
    # the bit-sliced counts read back at every width
    rng = random.Random(67)
    for top in (1, 255, 256, 1 << 16, 1 << 32, (1 << 64) - 1):
        counts = [rng.randrange(top + 1) for _ in range(rng.randrange(70))]
        digits = [sum((n >> i & 1) << j for j, n in enumerate(counts))
                  for i in range(top.bit_length())]
        assert kernels._unslice(digits, len(counts)) == counts


def test_pinned_search_stops_at_the_node_past_the_budget(monkeypatch):
    # the first candidate passes the budget of 3 at its fourth value, the
    # first of the walk's 40 values; the walk reads one codomain row per
    # value it assigns, and must stop there
    p = order.from_pairs(1, ())
    q = order.from_pairs(40, ())
    reads = []

    class Rows(tuple):
        def __getitem__(self, v):
            reads.append(v)
            return tuple.__getitem__(self, v)

    members = [[0b11] * q.n]
    monkeypatch.setattr(kernels, "NODE_BUDGET", 3)
    with pytest.raises(BudgetError) as exc:
        kernels.enumerate_pinned(p.down, p.up, q.down, Rows(q.up), [0],
                                 members, 2)
    assert (exc.value.used, exc.value.budget) == (4, 3)
    assert reads == [0, 1, 2]


def assert_into_matches_each_search(p_down, p_up, group):
    """enumerate_into from one domain into a group of codomains gives each
    codomain, in order, the sorted maps of its own open-map search."""
    got = kernels.enumerate_into(p_down, p_up, group)
    assert len(got) == len(group)
    for (q_down, q_up), maps_c in zip(group, got):
        expected, _ = kernels.enumerate_maps(p_down, p_up, q_down, q_up)
        assert maps_c == tuple(sorted(expected)), (p_down, q_down)
    return sum(map(len, got))


def test_into_search_matches_each_search():
    # every preorder on up to 3 points, as its opposite frame, into every
    # frame on up to 3 states and every 4-state frame up to isomorphism,
    # one group per size
    groups = [[(g.succ, g.pred) for g in kripke.enumerate_frames(n)]
              for n in (1, 2, 3)]
    groups.append([(g.succ, g.pred) for g in kripke.frames_up_to_iso(4)])
    domains = [kripke.opposite_frame(p) for p in order.enumerate_preorders(3)]
    found = sum(assert_into_matches_each_search(d.succ, d.pred, group)
                for d in domains for group in groups)
    assert found == 47882
    # one group of 1-, 2- and 3-state frames, mixed: value v is allowed only
    # in the frames of more than v states
    rng = random.Random(43)
    mixed = groups[0] + groups[1] + rng.sample(groups[2], 64)
    rng.shuffle(mixed)
    found = sum(assert_into_matches_each_search(d.succ, d.pred, mixed)
                for d in domains)
    assert found == 1758
    # seeded frame domains, irreflexive and non-transitive rows included,
    # into the 3-state frames, then 4-state ones into the 4-state frames,
    # where the walk, with no monotone pruning, has its deepest trees
    rng = random.Random(41)
    for _ in range(12):
        d = kripke.sample_frame(rng.choice((3, 4)), rng,
                                rng.choice((0.3, 0.6, 0.9)))
        assert_into_matches_each_search(d.succ, d.pred, groups[2])
    found = 0
    for _ in range(8):
        d = kripke.sample_frame(4, rng, rng.choice((0.3, 0.6, 0.9)))
        found += assert_into_matches_each_search(d.succ, d.pred, groups[3])
    assert found == 10576
    # groups of one codomain, the 1-state ones included
    for d in domains[:5]:
        for group in groups[:2]:
            for codomain in group:
                assert_into_matches_each_search(d.succ, d.pred, [codomain])
    # the empty domain has one map into each codomain; no codomain, no map
    for group in groups:
        assert kernels.enumerate_into((), (), group) == [((),)] * len(group)
    assert kernels.enumerate_into(domains[0].succ, domains[0].pred, []) == []


def brute_iso(a, b):
    """Least permutation p with bit j of a[i] == bit p[j] of b[p[i]] for
    all i and j, or None; a and b are the rows of two relations."""
    n = len(a)
    if n != len(b):
        return None
    for perm in permutations(range(n)):  # lexicographic order
        if all(a[i] >> j & 1 == b[perm[i]] >> perm[j] & 1
               for i in range(n) for j in range(n)):
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
    # the isomorphism search the tests check with finds the least
    # permutation, and on preorders it agrees with canonical forms, the
    # package's only isomorphism test
    preorders = order.enumerate_preorders(3)
    for p in preorders:
        for q in preorders:
            expected = brute_iso(p.up, q.up)
            assert relation_iso(p.up, q.up) == expected
            assert (order.canonical_form(p) == order.canonical_form(q)) == (
                expected is not None)
    frames = [f for n in (1, 2) for f in kripke.enumerate_frames(n)]
    for f in frames:
        for g in frames:
            assert relation_iso(f.succ, g.succ) == brute_iso(f.succ, g.succ)
    rng = random.Random(41)
    nones = 0
    for _ in range(200):
        perm = list(range(5))
        rng.shuffle(perm)
        p = order.sample_preorder(5, rng)
        f = kripke.sample_frame(5, rng)
        for q in (order.FinitePreorder(5, relabel_rows(p.up, perm)),
                  order.sample_preorder(5, rng)):
            expected = brute_iso(p.up, q.up)
            assert relation_iso(p.up, q.up) == expected
            assert (order.canonical_form(p) == order.canonical_form(q)) == (
                expected is not None)
            nones += expected is None
        for g in (kripke.KripkeFrame(5, relabel_rows(f.succ, perm)),
                  kripke.sample_frame(5, rng)):
            expected = brute_iso(f.succ, g.succ)
            assert relation_iso(f.succ, g.succ) == expected
            nones += expected is None
    assert nones > 0


@st.composite
def rows_and_tables(draw, max_n=7):
    """Rows of a relation on range(n), a mask over it, a table from range(n)
    into range(k) and a mask over range(k)."""
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(1, max_n))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    table = tuple(draw(st.integers(0, k - 1)) for _ in range(n))
    return (rows, draw(st.integers(0, (1 << n) - 1)), table,
            draw(st.integers(0, (1 << k) - 1)))


def reachable(rows, i):
    """The j reachable from i in one or more steps, by depth-first search."""
    seen = set()
    stack = [i]
    while stack:
        x = stack.pop()
        for j in range(len(rows)):
            if rows[x] >> j & 1 and j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


@given(rows_and_tables())
def test_row_helpers_match_their_definitions(case):
    rows, m, table, target = case
    n = len(rows)
    chosen = [i for i in range(n) if m >> i & 1]
    assert kernels.union(rows, m) == sum(
        1 << j for j in range(n) if any(rows[i] >> j & 1 for i in chosen))
    assert kernels.image(table, m) == sum(
        1 << v for v in {table[i] for i in chosen})
    assert kernels.preimage(table, target) == sum(
        1 << i for i in range(n) if target >> table[i] & 1)
    closed = kernels.closure(rows)
    assert closed == tuple(sum(1 << j for j in reachable(rows, i))
                           for i in range(n))
    assert kernels.closure(closed) == closed
    assert kernels.row_string(rows) == "".join(
        "1" if rows[i] >> j & 1 else "0" for i in range(n) for j in range(n))
