"""Enumeration kernels.

The two hot loops of the package: independent-set (antichain) enumeration
over a comparability mask table (the tower's levels), and backtracking
search for open maps between relations given by rows, which serves open
maps, mediating maps and p-morphisms.  No isomorphism is decided by
search: posets compare by `order.canonical_form`.  A map search prepares
its plan once per domain and keeps it in a bounded cache, since callers
such as the obstruction sweep search from the same domain many times, and
backtracks in one loop over a per-depth stack, not by recursion.  There
is one map walk, `_pinned_walk`, which runs many searches from one domain
as the lanes of one mask: `enumerate_maps` is one lane with every value
allowed, `enumerate_pinned` pinned searches into one codomain (the
obstruction sweep's, with the maps' masks of lanes) and `enumerate_into`
one codomain of any size per lane (the p-morphisms of Kripke frames,
split per lane).  The module also holds every operation on relation rows
the modules share: `bits` and its inverse `mask`; `union` of the rows a
mask selects; `unions`, every union of some rows (downsets); `image` and
`preimage` under a table; `is_open`; `transpose`; transitive `closure`;
`restrict` to a subset; and `row_string`, the JSON bit string.  Sizes are
read off the rows.  It imports only `errors` and the standard library.

All subsets are bitmasks (bit i = element i), held in Python ints, so there
is no limit on the number of elements.  Output order is deterministic.
"""

import math
import sys
from functools import lru_cache
from itertools import islice

from finord.errors import BudgetError

# stamped into benchmark records; the only implementation
ACTIVE = "pure"

# the bound of every map search: the node budget of each lane of the map
# walk that `enumerate_maps` and `enumerate_pinned` run, and the
# function-space bound of `kripke.pmorphisms`, the coreflection sweep,
# `fullness_frames_report` and the monotone assignments of
# `heyting.cha_morphisms`
NODE_BUDGET = 10_000_000


def antichains(comp, limit):
    """Enumerate the subsets of range(len(comp)) of two or more members, no
    two of them comparable: the candidates of a tower level.

    comp[i] is the bitmask of elements comparable to i; i's own bit is
    ignored.  Emits masks in lexicographic order over sorted index tuples:
    (0,1), (0,1,2), ..., (0,2), ..., i.e. depth-first, extending before
    advancing; the singletons are extended but not emitted.

    Returns (masks, hit_limit): hit_limit is True exactly when more than
    `limit` results exist, and the list is then empty.  The results are
    counted up to limit + 1 before any is kept, so an overflowing call holds
    one frame per depth and no result.
    """
    if sum(1 for _ in islice(_walk(comp), limit + 1)) > limit:
        return [], True
    return list(_walk(comp)), False


def _walk(comp):
    """The antichains of `antichains`, lazily, in its order.

    One (mask, free) frame per depth: free holds the indices still to try
    as the frame's next member, all above its last index and comparable to
    none of its members.  The next child is the lowest bit j of free, and
    the child's free is what then remains of it minus comp[j], so no frame
    scans all len(comp) indices.
    """
    masks = [0]
    frees = [(1 << len(comp)) - 1]
    while frees:
        free = frees[-1]
        if not free:
            masks.pop()
            frees.pop()
            continue
        low = free & -free
        free ^= low
        frees[-1] = free
        m = masks[-1] | low
        # the child has one member per frame on the stack
        if len(masks) >= 2:
            yield m
        free &= ~comp[low.bit_length() - 1]
        if free:
            masks.append(m)
            frees.append(free)


def enumerate_maps(p_down, p_up, q_down, q_up):
    """Enumerate the open maps P -> Q as value tuples.

    P and Q are relations given by rows: p_down[i] is the mask of the points
    below i in a preorder (i's successors in a Kripke frame) and p_up[i] its
    transpose, likewise q_down/q_up.  The search is one lane of
    `_pinned_walk`: every value is a member of the one class, and the lane
    accepts q_down[v] at v.  Maps come in walk order.  Raises BudgetError
    when more than NODE_BUDGET assignments are attempted, at the first
    assignment past it.

    Returns (maps, nodes) where nodes is the number of assignments tried.
    """
    found, _, counts = _pinned_walk(
        p_down, p_up, q_down, q_up, [0] * len(p_down), [[1] * len(q_down)],
        1, NODE_BUDGET, [{row: 1} for row in q_down])
    return found, sum(d << i for i, d in enumerate(counts))


def enumerate_pinned(p_down, p_up, q_down, q_up, classes, members, count):
    """Many pinned open-map searches from one domain into one codomain.

    Candidate j, for j in range(count), pins element i of P to its fiber
    for classes[i]: the points v of Q whose members[classes[i]][v] holds
    bit j.  Returns the maps in walk order, the parallel list of their
    masks of candidates (bit j marks candidate j's own search's maps), and
    per candidate the assignments that search tries; raises that search's
    BudgetError as soon as some candidate's search would pass NODE_BUDGET.
    The candidates are the lanes of `_pinned_walk`, which all accept
    q_down[v] at v.
    """
    found, masks, counts = _pinned_walk(
        p_down, p_up, q_down, q_up, classes, members, count, NODE_BUDGET,
        [{row: (1 << count) - 1} for row in q_down])
    return found, masks, _unslice(counts, count)


def enumerate_into(p_down, p_up, codomains):
    """The open-map searches from one domain into each of the codomains.

    codomains holds (q_down, q_up) row pairs of any sizes.  Returns per
    codomain, in order, the ascending tuple of the open maps that
    `enumerate_maps(p_down, p_up, q_down, q_up)` finds, with no node
    budget: callers bound the function space first.  The codomains are the
    lanes of `_pinned_walk`, on the complete relation of the largest size,
    so only openness prunes: value v is pinned to the codomains of more
    than v points, each accepts its own q_down[v] at v, and a map open into
    a codomain is monotone into it too.
    """
    opens = _into_opens(tuple(codomains))
    complete = ((1 << len(opens)) - 1,) * len(opens)
    # each codomain of more than v points has one row at v
    fits = [sum(lanes.values()) for lanes in opens]
    found, masks, _ = _pinned_walk(p_down, p_up, complete, complete,
                                   [0] * len(p_down), [fits], len(codomains),
                                   math.inf, opens)
    maps = [[] for _ in codomains]
    # elements are assigned in `_plan` order, not in table order
    for t, alive in sorted(zip(found, masks)):
        for j in bits(alive):
            maps[j].append(t)
    # the codomains with no map, most of those the coreflection sweep
    # keeps, share `()`
    return [tuple(m) for m in maps]


@lru_cache(maxsize=16)
def _into_opens(codomains):
    """Per point v, each row q_down[v] mapped to the mask of the codomains
    with that row: the openness table of `enumerate_into`."""
    opens = [{} for _ in range(max((len(q) for q, _ in codomains),
                                    default=0))]
    for c, (q_down, _) in enumerate(codomains):
        for v, row in enumerate(q_down):
            opens[v][row] = opens[v].get(row, 0) | 1 << c
    return tuple(opens)


def _pinned_walk(p_down, p_up, q_down, q_up, classes, members, count,
                 node_budget, opens):
    """The one map walk: count open-map searches from P into Q at once.

    Lane j pins element i to the points v with bit j in
    members[classes[i]][v], and accepts the image of p_down[w] at w iff
    opens[f(w)] maps it to a mask holding bit j.  Elements are assigned by
    (row size, index), each over the values its assigned neighbours allow,
    ascending, depth-first in one loop over a per-depth stack.  Monotonicity
    is forward-checked between distinct elements, and openness at w as soon
    as w and p_down[w] are assigned, which alone enforces P's self-loops.  A
    value is a node of the alive lanes whose fiber holds it, and a forward
    check kills the lanes whose fiber met an element's allowed values
    before it and meets none after.  The node counts are bit-sliced (bit j
    of counts[i] is bit i of lane j's count, at most
    node_budget.bit_length() + 1 masks), so a node adds one to all its
    lanes with a few mask operations.  They are read out whenever the nodes
    since the last reading could take a lane past node_budget, which raises
    that lane's BudgetError as its own search would, at its first node past
    the budget.

    Returns (found, masks, counts): the maps in walk order, each one's
    mask of lanes in the parallel list masks, and the counts.
    """
    n_p = len(p_down)
    if not n_p:
        return [()], [(1 << count) - 1], []
    order, check_at, later, down_bits = _plan(tuple(p_down), tuple(p_up))
    full_q = (1 << len(q_down)) - 1
    # per element: the rows of its fiber's members, the values its assigned
    # neighbours allow, and the lanes whose fiber meets those
    pins = [members[c] for c in classes]
    allow = [full_q] * n_p
    nonempty = [union(rows, full_q) for rows in members]
    meets = [nonempty[c] for c in classes]
    f = [-1] * n_p
    found, masks, counts = [], [], []
    worst = pending = 0
    last = n_p - 1
    # per depth below k: the values still to try, the lanes alive and the
    # (z, old allowed mask, old meet) triples that undo its checks
    stack = [None] * n_p
    k = 0
    live = (1 << count) - 1
    fiber = pins[order[0]]
    m = full_q
    while True:
        if not m:
            k -= 1
            if k < 0:
                return found, masks, counts
            m, live, undo = stack[k]
            for z, old, meet in undo:
                allow[z] = old
                meets[z] = meet
            fiber = pins[order[k]]
            continue
        bit = m & -m
        m ^= bit
        v = bit.bit_length() - 1
        alive = live & fiber[v]
        if not alive:
            continue
        # a node of each alive lane: add alive to the counts
        carry = alive
        for i, digit in enumerate(counts):
            counts[i] = digit ^ carry
            carry &= digit
            if not carry:
                break
        else:
            counts.append(carry)
        # the largest count is at most worst + pending
        pending += 1
        if worst + pending > node_budget:
            worst = max(_unslice(counts, count))
            pending = 0
            if worst > node_budget:
                raise BudgetError("map search exceeded node budget",
                                  used=node_budget + 1, budget=node_budget)
        f[order[k]] = v
        up_v, down_v = q_up[v], q_down[v]
        undo = []
        for z, above, below in later[k]:
            old = allow[z]
            new = old
            if above:
                new &= up_v
            if below:
                new &= down_v
            if new != old:
                meet = meets[z]
                pin, now, left = pins[z], 0, new  # union(pin, new), inlined
                while left:
                    low = left & -left
                    left ^= low
                    now |= pin[low.bit_length() - 1]
                allow[z] = new
                meets[z] = now
                undo.append((z, old, meet))
                # a lane whose fiber met old and meets none of new fails
                # here, as its own search does
                alive &= ~meet | now
                if not alive:
                    break
        if alive:
            for w in check_at[k]:
                img = 0
                for z in down_bits[w]:
                    img |= 1 << f[z]
                alive &= opens[f[w]].get(img, 0)
                if not alive:
                    break
        if alive and k < last:
            stack[k] = m, live, undo
            k += 1
            live = alive
            fiber = pins[order[k]]
            m = allow[order[k]]
            continue
        if alive:
            found.append(tuple(f))
            masks.append(alive)
        for z, old, meet in undo:
            allow[z] = old
            meets[z] = meet


def _unslice(digits, count):
    """The count numbers, below 2 ** 64, whose bit i is bit j of digits[i],
    for j in range(count)."""
    # number j in field j of packed, of the fewest bytes that hold it
    size = next(s for s in (1, 2, 4, 8) if len(digits) <= 8 * s)
    one = (1).to_bytes(size, "big")
    packed = 0
    for i, digit in enumerate(digits):
        # digit with bit j moved to the lowest bit of field j
        spread = format(digit, "b").encode().replace(
            b"0", bytes(size)).replace(b"1", one)
        packed |= int.from_bytes(spread, "big") << i
    return memoryview(packed.to_bytes(size * count, sys.byteorder)).cast(
        {1: "B", 2: "H", 4: "I", 8: "Q"}[size]).tolist()


@lru_cache(maxsize=256)
def _plan(p_down, p_up):
    """The part of a map search that depends only on the domain P.

    Returns (order, check_at, later, down_bits): the elements of P by
    (row size, index); check_at[k], the points whose openness is checkable
    once order[k] is assigned; later[k], the elements after order[k] in
    that order that are related to it, as (z, z above order[k], z below
    order[k]); and down_bits[w], the members of p_down[w].
    """
    n_p = len(p_down)
    order = sorted(range(n_p), key=lambda i: (p_down[i].bit_count(), i))
    pos = [0] * n_p
    for k, x in enumerate(order):
        pos[x] = k

    # openness of w is checkable once w and all of p_down[w] are assigned
    check_at = [[] for _ in range(n_p)]
    for w in range(n_p):
        check_at[max(pos[z] for z in bits(p_down[w] | 1 << w))].append(w)

    later = tuple(
        tuple((z, bool(p_up[x] >> z & 1), bool(p_down[x] >> z & 1))
              for z in order[k + 1:] if (p_up[x] | p_down[x]) >> z & 1)
        for k, x in enumerate(order))
    down_bits = tuple(tuple(bits(row)) for row in p_down)
    return tuple(order), tuple(map(tuple, check_at)), later, down_bits


def bits(mask):
    """Yield the indices of the set bits of mask, lowest first."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def mask(ids):
    """The mask with exactly the bits of ids set; the inverse of `bits`."""
    m = 0
    for x in ids:
        m |= 1 << x
    return m


def transpose(rows):
    """The converse of a relation on range(len(rows)) given by rows.

    Bit i of the result's row j is bit j of rows[i]: the predecessor rows of
    a successor relation, the down rows of an up relation, and back.
    """
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        bit_i = 1 << i
        while row:
            low = row & -row
            row ^= low
            cols[low.bit_length() - 1] |= bit_i
    return tuple(cols)


def restrict(rows, members):
    """A relation restricted to `members` and renumbered by position.

    rows[i] is the row of members[i] over the original numbering; bit j of
    the result's row i is bit members[j] of rows[i].  Bits outside
    `members` are dropped.
    """
    pos = {x: i for i, x in enumerate(members)}
    scope = mask(members)
    out = []
    for row in rows:
        local = 0
        for y in bits(row & scope):
            local |= 1 << pos[y]
        out.append(local)
    return tuple(out)


def union(rows, m):
    """The union of rows[i] over the members i of mask m (the down closure
    of m for down rows)."""
    out = 0
    while m:
        low = m & -m
        m ^= low
        out |= rows[low.bit_length() - 1]
    return out


def unions(rows):
    """Every union of some of the rows, ascending: the downsets of a
    preorder from its down rows, the upsets of a frame from its reflexive
    reachability rows."""
    out = {0}
    for row in rows:
        out |= {u | row for u in out}
    return sorted(out)


def is_open(table, rows, cod_rows):
    """The image under table of each row is the codomain row of its value:
    open maps of preorders on down rows, p-morphisms on successor rows."""
    return all(image(table, row) == cod_rows[v]
               for row, v in zip(rows, table))


def image(table, m):
    """The mask of the values table[i] over the members i of mask m."""
    out = 0
    while m:
        low = m & -m
        m ^= low
        out |= 1 << table[low.bit_length() - 1]
    return out


def preimage(table, m):
    """The mask of the i in range(len(table)) with table[i] in mask m."""
    out = 0
    for i, v in enumerate(table):
        if m >> v & 1:
            out |= 1 << i
    return out


def closure(rows):
    """The transitive closure of a relation given by rows, by Warshall's
    algorithm: row i holds every j reachable from i in one or more steps."""
    out = list(rows)
    n = len(out)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if out[i] & bit:
                out[i] |= out[k]
    return tuple(out)


def row_string(rows):
    """Row-major bit string of a relation on range(len(rows)): character
    i * n + j is '1' iff bit j of rows[i] is set."""
    n = len(rows)
    return "".join(format(row, f"0{n}b")[::-1] for row in rows)
