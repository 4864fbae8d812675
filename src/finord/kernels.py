"""Enumeration kernels.

The two hot loops of the package: independent-set (antichain) enumeration
over a comparability mask table (the tower's levels), and backtracking
search for monotone or open maps between relations given by rows, which
serves open maps, mediating maps and `heyting.cha_morphisms`.  No
isomorphism is decided by search: posets compare by
`order.canonical_form`.  The map search prepares its plan once
per domain and keeps it in a bounded cache, since callers such as the
obstruction sweep search from the same domain many times, and backtracks
in one loop over a per-depth stack, not by recursion: most of its calls try
a handful of assignments, so the cost of a call is mostly fixed cost.
`enumerate_pinned` runs many pinned open-map searches from one domain into
one codomain as one walk, which is how the obstruction sweep searches
stage 1: one call per poset, not one per candidate.  `enumerate_into`
runs the open-map searches from one domain into many codomains of one size
as one walk, which is how p-morphisms of Kripke frames are searched:
`kripke.pmorphisms` with one codomain, and the coreflection sweep with
every frame of one size, one walk per preorder.  The module also
holds every operation on relation rows the modules share: `bits` and
its inverse `mask`; `union` of the rows a mask selects; `unions`, every
union of some rows (downsets, upsets); `image` and `preimage` under a
table; `transpose`; transitive `closure`; `restrict` to a subset; and
`row_string`, the JSON bit string.  Sizes are read off the rows.  It
imports only `errors` and the standard library.

All subsets are bitmasks (bit i = element i), held in Python ints, so there
is no limit on the number of elements.  Output order is deterministic.
"""

import sys
from functools import lru_cache, reduce
from itertools import islice

from finord.errors import BudgetError

# stamped into benchmark records; the only implementation
ACTIVE = "pure"

# the search bound of every map search: the node budget of `enumerate_maps`,
# and the function-space bound of `kripke.pmorphisms`, the coreflection
# sweep, `kripke.fullness_frames_report` and `heyting.cha_morphisms`
NODE_BUDGET = 10_000_000


def antichains(comp, min_size=0, limit=None):
    """Enumerate subsets of range(len(comp)) with no two members comparable.

    comp[i] is the bitmask of elements comparable to i; i's own bit is
    ignored.  Emits masks in lexicographic order over sorted index tuples:
    (), (0,), (0,1), (0,1,2), ..., i.e. depth-first, extending before
    advancing.  Subsets smaller than min_size are skipped but still extended.

    Returns (masks, hit_limit): hit_limit is True exactly when more than
    `limit` results exist, and the list is then empty.  The results are
    counted up to limit + 1 before any is kept, so an overflowing call holds
    one frame per depth and no result.
    """
    if limit is not None and sum(
            1 for _ in islice(_walk(comp, min_size), limit + 1)) > limit:
        return [], True
    return list(_walk(comp, min_size)), False


def _walk(comp, min_size):
    """The antichains of `antichains`, lazily, in its order.

    One (mask, free) frame per depth: free holds the indices still to try
    as the frame's next member, all above its last index and comparable to
    none of its members.  The next child is the lowest bit j of free, and
    the child's free is what then remains of it minus comp[j], so no frame
    scans all len(comp) indices.
    """
    if min_size <= 0:
        yield 0
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
        if len(masks) >= min_size:
            yield m
        free &= ~comp[low.bit_length() - 1]
        if free:
            masks.append(m)
            frees.append(free)


def enumerate_maps(p_down, p_up, q_down, q_up, allowed, require_open,
                   node_budget=NODE_BUDGET):
    """Enumerate monotone maps P -> Q as value tuples, openness optional.

    P and Q are relations given by rows: p_down[i] is the mask of the points
    below i in a preorder (i's successors in a Kripke frame) and p_up[i] its
    transpose, likewise q_down/q_up.  allowed[i] restricts the values of
    element i (a mask over the points of Q).  Monotonicity is forward-checked
    between distinct elements only, so without require_open Q is assumed
    reflexive, as every preorder is.  With require_open, a map is emitted
    only if the image of every p_down[w] equals q_down of the image of w,
    checked as soon as w and p_down[w] are assigned; this prunes most of the
    tree and alone enforces P's self-loops.

    Elements are assigned by (row size, index) and candidate values are
    tried in ascending order, so output order is deterministic.  The
    per-domain part of the search (see `_plan`) is prepared once per domain
    and reused.  The search is depth-first, in one loop that keeps per depth
    the values still to try and the undo list of its forward checks.
    Raises BudgetError when more than node_budget assignments are
    attempted, at the first assignment past it.

    Returns (maps, nodes) where nodes is the number of assignments tried.
    """
    n_p = len(p_down)
    if n_p == 0:
        return [()], 0

    order, check_at, later, down_bits = _plan(tuple(p_down), tuple(p_up),
                                              require_open)
    full_q = (1 << len(q_down)) - 1
    cand = [a & full_q for a in allowed]
    f = [-1] * n_p
    out = []
    nodes = 0
    last = n_p - 1
    # per depth below k: the values still to try and the (z, old mask)
    # pairs that undo the forward checks of the value assigned there
    rest = [0] * n_p
    undos = [None] * n_p
    k = 0
    m = cand[order[0]]
    while True:
        if not m:
            # depth k is exhausted: go back to the previous depth
            k -= 1
            if k < 0:
                return out, nodes
            for z, old in undos[k]:
                cand[z] = old
            m = rest[k]
            continue
        bit = m & -m
        m ^= bit
        nodes += 1
        if nodes > node_budget:
            raise BudgetError("map search exceeded node budget",
                              used=nodes, budget=node_budget)
        v = bit.bit_length() - 1
        f[order[k]] = v
        up_v, down_v = q_up[v], q_down[v]
        undo = []
        ok = True
        # only elements related to order[k] can lose candidates
        for z, above, below in later[k]:
            old = cand[z]
            new = old
            if above:
                new &= up_v
            if below:
                new &= down_v
            if new != old:
                cand[z] = new
                undo.append((z, old))
                if not new:
                    ok = False
                    break
        if ok:
            for w in check_at[k]:
                img = 0
                for z in down_bits[w]:
                    img |= 1 << f[z]
                if img != q_down[f[w]]:
                    ok = False
                    break
        if ok and k < last:
            rest[k] = m
            undos[k] = undo
            k += 1
            m = cand[order[k]]
            continue
        if ok:
            out.append(tuple(f))
        for z, old in undo:
            cand[z] = old


def enumerate_pinned(p_down, p_up, q_down, q_up, classes, members, count,
                     node_budget):
    """Many pinned open-map searches from one domain into one codomain, in
    one walk.

    Candidate j, for j in range(count), pins element i of P to its fiber
    for classes[i]: the points v of Q whose members[classes[i]][v] holds
    bit j.  Returns one (maps, nodes) per candidate, exactly what
    `enumerate_maps(p_down, p_up, q_down, q_up, allowed_j, True,
    node_budget)` returns for its pins allowed_j, and raises that search's
    BudgetError as soon as some candidate's search would.

    The walk is that search's, over the values the assigned ones still
    allow, with the set of candidates still alive as a mask: a value is a
    node of the alive candidates whose fiber holds it, a forward check kills
    the candidates whose fiber met a point's allowed values before it and
    meets none after, and an openness check holds or fails for all of them.
    The node counts are bit-sliced, one mask per binary digit, so a node
    adds one to the counts of all its candidates with a few mask
    operations.  They are read out at the end, and whenever the nodes
    since the last reading could take some candidate past node_budget;
    they never need more than node_budget.bit_length() + 1 masks.
    """
    n_p = len(p_down)
    if n_p == 0:
        return [([()], 0) for _ in range(count)]

    order, check_at, later, down_bits = _plan(tuple(p_down), tuple(p_up),
                                              True)
    full_q = (1 << len(q_down)) - 1
    # per element: the rows of its fiber's members, the values its assigned
    # neighbours allow, and the candidates whose fiber meets those
    pins = [members[c] for c in classes]
    allow = [full_q] * n_p
    nonempty = [union(rows, full_q) for rows in members]
    meets = [nonempty[c] for c in classes]
    f = [-1] * n_p
    found = []  # (map, the candidates it is a map of), in walk order
    # the node counts, bit-sliced: bit j of counts[i] is bit i of
    # candidate j's count
    counts = []
    worst = pending = 0
    last = n_p - 1
    # per depth below k: the values still to try, the candidates alive and
    # the (z, old allowed mask, old meet) triples that undo its checks
    rest = [0] * n_p
    lives = [0] * n_p
    undos = [None] * n_p
    k = 0
    live = (1 << count) - 1
    fiber = pins[order[0]]
    m = full_q
    while True:
        if not m:
            k -= 1
            if k < 0:
                break
            for z, old, meet in undos[k]:
                allow[z] = old
                meets[z] = meet
            m = rest[k]
            live = lives[k]
            fiber = pins[order[k]]
            continue
        bit = m & -m
        m ^= bit
        v = bit.bit_length() - 1
        alive = live & fiber[v]
        if not alive:
            continue
        # a node of each alive candidate: add alive to the counts
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
                # union(pins[z], new), inline
                now = 0
                rows = pins[z]
                left = new
                while left:
                    low = left & -left
                    left ^= low
                    now |= rows[low.bit_length() - 1]
                allow[z] = new
                meets[z] = now
                undo.append((z, old, meet))
                # a candidate whose fiber met old and meets none of new
                # fails here, as its own search does
                alive &= ~meet | now
                if not alive:
                    break
        if alive:
            for w in check_at[k]:
                img = 0
                for z in down_bits[w]:
                    img |= 1 << f[z]
                if img != q_down[f[w]]:
                    alive = 0
                    break
        if alive and k < last:
            rest[k] = m
            lives[k] = live
            undos[k] = undo
            k += 1
            live = alive
            fiber = pins[order[k]]
            m = allow[order[k]]
            continue
        if alive:
            found.append((tuple(f), alive))
        for z, old, meet in undo:
            allow[z] = old
            meets[z] = meet

    maps = [[] for _ in range(count)]
    for t, alive in found:
        for j in bits(alive):
            maps[j].append(t)
    return list(zip(maps, _unslice(counts, count)))


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


def enumerate_into(p_down, p_up, codomains):
    """Open-map searches from one domain into many codomains of one size,
    in one walk.

    codomains is a sequence of (q_down, q_up) row pairs on one number of
    points.  Returns (map, codomain mask) pairs, ascending by map: bit c is
    set iff the map is open into codomains[c], and each map open into some
    codomain appears once.  So codomain c gets exactly
    `sorted(enumerate_maps(p_down, p_up, *codomains[c], allowed, True,
    math.inf)[0])`, with every value allowed.  Nothing bounds the walk:
    callers bound the function space first.

    The walk is that search's, with the codomains still alive as a mask.
    Each element keeps, per point u, the mask of codomains in which u is
    still a value it may take.  A forward check ANDs one mask per point
    into each related later element and kills the codomains that leave it
    no value; the openness check at w keeps the codomains whose q_down[f(w)]
    is the image of p_down[w].  Calls are few (one per domain and codomain
    size), so it recurses, one level per element.
    """
    if not codomains:
        return []
    everyone = (1 << len(codomains)) - 1
    if not p_down:
        return [((), everyone)]
    order, check_at, later, _ = _plan(tuple(p_down), tuple(p_up), True)
    keep, down_is = _into_plan(tuple(codomains))
    last = len(order) - 1
    # cand[z][u]: the codomains in which z may still take the value u
    cand = [(everyone,) * len(down_is)] * len(order)
    f = [-1] * len(order)
    found = []

    def walk(k, live):
        x = order[k]
        for v, among in enumerate(cand[x]):
            alive = live & among
            if not alive:
                continue
            f[x] = v
            saved = [(z, cand[z]) for z, _, _ in later[k]]
            for z, above, below in later[k]:
                cand[z] = tuple(map(int.__and__, cand[z],
                                    keep[v][above + 2 * below - 1]))
                alive &= reduce(int.__or__, cand[z])
            for w in check_at[k]:
                alive &= down_is[f[w]].get(image(f, p_down[w]), 0)
            if alive and k < last:
                walk(k + 1, alive)
            elif alive:
                found.append((tuple(f), alive))
            for z, old in saved:
                cand[z] = old

    walk(0, everyone)
    # elements are assigned in `_plan` order, not in table order
    found.sort()
    return found


@lru_cache(maxsize=16)
def _into_plan(codomains):
    """The part of `enumerate_into` that depends only on its codomains.

    Returns (keep, down_is).  keep[v][0], keep[v][1] and keep[v][2] give per
    point u the mask of the codomains whose q_up[v], q_down[v], and both,
    hold u: what assigning v leaves a later element above it, below it, or
    both.  down_is[v] maps each row q_down[v] of some codomain to the mask
    of the codomains with that row.
    """
    n_q = len(codomains[0][0])
    up_in = [[0] * n_q for _ in range(n_q)]
    down_in = [[0] * n_q for _ in range(n_q)]
    down_is = [{} for _ in range(n_q)]
    for c, (q_down, q_up) in enumerate(codomains):
        for v in range(n_q):
            down_is[v][q_down[v]] = down_is[v].get(q_down[v], 0) | 1 << c
            for u in bits(q_up[v]):
                up_in[v][u] |= 1 << c
            for u in bits(q_down[v]):
                down_in[v][u] |= 1 << c
    keep = tuple((tuple(up), tuple(down), tuple(map(int.__and__, up, down)))
                 for up, down in zip(up_in, down_in))
    return keep, tuple(down_is)


@lru_cache(maxsize=256)
def _plan(p_down, p_up, require_open):
    """The part of a map search that depends only on the domain P.

    Returns (order, check_at, later, down_bits): the elements of P by
    (row size, index); check_at[k], the points whose openness is checkable
    once order[k] is assigned (all empty without require_open); later[k],
    the elements after order[k] in that order that are related to it, as
    (z, z above order[k], z below order[k]); and down_bits[w], the members
    of p_down[w].
    """
    n_p = len(p_down)
    order = sorted(range(n_p), key=lambda i: (p_down[i].bit_count(), i))
    pos = [0] * n_p
    for k, x in enumerate(order):
        pos[x] = k

    # openness of w is checkable once w and all of p_down[w] are assigned
    check_at = [[] for _ in range(n_p)]
    if require_open:
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
    for i in bits(m):
        out |= rows[i]
    return out


def unions(rows):
    """Every union of some of the rows, ascending: the downsets of a
    preorder from its down rows, the upsets of a frame from its reflexive
    reachability rows."""
    out = {0}
    for row in rows:
        out |= {u | row for u in out}
    return sorted(out)


def image(table, m):
    """The mask of the values table[i] over the members i of mask m."""
    out = 0
    for i in bits(m):
        out |= 1 << table[i]
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
