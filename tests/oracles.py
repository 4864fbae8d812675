"""Oracle routes and test inputs that the package itself never runs.

Each oracle reaches the same answer as a package routine by a different
route, so a test can compare the two; each input builds a structure only the
tests use.
"""

from itertools import permutations

from finord import kernels, kripke, maps, order
from finord.hsets import Universe, base_poset
from finord.kernels import bits


def is_pmorphism_via_preimages(table, f, g) -> bool:
    """Oracle for `kripke.is_pmorphism`: preimage of predecessors =
    predecessors of preimage."""
    fibers = [0] * g.n
    for x, v in enumerate(table):
        fibers[v] |= 1 << x
    for y in range(g.n):
        lhs = 0
        for x, v in enumerate(table):
            if g.pred[y] >> v & 1:
                lhs |= 1 << x
        rhs = 0
        for x in bits(fibers[y]):
            rhs |= f.pred[x]
        if lhs != rhs:
            return False
    return True


def upsets(f) -> list[int]:
    """Every R-upset of frame f, ascending: the unions of some of its
    reflexive reachability rows, 2 ** f.n of them at most."""
    return kernels.unions(
        kernels.closure([row | 1 << i for i, row in enumerate(f.succ)]))


def coreflect_by_upsets(f) -> int:
    """Oracle for `kripke.coreflect`: the member mask as the union of every
    R-upset on which R is a preorder, each tested on its own."""
    y = 0
    for u in upsets(f):
        if kripke.is_preorder_on(f, u):
            y |= u
    return y


def bao_join_by_scan(a) -> int:
    """Oracle for the carrier of `kripke.bao_L`: the join of every element
    below its own box, scanned over all 2 ** a.atoms elements."""
    s = 0
    for x in range(1 << a.atoms):
        if x & ~a.box(x) == 0:
            s |= x
    return s


def covers_pairwise(p) -> list[tuple[int, int]]:
    """Oracle for `order.covers`: the pairs i < j with no k strictly
    between, tested pair by pair, i ascending, then j."""
    def lt(i, j):
        return bool(p.up[i] >> j & 1) and not p.up[j] >> i & 1
    return [(i, j) for i in range(p.n) for j in range(p.n)
            if lt(i, j) and not any(lt(i, k) and lt(k, j)
                                    for k in range(p.n))]


def canonical_form_bruteforce(p) -> str:
    """Oracle for `order.canonical_form`: the least leq bit string over all
    n! relabelings.

    Each relabeling's bit string is built as an integer, row by row; strings
    of equal length compare like their integer values, so the minimum is the
    same.  Once the rows built so far exceed the same-length prefix of the
    best key, the relabeling cannot win and the rest of its rows are
    skipped.
    """
    n = p.n
    if n == 0:
        return ""
    best = 1 << n * n  # above every key
    for perm in permutations(range(n)):
        key = 0
        left = n * n
        for i in perm:
            row = p.up[i]
            for j in perm:
                key = key << 1 | row >> j & 1
            left -= n
            if key > best >> left:
                break
        else:
            best = key
    return format(best, f"0{n * n}b")


def relation_iso(a, b):
    """Oracle for isomorphism, which the package decides by
    `order.canonical_form` alone: the least bijection f with bit j of a[i]
    equal to bit f[j] of b[f[i]] for all i and j, or None; a and b are the
    rows of two relations.

    A depth-first search assigns the points of a in order, each to the
    least unused point of b with its row and column sizes whose bits agree
    with every point assigned so far, so the first bijection it completes
    is the least.
    """
    n = len(a)
    if n != len(b):
        return None

    def sizes(rows, i):
        return rows[i].bit_count(), sum(row >> i & 1 for row in rows)

    options = [[v for v in range(n) if sizes(b, v) == sizes(a, i)]
               for i in range(n)]
    f = []

    def extend(i):
        if i == n:
            return True
        for v in options[i]:
            if v not in f and all(
                    a[i] >> j & 1 == b[v] >> f[j] & 1
                    and a[j] >> i & 1 == b[f[j]] >> v & 1
                    for j in range(i)) and a[i] >> i & 1 == b[v] >> v & 1:
                f.append(v)
                if extend(i + 1):
                    return True
                f.pop()
        return False

    return tuple(f) if extend(0) else None


def swept(h, posets) -> list[tuple]:
    """The blocks of `maps.product_obstructions` over posets on tower h,
    flattened to one (i, p1, p2, verdict) per candidate, p1 outer; p1 and
    p2 are tables."""
    out = []
    for i, firsts, seconds, verdicts in maps.product_obstructions(h, posets):
        pairs = [(p1, p2) for p1 in firsts for p2 in seconds]
        assert len(pairs) == len(verdicts)
        out += [(i, p1, p2, v) for (p1, p2), v in zip(pairs, verdicts)]
    return out


def certificate_dicts(h, posets, names) -> list[dict]:
    """Oracle for the certificate texts of an untimed `obstruct` report: one
    dict per candidate of the sweep over posets on tower h, for the stdlib
    encoder to render; names[i] names posets[i]."""
    return [{"poset": names[i], "size": posets[i].n,
             "p1": p1, "p2": p2,
             "certificate_kind": verdict.certificate_kind,
             "stage": verdict.stage,
             "candidates_examined": verdict.candidates_examined,
             "mediating_found": verdict.mediating_found,
             "elapsed": None}
            for i, p1, p2, verdict in swept(h, posets)]


def posets_unpruned(n, form=order.canonical_form):
    """Oracle for `order.enumerate_posets`: the same generation with no
    candidate skipped.  Size k grows from the representatives of size
    k - 1 by a new maximal point above each of their downsets, every
    candidate gets its form, and the first candidate with a form is its
    class's representative, listed in form order; no size cap."""
    reps = [order.singleton()] if n >= 1 else []
    out = list(reps)
    for k in range(2, n + 1):
        seen = {}
        for p in reps:
            for d in order.all_downsets(p):
                up = [row | (d >> i & 1) << (k - 1)
                      for i, row in enumerate(p.up)]
                q = order.FinitePreorder(k, (*up, 1 << (k - 1)))
                seen.setdefault(form(q), q)
        reps = [seen[key] for key in sorted(seen)]
        out += reps
    return out


def is_monotone_pairwise(f) -> bool:
    """Oracle for `maps.is_monotone`: i <= j gives f(i) <= f(j), tested
    pair by pair."""
    return all(not f.dom.up[i] >> j & 1
               or f.cod.up[f.table[i]] >> f.table[j] & 1
               for i in range(f.dom.n) for j in range(f.dom.n))


def implies_bruteforce(alg, a: int, b: int) -> int:
    """Oracle for the closed-form `DownsetAlgebra.implies`: scan every
    downset; the candidates are closed under union so their union is the
    maximum."""
    out = 0
    for x in alg.elements:
        if a & x & ~b == 0:
            out |= x
    return out


def ordinal(u: Universe, k: int) -> int:
    """Id of the von Neumann ordinal k = {0, 1, ..., k-1}, a chain."""
    cur = u.intern([])
    below = [cur]
    for _ in range(k):
        cur = u.intern(below)
        below.append(cur)
    return cur


def abstract_claw() -> tuple[Universe, list[int]]:
    """Same shape as `hsets.concrete_claw` but with four base atoms
    b < a1, a2, a3."""
    base = base_poset(
        ["b", "a1", "a2", "a3"],
        [("b", "a1"), ("b", "a2"), ("b", "a3")],
    )
    u = Universe(base)
    return u, [u.atom(lab) for lab in base.labels]


def sample_poset(n: int, rng) -> order.FinitePreorder:
    """Random poset: random DAG with edge density 0.3 along a shuffled
    order, then closure."""
    perm = list(range(n))
    rng.shuffle(perm)
    return order.from_pairs(n, [(perm[a], perm[b])
                                for a in range(n) for b in range(a + 1, n)
                                if rng.random() < 0.3])
