"""Finite preorders and posets over range(n), bitmask representation.

Subsets of the carrier are bitmasks (bit i = element i).  A FinitePreorder
stores, for every element, the mask of elements above and below it; downsets
and upsets are unions of those rows, taken by `kernels.union`.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct

from finord import kernels
from finord.errors import BudgetError, FormatError
from finord.kernels import bits

# largest carriers enumerate_posets and enumerate_preorders accept; the
# poset cap stands for the size of a sweep's report, which is built in memory,
# not for enumeration's cost: `obstruct --all-posets 7` writes 150 MB, hashed
# as it is piped in 1.7-2.0 s at a 199 MB peak RSS (2-vCPU VM, Python 3.11)
MAX_POSET_SIZE = 6
# most candidates (pairs of open maps into the two-point chain) that one
# product-obstruction sweep takes on, counted before its first search: the
# 370,486 of every poset on up to 7 points fit, the 5.6 million of the
# 8-point posets do not, nor the 280.8 million of tower stage 2 (22 points)
MAX_CANDIDATES = 500_000
MAX_PREORDER_SIZE = 4
# largest carrier whose downsets `all_downsets` enumerates
MAX_DOWNSET_SIZE = 20


@dataclass(frozen=True)
class FinitePreorder:
    """Reflexive transitive relation on range(n).

    up[i] is the mask of {j : i <= j}, down[i] the mask of {j : j <= i}.
    Construction validates reflexivity and transitivity.
    """

    n: int
    up: tuple[int, ...]

    def __post_init__(self):
        if len(self.up) != self.n:
            raise ValueError("up must have one row per element")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.up):
            if row & ~full:
                raise ValueError(f"row {i} mentions elements outside range({self.n})")
            if not row >> i & 1:
                raise ValueError(f"relation is not reflexive at {i}")
        for i in range(self.n):
            for j in bits(self.up[i]):
                if self.up[j] & ~self.up[i]:
                    raise ValueError(f"relation is not transitive at ({i}, {j})")

    @cached_property
    def down(self) -> tuple[int, ...]:
        return kernels.transpose(self.up)

    @cached_property
    def is_poset(self) -> bool:
        return all(self.up[i] & self.down[i] == 1 << i for i in range(self.n))

    def __repr__(self):
        pairs = [(i, j) for i in range(self.n) for j in bits(self.up[i]) if i != j]
        return f"FinitePreorder({self.n}, pairs={pairs})"


def from_pairs(n: int, pairs) -> FinitePreorder:
    """Preorder generated by `pairs`: reflexive-transitive closure."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    return FinitePreorder(n, kernels.closure(up))


def chain(n: int) -> FinitePreorder:
    return FinitePreorder(n, tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)))


def singleton() -> FinitePreorder:
    return chain(1)


def sierpinski() -> FinitePreorder:
    """Two points 0 < 1; downsets are {}, {0}, {0,1}."""
    return chain(2)


def product(p: FinitePreorder, q: FinitePreorder) -> FinitePreorder:
    """Componentwise order on pairs; pair (i, j) becomes index i * q.n + j."""
    n = p.n * q.n
    up = []
    for i in range(p.n):
        for j in range(q.n):
            mask = 0
            for a in bits(p.up[i]):
                for b in bits(q.up[j]):
                    mask |= 1 << (a * q.n + b)
            up.append(mask)
    return FinitePreorder(n, tuple(up))


def is_downset(p: FinitePreorder, mask: int) -> bool:
    return kernels.union(p.down, mask) == mask


def all_downsets(p: FinitePreorder) -> list[int]:
    """Every downset of p, ascending as integers: the unions of some of p's
    down rows (`kernels.unions`).  A carrier above MAX_DOWNSET_SIZE raises
    BudgetError before any downset is built."""
    if p.n > MAX_DOWNSET_SIZE:
        raise BudgetError("downset enumeration beyond the size cap",
                          used=p.n, budget=MAX_DOWNSET_SIZE)
    return kernels.unions(p.down)


def covers(p: FinitePreorder) -> list[tuple[int, int]]:
    """Cover pairs (i, j): i < j with nothing strictly between, i ascending,
    then j.  The j are the points strictly above i that lie strictly above
    no point strictly above i."""
    above = [p.up[i] & ~p.down[i] for i in range(p.n)]
    return [(i, j) for i in range(p.n)
            for j in bits(above[i] & ~kernels.union(above, above[i]))]


def _lower_twins(p: FinitePreorder) -> list[int]:
    """Per point z, the mask of its twins y < z, whose swap with z is an
    automorphism: same relations to all other points, same bit both ways."""
    up, down = p.up, p.down
    lower_twins = [0] * p.n
    for z in range(p.n):
        for y in range(z):
            if (not (up[y] ^ up[z] | down[y] ^ down[z]) & ~(1 << y | 1 << z)
                    and up[y] >> z & 1 == up[z] >> y & 1):
                lower_twins[z] |= 1 << y
    return lower_twins


def canonical_form(p: FinitePreorder) -> str:
    """Least leq bit string over all relabelings; equal iff isomorphic.

    Char r*n+s of a relabeling's string is '1' iff perm[r] <= perm[s].  The
    least one is found level by level over ordered partitions, without
    walking the n! relabelings.  At level r the cells of the points not yet
    placed fill positions r..n-1 in order, and perm[r] is taken from the
    first cell.  Every cell is then split into the points not above perm[r]
    and, after them, the points above it.  That gives row r its least value
    over all completions, and leaves each cell alike on every row placed so
    far.  Only the nodes whose row r is least over the whole level go on, so
    the result is exactly the least string.  Two twins (`_lower_twins`)
    swap by an automorphism that fixes the node, so only the lowest twin in
    a cell is tried.
    """
    n = p.n
    if n == 0:
        return ""
    up = p.up
    lower_twins = _lower_twins(p)
    key = 0
    nodes = [((), ((1 << n) - 1,))]
    for _ in range(n):
        least, kept = -1, []
        for perm, cells in nodes:
            first, rest = cells[0], cells[1:]
            for v in bits(first):
                if lower_twins[v] & first:
                    continue
                row = up[v]
                value = 0
                for u in perm:
                    value = value << 1 | row >> u & 1
                value = value << 1 | 1
                others = first & ~(1 << v)
                for cell in (others, *rest):
                    value = (value << cell.bit_count()
                             | (1 << (cell & row).bit_count()) - 1)
                if value == least:
                    kept.append((perm, v, others, rest))
                elif least < 0 or value < least:
                    least, kept = value, [(perm, v, others, rest)]
        key = key << n | least
        nodes = [((*perm, v), [part for cell in (others, *rest)
                               for part in (cell & ~up[v], cell & up[v])
                               if part])
                 for perm, v, others, rest in kept]
    return format(key, f"0{n * n}b")


def enumerate_posets(n: int) -> list[FinitePreorder]:
    """All posets on 1..n points up to isomorphism, canonical representatives.

    The list runs by size, and each size is sorted by `canonical_form`; it
    is empty for n < 1.  Size k is grown from size k - 1 by adjoining a new
    maximal element above a chosen downset (counts 1, 2, 5, 16, 63, 318,
    2045), and a class's first candidate is its representative.  A downset
    holding z but not a twin y < z of it (`_lower_twins`) is skipped: the
    parent's automorphism swapping y and z maps it to a smaller downset,
    whose isomorphic candidate came earlier.  So every class keeps its
    first candidate, and the list is the unpruned generation's.
    """
    if n > MAX_POSET_SIZE:
        raise ValueError("poset enumeration supported for "
                         f"n <= {MAX_POSET_SIZE}")
    if n < 1:
        return []
    reps = [singleton()]
    out = list(reps)
    for k in range(2, n + 1):
        by_form = {}
        for p in reps:
            twins = [(z, y) for z, y in enumerate(_lower_twins(p)) if y]
            for d in all_downsets(p):
                if any(d >> z & 1 and y & ~d for z, y in twins):
                    continue
                up = [row | (d >> i & 1) << (k - 1)
                      for i, row in enumerate(p.up)]
                q = FinitePreorder(k, (*up, 1 << (k - 1)))
                by_form.setdefault(canonical_form(q), q)
        reps = [by_form[key] for key in sorted(by_form)]
        out += reps
    return out


def enumerate_preorders(n: int) -> list[FinitePreorder]:
    """All labeled preorders on 1..n elements, by size; empty for n < 1.

    Counts per size 1, 4, 29, 355; n <= 4.
    """
    if n > MAX_PREORDER_SIZE:
        raise ValueError("labeled preorder enumeration supported for "
                         f"n <= {MAX_PREORDER_SIZE}")
    out = []
    for k in range(1, n + 1):
        off_diag = [(i, j) for i in range(k) for j in range(k) if i != j]
        for combo in iproduct((0, 1), repeat=len(off_diag)):
            up = [1 << i for i in range(k)]
            for (i, j), bit in zip(off_diag, combo):
                if bit:
                    up[i] |= 1 << j
            up = tuple(up)
            if kernels.closure(up) == up:
                out.append(FinitePreorder(k, up))
    return out


def sample_preorder(n: int, rng) -> FinitePreorder:
    """Random preorder: random digraph with edge density 0.3, then
    reflexive-transitive closure."""
    up = [1 << i | sum(1 << j for j in range(n)
                       if i != j and rng.random() < 0.3) for i in range(n)]
    return FinitePreorder(n, kernels.closure(up))


def to_json(p: FinitePreorder) -> dict:
    """Row-major leq bit string; char i*n+j is '1' iff i <= j."""
    return {"size": p.n, "leq": kernels.row_string(p.up)}


def from_json(data: dict) -> FinitePreorder:
    try:
        n = data["size"]
        leq = data["leq"]
    except (TypeError, KeyError) as exc:
        raise FormatError("preorder JSON needs 'size' and 'leq'") from exc
    if type(n) is not int or not isinstance(leq, str):
        raise FormatError("preorder JSON needs an integer 'size' and a string "
                          "'leq'")
    if n < 0 or len(leq) != n * n:
        raise FormatError("leq bit string must have size*size characters")
    if any(c not in "01" for c in leq):
        raise FormatError("leq bit string must be over {'0', '1'}")
    up = []
    for i in range(n):
        row = 0
        for j in range(n):
            if leq[i * n + j] == "1":
                row |= 1 << j
        up.append(row)
    try:
        return FinitePreorder(n, tuple(up))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def to_dot(p: FinitePreorder, labels=None) -> str:
    """DOT digraph; Hasse edges for posets, all strict edges otherwise."""
    name = labels or {i: str(i) for i in range(p.n)}
    lines = ["digraph order {", "  rankdir=BT;"]
    for i in range(p.n):
        lines.append(f'  n{i} [label="{name[i]}"];')
    edges = covers(p) if p.is_poset else [
        (i, j) for i in range(p.n) for j in bits(p.up[i]) if i != j
    ]
    for i, j in edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
