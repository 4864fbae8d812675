"""Hereditarily finite sets over an ordered base of atoms.

A Universe interns two kinds of elements: atoms, drawn from a BasePoset of
labels, and finite sets of previously interned elements.  Interning is
append-only and canonical (children sorted, duplicates collapse to the same
id), so structural equality is id equality.

The strict order is membership in the transitive closure: for sets that is
the hereditary unfolding of the children, for atoms it is the base order.
Each id's row, the mask of ids strictly below it, is computed once when the
id is interned (an atom's from the base relation, a set's as the union of
its children and their rows), so every order query is a mask read, and
the predicates on sets of ids (antichain, chain, convexity) read the rows
of the members instead of comparing pairs.  The recursive
characterization, x < y iff x <= c for some child c of y, is kept as the
test oracle.
"""

import re
from dataclasses import dataclass

from finord import order as order_mod
from finord.errors import FormatError
from finord.kernels import bits, mask

_LABEL_RE = re.compile(r"[A-Za-z0-9_.+\-]+\Z")


@dataclass(frozen=True)
class BasePoset:
    """Partial order on atom labels.

    Use base_poset() to build one from generating pairs; the constructor
    expects an already valid FinitePreorder over the label indices.
    """

    labels: tuple[str, ...]
    relation: order_mod.FinitePreorder

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate atom labels")
        for lab in self.labels:
            if not _LABEL_RE.match(lab):
                raise ValueError(f"bad atom label {lab!r}")
        if self.relation.n != len(self.labels):
            raise ValueError("relation size does not match label count")
        if not self.relation.is_poset:
            raise ValueError("base relation is not antisymmetric")


def base_poset(labels, pairs) -> BasePoset:
    """BasePoset from labels and generating pairs (a, b) meaning a <= b.

    The reflexive-transitive closure is taken; antisymmetry of the result is
    checked and its failure raises ValueError.
    """
    labels = tuple(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    rel = order_mod.from_pairs(len(labels), [(idx[a], idx[b]) for a, b in pairs])
    return BasePoset(labels, rel)


class Universe:
    """Append-only store of interned hereditary sets and atoms.

    With a base, every base atom is interned up front, so the atoms are
    exactly ids 0..k-1 in label order and an atom's label is its base label.
    Every id carries its row, the mask of the ids strictly below it; rows
    are filled at intern time and never change.
    """

    def __init__(self, base: BasePoset | None = None):
        self.base = base
        self._atoms = 0 if base is None else len(base.labels)
        self._children: list[tuple[int, ...] | None] = [None] * self._atoms
        self._below: list[int] = [base.relation.down[i] & ~(1 << i)
                                  for i in range(self._atoms)]
        self._index: dict[tuple[int, ...], int] = {}

    def __len__(self) -> int:
        return len(self._below)

    def ids(self) -> range:
        return range(len(self._below))

    def atom(self, label: str) -> int:
        """Id of an interned atom."""
        labels = () if self.base is None else self.base.labels
        if label not in labels:
            raise KeyError(f"atom {label!r} not in this universe")
        return labels.index(label)

    def intern(self, children) -> int:
        """Id of the set with the given children, interning it if new."""
        kids = tuple(sorted(set(children)))
        for c in kids:
            if not 0 <= c < len(self._below):
                raise ValueError(f"child id {c} is not interned")
        got = self._index.get(kids)
        if got is not None:
            return got
        below = 0
        for c in kids:
            below |= 1 << c | self._below[c]
        xid = len(self._below)
        self._children.append(kids)
        self._below.append(below)
        self._index[kids] = xid
        return xid

    def peek(self, children):
        """Id the set would get if already interned, else None. No insertion."""
        return self._index.get(tuple(sorted(set(children))))

    def kind(self, x: int) -> str:
        if not 0 <= x < len(self._below):
            raise IndexError(f"id {x} is not interned")
        return "atom" if x < self._atoms else "set"

    def children(self, x: int) -> tuple[int, ...]:
        if self.kind(x) != "set":
            raise ValueError(f"{x} is not a set")
        return self._children[x]

    def below(self, x: int) -> int:
        """Mask of the ids strictly below x."""
        return self._below[x]

    def lt(self, x: int, y: int) -> bool:
        return bool(self._below[y] >> x & 1)

    def leq(self, x: int, y: int) -> bool:
        return x == y or bool(self._below[y] >> x & 1)

    def comparable(self, x: int, y: int) -> bool:
        return bool(self._below[y] >> x & 1 or self._below[x] >> y & 1)

    def dump_line(self, x: int) -> str:
        if self.kind(x) == "atom":
            return f"{x} := atom {self.base.labels[x]}"
        inner = ", ".join(str(c) for c in self._children[x])
        return f"{x} := {{ {inner} }}" if inner else f"{x} := {{ }}"

    def dump(self) -> str:
        """One line per id, in id order.

        ``id := atom <label>`` or ``id := { id, id }``; children always have
        smaller ids than their parent, and load() reproduces ids exactly.
        """
        lines = [self.dump_line(x) for x in self.ids()]
        return "\n".join(lines) + ("\n" if lines else "")


_ATOM_LINE = re.compile(r"(\d+) := atom (\S+)\Z")
_SET_LINE = re.compile(r"(\d+) := \{ ?((?:\d+(?:, \d+)*)?) ?\}\Z")


def load(text: str, base: BasePoset | None = None) -> Universe:
    """Rebuild a Universe from dump() output; ids are preserved exactly.

    Universe(base) already holds the base atoms at ids 0..k-1, so atom lines
    may only come first and in label order: an atom line must name the atom
    whose id is the line's position among the non-blank lines.
    """
    u = Universe(base)
    pos = 0
    for lineno, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        m = _ATOM_LINE.match(line)
        if m:
            xid, lab = int(m.group(1)), m.group(2)
            if base is None or lab not in base.labels:
                raise FormatError(
                    f"line {lineno + 1}: atom {lab!r} is not in the base")
            if u.atom(lab) != pos:
                raise FormatError(f"line {lineno + 1}: atom lines must "
                                  "come first, in label order")
            got = pos
        else:
            m = _SET_LINE.match(line)
            if not m:
                raise FormatError(f"line {lineno + 1}: cannot parse {line!r}")
            xid = int(m.group(1))
            kids_str = m.group(2).strip()
            kids = [int(s) for s in kids_str.split(", ")] if kids_str else []
            for c in kids:
                if c >= len(u):
                    raise FormatError(
                        f"line {lineno + 1}: child {c} precedes nothing")
            if u.peek(kids) is not None:
                raise FormatError(f"line {lineno + 1}: duplicate set")
            if list(kids) != sorted(set(kids)):
                raise FormatError(
                    f"line {lineno + 1}: children must be sorted and distinct")
            got = u.intern(kids)
        if got != xid:
            raise FormatError(
                f"line {lineno + 1}: expected id {got}, found {xid}")
        pos += 1
    return u


# predicates on id collections, each read off the rows of its members

def is_antichain(ids, u: Universe) -> bool:
    """No two distinct members comparable: no member's row meets the set."""
    m = mask(ids)
    return not any(u.below(x) & m for x in bits(m))


def is_chain(ids, u: Universe) -> bool:
    """Every two members comparable.

    The order is strict, so each comparable pair of members shows up in
    exactly one member's row: k members form a chain exactly when their rows
    hold k(k-1)/2 members in all.
    """
    m = mask(ids)
    k = m.bit_count()
    pairs = sum((u.below(x) & m).bit_count() for x in bits(m))
    return pairs == k * (k - 1) // 2


def is_convex(ids, u: Universe) -> bool:
    """No interned element strictly between two members of `ids`.

    Whatever lies below a member is in that member's row, so the candidates
    are the non-members in the union of the members' rows, and one lies
    between two members exactly when its own row meets the set.
    """
    m = mask(ids)
    under = 0
    for x in bits(m):
        under |= u.below(x)
    return not any(u.below(q) & m for q in bits(under & ~m))


def chain_hypothesis(ids, u: Universe) -> bool:
    """Every {x in ids : x <= m} is a chain, for m in ids."""
    m = mask(ids)
    return all(is_chain(bits(u.below(top) & m | 1 << top), u)
               for top in bits(m))


# standard constructions

def concrete_claw(u: Universe) -> list[int]:
    """The four-element claw realized with genuine hereditary sets.

    b = {{0}} sits below each of a1 = {b, 1}, a2 = {b, 2}, a3 = {b, 3}
    (von Neumann 1, 2, 3), and the a_i are pairwise incomparable.
    Returns [b, a1, a2, a3].
    """
    zero = u.intern([])
    one = u.intern([zero])
    two = u.intern([zero, one])
    three = u.intern([zero, one, two])
    bottom = u.intern([one])
    return [
        bottom,
        u.intern([bottom, one]),
        u.intern([bottom, two]),
        u.intern([bottom, three]),
    ]


def abstract_antichain(k: int) -> tuple[Universe, list[int]]:
    """k pairwise incomparable atoms."""
    base = base_poset([f"a{i}" for i in range(k)], [])
    u = Universe(base)
    return u, [u.atom(f"a{i}") for i in range(k)]
