"""Finite monoids as explicit multiplication tables.

A table stores element indices; names are carried alongside for rendering
and for the document format.  Construction only checks shape, so that
law-breaking tables can be built and then diagnosed with validate().
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .abelian import _integers_only


@dataclass(frozen=True)
class FinMonoid:
    name: str
    element_names: tuple[str, ...]
    identity_index: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "element_names", tuple(self.element_names))
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        n = len(self.element_names)
        if n == 0:
            raise ValueError("a monoid needs at least the identity element")
        if len(set(self.element_names)) != n:
            raise ValueError("element names must be distinct")
        _integers_only([(self.identity_index,)], "identity index")
        if not 0 <= self.identity_index < n:
            raise ValueError("identity index out of range")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError(f"table must be {n} x {n}")
        _integers_only(self.table, "table entry")
        for row in self.table:
            for x in row:
                if not 0 <= x < n:
                    raise ValueError("table entry out of range")

    @property
    def size(self) -> int:
        return len(self.element_names)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def product(self, indices: Iterable[int]) -> int:
        acc = self.identity_index
        for i in indices:
            acc = self.table[acc][i]
        return acc

    def non_identity(self) -> list[int]:
        return [i for i in range(self.size) if i != self.identity_index]

    @functools.cached_property
    def factor_pairs(self) -> tuple[tuple[int, ...], ...]:
        """For each element z, its factorizations z = x * y into two
        non-identity elements, each as pos(x) * k + pos(y), where pos is
        the position in ``non_identity()`` and k = size - 1."""
        non_id = self.non_identity()
        pairs: list[list[int]] = [[] for _ in range(self.size)]
        for px, x in enumerate(non_id):
            for py, y in enumerate(non_id):
                pairs[self.table[x][y]].append(px * len(non_id) + py)
        return tuple(map(tuple, pairs))

    def is_group(self) -> bool:
        e = self.identity_index
        for a in range(self.size):
            if not any(self.table[a][b] == e and self.table[b][a] == e
                       for b in range(self.size)):
                return False
        return True

    def same_table(self, other: "FinMonoid") -> bool:
        """Structural equality ignoring names: used for floor distinctness."""
        return (self.identity_index == other.identity_index
                and self.table == other.table)


def validate(m: FinMonoid) -> list[str]:
    """Every identity and associativity violation, witnesses included."""
    problems: list[str] = []
    e = m.identity_index
    names = m.element_names
    for a in range(m.size):
        if m.table[e][a] != a:
            problems.append(
                f"identity law broken: {names[e]}*{names[a]} = "
                f"{names[m.table[e][a]]}, expected {names[a]}")
        if m.table[a][e] != a:
            problems.append(
                f"identity law broken: {names[a]}*{names[e]} = "
                f"{names[m.table[a][e]]}, expected {names[a]}")
    for a in range(m.size):
        for b in range(m.size):
            for c in range(m.size):
                left = m.table[m.table[a][b]][c]
                right = m.table[a][m.table[b][c]]
                if left != right:
                    problems.append(
                        f"associativity broken at ({names[a]},{names[b]},{names[c]}): "
                        f"({names[a]}*{names[b]})*{names[c]} = {names[left]} but "
                        f"{names[a]}*({names[b]}*{names[c]}) = {names[right]}")
    return problems


def cyclic_group(n: int) -> FinMonoid:
    _integers_only([[n]], "cyclic group order")
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    names = tuple(str(i) for i in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FinMonoid(f"Z/{n}", names, 0, table)


def _set_name(members: tuple[int, ...], points: Sequence[str]) -> str:
    return "{" + ",".join(points[i] for i in members) + "}"


def _mask_monoid(name: str, points: Sequence[str], masks: Iterable[int]) -> FinMonoid:
    """Union-closed bitmasks over points, 0 among them, under union; ordered
    by cardinality, then by member indices, so the identity comes first."""
    def members(mask: int) -> tuple[int, ...]:
        return tuple(i for i in range(len(points)) if mask >> i & 1)

    ordered = sorted(masks, key=lambda mask: (bin(mask).count("1"), members(mask)))
    index_of_mask = {mask: i for i, mask in enumerate(ordered)}
    names = tuple(_set_name(members(mask), points) for mask in ordered)
    table = tuple(tuple(index_of_mask[a | b] for b in ordered) for a in ordered)
    return FinMonoid(name, names, 0, table)


def union_monoid(family: Iterable[Iterable[str]], name: str | None = None) -> FinMonoid:
    """All unions of subfamilies of the given sets, under union.

    The empty union is adjoined as the identity.  Elements are ordered by
    cardinality and then lexicographically on the ground set, which puts
    the identity first.
    """
    sets = [frozenset(s) for s in family]
    if not sets:
        raise ValueError("union monoid needs a non-empty family")
    points = sorted(set().union(*sets))
    index_of_point = {p: i for i, p in enumerate(points)}
    masks = []
    for s in sets:
        mask = 0
        for p in s:
            mask |= 1 << index_of_point[p]
        masks.append(mask)
    closure = {0}
    frontier = [0]
    while frontier:
        current = frontier.pop()
        for mask in masks:
            new = current | mask
            if new not in closure:
                closure.add(new)
                frontier.append(new)
    if name is None:
        name = f"U({len(sets)} sets/{len(points)} points)"
    return _mask_monoid(name, points, closure)


def power_set_monoid(n: int) -> FinMonoid:
    """Subsets of {0, ..., n-1} under union; 2^n elements."""
    _integers_only([[n]], "ground set size")
    if n < 0:
        raise ValueError("ground set size must be nonnegative")
    return _mask_monoid(f"P({n})", [str(i) for i in range(n)], range(1 << n))


def trivial_monoid() -> FinMonoid:
    return FinMonoid("1", ("e",), 0, ((0,),))
