"""Coefficient systems over a finite monoid.

A system attaches an abelian group A(a) to every monoid element together
with two translation families:

* ``lstar[(a, x)]`` maps A(x) -> A(a*x)  (left translation by a)
* ``rstar[(b, x)]`` maps A(x) -> A(x*b)  (right translation by b)

subject to four relation families checked by validate_relations: left
translations compose contravariantly in the product, right translations
covariantly, the two families commute with each other, and the identity
element translates trivially.  Star maps are stored per ordered pair even
when they are all equal, so lookups never special-case the constant
system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence

from .abelian import AbHom, FgAbGroup
from .monoid import FinMonoid


class NotAGroup(ValueError):
    """Raised when an action system is requested over a non-group monoid."""


class ActionNotHomomorphic(ValueError):
    """Raised when the supplied action matrices do not form a group action."""


@dataclass(frozen=True)
class RelationViolation:
    relation: str
    witness: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.relation} at ({', '.join(self.witness)}): {self.detail}"


@dataclass(frozen=True, eq=False)
class CoeffSystem:
    monoid: FinMonoid
    groups: tuple[FgAbGroup, ...]
    lstar: Mapping[tuple[int, int], AbHom]
    rstar: Mapping[tuple[int, int], AbHom]

    def __post_init__(self) -> None:
        m = self.monoid
        if len(self.groups) != m.size:
            raise ValueError("one group per monoid element required")
        for family, combine in (("lstar", lambda a, x: m.mul(a, x)),
                                ("rstar", lambda b, x: m.mul(x, b))):
            maps = getattr(self, family)
            for a in range(m.size):
                for x in range(m.size):
                    h = maps.get((a, x))
                    if h is None:
                        raise ValueError(f"{family} missing pair "
                                         f"({m.element_names[a]}, {m.element_names[x]})")
                    # a constant system hands every map the very group
                    # objects it lists: identity decides without comparing
                    dom, cod = self.groups[x], self.groups[combine(a, x)]
                    if ((h.domain is not dom and h.domain != dom)
                            or (h.codomain is not cod and h.codomain != cod)):
                        raise ValueError(
                            f"{family}[{m.element_names[a]}, {m.element_names[x]}] has "
                            f"wrong domain or codomain")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffSystem):
            return NotImplemented
        return (self.monoid == other.monoid and self.groups == other.groups
                and dict(self.lstar) == dict(other.lstar)
                and dict(self.rstar) == dict(other.rstar))

    @cached_property
    def constant(self) -> bool:
        """Every group is groups[0] and every translation the identity;
        decided on first read and kept."""
        one = tuple({j: 1} for j in range(self.groups[0].ngens))
        return (all(g == self.groups[0] for g in self.groups)
                and all(h.columns == one for h in chain(self.lstar.values(),
                                                        self.rstar.values())))


_FAMILIES = (
    ("left translation composition",
     "translation by a*b differs from translating by b then a"),
    ("right translation composition",
     "translation by a*b differs from translating by a then b"),
    ("mixed translation commutation",
     "left translation by a and right translation by b do not commute"),
)


def validate_relations(c: CoeffSystem) -> list[RelationViolation]:
    """Check all four translation-relation families over every element triple.

    A system stores the same map object under many pairs (the constant
    system one identity for all of them), so the maps are numbered by
    object identity, stable because ``c`` holds every map for the whole
    call, and each relation is decided once per distinct combination of
    numbers.  Only when some combination fails are the triples walked,
    in order, to list the violations that map to it.
    """
    m = c.monoid
    t, r, e = m.table, range(m.size), m.identity_index
    maps = list({id(h): h for h in (*c.lstar.values(), *c.rstar.values())}
                .values())
    number = {id(h): k for k, h in enumerate(maps)}
    left = [[number[id(c.lstar[a, x])] for x in r] for a in r]
    right = [[number[id(c.rstar[a, x])] for x in r] for a in r]
    composites: dict[tuple[int, int], AbHom] = {}

    def compose(outer: int, inner: int) -> AbHom:
        if (outer, inner) not in composites:
            composites[outer, inner] = maps[outer].compose(maps[inner])
        return composites[outer, inner]

    # per triple, one key per family of _FAMILIES: (lhs, outer, inner) for
    # the two composition families, (outer, inner, outer, inner) for the
    # commutation
    keys = [(a, b, x,
             (left[t[a][b]][x], left[a][t[b][x]], left[b][x]),
             (right[t[a][b]][x], right[b][t[x][a]], right[a][x]),
             (right[b][t[a][x]], left[a][x], left[a][t[x][b]], right[b][x]))
            for a in r for b in r for x in r]
    identity = {h: maps[h].equals(AbHom.identity(maps[h].domain))
                for h in {*left[e], *right[e]}}
    holds = {k: (maps[k[0]].equals(compose(k[1], k[2])) if len(k) == 3
                 else compose(k[0], k[1]).equals(compose(k[2], k[3])))
             for k in {k for triple in keys for k in triple[3:]}}
    if all(identity.values()) and all(holds.values()):
        return []

    names = m.element_names
    out: list[RelationViolation] = []
    for x in r:
        for family, side in ((left, "left"), (right, "right")):
            if not identity[family[e][x]]:
                out.append(RelationViolation(
                    "identity translation", (names[x],),
                    f"{side} translation by the identity is not the identity map"))
    for a, b, x, *triple in keys:
        for k, (relation, detail) in zip(triple, _FAMILIES):
            if not holds[k]:
                out.append(RelationViolation(
                    relation, (names[a], names[b], names[x]), detail))
    return out


def constant_system(m: FinMonoid, group: FgAbGroup) -> CoeffSystem:
    """The same group everywhere, every translation the identity."""
    ident = AbHom.identity(group)
    pairs = {(a, x): ident for a in range(m.size) for x in range(m.size)}
    return CoeffSystem(m, (group,) * m.size, pairs, dict(pairs))


def group_action_system(m: FinMonoid, group: FgAbGroup,
                        action: Mapping[int, AbHom] | Sequence[AbHom]) -> CoeffSystem:
    """Left translations act through a group action, right ones trivially.

    Requires the monoid to be a group and the action maps to compose
    according to the table with the identity acting as the identity.
    """
    if not m.is_group():
        raise NotAGroup(f"{m.name} is not a group; action systems need inverses")
    try:
        acts = {i: action[i] for i in range(m.size)}
    except (KeyError, IndexError) as exc:
        raise ActionNotHomomorphic(f"action map missing for element {exc}") from exc
    for i, h in acts.items():
        if h.domain != group or h.codomain != group:
            raise ActionNotHomomorphic(
                f"action of {m.element_names[i]} is not an endomorphism of {group}")
    if not acts[m.identity_index].equals(AbHom.identity(group)):
        raise ActionNotHomomorphic("identity element must act as the identity map")
    for a in range(m.size):
        for b in range(m.size):
            if not acts[m.mul(a, b)].equals(acts[a].compose(acts[b])):
                raise ActionNotHomomorphic(
                    f"action is not multiplicative at "
                    f"({m.element_names[a]}, {m.element_names[b]})")
    ident = AbHom.identity(group)
    lstar = {(a, x): acts[a] for a in range(m.size) for x in range(m.size)}
    rstar = {(b, x): ident for b in range(m.size) for x in range(m.size)}
    return CoeffSystem(m, (group,) * m.size, lstar, rstar)


def explicit_system(m: FinMonoid, groups: Sequence[FgAbGroup],
                    lstar: Mapping[tuple[int, int], AbHom],
                    rstar: Mapping[tuple[int, int], AbHom]) -> CoeffSystem:
    """Fully explicit star families; shapes checked here, relations by
    validate_relations."""
    return CoeffSystem(m, tuple(groups), dict(lstar), dict(rstar))
