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
                    if h.domain != self.groups[x] or h.codomain != self.groups[combine(a, x)]:
                        raise ValueError(
                            f"{family}[{m.element_names[a]}, {m.element_names[x]}] has "
                            f"wrong domain or codomain")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffSystem):
            return NotImplemented
        return (self.monoid == other.monoid and self.groups == other.groups
                and dict(self.lstar) == dict(other.lstar)
                and dict(self.rstar) == dict(other.rstar))


def validate_relations(c: CoeffSystem) -> list[RelationViolation]:
    """Check all four translation-relation families over every element triple.

    A system stores the same map object under many pairs (the constant
    system one identity for all of them), so each distinct (outer, inner)
    pair of objects is composed once and each distinct pair of compared
    objects is compared once.  Both memos are keyed by object identity,
    which is stable because ``c`` and the memos hold every map for the
    whole call.
    """
    m = c.monoid
    names = m.element_names
    e = m.identity_index
    out: list[RelationViolation] = []
    composites: dict[tuple[int, int], AbHom] = {}
    verdicts: dict[tuple[int, int], bool] = {}

    def compose(outer: AbHom, inner: AbHom) -> AbHom:
        key = (id(outer), id(inner))
        h = composites.get(key)
        if h is None:
            h = composites[key] = outer.compose(inner)
        return h

    def equal(lhs: AbHom, rhs: AbHom) -> bool:
        key = (id(lhs), id(rhs))
        v = verdicts.get(key)
        if v is None:
            v = verdicts[key] = lhs.equals(rhs)
        return v

    for x in range(m.size):
        ident = AbHom.identity(c.groups[x])
        if not c.lstar[(e, x)].equals(ident):
            out.append(RelationViolation(
                "identity translation", (names[x],),
                "left translation by the identity is not the identity map"))
        if not c.rstar[(e, x)].equals(ident):
            out.append(RelationViolation(
                "identity translation", (names[x],),
                "right translation by the identity is not the identity map"))

    for a in range(m.size):
        for b in range(m.size):
            for x in range(m.size):
                lhs = c.lstar[(m.mul(a, b), x)]
                rhs = compose(c.lstar[(a, m.mul(b, x))], c.lstar[(b, x)])
                if not equal(lhs, rhs):
                    out.append(RelationViolation(
                        "left translation composition", (names[a], names[b], names[x]),
                        "translation by a*b differs from translating by b then a"))

                lhs = c.rstar[(m.mul(a, b), x)]
                rhs = compose(c.rstar[(b, m.mul(x, a))], c.rstar[(a, x)])
                if not equal(lhs, rhs):
                    out.append(RelationViolation(
                        "right translation composition", (names[a], names[b], names[x]),
                        "translation by a*b differs from translating by a then b"))

                lhs = compose(c.rstar[(b, m.mul(a, x))], c.lstar[(a, x)])
                rhs = compose(c.lstar[(a, m.mul(x, b))], c.rstar[(b, x)])
                if not equal(lhs, rhs):
                    out.append(RelationViolation(
                        "mixed translation commutation", (names[a], names[b], names[x]),
                        "left translation by a and right translation by b do not commute"))
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
