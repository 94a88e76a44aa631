"""Small monoids and coefficient systems shared by the randomized tests."""

from __future__ import annotations

import itertools

from moncoh.abelian import AbHom, FgAbGroup, Z, Zmod
from moncoh.coeff import (
    CoeffSystem,
    constant_system,
    explicit_system,
    group_action_system,
)
from moncoh.monoid import (
    FinMonoid,
    cyclic_group,
    power_set_monoid,
    trivial_monoid,
    union_monoid,
)


def monogenic_three() -> FinMonoid:
    """e, a, b with a*a = b and everything longer collapsing to b."""
    return FinMonoid("mono3", ("e", "a", "b"), 0,
                     ((0, 1, 2), (1, 2, 2), (2, 2, 2)))


def left_zero_adjoined() -> FinMonoid:
    """Two left-zero elements with an identity adjoined."""
    return FinMonoid("lzero", ("e", "x", "y"), 0,
                     ((0, 1, 2), (1, 1, 1), (2, 2, 2)))


def right_zero_adjoined() -> FinMonoid:
    return FinMonoid("rzero", ("e", "x", "y"), 0,
                     ((0, 1, 2), (1, 1, 2), (2, 1, 2)))


def chain_semilattice(n: int) -> FinMonoid:
    """Union monoid of a chain of n nested sets; n + 1 elements."""
    return union_monoid([set(str(i) for i in range(k + 1)) for k in range(n)])


def small_monoids() -> list[FinMonoid]:
    return [
        trivial_monoid(),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        chain_semilattice(1),
        chain_semilattice(2),
        power_set_monoid(2),
        monogenic_three(),
        left_zero_adjoined(),
        right_zero_adjoined(),
    ]


def monoids_up_to_order(n_max: int) -> list[FinMonoid]:
    """Every monoid of order 2 to n_max with identity 0, one per
    isomorphism class: the table least among its relabellings that fix 0.
    The non-identity cells are filled in row-major order, and a branch is
    cut at the first triple whose four products are filled and disagree."""
    found: list[FinMonoid] = []
    for n in range(2, n_max + 1):
        non_id = range(1, n)
        cells = list(itertools.product(non_id, repeat=2))
        triples = list(itertools.product(non_id, repeat=3))
        perms = [(0, *p) for p in itertools.permutations(non_id)]
        t = [[b if a == 0 else a if b == 0 else None for b in range(n)]
             for a in range(n)]

        def associative() -> bool:
            for a, b, c in triples:
                ab, bc = t[a][b], t[b][c]
                if ab is not None and bc is not None:
                    left, right = t[ab][c], t[a][bc]
                    if None not in (left, right) and left != right:
                        return False
            return True

        def fill(k: int) -> None:
            if k == len(cells):
                table = tuple(map(tuple, t))
                if all(table <= tuple(tuple(p.index(table[p[a]][p[b]])
                                            for b in range(n))
                                      for a in range(n)) for p in perms):
                    found.append(FinMonoid(f"order {n} #{len(found)}",
                                           tuple("eabc"[:n]), 0, table))
                return
            a, b = cells[k]
            for v in range(n):
                t[a][b] = v
                if associative():
                    fill(k + 1)
            t[a][b] = None

        fill(0)
    return found


def mixed_two_three_system():
    """Left zeros x, y with an identity adjoined, A(e) = Z, A(x) = Z/2 and
    A(y) = Z/3: left translations by x, y are zero, right translations
    reduce Z modulo 2 or 3 and fix Z/2 and Z/3.  A tuple's group is that of
    its first entry, so every cochain group of degree >= 1 mixes Z/2 and Z/3
    and its change of basis comes from the Smith form."""
    m = left_zero_adjoined()
    groups = [Z, Zmod(2), Zmod(3)]
    lstar, rstar = {}, {}
    for a in range(3):
        for x in range(3):
            src, dst = groups[x], groups[m.mul(a, x)]
            lstar[(a, x)] = (AbHom.identity(src) if a == 0
                             else AbHom.zero(src, dst))
            rstar[(a, x)] = (AbHom.identity(src) if x != 0 or a == 0
                             else AbHom(Z, dst, ((1,),)))
    return explicit_system(m, groups, lstar, rstar)


def small_groups() -> list[FgAbGroup]:
    return [Z, Zmod(2), Zmod(3), Zmod(4), FgAbGroup(1, (2,))]


def negation_on_integers(order: int) -> CoeffSystem:
    """The cyclic group of even order acting on Z through the sign of the
    exponent."""
    m = cyclic_group(order)
    sign = {g: AbHom(Z, Z, ((1,),) if g % 2 == 0 else ((-1,),))
            for g in range(order)}
    return group_action_system(m, Z, sign)


def swap_action_system() -> CoeffSystem:
    """Order-two group permuting the two generators of Z/2 + Z/2."""
    m = cyclic_group(2)
    g = FgAbGroup(0, (2, 2))
    swap = AbHom(g, g, ((0, 1), (1, 0)))
    return group_action_system(m, g, [AbHom.identity(g), swap])


def systems_for(m: FinMonoid, groups: list[FgAbGroup] | None = None) -> list[CoeffSystem]:
    """Constant systems on every monoid, plus sign actions on even cyclic
    groups."""
    out = [constant_system(m, g) for g in (groups or small_groups())]
    if m.is_group() and m.size in (2, 4) and m.table == cyclic_group(m.size).table:
        out.append(negation_on_integers(m.size))
    return out


def seven_point_system():
    """Three sets over seven points, one point per nonempty subcollection."""
    from moncoh.structured import SetSystem

    return SetSystem.from_names(
        list("abcdefg"),
        [
            ("U0", ["a", "d", "e", "g"]),
            ("U1", ["b", "d", "f", "g"]),
            ("U2", ["c", "e", "f", "g"]),
        ],
    )


def disjoint_pair_system():
    """Two disjoint sets; no point lies in both."""
    from moncoh.structured import SetSystem

    return SetSystem.from_names(
        ["p", "q"], [("U0", ["p"]), ("U1", ["q"])])
