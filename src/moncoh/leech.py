"""Normalized cochain complexes of a finite monoid with coefficients.

Degree n cochains are functions on n-tuples of non-identity elements,
the value on (a_1, ..., a_n) living in the group attached to the product
a_1 * ... * a_n.  Normalization is realized by omitting every tuple that
contains the identity, so the degree n group is a direct sum over
(m - 1)^n tuples, listed lexicographically by element index.  Degree 0 is
the single group attached to the identity.

The coboundary sends a degree n cochain f to the degree n + 1 cochain

    (a_1, ..., a_(n+1)) |->
        lstar(a_1)(f(a_2, ..., a_(n+1)))
      + sum_j (-1)^j f(a_1, ..., a_j * a_(j+1), ..., a_(n+1))
      + (-1)^(n+1) rstar(a_(n+1))(f(a_1, ..., a_n))

where a middle term vanishes whenever the merged entry is the identity.
Merged tuples multiply to the same element as the output tuple, so the
middle blocks are plain signed identity matrices.

Leech tables are read off a smaller complex with the same cohomology,
reduced along a one-level algebraic Morse matching (``MorseLeechComplex``),
the one-floor case of ``morse_reduction``, which reduces a stack of
floors joined by vertical maps the same way for total complexes.

Cohomology indexing: H^n = ker(d^n) / im(d^(n-1)) with d^(-1) = 0, so H^0
is the kernel of the degree 0 coboundary.  Reports carry this convention
explicitly because the shifted labelling H^n = ker(d^(n+1)) / im(d^n) also
appears in the literature; under that reading every table in this package
shifts down by one degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Container, Iterable, Sequence

from .abelian import (
    AbHom,
    CochainComplex,
    DirectSum,
    FgAbGroup,
    SparseColumn,
    _integers_only,
    assemble_hom,
    direct_sum_ngens,
)
from .coeff import CoeffSystem, validate_relations
from .monoid import FinMonoid

INDEXING_CONVENTION = "H^n = ker(d^n) / im(d^(n-1)) with d^(-1) = 0"
ALTERNATE_INDEXING_NOTE = (
    "under the shifted labelling H^n = ker(d^(n+1)) / im(d^n) every degree "
    "in these tables moves down by one")


@dataclass(frozen=True)
class CochainGroup:
    """Degree n cochain group of a monoid with a coefficient system.

    Its components are the (m.size - 1)^n tuples of non-identity elements
    in lexicographic order, the order of
    ``itertools.product(m.non_identity(), repeat=n)``; that order fixes
    the coordinates of the group, including those of vertical maps given
    in documents.  The tuples are not stored: with k = m.size - 1, entry q
    of tuple i is ``non_identity()[i // k^(n-1-q) % k]``.
    ``products[i]`` is the product of tuple i.
    """

    degree: int
    products: tuple[int, ...]
    dsum: DirectSum

    @property
    def total(self) -> FgAbGroup:
        return self.dsum.total


def _check(m: FinMonoid, c: CoeffSystem, n: int,
           what: str = "cochain degree") -> None:
    if c.monoid is not m and c.monoid != m:
        raise ValueError("coefficient system belongs to a different monoid")
    _integers_only([[n]], what)
    if n < 0:
        raise ValueError(f"{what} must be nonnegative")


def cochain_group(m: FinMonoid, c: CoeffSystem, n: int) -> CochainGroup:
    """Build the degree n cochain group; (m.size - 1)^n components."""
    _check(m, c, n)
    non_id = m.non_identity()
    # tuple t + (a,) follows t + (b,) for b < a, so each degree's products
    # extend the previous degree's in order
    products = [m.identity_index]
    for _ in range(n):
        products = [m.table[p][a] for p in products for a in non_id]
    return CochainGroup(n, tuple(products),
                        DirectSum.of([c.groups[p] for p in products]))


def _multiplicities(m: FinMonoid, c: CoeffSystem,
                    n: int) -> list[dict[FgAbGroup, int]]:
    """For each degree 0..n, how many tuples carry each coefficient group:
    how many tuples have each product, counted degree by degree without
    listing them."""
    _check(m, c, n)
    non_id = m.non_identity()
    counts = [0] * m.size
    counts[m.identity_index] = 1
    out = []
    for degree in range(n + 1):
        if degree:
            step = [0] * m.size
            for p, k in enumerate(counts):
                if k:
                    row = m.table[p]
                    for a in non_id:
                        step[row[a]] += k
            counts = step
        multiplicity: dict[FgAbGroup, int] = {}
        for p, k in enumerate(counts):
            if k:
                g = c.groups[p]
                multiplicity[g] = multiplicity.get(g, 0) + k
        out.append(multiplicity)
    return out


def cochain_ngens(m: FinMonoid, c: CoeffSystem, n: int) -> int:
    """Canonical generators of the degree n cochain group, counted without
    building it: ``direct_sum_ngens`` of ``_multiplicities``."""
    return direct_sum_ngens(_multiplicities(m, c, n)[n])


def cochain_totals(m: FinMonoid, c: CoeffSystem,
                   n: int) -> list[FgAbGroup]:
    """``cochain_group(m, c, k).total`` for k = 0..n, counted as
    ``cochain_ngens`` counts: no summand list and no change of basis."""
    out = []
    for multiplicity in _multiplicities(m, c, n):
        free, torsion = 0, {}
        for g, k in multiplicity.items():
            free += k * g.free_rank
            for d in g.torsion:
                torsion[d] = torsion.get(d, 0) + k
        orders = sorted(torsion)
        chained = list(chain.from_iterable([d] * torsion[d] for d in orders))
        out.append(FgAbGroup.from_invariants([0] * free + chained)
                   if any(b % a for a, b in zip(orders, orders[1:]))
                   else FgAbGroup(free, tuple(chained)))
    return out


def _face_rule(m: FinMonoid, c: CoeffSystem, n: int,
               heads: Container[int] | None, present: Iterable[int]
               ) -> Callable[[int, int], list[tuple]]:
    """faces(i, p) lists the terms of d^n that read f(s), for the degree n
    tuple s with lexicographic index i and product p, as (target index,
    translation block or None for a signed identity, sign): lstar, then
    middle by q, then rstar, kept when the target starts with an element
    of heads (every element for None).  With k = m.size - 1, (a, s) is
    pos(a) * k^n + i (lstar), (s, a) is i * k + pos(a) (rstar), and
    splitting s_q into each x * y = s_q gives the middle terms.  Blocks
    are built for the products in present."""
    non_id = m.non_identity()
    k = len(non_id)
    width = k ** n
    splits = m.factor_pairs
    head = [True] * k if heads is None else [a in heads for a in non_id]
    # x * y = s_0 with x a head
    first = splits if heads is None else [
        tuple(xy for xy in fs if head[xy // k]) for fs in splits]
    # the translations of a constant system are read as signed identities
    constant = c.constant
    left = {p: [(pa * width, None if constant else c.lstar[a, p].columns)
                for pa, a in enumerate(non_id) if head[pa]] for p in present}
    right = {p: [(pa, None if constant else c.rstar[a, p].columns)
                 for pa, a in enumerate(non_id) if n or head[pa]]
             for p in present}
    right_sign = -1 if (n + 1) % 2 else 1

    def faces(i: int, p: int) -> list[tuple]:
        terms = [(t + i, block, 1) for t, block in left[p]]
        w = width
        for q in range(n):
            # entry q of s is the digit of weight w = k^(n-1-q) in i
            w //= k
            base = i // (w * k) * (w * k * k) + i % w
            sign = -1 if q % 2 == 0 else 1
            terms += [(base + xy * w, None, sign) for xy in
                      (splits if q else first)[non_id[i // w % k]]]
            if q == 0 and not head[i // w]:
                return terms  # every later target starts with s_0
        terms += [(i * k + pa, block, right_sign) for pa, block in right[p]]
        return terms

    return faces


def coboundary(m: FinMonoid, c: CoeffSystem, n: int,
               source: CochainGroup | None = None,
               target: CochainGroup | None = None) -> AbHom:
    """The degree n coboundary d^n : C^n -> C^(n+1), its sparse columns
    filled one source tuple at a time from ``_face_rule`` with every
    element as a head, then converted by ``assemble_hom``."""
    _check(m, c, n)
    src = source if source is not None else cochain_group(m, c, n)
    tgt = target if target is not None else cochain_group(m, c, n + 1)
    if (src.degree, tgt.degree) != (n, n + 1):
        raise ValueError(f"d^{n} needs groups of degrees {n} and {n + 1}")
    faces = _face_rule(m, c, n, None, set(src.products))
    src_off, tgt_off = src.dsum.offsets, tgt.dsum.offsets
    # one int per target row, shared as a key by every column that has the
    # row; a fresh sum row0 + r per entry would cost 32 bytes per nonzero
    rows = tuple(range(tgt_off[-1]))
    columns: list[SparseColumn] = [{}] * src_off[-1]
    for i, p in enumerate(src.products):
        lo, hi = src_off[i], src_off[i + 1]
        if lo == hi:
            continue
        terms = faces(i, p)
        # rows in ascending target order, the order a row-by-row build
        # inserts them: elimination breaks ties between pivots by the order
        # of a column's entries, so this keeps its pivots and fill-in
        terms.sort(key=itemgetter(0))
        for g in range(hi - lo):
            col: SparseColumn = {}
            for t, block, sign in terms:
                row0 = tgt_off[t]
                if block is None:
                    row = rows[row0 + g]
                    col[row] = col.get(row, 0) + sign
                else:
                    for r, x in block[g].items():
                        row = rows[row0 + r]
                        col[row] = col.get(row, 0) + sign * x
            columns[lo + g] = col
    return assemble_hom(src.dsum, tgt.dsum, columns)


def translation_failure(n: int) -> AssertionError:
    """The error for d^(n+1) after d^n nonzero, in a floor complex or
    along a path."""
    return AssertionError(
        f"coboundary squared is nonzero between degrees {n} and {n + 2}; "
        f"the coefficient system does not satisfy the translation relations")


def floor_cochains(monoid: FinMonoid, coeffs: CoeffSystem, max_degree: int
                   ) -> tuple[list[CochainGroup], list[AbHom]]:
    """C^0..C^P and d^0..d^(P-1), built once and not proven: the groups
    and maps of a ``LeechComplex``."""
    _check(monoid, coeffs, max_degree, "max degree")
    groups = [cochain_group(monoid, coeffs, k) for k in range(max_degree + 1)]
    return groups, [coboundary(monoid, coeffs, k, groups[k], groups[k + 1])
                    for k in range(max_degree)]


class LeechComplex(CochainComplex):
    """Cochain groups C^0..C^P and coboundaries d^0..d^(P-1), with
    d o d = 0 verified once per pair at construction; each H^n is computed
    on first request and kept."""

    def __init__(self, monoid: FinMonoid, coeffs: CoeffSystem, max_degree: int):
        self.groups, differentials = floor_cochains(monoid, coeffs, max_degree)
        super().__init__(self.groups[0].total, differentials,
                         translation_failure)


# generators S, the chosen pairs {(s(a), r(a)): a}, word lengths
Matching = tuple[list[int], dict[tuple[int, int], int], list[int]]


def one_level_matching(m: FinMonoid) -> Matching:
    """Generators S, picked greedily in ``non_identity()`` order, and for
    every a outside S and the identity a split a = s(a) * r(a), found by
    breadth-first search from the identity under left multiplication by S,
    so that r(a) is one letter shorter than a.  Returns S, the chosen
    pairs as {(s(a), r(a)): a}, and the word length of each element."""
    table, e = m.table, m.identity_index

    def search(gens: list[int]) -> tuple[list[int], dict[tuple[int, int], int]]:
        length = [-1] * m.size
        length[e] = 0
        pairs: dict[tuple[int, int], int] = {}
        frontier = [e]
        while frontier:
            reached = []
            for b in frontier:
                for s in gens:
                    a = table[s][b]
                    if length[a] < 0:
                        length[a] = length[b] + 1
                        reached.append(a)
                        if b != e:  # S itself is reached from e first
                            pairs[s, b] = a
            frontier = reached
        return length, pairs

    gens: list[int] = []
    length, pairs = search(gens)
    for t in m.non_identity():
        if length[t] < 0:
            gens.append(t)
            length, pairs = search(gens)
    return gens, pairs, length


# the terms of a map read at one cell, in the layout of ``_face_rule``:
# (target index, block or None for a signed identity, sign)
Terms = list[tuple[int, list[SparseColumn] | None, int]]
# a stack floor: the monoid, its coefficients and its matching
MorseFloor = tuple[FinMonoid, CoeffSystem, Matching]


def morse_reduction(
        floors: Sequence[MorseFloor], max_degree: int,
        vertical: Callable[[int, int], Callable[[int], Terms] | None] | None
        = None) -> tuple[list[list[list[int]]], list[DirectSum], list[AbHom]]:
    """A stack of floors reduced along the union of their matchings, each
    one ``one_level_matching`` of its floor's monoid (Skoeldberg, Trans.
    AMS 2006; Brown 1992).

    Floor p's degree q cochains sit in total degree p + q, and D is each
    floor's d plus the map from floor p to floor p + 1 that ``vertical(p,
    q)`` reads, in degree q: None when it is zero, else a function giving
    its terms at a cell index of floor p.  One floor with no ``vertical``
    is the floor's own Leech complex.

    The cell x = (a, t_2, ...) of a floor, a outside S and the identity,
    is matched with y = (s(a), r(a), t_2, ...) of the same floor.  Only
    the first middle face of y reaches x, so their block is minus the
    identity, invertible with any coefficients; besides y, the column of
    x meets only matched cells (s', a, ...) one letter longer and cells
    of the floor above, so the matching is acyclic.  The critical cells
    of a floor are (), each (s) and each (s, t_2, ...) whose first two
    entries are not a chosen pair.  ``cells[p][q]`` lists those of floor
    p in degree q as indices into ``cochain_group`` of the floor, and the
    reduced total degree n group, returned as ``groups[n]``, is their sum
    over floors p <= n in degree n - p, floors ascending.

    Column c of the reduced D^n is D(c) with its matched cells cleared
    floor by floor and, within a floor, level by level, each by adding
    its value times its partner's column, then projected onto the
    critical cells: Gaussian elimination along the matched blocks,
    reading d from ``_face_rule`` with the heads S, so that within a
    floor only cells whose first entry lies in S survive, and dropping
    the other cells a vertical map reaches.  A column is walked once per
    generator of c's group.  Its values on a floor are plain ints in one
    dict under flat keys cell * r + generator, r the most generators of
    any group of the floor, so a face through an identity block adds one
    int, and a translation block adds its column for the key's generator;
    a matched cell is cleared one key at a time.  Returns the cells, the
    groups and D^0..D^(max_degree - 1).  The result keeps cohomology when
    the full total complex squares to zero; callers certify that first,
    and the engine proves each reduced pair.
    """
    height = min(len(floors), max_degree + 1)
    cells: list[list[list[int]]] = []
    products: list[list[list[int]]] = []
    chosen: list[dict[int, int]] = []
    non_ids: list[list[int]] = []
    positions: list[dict[int, int]] = []
    for p, (monoid, coeffs, (gens, pairs, _)) in enumerate(floors[:height]):
        table, non_id = monoid.table, monoid.non_identity()
        k = len(non_id)
        pos = {a: pa for pa, a in enumerate(non_id)}
        non_ids.append(non_id)
        positions.append(pos)
        # a by the two-digit code pos(s(a)) * k + pos(r(a)) of its split
        chosen.append({pos[s] * k + pos[r]: a for (s, r), a in pairs.items()})
        here, prods = [[0]], [[monoid.identity_index]]
        for q in range(1, max_degree - p + 1):
            step = [(i * k + pos[t], table[x][t])
                    for i, x in zip(here[-1], prods[-1])
                    for t in (gens if q == 1 else non_id)
                    if q != 2 or i * k + pos[t] not in chosen[p]]
            here.append([i for i, _ in step])
            prods.append([x for _, x in step])
        cells.append(here)
        products.append(prods)
    groups = [DirectSum.of([floors[p][1].groups[x]
                            for p in range(min(height, n + 1))
                            for x in products[p][n - p]])
              for n in range(max_degree + 1)]

    lengths = [matching[2] for _, _, matching in floors[:height]]
    # a value of floor p sits under the flat key cell * r + generator
    widths = [max(g.ngens for g in c.groups) or 1
              for _, c, _ in floors[:height]]
    # tails[p] holds the products of floor p's full C^(q-1), q = n - p
    tails = [[m.identity_index] for m, _, _ in floors[:height]]
    differentials = []
    for n in range(max_degree):
        low, high = min(height, n + 1), min(height, n + 2)
        # per floor: the values of one column and its queues of levels,
        # both emptied as the column is finished, the codes of its
        # matched cells, as a target t of floor p of degree n + 1 - p >= 2
        # starts with the code t // w, and the width r of its flat keys
        sinks = []
        for p in range(high):
            codes, w = ((chosen[p], len(non_ids[p]) ** (n - p - 1)) if n > p
                        else ({}, 1))
            sinks.append(({}, [[] for _ in range(max(lengths[p]) + 1)],
                          codes, w, widths[p], lengths[p]))
        reads = []
        for p in range(low):
            monoid, coeffs, (gens, _, _) = floors[p]
            if n - p > 1:
                tails[p] = [row[t] for row in map(monoid.table.__getitem__,
                                                  tails[p])
                            for t in non_ids[p]]
            image = (vertical(p, n - p) if vertical and p + 1 < len(floors)
                     else None)
            reads.append((_face_rule(monoid, coeffs, n - p, gens,
                                     range(monoid.size)),
                          image, sinks[p], sinks[p + 1] if image else None))

        def add(p: int, i: int, x: int, g: int, e: int) -> None:
            """d(e times generator g at cell i of product x of floor p)
            into floor p's values and its vertical terms into floor p + 1's;
            a matched key met for the first time joins the queue of its
            cell's level in its floor."""
            faces, image, here, above = reads[p]
            outlets = [(here, faces(i, x))]
            if image is not None:
                outlets.append((above, image(i)))
            for (v, queue, codes, w, r, length), terms in outlets:
                get, code = v.get, codes.get
                for t, block, sign in terms:
                    if block is None:
                        key = t * r + g
                        z = e if sign > 0 else -e
                        cur = get(key)
                        if cur is None:
                            v[key] = z
                            a = code(t // w)
                            if a is not None:
                                queue[length[a]].append(key)
                        else:
                            v[key] = cur + z
                    else:
                        for j, y in block[g].items():
                            key = t * r + j
                            cur = get(key)
                            if cur is None:
                                v[key] = sign * e * y
                                a = code(t // w)
                                if a is not None:
                                    queue[length[a]].append(key)
                            else:
                                v[key] = cur + sign * e * y

        src, tgt = groups[n], groups[n + 1]
        clearing = [(*sinks[f][:5], positions[f], floors[f][0].table,
                     tails[f], f) for f in range(low)]
        projecting = []
        first = 0  # the component of the first cell of floor p in tgt
        for p in range(high):
            here, r = cells[p][n + 1 - p], widths[p]
            # the flat key of generator j of a critical cell, to its row of
            # tgt; a key past the cell's generators is never filled
            rows = dict(zip(here, tgt.offsets[first:first + len(here)]))
            if r > 1:
                rows = {z * r + j: row + j for z, row in rows.items()
                        for j in range(r)}
            projecting.append((sinks[p][0], rows))
            first += len(here)
        columns: list[SparseColumn] = []
        for p0 in range(low):
            coeffs = floors[p0][1]
            for i, x in zip(cells[p0][n - p0], products[p0][n - p0]):
                for g in range(coeffs.groups[x].ngens):
                    add(p0, i, x, g, 1)
                    for v, queue, codes, w, r, pos, table, tail, f in \
                            clearing[p0:]:
                        if not v:
                            continue
                        for level in queue:
                            for key in level:
                                e = v[key]
                                if e:
                                    y, j = divmod(key, r)
                                    a, rest = codes[y // w], y % w
                                    add(f, pos[a] * w + rest,
                                        table[a][tail[rest]], j, e)
                                    if v[key]:
                                        raise AssertionError(
                                            f"matched cell {y} was not "
                                            f"cleared")
                                del v[key]
                            level.clear()
                    col: SparseColumn = {}
                    for v, rows in projecting[p0:]:
                        for key, e in v.items():
                            row = rows.get(key)
                            if row is not None and e:
                                col[row] = e
                        v.clear()
                    columns.append(col)
        differentials.append(assemble_hom(src, tgt, columns))
    return cells, groups, differentials


class MorseLeechComplex(CochainComplex):
    """The Leech complex reduced along ``matching``, the one-level Morse
    matching ``one_level_matching(monoid)``: ``morse_reduction`` of the
    one floor.  ``cells[n]`` lists the critical cells of degree n as
    indices in ``cochain_group(monoid, coeffs, n)``; ``groups[n]`` is
    their sum.  It keeps cohomology when the full complex squares to
    zero, which ``leech_cohomology_table`` first certifies by
    ``relations_hold``."""

    def __init__(self, monoid: FinMonoid, coeffs: CoeffSystem, max_degree: int,
                 matching: Matching):
        _check(monoid, coeffs, max_degree, "max degree")
        cells, self.groups, differentials = morse_reduction(
            [(monoid, coeffs, matching)], max_degree)
        self.cells = cells[0]
        super().__init__(self.groups[0].total, differentials,
                         translation_failure)


def relations_hold(c: CoeffSystem) -> bool:
    """The translation relations hold: at once for a system constant over
    one group, whose translations are all the identity, and otherwise by
    ``validate_relations``, which walks every element triple."""
    return c.constant or not validate_relations(c)


def leech_cohomology_table(m: FinMonoid, c: CoeffSystem,
                           p_max: int) -> list[FgAbGroup]:
    """H^0 .. H^p_max computed from a single complex.

    The complex is the ``MorseLeechComplex`` when the one-level matching
    pairs some cells and ``relations_hold`` certifies that the full
    complex squares to zero, and otherwise the ``LeechComplex``; a
    mismatched monoid raises the same error either way.  A negative bound
    gives the empty table, as in ``total_cohomology``."""
    _integers_only([[p_max]], "degree bound")
    if p_max < 0:
        _check(m, c, 0)
        return []
    matching = one_level_matching(m)
    if matching[1] and relations_hold(c):
        cx: CochainComplex = MorseLeechComplex(m, c, p_max + 1, matching)
    else:
        cx = LeechComplex(m, c, p_max + 1)
    return [cx.cohomology(k) for k in range(p_max + 1)]
