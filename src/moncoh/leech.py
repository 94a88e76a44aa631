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

Cohomology indexing: H^n = ker(d^n) / im(d^(n-1)) with d^(-1) = 0, so H^0
is the kernel of the degree 0 coboundary.  Reports carry this convention
explicitly because the shifted labelling H^n = ker(d^(n+1)) / im(d^n) also
appears in the literature; under that reading every table in this package
shifts down by one degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abelian import (
    AbHom,
    DirectSum,
    FgAbGroup,
    SparseColumn,
    TRIVIAL_GROUP,
    add_block,
    assemble_hom,
    cohomology_at,
    composes_to_zero,
)
from .coeff import CoeffSystem
from .monoid import FinMonoid

INDEXING_CONVENTION = "H^n = ker(d^n) / im(d^(n-1)) with d^(-1) = 0"
ALTERNATE_INDEXING_NOTE = (
    "under the shifted labelling H^n = ker(d^(n+1)) / im(d^n) every degree "
    "in these tables moves down by one")


@dataclass(frozen=True)
class CochainGroup:
    """Degree n cochain group of a monoid with a coefficient system."""

    degree: int
    tuples: tuple[tuple[int, ...], ...]
    dsum: DirectSum

    @property
    def total(self) -> FgAbGroup:
        return self.dsum.total

    @property
    def generator_offsets(self) -> tuple[int, ...]:
        return self.dsum.offsets

    def tuple_index(self) -> dict[tuple[int, ...], int]:
        return {t: i for i, t in enumerate(self.tuples)}


def cochain_group(m: FinMonoid, c: CoeffSystem, n: int) -> CochainGroup:
    """Build the degree n cochain group; (m.size - 1)^n components."""
    if n < 0:
        raise ValueError("cochain degree must be nonnegative")
    if n == 0:
        tuples: tuple[tuple[int, ...], ...] = ((),)
        comps = [c.groups[m.identity_index]]
    else:
        non_id = m.non_identity()
        tuples = tuple(itertools.product(non_id, repeat=n))
        comps = [c.groups[m.product(t)] for t in tuples]
    return CochainGroup(n, tuples, DirectSum.of(comps))


def coboundary(m: FinMonoid, c: CoeffSystem, n: int,
               source: CochainGroup | None = None,
               target: CochainGroup | None = None) -> AbHom:
    """The degree n coboundary d^n : C^n -> C^(n+1).

    Every term is written straight into sparse presentation columns, one
    per generator of the summands of C^n; ``assemble_hom`` converts them
    to the canonical bases.
    """
    src = source if source is not None else cochain_group(m, c, n)
    tgt = target if target is not None else cochain_group(m, c, n + 1)
    e = m.identity_index
    index_of = src.tuple_index()
    src_off, tgt_off = src.generator_offsets, tgt.generator_offsets
    columns: list[SparseColumn] = [{} for _ in range(src_off[-1])]

    def add_identity(row0: int, in_idx: int, sign: int) -> None:
        for k in range(src_off[in_idx], src_off[in_idx + 1]):
            col = columns[k]
            col[row0] = col.get(row0, 0) + sign
            row0 += 1

    if n == 0:
        for out_idx, t in enumerate(tgt.tuples):
            a = t[0]
            row0 = tgt_off[out_idx]
            add_block(columns, row0, 0, c.lstar[(a, e)].columns)
            add_block(columns, row0, 0, c.rstar[(a, e)].columns, -1)
    else:
        right_sign = -1 if (n + 1) % 2 else 1
        for out_idx, t in enumerate(tgt.tuples):
            row0 = tgt_off[out_idx]
            tail = index_of[t[1:]]
            head = index_of[t[:-1]]
            add_block(columns, row0, src_off[tail],
                      c.lstar[(t[0], m.product(t[1:]))].columns)
            for j in range(1, n + 1):
                merged = m.mul(t[j - 1], t[j])
                if merged == e:
                    continue
                inner = t[:j - 1] + (merged,) + t[j + 1:]
                add_identity(row0, index_of[inner], -1 if j % 2 else 1)
            add_block(columns, row0, src_off[head],
                      c.rstar[(t[n], m.product(t[:-1]))].columns, right_sign)

    return assemble_hom(src.dsum, tgt.dsum, columns)


class LeechComplex:
    """Cochain groups C^0..C^P and coboundaries d^0..d^(P-1), with
    d o d = 0 verified at construction."""

    def __init__(self, monoid: FinMonoid, coeffs: CoeffSystem, max_degree: int):
        if coeffs.monoid != monoid:
            raise ValueError("coefficient system belongs to a different monoid")
        if max_degree < 0:
            raise ValueError("max degree must be nonnegative")
        self.monoid = monoid
        self.coeffs = coeffs
        self.max_degree = max_degree
        self.groups: list[CochainGroup] = [
            cochain_group(monoid, coeffs, k) for k in range(max_degree + 1)]
        self.differentials: list[AbHom] = [
            coboundary(monoid, coeffs, k, self.groups[k], self.groups[k + 1])
            for k in range(max_degree)]
        for k in range(max_degree - 1):
            if not composes_to_zero(self.differentials[k + 1], self.differentials[k]):
                raise AssertionError(
                    f"coboundary squared is nonzero between degrees {k} and {k + 2}; "
                    f"the coefficient system does not satisfy the translation relations")

    def group(self, n: int) -> CochainGroup:
        return self.groups[n]

    def differential(self, n: int) -> AbHom:
        """d^n for 0 <= n < max_degree; d^(-1) is the zero map into C^0."""
        if n == -1:
            return AbHom.zero(TRIVIAL_GROUP, self.groups[0].total)
        return self.differentials[n]

    def cohomology(self, n: int) -> FgAbGroup:
        """H^n = ker(d^n) / im(d^(n-1)); needs n < max_degree."""
        if not 0 <= n < self.max_degree:
            raise ValueError(f"H^{n} needs the complex built to degree {n + 1}")
        return cohomology_at(self.differential(n - 1), self.differential(n))


def leech_cohomology(m: FinMonoid, c: CoeffSystem, n: int) -> FgAbGroup:
    """H^n of the monoid with the given coefficients."""
    return LeechComplex(m, c, n + 1).cohomology(n)


def leech_cohomology_table(m: FinMonoid, c: CoeffSystem,
                           p_max: int) -> list[FgAbGroup]:
    """H^0 .. H^p_max computed from a single complex."""
    cx = LeechComplex(m, c, p_max + 1)
    return [cx.cohomology(k) for k in range(p_max + 1)]
