"""Exact arithmetic on integer matrices.

A matrix is a list of row lists of unbounded Python ints.  A matrix with
zero rows is the empty list, which loses the column count, so functions
that can meet one accept the missing dimension explicitly.  Nothing here
ever rounds: every operation is exact.
"""

from __future__ import annotations

from typing import Sequence

IntMatrix = list[list[int]]
FrozenMatrix = tuple[tuple[int, ...], ...]


def zeros(rows: int, cols: int) -> IntMatrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def freeze(m: Sequence[Sequence[int]]) -> FrozenMatrix:
    return tuple(map(tuple, m))


def num_cols(m: Sequence[Sequence[int]], fallback: int | None = None) -> int:
    if m:
        return len(m[0])
    if fallback is None:
        return 0
    return fallback


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
           cols_b: int | None = None) -> IntMatrix:
    """Product a @ b, skipping zero entries of ``a``.

    The skip makes products with sparse inputs cheap while staying exact
    for dense ones.  ``cols_b`` is only needed when
    ``b`` has zero rows.
    """
    cb = num_cols(b, cols_b)
    out = [[0] * cb for _ in range(len(a))]
    for i, arow in enumerate(a):
        orow = out[i]
        for k, av in enumerate(arow):
            if not av:
                continue
            brow = b[k]
            if av == 1:
                for j, bv in enumerate(brow):
                    if bv:
                        orow[j] += bv
            elif av == -1:
                for j, bv in enumerate(brow):
                    if bv:
                        orow[j] -= bv
            else:
                for j, bv in enumerate(brow):
                    if bv:
                        orow[j] += av * bv
    return out


def hstack(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    return [list(ra) + list(rb) for ra, rb in zip(a, b)]

