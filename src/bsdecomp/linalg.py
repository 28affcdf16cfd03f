"""Exact linear algebra over the rationals.

Fraction arithmetic throughout: no pivot-size heuristics, no tolerance knobs.
Sized for the small boundary matrices of the homology layer, not for serious
numerics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _to_rows(matrix) -> list[list[Fraction]]:
    rows = [[Fraction(x) for x in row] for row in matrix]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
    return rows


def matrix_rank(matrix: Sequence[Sequence]) -> int:
    """Rank over Q by Gaussian elimination."""
    rows = _to_rows(matrix)
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                scale = factor * inv
                row = rows[r]
                for c in range(col, ncols):
                    row[c] -= prow[c] * scale
        rank += 1
        if rank == len(rows):
            break
    return rank
