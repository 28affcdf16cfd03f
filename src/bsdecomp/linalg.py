"""Exact rank over the rationals of sparse matrices.

Rows are ``{column: value}`` dicts with exact values (ints or Fractions), so
a boundary row costs as many entries as the face has vertices. Elimination
is fraction-free: integer rows stay integer, with no pivot-size heuristics
and no tolerance knobs. Sized for the boundary maps of the homology layer,
not for serious numerics.
"""

from __future__ import annotations

from typing import Iterable, Mapping


def matrix_rank(rows: Iterable[Mapping[int, object]]) -> int:
    """Rank over Q of the matrix with the given sparse rows.

    Zero values are dropped. Each row is reduced against the kept row that
    leads (has its largest column) where the row leads, as
    ``row * lead - kept * row[col]``, until it leads at a new column and is
    kept, or vanishes. The rank is the number of rows kept.
    """
    kept: dict[int, dict] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            col = max(row)
            pivot = kept.get(col)
            if pivot is None:
                kept[col] = row
                break
            lead, factor = pivot[col], row[col]
            for c in row:
                row[c] *= lead
            # only the pivot's columns change, so only they can cancel
            for c, v in pivot.items():
                value = row.get(c, 0) - factor * v
                if value:
                    row[c] = value
                else:
                    del row[c]
    return len(kept)
