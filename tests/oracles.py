"""Independent oracles the tests check the library against.

Everything here deliberately avoids the library's own algorithms: Betti
numbers come from Taylor-complex strands over the subset lattice of the
generators (exponential in the generator count, fine for oracle sizes),
simplicial homology from dense boundary matrices, ranks from fraction-free
Bareiss elimination over the integers, determinants from cofactor expansion,
Hilbert-series numerators from Bigatti's pivot recursion on exponent
tuples, which reaches ideals far past the Taylor oracle's dozen generators,
polynomial arithmetic from plain lists of Fractions, the Boij-Soderberg
order from plain tuples padded with +infinity, and sums of weighted pure
diagrams from the closed-form entries of each diagram.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from bsdecomp import BettiTable, MonomialIdeal


def bareiss_rank(matrix: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            for c in range(col, ncols):
                m[r][c] = (m[r][c] * lead - factor * m[rank][c]) // prev
        prev = lead
        rank += 1
        if rank == nrows:
            break
    return rank


def reduced_homology_oracle(faces, vertex_count: int) -> list[int]:
    """Reduced rational homology dims of a simplicial complex, slot i holding
    dim H~_{i-1}, from dense boundary matrices ranked by Bareiss.

    Faces are sorted vertex tuples; dropping the vertex at position p has
    sign (-1)^p.
    """
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for face in faces:
        by_size.setdefault(len(face), []).append(tuple(sorted(face)))

    def rank(size: int) -> int:
        sources, targets = by_size.get(size, []), by_size.get(size - 1, [])
        if not sources or not targets:
            return 0
        index_of = {t: c for c, t in enumerate(targets)}
        rows = []
        for face in sources:
            row = [0] * len(targets)
            for p in range(len(face)):
                row[index_of[face[:p] + face[p + 1 :]]] = (-1) ** p
            rows.append(row)
        return bareiss_rank(rows)

    ranks = [rank(size) for size in range(vertex_count + 2)]
    return [len(by_size.get(s, [])) - ranks[s] - ranks[s + 1] for s in range(vertex_count + 1)]


def cofactor_determinant(matrix) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    size = len(matrix)
    rows = [[Fraction(x) for x in row] for row in matrix]
    if any(len(r) != size for r in rows):
        raise ValueError("not square")

    def det(sub: list[list[Fraction]]) -> Fraction:
        if len(sub) == 1:
            return sub[0][0]
        total = Fraction(0)
        for c, top in enumerate(sub[0]):
            if top == 0:
                continue
            minor = [row[:c] + row[c + 1 :] for row in sub[1:]]
            term = top * det(minor)
            total += term if c % 2 == 0 else -term
        return total

    return det(rows) if rows else Fraction(1)


def cramer_solve(matrix, rhs) -> list[Fraction]:
    """Solve a small square system by Cramer's rule; requires det != 0."""
    d = cofactor_determinant(matrix)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    out = []
    for c in range(len(matrix)):
        replaced = [
            [rhs[r] if cc == c else matrix[r][cc] for cc in range(len(matrix))]
            for r in range(len(matrix))
        ]
        out.append(Fraction(cofactor_determinant(replaced)) / d)
    return out


def dense_vector(table: BettiTable, window) -> list[Fraction]:
    """The table's entries at every position of the window, column by column
    and bottom row first. Refuses a table with support outside the window,
    which the vector could not hold."""
    positions = [
        (i, i + row)
        for i in range(window.max_col + 1)
        for row in range(window.min_row, window.max_row + 1)
    ]
    if not set(table.support()) <= set(positions):
        raise ValueError("table support escapes the window")
    return [table.entry(i, j) for i, j in positions]


def bs_le(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """The Boij-Soderberg order on plain degree tuples: pad both to one length
    with +infinity, then compare position by position."""
    width = max(len(a), len(b))
    padded_a, padded_b = (list(t) + [math.inf] * (width - len(t)) for t in (a, b))
    return all(x <= y for x, y in zip(padded_a, padded_b))


def pure_sum(terms) -> dict[tuple[int, int], Fraction]:
    """Sum of c * pi(d) over (c, degree tuple) terms, as a (column, degree)
    -> value dict with no zero values: pi(d) holds 1 / prod_{p != i}
    |d_p - d_i| at (i, d_i)."""
    total: dict[tuple[int, int], Fraction] = {}
    for c, degrees in terms:
        for i, d in enumerate(degrees):
            denominator = math.prod(abs(e - d) for p, e in enumerate(degrees) if p != i)
            total[(i, d)] = total.get((i, d), Fraction(0)) + Fraction(c) / denominator
    return {pos: value for pos, value in total.items() if value}


def taylor_betti_entries(ideal: MonomialIdeal) -> dict[tuple[int, int], int]:
    """Graded Betti numbers from the Taylor complex of the generators.

    For each multidegree b, the strand has one basis element per generator
    subset with lcm b; the boundary keeps the faces whose lcm stays b. The
    homology at subset size i+1 is beta_i in total degree |b|. Exponential in
    the number of generators; keep it at or below a dozen.
    """
    gens = [g.exponents for g in ideal.generators]
    count = len(gens)
    if count == 0:
        raise ValueError("zero ideal")
    if count > 14:
        raise ValueError("too many generators for the subset-lattice oracle")
    n = ideal.num_vars

    lcm_of: dict[int, tuple[int, ...]] = {}
    strands: dict[tuple[int, ...], list[int]] = {}
    for mask in range(1, 1 << count):
        low = mask & -mask
        rest = mask ^ low
        g = gens[low.bit_length() - 1]
        if rest:
            prior = lcm_of[rest]
            g = tuple(max(a, b) for a, b in zip(g, prior))
        lcm_of[mask] = g
        strands.setdefault(g, []).append(mask)

    entries: dict[tuple[int, int], int] = {}
    for b, masks in strands.items():
        by_size: dict[int, list[int]] = {}
        for mask in masks:
            by_size.setdefault(bin(mask).count("1"), []).append(mask)
        for size in by_size:
            by_size[size].sort()
        top = max(by_size)
        ranks: dict[int, int] = {}
        for size in range(2, top + 1):
            sources = by_size.get(size, [])
            targets = by_size.get(size - 1, [])
            if not sources or not targets:
                ranks[size] = 0
                continue
            index_of = {m: c for c, m in enumerate(targets)}
            rows = []
            for mask in sources:
                row = [0] * len(targets)
                sign = 1
                for v in range(count):
                    if mask >> v & 1:
                        sub = mask ^ (1 << v)
                        if lcm_of[sub] == b:
                            row[index_of[sub]] = sign
                        sign = -sign
                rows.append(row)
            ranks[size] = bareiss_rank(rows)
        degree = sum(b)
        for size in range(1, top + 1):
            homology = len(by_size.get(size, [])) - ranks.get(size, 0) - ranks.get(size + 1, 0)
            if homology:
                pos = (size - 1, degree)
                entries[pos] = entries.get(pos, 0) + homology
    return entries


def taylor_betti_table(ideal: MonomialIdeal) -> BettiTable:
    return BettiTable.from_entries(
        {pos: Fraction(v) for pos, v in taylor_betti_entries(ideal).items()}
    )


def _minimal_exponents(gens) -> list[tuple[int, ...]]:
    """The exponent tuples no other one divides, each once."""
    kept: list[tuple[int, ...]] = []
    for g in sorted(set(gens), key=sum):
        if not any(all(a <= b for a, b in zip(h, g)) for h in kept):
            kept.append(g)
    return kept


def _add_shifted(p: list[int], q: list[int], shift: int) -> list[int]:
    """p + t^shift * q on coefficient lists, lowest degree first."""
    out = p + [0] * max(0, len(q) + shift - len(p))
    for d, c in enumerate(q):
        out[d + shift] += c
    return out


def hilbert_numerator(gens) -> list[int]:
    """Coefficients of K(S/I; t), lowest degree first, where I is generated
    by the exponent tuples given and the Hilbert series of S/I is
    K(S/I; t) / (1 - t)^n.

    Bigatti's pivot recursion: for a monomial p, the exact sequence
    0 -> S/(I : p)(-deg p) -> S/I -> S/(I + (p)) -> 0 gives
    K(I) = K(I + (p)) + t^{deg p} K(I : p). The pivot is x_v^e: v is the
    variable that lies in the most generators, among the variables of the
    generators that are not pure powers, and e is the median exponent of v
    over those generators. So some generator that is not a pure power has
    g_v >= e: it leaves I + (p), and it loses degree in I : p, and the
    recursion ends. It ends at generators with pairwise disjoint supports,
    whose numerator is the product of the 1 - t^{deg g}.
    """
    gens = _minimal_exponents(gens)
    supports = [{v for v, e in enumerate(g) if e} for g in gens]
    if sum(map(len, supports)) == len(set().union(*supports)):
        out = [1]
        for g in gens:
            out = _add_shifted(out, [-c for c in out], sum(g))
        return out
    mixed = [g for g, s in zip(gens, supports) if len(s) > 1]
    v = max({u for g in mixed for u, e in enumerate(g) if e}, key=lambda u: sum(g[u] > 0 for g in gens))
    exponents = sorted(g[v] for g in mixed if g[v])
    e = exponents[len(exponents) // 2]
    pivot = tuple(e if u == v else 0 for u in range(len(gens[0])))
    colon = [tuple(max(0, a - b) for a, b in zip(g, pivot)) for g in gens]
    return _add_shifted(hilbert_numerator(gens + [pivot]), hilbert_numerator(colon), e)


# Polynomials as plain lists of Fractions, constant term first, with no
# trailing zero: the reference for PolynomialQ, which keeps integer
# numerators over one denominator.


def ref_poly(coefficients) -> list[Fraction]:
    out = [Fraction(c) for c in coefficients]
    while out and out[-1] == 0:
        out.pop()
    return out


def ref_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return ref_poly(x + y for x, y in itertools.zip_longest(a, b, fillvalue=Fraction(0)))


def ref_scale(a: list[Fraction], factor) -> list[Fraction]:
    return ref_poly(c * factor for c in a)


def ref_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b))
    for m, x in enumerate(a):
        for p, y in enumerate(b):
            out[m + p] += x * y
    return ref_poly(out)


def ref_value(a: list[Fraction], point) -> Fraction:
    return sum((c * Fraction(point) ** m for m, c in enumerate(a)), Fraction(0))


def ref_cauchy_threshold(a: list[Fraction]) -> int:
    """floor(1 + max |a_m| / |lead|) over the lower coefficients; 0 for a constant."""
    if len(a) <= 1:
        return 0
    return math.floor(1 + max(abs(c) for c in a[:-1]) / abs(a[-1]))


def ref_sign_threshold(a: list[Fraction]) -> int:
    """The last integer in 1..cauchy bound where the value is zero or has the
    sign opposite to the leading coefficient's, or 0 if there is none."""
    wrong = [t for t in range(1, ref_cauchy_threshold(a) + 1) if ref_value(a, t) * a[-1] <= 0]
    return max(wrong, default=0)
