"""Decompositions of Betti tables into chains of pure diagrams.

The greedy algorithm peels off the pure diagram of the minimal-degree support
in each column with the largest coefficient keeping the remainder nonnegative;
for a genuine Betti table this terminates with the unique decomposition whose
coefficients are all positive. Along an arbitrary maximal chain of a window
the pure diagrams are triangular in chain order, so any table supported there
expands uniquely by forward substitution, with coefficients of either sign.
Both sweeps run on a (column, degree) -> value mapping of numbers or of
polynomials in k, and verification peels a decomposition's terms off the
same mapping of its table. The chains along which a table expands with no
negative coefficient are those through the greedy sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import (
    CertificateError,
    DegreeSequenceError,
    NoSolutionError,
    NotDecomposableError,
    ParseError,
)
from .tables import BettiTable, DegreeSequence, Window, _json_rational, _json_window, _pure_denominators


def cover_successors(sequence: DegreeSequence, window: Window) -> list[DegreeSequence]:
    """Immediate successors of a degree sequence inside the window.

    Two kinds of minimal moves: bump a single degree by one (keeping strict
    increase and the row cap), listed by increasing position, then drop the
    last degree, allowed only once it sits on the window's top row.
    """
    degs = sequence.degrees
    last = len(degs) - 1
    out = []
    for i, d in enumerate(degs):
        if d + 1 > window.max_row + i:
            continue
        if i < last and d + 1 >= degs[i + 1]:
            continue
        out.append(DegreeSequence(degs[:i] + (d + 1,) + degs[i + 1 :]))
    if last >= 1 and degs[last] == window.max_row + last:
        out.append(DegreeSequence(degs[:-1]))
    return out


def _bottom(window: Window) -> DegreeSequence:
    return DegreeSequence(tuple(range(window.min_row, window.min_row + window.max_col + 1)))


@dataclass(frozen=True)
class Chain:
    """A maximal chain of a window: degree sequences from the bottom
    (min_row, min_row+1, ...) up to the single top degree (max_row), each a
    cover successor of the one before; only such chains span enough pure
    diagrams to expand arbitrary tables. ``from_sequences`` refuses any other
    chain; the chain walks here build theirs one cover at a time.
    """

    elements: tuple[DegreeSequence, ...]
    window: Window

    @classmethod
    def from_sequences(cls, sequences, window: Window | None = None) -> "Chain":
        """Raises ValueError unless ``sequences`` form a maximal chain of
        ``window`` (default: their hull). A path of covers from the bottom
        strictly increases, stays in the window and, as each cover raises the
        rank by one, has window.dimension elements once it reaches the top."""
        elems = tuple(
            s if isinstance(s, DegreeSequence) else DegreeSequence(tuple(s)) for s in sequences
        )
        if not elems:
            raise ValueError("a chain needs at least one element")
        if window is None:
            window = Window.hull((i, d) for e in elems for i, d in enumerate(e))
        if (
            elems[0] != _bottom(window)
            or elems[-1].degrees != (window.max_row,)
            or any(b not in cover_successors(a, window) for a, b in zip(elems, elems[1:]))
        ):
            raise ValueError("the chain is not maximal for its window")
        return cls(elems, window)

    def shift(self, offset: int) -> "Chain":
        """Translate every degree and the window rows by a constant."""
        return Chain(tuple(e.shift(offset) for e in self.elements), self.window.shift(offset))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def enumerate_maximal_chains(window: Window) -> Iterator[Chain]:
    """All maximal chains of the window, depth first.

    Successors are explored in cover_successors order (single-degree bumps by
    position, then the drop), so the enumeration order is deterministic. Every
    maximal chain has exactly window.dimension elements: each cover move
    raises the rank sum(d_i - i) + (max_col - len + 1) * height by one.
    """
    top = (window.max_row,)
    size = window.dimension
    # depth first over an explicit stack, so a chain may outgrow the recursion
    # limit; successors are pushed reversed so the first is taken first
    path: list[DegreeSequence] = []
    stack = [(0, _bottom(window))]
    while stack:
        depth, node = stack.pop()
        del path[depth:]
        path.append(node)
        if node.degrees != top:
            stack.extend((depth + 1, s) for s in reversed(cover_successors(node, window)))
        elif len(path) != size:
            raise CertificateError(f"a maximal chain of {size} elements has {len(path)}")
        else:
            yield Chain(tuple(path), window)


def count_maximal_chains(window: Window) -> int:
    """How many chains ``enumerate_maximal_chains`` yields, under its
    certificate, without listing them: paths from the bottom are counted one
    cover at a time, and all must reach the top, alone, at the last level."""
    top, size = DegreeSequence((window.max_row,)), window.dimension
    paths = {_bottom(window): 1}
    for depth in range(1, size):
        if top in paths:
            raise CertificateError(f"a maximal chain of {size} elements has {depth}")
        level: dict[DegreeSequence, int] = {}
        for node, count in paths.items():
            for s in cover_successors(node, window):
                level[s] = level.get(s, 0) + count
        paths = level
    if list(paths) != [top]:
        raise CertificateError(f"a maximal chain of {size} elements does not end at the top")
    return paths[top]


def _chain_through(sequences, window: Window) -> Chain:
    """First maximal chain of the window, in enumeration order, through the
    strictly increasing ``sequences``, which must fit the window.

    Below the next required sequence (the window's top after the last one),
    every cover successor that is still <= it lies on some path up to it, so
    the depth-first enumeration's first chain through all of them takes the
    first such successor at every step, with no backtracking.
    """
    path = [_bottom(window)]
    for target in (*sequences, DegreeSequence((window.max_row,))):
        while path[-1] != target:
            successors = cover_successors(path[-1], window)
            path.append(next(s for s in successors if s <= target))
    return Chain(tuple(path), window)


def _check_chain_order(terms: tuple) -> None:
    """Raise ValueError unless the sequences of the (coefficient, sequence)
    terms strictly increase, as along a chain."""
    for (_, a), (_, b) in zip(terms, terms[1:]):
        if not a < b:
            raise ValueError(f"terms out of chain order: {a.degrees} then {b.degrees}")


@dataclass(frozen=True)
class Decomposition:
    """Ordered terms (coefficient, degree sequence) along an increasing chain.

    Greedy output carries only positive coefficients; chain expansions keep
    every chain member, zeros and negatives included. ``source_window`` is the
    window of the table the decomposition came from, as its JSON records it.
    """

    terms: tuple[tuple[Fraction, DegreeSequence], ...]
    source_window: Window

    def __post_init__(self):
        terms = tuple((Fraction(c), s) for c, s in self.terms)
        _check_chain_order(terms)
        object.__setattr__(self, "terms", terms)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(c for c, _ in self.terms)

    @property
    def sequences(self) -> tuple[DegreeSequence, ...]:
        return tuple(s for _, s in self.terms)

    def nonzero_terms(self) -> tuple[tuple[Fraction, DegreeSequence], ...]:
        return tuple((c, s) for c, s in self.terms if c)


def greedy_decompose(table: BettiTable) -> Decomposition:
    """Unique positive decomposition of a Betti table into pure diagrams.

    Raises NotDecomposable for a negative entry, or when the greedy peel
    (``_greedy_peel``) finds an empty column below a nonzero one or minimal
    degrees that fail to increase strictly, which certifies the input is not
    the Betti table of any module.
    """
    if not table.is_nonnegative():
        raise NotDecomposableError("table has negative entries")
    terms = _greedy_peel(dict(table.iter_support()), Fraction(0), min)
    return Decomposition(tuple(terms), table.window)


def _greedy_peel(values: dict, zero, least) -> list[tuple]:
    """Greedy terms (coefficient, sequence) of a (column, degree) -> value
    mapping, in chain order; ``values`` is consumed.

    Each step reads the minimal degree d_i of every column up to the last
    nonzero one. Position i allows at most values[(i, d_i)] * prod_{p != i}
    |d_p - d_i| of pi(d); peeling the least of these candidates, as chosen
    by ``least`` (min, or the eventually smallest polynomial), keeps the
    remainder nonnegative and zeroes at least one entry.
    """
    terms = []
    while values:
        lowest: dict[int, int] = {}
        for i, d in sorted(values):
            lowest.setdefault(i, d)
        last = max(lowest)
        for i in range(last):
            if i not in lowest:
                raise NotDecomposableError(
                    f"column {i} is zero but column {last} is not; no pure diagram fits"
                )
        degrees = tuple(lowest[i] for i in range(last + 1))
        try:
            sequence = DegreeSequence(degrees)
        except DegreeSequenceError as exc:
            raise NotDecomposableError(f"minimal degrees {degrees} do not increase strictly") from exc
        denominators = _pure_denominators(degrees)
        coefficient = least(
            [values[(i, d)] * den for i, (d, den) in enumerate(zip(degrees, denominators))]
        )
        _subtract_pure(values, coefficient, degrees, denominators, zero)
        terms.append((coefficient, sequence))
    return terms


def chain_decompose(table: BettiTable, chain: Chain) -> Decomposition:
    """Exact expansion of a table along a maximal chain of its window.

    The pure diagrams of a maximal chain are a basis of the window space, so
    the expansion exists and is unique for any table supported there; the
    coefficients may be negative. NoSolution signals a table whose support
    escapes the chain's window.
    """
    coefficients = _peel_along_chain(dict(table.iter_support()), chain.elements, Fraction(0))
    return Decomposition(tuple(zip(coefficients, chain.elements)), chain.window)


def _subtract_pure(values: dict, coefficient, degrees, denominators, zero) -> None:
    """values -= coefficient * pi(degrees) on a (column, degree) -> value
    mapping, given pi's denominators; entries that reach zero are dropped."""
    for i, (d, den) in enumerate(zip(degrees, denominators)):
        rest = values.pop((i, d), zero) - coefficient / den
        if rest:
            values[(i, d)] = rest


def _peel_along_chain(values: dict, elements, zero) -> list:
    """Coefficients of ``values`` along a maximal chain, bottom to top.

    The move from element t to t+1 retires one table position that no later
    element touches: (i, d_i) for a bump of d_i, (last, d_last) for a drop,
    and (0, d_0) for the top element. The chain's pure diagrams are thus
    triangular in chain order, and forward substitution gives c_t as the
    remaining value at that position times prod_{p != i} |d_p - d_i|. Only
    +, - and * by rationals are used, so the values may be Fractions or
    polynomials, with ``zero`` the zero of their type. ``values`` is
    consumed; whatever survives the sweep lies outside the chain's window.
    """
    coefficients = []
    for t, element in enumerate(elements):
        if t + 1 == len(elements):
            col = 0
        else:
            successor = elements[t + 1]
            if len(successor) < len(element):
                col = len(successor)
            else:
                col = _single_position_difference(element, successor)
        degrees = element.degrees
        denominators = _pure_denominators(degrees)
        coefficient = values.get((col, degrees[col]), zero) * denominators[col]
        if coefficient:
            _subtract_pure(values, coefficient, degrees, denominators, zero)
        coefficients.append(coefficient)
    if values:
        i, j = min(values)
        raise NoSolutionError(f"support at column {i}, degree {j} is outside the chain window")
    return coefficients


def coefficient_column_formula(table: BettiTable, chain: Chain, index: int) -> Fraction | None:
    """Closed-form chain coefficient when both neighbors differ from the
    middle sequence in one shared position.

    In that case only the middle diagram of the chain has support at (c, d_c),
    so its coefficient is beta_{c, d_c} * prod_{p != c} |d_c - d_p|: the step
    of the chain expansion at that element, read off without the earlier
    steps. Returns None when the neighbor pattern does not apply.
    """
    if not 0 < index < len(chain.elements) - 1:
        raise ValueError("the formula needs both a predecessor and a successor")
    prev, mid, nxt = chain.elements[index - 1 : index + 2]
    col = _single_position_difference(prev, mid)
    if col is None or _single_position_difference(mid, nxt) != col:
        return None
    return table.entry(col, mid[col]) * _pure_denominators(mid.degrees)[col]


def _single_position_difference(a: DegreeSequence, b: DegreeSequence) -> int | None:
    if len(a) != len(b):
        return None
    diffs = [i for i, (x, y) in enumerate(zip(a.degrees, b.degrees)) if x != y]
    return diffs[0] if len(diffs) == 1 else None


def verify(decomposition: Decomposition, table: BettiTable) -> bool:
    """Whether the decomposition reconstructs the table exactly."""
    return reconstruction_mismatch(decomposition, table) is None


def reconstruction_mismatch(
    decomposition: Decomposition, table: BettiTable
) -> tuple[tuple[int, int], Fraction, Fraction] | None:
    """First position where the reconstruction and the table disagree.

    Returns ((column, degree), reconstructed, expected) in column-major order,
    or None when they match everywhere. Every term is peeled off a copy of
    the table, so exactly the positions where the two differ survive.
    """
    rest = dict(table.iter_support())
    for c, s in decomposition.terms:
        _subtract_pure(rest, c, s.degrees, _pure_denominators(s.degrees), Fraction(0))
    if not rest:
        return None
    pos = min(rest)
    want = table.entry(*pos)
    return pos, want - rest[pos], want


def decomposition_to_json(decomposition: Decomposition) -> dict:
    window = decomposition.source_window
    return {
        "window": [window.min_row, window.max_row, window.max_col],
        "terms": [
            {"degrees": list(s.degrees), "coefficient": str(c)}
            for c, s in decomposition.terms
        ],
    }


def decomposition_from_json(obj) -> Decomposition:
    if not isinstance(obj, dict):
        raise ParseError("decomposition JSON must be an object")
    try:
        window = _json_window(obj["window"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"bad decomposition window: {exc}") from exc
    raw_terms = obj.get("terms")
    if not isinstance(raw_terms, list):
        raise ParseError("decomposition JSON needs a 'terms' list")
    terms = []
    for t in raw_terms:
        try:
            sequence = DegreeSequence(tuple(t["degrees"]))
            coefficient = _json_rational(t["coefficient"])
        except (KeyError, TypeError, ValueError, DegreeSequenceError) as exc:
            raise ParseError(f"bad decomposition term {t!r}: {exc}") from exc
        terms.append((coefficient, sequence))
    try:
        return Decomposition(tuple(terms), window)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
