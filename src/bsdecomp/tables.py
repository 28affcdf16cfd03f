"""Graded Betti tables over Q, pure diagrams, and their partial order.

Conventions: the entry ``beta_{i,j}`` sits in column i (homological degree)
and row ``j - i`` (regularity offset). A window confines support to columns
``0..max_col`` and rows ``min_row..max_row``. Degree sequences are strictly
increasing; ``compare`` orders them termwise after padding the shorter one
with +infinity, so shorter sequences sit higher.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import index as _exact_int
from typing import Iterator, Mapping

from .errors import DegreeSequenceError, ParseError

Rational = Fraction


@dataclass(frozen=True)
class Window:
    """Row band ``min_row..max_row`` crossed with columns ``0..max_col``."""

    min_row: int
    max_row: int
    max_col: int

    def __post_init__(self):
        if self.min_row > self.max_row:
            raise ValueError(f"empty window: rows {self.min_row}..{self.max_row}")
        if self.max_col < 0:
            raise ValueError(f"negative column cap {self.max_col}")

    @property
    def height(self) -> int:
        return self.max_row - self.min_row + 1

    @property
    def dimension(self) -> int:
        """Number of table positions in the window."""
        return self.height * (self.max_col + 1)

    def contains(self, col: int, degree: int) -> bool:
        return 0 <= col <= self.max_col and self.min_row <= degree - col <= self.max_row

    def flat_index(self, col: int, degree: int) -> int:
        # column-major: all rows of column 0 first
        return col * self.height + (degree - col - self.min_row)


@dataclass(frozen=True)
class DegreeSequence:
    """Strictly increasing tuple of integer degrees ``d_0 < d_1 < ...``."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        try:
            degs = tuple(_exact_int(d) for d in self.degrees)
        except TypeError as exc:
            raise DegreeSequenceError(f"non-integer degree in {self.degrees!r}") from exc
        if not degs:
            raise DegreeSequenceError("degree sequence must be nonempty")
        if any(a >= b for a, b in zip(degs, degs[1:])):
            raise DegreeSequenceError(f"not strictly increasing: {degs}")
        object.__setattr__(self, "degrees", degs)

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self):
        return iter(self.degrees)

    def __getitem__(self, i: int) -> int:
        return self.degrees[i]

    def shift(self, offset: int) -> "DegreeSequence":
        return DegreeSequence(tuple(d + offset for d in self.degrees))

    def fits(self, window: Window) -> bool:
        """Whether every position (i, d_i) lies inside the window."""
        if len(self.degrees) > window.max_col + 1:
            return False
        return all(window.contains(i, d) for i, d in enumerate(self.degrees))

    def __repr__(self) -> str:
        return f"DegreeSequence{self.degrees}"


class Comparison(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def compare(a: DegreeSequence, b: DegreeSequence) -> Comparison:
    """Termwise order with +infinity padding: a <= b iff a is at least as long
    and a_i <= b_i wherever b is defined."""
    le_ab = len(a) >= len(b) and all(a[i] <= b[i] for i in range(len(b)))
    le_ba = len(b) >= len(a) and all(b[i] <= a[i] for i in range(len(a)))
    if le_ab and le_ba:
        return Comparison.EQUAL
    if le_ab:
        return Comparison.LESS
    if le_ba:
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


class BettiTable:
    """Dense rational grid over a window; immutable once built.

    ``grid[i][t]`` stores ``beta_{i, i + min_row + t}``. Equality compares the
    window and every entry; ``same_entries`` compares supports only, ignoring
    how much zero padding each window carries.
    """

    __slots__ = ("min_row", "max_row", "max_col", "num_vars", "_grid")

    def __init__(self, window: Window, grid, num_vars: int | None = None):
        rows = tuple(tuple(Fraction(x) for x in col) for col in grid)
        if len(rows) != window.max_col + 1 or any(len(col) != window.height for col in rows):
            raise ValueError("grid shape does not match window")
        object.__setattr__(self, "min_row", window.min_row)
        object.__setattr__(self, "max_row", window.max_row)
        object.__setattr__(self, "max_col", window.max_col)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "_grid", rows)

    def __setattr__(self, name, value):
        raise AttributeError("BettiTable is immutable")

    @classmethod
    def zero(cls, window: Window, num_vars: int | None = None) -> "BettiTable":
        grid = [[Fraction(0)] * window.height for _ in range(window.max_col + 1)]
        return cls(window, grid, num_vars)

    @classmethod
    def from_entries(
        cls,
        entries: Mapping[tuple[int, int], Rational],
        window: Window | None = None,
        num_vars: int | None = None,
    ) -> "BettiTable":
        """Build from a ``(column, degree) -> value`` mapping.

        With no explicit window the smallest one containing the nonzero
        support is used; an all-zero mapping then has no well-defined window
        and is rejected.
        """
        support = {(i, j): Fraction(v) for (i, j), v in entries.items() if Fraction(v) != 0}
        if window is None:
            if not support:
                raise ValueError("cannot infer a window from an empty support")
            rows = [j - i for i, j in support]
            cols = [i for i, _ in support]
            if min(cols) < 0:
                raise ValueError(f"negative column in support: {min(cols)}")
            window = Window(min(rows), max(rows), max(cols))
        grid = [[Fraction(0)] * window.height for _ in range(window.max_col + 1)]
        for (i, j), v in support.items():
            if not window.contains(i, j):
                raise ValueError(f"entry at column {i}, degree {j} is outside the window")
            grid[i][j - i - window.min_row] = v
        return cls(window, grid, num_vars)

    @property
    def window(self) -> Window:
        return Window(self.min_row, self.max_row, self.max_col)

    @property
    def height(self) -> int:
        return self.max_row - self.min_row + 1

    def entry(self, col: int, degree: int) -> Fraction:
        """beta_{col, degree}; zero outside the window."""
        if not self.window.contains(col, degree):
            return Fraction(0)
        return self._grid[col][degree - col - self.min_row]

    def iter_support(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Nonzero entries as ((column, degree), value), column-major order."""
        for i, col in enumerate(self._grid):
            for t, v in enumerate(col):
                if v:
                    yield (i, i + self.min_row + t), v

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(pos for pos, _ in self.iter_support())

    def is_zero(self) -> bool:
        return all(v == 0 for col in self._grid for v in col)

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for col in self._grid for v in col)

    def _combine(self, other: "BettiTable", sign: int) -> "BettiTable":
        window = Window(
            min(self.min_row, other.min_row),
            max(self.max_row, other.max_row),
            max(self.max_col, other.max_col),
        )
        entries: dict[tuple[int, int], Fraction] = {}
        for pos, v in self.iter_support():
            entries[pos] = entries.get(pos, Fraction(0)) + v
        for pos, v in other.iter_support():
            entries[pos] = entries.get(pos, Fraction(0)) + sign * v
        return BettiTable.from_entries(entries, window, self.num_vars)

    def __add__(self, other: "BettiTable") -> "BettiTable":
        return self._combine(other, 1)

    def __sub__(self, other: "BettiTable") -> "BettiTable":
        return self._combine(other, -1)

    def scale(self, factor: Rational) -> "BettiTable":
        q = Fraction(factor)
        grid = [[v * q for v in col] for col in self._grid]
        return BettiTable(self.window, grid, self.num_vars)

    def flatten(self, window: Window | None = None) -> tuple[Fraction, ...]:
        """Column-major vector of the table read through ``window``.

        Raises ValueError if any nonzero entry falls outside that window.
        """
        if window is None:
            window = self.window
        out = [Fraction(0)] * window.dimension
        for (i, j), v in self.iter_support():
            if not window.contains(i, j):
                raise ValueError(f"entry at column {i}, degree {j} is outside the window")
            out[window.flat_index(i, j)] = v
        return tuple(out)

    def same_entries(self, other: "BettiTable") -> bool:
        """Equality of supports, ignoring window padding."""
        return dict(self.iter_support()) == dict(other.iter_support())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return (
            (self.min_row, self.max_row, self.max_col) == (other.min_row, other.max_row, other.max_col)
            and self._grid == other._grid
        )

    def __hash__(self) -> int:
        return hash((self.min_row, self.max_row, self.max_col, self._grid))

    def __repr__(self) -> str:
        entries = ", ".join(f"({i},{j}): {v}" for (i, j), v in self.iter_support())
        return f"BettiTable(rows {self.min_row}..{self.max_row}, cols 0..{self.max_col}; {entries or 'zero'})"


@dataclass(frozen=True)
class PureDiagram:
    """The canonical pure diagram of a degree sequence, with its table."""

    sequence: DegreeSequence
    table: BettiTable


def _pure_denominators(degrees: tuple[int, ...]) -> list[int]:
    """prod_{p != i} |d_p - d_i| for each position i: pi(d) has entry
    1/denominator in column i at degree d_i."""
    out = []
    for i, di in enumerate(degrees):
        prod = 1
        for p, dp in enumerate(degrees):
            if p != i:
                prod *= abs(dp - di)
        out.append(prod)
    return out


def pure_diagram(sequence) -> PureDiagram:
    """Pure diagram pi(d): the single column-i entry at degree d_i equals
    prod_{p != i} 1/|d_p - d_i|. Its window is the support hull."""
    seq = sequence if isinstance(sequence, DegreeSequence) else DegreeSequence(tuple(sequence))
    entries = {
        (i, di): Fraction(1, den)
        for i, (di, den) in enumerate(zip(seq.degrees, _pure_denominators(seq.degrees)))
    }
    return PureDiagram(seq, BettiTable.from_entries(entries))


def hk_functional(table: BettiTable, power: int) -> Fraction:
    """Alternating degree-power sum ``sum_(i,j) (-1)^i j^power beta_{i,j}``.

    The power-0 functional uses ``0^0 = 1``, so it is the alternating sum of
    the entries themselves.
    """
    if power < 0:
        raise ValueError("power must be >= 0")
    acc = Fraction(0)
    for (i, j), v in table.iter_support():
        term = v * (j ** power)
        acc += term if i % 2 == 0 else -term
    return acc


def hk_satisfies(table: BettiTable, count: int) -> bool:
    """Whether the first ``count`` functionals (powers 0..count-1) all vanish."""
    return all(hk_functional(table, t) == 0 for t in range(count))


def to_btt_text(table: BettiTable) -> str:
    """Serialize as .btt: header ``min_row max_row max_col``, then one line per
    row of exact entries across columns 0..max_col."""
    lines = [f"{table.min_row} {table.max_row} {table.max_col}"]
    for t in range(table.height):
        row = table.min_row + t
        lines.append(" ".join(str(table.entry(i, i + row)) for i in range(table.max_col + 1)))
    return "\n".join(lines) + "\n"


def parse_btt_text(text: str) -> BettiTable:
    """Parse the .btt format; ``#`` starts a comment, blank lines are skipped."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    if not rows:
        raise ParseError("empty .btt input")
    header_line, header = rows[0]
    if len(header) != 3:
        raise ParseError(f"line {header_line}: header needs 3 integers, got {len(header)}")
    try:
        min_row, max_row, max_col = (int(x) for x in header)
    except ValueError as exc:
        raise ParseError(f"line {header_line}: bad header: {exc}") from exc
    try:
        window = Window(min_row, max_row, max_col)
    except ValueError as exc:
        raise ParseError(f"line {header_line}: {exc}") from exc
    data = rows[1:]
    if len(data) != window.height:
        raise ParseError(f"expected {window.height} data rows, found {len(data)}")
    grid = [[Fraction(0)] * window.height for _ in range(window.max_col + 1)]
    for t, (lineno, tokens) in enumerate(data):
        if len(tokens) != window.max_col + 1:
            raise ParseError(f"line {lineno}: expected {window.max_col + 1} entries, got {len(tokens)}")
        for i, tok in enumerate(tokens):
            try:
                grid[i][t] = Fraction(tok)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"line {lineno}: bad entry {tok!r}: {exc}") from exc
    return BettiTable(window, grid)


def table_to_json(table: BettiTable) -> dict:
    """JSON form: window triple plus dense rows of exact entry strings."""
    return {
        "window": [table.min_row, table.max_row, table.max_col],
        "rows": [
            [str(table.entry(i, i + table.min_row + t)) for i in range(table.max_col + 1)]
            for t in range(table.height)
        ],
    }


def _json_rational(value) -> Fraction:
    """An exact rational from JSON: a string such as ``"-7/3"`` or an integer;
    floats are refused, since ``Fraction(0.1)`` reads the binary approximation."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ParseError(f"{value!r} is not an exact rational (a string or an integer)")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {value!r}: {exc}") from exc


def table_from_json(obj) -> BettiTable:
    if not isinstance(obj, dict):
        raise ParseError("table JSON must be an object")
    try:
        min_row, max_row, max_col = (_exact_int(x) for x in obj["window"])
        window = Window(min_row, max_row, max_col)
        rows = obj["rows"]
        if len(rows) != window.height:
            raise ParseError(f"expected {window.height} rows")
        grid = [[_json_rational(rows[t][i]) for t in range(window.height)] for i in range(window.max_col + 1)]
    except ParseError:
        raise
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise ParseError(f"bad table JSON: {exc}") from exc
    return BettiTable(window, grid)
