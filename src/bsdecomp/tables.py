"""Graded Betti tables over Q, pure diagrams, and their partial order.

Conventions: the entry ``beta_{i,j}`` sits in column i (homological degree)
and row ``j - i`` (regularity offset). A window confines support to columns
``0..max_col`` and rows ``min_row..max_row``; ``Window.hull`` and
``Window.shift`` are the one place windows are derived. A ``BettiTable`` is
its nonzero entries, keyed by (column, degree), over a window. Degree
sequences are strictly increasing; ``compare`` orders them termwise after
padding the shorter one with +infinity, so shorter sequences sit higher.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import index as _exact_int
from typing import Iterable, Iterator, Mapping

from .errors import DegreeSequenceError, ParseError

Rational = Fraction
_ZERO = Fraction(0)

# the one spelling of numbers read from text (.btt, JSON strings, the CLI);
# int() and Fraction() would also take "1_0", non-ASCII digits, "0.5", "1e2"
_INTEGER = re.compile(r"[-+]?[0-9]+")
_RATIONAL = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")


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

    @classmethod
    def hull(cls, positions: Iterable[tuple[int, int]], *windows: "Window") -> "Window":
        """Smallest window holding every (column, degree) position and every
        given window."""
        rows = [w.min_row for w in windows] + [w.max_row for w in windows]
        cols = [w.max_col for w in windows]
        for i, j in positions:
            rows.append(j - i)
            cols.append(i)
        if not cols:
            raise ValueError("cannot infer a window from no positions")
        if min(cols) < 0:
            raise ValueError(f"negative column {min(cols)} has no window")
        return cls(min(rows), max(rows), max(cols))

    def shift(self, offset: int) -> "Window":
        """The window of every degree moved by ``offset``: rows move, columns stay."""
        return Window(self.min_row + offset, self.max_row + offset, self.max_col)


@dataclass(frozen=True)
class DegreeSequence:
    """Strictly increasing tuple of integer degrees ``d_0 < d_1 < ...``;
    booleans are refused, although Python counts them as integers."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        try:
            degs = tuple(_json_int(d) for d in self.degrees)
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


@dataclass(frozen=True, init=False)
class BettiTable:
    """Nonzero rational entries ``(column, degree) -> beta`` over a window.

    A frozen dataclass with no ``__init__``: built only by ``from_entries``
    (or ``zero``), which turns every value into a ``Fraction``, and immutable
    once built. The window may carry rows and columns of zero padding beyond
    the support. Equality compares the window and every entry;
    ``same_entries`` compares supports only, ignoring that padding.
    """

    window: Window
    _entries: dict[tuple[int, int], Fraction]

    @classmethod
    def zero(cls, window: Window) -> "BettiTable":
        return cls.from_entries({}, window)

    @classmethod
    def from_entries(
        cls, entries: Mapping[tuple[int, int], Rational], window: Window | None = None
    ) -> "BettiTable":
        """Build from a ``(column, degree) -> value`` mapping; zeros are dropped.

        With no explicit window the smallest one containing the nonzero
        support is used; an all-zero mapping then has no well-defined window
        and is rejected.
        """
        support = {}
        for pos, value in sorted(entries.items()):
            q = Fraction(value)
            if q:
                support[pos] = q
        if window is None:
            window = Window.hull(support)
        else:
            for i, j in support:
                if not window.contains(i, j):
                    raise ValueError(f"entry at column {i}, degree {j} is outside the window")
        table = object.__new__(cls)
        object.__setattr__(table, "window", window)
        object.__setattr__(table, "_entries", support)
        return table

    def entry(self, col: int, degree: int) -> Fraction:
        """beta_{col, degree}; zero off the support."""
        return self._entries.get((col, degree), _ZERO)

    def iter_support(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Nonzero entries as ((column, degree), value), column-major order."""
        return iter(self._entries.items())

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self._entries.values())

    def __add__(self, other: "BettiTable") -> "BettiTable":
        entries = dict(self._entries)
        for pos, v in other._entries.items():
            entries[pos] = entries.get(pos, _ZERO) + v
        return BettiTable.from_entries(entries, Window.hull((), self.window, other.window))

    def scale(self, factor: Rational) -> "BettiTable":
        q = Fraction(factor)
        return BettiTable.from_entries({pos: v * q for pos, v in self._entries.items()}, self.window)

    def same_entries(self, other: "BettiTable") -> bool:
        """Equality of supports, ignoring window padding."""
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash((self.window, tuple(self._entries.items())))

    def __repr__(self) -> str:
        w = self.window
        entries = ", ".join(f"({i},{j}): {v}" for (i, j), v in self.iter_support())
        return f"BettiTable(rows {w.min_row}..{w.max_row}, cols 0..{w.max_col}; {entries or 'zero'})"


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


def _text_rows(table: BettiTable) -> list[list[str]]:
    """Exact entry strings, one list per window row, columns 0..max_col."""
    w = table.window
    return [
        [str(table.entry(i, i + row)) for i in range(w.max_col + 1)]
        for row in range(w.min_row, w.max_row + 1)
    ]


def to_btt_text(table: BettiTable) -> str:
    """Serialize as .btt: header ``min_row max_row max_col``, then one line per
    row of exact entries across columns 0..max_col."""
    w = table.window
    lines = [f"{w.min_row} {w.max_row} {w.max_col}"]
    lines += (" ".join(row) for row in _text_rows(table))
    return "\n".join(lines) + "\n"


def _text_rational(text: str) -> Fraction:
    """A rational spelled ``[-+]?[0-9]+(/[0-9]+)?``; ValueError for any other
    text, ZeroDivisionError for a zero denominator."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError("not an integer or a fraction n/d in ASCII digits")
    return Fraction(text)


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
    bad = [x for x in header if not _INTEGER.fullmatch(x)]
    if bad:
        raise ParseError(f"line {header_line}: bad header: not an integer: {bad[0]!r}")
    min_row, max_row, max_col = map(int, header)
    try:
        window = Window(min_row, max_row, max_col)
    except ValueError as exc:
        raise ParseError(f"line {header_line}: {exc}") from exc
    data = rows[1:]
    if len(data) != window.height:
        raise ParseError(f"expected {window.height} data rows, found {len(data)}")
    entries = {}
    for row, (lineno, tokens) in enumerate(data, start=min_row):
        if len(tokens) != max_col + 1:
            raise ParseError(f"line {lineno}: expected {max_col + 1} entries, got {len(tokens)}")
        for i, tok in enumerate(tokens):
            try:
                entries[(i, i + row)] = _text_rational(tok)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"line {lineno}: bad entry {tok!r}: {exc}") from exc
    return BettiTable.from_entries(entries, window)


def table_to_json(table: BettiTable) -> dict:
    """JSON form: window triple plus dense rows of exact entry strings."""
    w = table.window
    return {"window": [w.min_row, w.max_row, w.max_col], "rows": _text_rows(table)}


def _json_rational(value) -> Fraction:
    """An exact rational from JSON: a string such as ``"-7/3"`` or an integer;
    floats are refused, since ``Fraction(0.1)`` reads the binary approximation."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ParseError(f"{value!r} is not an exact rational (a string or an integer)")
    try:
        return _text_rational(value) if isinstance(value, str) else Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {value!r}: {exc}") from exc


def _json_int(value) -> int:
    """An integer from JSON. Raises TypeError for anything else, booleans
    included, although Python counts them as integers; callers add context."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return _exact_int(value)


def _json_window(value) -> Window:
    """A window from its JSON triple ``[min_row, max_row, max_col]``; raises
    TypeError or ValueError for anything else."""
    min_row, max_row, max_col = (_json_int(x) for x in value)
    return Window(min_row, max_row, max_col)


def table_from_json(obj) -> BettiTable:
    if not isinstance(obj, dict):
        raise ParseError("table JSON must be an object")
    try:
        window = _json_window(obj["window"])
        rows = obj["rows"]
        if not isinstance(rows, list) or len(rows) != window.height:
            raise ParseError(f"expected a list of {window.height} rows")
        width = window.max_col + 1
        entries = {}
        for row, values in enumerate(rows, start=window.min_row):
            if not isinstance(values, list) or len(values) != width:
                raise ParseError(f"row {values!r} is not a list of {width} entries")
            for i, value in enumerate(values):
                entries[(i, i + row)] = _json_rational(value)
    except ParseError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"bad table JSON: {exc}") from exc
    return BettiTable.from_entries(entries, window)
