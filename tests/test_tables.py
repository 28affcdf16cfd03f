import math
import operator
import random
from fractions import Fraction

import pytest

from bsdecomp import (
    BettiTable,
    DegreeSequence,
    DegreeSequenceError,
    ParseError,
    Window,
    hk_functional,
    hk_satisfies,
    parse_btt_text,
    pure_diagram,
    table_from_json,
    table_to_json,
    to_btt_text,
)


def random_sequence(rng, low=-4, high=8, max_len=5):
    length = rng.randint(1, max_len)
    degrees = sorted(rng.sample(range(low, high + max_len), length))
    return DegreeSequence(tuple(degrees))


class TestWindow:
    def test_dimensions(self):
        w = Window(2, 4, 3)
        assert w.height == 3
        assert w.dimension == 12
        assert Window(0, 0, 0).dimension == 1

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Window(3, 2, 1)
        with pytest.raises(ValueError):
            Window(0, 1, -1)

    @pytest.mark.parametrize("bounds", [(0, 1.5, 1), (True, True, 0), (0, 0, False)])
    def test_bounds_are_integers(self, bounds):
        with pytest.raises(TypeError):
            Window(*bounds)

    def test_a_float_position_has_no_window(self):
        with pytest.raises(TypeError):
            BettiTable.from_entries({(0.5, 0): 1})

    def test_contains_covers_every_position(self):
        w = Window(1, 3, 2)
        seen = set()
        for i in range(w.max_col + 1):
            for j in range(i + w.min_row, i + w.max_row + 1):
                assert w.contains(i, j)
                seen.add((i, j))
        assert len(seen) == w.dimension
        assert not w.contains(-1, 1)
        assert not w.contains(3, 4)
        assert not w.contains(0, 0)
        assert not w.contains(0, 4)

    def test_hull_and_shift(self):
        # positions are (column, degree), so (2, 5) sits in row 3
        assert Window.hull([(0, 1), (2, 5)]) == Window(1, 3, 2)
        assert Window.hull([(1, 1)], Window(2, 4, 0)) == Window(0, 4, 1)
        assert Window.hull((), Window(0, 1, 3), Window(-1, 0, 1)) == Window(-1, 1, 3)
        with pytest.raises(ValueError):
            Window.hull([])
        with pytest.raises(ValueError, match="negative column"):
            Window.hull([(-1, 0), (1, 1)])
        assert Window(1, 3, 2).shift(4) == Window(5, 7, 2)
        assert Window(1, 3, 2).shift(-1) == Window(0, 2, 2)


class TestDegreeSequence:
    def test_validation(self):
        with pytest.raises(DegreeSequenceError):
            DegreeSequence(())
        with pytest.raises(DegreeSequenceError):
            DegreeSequence((1, 1))
        with pytest.raises(DegreeSequenceError):
            DegreeSequence((2, 1))
        # booleans are integers to Python, but not degrees
        with pytest.raises(DegreeSequenceError, match="non-integer"):
            DegreeSequence((False, True))
        assert len(DegreeSequence((-1, 0, 5))) == 3

    def test_shift_and_fits(self):
        d = DegreeSequence((0, 1, 3))
        assert d.shift(6).degrees == (6, 7, 9)


class TestCompare:
    def test_padding_semantics(self):
        # shorter sequences pad with +infinity, so they sit higher
        assert DegreeSequence((0, 1, 5)) < DegreeSequence((0, 1))
        assert DegreeSequence((0, 1)) > DegreeSequence((0, 1, 5))
        same = DegreeSequence((0, 1))
        assert same <= DegreeSequence((0, 1)) and same >= DegreeSequence((0, 1))
        assert not same < DegreeSequence((0, 1))
        a, b = DegreeSequence((0, 3)), DegreeSequence((1, 2))
        assert not (a <= b or b <= a)
        assert DegreeSequence((0, 1, 2)) < DegreeSequence((1, 2))

    def test_order_axioms_random(self):
        rng = random.Random(2024)
        seqs = [random_sequence(rng) for _ in range(60)]
        for a in seqs:
            assert a <= a and a >= a and not a < a and not a > a
        for a in seqs:
            for b in seqs:
                assert (a < b) == (b > a) and (a <= b) == (b >= a)
                assert (a < b) == (a <= b and a != b)
                if a <= b and b <= a:
                    assert a.degrees == b.degrees
        for a in seqs[:20]:
            for b in seqs[:20]:
                for c in seqs[:20]:
                    if a < b and b < c:
                        assert a < c

    def test_a_tuple_is_not_comparable(self):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(DegreeSequence((0, 1)), (0, 1))
            with pytest.raises(TypeError):
                op((0, 1), DegreeSequence((0, 1)))


class TestBettiTable:
    def test_from_entries_infers_window(self):
        t = BettiTable.from_entries({(0, 2): 4, (2, 5): 1})
        assert t.window == Window(2, 3, 2)
        assert t.entry(0, 2) == 4
        assert t.entry(1, 3) == 0
        assert t.entry(9, 9) == 0

    def test_from_entries_drops_zeros_and_rejects_empty(self):
        t = BettiTable.from_entries({(0, 1): 1, (1, 2): 0})
        assert t.support() == ((0, 1),)
        with pytest.raises(ValueError):
            BettiTable.from_entries({(0, 1): 0})
        z = BettiTable.from_entries({}, window=Window(0, 1, 1))
        assert z.is_zero()

    def test_entries_are_exact(self):
        t = BettiTable.from_entries({(0, 0): Fraction(1, 3), (1, 1): "2/7"})
        assert t.entry(0, 0) == Fraction(1, 3)
        assert t.entry(1, 1) == Fraction(2, 7)

    @pytest.mark.parametrize("value", [0.1, 2.0, True, False])
    def test_floats_and_booleans_are_refused(self, value):
        with pytest.raises(TypeError, match="not an exact rational"):
            BettiTable.from_entries({(0, 0): 1, (1, 1): value})
        with pytest.raises(TypeError, match="not an exact rational"):
            BettiTable.from_entries({(0, 0): 1}).scale(value)

    def test_arithmetic_unions_windows(self):
        a = BettiTable.from_entries({(0, 0): 1})
        b = BettiTable.from_entries({(1, 3): 2})
        s = a + b
        assert s.entry(0, 0) == 1 and s.entry(1, 3) == 2
        assert s.window == Window(0, 2, 1)
        assert BettiTable.zero(s.window).is_zero()
        cancelled = s + s.scale(-1)
        assert cancelled.is_zero() and cancelled.window == s.window
        assert a.scale(Fraction(1, 2)).entry(0, 0) == Fraction(1, 2)

    def test_from_entries_rejects_entry_outside_window(self):
        entries = {(0, 2): 1, (1, 4): 2}
        assert BettiTable.from_entries(entries, Window(2, 3, 1)).support() == ((0, 2), (1, 4))
        with pytest.raises(ValueError, match="column 1, degree 4 is outside the window"):
            BettiTable.from_entries(entries, Window(2, 2, 1))

    @pytest.mark.parametrize(
        "entries, window",
        [
            ({(0.5, 1): 1}, Window(0, 1, 1)),
            ({(1, True): 1}, Window(0, 1, 1)),
            # not an extreme of the inferred hull, so the hull does not see it
            ({(0.5, 1): 1, (0, 0): 1, (2, 5): 1}, None),
            ({(True, 1): 1, (0, 0): 1, (2, 5): 1}, None),
        ],
    )
    def test_positions_are_integers(self, entries, window):
        with pytest.raises(TypeError):
            BettiTable.from_entries(entries, window)

    def test_same_entries_vs_eq(self):
        a = BettiTable.from_entries({(0, 0): 1})
        b = BettiTable.from_entries({(0, 0): 1}, window=Window(0, 2, 2))
        assert a.same_entries(b)
        assert a != b
        assert a == BettiTable.from_entries({(0, 0): 1})

    def test_immutability(self):
        t = BettiTable.from_entries({(0, 0): 1})
        with pytest.raises(AttributeError):
            t.min_row = 5


class TestPureDiagram:
    def test_known_diagram(self):
        d = pure_diagram((0, 1, 2, 3))
        assert d.entry(0, 0) == Fraction(1, 6)
        assert d.entry(1, 1) == Fraction(1, 2)
        assert d.entry(2, 2) == Fraction(1, 2)
        assert d.entry(3, 3) == Fraction(1, 6)
        assert d.window == Window(0, 0, 3)

    def test_singleton_diagram(self):
        d = pure_diagram((5,))
        assert d.entry(0, 5) == 1
        assert d.window == Window(5, 5, 0)

    def test_one_entry_per_column_random(self):
        rng = random.Random(8)
        for _ in range(50):
            seq = random_sequence(rng)
            table = pure_diagram(seq)
            support = table.support()
            assert len(support) == len(seq)
            assert [i for i, _ in support] == list(range(len(seq)))
            for i, di in enumerate(seq):
                expected = Fraction(1, math.prod(abs(dp - di) for dp in seq if dp != di))
                assert table.entry(i, di) == expected


class TestHerzogKuhl:
    def test_functional_values(self):
        t = BettiTable.from_entries({(0, 0): 1, (1, 1): 1})
        assert hk_functional(t, 0) == 0  # 0^0 = 1 here
        assert hk_functional(t, 1) == -1
        with pytest.raises(ValueError):
            hk_functional(t, -1)

    @pytest.mark.parametrize("power", [0.5, 1.0, True, "1"])
    def test_power_and_count_are_integers(self, power):
        t = BettiTable.from_entries({(0, 2): 2, (1, 3): 1})  # (x1x2, x2x3) in 3 variables
        assert hk_functional(t, 1) == 1 and type(hk_functional(t, 1)) is Fraction
        with pytest.raises(TypeError):
            hk_functional(t, power)
        with pytest.raises(TypeError):
            hk_satisfies(t, power)

    def test_pure_diagrams_satisfy_exactly_first_s(self):
        rng = random.Random(77)
        for _ in range(40):
            seq = random_sequence(rng)
            s = len(seq) - 1
            table = pure_diagram(seq)
            assert hk_satisfies(table, s)
            assert hk_functional(table, s) != 0
            assert not hk_satisfies(table, s + 1)


class TestSerialization:
    def test_btt_round_trip(self):
        t = BettiTable.from_entries({(0, 6): 20, (1, 7): 30, (1, 8): 3, (2, 8): 12, (2, 9): 3, (3, 9): 1})
        text = to_btt_text(t)
        lines = text.splitlines()
        assert lines[0] == "6 7 3"
        assert lines[1].split() == ["20", "30", "12", "1"]
        assert lines[2].split() == ["0", "3", "3", "0"]
        assert parse_btt_text(text) == t

    def test_btt_parses_comments_and_fractions(self):
        text = "# a table\n0 1 1\n1/2 0  # trailing comment\n\n0 2/3\n"
        t = parse_btt_text(text)
        assert t.entry(0, 0) == Fraction(1, 2)
        assert t.entry(1, 2) == Fraction(2, 3)

    def test_btt_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="header"):
            parse_btt_text("1 2\n")
        with pytest.raises(ParseError, match="expected 2 entries"):
            parse_btt_text("0 0 1\n1\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_btt_text("0 0 0\nx\n")
        with pytest.raises(ParseError):
            parse_btt_text("")
        with pytest.raises(ParseError, match="data rows"):
            parse_btt_text("0 1 0\n1\n")
        # numbers are ASCII digits with an optional sign and denominator, no more
        for bad in ("1_0", "\u0661", "0.5", "1e2"):
            with pytest.raises(ParseError, match="line 1: bad header"):
                parse_btt_text(f"0 0 {bad}\n1 2\n")
            with pytest.raises(ParseError, match="line 2: bad entry"):
                parse_btt_text(f"0 0 1\n{bad} 2\n")

    def test_btt_round_trip_random(self):
        # every fourth table is all zero; the others leave their bottom row,
        # top row or last column empty in turn, so the window keeps padding
        # that the support alone would not give
        rng = random.Random(5)
        for trial in range(40):
            window = Window(rng.randint(-2, 2), rng.randint(3, 5), rng.randint(0, 3))
            blank = trial % 4
            entries = {}
            for i in range(window.max_col + 1):
                for row in range(window.min_row, window.max_row + 1):
                    edges = (True, row == window.min_row, row == window.max_row, i == window.max_col)
                    if not edges[blank] and rng.random() < 0.4:
                        entries[(i, i + row)] = Fraction(rng.randint(1, 40), rng.randint(1, 6))
            table = BettiTable.from_entries(entries, window)
            for rebuilt in (parse_btt_text(to_btt_text(table)), table_from_json(table_to_json(table))):
                assert rebuilt == table and rebuilt.window == window
                assert hash(rebuilt) == hash(table)
            reordered = BettiTable.from_entries(dict(reversed(entries.items())), window)
            assert reordered == table and hash(reordered) == hash(table)
            if not entries:
                assert table.is_zero() and table.support() == ()
                continue
            tight = BettiTable.from_entries(entries)
            assert tight.same_entries(table) and table.same_entries(tight)
            if blank:
                assert tight.window != window and tight != table

    def test_json_round_trip(self):
        t = BettiTable.from_entries({(0, 0): Fraction(1, 3), (2, 4): 7})
        assert table_from_json(table_to_json(t)) == t
        with pytest.raises(ParseError):
            table_from_json([1, 2])
        with pytest.raises(ParseError):
            table_from_json({"window": [0, 1, 1]})

    def test_json_window_must_be_integers(self):
        # 1.7 would otherwise be read as row 1
        rows = [["1", "0"], ["0", "1"]]
        with pytest.raises(ParseError, match="bad table JSON"):
            table_from_json({"window": [0, 1.7, 1], "rows": rows})
        with pytest.raises(ParseError, match="bad table JSON"):
            table_from_json({"window": ["0", 1, 1], "rows": rows})
        with pytest.raises(ParseError, match="bad table JSON"):
            table_from_json({"window": [0, True, 1], "rows": rows})
        assert table_from_json({"window": [0, 1, 1], "rows": rows}).window == Window(0, 1, 1)

    def test_json_rows_must_be_lists_of_the_window_width(self):
        # a long row would lose its extra entries, and a string row would be
        # read one character per column
        for window, rows in (([0, 0, 1], [["1", "2", "3"]]), ([0, 0, 0], ["7"]), ([0, 0, 1], ["12"])):
            with pytest.raises(ParseError, match="is not a list of"):
                table_from_json({"window": window, "rows": rows})
        with pytest.raises(ParseError, match="rows"):
            table_from_json({"window": [0, 0, 0], "rows": "7"})

    def test_json_entries_must_be_exact(self):
        # Fraction(0.1) would read 3602879701896397/36028797018963968
        for bad in (0.1, 1.0, True, None, [1]):
            with pytest.raises(ParseError, match="not an exact rational"):
                table_from_json({"window": [0, 0, 1], "rows": [[bad, "1"]]})
        # int() and Fraction() would read each of these
        for bad in ("\u0663/2", "1_0", "0.5", "1e2", " 3"):
            with pytest.raises(ParseError, match="bad rational"):
                table_from_json({"window": [0, 0, 1], "rows": [[bad, "1"]]})
        table = table_from_json({"window": [0, 0, 1], "rows": [[3, "1/10"]]})
        assert table.entry(0, 0) == 3 and table.entry(1, 1) == Fraction(1, 10)
