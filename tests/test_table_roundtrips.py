"""Hypothesis round trips of Betti tables through .btt text and JSON, and a
fuzz of the .btt parser."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from bsdecomp import BettiTable, ParseError, Window, parse_btt_text, table_from_json, table_to_json, to_btt_text

VALUES = st.one_of(st.integers(-(10**6), 10**6), st.fractions(max_denominator=60))


@st.composite
def tables(draw):
    """A table on a window with lowest row in -3..3, height 1-4 and columns 0-4,
    whose int and Fraction entries may be negative or zero."""
    min_row = draw(st.integers(-3, 3))
    window = Window(min_row, min_row + draw(st.integers(0, 3)), draw(st.integers(0, 4)))
    positions = [(i, i + row) for row in range(window.min_row, window.max_row + 1) for i in range(window.max_col + 1)]
    return BettiTable.from_entries(draw(st.dictionaries(st.sampled_from(positions), VALUES)), window)


@settings(max_examples=250)
@given(tables())
def test_btt_round_trip(table):
    assert parse_btt_text(to_btt_text(table)) == table


@settings(max_examples=250)
@given(tables())
def test_json_round_trip(table):
    assert table_from_json(json.loads(json.dumps(table_to_json(table)))) == table


@settings(max_examples=1500)
@given(st.one_of(st.text(), st.text(alphabet="0123456789 +-/#\n\t")))
def test_btt_parser_raises_only_parse_error(text):
    try:
        table = parse_btt_text(text)
    except ParseError:
        return
    assert isinstance(table, BettiTable)
