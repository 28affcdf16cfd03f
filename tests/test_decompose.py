import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsdecomp.decompose
from bsdecomp import (
    BettiTable,
    CertificateError,
    Chain,
    Comparison,
    DegreeSequence,
    Decomposition,
    NoSolutionError,
    NotDecomposableError,
    ParseError,
    Window,
    chain_decompose,
    coefficient_column_formula,
    compare,
    cover_successors,
    decomposition_from_json,
    decomposition_to_json,
    enumerate_maximal_chains,
    greedy_decompose,
    pure_diagram,
    reconstruction_mismatch,
    verify,
)
from bsdecomp.decompose import _chain_through
from oracles import cramer_solve, dense_vector
from reference_values import (
    GREEDY_TERM_COUNTS_SMALL,
    SMALL_TABLES,
    alternate_chain,
    expected_alternate_coefficients,
    expected_table,
)


def all_sequences(window):
    """Every degree sequence that fits the window, brute force."""
    out = []
    for length in range(1, window.max_col + 2):
        ranges = [range(window.min_row + i, window.max_row + i + 1) for i in range(length)]
        for combo in itertools.product(*ranges):
            if all(a < b for a, b in zip(combo, combo[1:])):
                out.append(DegreeSequence(combo))
    return out


def brute_force_covers(sequence, window, universe):
    above = [b for b in universe if compare(sequence, b) is Comparison.LESS]
    return {
        b
        for b in above
        if not any(
            compare(sequence, z) is Comparison.LESS and compare(z, b) is Comparison.LESS
            for z in above
        )
    }


def random_chain(rng, window):
    chains = list(enumerate_maximal_chains(window))
    return chains[rng.randrange(len(chains))]


def first_nonnegative_chain(table, window):
    """Exhaustive scan: the first maximal chain, in enumeration order, along
    which the table expands with no negative coefficient, or None."""
    for chain in enumerate_maximal_chains(window):
        if all(c >= 0 for c in chain_decompose(table, chain).coefficients):
            return chain
    return None


def combination_table(coefficients, chain):
    entries = {}
    for c, s in zip(coefficients, chain.elements):
        for pos, v in pure_diagram(s).table.iter_support():
            entries[pos] = entries.get(pos, 0) + c * v
    return BettiTable.from_entries(entries, chain.window)


class TestCoverSuccessors:
    @pytest.mark.parametrize("window", [Window(0, 1, 1), Window(0, 2, 1), Window(0, 1, 2), Window(-1, 1, 2)])
    def test_matches_brute_force_minimal_moves(self, window):
        universe = all_sequences(window)
        for sequence in universe:
            got = cover_successors(sequence, window)
            assert len(set(got)) == len(got)
            assert set(got) == brute_force_covers(sequence, window, universe)

    def test_order_is_bumps_by_position_then_drop(self):
        window = Window(0, 2, 2)
        got = cover_successors(DegreeSequence((0, 1, 4)), window)
        assert got == [DegreeSequence((0, 2, 4)), DegreeSequence((0, 1))]

    def test_top_has_no_successors(self):
        assert cover_successors(DegreeSequence((1,)), Window(0, 1, 1)) == []

    def test_drop_requires_top_row(self):
        window = Window(0, 3, 1)
        assert DegreeSequence((0,)) not in cover_successors(DegreeSequence((0, 2)), window)
        assert DegreeSequence((0,)) in cover_successors(DegreeSequence((0, 4)), window)


class TestChain:
    def test_from_sequences_infers_hull_window(self):
        chain = Chain.from_sequences([(0, 1), (0, 2), (1, 2), (1,)])
        assert chain.window == Window(0, 1, 1)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="not maximal"):
            Chain.from_sequences([(0, 2), (0, 1)])
        with pytest.raises(ValueError, match="not maximal"):
            Chain.from_sequences([(0, 1), (0, 1)])
        with pytest.raises(ValueError):
            Chain.from_sequences([])

    def test_rejects_sequences_outside_window(self):
        with pytest.raises(ValueError, match="not maximal"):
            Chain.from_sequences([(0, 1), (0, 5)], Window(0, 2, 1))

    def test_maximal_flag(self):
        full = Chain.from_sequences([(0, 1), (0, 2), (1, 2), (1,)], Window(0, 1, 1))
        assert full == next(enumerate_maximal_chains(Window(0, 1, 1)))
        # a chain that skips an element, misses the bottom or misses the top
        for partial in ([(0, 1), (0, 2), (1,)], [(0, 2), (1, 2), (1,)], [(0, 1), (0, 2), (1, 2)]):
            with pytest.raises(ValueError, match="not maximal"):
                Chain.from_sequences(partial, Window(0, 1, 1))

    def test_shift(self):
        chain = Chain.from_sequences([(0, 1), (0, 2), (1, 2), (1,)], Window(0, 1, 1))
        shifted = chain.shift(6)
        assert shifted.window == Window(6, 7, 1)
        assert shifted.elements[0].degrees == (6, 7)
        assert Chain.from_sequences(shifted.elements, shifted.window) == shifted


class TestEnumerateMaximalChains:
    def test_two_by_two_window_has_exactly_two(self):
        chains = list(enumerate_maximal_chains(Window(0, 1, 1)))
        as_degrees = [tuple(e.degrees for e in c) for c in chains]
        assert as_degrees == [
            ((0, 1), (0, 2), (1, 2), (1,)),
            ((0, 1), (0, 2), (0,), (1,)),
        ]

    def test_known_count_for_four_column_window(self):
        assert sum(1 for _ in enumerate_maximal_chains(Window(0, 1, 3))) == 14

    @pytest.mark.parametrize("window", [Window(0, 1, 1), Window(0, 2, 1), Window(0, 1, 2), Window(1, 3, 2)])
    def test_chain_shape_invariants(self, window):
        seen = set()
        for chain in enumerate_maximal_chains(window):
            assert Chain.from_sequences(chain.elements, chain.window) == chain
            assert len(chain) == window.dimension
            assert chain.elements not in seen
            seen.add(chain.elements)
        assert seen

    def test_single_cell_window(self):
        chains = list(enumerate_maximal_chains(Window(2, 2, 0)))
        assert len(chains) == 1
        assert chains[0].elements == (DegreeSequence((2,)),)

    def test_short_chain_is_a_certificate_error(self, monkeypatch):
        # a cover relation that skipped ranks would reach the top too early
        monkeypatch.setattr(bsdecomp.decompose, "cover_successors", lambda s, w: [DegreeSequence((w.max_row,))])
        with pytest.raises(CertificateError, match="a maximal chain of 4 elements has 2"):
            next(enumerate_maximal_chains(Window(0, 1, 1)))


class TestGreedy:
    def test_small_path_tables(self):
        for k, entries in SMALL_TABLES.items():
            table = BettiTable.from_entries(entries)
            decomposition = greedy_decompose(table)
            assert len(decomposition.terms) == GREEDY_TERM_COUNTS_SMALL[k]
            assert all(c > 0 for c in decomposition.coefficients)
            assert verify(decomposition, table)

    def test_pure_table_takes_one_step(self):
        table = pure_diagram((0, 1, 3)).table.scale(12)
        decomposition = greedy_decompose(table)
        assert decomposition.terms == ((Fraction(12), DegreeSequence((0, 1, 3))),)

    def test_zero_table(self):
        table = BettiTable.zero(Window(0, 2, 2))
        decomposition = greedy_decompose(table)
        assert decomposition.terms == ()
        assert decomposition.reconstruct() == table

    def test_random_chain_combinations_round_trip(self):
        rng = random.Random(404)
        windows = [Window(0, 1, 1), Window(0, 2, 2), Window(0, 1, 3), Window(1, 3, 2)]
        for _ in range(40):
            chain = random_chain(rng, windows[rng.randrange(len(windows))])
            coefficients = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in chain.elements]
            table = combination_table(coefficients, chain)
            if table.is_zero():
                continue
            decomposition = greedy_decompose(table)
            assert decomposition.terms == tuple(
                (c, seq) for c, seq in zip(coefficients, chain.elements) if c
            )
            assert verify(decomposition, table)

    def test_rejects_negative_entries(self):
        with pytest.raises(NotDecomposableError, match="negative"):
            greedy_decompose(BettiTable.from_entries({(0, 0): -1}))

    def test_rejects_zero_column_before_nonzero(self):
        with pytest.raises(NotDecomposableError, match="column 0 is zero"):
            greedy_decompose(BettiTable.from_entries({(1, 2): 1}, Window(1, 1, 1)))

    def test_rejects_non_increasing_minimal_degrees(self):
        with pytest.raises(NotDecomposableError, match="strictly"):
            greedy_decompose(BettiTable.from_entries({(0, 2): 1, (1, 2): 1}))


ORACLE_WINDOWS = [Window(0, 1, 1), Window(0, 2, 1), Window(0, 1, 2), Window(0, 1, 3), Window(0, 2, 2)]


@st.composite
def window_tables(draw):
    """A window up to 2x4 or 3x3 and a nonnegative table on it: either random
    small entries, or a nonnegative combination along a random maximal chain,
    possibly with one entry nudged."""
    window = draw(st.sampled_from(ORACLE_WINDOWS))
    if draw(st.booleans()):
        entries = {
            (i, i + row): Fraction(draw(st.integers(0, 4)), draw(st.integers(1, 2)))
            for i in range(window.max_col + 1)
            for row in range(window.min_row, window.max_row + 1)
        }
        return window, BettiTable.from_entries(entries, window)
    chains = list(enumerate_maximal_chains(window))
    chain = chains[draw(st.integers(0, len(chains) - 1))]
    coefficients = [draw(st.sampled_from([0, 0, 1, 2, Fraction(5, 2)])) for _ in chain.elements]
    entries = dict(combination_table(coefficients, chain).iter_support())
    if entries and draw(st.booleans()):
        pos = draw(st.sampled_from(sorted(entries)))
        entries[pos] += draw(st.sampled_from([Fraction(1, 3), Fraction(-1, 7)]))
    return window, BettiTable.from_entries(entries, window)


class TestGreedyAgainstChainScan:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(window_tables())
    def test_greedy_fails_exactly_when_no_chain_is_nonnegative(self, window_table):
        # a positive decomposition along a chain is unique, so the greedy
        # sequences pin down which chains expand without a negative term
        window, table = window_table
        expected = first_nonnegative_chain(table, window)
        if not table.is_nonnegative():
            assert expected is None
            return
        try:
            decomposition = greedy_decompose(table)
        except NotDecomposableError:
            assert expected is None
            return
        assert expected is not None
        assert _chain_through(decomposition.sequences, window) == expected

    def test_walk_without_sequences_is_first_chain(self):
        for window in ORACLE_WINDOWS:
            assert _chain_through((), window) == next(enumerate_maximal_chains(window))


class TestChainDecompose:
    def test_recovers_exact_coefficients(self):
        rng = random.Random(505)
        windows = [Window(0, 1, 1), Window(0, 2, 2), Window(0, 1, 3), Window(0, 3, 2), Window(-1, 1, 3)]
        for window in windows:
            for chain in enumerate_maximal_chains(window):
                coefficients = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in chain.elements]
                table = combination_table(coefficients, chain)
                decomposition = chain_decompose(table, chain)
                assert list(decomposition.coefficients) == coefficients
                assert decomposition.sequences == chain.elements
                assert verify(decomposition, table)

    def test_matches_cramer_oracle(self):
        # the dense chain system, solved by Cramer's rule, is the reference
        # for the forward substitution along the chain
        rng = random.Random(707)
        for window in [Window(0, 1, 1), Window(0, 2, 2), Window(0, 1, 3)]:
            for chain in enumerate_maximal_chains(window):
                entries = {
                    (i, i + row): Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                    for i in range(window.max_col + 1)
                    for row in range(window.min_row, window.max_row + 1)
                }
                table = BettiTable.from_entries(entries, window)
                columns = [dense_vector(pure_diagram(s).table, window) for s in chain.elements]
                matrix = [[col[r] for col in columns] for r in range(window.dimension)]
                expected = cramer_solve(matrix, dense_vector(table, window))
                assert list(chain_decompose(table, chain).coefficients) == expected

    def test_expansion_of_greedy_table_along_other_chain(self):
        # same table, different chain: coefficients change, reconstruction doesn't
        table = BettiTable.from_entries(SMALL_TABLES[1])
        for chain in itertools.islice(enumerate_maximal_chains(table.window), 3):
            decomposition = chain_decompose(table, chain)
            assert verify(decomposition, table)

    def test_alternate_chain_reference_coefficients(self):
        table = expected_table(3)
        decomposition = chain_decompose(table, alternate_chain(3))
        assert decomposition.coefficients == expected_alternate_coefficients(3)
        assert any(c < 0 for c in decomposition.coefficients)

    def test_requires_maximal_chain(self):
        with pytest.raises(ValueError, match="not maximal"):
            Chain.from_sequences([(0, 1), (1, 2)], Window(0, 1, 1))

    def test_table_outside_window(self):
        chain = next(enumerate_maximal_chains(Window(0, 1, 1)))
        with pytest.raises(NoSolutionError):
            chain_decompose(BettiTable.from_entries({(0, 5): 1}), chain)


class TestColumnFormula:
    def test_agrees_with_solver_when_applicable(self):
        rng = random.Random(606)
        for window in [Window(0, 2, 1), Window(0, 2, 2)]:
            for chain in enumerate_maximal_chains(window):
                coefficients = [Fraction(rng.randint(-6, 6)) for _ in chain.elements]
                table = combination_table(coefficients, chain)
                decomposition = chain_decompose(table, chain)
                for index in range(1, len(chain.elements) - 1):
                    formula = coefficient_column_formula(table, chain, index)
                    if formula is not None:
                        assert formula == decomposition.coefficients[index]

    def test_none_when_neighbors_touch_different_positions(self):
        # (0, 1) -> (0, 2) bumps column 1, (0, 2) -> (1, 2) bumps column 0
        chain = Chain.from_sequences([(0, 1), (0, 2), (1, 2), (1,)], Window(0, 1, 1))
        table = BettiTable.from_entries({(0, 0): 1}, Window(0, 1, 1))
        assert coefficient_column_formula(table, chain, 1) is None

    def test_none_when_a_neighbor_is_a_drop(self):
        bump, drop = enumerate_maximal_chains(Window(0, 1, 1))
        table = BettiTable.from_entries({(0, 0): 1}, Window(0, 1, 1))
        # the move after (1, 2) in the first chain is a drop, and so are the moves
        # into and out of (0,) in the second
        for chain, index in ((bump, 2), (drop, 1), (drop, 2)):
            assert coefficient_column_formula(table, chain, index) is None

    def test_rejects_endpoints(self):
        chain = next(enumerate_maximal_chains(Window(0, 1, 1)))
        table = BettiTable.from_entries({(0, 0): 1}, Window(0, 1, 1))
        with pytest.raises(ValueError):
            coefficient_column_formula(table, chain, 0)
        with pytest.raises(ValueError):
            coefficient_column_formula(table, chain, len(chain) - 1)


class TestVerification:
    def test_mismatch_reports_first_position(self):
        table = BettiTable.from_entries(SMALL_TABLES[1])
        decomposition = greedy_decompose(table)
        assert reconstruction_mismatch(decomposition, table) is None
        bumped = table + BettiTable.from_entries({(1, 3): Fraction(1, 2)})
        position, got, want = reconstruction_mismatch(decomposition, bumped)
        assert position == (1, 3)
        assert want - got == Fraction(1, 2)
        assert not verify(decomposition, bumped)


class TestDecompositionContainer:
    def test_terms_must_follow_chain_order(self):
        with pytest.raises(ValueError, match="chain order"):
            Decomposition(((Fraction(1), DegreeSequence((0, 2))), (Fraction(1), DegreeSequence((0, 1)))), Window(0, 1, 1))

    def test_nonzero_terms(self):
        d = Decomposition(
            ((Fraction(0), DegreeSequence((0, 1))), (Fraction(2), DegreeSequence((0, 2)))),
            Window(0, 1, 1),
        )
        assert d.nonzero_terms() == ((Fraction(2), DegreeSequence((0, 2))),)

    def test_reconstruct_window_spans_source_and_nonzero_terms(self):
        # the zero term at rows -2..0 does not widen the window; 3 * pi(0, 3)
        # puts 1 at (0, 0) and (1, 3), rows 0 and 2
        d = Decomposition(
            ((Fraction(0), DegreeSequence((-2, 1))), (Fraction(3), DegreeSequence((0, 3)))),
            Window(5, 6, 0),
        )
        assert d.reconstruct() == BettiTable.from_entries({(0, 0): 1, (1, 3): 1}, Window(0, 6, 1))

    def test_json_round_trip(self):
        table = BettiTable.from_entries(SMALL_TABLES[2])
        decomposition = greedy_decompose(table)
        rebuilt = decomposition_from_json(decomposition_to_json(decomposition))
        assert rebuilt == decomposition

    def test_json_keeps_fractions_exact(self):
        d = Decomposition(((Fraction(-7, 3), DegreeSequence((0, 1))),), Window(0, 1, 1))
        obj = decomposition_to_json(d)
        assert obj["terms"][0]["coefficient"] == "-7/3"
        assert decomposition_from_json(obj) == d

    def test_json_rejects_non_integers(self):
        with pytest.raises(ParseError, match="window"):
            decomposition_from_json({"window": [0, 1.5, 1], "terms": []})
        # booleans are integers to Python, but not in JSON
        with pytest.raises(ParseError, match="window"):
            decomposition_from_json({"window": [False, True, 0], "terms": []})
        with pytest.raises(ParseError, match="term"):
            decomposition_from_json(
                {"window": [0, 1, 1], "terms": [{"degrees": [0, 1.7], "coefficient": "1"}]}
            )
        with pytest.raises(ParseError, match="term"):
            decomposition_from_json(
                {"window": [0, 1, 1], "terms": [{"degrees": [False, True], "coefficient": "1"}]}
            )

    def test_json_coefficients_must_be_exact(self):
        def parse(coefficient):
            term = {"degrees": [0, 1], "coefficient": coefficient}
            return decomposition_from_json({"window": [0, 0, 1], "terms": [term]})

        for bad in (1.0, 0.5, False, None):
            with pytest.raises(ParseError, match="not an exact rational"):
                parse(bad)
        with pytest.raises(ParseError, match="bad rational"):
            parse("1/0")
        assert parse(2) == parse("2")

    def test_json_errors(self):
        with pytest.raises(ParseError):
            decomposition_from_json("nope")
        with pytest.raises(ParseError, match="window"):
            decomposition_from_json({"terms": []})
        with pytest.raises(ParseError, match="terms"):
            decomposition_from_json({"window": [0, 1, 1]})
        with pytest.raises(ParseError):
            decomposition_from_json({"window": [0, 1, 1], "terms": [{"degrees": [0, 1]}]})
        with pytest.raises(ParseError):
            decomposition_from_json(
                {"window": [0, 1, 1], "terms": [{"degrees": [2, 1], "coefficient": "1"}]}
            )
