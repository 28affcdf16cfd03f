"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

Every expectation here is exact rational equality; there are no numeric
tolerances anywhere. The reference tables, polynomials, and chains live in
reference_values; the independent cross-check is the Taylor-complex oracle.
"""

import itertools
import json
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from bsdecomp import (
    BettiTable,
    Chain,
    DegreeSequence,
    Monomial,
    MonomialIdeal,
    PolynomialQ,
    Window,
    betti_table,
    chain_decompose,
    coefficient_column_formula,
    enumerate_maximal_chains,
    eventual_min,
    eventually_nonnegative,
    fit_family,
    greedy_decompose,
    hk_functional,
    hk_satisfies,
    power,
    pure_diagram,
    report_from_json,
    sign_threshold,
    symbolic_chain_decompose,
    symbolic_greedy_decompose,
    verify,
)
from bsdecomp.cli import main
from oracles import taylor_betti_table
from reference_values import (
    ALTERNATE_CHAIN_OFFSETS,
    ALTERNATE_TERMS,
    EDGE_GENERATORS,
    ENTRY_POLYNOMIALS,
    GEN_DEGREE,
    GREEDY_TERM_COUNTS_SMALL,
    NUM_VARS,
    POSITIVE_CHAIN_OFFSETS,
    POSITIVE_TERMS,
    alternate_chain,
    expected_alternate_coefficients,
    expected_positive_terms,
    expected_table,
    poly,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


@contextmanager
def criterion(note, label):
    try:
        yield
    except BaseException:
        note(f"{label}: FAIL")
        raise
    note(f"{label}: PASS")


@pytest.fixture(scope="module")
def family_fit(path_tables):
    return fit_family({k: path_tables(k) for k in range(3, 9)}, GEN_DEGREE, 3)


def test_criterion_1_power_tables(acceptance_report, path_tables):
    with criterion(acceptance_report, "criterion 1 (Betti tables of I^k, k=3..5, exact)"):
        for k in (3, 4, 5):
            assert path_tables(k) == expected_table(k)
        t3 = path_tables(3)
        assert [t3.entry(i, i + 6) for i in range(4)] == [20, 30, 12, 1]
        assert [t3.entry(i, i + 7) for i in range(4)] == [0, 3, 3, 0]


def test_criterion_2_positive_decomposition(acceptance_report, path_tables):
    with criterion(acceptance_report, "criterion 2 (greedy positive decomposition, k=1..6)"):
        for k in range(3, 7):
            decomposition = greedy_decompose(path_tables(k))
            assert len(decomposition.terms) == 5
            assert decomposition.terms == expected_positive_terms(k)
        for k, count in GREEDY_TERM_COUNTS_SMALL.items():
            assert len(greedy_decompose(path_tables(k)).terms) == count


def test_criterion_3_alternate_chain(acceptance_report, path_tables):
    with criterion(acceptance_report, "criterion 3 (alternate-chain expansion, k=3..5)"):
        for k in (3, 4, 5):
            expansion = chain_decompose(path_tables(k), alternate_chain(k))
            assert expansion.coefficients == expected_alternate_coefficients(k)
            by_sequence = dict((s.degrees, c) for c, s in expansion.terms)
            assert by_sequence[(2 * k + 1, 2 * k + 2, 2 * k + 3)] == -4 * k - 4
            assert by_sequence[(2 * k, 2 * k + 1, 2 * k + 2, 2 * k + 4)] == 0


def test_criterion_4_symbolic_pipeline(acceptance_report, path_tables, family_fit):
    with criterion(acceptance_report, "criterion 4 (symbolic fit, decompositions, k=9 holdout)"):
        assert dict(family_fit.entries) == ENTRY_POLYNOMIALS
        assert family_fit.valid_from == 3

        greedy = symbolic_greedy_decompose(family_fit)
        assert greedy.terms == tuple((p, DegreeSequence(o)) for o, p in POSITIVE_TERMS)

        expansion = symbolic_chain_decompose(family_fit, Chain.from_sequences(ALTERNATE_CHAIN_OFFSETS))
        assert expansion.terms == tuple((p, DegreeSequence(o)) for o, p in ALTERNATE_TERMS)

        assert family_fit.evaluate(9) == path_tables(9)


@pytest.fixture(scope="module")
def chains_fit():
    """Fit of (x1x2x3, x2x3x4, x1^3, x4^3) on k=2..6: a 4x3 offset window with
    462 maximal chains, next to the 14 of the path ideal's."""
    gens = [Monomial(e) for e in ((1, 1, 1, 0), (0, 1, 1, 1), (3, 0, 0, 0), (0, 0, 0, 3))]
    ideal = MonomialIdeal(4, tuple(gens))
    return fit_family({k: betti_table(power(ideal, k)) for k in range(2, 7)}, 3, 3)


def test_criterion_5_positive_chain_uniqueness(acceptance_report, family_fit, chains_fit):
    with criterion(acceptance_report, "criterion 5 (unique eventually-nonnegative chain)"):
        frozen = report_from_json(
            json.loads((GOLDEN / "stabilize-chains.report.json").read_text(encoding="utf-8"))
        )
        cases = [
            (family_fit, {(o, p) for o, p in POSITIVE_TERMS}, POSITIVE_CHAIN_OFFSETS),
            (
                chains_fit,
                {(s.degrees, w) for w, s in frozen.positive.terms},
                tuple(s.degrees for s in frozen.positive_chain.elements),
            ),
        ]
        for fit, positive_terms, positive_chain in cases:
            decompositions = set()
            qualifying_chains = []
            for chain in enumerate_maximal_chains(fit.offset_window()):
                expansion = symbolic_chain_decompose(fit, chain)
                if all(eventually_nonnegative(w) for w, _ in expansion.terms):
                    qualifying_chains.append(chain)
                    decompositions.add(
                        frozenset((s.degrees, w) for w, s in expansion.nonzero_terms())
                    )
            # chains may route through elements the decomposition gives weight
            # zero, so uniqueness is of the decomposition, not the routing
            assert len(decompositions) == 1
            assert decompositions.pop() == positive_terms
            assert qualifying_chains
            assert tuple(s.degrees for s in qualifying_chains[0].elements) == positive_chain


def test_criterion_6a_greedy_reconstruction(acceptance_report):
    with criterion(acceptance_report, "criterion 6a (greedy reconstructs 200 random tables)"):
        rng = random.Random(2601)
        windows = [Window(0, 1, 1), Window(0, 2, 2), Window(0, 1, 3), Window(1, 3, 2), Window(0, 3, 1)]
        chain_pool = {w: list(enumerate_maximal_chains(w)) for w in windows}
        done = 0
        while done < 200:
            window = windows[rng.randrange(len(windows))]
            chain = chain_pool[window][rng.randrange(len(chain_pool[window]))]
            table = BettiTable.zero(window)
            for sequence in chain.elements:
                if rng.random() < 0.35:
                    continue
                weight = Fraction(rng.randint(1, 9), rng.randint(1, 3))
                table = table + pure_diagram(sequence).scale(weight)
            if table.is_zero():
                continue
            decomposition = greedy_decompose(table)
            assert all(c > 0 for c in decomposition.coefficients)
            assert verify(decomposition, table)
            done += 1


def test_criterion_6b_column_formula(acceptance_report):
    with criterion(acceptance_report, "criterion 6b (column formula matches the solver)"):
        rng = random.Random(2602)
        applied = 0
        for window in [Window(0, 2, 1), Window(0, 2, 2), Window(0, 3, 1)]:
            chains = list(enumerate_maximal_chains(window))
            for _ in range(25):
                entries = {}
                for i in range(window.max_col + 1):
                    for row in range(window.min_row, window.max_row + 1):
                        entries[(i, i + row)] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                table = BettiTable.from_entries(entries, window)
                chain = chains[rng.randrange(len(chains))]
                expansion = chain_decompose(table, chain)
                for index in range(1, len(chain) - 1):
                    value = coefficient_column_formula(table, chain, index)
                    if value is not None:
                        assert value == expansion.coefficients[index]
                        applied += 1
        assert applied > 50


def test_criterion_6c_taylor_oracle(acceptance_report):
    with criterion(acceptance_report, "criterion 6c (Taylor oracle on 50 random ideals)"):
        rng = random.Random(2603)
        from bsdecomp import betti_table

        def free_draw():
            num_vars = rng.randint(1, 5)
            gens = []
            for _ in range(rng.randint(1, 12)):
                exps = tuple(rng.randint(0, 3) for _ in range(num_vars))
                if any(exps):
                    gens.append(Monomial(exps))
            return MonomialIdeal(num_vars, tuple(gens)) if gens else free_draw()

        def equigenerated_draw():
            num_vars = rng.randint(2, 5)
            degree = rng.randint(2, 5)
            pool = [
                e
                for e in itertools.product(range(degree + 1), repeat=num_vars)
                if sum(e) == degree
            ]
            count = min(rng.randint(2, 12), len(pool))
            return MonomialIdeal(num_vars, tuple(Monomial(e) for e in rng.sample(pool, count)))

        for trial in range(50):
            ideal = free_draw() if trial % 2 == 0 else equigenerated_draw()
            assert 1 <= len(ideal.generators) <= 12
            assert ideal.num_vars <= 5
            assert betti_table(ideal).same_entries(taylor_betti_table(ideal))


def test_criterion_6d_pure_diagram_hk(acceptance_report):
    with criterion(acceptance_report, "criterion 6d (pure diagrams meet exactly the first s HK functionals)"):
        window = Window(0, 3, 4)
        checked = 0
        for length in range(1, window.max_col + 2):
            ranges = [range(window.min_row + i, window.max_row + i + 1) for i in range(length)]
            for degrees in itertools.product(*ranges):
                if any(a >= b for a, b in zip(degrees, degrees[1:])):
                    continue
                table = pure_diagram(degrees)
                s = length - 1
                assert hk_satisfies(table, s)
                assert hk_functional(table, s) != 0
                checked += 1
        assert checked == 125


def test_criterion_6e_eventual_min_certificates(acceptance_report):
    with criterion(acceptance_report, "criterion 6e (eventual_min thresholds verified by sampling)"):
        rng = random.Random(2605)

        def random_poly():
            degree = rng.randint(0, 3)
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree + 1)]
            return PolynomialQ(tuple(coeffs))

        for _ in range(40):
            polys = [random_poly() for _ in range(rng.randint(2, 5))]
            index, threshold = eventual_min(polys)
            for t in range(threshold + 1, threshold + 51):
                values = [p(t) for p in polys]
                assert values[index] == min(values)
            # the pairwise machinery rests on single-polynomial sign bounds
            for p in polys:
                if p:
                    t0 = sign_threshold(p)
                    lead_positive = p.coefficients[-1] > 0
                    for t in range(t0 + 1, t0 + 51):
                        assert (p(t) > 0) == lead_positive


def test_criterion_7_determinism(acceptance_report, tmp_path, capsys):
    with criterion(acceptance_report, "criterion 7 (byte-identical stabilize reports)"):
        ideal_path = tmp_path / "ideal.json"
        ideal_path.write_text(
            json.dumps({"variables": NUM_VARS, "generators": list(EDGE_GENERATORS)}),
            encoding="utf-8",
        )
        outputs = []
        summaries = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            rc = main(
                [
                    "stabilize",
                    "--ideal",
                    str(ideal_path),
                    "--kmin",
                    "1",
                    "--kmax",
                    "8",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            outputs.append(out.read_bytes())
            summaries.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        # frozen output guards against a drift that every run shares
        assert outputs[0] == (GOLDEN / "stabilize-p5.report.json").read_bytes()
        assert summaries == [(GOLDEN / "stabilize-p5.summary.txt").read_text(encoding="utf-8")] * 2
        report = json.loads(outputs[0])
        assert report["certified_from"] == 3
        assert report["k0_observed"] == 3
