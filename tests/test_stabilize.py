import ast
import json
import os
import random
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import bsdecomp.stabilize
from bsdecomp import (
    BettiTable,
    CertificateError,
    Chain,
    Decomposition,
    DegreeSequence,
    MonomialIdeal,
    Monomial,
    NoSolutionError,
    NotDecomposableError,
    NotEquigeneratedError,
    NotStabilizedError,
    ParseError,
    PolynomialQ,
    SymbolicBettiTable,
    TranslatedDecomposition,
    Window,
    chain_decompose,
    detect_stabilization,
    enumerate_maximal_chains,
    eventually_nonnegative,
    fit_family,
    greedy_decompose,
    ideal_from_json,
    parse_monomial,
    power,
    power_tables,
    reconstruction_mismatch,
    report_from_json,
    report_json_text,
    report_to_json,
    sign_threshold,
    symbolic_chain_decompose,
    symbolic_greedy_decompose,
)
from oracles import bareiss_rank
from reference_values import (
    ALTERNATE_CHAIN_OFFSETS,
    ALTERNATE_TERMS,
    ENTRY_POLYNOMIALS,
    GEN_DEGREE,
    POSITIVE_CHAIN_OFFSETS,
    POSITIVE_TERMS,
    VALID_FROM,
    expected_positive_terms,
    expected_table,
    path_edge_ideal,
    poly,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def family_fit():
    tables = {k: expected_table(k) for k in range(3, 9)}
    return fit_family(tables, GEN_DEGREE, 3)


@pytest.fixture(scope="module")
def path_report():
    return detect_stabilization(path_edge_ideal(), 1, 8)


def as_terms(reference):
    return tuple((p, DegreeSequence(offsets)) for offsets, p in reference)


def doubled_greedy(table):
    """A wrong numeric greedy decomposition: every coefficient doubled."""
    decomposition = greedy_decompose(table)
    return Decomposition(tuple((2 * c, s) for c, s in decomposition.terms), decomposition.source_window)


def doubled_chain_expansion(table, chain):
    """A wrong numeric chain expansion: every coefficient doubled."""
    expansion = chain_decompose(table, chain)
    return Decomposition(tuple((2 * c, s) for c, s in expansion.terms), expansion.source_window)


def chain_expansion_with_a_stray_one(table, chain):
    """A wrong numeric chain expansion: its first zero coefficient set to 1."""
    expansion = chain_decompose(table, chain)
    slot = expansion.coefficients.index(0)
    terms = tuple((1 if i == slot else c, s) for i, (c, s) in enumerate(expansion.terms))
    return Decomposition(terms, expansion.source_window)


def negated_symbolic_expansion(table, chain):
    """A wrong symbolic chain expansion: every coefficient negated."""
    expansion = symbolic_chain_decompose(table, chain)
    terms = tuple((-w, s) for w, s in expansion.terms)
    return TranslatedDecomposition(terms, expansion.gen_degree, expansion.certified_from, expansion.offset_window)


def doubled_fit(tables, gen_degree, degree_bound):
    """A wrong family fit: every entry polynomial doubled."""
    fit = fit_family(tables, gen_degree, degree_bound)
    return SymbolicBettiTable(gen_degree, {pos: w * 2 for pos, w in fit.entries.items()}, fit.valid_from)


def scanned_positive_chain(table, window):
    """Exhaustive scan: the first maximal chain of the window whose expansion
    coefficients are all eventually nonnegative, or None."""
    for chain in enumerate_maximal_chains(window):
        expansion = symbolic_chain_decompose(table, chain)
        if all(eventually_nonnegative(w) for w, _ in expansion.terms):
            return chain
    return None


TWO_EDGES = MonomialIdeal(3, (Monomial((1, 1, 0)), Monomial((0, 1, 1))))


def random_equigenerated_ideals():
    """40 seeded random equigenerated ideals in 2-4 variables, degree 2-3."""
    rng = random.Random(1993)
    for _ in range(40):
        n, d = rng.randint(2, 4), rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(2, 5)):
            exps = [0] * n
            for _ in range(d):
                exps[rng.randrange(n)] += 1
            gens.append(Monomial(tuple(exps)))
        yield MonomialIdeal(n, tuple(gens))


class TestSymbolicBettiTable:
    def test_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            SymbolicBettiTable(2, {(0, 0): poly()}, 1)
        with pytest.raises(ValueError, match="column"):
            SymbolicBettiTable(2, {(-1, 0): poly(1)}, 1)
        with pytest.raises(ValueError, match="at least one"):
            SymbolicBettiTable(2, {}, 1)

    @pytest.mark.parametrize("key", [(0.5, 0), (True, 0)])
    def test_refuses_non_integer_keys(self, key):
        # int() once read (0.5, 0) as (0, 0), silently replacing that entry
        with pytest.raises(TypeError, match="integer"):
            SymbolicBettiTable(2, {(0, 0): poly(1), key: poly(2)}, 1)

    def test_offset_window(self):
        table = SymbolicBettiTable(GEN_DEGREE, ENTRY_POLYNOMIALS, VALID_FROM)
        assert table.offset_window() == Window(0, 1, 3)

    def test_evaluate_matches_reference_tables(self):
        table = SymbolicBettiTable(GEN_DEGREE, ENTRY_POLYNOMIALS, VALID_FROM)
        for k in (3, 4, 7):
            assert table.evaluate(k) == expected_table(k)

    def test_entry_lookup(self):
        table = SymbolicBettiTable(GEN_DEGREE, ENTRY_POLYNOMIALS, VALID_FROM)
        assert table.entries[(1, 2)] == poly(0, 1)
        assert (0, 9) not in table.entries

    def test_eventually_negative_entries_are_constructible(self):
        # the constructor only bars identically-zero entries; sign problems
        # surface later, in the greedy run or the fit
        table = SymbolicBettiTable(1, {(0, 0): poly(0, -1)}, 1)
        assert table.entries == {(0, 0): poly(0, -1)}


class TestFitFamily:
    def test_recovers_entry_polynomials(self, family_fit):
        assert family_fit.gen_degree == GEN_DEGREE
        assert family_fit.valid_from == VALID_FROM
        assert dict(family_fit.entries) == ENTRY_POLYNOMIALS

    def test_synthetic_shifted_family(self):
        tables = {k: BettiTable.from_entries({(0, 2 * k): k + 1, (1, 2 * k + 1): k}) for k in range(1, 4)}
        fit = fit_family(tables, 2, 1)
        assert fit.entries == {(0, 0): poly(1, 1), (1, 1): poly(0, 1)}

    def test_validation_errors(self):
        tables = {1: BettiTable.from_entries({(0, 0): 1})}
        with pytest.raises(ValueError, match="no sample"):
            fit_family({}, 1, 0)
        with pytest.raises(ValueError, match="consecutive"):
            fit_family({1: tables[1], 3: tables[1]}, 1, 0)
        with pytest.raises(ValueError, match="degree bound"):
            fit_family(tables, 1, -1)

    def test_too_few_samples(self):
        tables = {k: BettiTable.from_entries({(0, 0): 1}) for k in (1, 2, 3)}
        with pytest.raises(NotStabilizedError, match="need at least 5"):
            fit_family(tables, 0, 3)

    def test_shape_change_names_offender(self):
        # the supports settle at k = 3, leaving one sample for a degree-1 fit;
        # the offender is the last power whose support differs, at the
        # position the change adds
        tables = {k: BettiTable.from_entries({(0, k): 1}) for k in (1, 2, 3)}
        tables[3] = BettiTable.from_entries({(0, 3): 1, (1, 5): 2})
        with pytest.raises(NotStabilizedError, match="stabilize only from k=3") as info:
            fit_family(tables, 1, 1)
        assert info.value.offender == (2, 1, 4)

    def test_fits_from_where_the_supports_settle(self, path_report):
        # P5's supports settle at k = 3; the earlier powers are not fitted
        fit = fit_family(power_tables(path_edge_ideal(), 1, 8), GEN_DEGREE, 3)
        assert fit == path_report.fit
        assert fit.valid_from == 3

    def test_late_stabilization_matches_detect_stabilization(self):
        with pytest.raises(NotStabilizedError) as detected:
            detect_stabilization(path_edge_ideal(), 1, 5)
        with pytest.raises(NotStabilizedError) as fitted:
            fit_family(power_tables(path_edge_ideal(), 1, 5), GEN_DEGREE, 3)
        assert str(fitted.value) == str(detected.value)
        assert str(fitted.value).startswith("supports stabilize only from k=3, leaving 3 samples")
        assert fitted.value.offender == detected.value.offender == (2, 3, 7)

    def test_exponential_family_misfits(self):
        tables = {k: BettiTable.from_entries({(0, k): 2 ** k}) for k in range(1, 6)}
        with pytest.raises(NotStabilizedError, match="misfit") as info:
            fit_family(tables, 1, 2)
        assert info.value.offender is not None

    def test_eventually_negative_fit_rejected(self):
        tables = {k: BettiTable.from_entries({(0, k): 10 - k}) for k in range(1, 6)}
        with pytest.raises(NotStabilizedError, match="eventually positive"):
            fit_family(tables, 1, 1)


class TestTranslatedDecomposition:
    def test_evaluate_keeps_every_term(self):
        d = TranslatedDecomposition(as_terms(ALTERNATE_TERMS), GEN_DEGREE, 3, Window(0, 1, 3))
        full = d.evaluate(3)
        assert len(full.terms) == len(ALTERNATE_TERMS)
        zero = [s.shift(GEN_DEGREE * 3) for w, s in d.terms if not w]
        assert len(zero) == 1
        assert full.nonzero_terms() == tuple((c, s) for c, s in full.terms if s not in zero)

    def test_evaluate_matches_reference(self):
        d = TranslatedDecomposition(as_terms(POSITIVE_TERMS), GEN_DEGREE, 3, Window(0, 1, 3))
        for k in (3, 5):
            assert d.evaluate(k).terms == expected_positive_terms(k)

    def test_chain_order_enforced(self):
        with pytest.raises(ValueError, match="chain order"):
            TranslatedDecomposition(
                ((poly(1), DegreeSequence((0, 2))), (poly(1), DegreeSequence((0, 1)))),
                1,
                1,
                Window(0, 1, 1),
            )

    def test_nonzero_terms(self):
        d = TranslatedDecomposition(as_terms(ALTERNATE_TERMS), GEN_DEGREE, 3, Window(0, 1, 3))
        assert len(d.nonzero_terms()) == len(ALTERNATE_TERMS) - 1


class TestSymbolicGreedy:
    def test_path_family(self, family_fit):
        decomposition = symbolic_greedy_decompose(family_fit)
        assert decomposition.terms == as_terms(POSITIVE_TERMS)
        assert decomposition.certified_from == 3
        assert decomposition.gen_degree == GEN_DEGREE

    def test_single_diagram_family(self):
        table = SymbolicBettiTable(1, {(0, 0): poly(0, 1), (1, 1): poly(0, 1)}, 1)
        decomposition = symbolic_greedy_decompose(table)
        assert decomposition.terms == ((poly(0, 1), DegreeSequence((0, 1))),)

    def test_eventually_negative_entry_rejected(self):
        table = SymbolicBettiTable(1, {(0, 0): poly(0, -1)}, 1)
        with pytest.raises(NotDecomposableError, match="eventually negative"):
            symbolic_greedy_decompose(table)

    def test_exhausted_column_rejected(self):
        table = SymbolicBettiTable(1, {(1, 1): poly(1)}, 1)
        with pytest.raises(NotDecomposableError, match="column 0"):
            symbolic_greedy_decompose(table)

    def test_evaluations_match_numeric_greedy(self, family_fit, path_tables):
        from bsdecomp import greedy_decompose

        decomposition = symbolic_greedy_decompose(family_fit)
        for k in (3, 4, 5):
            assert decomposition.evaluate(k).terms == greedy_decompose(path_tables(k)).terms


class TestSymbolicChain:
    def test_alternate_chain_expansion(self, family_fit):
        chain = Chain.from_sequences(ALTERNATE_CHAIN_OFFSETS)
        expansion = symbolic_chain_decompose(family_fit, chain)
        assert expansion.terms == as_terms(ALTERNATE_TERMS)
        assert expansion.certified_from == family_fit.valid_from

    def test_keeps_identically_zero_coefficient(self, family_fit):
        chain = Chain.from_sequences(ALTERNATE_CHAIN_OFFSETS)
        expansion = symbolic_chain_decompose(family_fit, chain)
        zero_terms = [s.degrees for w, s in expansion.terms if not w]
        assert zero_terms == [(0, 1, 2, 4)]

    def test_requires_maximal_chain(self):
        with pytest.raises(ValueError, match="not maximal"):
            Chain.from_sequences([(0, 1, 2, 3), (1,)], Window(0, 1, 3))

    def test_support_outside_window(self, family_fit):
        small = next(enumerate_maximal_chains(Window(0, 1, 1)))
        with pytest.raises(NoSolutionError, match="outside"):
            symbolic_chain_decompose(family_fit, small)

    def test_evaluation_matches_numeric_expansion(self, family_fit, path_tables):
        chain = Chain.from_sequences(ALTERNATE_CHAIN_OFFSETS)
        expansion = symbolic_chain_decompose(family_fit, chain)
        for k in (3, 4):
            numeric = chain_decompose(path_tables(k), chain.shift(GEN_DEGREE * k))
            assert expansion.evaluate(k).terms == numeric.terms


def path_ideal(n):
    return MonomialIdeal(n, tuple(parse_monomial(f"x{v}*x{v + 1}", n) for v in range(1, n)))


class TestEveryChainEveryPower:
    """The paper's second theorem, numerically: along every maximal chain of
    the fit's window the chain coefficients of beta(I^k), of either sign,
    are the symbolic expansion's polynomials at k, and from the largest sign
    threshold of those polynomials on, the same terms are nonzero."""

    @pytest.mark.parametrize("n, k_max, chain_count", [(5, 8, 14), (6, 9, 42)])
    def test_path_ideals(self, n, k_max, chain_count):
        ideal = path_ideal(n)
        fit = detect_stabilization(ideal, 1, k_max).fit
        k0, r = fit.valid_from, fit.gen_degree
        tables = power_tables(ideal, k0, k_max)
        chains = list(enumerate_maximal_chains(fit.offset_window()))
        assert len(chains) == chain_count
        for chain in chains:
            expansion = symbolic_chain_decompose(fit, chain)
            for k, table_k in tables.items():
                numeric = expansion.evaluate(k)
                assert numeric.terms == chain_decompose(table_k, chain.shift(r * k)).terms
                assert reconstruction_mismatch(numeric, table_k) is None
            threshold = max(sign_threshold(w) for w, _ in expansion.terms)
            nonzero = len(expansion.nonzero_terms())
            for k in range(max(k0, threshold + 1), k_max + 1):
                assert len(expansion.evaluate(k).nonzero_terms()) == nonzero


class TestPositiveFamilyChain:
    def test_path_family_chain(self, family_fit):
        report = bsdecomp.stabilize._report(path_edge_ideal(), family_fit)
        assert tuple(s.degrees for s in report.positive_chain.elements) == POSITIVE_CHAIN_OFFSETS
        assert max(sign_threshold(w) for w, _ in report.positive.terms) == 2

    def test_no_chain_qualifies(self):
        # k * pi(0,2) plus extra weight at (1,2): every expansion of the
        # window needs a negative coefficient somewhere
        table = SymbolicBettiTable(1, {(0, 0): poly(0, 1), (1, 2): poly(0, 3)}, 1)
        assert scanned_positive_chain(table, table.offset_window()) is None
        with pytest.raises(NotDecomposableError, match="column 0"):
            bsdecomp.stabilize._report(MonomialIdeal(1, (Monomial((1,)),)), table)

    def test_expansion_must_match_greedy(self, family_fit, monkeypatch):
        greedy = symbolic_greedy_decompose(family_fit)
        doubled = TranslatedDecomposition(
            tuple((w * 2, s) for w, s in greedy.terms),
            greedy.gen_degree,
            greedy.certified_from,
            greedy.offset_window,
        )
        monkeypatch.setattr(bsdecomp.stabilize, "symbolic_greedy_decompose", lambda table: doubled)
        with pytest.raises(CertificateError, match="differs from the symbolic greedy"):
            bsdecomp.stabilize._report(path_edge_ideal(), family_fit)

    def test_agrees_with_greedy_on_nonzero_terms(self, family_fit):
        chain = bsdecomp.stabilize._report(path_edge_ideal(), family_fit).positive_chain
        expansion = symbolic_chain_decompose(family_fit, chain)
        greedy = symbolic_greedy_decompose(family_fit)
        assert expansion.nonzero_terms() == greedy.terms


class TestDetectStabilization:
    def test_path_report(self, path_report):
        report = path_report
        assert report.gen_degree == 2
        assert report.k0_observed == 3
        assert dict(report.fit.entries) == ENTRY_POLYNOMIALS
        assert report.fit.valid_from == 3
        assert tuple(s.degrees for s in report.positive_chain.elements) == POSITIVE_CHAIN_OFFSETS
        assert report.positive.terms == as_terms(POSITIVE_TERMS)
        assert report.certified_from == 3
        assert report.verified_k == (3, 4, 5, 6, 7, 8)
        assert report.notes

    def test_principal_power_family(self):
        ideal = MonomialIdeal(1, (Monomial((2,)),))
        report = detect_stabilization(ideal, 1, 3)
        assert report.k0_observed == 1
        assert report.fit.entries == {(0, 0): poly(1)}
        assert report.positive.terms == ((poly(1), DegreeSequence((0,))),)
        assert report.certified_from == 1
        assert report.verified_k == (1, 2, 3)

    def test_two_variable_maximal_ideal(self):
        ideal = MonomialIdeal(2, (Monomial((1, 0)), Monomial((0, 1))))
        report = detect_stabilization(ideal, 1, 4)
        assert report.gen_degree == 1
        assert report.k0_observed == 1
        assert report.fit.entries == {(0, 0): poly(1, 1), (1, 1): poly(0, 1)}
        assert report.positive.terms == (
            (poly(0, 1), DegreeSequence((0, 1))),
            (poly(1), DegreeSequence((0,))),
        )
        assert report.certified_from == 1
        assert report.verified_k == (1, 2, 3, 4)

    def test_argument_validation(self):
        ideal = path_edge_ideal()
        with pytest.raises(ValueError, match="k_min"):
            detect_stabilization(ideal, 0, 5)
        with pytest.raises(ValueError, match="empty power range"):
            detect_stabilization(ideal, 5, 4)

    def test_non_equigenerated_rejected(self):
        mixed = MonomialIdeal(2, (Monomial((2, 0)), Monomial((0, 3))))
        with pytest.raises(NotEquigeneratedError):
            detect_stabilization(mixed, 1, 5)

    def test_short_range_rejected_before_computing(self):
        # the exponent matrix of P5 has rank 4, so the fit has degree <= 3 and
        # 4 samples are too few
        with pytest.raises(NotStabilizedError, match="fewer than 5 samples"):
            detect_stabilization(path_edge_ideal(), 1, 4)

    def test_late_stabilization_rejected(self):
        with pytest.raises(NotStabilizedError, match="stabilize only from k=3") as info:
            detect_stabilization(path_edge_ideal(), 1, 5)
        assert info.value.offender is not None
        assert info.value.offender[0] == 2

    def test_chains_ideal_needs_one_sample_past_its_fit_degree(self):
        # rank 3, so degree <= 2: the supports agree from k = 2, and k = 2..5
        # is three samples to fit and one held out
        golden = report_from_json(
            json.loads((GOLDEN / "stabilize-chains.report.json").read_text(encoding="utf-8"))
        )
        assert detect_stabilization(golden.ideal, 1, 5) == replace(golden, verified_k=(4, 5))

    def test_unit_ideal(self):
        # the exponent matrix has rank 0; the bound stays at degree 0
        report = detect_stabilization(MonomialIdeal(3, (Monomial((0, 0, 0)),)), 1, 2)
        assert report.fit.entries == {(0, 0): poly(1)}
        assert report.verified_k == (1, 2)

    def test_fit_degrees_within_kodiyalam_bound(self):
        # Kodiyalam (Proc. AMS 1993): beta_i(I^k) is eventually a polynomial in
        # k of degree at most l(I) - 1, and each graded entry lies between 0
        # and beta_i; for an equigenerated monomial ideal the analytic spread
        # l(I) is the rank of the generator exponent matrix. The entry (0, 0)
        # is mu(I^k), the Hilbert function of the fiber cone, of dimension
        # l(I), so its degree meets the bound: no smaller bound fits it.
        for ideal in random_equigenerated_ideals():
            spread = bareiss_rank([list(g.exponents) for g in ideal.generators])
            report = detect_stabilization(ideal, 1, 7)
            assert max(p.degree() for p in report.fit.entries.values()) <= spread - 1, ideal
            assert report.fit.entries[(0, 0)].degree() == max(spread - 1, 0), ideal


SHIFTED_FAMILY = {k: BettiTable.from_entries({(0, 2 * k): k + 1, (1, 2 * k + 1): k}) for k in range(1, 4)}


@pytest.mark.parametrize(
    "fn, args",
    [
        (fit_family, (SHIFTED_FAMILY, 2, True)),
        (fit_family, (SHIFTED_FAMILY, 2, 1.0)),
        (fit_family, (SHIFTED_FAMILY, True, 1)),
        (fit_family, (SHIFTED_FAMILY, 2.0, 1)),
        (power, (path_edge_ideal(), True)),
        (power, (path_edge_ideal(), 2.0)),
        (power_tables, (path_edge_ideal(), True, 2)),
        (power_tables, (path_edge_ideal(), 1, 2.0)),
        (detect_stabilization, (path_edge_ideal(), True, 8)),
        (detect_stabilization, (path_edge_ideal(), 1, 8.0)),
        (parse_monomial, ("x1", True)),
        (parse_monomial, ("x1", 2.0)),
    ],
)
def test_power_family_arguments_are_integers(fn, args):
    # booleans are integers to Python, and would run as 0 or 1
    with pytest.raises(TypeError):
        fn(*args)


class TestCertificates:
    def test_broken_numeric_greedy_is_caught(self, monkeypatch):
        monkeypatch.setattr(bsdecomp.stabilize, "greedy_decompose", doubled_greedy)
        with pytest.raises(CertificateError, match="greedy"):
            detect_stabilization(TWO_EDGES, 1, 6)

    def test_broken_numeric_greedy_is_caught_under_optimize(self):
        script = textwrap.dedent(
            """
            import bsdecomp.stabilize
            from bsdecomp import CertificateError, detect_stabilization
            from test_stabilize import TWO_EDGES, doubled_greedy

            assert False, "asserts must be disabled in this run"
            bsdecomp.stabilize.greedy_decompose = doubled_greedy
            try:
                detect_stabilization(TWO_EDGES, 1, 6)
            except CertificateError:
                print("CertificateError")
            else:
                print("no error")
            """
        )
        paths = [str(Path(bsdecomp.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "CertificateError"

    @pytest.mark.parametrize(
        "stage, broken, message",
        [
            ("symbolic_chain_decompose", negated_symbolic_expansion, "expansion has an eventually negative coefficient"),
            ("fit_family", doubled_fit, "the fitted family differs from the Betti table at k=1"),
            ("chain_decompose", doubled_chain_expansion, "numeric chain expansion differs from the symbolic one at k=1"),
        ],
        ids=["positive-chain-sign", "replay-fit", "replay-chain"],
    )
    def test_broken_stage_is_caught(self, monkeypatch, stage, broken, message):
        monkeypatch.setattr(bsdecomp.stabilize, stage, broken)
        with pytest.raises(CertificateError, match=message):
            detect_stabilization(TWO_EDGES, 1, 6)

    def test_stray_coefficient_in_a_zero_slot_is_caught(self, path_report, monkeypatch):
        # the positive chain of P5 has 8 elements and 5 greedy terms, so the
        # numeric chain expansion has zero slots the greedy terms do not name
        assert (len(path_report.positive_chain.elements), len(path_report.positive.terms)) == (8, 5)
        monkeypatch.setattr(bsdecomp.stabilize, "chain_decompose", chain_expansion_with_a_stray_one)
        with pytest.raises(CertificateError, match="numeric chain expansion differs from the symbolic one at k=3"):
            detect_stabilization(path_edge_ideal(), 1, 8)

    def test_package_has_no_assert_statements(self):
        # python -O strips assert statements, so every check in the package raises instead
        package = Path(bsdecomp.__file__).resolve().parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)
        ]
        assert found == []


def differs(field):
    """The reader's message for a top-level field that is not what
    ``report_to_json`` writes for the report's fit."""
    return f"{field} is not what stabilize writes for this fit"


def golden_report(name):
    return json.loads((GOLDEN / f"{name}.report.json").read_text(encoding="utf-8"))


def assert_round_trips(report):
    assert report_from_json(report_to_json(report)) == report
    text = report_json_text(report)
    assert report_json_text(report_from_json(json.loads(text))) == text
    assert report.certified_from == report.positive.certified_from
    # the greedy bound also covers the signs of the chain's coefficients
    assert all(sign_threshold(w) < report.certified_from for w, _ in report.positive.terms)


class TestReportJson:
    def test_round_trip(self, path_report):
        goldens = [
            report_from_json(json.loads((GOLDEN / f"{name}.report.json").read_text(encoding="utf-8")))
            for name in ("stabilize-p5", "stabilize-chains")
        ]
        for report in [path_report, *goldens]:
            assert_round_trips(report)

    def test_round_trip_random_ideals(self):
        for ideal in random_equigenerated_ideals():
            assert_round_trips(detect_stabilization(ideal, 1, 7))

    def test_json_text_shape(self, path_report):
        text = report_json_text(path_report)
        assert text.endswith("\n")
        obj = json.loads(text)
        assert obj["r"] == 2
        assert obj["k0_observed"] == 3
        assert obj["certified_from"] == 3
        assert obj["verified_k"] == [3, 4, 5, 6, 7, 8]
        assert obj["fit"]["(0,0)"]["text"] == "1 + 11/6*k + k^2 + 1/6*k^3"
        assert [t["offsets"] for t in obj["positive_decomposition"]["terms"]] == [
            [0, 1, 2, 3], [0, 1, 2], [0, 1, 3], [0, 2], [0],
        ]
        first = obj["positive_decomposition"]["terms"][0]["coefficient_poly"]
        assert set(first) == {"coefficients", "text"}
        assert obj["positive_chain"] == [list(s) for s in POSITIVE_CHAIN_OFFSETS]

    def test_bad_json(self):
        with pytest.raises(ParseError):
            report_from_json("x")
        with pytest.raises(ParseError):
            report_from_json({"ideal": {"variables": 1, "generators": [[1]]}})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("r", 2.5),
            ("certified_from", 3.0),
            ("verified_k", [3, 4.5]),
            ("positive_chain", [[0, 1.5, 2, 3]]),
            ("fit", []),
            ("r", True),
            ("k0_observed", True),
            ("certified_from", False),
            ("verified_k", [True]),
        ],
    )
    def test_rejects_non_integers_and_malformed_fit(self, path_report, key, value):
        obj = report_to_json(path_report)
        obj[key] = value
        # r, k0_observed and fit are parsed; the other fields fail the comparison
        parsed = key in ("r", "k0_observed", "fit")
        with pytest.raises(ParseError, match="bad report JSON" if parsed else re.escape(f"bad report JSON: {differs(key)}")):
            report_from_json(obj)

    @pytest.mark.parametrize("part", ["positive_chain", "offsets"])
    def test_rejects_boolean_degrees(self, path_report, part):
        obj = report_to_json(path_report)
        if part == "positive_chain":
            sequence = obj["positive_chain"][0]
        else:
            sequence = obj["positive_decomposition"]["terms"][0]["offsets"]
        assert sequence[:2] == [0, 1]
        sequence[:2] = [False, True]
        field = "positive_chain" if part == "positive_chain" else "positive_decomposition"
        with pytest.raises(ParseError, match=re.escape(f"bad report JSON: {differs(field)}")):
            report_from_json(obj)

    @pytest.mark.parametrize(
        "key", ["((0,0))", "(0, 0)", " (0,0)", "0,0", "(0,0,0)", "(0;0)", "(+0,0)", "(-0,0)", "(a,0)", "(0,0)\n"]
    )
    def test_rejects_fit_keys_report_to_json_does_not_write(self, path_report, key):
        obj = report_to_json(path_report)
        obj["fit"][key] = obj["fit"].pop("(0,0)")
        # "(-0,0)" names (0,0), but is not the key report_to_json writes for it
        with pytest.raises(ParseError, match=r"bad report JSON: fit\b"):
            report_from_json(obj)

    def test_rejects_a_second_key_for_one_fit_position(self, path_report):
        # "(00,0)" names (0, 0) again, so one of the two entries is lost
        obj = report_to_json(path_report)
        obj["fit"]["(00,0)"] = {"coefficients": ["7"], "text": "7"}
        with pytest.raises(ParseError, match=r"bad report JSON: fit\b"):
            report_from_json(obj)

    @pytest.mark.parametrize("cut", ["ends", "first"])
    def test_rejects_a_chain_that_is_not_maximal(self, cut):
        obj = json.loads((GOLDEN / "stabilize-p5.report.json").read_text(encoding="utf-8"))
        chain = obj["positive_chain"]
        assert len(chain) == 8
        obj["positive_chain"] = [chain[0], chain[-1]] if cut == "ends" else [[0, 1, 2, 3]]
        with pytest.raises(ParseError, match=re.escape(f"bad report JSON: {differs('positive_chain')}")):
            report_from_json(obj)

    @pytest.mark.parametrize("name", ["stabilize-p5", "stabilize-chains"])
    def test_golden_reports_read_back(self, name):
        text = (GOLDEN / f"{name}.report.json").read_text(encoding="utf-8")
        assert report_json_text(report_from_json(json.loads(text))) == text

    @pytest.mark.parametrize(
        "mutation, field",
        [
            pytest.param("offsets", "positive_decomposition", id="offsets-expansion along positive_chain"),
            pytest.param("coefficient", "positive_decomposition", id="coefficient-expansion along positive_chain"),
            pytest.param("sign", "positive_decomposition", id="sign"),
            ("below", "verified_k"),
            ("repeat", "verified_k"),
            pytest.param("gap", "verified_k", id="gap-verified_k must run consecutively from certified_from 3"),
            pytest.param("loose", "certified_from", id="loose-certified_from 5 is not 3, the fit's"),
            pytest.param(
                "second-chain",
                "positive_chain",
                id="second-chain-positive_chain is not the first chain through the fit's greedy terms",
            ),
        ],
    )
    def test_rejects_claims_that_do_not_hold(self, mutation, field):
        obj = json.loads((GOLDEN / "stabilize-p5.report.json").read_text(encoding="utf-8"))
        term = obj["positive_decomposition"]["terms"][2]
        assert term["offsets"] == [0, 1, 3] and term["coefficient_poly"]["coefficients"] == ["0", "6"]
        assert obj["certified_from"] == 3 and obj["verified_k"] == [3, 4, 5, 6, 7, 8]
        if mutation == "offsets":
            term["offsets"] = [0, 1, 4]
        elif mutation == "coefficient":
            term["coefficient_poly"]["coefficients"] = ["0", "7"]
        elif mutation == "sign":
            term["coefficient_poly"]["coefficients"] = ["0", "-6"]
        elif mutation == "below":
            obj["verified_k"] = [2] + obj["verified_k"]
        elif mutation == "repeat":
            obj["verified_k"] = [3, 4, 4, 5]
        elif mutation == "gap":
            obj["verified_k"] = [3, 5, 8]
        elif mutation == "loose":
            obj["certified_from"], obj["verified_k"] = 5, [5, 6, 7, 8]
        else:
            fit = report_from_json(json.loads(json.dumps(obj))).fit
            qualifying = [
                chain
                for chain in enumerate_maximal_chains(fit.offset_window())
                if all(eventually_nonnegative(w) for w, _ in symbolic_chain_decompose(fit, chain).terms)
            ]
            assert len(qualifying) == 2
            obj["positive_chain"] = [list(s.degrees) for s in qualifying[1].elements]
        with pytest.raises(ParseError, match=re.escape(f"bad report JSON: {differs(field)}")):
            report_from_json(obj)

    @pytest.mark.parametrize("mutation", ["negated", "threshold", "late-root"])
    def test_rejects_a_fit_entry_not_positive_from_certified_from(self, mutation):
        message = {
            "negated": "fit entries are not all positive integers at k0_observed 3",
            "threshold": "fit entries are not all positive integers at k0_observed 3",
            "late-root": differs("certified_from"),
        }[mutation]
        obj = golden_report("stabilize-p5")
        assert obj["certified_from"] == 3
        assert obj["fit"]["(0,0)"]["coefficients"] == ["1", "11/6", "1", "1/6"]
        coefficients = {
            "negated": ["-1", "-11/6", "-1", "-1/6"],
            # 1 + 11/6*k - 9*k^2 + 7/6*k^3 is negative from k = 1 to 7
            "threshold": ["1", "11/6", "-9", "7/6"],
            # the entry plus 2*k*(k-3)*(k-9): still 20 at k = 3, negative from 4 to 6
            "late-root": ["1", "335/6", "-23", "13/6"],
        }[mutation]
        obj["fit"]["(0,0)"] = bsdecomp.stabilize._poly_json(PolynomialQ(tuple(map(Fraction, coefficients))))
        # the terms become the changed fit's expansion, so only the fit is wrong
        fit = SymbolicBettiTable(
            obj["r"],
            {
                bsdecomp.stabilize._fit_position(key): PolynomialQ(tuple(map(Fraction, e["coefficients"])))
                for key, e in obj["fit"].items()
            },
            valid_from=obj["k0_observed"],
        )
        chain = Chain.from_sequences(obj["positive_chain"], window=fit.offset_window())
        obj["positive_decomposition"]["terms"] = [
            {"offsets": list(s.degrees), "coefficient_poly": bsdecomp.stabilize._poly_json(w)}
            for w, s in symbolic_chain_decompose(fit, chain).nonzero_terms()
        ]
        with pytest.raises(ParseError, match=re.escape(f"bad report JSON: {message}")):
            report_from_json(obj)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            pytest.param("string", differs("positive_decomposition"), id="string-coefficients '06' are not a list"),
            pytest.param("fit-text", differs("fit"), id="fit-text-text '1 + k' is not '1 + 11/6*k + k^2 + 1/6*k^3'"),
            pytest.param("term-text", differs("positive_decomposition"), id="term-text-text '7*k' is not '6*k'"),
            pytest.param("k0", differs("certified_from"), id="k0"),
            ("k0-zero", "k0_observed 0 is below 1"),
            ("k0-negative", "k0_observed -3 is below 1"),
            ("r", "r 3 is not the degree of every generator"),
            ("mixed", "r 2 is not the degree of every generator"),
            pytest.param("notes-int", differs("notes"), id="notes-int-notes 5 is not a string"),
            pytest.param("notes-null", differs("notes"), id="notes-null-notes None is not a string"),
            ("notes-edited", differs("notes")),
            ("k0-early", "fit entries are not all positive integers at k0_observed 2"),
            ("ideal-strings", differs("ideal")),
            ("ideal-reordered", differs("ideal")),
            ("extra-key", differs("comment")),
            ("integer-coefficient", differs("fit")),
            ("unreduced-fraction", differs("fit")),
        ],
    )
    def test_rejects_what_report_to_json_never_writes(self, mutation, message):
        # each mutation reads back without error unless these checks refuse it
        obj = json.loads((GOLDEN / "stabilize-p5.report.json").read_text(encoding="utf-8"))
        poly = obj["positive_decomposition"]["terms"][2]["coefficient_poly"]
        assert poly == {"coefficients": ["0", "6"], "text": "6*k"}
        if mutation == "string":
            poly["coefficients"] = "06"  # used to be read digit by digit, as 0 + 6k
        elif mutation == "fit-text":
            obj["fit"]["(0,0)"]["text"] = "1 + k"
        elif mutation == "term-text":
            poly["text"] = "7*k"
        elif mutation.startswith("k0"):
            assert obj["certified_from"] == 3 and obj["k0_observed"] == 3
            # P5's supports settle only at k = 3, where the fit's entry (3,3) becomes 1
            obj["k0_observed"] = {"k0": 6, "k0-zero": 0, "k0-negative": -3, "k0-early": 2}[mutation]
        elif mutation == "r":
            assert obj["r"] == 2
            obj["r"] = 3
        elif mutation == "mixed":
            obj["ideal"]["generators"] = [[2, 0, 0, 0, 0], [0, 0, 0, 0, 3]]
        elif mutation.startswith("ideal"):
            # the same ideal, not spelled as report_to_json writes it
            ideal = ideal_from_json(obj["ideal"])
            if mutation == "ideal-strings":
                obj["ideal"]["generators"] = [g.text() for g in ideal.generators]
            else:
                obj["ideal"]["generators"].reverse()
            assert ideal_from_json(obj["ideal"]) == ideal
        elif mutation == "extra-key":
            obj["comment"] = None
        elif mutation == "integer-coefficient":
            obj["fit"]["(0,0)"]["coefficients"][0] = 1
        elif mutation == "unreduced-fraction":
            assert obj["fit"]["(0,0)"]["coefficients"][1] == "11/6"
            obj["fit"]["(0,0)"]["coefficients"][1] = "22/12"
        else:
            obj["notes"] = {"notes-int": 5, "notes-null": None, "notes-edited": obj["notes"] + " "}[mutation]
        with pytest.raises(ParseError, match=re.escape(f"bad report JSON: {message}")):
            report_from_json(obj)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("r", 2.5, "'float' object cannot be interpreted as an integer"),
            ("verified_k", 5, "5 is not a list"),
            ("ideal", {"variables": 5, "generators": [[1]]}, "exponent vector [1] has length 1, expected 5"),
        ],
    )
    def test_parse_errors_name_their_field(self, field, value, message):
        obj = golden_report("stabilize-p5")
        obj[field] = value
        with pytest.raises(ParseError, match=re.escape(f"bad report JSON: {field}: {message}")):
            report_from_json(obj)

    def test_refuses_coefficients_that_are_not_a_list(self, monkeypatch):
        # a string used to be read one character at a time: "12" as 1 + 2k
        obj = golden_report("stabilize-p5")
        obj["fit"]["(0,0)"]["coefficients"] = "12"
        monkeypatch.setattr(bsdecomp.stabilize, "_report", None)
        with pytest.raises(ParseError, match=re.escape("bad report JSON: fit: '12' is not a list")):
            report_from_json(obj)

    @pytest.mark.parametrize("part", ["fit", "term"])
    def test_rejects_float_coefficients(self, path_report, part):
        obj = report_to_json(path_report)
        if part == "fit":
            coefficients = obj["fit"]["(0,0)"]["coefficients"]
        else:
            coefficients = obj["positive_decomposition"]["terms"][0]["coefficient_poly"]["coefficients"]
        coefficients[0] = float(Fraction(coefficients[0]))
        message = "not an exact rational" if part == "fit" else re.escape(differs("positive_decomposition"))
        with pytest.raises(ParseError, match=message):
            report_from_json(obj)

    def test_rejects_each_field_of_another_report(self):
        # every field the two reports do not share is refused in the other
        p5, chains = golden_report("stabilize-p5"), golden_report("stabilize-chains")
        assert list(p5) == list(chains)
        assert [key for key in p5 if p5[key] == chains[key]] == ["notes"]
        for key in p5:
            if p5[key] != chains[key]:
                with pytest.raises(ParseError, match="bad report JSON"):
                    report_from_json({**p5, key: chains[key]})
