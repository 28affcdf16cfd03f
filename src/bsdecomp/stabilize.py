"""Polynomial-in-k Betti table families for powers of an equigenerated ideal.

Once the shifted supports of beta(I^k) stop changing, every entry follows a
polynomial in k and the whole decomposition machinery lifts: coefficients
become polynomials, degree sequences become offsets against k times the
generator degree, and sign questions become leading-coefficient questions
certified by explicit root bounds.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from typing import Mapping

from .decompose import (
    Chain,
    Decomposition,
    _chain_through,
    _check_chain_order,
    _greedy_peel,
    _peel_along_chain,
    chain_decompose,
    greedy_decompose,
)
from .errors import (
    CertificateError,
    NotDecomposableError,
    NotEquigeneratedError,
    NotStabilizedError,
    ParseError,
    ZeroIdealError,
)
from .linalg import matrix_rank
from .monomial import MonomialIdeal, ideal_from_json, ideal_to_json, is_equigenerated, power_tables
from .polynomials import (
    PolynomialQ,
    eventual_min,
    eventually_nonnegative,
    eventually_positive,
    interpolate_consecutive,
    sign_threshold,
)
from .tables import BettiTable, DegreeSequence, Window, _json_int, _json_rational

@dataclass(frozen=True)
class SymbolicBettiTable:
    """Betti table family beta(I^k): entry polynomials indexed by offsets.

    ``entries`` maps (column i, degree offset j) to a nonzero polynomial in k;
    the table of I^k has beta_{i, gen_degree*k + j}(k) there; a key that is
    not a pair of integers (a float, a boolean) raises TypeError.
    ``valid_from`` is the first k the fit was checked against.
    """

    gen_degree: int
    entries: Mapping[tuple[int, int], PolynomialQ]
    valid_from: int

    def __post_init__(self):
        fixed = {}
        for key, poly in self.entries.items():
            i, j = map(_json_int, key)
            if i < 0:
                raise ValueError(f"negative column {i}")
            if not isinstance(poly, PolynomialQ) or not poly:
                raise ValueError(f"entry at {key} must be a nonzero PolynomialQ")
            fixed[(i, j)] = poly
        if not fixed:
            raise ValueError("a symbolic table needs at least one entry")
        object.__setattr__(self, "entries", fixed)

    def offset_window(self) -> Window:
        return Window.hull(self.entries)

    def evaluate(self, k: int) -> BettiTable:
        """Numeric table at a concrete power: offsets shift by gen_degree*k."""
        shift = self.gen_degree * k
        values = {(i, j + shift): poly(k) for (i, j), poly in self.entries.items()}
        return BettiTable.from_entries(values, self.offset_window().shift(shift))


@dataclass(frozen=True)
class TranslatedDecomposition:
    """Decomposition with polynomial coefficients and offset degree sequences.

    A term (w, d) stands for w(k) * pi(d + gen_degree*k) for every k at or
    beyond ``certified_from``. Terms follow chain order; chain expansions keep
    identically-zero coefficients to preserve the chain, greedy output drops
    them.
    """

    terms: tuple[tuple[PolynomialQ, DegreeSequence], ...]
    gen_degree: int
    certified_from: int
    offset_window: Window

    def __post_init__(self):
        terms = tuple(self.terms)
        _check_chain_order(terms)
        object.__setattr__(self, "terms", terms)

    def nonzero_terms(self) -> tuple[tuple[PolynomialQ, DegreeSequence], ...]:
        return tuple((w, s) for w, s in self.terms if w)

    def evaluate(self, k: int) -> Decomposition:
        """Numeric decomposition at a concrete power, term for term: zero values
        are kept (``.nonzero_terms()`` drops them), sequences shift by gen_degree*k."""
        shift = self.gen_degree * k
        terms = tuple((poly(k), seq.shift(shift)) for poly, seq in self.terms)
        return Decomposition(terms, self.offset_window.shift(shift))


def _shifted_support(table: BettiTable, gen_degree: int, k: int) -> frozenset[tuple[int, int]]:
    """Support of beta(I^k) as (column, degree - gen_degree*k) positions."""
    return frozenset((i, j - gen_degree * k) for i, j in table.support())


def fit_family(
    tables: Mapping[int, BettiTable], gen_degree: int, degree_bound: int
) -> SymbolicBettiTable:
    """Exact polynomial fit of a sampled power family from where it settles.

    ``tables`` maps consecutive integers k to beta(I^k). The fit starts at
    the least sampled k0 from which every shifted support (column,
    degree - gen_degree*k) equals the last one; earlier samples are not
    fitted. From k0 on the sample count must exceed the degree bound by at
    least one held-out point, and every fitted polynomial must reproduce all
    those samples exactly and be eventually positive. Any violation raises
    NotStabilized naming the offending (k, column, degree) where one exists.
    """
    gen_degree, degree_bound = _json_int(gen_degree), _json_int(degree_bound)
    ks = sorted(tables)
    if not ks:
        raise ValueError("no sample tables")
    if any(b - a != 1 for a, b in zip(ks, ks[1:])):
        raise ValueError(f"sample powers must be consecutive, got {ks}")
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    shapes = {k: _shifted_support(tables[k], gen_degree, k) for k in ks}
    k0 = max((k + 1 for k in ks if shapes[k] != shapes[ks[-1]]), default=ks[0])
    fitted = range(k0, ks[-1] + 1)
    if len(fitted) < degree_bound + 2:
        if k0 == ks[0]:
            raise NotStabilizedError(
                f"{len(fitted)} samples cannot certify a degree-{degree_bound} fit; "
                f"need at least {degree_bound + 2}"
            )
        i, off = min(shapes[k0 - 1] ^ shapes[k0])
        raise NotStabilizedError(
            f"supports stabilize only from k={k0}, leaving {len(fitted)} samples; "
            f"need {degree_bound + 2} (raise k_max)",
            offender=(k0 - 1, i, gen_degree * (k0 - 1) + off),
        )
    entries = {}
    for i, off in sorted(shapes[k0]):
        samples = [tables[k].entry(i, gen_degree * k + off) for k in fitted]
        poly = interpolate_consecutive(k0, samples[: degree_bound + 1])
        for k, value in zip(fitted, samples):
            if poly(k) != value:
                raise NotStabilizedError(
                    f"entry at column {i}, offset {off} is not polynomial of degree "
                    f"<= {degree_bound}: misfit at k={k}",
                    offender=(k, i, gen_degree * k + off),
                )
        if not eventually_positive(poly):
            raise NotStabilizedError(
                f"entry at column {i}, offset {off} fits {poly.text()}, "
                "which is not eventually positive",
                offender=(k0, i, gen_degree * k0 + off),
            )
        entries[(i, off)] = poly
    return SymbolicBettiTable(gen_degree, entries, valid_from=k0)


def symbolic_greedy_decompose(table: SymbolicBettiTable) -> TranslatedDecomposition:
    """Greedy decomposition of a whole family at once.

    The numeric greedy peel with polynomial entries: each step takes the
    eventually smallest candidate, and every sign decision contributes a root
    bound. A remainder entry (candidate_i - chosen)/denominator_i is covered
    by that step's eventual_min bound. For k beyond ``certified_from`` the
    evaluation matches the numeric greedy decomposition of beta(I^k).
    """
    bound = 0
    for poly in table.entries.values():
        if not eventually_positive(poly):
            raise NotDecomposableError(
                f"entry {poly.text()} is eventually negative; not a Betti table family"
            )
        bound = max(bound, sign_threshold(poly))

    def least(candidates: list[PolynomialQ]) -> PolynomialQ:
        nonlocal bound
        index, threshold = eventual_min(candidates)
        bound = max(bound, threshold)
        return candidates[index]

    terms = _greedy_peel(dict(table.entries), PolynomialQ(), least)
    # past every root bound the numeric tables share the symbolic support and
    # every min decision, so the numeric greedy runs in lockstep from there
    certified = max(table.valid_from, bound + 1)
    return TranslatedDecomposition(tuple(terms), table.gen_degree, certified, table.offset_window())


def symbolic_chain_decompose(table: SymbolicBettiTable, chain: Chain) -> TranslatedDecomposition:
    """Expansion of a family along a maximal chain of offset sequences.

    The same forward substitution as the numeric chain expansion, run once
    with polynomial entries; the result is certified from the fit's own
    ``valid_from`` because the identity is linear, with no sign decisions
    involved. NoSolution signals family support outside the chain window.
    """
    coefficients = _peel_along_chain(dict(table.entries), chain.elements, PolynomialQ())
    return TranslatedDecomposition(
        tuple(zip(coefficients, chain.elements)), table.gen_degree, table.valid_from, chain.window
    )


@dataclass(frozen=True)
class StabilizationReport:
    """Everything detect_stabilization established about a power family; the
    properties ``gen_degree``, ``k0_observed`` and ``certified_from`` read ``fit`` and ``positive``."""

    ideal: MonomialIdeal
    fit: SymbolicBettiTable
    positive_chain: Chain
    positive: TranslatedDecomposition
    verified_k: tuple[int, ...]

    notes = (
        "certified_from certifies the decomposition stage: it assumes every table "
        "in the family follows the fitted polynomials from the first fitted power "
        "on. The stabilization point k0 is observed on the sampled range, not "
        "proven for all k."
    )
    gen_degree = property(lambda self: self.fit.gen_degree)
    k0_observed = property(lambda self: self.fit.valid_from)
    certified_from = property(lambda self: self.positive.certified_from)


def _report(ideal: MonomialIdeal, fit: SymbolicBettiTable) -> StabilizationReport:
    """The report a fit gives, with no power verified yet: its symbolic
    greedy decomposition and the first chain of the fit's window through it.

    ``certified_from`` is the symbolic greedy's, and it also bounds the
    chain's signs: each nonzero chain coefficient is a greedy coefficient
    (checked below), which is a positive multiple of a fit entry or of a
    difference of two candidates at an earlier step. The greedy bound takes
    in the sign threshold of every fit entry and, through eventual_min, of
    every such difference.
    """
    positive = symbolic_greedy_decompose(fit)
    chain = _chain_through([s for _, s in positive.terms], fit.offset_window())
    expansion = symbolic_chain_decompose(fit, chain)
    if not all(eventually_nonnegative(w) for w, _ in expansion.terms):
        raise CertificateError("the positive chain's expansion has an eventually negative coefficient")
    if expansion.nonzero_terms() != positive.terms:
        raise CertificateError("the positive chain's expansion differs from the symbolic greedy terms")
    return StabilizationReport(ideal, fit, chain, positive, ())


def detect_stabilization(ideal: MonomialIdeal, k_min: int, k_max: int) -> StabilizationReport:
    """Detect, fit, decompose, and certify the power family of an ideal.

    Computes beta(I^k) for k_min..k_max, fits entry polynomials from the
    least k0 at which the shifted supports settle (``fit_family``) with one
    held-out sample, runs the symbolic greedy decomposition, locates the
    unique positive chain, and replays every claim numerically at each
    certified k in range. The fit degree is at most l(I) - 1, where the
    analytic spread l(I) is the rank of the generator exponent matrix (at
    least 0, for the unit ideal). A replay that disagrees raises
    CertificateError, which no interpreter flag disables.
    """
    if _json_int(k_min) < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    if _json_int(k_max) < k_min:
        raise ValueError(f"empty power range {k_min}..{k_max}")
    if not ideal.generators:
        raise ZeroIdealError("the zero ideal has no Betti table")
    gen_degree = is_equigenerated(ideal)
    if gen_degree is None:
        raise NotEquigeneratedError(
            "stabilization needs an equigenerated ideal; generator degrees are "
            + str(sorted({g.degree for g in ideal.generators}))
        )
    # Kodiyalam (Proc. AMS 1993): beta_i(I^k) is eventually polynomial of degree <= l(I) - 1
    bound = max(matrix_rank(dict(enumerate(g.exponents)) for g in ideal.generators) - 1, 0)
    if k_max - k_min + 1 < bound + 2:
        raise NotStabilizedError(
            f"range {k_min}..{k_max} has fewer than {bound + 2} samples needed for "
            f"a certified degree-{bound} fit"
        )
    tables = power_tables(ideal, k_min, k_max)
    fit = fit_family(tables, gen_degree, bound)
    report = _report(ideal, fit)
    # certified_from >= k0 >= k_min, so every replayed table was computed
    report = replace(report, verified_k=tuple(range(report.certified_from, k_max + 1)))
    for k in report.verified_k:
        table_k = tables[k]
        if not fit.evaluate(k).same_entries(table_k):
            raise CertificateError(f"the fitted family differs from the Betti table at k={k}")
        numeric_greedy = greedy_decompose(table_k)
        if numeric_greedy.terms != report.positive.evaluate(k).terms:
            raise CertificateError(f"numeric greedy decomposition differs from the symbolic one at k={k}")
        # along the positive chain the expansion is the greedy terms padded with zeros
        numeric_chain = chain_decompose(table_k, report.positive_chain.shift(gen_degree * k))
        if numeric_chain.nonzero_terms() != numeric_greedy.terms:
            raise CertificateError(f"numeric chain expansion differs from the symbolic one at k={k}")
    return report


def _poly_json(poly: PolynomialQ) -> dict:
    return {"coefficients": [str(c) for c in poly.coefficients], "text": poly.text()}


def report_to_json(report: StabilizationReport) -> dict:
    return {
        "ideal": ideal_to_json(report.ideal),
        "r": report.gen_degree,
        "k0_observed": report.k0_observed,
        "fit": {
            f"({i},{j})": _poly_json(poly)
            for (i, j), poly in sorted(report.fit.entries.items())
        },
        "positive_chain": [list(s.degrees) for s in report.positive_chain.elements],
        "positive_decomposition": {
            "terms": [
                {"offsets": list(s.degrees), "coefficient_poly": _poly_json(w)}
                for w, s in report.positive.terms
            ]
        },
        "certified_from": report.certified_from,
        "verified_k": list(report.verified_k),
        "notes": report.notes,
    }


def report_json_text(report: StabilizationReport) -> str:
    return json.dumps(report_to_json(report), indent=2) + "\n"


def _fit_position(key: str) -> tuple[int, int]:
    """The (column, offset) a fit key ``"(i,j)"`` names."""
    match = re.fullmatch(r"\((-?[0-9]+),(-?[0-9]+)\)", key)
    if not match:
        raise ParseError(f"key {key!r} is not of the form '(i,j)'")
    return int(match[1]), int(match[2])


def _json_list(value) -> list:
    """A list from JSON; raises TypeError for anything else, a string included."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list")
    return value


def _field(obj: dict, name: str, read):
    """``read(obj[name])``; any failure is a ParseError that names the field."""
    if name not in obj:
        raise ParseError(f"bad report JSON: {name} is missing")
    try:
        return read(obj[name])
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ParseError(f"bad report JSON: {name}: {exc}") from exc


def report_from_json(obj) -> StabilizationReport:
    """Read a report back: it must be exactly what ``report_to_json`` writes
    for its fit.

    Only what the rebuild needs is parsed: the ideal, ``r`` (the degree of
    every generator), ``k0_observed`` (at least 1, and a power at which
    every fit entry is a positive integer), the fit's coefficients and the
    length of ``verified_k``, and a parse failure names its field. The
    report is rebuilt from (ideal, fit) as ``detect_stabilization`` builds
    it, with ``verified_k`` that many powers from ``certified_from`` on, and
    each top-level field of its JSON must equal the input's. Fields compare
    as sorted JSON text, so that a boolean or a float never passes for an
    integer; the order of an object's keys does not matter.
    """
    if not isinstance(obj, dict):
        raise ParseError("report JSON must be an object")
    ideal = _field(obj, "ideal", ideal_from_json)
    gen_degree = _field(obj, "r", _json_int)
    k0 = _field(obj, "k0_observed", _json_int)
    fit = _field(obj, "fit", lambda fit: SymbolicBettiTable(gen_degree, {
        _fit_position(key): PolynomialQ(tuple(map(_json_rational, _json_list(body["coefficients"]))))
        for key, body in fit.items()
    }, valid_from=k0))
    verified_count = len(_field(obj, "verified_k", _json_list))
    if is_equigenerated(ideal) != gen_degree:
        raise ParseError(f"bad report JSON: r {gen_degree} is not the degree of every generator")
    if k0 < 1:
        raise ParseError(f"bad report JSON: k0_observed {k0} is below 1")
    # the fit reproduces beta(I^k0), so each entry is a Betti number there
    if not all(w(k0) > 0 and w(k0).denominator == 1 for w in fit.entries.values()):
        raise ParseError(f"bad report JSON: fit entries are not all positive integers at k0_observed {k0}")
    try:
        report = _report(ideal, fit)
    except NotDecomposableError as exc:
        raise ParseError(f"bad report JSON: fit: {exc}") from exc
    first = report.certified_from
    report = replace(report, verified_k=tuple(range(first, first + verified_count)))
    written = report_to_json(report)
    for key in [*written, *(key for key in obj if key not in written)]:
        try:
            same = json.dumps(obj[key], sort_keys=True) == json.dumps(written[key], sort_keys=True)
        except (KeyError, TypeError, ValueError):
            same = False
        if not same:
            raise ParseError(f"bad report JSON: {key} is not what stabilize writes for this fit")
    return report
