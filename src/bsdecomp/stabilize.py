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
    AmbiguousOrMissingChainError,
    CertificateError,
    NoSolutionError,
    NotDecomposableError,
    NotEquigeneratedError,
    NotStabilizedError,
    ParseError,
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

__all__ = [
    "SymbolicBettiTable",
    "TranslatedDecomposition",
    "StabilizationReport",
    "fit_family",
    "eventual_min",
    "symbolic_greedy_decompose",
    "symbolic_chain_decompose",
    "positive_family_chain",
    "detect_stabilization",
    "report_to_json",
    "report_json_text",
    "report_from_json",
]


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

    def entry(self, col: int, offset: int) -> PolynomialQ:
        return self.entries.get((col, offset), PolynomialQ())

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

    def evaluate(self, k: int, keep_zero_terms: bool = False) -> Decomposition:
        """Numeric decomposition at a concrete power.

        Coefficients are evaluated and degree sequences shifted by
        gen_degree*k; terms whose value is zero are dropped unless
        ``keep_zero_terms`` asks for the full chain expansion.
        """
        shift = self.gen_degree * k
        terms = []
        for poly, seq in self.terms:
            value = poly(k)
            if value or keep_zero_terms:
                terms.append((value, seq.shift(shift)))
        return Decomposition(tuple(terms), self.offset_window.shift(shift))


def _shifted_support(table: BettiTable, gen_degree: int, k: int) -> frozenset[tuple[int, int]]:
    """Support of beta(I^k) as (column, degree - gen_degree*k) positions."""
    return frozenset((i, j - gen_degree * k) for i, j in table.support())


def fit_family(
    tables: Mapping[int, BettiTable], gen_degree: int, degree_bound: int
) -> SymbolicBettiTable:
    """Exact polynomial fit of a sampled power family.

    ``tables`` maps consecutive integers k to beta(I^k). All shifted supports
    (column, degree - gen_degree*k) must agree, the sample count must exceed
    the degree bound by at least one held-out point, and every fitted
    polynomial must reproduce all samples exactly and be eventually positive.
    Any violation raises NotStabilized naming the offending (k, column,
    degree).
    """
    ks = sorted(tables)
    if not ks:
        raise ValueError("no sample tables")
    if any(b - a != 1 for a, b in zip(ks, ks[1:])):
        raise ValueError(f"sample powers must be consecutive, got {ks}")
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    if len(ks) < degree_bound + 2:
        raise NotStabilizedError(
            f"{len(ks)} samples cannot certify a degree-{degree_bound} fit; "
            f"need at least {degree_bound + 2}"
        )
    shapes = {k: _shifted_support(tables[k], gen_degree, k) for k in ks}
    base = shapes[ks[0]]
    for k in ks[1:]:
        if shapes[k] != base:
            i, off = min(shapes[k] ^ base)
            raise NotStabilizedError(
                f"support shape changes at k={k} (column {i}, degree {gen_degree * k + off})",
                offender=(k, i, gen_degree * k + off),
            )
    entries = {}
    for i, off in sorted(base):
        samples = [tables[k].entry(i, gen_degree * k + off) for k in ks]
        poly = interpolate_consecutive(ks[0], samples[: degree_bound + 1])
        for k, value in zip(ks, samples):
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
                offender=(ks[0], i, gen_degree * ks[0] + off),
            )
        entries[(i, off)] = poly
    return SymbolicBettiTable(gen_degree, entries, valid_from=ks[0])


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
        if poly.leading_coefficient() < 0:
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


def positive_family_chain(
    table: SymbolicBettiTable, window: Window | None = None
) -> tuple[Chain, int]:
    """The maximal chain of offsets carrying the positive decomposition.

    Positive decompositions along a chain are unique, so the chains whose
    expansion coefficients are all eventually nonnegative are those through
    the symbolic greedy sequences. The first in enumeration order is walked
    to, and its expansion checked against the greedy terms (CertificateError
    on a mismatch). Support outside the window raises NoSolution; a family
    the greedy cannot decompose has no such chain (AmbiguousOrMissingChain).

    Returns the chain and an integer K such that every nonzero coefficient is
    strictly positive for all k > K.
    """
    if window is None:
        window = table.offset_window()
    outside = [pos for pos in table.entries if not window.contains(*pos)]
    if outside:
        i, j = min(outside)
        raise NoSolutionError(f"support at column {i}, degree {j} is outside the chain window")
    try:
        greedy = symbolic_greedy_decompose(table)
    except NotDecomposableError as exc:
        raise AmbiguousOrMissingChainError(
            "no maximal chain of the window has eventually nonnegative coefficients"
        ) from exc
    chain, expansion = _positive_chain(table, greedy, window)
    return chain, max((sign_threshold(w) for w, _ in expansion.nonzero_terms()), default=0)


def _positive_chain(
    table: SymbolicBettiTable, greedy: TranslatedDecomposition, window: Window
) -> tuple[Chain, TranslatedDecomposition]:
    """First chain of the window through the greedy sequences, and the
    family's expansion along it, checked to be the greedy terms padded with
    zeros."""
    chain = _chain_through([s for _, s in greedy.terms], window)
    expansion = symbolic_chain_decompose(table, chain)
    if not all(eventually_nonnegative(w) for w, _ in expansion.terms):
        raise CertificateError("the positive chain's expansion has an eventually negative coefficient")
    if expansion.nonzero_terms() != greedy.terms:
        raise CertificateError("the positive chain's expansion differs from the symbolic greedy terms")
    return chain, expansion


_REPORT_NOTES = (
    "certified_from certifies the decomposition stage: it assumes every table "
    "in the family follows the fitted polynomials from the first fitted power "
    "on. The stabilization point k0 is observed on the sampled range, not "
    "proven for all k."
)


@dataclass(frozen=True)
class StabilizationReport:
    """Everything detect_stabilization established about a power family."""

    ideal: MonomialIdeal
    gen_degree: int
    k0_observed: int
    fit: SymbolicBettiTable
    positive_chain: Chain
    positive: TranslatedDecomposition
    certified_from: int
    verified_k: tuple[int, ...]
    notes: str = _REPORT_NOTES


def _report(
    ideal: MonomialIdeal, fit: SymbolicBettiTable, verified_k: tuple[int, ...] = (), notes: str = _REPORT_NOTES
) -> tuple[StabilizationReport, TranslatedDecomposition]:
    """The report a fit gives, and the fit's expansion along its positive chain.

    ``certified_from`` is the symbolic greedy's, and it also bounds the
    chain's signs: each nonzero chain coefficient is a greedy coefficient
    (``_positive_chain`` checks this), which is a positive multiple of a fit
    entry or of a difference of two candidates at an earlier step. The
    greedy bound takes in the sign threshold of every fit entry and, through
    eventual_min, of every such difference.
    """
    positive = symbolic_greedy_decompose(fit)
    chain, expansion = _positive_chain(fit, positive, fit.offset_window())
    report = StabilizationReport(
        ideal, fit.gen_degree, fit.valid_from, fit, chain, positive, positive.certified_from, verified_k, notes
    )
    return report, expansion


def detect_stabilization(ideal: MonomialIdeal, k_min: int, k_max: int) -> StabilizationReport:
    """Detect, fit, decompose, and certify the power family of an ideal.

    Computes beta(I^k) for k_min..k_max, finds the least k0 from which the
    shifted supports all agree, fits entry polynomials on k0..k_max with one
    held-out sample, runs the symbolic greedy decomposition, locates the
    unique positive chain, and replays every claim numerically at each
    certified k in range. The fit degree is at most l(I) - 1, where the
    analytic spread l(I) is the rank of the generator exponent matrix (at
    least 0, for the unit ideal). A replay that disagrees raises
    CertificateError, which no interpreter flag disables.
    """
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    if k_max < k_min:
        raise ValueError(f"empty power range {k_min}..{k_max}")
    gen_degree = is_equigenerated(ideal)
    if gen_degree is None:
        raise NotEquigeneratedError(
            "stabilization needs an equigenerated ideal; generator degrees are "
            + str(sorted({g.degree for g in ideal.generators}))
        )
    # Kodiyalam (Proc. AMS 1993): beta_i(I^k) is eventually polynomial of degree <= l(I) - 1
    bound = max(matrix_rank(dict(enumerate(g.exponents)) for g in ideal.generators) - 1, 0)
    needed = bound + 2
    if k_max - k_min + 1 < needed:
        raise NotStabilizedError(
            f"range {k_min}..{k_max} has fewer than {needed} samples needed for "
            f"a certified degree-{bound} fit"
        )
    tables = power_tables(ideal, k_min, k_max)
    shapes = {k: _shifted_support(tables[k], gen_degree, k) for k in tables}
    k0 = k_max
    while k0 > k_min and shapes[k0 - 1] == shapes[k_max]:
        k0 -= 1
    if k_max - k0 + 1 < needed:
        i, off = min(shapes[k0 - 1] ^ shapes[k0])
        raise NotStabilizedError(
            f"supports stabilize only from k={k0}, leaving {k_max - k0 + 1} samples; "
            f"need {needed} (raise k_max)",
            offender=(k0 - 1, i, gen_degree * (k0 - 1) + off),
        )
    fit = fit_family({k: tables[k] for k in range(k0, k_max + 1)}, gen_degree, bound)
    report, expansion = _report(ideal, fit)
    verified = []
    # certified_from >= k0 >= k_min, so every replayed table was computed
    for k in range(report.certified_from, k_max + 1):
        table_k = tables[k]
        if not fit.evaluate(k).same_entries(table_k):
            raise CertificateError(f"the fitted family differs from the Betti table at k={k}")
        numeric_greedy = greedy_decompose(table_k)
        if numeric_greedy.terms != report.positive.evaluate(k).terms:
            raise CertificateError(f"numeric greedy decomposition differs from the symbolic one at k={k}")
        numeric_chain = chain_decompose(table_k, report.positive_chain.shift(gen_degree * k))
        if numeric_chain.terms != expansion.evaluate(k, keep_zero_terms=True).terms:
            raise CertificateError(f"numeric chain expansion differs from the symbolic one at k={k}")
        verified.append(k)
    return replace(report, verified_k=tuple(verified))


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
    """The (column, offset) of a fit key, spelled exactly as ``report_to_json``
    writes it, ``"(i,j)"``; one spelling per position, so no two distinct keys
    of one fit dict can name the same entry. A key repeated word for word in
    JSON text is merged by ``json.loads`` before this runs; the CLI's loader
    refuses such repeats."""
    match = re.fullmatch(r"\((-?[0-9]+),(-?[0-9]+)\)", key)
    if match:
        i, j = int(match[1]), int(match[2])
        if key == f"({i},{j})":
            return i, j
    raise ParseError(f"bad report JSON: fit key {key!r} is not of the form '(i,j)'")


def report_from_json(obj) -> StabilizationReport:
    """Rebuild a report from its JSON form by re-deriving its claims from its fit.

    Past the grammar (integers that are not booleans or floats, fit keys
    spelled as ``report_to_json`` writes them, coefficient lists with the
    ``text`` they spell, a maximal chain, string ``notes``), ``r`` must be
    the degree of every generator and ``k0_observed`` at least 1. The
    builder ``detect_stabilization`` uses then rebuilds the report from
    (ideal, fit, verified_k, notes): ``certified_from`` (never a looser
    one), ``positive_chain`` and the terms must be the ones it derives, and
    ``verified_k`` the consecutive run from ``certified_from``.
    """
    if not isinstance(obj, dict):
        raise ParseError("report JSON must be an object")
    # (text as written, polynomial), checked last so that an edited
    # coefficient is reported by the claim it breaks
    texts = []

    def poly_from_json(body) -> PolynomialQ:
        if not isinstance(body["coefficients"], list):
            raise ParseError(f"bad report JSON: coefficients {body['coefficients']!r} are not a list")
        poly = PolynomialQ(tuple(map(_json_rational, body["coefficients"])))
        texts.append((body["text"], poly))
        return poly

    try:
        ideal = ideal_from_json(obj["ideal"])
        gen_degree = _json_int(obj["r"])
        k0 = _json_int(obj["k0_observed"])
        certified = _json_int(obj["certified_from"])
        entries = {_fit_position(key): poly_from_json(body) for key, body in obj["fit"].items()}
        fit = SymbolicBettiTable(gen_degree, entries, valid_from=k0)
        chain = Chain.from_sequences(obj["positive_chain"], window=fit.offset_window())
        terms = tuple(
            (poly_from_json(t["coefficient_poly"]), DegreeSequence(tuple(t["offsets"])))
            for t in obj["positive_decomposition"]["terms"]
        )
        verified = tuple(_json_int(k) for k in obj["verified_k"])
        notes = obj["notes"]
    except ParseError:
        raise
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ParseError(f"bad report JSON: {exc}") from exc
    if not isinstance(notes, str):
        raise ParseError(f"bad report JSON: notes {notes!r} is not a string")
    if is_equigenerated(ideal) != gen_degree:
        raise ParseError(f"bad report JSON: r {gen_degree} is not the degree of every generator")
    if k0 < 1:
        raise ParseError(f"bad report JSON: k0_observed {k0} is below 1")
    try:
        report, _ = _report(ideal, fit, verified, notes)
    except NotDecomposableError as exc:
        raise ParseError(f"bad report JSON: fit: {exc}") from exc
    if certified != report.certified_from:
        raise ParseError(f"bad report JSON: certified_from {certified} is not {report.certified_from}, the fit's")
    if chain != report.positive_chain:
        raise ParseError("bad report JSON: positive_chain is not the first chain through the fit's greedy terms")
    if terms != report.positive.terms:
        raise ParseError("bad report JSON: positive_decomposition is not the fit's expansion along positive_chain")
    if verified != tuple(range(certified, certified + len(verified))):
        raise ParseError(f"bad report JSON: verified_k must run consecutively from certified_from {certified}")
    for text, poly in texts:
        if text != poly.text():
            raise ParseError(f"bad report JSON: text {text!r} is not {poly.text()!r}")
    return report
