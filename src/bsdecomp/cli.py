"""Command line interface.

Subcommands: betti, decompose, chains, stabilize, verify. Exit codes: 0 on
success, 2 for usage and parse errors, 3 for mathematical domain errors, 4
when a family does not stabilize, 5 when verification finds a mismatch, 6 when
an internal certificate check fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .decompose import (
    Chain,
    chain_decompose,
    decomposition_from_json,
    decomposition_to_json,
    enumerate_maximal_chains,
    greedy_decompose,
    reconstruction_mismatch,
)
from .errors import CertificateError, DomainError, NotStabilizedError, ParseError
from .monomial import MonomialIdeal, betti_table, ideal_from_json, power
from .stabilize import StabilizationReport, detect_stabilization, report_json_text
from .tables import _INTEGER, BettiTable, Window, _text_rows, parse_btt_text, table_to_json, to_btt_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NOT_STABILIZED = 4
EXIT_VERIFICATION = 5
EXIT_CERTIFICATE = 6


def _integer(text: str) -> int:
    """An argparse type: an integer in the spelling ``.btt`` files use."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _int_at_least(low: int):
    """An argparse type: an integer no less than ``low``."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _read_text(path: str) -> str:
    """The file as UTF-8 text; its callers prefix any ``ParseError`` with the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}") from exc


def _unique_keys(pairs):
    """Object hook for ``json.loads``: a repeated key is an error, not a
    silent replacement of the earlier value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"repeated JSON key {key!r}")
        obj[key] = value
    return obj


def _load_json(path: str):
    try:
        return json.loads(_read_text(path), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except ValueError as exc:  # an integer longer than Python converts from text
        raise ParseError(f"{path}: {exc}") from exc


def load_ideal(path: str) -> MonomialIdeal:
    return ideal_from_json(_load_json(path))


def load_table(path: str) -> BettiTable:
    try:
        return parse_btt_text(_read_text(path))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_chain(path: str) -> Chain:
    """Chain file: a JSON list of degree sequences, bottom to top."""
    raw = _load_json(path)
    if not isinstance(raw, list):
        raise ParseError(f"{path}: chain JSON must be a list of degree sequences")
    try:
        return Chain.from_sequences(raw)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{path}: malformed chain: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def format_pretty(table: BettiTable) -> str:
    """Aligned grid with a degree-offset row gutter, dashes for zeros."""
    rows = [["-" if cell == "0" else cell for cell in row] for row in _text_rows(table)]
    width = max(len(cell) for row in rows for cell in row)
    labels = [str(row) for row in range(table.window.min_row, table.window.max_row + 1)]
    gutter = max(len(label) for label in labels)
    header = " " * (gutter + 2) + " ".join(f"{i:>{width}}" for i in range(len(rows[0])))
    lines = [header, "-" * len(header)]
    for label, cells in zip(labels, rows):
        lines.append(f"{label:>{gutter}}: " + " ".join(f"{cell:>{width}}" for cell in cells))
    return "\n".join(lines) + "\n"


def format_stabilize_summary(report: StabilizationReport) -> str:
    gens = len(report.ideal.generators)
    lines = [
        f"ideal: {gens} minimal generators in {report.ideal.num_vars} variables, "
        f"equigenerated in degree {report.gen_degree}",
        f"shape stabilizes at k0 = {report.k0_observed} (observed)",
        f"fit: {len(report.fit.entries)} entry polynomials in k, valid from k = {report.fit.valid_from}",
        f"positive decomposition: {len(report.positive.terms)} summands, "
        f"certified for k >= {report.certified_from}",
    ]
    for poly, seq in report.positive.terms:
        offsets = ",".join(str(d) for d in seq.degrees)
        lines.append(f"  ({offsets}) x [{poly.text()}]")
    if report.verified_k:
        lines.append(
            f"verified numerically at k = {report.verified_k[0]}..{report.verified_k[-1]}"
        )
    else:
        lines.append("verified numerically at no k in range (certified threshold above k_max)")
    return "\n".join(lines) + "\n"


def cmd_betti(args) -> int:
    ideal = load_ideal(args.ideal)
    table = betti_table(power(ideal, args.power))
    if args.format == "btt":
        _emit(to_btt_text(table), args.out)
    elif args.format == "json":
        _emit(json.dumps(table_to_json(table), indent=2) + "\n", args.out)
    else:
        _emit(format_pretty(table), args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    table = load_table(args.table)
    if args.chain is not None:
        chain = load_chain(args.chain)
        for i, j in table.support():
            if not chain.window.contains(i, j):
                raise ParseError(f"{args.chain}: entry at column {i}, degree {j} is outside the window")
        decomposition = chain_decompose(table, chain)
    else:
        decomposition = greedy_decompose(table)
    _emit(json.dumps(decomposition_to_json(decomposition), indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_chains(args) -> int:
    try:
        window = Window(args.min_row, args.max_row, args.max_col)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if args.count_only:
        count = sum(1 for _ in enumerate_maximal_chains(window))
        print(count)
        return EXIT_OK
    for chain in enumerate_maximal_chains(window):
        print(json.dumps([list(s.degrees) for s in chain.elements], separators=(",", ":")))
    return EXIT_OK


def cmd_stabilize(args) -> int:
    if args.kmax < args.kmin:
        raise ParseError(f"empty power range {args.kmin}..{args.kmax}")
    ideal = load_ideal(args.ideal)
    report = detect_stabilization(ideal, args.kmin, args.kmax)
    summary = format_stabilize_summary(report)
    if args.out is not None:
        _emit(report_json_text(report), args.out)
        sys.stdout.write(summary)
    else:
        sys.stderr.write(summary)
        sys.stdout.write(report_json_text(report))
    return EXIT_OK


def cmd_verify(args) -> int:
    table = load_table(args.table)
    decomposition = decomposition_from_json(_load_json(args.decomposition))
    mismatch = reconstruction_mismatch(decomposition, table)
    if mismatch is None:
        print("ok: decomposition reconstructs the table exactly")
        return EXIT_OK
    (col, degree), got, want = mismatch
    print(
        f"mismatch at column {col}, degree {degree}: "
        f"decomposition gives {got}, table has {want}"
    )
    return EXIT_VERIFICATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then shared by every call in
    the process; callers must not mutate it. ``parse_args`` keeps no state
    between calls, so each call parses as if on a fresh parser."""
    parser = argparse.ArgumentParser(
        prog="bsdecomp",
        description="Exact Betti tables of monomial ideal powers and their "
        "decompositions into pure diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser("betti", help="Betti table of an ideal power")
    p_betti.add_argument("--ideal", required=True, help="ideal JSON file")
    p_betti.add_argument("-k", "--power", type=_int_at_least(1), default=1, help="power exponent (default 1)")
    p_betti.add_argument("--format", choices=("pretty", "btt", "json"), default="pretty")
    p_betti.add_argument("--out", help="write to a file instead of stdout")
    p_betti.set_defaults(func=cmd_betti)

    p_dec = sub.add_parser("decompose", help="decompose a .btt table into pure diagrams")
    p_dec.add_argument("--table", required=True, help=".btt file")
    p_dec.add_argument("--chain", help="JSON chain file; omit for the greedy positive decomposition")
    p_dec.add_argument("--out", help="write to a file instead of stdout")
    p_dec.set_defaults(func=cmd_decompose)

    p_chains = sub.add_parser("chains", help="enumerate maximal chains of a window")
    p_chains.add_argument("min_row", type=_integer, help="least row (degree offset)")
    p_chains.add_argument("max_row", type=_integer, help="greatest row")
    p_chains.add_argument("max_col", type=_int_at_least(0), help="last column")
    p_chains.add_argument("--count-only", action="store_true", help="print only the count")
    p_chains.set_defaults(func=cmd_chains)

    p_stab = sub.add_parser("stabilize", help="fit and certify a power family")
    p_stab.add_argument("--ideal", required=True, help="ideal JSON file")
    p_stab.add_argument("--kmin", type=_int_at_least(1), required=True)
    p_stab.add_argument("--kmax", type=_int_at_least(1), required=True)
    p_stab.add_argument("--out", help="write the JSON report to a file")
    p_stab.set_defaults(func=cmd_stabilize)

    p_verify = sub.add_parser("verify", help="check a decomposition against a table")
    p_verify.add_argument("--table", required=True, help=".btt file")
    p_verify.add_argument("--decomposition", required=True, help="decomposition JSON file")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotStabilizedError as exc:
        print(f"error: not stabilized: {exc}", file=sys.stderr)
        return EXIT_NOT_STABILIZED
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CertificateError as exc:
        print(f"error: certificate check failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE


def console_main() -> None:
    sys.exit(main())
