"""Exact Boij-Soderberg decompositions for powers of monomial ideals.

The pipeline: compute graded Betti tables of monomial ideals over Q by
multigraded simplicial homology, decompose them into positive chains of pure
diagrams (or expand along any maximal chain of a window), and certify that the
decompositions of a power family I^k settle into polynomials in k.
"""

from .decompose import (
    Chain,
    Decomposition,
    chain_decompose,
    coefficient_column_formula,
    count_maximal_chains,
    cover_successors,
    decomposition_from_json,
    decomposition_to_json,
    enumerate_maximal_chains,
    greedy_decompose,
    reconstruction_mismatch,
    verify,
)
from .errors import (
    CertificateError,
    DegreeSequenceError,
    DomainError,
    NoSolutionError,
    NotDecomposableError,
    NotEquigeneratedError,
    NotStabilizedError,
    ParseError,
    ZeroIdealError,
)
from .linalg import matrix_rank
from .monomial import (
    MAX_VARIABLES,
    Monomial,
    MonomialIdeal,
    betti_table,
    ideal_from_json,
    ideal_to_json,
    is_equigenerated,
    parse_monomial,
    power,
    power_tables,
)
from .polynomials import (
    PolynomialQ,
    cauchy_threshold,
    eventual_min,
    eventually_nonnegative,
    eventually_positive,
    interpolate_consecutive,
    sign_threshold,
)
from .stabilize import (
    StabilizationReport,
    SymbolicBettiTable,
    TranslatedDecomposition,
    detect_stabilization,
    fit_family,
    report_from_json,
    report_json_text,
    report_to_json,
    symbolic_chain_decompose,
    symbolic_greedy_decompose,
)
from .tables import (
    BettiTable,
    DegreeSequence,
    Window,
    hk_functional,
    hk_satisfies,
    parse_btt_text,
    pure_diagram,
    table_from_json,
    table_to_json,
    to_btt_text,
)

__version__ = "0.1.0"
