"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed textual input: .btt files, ideal JSON, monomial strings, chains."""


class DegreeSequenceError(ValueError):
    """A degree sequence that is not strictly increasing (or is empty)."""


class DomainError(Exception):
    """A mathematically invalid request on otherwise well-formed input."""


class ZeroIdealError(DomainError):
    """The zero ideal has no Betti table; raised by ``betti_table``."""


class NotEquigeneratedError(DomainError):
    """Minimal generators do not all share one total degree."""


class NotDecomposableError(DomainError):
    """Greedy decomposition failed: the input is not the Betti table of a module."""


class NoSolutionError(DomainError):
    """A chain expansion has no solution: the table escapes the chain window."""


class AmbiguousOrMissingChainError(DomainError):
    """No maximal chain of the window carries an eventually nonnegative expansion."""


class NotStabilizedError(Exception):
    """The sampled power family does not settle into a single polynomial shape.

    ``offender`` is ``(k, i, j)`` for the first table position that broke the
    fit or the shape agreement, when one can be named.
    """

    def __init__(self, message: str, offender: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.offender = offender


class CertificateError(Exception):
    """A cross-check the program runs on its own result disagreed.

    Raised by the numeric replay of a stabilization report and by the check
    on the first entry of a Betti table. It points at a defect in the
    program, not at the input, and is a plain exception, never an assert.
    """
