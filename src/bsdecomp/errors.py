"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed textual input: .btt files, ideal JSON, monomial strings, chains."""


class DegreeSequenceError(ValueError):
    """A degree sequence that is not strictly increasing (or is empty)."""


class DomainError(Exception):
    """A mathematically invalid request on otherwise well-formed input."""


class ZeroIdealError(DomainError):
    """The zero ideal has no Betti table; raised by ``power_tables`` and ``detect_stabilization``."""


class NotEquigeneratedError(DomainError):
    """Minimal generators do not all share one total degree."""


class NotDecomposableError(DomainError):
    """Greedy decomposition failed: the input is not the Betti table of a module."""


class NoSolutionError(DomainError):
    """A chain expansion has no solution: the table escapes the chain window."""


class NotStabilizedError(Exception):
    """The sampled power family does not settle into a single polynomial shape.

    ``offender`` is ``(k, i, j)`` when a table position can be named: for a
    shape change, a position of the last power whose support differs from
    the stable one; for a misfit, the sample that misfits.
    """

    def __init__(self, message: str, offender: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.offender = offender


class CertificateError(Exception):
    """A cross-check the program runs on its own result disagreed.

    Raised by the two Herzog-Kühl checks of ``monomial.power_tables``
    (identity one: beta_{0,j} counts the minimal generators of degree j;
    identity two: sum (-1)^i j^m beta_{i,j} is 1 at m = 0 and 0 for
    0 < m < height), the chain-length check of
    ``enumerate_maximal_chains``, the positive chain's two checks in
    ``stabilize._report`` and the three checks of the numeric replay in
    ``detect_stabilization``. It points at a defect in the program, not at
    the input, and is a plain exception, never an assert.
    """
