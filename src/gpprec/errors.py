"""Exception types shared across the package, and its integer, dimension and real-number rules.

Every exception the package raises on purpose is a ``GpprecError``, so
one ``except GpprecError`` catches each refusal and failure.  The command
line prints one that stops a run on stderr and exits 2; one that fails an
estimate row is recorded by class name in the row's ``error`` cell.
``InvalidInput`` is also a ``ValueError``.
"""

import numbers

__all__ = [
    "GpprecError",
    "InvalidInput",
    "NotPositiveDefinite",
    "NumericalFailure",
    "LocalSingular",
    "NoMatching",
    "CapacityExceeded",
]


class GpprecError(Exception):
    """Base of every exception in this module."""


class InvalidInput(GpprecError, ValueError):
    """An argument violates a documented precondition."""


class NotPositiveDefinite(GpprecError):
    """A matrix expected to be SPD failed its Cholesky pivot test.

    Attributes
    ----------
    pivot : int or None
        0-based index of the failing pivot, when known.
    scale : int or None
        Multiscale level at which the failure occurred, when applicable.
    """

    def __init__(self, message="matrix is not positive definite", *, pivot=None, scale=None):
        super().__init__(message)
        self.pivot = pivot
        self.scale = scale


class NumericalFailure(GpprecError):
    """A numerical kernel failed on an input that passed its gates.

    Raised when ``dtrtri`` (:func:`gpprec.linalg.triangular_inverse`) or
    ``dlauum`` (:func:`gpprec.linalg.triangular_gram`) returns a nonzero
    ``info``, and when :func:`gpprec.linalg.spectral_norm` gets an ARPACK
    failure or runs out of Lanczos restarts.
    """


class LocalSingular(GpprecError):
    """A local window covariance failed the Cholesky pivot gate, or would.

    :func:`gpprec.estimator.plan_estimate` raises it without data for a
    window of at least N vertices.  Carries the block index, the window
    size, and the sample count of the band tiles the window was read from
    (None for the tiles of a covariance, which carry no sample count).
    """

    def __init__(self, block, window_size, n_samples):
        super().__init__(
            f"singular local covariance at block {block} "
            f"(window size {window_size}, N={n_samples})"
        )
        self.block = block
        self.window_size = window_size
        self.n_samples = n_samples


class NoMatching(GpprecError):
    """No site-perfect matching exists within the given radius.

    ``witness_sites`` and ``witness_nodes`` form a Hall violator: a set of
    sites with strictly fewer candidate lattice nodes between them than
    sites.
    """

    def __init__(self, witness_sites, witness_nodes):
        super().__init__(
            f"no perfect matching: {len(witness_sites)} sites have only "
            f"{len(witness_nodes)} candidate lattice nodes between them"
        )
        self.witness_sites = witness_sites
        self.witness_nodes = witness_nodes


class CapacityExceeded(GpprecError):
    """A requested problem size exceeds the configured cap."""


def _check_integer(value, name: str, minimum: int = 1, bits: int | None = None):
    """Refuse ``value`` with ``InvalidInput`` unless it is an integer in ``[minimum, 2**bits)``.

    Python and numpy integers pass; bools, floats, strings and ``None`` do
    not.  Without ``bits`` there is no upper bound, and the message asks
    for a positive integer: counts and widths keep ``minimum`` at 1, and
    only seeds, which start at 0, pass ``bits``.
    """
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integer and minimum <= value and (bits is None or int(value) < 1 << bits):
        return
    if bits is None:
        raise InvalidInput(f"{name} must be a positive integer, got {value!r}")
    raise InvalidInput(f"{name} must lie in [{minimum}, 2**{bits}), got {value!r}")


def _check_dimension(d):
    """Refuse with ``InvalidInput`` a dimension ``d`` that is not the integer 1, 2 or 3.

    Python and numpy integers pass; bools, floats and strings do not.
    """
    if not (isinstance(d, numbers.Integral) and not isinstance(d, bool) and 1 <= d <= 3):
        raise InvalidInput(f"d must be a positive integer up to 3, got {d!r}")


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: Python and numpy integers and floats, not bools."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
