"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """An argument violates a documented precondition."""


class NotPositiveDefinite(Exception):
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


class NumericalFailure(Exception):
    """A LAPACK kernel reported failure on an input that passed its gates.

    Raised only by :func:`gpprec.linalg.spd_inverse` when ``dpotri``
    returns a nonzero ``info`` after a successful Cholesky factorization.
    """


class LocalSingular(Exception):
    """A local window covariance failed the Cholesky pivot gate.

    Carries enough context to report under-sampling: the block index, the
    window size, and the sample count (None in population-covariance mode).
    """

    def __init__(self, block, window_size, n_samples):
        super().__init__(
            f"singular local covariance at block {block} "
            f"(window size {window_size}, N={n_samples})"
        )
        self.block = block
        self.window_size = window_size
        self.n_samples = n_samples


class NoMatching(Exception):
    """No site-perfect matching exists within the given radius.

    ``witness_sites`` and ``witness_nodes`` form a Hall violator: a set of
    sites whose joint lattice neighborhood is strictly smaller than the set
    itself.
    """

    def __init__(self, witness_sites, witness_nodes):
        super().__init__(
            f"no perfect matching: {len(witness_sites)} sites share a "
            f"neighborhood of only {len(witness_nodes)} lattice nodes"
        )
        self.witness_sites = witness_sites
        self.witness_nodes = witness_nodes


class CapacityExceeded(Exception):
    """A requested problem size exceeds the configured cap."""
