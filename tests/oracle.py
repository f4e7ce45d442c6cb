"""Per-window oracle of the blockwise estimator, for the tests.

It takes one covariance and one full inverse per radius-2 window, where
the estimator factors a slice of one shared source and solves only for
the kept columns, and it assembles its blocks entry by entry.
"""

import numpy as np

from gpprec.errors import LocalSingular, NotPositiveDefinite
from gpprec.lattice import neighborhood
from gpprec.linalg import sample_covariance, spd_inverse, symmetrize


def _window(scheme, j):
    return neighborhood(scheme, j, 2)[1]


def _block(inverse, w, scheme, j, jp):
    rows = np.searchsorted(w, scheme.membership[j])
    cols = np.searchsorted(w, scheme.membership[jp])
    return inverse[np.ix_(rows, cols)]


def window_block(sigma, scheme, j, jp):
    """The ``(j, jp)`` block of ``inv(sigma[w, w])``, ``w`` the window of ``j``."""
    w = _window(scheme, j)
    return _block(spd_inverse(symmetrize(sigma[np.ix_(w, w)])), w, scheme, j, jp)


def assemble(local_blocks, scheme):
    """``(raw + raw.T) / 2`` of the blocks ``{(j, jp): B_j x B_jp block}``.

    Entries no block covers are zero.
    """
    m = scheme.shape.size
    raw = np.zeros((m, m))
    for (j, jp), block in local_blocks.items():
        raw[np.ix_(scheme.membership[j], scheme.membership[jp])] = block
    return 0.5 * (raw + raw.T)


def reference_estimate(data, scheme, population=False):
    """Blockwise estimate with one covariance and one full inverse per window.

    Like the estimator, it refuses a window of at least N vertices before
    inverting anything.
    """
    n_samples = None if population else data.shape[0]
    for j in scheme.block_indices():
        w = _window(scheme, j)
        if n_samples is not None and n_samples <= w.size:
            raise LocalSingular(j, int(w.size), n_samples)
    local_blocks = {}
    for j in scheme.block_indices():
        w = _window(scheme, j)
        if population:
            cov = symmetrize(data[np.ix_(w, w)])
        else:
            cov = sample_covariance(data[:, w])
        try:
            inverse = spd_inverse(cov)
        except NotPositiveDefinite as exc:
            raise LocalSingular(j, int(w.size), n_samples) from exc
        for jp in neighborhood(scheme, j, 1)[0]:
            local_blocks[(j, jp)] = _block(inverse, w, scheme, j, jp)
    return assemble(local_blocks, scheme)
