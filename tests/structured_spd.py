"""Test-data generator shared by the lumping, linalg and spectral tests."""

import numpy as np
import scipy.sparse as sp

from igalump.lumping import HierBandedMatrix


def random_structured_spd(dims, bandwidths, rng, nsamples=None, shift=1e-3,
                          nonneg=False):
    """Random SPD matrix with the structure the lumping theory assumes.

    Sums rank-one tensor-window contributions outer(w, w) with
    w = v_1 x ... x v_d, mimicking element assembly. Nonnegative factors on
    all but the last direction keep every block down the hierarchy positive
    semidefinite while allowing mixed-sign entries; a small diagonal shift
    makes the total positive definite. With nonneg=True the last factor is
    nonnegative too, which full-depth hierarchical lumping needs (at the
    deepest level the blocks are scalars, and a scalar is semidefinite only
    when it is nonnegative).
    """
    dims = tuple(int(n) for n in dims)
    bandwidths = tuple(int(b) for b in bandwidths)
    n = int(np.prod(dims))
    if nsamples is None:
        nsamples = 3 * n
    A = np.zeros((n, n))
    d = len(dims)
    for _ in range(nsamples):
        idx = np.array([0])
        w = np.array([1.0])
        for l in range(d):
            width = min(bandwidths[l] + 1, dims[l])
            t = rng.integers(0, dims[l] - width + 1)
            mixed = l == d - 1 and not nonneg
            v = rng.normal(size=width) if mixed else rng.random(width)
            stride = int(np.prod(dims[l + 1:], dtype=int))
            idx = (idx[:, None] + (t + np.arange(width)) * stride).ravel()
            w = np.outer(w, v).ravel()
        A[np.ix_(idx, idx)] += np.outer(w, w)
    A += shift * np.trace(A) / n * np.eye(n)
    return HierBandedMatrix(sp.csr_matrix(A), dims, bandwidths)
