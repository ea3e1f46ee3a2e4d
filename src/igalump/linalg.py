"""Direct solvers for the structured matrices: banded Cholesky, the
Schur-complement saddle solve for multipatch systems, Woodbury application
of low-rank mass updates, and the dense generalized eigensolver: the
runners' whole spectra come from it, and the test suite uses it as a
reference oracle.
"""

import numpy as np
import scipy.linalg as sla

from .lumping import HierBandedMatrix, _as_csr, _measured_bandwidth

# largest system the dense generalized eigensolver accepts
DENSE_CAP = 4000


class FactorizedOperator:
    """A factorized SPD matrix exposing solve(rhs), the one form of a mass
    solve that lanczos and central_difference take.

    payload holds the banded Cholesky factor, for inspection.
    """

    def __init__(self, n, apply_solve, payload=None):
        self.n = int(n)
        self._apply = apply_solve
        self.payload = payload

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise ValueError('right-hand side has length %d, expected %d'
                             % (rhs.shape[0], self.n))
        return self._apply(rhs)


def _banded_storage(A, bandwidth):
    """Upper banded storage ab[u + i - j, j] = A[i, j] for scipy, in Fortran
    order so that LAPACK factors it in place."""
    A = _as_csr(A).tocoo()
    n = A.shape[0]
    u = int(bandwidth)
    if not np.all(np.isfinite(A.data)):
        raise ValueError('matrix has non-finite entries')
    off = np.abs(A.row - A.col)
    if np.any((off > u) & (A.data != 0.0)):
        raise ValueError('matrix has entries outside the declared band')
    u = min(u, n - 1)
    ab = np.zeros((u + 1, n), order='F')
    keep = A.row <= A.col
    ab[u + A.row[keep] - A.col[keep], A.col[keep]] = A.data[keep]
    return ab


def banded_cholesky(A, bandwidth):
    """Cholesky factorization of a banded SPD matrix.

    The factor inherits the bandwidth, so storage and solve cost stay
    O(bandwidth * n); the factor overwrites the band in place. Raises if A
    is not positive definite, has a non-finite entry or has nonzeros
    outside the declared band.
    """
    ab = _banded_storage(A, bandwidth)
    try:
        cb = sla.cholesky_banded(ab, overwrite_ab=True, lower=False,
                                 check_finite=False)
    except np.linalg.LinAlgError:
        raise ValueError('matrix is not positive definite')
    pbtrs, = sla.get_lapack_funcs(('pbtrs',), (cb,))

    def apply_solve(rhs):
        if rhs.size == 0:   # LAPACK refuses a leading dimension of 0
            return np.zeros_like(rhs)
        x, info = pbtrs(cb, rhs)
        if info != 0:
            raise ValueError('banded solve: LAPACK pbtrs info %d' % info)
        return x

    return FactorizedOperator(ab.shape[1], apply_solve, payload=cb)


def _mass_factor(B):
    """Banded Cholesky factor of the SPD matrix B, at the predicted bandwidth
    of a HierBandedMatrix and at the measured one of any other matrix."""
    if isinstance(B, HierBandedMatrix):
        return banded_cholesky(B, B.scalar_bandwidth())
    return banded_cholesky(B, _measured_bandwidth(B))


def schur_saddle_factor(P, iface):
    """Factor a multipatch lumped matrix through its saddle structure.

    Ordering the dofs as (interior, interface) exposes the block form
    [[D, C], [C^T, X]]. The interior is every dof outside iface, in global
    order: the glue numbers each patch's unshared dofs contiguously in the
    patch's own lexicographic order, so D is block diagonal over patches and
    banded, and it is factored banded once. The Schur complement
    S = X - C^T D^{-1} C is formed explicitly and factored dense.

    Args:
        P: global lumped matrix (csr or HierBandedMatrix).
        iface: interface global ids, as MultipatchTopology.interface_globals()
            returns them.

    solve runs the forward elimination g~ = g - C^T D^{-1} f followed by
    back substitution. Raises on an indefinite Schur complement.
    """
    A = _as_csr(P)
    n = A.shape[0]
    iface = np.asarray(iface, dtype=int)
    idx_int = np.setdiff1d(np.arange(n), iface)
    # a repeated or out-of-range id leaves more than n ids in all
    if len(idx_int) + len(iface) != n:
        raise ValueError('interface ids do not partition the dof set')
    D = _mass_factor(A[np.ix_(idx_int, idx_int)])
    C = A[np.ix_(idx_int, iface)].toarray()
    DinvC = D.solve(C)
    S = A[np.ix_(iface, iface)].toarray() - C.T @ DinvC
    try:
        S_factor = sla.cho_factor(0.5 * (S + S.T))
    except np.linalg.LinAlgError:
        raise ValueError('schur complement is not positive definite')

    def apply_solve(rhs):
        dinv_f = D.solve(rhs[idx_int])
        y = sla.cho_solve(S_factor, rhs[iface] - C.T @ dinv_f)
        out = np.empty_like(rhs)
        out[iface] = y
        out[idx_int] = dinv_f - DinvC @ y
        return out

    return FactorizedOperator(n, apply_solve)


def woodbury_solve(base, U2, gD2, rhs):
    """Apply the inverse of B + (B U2) diag(gD2) (B U2)^T without forming it.

    base is a FactorizedOperator for B and U2 holds B-orthonormal
    eigenvectors, which collapses the capacitance matrix to a diagonal:
    direction j is weighted by g_j / (1 + g_j), so g_j = 0 leaves it
    untouched. The scaled mass is positive definite exactly when every
    1 + g_j > 0; anything else is refused. Cost: one base solve plus O(r n).
    """
    gD2 = np.asarray(gD2, dtype=float)
    if not np.all(1.0 + gD2 > 0.0):
        raise ValueError('scaled mass is singular or indefinite')
    U2 = np.asarray(U2, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    weight = gD2 / (1.0 + gD2)
    coeff = U2.T @ rhs
    coeff *= weight if coeff.ndim == 1 else weight[:, None]
    return base.solve(rhs) - U2 @ coeff


def dense_generalized_eig(A, B):
    """Dense reference solve of A u = lambda B u.

    Reduces to standard form through a Cholesky factorization of B and
    back-transforms, so the returned eigenvectors are B-orthonormal and the
    eigenvalues ascend. Intended as an oracle; refuses n > DENSE_CAP.
    """
    return _dense_eigh(A, B)


def _dense_eigenvalues(A, B):
    """All ascending eigenvalues of A u = lambda B u, without eigenvectors;
    refuses n > DENSE_CAP."""
    return _dense_eigh(A, B, eigvals_only=True)


def _dense_eigh(A, B, **opts):
    """scipy.linalg.eigh(A, B, **opts) below DENSE_CAP, with a failed
    Cholesky of B reported as a ValueError."""
    n = np.shape(A)[0]
    if n > DENSE_CAP:
        raise ValueError('problem of size %d too large for the dense oracle'
                         % n)
    try:
        return sla.eigh(_as_csr(A).toarray(), _as_csr(B).toarray(), **opts)
    except np.linalg.LinAlgError:
        raise ValueError('mass-side matrix is not positive definite')
