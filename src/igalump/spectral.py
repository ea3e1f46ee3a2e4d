"""Largest eigenpairs of (K, M) pencils and spectral outlier deflation.

The eigensolver is a generalized Lanczos iteration in the inner product of
the SPD mass side: one stiffness apply and one mass solve per step, full
reorthogonalization, thick restart keeping the leading Ritz vectors (the
Krylov-Schur form of Wu and Simon, and of Stewart). Its only array of n x k
or more is the basis V. A Gram-Schmidt pass applies the mass once and
projects with V^T B w; a second runs only when the first cancelled more than
half the B-norm^2 of w (Daniel, Gragg, Kaufman and Stewart, "twice is
enough"). V^T A V is built from the recurrence and Gram-Schmidt
coefficients and the residuals come from the Lanczos relation, so no
stiffness image of the basis is held. A restart rotates V in place by row
blocks; the Ritz vectors return as V shrunk to its leading columns.
Deflation then shaves the top r eigenvalues down to lambda_cut by a rank-r
update of either the stiffness or the mass, leaving eigenvectors and all
other eigenvalues untouched.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.linalg import norm

from .linalg import FactorizedOperator, _mass_factor, woodbury_solve
from .lumping import _as_csr

_ROWS = 256     # rows per block of the in-place Ritz rotation
_CHUNK = 4      # Ritz vectors per mass apply of the residual check


@dataclass
class LanczosResult:
    values: np.ndarray      # Ritz values, descending
    vectors: np.ndarray     # B-orthonormal columns matching values, n x k
    residuals: np.ndarray   # |Au - lam Bu| / (max(|lam|, floor) |Bu|), with
                            # Au - lam Bu from the Lanczos relation
    converged: np.ndarray   # per-pair flags
    n_iter: int             # recurrence steps over all restarts
    n_matvec: int           # stiffness applies (one mass solve each)
    n_restarts: int


def lanczos(A, factor, B, k, m=None, tol=1e-3, max_restarts=200, seed=0):
    """Largest k eigenpairs of A u = lambda B u, B positive definite.

    A and B apply as A @ x (CSR, HierBandedMatrix, ndarray or any object
    with shape and @); factor is B's FactorizedOperator. The basis holds m
    vectors, 2k by default; tol is a relative residual. The start vector is
    drawn with `seed`, so iteration counts are reproducible. Returns a
    LanczosResult; pairs that miss tol within max_restarts are flagged
    unconverged there, not raised.
    """
    k = int(k)
    m = 2 * k if m is None else int(m)
    if not m >= k >= 1:
        raise ValueError('need m >= k >= 1')
    if tol <= 0:
        raise ValueError('tolerance must be positive')
    if not isinstance(factor, FactorizedOperator):
        raise TypeError('mass solve must be a FactorizedOperator')
    rng = np.random.default_rng(seed)
    n = A.shape[0]
    k = min(k, n)
    m = min(max(m, k + 1), n)

    # column-major, so every column and every [:, :cnt] block is contiguous
    V = np.empty((n, m), order='F')
    H = np.zeros((m, m))    # V^T A V: upper triangle, column j from step j
    n_matvec = 0
    b_scale = None  # B-norm^2 of a typical random vector, set on first append
    av = None       # stiffness image of the newest column, set by append

    def append(w, cnt):
        """Column cnt of V from w made B-orthonormal to columns :cnt, and its
        stiffness image av. A pass leaves w B w - h.h of the B-norm^2
        (Pythagoras); if a second pass cancels more than half again, w lies
        in span V (Kahan and Parlett). On breakdown a fresh random vector
        takes the place of w; past column 0 a first pass that leaves the
        B-norm^2 at the breakdown level is not repeated, as a pass never
        raises it. Returns the B-norm of w, or None if w was replaced, and
        the coefficients g of w on columns :cnt summed over its passes."""
        nonlocal b_scale, n_matvec, av
        g = np.zeros(cnt)
        replaced = False
        while True:
            for _ in range(2):
                bw = B @ w
                h = V[:, :cnt].T @ bw
                norm2 = w @ bw - h @ h
                w = w - V[:, :cnt] @ h
                if not replaced:
                    g += h
                if norm2 >= h @ h or cnt and norm2 <= 1e-24 * b_scale:
                    break
            else:
                norm2 = 0.0
            if b_scale is None:
                b_scale = norm2
            if norm2 > 1e-24 * b_scale:
                break
            w = rng.normal(size=n)
            replaced = True
        beta = math.sqrt(norm2)
        V[:, cnt] = w * (1.0 / beta)
        av = A @ V[:, cnt]
        n_matvec += 1
        return None if replaced else beta, g

    w = rng.normal(size=n)  # the start vector; after a restart, B^-1 r
    cnt = restarts = 0
    while True:
        append(w, cnt)
        cnt += 1
        beta = None
        while cnt < m:
            j = cnt - 1
            H[j, j] = alpha = V[:, j] @ av
            w = factor.solve(av) - alpha * V[:, j]
            if beta is not None:
                H[j - 1, j] = beta
                w = w - beta * V[:, j - 1]
            beta, g = append(w, cnt)
            H[:cnt, j] += g
            cnt += 1

        H[:, -1] = V.T @ av
        theta, S = sla.eigh(H, lower=False)
        order = np.argsort(theta)[::-1][:k]
        lam, S = theta[order], S[:, order]
        # Lanczos relation A y_i - theta_i B y_i = S[-1, i] r, before V rotates
        r = av - B @ (V @ H[:, -1])
        # the Ritz vectors overwrite the leading columns of V, one block of
        # rows at a time read whole before written
        for i in range(0, n, _ROWS):
            V[i:i + _ROWS, :k] = V[i:i + _ROWS] @ S
        # near-zero Ritz values are measured against the relative floor
        # split_zero_modes uses, so a kernel mode can converge too
        floor = max(1e-8 * np.max(np.abs(theta)), np.finfo(float).tiny)
        bnorm = np.concatenate([norm(B @ V[:, i:min(k, i + _CHUNK)], axis=0)
                                for i in range(0, k, _CHUNK)])
        res = (norm(r) * np.abs(S[-1])
               / (np.maximum(np.abs(lam), floor) * bnorm))
        conv = res <= tol

        if np.all(conv) or restarts >= max_restarts or cnt >= n:
            # Fortran order: the leading k columns. No view of V outlives
            # the loop; a profiler's bound V.resize is one more reference
            V.resize((n, k), refcheck=False)
            return LanczosResult(lam, V, res, conv, n_matvec - 1, n_matvec,
                                 restarts)

        # thick restart: keep the leading Ritz vectors, continue from B^-1 r
        H = np.diag(np.pad(lam, (0, m - k)))
        w = factor.solve(r)
        cnt = k
        restarts += 1


@dataclass
class ScaledPencil:
    """Pencil (A, B) with its top r eigenvalues deflated to lam_cut.

    U2 holds the B-orthonormal eigenvectors of the deflated eigenvalues
    (ascending) and V = B U2. The scaled pencil is
    (A + V diag(fD2) V^T, B + V diag(gD2) V^T): a stiffness update has
    fD2 = lam_cut - lambda and gD2 = 0, a mass update fD2 = 0 and
    gD2 = lambda/lam_cut - 1. Neither scaled matrix is ever formed: applies
    and solves go through the low-rank terms.
    """
    A: object
    B: object
    U2: np.ndarray
    V: np.ndarray
    lam_cut: float
    fD2: np.ndarray
    gD2: np.ndarray

    def dense_pair(self):
        """Explicit (A_bar, B_bar); oracle use only."""
        A, B = _as_csr(self.A).toarray(), _as_csr(self.B).toarray()
        A += self.V @ np.diag(self.fD2) @ self.V.T
        B += self.V @ np.diag(self.gD2) @ self.V.T
        return A, B


def deflate(A, B, r, mode, eigendata):
    """Build the ScaledPencil truncating the top r eigenvalues of (A, B).

    eigendata supplies the top r+1 eigenpairs as (values descending,
    vectors); the extra pair fixes lam_cut = lambda_{n-r} so eigenvalue
    numbering survives. mode 'scale-stiffness' puts the rank-r update on A,
    'scale-mass' on B; the other diagonal is zero. Rejects ranks beyond n/4
    and eigenvectors that are not B-orthonormal.
    """
    if mode not in ('scale-stiffness', 'scale-mass'):
        raise ValueError('unknown mode %r' % (mode,))
    r = int(r)
    values, vectors = eigendata
    values = np.asarray(values, dtype=float)
    n = A.shape[0]
    if r >= max(n, 1):
        raise ValueError('deflation rank %d exceeds problem size' % r)
    if r > math.ceil(n / 4):
        raise ValueError('deflation rank %d too large for n=%d' % (r, n))
    if len(values) < r + 1:
        raise ValueError('need the top r+1 eigenpairs')
    lam_cut = float(values[r]) if r else float(values[0])
    if mode == 'scale-mass' and lam_cut <= 0:
        raise ValueError('cutoff eigenvalue must be positive')
    U2 = np.asarray(vectors[:, :r][:, ::-1], dtype=float)
    D2 = values[:r][::-1]
    V = np.asarray(B @ U2 if r else np.zeros((n, 0)), dtype=float)
    if np.max(np.abs(U2.T @ V - np.eye(r)), initial=0.0) > 1e-8:
        raise ValueError('eigenvectors are not B-orthonormal')
    zero = np.zeros(r)
    if mode == 'scale-stiffness':
        return ScaledPencil(A, B, U2, V, lam_cut, lam_cut - D2, zero)
    return ScaledPencil(A, B, U2, V, lam_cut, zero, D2 / lam_cut - 1.0)


def scaled_mass_solve(pencil, base, rhs):
    """Solve with the pencil's mass B + V diag(gD2) V^T through the
    Woodbury identity; base factorizes the unscaled mass B. A stiffness
    pencil has gD2 = 0, so its mass solve is base.solve(rhs) itself."""
    return woodbury_solve(base, pencil.U2, pencil.gD2, rhs)


def local_stiffness_scale(K_r, P_r, rank, tol=1e-3, seed=0,
                          max_restarts=200):
    """Deflate one patch pencil by perturbing its stiffness.

    Runs the eigensolver on (K_r, P_r) for the top rank+1 pairs and returns
    the scale-stiffness ScaledPencil, whose perturbation is negative
    semidefinite so the scaled stiffness never exceeds the original in the
    Loewner order. Solver failures surface as the unconverged-data error.
    """
    res = lanczos(K_r, _mass_factor(P_r), P_r, rank + 1, tol=tol,
                  max_restarts=max_restarts, seed=seed)
    if not np.all(res.converged):
        raise ValueError('eigendata contains unconverged pairs')
    return deflate(K_r, P_r, rank, 'scale-stiffness',
                   (res.values, res.vectors))


def critical_timestep(lam_max):
    """Largest stable central-difference step 2/sqrt(lam_max)."""
    if lam_max <= 0:
        raise ValueError('largest eigenvalue must be positive')
    return 2.0 / math.sqrt(lam_max)


def cfl_gain(lam_n, lam_cut):
    """Step-size ratio sqrt(lam_n / lam_cut) won by deflating down to lam_cut."""
    if lam_cut <= 0 or lam_n <= 0:
        raise ValueError('eigenvalues must be positive')
    if lam_n < lam_cut:
        raise ValueError('cutoff exceeds the largest eigenvalue')
    return math.sqrt(lam_n / lam_cut)


def split_zero_modes(values, rel_threshold=1e-8):
    """Separate near-kernel eigenvalues from the physical spectrum.

    Returns (kept ascending, number dropped); the threshold is relative to
    the largest eigenvalue.
    """
    w = np.sort(np.asarray(values, dtype=float))
    if w.size == 0:
        return w, 0
    thr = rel_threshold * w[-1]
    keep = w > thr
    return w[keep], int(np.sum(~keep))

