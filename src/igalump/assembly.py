"""Gauss-quadrature assembly of mass and stiffness matrices.

Matrices are built over the free (Dirichlet-eliminated) dofs of a tensor
spline space, with entries

    M_ij = int c Bi Bj,    K_ij = int (grad Bi)^T G (grad Bj)

in the parametric domain, where c and G carry density, diffusivity and the
geometry pullback. Quadrature is Gauss-Legendre with p+1 points per
direction per element, exact for the polynomial case. A QuadratureGrid
holds the basis tables and the pullback of one space on one patch; the
assembly, load vectors and L2 errors all evaluate through it, and it lives
only as long as its caller keeps it.
"""

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .geometry import TrimMask, _tensor_apply
from .lumping import HierBandedMatrix, _as_csr, _csr, _scatter
from .splines import _dense_tables, eval_basis


@dataclass
class AssembledPair:
    """Stiffness and mass over the system dofs, plus the dof bookkeeping.

    full_index maps system dof -> flat index in the space's full tensor
    grid. For trimmed systems, embedding maps system dof -> flat index in
    the free tensor grid of background_dims; both are None when the system
    covers the whole free grid or has no single tensor structure.
    """
    K: HierBandedMatrix
    M: HierBandedMatrix
    space: object = None
    full_index: np.ndarray = None
    embedding: np.ndarray = None
    background_dims: tuple = None


def gauss_rule(npoints):
    x, w = np.polynomial.legendre.leggauss(npoints)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass
class QuadratureGrid:
    """Gauss tables and geometry pullback of one space on one patch.

    Per direction l: points pts[l] and weights wts[l], shape (nel*nq,);
    basis values vals[l] and derivatives ders[l], shape (numdofs, nel*nq);
    firsts[l], the first active dof of each element; nqs[l], the points
    per element. On the tensor grid of points: coords, the physical
    coordinates with shape (d,) + grid; J, shape grid + (d, d); and
    adet = |det J|, shape grid.
    """
    space: object
    pts: list
    wts: list
    vals: list
    ders: list
    firsts: list
    nqs: tuple
    coords: np.ndarray
    J: np.ndarray
    adet: np.ndarray

    def weights(self):
        """Tensor-product quadrature weights, shape grid."""
        return reduce(np.multiply.outer, self.wts)


def quadrature_grid(space, patch, nquad=None):
    """Basis tables and pullback of space on patch, evaluated once.

    nquad overrides the default p+1 Gauss points per direction and
    element, for rational geometries where the default rule is not exact.

    Raises:
        ValueError: if the Jacobian is singular at a quadrature point.
    """
    pts, wts, vals, ders, firsts, nqs = [], [], [], [], [], []
    for kv in space.kvs:
        nq = nquad or (kv.p + 1)
        xg, wg = gauss_rule(nq)
        lo, hi = kv.span_bounds()
        x = (lo[:, None] + (hi - lo)[:, None] * xg[None, :]).ravel()
        w = ((hi - lo)[:, None] * wg[None, :]).ravel()
        first, V, D = _dense_tables(kv, x)
        pts.append(x)
        wts.append(w)
        vals.append(V)
        ders.append(D)
        firsts.append(first[::nq])
        nqs.append(nq)
    coords, J, adet = _pullback(patch, pts)
    return QuadratureGrid(space, pts, wts, vals, ders, firsts, tuple(nqs),
                          coords, J, adet)


def _pullback(patch, pts):
    """Physical coordinates (d,) + grid, J and |detJ| on a tensor grid."""
    F, J, det = patch.grid_eval(pts)
    adet = np.abs(det)
    _require_regular(adet)
    return np.moveaxis(F, -1, 0), J, adet


def _require_regular(adet):
    if np.min(adet, initial=np.inf) < 1e-14:
        raise ValueError('singular jacobian on the quadrature grid')


def _coefficients(coords, J, adet, rho, kappa):
    """c = rho |detJ| and G = kappa |detJ| (J^T J)^-1 on a pulled-back grid."""
    c = np.asarray(rho(*coords), dtype=float) * adet
    Ginv = np.linalg.inv(np.swapaxes(J, -1, -2) @ J)
    kap = np.asarray(kappa(*coords), dtype=float)
    G = kap[..., None, None] * adet[..., None, None] * Ginv
    return c, G


def _kron_rows(factors):
    return reduce(np.kron, factors)


def _tensor_tables(Vs, Ds):
    """Local value and gradient tables from per-direction ones.

    Bv has shape (nloc, nq) with nloc = prod(p+1) local functions; Bg[l]
    carries the parametric derivative in direction l.
    """
    d = len(Vs)
    Bv = _kron_rows(Vs)
    Bg = [_kron_rows([Ds[l] if m == l else Vs[l] for l in range(d)])
          for m in range(d)]
    return Bv, Bg


def _element_matrices(grid, c, G, el):
    """Local mass and stiffness of one whole element, from the grid."""
    d = grid.space.ndim
    sl = tuple(slice(e * nq, (e + 1) * nq) for e, nq in zip(el, grid.nqs))
    Vs, Ds = [], []
    for l in range(d):
        f = grid.firsts[l][el[l]]
        rows = slice(f, f + grid.space.kvs[l].p + 1)
        Vs.append(grid.vals[l][rows, sl[l]])
        Ds.append(grid.ders[l][rows, sl[l]])
    Bv, Bg = _tensor_tables(Vs, Ds)
    wq = _kron_rows([grid.wts[l][sl[l]] for l in range(d)])
    return _local_matrices(Bv, Bg, wq, c[sl].ravel(),
                           G[sl].reshape(-1, d, d), d)


def _element_dofs(grid, el):
    space = grid.space
    idx = np.array([0])
    for l in range(space.ndim):
        f = grid.firsts[l][el[l]]
        stride = int(np.prod(space.dims[l + 1:], dtype=int))
        idx = (idx[:, None]
               + (f + np.arange(space.kvs[l].p + 1)) * stride).ravel()
    return idx


def _local_matrices(Bv, Bg, wq, c, G, d):
    Mloc = (Bv * (wq * c)) @ Bv.T
    Kloc = np.zeros_like(Mloc)
    for l in range(d):
        for m in range(d):
            Kloc += (Bg[l] * (wq * G[..., l, m])) @ Bg[m].T
    return Mloc, Kloc


class _Accumulator:
    """COO triplet accumulator over free dofs, dropping constrained ones."""

    def __init__(self, full_to_free, n):
        self.f2f = full_to_free
        self.n = n
        self.rows, self.cols, self.mv, self.kv = [], [], [], []

    def add(self, dofs, Mloc, Kloc):
        free = self.f2f[dofs]
        keep = free >= 0
        if not np.all(keep):
            Mloc = Mloc[np.ix_(keep, keep)]
            Kloc = Kloc[np.ix_(keep, keep)]
            free = free[keep]
        r = np.repeat(free, len(free))
        self.rows.append(r)
        self.cols.append(np.tile(free, len(free)))
        self.mv.append(Mloc.ravel())
        self.kv.append(Kloc.ravel())

    def matrices(self):
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        M = _csr(rows, cols, np.concatenate(self.mv), self.n)
        K = _csr(rows, cols, np.concatenate(self.kv), self.n)
        return M, K


def _elements(space):
    """Element multi-indices in canonical (lexicographic) order."""
    return itertools.product(*[range(kv.numspans) for kv in space.kvs])


def _finish_pair(space, M, K):
    bw = tuple(min(kv.p, n - 1) for kv, n in zip(space.kvs, space.free_dims))
    return AssembledPair(
        K=HierBandedMatrix(K, space.free_dims, bw),
        M=HierBandedMatrix(M, space.free_dims, bw),
        space=space,
        full_index=space.free_to_full())


def assemble_single_patch(space, patch, rho, kappa, nquad=None):
    """Mass and stiffness of one patch, canonical element order."""
    grid = quadrature_grid(space, patch, nquad)
    c, G = _coefficients(grid.coords, grid.J, grid.adet, rho, kappa)
    acc = _Accumulator(space.full_to_free(), space.num_free)
    for el in _elements(space):
        acc.add(_element_dofs(grid, el), *_element_matrices(grid, c, G, el))
    # the triplet merge sets the peak memory of a large assembly, and
    # needs neither the tables nor the coefficients
    del grid, c, G
    M, K = acc.matrices()
    return _finish_pair(space, M, K)


def assemble_multipatch(topology, patches, rho, kappa, nquad=None):
    """Global pair over the glued dof numbering, plus the per-patch pairs.

    The local matrices are retained: patchwise lumping and local stiffness
    scaling both need them.
    """
    local_pairs = []
    for space, patch in zip(topology.spaces, patches):
        local_pairs.append(
            assemble_single_patch(space, patch, rho, kappa, nquad))

    def scatter(mats):
        return HierBandedMatrix(
            _scatter(mats, topology.l2g, topology.n_global))

    glob = AssembledPair(K=scatter([p.K for p in local_pairs]),
                         M=scatter([p.M for p in local_pairs]))
    return glob, local_pairs


def assemble_trimmed(space, patch, mask, rho, kappa, subdepth=3, nquad=None):
    """Assemble over the active dofs of a trimmed patch.

    Inside elements use the standard rule. Cut elements are subdivided into
    2^subdepth subcells per direction and a subcell is integrated (with the
    same Gauss rule) iff its center lies inside the region. Outside
    elements and inactive dofs are dropped. A dof can pass the element-level
    activity test yet miss every retained subcell; such dofs have an exactly
    zero mass row and are pruned from the system, keeping the mass diagonal
    strictly positive.

    Raises:
        ValueError: if no element or no subcell is retained, so that the
            system would have no dofs.
    """
    if not isinstance(mask, TrimMask):
        raise TypeError('mask must be a TrimMask')
    if not np.any(mask.element_class >= 0):
        raise ValueError('trim region excludes every element '
                         '(n_active = 0)')
    grid = quadrature_grid(space, patch, nquad)
    c, G = _coefficients(grid.coords, grid.J, grid.adet, rho, kappa)

    active_free = np.asarray(mask.active).ravel()[space.free_to_full()]
    embedding = np.flatnonzero(active_free)
    n_sys = len(embedding)
    sys_of_free = np.full(space.num_free, -1, dtype=int)
    sys_of_free[embedding] = np.arange(n_sys)
    f2f = space.full_to_free()
    full_to_sys = np.where(f2f >= 0, sys_of_free[np.maximum(f2f, 0)], -1)

    acc = _Accumulator(full_to_sys, n_sys)
    nsub = 2 ** subdepth
    for el in _elements(space):
        cls = mask.element_class[el]
        if cls < 0:
            continue
        if cls > 0:
            Mloc, Kloc = _element_matrices(grid, c, G, el)
        else:
            Mloc, Kloc = _cut_element(space, patch, mask.region, rho, kappa,
                                      el, nsub, grid.nqs)
        acc.add(_element_dofs(grid, el), Mloc, Kloc)
    del grid, c, G
    M, K = acc.matrices()
    diag = M.diagonal()
    keep = diag > 1e-12 * np.max(diag, initial=0.0)
    if not np.any(keep):
        raise ValueError('trim region retains no quadrature subcell '
                         '(n_active = 0)')
    if not np.all(keep):
        sel = np.flatnonzero(keep)
        M = M[np.ix_(sel, sel)].tocsr()
        K = K[np.ix_(sel, sel)].tocsr()
        embedding = embedding[sel]
    return AssembledPair(
        K=HierBandedMatrix(K), M=HierBandedMatrix(M), space=space,
        full_index=space.free_to_full()[embedding],
        embedding=embedding, background_dims=space.free_dims)


def _cut_element(space, patch, region, rho, kappa, el, nsub, nq):
    """Subcell quadrature of one cut element, center-inside retention.

    The element is split into nsub subcells per direction, and the points
    of all of them form one composite tensor rule of nsub*nq[l] points in
    direction l. A subcell whose center lies outside the region drops out
    with its points, as if its weights were 0.
    """
    d = space.ndim
    pts, wts, centers = [], [], []
    for l, kv in enumerate(space.kvs):
        lo, hi = (b[el[l]] for b in kv.span_bounds())
        h = (hi - lo) / nsub
        a = lo + np.arange(nsub) * h
        xg, wg = gauss_rule(nq[l])
        pts.append((a[:, None] + h * xg).ravel())
        wts.append(np.tile(h * wg, nsub))
        centers.append(a + 0.5 * h)
    F, _, _ = patch.grid_eval(centers)
    kept = region(*np.moveaxis(F, -1, 0)) > 0
    for l in range(d):
        kept = np.repeat(kept, nq[l], axis=l)
    kept = kept.ravel()
    F, J, det = patch.grid_eval(pts)
    adet = np.abs(det).ravel()[kept]
    _require_regular(adet)
    c, G = _coefficients(F.reshape(-1, d)[kept].T,
                         J.reshape(-1, d, d)[kept], adet, rho, kappa)
    # subcell points stay inside the element, so the active window is the
    # element's own
    tables = [eval_basis(kv, x, deriv_order=1)[1]
              for kv, x in zip(space.kvs, pts)]
    Bv, Bg = _tensor_tables([t[0] for t in tables], [t[1] for t in tables])
    wq = _kron_rows(wts)[kept]
    return _local_matrices(Bv[:, kept], [B[:, kept] for B in Bg], wq, c, G,
                           d)


def load_vector(grid, g):
    """L2 load vector of the scalar field g over the free dofs.

    Entry q is the integral of g against the q-th free basis function on
    the physical patch, with the rule and pullback of the QuadratureGrid.
    """
    density = np.asarray(g(*grid.coords), dtype=float) * grid.adet
    density = density * grid.weights()
    full = _tensor_apply(density, grid.vals).ravel()
    return full[grid.space.free_to_full()]


def jacobi_rescale(A, B):
    """Symmetric diagonal rescaling making diag(B) unit.

    Returns (DAD, DBD, d) with d the diagonal scaling vector; generalized
    eigenvalues are unchanged.
    """
    Ac, Bc = _as_csr(A), _as_csr(B)
    diag = Bc.diagonal()
    if np.any(diag <= 0):
        raise ValueError('nonpositive diagonal entry')
    d = 1.0 / np.sqrt(diag)
    D = sp.diags(d)
    return (D @ Ac @ D).tocsr(), (D @ Bc @ D).tocsr(), d
