"""Gauss-quadrature assembly of mass and stiffness matrices.

Matrices are built over the free (Dirichlet-eliminated) dofs of a tensor
spline space, with entries

    M_ij = int c Bi Bj,    K_ij = int (grad Bi)^T G (grad Bj)

in the parametric domain, where c = rho |det J| and G = |det J| J^-1 J^-T
from the cofactors of J. Quadrature is Gauss-Legendre with p+1 points per
direction per element, from one composite rule builder. A QuadratureGrid
holds the basis values and pullback of one space on one patch for load
vectors and L2 errors. The assembly integrates whole or cut elements in
slices of at most _POINTS quadrature points, its one memory bound, by sum
factorization, K from the d(d+1)/2 distinct terms of the symmetric G. Each
slice adds into the data of the CSR pattern C C^T (C the dof-by-element
incidence) at positions read from a table over its rows and band offsets,
so no whole-mesh stack of local matrices, triplets or keys is held.
"""

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .geometry import _cofactors, _tensor_apply, classify_elements
from .lumping import HierBandedMatrix, _as_csr, _scatter
from .splines import _dense_tables, eval_basis


@dataclass
class AssembledPair:
    """Stiffness and mass over the system dofs, and the mass as pieces.

    pieces lists the tensor pieces (B, to_sys) of M for lump_pieces. A
    single patch is its own one piece, mapped by None, and its K and M
    carry its tensor tag; a glued multipatch pair has one piece per patch
    and a trimmed pair one, its active mass padded with zeros to the free
    background grid, and their K and M are plain CSR.
    """
    K: object
    M: object
    pieces: list


def gauss_rule(npoints):
    x, w = np.polynomial.legendre.leggauss(npoints)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass
class QuadratureGrid:
    """Gauss tables and geometry pullback of one space on one patch.

    Per direction l: points pts[l] and weights wts[l], shape (nel*nq,),
    and basis values vals[l], shape (numdofs, nel*nq). On the tensor grid
    of points: coords, the physical coordinates with shape (d,) + grid, and
    adet = |det J|, shape grid.
    """
    space: object
    pts: list
    wts: list
    vals: list
    coords: np.ndarray
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
    rules = [_element_rule(kv, np.arange(kv.numspans), 1, nquad)
             for kv in space.kvs]
    pts, wts = ([rule[i].ravel() for rule in rules] for i in (0, 1))
    vals = [_dense_tables(kv, x)[1] for kv, x in zip(space.kvs, pts)]
    coords, _, adet = _pullback(patch, pts)
    return QuadratureGrid(space, pts, wts, vals, coords, adet)


def _element_rule(kv, e, nsub, nquad):
    """Composite Gauss rule on the elements e of one direction.

    Each element is split into nsub equal subcells of nq points each, nq
    being nquad or, if None, kv.p + 1. Returns the points and weights,
    shape (len(e), nsub*nq), and the subcell centres, shape (len(e), nsub).
    """
    nq = kv.p + 1 if nquad is None else nquad
    if nq < 1:
        raise ValueError('nquad must be at least 1, got %d' % nq)
    lo, hi = (b[e] for b in kv.span_bounds())
    h = (hi - lo) / nsub
    a = lo[:, None] + np.arange(nsub) * h[:, None]
    xg, wg = gauss_rule(nq)
    x = a[:, :, None] + h[:, None, None] * xg
    w = np.tile(h[:, None] * wg, nsub)
    return x.reshape(len(e), nsub * nq), w, a + 0.5 * h[:, None]


_POINTS = 2 ** 13   # quadrature points per slice of an element batch


def _pullback(patch, pts, kept=True):
    """Coordinates (d,) + grid, J and |det J| of patch on the point grids
    pts; |det J| := 1 where kept is False, as J may be singular there. A
    non-finite det J, which any non-finite entry of J makes, or a singular
    J at a kept point raises."""
    with np.errstate(over='ignore', invalid='ignore'):
        F, J, det = patch.grid_eval(pts)
    if not np.all(np.isfinite(det)):
        raise ValueError('non-finite jacobian on the quadrature grid')
    adet = np.where(kept, np.abs(det), 1.0)
    if np.min(adet, initial=np.inf) < 1e-14:
        raise ValueError('singular jacobian on the quadrature grid')
    return np.moveaxis(F, -1, 0), J, adet


def _coefficients(coords, J, adet, rho):
    """c = rho |detJ| and G = |detJ| (J^T J)^-1 on a pulled-back grid, G
    as C^T C / |detJ| from the cofactors C of J, since J^-1 = C^T / detJ."""
    c = np.asarray(rho(*coords), dtype=float) * adet
    C = _cofactors(J)
    scale = 1.0 / adet
    G = np.empty(J.shape)
    for l, m in itertools.combinations_with_replacement(range(len(C)), 2):
        G[..., l, m] = G[..., m, l] = scale * sum(
            C[k][l] * C[k][m] for k in range(len(C)))
    return c, G


def _element_kernel(vals, ders, c, G):
    """Local mass and stiffness of a batch of E elements.

    vals[l] and ders[l] hold the values and derivatives of the p_l+1
    functions of direction l active on each element, shape (E, p_l+1,
    nq_l). c and G carry the quadrature weights, with shapes (E, nq_1, ...,
    nq_d) and (E, nq_1, ..., nq_d, d, d). K sums the terms l <= m of the
    symmetric G, each (m, l) term as the transpose of the (l, m) one right
    after it, in the order of the full d x d sum. Sums run in pair order,
    permuted to rows and columns once per matrix; the mass reuses the
    stiffness terms' pair tables. Returns M and K of shape (E, nloc,
    nloc), local functions in lexicographic order.
    """
    d = len(vals)
    grads = [vals[:l] + [ders[l]] + vals[l + 1:] for l in range(d)]
    swap = [0] + [a for l in range(d) for a in (2 * l + 2, 2 * l + 1)]
    tables = {}
    K = 0.0
    for l, m in itertools.combinations_with_replacement(range(d), 2):
        T = _paired(G[..., l, m], grads[l], grads[m], tables)
        K += T
        if l != m:   # the transpose swaps the two axes of every pair
            K += T.transpose(swap)
        del T   # before the next term is built
    M = _paired(c, vals, vals, tables)
    tables.clear()  # so each permuting copy holds one matrix extra
    M = _by_rows(M)
    return M, _by_rows(K)


def _paired(w, X, Y, tables):
    """sum_q w[e, q] prod_l X[l][e, a_l, q_l] Y[l][e, b_l, q_l], shape
    (E, a_1, b_1, ..., a_d, b_d), contracting the pair tables X[l] (x) Y[l]
    in turn; tables keeps them by the ids of their factors."""
    for x, y in zip(X, Y):
        if (id(x), id(y)) not in tables:
            tables[id(x), id(y)] = (x[:, :, None] * y[:, None]).reshape(
                len(x), -1, x.shape[2])
    T = _tensor_apply(w, [tables[id(x), id(y)] for x, y in zip(X, Y)])
    return T.reshape([len(T)] + [n for x, y in zip(X, Y)
                                 for n in (x.shape[1], y.shape[1])])


def _by_rows(T):
    """T in pair order (E, a_1, b_1, ..., a_d, b_d) as rows a and columns
    b: a copy of shape (E, prod a, prod b)."""
    rows, cols = list(range(1, T.ndim, 2)), list(range(2, T.ndim, 2))
    return T.transpose([0] + rows + cols).reshape(
        len(T), int(np.prod(T.shape[1::2])), int(np.prod(T.shape[2::2])))


def _element_matrices(space, patch, rho, els, nquad, region=None, nsub=1):
    """Local mass and stiffness of any element set els (E, d), in its order.

    Yields (s, Mloc, Kloc) for consecutive slices s of els of at most
    _POINTS quadrature points (at least one element), Mloc and Kloc of
    shape (len(els[s]), nloc, nloc), so only one slice's local matrices
    are held at once. Each element is integrated on nsub subcells per
    direction of nq_l Gauss points in direction l (default p_l+1); with a
    region, the points of a subcell whose centre lies outside it weigh 0.
    """
    pts, wts, centers, tables = [], [], [], []
    for kv, col in zip(space.kvs, els.T):
        # rules and tables are built once per element index of the
        # direction and gathered by element
        e, at = np.unique(col, return_inverse=True)
        x, w, mid = _element_rule(kv, e, nsub, nquad)
        # subcell points stay inside their element, so the active window
        # is the element's own
        t = eval_basis(kv, x.ravel(), deriv_order=1)[1]
        t = t.reshape((2, kv.p + 1) + x.shape).swapaxes(1, 2)
        tables.append(t[:, at])
        pts.append(x[at])
        wts.append(w[at])
        centers.append(mid[at])
    step = max(1, _POINTS // int(np.prod([x.shape[1] for x in pts])))
    for s in (slice(i, i + step) for i in range(0, len(els), step)):
        vals, ders = ([t[k, s] for t in tables] for k in (0, 1))
        yield (s,) + _element_kernel(vals, ders, *_weighted_pullback(
            patch, rho, region, nsub,
            *([x[s] for x in a] for a in (pts, wts, centers))))


def _weighted_pullback(patch, rho, region, nsub, pts, wts, centers):
    """c and G times the quadrature weights on a batch of element grids.

    Shapes (E, n_1, ..., n_d) and (E, n_1, ..., n_d, d, d); zero on the
    points of a subcell whose centre lies outside the region.
    """
    kept = True
    if region is not None:
        kept = region(*np.moveaxis(patch.map_eval(centers), -1, 0)) > 0
        for l, x in enumerate(pts):
            kept = np.repeat(kept, x.shape[1] // nsub, axis=l + 1)
    w = reduce(np.multiply, [kept] + [
        x.reshape((len(x),) + (1,) * l + (-1,) + (1,) * (len(wts) - 1 - l))
        for l, x in enumerate(wts)])
    c, G = _coefficients(*_pullback(patch, pts, kept), rho)
    return c * w, G * w[..., None, None]


def _element_dofs(space, els):
    """Free dof of each local function of the elements els (E, d), in
    lexicographic order, -1 where the dof is eliminated; shape (E, nloc):
    each element's (p+1)^d window of the dof grid, at its first functions."""
    window = [p + 1 for p in space.degrees]
    wins = np.lib.stride_tricks.sliding_window_view(space.dof_grid(), window)
    at = tuple(kv.find_span(kv.span_bounds()[0])[e] - kv.p
               for kv, e in zip(space.kvs, els.T))
    return wins[at].reshape(len(els), int(np.prod(window)))


def _system_matrices(space, batches):
    """CSR mass and stiffness over the free dofs of space from batches,
    pairs of an element set (E, d) and the (s, Mloc, Kloc) that
    _element_matrices yields for it.

    The pattern C C^T, C the free-dof-by-element incidence of every batch,
    is built once with sorted indices. Each slice adds into its data at
    positions read from a table over its rows r0..r1 and their band
    offsets -bw..bw; np.add.at sums in element order, whatever the slices.
    """
    import scipy.sparse as sp   # loaded with .lumping: no new import
    n = space.num_free
    dofs = [_element_dofs(space, els) for els, _ in batches]
    every = np.concatenate(dofs)
    live = every >= 0
    Ct = sp.csr_matrix((np.ones(live.sum()), every[live], np.concatenate(
        [[0], np.cumsum(live.sum(axis=1))])), shape=(len(every), n))
    M = (Ct.T @ Ct).tocsr()
    M.sort_indices()
    M.data[:] = 0.0
    K = M.copy()
    for d, (_, slices) in zip(dofs, batches):
        for s, Mloc, Kloc in slices:
            ds = d[s].astype(M.indptr.dtype)
            r0 = ds.min(initial=n, where=ds >= 0)
            ptr = M.indptr[r0:ds.max(initial=r0 - 1) + 2]
            row = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
            off = M.indices[ptr[0]:ptr[-1]] - row - r0
            bw = int(np.abs(off).max(initial=0))
            table = np.empty((len(ptr) - 1, 2 * bw + 1), ptr.dtype)
            table[row, off + bw] = np.arange(ptr[0], ptr[-1])
            # (r, c) sits at table[r - r0, c - r + bw], flat 2bw(r-r0)+c-r0+bw
            keep = (ds[:, :, None] >= 0) & (ds[:, None, :] >= 0)
            pos = table.ravel()[(2 * bw * (ds - r0)[:, :, None]
                                 + (ds - r0 + bw)[:, None, :])[keep]]
            np.add.at(M.data, pos, Mloc[keep])
            np.add.at(K.data, pos, Kloc[keep])
            del Mloc, Kloc, table   # before the next slice is built
    return M, K


def assemble_single_patch(space, patch, rho, nquad=None):
    """Mass and stiffness of one patch, canonical element order."""
    els = np.argwhere(np.ones([kv.numspans for kv in space.kvs], bool))
    M, K = (_tagged(space, A) for A in _system_matrices(space, [
        (els, _element_matrices(space, patch, rho, els, nquad))]))
    return AssembledPair(K, M, [(M, None)])


def _tagged(space, A):
    """A tagged with the tensor structure of the free dofs of space."""
    bw = tuple(min(kv.p, n - 1) for kv, n in zip(space.kvs, space.free_dims))
    return HierBandedMatrix(A, space.free_dims, bw)


def assemble_multipatch(topology, patches, rho, nquad=None):
    """Global pair over the glued dof numbering, plus the per-patch pairs.

    The local matrices are retained: patchwise lumping and local stiffness
    scaling both need them.
    """
    local_pairs = [assemble_single_patch(space, patch, rho, nquad)
                   for space, patch in zip(topology.spaces, patches)]
    glued = topology.l2g, topology.n_global
    glob = AssembledPair(_scatter([p.K for p in local_pairs], *glued),
                         _scatter([p.M for p in local_pairs], *glued),
                         list(zip((p.M for p in local_pairs), topology.l2g)))
    return glob, local_pairs


def assemble_trimmed(space, patch, region, rho, subdepth=3, nquad=None):
    """Assemble over the active dofs of a patch trimmed to region.

    classify_elements sorts the elements against the region on a lattice
    of 2^subdepth cells per direction. One element batch integrates the
    inside elements on the standard rule, and one the cut elements on
    2^subdepth subcells per direction each, of which (with the same Gauss
    rule) only those whose centre lies inside the region count. Outside
    elements are dropped; both batches add into one pattern, the inside
    elements first, each batch in canonical element order. The active
    dofs, the free dofs whose mass diagonal exceeds 1e-12 of the largest,
    keep the mass diagonal strictly positive; the others have no retained
    subcell in their support, or meet one only near its corner.

    Raises:
        ValueError: if no element or no subcell is retained, so that the
            system would have no dofs.
    """
    element_class = classify_elements(space, patch, region,
                                      subdepth).element_class
    if not np.any(element_class >= 0):
        raise ValueError('trim region excludes every element '
                         '(n_active = 0)')
    els = np.argwhere(element_class >= 0)
    cut = element_class[tuple(els.T)] == 0
    M, K = _system_matrices(space, [
        (els[sel], _element_matrices(space, patch, rho, els[sel], nquad,
                                     *rule))
        for sel, *rule in ((~cut,), (cut, region, 2 ** subdepth))])
    diag = M.diagonal()
    active = diag > 1e-12 * np.max(diag, initial=0.0)
    n = int(active.sum())
    if not n:
        raise ValueError('trim region retains no quadrature subcell '
                         '(n_active = 0)')
    to_sys = np.where(active, np.cumsum(active) - 1, -1)
    M = _scatter([M], [to_sys], n)
    padded = _scatter([M], [np.flatnonzero(active)], space.num_free)
    return AssembledPair(_scatter([K], [to_sys], n), M,
                         [(_tagged(space, padded), to_sys)])


def load_vector(grid, g):
    """L2 load vector of the scalar field g over the free dofs.

    Entry q is the integral of g against the q-th free basis function on
    the physical patch, with the rule and pullback of the QuadratureGrid.
    """
    density = np.asarray(g(*grid.coords), dtype=float) * grid.adet
    density = density * grid.weights()
    full = _tensor_apply(density[None], [V[None] for V in grid.vals]).ravel()
    return full[grid.space.free_to_full()]


def jacobi_rescale(A, B):
    """Symmetric diagonal rescaling making diag(B) unit.

    Returns (DAD, DBD); generalized eigenvalues are unchanged.
    """
    Ac, Bc = _as_csr(A), _as_csr(B)
    diag = Bc.diagonal()
    if np.any(diag <= 0):
        raise ValueError('nonpositive diagonal entry')
    s = 1.0 / np.sqrt(diag)

    def scaled(C):
        # a copy: C may be the caller's own matrix (_as_csr aliases CSR)
        out = C.copy()
        out.data *= s[np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))]
        out.data *= s[C.indices]
        return out

    return scaled(Ac), scaled(Bc)
