"""Gauss-quadrature assembly of mass and stiffness matrices.

Matrices are built over the free (Dirichlet-eliminated) dofs of a tensor
spline space, with entries

    M_ij = int c Bi Bj,    K_ij = int (grad Bi)^T G (grad Bj)

in the parametric domain, where c and G carry density, diffusivity and the
geometry pullback. Quadrature is Gauss-Legendre with p+1 points per
direction per element, exact for the polynomial case. All Gauss points
come from one composite rule builder. A QuadratureGrid holds the basis
values and the pullback of one space on one patch for load vectors and L2
errors, and lives only as long as its caller keeps it. The assembly
integrates whole and cut elements through one element routine, a whole
element being one subcell with no region test, and one batched kernel
that contracts per-direction tables one direction at a time (sum
factorization).
"""

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .geometry import _tensor_apply, classify_elements
from .lumping import HierBandedMatrix, _as_csr, _csr, _scatter, _strides
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
    pts, wts, vals = [], [], []
    for kv in space.kvs:
        x, w, _ = _element_rule(kv, np.arange(kv.numspans), 1,
                                nquad or kv.p + 1)
        pts.append(x)
        wts.append(w)
        vals.append(_dense_tables(kv, x)[1])
    F, _, det = patch.grid_eval(pts)
    adet = np.abs(det)
    _require_regular(adet)
    return QuadratureGrid(space, pts, wts, vals, np.moveaxis(F, -1, 0), adet)


def _element_rule(kv, e, nsub, nq):
    """Composite Gauss rule on the elements e of one direction.

    Each element is split into nsub equal subcells of nq points each.
    Returns the points and weights, shape (len(e)*nsub*nq,), and the
    subcell centres, shape (len(e)*nsub,), element by element.
    """
    lo, hi = (b[e] for b in kv.span_bounds())
    h = (hi - lo) / nsub
    a = lo[:, None] + np.arange(nsub) * h[:, None]
    xg, wg = gauss_rule(nq)
    x = (a[:, :, None] + h[:, None, None] * xg).ravel()
    w = np.tile(h[:, None] * wg, nsub).ravel()
    return x, w, (a + 0.5 * h[:, None]).ravel()


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


def _by_element(A, nels, nqs):
    """Tensor-grid array A, shape grid + trailing, as (E, nq_1, ..., nq_d)
    + trailing with the elements in canonical (lexicographic) order."""
    d = len(nqs)
    A = A.reshape([s for pair in zip(nels, nqs) for s in pair]
                  + list(A.shape[d:]))
    order = (list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
             + list(range(2 * d, A.ndim)))
    return A.transpose(order).reshape((-1,) + tuple(nqs) + A.shape[2 * d:])


def _element_kernel(vals, ders, c, G):
    """Local mass and stiffness of a batch of E elements.

    vals[l] and ders[l] hold the values and derivatives of the p_l+1
    functions of direction l active on each element, shape
    (E, p_l+1, nq_l).
    c and G carry the quadrature weights, with shapes (E, nq_1, ..., nq_d)
    and (E, nq_1, ..., nq_d, d, d). Returns M and K of shape
    (E, nloc, nloc), local functions in lexicographic order.
    """
    d = len(vals)
    grads = [[ders[k] if k == l else vals[k] for k in range(d)]
             for l in range(d)]
    K = sum(_sum_factorize(G[..., l, m], grads[l], grads[m])
            for l, m in itertools.product(range(d), repeat=2))
    return _sum_factorize(c, vals, vals), K


def _sum_factorize(c, X, Y):
    """sum_q c[e, q] prod_l X[l][e, a_l, q_l] Y[l][e, b_l, q_l], shaped
    (E, nloc, nloc), contracting one direction at a time."""
    E, d = len(c), len(X)
    T = c
    for Xl, Yl in zip(X, Y):
        # T is (E, q_l, ..., q_d, pairs of the contracted directions)
        (_, a, nq), b = Xl.shape, Yl.shape[1]
        W = (Xl[:, :, None, :] * Yl[:, None, :, :]).reshape(len(Xl), a * b, nq)
        T = T.reshape(E, nq, int(np.prod(T.shape[1:])) // nq)
        T = np.moveaxis(W @ T, 1, -1)
    sizes = [s for Xl, Yl in zip(X, Y) for s in (Xl.shape[1], Yl.shape[1])]
    T = T.reshape([E] + sizes).transpose(
        [0] + list(range(1, 2 * d, 2)) + list(range(2, 2 * d + 1, 2)))
    return T.reshape(E, int(np.prod(sizes[::2])), int(np.prod(sizes[1::2])))


def _element_matrices(space, patch, rho, kappa, els, nquad, region=None,
                      nsub=1):
    """Local mass and stiffness of the elements els (E, d).

    els must hold every combination of its per-direction indices, in
    lexicographic order: the whole mesh or one element line. Each element
    is integrated on nsub subcells per direction of nq_l Gauss points in
    direction l (default p_l+1). With a region, a subcell whose centre lies
    outside it keeps its points at weight 0, and only retained points enter
    c and G: a rejected subcell may have a singular Jacobian.
    """
    d = space.ndim
    idx = [np.unique(col) for col in els.T]
    pts, wts, centers, vals, ders, nqs = [], [], [], [], [], []
    for kv, e, col in zip(space.kvs, idx, els.T):
        nq = nquad or kv.p + 1
        x, w, mid = _element_rule(kv, e, nsub, nq)
        pts.append(x)
        wts.append(w)
        centers.append(mid)
        nqs.append(nq)
        # subcell points stay inside their element, so the active window
        # is the element's own
        t = eval_basis(kv, x, deriv_order=1)[1]
        t = t.reshape(2, kv.p + 1, len(e), -1).swapaxes(1, 2)
        at = np.searchsorted(e, col)
        vals.append(t[0, at])
        ders.append(t[1, at])
    nels = [len(e) for e in idx]
    nps = [nsub * nq for nq in nqs]
    if region is None:
        kept = np.ones((len(els),) + tuple(nps), dtype=bool)
    else:
        F, _, _ = patch.grid_eval(centers)
        kept = _by_element(region(*np.moveaxis(F, -1, 0)) > 0, nels,
                           (nsub,) * d)
        for l, nq in enumerate(nqs):
            kept = np.repeat(kept, nq, axis=l + 1)
    w = _by_element(reduce(np.multiply.outer, wts), nels, nps)[kept]
    F, J, det = patch.grid_eval(pts)
    adet = np.abs(_by_element(det, nels, nps)[kept])
    _require_regular(adet)
    ck, Gk = _coefficients(_by_element(F, nels, nps)[kept].T,
                           _by_element(J, nels, nps)[kept], adet, rho, kappa)
    c = np.zeros(kept.shape)
    c[kept] = ck * w
    G = np.zeros(kept.shape + (d, d))
    G[kept] = Gk * w[:, None, None]
    return _element_kernel(vals, ders, c, G)


def _system_matrices(space, els, Mloc, Kloc, full_to_sys, n):
    """CSR mass and stiffness over n system dofs from local matrices.

    els (E, d) holds the multi-indices of the elements; full_to_sys maps
    full tensor indices to system dofs, -1 dropping a dof. Triplets follow
    the element order, so duplicates sum in that order.
    """
    dofs = np.zeros((len(els), 1), dtype=np.int64)
    for l, (kv, r) in enumerate(zip(space.kvs, _strides(space.dims))):
        first = kv.find_span(kv.span_bounds()[0]) - kv.p
        d1 = (first[els[:, l], None] + np.arange(kv.p + 1)) * r
        dofs = (dofs[:, :, None] + d1[:, None, :]).reshape(len(els), -1)
    # the CSR merge wants 32-bit indices wherever they fit: cast once here,
    # not once per matrix inside the merge, so fewer triplet copies coexist
    dofs = full_to_sys[dofs].astype(np.int32 if n < 2 ** 31 else np.int64)
    keep = (dofs[:, :, None] >= 0) & (dofs[:, None, :] >= 0)
    # with no dof dropped the local matrices enter the merge as flat views,
    # not as copies, and the heap holds no second copy of each
    if np.all(keep):
        keep = Ellipsis
    rows = np.broadcast_to(dofs[:, :, None], Mloc.shape)[keep].ravel()
    cols = np.broadcast_to(dofs[:, None, :], Mloc.shape)[keep].ravel()
    return (_csr(rows, cols, Mloc[keep].ravel(), n),
            _csr(rows, cols, Kloc[keep].ravel(), n))


def _mesh(space):
    """Multi-indices (E, d) of all elements in canonical (lexicographic)
    order."""
    return np.argwhere(np.ones([kv.numspans for kv in space.kvs], bool))


def assemble_single_patch(space, patch, rho, kappa, nquad=None):
    """Mass and stiffness of one patch, canonical element order."""
    els = _mesh(space)
    Mloc, Kloc = _element_matrices(space, patch, rho, kappa, els, nquad)
    M, K = (_tagged(space, A) for A in _system_matrices(
        space, els, Mloc, Kloc, space.full_to_free(), space.num_free))
    return AssembledPair(K, M, [(M, None)])


def _tagged(space, A):
    """A tagged with the tensor structure of the free dofs of space."""
    bw = tuple(min(kv.p, n - 1) for kv, n in zip(space.kvs, space.free_dims))
    return HierBandedMatrix(A, space.free_dims, bw)


def assemble_multipatch(topology, patches, rho, kappa, nquad=None):
    """Global pair over the glued dof numbering, plus the per-patch pairs.

    The local matrices are retained: patchwise lumping and local stiffness
    scaling both need them.
    """
    local_pairs = [assemble_single_patch(space, patch, rho, kappa, nquad)
                   for space, patch in zip(topology.spaces, patches)]
    glued = topology.l2g, topology.n_global
    glob = AssembledPair(_scatter([p.K for p in local_pairs], *glued),
                         _scatter([p.M for p in local_pairs], *glued),
                         list(zip((p.M for p in local_pairs), topology.l2g)))
    return glob, local_pairs


def assemble_trimmed(space, patch, region, rho, kappa, subdepth=3, nquad=None):
    """Assemble over the active dofs of a patch trimmed to region.

    classify_elements sorts the elements against the region on a lattice
    of 2^subdepth cells per direction. Inside elements use the standard
    rule; cut elements are subdivided into 2^subdepth subcells per
    direction and a subcell is integrated (with the same Gauss rule) iff
    its center lies inside the region; outside elements are dropped. The
    active dofs, the free dofs whose mass diagonal exceeds 1e-12 of the
    largest, keep the mass diagonal strictly positive; the others have no
    retained subcell in their support, or meet one only near its corner.

    Raises:
        ValueError: if no element or no subcell is retained, so that the
            system would have no dofs.
    """
    element_class = classify_elements(space, patch, region,
                                      subdepth).element_class
    if not np.any(element_class >= 0):
        raise ValueError('trim region excludes every element '
                         '(n_active = 0)')
    # each element's pair sits at its index among the non-outside elements;
    # inside elements take theirs from the whole mesh
    els = np.argwhere(element_class >= 0)
    Mloc, Kloc = _element_matrices(space, patch, rho, kappa, _mesh(space),
                                   nquad)
    flat = np.ravel_multi_index(tuple(els.T), element_class.shape)
    Mloc, Kloc = Mloc[flat], Kloc[flat]
    # cut elements go in batches of one element line (all indices but the
    # last fixed), which bounds the composite grid held at once
    cut = element_class[tuple(els.T)] == 0
    for lead in np.unique(els[cut, :-1], axis=0):
        line = np.flatnonzero(cut & np.all(els[:, :-1] == lead, axis=1))
        Mloc[line], Kloc[line] = _element_matrices(
            space, patch, rho, kappa, els[line], nquad, region, 2 ** subdepth)
    M, K = _system_matrices(space, els, Mloc, Kloc, space.full_to_free(),
                            space.num_free)
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
    full = _tensor_apply(density, grid.vals).ravel()
    return full[grid.space.free_to_full()]


def jacobi_rescale(A, B):
    """Symmetric diagonal rescaling making diag(B) unit.

    Returns (DAD, DBD); generalized eigenvalues are unchanged.
    """
    Ac, Bc = _as_csr(A), _as_csr(B)
    diag = Bc.diagonal()
    if np.any(diag <= 0):
        raise ValueError('nonpositive diagonal entry')
    D = sp.diags(1.0 / np.sqrt(diag))
    return (D @ Ac @ D).tocsr(), (D @ Bc @ D).tocsr()
