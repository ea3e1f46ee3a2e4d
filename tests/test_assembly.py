"""Assembly against hand integrals, quadrature oracles and structure checks."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse as sp

import igalump.assembly
import igalump.splines
from igalump.assembly import (_by_rows, _paired, assemble_multipatch,
                              assemble_single_patch, assemble_trimmed,
                              jacobi_rescale, load_vector, quadrature_grid)
from igalump.geometry import (MultipatchTopology, Patch, classify_elements,
                              plate_quarter_hole, quarter_annulus, magnet,
                              rotated_square_region, unit_cube, unit_square)
from igalump.dynamics import l2_error
from igalump.splines import KnotVector, SplineSpace, eval_basis, \
    make_open_uniform
from pointwise_map import pullback_coeffs
from test_geometry import active_dofs, loop_active, mirrored

ONE = lambda *xs: 1.0


def interval_patch(a=0.0, b=1.0):
    kv = KnotVector([0.0, 0.0, 1.0, 1.0], 1)
    return Patch(SplineSpace([kv]), np.array([[a], [b]], dtype=float))


def square_space(n, p, k=None, dirichlet=None):
    kv = make_open_uniform(n, p, p - 1 if k is None else k)
    return SplineSpace([kv, kv], dirichlet=dirichlet)


# ------------------------------------------------------------- hand integrals

def test_1d_linear_mass_and_stiffness():
    space = SplineSpace([KnotVector([0.0, 0.0, 1.0, 1.0], 1)])
    pair = assemble_single_patch(space, interval_patch(), ONE)
    np.testing.assert_allclose(pair.M.toarray(),
                               [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)
    np.testing.assert_allclose(pair.K.toarray(),
                               [[1, -1], [-1, 1]], atol=1e-14)


def test_1d_dirichlet_elimination():
    kv = make_open_uniform(2, 1, 0)
    space = SplineSpace([kv], dirichlet=[(True, True)])
    pair = assemble_single_patch(space, interval_patch(), ONE)
    assert pair.M.shape == (1, 1)
    assert pair.M.toarray()[0, 0] == pytest.approx(1 / 3, abs=1e-15)
    assert pair.K.toarray()[0, 0] == pytest.approx(4.0, abs=1e-13)
    assert space.free_to_full().tolist() == [1]


def test_mass_is_kronecker_on_identity_geometry():
    kvx = make_open_uniform(3, 2, 1)
    kvy = make_open_uniform(2, 3, 2)
    space = SplineSpace([kvx, kvy])
    pair = assemble_single_patch(space, unit_square(), ONE)
    mx = assemble_single_patch(SplineSpace([kvx]), interval_patch(), ONE)
    my = assemble_single_patch(SplineSpace([kvy]), interval_patch(), ONE)
    kron = np.kron(mx.M.toarray(), my.M.toarray())
    np.testing.assert_allclose(pair.M.toarray(), kron, atol=1e-13)
    # stiffness splits as K1 x M2 + M1 x K2
    kronK = (np.kron(mx.K.toarray(), my.M.toarray())
             + np.kron(mx.M.toarray(), my.K.toarray()))
    np.testing.assert_allclose(pair.K.toarray(), kronK, atol=1e-12)


def test_total_mass_is_domain_measure_identity():
    # default rule is exact on the polynomial patch
    pair = assemble_single_patch(square_space(4, 2), unit_square(), ONE)
    e = np.ones(pair.M.shape[0])
    assert e @ (pair.M @ e) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize('patch,measure', [
    (quarter_annulus(), 3 * np.pi / 4),
    (plate_quarter_hole(), 16 - np.pi / 4),
    (magnet(), 3 * np.pi / 2 * 0.5),
])
def test_total_mass_is_domain_measure_rational(patch, measure):
    # rational integrand: raise the rule until quadrature error is noise
    kvs = [make_open_uniform(4, 2, 1) for _ in range(patch.ndim)]
    pair = assemble_single_patch(SplineSpace(kvs), patch, ONE, nquad=10)
    e = np.ones(pair.M.shape[0])
    assert e @ (pair.M @ e) == pytest.approx(measure, rel=1e-10)


def test_entry_against_adaptive_quadrature():
    # one mass entry on curved geometry, independently via dblquad
    patch = quarter_annulus()
    kv = make_open_uniform(2, 2, 1)
    space = SplineSpace([kv, kv])
    rho = lambda x, y: 1.0 + x * y
    pair = assemble_single_patch(space, patch, rho, nquad=12)

    def bval(i, x):
        f, table = eval_basis(kv, x)
        return table[0][i - f] if f <= i <= f + kv.p else 0.0

    def integrand(eta, xi):
        c, _ = pullback_coeffs(patch, rho, (xi, eta))
        return c * bval(1, xi) * bval(1, eta) * bval(1, xi) * bval(2, eta)

    want, err = scipy.integrate.dblquad(integrand, 0, 1, 0, 1,
                                        epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-10
    i, j = np.ravel_multi_index(([1, 1], [1, 2]), space.dims)
    assert pair.M.toarray()[i, j] == pytest.approx(want, rel=1e-9)


# ------------------------------------------------------------------ structure

def _structured_blocks_ok(A, dims):
    """S_n+ shape: symmetric at every level, diagonal blocks SPD."""
    if np.linalg.norm(A - A.T) > 1e-13 * max(np.linalg.norm(A), 1e-30):
        return False
    try:
        np.linalg.cholesky(A + 1e-14 * np.trace(A) * np.eye(len(A)))
    except np.linalg.LinAlgError:
        return False
    if len(dims) == 1:
        return True
    r = int(np.prod(dims[1:]))
    for i in range(dims[0]):
        blk = A[i * r:(i + 1) * r, i * r:(i + 1) * r]
        if not _structured_blocks_ok(blk, dims[1:]):
            return False
    return True


@pytest.mark.parametrize('n,p', [(10, 2), (6, 3)])
def test_mass_recursive_block_structure(n, p):
    space = square_space(n, p)
    pair = assemble_single_patch(space, unit_square(), ONE)
    M = pair.M.toarray()
    assert np.all(M >= -1e-16)
    assert _structured_blocks_ok(M, pair.M.dims)


def test_mass_level_bandedness():
    space = square_space(5, 2)
    pair = assemble_single_patch(space, plate_quarter_hole(),
                                 lambda x, y: 1.0 + 0.1 * x * x)
    M = pair.M.mat.tocoo()
    n2 = pair.M.dims[1]
    for r, c, v in zip(M.row, M.col, M.data):
        if v != 0.0:
            assert abs(r // n2 - c // n2) <= 2
            assert abs(r % n2 - c % n2) <= 2
    assert pair.M.measured_bandwidth() <= pair.M.scalar_bandwidth()


def test_mass_and_parametric_mass_share_sparsity():
    space = square_space(4, 2)
    curved = assemble_single_patch(space, quarter_annulus(), ONE)
    flat = assemble_single_patch(space, unit_square(), ONE)
    a = curved.M.mat.copy()
    b = flat.M.mat.copy()
    a.data = (np.abs(a.data) > 1e-14).astype(float)
    b.data = (np.abs(b.data) > 1e-14).astype(float)
    assert (a != b).nnz == 0


def test_symmetry():
    space = square_space(6, 3, dirichlet=[(True, False), (False, True)])
    pair = assemble_single_patch(space, plate_quarter_hole(),
                                 lambda x, y: 1.0 + 0.5 * np.abs(y))
    for A in (pair.M.toarray(), pair.K.toarray()):
        assert np.max(np.abs(A - A.T)) <= 1e-14 * np.max(np.abs(A))


def test_stiffness_spd_with_dirichlet():
    space = square_space(5, 2, dirichlet=[(True, True), (True, True)])
    pair = assemble_single_patch(space, quarter_annulus(), ONE)
    np.linalg.cholesky(pair.K.toarray())
    e = np.ones(pair.K.shape[0])
    # without constraints K annihilates constants; here the boundary rows
    # are gone so Ke is nonzero but K stays PSD-consistent
    w = np.linalg.eigvalsh(pair.K.toarray())
    assert w[0] > 0


def test_stiffness_kernel_without_dirichlet():
    space = square_space(4, 2)
    pair = assemble_single_patch(space, quarter_annulus(), ONE)
    e = np.ones(pair.K.shape[0])
    assert np.max(np.abs(pair.K @ e)) <= 1e-12


# ----------------------------------------------------------------- multipatch

def test_two_interval_patches():
    kv = KnotVector([0.0, 0.0, 1.0, 1.0], 1)
    spaces = [SplineSpace([kv]), SplineSpace([kv])]
    topo = MultipatchTopology(spaces, [(0, (0, 1), 1, (0, 0), ())])
    patches = [interval_patch(0, 1), interval_patch(1, 2)]
    glob, locs = assemble_multipatch(topo, patches, ONE)
    M = glob.M.toarray()
    assert M.shape == (3, 3)
    assert M[1, 1] == pytest.approx(2 / 3, abs=1e-15)
    e = np.ones(3)
    assert e @ (glob.M @ e) == pytest.approx(2.0, abs=1e-13)
    assert len(locs) == 2


def test_single_patch_topology_matches_direct():
    kv = make_open_uniform(3, 2, 1)
    space = SplineSpace([kv, kv])
    topo = MultipatchTopology([space], [])
    glob, locs = assemble_multipatch(topo, [quarter_annulus()], ONE)
    direct = assemble_single_patch(space, quarter_annulus(), ONE)
    np.testing.assert_allclose(glob.M.toarray(), direct.M.toarray(),
                               atol=1e-15)
    np.testing.assert_allclose(glob.K.toarray(), direct.K.toarray(),
                               atol=1e-15)


def test_two_patch_plate_measure_and_symmetry():
    from igalump.geometry import plate_quarter_hole_2patch
    patches, interfaces = plate_quarter_hole_2patch()
    kv = make_open_uniform(4, 2, 1)
    spaces = [SplineSpace([kv, kv]) for _ in patches]
    topo = MultipatchTopology(spaces, interfaces)
    glob, _ = assemble_multipatch(topo, patches, ONE, nquad=10)
    e = np.ones(topo.n_global)
    assert e @ (glob.M @ e) == pytest.approx(16 - np.pi / 4, rel=1e-9)
    A = glob.M.toarray()
    assert np.max(np.abs(A - A.T)) <= 1e-14 * np.max(np.abs(A))


# ------------------------------------------------------------------- trimming

def test_trimmed_all_inside_matches_untrimmed():
    space = square_space(4, 2)
    patch = unit_square()
    trimmed = assemble_trimmed(space, patch, lambda x, y: np.ones_like(x),
                               ONE)
    direct = assemble_single_patch(space, patch, ONE)
    np.testing.assert_allclose(trimmed.M.toarray(), direct.M.toarray(),
                               atol=1e-14)
    np.testing.assert_allclose(trimmed.K.toarray(), direct.K.toarray(),
                               atol=1e-14)
    assert np.array_equal(active_dofs(trimmed), np.arange(space.numdofs))


@pytest.mark.parametrize('p', [1, 2])
def test_half_plane_trim_matches_subrectangle(p):
    n = 4
    space = square_space(n, p)
    patch = unit_square()
    trimmed = assemble_trimmed(space, patch, lambda x, y: 0.5 - x, ONE,
                               subdepth=2)

    # same mesh on [0, 0.5] x [0, 1]
    kvx = make_open_uniform(n // 2, p, p - 1)
    kvy = make_open_uniform(n, p, p - 1)
    sub_space = SplineSpace([kvx, kvy])
    pts = np.array([(0.5 * i, j) for i in (0, 1) for j in (0, 1)], float)
    sub_patch = Patch(unit_square().space, pts)
    sub = assemble_single_patch(sub_space, sub_patch, ONE)

    # dofs whose x-function lives entirely left of the cut are identical
    # in both spaces
    kx = space.kvs[0]
    shared_x = [i for i in range(kx.numdofs) if kx.knots[i + p + 1] <= 0.5]
    assert shared_x == list(range(len(shared_x))) and shared_x
    ny = space.kvs[1].numdofs
    tri_multi = np.stack(np.unravel_index(
        space.free_to_full()[active_dofs(trimmed)], space.dims), 1)
    sel_t = [k for k, (ix, iy) in enumerate(tri_multi) if ix in shared_x]
    sel_s = [ix * ny + iy for ix in shared_x for iy in range(ny)]
    A = trimmed.M.toarray()[np.ix_(sel_t, sel_t)]
    B = sub.M.toarray()[np.ix_(sel_s, sel_s)]
    np.testing.assert_allclose(A, B, atol=1e-13)


def test_trimmed_rotated_square_system():
    space = square_space(8, 2)
    patch = unit_square()
    region = rotated_square_region(center=(0.5, 0.5), angle=0.3,
                                   half_side=0.31)
    mask = classify_elements(space, patch, region)
    pair = assemble_trimmed(space, patch, region, ONE)
    n = pair.M.shape[0]
    active = loop_active(space, mask.element_class)
    assert n == len(active_dofs(pair)) == int(active.sum()) < space.numdofs
    M = pair.M.toarray()
    assert np.max(np.abs(M - M.T)) <= 1e-14 * np.max(np.abs(M))
    # mass of the trimmed region approximates the square's area
    e = np.ones(n)
    area = e @ (pair.M @ e)
    assert area == pytest.approx((2 * 0.31) ** 2, rel=0.02)
    w = np.linalg.eigvalsh(M)
    assert w[0] > 0


def test_trimmed_all_outside_raises():
    space = square_space(4, 2)
    patch = unit_square()
    with pytest.raises(ValueError):
        assemble_trimmed(space, patch, lambda x, y: -np.ones_like(x), ONE)


def test_trimmed_without_retained_subcell_raises():
    # a tiny square centred on an element corner keeps no subcell centre
    space = square_space(4, 2)
    patch = unit_square()
    region = rotated_square_region(center=(0.5, 0.5), half_side=0.001)
    mask = classify_elements(space, patch, region)
    assert np.any(mask.element_class == 0)
    with pytest.raises(ValueError, match='n_active = 0'):
        assemble_trimmed(space, patch, region, ONE)


@pytest.mark.parametrize('build', [
    lambda space, patch, nquad: assemble_single_patch(space, patch, ONE,
                                                      nquad=nquad),
    lambda space, patch, nquad: quadrature_grid(space, patch, nquad=nquad)],
    ids=['assemble_single_patch', 'quadrature_grid'])
@pytest.mark.parametrize('nquad', [0, -1])
def test_rule_without_points_is_refused(build, nquad):
    # a rule without points is refused, not replaced by the default p + 1
    with pytest.raises(ValueError, match='nquad must be at least 1, got %d'
                       % nquad):
        build(square_space(2, 2), unit_square(), nquad)


# n, nnz, trace, Frobenius norm and x^T A x with x_i = cos(1.3 i) of the
# trimmed pair on the p = 2, 20 x 20 mesh at angle 2 pi / 3, recorded when
# each subcell of a cut element was integrated on its own
RECORDED_TRIMMED = {
    'M': (312, 6580, 0.14816262015576165, 0.013467487711319804,
          0.12097410266605926),
    'K': (312, 6580, 215.60098915100116, 15.517898213284246,
          126.72045529441887),
}


def test_trimmed_rotated_square_reproduces_recorded_pair():
    space = square_space(20, 2)
    patch = unit_square()
    region = rotated_square_region(angle=2 * np.pi / 3, half_side=0.35)
    pair = assemble_trimmed(space, patch, region, ONE)
    embedding = active_dofs(pair)
    assert int(embedding.sum()) == 75348
    assert int((embedding ** 2).sum()) == 22073632
    for name, A in (('M', pair.M), ('K', pair.K)):
        n, nnz, trace, frob, quad = RECORDED_TRIMMED[name]
        A = sp.csr_matrix(A)
        x = np.cos(1.3 * np.arange(n))
        assert A.shape == (n, n) and A.nnz == nnz
        np.testing.assert_allclose(
            [A.diagonal().sum(), np.sqrt(np.sum(A.data ** 2)), x @ (A @ x)],
            [trace, frob, quad], rtol=1e-13, atol=0.0, err_msg=name)


def test_singular_jacobian_on_rejected_subcell_is_ignored():
    # x(u) stalls at 0.5 on u in [0.6, 0.7]: no Gauss point of the element
    # rule lands there, but composite points of rejected subcells do
    kvu = KnotVector([0.0, 0.0, 0.6, 0.7, 1.0, 1.0], 1)
    kvv = KnotVector([0.0, 0.0, 1.0, 1.0], 1)
    pts = [(x, y) for x in (0.0, 0.5, 0.5, 1.0) for y in (0.0, 1.0)]
    patch = Patch(SplineSpace([kvu, kvv]), np.array(pts, dtype=float))
    space = square_space(2, 2)
    region = lambda x, y: x - 0.6
    mask = classify_elements(space, patch, region)
    assert mask.element_class[1].tolist() == [0, 0]
    pair = assemble_trimmed(space, patch, region, ONE)
    e = np.ones(pair.M.shape[0])
    # the retained part is x > 0.6 of the unit square
    assert e @ (pair.M @ e) == pytest.approx(0.4, rel=0.05)


# ------------------------------------------------- per-element loop oracle

def _nonseparable(*xs):
    return np.abs(np.sin(np.prod(xs, axis=0))) + np.sum(xs, axis=0) + 1.0


@pytest.mark.parametrize('d', [1, 2, 3])
def test_closed_form_pullback_matches_lapack(d):
    rng = np.random.default_rng(10 + d)
    J = np.eye(d) + 0.3 * rng.normal(size=(6, 5, d, d))
    J[::2, ..., 0] *= -1.0   # det J < 0 on every other row
    det = np.linalg.det(J)
    assert np.any(det < 0) and np.any(det > 0)
    coords = rng.random((d, 6, 5))
    c, G = igalump.assembly._coefficients(coords, J, np.abs(det),
                                          _nonseparable)
    want = (np.abs(det)[..., None, None]
            * np.linalg.inv(np.swapaxes(J, -1, -2) @ J))
    np.testing.assert_allclose(G, want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(c, _nonseparable(*coords) * np.abs(det),
                               rtol=1e-15, atol=0)


@pytest.mark.parametrize('patch', [plate_quarter_hole(),
                                   mirrored(plate_quarter_hole()), magnet()],
                         ids=['plate', 'mirrored-plate', 'magnet'])
def test_coefficients_match_pointwise_pullback(patch):
    rng = np.random.default_rng(4)
    pts = [np.sort(rng.uniform(0.05, 0.95, 3)) for _ in range(patch.ndim)]
    F, J, det = patch.grid_eval(pts)
    c, G = igalump.assembly._coefficients(
        np.moveaxis(F, -1, 0), J, np.abs(det), _nonseparable)
    for idx in np.ndindex(det.shape):
        cq, Gq = pullback_coeffs(patch, _nonseparable,
                                 [x[i] for x, i in zip(pts, idx)])
        assert c[idx] == pytest.approx(cq, rel=1e-12)
        np.testing.assert_allclose(G[idx], Gq, rtol=1e-12,
                                   atol=1e-13 * np.abs(Gq).max())


def test_mirrored_patch_assembles_the_same_pair():
    # a reflection is an isometry: det J changes sign, |det J| and G do not
    space = square_space(4, 2)
    want = assemble_single_patch(space, plate_quarter_hole(), ONE)
    got = assemble_single_patch(space, mirrored(plate_quarter_hole()),
                                ONE)
    for A, B in ((got.M, want.M), (got.K, want.K)):
        np.testing.assert_allclose(A.toarray(), B.toarray(), rtol=0,
                                   atol=1e-13 * abs(B.mat).max())


def _kron_tables(Vs, Ds):
    Bv = functools.reduce(np.kron, Vs)
    Bg = [functools.reduce(np.kron, [Ds[l] if m == l else Vs[l]
                                     for l in range(len(Vs))])
          for m in range(len(Vs))]
    return Bv, Bg


def _loop_local(Bv, Bg, wq, c, G):
    Mloc = (Bv * (wq * c)) @ Bv.T
    Kloc = np.zeros_like(Mloc)
    for l, m in itertools.product(range(len(Bg)), repeat=2):
        Kloc += (Bg[l] * (wq * G[..., l, m])) @ Bg[m].T
    return Mloc, Kloc


def loop_cut_element(space, patch, region, rho, el, nsub, nqs):
    """Local pair of one element on its own composite subcell rule, and the
    first active function of each direction. With region None every
    subcell is kept, so nsub = 1 gives the whole-element rule."""
    d = space.ndim
    pts, wts, centers = [], [], []
    for l, kv in enumerate(space.kvs):
        lo, hi = (b[el[l]] for b in kv.span_bounds())
        h = (hi - lo) / nsub
        a = lo + np.arange(nsub) * h
        xg, wg = igalump.assembly.gauss_rule(nqs[l])
        pts.append((a[:, None] + h * xg).ravel())
        wts.append(np.tile(h * wg, nsub))
        centers.append(a + 0.5 * h)
    if region is None:
        kept = np.ones((nsub,) * d, dtype=bool)
    else:
        F, _, _ = patch.grid_eval(centers)
        kept = region(*np.moveaxis(F, -1, 0)) > 0
    for l in range(d):
        kept = np.repeat(kept, nqs[l], axis=l)
    coords, J, adet = igalump.assembly._pullback(patch, pts, kept)
    kept = kept.ravel()
    c, G = igalump.assembly._coefficients(
        coords.reshape(d, -1)[:, kept], J.reshape(-1, d, d)[kept],
        adet.ravel()[kept], rho)
    tables = [eval_basis(kv, x, deriv_order=1)
              for kv, x in zip(space.kvs, pts)]
    # every point lies inside the element, so each has its first function
    firsts = [int(first[0]) for first, _ in tables]
    Bv, Bg = _kron_tables([t[0] for _, t in tables],
                          [t[1] for _, t in tables])
    wq = functools.reduce(np.kron, wts)[kept]
    Mloc, Kloc = _loop_local(Bv[:, kept], [B[:, kept] for B in Bg], wq, c, G)
    return Mloc, Kloc, firsts


def loop_assemble(space, patch, rho, nquad=None, mask=None, subdepth=3):
    """CSR mass and stiffness by one local pair per element, in canonical
    element order: over the free dofs, or with mask over the free dofs
    whose support holds a non-outside element (loop_active) with the
    empty-mass rows pruned, as assemble_trimmed does."""
    d = space.ndim
    nqs = [nquad or kv.p + 1 for kv in space.kvs]
    f2f = space.dof_grid().ravel()
    live = np.ones(space.num_free, dtype=bool)
    if mask is not None:
        live = loop_active(space, mask.element_class).ravel()[
            space.free_to_full()]
    sys_of_free = np.where(live, np.cumsum(live) - 1, -1)
    full_to_sys = np.where(f2f >= 0, sys_of_free[np.maximum(f2f, 0)], -1)
    rows, cols, mv, kv = [], [], [], []
    for el in itertools.product(*[range(k.numspans) for k in space.kvs]):
        cls = 1 if mask is None else mask.element_class[el]
        if cls < 0:
            continue
        if cls > 0:
            Mloc, Kloc, firsts = loop_cut_element(space, patch, None, rho,
                                                  el, 1, nqs)
        else:
            Mloc, Kloc, firsts = loop_cut_element(
                space, patch, mask.region, rho, el, 2 ** subdepth, nqs)
        dofs = np.ravel_multi_index(np.meshgrid(
            *[firsts[l] + np.arange(space.kvs[l].p + 1) for l in range(d)],
            indexing='ij'), space.dims).ravel()
        free = full_to_sys[dofs]
        keep = free >= 0
        free = free[keep]
        rows.append(np.repeat(free, len(free)))
        cols.append(np.tile(free, len(free)))
        mv.append(Mloc[np.ix_(keep, keep)].ravel())
        kv.append(Kloc[np.ix_(keep, keep)].ravel())
    n = int(live.sum())
    pair = []
    for vals in (mv, kv):
        A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                  np.concatenate(cols))),
                          shape=(n, n)).tocsr()
        A.sum_duplicates()
        pair.append(A)
    M, K = pair
    if mask is not None:
        diag = M.diagonal()
        sel = np.flatnonzero(diag > 1e-12 * np.max(diag))
        M, K = (A[np.ix_(sel, sel)].tocsr() for A in (M, K))
    return M, K


def _assert_same_matrix(got, want):
    got, want = sp.csr_matrix(got), sp.csr_matrix(want)
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    scale = np.max(np.abs(want.data))
    assert np.max(np.abs(got.data - want.data)) <= 1e-14 * scale


@pytest.mark.parametrize('case', [
    'square-p1', 'square-p2', 'square-p3', 'square-p1-dirichlet',
    'square-p2-dirichlet', 'square-p3-dirichlet', 'plate-hole',
    'cube-p2', 'annulus-nquad', 'plate-c0', 'annulus-mixed'])
def test_kernel_matches_element_loop(case):
    nquad = None
    if case.startswith('square'):
        p = int(case[8])
        dirichlet = [(True, True)] * 2 if 'dirichlet' in case else None
        space, patch = square_space(5, p, dirichlet=dirichlet), unit_square()
    elif case == 'plate-hole':
        space, patch = square_space(4, 2), plate_quarter_hole()
    elif case == 'cube-p2':
        kv = make_open_uniform(3, 2, 1)
        space, patch = SplineSpace([kv] * 3), unit_cube()
    elif case == 'annulus-nquad':
        space, patch, nquad = square_space(3, 2), quarter_annulus(), 5
    elif case == 'plate-c0':
        # interior knots of full multiplicity: element e's first function
        # is p*e, not e
        space, patch = square_space(4, 2, k=0), plate_quarter_hole()
    else:
        # mixed degrees and continuities, with a repeated interior knot
        kvu = KnotVector([0, 0, 0, 0, 0.3, 0.5, 0.5, 1, 1, 1, 1], 3)
        space = SplineSpace([kvu, make_open_uniform(4, 2, 0)])
        patch, nquad = quarter_annulus(), 5
    pair = assemble_single_patch(space, patch, _nonseparable, nquad)
    M, K = loop_assemble(space, patch, _nonseparable, nquad)
    _assert_same_matrix(pair.M.mat, M)
    _assert_same_matrix(pair.K.mat, K)


@pytest.mark.parametrize('subdepth', [2, 3])
@pytest.mark.parametrize('angle', [0.0, 0.4, 2 * np.pi / 3])
def test_trimmed_kernel_matches_element_loop(angle, subdepth):
    space, patch = square_space(10, 2), unit_square()
    region = rotated_square_region(angle=angle, half_side=0.33)
    _assert_trimmed_matches_loop(space, patch, region, subdepth, None)


def test_trimmed_mapped_kernel_matches_element_loop():
    # a disc cut out of the annulus: cut elements on a curved NURBS map
    region = lambda x, y: 0.6 - np.hypot(x - 1.2, y - 1.2)
    _assert_trimmed_matches_loop(square_space(6, 2), quarter_annulus(),
                                 region, 3, 4)


def _assert_trimmed_matches_loop(space, patch, region, subdepth, nquad):
    mask = classify_elements(space, patch, region, subdepth=subdepth)
    assert np.any(mask.element_class == 0)
    assert np.any(mask.element_class == 1)
    pair = assemble_trimmed(space, patch, region, _nonseparable,
                            subdepth=subdepth, nquad=nquad)
    M, K = loop_assemble(space, patch, _nonseparable, nquad=nquad,
                         mask=mask, subdepth=subdepth)
    _assert_same_matrix(pair.M, M)
    _assert_same_matrix(pair.K, K)


# --------------------------------------------------------- element batches

def _plate_disc(x, y):
    return 1.6 - np.hypot(x + 2.5, y - 2.5)


def _odd_plate_space():
    # 7 angular elements: the middle one straddles the geometry knot at 0.5
    return SplineSpace([make_open_uniform(7, 3, 2),
                        make_open_uniform(4, 3, 2)])


def _bytes(A):
    A = sp.csr_matrix(getattr(A, 'mat', A))
    return A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes()


def _local_stacks(slices):
    """The (s, Mloc, Kloc) of _element_matrices joined back into one Mloc
    and one Kloc stack, after checking that the slices run consecutively."""
    slices = list(slices)
    assert [s.start for s, _, _ in slices] == \
        [0] + [s.stop for s, _, _ in slices[:-1]]
    return [np.concatenate([part[k] for part in slices]) for k in (1, 2)]


@pytest.mark.parametrize('kw', [{}, {'region': _plate_disc, 'nsub': 2},
                                {'nsub': 3}], ids=['plain', 'region', 'nsub'])
def test_element_matrices_take_any_element_set(kw):
    space, patch = _odd_plate_space(), plate_quarter_hole()
    rho = lambda x, y: 1.0 + 0.1 * x * y
    els = np.argwhere(np.ones([kv.numspans for kv in space.kvs], bool))
    whole = _local_stacks(igalump.assembly._element_matrices(
        space, patch, rho, els, None, **kw))
    # every third element: no tensor product of per-direction indices
    part = _local_stacks(igalump.assembly._element_matrices(
        space, patch, rho, els[::3], None, **kw))
    for got, want in zip(part, whole):
        assert got.tobytes() == want[::3].tobytes()


def _free_dofs(space, el):
    """Free dofs of the local functions of element el, -1 if eliminated,
    from the first function active at the element's midpoint."""
    firsts = [int(eval_basis(kv, 0.5 * (lo[e] + hi[e]))[0])
              for kv, (lo, hi), e in zip(
                  space.kvs, (kv.span_bounds() for kv in space.kvs), el)]
    full = np.ravel_multi_index(np.meshgrid(
        *[f + np.arange(kv.p + 1) for f, kv in zip(firsts, space.kvs)],
        indexing='ij'), space.dims).ravel()
    return space.dof_grid().ravel()[full]


@pytest.mark.parametrize('case', ['subset', 'dirichlet-3d', 'empty'])
def test_element_dofs_match_a_per_element_loop(case):
    # each element's local functions, first direction slowest, numbered by
    # their place among the free functions: a random element subset of a
    # C^0 square, every element of a 3-D space with mixed Dirichlet faces,
    # and no element at all
    if case == 'dirichlet-3d':
        space = SplineSpace([make_open_uniform(n, 2, 1) for n in (3, 4, 2)],
                            dirichlet=[(True, False), (False, True),
                                       (True, True)])
        els = np.argwhere(np.ones((3, 4, 2), bool))
    else:
        space = SplineSpace([make_open_uniform(5, 2, 0),
                             make_open_uniform(4, 3, 2)],
                            dirichlet=[(False, True), (True, False)])
        els = np.argwhere(np.ones((5, 4), bool))
        els = (els[np.random.default_rng(1).permutation(len(els))[:7]]
               if case == 'subset' else els[:0])
    got = igalump.assembly._element_dofs(space, els)
    nloc = int(np.prod([p + 1 for p in space.degrees]))
    assert got.shape == (len(els), nloc) and got.dtype == np.int64
    lo = [int(a) for a, _ in space.dirichlet]
    for el, row in zip(els, got):
        firsts = [int(eval_basis(kv, 0.5 * (kv.span_bounds()[0][e]
                                            + kv.span_bounds()[1][e]))[0])
                  for kv, e in zip(space.kvs, el)]
        want = []
        for idx in itertools.product(*[range(f, f + p + 1) for f, p
                                       in zip(firsts, space.degrees)]):
            free = [i - a for i, a in zip(idx, lo)]
            want.append(np.ravel_multi_index(free, space.free_dims)
                        if all(0 <= q < n for q, n
                               in zip(free, space.free_dims)) else -1)
        assert row.tolist() == want


@pytest.mark.parametrize('case', ['dirichlet', 'trimmed', 'dirichlet-3d'])
def test_pattern_matches_a_triplet_merge(case):
    # the pattern and the sums added into it, against scipy's COO merge of
    # the same local matrices on the dofs of each element's midpoint; in 3-D
    # an element's band spans three levels of the dof numbering
    rho = lambda *xs: 1.0 + 0.1 * xs[0] * xs[1]
    patch = plate_quarter_hole()
    if case == 'trimmed':
        space = _odd_plate_space()
        cls = classify_elements(space, patch, _plate_disc, 2).element_class
        els = np.argwhere(cls >= 0)
        cut = cls[tuple(els.T)] == 0
        assert np.any(cut) and not np.all(cut)
        rules = [(els[~cut],), (els[cut], _plate_disc, 4)]
    elif case == 'dirichlet':
        space = square_space(5, 3, dirichlet=[(True, False), (False, True)])
        rules = [(np.argwhere(np.ones((5, 5), bool)),)]
    else:
        patch = magnet()
        space = SplineSpace([make_open_uniform(n, 2, 1) for n in (3, 4, 2)],
                            dirichlet=[(True, False), (False, True),
                                       (True, True)])
        rules = [(np.argwhere(np.ones((3, 4, 2), bool)),)]
    batches = [(e, list(igalump.assembly._element_matrices(
        space, patch, rho, e, None, *rule))) for e, *rule in rules]
    got = igalump.assembly._system_matrices(space, batches)
    rows, cols, vals = [], [], ([], [])
    for e, slices in batches:
        for el, *local in zip(e, *_local_stacks(slices)):
            dofs = _free_dofs(space, el)
            keep = np.flatnonzero(dofs >= 0)
            rows.append(np.repeat(dofs[keep], len(keep)))
            cols.append(np.tile(dofs[keep], len(keep)))
            for v, A in zip(vals, local):
                v.append(A[np.ix_(keep, keep)].ravel())
    n = space.num_free
    for A, v in zip(got, vals):
        want = sp.coo_matrix((np.concatenate(v), (np.concatenate(rows),
                                                  np.concatenate(cols))),
                             shape=(n, n)).tocsr()
        _assert_same_matrix(A, want)
        assert A.has_sorted_indices


@pytest.mark.parametrize('a, b, q', [((2, 4), (3, 1), (5, 2)),
                                     ((3, 1, 2), (2, 4, 3), (2, 3, 4))],
                         ids=['d2', 'd3'])
def test_sum_factorize_matches_einsum(a, b, q):
    # row and column sizes differ, which a swapped pair axis would not pass
    rng = np.random.default_rng(8)
    E, d = 3, len(q)
    X = [rng.random((E, n, m)) for n, m in zip(a, q)]
    Y = [rng.random((E, n, m)) for n, m in zip(b, q)]
    c = rng.random((E,) + q)
    qs, As, Bs = 'uvw'[:d], 'abc'[:d], 'ijk'[:d]
    spec = ','.join(['z' + qs] + ['z' + x + y
                                  for x, y in zip(As + Bs, 2 * qs)])
    want = np.einsum(spec + '->z' + As + Bs, c, *X, *Y)
    got = _by_rows(_paired(c, X, Y, {}))
    np.testing.assert_allclose(got, want.reshape(E, np.prod(a), np.prod(b)),
                               rtol=1e-13)


@pytest.mark.parametrize('d', [2, 3])
def test_stiffness_from_distinct_metric_terms(d):
    # K takes the d(d+1)/2 terms l <= m of the symmetric G, each mirror as a
    # transpose, against the full d x d sum: the same sums in 2-D, summed in
    # another order in 3-D
    rng = np.random.default_rng(12)
    E, nq = 5, (3, 4, 2)[:d]
    vals = [rng.normal(size=(E, n + 1, n)) for n in nq]
    ders = [rng.normal(size=(E, n + 1, n)) for n in nq]
    c = rng.random((E,) + nq)
    G = rng.normal(size=(E,) + nq + (d, d))
    G = G + np.swapaxes(G, -1, -2)
    grads = [vals[:l] + [ders[l]] + vals[l + 1:] for l in range(d)]
    want = sum(_by_rows(_paired(G[..., l, m], grads[l], grads[m], {}))
               for l, m in itertools.product(range(d), repeat=2))
    M, K = igalump.assembly._element_kernel(vals, ders, c, G)
    assert M.tobytes() == _by_rows(_paired(c, vals, vals, {})).tobytes()
    if d == 2:
        assert K.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(K - want)) <= 1e-15 * np.max(np.abs(want))


def test_point_slices_leave_assembly_unchanged(monkeypatch):
    space, patch = _odd_plate_space(), plate_quarter_hole()
    rho = lambda x, y: 1.0 + 0.1 * x * y

    def pairs():
        return [assemble_single_patch(space, patch, rho),
                assemble_trimmed(space, patch, _plate_disc, rho,
                                 subdepth=2)]
    want = pairs()
    # 6 whole elements of 16 points per slice, so slices end mid-set; each
    # cut element of 16 * 16 points is a slice of its own
    monkeypatch.setattr(igalump.assembly, '_POINTS', 100)
    for got, ref in zip(pairs(), want):
        assert _bytes(got.K) == _bytes(ref.K)
        assert _bytes(got.M) == _bytes(ref.M)


def test_assembly_memory_does_not_grow_with_the_rule():
    space, patch = square_space(32, 3), plate_quarter_hole()

    def peak(nquad):
        tracemalloc.start()
        try:
            assemble_single_patch(space, patch, ONE, nquad=nquad)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # nine times the points per element: one whole-mesh batch held 3x the
    # traced peak of the default rule
    assert peak(12) <= 1.25 * peak(4)


def test_assembly_memory_stays_near_its_result():
    # the local matrices add into the pattern one slice at a time, so no
    # whole-mesh stack of local matrices or triplets is held
    space = square_space(64, 3)
    tracemalloc.start()
    try:
        pair = assemble_single_patch(space, unit_square(), _nonseparable)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = sum(a.nbytes for A in (pair.K.mat, pair.M.mat)
                 for a in (A.data, A.indices, A.indptr))
    assert peak <= 6 * result, peak / result


# ------------------------------------------------------------ jacobi rescale

def test_jacobi_rescale_diagonal_to_identity():
    B = np.diag([4.0, 9.0, 16.0])
    A = np.eye(3)
    DAD, DBD = jacobi_rescale(A, B)
    np.testing.assert_allclose(DBD.toarray(), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(DAD.toarray(), np.diag([0.25, 1 / 9, 0.0625]),
                               atol=1e-15)


def test_jacobi_rescale_preserves_eigenvalues():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(6, 6))
    Y = rng.normal(size=(6, 6))
    A = X @ X.T
    B = Y @ Y.T + 6 * np.eye(6)
    DAD, DBD = jacobi_rescale(A, B)
    w0 = scipy.linalg.eigh(A, B, eigvals_only=True)
    w1 = scipy.linalg.eigh(DAD.toarray(), DBD.toarray(), eigvals_only=True)
    np.testing.assert_allclose(w1, w0, rtol=1e-10, atol=1e-12)
    wa = scipy.linalg.eigh(B, B, eigvals_only=True)
    np.testing.assert_allclose(wa, np.ones(6), atol=1e-12)


@pytest.mark.parametrize('tagged', [False, True], ids=['csr', 'tagged'])
def test_jacobi_rescale_matches_sparse_products_and_copies(tagged):
    pair = assemble_single_patch(square_space(4, 2), quarter_annulus(),
                                 _nonseparable)
    K, M = (pair.K, pair.M) if tagged else (pair.K.mat, pair.M.mat)
    csr = [X.mat if tagged else X for X in (K, M)]
    before = [(X.data.copy(), X.indices.copy(), X.indptr.copy())
              for X in csr]
    D = sp.diags(1.0 / np.sqrt(csr[1].diagonal()))
    want = [(D @ X @ D).toarray() for X in csr]
    got = jacobi_rescale(K, M)
    for G, W in zip(got, want):
        np.testing.assert_array_equal(G.toarray(), W)
    # the inputs, which the scaling must not touch in place
    for X, arrays in zip(csr, before):
        for a, b in zip((X.data, X.indices, X.indptr), arrays):
            np.testing.assert_array_equal(a, b)


def test_jacobi_rescale_rejects_nonpositive_diagonal():
    with pytest.raises(ValueError):
        jacobi_rescale(np.eye(2), np.diag([1.0, 0.0]))


# --------------------------------------------------------------- file format

def test_load_vector_of_one_is_mass_row_sum():
    space = square_space(3, 2)
    pair = assemble_single_patch(space, unit_square(), ONE)
    b = load_vector(quadrature_grid(space, unit_square()), ONE)
    np.testing.assert_allclose(b, pair.M @ np.ones(space.num_free),
                               atol=1e-14)


def test_load_vector_total_is_rational_measure():
    kv = make_open_uniform(2, 2, 1)
    space = SplineSpace([kv, kv])
    b = load_vector(quadrature_grid(space, quarter_annulus(), nquad=10), ONE)
    assert np.sum(b) == pytest.approx(3 * np.pi / 4, rel=1e-10)


def test_load_vector_respects_dirichlet():
    space = square_space(3, 2, dirichlet=((True, True), (True, True)))
    b = load_vector(quadrature_grid(space, unit_square()), lambda x, y: x + y)
    assert b.shape == (space.num_free,)
    full = load_vector(quadrature_grid(SplineSpace(space.kvs), unit_square()),
                       lambda x, y: x + y)
    np.testing.assert_allclose(
        b, full[space.free_to_full()], atol=1e-15)


# ------------------------------------------------------------ quadrature grid

def _smooth_field(x, y):
    return np.sin(2.0 * x + 0.5) * np.cos(y) + x * y * y


# load_vector and l2_error (plain and at t = 1.5) of _smooth_field with
# nquad = 10 on the p = 2, 2 x 2 element space, recorded when every call
# still rebuilt its own basis tables and pullback
RECORDED = {
    'unit_square': (
        [0.018418067879644884, 0.035175184199888146, 0.03253543250457341,
         0.014531611419485283, 0.049060447177239445, 0.09721459258204355,
         0.0960443490238371, 0.04749883260523261, 0.05122222307404665,
         0.1054372874126688, 0.11077833548081391, 0.0594347889156102,
         0.021538142929593215, 0.04728212239036546, 0.05443857135389101,
         0.03235636259321571],
        0.951191699135091, 1.38592108770683),
    'quarter_annulus': (
        [0.022462339643384243, 0.08428909382724908, 0.09519665982007981,
         0.02792122844244407, 0.009429226329625694, 0.19989492535100994,
         0.2754881385754479, 0.07460664874821914, -0.030436739864413188,
         0.26489278344106365, 0.41053929656126553, 0.10255173536847054,
         -0.03210867972211437, 0.19477019027552317, 0.30980199688969157,
         0.07233061596707341],
        1.9884522813751568, 2.904700914392869),
}


@pytest.mark.parametrize('name', sorted(RECORDED))
def test_grid_reproduces_recorded_values(name):
    space = square_space(2, 2)
    patch = {'unit_square': unit_square,
             'quarter_annulus': quarter_annulus}[name]()
    grid = quadrature_grid(space, patch, nquad=10)
    coeffs = np.cos(np.arange(space.num_free) * 0.7)
    load, err, err_t = RECORDED[name]
    np.testing.assert_allclose(load_vector(grid, _smooth_field), load,
                               rtol=1e-13, atol=0.0)
    assert l2_error(grid, coeffs, _smooth_field) \
        == pytest.approx(err, rel=1e-13, abs=0.0)
    assert l2_error(grid, coeffs,
                    lambda x, y, t: t * _smooth_field(x, y), t=1.5) \
        == pytest.approx(err_t, rel=1e-13, abs=0.0)


def test_grid_holds_pullback_of_patch():
    space = square_space(3, 2)
    patch = quarter_annulus()
    grid = quadrature_grid(space, patch)
    F, _, det = patch.grid_eval(grid.pts)
    np.testing.assert_array_equal(grid.coords, np.moveaxis(F, -1, 0))
    np.testing.assert_array_equal(grid.adet, np.abs(det))
    assert grid.weights().shape == grid.adet.shape
    assert np.sum(grid.weights() * grid.adet) \
        == pytest.approx(3 * np.pi / 4, rel=1e-4)


def test_grid_rejects_singular_jacobian():
    kv = KnotVector([0.0, 0.0, 1.0, 1.0], 1)
    flat = Patch(SplineSpace([kv, kv]),
                 np.array([(0, 0), (0, 1), (0, 0), (0, 1)], dtype=float))
    with pytest.raises(ValueError, match='singular jacobian'):
        quadrature_grid(square_space(2, 2), flat)


def test_grid_tables_are_not_rebuilt(monkeypatch):
    space = square_space(3, 2)
    grid = quadrature_grid(space, quarter_annulus())
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for mod in (igalump.assembly, igalump.splines):
        monkeypatch.setattr(mod, 'eval_basis',
                            counted('eval_basis', mod.eval_basis))
    monkeypatch.setattr(Patch, 'grid_eval',
                        counted('grid_eval', Patch.grid_eval))
    coeffs = np.linspace(-1.0, 1.0, space.num_free)
    for t in (0.0, 0.5, 1.0):
        l2_error(grid, coeffs, lambda x, y, t: t * x * y, t=t)
    load_vector(grid, ONE)
    assert calls == []
    # the counters see a fresh build, so the check above is not vacuous
    quadrature_grid(space, quarter_annulus())
    assert {'eval_basis', 'grid_eval'} <= set(calls)
