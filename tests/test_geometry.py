"""Geometry maps, catalog shapes, trimming and the file format."""

import itertools
import math

import numpy as np
import pytest

from igalump.assembly import assemble_trimmed
from igalump.geometry import (MultipatchTopology, Patch, classify_elements,
                              catalog, knot_insert, magnet, outer_faces,
                              patch_grid, plate_quarter_hole,
                              plate_quarter_hole_2patch, quarter_annulus,
                              rotated_square_region, split_patch,
                              stretched_square, twisted_box, unit_cube,
                              unit_square, _cofactors, _det,
                              _tensor_apply)
from igalump.splines import SplineSpace, eval_basis, make_open_uniform
from pointwise_map import jacobian, map_eval, pullback_coeffs

ONE = lambda *xs: 1.0


def affine_stretch():
    """F(x,y) = (2x, y)."""
    patch = unit_square()
    pts = patch.points.copy()
    pts[:, 0] *= 2.0
    return Patch(patch.space, pts)


# ------------------------------------------------------------------ jacobians

def test_identity_jacobian():
    J, det = jacobian(unit_square(), (0.3, 0.7))
    np.testing.assert_allclose(J, np.eye(2), atol=1e-14)
    assert det == pytest.approx(1.0, abs=1e-14)


def test_affine_stretch_det_constant():
    patch = affine_stretch()
    for xhat in [(0.1, 0.2), (0.5, 0.5), (0.9, 0.99)]:
        _, det = jacobian(patch, xhat)
        assert det == pytest.approx(2.0, abs=1e-13)


def test_quarter_annulus_det_vs_symbolic():
    # independent closed-form differentiation of the rational arc map:
    # F(xi, eta) = (1 + xi) * c(eta) with c the unit quarter circle
    import sympy as sp
    xi, eta = sp.symbols('xi eta')
    w = sp.sqrt(2) / 2
    N = [(1 - eta) ** 2, 2 * eta * (1 - eta), eta ** 2]
    ctrl = [(1, 0), (1, 1), (0, 1)]
    wts = [1, w, 1]
    den = sum(Ni * wi for Ni, wi in zip(N, wts))
    cx = sum(Ni * wi * c[0] for Ni, wi, c in zip(N, wts, ctrl)) / den
    cy = sum(Ni * wi * c[1] for Ni, wi, c in zip(N, wts, ctrl)) / den
    Fx, Fy = (1 + xi) * cx, (1 + xi) * cy
    detJ = sp.diff(Fx, xi) * sp.diff(Fy, eta) - sp.diff(Fx, eta) * sp.diff(Fy, xi)
    expected = float(detJ.subs({xi: sp.Rational(1, 2),
                                eta: sp.Rational(1, 2)}))
    assert expected > 0
    _, det = jacobian(quarter_annulus(), (0.5, 0.5))
    assert det == pytest.approx(expected, rel=1e-12)


def test_quarter_annulus_is_exact():
    patch = quarter_annulus(1.0, 2.0)
    for t in np.linspace(0, 1, 13):
        inner = map_eval(patch, (0.0, t))
        outer = map_eval(patch, (1.0, t))
        assert np.hypot(*inner) == pytest.approx(1.0, abs=1e-13)
        assert np.hypot(*outer) == pytest.approx(2.0, abs=1e-13)


def mirrored(patch):
    """patch reflected across x = 0, so that det J < 0."""
    pts = patch.points.copy()
    pts[:, 0] *= -1.0
    return Patch(patch.space, pts, patch.weights)


@pytest.mark.parametrize('d', [1, 2, 3])
def test_closed_form_det_matches_lapack(d):
    rng = np.random.default_rng(d)
    J = rng.normal(size=(5, 7, d, d))
    det = _det(J)
    assert det.shape == J.shape[:-2]
    assert np.any(det < 0) and np.any(det > 0)
    np.testing.assert_allclose(det, np.linalg.det(J), rtol=1e-12, atol=0)


@pytest.mark.parametrize('d', [1, 2, 3])
def test_cofactors_give_det_and_inverse(d):
    # det J = sum_k J[0, k] C[0][k] and J^-1 = C^T / det J
    rng = np.random.default_rng(20 + d)
    J = rng.normal(size=(5, 7, d, d))
    C = np.moveaxis(np.array(_cofactors(J)), (0, 1), (-2, -1))
    assert C.shape == J.shape
    det = np.linalg.det(J)
    np.testing.assert_allclose(np.sum(J[..., 0, :] * C[..., 0, :], axis=-1),
                               det, rtol=1e-12, atol=0)
    np.testing.assert_allclose(np.swapaxes(C, -1, -2) / det[..., None, None],
                               np.linalg.inv(J), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize('trailing', [(), (2,)])
@pytest.mark.parametrize('batch', ['both', 'T-1', 'mats-1'])
@pytest.mark.parametrize('d', [1, 2, 3])
def test_tensor_apply_matches_einsum(d, batch, trailing):
    # axis l + 1 of T contracts with the last axis of mats[l]; a batch of 1
    # on either side broadcasts. einsum sums in its own order, so equality
    # is to rounding
    E, m, n = 3, (2, 4, 3)[:d], (3, 2, 5)[:d]
    rng = np.random.default_rng(d)
    T = rng.normal(size=(1 if batch == 'T-1' else E,) + m + trailing)
    mats = [rng.normal(size=(1 if batch == 'mats-1' else E, nl, ml))
            for nl, ml in zip(n, m)]
    out = _tensor_apply(T, mats)
    ins, outs, rest = 'abc'[:d], 'ABC'[:d], 'xy'[:len(trailing)]
    expr = ','.join(['e' + ins + rest] + ['e' + o + i
                                          for o, i in zip(outs, ins)])
    ref = np.einsum(expr + '->e' + outs + rest,
                    np.broadcast_to(T, (E,) + T.shape[1:]),
                    *[np.broadcast_to(M, (E,) + M.shape[1:]) for M in mats])
    assert out.shape == (E,) + n + trailing
    np.testing.assert_allclose(out, ref, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize('patch', [plate_quarter_hole(), unit_cube(),
                                   magnet(), mirrored(plate_quarter_hole())],
                         ids=['plate', 'cube', 'magnet', 'mirrored-plate'])
def test_batched_grid_eval_matches_pointwise_map(patch):
    # each grid lies inside one random element of a 4-element mesh, so the
    # plate's grids sit on either side of its geometry knot at 0.5
    rng = np.random.default_rng(5)
    d, E = patch.ndim, 6
    pts = [(rng.integers(0, 4, size=(E, 1))
            + np.sort(rng.random((E, 2 + l)), axis=1)) / 4 for l in range(d)]
    F, J, det = patch.grid_eval(pts)
    assert det.shape == (E,) + tuple(2 + l for l in range(d))
    # the map alone is grid_eval's F bit for bit, batched or on one grid
    np.testing.assert_array_equal(patch.map_eval(pts), F)
    one = [x[0] for x in pts]
    np.testing.assert_array_equal(patch.map_eval(one),
                                  patch.grid_eval(one)[0])
    for idx in np.ndindex(det.shape):
        xhat = [pts[l][idx[0], q] for l, q in enumerate(idx[1:])]
        Jq, dq = jacobian(patch, xhat)
        np.testing.assert_allclose(F[idx], map_eval(patch, np.array(xhat)),
                                   rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(J[idx], Jq, rtol=1e-12, atol=1e-13)
        assert det[idx] == pytest.approx(dq, rel=1e-12)


# ------------------------------------------------------------------- pullback

def test_pullback_identity():
    c, G = pullback_coeffs(unit_square(), lambda x, y: 1.0, (0.4, 0.6))
    assert c == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(G, np.eye(2), atol=1e-14)


def test_pullback_affine_stretch():
    c, G = pullback_coeffs(affine_stretch(), lambda x, y: 1.0, (0.25, 0.5))
    assert c == pytest.approx(2.0, abs=1e-13)
    np.testing.assert_allclose(G, np.diag([0.5, 2.0]), atol=1e-13)


def test_pullback_nonseparable_density_at_origin():
    rho = lambda x, y: abs(math.sin(x * y)) + x + y + 1.0
    c, _ = pullback_coeffs(unit_square(), rho, (0.0, 0.0))
    assert c == pytest.approx(1.0, abs=1e-14)


def test_pullback_symmetry_and_spd():
    rng = np.random.default_rng(7)
    for patch in (stretched_square(), quarter_annulus(), plate_quarter_hole()):
        for _ in range(5):
            xhat = rng.uniform(0.05, 0.95, size=2)
            _, G = pullback_coeffs(patch, lambda x, y: 1.0, xhat)
            assert np.linalg.norm(G - G.T) <= 1e-13 * np.linalg.norm(G)
            assert G[0, 0] > 0 and np.linalg.det(G) > 0


# ------------------------------------------------------------- plate geometry

def test_plate_boundary_curves():
    patch = plate_quarter_hole()
    for t in np.linspace(0, 1, 17):
        hole = map_eval(patch, (t, 0.0))
        assert np.hypot(*hole) == pytest.approx(1.0, abs=1e-12)
        edge0 = map_eval(patch, (0.0, t))     # along y = 0
        assert edge0[1] == pytest.approx(0.0, abs=1e-13)
        edge1 = map_eval(patch, (1.0, t))     # along x = 0
        assert edge1[0] == pytest.approx(0.0, abs=1e-13)
        outer = map_eval(patch, (t, 1.0))
        if t <= 0.5:
            assert outer[0] == pytest.approx(-4.0, abs=1e-12)
        else:
            assert outer[1] == pytest.approx(4.0, abs=1e-12)


def test_plate_jacobian_positive_inside():
    patch = plate_quarter_hole()
    xs = np.linspace(0.02, 0.98, 15)
    _, _, det = patch.grid_eval([xs, xs])
    assert np.all(det > 0)
    # degenerates at the repeated outer corner
    _, near = jacobian(patch, (0.5, 0.999))
    _, mid = jacobian(patch, (0.5, 0.5))
    assert near < 0.05 * mid


def test_plate_split_preserves_map():
    whole = plate_quarter_hole()
    (a, b), interfaces = plate_quarter_hole_2patch()
    for (xi, eta) in [(0.1, 0.3), (0.45, 0.8), (0.9, 0.2), (0.5, 0.5)]:
        np.testing.assert_allclose(map_eval(a, (xi, eta)),
                                   map_eval(whole, (0.5 * xi, eta)),
                                   atol=1e-12)
        np.testing.assert_allclose(map_eval(b, (xi, eta)),
                                   map_eval(whole, (0.5 + 0.5 * xi, eta)),
                                   atol=1e-12)
    # interface curves coincide and the interiors stay regular
    for t in np.linspace(0, 1, 9):
        np.testing.assert_allclose(map_eval(a, (1.0, t)),
                                   map_eval(b, (0.0, t)), atol=1e-12)
    xs = np.linspace(0.05, 0.95, 9)
    for patch in (a, b):
        _, _, det = patch.grid_eval([xs, xs])
        assert np.all(det > 0)


def test_knot_insert_preserves_curve():
    patch = quarter_annulus()
    kv = patch.space.kvs[0]
    H = patch.homogeneous().reshape(2, -1)
    kv2, H2 = knot_insert(kv, H, 0.37)
    assert kv2.numdofs == 3
    space2 = SplineSpace([kv2, patch.space.kvs[1]])
    flat = H2.reshape(-1, 3)
    patch2 = Patch(space2, flat[:, :2] / flat[:, 2:], flat[:, 2])
    for xhat in [(0.1, 0.4), (0.37, 0.9), (0.8, 0.0)]:
        np.testing.assert_allclose(map_eval(patch2, xhat),
                                   map_eval(patch, xhat), atol=1e-13)


# ----------------------------------------------------------- catalog sanity

@pytest.mark.parametrize('name', ['unit_square', 'unit_cube',
                                  'stretched_square', 'plate_hole', 'magnet'])
def test_catalog_positive_jacobians(name):
    patches, _ = catalog(name)
    rng = np.random.default_rng(3)
    for patch in patches:
        for _ in range(8):
            xhat = rng.uniform(0.05, 0.95, size=patch.ndim)
            _, det = jacobian(patch, xhat)
            assert det > 0


def test_magnet_is_half_annulus():
    patch = magnet(1.0, 2.0, 0.5)
    for t in np.linspace(0, 1, 9):
        p = map_eval(patch, (0.0, t, 0.0))
        assert np.hypot(p[0], p[1]) == pytest.approx(1.0, abs=1e-12)
        assert p[2] == pytest.approx(0.0, abs=1e-14)
        q = map_eval(patch, (1.0, t, 1.0))
        assert np.hypot(q[0], q[1]) == pytest.approx(2.0, abs=1e-12)
        assert q[2] == pytest.approx(0.5, abs=1e-14)
    assert map_eval(patch, (0.0, 1.0, 0.0))[0] \
        == pytest.approx(-1.0, abs=1e-13)


def test_twisted_box_stacks_conformingly():
    patches, interfaces = twisted_box()
    assert len(patches) == 3 and len(interfaces) == 2
    top = map_eval(patches[0], (0.3, 0.7, 1.0))
    bottom = map_eval(patches[1], (0.3, 0.7, 0.0))
    np.testing.assert_allclose(top, bottom, atol=1e-13)


# ------------------------------------------------------------------- trimming

def _square_space(n, p):
    kv = make_open_uniform(n, p, p - 1)
    return SplineSpace([kv, kv])


def test_classify_whole_and_empty():
    space = _square_space(4, 2)
    patch = unit_square()
    whole = lambda x, y: np.ones_like(x)
    mask = classify_elements(space, patch, whole)
    assert np.all(mask.element_class == 1)
    pair = assemble_trimmed(space, patch, whole, ONE)
    assert np.array_equal(active_dofs(pair), np.arange(space.numdofs))
    empty = lambda x, y: -np.ones_like(x)
    mask = classify_elements(space, patch, empty)
    assert np.all(mask.element_class == -1)
    with pytest.raises(ValueError, match='n_active = 0'):
        assemble_trimmed(space, patch, empty, ONE)


def test_classify_half_plane_on_knot_line():
    space = _square_space(4, 1)
    patch = unit_square()
    mask = classify_elements(space, patch, lambda x, y: 0.5 - x, subdepth=2)
    assert np.all(mask.element_class[:2, :] == 1)
    assert np.all(mask.element_class[2:, :] == -1)
    assert not np.any(mask.element_class == 0)


def test_degenerate_rotated_square_keeps_all_dofs():
    space = _square_space(6, 2)
    patch = unit_square()
    pair = assemble_trimmed(space, patch, rotated_square_region(), ONE)
    assert len(active_dofs(pair)) == space.numdofs


def test_rotated_square_cuts():
    space = _square_space(10, 2)
    patch = unit_square()
    region = rotated_square_region(center=(0.52, 0.49), angle=0.4,
                                   half_side=0.25)
    mask = classify_elements(space, patch, region)
    assert np.any(mask.element_class == 0)
    assert np.any(mask.element_class == -1)
    pair = assemble_trimmed(space, patch, region, ONE)
    assert 0 < len(active_dofs(pair)) < space.numdofs


# classes of the p = 2, 20 x 20 element mesh against the axis-aligned
# square of half side 0.35, recorded when every element still had its own
# lattice evaluation: '+' inside, '0' cut, '-' outside. The right and top
# sides lie on the knot lines 0.85 up to roundoff, which cuts those rows.
RECORDED_CLASSES = (['-' * 20] * 3
                    + ['---' + '+' * 13 + '0---'] * 13
                    + ['---' + '0' * 14 + '---']
                    + ['-' * 20] * 3)


def test_classify_reproduces_recorded_classes_on_knot_lines():
    space = _square_space(20, 2)
    region = rotated_square_region(half_side=0.35)
    mask = classify_elements(space, unit_square(), region)
    symbol = {-1: '-', 0: '0', 1: '+'}
    rows = [''.join(symbol[c] for c in row) for row in mask.element_class]
    assert rows == RECORDED_CLASSES
    pair = assemble_trimmed(space, unit_square(), region, ONE)
    assert len(active_dofs(pair)) == 256


def active_dofs(pair):
    """Free background indices of a trimmed pair's system dofs, in order."""
    return np.flatnonzero(pair.pieces[0][1] >= 0)


def loop_active(space, element_class):
    """Per-dof activity by a loop over each dof's support; oracle: a dof
    is active when its support holds an element of class >= 0."""
    active = np.zeros(space.dims, dtype=bool)
    for dof in np.ndindex(*space.dims):
        support = []
        for kv, i in zip(space.kvs, dof):
            lo, hi = kv.span_bounds()
            support.append(np.nonzero((hi > kv.knots[i])
                                      & (lo < kv.knots[i + kv.p + 1]))[0])
        active[dof] = np.any(element_class[np.ix_(*support)] >= 0)
    return active


def fine_mass_diagonal(space, patch, region, element_class, nsub=8):
    """Mass diagonal of density one over the full tensor dofs of a 2D
    space; oracle. Every element is split into nsub x nsub subcells with
    p+1 Gauss points per direction each; all subcells of an inside element
    count, and those of a cut element whose centre lies inside the region.
    """
    pts, wts, tables, centers, cells = [], [], [], [], []
    for kv in space.kvs:
        lo, hi = kv.span_bounds()
        h = np.repeat((hi - lo) / nsub, nsub)
        a = np.repeat(lo, nsub) + h * np.tile(np.arange(nsub), len(lo))
        xg, wg = np.polynomial.legendre.leggauss(kv.p + 1)
        pts.append((a[:, None] + 0.5 * h[:, None] * (xg + 1)).ravel())
        wts.append((0.5 * h[:, None] * wg).ravel())
        first, B = eval_basis(kv, pts[-1])
        table = np.zeros((kv.numdofs, len(pts[-1])))
        table[first + np.arange(kv.p + 1)[:, None],
              np.arange(len(pts[-1]))] = B[0]
        tables.append(table)
        centers.append(a + 0.5 * h)
        cells.append(np.arange(len(a)) // nsub)
    F, _, _ = patch.grid_eval(centers)
    cls = element_class[np.ix_(*cells)]
    kept = (cls == 1) | ((cls == 0) & (region(*np.moveaxis(F, -1, 0)) > 0))
    for l, kv in enumerate(space.kvs):
        kept = np.repeat(kept, kv.p + 1, axis=l)
    w = np.abs(patch.grid_eval(pts)[2]) * np.outer(*wts) * kept
    return tables[0] ** 2 @ w @ tables[1].T ** 2


@pytest.mark.parametrize('p, k', [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1),
                                  (3, 2)])
@pytest.mark.parametrize('geometry, center', [(unit_square, (0.5, 0.5)),
                                              (quarter_annulus, (1.0, 1.0))],
                         ids=['square', 'annulus'])
def test_classify_activity_matches_support_loop(p, k, geometry, center):
    patch = geometry()
    nontrivial = 0
    for nel, angles in ((4, (0, 2, 4, 6)), (7, (1,))):
        kv = make_open_uniform(nel, p, k)
        space = SplineSpace([kv, kv])
        for a in angles:
            for half_side in (0.05, 0.2, 0.35):
                region = rotated_square_region(
                    center=center, angle=2.0 * math.pi * a / 7,
                    half_side=half_side)
                mask = classify_elements(space, patch, region)
                # loop_active less the dofs of a zero mass diagonal, to
                # the assembly's tolerance
                diag = fine_mass_diagonal(space, patch, region,
                                          mask.element_class)
                want = loop_active(space, mask.element_class) \
                    & (diag > 1e-12 * diag.max(initial=0.0))
                pair = assemble_trimmed(space, patch, region, ONE)
                assert np.array_equal(active_dofs(pair), np.flatnonzero(want)), \
                    (nel, a, half_side)
                nontrivial += 0 < want.sum() < want.size
    assert nontrivial > 0
    outside = rotated_square_region(center=(9.0, 9.0), half_side=0.05)
    with pytest.raises(ValueError, match='n_active = 0'):
        assemble_trimmed(space, patch, outside, ONE)


def test_knot_insert_validation_does_not_rest_on_assert(rejections):
    names = rejections(
        'import numpy as np\n'
        'from igalump.geometry import knot_insert\n'
        'from igalump.splines import make_open_uniform\n'
        'kv = make_open_uniform(3, 2, 1)\n'
        'C = np.ones((kv.numdofs, 2))', [
            'knot_insert(kv, C, 0.0)',
            'knot_insert(kv, C, 1.0)',
            'knot_insert(kv, C, 1.5)',
            'knot_insert(kv, C, -0.5)',
            'knot_insert(kv, C, 0.5)',
        ])
    assert names == ['ValueError'] * 4 + ['accepted']


def test_patch_validation_does_not_rest_on_assert(rejections):
    names = rejections(
        'import numpy as np\n'
        'from igalump.geometry import Patch, unit_square\n'
        'sq = unit_square()', [
            'Patch(sq.space, sq.points[:3])',
            'Patch(sq.space, sq.points[:, :1])',
            'Patch(sq.space, sq.points, np.ones(3))',
            'Patch(sq.space, sq.points, np.array([1.0, 1.0, 0.0, 1.0]))',
            'Patch(sq.space, sq.points, np.ones(4))',
        ])
    assert names == ['ValueError'] * 4 + ['accepted']


# ------------------------------------------------------------------ topology

def test_two_patch_share_counts():
    patches, interfaces = patch_grid(2, 1)
    kv = make_open_uniform(3, 2, 1)
    spaces = [SplineSpace([kv, kv]) for _ in patches]
    topo = MultipatchTopology(spaces, interfaces)
    n = kv.numdofs
    assert topo.n_global == 2 * n * n - n
    # all-ones local vectors accumulate to the share count
    acc = np.zeros(topo.n_global)
    for m in topo.l2g:
        acc[m] += 1.0
    assert np.array_equal(acc, topo.share_count)
    assert int((acc == 2).sum()) == n


def test_reversed_orientation_matches_flipped_patch():
    # patch 1 covers [1,2]x[0,1] with its y axis reversed; gluing needs the
    # reversal flag for dof positions to coincide
    kv = make_open_uniform(2, 2, 1)
    spaces = [SplineSpace([kv, kv]), SplineSpace([kv, kv])]
    left = unit_square()
    pts = np.array([(1, 1), (1, 0), (2, 1), (2, 0)], dtype=float)
    right = Patch(left.space, pts)
    interfaces = [(0, (0, 1), 1, (0, 0), (1,))]
    topo = MultipatchTopology(spaces, interfaces)
    n = kv.numdofs
    assert topo.n_global == 2 * n * n - n
    # sanity: the physical interface edges agree pointwise under the flip
    for t in np.linspace(0, 1, 7):
        np.testing.assert_allclose(map_eval(left, (1.0, t)),
                                   map_eval(right, (0.0, 1.0 - t)), atol=1e-14)


def test_nonconforming_interface_rejected():
    kv1 = make_open_uniform(3, 2, 1)
    kv2 = make_open_uniform(4, 2, 1)
    spaces = [SplineSpace([kv1, kv1]), SplineSpace([kv2, kv2])]
    _, interfaces = patch_grid(2, 1)
    with pytest.raises(ValueError):
        MultipatchTopology(spaces, interfaces)


def test_outer_faces():
    patches, interfaces = patch_grid(2, 1)
    faces = outer_faces(patches, interfaces)
    assert (0, 0, 1) not in faces and (1, 0, 0) not in faces
    assert len(faces) == 6


def test_interface_globals_count():
    patches, interfaces = patch_grid(2, 1)
    kv = make_open_uniform(4, 2, 1)
    # interface faces must stay free of Dirichlet flags
    spaces = [SplineSpace([kv, kv], dirichlet=[(True, False), (True, True)]),
              SplineSpace([kv, kv], dirichlet=[(False, True), (True, True)])]
    topo = MultipatchTopology(spaces, interfaces)
    iface = topo.interface_globals()
    assert len(iface) == kv.numdofs - 2
    assert np.array_equal(topo.share_count[iface], [2] * len(iface))


def _face_dofs(dims, face):
    """{tangential multi-index: full lexicographic id} of a face layer."""
    direction, side = face
    tangential = [n for l, n in enumerate(dims) if l != direction]
    out = {}
    for t in itertools.product(*[range(n) for n in tangential]):
        full = list(t)
        full.insert(direction, dims[direction] - 1 if side else 0)
        lin = 0
        for idx, n in zip(full, dims):
            lin = lin * n + idx
        out[t] = lin
    return out, tangential


def _matched(t, shape, orientation):
    """Tangential index on patch b's face of patch a's index t."""
    if not orientation:
        return t
    if len(t) == 1:
        return (shape[0] - 1 - t[0],) if orientation[0] else t
    swap, f0, f1 = orientation
    i = shape[0] - 1 - t[0] if f0 else t[0]
    j = shape[1] - 1 - t[1] if f1 else t[1]
    return (j, i) if swap else (i, j)


def loop_numbering(spaces, interfaces):
    """(l2g, n_global, share_count) by union-find over glued dof pairs, then
    global ids in order of each class's first appearance; a per-dof loop."""
    offsets = [0]
    for space in spaces:
        offsets.append(offsets[-1] + space.num_free)
    parent = list(range(offsets[-1]))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, face_a, b, face_b, orientation in interfaces:
        dofs_a, shape = _face_dofs(spaces[a].dims, face_a)
        dofs_b, _ = _face_dofs(spaces[b].dims, face_b)
        free_a, free_b = (spaces[a].dof_grid().ravel(),
                          spaces[b].dof_grid().ravel())
        for t, ia in dofs_a.items():
            qa = free_a[ia]
            qb = free_b[dofs_b[_matched(t, shape, orientation)]]
            assert (qa < 0) == (qb < 0)
            if qa >= 0:
                ra, rb = find(offsets[a] + qa), find(offsets[b] + qb)
                if ra != rb:
                    parent[rb] = ra
    ids = {}
    gids = np.array([ids.setdefault(find(i), len(ids))
                     for i in range(offsets[-1])], dtype=np.intp)
    l2g = [gids[offsets[r]:offsets[r + 1]] for r in range(len(spaces))]
    share = np.zeros(len(ids), dtype=int)
    for m in l2g:
        for g in set(m.tolist()):
            share[g] += 1
    return l2g, len(ids), share


def _glued_spaces(patches, interfaces, p, n, dirichlet):
    outer = set(outer_faces(patches, interfaces)) if dirichlet else set()
    kv = make_open_uniform(n, p, p - 1)
    return [SplineSpace([kv] * patch.ndim,
                        dirichlet=[[(ip, l, s) in outer for s in (0, 1)]
                                   for l in range(patch.ndim)])
            for ip, patch in enumerate(patches)]


def _assert_numbering_matches_loop(spaces, interfaces):
    topo = MultipatchTopology(spaces, interfaces)
    l2g, n_global, share = loop_numbering(spaces, interfaces)
    assert topo.n_global == n_global
    assert len(topo.l2g) == len(l2g)
    for got, want in zip(topo.l2g, l2g):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert topo.share_count.dtype == share.dtype
    assert np.array_equal(topo.share_count, share)


@pytest.mark.parametrize('dirichlet', [False, True])
@pytest.mark.parametrize('geometry', ['plate_hole_2patch', 'twisted_box',
                                      'grid_4x4', 'grid_1x16'])
def test_glue_numbering_matches_union_find_loop(geometry, dirichlet):
    patches, interfaces = catalog(geometry)
    for p in (1, 2, 3):
        for n in (1, 2, 5):
            _assert_numbering_matches_loop(
                _glued_spaces(patches, interfaces, p, n, dirichlet),
                interfaces)


def test_glue_numbering_matches_loop_where_four_patches_meet():
    patches, interfaces = patch_grid(4, 4)
    _assert_numbering_matches_loop(
        _glued_spaces(patches, interfaces, 3, 8, False), interfaces)


@pytest.mark.parametrize('orientation', [(1,), (0, 0, 1), (1, 1, 0),
                                         (1, 0, 1)])
def test_glue_numbering_matches_loop_on_oriented_faces(orientation):
    # a chain of three patches, each glued to the next with the orientation
    kv = make_open_uniform(3, 2, 1)
    d = 2 if len(orientation) == 1 else 3
    spaces = [SplineSpace([kv] * d) for _ in range(3)]
    interfaces = [(r, (0, 1), r + 1, (0, 0), orientation) for r in (0, 1)]
    _assert_numbering_matches_loop(spaces, interfaces)


@pytest.mark.parametrize('params', [{'rin': -1.0}, {'rin': 0.0},
                                    {'rin': 3.0, 'rout': 1.0},
                                    {'rin': 2.0, 'rout': 2.0}])
def test_annulus_radii_are_validated(params):
    with pytest.raises(ValueError, match='0 < rin < rout'):
        quarter_annulus(**params)
    with pytest.raises(ValueError, match='0 < rin < rout'):
        magnet(**params)


def test_magnet_thickness_must_be_positive():
    with pytest.raises(ValueError, match='thickness'):
        magnet(thickness=0.0)


def test_twisted_box_needs_a_patch():
    with pytest.raises(ValueError, match='npatches'):
        twisted_box(npatches=0)
