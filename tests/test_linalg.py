"""Solver checks: residuals, factor structure, and dense eigen oracles."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import sympy

from igalump.assembly import assemble_multipatch, assemble_single_patch
from igalump.geometry import (MultipatchTopology, Patch, catalog,
                              outer_faces, patch_grid)
from igalump.linalg import (FactorizedOperator, banded_cholesky,
                            dense_generalized_eig, schur_saddle_factor,
                            woodbury_solve)
from igalump.lumping import (HierBandedMatrix, _measured_bandwidth,
                             block_lumped_family, hier_bandwidth, lump_pieces)
from igalump.splines import KnotVector, SplineSpace, make_open_uniform
from structured_spd import random_structured_spd

ONE = lambda *xs: 1.0


def interval_patch(a=0.0, b=1.0):
    kv = KnotVector([0.0, 0.0, 1.0, 1.0], 1)
    return Patch(SplineSpace([kv]), np.array([[a], [b]], dtype=float))


def rel_residual(A, x, b):
    return np.linalg.norm(A @ x - b) / np.linalg.norm(b)


# ------------------------------------------------------------ hier_bandwidth

def test_hier_bandwidth_values():
    assert hier_bandwidth((3,), (10,)) == 3
    assert hier_bandwidth((1, 3), (4, 5)) == 8
    assert hier_bandwidth((0, 0, 5), (7, 6, 9)) == 5


def test_hier_bandwidth_length_mismatch():
    with pytest.raises(ValueError):
        hier_bandwidth((1, 2), (4,))


def test_hier_bandwidth_matches_matrix_tag():
    rng = np.random.default_rng(3)
    B = random_structured_spd((5, 4), (2, 1), rng)
    assert hier_bandwidth(B.bandwidths, B.dims) == B.scalar_bandwidth()


# ----------------------------------------------------------- banded cholesky

def test_banded_identity():
    op = banded_cholesky(np.eye(4), 0)
    b = np.array([1.0, -2.0, 3.0, 0.5])
    np.testing.assert_allclose(op.solve(b), b, atol=0)


def test_banded_scalar():
    op = banded_cholesky(np.array([[4.0]]), 0)
    assert op.payload[0, 0] == 2.0
    assert op.solve(np.array([8.0]))[0] == pytest.approx(2.0)


def test_banded_pentadiagonal_mass_residual():
    kv = make_open_uniform(8, 2, 1)
    space = SplineSpace([kv])
    pair = assemble_single_patch(space, interval_patch(), ONE)
    assert pair.M.shape == (10, 10)
    op = banded_cholesky(pair.M, 2)
    rng = np.random.default_rng(0)
    b = rng.normal(size=10)
    assert rel_residual(pair.M.mat, op.solve(b), b) <= 1e-12


def test_banded_rejects_out_of_band_entry():
    A = np.eye(5)
    A[0, 3] = A[3, 0] = 0.25
    with pytest.raises(ValueError, match='band'):
        banded_cholesky(A, 1)


def test_banded_rejects_indefinite():
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match='positive definite'):
        banded_cholesky(A, 1)


def test_banded_rejects_non_finite_entry():
    A = np.eye(4)
    A[2, 2] = np.nan
    with pytest.raises(ValueError, match='non-finite'):
        banded_cholesky(A, 1)


def test_banded_factor_stays_in_band():
    rng = np.random.default_rng(7)
    B = random_structured_spd((20,), (3,), rng)
    op = banded_cholesky(B, 3)
    assert op.payload.shape == (4, 20)
    # the dense factor of a banded SPD matrix fills nothing below the band
    L = np.linalg.cholesky(B.toarray())
    i, j = np.tril_indices(20)
    assert np.all(L[i, j][i - j > 3] == 0.0)


@pytest.mark.parametrize('dims,bandwidths', [((30,), (4,)), ((6, 5), (2, 3))])
def test_solve_residual_invariant(dims, bandwidths):
    rng = np.random.default_rng(11)
    B = random_structured_spd(dims, bandwidths, rng)
    op = banded_cholesky(B, B.scalar_bandwidth())
    A = B.toarray()
    for _ in range(20):
        b = rng.normal(size=A.shape[0])
        assert rel_residual(A, op.solve(b), b) <= 1e-10


def test_banded_multiple_rhs():
    rng = np.random.default_rng(2)
    B = random_structured_spd((12,), (2,), rng)
    op = banded_cholesky(B, 2)
    rhs = rng.normal(size=(12, 3))
    cols = np.stack([op.solve(rhs[:, j]) for j in range(3)], axis=1)
    np.testing.assert_allclose(op.solve(rhs), cols, atol=1e-14)


@pytest.mark.parametrize('shape', [(30,), (30, 4)])
def test_banded_solve_matches_scipy_bitwise(shape):
    # the factor's own pbtrs call is scipy's cho_solve_banded without the
    # per-call checks; a 2-D right-hand side is the Schur solve's D^-1 C
    rng = np.random.default_rng(13)
    op = banded_cholesky(random_structured_spd((30,), (4,), rng), 4)
    rhs = rng.normal(size=shape)
    x = op.solve(rhs)
    assert x.shape == shape
    np.testing.assert_array_equal(
        x, sla.cho_solve_banded((op.payload, False), rhs))


def test_operator_rejects_wrong_length():
    op = banded_cholesky(np.eye(3), 0)
    with pytest.raises(ValueError):
        op.solve(np.ones(4))


# -------------------------------------------------------------- saddle solve

def test_schur_zero_coupling_decouples():
    n = 6
    A = np.zeros((n, n))
    A[np.ix_([0, 1], [0, 1])] = [[2.0, 0.3], [0.3, 2.0]]
    A[np.ix_([4, 5], [4, 5])] = [[1.5, 0.0], [0.0, 1.0]]
    A[np.ix_([2, 3], [2, 3])] = [[3.0, 0.1], [0.1, 3.0]]
    op = schur_saddle_factor(sp.csr_matrix(A), np.array([2, 3]))
    rng = np.random.default_rng(4)
    b = rng.normal(size=n)
    x = op.solve(b)
    np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-13)
    # interface part never leaks into the interiors
    np.testing.assert_allclose(
        x[[2, 3]], np.linalg.solve(A[np.ix_([2, 3], [2, 3])], b[[2, 3]]),
        atol=1e-13)


def test_schur_single_patch_reduces_to_banded():
    kv = make_open_uniform(6, 2, 1)
    space = SplineSpace([kv])
    pair = assemble_single_patch(space, interval_patch(), ONE)
    op = schur_saddle_factor(pair.M, [])
    direct = banded_cholesky(pair.M, 2)
    b = np.random.default_rng(5).normal(size=pair.M.shape[0])
    np.testing.assert_allclose(op.solve(b), direct.solve(b), atol=1e-13)


def test_schur_all_interface_matches_dense():
    # an empty interior leaves the whole solve to the dense Schur factor
    A = random_structured_spd((3, 4), (1, 2), np.random.default_rng(9))
    n = A.shape[0]
    op = schur_saddle_factor(A, np.arange(n))
    dense = A.toarray()
    b = np.random.default_rng(10).normal(size=(n, 2))
    assert rel_residual(dense, op.solve(b), b) <= 1e-12


def _two_interval_lumped(i):
    kv = make_open_uniform(4, 2, 1)
    spaces = [SplineSpace([kv]), SplineSpace([kv])]
    topo = MultipatchTopology(spaces, [(0, (0, 1), 1, (0, 0), ())])
    patches = [interval_patch(0, 1), interval_patch(1, 2)]
    glob, _locs = assemble_multipatch(topo, patches, ONE)
    P = lump_pieces(glob.pieces, topo.n_global, i=i)
    return P, topo


def test_schur_two_patch_1d_matches_dense():
    P, topo = _two_interval_lumped(i=2)
    op = schur_saddle_factor(P, topo.interface_globals())
    rng = np.random.default_rng(6)
    dense = P.toarray()
    for _ in range(5):
        b = rng.normal(size=dense.shape[0])
        x = op.solve(b)
        assert np.linalg.norm(x - np.linalg.solve(dense, b)) \
            <= 1e-11 * np.linalg.norm(x)


def test_schur_two_patch_2d_matches_dense():
    patches, interfaces = patch_grid(2, 1)
    kv = make_open_uniform(4, 2, 1)
    spaces = [SplineSpace([kv, kv]) for _ in patches]
    topo = MultipatchTopology(spaces, interfaces)
    glob, _locs = assemble_multipatch(topo, patches, ONE)
    P = lump_pieces(glob.pieces, topo.n_global, i=2)
    op = schur_saddle_factor(P, topo.interface_globals())
    dense = P.toarray()
    rng = np.random.default_rng(8)
    for _ in range(5):
        b = rng.normal(size=dense.shape[0])
        x = op.solve(b)
        assert rel_residual(dense, x, b) <= 1e-10


@pytest.mark.parametrize('dirichlet', [False, True])
@pytest.mark.parametrize('geometry', ['plate_hole_2patch', 'twisted_box',
                                      'grid_4x4', 'grid_1x16'])
def test_schur_interior_is_one_banded_block(geometry, dirichlet):
    # the glue numbers each patch's unshared dofs contiguously, so the
    # interior block of the complement of the interface ids is as narrow as
    # the widest patch interior, and one banded factor solves it
    patches, interfaces = catalog(geometry)
    outer = set(outer_faces(patches, interfaces)) if dirichlet else set()
    kv = make_open_uniform(2, 2, 1)
    spaces = [SplineSpace([kv] * patch.ndim,
                          dirichlet=[[(ip, l, s) in outer for s in (0, 1)]
                                     for l in range(patch.ndim)])
              for ip, patch in enumerate(patches)]
    topo = MultipatchTopology(spaces, interfaces)
    glob, _locs = assemble_multipatch(topo, patches, ONE)
    iface = topo.interface_globals()
    interior = np.setdiff1d(np.arange(topo.n_global), iface)
    per_patch = [np.setdiff1d(l2g, iface) for l2g in topo.l2g]
    rng = np.random.default_rng(11)
    for A in (lump_pieces(glob.pieces, topo.n_global, i=1), glob.M):
        A = sp.csr_matrix(A)
        assert _measured_bandwidth(A[np.ix_(interior, interior)]) == max(
            _measured_bandwidth(A[np.ix_(ids, ids)]) for ids in per_patch)
        b = rng.normal(size=topo.n_global)
        x = schur_saddle_factor(A, iface).solve(b)
        assert rel_residual(A.toarray(), x, b) <= 1e-10


def test_schur_rejects_bad_partition():
    # duplicate or out-of-range interface ids do not split the dofs in two
    for iface in ([2, 2], [1, 4], [-1]):
        with pytest.raises(ValueError, match='partition'):
            schur_saddle_factor(sp.eye(4, format='csr'), iface)


def test_schur_rejects_indefinite_complement():
    A = np.array([[1.0, 0.0, 2.0],
                  [0.0, 1.0, 2.0],
                  [2.0, 2.0, 1.0]])
    with pytest.raises(ValueError, match='[Ss]chur'):
        schur_saddle_factor(sp.csr_matrix(A), [2])


# ------------------------------------------------------------------ woodbury

def test_woodbury_rank_zero_is_base_solve():
    rng = np.random.default_rng(9)
    B = random_structured_spd((10,), (2,), rng)
    base = banded_cholesky(B, 2)
    b = rng.normal(size=10)
    out = woodbury_solve(base, np.zeros((10, 0)), np.zeros(0), b)
    np.testing.assert_allclose(out, base.solve(b), atol=0)


def test_woodbury_identity_plus_e1():
    base = banded_cholesky(np.eye(3), 0)
    U2 = np.array([[1.0], [0.0], [0.0]])
    out = woodbury_solve(base, U2, np.array([1.0]), np.eye(3)[:, 0])
    np.testing.assert_allclose(out, [0.5, 0.0, 0.0], atol=1e-15)


def test_woodbury_matches_dense_oracle():
    rng = np.random.default_rng(10)
    n, r = 50, 3
    B = random_structured_spd((n,), (4,), rng)
    A = rng.normal(size=(n, n))
    A = A + A.T
    w, V = dense_generalized_eig(A, B.toarray())
    U2 = V[:, -r:]
    lam_cut = w[-r - 1]
    g = w[-r:] / lam_cut - 1.0
    Bdense = B.toarray()
    VB = Bdense @ U2
    Bbar = Bdense + VB @ np.diag(g) @ VB.T
    base = banded_cholesky(B, 4)
    for _ in range(20):
        b = rng.normal(size=n)
        x = woodbury_solve(base, U2, g, b)
        assert np.linalg.norm(x - np.linalg.solve(Bbar, b)) \
            <= 1e-10 * np.linalg.norm(x)


def test_woodbury_rejects_singular_g():
    # g = 0 is no update; 1 + g <= 0 (or NaN) leaves no SPD scaled mass
    base = banded_cholesky(np.eye(2), 0)
    U2, rhs = np.eye(2)[:, :1], np.array([1.0, -3.0])
    np.testing.assert_array_equal(
        woodbury_solve(base, U2, np.array([0.0]), rhs), base.solve(rhs))
    for g in (-1.0, -2.0, np.nan):
        with pytest.raises(ValueError, match='singular or indefinite'):
            woodbury_solve(base, U2, np.array([g]), rhs)


def test_woodbury_two_dimensional_rhs():
    rng = np.random.default_rng(12)
    n = 8
    B = random_structured_spd((n,), (2,), rng)
    base = banded_cholesky(B, 2)
    w, V = dense_generalized_eig(np.diag(np.arange(1.0, n + 1)), B.toarray())
    U2 = V[:, -2:]
    g = np.array([0.5, 2.0])
    rhs = rng.normal(size=(n, 3))
    cols = np.stack([woodbury_solve(base, U2, g, rhs[:, j])
                     for j in range(3)], axis=1)
    np.testing.assert_allclose(woodbury_solve(base, U2, g, rhs), cols,
                               atol=1e-14)


# ------------------------------------------------------------- dense oracle

def test_dense_eig_diagonal():
    w, _ = dense_generalized_eig(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-14)


def test_dense_eig_equal_matrices():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    w, _ = dense_generalized_eig(A, A)
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-14)


def test_dense_eig_scalar_ratio():
    w, _ = dense_generalized_eig(np.array([[2.0]]), np.array([[4.0]]))
    assert w[0] == pytest.approx(0.5, abs=1e-15)


def test_dense_eig_b_orthonormal_diagonalization():
    rng = np.random.default_rng(13)
    n = 40
    B = random_structured_spd((n,), (3,), rng)
    A = rng.normal(size=(n, n))
    A = A + A.T
    w, V = dense_generalized_eig(A, B)
    scale = 1e-9 * np.linalg.norm(A, 2)
    assert np.all(np.diff(w) >= -1e-15)
    np.testing.assert_allclose(V.T @ B.toarray() @ V, np.eye(n), atol=scale)
    np.testing.assert_allclose(V.T @ A @ V, np.diag(w), atol=scale)


@pytest.mark.parametrize('A,B', [
    ([[1, 0], [0, 3]], [[2, 1], [1, 2]]),
    ([[4, 1, 0], [1, 5, 2], [0, 2, 6]], [[2, 0, 0], [0, 3, 0], [0, 0, 1]]),
    ([[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 5, 1], [0, 0, 1, 5]],
     [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]),
])
def test_dense_eig_matches_characteristic_polynomial(A, B):
    A = np.array(A, dtype=float)
    B = np.array(B, dtype=float)
    lam = sympy.symbols('lam')
    M = sympy.Matrix(A) - lam * sympy.Matrix(B)
    vals = [complex(r) for r in sympy.Poly(M.det(), lam).nroots(n=30)]
    assert all(abs(v.imag) < 1e-20 for v in vals)
    roots = sorted(v.real for v in vals)
    w, _ = dense_generalized_eig(A, B)
    np.testing.assert_allclose(w, roots, atol=1e-10)


def test_dense_eig_rejects_indefinite_mass():
    with pytest.raises(ValueError, match='positive definite'):
        dense_generalized_eig(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_dense_eig_rejects_oversize():
    big = np.zeros((4001, 4001))
    with pytest.raises(ValueError, match='dense oracle'):
        dense_generalized_eig(big, big)
