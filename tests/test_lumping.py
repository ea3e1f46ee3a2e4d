"""Lumping operators: identities, Loewner orderings, spectral inclusion."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from igalump.assembly import (assemble_multipatch, assemble_single_patch,
                              assemble_trimmed)
from igalump.geometry import (MultipatchTopology, plate_quarter_hole_2patch,
                              rotated_square_region, unit_cube, unit_square)
from igalump.lumping import (HierBandedMatrix, block_lumped_family,
                             hierarchical_lump, lump_pieces, lump_rowsum)
from igalump.spectral import split_zero_modes
from igalump.splines import SplineSpace, make_open_uniform
from structured_spd import random_structured_spd

ONE = lambda *xs: 1.0


def mass_pair(n, p, d=2, dirichlet=None, patch=None):
    kv = make_open_uniform(n, p, p - 1)
    space = SplineSpace([kv] * d, dirichlet=dirichlet)
    patch = patch or (unit_square() if d == 2 else unit_cube())
    return assemble_single_patch(space, patch, ONE)


# ------------------------------------------------------------------- row sums

def test_rowsum_examples():
    np.testing.assert_allclose(lump_rowsum(np.eye(3)).toarray(), np.eye(3))
    got = lump_rowsum(np.array([[2.0, 1.0], [1.0, 3.0]]))
    np.testing.assert_allclose(got.toarray(), np.diag([3.0, 4.0]))
    got = lump_rowsum(np.array([[2.0, -1.0], [-1.0, 3.0]]))
    np.testing.assert_allclose(got.toarray(), np.diag([3.0, 4.0]))


# ---------------------------------------------------------------- block lumps

def test_block_lump_leaves_block_diagonal():
    A = np.zeros((6, 6))
    A[:3, :3] = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    A[3:, 3:] = np.eye(3) * 4
    B = HierBandedMatrix(sp.csr_matrix(A), (2, 3), (1, 1))
    np.testing.assert_allclose(block_lumped_family(B, 1).toarray(), A)


def test_block_lump_identity_blocks():
    A = np.tile(np.eye(2), (2, 2))
    B = HierBandedMatrix(sp.csr_matrix(A), (2, 2), (1, 1))
    np.testing.assert_allclose(block_lumped_family(B, 1).toarray(),
                               scipy.linalg.block_diag(2 * np.eye(2),
                                                       2 * np.eye(2)))


def test_block_lump_is_kron_of_factor_lump():
    from igalump.geometry import Patch
    from igalump.splines import KnotVector
    kv = make_open_uniform(2, 1, 0)
    pair = mass_pair(2, 1)
    geom = SplineSpace([KnotVector([0.0, 0.0, 1.0, 1.0], 1)])
    line = Patch(geom, np.array([[0.0], [1.0]]))
    m1 = assemble_single_patch(SplineSpace([kv]), line, ONE)
    L1 = lump_rowsum(m1.M).toarray()
    want = np.kron(L1, m1.M.toarray())
    np.testing.assert_allclose(block_lumped_family(pair.M, 1).toarray(), want,
                               atol=1e-14)


def test_family_endpoints():
    B = random_structured_spd((4, 3), (3, 2), np.random.default_rng(0))
    np.testing.assert_allclose(block_lumped_family(B, 4).toarray(),
                               B.toarray(), atol=0)
    np.testing.assert_allclose(block_lumped_family(B, 1).toarray(),
                               block_lumped_family(B, 1).toarray(), atol=0)
    with pytest.raises(ValueError):
        block_lumped_family(B, 0)
    with pytest.raises(ValueError):
        block_lumped_family(B, 5)


def test_family_preserves_row_block_sums():
    pair = mass_pair(6, 3)
    e = np.ones(pair.M.shape[0])
    be = pair.M @ e
    for i in (1, 2, 3):
        P = block_lumped_family(pair.M, i)
        assert np.max(np.abs(P @ e - be)) <= 1e-13 * np.max(np.abs(be))
        assert P.bandwidths[0] == i - 1
    total = e @ (pair.M @ e)
    for i in (1, 2, 3):
        assert e @ (block_lumped_family(pair.M, i) @ e) == \
            pytest.approx(total, rel=1e-13)


def test_unstructured_matrix_rejected():
    B = sp.eye(4, format='csr')
    with pytest.raises(ValueError):
        block_lumped_family(B, 1)


# --------------------------------------------------------------- hierarchical

def test_hier_level1_is_block_lump():
    B = random_structured_spd((5, 4), (2, 3), np.random.default_rng(1))
    np.testing.assert_allclose(hierarchical_lump(B, 1).toarray(),
                               block_lumped_family(B, 1).toarray(), atol=0)


def test_hier_full_depth_is_rowsum_on_mass():
    pair = mass_pair(3, 2, d=3)
    H3 = hierarchical_lump(pair.M, 3)
    R = lump_rowsum(pair.M)
    np.testing.assert_allclose(H3.toarray(), R.toarray(), atol=1e-13)


def test_bandwidth_formula():
    rng = np.random.default_rng(2)
    B = random_structured_spd((4, 5), (1, 3), rng)
    assert B.scalar_bandwidth() == 1 * 5 + 3 * 1
    assert B.measured_bandwidth() == 8
    H1 = hierarchical_lump(B, 1)
    assert H1.scalar_bandwidth() == 3
    assert H1.measured_bandwidth() <= 3


def _block_sums(A, r):
    """Each r x r block row of the dense A summed onto its diagonal block."""
    out = np.zeros_like(A)
    for k in range(0, len(A), r):
        out[k:k + r, k:k + r] = A[k:k + r].reshape(r, -1, r).sum(axis=1)
    return out


def test_hier_level2_is_block_sums_of_level1():
    B = random_structured_spd((3, 4, 3), (2, 2, 1), np.random.default_rng(13))
    A = B.toarray()
    H2 = hierarchical_lump(B, 2)
    want = _block_sums(_block_sums(A, 12), 3)
    np.testing.assert_allclose(H2.toarray(), want, rtol=0,
                               atol=1e-13 * np.max(np.abs(A)))
    assert H2.bandwidths == (0, 0, 1)


def test_hier_level_out_of_range():
    B = random_structured_spd((3, 3), (1, 1), np.random.default_rng(3))
    with pytest.raises(ValueError):
        hierarchical_lump(B, 0)
    with pytest.raises(ValueError):
        hierarchical_lump(B, 3)


# ------------------------------------------------------------ loewner chains

def _loewner_geq(A, B, rng, nvec=200, tol=1e-12):
    """x^T (A - B) x >= -tol scaled by the matrices' magnitude."""
    D = (A if isinstance(A, np.ndarray) else A.toarray()) \
        - (B if isinstance(B, np.ndarray) else B.toarray())
    n = D.shape[0]
    scale = max(1.0, np.max(np.abs(D)))
    X = rng.normal(size=(nvec, n))
    quad = np.einsum('ij,jk,ik->i', X, D, X)
    return np.all(quad >= -tol * scale * np.einsum('ij,ij->i', X, X))


def test_family_loewner_chain_random():
    rng = np.random.default_rng(4)
    B = random_structured_spd((6, 5), (4, 3), rng)
    mats = [block_lumped_family(B, i).toarray() for i in range(1, 7)]
    for P, Q in zip(mats, mats[1:]):
        assert _loewner_geq(P, Q, rng)
    assert _loewner_geq(mats[-1], B.toarray(), rng)  # equal


def test_family_loewner_chain_mass():
    rng = np.random.default_rng(5)
    pair = mass_pair(7, 2)
    mats = [block_lumped_family(pair.M, i).toarray() for i in (1, 2, 3)]
    for P, Q in zip(mats, mats[1:]):
        assert _loewner_geq(P, Q, rng)
    assert _loewner_geq(mats[-1], pair.M.toarray(), rng)


def test_hierarchical_loewner_chain():
    # full-depth chain needs nonnegative entries at the deepest level,
    # which mass matrices have
    rng = np.random.default_rng(6)
    B = random_structured_spd((4, 3, 3), (2, 2, 1), rng, nonneg=True)
    mats = [B.toarray()] + [hierarchical_lump(B, k).toarray()
                            for k in (1, 2, 3)]
    for prev, nxt in zip(mats, mats[1:]):
        assert _loewner_geq(nxt, prev, rng)


def test_hierarchical_partial_chain_mixed_signs():
    # above the deepest level only block semidefiniteness matters, so
    # mixed-sign entries are fine
    rng = np.random.default_rng(12)
    B = random_structured_spd((4, 3, 3), (2, 2, 1), rng)
    H1 = hierarchical_lump(B, 1).toarray()
    H2 = hierarchical_lump(B, 2).toarray()
    assert _loewner_geq(H1, B.toarray(), rng)
    assert _loewner_geq(H2, H1, rng)


def test_graph_laplacian_identity():
    rng = np.random.default_rng(7)
    r = 3
    B = random_structured_spd((5, r), (4, r - 1), rng)
    A = B.toarray()
    L = block_lumped_family(B, 1).toarray()
    for _ in range(20):
        x = rng.normal(size=15)
        lhs = x @ (L - A) @ x
        rhs = 0.0
        for i in range(5):
            for j in range(5):
                xi, xj = x[i * r:(i + 1) * r], x[j * r:(j + 1) * r]
                Bij = A[i * r:(i + 1) * r, j * r:(j + 1) * r]
                rhs += 0.5 * (xi - xj) @ Bij @ (xi - xj)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


# ---------------------------------------------------------- spectral theorems

def _eigs(A, B):
    return scipy.linalg.eigh(np.asarray(A.toarray() if not isinstance(A, np.ndarray) else A),
                             np.asarray(B.toarray() if not isinstance(B, np.ndarray) else B),
                             eigvals_only=True)


def test_spectral_inclusion_random():
    B = random_structured_spd((8, 7), (5, 4), np.random.default_rng(8))
    for i in (1, 2, 4, 8):
        w = _eigs(B.toarray(), block_lumped_family(B, i).toarray())
        assert w[0] > 0
        assert w[-1] <= 1 + 1e-9
        assert w[-1] == pytest.approx(1.0, abs=1e-8)


def test_spectral_inclusion_mass():
    pair = mass_pair(8, 2, dirichlet=[(True, True), (True, True)])
    for i in (1, 2, 3):
        w = _eigs(pair.M.toarray(), block_lumped_family(pair.M, i).toarray())
        assert w[0] > 0 and w[-1] <= 1 + 1e-9
        assert w[-1] == pytest.approx(1.0, abs=1e-8)


def test_eigenvalue_monotonicity_in_band_count():
    pair = mass_pair(6, 2)
    M = pair.M.toarray()
    prev = None
    for i in (1, 2, 3, 4):
        w = _eigs(M, block_lumped_family(pair.M, i).toarray())
        if prev is not None:
            assert np.all(prev <= w + 1e-9 * np.abs(w))
        prev = w


def test_hierarchical_eigenvalue_order():
    # deeper lumping dominates in the Loewner order, so generalized
    # eigenvalues against a fixed A can only shrink with the level
    pair = mass_pair(4, 2, d=3, dirichlet=[(True, True)] * 3)
    A = pair.K.toarray()
    w_mass = _eigs(A, pair.M.toarray())
    levels = [_eigs(A, hierarchical_lump(pair.M, k).toarray())
              for k in (1, 2, 3)]
    tol = 1e-9 * np.abs(w_mass)
    assert np.all(levels[0] <= w_mass + tol)
    assert np.all(levels[1] <= levels[0] + tol)
    assert np.all(levels[2] <= levels[1] + tol)


def test_rowsum_never_worsens_cfl():
    for pair in (mass_pair(6, 2, dirichlet=[(True, False), (False, True)]),
                 mass_pair(5, 3)):
        wM = _eigs(pair.K.toarray(), pair.M.toarray())
        wL = _eigs(pair.K.toarray(), lump_rowsum(pair.M).toarray())
        assert wL[-1] <= wM[-1] + 1e-9 * wM[-1]


# ------------------------------------------------------------------ multipatch

@pytest.mark.parametrize('kw', [{}, {'i': 1, 'level': 1}],
                         ids=['neither', 'both'])
def test_lump_pieces_takes_exactly_one_of_i_or_level(kw):
    pair = mass_pair(4, 2)
    with pytest.raises(ValueError, match='pass exactly one of i or level'):
        lump_pieces(pair.pieces, pair.M.shape[0], **kw)


def test_multipatch_single_patch_reduces():
    pair = mass_pair(5, 2)
    n = pair.M.shape[0]
    glob = lump_pieces([(pair.M, np.arange(n))], n, i=2)
    np.testing.assert_allclose(glob.toarray(),
                               block_lumped_family(pair.M, 2).toarray(),
                               atol=0)


def test_multipatch_full_band_is_consistent_mass():
    patches, interfaces = plate_quarter_hole_2patch()
    kv = make_open_uniform(4, 2, 1)
    spaces = [SplineSpace([kv, kv]) for _ in patches]
    topo = MultipatchTopology(spaces, interfaces)
    glob, locs = assemble_multipatch(topo, patches, ONE)
    n1 = locs[0].M.dims[0]
    P = lump_pieces(glob.pieces, topo.n_global, i=n1)
    np.testing.assert_allclose(P.toarray(), glob.M.toarray(), atol=1e-15)


def test_multipatch_eigenvalue_order():
    patches, interfaces = plate_quarter_hole_2patch()
    kv = make_open_uniform(5, 2, 1)
    spaces = [SplineSpace([kv, kv]) for _ in patches]
    topo = MultipatchTopology(spaces, interfaces)
    glob, locs = assemble_multipatch(topo, patches, ONE)
    K = glob.K.toarray()
    w1 = _eigs(K, lump_pieces(glob.pieces, topo.n_global, i=1))
    w2 = _eigs(K, lump_pieces(glob.pieces, topo.n_global, i=2))
    wM = _eigs(K, glob.M.toarray())
    # the Neumann kernel is an exact zero computed as roundoff of either
    # sign, so it is counted rather than ordered
    (w1, n1), (w2, n2), (wM, nM) = (split_zero_modes(w) for w in (w1, w2, wM))
    assert n1 == n2 == nM
    scale = np.abs(wM)
    assert np.all(w1 <= w2 + 1e-9 * scale)
    assert np.all(w2 <= wM + 1e-9 * scale)


def test_multipatch_extreme_eigs_bounded_by_locals():
    patches, interfaces = plate_quarter_hole_2patch()
    kv = make_open_uniform(5, 2, 1)
    spaces = [SplineSpace([kv, kv]) for _ in patches]
    topo = MultipatchTopology(spaces, interfaces)
    glob, locs = assemble_multipatch(topo, patches, ONE)
    w = _eigs(glob.K.toarray(), glob.M.toarray())
    lo, hi = [], []
    for q in locs:
        wl = _eigs(q.K.toarray(), q.M.toarray())
        lo.append(wl[0])
        hi.append(wl[-1])
    assert w[-1] <= max(hi) + 1e-9 * max(hi)
    assert w[0] >= min(lo) - 1e-9 * max(hi)


# ------------------------------------------------------------- pad lump trim

def test_pad_lump_trim_all_active():
    B = random_structured_spd((5, 4), (3, 2), np.random.default_rng(9))
    n = B.shape[0]
    got = lump_pieces([(B, np.arange(n))], n, i=2)
    np.testing.assert_allclose(got.toarray(),
                               block_lumped_family(B, 2).toarray(), atol=0)


def _dense_pad_lump_trim(Mt, active, dims, bandwidths, kind):
    """Oracle: pad densely, lump, restrict to the active dofs."""
    n = int(np.prod(dims))
    padded = np.zeros((n, n))
    padded[np.ix_(active, active)] = Mt.toarray()
    P = HierBandedMatrix(sp.csr_matrix(padded), dims, bandwidths)
    lumped = (block_lumped_family(P, kind['i']) if 'i' in kind
              else hierarchical_lump(P, kind['level']))
    return lumped.toarray()[np.ix_(active, active)]


def _trimmed_piece(Mt, active, dims, bandwidths):
    """Mt padded with zeros to the grid dims, mapped back to its dofs."""
    n = int(np.prod(dims))
    to_sys = np.full(n, -1)
    to_sys[active] = np.arange(len(active))
    coo = sp.coo_matrix(Mt)
    padded = sp.csr_matrix((coo.data, (active[coo.row], active[coo.col])),
                           shape=(n, n))
    return HierBandedMatrix(padded, dims, bandwidths), to_sys


@pytest.mark.parametrize('kind', [dict(i=1), dict(i=2), dict(level=2)])
def test_pad_lump_trim_matches_dense_route(kind):
    rng = np.random.default_rng(10)
    B = random_structured_spd((5, 4), (3, 2), rng)
    n = B.shape[0]
    active = np.sort(rng.choice(n, size=14, replace=False))
    Mt = sp.csr_matrix(B.toarray()[np.ix_(active, active)])
    piece = _trimmed_piece(Mt, active, B.dims, B.bandwidths)
    got = lump_pieces([piece], len(active), **kind)
    want = _dense_pad_lump_trim(Mt, active, B.dims, B.bandwidths, kind)
    np.testing.assert_allclose(got.toarray(), want, atol=1e-14)
    # a pair from assemble_trimmed at an angle that leaves background dofs
    # inactive
    kv = make_open_uniform(8, 2, 1)
    space = SplineSpace([kv, kv])
    region = rotated_square_region(center=(0.51, 0.5), angle=0.35,
                                   half_side=0.3)
    pair = assemble_trimmed(space, unit_square(), region, ONE)
    (Bpad, to_sys), = pair.pieces
    active = np.flatnonzero(to_sys >= 0)
    assert len(active) < space.num_free
    got = lump_pieces(pair.pieces, len(active), **kind)
    want = _dense_pad_lump_trim(pair.M, active, Bpad.dims, Bpad.bandwidths,
                                kind)
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(got.toarray(), want, atol=1e-14 * scale)


def test_pad_lump_trim_rotated_square_spd():
    kv = make_open_uniform(8, 2, 1)
    space = SplineSpace([kv, kv])
    region = rotated_square_region(center=(0.51, 0.5), angle=0.35,
                                   half_side=0.3)
    pair = assemble_trimmed(space, unit_square(), region, ONE)
    for i in (1, 2):
        P = lump_pieces(pair.pieces, pair.M.shape[0], i=i)
        np.linalg.cholesky(P.toarray())


# ------------------------------------------------------------------ property

@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 4), st.integers(0, 1000),
       st.booleans())
def test_family_symmetric_and_sum_preserving(n1, n2, seed, deep):
    rng = np.random.default_rng(seed)
    dims = (n1, n2, 2) if deep else (n1, n2)
    bw = tuple(min(2, m - 1) for m in dims)
    B = random_structured_spd(dims, bw, rng, nsamples=2 * n1 * n2)
    e = np.ones(B.shape[0])
    for i in range(1, n1 + 1):
        P = block_lumped_family(B, i)
        A = P.toarray()
        assert np.max(np.abs(A - A.T)) <= 1e-12 * max(np.max(np.abs(A)), 1)
        np.testing.assert_allclose(P @ e, B @ e, atol=1e-12 * np.max(np.abs(A)))