"""Eigensolver and deflation checks against the dense oracle."""

import cProfile
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.linalg import norm

from igalump.assembly import assemble_single_patch
from igalump.experiments import ExperimentConfig, _spectrum_rows, _write_csv
from igalump.geometry import plate_quarter_hole, quarter_annulus
from igalump.linalg import (FactorizedOperator, banded_cholesky,
                            dense_generalized_eig)
from igalump.lumping import block_lumped_family
from igalump.spectral import (ScaledPencil, cfl_gain, critical_timestep,
                              deflate, lanczos, local_stiffness_scale,
                              scaled_mass_solve, split_zero_modes)
from igalump.splines import SplineSpace, make_open_uniform
from spectrum_csv import read_spectrum_csv
from structured_spd import random_structured_spd

ONE = lambda *xs: 1.0


def random_pencil(n, seed, band=3):
    rng = np.random.default_rng(seed)
    B = random_structured_spd((n,), (band,), rng)
    A = rng.normal(size=(n, n))
    A = A + A.T + 2 * n * np.eye(n)
    return A, B


def plate_pencil(nel=(8, 4), p=3):
    kvx = make_open_uniform(nel[0], p, p - 1)
    kvy = make_open_uniform(nel[1], p, p - 1)
    space = SplineSpace([kvx, kvy])
    pair = assemble_single_patch(space, plate_quarter_hole(), ONE)
    return pair.K, pair.M


def identity_solve(n):
    return FactorizedOperator(n, lambda rhs: rhs)


# -------------------------------------------------------------------- config

def test_config_defaults_and_validation():
    A, B = random_pencil(40, seed=5)
    base = banded_cholesky(B, 3)
    # m defaults to 2k: the pass before the first restart fills 10 columns
    res = lanczos(A, base, B, 5, max_restarts=0)
    assert res.n_matvec == 10 and res.n_restarts == 0
    # tol defaults to 1e-3
    np.testing.assert_array_equal(res.converged, res.residuals <= 1e-3)
    with pytest.raises(ValueError):
        lanczos(A, base, B, 0)
    with pytest.raises(ValueError):
        lanczos(A, base, B, 4, m=3)
    with pytest.raises(ValueError):
        lanczos(A, base, B, 2, tol=0.0)


# ------------------------------------------------------------------- lanczos

def test_lanczos_refuses_a_solve_that_is_not_a_factor():
    A = np.diag(np.arange(1.0, 9.0))
    for solve in (np.eye(8), lambda rhs: rhs):
        with pytest.raises(TypeError, match='FactorizedOperator'):
            lanczos(A, solve, np.eye(8), 2)


def test_lanczos_diagonal_pencil():
    A = np.diag(np.arange(1.0, 11.0))
    res = lanczos(A, identity_solve(10), np.eye(10), 2, tol=1e-10, seed=1)
    np.testing.assert_allclose(res.values, [10.0, 9.0], atol=1e-8)
    assert res.converged.all()


def equal_pencil():
    """A = B: every recurrence step breaks down."""
    rng = np.random.default_rng(2)
    B = random_structured_spd((12,), (2,), rng)
    return B, B


def explicit_residuals(A, B, res):
    """|A y - lam B y| / (max(|lam|, floor) |B y|), floor 1e-8 max |lam|."""
    Y, lam = res.vectors, res.values
    BY = B @ Y
    floor = 1e-8 * np.max(np.abs(lam))
    return (norm(A @ Y - BY * lam, axis=0)
            / (np.maximum(np.abs(lam), floor) * norm(BY, axis=0)))


def test_lanczos_equal_pencil_is_flat():
    A, B = equal_pencil()
    base = banded_cholesky(B, 2)
    applies = []

    class CountedB:
        shape = B.shape

        def __matmul__(self, x):
            applies.append(np.ndim(x))
            return B @ x

    res = lanczos(A, base, CountedB(), 3, seed=0)
    np.testing.assert_allclose(res.values, np.ones(3), atol=1e-10)
    assert res.converged.all()
    # with A = B each recurrence step breaks down (5 of them here) and a
    # fresh random vector takes its place; the run is pinned bit for bit
    assert (res.n_iter, res.n_matvec, res.n_restarts) == (5, 6, 0)
    want = np.array([1.0000000000000002, 1.0000000000000002, 1.0])
    assert res.values.tobytes() == want.tobytes()
    # one B apply per Gram-Schmidt pass: 6 columns and 5 replaced
    # breakdowns take 11 first passes, and the 2 cancelling steps whose first
    # pass leaves more than the breakdown level a second; the residual check
    # applies B once to the projected last column, for the Lanczos
    # relation, and once to the 3 Ritz vectors at once, for their norms
    assert applies == [1] * 13 + [1, 2]
    G = res.vectors.T @ (B @ res.vectors)
    assert np.max(np.abs(G - np.eye(3))) <= 1e-12


@pytest.mark.parametrize('case', ['restarted', 'breakdowns'])
def test_lanczos_relation_residuals_match_explicit(case):
    # the residuals come from A y - lam B y = S[m-1, i] r, not from applying
    # A and B to the Ritz vectors; they must agree with the explicit ones
    if case == 'restarted':
        A, B = random_pencil(60, seed=3)
        res = lanczos(A, banded_cholesky(B, 3), B, 6, m=8, tol=1e-8,
                      max_restarts=3, seed=4)
        assert res.n_restarts == 3
    else:
        A, B = equal_pencil()
        res = lanczos(A, banded_cholesky(B, 2), B, 3, seed=0)
    explicit = explicit_residuals(A, B, res)
    seen = explicit > 1e-10
    np.testing.assert_allclose(res.residuals[seen], explicit[seen], rtol=1e-6)
    # below that the explicit value is rounding, and the relation's is less
    assert np.all(res.residuals[~seen] <= 1e-10)


def test_lanczos_matches_dense_oracle_random():
    A, B = random_pencil(60, seed=3)
    base = banded_cholesky(B, 3)
    res = lanczos(A, base, B, 6, tol=1e-8, seed=4)
    w, _ = dense_generalized_eig(A, B)
    assert res.converged.all()
    np.testing.assert_allclose(res.values, w[::-1][:6], rtol=1e-7)
    # returned vectors stay B-orthonormal
    G = res.vectors.T @ (B.toarray() @ res.vectors)
    assert np.max(np.abs(G - np.eye(6))) <= 1e-8


def test_lanczos_plate_block_lumped_pencil():
    K, M = plate_pencil()
    P1 = block_lumped_family(M, 1)
    base = banded_cholesky(P1, P1.measured_bandwidth())
    res = lanczos(K, base, P1, 10, seed=0)
    w, _ = dense_generalized_eig(K, P1)
    assert res.converged.all()
    np.testing.assert_allclose(res.values, w[::-1][:10], rtol=1e-3)
    assert np.all(res.residuals[res.converged] <= 1e-3)
    G = res.vectors.T @ (P1 @ res.vectors)
    assert np.max(np.abs(G - np.eye(10))) <= 1e-12


def test_lanczos_thick_restart_keeps_ritz_vectors_b_orthonormal():
    # one Gram-Schmidt pass per step, a second only when the first cancels;
    # m = k + 2 restarts the basis 11 times before every pair converges
    A, B = random_pencil(60, seed=3)
    base = banded_cholesky(B, 3)
    res = lanczos(A, base, B, 6, m=8, tol=1e-8, seed=4)
    assert res.converged.all() and res.n_restarts == 11
    G = res.vectors.T @ (B @ res.vectors)
    assert np.max(np.abs(G - np.eye(6))) <= 1e-12


def test_lanczos_working_set_is_one_basis():
    # V is n x m and the only array of that size: the projected matrix comes
    # from the Gram-Schmidt coefficients and the residuals from the Lanczos
    # relation, so no stiffness image AV (2.3 n m with it) is held
    n, k, m = 3000, 80, 160
    rng = np.random.default_rng(8)
    off = [rng.random(n - j) for j in (1, 2, 3)]
    B = sp.diags(off[::-1] + [6.5 + rng.random(n)] + off, range(-3, 4),
                 format='csr')
    off = [rng.normal(size=n - j) for j in (1, 2, 3)]
    A = sp.diags(off[::-1] + [rng.normal(size=n)] + off, range(-3, 4),
                 format='csr')
    base = banded_cholesky(B, 3)
    tracemalloc.start()
    try:
        res = lanczos(A, base, B, k, m=m, max_restarts=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_restarts == 1
    assert peak < 1.5 * n * m * 8, peak / (n * m * 8)
    # the Ritz vectors own an n x k buffer: the basis, shrunk in place
    assert res.vectors.flags.owndata and res.vectors.base is None
    assert res.vectors.shape == (n, k) and res.vectors.flags.f_contiguous


@pytest.mark.parametrize('n, seed, k, m, start, counts', [
    (80, 1, 5, 10, 0, (79, 80, 14)),
    (100, 2, 6, 12, 1, (35, 36, 4)),
])
def test_lanczos_counts_survive_the_restart(n, seed, k, m, start, counts):
    # after a thick restart the basis continues from B^-1 r, the direction
    # the first step used to rebuild from the k-th Ritz vector, so the
    # Krylov space and the counts are those of the explicit-projection solver
    A, B = random_pencil(n, seed)
    res = lanczos(A, banded_cholesky(B, 3), B, k, m=m, tol=1e-10, seed=start)
    assert res.converged.all()
    assert (res.n_iter, res.n_matvec, res.n_restarts) == counts


def test_lanczos_deterministic_per_seed():
    A, B = random_pencil(40, seed=5)
    base = banded_cholesky(B, 3)
    runs = [lanczos(A, base, B, 4, seed=11)
            for _ in range(2)]
    assert runs[0].n_iter == runs[1].n_iter
    assert runs[0].n_matvec == runs[1].n_matvec
    np.testing.assert_array_equal(runs[0].values, runs[1].values)


def test_lanczos_runs_the_same_under_a_profiler():
    # a profiler takes a bound method of each C call, one more reference to
    # the basis while it is shrunk in place to the Ritz vectors
    A, B = random_pencil(80, seed=1)
    base = banded_cholesky(B, 3)

    def run():
        res = lanczos(A, base, B, 5, m=10, tol=1e-10, seed=0)
        return res.values, (res.n_iter, res.n_matvec, res.n_restarts)

    want = run()
    sys.setprofile(lambda frame, event, arg: None)
    try:
        got = [run()]
    finally:
        sys.setprofile(None)
    prof = cProfile.Profile()
    got.append(prof.runcall(run))
    for values, counts in got:
        assert values.tobytes() == want[0].tobytes()
        assert counts == want[1]


def test_lanczos_reports_unconverged_instead_of_raising():
    A, B = random_pencil(50, seed=6)
    base = banded_cholesky(B, 3)
    res = lanczos(A, base, B, 8, m=9, tol=1e-15, max_restarts=0, seed=0)
    assert not res.converged.all()
    assert len(res.values) == 8
    assert res.n_restarts == 0


def test_lanczos_converges_on_kernel_mode_with_k_equal_n():
    # Neumann square: K has a one-dimensional kernel, the constants
    kv = make_open_uniform(4, 2, 1)
    from igalump.geometry import unit_square
    pair = assemble_single_patch(SplineSpace([kv, kv]), unit_square(),
                                 ONE)
    n = pair.K.shape[0]
    base = banded_cholesky(pair.M, pair.M.scalar_bandwidth())
    res = lanczos(pair.K, base, pair.M, n, seed=0)
    w, _ = dense_generalized_eig(pair.K, pair.M)
    assert res.converged.all()
    assert abs(res.values[-1]) <= 1e-8 * w[-1]
    np.testing.assert_allclose(res.values[:-1], w[::-1][:-1], rtol=1e-6)


def test_lanczos_counts_positive():
    A = np.diag(np.arange(1.0, 9.0))
    res = lanczos(A, identity_solve(8), np.eye(8), 2, seed=0)
    assert res.n_iter > 0 and res.n_matvec >= res.n_iter


# ------------------------------------------------------------------ deflate

def test_deflate_rank_zero_is_identity():
    A, B = random_pencil(20, seed=7)
    w, V = dense_generalized_eig(A, B)
    pencil = deflate(A, B, 0, 'scale-mass', (w[::-1], V[:, ::-1]))
    assert pencil.lam_cut == pytest.approx(w[-1])
    Abar, Bbar = pencil.dense_pair()
    np.testing.assert_allclose(Abar, A, atol=0)
    np.testing.assert_allclose(Bbar, B.toarray(), atol=0)


@pytest.mark.parametrize('mode', ['scale-stiffness', 'scale-mass'])
def test_deflate_three_by_three(mode):
    A = np.diag([1.0, 2.0, 10.0])
    pencil = deflate(A, np.eye(3), 1, mode,
                     (np.array([10.0, 2.0, 1.0]), np.eye(3)[:, ::-1]))
    assert pencil.lam_cut == pytest.approx(2.0)
    Abar, Bbar = pencil.dense_pair()
    w, _ = dense_generalized_eig(Abar, Bbar)
    np.testing.assert_allclose(w, [1.0, 2.0, 2.0], atol=1e-12)


@pytest.mark.parametrize('mode', ['scale-stiffness', 'scale-mass'])
def test_deflation_theorem_random_pencil(mode):
    n, r = 80, 10
    A, B = random_pencil(n, seed=8)
    w, V = dense_generalized_eig(A, B)
    pencil = deflate(A, B, r, mode, (w[::-1], V[:, ::-1]))
    Abar, Bbar = pencil.dense_pair()
    wbar, Vbar = dense_generalized_eig(Abar, Bbar)
    np.testing.assert_allclose(wbar[:n - r], w[:n - r], rtol=1e-8)
    np.testing.assert_allclose(wbar[n - r:], np.full(r, w[n - r - 1]),
                               rtol=1e-8)
    # untouched eigenvectors match one by one, deflated ones as a subspace
    for j in range(n - r - 1):
        c = abs(V[:, j] @ (B.toarray() @ Vbar[:, j]))
        assert np.arccos(min(c, 1.0)) <= 1e-6
    top = scipy.linalg.subspace_angles(V[:, n - r - 1:], Vbar[:, n - r - 1:])
    assert np.max(top) <= 1e-6


def test_deflate_rejects_unconverged():
    # local_stiffness_scale refuses the pairs its eigensolve left unconverged
    K, P = quarter_annulus_pencil()
    with pytest.raises(ValueError, match='eigendata contains unconverged '
                       'pairs'):
        local_stiffness_scale(K, P, 8, tol=1e-15, max_restarts=0)


def test_deflate_rejects_large_rank():
    A, B = random_pencil(16, seed=10)
    w, V = dense_generalized_eig(A, B)
    with pytest.raises(ValueError, match='rank'):
        deflate(A, B, 8, 'scale-mass', (w[::-1], V[:, ::-1]))


def test_deflate_rejects_bad_mode_and_vectors():
    A, B = random_pencil(12, seed=11)
    w, V = dense_generalized_eig(A, B)
    with pytest.raises(ValueError, match='mode'):
        deflate(A, B, 1, 'both', (w[::-1], V[:, ::-1]))
    with pytest.raises(ValueError, match='orthonormal'):
        deflate(A, B, 2, 'scale-mass', (w[::-1], 3.7 * V[:, ::-1]))


def test_scaled_pencil_effective_spectrum_truncates():
    # the advertised CFL quantities follow directly from lam_cut
    A, B = random_pencil(40, seed=12)
    w, V = dense_generalized_eig(A, B)
    pencil = deflate(A, B, 5, 'scale-mass', (w[::-1], V[:, ::-1]))
    gain = cfl_gain(w[-1], pencil.lam_cut)
    assert gain >= 1.0
    assert critical_timestep(pencil.lam_cut) \
        == pytest.approx(gain * critical_timestep(w[-1]))


# --------------------------------------------------------- scaled mass solve

def test_scaled_mass_solve_rank_zero():
    A, B = random_pencil(15, seed=13)
    w, V = dense_generalized_eig(A, B)
    pencil = deflate(A, B, 0, 'scale-mass', (w[::-1], V[:, ::-1]))
    base = banded_cholesky(B, 3)
    rhs = np.arange(15.0)
    np.testing.assert_allclose(scaled_mass_solve(pencil, base, rhs),
                               base.solve(rhs), atol=0)


def test_scaled_mass_solve_eigenvector_map():
    n, r = 60, 6
    A, B = random_pencil(n, seed=14)
    w, V = dense_generalized_eig(A, B)
    pencil = deflate(A, B, r, 'scale-mass', (w[::-1], V[:, ::-1]))
    base = banded_cholesky(B, 3)
    Bd = B.toarray()
    for j in range(n - r, n):
        u = V[:, j]
        rhs = (w[j] / pencil.lam_cut) * (Bd @ u)
        np.testing.assert_allclose(scaled_mass_solve(pencil, base, rhs), u,
                                   atol=1e-8)


def test_scaled_mass_solve_matches_dense():
    n, r = 50, 5
    A, B = random_pencil(n, seed=15)
    w, V = dense_generalized_eig(A, B)
    pencil = deflate(A, B, r, 'scale-mass', (w[::-1], V[:, ::-1]))
    np.testing.assert_array_equal(pencil.fD2, np.zeros(r))
    base = banded_cholesky(B, 3)
    _, Bbar = pencil.dense_pair()
    rng = np.random.default_rng(16)
    for _ in range(5):
        rhs = rng.normal(size=n)
        np.testing.assert_allclose(scaled_mass_solve(pencil, base, rhs),
                                   np.linalg.solve(Bbar, rhs), atol=1e-10)


def test_scaled_mass_solve_skips_unperturbed_directions():
    # a repeated eigenvalue at the cutoff makes g(D2) vanish there
    A = np.diag([1.0, 2.0, 5.0, 5.0, 9.0])
    w, V = dense_generalized_eig(A, np.eye(5))
    pencil = deflate(A, np.eye(5), 2, 'scale-mass', (w[::-1], V[:, ::-1]))
    assert np.any(pencil.gD2 == 0.0)
    base = banded_cholesky(np.eye(5), 0)
    _, Bbar = pencil.dense_pair()
    rhs = np.array([1.0, -1.0, 2.0, 0.5, 3.0])
    np.testing.assert_allclose(scaled_mass_solve(pencil, base, rhs),
                               np.linalg.solve(Bbar, rhs), atol=1e-12)


def test_scaled_mass_solve_of_stiffness_pencil_is_base_solve():
    # a stiffness update leaves the mass alone: gD2 = 0, no correction
    A, B = random_pencil(12, seed=17)
    w, V = dense_generalized_eig(A, B)
    pencil = deflate(A, B, 1, 'scale-stiffness', (w[::-1], V[:, ::-1]))
    np.testing.assert_array_equal(pencil.gD2, np.zeros(1))
    base = banded_cholesky(B, 3)
    rhs = np.arange(12.0) - 4.0
    np.testing.assert_array_equal(scaled_mass_solve(pencil, base, rhs),
                                  base.solve(rhs))


# ----------------------------------------------------- local stiffness scale

def quarter_annulus_pencil(p=2, nel=6):
    kv = make_open_uniform(nel, p, p - 1)
    space = SplineSpace([kv, kv])
    pair = assemble_single_patch(space, quarter_annulus(), ONE)
    return pair.K, block_lumped_family(pair.M, 1)


def test_local_scale_rank_zero_leaves_stiffness():
    K, P = quarter_annulus_pencil()
    pencil = local_stiffness_scale(K, P, 0)
    np.testing.assert_array_equal(pencil.dense_pair()[0], K.toarray())


def test_local_scale_perturbation_negative_semidefinite():
    K, P = quarter_annulus_pencil()
    pencil = local_stiffness_scale(K, P, 8, tol=1e-6)
    Kbar, _ = pencil.dense_pair()
    rng = np.random.default_rng(19)
    for _ in range(100):
        x = rng.normal(size=K.shape[0])
        drop = x @ (K @ x) - x @ (Kbar @ x)
        assert drop >= -1e-10 * (x @ x)


def test_local_scale_lowers_top_of_spectrum():
    K, P = quarter_annulus_pencil()
    w, _ = dense_generalized_eig(K, P)
    # the kernel eigenvalue of both dense solves is roundoff, a few 1e-14;
    # it is compared at 1e-12 of the largest eigenvalue, not 1e-9 of itself
    bound = np.maximum(1e-9 * np.abs(w), 1e-12 * w[-1])
    for seed in range(12):
        pencil = local_stiffness_scale(K, P, 8, tol=1e-8, seed=seed)
        Kbar, _ = pencil.dense_pair()
        wbar, _ = dense_generalized_eig(Kbar, P.toarray())
        assert wbar[-1] <= w[-1] + 1e-9, seed
        assert np.all(wbar <= w + bound), \
            (seed, np.flatnonzero(wbar > w + bound))
        assert wbar[-1] == pytest.approx(pencil.lam_cut, rel=1e-6), seed


# ----------------------------------------------------------------- utilities

def test_critical_timestep_values():
    assert critical_timestep(4.0) == 1.0
    assert critical_timestep(1.0) == 2.0
    with pytest.raises(ValueError):
        critical_timestep(0.0)


def test_cfl_gain_values():
    assert cfl_gain(9.0, 9.0) == 1.0
    assert cfl_gain(9.0, 4.0) == 1.5
    with pytest.raises(ValueError):
        cfl_gain(4.0, 9.0)
    with pytest.raises(ValueError):
        cfl_gain(4.0, 0.0)


def test_cfl_gain_monotone_in_rank():
    A, B = random_pencil(30, seed=20)
    w, _ = dense_generalized_eig(A, B)
    gains = [cfl_gain(w[-1], w[-1 - r]) for r in range(0, 7)]
    assert np.all(np.diff(gains) >= 0)


def test_split_zero_modes():
    kept, dropped = split_zero_modes([0.0, 1e-20, 0.5, 2.0])
    np.testing.assert_allclose(kept, [0.5, 2.0])
    assert dropped == 2


def test_split_zero_modes_neumann_pencil():
    kv = make_open_uniform(5, 2, 1)
    space = SplineSpace([kv, kv])
    from igalump.geometry import unit_square
    pair = assemble_single_patch(space, unit_square(), ONE)
    w, _ = dense_generalized_eig(pair.K, pair.M)
    kept, dropped = split_zero_modes(w)
    assert dropped == 1
    assert kept[0] > 1e-8 * w[-1]


def test_spectrum_csv_roundtrip(tmp_path):
    cfg = ExperimentConfig(kind='spectrum', out=str(tmp_path))
    spectra = [('M', np.array([0.5, 1.0, 2.0])),
               ('P1', np.array([0.25, 0.75]))]
    path = _write_csv(cfg, 'spectrum.csv', 'k,lambda,label',
                      _spectrum_rows(spectra))
    again = read_spectrum_csv(path)
    assert [label for label, _ in again] == ['M', 'P1']
    for (_, a), (_, b) in zip(spectra, again):
        np.testing.assert_array_equal(a, b)
    first = open(path, 'rb').read()
    _write_csv(cfg, 'spectrum.csv', 'k,lambda,label', _spectrum_rows(spectra))
    assert open(path, 'rb').read() == first
