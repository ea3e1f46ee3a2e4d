"""End-to-end acceptance checks, one test per numbered criterion.

Each test states a headline guarantee of the library at its stated
tolerance and verifies it against dense-oracle eigensolves on desk-scale
meshes. Run with -v to get one pass/fail line per criterion.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from igalump.assembly import (assemble_multipatch, assemble_single_patch,
                              assemble_trimmed, jacobi_rescale)
from igalump.dynamics import stability_boundary, step_count
from igalump.experiments import parse_config, run_convergence, \
    run_deflate_ratio
from igalump.geometry import (MultipatchTopology, magnet, outer_faces,
                              plate_quarter_hole, plate_quarter_hole_2patch,
                              rotated_square_region, stretched_square,
                              unit_cube, unit_square)
from igalump.linalg import (FactorizedOperator, banded_cholesky,
                            dense_generalized_eig, schur_saddle_factor)
from igalump.lumping import (block_lumped_family, hier_bandwidth,
                             hierarchical_lump, lump_pieces, lump_rowsum,
                             _measured_bandwidth)
from igalump.spectral import (cfl_gain, critical_timestep, deflate, lanczos,
                              scaled_mass_solve, split_zero_modes)
from igalump.splines import SplineSpace, make_open_uniform

ONE = lambda *xs: 1.0


def tensor_pair(patch, p, subs, dirichlet):
    kvs = [make_open_uniform(n, p, p - 1) for n in subs]
    flags = ((dirichlet, dirichlet),) * len(subs)
    space = SplineSpace(kvs, dirichlet=flags)
    return assemble_single_patch(space, patch, ONE)


def eigvals(A, B):
    return dense_generalized_eig(A, B)[0]


@pytest.fixture(scope='module')
def stretched():
    return tensor_pair(stretched_square(), 3, (12, 12), True)


@pytest.fixture(scope='module')
def plate():
    return tensor_pair(plate_quarter_hole(), 3, (16, 8), True)


@pytest.fixture(scope='module')
def magnet_pair():
    return tensor_pair(magnet(), 2, (6, 6, 6), False)


def test_criterion_01_block_family_spectral_inclusion(stretched, plate):
    for pair in (stretched, plate):
        for i in (1, 2, 3):
            P = block_lumped_family(pair.M, i)
            w = eigvals(pair.M, P)
            assert w[0] > 0.0
            assert w[-1] <= 1.0 + 1e-9
            assert w[-1] == pytest.approx(1.0, abs=1e-8)


def test_criterion_02_block_family_eigenvalue_monotonicity(stretched, plate):
    for pair in (stretched, plate):
        wM = eigvals(pair.K, pair.M)
        w1, w2, w3 = (eigvals(pair.K, block_lumped_family(pair.M, i))
                      for i in (1, 2, 3))
        tol = 1e-9 * np.abs(wM)
        assert np.all(w1 <= w2 + tol)
        assert np.all(w2 <= w3 + tol)
        assert np.all(w3 <= wM + tol)


def test_criterion_03_hierarchical_level_order(magnet_pair):
    K, M = magnet_pair.K, magnet_pair.M
    mats = [M] + [hierarchical_lump(M, k) for k in (1, 2, 3)]
    diff = np.abs(mats[3].toarray() - lump_rowsum(M).toarray())
    assert diff.max() <= 1e-13
    # level k+1 block-lumps level k one level deeper, which adds
    # sum_{i<j} (x_i - x_j)^T B_ij (x_i - x_j) >= 0 for semidefinite blocks
    # (a mass with nonnegative density has them).  So M <= H1 <= H2 <= H3
    # in the Loewner order, and by Courant-Fischer every eigenvalue of
    # (K, H_k) can only fall as k grows: w[3] <= w[2] <= w[1] <= w[0].
    names = ('M', 'H1', 'H2', 'H3')
    w = [eigvals(K, A) for A in mats]
    for k in (1, 2, 3):
        lo, hi = names[k], names[k - 1]
        # absolute tolerance: the Neumann zero mode sits near 1e-13
        excess = w[k] - w[k - 1]
        j = int(np.argmax(excess))
        assert excess[j] <= 1e-9, (
            f'{lo} vs {hi}: eigenvalue {j} of {lo} exceeds that of {hi} '
            f'by {excess[j]:.3e}')
        # every level lumps more, so the top eigenvalue must really drop
        drop = w[k - 1][-1] - w[k][-1]
        assert drop > 1e-9, (
            f'{lo} vs {hi}: top eigenvalue {len(w[k]) - 1} drops by '
            f'{drop:.3e}, not by more than 1e-9')


def test_criterion_04_bandwidth_formula():
    cube = unit_cube()
    for p, N in ((2, 6), (3, 4)):
        kvs = [make_open_uniform(N, p, p - 1) for _ in range(3)]
        pair = assemble_single_patch(SplineSpace(kvs), cube, ONE)
        mats = [pair.M] + [hierarchical_lump(pair.M, k) for k in (1, 2, 3)]
        for A in mats:
            assert A.measured_bandwidth() == hier_bandwidth(A.bandwidths,
                                                            A.dims)


def test_criterion_05_deflation_theorem(stretched):
    K, M = stretched.K, stretched.M
    w, U = dense_generalized_eig(K, M)
    n, r = len(w), 10
    assert n <= 300
    eigendata = (w[::-1][:r + 1], U[:, ::-1][:, :r + 1])
    for mode in ('scale-stiffness', 'scale-mass'):
        pencil = deflate(K, M, r, mode, eigendata)
        wbar, Ubar = dense_generalized_eig(*pencil.dense_pair())
        assert wbar[:n - r] == pytest.approx(w[:n - r], rel=1e-8)
        assert wbar[n - r:] == pytest.approx(w[n - r - 1], rel=1e-8)
        low = scipy.linalg.subspace_angles(U[:, :n - r - 1],
                                           Ubar[:, :n - r - 1])
        assert low.max() <= 1e-6
        # the top r merge with lambda_{n-r} into one r+1 dim eigenspace
        top = scipy.linalg.subspace_angles(U[:, n - r - 1:],
                                           Ubar[:, n - r - 1:])
        assert top.max() <= 1e-6


def test_criterion_06_woodbury_matches_dense():
    pair = tensor_pair(unit_square(), 2, (10, 10), True)
    K, M = pair.K, pair.M
    w, U = dense_generalized_eig(K, M)
    base = banded_cholesky(M, M.scalar_bandwidth())
    rng = np.random.default_rng(0)
    R = rng.normal(size=(len(w), 20))
    for r in (1, 5, 20):
        eigendata = (w[::-1][:r + 1], U[:, ::-1][:, :r + 1])
        pencil = deflate(K, M, r, 'scale-mass', eigendata)
        Bbar = pencil.dense_pair()[1]
        X = np.linalg.solve(Bbar, R)
        Y = scaled_mass_solve(pencil, base, R)
        rel = np.linalg.norm(Y - X, axis=0) / np.linalg.norm(X, axis=0)
        assert rel.max() <= 1e-10


def test_criterion_07_lanczos_oracle_agreement(plate):
    P1 = block_lumped_family(plate.M, 1)
    dense_top = eigvals(plate.K, P1)[-10:]
    factor = banded_cholesky(P1, P1.scalar_bandwidth())

    def run():
        return lanczos(plate.K, factor, P1, 10, seed=0)

    first, second = run(), run()
    assert np.all(first.converged)
    assert np.sort(first.values) == pytest.approx(dense_top, rel=1e-3)
    assert first.n_iter > 0
    assert (first.n_iter, first.n_matvec) == (second.n_iter, second.n_matvec)
    assert np.array_equal(first.values, second.values)


def test_criterion_08_convergence_rates(tmp_path):
    cfg_path = tmp_path / 'conv.cfg'
    # base 8 so all four levels sit in the asymptotic regime of the
    # lumped schemes; H2 here is row-sum lumping, whose transient
    # stretches past desk scale, so the banded level H1 carries the check
    cfg_path.write_text(
        'kind = convergence\ngeometry = unit_square\np = 3\nlevels = 4\n'
        'subdivisions = 8\npencils = M P1 H1\ndensity = nonseparable\n'
        'out = %s\n' % (tmp_path / 'out'))
    files = run_convergence(parse_config(str(cfg_path)))
    rows = np.genfromtxt(files[1], delimiter=',', names=True, dtype=None,
                         encoding='utf-8')
    slopes = dict(zip(rows['label'], rows['slope']))
    assert slopes['M'] >= 5.5
    for label in ('P1', 'H1'):
        assert 1.7 <= slopes[label] <= 2.3


def test_criterion_09_stability_boundary_and_cfl_gain(plate):
    pair = tensor_pair(unit_square(), 2, (8, 8), True)
    for Mvar in (pair.M, block_lumped_family(pair.M, 1)):
        lam = eigvals(pair.K, Mvar)[-1]
        dtc = critical_timestep(lam)
        factor = banded_cholesky(Mvar, Mvar.scalar_bandwidth())
        est = stability_boundary(factor, pair.K, dtc, seed=0)
        assert abs(est - dtc) <= 0.03 * dtc

    P1 = block_lumped_family(plate.M, 1)
    w, U = dense_generalized_eig(plate.K, P1)
    n, r = len(w), 20
    pencil = deflate(plate.K, P1, r, 'scale-mass',
                     (w[::-1][:r + 1], U[:, ::-1][:, :r + 1]))
    gain = cfl_gain(w[-1], pencil.lam_cut)
    assert gain == pytest.approx(math.sqrt(w[-1] / w[n - r - 1]), rel=1e-10)
    base = banded_cholesky(P1, P1.scalar_bandwidth())
    dt_plain = stability_boundary(base, plate.K, critical_timestep(w[-1]),
                                  seed=1)
    scaled = FactorizedOperator(
        n, lambda rhs: scaled_mass_solve(pencil, base, rhs))
    dt_scaled = stability_boundary(scaled, plate.K,
                                   critical_timestep(pencil.lam_cut), seed=1)
    assert dt_scaled / dt_plain == pytest.approx(gain, rel=0.05)


def test_criterion_10_iteration_ratio_study(tmp_path):
    cfg_path = tmp_path / 'ratio.cfg'
    cfg_path.write_text('kind = deflate-ratio\nout = %s\n'
                        % (tmp_path / 'out'))
    files = run_deflate_ratio(parse_config(str(cfg_path)))
    rows = np.genfromtxt(files[0], delimiter=',', names=True)
    for r in (10, 20, 40):
        ratios = rows[rows['rank'] == r]['ratio']
        assert len(ratios) >= 3
        assert ratios[0] > 1.0
        assert ratios[-1] < 1.0
        assert np.all(np.diff(ratios) < 0.0)


def test_criterion_11_multipatch_plate():
    patches, interfaces = plate_quarter_hole_2patch()
    outer = set(outer_faces(patches, interfaces))
    spaces = []
    for ip in range(len(patches)):
        kvs = [make_open_uniform(8, 3, 2), make_open_uniform(8, 3, 2)]
        flags = tuple(tuple((ip, l, s) in outer for s in (0, 1))
                      for l in range(2))
        spaces.append(SplineSpace(kvs, dirichlet=flags))
    topo = MultipatchTopology(spaces, interfaces)
    glob, locs = assemble_multipatch(topo, patches, ONE)
    K = glob.K
    Ps = {i: lump_pieces(glob.pieces, topo.n_global, i=i) for i in (1, 2, 3)}

    wM = eigvals(K, glob.M)
    w1, w2, w3 = (eigvals(K, Ps[i]) for i in (1, 2, 3))
    tol = 1e-9 * np.abs(wM)
    assert np.all(w1 <= w2 + tol)
    assert np.all(w2 <= w3 + tol)
    assert np.all(w3 <= wM + tol)

    lam_local = max(eigvals(loc.K, loc.M)[-1] for loc in locs)
    assert wM[-1] <= lam_local + 1e-9

    op = schur_saddle_factor(Ps[2], topo.interface_globals())
    dense = Ps[2].toarray()
    rng = np.random.default_rng(3)
    for _ in range(20):
        rhs = rng.normal(size=dense.shape[0])
        x = op.solve(rhs)
        ref = np.linalg.solve(dense, rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    from igalump.spectral import local_stiffness_scale
    Kbar = K.toarray()
    for loc, l2g in zip(locs, topo.l2g):
        P1_r = block_lumped_family(loc.M, 1)
        sp = local_stiffness_scale(loc.K, P1_r, rank=5, seed=0)
        pert = sp.dense_pair()[0] - loc.K.toarray()
        Kbar[np.ix_(l2g, l2g)] += pert
    for i in (1, 2, 3):
        wbar = scipy.linalg.eigh(Kbar, Ps[i].toarray(), eigvals_only=True)
        assert np.all(wbar <= eigvals(K, Ps[i]) + 1e-9)


def test_criterion_12_trimmed_rotated_square():
    square = unit_square()
    for p in (2, 3):
        kvs = [make_open_uniform(20, p, p - 1) for _ in range(2)]
        space = SplineSpace(kvs)
        region = rotated_square_region(center=(0.5, 0.5), angle=0.3,
                                       half_side=0.35)
        pair = assemble_trimmed(space, square, region, ONE)

        def rescaled_eigvals(Mvar):
            A, B = jacobi_rescale(pair.K, Mvar)
            return eigvals(A, B)

        wM = rescaled_eigvals(pair.M)
        variants = {}
        for i in (1, 2):
            P = lump_pieces(pair.pieces, pair.M.shape[0], i=i)
            _A, B = jacobi_rescale(pair.K, P)
            banded_cholesky(B, _measured_bandwidth(B))  # SPD or it raises
            variants[i] = P
        for i in (1, 2):
            wP = rescaled_eigvals(variants[i])
            _km, drop_m = split_zero_modes(wM)
            _kp, drop_p = split_zero_modes(wP)
            d = max(drop_m, drop_p)
            assert np.all(wP[d:] <= wM[d:] + 1e-9)
        w_rowsum = rescaled_eigvals(lump_rowsum(pair.M))
        w_p1 = rescaled_eigvals(variants[1])
        assert w_rowsum[-1] <= w_p1[-1]


def test_criterion_13_step_count_orderings(magnet_pair):
    K, M = magnet_pair.K, magnet_pair.M
    lams = [eigvals(K, M)[-1]]
    lams += [eigvals(K, hierarchical_lump(M, k))[-1] for k in (1, 2, 3)]
    counts = [step_count(10.0, lam) for lam in lams]
    assert counts[0] > counts[1] > counts[2] > counts[3]
