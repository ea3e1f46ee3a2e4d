"""Integrator, error measurement and manufactured-problem checks."""

import math

import numpy as np
import pytest
import sympy

import igalump.dynamics as dynamics
from igalump.assembly import (assemble_single_patch, load_vector,
                              quadrature_grid)
from igalump.dynamics import (Trajectory, central_difference, l2_error,
                              l2_norm, manufactured_wave_problem,
                              plate_deflection, plate_deflection_laplacian,
                              stability_boundary, step_count)
from igalump.experiments import ExperimentConfig, _write_csv
from igalump.geometry import plate_quarter_hole, quarter_annulus, unit_square
from igalump.linalg import (FactorizedOperator, banded_cholesky,
                            dense_generalized_eig)
from igalump.spectral import critical_timestep
from igalump.splines import SplineSpace, eval_basis, make_open_uniform

ONE = lambda *xs: 1.0


def scalar_ops(m, k):
    return FactorizedOperator(1, lambda r: r / m), np.array([[float(k)]])


# ---------------------------------------------------------------- integrator

def test_constant_solution():
    solve, K = scalar_ops(1.0, 0.0)
    traj = central_difference(solve, K, None, [1.0], [0.0], 0.1, 1.0)
    np.testing.assert_allclose(traj.samples, np.ones((11, 1)), atol=0)
    assert traj.stable and traj.blown_up_at is None


def test_sample_count_in_non_divisible_horizon():
    solve, K = scalar_ops(1.0, 0.0)
    traj = central_difference(solve, K, None, [1.0], [0.0], 0.3, 1.0)
    assert len(traj.times) == math.floor(1.0 / 0.3) + 1
    assert traj.nsteps == 3


def test_oscillator_bounded_below_critical_step():
    omega = 3.0
    solve, K = scalar_ops(1.0, omega ** 2)
    dt = 0.85 * (2.0 / omega)
    traj = central_difference(solve, K, None, [1.0], [0.0], dt, 10000 * dt)
    assert traj.stable
    assert np.max(np.abs(traj.samples)) <= 1.0 + 1e-6


def test_oscillator_blows_up_above_critical_step():
    omega = 3.0
    solve, K = scalar_ops(1.0, omega ** 2)
    dt = 1.05 * (2.0 / omega)
    traj = central_difference(solve, K, None, [1.0], [0.0], dt, 500 * dt)
    assert not traj.stable
    assert traj.blown_up_at is not None and traj.blown_up_at < 500


def test_zero_data_stays_zero():
    solve, K = scalar_ops(1.0, 4.0)
    traj = central_difference(solve, K, None, [0.0], [0.0], 0.05, 1.0)
    np.testing.assert_array_equal(traj.samples, 0.0)
    assert traj.stable


def test_second_order_convergence_in_time():
    omega = 2.0
    solve, K = scalar_ops(1.0, omega ** 2)
    T = 1.0
    errs = []
    steps = [40, 80, 160, 320]
    for N in steps:
        dt = T / N
        traj = central_difference(solve, K, None, [1.0], [0.0], dt, T)
        errs.append(abs(traj.samples[-1, 0] - math.cos(omega * T)))
    slopes = np.diff(np.log(errs)) / np.diff(np.log([T / N for N in steps]))
    assert np.all(np.abs(slopes - 2.0) <= 0.1)


def test_taylor_start_is_third_order():
    # leading error of the start step is |u'''(0)| dt^3 / 6 = 2 dt^3 here
    omega = 2.0
    solve, K = scalar_ops(1.0, omega ** 2)
    for dt in (0.01, 0.005):
        traj = central_difference(solve, K, None, [1.0], [3.0], dt, 2 * dt)
        exact = math.cos(omega * dt) + 1.5 * math.sin(omega * dt)
        err = abs(traj.samples[1, 0] - exact)
        assert err == pytest.approx(2.0 * dt ** 3, rel=0.05)


def test_forced_scalar_matches_closed_form():
    solve, K = scalar_ops(1.0, 0.0)
    f = lambda t: np.array([math.sin(t)])
    T, dt = 2.0, 1e-3
    traj = central_difference(solve, K, f, [0.0], [0.0], dt, T)
    exact = T - math.sin(T)
    assert abs(traj.samples[-1, 0] - exact) <= 1e-3 * abs(exact)


def textbook_central_difference(solve, K, f, u0, v0, dt, nsteps):
    """The recurrence as written on paper, one fresh array per operation;
    from the first row whose norm passes 1e6 times the initial scale, that
    row repeats. Returns the rows and the index of the blow-up, or None."""
    def accel(t, u):
        return solve(-(K @ u) + f(t))

    rows = [u0, u0 + dt * v0 + 0.5 * dt * dt * accel(0.0, u0)]
    scale = max(np.linalg.norm(rows[0]), np.linalg.norm(rows[1]))
    for k in range(1, nsteps):
        rows.append(2.0 * rows[k] - rows[k - 1]
                    + dt * dt * accel(dt * k, rows[k]))
        if not np.linalg.norm(rows[-1]) <= 1e6 * scale:
            return np.array(rows + [rows[-1]] * (nsteps - k - 1)), k + 1
    return np.array(rows), None


@pytest.mark.parametrize('factor', [0.85, 1.2])
def test_central_difference_matches_textbook_loop(factor):
    # the in-place step rounds exactly as the textbook expression does,
    # below the critical step and above it, where both blow up at one row
    prob = clamped_plate_problem(2, 4)
    K = prob.pair.K
    w, _ = dense_generalized_eig(K, prob.pair.M)
    dt = factor * critical_timestep(w[-1])
    nsteps = 400
    traj = central_difference(prob.mass, K, prob.f, prob.u0, prob.v0, dt,
                              (nsteps + 0.5) * dt)
    with np.errstate(over='ignore', invalid='ignore'):
        rows, blown = textbook_central_difference(
            prob.mass.solve, K, prob.f, prob.u0, prob.v0, dt, nsteps)
    assert traj.nsteps == nsteps
    assert traj.blown_up_at == blown
    assert traj.stable == (blown is None) == (factor < 1.0)
    np.testing.assert_array_equal(traj.samples, rows)


def test_integrator_validates_steps():
    solve, K = scalar_ops(1.0, 1.0)
    with pytest.raises(ValueError):
        central_difference(solve, K, None, [1.0], [0.0], 0.0, 1.0)
    for not_a_factor in (np.eye(1), lambda r: r):
        with pytest.raises(TypeError, match='FactorizedOperator'):
            central_difference(not_a_factor, K, None, [1.0], [0.0], 0.1, 1.0)


# ------------------------------------------------------------------ l2 error

def interval_space(n, p):
    return SplineSpace([make_open_uniform(n, p, p - 1)])


def test_l2_error_reproduces_own_spline():
    kv = make_open_uniform(4, 2, 1)
    space = SplineSpace([kv, kv])
    rng = np.random.default_rng(1)
    coeffs = rng.normal(size=space.num_free)

    def exact(x, y):
        out = np.zeros_like(x)
        flat_x, flat_y = np.ravel(x), np.ravel(y)
        vals = np.empty_like(flat_x)
        for i, (xi, yi) in enumerate(zip(flat_x, flat_y)):
            fx, tx = eval_basis(kv, xi, 0)
            fy, ty = eval_basis(kv, yi, 0)
            block = coeffs.reshape(space.dims)[fx:fx + 3, fy:fy + 3]
            vals[i] = tx[0] @ block @ ty[0]
        return vals.reshape(np.shape(x))

    err = l2_error(quadrature_grid(space, unit_square()), coeffs, exact)
    assert err <= 1e-12


def test_l2_error_zero_and_unit_fields():
    kv = make_open_uniform(3, 2, 1)
    space = SplineSpace([kv, kv])
    zero = np.zeros(space.num_free)
    grid = quadrature_grid(space, unit_square())
    assert l2_error(grid, zero, lambda x, y: 0.0) == 0.0
    assert l2_error(grid, zero, lambda x, y: 1.0) \
        == pytest.approx(1.0, abs=1e-13)


def test_l2_norm_is_error_of_zero_field():
    # the simulate runner divides by l2_norm where it used to call l2_error
    # with zero coefficients; its CSVs stay byte-identical only if the two
    # agree to the last bit
    kv = make_open_uniform(3, 2, 1)
    space = SplineSpace([kv, kv])
    grid = quadrature_grid(space, quarter_annulus(), nquad=5)
    zero = np.zeros(space.num_free)
    field = lambda x, y, t: np.sin(x + t) * y - 0.3
    for t in (0.0, 0.7, 2.5):
        assert l2_norm(grid, field, t=t) == l2_error(grid, zero, field, t=t)
    assert l2_norm(grid, lambda x, y: x * y) \
        == l2_error(grid, zero, lambda x, y: x * y)


def test_l2_error_linear_field_exact():
    kv = make_open_uniform(3, 1, 0)
    space = SplineSpace([kv, kv])
    zero = np.zeros(space.num_free)
    err = l2_error(quadrature_grid(space, unit_square()), zero,
                   lambda x, y: x)
    assert err == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)


def test_l2_error_rational_measure():
    kv = make_open_uniform(2, 2, 1)
    space = SplineSpace([kv, kv])
    zero = np.zeros(space.num_free)
    err = l2_error(quadrature_grid(space, quarter_annulus(), nquad=10),
                   zero, lambda x, y: 1.0)
    assert err == pytest.approx(math.sqrt(3.0 * math.pi / 4.0), rel=1e-10)


def test_l2_error_with_time_argument():
    kv = make_open_uniform(3, 2, 1)
    space = SplineSpace([kv, kv])
    zero = np.zeros(space.num_free)
    err = l2_error(quadrature_grid(space, unit_square()), zero,
                   lambda x, y, t: t, t=2.0)
    assert err == pytest.approx(2.0, abs=1e-12)


# ------------------------------------------------------- manufactured plate

def test_plate_laplacian_against_sympy():
    x, y = sympy.symbols('x y')
    S = x * y * (x + 4) * (y - 4) * (x ** 2 + y ** 2 - 1)
    lap = sympy.diff(S, x, 2) + sympy.diff(S, y, 2)
    f = sympy.lambdify((x, y), lap, 'numpy')
    rng = np.random.default_rng(2)
    xs = rng.uniform(-4.0, 0.0, size=50)
    ys = rng.uniform(0.0, 4.0, size=50)
    np.testing.assert_allclose(plate_deflection_laplacian(xs, ys),
                               f(xs, ys), rtol=1e-12, atol=1e-10)


def test_plate_deflection_vanishes_on_boundary():
    patch = plate_quarter_hole()
    t = np.linspace(0.0, 1.0, 40)
    for edge in ([np.zeros(1), t], [np.ones(1), t],
                 [t, np.zeros(1)], [t, np.ones(1)]):
        F, _J, _d = patch.grid_eval(edge)
        vals = plate_deflection(F[..., 0], F[..., 1])
        assert np.max(np.abs(vals)) <= 1e-12


def clamped_plate_problem(p, n):
    """The manufactured problem on an n x n mesh of degree p, C^(p-1)."""
    kv = make_open_uniform(n, p, p - 1)
    space = SplineSpace([kv, kv], dirichlet=((True, True), (True, True)))
    return manufactured_wave_problem(space, plate_quarter_hole())


def _plate_batch_cases():
    # (grid, coefficient rows, exact field, t), with R = 2 * rows + 1 rows so
    # the batch spans two full slices and a partial third
    prob = clamped_plate_problem(2, 4)
    grid = quadrature_grid(prob.space, prob.patch, nquad=6)
    rows = dynamics._SLICE_VALUES // grid.adet.size
    R = 2 * rows + 1
    rng = np.random.default_rng(5)
    coeffs = prob.u0 + 0.1 * rng.normal(size=(R, len(prob.u0)))
    return {'constant': (grid, coeffs, lambda x, y: 1.5, None),
            'no-t': (grid, coeffs, plate_deflection, None),
            'plate-t': (grid, coeffs, prob.exact, np.linspace(0.0, 2.0, R))}


@pytest.mark.parametrize('case', ['constant', 'no-t', 'plate-t'])
def test_l2_batch_matches_per_row_calls(case):
    grid, coeffs, exact, t = _plate_batch_cases()[case]
    ts = [None] * len(coeffs) if t is None else t
    errs = l2_error(grid, coeffs, exact, t=t)
    one = [l2_error(grid, c, exact, t=ti) for c, ti in zip(coeffs, ts)]
    assert errs.shape == (len(coeffs),)
    assert all(type(e) is float for e in one)
    np.testing.assert_allclose(errs, one, rtol=1e-14, atol=0.0)
    if t is not None:
        norms = l2_norm(grid, exact, t=t)
        one = [l2_norm(grid, exact, t=ti) for ti in t]
        assert norms.shape == t.shape
        assert all(type(n) is float for n in one)
        np.testing.assert_allclose(norms, one, rtol=1e-14, atol=0.0)


def test_l2_error_names_both_sizes_of_a_mismatch():
    grid, coeffs, exact, t = _plate_batch_cases()['plate-t']
    R, n = coeffs.shape
    with pytest.raises(ValueError, match='%d times for %d coefficient rows'
                       % (R - 1, R)):
        l2_error(grid, coeffs, exact, t=t[1:])
    with pytest.raises(ValueError, match=r'shape \(%d, %d\) on a space '
                       'with %d free dofs' % (R, n - 1, n)):
        l2_error(grid, coeffs[:, 1:], exact, t=t)
    with pytest.raises(ValueError, match=r'shape \(%d,\) on a space '
                       'with %d free dofs' % (n + 1, n)):
        l2_error(grid, np.r_[coeffs[0], 0.0], exact, t=0.5)


@pytest.mark.parametrize('shape', [(29, 1), (1, 29)])
def test_l2_times_of_two_axes_name_their_shape(shape):
    grid, coeffs, exact, _ = _plate_batch_cases()['plate-t']
    t = np.linspace(0.0, 2.0, 29).reshape(shape)
    message = r'times of shape \(%d, %d\)' % shape
    with pytest.raises(ValueError, match=message):
        l2_error(grid, coeffs[:29], exact, t=t)
    with pytest.raises(ValueError, match=message):
        l2_norm(grid, exact, t=t)


def test_manufactured_problem_fields():
    prob = clamped_plate_problem(2, 4)
    # time factor at t = 0.25 is 3
    assert prob.exact(-2.0, 2.0, 0.25) \
        == pytest.approx(3.0 * plate_deflection(-2.0, 2.0), rel=1e-14)
    # load vector is the stated combination of the two spatial loads
    t = 0.25
    g = lambda x, y: (-2.0 * plate_deflection_laplacian(x, y)
                      + math.sin(2.0 * math.pi * t)
                      * (-(2.0 * math.pi) ** 2 * plate_deflection(x, y)
                         - plate_deflection_laplacian(x, y)))
    grid = quadrature_grid(prob.space, prob.patch)
    direct = load_vector(grid, g)
    np.testing.assert_allclose(prob.f(t), direct, rtol=1e-12, atol=1e-13)
    # velocity projection: d/dt at 0 equals 2 pi times the deflection
    ref = load_vector(grid,
                      lambda x, y: 2.0 * math.pi * plate_deflection(x, y))
    mass = banded_cholesky(prob.pair.M, prob.pair.M.scalar_bandwidth())
    np.testing.assert_allclose(prob.v0, mass.solve(ref), atol=1e-11)


def test_manufactured_projection_error_shrinks():
    errs = []
    for sub in (2, 4, 8):
        prob = clamped_plate_problem(3, sub)
        grid = quadrature_grid(prob.space, prob.patch, nquad=6)
        errs.append(l2_error(grid, prob.u0, prob.exact, t=0.0))
    assert errs[2] < errs[1] < errs[0]
    norm = l2_error(grid, np.zeros_like(prob.u0), prob.exact, t=0.0)
    assert errs[2] <= 2e-3 * norm


def test_manufactured_short_run_tracks_exact():
    prob = clamped_plate_problem(2, 4)
    w, _ = dense_generalized_eig(prob.pair.K, prob.pair.M)
    dt = 0.85 * critical_timestep(w[-1])
    mass = banded_cholesky(prob.pair.M, prob.pair.M.scalar_bandwidth())
    traj = central_difference(mass, prob.pair.K, prob.f, prob.u0, prob.v0,
                              dt, 0.25)
    assert traj.stable
    grid = quadrature_grid(prob.space, prob.patch, nquad=6)
    err = l2_error(grid, traj.samples[-1], prob.exact, t=traj.times[-1])
    norm = l2_error(grid, np.zeros_like(prob.u0), prob.exact,
                    t=traj.times[-1])
    assert err <= 0.05 * norm


# ------------------------------------------------------------ CFL utilities

def test_step_count_floor():
    assert step_count(6.0, 4.0) == 7
    assert step_count(1.0, 4.0, safeguard=1.0) == 1


def test_stability_boundary_scalar():
    omega = 5.0
    solve, K = scalar_ops(1.0, omega ** 2)
    found = stability_boundary(solve, K, 0.1, steps=1000, seed=3)
    assert abs(found - 2.0 / omega) <= 0.03 * (2.0 / omega)


def test_stability_boundary_matches_eigenvalue_bound():
    kv = make_open_uniform(4, 2, 1)
    space = SplineSpace([kv, kv], dirichlet=((True, True), (True, True)))
    pair = assemble_single_patch(space, unit_square(), ONE)
    w, _ = dense_generalized_eig(pair.K, pair.M)
    mass = banded_cholesky(pair.M, pair.M.scalar_bandwidth())
    dt_c = critical_timestep(w[-1])
    found = stability_boundary(mass, pair.K, 0.8 * dt_c, steps=1000, seed=4)
    assert abs(found - dt_c) <= 0.03 * dt_c


def test_trajectory_csv(tmp_path):
    solve, K = scalar_ops(1.0, 1.0)
    traj = central_difference(solve, K, None, [1.0], [0.0], 0.1, 0.5)
    cfg = ExperimentConfig(kind='simulate', out=str(tmp_path))
    norms = np.linalg.norm(traj.samples, axis=1)
    path = _write_csv(cfg, 'traj.csv', 't,norm',
                      np.column_stack((traj.times, norms)))
    lines = open(path).read().splitlines()
    assert lines[0] == 't,norm'
    assert len(lines) == len(traj.times) + 1
    table = np.column_stack((traj.times, norms, np.zeros(len(traj.times))))
    _write_csv(cfg, 'traj.csv', 't,norm,l2_error', table)
    lines = open(path).read().splitlines()
    assert lines[0] == 't,norm,l2_error'
    np.testing.assert_array_equal(
        np.loadtxt(path, delimiter=',', skiprows=1), table)
    first = open(path, 'rb').read()
    _write_csv(cfg, 'traj.csv', 't,norm,l2_error', table)
    assert open(path, 'rb').read() == first
