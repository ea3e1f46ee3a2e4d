"""Central-difference time stepping and the manufactured plate problem.

The integrator takes one solve with M's FactorizedOperator and one apply
K @ u per step, so consistent, lumped and low-rank-scaled masses all run
through the same loop. Instability is detected, recorded on the trajectory
and never raised.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import assemble_single_patch, load_vector, quadrature_grid
from .geometry import _tensor_apply
from .linalg import FactorizedOperator, _mass_factor
from .spectral import critical_timestep
from .splines import SplineSpace


@dataclass
class Trajectory:
    """Sampled solution of one explicit run.

    samples has one row per time in times, floor(T/dt)+1 of them. stable
    flips to False the first time the sample norm exceeds 1e6 times the
    initial scale (the larger of the first two sample norms; detection is
    off when a forced run starts from rest with no reference magnitude).
    blown_up_at records that sample index, integration stops there, and
    later rows repeat the diverged state.
    """
    dt: float
    times: np.ndarray
    samples: np.ndarray
    stable: bool = True
    blown_up_at: int = None

    @property
    def nsteps(self):
        return len(self.times) - 1


def central_difference(M_solve, K, f, u0, v0, dt, T):
    """Integrate M u'' + K u = f from (u0, v0) with step dt up to T.

    M_solve is M's FactorizedOperator and K is applied as K @ u. f maps a
    time to a load vector, or is None for a free problem. The first step is
    the Taylor start u0 + dt v0 + dt^2/2 M^{-1}(f(0) - K u0); afterwards
    the standard two-level recurrence runs with one mass solve and one
    stiffness apply per step.
    """
    if dt <= 0 or T <= 0:
        raise ValueError('step size and horizon must be positive')
    if not isinstance(M_solve, FactorizedOperator):
        raise TypeError('mass solve must be a FactorizedOperator')
    load = (lambda t: None) if f is None else f
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    nsteps = int(math.floor(T / dt))
    times = dt * np.arange(nsteps + 1)
    samples = np.empty((nsteps + 1, len(u0)))
    samples[0] = u0
    stable = True
    blown_up_at = None
    scale = np.linalg.norm(u0)

    def accel(t, u):
        r = -(K @ u)
        ft = load(t)
        if ft is not None:
            r += ft
        return M_solve.solve(r)

    with np.errstate(over='ignore', invalid='ignore'):
        if nsteps >= 1:
            samples[1] = u0 + dt * v0 + 0.5 * dt * dt * accel(0.0, u0)
            scale = max(scale, np.linalg.norm(samples[1]))
        for k in range(1, nsteps):
            # (2 u_k - u_{k-1}) + dt^2 a_k in place, in that order and rounding
            a = accel(times[k], samples[k])
            a *= dt * dt
            u = np.multiply(samples[k], 2.0, out=samples[k + 1])
            u -= samples[k - 1]
            u += a
            # np.linalg.norm's sqrt(u . u), without its per-call checks
            if scale > 0.0 and not math.sqrt(u.dot(u)) <= 1e6 * scale:
                stable = False
                blown_up_at = k + 1
                samples[k + 2:] = samples[k + 1]
                break
    return Trajectory(dt, times, samples, stable, blown_up_at)


_SLICE_VALUES = 2 ** 14   # quadrature values per row slice of an L2 batch


def l2_error(grid, coeffs, exact, t=None):
    """Quadrature L2 distances between spline fields and exact.

    coeffs is one sample, shape (num_free,), or a block of R samples, shape
    (R, num_free), on the free dofs of grid.space; the QuadratureGrid
    supplies the rule and the pullback. t is None, one time for every
    sample, or one per sample, shape (R,). exact is called with physical
    coordinate arrays, plus, when t is given, the times of a slice of rows
    as an (rows, 1, ..., 1) array, so a spatial factor is evaluated once per
    slice. Returns a float for one sample and an (R,) array for a block.

    Raises:
        ValueError: if coeffs's last axis is not num_free, or t's length is
            not R.
    """
    space = grid.space
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != space.num_free:
        raise ValueError('l2_error: coefficients of shape %s on a space '
                         'with %d free dofs' % (coeffs.shape, space.num_free))
    rows = coeffs.reshape(-1, space.num_free)
    if np.ndim(t) == 1 and len(t) != len(rows):
        raise ValueError('l2_error: %d times for %d coefficient rows'
                         % (len(t), len(rows)))
    free = space.free_to_full()
    vals = [V.T[None] for V in grid.vals]

    def error(s, *args):
        full = np.zeros((s.stop - s.start, space.numdofs))
        full[:, free] = rows[s]
        uh = _tensor_apply(full.reshape((-1,) + space.dims), vals)
        uh -= exact(*args)
        return uh

    norms = _sliced_norms(grid, error, t, len(rows))
    return norms if coeffs.ndim == 2 else float(norms[0])


def l2_norm(grid, field, t=None):
    """Quadrature L2 norm of field on the patch of the QuadratureGrid.

    field is called as exact is in l2_error. Returns a float when t is None
    or a scalar and an (R,) array, one norm per time, when t has shape (R,).
    """
    batch = np.ndim(t) == 1
    norms = _sliced_norms(grid, lambda s, *args: field(*args), t,
                          len(t) if batch else 1)
    return norms if batch else float(norms[0])


def _sliced_norms(grid, field, t, nrows):
    # field(s, *coords[, t[s]]) gives the values of rows s on the grid; the
    # rows go in slices of at most _SLICE_VALUES quadrature values
    if np.ndim(t) > 1:
        raise ValueError('times of shape %s: expected one time or one per '
                         'row' % (np.shape(t),))
    shape = grid.adet.shape
    if t is not None:
        t = np.broadcast_to(t, (nrows,)).reshape((nrows,) + (1,) * len(shape))
    w = grid.weights()
    step = max(1, _SLICE_VALUES // grid.adet.size)
    out = np.empty(nrows)
    for lo in range(0, nrows, step):
        s = slice(lo, min(lo + step, nrows))
        args = grid.coords if t is None else (*grid.coords, t[s])
        f2 = np.broadcast_to(field(s, *args), (s.stop - lo,) + shape) ** 2
        f2 *= grid.adet
        f2 *= w
        out[s] = np.sum(f2.reshape(s.stop - lo, -1), axis=1)
    return np.sqrt(out)


# ----------------------------------------------------- manufactured problem

def plate_deflection(x, y):
    """Spatial factor x y (x+4) (y-4) (x^2+y^2-1); zero on the plate rim."""
    return (x * x + 4.0 * x) * (y * y - 4.0 * y) * (x * x + y * y - 1.0)


def plate_deflection_laplacian(x, y):
    q = (x * x + 4.0 * x) * (y * y - 4.0 * y)
    w = x * x + y * y - 1.0
    lap_q = 2.0 * (y * y - 4.0 * y) + 2.0 * (x * x + 4.0 * x)
    cross = (2.0 * x + 4.0) * (y * y - 4.0 * y) * 2.0 * x \
        + (x * x + 4.0 * x) * (2.0 * y - 4.0) * 2.0 * y
    return lap_q * w + 2.0 * cross + 4.0 * q


@dataclass
class WaveProblem:
    """Everything a run needs: discretization, operators and exact field."""
    space: SplineSpace
    patch: object
    pair: object        # consistent AssembledPair with rho = 1
    mass: object        # FactorizedOperator of pair.M
    grid: object        # QuadratureGrid of the loads and of l2_error, which
                        # takes a block of samples with one time each
    f: object           # time -> load vector on the free dofs
    u0: np.ndarray
    v0: np.ndarray
    exact: object       # (x, y, t) -> displacement


def manufactured_wave_problem(space, patch, nquad=None):
    """Forced wave equation on the plate whose solution is known exactly.

    The displacement is the plate deflection times 2 + sin(2 pi t); all
    five polynomial factors vanish on the plate boundary, so space must be
    clamped (homogeneous Dirichlet) on every side. The load comes from the
    closed-form Laplacian; initial data are consistent-mass L2 projections,
    through the factor of pair.M the problem keeps. The loads and the
    stored grid use the assembly's quadrature rule.
    """
    pair = assemble_single_patch(space, patch, lambda *xs: 1.0, nquad=nquad)
    mass = _mass_factor(pair.M)

    grid = quadrature_grid(space, patch, nquad)

    two_pi = 2.0 * math.pi
    f_const = load_vector(
        grid, lambda x, y: -2.0 * plate_deflection_laplacian(x, y))
    f_wave = load_vector(
        grid, lambda x, y: -two_pi ** 2 * plate_deflection(x, y)
        - plate_deflection_laplacian(x, y))

    def f(t):
        return f_const + math.sin(two_pi * t) * f_wave

    u0 = mass.solve(load_vector(
        grid, lambda x, y: 2.0 * plate_deflection(x, y)))
    v0 = mass.solve(load_vector(
        grid, lambda x, y: two_pi * plate_deflection(x, y)))

    def exact(x, y, t):
        return plate_deflection(x, y) * (2.0 + np.sin(two_pi * t))

    return WaveProblem(space, patch, pair, mass, grid, f, u0, v0, exact)


# ------------------------------------------------------------ CFL utilities

def step_count(T, lam_max, safeguard=0.85):
    """Number of steps floor(T / (safeguard * 2 / sqrt(lam_max)))."""
    return int(math.floor(T / (safeguard * critical_timestep(lam_max))))


def stability_boundary(M_solve, K, dt_start, steps=1000, seed=0,
                       rel_resolution=0.005):
    """Empirical largest stable step by bisection on blow-up detection.

    Runs `steps` free steps of central_difference(M_solve, K, ...) from a
    seeded random start for each candidate. Returns the largest step
    verified stable, resolved to rel_resolution.
    """
    rng = np.random.default_rng(seed)
    u0 = rng.normal(size=K.shape[0])
    v0 = np.zeros_like(u0)

    def is_stable(dt):
        traj = central_difference(M_solve, K, None, u0, v0, dt, steps * dt)
        return traj.stable

    dt = float(dt_start)
    if is_stable(dt):
        lo, hi = dt, 2.0 * dt
        for _ in range(60):
            if not is_stable(hi):
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise ValueError('no instability found; dt_start far too small')
    else:
        lo, hi = 0.5 * dt, dt
        for _ in range(60):
            if is_stable(lo):
                break
            lo, hi = 0.5 * lo, lo
        else:
            raise ValueError('no stable step found; system may be singular')
    while hi - lo > rel_resolution * lo:
        mid = 0.5 * (lo + hi)
        if is_stable(mid):
            lo = mid
        else:
            hi = mid
    return lo

