"""Pointwise evaluation of a patch map, one parametric point at a time.

The oracle for Patch.grid_eval and the assembly pullback: it evaluates the
map through eval_basis at a single point instead of through tensor grids.
"""

import numpy as np

from igalump.splines import eval_basis


def map_eval(patch, xhat):
    """Physical image of the parametric point xhat."""
    T = _hom_eval(patch, xhat, deriv=False)
    return T[:-1] / T[-1]


def _hom_eval(patch, xhat, deriv):
    d = patch.ndim
    H = patch.homogeneous()
    vals, ders, firsts = [], [], []
    for l in range(d):
        first, table = eval_basis(patch.space.kvs[l], xhat[l],
                                  1 if deriv else 0)
        firsts.append(first)
        vals.append(table[0])
        if deriv:
            ders.append(table[1])
    p = patch.space.degrees
    sub = H[tuple(slice(f, f + p[l] + 1) for l, f in enumerate(firsts))]
    T = sub
    for l in range(d):
        T = np.tensordot(vals[l], T, axes=(0, 0))
    if not deriv:
        return T
    grads = []
    for l in range(d):
        G = sub
        for m in range(d):
            row = ders[m] if m == l else vals[m]
            G = np.tensordot(row, G, axes=(0, 0))
        grads.append(G)
    return T, grads


def jacobian(patch, xhat):
    """Jacobian matrix (columns are parametric derivatives) and determinant."""
    T, grads = _hom_eval(patch, np.asarray(xhat, dtype=float), deriv=True)
    w = T[-1]
    F = T[:-1] / w
    d = patch.ndim
    J = np.empty((d, d))
    for l in range(d):
        J[:, l] = (grads[l][:-1] - F * grads[l][-1]) / w
    return J, float(np.linalg.det(J))


def pullback_coeffs(patch, rho, xhat):
    """Mass and stiffness pullback data at one parametric point.

    Returns (c, G) with c = rho(F)|detJ| and G = |detJ|(J^T J)^-1.

    Raises:
        ValueError: if the Jacobian is (numerically) singular.
    """
    xhat = np.asarray(xhat, dtype=float)
    J, detJ = jacobian(patch, xhat)
    if abs(detJ) < 1e-14:
        raise ValueError('singular jacobian at %s (det=%g)' % (xhat, detJ))
    x = map_eval(patch, xhat)
    c = rho(*x) * abs(detJ)
    G = abs(detJ) * np.linalg.inv(J.T @ J)
    return c, G
