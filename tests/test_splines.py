"""Tests for knot vectors, basis evaluation and tensor spline spaces."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igalump.splines import (KnotVector, SplineSpace, eval_basis,
                             make_open_uniform)


def naive_basis(knots, p, i, x):
    """Textbook recursive definition of B_{i,p}(x). Oracle, O(2^p)."""
    if p == 0:
        # half-open spans, except the last nonempty one is closed on the right
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        if x == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    left = 0.0
    d = knots[i + p] - knots[i]
    if d > 0:
        left = (x - knots[i]) / d * naive_basis(knots, p - 1, i, x)
    right = 0.0
    d = knots[i + p + 1] - knots[i + 1]
    if d > 0:
        right = (knots[i + p + 1] - x) / d * naive_basis(knots, p - 1, i + 1, x)
    return left + right


def all_naive(kv, x):
    return np.array([naive_basis(kv.knots, kv.p, i, x)
                     for i in range(kv.numdofs)])


# ---------------------------------------------------------------- knot vectors

def test_dimension_examples():
    kv = make_open_uniform(6, 2, 1)
    assert kv.numdofs == 8
    # with both ends constrained: 6 per direction, 216 in a 3D tensor space
    sp = SplineSpace([kv] * 3, dirichlet=[(True, True)] * 3)
    assert sp.free_dims == (6, 6, 6)
    assert sp.num_free == 216

    kv = make_open_uniform(1, 1, 0)
    assert np.array_equal(kv.knots, [0.0, 0.0, 1.0, 1.0])
    assert kv.numdofs == 2

    assert make_open_uniform(4, 3, 2).numdofs == 7


@pytest.mark.parametrize('elements', range(1, 9))
@pytest.mark.parametrize('p', range(1, 5))
def test_dimension_formula_vs_recursion(elements, p):
    # count, via the recursive oracle, how many basis functions are not
    # identically zero; must match elements*(p-k)+k+1
    for k in range(p):
        kv = make_open_uniform(elements, p, k)
        assert kv.numdofs == elements * (p - k) + k + 1
        xs = np.linspace(0, 1, 7 * elements + 1)
        alive = 0
        for i in range(kv.numdofs):
            if any(naive_basis(kv.knots, p, i, x) > 0 for x in xs):
                alive += 1
        assert alive == kv.numdofs


def test_make_open_uniform_rejects_bad_degree():
    with pytest.raises(ValueError):
        make_open_uniform(4, 0, 0)
    with pytest.raises(ValueError):
        make_open_uniform(4, 2, 2)
    with pytest.raises(ValueError):
        make_open_uniform(4, 2, -1)
    with pytest.raises(ValueError):
        make_open_uniform(0, 2, 1)


# ------------------------------------------------------------ basis evaluation

def test_hat_functions():
    kv = KnotVector([0, 0, 1, 1], 1)
    first, ders = eval_basis(kv, 0.25)
    assert first == 0
    np.testing.assert_allclose(ders[0], [0.75, 0.25], atol=1e-15)


def test_bernstein_at_half():
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    first, ders = eval_basis(kv, 0.5)
    assert first == 0
    np.testing.assert_allclose(ders[0], [0.25, 0.5, 0.25], atol=1e-15)


def test_out_of_range_raises():
    kv = make_open_uniform(3, 2, 1)
    with pytest.raises(ValueError):
        eval_basis(kv, -0.1)
    with pytest.raises(ValueError):
        eval_basis(kv, 1.1)


@pytest.mark.parametrize('p,k,elements', [(1, 0, 3), (2, 1, 4), (3, 2, 5),
                                          (3, 0, 3), (4, 2, 4), (4, 3, 6)])
def test_matches_naive_recursion(p, k, elements):
    kv = make_open_uniform(elements, p, k)
    for x in np.linspace(0, 1, 23):
        first, ders = eval_basis(kv, x)
        dense = np.zeros(kv.numdofs)
        dense[first:first + p + 1] = ders[0]
        np.testing.assert_allclose(dense, all_naive(kv, x), atol=1e-13)


@given(st.integers(1, 4), st.integers(1, 6), st.floats(0, 1),
       st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_partition_of_unity_and_nonnegativity(p, elements, x, kseed):
    k = kseed % p
    kv = make_open_uniform(elements, p, k)
    first, ders = eval_basis(kv, x)
    assert abs(ders[0].sum() - 1.0) <= 1e-12
    assert np.all(ders[0] >= -1e-14)
    assert 0 <= first <= kv.numdofs - p - 1


@pytest.mark.parametrize('p,k,elements', [(2, 1, 5), (3, 2, 4), (3, 1, 4),
                                          (4, 3, 5)])
def test_first_derivative_vs_finite_differences(p, k, elements):
    kv = make_open_uniform(elements, p, k)
    h = 1e-6
    lo, hi = kv.span_bounds()
    # points strictly inside knot spans so x-h and x+h share the span
    pts = np.concatenate([lo + f * (hi - lo) for f in (0.21, 0.5, 0.83)])
    for x in pts:
        first, ders = eval_basis(kv, x, 1)
        fp, dp = eval_basis(kv, x + h)
        fm, dm = eval_basis(kv, x - h)
        assert fp == fm == first  # interior points away from knots by choice
        fd = (dp[0] - dm[0]) / (2 * h)
        scale = max(1.0, np.abs(ders[1]).max())
        np.testing.assert_allclose(ders[1], fd, atol=1e-5 * scale)


def test_derivative_sums_to_zero():
    kv = make_open_uniform(6, 3, 2)
    for x in np.linspace(0.01, 0.99, 9):
        _, ders = eval_basis(kv, x, 1)
        assert abs(ders[1].sum()) < 1e-10


def loop_eval_basis(kv, x, deriv_order):
    """One point at a time, the scalar loops eval_basis replaced. Oracle.

    The array path must repeat these float operations exactly.
    """
    p, U = kv.p, kv.knots
    span = int(kv.find_span(x))
    N = [1.0]
    for deg in range(1, p + 1):
        N = _loop_raise(U, span, x, N, deg)
    ders = np.zeros((deriv_order + 1, p + 1))
    ders[0] = N
    for q in range(1, min(deriv_order, p) + 1):
        vals = [1.0]
        for deg in range(1, p - q + 1):
            vals = _loop_raise(U, span, x, vals, deg)
        for deg in range(p - q + 1, p + 1):
            new = np.zeros(len(vals) + 1)
            for idx in range(len(vals) + 1):
                i = span - deg + idx
                acc = 0.0
                if idx > 0 and U[i + deg] - U[i] > 0:
                    acc += vals[idx - 1] / (U[i + deg] - U[i])
                if idx < len(vals) and U[i + deg + 1] - U[i + 1] > 0:
                    acc -= vals[idx] / (U[i + deg + 1] - U[i + 1])
                new[idx] = deg * acc
            vals = new
        ders[q] = vals
    return span - p, ders


def _loop_raise(U, span, x, N, j):
    # degree j-1 values -> degree j values, Cox-de Boor triangle step
    out = np.zeros(j + 1)
    saved = 0.0
    for r in range(j):
        right = U[span + r + 1] - x
        left = x - U[span + 1 - j + r]
        temp = N[r] / (right + left)
        out[r] = saved + right * temp
        saved = left * temp
    out[j] = saved
    return out


REPEATED_KNOTS = [
    ([0, 0, 1, 1], 1),
    ([0, 0, 0, 0.3, 0.3, 0.7, 1, 1, 1], 2),
    ([0, 0, 0, 0, 0.2, 0.2, 0.2, 0.5, 0.9, 1, 1, 1, 1], 3),
    ([0] * 5 + [0.25, 0.5, 0.5, 0.5, 0.75] + [1] * 5, 4),
    ([-1, -1, -1, 2, 2, 2], 2),
]


@pytest.mark.parametrize('knots,p', REPEATED_KNOTS)
def test_array_evaluation_matches_scalar_calls(knots, p):
    kv = KnotVector(knots, p)
    lo, hi = kv.domain
    rng = np.random.default_rng(len(knots))
    x = np.concatenate([rng.uniform(lo, hi, 60), kv.breakpoints,
                        [np.nextafter(lo, hi), np.nextafter(hi, lo)]])
    for order in (0, 1, p + 1):
        first, ders = eval_basis(kv, x, order)
        assert first.shape == x.shape
        assert ders.shape == (order + 1, p + 1, len(x))
        for g, xg in enumerate(x):
            f1, d1 = eval_basis(kv, xg, order)
            f2, d2 = loop_eval_basis(kv, xg, order)
            assert f1 == f2 == first[g]
            # bit for bit, signed zeros included
            assert np.ascontiguousarray(d1).tobytes() \
                == d2.tobytes() == ders[..., g].tobytes()


def test_array_evaluation_rejects_outside_point():
    kv = make_open_uniform(3, 2, 1)
    with pytest.raises(ValueError, match='point 1.5 outside'):
        eval_basis(kv, np.array([0.2, 1.5, 0.3]))
    with pytest.raises(ValueError, match='point -0.25 outside'):
        eval_basis(kv, [0.0, -0.25])


def test_knot_vector_validation_does_not_rest_on_assert(rejections):
    names = rejections('from igalump.splines import KnotVector', [
        'KnotVector([[0, 0], [1, 1]], 1)',
        'KnotVector([0, 0, 1, 1], -1)',
        'KnotVector([0, 0, 1], 1)',
        'KnotVector([0, 0, 0.6, 0.4, 1, 1], 1)',
        'KnotVector([0, 0.5, 1, 1], 1)',
        'KnotVector([0, 0, 1, 1], 1)',
    ])
    assert names == ['ValueError'] * 5 + ['accepted']


def test_spline_space_validation_does_not_rest_on_assert(rejections):
    names = rejections(
        'from igalump.splines import SplineSpace, make_open_uniform\n'
        'kv = make_open_uniform(2, 2, 1)', [
            'SplineSpace([kv, kv], dirichlet=[(True, True)])',
            'SplineSpace([kv], dirichlet=[(True, True)] * 3)',
            'SplineSpace([kv, kv], dirichlet=[(True, False)] * 2)',
        ])
    assert names == ['ValueError', 'ValueError', 'accepted']


# ------------------------------------------------------------- tensor indexing

_FLAG_SETS = {
    'none': [(False, False)] * 3,
    'all': [(True, True)] * 3,
    'mixed': [(True, False), (False, True), (True, True)],
    'one-face': [(False, True), (False, False), (False, False)],
}


@pytest.mark.parametrize('flags', sorted(_FLAG_SETS))
@pytest.mark.parametrize('d', [1, 2, 3])
def test_free_index_maps_are_consistent(d, flags):
    # the dof grid against a per-multi-index loop: -1 exactly on the
    # constrained faces, free ids in lexicographic order, first direction
    # slowest, and free_to_full its inverse
    kvs = [make_open_uniform(3, 2, 1), make_open_uniform(2, 3, 0),
           make_open_uniform(4, 1, 0)][:d]
    sp = SplineSpace(kvs, dirichlet=_FLAG_SETS[flags][:d])
    grid = sp.dof_grid()
    assert grid.dtype == np.int64 and grid.shape == sp.dims
    want, full_of_free = np.empty(sp.dims, dtype=np.int64), []
    for full, idx in enumerate(itertools.product(*map(range, sp.dims))):
        dropped = any((i == 0 and lo) or (i == n - 1 and hi) for i, n, (lo, hi)
                      in zip(idx, sp.dims, sp.dirichlet))
        want[idx] = -1 if dropped else len(full_of_free)
        if not dropped:
            full_of_free.append(full)
    assert np.array_equal(grid, want)
    assert len(full_of_free) == sp.num_free
    assert sp.free_to_full().tolist() == full_of_free
