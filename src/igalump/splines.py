"""Univariate and tensor-product B-spline spaces.

Knot vectors, basis evaluation by the Cox-de Boor recursion, and dimension
bookkeeping for tensor-product spaces with per-face Dirichlet constraints,
whose dof grid numbers the free basis functions.
"""

import numpy as np

__all__ = [
    'KnotVector', 'SplineSpace', 'make_open_uniform', 'eval_basis',
]


class KnotVector:
    """A nondecreasing knot sequence together with a polynomial degree.

    The knot vector is assumed open: the first and last p+1 knots are
    repeated. Interior knots may have multiplicity between 1 and p.

    Attributes:
        knots: 1D numpy array of knots, nondecreasing.
        p: polynomial degree (nonnegative int).
    """

    def __init__(self, knots, p):
        knots = np.ascontiguousarray(knots, dtype=float)
        if knots.ndim != 1:
            raise ValueError('knots must be a 1D sequence')
        if p < 0:
            raise ValueError('degree must be nonnegative, got %d' % p)
        if len(knots) < 2 * (p + 1):
            raise ValueError('degree %d needs at least %d knots, got %d'
                             % (p, 2 * (p + 1), len(knots)))
        if not np.all(np.diff(knots) >= 0.0):
            raise ValueError('knots must be nondecreasing')
        if not (knots[0] == knots[p] and knots[-1] == knots[-p - 1]):
            raise ValueError('knot vector must be open')
        self.knots = knots
        self.p = p

    @property
    def numdofs(self):
        """Dimension of the spline space spanned over this knot vector."""
        return len(self.knots) - self.p - 1

    @property
    def domain(self):
        return (self.knots[self.p], self.knots[-self.p - 1])

    @property
    def breakpoints(self):
        """Unique knots (element boundaries)."""
        return np.unique(self.knots)

    @property
    def numspans(self):
        return len(self.breakpoints) - 1

    def span_bounds(self):
        """(lo, hi) arrays of the nonempty knot spans."""
        bp = self.breakpoints
        return bp[:-1], bp[1:]

    def find_span(self, x):
        """Index i into knots with knots[i] <= x < knots[i+1].

        Ties at interior knots resolve to the right-closed span; at the
        right end of the domain the last nonempty span is returned. x may
        be one point or an array of points.
        """
        k = self.knots
        first = np.searchsorted(k, k[self.p], side='right') - 1
        last = np.searchsorted(k, k[self.numdofs], side='left') - 1
        span = np.clip(np.searchsorted(k, x, side='right') - 1, first, last)
        return span if np.ndim(x) else int(span)


def make_open_uniform(elements, p, k):
    """Open uniform knot vector on [0,1] with smoothness C^k at interior knots.

    Interior knots get multiplicity p-k, so the space dimension is
    elements*(p-k) + k + 1.

    Args:
        elements: number of nonempty knot spans (>= 1).
        p: polynomial degree (>= 1).
        k: interior smoothness, 0 <= k <= p-1.

    Raises:
        ValueError: if the degree/smoothness combination is invalid.
    """
    if p < 1 or k < 0 or k >= p:
        raise ValueError('invalid degree: need p >= 1 and 0 <= k <= p-1, '
                         'got p=%d, k=%d' % (p, k))
    if elements < 1:
        raise ValueError('need at least one element')
    mult = p - k
    interior = np.repeat(np.linspace(0.0, 1.0, elements + 1)[1:-1], mult)
    knots = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
    return KnotVector(knots, p)


def eval_basis(kv, x, deriv_order=0):
    """Evaluate the p+1 basis functions that may be nonzero at x.

    Cox-de Boor triangular recursion; derivatives by the standard
    difference formula applied to the lower-degree table. x is one point or
    a 1D array of points, and each point gets the same float operations
    either way.

    Args:
        kv: KnotVector.
        x: evaluation point(s) inside the knot range.
        deriv_order: highest derivative to return.

    Returns:
        (first, ders) where first is the index of the first active basis
        function and ders has shape (deriv_order+1, p+1); row q holds the
        q-th derivatives of functions first..first+p at x. For an array of
        n points, first has shape (n,) and ders (deriv_order+1, p+1, n).

    Raises:
        ValueError: if a point lies outside the knot range.
    """
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = kv.domain
    bad = (pts < lo) | (pts > hi)
    if np.any(bad):
        raise ValueError('point %r outside knot range [%r, %r]'
                         % (float(pts[bad][0]), lo, hi))
    p = kv.p
    U = kv.knots
    span = kv.find_span(pts)
    ders = np.zeros((deriv_order + 1, p + 1, len(pts)))
    for q in range(min(deriv_order, p) + 1):
        # q-th derivatives: the degree-(p-q) values, raised back to degree
        # p by q applications of the derivative formula
        vals = _basis_values(U, span, pts, p - q)
        for deg in range(p - q + 1, p + 1):
            vals = _derivative_step(U, span, vals, deg)
        ders[q] = vals
    if np.ndim(x) == 0:
        return int(span[0]) - p, ders[..., 0]
    return span - p, ders


def _dense_tables(kv, x):
    """Dense value and first-derivative tables of all functions at x.

    Returns (first, V, D): the first active index per point, and V and D of
    shape (numdofs, len(x)), zero outside each point's active window.
    """
    first, ders = eval_basis(kv, x, 1)
    tables = np.zeros((2, kv.numdofs, len(x)))
    tables[:, first + np.arange(kv.p + 1)[:, None], np.arange(len(x))] = ders
    return first, tables[0], tables[1]


def _basis_values(U, span, x, deg):
    """Values of the degree-`deg` functions span-deg..span, shape (deg+1, n)."""
    N = np.zeros((deg + 1, len(x)))
    N[0] = 1.0
    left = np.zeros_like(N)
    right = np.zeros_like(N)
    for j in range(1, deg + 1):
        left[j] = x - U[span + 1 - j]
        right[j] = U[span + j] - x
        saved = 0.0
        for r in range(j):
            temp = N[r] / (right[r + 1] + left[j - r])
            N[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        N[j] = saved
    return N


def _derivative_step(U, span, vals, deg):
    # B'_{i,deg} = deg * (B_{i,deg-1}/(U[i+deg]-U[i])
    #                     - B_{i+1,deg-1}/(U[i+deg+1]-U[i+1])),
    # a term dropped where its knot difference vanishes; the leading 0.0
    # turns -0.0 into 0.0 as the scalar accumulator starting at 0.0 did
    i = span - deg + np.arange(deg + 1)[:, None]
    zero = np.zeros_like(vals[:1])
    lower = np.concatenate([zero, vals])
    upper = np.concatenate([vals, zero])
    d1 = U[i + deg] - U[i]
    d2 = U[i + deg + 1] - U[i + 1]
    t1 = np.divide(lower, d1, out=np.zeros_like(lower), where=d1 > 0)
    t2 = np.divide(upper, d2, out=np.zeros_like(upper), where=d2 > 0)
    return deg * (0.0 + t1 - t2)


class SplineSpace:
    """Tensor product of univariate spline spaces with Dirichlet bookkeeping.

    Attributes:
        kvs: tuple of KnotVector, one per parametric direction.
        dirichlet: tuple of (left, right) bool pairs per direction; a True
            entry drops the single basis function supported on that face.
    """

    def __init__(self, kvs, dirichlet=None):
        self.kvs = tuple(kvs)
        d = len(self.kvs)
        if dirichlet is None:
            dirichlet = ((False, False),) * d
        if len(dirichlet) != d:
            raise ValueError('need one Dirichlet pair per direction: got '
                             '%d for %d directions' % (len(dirichlet), d))
        self.dirichlet = tuple((bool(a), bool(b)) for (a, b) in dirichlet)

    @property
    def ndim(self):
        return len(self.kvs)

    @property
    def dims(self):
        """Unconstrained dimensions per direction."""
        return tuple(kv.numdofs for kv in self.kvs)

    @property
    def degrees(self):
        return tuple(kv.p for kv in self.kvs)

    @property
    def free_dims(self):
        """Constrained dimensions per direction."""
        return tuple(max(n - a - b, 0)
                     for n, (a, b) in zip(self.dims, self.dirichlet))

    @property
    def numdofs(self):
        return int(np.prod(self.dims))

    @property
    def num_free(self):
        return int(np.prod(self.free_dims))

    def dof_grid(self):
        """Free id of every basis function, an int64 array of shape dims.

        Entries are -1 on the functions a Dirichlet face drops; the free
        ids 0..num_free-1 run in lexicographic order, the first direction
        slowest. This is the one map between tensor and system indices.
        """
        grid = np.full(self.dims, -1, dtype=np.int64)
        grid[tuple(slice(int(a), n - int(b)) for n, (a, b)
                   in zip(self.dims, self.dirichlet))] = np.arange(
                       self.num_free).reshape(self.free_dims)
        return grid

    def free_to_full(self):
        """Full-space lexicographic index of each free dof, in free order."""
        return np.flatnonzero(self.dof_grid().ravel() >= 0)
