"""Patch geometry maps and multipatch topology.

A Patch is a tensor-product B-spline or NURBS map from the parametric unit
cube to physical space, evaluated with its Jacobian on a batch of
per-element tensor grids of points, one tensor grid being a batch of one
(Patch.grid_eval). This module also provides a catalog of built-in
geometries, knot insertion and patch splitting, trim-region
classification, and conforming multipatch topologies.
"""

import math

import numpy as np

from .splines import KnotVector, SplineSpace, _dense_tables

__all__ = [
    'Patch', 'MultipatchTopology', 'TrimMask', 'classify_elements',
    'knot_insert', 'split_patch', 'unit_square', 'unit_cube',
    'stretched_square', 'quarter_annulus', 'plate_quarter_hole',
    'plate_quarter_hole_2patch', 'magnet', 'twisted_box', 'patch_grid',
    'rotated_square_region', 'catalog',
]


class Patch:
    """A mapped tensor-product patch.

    Attributes:
        space: SplineSpace of the geometry map (no Dirichlet flags).
        points: (numdofs, d) control points, lexicographic (first direction
            slowest).
        weights: (numdofs,) positive weights, or None for polynomial maps.
    """

    def __init__(self, space, points, weights=None):
        points = np.asarray(points, dtype=float)
        d = space.ndim
        if not 1 <= d <= 3:
            raise ValueError('a patch has 1, 2 or 3 directions, got %d' % d)
        if points.shape != (space.numdofs, d):
            raise ValueError('control points must have shape %s, got %s'
                             % ((space.numdofs, d), points.shape))
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (space.numdofs,):
                raise ValueError('weights must have shape %s, got %s'
                                 % ((space.numdofs,), weights.shape))
            if not np.all(weights > 0):
                raise ValueError('weights must be positive')
        self.space = space
        self.points = points
        self.weights = weights

    @property
    def ndim(self):
        return self.space.ndim

    def homogeneous(self):
        """Control net in homogeneous coordinates, shape dims + (d+1,)."""
        w = self.weights if self.weights is not None \
            else np.ones(self.space.numdofs)
        H = np.concatenate([self.points * w[:, None], w[:, None]], axis=1)
        return H.reshape(self.space.dims + (self.ndim + 1,))

    def map_eval(self, pts):
        """F of grid_eval alone, without building J and det J."""
        F = self._map(pts)[0]
        return F[0] if np.ndim(pts[0]) == 1 else F

    def grid_eval(self, pts):
        """Map, Jacobians and determinants on a batch of point grids.

        Args:
            pts: list of d arrays of parametric coordinates. With pts[l] of
                shape (E, n_l), grid e is the tensor product of the rows
                pts[l][e]; d 1D arrays are one tensor grid.

        Returns:
            (F, J, detJ) of shapes grid+(d,), grid+(d,d) and grid, with grid
            (E, n_1, ..., n_d), or (n_1, ..., n_d) for one tensor grid.
        """
        F, H, T, V, D = self._map(pts)
        cols = []
        for l in range(len(V)):
            G = _tensor_apply(H[None], V[:l] + [D[l]] + V[l + 1:])
            cols.append((G[..., :-1] - F * G[..., -1:]) / T[..., -1:])
        J = np.stack(cols, axis=-1)
        out = (F, J, _det(J))
        return tuple(a[0] for a in out) if np.ndim(pts[0]) == 1 else out

    def _map(self, pts):
        # F, and the net H, its image T and the tables V, D that J needs
        H = self.homogeneous()
        V, D = [], []
        for kv, x in zip(self.space.kvs, pts):
            x = np.atleast_2d(x)
            _, Vl, Dl = _dense_tables(kv, x.ravel())
            V.append(Vl.T.reshape(x.shape + (-1,)))
            D.append(Dl.T.reshape(x.shape + (-1,)))
        T = _tensor_apply(H[None], V)
        return T[..., :-1] / T[..., -1:], H, T, V, D


def _cofactors(J):
    """Cofactors C[i][k] of a stack of d x d matrices J, d <= 3, in closed
    form: det J = sum_k J[0, k] C[0][k] and J^-1 = C^T / det J."""
    d = J.shape[-1]
    if d == 1:
        return [[np.ones(J.shape[:-2])]]
    if d == 2:
        return [[J[..., 1, 1], -J[..., 1, 0]], [-J[..., 0, 1], J[..., 0, 0]]]
    o = [(1, 2), (2, 0), (0, 1)]   # the other two rows or columns, cyclic
    return [[J[..., o[i][0], o[k][0]] * J[..., o[i][1], o[k][1]]
             - J[..., o[i][0], o[k][1]] * J[..., o[i][1], o[k][0]]
             for k in range(3)] for i in range(3)]


def _det(J):
    """Determinants of a stack of d x d matrices, d <= 3, expanded along
    the first row of the cofactors."""
    return sum(J[..., 0, k] * c for k, c in enumerate(_cofactors(J)[0]))


def _tensor_apply(T, mats):
    # contract axes 1..d of T with mats[l] of shape (E, n_l, m_l) in turn,
    # into (E, n_1, ..., n_d) + trailing axes; the batch axis 0 of T or of
    # every mats[l] may be 1 instead of E. swapaxes views, not np.moveaxis,
    # whose Python-side axis handling outlasts a small gemm
    for l, M in enumerate(mats):
        T = T.swapaxes(1, l + 1)
        rest = T.shape[2:]
        T = M @ T.reshape(len(T), M.shape[2], -1)
        T = T.reshape((len(T), M.shape[1]) + rest).swapaxes(1, l + 1)
    return T


# ------------------------------------------------------------- knot insertion

def knot_insert(kv, coeffs, value):
    """Insert one knot into a univariate (homogeneous) coefficient array.

    Boehm's algorithm. coeffs has shape (numdofs, m); one new row appears.

    Returns:
        (new KnotVector, new coeffs).
    """
    U = kv.knots
    p = kv.p
    lo, hi = kv.domain
    if not lo < value < hi:
        raise ValueError('knot %r lies outside the open domain (%r, %r)'
                         % (value, lo, hi))
    span = kv.find_span(value)
    new = np.zeros((coeffs.shape[0] + 1, coeffs.shape[1]))
    new[:span - p + 1] = coeffs[:span - p + 1]
    new[span + 1:] = coeffs[span:]
    for i in range(span - p + 1, span + 1):
        a = (value - U[i]) / (U[i + p] - U[i])
        new[i] = (1 - a) * coeffs[i - 1] + a * coeffs[i]
    knots = np.insert(U, span + 1, value)
    return KnotVector(knots, p), new


def split_patch(patch, direction, value):
    """Split a patch in two at a parametric value along one direction.

    Knots are inserted until the value has full multiplicity p, then the
    control net is cut and each half reparametrized to [0,1].
    """
    d = patch.ndim
    p = patch.space.degrees[direction]
    H = patch.homogeneous()
    H = np.moveaxis(H, direction, 0)
    lead = H.shape[0]
    rest = H.reshape(lead, -1)
    kv = patch.space.kvs[direction]
    mult = int(np.sum(np.isclose(kv.knots, value)))
    for _ in range(p - mult):
        kv, rest = knot_insert(kv, rest, value)
    cut = int(np.searchsorted(kv.knots, value, side='left')) - 1
    # function `cut` is the C0 hat shared by both halves
    halves = []
    pieces = [(kv.knots[:cut + p + 2], rest[:cut + 1]),
              (kv.knots[cut:], rest[cut:])]
    for knots, C in pieces:
        knots = knots.copy()
        knots[0:p + 1] = knots[p]
        knots[-p - 1:] = knots[-p - 1]
        lo, hi = knots[p], knots[-p - 1]
        knots = (knots - lo) / (hi - lo)
        nkv = KnotVector(knots, p)
        kvs = list(patch.space.kvs)
        kvs[direction] = nkv
        shape = (C.shape[0],) + H.shape[1:]
        Hnew = np.moveaxis(C.reshape(shape), 0, direction)
        flat = Hnew.reshape(-1, d + 1)
        w = flat[:, -1]
        halves.append(Patch(SplineSpace(kvs), flat[:, :-1] / w[:, None], w))
    return halves[0], halves[1]


# ------------------------------------------------------------------ trimming

class TrimMask:
    """Element classification of a patch against a trim region.

    Attributes:
        region: the implicit function used (positive inside).
        element_class: int array over the element grid; 1 inside, 0 cut,
            -1 outside.
    """

    def __init__(self, region, element_class):
        self.region = region
        self.element_class = element_class


def classify_elements(space, patch, region, subdepth=3):
    """Classify the elements of a discretization mesh against a trim region.

    An element is cut when the region takes both strict signs on a uniform
    corner lattice with 2**subdepth cells per direction, inside when some
    node is strictly positive and none negative, outside otherwise. Zeros on
    a lattice node are compatible with either side, so a boundary lying on a
    knot line never produces cut elements. Which dofs stay active is left to
    the trimmed assembly, which reads it off the mass diagonal.
    """
    d = space.ndim
    m = 2 ** subdepth + 1
    # one grid of all element lattices side by side, shared nodes repeated,
    # so that axis pair (2l, 2l+1) of the signs is (element, node)
    pts = [np.linspace(*kv.span_bounds(), m, axis=-1).ravel()
           for kv in space.kvs]
    F = patch.map_eval(pts)
    signs = region(*np.moveaxis(F, -1, 0))
    signs = signs.reshape([s for kv in space.kvs for s in (kv.numspans, m)])
    nodes = tuple(range(1, 2 * d, 2))
    has_pos = np.any(signs > 0, axis=nodes)
    has_neg = np.any(signs < 0, axis=nodes)
    return TrimMask(region, np.where(has_pos, np.where(has_neg, 0, 1), -1))


def rotated_square_region(center=(0.5, 0.5), angle=0.0, half_side=0.5):
    """Implicit function of a rotated square; positive inside."""
    cx, cy = center
    c, s = math.cos(angle), math.sin(angle)

    def region(x, y):
        u = c * (x - cx) + s * (y - cy)
        v = -s * (x - cx) + c * (y - cy)
        return half_side - np.maximum(np.abs(u), np.abs(v))
    return region


# ------------------------------------------------------------------- catalog

def _linear_kv():
    return KnotVector([0.0, 0.0, 1.0, 1.0], 1)


def unit_square():
    space = SplineSpace([_linear_kv(), _linear_kv()])
    pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return Patch(space, np.array(pts, dtype=float))


def unit_cube():
    space = SplineSpace([_linear_kv()] * 3)
    pts = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    return Patch(space, np.array(pts, dtype=float))


def stretched_square():
    """Convex bilinear quadrilateral, asymmetric on purpose."""
    space = SplineSpace([_linear_kv(), _linear_kv()])
    pts = [(0, 0), (0, 1), (2, 0), (3, 2)]
    return Patch(space, np.array(pts, dtype=float))


def _check_radii(rin, rout):
    if not 0 < rin < rout:
        raise ValueError('radii must satisfy 0 < rin < rout, got rin=%g, '
                         'rout=%g' % (rin, rout))


def quarter_annulus(rin=1.0, rout=2.0):
    """Exact quarter annulus; first direction radial, second angular.

    Raises:
        ValueError: unless 0 < rin < rout.
    """
    _check_radii(rin, rout)
    kv_ang = KnotVector([0, 0, 0, 1, 1, 1], 2)
    kv_rad = _linear_kv()
    space = SplineSpace([kv_rad, kv_ang])
    arc = np.array([(1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    pts = np.array([r * a for r in (rin, rout) for a in arc])
    w = math.sqrt(0.5)
    weights = np.array([1, w, 1, 1, w, 1], dtype=float)
    return Patch(space, pts, weights)


def plate_quarter_hole():
    """Quarter of the [-4,0]x[0,4] plate with a unit circular hole.

    Single NURBS patch; the hole boundary is exact. The outer corner control
    point is repeated, so the map degenerates there.
    """
    kv_ang = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    kv_rad = KnotVector([0, 0, 0, 1, 1, 1], 2)
    space = SplineSpace([kv_ang, kv_rad])
    s2 = math.sqrt(2.0)
    rows = [
        [(-1.0, 0.0), (-2.5, 0.0), (-4.0, 0.0)],
        [(-1.0, s2 - 1.0), (-2.5, 0.75), (-4.0, 4.0)],
        [(1.0 - s2, 1.0), (-0.75, 2.5), (-4.0, 4.0)],
        [(0.0, 1.0), (0.0, 2.5), (0.0, 4.0)],
    ]
    pts = np.array([xy for row in rows for xy in row], dtype=float)
    wa = (1.0 + 1.0 / s2) / 2.0
    weights = np.array([w for w in (1.0, wa, wa, 1.0) for _ in range(3)])
    return Patch(space, pts, weights)


def plate_quarter_hole_2patch():
    """The plate split along the 45-degree radial line.

    Returns (patches, interfaces) gluing the angular end of the first half
    to the angular start of the second. Splitting keeps the map exact, so
    the degenerate outer corner sits at a patch corner of each half.
    """
    a, b = split_patch(plate_quarter_hole(), 0, 0.5)
    interfaces = [(0, (0, 1), 1, (0, 0), (0,))]
    return [a, b], interfaces


def magnet(rin=1.0, rout=2.0, thickness=0.5):
    """Horseshoe magnet: half annulus swept in the third direction.

    Directions are (radial, angular, thickness); the semicircle is a single
    C1 rational quadratic with an interior knot.

    Raises:
        ValueError: unless 0 < rin < rout and thickness > 0.
    """
    _check_radii(rin, rout)
    if not thickness > 0:
        raise ValueError('thickness must be positive, got %g' % thickness)
    kv_ang = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    space = SplineSpace([_linear_kv(), kv_ang, _linear_kv()])
    arc = np.array([(1.0, 0.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, 0.0)])
    pts = []
    for r in (rin, rout):
        for a in arc:
            for z in (0.0, thickness):
                pts.append((r * a[0], r * a[1], z))
    weights = np.array([w for _ in range(2)
                        for w in (1.0, 0.5, 0.5, 1.0) for _ in range(2)])
    return Patch(space, np.array(pts), weights)


def twisted_box(total_angle=math.pi / 4.0, npatches=3):
    """Stack of trilinear boxes whose square section twists with height."""
    if npatches < 1:
        raise ValueError('npatches must be at least 1, got %g' % npatches)
    patches = []
    angles = np.linspace(0.0, total_angle, npatches + 1)
    zs = np.linspace(0.0, 1.0, npatches + 1)
    for r in range(npatches):
        pts = []
        for sx in (-0.5, 0.5):
            for sy in (-0.5, 0.5):
                for (theta, z) in ((angles[r], zs[r]),
                                   (angles[r + 1], zs[r + 1])):
                    c, s = math.cos(theta), math.sin(theta)
                    pts.append((c * sx - s * sy, s * sx + c * sy, z))
        space = SplineSpace([_linear_kv()] * 3)
        patches.append(Patch(space, np.array(pts)))
    interfaces = [(r, (2, 1), r + 1, (2, 0), (0, 0, 0))
                  for r in range(npatches - 1)]
    return patches, interfaces


def patch_grid(nx, ny):
    """nx-by-ny grid of unit-square patches with conforming interfaces."""
    patches = []
    for i in range(nx):
        for j in range(ny):
            space = SplineSpace([_linear_kv(), _linear_kv()])
            pts = [(i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)]
            patches.append(Patch(space, np.array(pts, dtype=float)))
    interfaces = []
    def pid(i, j):
        return i * ny + j
    for i in range(nx):
        for j in range(ny):
            if i + 1 < nx:
                interfaces.append((pid(i, j), (0, 1), pid(i + 1, j), (0, 0),
                                   (0,)))
            if j + 1 < ny:
                interfaces.append((pid(i, j), (1, 1), pid(i, j + 1), (1, 0),
                                   (0,)))
    return patches, interfaces


def catalog(name, **params):
    """Look up a geometry by id. Multipatch entries return (patches, interfaces);
    single-patch entries return ([patch], [])."""
    single = {
        'unit_square': unit_square,
        'unit_cube': unit_cube,
        'stretched_square': stretched_square,
        'quarter_annulus': quarter_annulus,
        'plate_hole': plate_quarter_hole,
        'magnet': magnet,
    }
    multi = {
        'plate_hole_2patch': plate_quarter_hole_2patch,
        'twisted_box': twisted_box,
        'grid_4x4': lambda: patch_grid(4, 4),
        'grid_1x16': lambda: patch_grid(1, 16),
    }
    if name in single:
        return [single[name](**params)], []
    if name in multi:
        return multi[name](**params)
    raise KeyError('unknown geometry id %r' % name)


def outer_faces(patches, interfaces):
    """Faces not glued to any interface: (patch, direction, side) triples."""
    glued = set()
    for (a, fa, b, fb, _o) in interfaces:
        glued.add((a, fa[0], fa[1]))
        glued.add((b, fb[0], fb[1]))
    out = []
    for ip, patch in enumerate(patches):
        for l in range(patch.ndim):
            for side in (0, 1):
                if (ip, l, side) not in glued:
                    out.append((ip, l, side))
    return out


# -------------------------------------------------------- multipatch topology

def _face_layer(space, face):
    """Free ids of the dof layer on a face, -1 where constrained, shaped as
    the face grid.

    face = (direction, side). The returned array is indexed by the tangential
    multi-index (remaining directions in increasing order).
    """
    direction, side = face
    return np.atleast_1d(np.take(space.dof_grid(), -side, axis=direction))


def _orient_layer(layer, orientation):
    """Reorder patch-b face dofs to match patch a's tangential ordering.

    orientation is (reverse,) on 2D patches' edges, (swap, flip0, flip1) on
    3D patches' faces and () on 1D patches' end points: a swap flag
    transposes the face grid, then the last layer.ndim flags flip its axes.
    """
    if len(orientation) > layer.ndim and orientation[0]:
        layer = layer.T
    flips = orientation[len(orientation) - layer.ndim:]
    return np.flip(layer, [l for l, f in enumerate(flips) if f])


class MultipatchTopology:
    """Conforming multipatch glue: local-to-global dof maps.

    Args:
        spaces: per-patch discretization SplineSpace (Dirichlet flags set on
            outer boundary faces only).
        interfaces: list of (a, face_a, b, face_b, orientation).

    Attributes:
        l2g: per patch, int array over local free dofs giving global ids.
        n_global: number of global dofs.
    """

    def __init__(self, spaces, interfaces):
        self.spaces = list(spaces)
        offsets = np.cumsum([0] + [sp.num_free for sp in self.spaces])
        total = offsets[-1]
        pairs = [np.zeros((2, 0), dtype=int)]
        for (a, face_a, b, face_b, orientation) in interfaces:
            sa, sb = self.spaces[a], self.spaces[b]
            la = _face_layer(sa, face_a)
            lb = _orient_layer(_face_layer(sb, face_b), orientation)
            if la.shape != lb.shape:
                raise ValueError('nonconforming interface between patches '
                                 '%d and %d: %s vs %s'
                                 % (a, b, la.shape, lb.shape))
            qa, qb = la.ravel(), lb.ravel()
            if np.any((qa < 0) != (qb < 0)):
                raise ValueError('interface dof constrained on one side '
                                 'only (patches %d/%d)' % (a, b))
            keep = qa >= 0
            pairs.append((offsets[a] + qa[keep], offsets[b] + qb[keep]))
        pa, pb = np.concatenate(pairs, axis=1)
        # each class of glued dofs ends labelled by its smallest member, so
        # global ids in label order follow the classes' first appearance
        label = np.arange(total)
        while np.any(label[pa] != label[pb]):
            low = np.minimum(label[pa], label[pb])
            np.minimum.at(label, pa, low)
            np.minimum.at(label, pb, low)
            label = label[label]
        uniq, gids = np.unique(label, return_inverse=True)
        self.n_global = len(uniq)
        self.l2g = [gids[offsets[r]:offsets[r + 1]]
                    for r in range(len(self.spaces))]
        counts = np.zeros(self.n_global, dtype=int)
        for m in self.l2g:
            counts[m] += 1
        self.share_count = counts

    def interface_globals(self):
        """Global ids shared by at least two patches."""
        return np.nonzero(self.share_count > 1)[0]

