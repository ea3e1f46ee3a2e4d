"""Lumping operators on hierarchically banded matrices.

The matrices produced by tensor-product discretizations are d-level banded:
indexing dofs lexicographically by their multi-index, the matrix splits into
an n_1 x n_1 grid of blocks of size r_1 = n_2 * ... * n_d, each block again
splits, and interactions vanish beyond a per-level bandwidth. All operators
here work on sparse triplets with index arithmetic derived from (dims,
bandwidths); nothing is densified.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def _as_csr(B):
    if isinstance(B, HierBandedMatrix):
        return B.mat
    if sp.issparse(B):
        return B.tocsr()
    return sp.csr_matrix(np.asarray(B, dtype=float))


def _strides(dims):
    return tuple(int(np.prod(dims[k + 1:], dtype=int))
                 for k in range(len(dims)))


def hier_bandwidth(b, n):
    """Scalar bandwidth sum(b_k * r_k) of a d-level banded matrix.

    r_k is the stride prod(n_j for j > k); the deepest stride is 1.
    """
    b = [int(x) for x in b]
    n = [int(x) for x in n]
    if len(b) != len(n):
        raise ValueError('bandwidths and dims differ in length')
    return sum(bk * r for bk, r in zip(b, _strides(n)))


def _measured_bandwidth(A):
    """Largest |i - j| over the nonzero entries; stored zeros do not count."""
    coo = _as_csr(A).tocoo()
    live = coo.data != 0.0
    return int(np.max(np.abs(coo.row[live] - coo.col[live]), initial=0))


@dataclass
class HierBandedMatrix:
    """Symmetric sparse matrix tagged with its tensor block structure.

    dims is the multi-index shape (n_1, ..., n_d), slowest direction first;
    bandwidths gives the interaction radius per level. A matrix without
    tensor structure (multipatch globals, trimmed systems) is plain CSR.
    """
    mat: sp.csr_matrix
    dims: tuple
    bandwidths: tuple

    def __post_init__(self):
        self.mat = _as_csr(self.mat)
        self.dims = tuple(int(n) for n in self.dims)
        if int(np.prod(self.dims)) != self.mat.shape[0]:
            raise ValueError('dims do not match matrix size')
        self.bandwidths = tuple(int(b) for b in self.bandwidths)

    @property
    def shape(self):
        return self.mat.shape

    def scalar_bandwidth(self):
        """Predicted bandwidth sum(b_k * r_k) of the flat matrix."""
        return hier_bandwidth(self.bandwidths, self.dims)

    def measured_bandwidth(self):
        return _measured_bandwidth(self.mat)

    def toarray(self):
        return self.mat.toarray()

    def __matmul__(self, x):
        return self.mat @ x


def lump_rowsum(B):
    """Diagonal of absolute row sums.

    For matrices with nonnegative entries (masses) the absolute values
    change nothing and this is the classical row-sum lumped matrix.
    """
    A = _as_csr(B)
    d = np.asarray(np.abs(A).sum(axis=1)).ravel()
    out = sp.diags(d).tocsr()
    if isinstance(B, HierBandedMatrix):
        return HierBandedMatrix(out, B.dims, (0,) * len(B.dims))
    return out


def _csr(rows, cols, vals, n):
    """n x n CSR matrix of the triplets, duplicates summed."""
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _scatter(mats, maps, n):
    """Sum local matrices into an n x n global one through l2g maps; an
    entry whose row or column maps to -1 is dropped."""
    rows, cols, vals = [], [], []
    for B, l2g in zip(mats, maps):
        coo = _as_csr(B).tocoo()
        r, c = l2g[coo.row], l2g[coo.col]
        keep = (r >= 0) & (c >= 0)
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(coo.data[keep])
    return _csr(np.concatenate(rows), np.concatenate(cols),
                np.concatenate(vals), n)


def _lumped(B, i, depth):
    """B block-lumped at each of its first depth levels, tagged with the
    bandwidths that leaves: at stride s, an entry whose level blocks lie
    i_l or more apart (i_1 = i, i_l = 1 below) moves into the diagonal
    block of its row."""
    if not isinstance(B, HierBandedMatrix):
        raise ValueError('lumping by blocks needs a HierBandedMatrix, got %s'
                         % type(B).__name__)
    if not 1 <= i <= B.dims[0]:
        raise ValueError('band index out of range')
    if not 1 <= depth <= len(B.dims):
        raise ValueError('level out of range')
    coo = B.mat.tocoo()
    rows, cols = coo.row, coo.col
    for il, s in zip([i] + [1] * (depth - 1), _strides(B.dims)):
        cols = np.where(np.abs(rows // s - cols // s) < il, cols,
                        (rows // s) * s + cols % s)
    bandwidths = ((min(i - 1, B.bandwidths[0]),) + (0,) * (depth - 1)
                  + B.bandwidths[depth:])
    return HierBandedMatrix(_csr(rows, cols, coo.data, B.shape[0]),
                            B.dims, bandwidths)


def block_lumped_family(B, i):
    """Keep block diagonals up to distance i-1, block-lump the rest.

    i=1 sums the top-level blocks of each block row onto the diagonal, and
    i=n_1 returns the input unchanged. The sums are plain, no absolute
    values: for matrices with positive semidefinite blocks the diagonal
    block sums stay positive definite. The family decreases monotonically
    in the Loewner order as i grows.
    """
    return _lumped(B, i, 1)


def hierarchical_lump(B, k):
    """Apply block lumping recursively down k levels.

    Level 1 equals block_lumped_family(B, 1); level d collapses to plain
    row sums, which for nonnegative matrices coincide with lump_rowsum. The
    levels increase monotonically in the Loewner order, B <= H_1 <= ...
    <= H_d with H_k = hierarchical_lump(B, k), as long as the blocks lumped
    at every level above the deepest are positive semidefinite; the step to
    full depth d also needs nonnegative entries, which mass matrices have.
    """
    return _lumped(B, 1, k)


def lump_pieces(pieces, n, i=None, level=None):
    """Lump a mass held as tensor pieces (B, to_sys) into n system dofs.

    Each HierBandedMatrix B is lumped on its own block structure, by
    block_lumped_family with i or hierarchical_lump with level, and summed
    into the system through to_sys, -1 dropping a row or column; a piece
    mapped by None is the system matrix itself and keeps its tensor tag. A
    piece padded with zeros lumps to a principal submatrix of its lumped
    padded matrix, which keeps its definiteness.
    """
    if (i is None) == (level is None):
        raise ValueError('pass exactly one of i or level')
    lumped = [hierarchical_lump(B, level) if i is None
              else block_lumped_family(B, i) for B, _ in pieces]
    maps = [to_sys for _, to_sys in pieces]
    if maps[0] is None:
        return lumped[0]
    return _scatter(lumped, maps, n)
