"""Kronecker products and the closed-form 2-D inverse vectorization.

For a vector ``a`` of length M*N, the matrix it came from under classic
column stacking can be written in one shot as

    [vec(I_N)^T kron I_M] * (I_N kron a)

instead of splitting indices.  This module provides the dense matrix
pieces (product, Kronecker product, identities) and that closed form,
plus the product identity vec(O*P*Q) = (Q^T kron O) * vec(P) as a
measurable residual.  Everything here is a direct dense implementation
meant as a correctness oracle, not a performance kernel.
"""

from __future__ import annotations

from itertools import compress

from .core import (
    DenseTensor,
    Shape,
    StorageOrder,
    elements,
    make_tensor,
    to_nested,
    transpose,
)
from .errors import ShapeError
from .vecops import VecResult, vec_k

# rank-2 DenseTensor, extents M x N
Matrix2D = DenseTensor


def _dims2(x: DenseTensor, what: str) -> tuple[int, int]:
    if x.rank != 2:
        raise ShapeError(f"{what} must have rank 2, got rank {x.rank}")
    return x.shape.dims[0], x.shape.dims[1]


def identity_matrix(n: int) -> Matrix2D:
    """The n x n identity."""
    if n < 1:
        raise ShapeError(f"identity size must be positive, got {n}")
    data = [0] * (n * n)
    data[:: n + 1] = [1] * n
    return make_tensor((n, n), data)


def as_column(a: VecResult) -> Matrix2D:
    """A length-M vector as an M x 1 matrix sharing the vector's storage."""
    if a.rank != 1:
        raise ShapeError(f"expected a rank-1 vector, got rank {a.rank}")
    return DenseTensor(Shape((a.size, 1)), a.data, a.strides + (a.size,))


def as_row(a: VecResult) -> Matrix2D:
    """A length-N vector as a 1 x N matrix sharing the vector's storage."""
    if a.rank != 1:
        raise ShapeError(f"expected a rank-1 vector, got rank {a.rank}")
    return DenseTensor(Shape((1, a.size)), a.data, (a.size,) + a.strides)


def matmul(x: Matrix2D, y: Matrix2D) -> Matrix2D:
    """Dense matrix product; inner extents must agree."""
    m, n = _dims2(x, "left factor")
    n2, p = _dims2(y, "right factor")
    if n != n2:
        raise ShapeError(f"inner extents differ: {m}x{n} times {n2}x{p}")
    xs = elements(x, StorageOrder.LAST_INDEX_FASTEST)
    ys = elements(y, StorageOrder.LAST_INDEX_FASTEST)
    out = []
    for i in range(0, m * n, n):
        xrow = xs[i : i + n]
        row = [0] * p
        # zero entries of x add nothing; the rest add in k order
        for k in compress(range(n), xrow):
            xv, start = xrow[k], k * p
            for j in range(p):
                row[j] += xv * ys[start + j]
        out += row
    return make_tensor((m, p), out, StorageOrder.LAST_INDEX_FASTEST)


def kronecker(x: Matrix2D, y: Matrix2D) -> Matrix2D:
    """Kronecker product: (i*My + r, j*Ny + s) holds x(i,j) * y(r,s)."""
    mx, nx = _dims2(x, "left factor")
    my, ny = _dims2(y, "right factor")
    yr = to_nested(y)
    # row i*My + r lists x(i, j) * y(r, s) with s fastest
    data = [
        xv * yv for xrow in to_nested(x) for yrow in yr for xv in xrow for yv in yrow
    ]
    return make_tensor((mx * my, nx * ny), data, StorageOrder.LAST_INDEX_FASTEST)


def matrix_column(x: Matrix2D, k: int) -> Matrix2D:
    """The k-th column (0-based) of ``x`` as an M x 1 matrix."""
    m, n = _dims2(x, "matrix")
    if not 0 <= k < n:
        raise IndexError(f"column {k} out of range for {m}x{n}")
    rs, cs = x.strides
    if m == 1:
        rs = 1  # an extent-1 dim may carry any stride, even 0
    start = k * cs
    return make_tensor((m, 1), x.data[start : start + (m - 1) * rs + 1 : rs])


def vec2(x: Matrix2D) -> VecResult:
    """Classic vectorization: vertical stacking of the columns."""
    return vec_k(x)


def kron_inverse_2d(a: VecResult, M: int, N: int) -> Matrix2D:
    """Rebuild the M x N matrix whose column stacking is ``a``, in closed form.

    Evaluates [vec(I_N)^T kron I_M] * (I_N kron a) literally: the right
    factor stacks shifted copies of ``a`` into an M*N^2 x N matrix, the
    left factor is the M x M*N^2 selector that folds them back.  Equal to
    the index-map inverse on every input.
    """
    if M < 1 or N < 1:
        raise ShapeError(f"target extents must be positive, got {M}x{N}")
    if a.rank != 1:
        raise ShapeError(f"expected a rank-1 vector, got rank {a.rank}")
    if a.shape.size != M * N:
        raise ShapeError(
            f"vector of length {a.shape.size} cannot fill a {M}x{N} matrix"
        )
    eye_n = identity_matrix(N)
    right = kronecker(eye_n, as_column(a))
    left = kronecker(as_row(vec2(eye_n)), identity_matrix(M))
    return matmul(left, right)


def vec_product_identity_residual(
    O: Matrix2D, P: Matrix2D, Q: Matrix2D
) -> int | float:
    """Largest deviation from vec(O*P*Q) == (Q^T kron O) * vec(P).

    Exactly zero on integer data; the extents must make the product
    O*P*Q well formed.
    """
    lhs = vec2(matmul(matmul(O, P), Q))
    rhs = vec2(matmul(kronecker(transpose(Q, 1, 2), O), as_column(vec2(P))))
    return max(abs(lv - rv) for lv, rv in zip(lhs.data, rhs.data))
