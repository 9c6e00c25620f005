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
from math import isfinite

from .core import (
    _MAX_BUILT_ELEMENTS,
    DenseTensor,
    Shape,
    StorageOrder,
    _check_vector,
    _slice_last,
    check_index,
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
    """The n x n identity; ``n`` must be a positive ``int`` (:class:`ShapeError`)."""
    shape = Shape((n, n))
    data = [0] * shape.size
    data[:: n + 1] = [1] * n
    return make_tensor(shape, data)


def as_column(a: VecResult) -> Matrix2D:
    """A length-M vector as an M x 1 matrix sharing the vector's storage."""
    _check_vector(a)
    return make_tensor((a.size, 1), elements(a))


def as_row(a: VecResult) -> Matrix2D:
    """A length-N vector as a 1 x N matrix sharing the vector's storage."""
    _check_vector(a)
    return make_tensor((1, a.size), elements(a))


def matmul(x: Matrix2D, y: Matrix2D) -> Matrix2D:
    """Dense matrix product; inner extents must agree."""
    m, n = _dims2(x, "left factor")
    n2, p = _dims2(y, "right factor")
    if n != n2:
        raise ShapeError(f"inner extents differ: {m}x{n} times {n2}x{p}")
    # both factors row by row
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
    """The k-th column (0-based) of ``x`` as an M x 1 matrix; a ``k`` that is
    not an ``int`` in ``0 .. N-1`` raises ``IndexError``."""
    m, _ = _dims2(x, "matrix")
    # column k exists exactly when (0, k) is an index of x
    check_index(x.shape, (0, k))
    return make_tensor((m, 1), _slice_last(x, k))


def vec2(x: Matrix2D) -> VecResult:
    """Classic vectorization: vertical stacking of the columns."""
    return vec_k(x)


def _check_closed_form_size(M: int, N: int) -> None:
    """Refuse an M x N closed form whose factor would exceed 2^21 elements."""
    largest = max(M * N**3, M * M * N * N)
    if largest > _MAX_BUILT_ELEMENTS:
        raise ShapeError(
            f"the closed form for {M}x{N} needs a factor of {largest} elements; "
            f"the limit is {_MAX_BUILT_ELEMENTS}"
        )


def kron_inverse_2d(a: VecResult, M: int, N: int) -> Matrix2D:
    """Rebuild the M x N matrix whose column stacking is ``a``, in closed form.

    Evaluates [vec(I_N)^T kron I_M] * (I_N kron a) literally: the right
    factor stacks shifted copies of ``a`` into an M*N^2 x N matrix, the
    left factor is the M x M*N^2 selector that folds them back.  Equal to
    the index-map inverse on every finite input.  Raises :class:`ShapeError`
    for extents that are not positive ``int``s, for a vector that is not
    rank 1 or not of size ``M*N``, before allocating when either factor
    would exceed 2^21 elements, or
    for a float NaN or infinity, which the selector's zeros would spread
    (0 * NaN and 0 * inf are NaN).  Ints of any size are finite.
    """
    target = Shape((M, N))
    _check_vector(a)
    if a.size != target.size:
        raise ShapeError(f"vector of length {a.size} cannot fill a {M}x{N} matrix")
    _check_closed_form_size(M, N)
    for i, v in enumerate(elements(a)):
        if isinstance(v, float) and not isfinite(v):
            raise ShapeError(
                f"element {i} of the vector is {v}; the closed form needs "
                f"finite values"
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
    return max(abs(lv - rv) for lv, rv in zip(elements(lhs), elements(rhs)))
