"""Shift-based vectorization: merge-last-two-dims, k-dim vec and row-vec.

The shifting operation merges the last two dimensions of a tensor so that
the element at ``(p_1, ..., p_{k-2}, q)`` with ``q = p_{k-1} + M_{k-1}*p_k``
is the source element at ``(p_1, ..., p_k)``.  Folding it down to rank 1
gives ``vec_k``, the column-major (first-index-fastest) flattening;
``rvec_k`` is the same after reversing the dimension order.  Each forward
operation has an explicit inverse because the merged extent alone does not
determine the split.
"""

from __future__ import annotations

import operator
from itertools import accumulate

from .blocking import block, transpose_outer, unblock
from .core import DenseTensor, Shape, ShapeLike, _check_vector, _relabel, as_shape
from .errors import DimError, ShapeError

# rank-1 DenseTensor; its length always equals the source tensor's size
VecResult = DenseTensor


def _append_trailing_axis(t: DenseTensor) -> DenseTensor:
    """Add a trailing extent-1 dimension; the storage is shared."""
    return _relabel(t, t.shape.dims + (1,), t.strides + (t.size,))


def _drop_trailing_axis(t: DenseTensor) -> DenseTensor:
    """Remove exactly one trailing extent-1 dimension; raises
    :class:`ShapeError` if the last extent is not 1 or the rank is 1."""
    dims = t.shape.dims
    if dims[-1] != 1:
        raise ShapeError(f"last extent {dims[-1]} is not 1")
    return _relabel(t, dims[:-1], t.strides[:-1])


def shift(t: DenseTensor) -> DenseTensor:
    """Merge the last two dimensions of ``t``.

    The result has shape ``[M_1, ..., M_{k-2}, M_{k-1}*M_k]``; the element
    at ``(..., q)`` with ``q = p_{k-1} + M_{k-1}*p_k`` is the source element
    at ``(..., p_{k-1}, p_k)``.  Implemented as partition, outer-grid
    transpose, and concatenation: slicing along the last dimension gives
    one block per last-index value, transposing the grid lines those
    blocks up along dimension k-1, and unblocking interleaves them.
    """
    k = t.rank
    if k < 2:
        raise DimError(f"shift needs rank >= 2, got rank {k}")
    outer = Shape((1,) * (k - 1) + (t.shape.dims[-1],))
    raw = unblock(transpose_outer(block(t, outer), k - 1, k))
    # raw has shape [M_1, ..., M_{k-2}, M_{k-1}*M_k, 1]; drop only the
    # trailing singleton the pipeline itself introduced, so extents of 1
    # elsewhere survive and the inverse can restore the exact shape
    return _drop_trailing_axis(raw)


def shift_inverse(t: DenseTensor, restored_last_extent: int) -> DenseTensor:
    """Split the last extent of ``t`` back into two dimensions.

    The last extent ``L`` becomes ``(L / E, E)`` with
    ``E = restored_last_extent``, undoing the index merge of :func:`shift`:
    ``shift_inverse(shift(t), M_k) == t``.  The rank always grows by one.
    Raises :class:`ShapeError` when ``E`` is not a positive ``int`` or does
    not divide ``L``.
    """
    # the grid first: its Shape refuses an extent that is not a positive int
    outer = Shape((1,) * (t.rank - 1) + (restored_last_extent, 1))
    last = t.shape.dims[-1]
    if last % restored_last_extent != 0:
        raise ShapeError(
            f"restored extent {restored_last_extent} does not divide "
            f"last extent {last}"
        )
    t1 = _append_trailing_axis(t)
    k1 = t1.rank
    return unblock(transpose_outer(block(t1, outer), k1 - 1, k1))


def vec_k(t: DenseTensor) -> VecResult:
    """Flatten ``t`` to a vector, first index fastest.

    Applies :func:`shift` repeatedly, first at rank k, then on the rank
    k-1 result, down to rank 2.  A rank-1 input is returned unchanged.
    """
    while t.rank >= 2:
        t = shift(t)
    return t


def vec_inverse(a: VecResult, target: ShapeLike) -> DenseTensor:
    """The unique tensor of shape ``target`` whose :func:`vec_k` is ``a``.

    Undoes the shift fold in reverse: the first split restores the last
    extent ``M_2 * ... * M_k``, the next ``M_3 * ... * M_k``, and so on
    down to ``M_k``.
    """
    target = as_shape(target)
    _check_vector(a, target)
    # every split extent M_{i+1} * ... * M_k from one suffix-product pass
    t = a
    for extent in reversed(list(accumulate(target.dims[:0:-1], operator.mul))):
        t = shift_inverse(t, extent)
    return t


def reverse_dims(t: DenseTensor) -> DenseTensor:
    """Reverse the dimension order of ``t``, relabeling its extents and
    strides over the same storage: the element at the reversed index tuple
    equals the source element at the original tuple."""
    if t.rank == 1:
        return t
    return _relabel(t, t.shape.dims[::-1], t.strides[::-1])


def rvec_k(t: DenseTensor) -> VecResult:
    """Flatten ``t`` to a vector, last index fastest.

    Equals ``vec_k(reverse_dims(t))``; for a matrix this is the classic
    vectorization of the transpose.
    """
    return vec_k(reverse_dims(t))


def rvec_inverse(a: VecResult, target: ShapeLike) -> DenseTensor:
    """The unique tensor of shape ``target`` whose :func:`rvec_k` is ``a``."""
    target = as_shape(target)
    reversed_target = Shape(tuple(reversed(target.dims)))
    return reverse_dims(vec_inverse(a, reversed_target))
