"""Element-wise vectorization through a mixed-radix index map.

A valid index tuple ``(p_1, ..., p_k)`` for extents ``(M_1, ..., M_k)``
corresponds to the linear position ``m = sum(p_l * M_1*...*M_{l-1})`` with
the empty product equal to 1.  This is a bijection onto ``0 .. size-1``;
its inverse recovers each digit by integer division and remainder.  The
vectorize/unvectorize pair built directly on it is an independent second
computation path for the shift-based operations and serves as their
arbiter in tests.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add

from .core import (
    DenseTensor,
    IndexTuple,
    Shape,
    ShapeLike,
    _check_position,
    _check_vector,
    as_shape,
    check_index,
)

# linear position of an element in the vectorized order; 0 <= m < size
LinearIndex = int


def index_strides(shape: ShapeLike) -> tuple[int, ...]:
    """Exclusive prefix products of the extents: (1, M_1, M_1*M_2, ...)."""
    shape = as_shape(shape)
    out = []
    acc = 1
    for m in shape.dims:
        out.append(acc)
        acc *= m
    return tuple(out)


def linear_index(idx: IndexTuple, shape: ShapeLike) -> LinearIndex:
    """Linear position of ``idx``: first index fastest, last slowest."""
    shape = as_shape(shape)
    idx = check_index(shape, idx)
    return sum(p * s for p, s in zip(idx, index_strides(shape)))


def tuple_index(m: LinearIndex, shape: ShapeLike) -> IndexTuple:
    """Index tuple at linear position ``m``; inverse of :func:`linear_index`."""
    shape = as_shape(shape)
    _check_position(m, shape.size)
    return tuple(
        (m // s) % ext for s, ext in zip(index_strides(shape), shape.dims)
    )


def decompose_check(m: LinearIndex, shape: ShapeLike) -> bool:
    """Whether ``m`` equals the sum of its stride-weighted digits.

    Reconstructs ``m`` as ``sum(stride_l * ((m // stride_l) % M_l))``, the
    identity that makes each braced digit a valid index component.  Holds
    for every in-range ``m``; one out of range raises ``IndexError``, as for
    :func:`tuple_index`.
    """
    shape = as_shape(shape)
    _check_position(m, shape.size)
    total = 0
    for s, ext in zip(index_strides(shape), shape.dims):
        total += s * ((m // s) % ext)
    return total == m


def vec_by_index(t: DenseTensor) -> DenseTensor:
    """Vectorize by direct index arithmetic: output[linear_index(p)] = t[p].

    Output position ``m`` holds the element whose digits are
    ``p_l = (m // s_l) % M_l`` with ``s = index_strides(shape)``; it sits at
    ``t.offset + sum(p_l * t.strides[l])`` in storage.  Positions that
    differ only in ``p_1`` are consecutive, so each run of them is one
    extended slice of storage starting at the offset of its higher digits.
    Those offsets are built one digit at a time, from ``t.offset``: the list
    for digits ``2 .. l`` is repeated once per value ``p`` of digit
    ``l + 1``, shifted by ``p`` times its stride.  When every stride equals
    its ``s_l`` the element sits at ``t.offset + m``, and the result is a
    view of ``t``'s storage.  Same result as the shift-based fold, computed
    without any block or transpose machinery.
    """
    shape = t.shape
    vector = Shape((shape.size,))
    # an extent-1 digit is always 0, whatever its stride
    digits = [
        (m, stride, s)
        for m, stride, s in zip(shape.dims, t.strides, index_strides(shape))
        if m > 1
    ]
    if all(stride == s for _, stride, s in digits):
        return DenseTensor(vector, t.data, (1,), t.offset)
    (m1, stride1, _), higher = digits[0], digits[1:]
    offsets = [t.offset]
    for m, stride, _ in higher:
        n = len(offsets)
        for p in range(1, m):
            # the map stops after the n offsets of the digits below
            offsets.extend(map(add, offsets, repeat(p * stride, n)))
    data, span = t.data, (m1 - 1) * stride1 + 1
    runs = [data[b : b + span : stride1] for b in offsets]
    return DenseTensor(vector, tuple(chain.from_iterable(runs)), (1,))


def unvec_by_index(a: DenseTensor, target: ShapeLike) -> DenseTensor:
    """Rebuild the ``target``-shaped tensor from its vectorization.

    The element at index ``p`` sits at linear position
    ``sum(p_l * s_l)`` with ``s = index_strides(target)``, so those are the
    strides of the result over the vector's own storage, from its offset;
    inverse of :func:`vec_by_index`.
    """
    target = as_shape(target)
    _check_vector(a, target)
    # a rank-1 tensor's data is always in logical order
    return DenseTensor(target, a.data, index_strides(target), a.offset)
