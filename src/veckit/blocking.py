"""Partition a tensor into a grid of equally shaped blocks, and back.

``block`` cuts a tensor along every axis into contiguous, axis-aligned
sub-tensors of identical shape, each a view of one shared storage;
``unblock`` concatenates such a grid back into a single tensor.  The grid
itself can be transposed pairwise with ``transpose_outer``, which is what
the shifting operation builds on.
"""

from __future__ import annotations

from itertools import repeat
from operator import mul

from .core import (
    DenseTensor,
    Shape,
    ShapeLike,
    as_shape,
    gather,
    transpose,
    _read_only,
    _slot_setters,
    _unchecked_view,
)
from .errors import BlockError, DimError


class BlockTensor:
    """A grid of equally shaped blocks, all views of one storage.

    ``grid`` is a :class:`DenseTensor` whose elements are the blocks: its
    shape is the outer grid and its strides place each block in its storage.
    The blocks, in the grid's storage order, are first-index-fastest views
    of one storage at offsets 0, n, 2n, ..., which holds exactly their
    elements: it is their concatenation, so :func:`unblock` reads it without
    visiting the blocks.  Only :func:`block` and :func:`transpose_outer` make
    one, so that holds by construction; calling the class raises
    ``TypeError``.  A pickle or copy rebuilds the grid as it was, each view
    through ``DenseTensor``'s checking constructor, and pickle's memo keeps
    their one storage.  Immutable, like the blocks it holds.
    """

    __slots__ = ("block_shape", "grid")

    def __new__(cls, *args, **kwargs):
        raise TypeError("a BlockTensor is made only by block and transpose_outer")

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        return _unchecked, (self.block_shape, self.grid)

    def __repr__(self) -> str:
        return f"BlockTensor(block_shape={self.block_shape!r}, grid={self.grid!r})"

    @property
    def outer_shape(self) -> Shape:
        return self.grid.shape

    def block_at(self, outer_idx) -> DenseTensor:
        """Block at the given outer grid index."""
        return self.grid.get(outer_idx)


_set_block_shape, _set_grid = _slot_setters(BlockTensor)


def _unchecked(block_shape: Shape, grid: DenseTensor) -> BlockTensor:
    """A :class:`BlockTensor` of ``grid`` as it is, the one way to make one:
    its blocks must already be canonical views of one storage at offsets
    0, n, 2n, ... in grid storage order, and that storage exactly their
    elements."""
    bt = object.__new__(BlockTensor)
    _set_block_shape(bt, block_shape)
    _set_grid(bt, grid)
    return bt


def _views(block_shape: Shape, flat: tuple) -> tuple:
    """Canonical ``block_shape`` views of ``flat``, one every n elements,
    as the tuple a grid stores; each fits ``flat`` by construction, so none
    is checked."""
    # the tuple storage_strides returns, read without the call: each shift
    # step reads four such tuples here and in block and unblock
    strides = block_shape._strides
    return tuple([
        _unchecked_view(block_shape, flat, strides, i)
        for i in range(0, len(flat), block_shape.size)
    ])


def block(t: DenseTensor, outer: ShapeLike) -> BlockTensor:
    """Partition ``t`` into an ``outer``-shaped grid of equal blocks.

    Every outer extent must divide the matching tensor extent.  The block
    at outer index ``(q_1, ..., q_k)`` holds the source elements whose
    ``n``-th index lies in ``[q_n * M_n/T_n, (q_n + 1) * M_n/T_n)``.
    """
    outer = as_shape(outer)
    dims, strides = t.shape.dims, t.strides
    if len(outer.dims) != len(dims):
        raise DimError(f"outer rank {len(outer.dims)} != tensor rank {len(dims)}")
    sub = []
    for T, M in zip(outer.dims, dims):
        if M % T != 0:
            raise BlockError(f"outer extent {T} does not divide extent {M}")
        sub.append(M // T)
    block_shape = Shape(sub)

    # one gather over the source: block-local indices vary fastest, then the
    # grid index, whose step along dimension n is (M_n/T_n) * stride_n; each
    # block is a view of that one storage, n elements after the one before,
    # and the grid lists them in that order, so nothing needs checking
    flat = gather(
        t.data,
        block_shape.dims + outer.dims,
        strides + tuple(map(mul, sub, strides)),
        t.offset,
    )
    grid = _unchecked_view(outer, _views(block_shape, flat), outer._strides, 0)
    return _unchecked(block_shape, grid)


def unblock(bt: BlockTensor) -> DenseTensor:
    """Concatenate a block grid back into one tensor.

    Inverse of :func:`block`: the result has extents ``T_n * M_n/T_n`` and
    keeps explicit rank ``k`` even when some extents are 1; a caller that
    wants fewer dims relabels the result itself, as ``shift`` does.
    """
    block_shape, grid = bt.block_shape, bt.grid
    sub, outer = block_shape.dims, grid.shape.dims
    shape = Shape(map(mul, outer, sub))
    # the storage of the block first in grid storage order is every block's
    # elements end to end in that order, each block first index fastest
    flat = grid.data[grid.offset].data
    # result index p_n = q_n * S_n + l_n, so listing the result first index
    # fastest walks (l_1, q_1, l_2, q_2, ...) with l_1 fastest; the block at
    # grid index q starts n times its grid storage offset into ``flat``;
    # slice assignment interleaves the pairs, with no per-pair tuples
    dims = [0] * (2 * len(sub))
    strides = dims[:]
    dims[::2], dims[1::2] = sub, outer
    strides[::2] = block_shape._strides
    strides[1::2] = map(mul, grid.strides, repeat(block_shape.size))
    # the gather lists exactly shape.size elements, first index fastest
    data = gather(flat, dims, strides, 0)
    return _unchecked_view(shape, data, shape._strides, 0)


def transpose_outer(bt: BlockTensor, m: int, n: int) -> BlockTensor:
    """Swap dimensions ``m`` and ``n`` (1-indexed) of the outer grid only.

    Blocks travel with their grid cell; block contents are untouched.  The
    swap relabels the grid's strides over the same block storage.
    """
    grid = transpose(bt.grid, m, n)
    if grid is bt.grid:
        return bt
    # the grid's storage and its order are untouched, so its blocks are
    # still the one storage in order
    return _unchecked(bt.block_shape, grid)
