"""Partition a tensor into a grid of equally shaped blocks, and back.

``block`` cuts a tensor along every axis into contiguous, axis-aligned
sub-tensors of identical shape; ``unblock`` concatenates such a grid back
into a single tensor.  The grid itself can be transposed pairwise with
``transpose_outer``, which is what the shifting operation builds on.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from .core import (
    DenseTensor,
    Shape,
    ShapeLike,
    as_shape,
    check_index,
    gather,
    storage_strides,
    _read_only,
    _slot_setters,
)
from .errors import BlockError, DimError


class BlockTensor:
    """A grid of equally shaped blocks.

    ``blocks`` is stored in first-index-fastest order of the outer grid
    index.  Construction enforces the full invariants: block count matches
    the outer size, every block has exactly ``block_shape``, and the outer
    and block ranks agree.  Immutable, like the blocks it holds.
    """

    __slots__ = ("outer_shape", "block_shape", "blocks")

    def __init__(
        self, outer_shape: Shape, block_shape: Shape, blocks: Sequence[DenseTensor]
    ) -> None:
        blocks = tuple(blocks)
        if outer_shape.rank != block_shape.rank:
            raise BlockError(
                f"outer rank {outer_shape.rank} != block rank {block_shape.rank}"
            )
        if len(blocks) != outer_shape.size:
            raise BlockError(
                f"{len(blocks)} blocks for outer grid of size {outer_shape.size}"
            )
        for b in blocks:
            if b.shape.dims != block_shape.dims:
                raise BlockError(
                    f"block shape {list(b.shape.dims)} differs from "
                    f"{list(block_shape.dims)}"
                )
        _set_outer_shape(self, outer_shape)
        _set_block_shape(self, block_shape)
        _set_blocks(self, blocks)

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        return BlockTensor, (self.outer_shape, self.block_shape, self.blocks)

    def __repr__(self) -> str:
        return (
            f"BlockTensor(outer_shape={self.outer_shape!r}, "
            f"block_shape={self.block_shape!r}, blocks={self.blocks!r})"
        )

    def block_at(self, outer_idx) -> DenseTensor:
        """Block at the given outer grid index."""
        idx = check_index(self.outer_shape, outer_idx)
        strides = storage_strides(self.outer_shape)
        return self.blocks[sum(q * s for q, s in zip(idx, strides))]


_set_outer_shape, _set_block_shape, _set_blocks = _slot_setters(BlockTensor)


def block(t: DenseTensor, outer: ShapeLike) -> BlockTensor:
    """Partition ``t`` into an ``outer``-shaped grid of equal blocks.

    Every outer extent must divide the matching tensor extent.  The block
    at outer index ``(q_1, ..., q_k)`` holds the source elements whose
    ``n``-th index lies in ``[q_n * M_n/T_n, (q_n + 1) * M_n/T_n)``.
    """
    outer = as_shape(outer)
    if outer.rank != t.rank:
        raise DimError(f"outer rank {outer.rank} != tensor rank {t.rank}")
    sub = []
    for T, M in zip(outer.dims, t.shape.dims):
        if M % T != 0:
            raise BlockError(f"outer extent {T} does not divide extent {M}")
        sub.append(M // T)
    block_shape = Shape(tuple(sub))

    # one gather over the source: block-local indices vary fastest, then the
    # grid index, whose step along dimension n is (M_n/T_n) * stride_n
    grid_strides = tuple(sn * st for sn, st in zip(sub, t.strides))
    flat = gather(t.data, block_shape.dims + outer.dims, t.strides + grid_strides)
    n = block_shape.size
    strides = storage_strides(block_shape)
    blocks = [
        DenseTensor(block_shape, flat[i : i + n], strides)
        for i in range(0, len(flat), n)
    ]
    return BlockTensor(outer, block_shape, tuple(blocks))


def unblock(bt: BlockTensor) -> DenseTensor:
    """Concatenate a block grid back into one tensor.

    Inverse of :func:`block`: the result has extents ``T_n * M_n/T_n`` and
    keeps explicit rank ``k`` even when some extents are 1; squeezing is a
    separate, caller-controlled step.
    """
    sub, grid = bt.block_shape.dims, bt.outer_shape.dims
    shape = Shape(tuple(T * S for T, S in zip(grid, sub)))
    # the blocks' elements end to end, each block first index fastest; a block
    # that carries the canonical strides (every block ``block`` builds) is
    # already in that order, so only strided blocks are gathered
    canon = storage_strides(bt.block_shape)
    runs = [
        b.data if b.strides is canon else gather(b.data, sub, b.strides)
        for b in bt.blocks
    ]
    flat = tuple(chain.from_iterable(runs))
    # result index p_n = q_n * S_n + l_n, so listing the result first index
    # fastest walks (l_1, q_1, l_2, q_2, ...) with l_1 fastest
    n = bt.block_shape.size
    steps = zip(storage_strides(bt.block_shape), storage_strides(bt.outer_shape))
    data = gather(
        flat,
        tuple(chain.from_iterable(zip(sub, grid))),
        tuple(chain.from_iterable((ls, gs * n) for ls, gs in steps)),
    )
    return DenseTensor(shape, data, storage_strides(shape))


def transpose_outer(bt: BlockTensor, m: int, n: int) -> BlockTensor:
    """Swap dimensions ``m`` and ``n`` (1-indexed) of the outer grid only.

    Blocks travel with their grid cell; block contents are untouched.
    """
    k = bt.outer_shape.rank
    if not 1 <= m <= k or not 1 <= n <= k:
        raise DimError(f"dimensions ({m}, {n}) out of range for rank {k}")
    if m == n:
        return bt
    a, b = m - 1, n - 1
    dims = list(bt.outer_shape.dims)
    strides = list(storage_strides(bt.outer_shape))
    dims[a], dims[b] = dims[b], dims[a]
    strides[a], strides[b] = strides[b], strides[a]
    new_blocks = gather(bt.blocks, dims, strides)
    return BlockTensor(Shape(tuple(dims)), bt.block_shape, new_blocks)
