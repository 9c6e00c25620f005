"""Partitioning into equal blocks, grid transposes, and concatenation."""

import pickle

import pytest

import veckit as vk
from veckit import (
    BlockError,
    BlockTensor,
    DimError,
    ShapeError,
    block,
    blocking,
    transpose_outer,
    unblock,
)
from veckit.core import StorageOrder, elements, iter_indices

from conftest import sequential


GOLDEN_BLOCKS = [
    [[[1], [4]], [[7], [10]]],
    [[[2], [5]], [[8], [11]]],
    [[[3], [6]], [[9], [12]]],
]


def test_block_partitions_last_dimension(golden):
    bt = block(golden, (1, 1, 3))
    assert bt.outer_shape.dims == (1, 1, 3)
    assert bt.block_shape.dims == (2, 2, 1)
    for q, want in enumerate(GOLDEN_BLOCKS):
        assert vk.to_nested(bt.block_at((0, 0, q))) == want


def test_block_every_dimension():
    t = sequential((2, 2))
    bt = block(t, (2, 2))
    assert bt.block_shape.dims == (1, 1)
    quarters = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert [bt.block_at(q).get((0, 0)) for q in quarters] == [
        t.get(q) for q in quarters
    ]


def test_block_single_block_is_whole_tensor(golden):
    bt = block(golden, (1, 1, 1))
    assert bt.outer_shape.size == 1
    assert vk.tensors_equal(bt.block_at((0, 0, 0)), golden)


def test_block_rejects_rank_mismatch(golden):
    with pytest.raises(DimError):
        block(golden, (1, 1))


def test_block_rejects_non_divisible(golden):
    with pytest.raises(BlockError):
        block(golden, (1, 1, 2))


@pytest.mark.parametrize(
    "outer",
    [(1, 1, 1), (1, 1, 3), (2, 1, 1), (2, 2, 3), (1, 2, 1)],
)
def test_unblock_inverts_block(golden, outer):
    assert vk.tensors_equal(unblock(block(golden, outer)), golden)


def test_unblock_keeps_explicit_rank():
    t = sequential((4, 1))
    out = unblock(block(t, (2, 1)))
    assert out.shape.dims == (4, 1)


def test_transpose_outer_swaps_grid(golden):
    bt = transpose_outer(block(golden, (1, 1, 3)), 2, 3)
    assert bt.outer_shape.dims == (1, 3, 1)
    assert bt.block_shape.dims == (2, 2, 1)
    for q, want in enumerate(GOLDEN_BLOCKS):
        assert vk.to_nested(bt.block_at((0, q, 0))) == want


def test_transpose_outer_then_unblock_merges(golden):
    raw = unblock(transpose_outer(block(golden, (1, 1, 3)), 2, 3))
    assert raw.shape.dims == (2, 6, 1)
    assert [raw.get((0, j, 0)) for j in range(6)] == [1, 4, 2, 5, 3, 6]
    assert [raw.get((1, j, 0)) for j in range(6)] == [7, 10, 8, 11, 9, 12]


@pytest.mark.parametrize(
    "outer, m, n",
    [((2, 3, 1), 1, 2), ((2, 3, 2), 1, 3), ((2, 3, 2), 2, 3)],
)
def test_transpose_outer_of_wide_grid_dims_unblocks_by_index(outer, m, n):
    # a shift only ever swaps an extent-1 grid dim; here both swapped dims
    # are wider, so unblock must follow the transposed grid strides
    bt = block(sequential((4, 6, 2)), outer)
    swapped = transpose_outer(bt, m, n)
    assert swapped.grid.data is bt.grid.data
    assert swapped.grid.strides != vk.storage_strides(swapped.outer_shape)
    out = unblock(swapped)
    sub = bt.block_shape.dims
    for p in iter_indices(out.shape):
        q = [pi // s for pi, s in zip(p, sub)]
        q[m - 1], q[n - 1] = q[n - 1], q[m - 1]
        local = tuple(pi % s for pi, s in zip(p, sub))
        assert out.get(p) == bt.block_at(tuple(q)).get(local)


def test_unblock_follows_a_row_major_grid():
    # swapping the outer dims of a 2x3x2 grid lists its blocks last grid
    # index fastest; the element at p is the source's at q * S + l, with
    # q's first and last dims swapped back
    t = sequential((2, 6, 4))
    row = transpose_outer(block(t, (2, 3, 2)), 1, 3)
    last_fastest = vk.storage_strides(row.outer_shape, StorageOrder.LAST_INDEX_FASTEST)
    assert row.grid.strides == last_fastest == (6, 2, 1)
    out = unblock(row)
    sub = row.block_shape.dims
    for p in iter_indices(out.shape):
        q = [pi // s for pi, s in zip(p, sub)]
        q[0], q[2] = q[2], q[0]
        r = tuple(qn * s + pi % s for qn, s, pi in zip(q, sub, p))
        assert out.get(p) == t.get(r)


def test_transpose_outer_same_dim_is_identity(golden):
    bt = block(golden, (1, 1, 3))
    assert transpose_outer(bt, 3, 3) is bt


def test_transpose_outer_rejects_out_of_range(golden):
    bt = block(golden, (1, 1, 3))
    with pytest.raises(DimError):
        transpose_outer(bt, 0, 3)
    with pytest.raises(DimError):
        transpose_outer(bt, 1, 4)
    with pytest.raises(DimError, match="dimension 1.0 is not an integer"):
        transpose_outer(bt, 1.0, 2)


def test_unblock_concatenates_views_listed_out_of_offset_order():
    # a transposed grid lists its views, in index order, out of offset
    # order; unblock must place each view by its grid index, not by where
    # it starts in the one storage
    for dims in ((3, 1), (3, 2)):
        bt = transpose_outer(block(sequential((6, 2 * dims[1])), (2, 2)), 1, 2)
        views = [bt.block_at(q) for q in iter_indices(bt.outer_shape)]
        offsets = [v.offset for v in views]
        assert offsets != sorted(offsets)
        got = unblock(bt)
        for p in iter_indices(got.shape):
            q = tuple(pn // s for pn, s in zip(p, dims))
            l = tuple(pn % s for pn, s in zip(p, dims))
            assert got.get(p) == bt.block_at(q).get(l)


def test_block_hands_out_views_of_one_storage():
    t = sequential((2, 3, 4))
    bt = block(t, (2, 1, 2))
    blocks = [bt.block_at(q) for q in iter_indices(bt.outer_shape)]
    assert [b.offset for b in blocks] == [0, 6, 12, 18]
    assert all(b.data is blocks[0].data for b in blocks)
    # t is first index fastest and the grid walks its blocks in order, so
    # the one storage is t's own
    whole = block(t, (1, 1, 2))
    assert whole.block_at((0, 0, 1)).data is t.data


def _pair(s, data, offsets, order=StorageOrder.FIRST_INDEX_FASTEST):
    strides = vk.storage_strides(s, order)
    return tuple(vk.DenseTensor(s, data, strides, o) for o in offsets)


# two 2x2 blocks that are not canonical views of one storage at offsets 0
# and 4 holding exactly their 8 elements
_NOT_ONE_STORAGE = {
    "strided": lambda s: (
        _pair(s, range(1, 5), [0], StorageOrder.LAST_INDEX_FASTEST)
        + _pair(s, range(5, 9), [0], StorageOrder.LAST_INDEX_FASTEST)
    ),
    "two-storages": lambda s: (
        _pair(s, (1, 2, 3, 4, 0, 0, 0, 0), [0])
        + _pair(s, (0, 0, 0, 0, 5, 6, 7, 8), [4])
    ),
    "spare-storage": lambda s: _pair(s, (*range(1, 9), 0), [0, 4]),
    "out-of-offset-order": lambda s: _pair(s, (5, 6, 7, 8, 1, 2, 3, 4), [4, 0]),
}


@pytest.mark.parametrize("case", sorted(_NOT_ONE_STORAGE))
def test_block_tensor_rebuilds_a_grid_that_is_not_one_storage(case):
    # such a grid is not taken as it is: the class refuses it, and the grid
    # of the same blocks is rebuilt by block from their concatenation, as
    # one storage holding the blocks end to end in grid storage order
    s = vk.Shape((2, 2))
    pair = _NOT_ONE_STORAGE[case](s)
    grid = vk.make_tensor((1, 2), pair, StorageOrder.LAST_INDEX_FASTEST)
    with pytest.raises(TypeError):
        BlockTensor(s, grid)

    def check(bt):
        assert bt.outer_shape == grid.shape
        assert bt.grid.strides == vk.storage_strides(grid.shape)
        blocks = [bt.block_at(q) for q in iter_indices(bt.outer_shape)]
        assert [elements(b) for b in blocks] == [elements(b) for b in pair]
        assert [(b.strides, b.offset) for b in blocks] == [((1, 2), 0), ((1, 2), 4)]
        assert blocks[1].data is blocks[0].data
        assert len(blocks[0].data) == 8

    bt = block(vk.make_tensor((2, 4), elements(pair[0]) + elements(pair[1])), (1, 2))
    check(bt)
    # a pickled copy rebuilds the grid as it was, over one storage again
    check(pickle.loads(pickle.dumps(bt)))


def test_unblock_reads_no_block_after_the_first():
    # the first block's storage is the concatenation: placeholders after the
    # first view, in a grid built without checks, are never read
    bt = block(sequential((4, 6, 2)), (2, 3, 2))
    first = bt.grid.data[0]
    grid = vk.DenseTensor(bt.outer_shape, (first,) + (None,) * 11, bt.grid.strides)
    hollow = blocking._unchecked(bt.block_shape, grid)
    assert vk.tensors_equal(unblock(hollow), unblock(bt))
    swapped = transpose_outer(hollow, 1, 2)
    assert vk.tensors_equal(unblock(swapped), unblock(transpose_outer(bt, 1, 2)))


def test_block_tensor_rejects_wrong_count():
    # the grid is a tensor of blocks, so its own length check counts them
    piece = sequential((1, 1))
    with pytest.raises(ShapeError):
        BlockTensor(vk.Shape((1, 1)), vk.make_tensor((2, 2), (piece,)))


def test_block_tensor_rejects_mixed_shapes():
    # a grid of the right count is refused too: no grid is built by hand
    with pytest.raises(TypeError):
        BlockTensor(
            vk.Shape((2,)),
            vk.make_tensor((2,), (sequential((2,)), sequential((3,)))),
        )


def test_block_tensor_rejects_rank_mismatch():
    piece = sequential((2,))
    with pytest.raises(TypeError):
        BlockTensor(vk.Shape((2,)), vk.make_tensor((1, 1), (piece,)))


def test_block_at_rejects_bad_index(golden):
    bt = block(golden, (1, 1, 3))
    with pytest.raises(IndexError):
        bt.block_at((0, 0, 3))


@pytest.mark.parametrize(
    "fields",
    [(), ("grid",), ("block_shape", "grid")],
    ids=lambda fields: "-".join(fields) or "none",
)
def test_block_tensor_is_made_only_by_block_and_transpose_outer(fields):
    # no grid is built by hand: not one of strided blocks, of blocks over
    # several storages, or of the wrong count, rank or block shape, and not
    # even a copy of a grid that block made
    bt = block(sequential((2, 6)), (1, 3))
    with pytest.raises(TypeError, match="made only by block and transpose_outer"):
        BlockTensor(*(getattr(bt, name) for name in fields))
