"""Every storage order of every small shape, checked exhaustively.

``verify`` draws each tensor's storage order at random from every order of
its dims, so it meets any one layout only by chance.  Here every shape of
rank at most 4 with extents 1-3 is laid out in every order of its dims,
fastest first, over distinct data: 728 layouts that differ as maps from
index to offset (orders that differ only in where the extent-1 dims sit
are the same layout).  On each one both flattenings must match the index
route, both round trips must restore the tensor, and a file written in
either element order must read back as the same tensor.  This reaches the
readers that take ``core.gather``'s tuple, ``unblock``, ``tensors_equal``
and ``write_tensor``, on layouts a random draw rarely makes.  Every layout
is checked twice: as a tensor of its own storage, and as a view placed at
a nonzero offset inside a longer storage of other values.

The relabels build their results unchecked: ``transpose`` of every dim
pair, ``reverse_dims``, and a trailing extent-1 dim added and dropped.  So
each relabel of each layout is rebuilt here through the checking
``DenseTensor`` constructor, which must accept its strides and offset, and
read index by index against the source.

Every ``BlockTensor`` holds its blocks as first-index-fastest views of one
storage at offsets 0, n, 2n, ... in grid storage order, a storage that
holds nothing else, and ``unblock`` reads that storage without visiting
the blocks.  Only ``block`` and ``transpose_outer`` make grids, so every
grid ``block`` builds from each layout, and each of its grid transposes,
must be in that form, and must unblock back to the layout's elements.
"""

import itertools

import pytest

import veckit as vk
from veckit import (
    DenseTensor,
    Shape,
    block,
    read_tensor,
    transpose_outer,
    unblock,
    write_tensor,
)
from veckit.core import elements, iter_indices, transpose
from veckit.indexmap import vec_by_index
from veckit.vecops import _append_trailing_axis, _drop_trailing_axis, reverse_dims

# distinct layouts per rank; 728 in all
LAYOUTS = {1: 3, 2: 13, 3: 79, 4: 633}


def _layouts(rank):
    """One tensor per distinct layout of every rank-``rank`` shape."""
    for dims in itertools.product(range(1, 4), repeat=rank):
        seen = set()
        for order in itertools.permutations(range(rank)):
            strides = [0] * rank
            step = 1
            for n in order:
                strides[n] = step
                step *= dims[n]
            key = tuple(s if m > 1 else 0 for s, m in zip(strides, dims))
            if key not in seen:
                seen.add(key)
                yield DenseTensor(Shape(dims), range(step), strides)


def _placed(t):
    """``t`` as a view at offset 2 of its storage with two values either side."""
    data = (-1, -2, *t.data, -3, -4)
    return DenseTensor(t.shape, data, t.strides, 2)


def _one_storage(bt):
    """Assert that ``bt``'s blocks, in grid storage order, are canonical
    views of one storage at offsets 0, n, 2n, ..., which holds only them."""
    grid = bt.grid
    blocks = grid.data[grid.offset : grid.offset + grid.size]
    n = bt.block_shape.size
    flat = blocks[0].data
    assert len(flat) == n * len(blocks)
    for i, b in enumerate(blocks):
        assert b.data is flat
        assert (b.strides, b.offset) == (vk.storage_strides(b.shape), i * n)


def _outers(dims):
    """Every outer grid of ``dims``: each extent 1-3 is 1 or prime."""
    return itertools.product(*({1, m} for m in dims))


def _same(x, y):
    """Equal shapes and elements, by a plain list compare and by tensors_equal."""
    assert x.shape == y.shape
    assert elements(x) == elements(y)
    assert vk.tensors_equal(x, y)


def _relabels(t):
    """Each unchecked relabel of ``t``, with the source index of each of its
    indices."""
    k = t.rank
    for m, n in itertools.combinations(range(k), 2):
        swap = list(range(k))
        swap[m], swap[n] = n, m
        yield transpose(t, m + 1, n + 1), lambda p, swap=swap: [p[d] for d in swap]
    yield reverse_dims(t), lambda p: p[::-1]
    up = _append_trailing_axis(t)
    yield up, lambda p: p[:-1]
    yield _drop_trailing_axis(up), lambda p: p


@pytest.mark.parametrize("rank", sorted(LAYOUTS))
def test_every_storage_order_matches_the_index_route(tmp_path, rank):
    path = tmp_path / "t.json"
    count = 0
    for layout in _layouts(rank):
        count += 1
        for t in (layout, _placed(layout)):
            v, r = vk.vec_k(t), vk.rvec_k(t)
            _same(v, vec_by_index(t))
            _same(r, vec_by_index(vk.reverse_dims(t)))
            _same(vk.vec_inverse(v, t.shape), t)
            _same(vk.rvec_inverse(r, t.shape), t)
            for order in ("row-major", "column-major"):
                write_tensor(t, path, order)
                _same(read_tensor(path), t)
            # the relabels build unchecked; the checking constructor must
            # take what they build, and each index read the source's
            for u, source in _relabels(t):
                checked = DenseTensor(u.shape, u.data, u.strides, u.offset)
                assert checked.data is t.data
                for p in iter_indices(u.shape):
                    assert checked.get(p) == t.get(source(p))
    assert count == LAYOUTS[rank]


@pytest.mark.parametrize("rank", sorted(LAYOUTS))
def test_every_grid_of_every_storage_order_is_one_storage(rank):
    pairs = list(itertools.combinations(range(1, rank + 1), 2))
    for layout in _layouts(rank):
        for outer in _outers(layout.shape.dims):
            for t in (layout, _placed(layout)):
                bt = block(t, outer)
                _one_storage(bt)
                _same(unblock(bt), t)
                for m, n in pairs:
                    _one_storage(transpose_outer(bt, m, n))
