"""Tensor values: shapes, indexing, strides, elementary reshaping."""

import ast
import itertools
import math
import operator
from pathlib import Path

import pytest

import veckit as vk
from veckit import DimError, ShapeError, StorageOrder
from veckit.core import _relabel, elements, gather
from veckit.vecops import _append_trailing_axis, _drop_trailing_axis

from conftest import GOLDEN_NESTED


def test_shape_accessors():
    s = vk.Shape((2, 2, 3))
    assert s.rank == 3
    assert s.size == 12
    assert s.extent(1) == 2
    assert s.extent(3) == 3
    # extent(0) is the conventional 1 used by stride products
    assert s.extent(0) == 1


def test_shape_extent_out_of_range():
    s = vk.Shape((2, 3))
    with pytest.raises(DimError):
        s.extent(3)
    with pytest.raises(DimError):
        s.extent(-1)


@pytest.mark.parametrize("dims", [(), (0,), (-1,), (2, 0), (2.5,), ("2",), (True,)])
def test_shape_rejects_bad_extents(dims):
    with pytest.raises(ShapeError):
        vk.Shape(dims)


def test_shape_rejects_oversized():
    with pytest.raises(ShapeError):
        vk.Shape((2**32, 2**32))


def test_as_shape():
    s = vk.Shape((2, 3))
    assert vk.as_shape(s) is s
    assert vk.as_shape([2, 3]).dims == (2, 3)
    assert vk.as_shape((4,)).dims == (4,)


def test_storage_strides():
    s = vk.Shape((2, 3, 4))
    assert vk.storage_strides(s, StorageOrder.FIRST_INDEX_FASTEST) == (1, 2, 6)
    assert vk.storage_strides(s, StorageOrder.LAST_INDEX_FASTEST) == (12, 4, 1)


def _by_offsets(data, dims, strides, offset):
    """``data`` at ``offset + sum(p * s)`` for every index, first index
    fastest: the definition of a layout, independent of how ``gather``
    merges runs."""
    indices = vk.iter_indices(dims)
    return tuple(
        data[offset + sum(map(operator.mul, idx, strides))] for idx in indices
    )


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 1, 2, 2), (1, 5), (4, 1), (1, 1, 1)])
def test_gather_matches_offset_sums_on_permuted_strides(dims):
    size = math.prod(dims)
    data = tuple(range(100, 100 + size))
    # the same layouts from offsets inside a longer storage
    longer = tuple(range(200, 200 + 2 * size + 1))
    for order in itertools.permutations(range(len(dims))):
        # contiguous storage that walks the dims in ``order``, fastest first;
        # extent-1 dims then take any stride
        strides = [0] * len(dims)
        acc = 1
        for n in order:
            strides[n] = acc
            acc *= dims[n]
        any_unit = [99 if m == 1 else s for m, s in zip(dims, strides)]
        for layout in ((dims, strides), (dims, any_unit)):
            assert gather(data, *layout, 0) == _by_offsets(data, *layout, 0)
            for offset in (0, 1, size + 1):
                got = gather(longer, *layout, offset)
                assert got == _by_offsets(longer, *layout, offset)


@pytest.mark.parametrize(
    "dims, outer", [((4, 6), (2, 3)), ((2, 3, 4), (2, 1, 2)), ((4, 4, 2), (4, 2, 1))]
)
def test_gather_matches_offset_sums_on_block_layouts(dims, outer):
    data = tuple(range(100, 100 + math.prod(dims)))
    sub = tuple(m // t for m, t in zip(dims, outer))
    n = math.prod(sub)
    for order in StorageOrder:
        strides = vk.storage_strides(vk.Shape(dims), order)
        # block's gather: block-local indices fastest, then the grid index
        grid = tuple(s * st for s, st in zip(sub, strides))
        layout = (sub + outer, strides + grid)
        assert gather(data, *layout, 0) == _by_offsets(data, *layout, 0)
    # unblock's gather over the interleaved (l_1, q_1, l_2, q_2, ...) dims
    steps = zip(vk.storage_strides(vk.Shape(sub)), vk.storage_strides(vk.Shape(outer)))
    layout = (
        tuple(itertools.chain.from_iterable(zip(sub, outer))),
        tuple(itertools.chain.from_iterable((ls, gs * n) for ls, gs in steps)),
    )
    assert gather(data, *layout, 0) == _by_offsets(data, *layout, 0)


def test_gather_returns_an_in_order_layout_as_is():
    data = (5, 6, 7)
    assert gather(data, (3,), (1,), 0) is data
    assert gather(data, (1, 3, 1), (7, 1, 3), 0) is data
    assert gather(data, (2,), (2,), 0) == (5, 7)
    # in order but shorter than the storage: a copy, not the storage
    assert gather((5, 6, 7, 8), (2,), (1,), 0) == (5, 6)
    listed = [5, 6, 7, 8]
    assert gather(listed, (2, 2), (1, 2), 0) is listed
    # extent-1 dims may carry any stride, 0 included, at the front or between
    assert gather(listed, (1, 4), (0, 1), 0) is listed
    assert gather(listed, (2, 1, 2), (1, 0, 2), 0) is listed
    assert gather(listed, (1, 2, 1, 2, 1), (0, 1, 0, 2, 0), 0) is listed
    # in order from a nonzero offset: the rest of the storage, copied
    assert gather(listed, (3,), (1,), 1) == (6, 7, 8)
    assert gather(listed, (1, 2), (5, 1), 2) == (7, 8)
    assert gather(listed, (2,), (2,), 1) == (6, 8)


@pytest.mark.parametrize(
    "dims, strides",
    [
        ((2,), (3,)),
        ((3,), (2,)),
        ((4,), (1,)),
        ((2, 2), (1, 2)),
        ((3, 2), (1, 1)),
        ((2, 2), (2, 1)),
    ],
)
def test_gather_refuses_a_layout_that_runs_past_the_data(dims, strides):
    # an extended slice would cut the copy short without an error; (3,)
    # with stride 2 is as long as the data but is not the data in order
    with pytest.raises(ShapeError) as info:
        gather((1, 2, 3), dims, strides, 0)
    assert str(info.value) == (
        f"dims {list(dims)} with strides {list(strides)} run past 3 elements"
    )


@pytest.mark.parametrize(
    "dims, strides", [((3,), (1,)), ((2,), (2,)), ((3, 1), (1, 5))]
)
def test_gather_refuses_an_offset_that_runs_past_the_data(dims, strides):
    # each layout fits the 3 elements from offset 0, and not from offset 1
    assert len(gather((1, 2, 3), dims, strides, 0)) == math.prod(dims)
    with pytest.raises(ShapeError, match="run past 3 elements"):
        gather((1, 2, 3), dims, strides, 1)


def test_elements_of_an_in_order_layout_is_the_storage():
    t = vk.make_tensor((2, 3), range(6))
    assert elements(t) is t.data
    r = vk.make_tensor((2, 3), range(6), StorageOrder.LAST_INDEX_FASTEST)
    assert elements(r, StorageOrder.LAST_INDEX_FASTEST) is r.data
    assert elements(r) == (0, 3, 1, 4, 2, 5)


def test_files_and_the_kronecker_oracle_leave_layout_to_core():
    # they read tensors only through elements, so the stride rule lives in
    # core and the two routes alone
    package = Path(vk.__file__).resolve().parent
    for name in ("tensorfile.py", "kron2d.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "gather" not in [alias.name for alias in node.names], name
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("gather", "strides"), name


def test_iter_indices_first_index_fastest():
    got = list(vk.iter_indices((2, 3)))
    assert got == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]


def test_iter_indices_last_index_fastest():
    got = list(vk.iter_indices((2, 3), StorageOrder.LAST_INDEX_FASTEST))
    assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_make_tensor_rejects_wrong_length():
    with pytest.raises(ShapeError):
        vk.make_tensor((2, 2), [1, 2, 3])


def test_get_honors_storage_order():
    fif = vk.make_tensor((2, 2), [1, 3, 2, 4])
    lif = vk.make_tensor((2, 2), [1, 2, 3, 4], StorageOrder.LAST_INDEX_FASTEST)
    for idx in vk.iter_indices((2, 2)):
        assert fif.get(idx) == lif.get(idx)
    assert vk.tensors_equal(fif, lif)


@pytest.mark.parametrize(
    "strides",
    [(1,), (1, 2, 6), (1, 1), (1, 3), (2, 1), (0, 2), (-1, 2), (1.0, 2), (1, None)],
    ids=["short", "long", "repeated", "gapped", "overlapping", "zero", "negative",
         "float", "none"],
)
def test_dense_tensor_rejects_strides_that_do_not_tile(strides):
    with pytest.raises(ShapeError):
        vk.DenseTensor(vk.Shape((2, 3)), tuple(range(6)), strides)


def test_dense_tensor_extent_one_dims_take_any_stride():
    t = vk.DenseTensor(vk.Shape((2, 1, 3)), tuple(range(6)), (1, 99, 2))
    assert t.get((1, 0, 2)) == 5
    assert vk.to_nested(t) == [[[0, 2, 4]], [[1, 3, 5]]]


def test_getitem_and_function_form(golden):
    assert golden[(0, 1, 0)] == 4
    assert golden[(1, 1, 2)] == 12
    assert golden[(0, 0, 2)] == 3
    assert golden.get((1, 0, 0)) == 7


@pytest.mark.parametrize("idx", [(0,), (0, 0, 0, 0), (2, 0, 0), (0, -1, 0), (0, 0, 3), (0, True, 0)])
def test_get_rejects_bad_index(golden, idx):
    with pytest.raises(IndexError):
        golden.get(idx)


def test_transpose_matrix():
    t = vk.from_nested([[1, 2], [3, 4]])
    assert vk.to_nested(vk.transpose(t, 1, 2)) == [[1, 3], [2, 4]]


def test_transpose_shares_storage(golden):
    swapped = vk.transpose(golden, 1, 2)
    assert swapped.data is golden.data
    assert vk.to_nested(swapped) == [
        [[1, 2, 3], [7, 8, 9]],
        [[4, 5, 6], [10, 11, 12]],
    ]


def test_transpose_same_dim_is_identity():
    t = vk.from_nested([[1, 2], [3, 4]])
    assert vk.transpose(t, 2, 2) is t


def test_transpose_twice_restores(golden):
    assert vk.tensors_equal(vk.transpose(vk.transpose(golden, 1, 3), 1, 3), golden)


def test_transpose_moves_extents(golden):
    swapped = vk.transpose(golden, 2, 3)
    assert swapped.shape.dims == (2, 3, 2)
    assert swapped.get((1, 2, 0)) == golden.get((1, 0, 2))


def test_transpose_rejects_out_of_range(golden):
    with pytest.raises(DimError):
        vk.transpose(golden, 0, 1)
    with pytest.raises(DimError):
        vk.transpose(golden, 1, 4)


@pytest.mark.parametrize("m, n", [(True, 2), (1.0, 2), (2.0, 2.0), (1, "2")])
def test_transpose_refuses_dimension_numbers_that_are_not_integers(golden, m, n):
    # True would swap dims 1 and 2, and 2.0, 2.0 would return golden itself
    with pytest.raises(DimError, match="is not an integer"):
        vk.transpose(golden, m, n)


def test_shape_extent_refuses_dimension_numbers_that_are_not_integers():
    s = vk.Shape((2, 3))
    for n in (True, False, 1.0, None):
        with pytest.raises(DimError) as info:
            s.extent(n)
        assert str(info.value) == f"dimension {n!r} is not an integer"


@pytest.mark.parametrize("order", list(StorageOrder), ids=lambda order: order.value)
def test_relabel_passes_on_the_strides_it_is_given(order):
    # adding or removing trailing extent-1 dimensions keeps the storage, the
    # offset and the strides given, canonical or not; the trailing-axis
    # steps of a shift hand on the input's own strides
    t = vk.make_tensor((2, 3), range(6), order)
    view = vk.DenseTensor(t.shape, (-1,) + t.data, t.strides, 1)
    up = _relabel(view, (2, 3, 1, 1), view.strides + (6, 6))
    down = _drop_trailing_axis(_drop_trailing_axis(up))
    assert vk.to_nested(up) == [[[[x]] for x in row] for row in vk.to_nested(t)]
    assert down.shape.dims == (2, 3) and vk.to_nested(down) == vk.to_nested(t)
    assert up.strides == t.strides + (6, 6) and down.strides == t.strides
    one_more = _append_trailing_axis(view)
    assert one_more.strides == t.strides + (6,)
    assert _drop_trailing_axis(one_more).strides == t.strides
    for u in (up, down, one_more):
        assert u.data is view.data and u.offset == 1


def test_tensors_equal_is_shape_strict():
    a = vk.make_tensor((2,), [1, 2])
    b = vk.make_tensor((2, 1), [1, 2])
    assert not vk.tensors_equal(a, b)
    assert vk.tensors_equal(a, vk.make_tensor((2,), [1, 2]))
    assert not vk.tensors_equal(a, vk.make_tensor((2,), [1, 3]))


def test_tensors_equal_nan_never_equal():
    t = vk.make_tensor((2,), [math.nan, 1.0])
    assert not vk.tensors_equal(t, t)
    view = vk.transpose(vk.make_tensor((2, 1), [1.0, math.nan]), 1, 2)
    assert not vk.tensors_equal(view, view)


def test_from_nested_golden_layout():
    t = vk.from_nested(GOLDEN_NESTED)
    assert t.shape.dims == (2, 2, 3)
    assert t.get((0, 0, 0)) == 1
    assert t.get((0, 1, 0)) == 4
    assert t.get((1, 1, 2)) == 12


def test_from_nested_scalar():
    t = vk.from_nested(7)
    assert t.shape.dims == (1,)
    assert t.get((0,)) == 7


@pytest.mark.parametrize("nested", [[], [[1, 2], [3]], [[1], 2], [1, [2]]])
def test_from_nested_rejects_ragged(nested):
    with pytest.raises(ShapeError):
        vk.from_nested(nested)


def test_to_nested_round_trip(golden):
    assert vk.to_nested(golden) == GOLDEN_NESTED
    rebuilt = vk.from_nested(vk.to_nested(golden))
    assert vk.tensors_equal(rebuilt, golden)
