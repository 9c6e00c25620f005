"""Views: tensors at an offset into a longer storage, through every reader.

A tensor built with an offset is a view: its element at ``p`` is
``data[offset + sum(p_n * stride_n)]``, and the storage may hold other
values before and after it.  Each reader below is compared, index by
index, with that definition on views whose filler values are distinct from
the view's own, so a reader that misses the offset, or takes the whole
storage for the tensor, reads a value the reference does not.
"""

import copy
import itertools
import json
import operator
import pickle

import pytest

import veckit as vk
from veckit import DenseTensor, Shape, ShapeError, StorageOrder, vecops
from veckit.core import elements
from veckit.indexmap import linear_index, unvec_by_index, vec_by_index

ROW = StorageOrder.LAST_INDEX_FASTEST
COLUMN = StorageOrder.FIRST_INDEX_FASTEST


def _view(dims, order, offset, after=3):
    """A ``dims`` view at ``offset`` that walks its dims in ``order``, fastest
    first, inside storage of ``offset + size + after`` distinct values."""
    shape = Shape(dims)
    strides, step = [0] * len(dims), 1
    for n in order:
        strides[n] = step
        step *= dims[n]
    data = tuple(range(1000, 1000 + offset + shape.size + after))
    return DenseTensor(shape, data, strides, offset)


def _ref(t, idx):
    """The element at ``idx`` by the definition of a view."""
    return t.data[t.offset + sum(map(operator.mul, idx, t.strides))]


def _views():
    """Views of ranks 1-4 in several storage orders, at nonzero offsets."""
    for dims in [(5,), (2, 3), (3, 1, 2), (2, 3, 1, 2)]:
        for order in list(itertools.permutations(range(len(dims))))[:3]:
            for offset in (1, 7):
                yield _view(dims, order, offset)


VIEWS = list(_views())
IDS = [f"{'x'.join(map(str, t.shape.dims))}-{t.strides}-at{t.offset}" for t in VIEWS]


def _copy_of(t):
    """A tensor without an offset that holds the same elements, per index."""
    return vk.make_tensor(t.shape, [_ref(t, p) for p in vk.iter_indices(t.shape)])


def test_a_tensor_without_an_offset_keeps_the_exact_length_check():
    with pytest.raises(ShapeError) as info:
        DenseTensor(Shape((3,)), (1, 2, 3, 4), (1,))
    assert str(info.value) == "data length 4 does not match shape [3] (size 3)"
    assert DenseTensor(Shape((3,)), (1, 2, 3), (1,)).offset == 0


@pytest.mark.parametrize("offset", [-1, True, False, 1.0, "1"])
def test_a_view_refuses_a_bad_offset(offset):
    with pytest.raises(ShapeError):
        DenseTensor(Shape((2,)), (1, 2, 3, 4), (1,), offset)


def test_a_view_must_fit_its_storage():
    data = (1, 2, 3, 4)
    assert DenseTensor(Shape((2,)), data, (1,), 2).get((1,)) == 4
    assert DenseTensor(Shape((4,)), data, (1,), 0).data is data
    for dims, offset in (((2,), 3), ((4,), 1), ((5,), 0)):
        with pytest.raises(ShapeError, match="run past 4 elements"):
            DenseTensor(Shape(dims), data, (1,), offset)


@pytest.mark.parametrize("t", VIEWS, ids=IDS)
def test_get_elements_and_equality_read_from_the_offset(t):
    indices = list(vk.iter_indices(t.shape))
    for p in indices:
        assert t.get(p) == _ref(t, p)
    assert elements(t) == tuple(_ref(t, p) for p in indices)
    rows = vk.iter_indices(t.shape, ROW)
    assert elements(t, ROW) == tuple(_ref(t, p) for p in rows)
    assert vk.tensors_equal(t, _copy_of(t)) and vk.tensors_equal(_copy_of(t), t)
    moved = DenseTensor(t.shape, t.data, t.strides, t.offset - 1)
    assert not vk.tensors_equal(t, moved)


@pytest.mark.parametrize("t", VIEWS, ids=IDS)
def test_relabelings_keep_the_offset(t):
    k = t.rank
    swapped = vk.transpose(t, 1, k)
    reversed_ = vecops.reverse_dims(t)
    dropped = vecops._drop_trailing_axis(vecops._append_trailing_axis(t))
    for view in (swapped, reversed_, dropped):
        assert view.data is t.data and view.offset == t.offset
    for p in vk.iter_indices(t.shape):
        q = list(p)
        q[0], q[-1] = q[-1], q[0]
        assert swapped.get(tuple(q)) == _ref(t, p)
        assert reversed_.get(p[::-1]) == _ref(t, p)
        assert dropped.get(p) == _ref(t, p)


@pytest.mark.parametrize("t", VIEWS, ids=IDS)
def test_nested_lists_and_files_read_from_the_offset(tmp_path, t):
    nested = vk.to_nested(t)
    for p in vk.iter_indices(t.shape):
        level = nested
        for i in p:
            level = level[i]
        assert level == _ref(t, p)
    path = tmp_path / "t.json"
    for order, index_order in (("row-major", ROW), ("column-major", COLUMN)):
        vk.write_tensor(t, path, order)
        listed = vk.iter_indices(t.shape, index_order)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["data"] == [_ref(t, p) for p in listed]
        assert vk.tensors_equal(vk.read_tensor(path), _copy_of(t))


@pytest.mark.parametrize("t", VIEWS, ids=IDS)
def test_the_index_route_reads_from_the_offset(t):
    v = vec_by_index(t)
    for p in vk.iter_indices(t.shape):
        assert v.get((linear_index(p, t.shape),)) == _ref(t, p)
    # a vector view, unvectorized: the element at p is linear position p
    a = DenseTensor(Shape((t.size,)), t.data, (1,), t.offset)
    back = unvec_by_index(a, t.shape)
    assert back.data is t.data
    for p in vk.iter_indices(t.shape):
        assert back.get(p) == t.data[t.offset + linear_index(p, t.shape)]


def test_an_in_order_view_vectorizes_by_index_as_a_view():
    t = _view((2, 3, 2), (0, 1, 2), 5)
    v = vec_by_index(t)
    assert (v.data, v.offset) == (t.data, 5)


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
def test_shift_of_a_block_view_matches_its_definition(order):
    t = _view((2, 4, 6), order, 3)
    bt = vk.block(t, (1, 2, 3))
    S = bt.block_shape.dims
    for q in vk.iter_indices(bt.outer_shape):
        b = bt.block_at(q)
        # blocks are views of one storage, n elements apart
        assert b.data is bt.block_at((0, 0, 0)).data
        shifted = vecops.shift(b)
        for l in vk.iter_indices(bt.block_shape):
            src = tuple(qn * sn + ln for qn, sn, ln in zip(q, S, l))
            assert b.get(l) == _ref(t, src)
            merged = (l[0], l[1] + S[1] * l[2])
            assert shifted.get(merged) == _ref(t, src)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (3, 2)])
def test_closed_form_inverse_of_a_view_vector(m, n):
    a = _view((m * n,), (0,), 4)
    x = vk.kron_inverse_2d(a, m, n)
    for i, j in vk.iter_indices((m, n)):
        assert x.get((i, j)) == a.data[a.offset + i + m * j]


def test_the_closed_form_refuses_a_non_finite_element_of_the_view_only():
    data = (float("nan"), 1.0, 2.0, float("inf"))
    a = DenseTensor(Shape((2,)), data, (1,), 1)
    want = vk.make_tensor((2, 1), [1.0, 2.0])
    assert vk.tensors_equal(vk.kron_inverse_2d(a, 2, 1), want)
    with pytest.raises(ShapeError, match="element 1 of the vector is inf"):
        vk.kron_inverse_2d(DenseTensor(Shape((2,)), data, (1,), 2), 1, 2)


@pytest.mark.parametrize("how", [pickle.dumps, copy.copy, copy.deepcopy])
def test_views_survive_pickle_and_copy(how):
    t = _view((2, 3), (1, 0), 4)
    bt = vk.block(_view((2, 4), (0, 1), 2), (1, 2))
    if how is pickle.dumps:
        t2, bt2 = pickle.loads(pickle.dumps((t, bt)))
    else:
        t2, bt2 = how(t), how(bt)
    assert (t2.data, t2.strides, t2.offset) == (t.data, t.strides, t.offset)
    assert vk.tensors_equal(t2, t) and vk.tensors_equal(t2, _copy_of(t))
    blocks = [bt2.block_at(q) for q in vk.iter_indices(bt2.outer_shape)]
    # the blocks still share one storage, at their own offsets
    assert all(b.data is blocks[0].data for b in blocks)
    assert [b.offset for b in blocks] == [0, 4]
    assert vk.tensors_equal(vk.unblock(bt2), vk.unblock(bt))
