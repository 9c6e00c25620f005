"""Mixed-radix index map: encode, decode, digit identity, oracle paths."""

import sys

import pytest

import veckit as vk
from veckit import blocking, core
from veckit import (
    ShapeError,
    decompose_check,
    index_strides,
    linear_index,
    tuple_index,
    unvec_by_index,
    vec_by_index,
)

from conftest import GOLDEN_NESTED, GOLDEN_VEC, exhaustive_shapes, sequential


def test_index_strides():
    assert index_strides((2, 2, 3)) == (1, 2, 4)
    assert index_strides((5,)) == (1,)
    assert index_strides((3, 4, 5, 6)) == (1, 3, 12, 60)


def test_linear_index_examples():
    assert linear_index((0, 0, 0), (2, 2, 3)) == 0
    assert linear_index((1, 0, 0), (2, 2, 3)) == 1
    assert linear_index((1, 1, 2), (2, 2, 3)) == 11


def test_linear_index_rejects_bad_index():
    with pytest.raises(IndexError):
        linear_index((2, 0, 0), (2, 2, 3))
    with pytest.raises(IndexError):
        linear_index((0, 0), (2, 2, 3))


def test_tuple_index_examples():
    assert tuple_index(0, (2, 2, 3)) == (0, 0, 0)
    assert tuple_index(5, (2, 2, 3)) == (1, 0, 1)
    assert tuple_index(11, (2, 2, 3)) == (1, 1, 2)


def test_tuple_index_rejects_out_of_range():
    # the message of a rank-1 index against the shape [size]
    message = r"^index \({},\) out of range for shape \[12\]$"
    with pytest.raises(IndexError, match=message.format(12)):
        tuple_index(12, (2, 2, 3))
    with pytest.raises(IndexError, match=message.format(-1)):
        decompose_check(-1, (2, 2, 3))
    with pytest.raises(IndexError):
        tuple_index(-1, (2, 2, 3))


def test_bijection_on_sample_shapes():
    for dims in [(1,), (4,), (2, 3), (2, 2, 3), (2, 1, 3, 2)]:
        shape = vk.as_shape(dims)
        seen = set()
        for p in vk.iter_indices(shape):
            m = linear_index(p, shape)
            assert tuple_index(m, shape) == p
            seen.add(m)
        assert seen == set(range(shape.size))


def test_linear_index_monotone_per_digit():
    shape = (3, 4, 2)
    base = (1, 2, 0)
    m0 = linear_index(base, shape)
    for l in range(3):
        bumped = list(base)
        bumped[l] += 1
        assert linear_index(tuple(bumped), shape) > m0


def test_decompose_check_examples():
    assert decompose_check(0, (2, 2, 3))
    assert decompose_check(7, (2, 2, 3))


def test_decompose_check_full_sweep():
    for dims in [(2, 2, 3), (4,), (3, 3, 3)]:
        shape = vk.as_shape(dims)
        assert all(decompose_check(m, shape) for m in range(shape.size))


def test_vec_by_index_golden(golden):
    assert list(vec_by_index(golden).data) == GOLDEN_VEC


def test_vec_by_index_matrix():
    t = vk.from_nested([[1, 2], [3, 4]])
    assert list(vec_by_index(t).data) == [1, 3, 2, 4]


def test_vec_by_index_rank_one():
    t = sequential((4,))
    assert vk.tensors_equal(vec_by_index(t), t)


def test_unvec_by_index_matrix():
    a = vk.make_tensor((4,), [1, 3, 2, 4])
    assert vk.to_nested(unvec_by_index(a, (2, 2))) == [[1, 2], [3, 4]]


def test_unvec_by_index_golden(golden):
    a = vk.make_tensor((12,), GOLDEN_VEC)
    assert vk.tensors_equal(unvec_by_index(a, (2, 2, 3)), golden)


def test_unvec_by_index_rejects_size_mismatch():
    with pytest.raises(ShapeError):
        unvec_by_index(sequential((5,)), (2, 3))


def test_unvec_by_index_rejects_non_vector():
    with pytest.raises(ShapeError):
        unvec_by_index(sequential((2, 3)), (2, 3))


def test_index_round_trip_small_corpus():
    for dims in exhaustive_shapes(max_rank=3, max_extent=3):
        t = sequential(dims)
        assert vk.tensors_equal(unvec_by_index(vec_by_index(t), dims), t)


def test_vec_by_index_extent_one_strides_are_ignored():
    t = vk.DenseTensor(vk.Shape((3, 1, 2)), (1, 2, 3, 4, 5, 6), (1, 99, 3))
    assert list(vec_by_index(t).data) == list(vk.vec_k(t).data)


def test_vec_by_index_returns_first_index_fastest_storage_as_is():
    for t in (
        sequential((3, 4, 2)),
        vk.DenseTensor(vk.Shape((3, 1, 2)), (1, 2, 3, 4, 5, 6), (1, 99, 3)),
        vk.DenseTensor(vk.Shape((1, 4, 1)), (1, 2, 3, 4), (5, 1, 7)),
        vk.transpose(sequential((1, 6)), 1, 2),
    ):
        v = vec_by_index(t)
        assert v.data is t.data
        assert v.shape.dims == (t.size,)
        assert list(v.data) == [t.get(tuple_index(m, t.shape)) for m in range(t.size)]
    for t in (
        vk.make_tensor((3, 4, 2), range(24), vk.StorageOrder.LAST_INDEX_FASTEST),
        vk.transpose(sequential((3, 4, 2)), 1, 3),
        vk.DenseTensor(vk.Shape((3, 1, 2)), (1, 2, 3, 4, 5, 6), (2, 99, 1)),
    ):
        v = vec_by_index(t)
        assert v.data is not t.data
        assert list(v.data) == [t.get(tuple_index(m, t.shape)) for m in range(t.size)]


def _break_block_route(monkeypatch):
    """Make every block-route helper raise, wherever a module refers to it."""
    originals = {
        core.gather,
        core.elements,
        blocking.block,
        blocking.unblock,
    }

    def forbidden(*args, **kwargs):
        raise AssertionError("the index route called a block-route helper")

    for name, module in list(sys.modules.items()):
        if name == "veckit" or name.startswith("veckit."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in originals):
                    monkeypatch.setattr(module, attr, forbidden)


def test_index_route_is_independent_of_the_block_route(monkeypatch, golden):
    # the same logical tensor with strides (1, 6, 2): neither preset order
    view = vk.transpose(
        vk.make_tensor((2, 3, 2), core.elements(vk.transpose(golden, 2, 3))), 2, 3
    )
    assert view.strides == (1, 6, 2)
    with monkeypatch.context() as patch:
        _break_block_route(patch)
        with pytest.raises(AssertionError):
            vk.vec_k(golden)
        assert list(vec_by_index(golden).data) == GOLDEN_VEC
        assert list(vec_by_index(view).data) == GOLDEN_VEC
        back = unvec_by_index(vec_by_index(golden), golden.shape)
    assert vk.to_nested(back) == GOLDEN_NESTED
