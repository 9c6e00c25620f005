"""Shifting, vectorization, row-vectorization, and their inverses."""

import random

import pytest

import veckit as vk
from veckit import (
    DimError,
    ShapeError,
    block,
    reverse_dims,
    rvec_inverse,
    rvec_k,
    shift,
    shift_inverse,
    transpose_outer,
    unblock,
    vec_inverse,
    vec_k,
)
from veckit.vecops import _drop_trailing_axis

from conftest import (
    GOLDEN_RVEC,
    GOLDEN_SHIFTED,
    GOLDEN_VEC,
    random_tensor,
    sequential,
)


def test_shift_golden(golden):
    got = shift(golden)
    assert got.shape.dims == (2, 6)
    assert vk.to_nested(got) == GOLDEN_SHIFTED


def test_shift_matrix_is_column_stacking():
    t = vk.from_nested([[1, 2], [3, 4]])
    got = shift(t)
    assert got.shape.dims == (4,)
    assert list(got.data) == [1, 3, 2, 4]


def test_shift_with_singleton_last_extent():
    t = sequential((2, 3, 1))
    got = shift(t)
    assert got.shape.dims == (2, 3)
    assert vk.tensors_equal(got, sequential((2, 3)))


def test_shift_keeps_interior_singletons():
    t = sequential((2, 2, 1, 1))
    got = shift(t)
    # only the merged pair collapses; rank drops by exactly one
    assert got.shape.dims == (2, 2, 1)


def test_shift_rejects_rank_one():
    with pytest.raises(DimError):
        shift(sequential((5,)))


def test_shift_inverse_golden(golden):
    merged = vk.from_nested(GOLDEN_SHIFTED)
    assert vk.tensors_equal(shift_inverse(merged, 3), golden)


def test_shift_inverse_extent_one_appends_axis():
    t = sequential((2, 3))
    got = shift_inverse(t, 1)
    assert got.shape.dims == (2, 3, 1)
    assert vk.tensors_equal(got, sequential((2, 3, 1)))


def test_shift_inverse_rejects_non_divisor():
    with pytest.raises(ShapeError):
        shift_inverse(sequential((2, 6)), 4)


def test_shift_inverse_rejects_non_positive():
    with pytest.raises(ShapeError):
        shift_inverse(sequential((2, 6)), 0)


ORDERS = pytest.mark.parametrize(
    "order", list(vk.StorageOrder), ids=lambda order: order.value
)


@ORDERS
def test_drop_trailing_axis_refuses_a_last_extent_other_than_one(order):
    with pytest.raises(ShapeError, match=r"^last extent 3 is not 1$"):
        _drop_trailing_axis(vk.make_tensor((2, 3), range(6), order))


@pytest.mark.parametrize(
    "dims",
    [(2, 3), (1, 1), (2, 1), (4, 1, 2), (2, 2, 1, 1), (1, 2, 1, 2), (3, 2, 4)],
)
def test_shift_then_inverse_restores(dims):
    t = sequential(dims)
    assert vk.tensors_equal(shift_inverse(shift(t), dims[-1]), t)


@pytest.mark.parametrize("dims", [(3, 3), (2, 3, 3), (4, 1, 2, 2)])
def test_raw_pipeline_twice_restores_square_last_pair(dims):
    # with equal last extents, running the partition/transpose/concatenate
    # pipeline a second time over the merged axis undoes the first run
    # without ever leaving rank k
    t = sequential(dims)
    k = t.rank
    last = dims[-1]
    raw = unblock(transpose_outer(block(t, (1,) * (k - 1) + (last,)), k - 1, k))
    again = unblock(
        transpose_outer(block(raw, (1,) * (k - 2) + (last, 1)), k - 1, k)
    )
    assert vk.tensors_equal(again, t)


def test_vec_golden(golden):
    assert list(vec_k(golden).data) == GOLDEN_VEC


def test_vec_matrix():
    t = vk.from_nested([[1, 2], [3, 4]])
    assert list(vec_k(t).data) == [1, 3, 2, 4]


def test_vec_rank_one_is_identity():
    t = sequential((5,))
    assert vec_k(t) is t


def test_vec_inverse_matrix():
    a = vk.make_tensor((4,), [1, 3, 2, 4])
    assert vk.to_nested(vec_inverse(a, (2, 2))) == [[1, 2], [3, 4]]


def test_vec_inverse_golden(golden):
    a = vk.make_tensor((12,), GOLDEN_VEC)
    assert vk.tensors_equal(vec_inverse(a, (2, 2, 3)), golden)


def test_vec_inverse_rejects_size_mismatch():
    with pytest.raises(ShapeError):
        vec_inverse(sequential((6,)), (2, 2, 2))


def test_vec_inverse_rejects_non_vector():
    with pytest.raises(ShapeError):
        vec_inverse(sequential((2, 3)), (2, 3))


@pytest.mark.parametrize(
    "dims", [(1,), (4,), (2, 3), (2, 2, 3), (3, 1, 2, 2), (2, 1, 1)]
)
def test_vec_round_trip(dims):
    t = sequential(dims)
    assert vk.tensors_equal(vec_inverse(vec_k(t), dims), t)


def test_vec_of_inverse_restores_vector():
    rng = random.Random("vecinv")
    for dims in [(2, 2), (2, 2, 3), (4, 2, 1), (2, 1, 2, 2)]:
        a = random_tensor(rng, (vk.as_shape(dims).size,))
        assert vk.tensors_equal(vec_k(vec_inverse(a, dims)), a)


def test_reverse_dims_matrix_is_transpose():
    t = vk.from_nested([[1, 2], [3, 4]])
    assert vk.to_nested(reverse_dims(t)) == [[1, 3], [2, 4]]


def test_reverse_dims_rank_one_is_identity():
    t = sequential((4,))
    assert reverse_dims(t) is t


def test_reverse_dims_golden(golden):
    r = reverse_dims(golden)
    assert r.shape.dims == (3, 2, 2)
    assert r.get((2, 0, 1)) == 9
    for idx in vk.iter_indices(golden.shape):
        assert r.get(idx[::-1]) == golden.get(idx)


def test_reverse_dims_twice_restores(golden):
    assert vk.tensors_equal(reverse_dims(reverse_dims(golden)), golden)


def test_rvec_golden(golden):
    assert list(rvec_k(golden).data) == GOLDEN_RVEC


def test_rvec_matrix_is_row_stacking():
    t = vk.from_nested([[1, 2], [3, 4]])
    assert list(rvec_k(t).data) == [1, 2, 3, 4]


def test_rvec_rank_one_is_identity():
    t = sequential((3,))
    assert rvec_k(t) is t


def test_rvec_equals_vec_of_transpose():
    rng = random.Random("rvec2")
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        t = random_tensor(rng, (m, n))
        assert vk.tensors_equal(rvec_k(t), vec_k(vk.transpose(t, 1, 2)))


def test_rvec_inverse_matrix():
    a = vk.make_tensor((4,), [1, 2, 3, 4])
    assert vk.to_nested(rvec_inverse(a, (2, 2))) == [[1, 2], [3, 4]]


def test_rvec_inverse_golden(golden):
    a = vk.make_tensor((12,), GOLDEN_RVEC)
    assert vk.tensors_equal(rvec_inverse(a, (2, 2, 3)), golden)


def test_rvec_inverse_rejects_size_mismatch():
    with pytest.raises(ShapeError):
        rvec_inverse(sequential((5,)), (2, 3))


@pytest.mark.parametrize("dims", [(1,), (3,), (2, 3), (2, 2, 3), (2, 1, 2, 2)])
def test_rvec_round_trip(dims):
    t = sequential(dims)
    assert vk.tensors_equal(rvec_inverse(rvec_k(t), dims), t)


def test_vec_outputs_preserve_elements(golden):
    want = sorted(golden.data)
    assert sorted(vec_k(golden).data) == want
    assert sorted(rvec_k(golden).data) == want


def test_shape_collapse_witness():
    # two different shapes vectorize to the same vector
    square = vk.from_nested([[1, 2], [3, 4]])
    flat = vk.from_nested([[1, 3, 2, 4]])
    assert square.shape.dims != flat.shape.dims
    assert vk.tensors_equal(vec_k(square), vec_k(flat))
