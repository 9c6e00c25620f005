"""Property-based invariants over randomly drawn tensors."""

import math

from hypothesis import given, settings, strategies as st

import veckit as vk
from veckit import (
    decompose_check,
    kron_inverse_2d,
    linear_index,
    rvec_inverse,
    rvec_k,
    shift,
    shift_inverse,
    transpose,
    tuple_index,
    unvec_by_index,
    vec2,
    vec_by_index,
    vec_inverse,
    vec_k,
)

extents = st.integers(min_value=1, max_value=4)
elements = st.integers(min_value=-50, max_value=50)


@st.composite
def tensors(draw, min_rank=1, max_rank=4):
    dims = tuple(
        draw(st.lists(extents, min_size=min_rank, max_size=max_rank))
    )
    size = math.prod(dims)
    data = draw(st.lists(elements, min_size=size, max_size=size))
    order = draw(st.sampled_from(list(vk.StorageOrder)))
    # a transposed view shares storage and carries permuted strides; m == n
    # leaves the contiguous tensor as it is
    m = draw(st.integers(1, len(dims)))
    n = draw(st.integers(1, len(dims)))
    return vk.transpose(vk.make_tensor(dims, data, order), m, n)


@settings(deadline=None)
@given(tensors(min_rank=2))
def test_shift_merges_by_index_law(t):
    merged = shift(t)
    second_last = t.shape.dims[-2]
    for p in vk.iter_indices(t.shape):
        q = p[:-2] + (p[-2] + second_last * p[-1],)
        assert merged.get(q) == t.get(p)


@settings(deadline=None)
@given(tensors(min_rank=2))
def test_shift_involution(t):
    assert vk.tensors_equal(shift_inverse(shift(t), t.shape.dims[-1]), t)


@settings(deadline=None)
@given(tensors())
def test_two_paths_agree(t):
    assert vk.tensors_equal(vec_k(t), vec_by_index(t))


@settings(deadline=None)
@given(tensors())
def test_row_paths_agree(t):
    assert vk.tensors_equal(rvec_k(t), vec_by_index(vk.reverse_dims(t)))


@settings(deadline=None)
@given(tensors())
def test_vec_round_trip(t):
    assert vk.tensors_equal(vec_inverse(vec_k(t), t.shape), t)


@settings(deadline=None)
@given(tensors())
def test_rvec_round_trip(t):
    assert vk.tensors_equal(rvec_inverse(rvec_k(t), t.shape), t)


@settings(deadline=None)
@given(tensors())
def test_index_round_trip(t):
    assert vk.tensors_equal(unvec_by_index(vec_by_index(t), t.shape), t)


@settings(deadline=None)
@given(tensors(max_rank=5))
def test_vec_by_index_is_the_checked_per_element_definition(t):
    want = [t.get(tuple_index(m, t.shape)) for m in range(t.size)]
    assert list(vec_by_index(t).data) == want


@settings(deadline=None)
@given(tensors())
def test_vec_preserves_elements(t):
    assert sorted(vec_k(t).data) == sorted(t.data)
    assert sorted(rvec_k(t).data) == sorted(t.data)


@settings(deadline=None)
@given(st.lists(extents, min_size=1, max_size=4).map(tuple))
def test_index_map_is_bijection(dims):
    shape = vk.as_shape(dims)
    seen = set()
    for m in range(shape.size):
        p = tuple_index(m, shape)
        assert linear_index(p, shape) == m
        assert decompose_check(m, shape)
        seen.add(p)
    assert len(seen) == shape.size


@settings(deadline=None, max_examples=60)
@given(tensors(min_rank=2, max_rank=2))
def test_kron_closed_form_matches_index_inverse(t):
    m, n = t.shape.dims
    a = vec2(t)
    got = kron_inverse_2d(a, m, n)
    assert vk.tensors_equal(got, t)
    assert vk.tensors_equal(got, unvec_by_index(a, (m, n)))


@settings(deadline=None, max_examples=60)
@given(tensors(min_rank=2, max_rank=2))
def test_rvec_of_matrix_is_vec_of_transpose(t):
    assert vk.tensors_equal(rvec_k(t), vec_k(transpose(t, 1, 2)))
