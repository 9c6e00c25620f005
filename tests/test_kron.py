"""Kronecker products, the closed-form 2-D inverse, and product identities."""

import random
from itertools import product

import pytest

import veckit as vk
from veckit import (
    ShapeError,
    as_column,
    as_row,
    identity_matrix,
    kron_inverse_2d,
    kronecker,
    matmul,
    matrix_column,
    unvec_by_index,
    vec2,
    vec_product_identity_residual,
)

from conftest import random_tensor


def test_identity_matrix():
    assert vk.to_nested(identity_matrix(1)) == [[1]]
    assert vk.to_nested(identity_matrix(3)) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    with pytest.raises(ShapeError):
        identity_matrix(0)


def test_as_column_and_as_row():
    a = vk.make_tensor((3,), [1, 2, 3])
    assert vk.to_nested(as_column(a)) == [[1], [2], [3]]
    assert vk.to_nested(as_row(a)) == [[1, 2, 3]]
    with pytest.raises(ShapeError):
        as_column(identity_matrix(2))


def test_matmul_known_product():
    x = vk.from_nested([[1, 2, 3], [4, 5, 6]])
    y = vk.from_nested([[7, 8], [9, 10], [11, 12]])
    assert vk.to_nested(matmul(x, y)) == [[58, 64], [139, 154]]


def _triple_loop_product(x, y):
    """Row-major x*y by checked lookups; zero entries of x add nothing."""
    (m, n), p = x.shape.dims, y.shape.dims[1]
    out = []
    for i in range(m):
        for j in range(p):
            acc = 0
            for k in range(n):
                if x.get((i, k)):
                    acc += x.get((i, k)) * y.get((k, j))
            out.append(acc)
    return out


def _float_matrix(rng, dims):
    """Floats with zero entries of both signs, in a drawn layout."""
    size = dims[0] * dims[1]
    values = [rng.choice([0.0, -0.0, rng.uniform(-9, 9)]) for _ in range(size)]
    if rng.random() < 0.5:
        return vk.make_tensor(dims, values, rng.choice(list(vk.StorageOrder)))
    # the same shape seen as the transposed view of its transpose
    return vk.transpose(vk.make_tensor(dims[::-1], values), 1, 2)


def test_matmul_is_bit_identical_to_the_triple_loop():
    rng = random.Random(11)
    for _ in range(200):
        m, n, p = (rng.randint(1, 5) for _ in range(3))
        x, y = _float_matrix(rng, (m, n)), _float_matrix(rng, (n, p))
        got = [v for row in vk.to_nested(matmul(x, y)) for v in row]
        # repr tells -0.0 from 0.0 and 0 from 0.0
        assert list(map(repr, got)) == list(map(repr, _triple_loop_product(x, y)))


def test_matmul_rejects_mismatch():
    with pytest.raises(ShapeError):
        matmul(identity_matrix(2), identity_matrix(3))
    with pytest.raises(ShapeError):
        matmul(vk.make_tensor((2,), [1, 2]), identity_matrix(2))


def test_kronecker_block_diagonal():
    swap = vk.from_nested([[0, 1], [1, 0]])
    got = kronecker(identity_matrix(2), swap)
    assert vk.to_nested(got) == [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]


def test_kronecker_scalar_scaling():
    y = vk.from_nested([[1, 2], [3, 4]])
    got = kronecker(vk.from_nested([[2]]), y)
    assert vk.to_nested(got) == [[2, 4], [6, 8]]


def test_kronecker_identity_times_column():
    col = as_column(vk.make_tensor((3,), [1, 2, 3]))
    got = kronecker(identity_matrix(2), col)
    assert got.shape.dims == (6, 2)
    assert vk.to_nested(got) == [
        [1, 0],
        [2, 0],
        [3, 0],
        [0, 1],
        [0, 2],
        [0, 3],
    ]


def test_kronecker_with_unit_matrix_is_identity():
    x = vk.from_nested([[1, 2], [3, 4]])
    one = vk.from_nested([[1]])
    assert vk.tensors_equal(kronecker(one, x), x)
    assert vk.tensors_equal(kronecker(x, one), x)


def test_kronecker_block_structure():
    rng = random.Random("kronblocks")
    x = random_tensor(rng, (2, 3))
    y = random_tensor(rng, (3, 2))
    got = kronecker(x, y)
    assert got.shape.dims == (6, 6)
    for i in range(2):
        for j in range(3):
            for r in range(3):
                for s in range(2):
                    assert got.get((i * 3 + r, j * 2 + s)) == x.get(
                        (i, j)
                    ) * y.get((r, s))


def test_matrix_column():
    x = vk.from_nested([[1, 2], [3, 4]])
    assert vk.to_nested(matrix_column(x, 0)) == [[1], [3]]
    assert vk.to_nested(matrix_column(x, 1)) == [[2], [4]]
    view = vk.transpose(x, 1, 2)
    assert vk.to_nested(matrix_column(view, 0)) == [[1], [2]]
    row = vk.as_row(vk.make_tensor((3,), [7, 8, 9]))
    assert vk.to_nested(matrix_column(row, 2)) == [[9]]
    # an extent-1 row dimension may carry any stride
    for strides in ((0, 1), (-5, 1), (99, 1)):
        odd = vk.DenseTensor(vk.Shape((1, 3)), (7, 8, 9), strides)
        assert [vk.to_nested(matrix_column(odd, k)) for k in range(3)] == [
            [[7]], [[8]], [[9]]
        ]
    with pytest.raises(IndexError):
        matrix_column(x, 2)


def test_vec2_matrix():
    assert list(vec2(vk.from_nested([[1, 2], [3, 4]])).data) == [1, 3, 2, 4]


def test_vec2_column_and_row():
    col = as_column(vk.make_tensor((3,), [5, 6, 7]))
    assert list(vec2(col).data) == [5, 6, 7]
    row = as_row(vk.make_tensor((4,), [1, 3, 2, 4]))
    assert list(vec2(row).data) == [1, 3, 2, 4]


def test_column_extraction_identity():
    # the k-th column of (I_N kron a) is (k-th column of I_N) kron a
    rng = random.Random("cols")
    for n in range(1, 5):
        a = as_column(random_tensor(rng, (6,)))
        eye = identity_matrix(n)
        big = kronecker(eye, a)
        for k in range(n):
            assert vk.tensors_equal(
                matrix_column(big, k), kronecker(matrix_column(eye, k), a)
            )


def test_kron_inverse_matrix():
    a = vk.make_tensor((4,), [1, 3, 2, 4])
    assert vk.to_nested(kron_inverse_2d(a, 2, 2)) == [[1, 2], [3, 4]]


def test_kron_inverse_round_trip():
    rng = random.Random("kroninv")
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        x = random_tensor(rng, (m, n))
        a = vec2(x)
        got = kron_inverse_2d(a, m, n)
        assert vk.tensors_equal(got, x)
        assert vk.tensors_equal(got, unvec_by_index(a, (m, n)))


def test_kron_inverse_single_column():
    a = vk.make_tensor((5,), [9, 8, 7, 6, 5])
    got = kron_inverse_2d(a, 5, 1)
    assert vk.to_nested(got) == [[9], [8], [7], [6], [5]]


def test_kron_inverse_rejects_size_mismatch():
    with pytest.raises(ShapeError):
        kron_inverse_2d(vk.make_tensor((4,), [1, 2, 3, 4]), 2, 3)
    with pytest.raises(ShapeError):
        kron_inverse_2d(vk.make_tensor((4,), [1, 2, 3, 4]), 0, 2)


def test_misplaced_transpose_is_not_conformable():
    # moving the transpose from the stacked-identity factor onto the
    # plain identity gives an 18x2 against an 18x3; the product must be
    # rejected, which is why the factors are arranged the way they are
    a = vk.make_tensor((6,), [1, 2, 3, 4, 5, 6])
    eye3 = identity_matrix(3)
    wrong_left = kronecker(as_column(vec2(eye3)), identity_matrix(2))
    right = kronecker(eye3, as_column(a))
    assert wrong_left.shape.dims == (18, 2)
    assert right.shape.dims == (18, 3)
    with pytest.raises(ShapeError):
        matmul(wrong_left, right)


def test_residual_identity_sandwich():
    p = vk.from_nested([[1, 2], [3, 4]])
    assert vec_product_identity_residual(identity_matrix(2), p, identity_matrix(2)) == 0


def test_residual_random_triples():
    rng = random.Random("residual")
    for _ in range(40):
        m, n, p, q = (rng.randint(1, 5) for _ in range(4))
        O = random_tensor(rng, (m, n))
        P = random_tensor(rng, (n, p))
        Q = random_tensor(rng, (p, q))
        assert vec_product_identity_residual(O, P, Q) == 0


def test_residual_rejects_non_conformable():
    with pytest.raises(ShapeError):
        vec_product_identity_residual(
            identity_matrix(2), identity_matrix(3), identity_matrix(3)
        )


def test_per_column_fold_recovers_columns():
    # folding the k-th column of (I_N kron vec(A)) with the closed-form
    # left factor gives exactly the k-th column of A
    rng = random.Random("fold")
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = random_tensor(rng, (m, n))
        a = vec2(A)
        eye = identity_matrix(n)
        big = kronecker(eye, as_column(a))
        left = kronecker(as_row(vec2(eye)), identity_matrix(m))
        for k in range(n):
            folded = matmul(left, matrix_column(big, k))
            assert vk.tensors_equal(folded, matrix_column(A, k))


def _transposed_views():
    # 3x2 and 2x4 views over storage laid out for their transposes
    rng = random.Random("kron-strided")
    x = vk.transpose(random_tensor(rng, (2, 3)), 1, 2)
    y = vk.transpose(
        vk.make_tensor(
            (4, 2),
            [rng.randint(-9, 9) for _ in range(8)],
            vk.StorageOrder.LAST_INDEX_FASTEST,
        ),
        1,
        2,
    )
    return x, y


def test_kronecker_of_transposed_views():
    x, y = _transposed_views()
    (mx, nx), (my, ny) = x.shape.dims, y.shape.dims
    got = kronecker(x, y)
    assert got.shape.dims == (mx * my, nx * ny)
    for i, j, r, s in product(range(mx), range(nx), range(my), range(ny)):
        assert got.get((i * my + r, j * ny + s)) == x.get((i, j)) * y.get((r, s))


def test_matmul_of_transposed_views():
    x, y = _transposed_views()
    (m, n), (_, p) = x.shape.dims, y.shape.dims
    got = matmul(x, y)
    assert got.shape.dims == (m, p)
    for i, j in product(range(m), range(p)):
        assert got.get((i, j)) == sum(x.get((i, k)) * y.get((k, j)) for k in range(n))
