"""The promise of ``errors.py``: a refused argument raises a ``TensorError``
subclass, or ``IndexError`` for an index, position or column.

Each call below passes one argument of the wrong type or kind.  None may
return a result or end in a bare ``TypeError`` from arithmetic on it.
"""

import pytest

import veckit as vk
from veckit import ShapeError, TensorError, core, verify

T = vk.make_tensor((2, 6), range(12))
M = vk.make_tensor((3, 2), range(6))
V = vk.make_tensor((12,), range(12))

CALLS = {
    "shift_inverse-str": (lambda: vk.shift_inverse(T, "2"), ShapeError),
    "shift_inverse-none": (lambda: vk.shift_inverse(T, None), ShapeError),
    "make_tensor-file-tag": (
        lambda: vk.make_tensor((2, 3), range(6), "last-index-fastest"),
        ShapeError,
    ),
    "storage_strides-none": (
        lambda: vk.storage_strides(vk.Shape((2, 3)), None),
        ShapeError,
    ),
    "elements-str": (lambda: core.elements(T, "bogus"), ShapeError),
    "iter_indices-str": (lambda: vk.iter_indices((2, 2), "x"), ShapeError),
    "identity_matrix-str": (lambda: vk.identity_matrix("2"), ShapeError),
    "identity_matrix-float": (lambda: vk.identity_matrix(2.0), ShapeError),
    "kron_inverse_2d-float": (lambda: vk.kron_inverse_2d(V, 3.0, 4), ShapeError),
    "matrix_column-float": (lambda: vk.matrix_column(M, 1.0), IndexError),
    "tuple_index-float": (lambda: vk.tuple_index(1.5, (2, 6)), IndexError),
    "decompose_check-str": (lambda: vk.decompose_check("1", (2, 6)), IndexError),
    "run_all-float-cases": (lambda: verify.run_all(cases=2.5), ShapeError),
    "run_all-str-rank": (lambda: verify.run_all(max_rank="3"), ShapeError),
    "run_all-bool-extent": (lambda: verify.run_all(max_extent=True), ShapeError),
    "as_shape-int": (lambda: vk.as_shape(3), ShapeError),
    "vec_inverse-int-shape": (lambda: vk.vec_inverse(V, 12), ShapeError),
    "unvec_by_index-none-shape": (lambda: vk.unvec_by_index(V, None), ShapeError),
    "index_strides-int": (lambda: vk.index_strides(5), ShapeError),
    "make_tensor-none-data": (lambda: vk.make_tensor((2,), None), ShapeError),
}


@pytest.mark.parametrize("name", CALLS)
def test_a_refused_argument_raises_a_package_error(name):
    call, expected = CALLS[name]
    assert issubclass(expected, (TensorError, IndexError))
    with pytest.raises(expected):
        call()


def test_the_kept_messages_of_the_inverses():
    # the CLI prints the size and divisibility messages as they are
    with pytest.raises(ShapeError, match="^expected a rank-1 vector, got rank 2$"):
        vk.vec_inverse(T, (2, 6))
    fill = r"^vector of length 12 cannot fill shape \[2, 5\] of size 10$"
    with pytest.raises(ShapeError, match=fill):
        vk.unvec_by_index(V, (2, 5))
    with pytest.raises(ShapeError, match="^vector of length 12 cannot fill a 2x5 matrix$"):
        vk.kron_inverse_2d(V, 2, 5)
    with pytest.raises(ShapeError, match="^restored extent 5 does not divide last extent 6$"):
        vk.shift_inverse(T, 5)
