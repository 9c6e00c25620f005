"""Dense tensors with a vectorization algebra built on dimension merging.

The library represents tensors as immutable dense values and provides two
independent routes to the same flattening: a compositional one built from
block partition, outer-grid transpose, and concatenation, and an
arithmetic one built from a mixed-radix index map.  Both are exposed, and
the self-check suite plus the test corpus hold them to element-for-element
agreement.
"""

from .blocking import BlockTensor, block, transpose_outer, unblock
from .core import (
    DenseTensor,
    IndexTuple,
    Shape,
    StorageOrder,
    as_shape,
    from_nested,
    iter_indices,
    make_tensor,
    storage_strides,
    tensors_equal,
    to_nested,
    transpose,
)
from .errors import (
    BlockError,
    DimError,
    FormatError,
    ShapeError,
    TensorError,
    VerificationError,
)
from .indexmap import (
    LinearIndex,
    decompose_check,
    index_strides,
    linear_index,
    tuple_index,
    unvec_by_index,
    vec_by_index,
)
from .kron2d import (
    Matrix2D,
    as_column,
    as_row,
    identity_matrix,
    kron_inverse_2d,
    kronecker,
    matmul,
    matrix_column,
    vec2,
    vec_product_identity_residual,
)
from .tensorfile import read_tensor, write_tensor
from .vecops import (
    VecResult,
    reverse_dims,
    rvec_inverse,
    rvec_k,
    shift,
    shift_inverse,
    vec_inverse,
    vec_k,
)
from .verify import CheckResult, RunReport, format_report, run_all

__version__ = "0.1.0"

__all__ = [
    "BlockError",
    "BlockTensor",
    "CheckResult",
    "DenseTensor",
    "DimError",
    "FormatError",
    "IndexTuple",
    "LinearIndex",
    "Matrix2D",
    "RunReport",
    "Shape",
    "ShapeError",
    "StorageOrder",
    "TensorError",
    "VecResult",
    "VerificationError",
    "as_column",
    "as_row",
    "as_shape",
    "block",
    "decompose_check",
    "format_report",
    "from_nested",
    "identity_matrix",
    "index_strides",
    "iter_indices",
    "kron_inverse_2d",
    "kronecker",
    "linear_index",
    "make_tensor",
    "matmul",
    "matrix_column",
    "read_tensor",
    "reverse_dims",
    "run_all",
    "rvec_inverse",
    "rvec_k",
    "shift",
    "shift_inverse",
    "storage_strides",
    "tensors_equal",
    "to_nested",
    "transpose",
    "transpose_outer",
    "tuple_index",
    "unblock",
    "unvec_by_index",
    "vec2",
    "vec_by_index",
    "vec_inverse",
    "vec_k",
    "vec_product_identity_residual",
    "write_tensor",
]
