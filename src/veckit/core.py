"""Dense k-dimensional tensor values and their elementary operations.

A :class:`DenseTensor` couples a :class:`Shape` with a flat tuple of scalar
elements and one stride per dimension: the element at ``(p_1, ..., p_k)``
sits at storage offset ``sum(p_n * stride_n)``.  Strides are the only layout
fact.  Every operation in this package is defined purely in terms of
``(shape, index)`` lookups, so two tensors that hold the same logical
elements behave identically no matter how either one is stored, and a
dimension permutation is a relabeling of strides over the same storage.

Conventions used throughout the package:

* element indices are 0-indexed tuples ``(p_1, ..., p_k)``;
* dimension numbers are 1-indexed (``transpose(t, 1, 2)`` swaps the first
  two dimensions);
* scalars are rank-1 tensors of shape ``[1]``; rank 0 is not representable.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from itertools import accumulate, chain, product
from typing import Iterator, Sequence, Union

from .errors import DimError, ShapeError

IndexTuple = tuple[int, ...]
Scalar = Union[int, float]

# Index arithmetic must stay within 64-bit signed integers.
_MAX_SIZE = 2 ** 63


class StorageOrder(Enum):
    """Contiguous layout presets; :func:`storage_strides` turns one into strides."""

    #: The first index varies quickest (column-major for matrices).
    FIRST_INDEX_FASTEST = "first-index-fastest"
    #: The last index varies quickest (row-major for matrices).
    LAST_INDEX_FASTEST = "last-index-fastest"


def _read_only(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the immutable value classes."""
    raise AttributeError(
        f"{type(self).__name__} is immutable: cannot assign or delete {name!r}"
    )


def _slot_setters(cls) -> list:
    """One setter per slot of ``cls``, past its read-only ``__setattr__``, so
    that only ``__init__`` fills the slots; copies and pickles rebuild a value
    through ``__init__`` too (see each ``__reduce__``)."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


class Shape:
    """Ordered list of positive dimension extents; the source of rank truth.

    Immutable, equal and hashed by ``dims``; ``size`` is the product of the
    extents, computed once.
    """

    __slots__ = ("dims", "size")

    def __init__(self, dims: Sequence[int]) -> None:
        dims = tuple(dims)
        if len(dims) == 0:
            raise ShapeError("rank must be at least 1")
        for m in dims:
            # one test per extent on the common path; int subclasses other
            # than bool pass the full test below
            if type(m) is not int or m < 1:
                if not isinstance(m, int) or isinstance(m, bool):
                    raise ShapeError(f"extent {m!r} is not an integer")
                if m < 1:
                    raise ShapeError(f"extent {m} must be at least 1")
        size = math.prod(dims)
        if size >= _MAX_SIZE:
            raise ShapeError("total size exceeds 64-bit index range")
        _set_dims(self, dims)
        _set_size(self, size)

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        return Shape, (self.dims,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.dims == other.dims
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.dims)

    @property
    def rank(self) -> int:
        return len(self.dims)

    def extent(self, n: int) -> int:
        """Extent of dimension ``n`` (1-indexed); ``extent(0)`` is the
        conventional 1 used by the mixed-radix stride products."""
        if n == 0:
            return 1
        if not 1 <= n <= self.rank:
            raise DimError(f"dimension {n} out of range for rank {self.rank}")
        return self.dims[n - 1]

    def __repr__(self) -> str:
        return f"Shape({list(self.dims)})"


_set_dims, _set_size = _slot_setters(Shape)

ShapeLike = Union[Shape, Sequence[int]]


def as_shape(value: ShapeLike) -> Shape:
    """Coerce a ``Shape`` or a sequence of extents into a ``Shape``."""
    if isinstance(value, Shape):
        return value
    return Shape(tuple(value))


def storage_strides(
    shape: Shape, order: StorageOrder = StorageOrder.FIRST_INDEX_FASTEST
) -> tuple[int, ...]:
    """Per-dimension offsets into contiguous flat storage in the given order."""
    last = order is StorageOrder.LAST_INDEX_FASTEST
    dims = shape.dims[::-1] if last else shape.dims
    strides = tuple(accumulate(dims[:-1], operator.mul, initial=1))
    return strides[::-1] if last else strides


def flat_offsets(dims: Sequence[int], strides: Sequence[int]) -> Sequence[int]:
    """Storage offset of every index of ``dims``, first index fastest.

    Reverse ``dims`` and ``strides`` for last index fastest.  Extents above 1
    need a nonzero stride.  While the leading dimensions are contiguous the
    offsets stay a ``range``, so no list of them is built.
    """
    offsets = range(1)
    for m, s in zip(dims, strides):
        if m > 1 and isinstance(offsets, range) and s == len(offsets):
            offsets = range(m * s)
        elif m > 1:
            offsets = [step + o for step in range(0, m * s, s) for o in offsets]
    return offsets


def gather(data: Sequence, dims: Sequence[int], strides: Sequence[int]) -> tuple:
    """``data`` at every offset of :func:`flat_offsets`, copied run by run.

    Extent-1 dims are dropped and a dim whose stride spans the dim before it
    is merged into it; each run of the fastest remaining dim is then one
    extended slice.  The layout ``0 .. len(data)-1`` in order returns ``data``.
    """
    runs = []
    for m, s in zip(dims, strides):
        if runs and s == runs[-1][0] * runs[-1][1]:
            runs[-1] = (runs[-1][0] * m, runs[-1][1])
        elif m > 1:
            runs.append((m, s))
    (m0, s0), rest = (runs or [(1, 1)])[0], runs[1:]
    if not rest and m0 == len(data):
        return data
    span = (m0 - 1) * s0 + 1
    bases = flat_offsets([m for m, _ in rest], [s for _, s in rest])
    return tuple(chain.from_iterable([data[b : b + span : s0] for b in bases]))


def iter_indices(
    shape: ShapeLike, order: StorageOrder = StorageOrder.FIRST_INDEX_FASTEST
) -> Iterator[IndexTuple]:
    """Every valid index tuple of ``shape``, listed in the given order."""
    dims = as_shape(shape).dims
    if order is StorageOrder.LAST_INDEX_FASTEST:
        return product(*map(range, dims))
    return (rev[::-1] for rev in product(*map(range, reversed(dims))))


def check_index(shape: Shape, idx: Sequence[int]) -> IndexTuple:
    """Validate an index tuple against ``shape``; raises ``IndexError``."""
    idx = tuple(idx)
    if len(idx) != shape.rank:
        raise IndexError(
            f"index {idx} has length {len(idx)}, expected rank {shape.rank}"
        )
    for p, m in zip(idx, shape.dims):
        if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < m:
            raise IndexError(f"index {idx} out of range for shape {list(shape.dims)}")
    return idx


class DenseTensor:
    """Immutable dense tensor: shape, flat scalar storage, per-dimension strides.

    The strides must map the indices one to one onto ``0 .. size-1``;
    extent-1 dimensions may carry any stride.  Compare with
    :func:`tensors_equal`, which looks only at shapes and co-indexed elements.
    """

    __slots__ = ("shape", "data", "strides")

    def __init__(self, shape: Shape, data: Sequence, strides: Sequence[int]) -> None:
        data = tuple(data)
        strides = tuple(strides)
        dims = shape.dims
        if len(data) != shape.size:
            raise ShapeError(
                f"data length {len(data)} does not match "
                f"shape {list(dims)} (size {shape.size})"
            )
        ints = len(strides) == len(dims)
        for s in strides:
            if type(s) is not int:
                ints = False
                break
        if not ints:
            raise ShapeError(f"strides {strides} are not {len(dims)} integers")
        # in increasing order each stride must be the product of the extents
        # below it; exactly then the offsets are 0 .. size-1, each once
        acc = 1
        for s, m in sorted(zip(strides, dims)):
            if m > 1 and s != acc:
                raise ShapeError(f"strides {strides} do not tile shape {list(dims)}")
            acc *= m
        _set_shape(self, shape)
        _set_data(self, data)
        _set_strides(self, strides)

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        return DenseTensor, (self.shape, self.data, self.strides)

    @property
    def rank(self) -> int:
        return self.shape.rank

    @property
    def size(self) -> int:
        return self.shape.size

    def get(self, idx: Sequence[int]) -> Scalar:
        """Element at the 0-indexed multi-index ``idx``."""
        idx = check_index(self.shape, idx)
        return self.data[sum(map(operator.mul, idx, self.strides))]

    def __getitem__(self, idx: Sequence[int]) -> Scalar:
        return self.get(idx)

    def __repr__(self) -> str:
        preview = list(self.data[:8])
        suffix = ", ..." if len(self.data) > 8 else ""
        return (
            f"DenseTensor(shape={list(self.shape.dims)}, "
            f"strides={list(self.strides)}, data={preview}{suffix})"
        )


_set_shape, _set_data, _set_strides = _slot_setters(DenseTensor)


def make_tensor(
    shape: ShapeLike,
    data: Sequence[Scalar],
    order: StorageOrder = StorageOrder.FIRST_INDEX_FASTEST,
) -> DenseTensor:
    """Build a tensor from flat data laid out in the given storage order."""
    shape = as_shape(shape)
    return DenseTensor(shape, tuple(data), storage_strides(shape, order))


def elements(
    t: DenseTensor, order: StorageOrder = StorageOrder.FIRST_INDEX_FASTEST
) -> list:
    """The logical elements of ``t`` listed in the given index order."""
    dims, strides = t.shape.dims, t.strides
    if order is StorageOrder.LAST_INDEX_FASTEST:
        dims, strides = dims[::-1], strides[::-1]
    return list(gather(t.data, dims, strides))


def get(t: DenseTensor, idx: Sequence[int]) -> Scalar:
    """Element of ``t`` at ``idx``; function form of :meth:`DenseTensor.get`."""
    return t.get(idx)


def transpose(t: DenseTensor, m: int, n: int) -> DenseTensor:
    """Swap dimensions ``m`` and ``n`` (1-indexed).

    The result holds the same elements with the two index positions
    exchanged, over the same storage; ``transpose(t, m, m)`` is the identity.
    """
    k = t.rank
    if not 1 <= m <= k or not 1 <= n <= k:
        raise DimError(f"dimensions ({m}, {n}) out of range for rank {k}")
    if m == n:
        return t
    a, b = m - 1, n - 1
    dims, strides = list(t.shape.dims), list(t.strides)
    dims[a], dims[b] = dims[b], dims[a]
    strides[a], strides[b] = strides[b], strides[a]
    return DenseTensor(Shape(tuple(dims)), t.data, tuple(strides))


def squeeze_trailing(t: DenseTensor) -> DenseTensor:
    """Drop every trailing extent equal to 1; rank never falls below 1.

    Removing trailing singleton dimensions changes no element lookup, so
    the stored data is reused as-is.
    """
    dims = list(t.shape.dims)
    while len(dims) > 1 and dims[-1] == 1:
        dims.pop()
    if len(dims) == t.rank:
        return t
    return DenseTensor(Shape(tuple(dims)), t.data, t.strides[: len(dims)])


def tensors_equal(a: DenseTensor, b: DenseTensor) -> bool:
    """Shape-strict logical equality: equal ranks, extents, and elements."""
    if a.shape.dims != b.shape.dims:
        return False
    # element by element: list == would let a NaN equal itself by identity
    return all(map(operator.eq, elements(a), elements(b)))


def from_nested(nested) -> DenseTensor:
    """Build a tensor from nested lists, outermost level first.

    ``from_nested([[1, 2], [3, 4]])`` is the 2x2 matrix with rows
    ``(1, 2)`` and ``(3, 4)``.  A bare scalar becomes a shape-``[1]``
    tensor.  Ragged nesting raises :class:`ShapeError`.
    """
    dims = []
    node = nested
    while isinstance(node, (list, tuple)):
        if len(node) == 0:
            raise ShapeError("empty axis in nested data")
        dims.append(len(node))
        node = node[0]
    # flatten one level at a time, the inverse of to_nested's chunking
    flat = [nested]
    for depth, m in enumerate(dims):
        if any(not isinstance(n, (list, tuple)) or len(n) != m for n in flat):
            raise ShapeError(f"ragged nesting at depth {depth}")
        flat = list(chain.from_iterable(flat))
    if any(isinstance(x, (list, tuple)) for x in flat):
        raise ShapeError("ragged nesting: unexpected extra level")
    return make_tensor(tuple(dims) or (1,), flat, StorageOrder.LAST_INDEX_FASTEST)


def to_nested(t: DenseTensor):
    """Inverse of :func:`from_nested`: nested lists, outermost level first."""
    level = elements(t, StorageOrder.LAST_INDEX_FASTEST)
    for m in reversed(t.shape.dims[1:]):
        level = [level[i : i + m] for i in range(0, len(level), m)]
    return level
