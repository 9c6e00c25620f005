"""Dense k-dimensional tensor values and their elementary operations.

A :class:`DenseTensor` couples a :class:`Shape` with a flat tuple of scalar
elements, one stride per dimension and a start offset: the element at
``(p_1, ..., p_k)`` sits at storage position ``offset + sum(p_n * stride_n)``.
Strides and offset are the only layout facts.  Every operation in this
package is defined purely in terms of ``(shape, index)`` lookups, so two
tensors that hold the same logical elements behave identically no matter
how either one is stored, a dimension permutation is a relabeling of
strides over the same storage, and a block of a tensor is a view of one
storage at its own offset.

Conventions used throughout the package:

* element indices are 0-indexed tuples ``(p_1, ..., p_k)``;
* dimension numbers are 1-indexed (``transpose(t, 1, 2)`` swaps the first
  two dimensions);
* scalars are rank-1 tensors of shape ``[1]``; rank 0 is not representable.
"""

from __future__ import annotations

import operator
from enum import Enum
from itertools import accumulate, chain, product
from typing import Iterator, Sequence, Union

from .errors import DimError, ShapeError

IndexTuple = tuple[int, ...]
Scalar = Union[int, float]

# Index arithmetic must stay within 64-bit signed integers.
_MAX_SIZE = 2 ** 63

# Largest tensor that `veckit bench` times, `verify` draws or the closed-form
# 2-D inverse builds as a factor, in elements (128x128x128).  Each holds a few
# such tensors at once, so a larger one would exhaust memory.
_MAX_BUILT_ELEMENTS = 2 ** 21


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
    """One setter per slot of ``cls``, past its read-only ``__setattr__``, for
    the constructors and the unchecked builders, the only code that fills
    the slots; copies and pickles rebuild a value through them too (see each
    ``__reduce__``)."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


class Shape:
    """Ordered list of positive dimension extents; the source of rank truth.

    Immutable, equal and hashed by ``dims``; ``size`` is the product of the
    extents and ``_strides`` the first-index-fastest strides, both computed
    once.
    """

    __slots__ = ("dims", "size", "_strides")

    def __init__(self, dims: Sequence[int]) -> None:
        try:
            dims = tuple(dims)
        except TypeError:
            raise ShapeError(f"{type(dims).__name__} is not a shape") from None
        if len(dims) == 0:
            raise ShapeError("rank must be at least 1")
        # the strides and size come from the checking loop, which costs less
        # than math.prod plus itertools.accumulate at ranks 2-6
        strides = []
        size = 1
        for m in dims:
            # one test per extent on the common path; int subclasses other
            # than bool pass the full test below
            if type(m) is not int or m < 1:
                if not isinstance(m, int) or isinstance(m, bool):
                    raise ShapeError(f"extent {m!r} is not an integer")
                if m < 1:
                    raise ShapeError(f"extent {m} must be at least 1")
            strides.append(size)
            size *= m
        if size >= _MAX_SIZE:
            raise ShapeError("total size exceeds 64-bit index range")
        _set_dims(self, dims)
        _set_size(self, size)
        _set_ff_strides(self, tuple(strides))

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
        if type(n) is not int:
            _check_dim_numbers(n)
        if n == 0:
            return 1
        if not 1 <= n <= self.rank:
            raise DimError(f"dimension {n} out of range for rank {self.rank}")
        return self.dims[n - 1]

    def __repr__(self) -> str:
        return f"Shape({list(self.dims)})"


_set_dims, _set_size, _set_ff_strides = _slot_setters(Shape)


def _check_dim_numbers(*ns) -> None:
    """Refuse a dimension number that is not an integer, as extents are: a
    bool would count as 0 or 1, and a float index no list."""
    for n in ns:
        if not isinstance(n, int) or isinstance(n, bool):
            raise DimError(f"dimension {n!r} is not an integer")


# a forward reference: typing caches Union[Shape, ...] with the class in its
# key, which would keep every re-imported copy of this module alive
ShapeLike = Union["Shape", Sequence[int]]


def as_shape(value: ShapeLike) -> Shape:
    """Coerce a ``Shape`` or a sequence of extents into a ``Shape``."""
    if isinstance(value, Shape):
        return value
    return Shape(value)


def _last_index_fastest(order: StorageOrder) -> bool:
    """Whether ``order`` lists the last index fastest: the one order test of
    the package, which refuses anything but a :class:`StorageOrder` member."""
    if order is StorageOrder.LAST_INDEX_FASTEST:
        return True
    if order is not StorageOrder.FIRST_INDEX_FASTEST:
        raise ShapeError(f"order {order!r} is not a StorageOrder member")
    return False


def storage_strides(
    shape: Shape, order: StorageOrder = StorageOrder.FIRST_INDEX_FASTEST
) -> tuple[int, ...]:
    """Per-dimension offsets into contiguous flat storage in the given order.

    ``order`` must be a :class:`StorageOrder` member; anything else, the
    file tags ``"row-major"`` and ``"column-major"`` too, raises
    :class:`ShapeError`.  First index fastest returns the tuple the shape
    computed once, the same object on every call, which
    :class:`DenseTensor` accepts unchecked.
    """
    if not _last_index_fastest(order):
        return shape._strides
    strides = tuple(accumulate(shape.dims[:0:-1], operator.mul, initial=1))
    return strides[::-1]


def gather(
    data: Sequence, dims: Sequence[int], strides: Sequence[int], offset: int
) -> tuple:
    """``data`` at ``offset + sum(p_n * stride_n)`` for every index of
    ``dims``, first index fastest, copied run by run.

    One pass merges the dims into runs: extent-1 dims are skipped, and a dim
    whose stride is its run's extent times stride continues that run.  A
    single stride-1 run from offset 0 over all of ``data`` returns ``data``
    itself; otherwise the later runs give the base offsets of the first run,
    starting at ``offset``, and the first run is copied from each base as
    one extended slice.  A layout whose positions run past ``data`` raises
    :class:`ShapeError`.

    The domain is every layout a :class:`DenseTensor` can hold: a stride on
    a dimension of extent above 1 is non-negative, which ``DenseTensor``
    refuses otherwise.  The run-past test reads only the last base plus one
    run's span, so with a negative stride there it may return too few
    elements, or the wrong ones, without an error.
    """
    runs = []
    m0 = s0 = 1
    for m, s in zip(dims, strides):
        if s == m0 * s0:
            m0 *= m
        elif m > 1:
            if m0 > 1:
                runs.append((m0, s0))
            m0, s0 = m, s
    if not runs and s0 == 1 and m0 == len(data) and offset == 0:
        return data
    runs.append((m0, s0))
    (m0, s0), *rest = runs
    span = (m0 - 1) * s0 + 1
    bases = [offset]
    for m, s in rest:
        bases = [step + b for step in range(0, m * s, s) for b in bases]
    if bases[-1] + span > len(data):
        raise ShapeError(
            f"dims {list(dims)} with strides {list(strides)} "
            f"run past {len(data)} elements"
        )
    return tuple(chain.from_iterable([data[b : b + span : s0] for b in bases]))


def iter_indices(
    shape: ShapeLike, order: StorageOrder = StorageOrder.FIRST_INDEX_FASTEST
) -> Iterator[IndexTuple]:
    """Every valid index tuple of ``shape``, listed in the given order."""
    dims = as_shape(shape).dims
    if _last_index_fastest(order):
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


def _check_position(m: int, size: int) -> None:
    """Refuse a linear position ``m`` unless it is an ``int`` in
    ``0 .. size-1``: :func:`check_index` of ``(m,)`` against the shape
    ``[size]``, with its message, but building no shape; raises
    ``IndexError``."""
    if not isinstance(m, int) or isinstance(m, bool) or not 0 <= m < size:
        raise IndexError(f"index {(m,)} out of range for shape {[size]}")


def _check_vector(a: DenseTensor, target: Shape | None = None) -> None:
    """Refuse ``a`` unless it is rank 1 and, given a ``target``, has exactly
    its size: the one vector check of the inverses; raises :class:`ShapeError`."""
    if a.rank != 1:
        raise ShapeError(f"expected a rank-1 vector, got rank {a.rank}")
    if target is not None and a.size != target.size:
        raise ShapeError(
            f"vector of length {a.size} cannot fill shape "
            f"{list(target.dims)} of size {target.size}"
        )


class DenseTensor:
    """Immutable dense tensor: shape, flat scalar storage, per-dimension
    strides and a start offset into the storage.

    The strides must map the indices one to one onto ``0 .. size-1``, which
    the offset moves to ``offset .. offset+size-1``; extent-1 dimensions may
    carry any stride.  Built without an offset, the storage must hold
    exactly ``size`` elements; with one, the tensor is a view of any storage
    long enough, and several views may share one storage.  Compare with
    :func:`tensors_equal`, which looks only at shapes and co-indexed elements.
    """

    __slots__ = ("shape", "data", "strides", "offset")

    def __init__(
        self,
        shape: Shape,
        data: Sequence,
        strides: Sequence[int],
        offset: int | None = None,
    ) -> None:
        try:
            data = tuple(data)
        except TypeError:
            raise ShapeError(f"{type(data).__name__} is not tensor data") from None
        strides = tuple(strides)
        dims = shape.dims
        if offset is None:
            if len(data) != shape.size:
                raise ShapeError(
                    f"data length {len(data)} does not match "
                    f"shape {list(dims)} (size {shape.size})"
                )
            offset = 0
        elif type(offset) is not int or offset < 0:
            raise ShapeError(f"offset {offset!r} is not a non-negative integer")
        elif offset + shape.size > len(data):
            raise ShapeError(
                f"offset {offset} and shape {list(dims)} (size {shape.size}) "
                f"run past {len(data)} elements"
            )
        # the shape's own first-index-fastest tuple tiles by construction;
        # identity, not equality, since (1.0, 2) == (1, 2)
        if strides is not shape._strides:
            ints = len(strides) == len(dims)
            for s in strides:
                if type(s) is not int:
                    ints = False
                    break
            if not ints:
                raise ShapeError(f"strides {strides} are not {len(dims)} integers")
            # in increasing order each stride must be the product of the
            # extents below it; exactly then the offsets are 0 .. size-1
            acc = 1
            for s, m in sorted(zip(strides, dims)):
                if m > 1 and s != acc:
                    raise ShapeError(
                        f"strides {strides} do not tile shape {list(dims)}"
                    )
                acc *= m
        _set_shape(self, shape)
        _set_data(self, data)
        _set_strides(self, strides)
        _set_offset(self, offset)

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        return DenseTensor, (self.shape, self.data, self.strides, self.offset)

    @property
    def rank(self) -> int:
        return self.shape.rank

    @property
    def size(self) -> int:
        return self.shape.size

    def get(self, idx: Sequence[int]) -> Scalar:
        """Element at the 0-indexed multi-index ``idx``."""
        idx = check_index(self.shape, idx)
        return self.data[self.offset + sum(map(operator.mul, idx, self.strides))]

    __getitem__ = get

    def __repr__(self) -> str:
        # the view's own elements of the storage, as they are stored
        start = self.offset
        preview = list(self.data[start : start + min(self.size, 8)])
        suffix = ", ..." if self.size > 8 else ""
        return (
            f"DenseTensor(shape={list(self.shape.dims)}, "
            f"strides={list(self.strides)}, data={preview}{suffix})"
        )


_set_shape, _set_data, _set_strides, _set_offset = _slot_setters(DenseTensor)


def _unchecked_view(
    shape: Shape, data: tuple, strides: tuple, offset: int
) -> DenseTensor:
    """A :class:`DenseTensor` of these four slots as they are, checked by
    nothing: for layouts the caller has just built or relabelled, so the
    strides must tile ``shape`` and ``offset + shape.size`` stay within
    ``data``.  ``verify`` reads such tensors against the source."""
    t = DenseTensor.__new__(DenseTensor)
    _set_shape(t, shape)
    _set_data(t, data)
    _set_strides(t, strides)
    _set_offset(t, offset)
    return t


def make_tensor(
    shape: ShapeLike,
    data: Sequence[Scalar],
    order: StorageOrder = StorageOrder.FIRST_INDEX_FASTEST,
) -> DenseTensor:
    """Build a tensor from flat data laid out in the given storage order.

    ``order`` must be a :class:`StorageOrder` member, as for
    :func:`storage_strides`; ``"row-major"`` and ``"column-major"`` are tags
    of the tensor file format only, and raise :class:`ShapeError` here.
    """
    shape = as_shape(shape)
    return DenseTensor(shape, data, storage_strides(shape, order))


def elements(
    t: DenseTensor, order: StorageOrder = StorageOrder.FIRST_INDEX_FASTEST
) -> tuple:
    """The logical elements of ``t`` in the given index order: :func:`gather`'s
    tuple, which is ``t.data`` itself when the storage is exactly those
    elements in that order."""
    dims, strides = t.shape.dims, t.strides
    if _last_index_fastest(order):
        dims, strides = dims[::-1], strides[::-1]
    return gather(t.data, dims, strides, t.offset)


def _slice_last(t: DenseTensor, k: int) -> tuple:
    """The elements of ``t`` whose last index is ``k``, first index fastest:
    one gather through ``t``'s strides that reads no other element.  ``k``
    must already be checked."""
    dims, strides = t.shape.dims, t.strides
    return gather(t.data, dims[:-1], strides[:-1], t.offset + k * strides[-1])


def transpose(t: DenseTensor, m: int, n: int) -> DenseTensor:
    """Swap dimensions ``m`` and ``n`` (1-indexed).

    The result holds the same elements with the two index positions
    exchanged, over the same storage; ``transpose(t, m, m)`` is the identity.
    """
    k = t.rank
    if type(m) is not int or type(n) is not int:
        _check_dim_numbers(m, n)
    if not 1 <= m <= k or not 1 <= n <= k:
        raise DimError(f"dimensions ({m}, {n}) out of range for rank {k}")
    if m == n:
        return t
    a, b = m - 1, n - 1
    dims, strides = list(t.shape.dims), list(t.strides)
    dims[a], dims[b] = dims[b], dims[a]
    strides[a], strides[b] = strides[b], strides[a]
    return _relabel(t, dims, tuple(strides))


def _relabel(t: DenseTensor, dims: Sequence[int], strides: tuple) -> DenseTensor:
    """``t``'s storage and offset under ``dims`` and ``strides``, built
    unchecked: every caller permutes ``t``'s extents with their strides, or
    adds or drops extent-1 dimensions, which take any stride, so the
    strides still tile the new shape."""
    return _unchecked_view(Shape(dims), t.data, strides, t.offset)


def tensors_equal(a: DenseTensor, b: DenseTensor) -> bool:
    """Shape-strict logical equality: equal ranks, extents, and elements."""
    dims = a.shape.dims
    if b.shape.dims != dims:
        return False
    xs = gather(a.data, dims, a.strides, a.offset)
    ys = gather(b.data, dims, b.strides, b.offset)
    # element by element: tuple == would let a NaN equal itself by identity
    return all(map(operator.eq, xs, ys))


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
    level = list(elements(t, StorageOrder.LAST_INDEX_FASTEST))
    for m in reversed(t.shape.dims[1:]):
        level = [level[i : i + m] for i in range(0, len(level), m)]
    return level
