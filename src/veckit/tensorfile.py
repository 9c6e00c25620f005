"""JSON tensor files: {"shape": [...], "order": "...", "data": [...]}.

The only persistent format.  ``shape`` is the list of extents, ``data``
the flat element list laid out in ``order``: "row-major" (last index
fastest, the default when the field is absent) or "column-major" (first
index fastest).  Numbers are finite 64-bit floats, so every file is strict
JSON; integer-valued data round trips exactly.  Files written here always
declare ``order`` explicitly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

from .core import DenseTensor, Shape, StorageOrder, elements, make_tensor
from .errors import FormatError, ShapeError

_ORDER_TAGS = {
    "row-major": StorageOrder.LAST_INDEX_FASTEST,
    "column-major": StorageOrder.FIRST_INDEX_FASTEST,
}

PathLike = Union[str, Path]

# largest tensor a file may declare, in elements; a larger shape is
# rejected before its data is looked at
_MAX_ELEMENTS = 2**24

# largest rank a file may declare or be written with, NumPy's NPY_MAXDIMS;
# the block route's cost grows about quadratically in rank, so a tiny file
# of a huge rank would otherwise run for hours.  The CLI applies the same
# limit to the shapes it parses; library Shape does not enforce it.
_MAX_RANK = 64


def _coerce_number(value, pos: int, path: PathLike) -> float:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{path}: data[{pos}] is not a number: {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise FormatError(f"{path}: data[{pos}] is beyond the float range") from None
    if not math.isfinite(number):
        raise FormatError(f"{path}: data[{pos}] is not finite: {value!r}")
    return number


def _numbers(raw: list, path: PathLike) -> list:
    """``raw`` as finite floats, checked as a whole list.

    json.loads makes no number types but int and float, and bool is
    neither.  A NaN or an infinity makes the sum non-finite; so does a sum
    of finite values that overflows, which the fallback then accepts.  Any
    failure falls back to the per-element check, so the first bad element
    is named exactly as :func:`_coerce_number` names it.
    """
    if {int, float}.issuperset(map(type, raw)):
        try:
            data = list(map(float, raw))
        except OverflowError:
            pass
        else:
            if math.isfinite(sum(data)):
                return data
    return [_coerce_number(v, i, path) for i, v in enumerate(raw)]


def read_tensor(path: PathLike) -> DenseTensor:
    """Load a tensor file, honoring its declared element order."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:
        # nested too deep to parse, or an integer literal too long to convert
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object at the top level")
    for field in ("shape", "data"):
        if field not in doc:
            raise FormatError(f"{path}: missing required field {field!r}")
    raw_shape = doc["shape"]
    if not isinstance(raw_shape, list):
        raise FormatError(f"{path}: shape must be a list of integers")
    if len(raw_shape) > _MAX_RANK:
        raise FormatError(
            f"{path}: shape has rank {len(raw_shape)}; the limit is {_MAX_RANK}"
        )
    try:
        shape = Shape(tuple(raw_shape))
    except ShapeError as exc:
        raise FormatError(f"{path}: shape: {exc}") from exc
    if shape.size > _MAX_ELEMENTS:
        raise FormatError(
            f"{path}: shape {list(shape.dims)} has {shape.size} elements; "
            f"the limit is {_MAX_ELEMENTS}"
        )
    tag = doc.get("order", "row-major")
    if not isinstance(tag, str) or tag not in _ORDER_TAGS:
        raise FormatError(
            f"{path}: unknown order {tag!r}; expected one of "
            f"{sorted(_ORDER_TAGS)}"
        )
    raw_data = doc["data"]
    if not isinstance(raw_data, list):
        raise FormatError(f"{path}: data must be a list of numbers")
    if len(raw_data) != shape.size:
        raise ShapeError(
            f"{path}: {len(raw_data)} data values for shape "
            f"{list(shape.dims)} of size {shape.size}"
        )
    return make_tensor(shape, _numbers(raw_data, path), _ORDER_TAGS[tag])


def write_tensor(
    t: DenseTensor,
    path: PathLike,
    order: str = "row-major",
) -> None:
    """Write a tensor file in the given element order (always declared).

    Elements are emitted as 64-bit floats via their shortest round-trip
    decimal form, so read-after-write reproduces the values exactly.  A
    non-finite element, an integer beyond the float range, or a rank that
    :func:`read_tensor` would refuse raises :class:`FormatError` and writes
    nothing.
    """
    if order not in _ORDER_TAGS:
        raise FormatError(
            f"unknown order {order!r}; expected one of {sorted(_ORDER_TAGS)}"
        )
    if t.rank > _MAX_RANK:
        raise FormatError(f"{path}: tensor has rank {t.rank}; the limit is {_MAX_RANK}")
    try:
        flat = list(map(float, elements(t, _ORDER_TAGS[order])))
    except OverflowError:
        raise FormatError(f"{path}: an element is beyond the float range") from None
    # integer-valued floats print as integers, everything else as the
    # shortest decimal that parses back to the same 64-bit value
    if all(map(float.is_integer, flat)):
        data = list(map(int, flat))
    else:
        data = [int(v) if v.is_integer() else v for v in flat]
    doc = {"shape": list(t.shape.dims), "order": order, "data": data}
    try:
        text = json.dumps(doc, allow_nan=False)
    except ValueError:
        raise FormatError(f"{path}: cannot write NaN or infinity") from None
    Path(path).write_text(text + "\n", encoding="utf-8")
