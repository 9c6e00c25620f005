"""Reference results computed with the benchmark's own index arithmetic.

A logical tensor is held as ``dims`` plus ``rm``: its elements listed with
the last index fastest (row-major).  Everything veckit returns is compared
against lists derived here, and nothing in this module calls veckit, so
the reference stays independent of both of veckit's routes.
"""

from __future__ import annotations

import json
import math


def row_strides(dims):
    """Row-major stride of every dimension."""
    out = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        out[i] = out[i + 1] * dims[i + 1]
    return out


def first_fastest_offsets(dims):
    """Row-major offset of every index, listed first index fastest."""
    offs = [0]
    for extent, stride in zip(dims, row_strides(dims)):
        offs = [o + j * stride for j in range(extent) for o in offs]
    return offs


def vec_of(dims, rm):
    """Expected ``vec``: the elements with the first index fastest."""
    return [rm[o] for o in first_fastest_offsets(dims)]


def shift_of(dims, rm):
    """Expected ``shift``: last two extents merged, ``q = p_{k-1} + M_{k-1} p_k``.

    Returns the merged dims and the merged tensor's row-major elements.
    """
    *head, a, b = dims
    out = []
    for h in range(math.prod(head)):
        base = h * a * b
        out.extend(rm[base + (q % a) * b + q // a] for q in range(a * b))
    return [*head, a * b], out


def nested(dims, rm):
    """Nested lists, outermost dimension first, of a row-major element list."""
    level = list(rm)
    for extent in reversed(dims[1:]):
        level = [level[i:i + extent] for i in range(0, len(level), extent)]
    return level


def matches(core, t, dims, want) -> bool:
    """Whether veckit tensor ``t`` has shape ``dims`` and nested lists ``want``.

    Reads ``t`` only through the public ``to_nested`` read API.
    """
    return tuple(t.shape.dims) == tuple(dims) and core.to_nested(t) == want


def file_text(dims, rm, column_major: bool) -> str:
    """A tensor file in veckit's JSON format, written without veckit."""
    if column_major:
        doc = {"shape": list(dims), "order": "column-major", "data": vec_of(dims, rm)}
    else:
        doc = {"shape": list(dims), "order": "row-major", "data": list(rm)}
    return json.dumps(doc) + "\n"


def parse_file(text: str):
    """``(dims, rm)`` of a tensor file, decoded without veckit."""
    doc = json.loads(text)
    dims, data = doc["shape"], doc["data"]
    order = doc.get("order", "row-major")
    if order == "row-major":
        return dims, data
    if order != "column-major":
        raise ValueError(f"unknown order {order!r}")
    rm = [None] * len(data)
    for m, o in enumerate(first_fastest_offsets(dims)):
        rm[o] = data[m]
    return dims, rm
