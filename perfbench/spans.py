"""Span tracing of veckit's public functions, installed from outside veckit.

``Tracer`` replaces each traced function on every veckit module attribute
that refers to it -- the names callers actually resolve, such as
``vecops.block`` or ``cli.read_tensor`` -- with a wrapper that records one
span per call: label, parent span, start, end, elements and bytes.  The
originals are put back when the ``with`` block ends.  Per-element helpers
such as ``linear_index`` are never wrapped, so the cost of tracing scales
with calls, not with elements.
"""

from __future__ import annotations

import os
from time import perf_counter

MODULES = ("core", "blocking", "vecops", "indexmap", "kron2d", "tensorfile", "verify", "cli")


def _first_arg(args, result):
    t = args[0]
    blocks = getattr(t, "block_shape", None)
    if blocks is not None:
        return t.outer_shape.size * blocks.size, 0
    return t.size, 0


def _result(args, result):
    return result.size, 0


def _children(args, result):
    # no tensor argument: the span counts the elements its direct children handled
    return None, 0


def _read(args, result):
    return result.size, os.path.getsize(args[0])


def _write(args, result):
    return args[0].size, os.path.getsize(args[1])


# (label, module, attribute, sizing); sizing gives a span's (elements, bytes)
TRACED = (
    ("core.transpose", "core", "transpose", _first_arg),
    ("core.tensors_equal", "core", "tensors_equal", _first_arg),
    ("blocking.block", "blocking", "block", _first_arg),
    ("blocking.transpose_outer", "blocking", "transpose_outer", _first_arg),
    ("blocking.unblock", "blocking", "unblock", _first_arg),
    ("vecops.shift", "vecops", "shift", _first_arg),
    ("vecops.shift_inverse", "vecops", "shift_inverse", _first_arg),
    ("vecops.vec_k", "vecops", "vec_k", _first_arg),
    ("vecops.vec_inverse", "vecops", "vec_inverse", _first_arg),
    ("vecops.reverse_dims", "vecops", "reverse_dims", _first_arg),
    ("vecops.rvec_k", "vecops", "rvec_k", _first_arg),
    ("vecops.rvec_inverse", "vecops", "rvec_inverse", _first_arg),
    ("indexmap.vec_by_index", "indexmap", "vec_by_index", _first_arg),
    ("indexmap.unvec_by_index", "indexmap", "unvec_by_index", _first_arg),
    ("kron2d.kron_inverse_2d", "kron2d", "kron_inverse_2d", _first_arg),
    ("kron2d.kronecker", "kron2d", "kronecker", _result),
    ("kron2d.matmul", "kron2d", "matmul", _result),
    ("tensorfile.read_tensor", "tensorfile", "read_tensor", _read),
    ("tensorfile.write_tensor", "tensorfile", "write_tensor", _write),
    ("cli.vec", "cli", "_cmd_vec", _children),
    ("cli.unvec", "cli", "_cmd_unvec", _children),
    ("cli.shift", "cli", "_cmd_shift", _children),
    ("cli.verify", "cli", "_cmd_verify", _children),
    ("verify.run_all", "verify", "run_all", _children),
)

# top-level calls of these are the vec-family work that blocking.touch_per_el
# is measured against
VEC_FAMILY = frozenset(
    f"vecops.{name}"
    for name in ("shift", "shift_inverse", "vec_k", "vec_inverse", "rvec_k", "rvec_inverse")
)

LABEL, PARENT, START, END, ELEMENTS, BYTES = range(6)


class Tracer:
    """Context manager that records spans of the traced veckit functions.

    ``modules`` maps each name in :data:`MODULES` to the imported veckit
    module; ``package`` is the ``veckit`` package itself.  Spans accumulate
    in :attr:`spans` across ``with`` blocks.
    """

    def __init__(self, modules, package):
        self.modules = modules
        self.package = package
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        owners = [*self.modules.values(), self.package]
        for label, module, attr, sizing in TRACED:
            original = getattr(self.modules[module], attr)
            wrapper = self._wrap(label, original, sizing)
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._saved.append((owner, name, original))
                        setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False

    def _wrap(self, label, fn, sizing):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [label, stack[-1] if stack else -1, 0.0, 0.0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[START], span[END] = start, end
            span[ELEMENTS], span[BYTES] = sizing(args, result)
            return result

        return traced


def summarize(spans):
    """Per-label ``calls``, ``elements``, ``self_s`` and ``bytes``, plus totals.

    A span's self time is its duration minus the durations of its direct
    children.  A span sized ``None`` counts the elements of its direct
    children.  Returns ``(per_label, touch_per_el)``.
    """
    child_time = [0.0] * len(spans)
    child_elements = [0] * len(spans)
    elements = [0] * len(spans)
    # children always come after their parent, so walk backwards
    for i in range(len(spans) - 1, -1, -1):
        span = spans[i]
        own = span[ELEMENTS]
        elements[i] = child_elements[i] if own is None else own
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
            child_elements[span[PARENT]] += elements[i]
    per_label = {
        label: {"calls": 0, "elements": 0, "self_s": 0.0, "bytes": 0}
        for label, *_ in TRACED
    }
    vec_family_elements = 0
    for i, span in enumerate(spans):
        row = per_label[span[LABEL]]
        row["calls"] += 1
        row["elements"] += elements[i]
        row["self_s"] += span[END] - span[START] - child_time[i]
        row["bytes"] += span[BYTES]
        if span[LABEL] in VEC_FAMILY and not _has_vec_family_ancestor(spans, i):
            vec_family_elements += elements[i]
    touched = per_label["blocking.block"]["elements"] + per_label["blocking.unblock"]["elements"]
    touch_per_el = touched / vec_family_elements if vec_family_elements else 0.0
    return per_label, touch_per_el


def _has_vec_family_ancestor(spans, i):
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][LABEL] in VEC_FAMILY:
            return True
        parent = spans[parent][PARENT]
    return False
