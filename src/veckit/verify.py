"""Self-check suite: every cross-module invariant, seeded and reproducible.

Each check is a generator over its own cases, drawn from
``Random(f"{seed}:{name}")``: it yields ``None`` after each case that holds,
or a counterexample's text, after which it is not resumed.  :func:`run_all`
numbers the cases, so a failure report names the seed and case number that
replay it exactly, and checks stay independent of execution order.  The
checks cover the golden worked example, the shift involution and the split
of a strided tensor, every block view of a grid with two wide dims and the
grid transpose of those dims, agreement of the block-composition and
index-arithmetic vectorization paths, every round trip, the index-map
bijection and its digit decomposition, the shape-collapse witness, the
Kronecker product identities, and the closed-form 2-D inverse.
"""

from __future__ import annotations

import random
from operator import mul
from typing import NamedTuple

from . import indexmap, kron2d, vecops
from .blocking import block, transpose_outer, unblock
from .core import (
    _MAX_BUILT_ELEMENTS,
    DenseTensor,
    Shape,
    elements,
    from_nested,
    iter_indices,
    make_tensor,
    storage_strides,
    tensors_equal,
    to_nested,
)
from .errors import ShapeError

GOLDEN_NESTED = [
    [[1, 2, 3], [4, 5, 6]],
    [[7, 8, 9], [10, 11, 12]],
]
GOLDEN_SHIFTED = [[1, 4, 2, 5, 3, 6], [7, 10, 8, 11, 9, 12]]
GOLDEN_VEC = [1, 7, 4, 10, 2, 8, 5, 11, 3, 9, 6, 12]
GOLDEN_RVEC = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]


class CheckResult(NamedTuple):
    """Outcome of one named check; ``detail`` carries the counterexample."""

    name: str
    passed: bool
    cases: int
    detail: str = ""


class RunReport(NamedTuple):
    """Results of a verification run."""

    checks: tuple[CheckResult, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _random_shape(
    rng: random.Random, max_rank: int, max_extent: int, min_rank: int = 1
) -> Shape:
    rank = rng.randint(min_rank, max(min_rank, max_rank))
    return Shape(tuple(rng.randint(1, max_extent) for _ in range(rank)))


def _random_tensor(rng: random.Random, shape: Shape) -> DenseTensor:
    # distinct values, so that a misplaced element always shows, in any of
    # the rank! storage orders, drawn fastest dim first; the tensor is a
    # view at a seeded offset into storage twice its size, whose filler
    # values (n and up) are distinct from the tensor's (below n), so a
    # reader that misses the offset, or takes the whole storage for the
    # tensor, reads a value the tensor lacks
    n = shape.size
    offset = rng.randint(0, n)
    values = rng.sample(range(-n, n), n)
    data = [*range(n, n + offset), *values, *range(n + offset, 2 * n)]
    strides, step = [0] * shape.rank, 1
    for d in rng.sample(range(shape.rank), shape.rank):
        strides[d] = step
        step *= shape.dims[d]
    return DenseTensor(shape, data, strides, offset)


_MAX_RANK = _MAX_BUILT_ELEMENTS.bit_length() - 1  # 21: extent 2 at the limit

_SHOWN = 16  # elements per counterexample, so failure reports stay bounded
_SHOWN_CHARS = 300  # characters of a raised exception's message


def _describe(t: DenseTensor) -> str:
    shown = list(elements(t)[:_SHOWN])
    more = f" ... ({t.size} elements)" if t.size > _SHOWN else ""
    return f"shape={list(t.shape.dims)} data={shown}{more}"


def _check_golden_shift(rng, cfg):
    t = from_nested(GOLDEN_NESTED)
    got = vecops.shift(t)
    if not tensors_equal(got, from_nested(GOLDEN_SHIFTED)):
        yield f"shift of golden tensor gave {_describe(got)}"
    yield None
    v = vecops.vec_k(t)
    if list(elements(v)) != GOLDEN_VEC:
        yield f"vec of golden tensor gave {_describe(v)}"
    yield None
    r = vecops.rvec_k(t)
    if list(elements(r)) != GOLDEN_RVEC:
        yield f"rvec of golden tensor gave {_describe(r)}"
    yield None


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _wide_grid_transpose(rng, cfg):
    """Block a tensor on a grid with two dims wider than 1: the block at
    ``q``, read through ``block_at``, must hold at ``l`` the source element
    at ``q * S + l``.  Then swap the two dims with ``transpose_outer`` and
    unblock: the element at ``p`` must be the source element at
    ``q * S + l``, where ``l = p mod S`` and ``q = p div S`` with the two
    grid dims swapped back.  A shift only ever swaps an extent-1 grid dim.
    Returns a counterexample, or ``None``."""
    max_extent = cfg["max_extent"]
    dims = list(_random_shape(rng, cfg["max_rank"], max_extent, min_rank=2).dims)
    a, b = rng.sample(range(len(dims)), 2)
    dims[a], dims[b] = rng.randint(2, max_extent), rng.randint(2, max_extent)
    t = _random_tensor(rng, Shape(tuple(dims)))
    outer = [rng.choice(_divisors(m)) for m in dims]
    outer[a], outer[b] = (rng.choice(_divisors(dims[n])[1:]) for n in (a, b))
    sub = [m // T for m, T in zip(dims, outer)]
    # the source read once, index by index, without blocking: the element
    # at r is source[sum(r_n * F_n)], F the first-index-fastest strides
    source = [t.get(r) for r in iter_indices(t.shape)]
    ff = storage_strides(t.shape)
    inner = [sum(map(mul, l, ff)) for l in iter_indices(sub)]
    bt = block(t, outer)
    # block builds its views unchecked and unblock reads none of them past
    # the first one's storage, so this is what reads them
    for q in iter_indices(outer):
        view = bt.block_at(q)
        start = sum(qn * s * f for qn, s, f in zip(q, sub, ff))
        if list(elements(view)) != [source[start + i] for i in inner]:
            return (
                f"block {list(q)} of a grid of {outer} over {_describe(t)} "
                f"holds {_describe(view)}"
            )
    got = unblock(transpose_outer(bt, a + 1, b + 1))
    for p, x in zip(iter_indices(got.shape), elements(got)):
        q = [pn // s for pn, s in zip(p, sub)]
        q[a], q[b] = q[b], q[a]
        r = [qn * s + pn % s for qn, s, pn in zip(q, sub, p)]
        if x != source[sum(map(mul, r, ff))]:
            return (
                f"grid of {outer} with dims {a + 1} and {b + 1} swapped "
                f"unblocked {_describe(t)} into {_describe(got)}"
            )
    return None


def _check_involution(rng, cfg):
    # the grid transposes and the splits draw from streams of their own, so
    # the shift cases draw the tensors they always have
    grids = random.Random(f"{cfg['seed']}:shift-involution:grid")
    splits = random.Random(f"{cfg['seed']}:shift-involution:split")
    for _ in range(cfg["cases"]):
        shape = _random_shape(rng, cfg["max_rank"], cfg["max_extent"], min_rank=2)
        t = _random_tensor(rng, shape)
        back = vecops.shift_inverse(vecops.shift(t), shape.dims[-1])
        if not tensors_equal(back, t):
            yield f"shift then inverse changed {_describe(t)} into {_describe(back)}"
        # t may be strided, which no shift result is: (.., a, b) of the
        # split reads t at (.., a + b * last / e)
        last = shape.dims[-1]
        e = splits.choice(_divisors(last))
        split = vecops.shift_inverse(t, e)
        for p, x in zip(iter_indices(split.shape), elements(split)):
            if x != t.get((*p[:-2], p[-2] + last // e * p[-1])):
                yield f"last extent of {_describe(t)} split by {e}: {_describe(split)}"
        if cfg["max_extent"] > 1:
            problem = _wide_grid_transpose(grids, cfg)
            if problem is not None:
                yield problem
        yield None


def _check_two_path(rng, cfg):
    for _ in range(cfg["cases"]):
        shape = _random_shape(rng, cfg["max_rank"], cfg["max_extent"])
        t = _random_tensor(rng, shape)
        block_path = vecops.vec_k(t)
        index_path = indexmap.vec_by_index(t)
        if not tensors_equal(block_path, index_path):
            yield (
                f"paths disagree on {_describe(t)}: block {_describe(block_path)}"
                f" vs index {_describe(index_path)}"
            )
        row_block = vecops.rvec_k(t)
        row_index = indexmap.vec_by_index(vecops.reverse_dims(t))
        if not tensors_equal(row_block, row_index):
            yield (
                f"row paths disagree on {_describe(t)}: block "
                f"{_describe(row_block)} vs index {_describe(row_index)}"
            )
        yield None


def _check_round_trip(rng, cfg):
    for _ in range(cfg["cases"]):
        shape = _random_shape(rng, cfg["max_rank"], cfg["max_extent"])
        t = _random_tensor(rng, shape)
        for label, forward, backward in (
            ("vec", vecops.vec_k, vecops.vec_inverse),
            ("rvec", vecops.rvec_k, vecops.rvec_inverse),
            ("index", indexmap.vec_by_index, indexmap.unvec_by_index),
        ):
            back = backward(forward(t), shape)
            if not tensors_equal(back, t):
                yield (
                    f"{label} round trip changed {_describe(t)} into "
                    f"{_describe(back)}"
                )
        yield None


def _check_index_bijection(rng, cfg):
    for _ in range(cfg["cases"]):
        shape = _random_shape(rng, cfg["max_rank"], cfg["max_extent"])
        size = shape.size
        # full sweep for small shapes, seeded sample for big ones
        if size <= 512:
            positions = range(size)
        else:
            positions = [rng.randrange(size) for _ in range(512)]
        for m in positions:
            p = indexmap.tuple_index(m, shape)
            back = indexmap.linear_index(p, shape)
            if back != m:
                yield (
                    f"index {m} of shape {list(shape.dims)} decodes to {p} "
                    f"which encodes to {back}"
                )
            if not indexmap.decompose_check(m, shape):
                yield (
                    f"digit decomposition does not reassemble {m} for shape "
                    f"{list(shape.dims)}"
                )
        if size <= 512:
            seen = {indexmap.linear_index(p, shape) for p in iter_indices(shape)}
            if seen != set(range(size)):
                yield (
                    f"linear indices of shape {list(shape.dims)} are not a "
                    f"bijection onto 0..{size - 1}"
                )
        yield None


def _check_collapse_witness(rng, cfg):
    for _ in range(cfg["cases"]):
        a, b, c, d = (rng.randint(-99, 99) for _ in range(4))
        square = from_nested([[a, b], [c, d]])
        flat = from_nested([[a, c, b, d]])
        v1 = vecops.vec_k(square)
        v2 = vecops.vec_k(flat)
        if square.shape.dims == flat.shape.dims:
            yield "witness shapes unexpectedly equal"
        if not tensors_equal(v1, v2):
            yield (
                f"collapse witness broke for ({a}, {b}, {c}, {d}): "
                f"{_describe(v1)} vs {_describe(v2)}"
            )
        yield None


def _check_identity_chain(rng, cfg):
    hi = max(2, cfg["max_extent"])
    for _ in range(cfg["cases"]):
        m, n, p, q = (rng.randint(1, hi) for _ in range(4))
        O = _random_tensor(rng, Shape((m, n)))
        P = _random_tensor(rng, Shape((n, p)))
        Q = _random_tensor(rng, Shape((p, q)))
        residual = kron2d.vec_product_identity_residual(O, P, Q)
        if residual != 0:
            yield (
                f"product identity residual {residual} for {_describe(O)}, "
                f"{_describe(P)}, {_describe(Q)}"
            )
        # per-column chain: with a = vec(A), folding the k-th column of
        # I_N kron a must give the k-th column of A
        A = _random_tensor(rng, Shape((m, p)))
        a = kron2d.vec2(A)
        eye = kron2d.identity_matrix(p)
        big = kron2d.kronecker(eye, kron2d.as_column(a))
        left = kron2d.kronecker(
            kron2d.as_row(kron2d.vec2(eye)), kron2d.identity_matrix(m)
        )
        # b_k comes from matrix_column, so A's column k is read from its rows
        rows = to_nested(A)
        for k in range(p):
            b_k = kron2d.matrix_column(big, k)
            expect_b = kron2d.kronecker(
                kron2d.matrix_column(eye, k), kron2d.as_column(a)
            )
            if not tensors_equal(b_k, expect_b):
                yield (
                    f"column {k} of the stacked product differs from the "
                    f"single-column product for {_describe(A)}"
                )
            folded = kron2d.matmul(left, b_k)
            if not tensors_equal(folded, make_tensor((m, 1), [r[k] for r in rows])):
                yield (
                    f"folding column {k} back did not recover column {k} of "
                    f"{_describe(A)}"
                )
        yield None


def _check_kron_closed_form(rng, cfg):
    hi = max(2, min(8, cfg["max_extent"] + 2))
    for _ in range(cfg["cases"]):
        m = rng.randint(1, hi)
        n = rng.randint(1, hi)
        x = _random_tensor(rng, Shape((m, n)))
        a = kron2d.vec2(x)
        got = kron2d.kron_inverse_2d(a, m, n)
        if not tensors_equal(got, x):
            yield f"closed form rebuilt {_describe(x)} as {_describe(got)}"
        via_index = indexmap.unvec_by_index(a, (m, n))
        if not tensors_equal(got, via_index):
            yield f"closed form disagrees with the index inverse on {_describe(x)}"
        yield None
    # a last case: the misprinted factor order is not conformable once M != N
    a = make_tensor(Shape((6,)), [1, 2, 3, 4, 5, 6])
    eye3 = kron2d.identity_matrix(3)
    printed_left = kron2d.kronecker(
        kron2d.as_column(kron2d.vec2(eye3)), kron2d.identity_matrix(2)
    )
    right = kron2d.kronecker(eye3, kron2d.as_column(a))
    try:
        kron2d.matmul(printed_left, right)
    except ShapeError:
        yield None
    else:
        yield "misprinted factor order unexpectedly conformable for 2x3"


_CHECKS = (
    ("golden-shift", _check_golden_shift),
    ("shift-involution", _check_involution),
    ("two-path-vec", _check_two_path),
    ("vec-roundtrip", _check_round_trip),
    ("index-bijection", _check_index_bijection),
    ("shape-collapse-witness", _check_collapse_witness),
    ("identity-chain-residual", _check_identity_chain),
    ("kron-closed-form", _check_kron_closed_form),
)


def run_all(
    seed: int = 0,
    max_rank: int = 4,
    max_extent: int = 3,
    cases: int = 200,
) -> RunReport:
    """Run every check, numbering its cases, and collect the results.

    ``max_rank`` and ``max_extent`` bound the randomly drawn shapes
    (checks that need rank 2 enforce their own floor), ``cases`` is the
    per-check case budget, and ``seed`` makes the whole run reproducible.
    Raises :class:`ShapeError` before any check runs when a bound is not
    an ``int`` (a ``bool`` neither) or is below 1, when ``max_rank`` is
    over 21 or a drawn tensor (``max_extent ** max_rank``) or Kronecker
    factor (``max(2, max_extent) ** 4``) could exceed 2^21 elements.
    """
    bounds = {"max rank": max_rank, "max extent": max_extent, "case budget": cases}
    for what, value in bounds.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ShapeError(f"{what} {value!r} is not an integer")
        if value < 1:
            raise ShapeError(f"{what} must be positive, got {value}")
    # the rank first, so that no huge power is formed
    if max_rank > _MAX_RANK:
        raise ShapeError(f"max rank {max_rank} is over the limit of {_MAX_RANK}")
    for size, what in (
        (max_extent**max_rank, "tensors"),
        (max(2, max_extent) ** 4, "Kronecker factors"),
    ):
        if size > _MAX_BUILT_ELEMENTS:
            raise ShapeError(
                f"max rank {max_rank} and max extent {max_extent} draw {what} "
                f"of up to {size} elements; the limit is {_MAX_BUILT_ELEMENTS}"
            )
    cfg = {
        "seed": seed,
        "max_rank": max_rank,
        "max_extent": max_extent,
        "cases": cases,
    }
    results = []
    for name, check in _CHECKS:
        case, problem = 0, None
        try:
            for problem in check(random.Random(f"{seed}:{name}"), cfg):
                if problem is not None:
                    break
                case += 1
        except Exception as exc:
            # a fault that raises fails its check just as a wrong result does
            problem = f"{type(exc).__name__}: {exc}"[:_SHOWN_CHARS]
        detail = "" if problem is None else f"seed={seed} case={case}: {problem}"
        results.append(CheckResult(name, problem is None, case, detail))
    return RunReport(checks=tuple(results))


def format_report(report: RunReport) -> str:
    """Human-readable lines, one per check, plus a summary line."""
    lines = []
    for c in report.checks:
        if c.passed:
            lines.append(f"PASS {c.name} ({c.cases} cases)")
        else:
            lines.append(f"FAIL {c.name}: {c.detail}")
    failed = sum(1 for c in report.checks if not c.passed)
    if failed:
        lines.append(f"{failed} of {len(report.checks)} checks failed")
    else:
        lines.append(f"all {len(report.checks)} checks passed")
    return "\n".join(lines)
