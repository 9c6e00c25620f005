"""Self-check suite: every cross-module invariant, seeded and reproducible.

Each check draws its own generator from ``Random(f"{seed}:{name}")``, so a
failure report names the seed and case number that replay it exactly, and
checks stay independent of execution order.  The checks cover the golden
worked example, the shift involution, agreement of the block-composition
and index-arithmetic vectorization paths, every round trip, the index-map
bijection and its digit decomposition, the shape-collapse witness, the
Kronecker product identities, and the closed-form 2-D inverse.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import indexmap, kron2d, vecops
from .core import (
    DenseTensor,
    Shape,
    StorageOrder,
    elements,
    from_nested,
    iter_indices,
    make_tensor,
    tensors_equal,
    transpose,
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
    # a drawn storage order seen through a drawn transpose (none if m == n)
    data = [rng.randint(-9, 9) for _ in range(shape.size)]
    m, n = rng.randint(1, shape.rank), rng.randint(1, shape.rank)
    dims = list(shape.dims)
    dims[m - 1], dims[n - 1] = dims[n - 1], dims[m - 1]
    return transpose(make_tensor(dims, data, rng.choice(list(StorageOrder))), m, n)


_SHOWN = 16  # elements per counterexample, so failure reports stay bounded
_SHOWN_CHARS = 300  # characters of a raised exception's message


def _describe(t: DenseTensor) -> str:
    shown = elements(t)[:_SHOWN]
    more = f" ... ({t.size} elements)" if t.size > _SHOWN else ""
    return f"shape={list(t.shape.dims)} data={shown}{more}"


def _each_case(cfg: dict, cases: int):
    """Case numbers ``0 .. cases-1``, each noted in ``cfg["case"]`` as it
    starts, so that :func:`run_all` can name a case that raises."""
    for i in range(cases):
        cfg["case"] = i
        yield i


def _fail(name: str, seed: int, case: int, message: str) -> CheckResult:
    return CheckResult(
        name, False, case, f"seed={seed} case={case}: {message}"
    )


def _check_golden_shift(name, rng, seed, cfg) -> CheckResult:
    t = from_nested(GOLDEN_NESTED)
    got = vecops.shift(t)
    want = from_nested(GOLDEN_SHIFTED)
    if not tensors_equal(got, want):
        return _fail(name, seed, 0, f"shift of golden tensor gave {_describe(got)}")
    cfg["case"] = 1
    v = vecops.vec_k(t)
    if list(v.data) != GOLDEN_VEC:
        return _fail(name, seed, 1, f"vec of golden tensor gave {_describe(v)}")
    cfg["case"] = 2
    r = vecops.rvec_k(t)
    if list(r.data) != GOLDEN_RVEC:
        return _fail(name, seed, 2, f"rvec of golden tensor gave {_describe(r)}")
    return CheckResult(name, True, 3)


def _check_involution(name, rng, seed, cfg) -> CheckResult:
    cases = cfg["cases"]
    for i in _each_case(cfg, cases):
        shape = _random_shape(rng, cfg["max_rank"], cfg["max_extent"], min_rank=2)
        t = _random_tensor(rng, shape)
        back = vecops.shift_inverse(vecops.shift(t), shape.dims[-1])
        if not tensors_equal(back, t):
            return _fail(
                name, seed, i,
                f"shift then inverse changed {_describe(t)} into {_describe(back)}",
            )
    return CheckResult(name, True, cases)


def _check_two_path(name, rng, seed, cfg) -> CheckResult:
    cases = cfg["cases"]
    for i in _each_case(cfg, cases):
        shape = _random_shape(rng, cfg["max_rank"], cfg["max_extent"])
        t = _random_tensor(rng, shape)
        block_path = vecops.vec_k(t)
        index_path = indexmap.vec_by_index(t)
        if not tensors_equal(block_path, index_path):
            return _fail(
                name, seed, i,
                f"paths disagree on {_describe(t)}: block {_describe(block_path)}"
                f" vs index {_describe(index_path)}",
            )
        row_block = vecops.rvec_k(t)
        row_index = indexmap.vec_by_index(vecops.reverse_dims(t))
        if not tensors_equal(row_block, row_index):
            return _fail(
                name, seed, i,
                f"row paths disagree on {_describe(t)}: block "
                f"{_describe(row_block)} vs index {_describe(row_index)}",
            )
    return CheckResult(name, True, cases)


def _check_round_trip(name, rng, seed, cfg) -> CheckResult:
    cases = cfg["cases"]
    for i in _each_case(cfg, cases):
        shape = _random_shape(rng, cfg["max_rank"], cfg["max_extent"])
        t = _random_tensor(rng, shape)
        for label, forward, backward in (
            ("vec", vecops.vec_k, vecops.vec_inverse),
            ("rvec", vecops.rvec_k, vecops.rvec_inverse),
            ("index", indexmap.vec_by_index, indexmap.unvec_by_index),
        ):
            back = backward(forward(t), shape)
            if not tensors_equal(back, t):
                return _fail(
                    name, seed, i,
                    f"{label} round trip changed {_describe(t)} into "
                    f"{_describe(back)}",
                )
    return CheckResult(name, True, cases)


def _check_index_bijection(name, rng, seed, cfg) -> CheckResult:
    cases = cfg["cases"]
    for i in _each_case(cfg, cases):
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
                return _fail(
                    name, seed, i,
                    f"index {m} of shape {list(shape.dims)} decodes to {p} "
                    f"which encodes to {back}",
                )
            if not indexmap.decompose_check(m, shape):
                return _fail(
                    name, seed, i,
                    f"digit decomposition does not reassemble {m} for shape "
                    f"{list(shape.dims)}",
                )
        if size <= 512:
            seen = {indexmap.linear_index(p, shape) for p in iter_indices(shape)}
            if seen != set(range(size)):
                return _fail(
                    name, seed, i,
                    f"linear indices of shape {list(shape.dims)} are not a "
                    f"bijection onto 0..{size - 1}",
                )
    return CheckResult(name, True, cases)


def _check_collapse_witness(name, rng, seed, cfg) -> CheckResult:
    cases = cfg["cases"]
    for i in _each_case(cfg, cases):
        a, b, c, d = (rng.randint(-99, 99) for _ in range(4))
        square = from_nested([[a, b], [c, d]])
        flat = from_nested([[a, c, b, d]])
        v1 = vecops.vec_k(square)
        v2 = vecops.vec_k(flat)
        if square.shape.dims == flat.shape.dims:
            return _fail(name, seed, i, "witness shapes unexpectedly equal")
        if not tensors_equal(v1, v2):
            return _fail(
                name, seed, i,
                f"collapse witness broke for ({a}, {b}, {c}, {d}): "
                f"{_describe(v1)} vs {_describe(v2)}",
            )
    return CheckResult(name, True, cases)


def _check_identity_chain(name, rng, seed, cfg) -> CheckResult:
    cases = cfg["cases"]
    hi = max(2, cfg["max_extent"])
    for i in _each_case(cfg, cases):
        m, n, p, q = (rng.randint(1, hi) for _ in range(4))
        O = _random_tensor(rng, Shape((m, n)))
        P = _random_tensor(rng, Shape((n, p)))
        Q = _random_tensor(rng, Shape((p, q)))
        residual = kron2d.vec_product_identity_residual(O, P, Q)
        if residual != 0:
            return _fail(
                name, seed, i,
                f"product identity residual {residual} for {_describe(O)}, "
                f"{_describe(P)}, {_describe(Q)}",
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
        for k in range(p):
            b_k = kron2d.matrix_column(big, k)
            expect_b = kron2d.kronecker(
                kron2d.matrix_column(eye, k), kron2d.as_column(a)
            )
            if not tensors_equal(b_k, expect_b):
                return _fail(
                    name, seed, i,
                    f"column {k} of the stacked product differs from the "
                    f"single-column product for {_describe(A)}",
                )
            folded = kron2d.matmul(left, b_k)
            if not tensors_equal(folded, kron2d.matrix_column(A, k)):
                return _fail(
                    name, seed, i,
                    f"folding column {k} back did not recover column {k} of "
                    f"{_describe(A)}",
                )
    return CheckResult(name, True, cases)


def _check_kron_closed_form(name, rng, seed, cfg) -> CheckResult:
    cases = cfg["cases"]
    hi = max(2, min(8, cfg["max_extent"] + 2))
    for i in _each_case(cfg, cases):
        m = rng.randint(1, hi)
        n = rng.randint(1, hi)
        x = _random_tensor(rng, Shape((m, n)))
        a = kron2d.vec2(x)
        got = kron2d.kron_inverse_2d(a, m, n)
        if not tensors_equal(got, x):
            return _fail(
                name, seed, i,
                f"closed form rebuilt {_describe(x)} as {_describe(got)}",
            )
        via_index = indexmap.unvec_by_index(a, (m, n))
        if not tensors_equal(got, via_index):
            return _fail(
                name, seed, i,
                f"closed form disagrees with the index inverse on {_describe(x)}",
            )
    # the misprinted factor order is not even conformable once M != N
    cfg["case"] = cases
    a = make_tensor(Shape((6,)), [1, 2, 3, 4, 5, 6])
    eye3 = kron2d.identity_matrix(3)
    printed_left = kron2d.kronecker(
        kron2d.as_column(kron2d.vec2(eye3)), kron2d.identity_matrix(2)
    )
    right = kron2d.kronecker(eye3, kron2d.as_column(a))
    try:
        kron2d.matmul(printed_left, right)
    except ShapeError:
        pass
    else:
        return _fail(
            name, seed, cases,
            "misprinted factor order unexpectedly conformable for 2x3",
        )
    return CheckResult(name, True, cases + 1)


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
    """Run every check and collect the results.

    ``max_rank`` and ``max_extent`` bound the randomly drawn shapes
    (checks that need rank 2 enforce their own floor), ``cases`` is the
    per-check case budget, and ``seed`` makes the whole run reproducible.
    """
    if max_rank < 1:
        raise ShapeError(f"max rank must be positive, got {max_rank}")
    if max_extent < 1:
        raise ShapeError(f"max extent must be positive, got {max_extent}")
    if cases < 1:
        raise ShapeError(f"case budget must be positive, got {cases}")
    cfg = {"max_rank": max_rank, "max_extent": max_extent, "cases": cases}
    results = []
    for name, fn in _CHECKS:
        rng = random.Random(f"{seed}:{name}")
        cfg["case"] = 0
        try:
            results.append(fn(name, rng, seed, cfg))
        except Exception as exc:
            # a fault that raises fails its check just as a wrong result does
            message = f"{type(exc).__name__}: {exc}"[:_SHOWN_CHARS]
            results.append(_fail(name, seed, cfg["case"], message))
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
