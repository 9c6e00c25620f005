"""Command-line front end.

Subcommands: ``vec`` and ``unvec`` (with ``--row`` for the row-wise
variants and ``--path``/``--kron`` to pick the computation route),
``shift`` (with ``--inverse --last-extent E``), ``verify`` (the seeded
self-check suite), and ``bench`` (block route vs index route timings as
CSV).  Exit status: 0 success, 1 usage or domain error, 2 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import time
from typing import NamedTuple

from . import indexmap, kron2d, vecops, verify
from .core import Shape, StorageOrder, make_tensor, tensors_equal
from .errors import ShapeError, TensorError, VerificationError
from .tensorfile import read_tensor, write_tensor


# largest shape `bench` accepts, in elements (128x128x128); the timed runs
# hold a few copies of the tensor, so a larger shape would exhaust memory
_BENCH_MAX_ELEMENTS = 2**21


class BenchRow(NamedTuple):
    """One timed benchmark measurement."""

    shape_text: str
    path: str
    median_ns: int
    elements_per_sec: float


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _parse_shape(text: str) -> Shape:
    """Parse an x-separated extent list such as ``2x2x3``."""
    try:
        dims = tuple(int(part, 10) for part in text.lower().split("x"))
    except ValueError:
        raise ShapeError(
            f"bad shape {text!r}; expected x-separated extents like 2x2x3"
        ) from None
    return Shape(dims)


# built once per process: parsing leaves no state on the parser, and each
# call looks its handler up by name, so replacing a _cmd_* still takes effect
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="veckit",
        description="Vectorize, unvectorize, and shift dense tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_vec = sub.add_parser("vec", help="flatten a tensor to a vector")
    p_vec.add_argument("input", help="tensor file to read")
    p_vec.add_argument("output", help="tensor file to write")
    p_vec.add_argument(
        "--row", action="store_true", help="row-wise (last index fastest)"
    )
    p_vec.add_argument(
        "--path",
        choices=("block", "index"),
        default="block",
        help="computation route (default: block)",
    )

    p_unvec = sub.add_parser("unvec", help="rebuild a tensor from a vector")
    p_unvec.add_argument("input", help="rank-1 tensor file to read")
    p_unvec.add_argument("output", help="tensor file to write")
    p_unvec.add_argument(
        "--shape", required=True, help="target extents, x-separated (e.g. 2x2x3)"
    )
    p_unvec.add_argument(
        "--row", action="store_true", help="input is a row-wise vectorization"
    )
    p_unvec.add_argument(
        "--kron",
        action="store_true",
        help="use the closed-form Kronecker route (rank-2 shapes only)",
    )

    p_shift = sub.add_parser("shift", help="merge or split the last dimensions")
    p_shift.add_argument("input", help="tensor file to read")
    p_shift.add_argument("output", help="tensor file to write")
    p_shift.add_argument(
        "--inverse", action="store_true", help="split instead of merge"
    )
    p_shift.add_argument(
        "--last-extent",
        type=_positive_int,
        help="restored last extent (required with --inverse)",
    )

    p_verify = sub.add_parser("verify", help="run the self-check suite")
    p_verify.add_argument("--seed", type=int, default=0, help="random seed")
    p_verify.add_argument(
        "--max-rank", type=_positive_int, default=4, help="largest random rank"
    )
    p_verify.add_argument(
        "--max-extent", type=_positive_int, default=3, help="largest random extent"
    )
    p_verify.add_argument(
        "--cases", type=_positive_int, default=200, help="cases per check"
    )

    p_bench = sub.add_parser(
        "bench", help="time the block route against the index route"
    )
    p_bench.add_argument(
        "--shapes",
        required=True,
        nargs="+",
        help="shapes to benchmark, x-separated (e.g. 2x2x3 32x32x32)",
    )
    p_bench.add_argument(
        "--reps", type=_positive_int, default=5, help="repetitions per timing"
    )

    return parser


def _cmd_vec(args) -> int:
    t = read_tensor(args.input)
    if args.path == "block":
        out = vecops.rvec_k(t) if args.row else vecops.vec_k(t)
    else:
        out = indexmap.vec_by_index(vecops.reverse_dims(t) if args.row else t)
    write_tensor(out, args.output)
    return 0


def _cmd_unvec(args) -> int:
    t = read_tensor(args.input)
    if t.rank != 1:
        print(
            f"error: unvec input must be rank 1, got rank {t.rank}",
            file=sys.stderr,
        )
        return 1
    target = _parse_shape(args.shape)
    if args.kron:
        if target.rank != 2:
            print(
                "error: --kron needs a rank-2 shape like 3x4",
                file=sys.stderr,
            )
            return 1
        m, n = target.dims
        if args.row:
            out = vecops.reverse_dims(kron2d.kron_inverse_2d(t, n, m))
        else:
            out = kron2d.kron_inverse_2d(t, m, n)
    elif args.row:
        out = vecops.rvec_inverse(t, target)
    else:
        out = vecops.vec_inverse(t, target)
    write_tensor(out, args.output)
    return 0


def _cmd_shift(args) -> int:
    if args.inverse and args.last_extent is None:
        print("error: --inverse requires --last-extent", file=sys.stderr)
        return 1
    if args.last_extent is not None and not args.inverse:
        print("error: --last-extent only applies with --inverse", file=sys.stderr)
        return 1
    t = read_tensor(args.input)
    out = vecops.shift_inverse(t, args.last_extent) if args.inverse else vecops.shift(t)
    write_tensor(out, args.output)
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_all(
        seed=args.seed,
        max_rank=args.max_rank,
        max_extent=args.max_extent,
        cases=args.cases,
    )
    print(verify.format_report(report))
    return 0 if report.all_passed else 2


def _bench_tensor(shape: Shape):
    # deterministic small integers, row-major like a JSON file's data, so
    # the index route gathers instead of returning its first-index-fastest view
    data = [(i % 97) - 48 for i in range(shape.size)]
    return make_tensor(shape, data, StorageOrder.LAST_INDEX_FASTEST)


def _cmd_bench(args) -> int:
    shapes = [(text, _parse_shape(text)) for text in args.shapes]
    for text, shape in shapes:
        if shape.size > _BENCH_MAX_ELEMENTS:
            raise ShapeError(
                f"bench shape {text} has {shape.size} elements; "
                f"the limit is {_BENCH_MAX_ELEMENTS}"
            )
    jobs = []
    for text, shape in shapes:
        t = _bench_tensor(shape)
        try:
            agree = tensors_equal(vecops.vec_k(t), indexmap.vec_by_index(t))
        except Exception as exc:
            # a route that raises is as faulty as one that disagrees
            raise VerificationError(
                f"a route raised {type(exc).__name__} on shape {text}: {exc}; "
                f"refusing to time an incorrect build"
            ) from exc
        if not agree:
            raise VerificationError(
                f"block and index routes disagree on shape {text}; "
                f"refusing to time an incorrect build"
            )
        jobs.append((text, shape, t))

    rows = []
    for text, shape, t in jobs:
        for path, fn in (
            ("block", vecops.vec_k),
            ("index", indexmap.vec_by_index),
        ):
            samples = []
            for _ in range(args.reps):
                start = time.perf_counter_ns()
                fn(t)
                samples.append(time.perf_counter_ns() - start)
            median_ns = int(statistics.median(samples))
            rate = shape.size * 1_000_000_000 / max(median_ns, 1)
            rows.append(BenchRow(text, path, median_ns, rate))

    print("shape,path,median_ns,elements_per_sec")
    for r in rows:
        print(f"{r.shape_text},{r.path},{r.median_ns},{r.elements_per_sec:.6g}")
    return 0


def main(argv=None) -> int:
    """Run the CLI; returns the exit status instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TensorError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    """Console-script hook."""
    raise SystemExit(main())
