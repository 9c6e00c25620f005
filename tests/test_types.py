"""The value types' contract: immutability, equality, copies, constructor errors."""

import ast
import copy
import os
import pickle
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import veckit as vk
from veckit import BlockTensor, ShapeError, StorageOrder, verify


def _tensors():
    data = range(24)
    return {
        "row-major": vk.make_tensor((2, 3, 4), data, StorageOrder.LAST_INDEX_FASTEST),
        "column-major": vk.make_tensor((2, 3, 4), data),
        "transposed": vk.transpose(vk.make_tensor((2, 3, 4), data), 1, 3),
    }


def _values():
    report = verify.RunReport(
        (
            verify.CheckResult("golden-shift", True, 3),
            verify.CheckResult("two-path-vec", False, 7, "seed=1 case=7: x"),
        )
    )
    return {
        "shape": vk.Shape((2, 3, 4)),
        **_tensors(),
        "block": vk.block(_tensors()["row-major"], (2, 1, 2)),
        # two wide grid dims swapped: grid strides (6, 2, 1), not canonical
        "transposed-block": vk.transpose_outer(
            vk.block(_tensors()["row-major"], (2, 3, 2)), 1, 3
        ),
        "check": report.checks[1],
        "report": report,
    }


def _same(a, b):
    assert type(a) is type(b)
    if isinstance(a, vk.DenseTensor):
        return a.strides == b.strides and vk.tensors_equal(a, b)
    if isinstance(a, BlockTensor):
        # the blocks of each are views of one storage, which copies keep
        return (
            a.block_shape == b.block_shape
            and a.grid.shape == b.grid.shape
            and a.grid.strides == b.grid.strides
            and all(map(_same, a.grid.data, b.grid.data))
            and all(v.data is a.grid.data[0].data for v in a.grid.data)
        )
    return a == b


_COPIES = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(_COPIES))
@pytest.mark.parametrize("name", sorted(_values()))
def test_values_survive_pickle_and_copy(name, how):
    value = _values()[name]
    assert _same(_COPIES[how](value), value)


def _immutables():
    t = _tensors()["transposed"]
    return [
        (vk.Shape((2, 3)), ("dims", "size", "_strides")),
        (t, ("shape", "data", "strides", "offset")),
        (vk.block(t, (1, 1, 2)), ("block_shape", "grid")),
    ]


@pytest.mark.parametrize("value, names", _immutables(), ids=lambda v: type(v).__name__)
def test_values_are_immutable(value, names):
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    for name in names:
        assert getattr(value, name) is not None


def test_reprs_list_their_fields():
    bt = vk.block(vk.make_tensor((2, 2), range(4)), (2, 1))
    assert repr(bt) == (
        "BlockTensor(block_shape=Shape([1, 2]), grid=DenseTensor(shape=[2, 1], "
        "strides=[1, 2], data=[DenseTensor(shape=[1, 2], strides=[1, 1], "
        "data=[0, 2]), DenseTensor(shape=[1, 2], strides=[1, 1], data=[1, 3])]))"
    )
    assert repr(verify.CheckResult("golden-shift", True, 3)) == (
        "CheckResult(name='golden-shift', passed=True, cases=3, detail='')"
    )


def test_shapes_are_equal_and_hashed_by_extents():
    a, b, c = vk.Shape((2, 3)), vk.Shape([2, 3]), vk.Shape((3, 2))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert {a, b, c} == {a, c} and len({a, b, c}) == 2
    assert b in {a}
    assert a != (2, 3) and (2, 3) != a
    assert a.size == 6


def test_cached_strides_play_no_part_in_equality_hashing_or_repr():
    a = vk.Shape((2, 3, 4))
    assert a._strides == (1, 2, 6)
    assert hash(a) == hash((2, 3, 4)) and repr(a) == "Shape([2, 3, 4])"
    assert a.__reduce__() == (vk.Shape, ((2, 3, 4),))
    b = pickle.loads(pickle.dumps(a))
    assert b == a and b._strides == a._strides


def test_canonical_strides_are_one_object_per_shape():
    s = vk.Shape((2, 3, 4))
    assert vk.storage_strides(s) is vk.storage_strides(s)
    assert vk.make_tensor(s, range(24)).strides is vk.storage_strides(s)
    row_major = vk.storage_strides(s, StorageOrder.LAST_INDEX_FASTEST)
    assert row_major == (12, 4, 1)
    assert row_major is not vk.storage_strides(s, StorageOrder.LAST_INDEX_FASTEST)


class _Extent(int):
    pass


@pytest.mark.parametrize(
    "dims, message",
    [
        ((2, True), "extent True is not an integer"),
        ((2.0,), "extent 2.0 is not an integer"),
        ((3, 0), "extent 0 must be at least 1"),
        ((-1, 0.5), "extent -1 must be at least 1"),
        (3, "int is not a shape"),
        (None, "NoneType is not a shape"),
    ],
)
def test_shape_errors_keep_their_messages(dims, message):
    with pytest.raises(ShapeError) as info:
        vk.Shape(dims)
    assert str(info.value) == message


def test_shape_accepts_int_subclass_extents():
    s = vk.Shape((_Extent(2), 3))
    assert s.dims == (2, 3) and s.size == 6


@pytest.mark.parametrize(
    "strides, message",
    [
        ((True, 2), "strides (True, 2) are not 2 integers"),
        ((1.0, 2), "strides (1.0, 2) are not 2 integers"),
        ((1,), "strides (1,) are not 2 integers"),
        ((1, 2, 6), "strides (1, 2, 6) are not 2 integers"),
        ((1, 3), "strides (1, 3) do not tile shape [2, 3]"),
        # gather's domain: no negative stride on a dim of extent above 1
        ((-1, 2), "strides (-1, 2) do not tile shape [2, 3]"),
        ((1, -2), "strides (1, -2) do not tile shape [2, 3]"),
    ],
)
def test_dense_tensor_errors_keep_their_messages(strides, message):
    # (1.0, 2) and (True, 2) equal the shape's own strides (1, 2), which
    # skip the check only as that very object
    with pytest.raises(ShapeError) as info:
        vk.DenseTensor(vk.Shape((2, 3)), tuple(range(6)), strides)
    assert str(info.value) == message


def test_dense_tensor_checks_an_equal_copy_of_the_canonical_strides():
    t = vk.DenseTensor(vk.Shape((2, 3)), range(6), [1, 2])
    assert t.strides == (1, 2) and t.strides is not t.shape._strides
    assert vk.tensors_equal(t, vk.make_tensor((2, 3), range(6)))


_PACKAGE = Path(vk.__file__).resolve().parent


def _python(args, package_root=_PACKAGE.parent):
    """Run a fresh interpreter with ``package_root`` first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=60,
    )


def test_import_loads_no_dataclass_machinery():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import veckit, veckit.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = _python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_package_imports_only_the_standard_library():
    # the README promises no runtime dependencies; relative imports stay
    # within the package
    imported = set()
    for path in _PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert {"__future__", "itertools"} <= imported
    assert imported - sys.stdlib_module_names <= {"__future__"}


def test_reimports_leave_only_the_current_copy_alive():
    # import afresh five times, as a benchmark set-up does, then count the
    # Shape classes that survive a collection
    code = (
        "import gc, importlib, sys\n"
        "for _ in range(5):\n"
        "    for name in [m for m in sys.modules if m.split('.')[0] == 'veckit']:\n"
        "        del sys.modules[name]\n"
        "    importlib.import_module('veckit.cli')\n"
        "gc.collect()\n"
        "alive = [c for c in gc.get_objects() if isinstance(c, type)\n"
        "         and c.__module__ == 'veckit.core' and c.__name__ == 'Shape']\n"
        "print(len(alive), alive == [sys.modules['veckit.core'].Shape])\n"
    )
    proc = _python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 True"


def _mutated_copy(tmp_path, module, canonical, mutant):
    """The root of a copy of the package whose ``module`` has its one
    ``canonical`` text replaced by ``mutant``."""
    copy_root = tmp_path / "src"
    shutil.copytree(
        _PACKAGE, copy_root / "veckit", ignore=shutil.ignore_patterns("__pycache__")
    )
    path = copy_root / "veckit" / module
    source = path.read_text(encoding="utf-8")
    assert source.count(canonical) == 1
    path.write_text(source.replace(canonical, mutant), encoding="utf-8")
    return copy_root


def _verify_mutant(tmp_path, canonical, mutant, max_rank, module="core.py"):
    """Run ``verify --cases 20`` on a copy of the package whose ``module``
    has its one ``canonical`` line replaced by ``mutant``; expect exit 2
    with a ``seed=… case=…`` line, and the same report again when rerun
    with that seed."""
    copy_root = _mutated_copy(tmp_path, module, canonical, mutant)
    args = ["-m", "veckit", "verify", "--cases", "20", "--max-rank", str(max_rank)]
    proc = _python(args, copy_root)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    found = re.search(r"^FAIL .*: seed=(\d+) case=\d+: ", proc.stdout, re.MULTILINE)
    assert found
    replay = _python([*args, "--seed", found[1]], copy_root)
    assert (replay.returncode, replay.stdout) == (2, proc.stdout)


_CANONICAL = "_set_ff_strides(self, tuple(strides))"
_STRIDE_MUTANTS = {
    "last-index-fastest": (
        "_set_ff_strides(self, "
        "tuple(accumulate(dims[:0:-1], operator.mul, initial=1))[::-1])"
    ),
    "last-stride-plus-one": "_set_ff_strides(self, (*strides[:-1], strides[-1] + 1))",
}


@pytest.mark.parametrize("mutant", sorted(_STRIDE_MUTANTS))
def test_verify_catches_wrong_cached_strides(tmp_path, mutant):
    # DenseTensor trusts a shape's own strides unchecked, so verify is what
    # must notice when they are computed wrong
    _verify_mutant(tmp_path, _CANONICAL, _STRIDE_MUTANTS[mutant], max_rank=3)


# gather's run rule, which alone decides whether a layout is in order;
# dropping its ``m0 > 1`` guard is an equivalent mutant (the first run is
# then one element long, a slower copy of the same elements), so it is not
# listed
_IN_ORDER_TEST = "if s == m0 * s0:"
_IN_ORDER_MUTANTS = {
    "strides-not-compared": "if True:",
    "first-stride-only": "if s == m0 * s0 or m0 > 1:",
}


@pytest.mark.parametrize("mutant", sorted(_IN_ORDER_MUTANTS))
def test_verify_catches_a_wrong_in_order_test(tmp_path, mutant):
    # a layout wrongly taken as in order returns the storage unpermuted
    _verify_mutant(tmp_path, _IN_ORDER_TEST, _IN_ORDER_MUTANTS[mutant], max_rank=3)


def test_verify_catches_a_grid_transpose_that_keeps_the_strides(tmp_path):
    # transpose_outer is core.transpose on the grid; a transpose that swaps
    # the extents but keeps the old strides must show
    _verify_mutant(
        tmp_path,
        "strides[a], strides[b] = strides[b], strides[a]",
        "pass",
        max_rank=3,
        module="core.py",
    )


# inside the block route the only views are blocks, which unblock takes as
# one storage without reading them; verify's own tensors are views, so a
# reader that misses their offset must still show.  block builds its views
# unchecked, so views at the wrong offsets show because verify reads every
# block of its wide grids through block_at, whether they stay within their
# storage or not
_OFFSET_MUTANTS = {
    "gather-from-zero": ("core.py", "bases = [offset]", "bases = [0]"),
    "blocks-one-off": (
        "blocking.py",
        "_unchecked_view(block_shape, flat, strides, i)",
        "_unchecked_view(block_shape, flat, strides, abs(i - 1))",
    ),
    "blocks-one-off-in-range": (
        "blocking.py",
        "_unchecked_view(block_shape, flat, strides, i)",
        "_unchecked_view(block_shape, flat, strides, "
        "min(i + 1, len(flat) - block_shape.size))",
    ),
}


@pytest.mark.parametrize("mutant", sorted(_OFFSET_MUTANTS))
def test_verify_catches_a_view_read_from_the_wrong_offset(tmp_path, mutant):
    module, canonical, wrong = _OFFSET_MUTANTS[mutant]
    _verify_mutant(tmp_path, canonical, wrong, max_rank=3, module=module)


# unblock's one gather is the whole concatenation, so the grid strides it
# reads must show; verify's grid transposes swap two wide grid dims, which
# a shift never does
_BLOCKING_MUTANTS = {
    "unblock-canonical-grid-strides": (
        "map(mul, grid.strides, repeat(block_shape.size))",
        "map(mul, grid.shape._strides, repeat(block_shape.size))",
    ),
    "block-extent-off-by-one": ("sub.append(M // T)", "sub.append(M // T + 1)"),
}


@pytest.mark.parametrize("mutant", sorted(_BLOCKING_MUTANTS))
def test_verify_catches_a_wrong_block_grid(tmp_path, mutant):
    canonical, wrong = _BLOCKING_MUTANTS[mutant]
    _verify_mutant(tmp_path, canonical, wrong, max_rank=3, module="blocking.py")


def test_verify_catches_elements_ignoring_the_order(tmp_path):
    # matmul, kronecker and files all read through elements, so one that
    # lists first index fastest whatever order is asked must show
    _verify_mutant(
        tmp_path,
        "dims, strides = dims[::-1], strides[::-1]",
        "dims, strides = dims, strides",
        max_rank=4,
    )


def test_verify_catches_a_rotated_matrix_column(tmp_path):
    # a matrix_column that returns column k + 1 fools any check that reads
    # both sides of a comparison through it
    _verify_mutant(
        tmp_path,
        "t.offset + k * strides[-1]",
        "t.offset + (k + 1) % dims[-1] * strides[-1]",
        max_rank=4,
    )


def test_verify_catches_a_reverse_dims_that_keeps_the_strides(tmp_path):
    # rvec_k and rvec_inverse relabel through reverse_dims; extents reversed
    # over the old strides misplace elements or fail to tile
    _verify_mutant(
        tmp_path,
        "_relabel(t, t.shape.dims[::-1], t.strides[::-1])",
        "_relabel(t, t.shape.dims[::-1], t.strides)",
        max_rank=3,
        module="vecops.py",
    )


def test_verify_catches_a_wrong_digit_in_the_index_route(tmp_path):
    # digit value p read as m - p: every offset stays in range, and extent-2
    # digits are unchanged, so only the comparison with the block route and
    # the index round trip show it
    _verify_mutant(
        tmp_path,
        "repeat(p * stride, n)",
        "repeat((m - p) * stride, n)",
        max_rank=3,
        module="indexmap.py",
    )


# core._relabel keeps the strides it is given; a trailing-axis step that
# hands a strided input canonical strides instead reads its elements out of
# order.  verify splits the last extent of its strided draws, so it shows
# there; the relabel test of test_core.py fails in row-major order
_CANONICAL_TRAILING_AXIS = (
    "t.strides + (t.size,)",
    "t.shape._strides + (t.size,)",
)


def test_verify_catches_a_trailing_axis_with_canonical_strides(tmp_path):
    _verify_mutant(tmp_path, *_CANONICAL_TRAILING_AXIS, max_rank=3, module="vecops.py")


def test_the_relabel_test_catches_a_trailing_axis_with_canonical_strides(tmp_path):
    copy_root = _mutated_copy(tmp_path, "vecops.py", *_CANONICAL_TRAILING_AXIS)
    tests = Path(__file__).with_name("test_core.py")
    args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", str(tests), "-k", "relabel"]
    proc = _python(args, copy_root)
    assert re.search(r"^1 failed, 1 passed", proc.stdout, re.MULTILINE), proc.stdout


def test_a_reader_that_lets_nan_through_shows_in_the_error_line(tmp_path):
    # write_tensor refuses NaN too, so the exit status alone cannot tell a
    # reader that lets it through; the error line must name the input
    source = tmp_path / "nan.json"
    source.write_text('{"shape": [2], "data": [1, NaN]}', encoding="utf-8")
    out = tmp_path / "out.json"
    args = ["-m", "veckit", "vec", str(source), str(out)]
    expected = f"error: {source}: data[1] is not finite: nan\n"
    proc = _python(args)
    assert (proc.returncode, proc.stderr) == (1, expected)
    copy_root = _mutated_copy(
        tmp_path, "tensorfile.py", "if math.isfinite(sum(data)):", "if True:"
    )
    proc = _python(args, copy_root)
    # the NaN passed the reader, and the writer stopped it
    expected = f"error: {out}: cannot write NaN or infinity\n"
    assert (proc.returncode, proc.stderr) == (1, expected)
