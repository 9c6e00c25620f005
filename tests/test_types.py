"""The value types' contract: immutability, equality, copies, constructor errors."""

import copy
import os
import pickle
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
        "check": report.checks[1],
        "report": report,
    }


def _same(a, b):
    assert type(a) is type(b)
    if isinstance(a, vk.DenseTensor):
        return a.strides == b.strides and vk.tensors_equal(a, b)
    if isinstance(a, BlockTensor):
        return (
            a.outer_shape == b.outer_shape
            and a.block_shape == b.block_shape
            and len(a.blocks) == len(b.blocks)
            and all(map(_same, a.blocks, b.blocks))
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
        (vk.Shape((2, 3)), ("dims", "size")),
        (t, ("shape", "data", "strides")),
        (vk.block(t, (1, 1, 2)), ("outer_shape", "block_shape", "blocks")),
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
        "BlockTensor(outer_shape=Shape([2, 1]), block_shape=Shape([1, 2]), "
        "blocks=(DenseTensor(shape=[1, 2], strides=[1, 1], data=[0, 2]), "
        "DenseTensor(shape=[1, 2], strides=[1, 1], data=[1, 3])))"
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


class _Extent(int):
    pass


@pytest.mark.parametrize(
    "dims, message",
    [
        ((2, True), "extent True is not an integer"),
        ((2.0,), "extent 2.0 is not an integer"),
        ((3, 0), "extent 0 must be at least 1"),
        ((-1, 0.5), "extent -1 must be at least 1"),
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
    ],
)
def test_dense_tensor_errors_keep_their_messages(strides, message):
    with pytest.raises(ShapeError) as info:
        vk.DenseTensor(vk.Shape((2, 3)), tuple(range(6)), strides)
    assert str(info.value) == message


def test_import_loads_no_dataclass_machinery():
    package_root = str(Path(vk.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import veckit, veckit.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
