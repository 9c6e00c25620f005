"""JSON tensor file reading and writing."""

import json
import math

import pytest

import veckit as vk
from veckit import FormatError, ShapeError, StorageOrder, read_tensor, write_tensor

from conftest import GOLDEN_SHIFTED


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_read_row_major_default(tmp_path):
    p = _write(tmp_path / "t.json", '{"shape":[2,2],"data":[1,2,3,4]}')
    t = read_tensor(p)
    assert vk.to_nested(t) == [[1, 2], [3, 4]]


def test_read_column_major(tmp_path):
    p = _write(
        tmp_path / "t.json",
        '{"shape":[2,2],"order":"column-major","data":[1,3,2,4]}',
    )
    assert vk.to_nested(read_tensor(p)) == [[1, 2], [3, 4]]


def test_read_golden(tmp_path, golden):
    p = _write(
        tmp_path / "t.json",
        '{"shape":[2,2,3],"data":[1,2,3,4,5,6,7,8,9,10,11,12]}',
    )
    assert vk.tensors_equal(read_tensor(p), golden)


def test_write_then_read_round_trip(tmp_path, golden):
    for order in ("row-major", "column-major"):
        p = tmp_path / f"{order}.json"
        write_tensor(golden, p, order)
        assert vk.tensors_equal(read_tensor(p), golden)


@pytest.mark.parametrize("view", ["transposed", "vec"])
def test_write_strided_views_under_both_tags(tmp_path, golden, view):
    t = vk.transpose(golden, 1, 3) if view == "transposed" else vk.vec_k(golden)
    for tag, order in (
        ("row-major", StorageOrder.LAST_INDEX_FASTEST),
        ("column-major", StorageOrder.FIRST_INDEX_FASTEST),
    ):
        p = tmp_path / f"{tag}.json"
        write_tensor(t, p, tag)
        doc = json.loads(p.read_text())
        assert doc["shape"] == list(t.shape.dims)
        assert doc["data"] == [t.get(idx) for idx in vk.iter_indices(t.shape, order)]
        assert vk.tensors_equal(read_tensor(p), t)


def test_write_declares_order_explicitly(tmp_path):
    p = tmp_path / "t.json"
    write_tensor(vk.make_tensor((4,), [1, 3, 2, 4]), p)
    assert json.loads(p.read_text())["order"] == "row-major"


def test_write_golden_shift_bytes(tmp_path):
    p = tmp_path / "t.json"
    write_tensor(vk.from_nested(GOLDEN_SHIFTED), p)
    want = (
        '{"shape": [2, 6], "order": "row-major", '
        '"data": [1, 4, 2, 5, 3, 6, 7, 10, 8, 11, 9, 12]}\n'
    )
    assert p.read_text() == want


# int(1e300): the exact value of the float64 nearest 1e300
_E300 = (
    "100000000000000005250476025520442024870446858110815915491585411551180245"
    "798890819578637137508044786404370444383288387817694252323536043057564479"
    "218478670698284838720092657580373783023379478809005936895323497079994508"
    "111903896764088007465274278014249457925878882005684283811566947219638686"
    "5459400540160"
)


@pytest.mark.parametrize(
    "nested, row_major, column_major",
    [
        ([[1, -2, 3], [4, 5, -6]], "1, -2, 3, 4, 5, -6", "1, 4, -2, 5, 3, -6"),
        (
            # every value integral: -0.0 prints as 0, 2**53 + 1 as 2**53
            [[-0.0, 1e16, 2**53 + 1], [1e300, 7.0, 0]],
            f"0, 10000000000000000, 9007199254740992, {_E300}, 7, 0",
            f"0, {_E300}, 10000000000000000, 7, 9007199254740992, 0",
        ),
        (
            [[0.5, -0.0, 5e-324], [1e16, 2**53 + 1, -1.25]],
            "0.5, 0, 5e-324, 10000000000000000, 9007199254740992, -1.25",
            "0.5, 10000000000000000, 0, 9007199254740992, 5e-324, -1.25",
        ),
    ],
    ids=["ints", "integral", "mixed"],
)
def test_write_bytes_are_pinned(tmp_path, nested, row_major, column_major):
    t = vk.from_nested(nested)
    p = tmp_path / "t.json"
    for tag, data in (("row-major", row_major), ("column-major", column_major)):
        write_tensor(t, p, tag)
        want = f'{{"shape": [2, 3], "order": "{tag}", "data": [{data}]}}\n'
        assert p.read_bytes() == want.encode()
    # a transposed view writes the same elements in the same index order
    write_tensor(vk.transpose(t, 1, 2), p, "column-major")
    want = f'{{"shape": [3, 2], "order": "column-major", "data": [{row_major}]}}\n'
    assert p.read_bytes() == want.encode()


def test_non_integer_values_round_trip(tmp_path):
    t = vk.make_tensor((4,), [0.5, -1.25, 3e-9, 2.0])
    p = tmp_path / "t.json"
    write_tensor(t, p)
    back = read_tensor(p)
    assert list(back.data) == [0.5, -1.25, 3e-9, 2.0]


def test_read_rejects_invalid_json(tmp_path):
    p = _write(tmp_path / "bad.json", '{"shape": [2,\n  "data"')
    with pytest.raises(FormatError) as err:
        read_tensor(p)
    # parse failures carry a line and column
    assert "line" in str(err.value)
    assert "column" in str(err.value)


@pytest.mark.parametrize(
    "doc",
    [
        "[1, 2, 3]",
        '{"data": [1]}',
        '{"shape": [2]}',
        '{"shape": "2", "data": [1, 2]}',
        '{"shape": [], "data": []}',
        '{"shape": [2, 0], "data": []}',
        '{"shape": [2], "order": "diagonal", "data": [1, 2]}',
        '{"shape": [2], "order": [], "data": [1, 2]}',
        '{"shape": [2], "data": 3}',
        '{"shape": [2], "data": [1, true]}',
        '{"shape": [2], "data": [1, "two"]}',
    ],
)
def test_read_rejects_malformed_documents(tmp_path, doc):
    p = _write(tmp_path / "bad.json", doc)
    with pytest.raises(FormatError):
        read_tensor(p)


@pytest.mark.parametrize("value", ["1e400", "-1e400", "NaN", "Infinity", "-Infinity"])
def test_read_rejects_non_finite_values(tmp_path, value):
    p = _write(tmp_path / "t.json", f'{{"shape": [2], "data": [1, {value}]}}')
    with pytest.raises(FormatError, match=r"data\[1\] is not finite"):
        read_tensor(p)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_rejects_non_finite_values(tmp_path, value):
    p = tmp_path / "t.json"
    with pytest.raises(FormatError):
        write_tensor(vk.make_tensor((2,), [1.0, value]), p)
    assert not p.exists()


def test_write_rejects_int_beyond_float_range(tmp_path):
    p = tmp_path / "t.json"
    with pytest.raises(FormatError, match="beyond the float range"):
        write_tensor(vk.make_tensor((1,), [10**400]), p)
    assert not p.exists()


def test_int_beyond_2_53_rounds_to_float64(tmp_path):
    # 2**53 + 1 has no float64; it rounds to the nearest even, 2**53
    p = _write(tmp_path / "big.json", '{"shape": [1], "data": [9007199254740993]}')
    t = read_tensor(p)
    assert type(t.data[0]) is float and t.data[0] == 2**53
    out = tmp_path / "out.json"
    write_tensor(t, out)
    assert out.read_text().endswith('"data": [9007199254740992]}\n')


def test_read_rejects_length_mismatch(tmp_path):
    p = _write(tmp_path / "short.json", '{"shape": [2, 2], "data": [1, 2, 3]}')
    with pytest.raises(ShapeError):
        read_tensor(p)


def test_read_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_tensor(tmp_path / "nope.json")


def test_write_to_missing_directory(tmp_path):
    with pytest.raises(OSError):
        write_tensor(
            vk.make_tensor((1,), [1]), tmp_path / "nodir" / "t.json"
        )


def test_write_rejects_unknown_order(tmp_path):
    with pytest.raises(FormatError):
        write_tensor(vk.make_tensor((1,), [1]), tmp_path / "t.json", "diagonal")


# an 8-element file whose data[6] is the bad value, after valid ints and floats
_BAD_AT_6 = '{{"shape": [2, 4], "data": [1, 2.5, -3, 0.25, 7, 1e3, {}]}}'


@pytest.mark.parametrize(
    "values, message",
    [
        ("true, 4", "data[6] is not a number: True"),
        ('"x", 4', "data[6] is not a number: 'x'"),
        ("null, 4", "data[6] is not a number: None"),
        ("[1], 4", "data[6] is not a number: [1]"),
        ("{}, 4", "data[6] is not a number: {}"),
        ("1e400, 4", "data[6] is not finite: inf"),
        ("NaN, 4", "data[6] is not finite: nan"),
        ("1" + "0" * 399 + ", 4", "data[6] is beyond the float range"),
        # two bad values: a non-finite one, then one of the wrong type
        ("1e400, true", "data[6] is not finite: inf"),
    ],
    ids=[
        "true", "string", "null", "list", "object", "1e400", "NaN",
        "400-digit-int", "first-of-two",
    ],
)
def test_read_names_the_first_bad_element(tmp_path, values, message):
    p = _write(tmp_path / "t.json", _BAD_AT_6.format(values))
    with pytest.raises(FormatError) as err:
        read_tensor(p)
    assert str(err.value) == f"{p}: {message}"


def test_read_accepts_finite_values_whose_sum_overflows(tmp_path):
    p = _write(tmp_path / "t.json", '{"shape": [3], "data": [1.7e308, 1.7e308, -1]}')
    assert read_tensor(p).data == (1.7e308, 1.7e308, -1.0)


def test_read_rejects_shape_beyond_the_size_cap(tmp_path):
    # the cap is checked before the data, so nothing large is allocated
    p = _write(tmp_path / "big.json", '{"shape": [4096, 4096, 2], "data": []}')
    with pytest.raises(FormatError, match="limit") as err:
        read_tensor(p)
    assert "33554432 elements" in str(err.value)
    # a shape at the cap passes it and fails on the length instead
    p = _write(tmp_path / "cap.json", '{"shape": [4096, 4096], "data": []}')
    with pytest.raises(ShapeError, match="0 data values"):
        read_tensor(p)


def test_read_rejects_rank_beyond_the_limit(tmp_path):
    # checked before the extents: a rank-65 shape of zeros names its rank
    p = _write(tmp_path / "deep.json", json.dumps({"shape": [0] * 65, "data": [5]}))
    with pytest.raises(FormatError) as err:
        read_tensor(p)
    assert str(err.value) == f"{p}: shape has rank 65; the limit is 64"
    p = _write(tmp_path / "cap.json", json.dumps({"shape": [1] * 64, "data": [5]}))
    assert read_tensor(p).rank == 64


def test_write_rejects_rank_read_would_refuse(tmp_path):
    p = tmp_path / "t.json"
    with pytest.raises(FormatError) as err:
        write_tensor(vk.make_tensor((1,) * 65, [5]), p)
    assert str(err.value) == f"{p}: tensor has rank 65; the limit is 64"
    assert not p.exists()
