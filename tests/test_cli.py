"""Command-line behavior: subcommands, exit codes, CSV, fault reporting."""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import veckit as vk
from veckit import blocking, cli, vecops, verify
from veckit.tensorfile import read_tensor

from conftest import GOLDEN_RVEC, GOLDEN_SHIFTED, GOLDEN_VEC


@pytest.fixture
def golden_file(tmp_path):
    p = tmp_path / "golden.json"
    p.write_text(
        '{"shape":[2,2,3],"data":[1,2,3,4,5,6,7,8,9,10,11,12]}',
        encoding="utf-8",
    )
    return p


def test_vec_default(tmp_path, golden_file):
    out = tmp_path / "v.json"
    assert cli.main(["vec", str(golden_file), str(out)]) == 0
    assert json.loads(out.read_text())["data"] == GOLDEN_VEC


def test_vec_row(tmp_path, golden_file):
    out = tmp_path / "r.json"
    assert cli.main(["vec", str(golden_file), str(out), "--row"]) == 0
    assert json.loads(out.read_text())["data"] == GOLDEN_RVEC


def test_vec_paths_byte_identical(tmp_path, golden_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["vec", str(golden_file), str(a), "--path", "block"]) == 0
    assert cli.main(["vec", str(golden_file), str(b), "--path", "index"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_vec_row_paths_byte_identical(tmp_path, golden_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["vec", str(golden_file), str(a), "--row"]) == 0
    assert (
        cli.main(["vec", str(golden_file), str(b), "--row", "--path", "index"])
        == 0
    )
    assert a.read_bytes() == b.read_bytes()


def test_unvec_round_trip(tmp_path, golden_file):
    v = tmp_path / "v.json"
    back = tmp_path / "back.json"
    assert cli.main(["vec", str(golden_file), str(v)]) == 0
    assert cli.main(["unvec", str(v), str(back), "--shape", "2x2x3"]) == 0
    assert vk.tensors_equal(read_tensor(back), read_tensor(golden_file))


def test_unvec_row_round_trip(tmp_path, golden_file):
    v = tmp_path / "v.json"
    back = tmp_path / "back.json"
    assert cli.main(["vec", str(golden_file), str(v), "--row"]) == 0
    assert cli.main(["unvec", str(v), str(back), "--shape", "2x2x3", "--row"]) == 0
    assert vk.tensors_equal(read_tensor(back), read_tensor(golden_file))


def test_unvec_kron_matches_default(tmp_path):
    v = tmp_path / "v.json"
    v.write_text('{"shape":[4],"data":[1,3,2,4]}', encoding="utf-8")
    plain = tmp_path / "plain.json"
    kron = tmp_path / "kron.json"
    assert cli.main(["unvec", str(v), str(plain), "--shape", "2x2"]) == 0
    assert cli.main(["unvec", str(v), str(kron), "--shape", "2x2", "--kron"]) == 0
    assert plain.read_bytes() == kron.read_bytes()
    assert json.loads(plain.read_text())["data"] == [1, 2, 3, 4]


def test_unvec_kron_row_matches_row(tmp_path):
    v = tmp_path / "v.json"
    v.write_text('{"shape":[6],"data":[1,2,3,4,5,6]}', encoding="utf-8")
    plain = tmp_path / "plain.json"
    kron = tmp_path / "kron.json"
    assert cli.main(["unvec", str(v), str(plain), "--shape", "2x3", "--row"]) == 0
    assert (
        cli.main(["unvec", str(v), str(kron), "--shape", "2x3", "--row", "--kron"])
        == 0
    )
    assert plain.read_bytes() == kron.read_bytes()


def test_unvec_kron_needs_rank_two(tmp_path, golden_file, capsys):
    v = tmp_path / "v.json"
    assert cli.main(["vec", str(golden_file), str(v)]) == 0
    code = cli.main(["unvec", str(v), str(tmp_path / "o.json"), "--shape", "2x2x3", "--kron"])
    assert code == 1
    assert "rank-2" in capsys.readouterr().err


def test_unvec_rejects_matrix_input(tmp_path, golden_file, capsys):
    code = cli.main(
        ["unvec", str(golden_file), str(tmp_path / "o.json"), "--shape", "2x2x3"]
    )
    assert code == 1
    assert "rank 1" in capsys.readouterr().err


def test_shift_and_inverse(tmp_path, golden_file):
    s = tmp_path / "s.json"
    back = tmp_path / "back.json"
    assert cli.main(["shift", str(golden_file), str(s)]) == 0
    assert json.loads(s.read_text())["shape"] == [2, 6]
    assert vk.to_nested(read_tensor(s)) == GOLDEN_SHIFTED
    assert (
        cli.main(["shift", str(s), str(back), "--inverse", "--last-extent", "3"])
        == 0
    )
    assert vk.tensors_equal(read_tensor(back), read_tensor(golden_file))


def test_shift_flag_pairing(tmp_path, golden_file, capsys):
    out = str(tmp_path / "o.json")
    assert cli.main(["shift", str(golden_file), out, "--inverse"]) == 1
    assert cli.main(["shift", str(golden_file), out, "--last-extent", "3"]) == 1
    capsys.readouterr()


def test_exit_code_missing_file(tmp_path, capsys):
    code = cli.main(["vec", str(tmp_path / "nope.json"), str(tmp_path / "o.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_exit_code_bad_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("not json", encoding="utf-8")
    assert cli.main(["vec", str(p), str(tmp_path / "o.json")]) == 1
    capsys.readouterr()


def _is_one_error_line(err):
    return err.startswith("error:") and err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "content",
    [
        b'{"shape": [1], "data": [1' + b"0" * 400 + b"]}",
        b'{"shape": [1], "data": [1' + b"0" * 5000 + b"]}",
        b"\xff\xfe{}",
        b"[" * 100_000,
    ],
    ids=["int-beyond-float", "int-beyond-digit-limit", "not-utf8", "deep-nesting"],
)
def test_unreadable_input_is_one_error_line(tmp_path, capsys, content):
    p = tmp_path / "in.json"
    p.write_bytes(content)
    assert cli.main(["vec", str(p), str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert _is_one_error_line(err)
    assert str(p) in err


def test_shape_beyond_the_size_cap_is_one_error_line(tmp_path, capsys):
    p = tmp_path / "big.json"
    p.write_text('{"shape": [4096, 4096, 2], "data": []}', encoding="utf-8")
    out = tmp_path / "o.json"
    assert cli.main(["vec", str(p), str(out)]) == 1
    err = capsys.readouterr().err
    assert _is_one_error_line(err)
    assert "limit" in err
    assert not out.exists()


def _no_shifts(monkeypatch):
    def no_shift(*args):
        raise AssertionError("a shift ran on a shape over the rank limit")

    monkeypatch.setattr(vecops, "shift", no_shift)
    monkeypatch.setattr(vecops, "shift_inverse", no_shift)


def _rank_file(path, rank):
    path.write_text(json.dumps({"shape": [1] * rank, "data": [5]}), encoding="utf-8")
    return path


def test_rank_beyond_the_limit_is_one_error_line(tmp_path, monkeypatch, capsys):
    _no_shifts(monkeypatch)
    deep = _rank_file(tmp_path / "deep.json", 65)
    vector = _rank_file(tmp_path / "v.json", 1)
    out = tmp_path / "o.json"
    deep_text = "1x" * 64 + "1"
    for argv in (
        ["vec", str(deep), str(out)],
        ["shift", str(deep), str(out)],
        ["unvec", str(vector), str(out), "--shape", deep_text],
        ["bench", "--shapes", "2x2", deep_text, "--reps", "1"],
    ):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _is_one_error_line(captured.err), argv
        assert "has rank 65; the limit is 64" in captured.err
        assert not out.exists()


def test_rank_at_the_limit_runs(tmp_path, capsys):
    cap = _rank_file(tmp_path / "cap.json", 64)
    out = tmp_path / "o.json"
    cap_text = "1x" * 62 + "2x2"
    start = time.perf_counter()
    assert cli.main(["vec", str(cap), str(out)]) == 0
    assert cli.main(["vec", str(cap), str(out), "--row"]) == 0
    unvec = ["unvec", str(out), str(tmp_path / "u.json"), "--shape", "1x" * 63 + "1"]
    assert cli.main(unvec) == 0
    assert cli.main(["bench", "--shapes", cap_text, "--reps", "1"]) == 0
    assert time.perf_counter() - start < 1.0
    assert read_tensor(tmp_path / "u.json").rank == 64
    # a split would write rank 65, which read_tensor refuses; nothing is written
    split = tmp_path / "s.json"
    argv = ["shift", str(cap), str(split), "--inverse", "--last-extent", "1"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert _is_one_error_line(captured.err)
    assert captured.err.endswith("tensor has rank 65; the limit is 64\n")
    assert not split.exists()


def test_exit_code_bad_shape_argument(tmp_path, golden_file, capsys):
    v = tmp_path / "v.json"
    assert cli.main(["vec", str(golden_file), str(v)]) == 0
    code = cli.main(["unvec", str(v), str(tmp_path / "o.json"), "--shape", "2xx3"])
    assert code == 1
    capsys.readouterr()


# the closed form for 9x64 needs a factor of 9 * 64**3 elements; under --row
# it rebuilds the transpose, so 64x9 --row is the one refused
_OVER_LIMIT = f"the closed form for 9x64 needs a factor of {9 * 64**3} elements"


@pytest.mark.parametrize(
    "shape_args, message",
    [
        (["2xx3"], "bad shape '2xx3'"),
        (["2x2x3", "--kron"], "--kron needs a rank-2 shape"),
        (["9x64", "--kron"], _OVER_LIMIT),
        (["64x9", "--kron", "--row"], _OVER_LIMIT),
    ],
    ids=["unparsable", "kron-rank-3", "kron-over-limit", "kron-row-over-limit"],
)
def test_unvec_checks_the_shape_before_reading(
    monkeypatch, capsys, shape_args, message
):
    def no_read(path):
        raise AssertionError("unvec read its input before checking --shape")

    monkeypatch.setattr(cli, "read_tensor", no_read)
    assert cli.main(["unvec", "big.json", "o.json", "--shape", *shape_args]) == 1
    err = capsys.readouterr().err
    assert _is_one_error_line(err)
    assert message in err


def test_exit_code_usage_errors(capsys):
    assert cli.main([]) == 1
    assert cli.main(["nosuch"]) == 1
    assert cli.main(["bench"]) == 1
    assert cli.main(["vec"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("value", ["0", "x"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--shapes", "2x2", "--reps"],
        ["verify", "--cases"],
        ["shift", "in.json", "out.json", "--inverse", "--last-extent"],
    ],
    ids=["reps", "cases", "last-extent"],
)
def test_count_options_refuse_zero_and_non_integers(capsys, argv, value):
    assert cli.main([*argv, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and repr(value) in errors[0]
    assert "Traceback" not in captured.err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["vec", "--help"]) == 0
    capsys.readouterr()


def test_parser_is_built_once_and_keeps_no_state(tmp_path, golden_file, capsys):
    out = tmp_path / "v.json"

    def session(fresh_parser_per_call):
        out.unlink(missing_ok=True)
        results = []
        for argv in (
            ["vec"],
            ["vec", str(golden_file), str(out)],
            ["verify", "--cases", "2"],
        ):
            if fresh_parser_per_call:
                cli._build_parser.cache_clear()
            code = cli.main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results, out.read_bytes()

    fresh = session(fresh_parser_per_call=True)
    cli._build_parser.cache_clear()
    shared = session(fresh_parser_per_call=False)
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _, _ in shared[0]] == [1, 0, 0]
    assert shared == fresh
    assert json.loads(shared[1])["data"] == GOLDEN_VEC


def test_handlers_are_looked_up_when_each_call_runs(
    monkeypatch, tmp_path, golden_file
):
    out = tmp_path / "v.json"
    assert cli.main(["vec", str(golden_file), str(out)]) == 0
    seen = []

    def fake(args):
        seen.append((args.input, args.output))
        return 0

    monkeypatch.setattr(cli, "_cmd_vec", fake)
    assert cli.main(["vec", "a.json", "b.json"]) == 0
    assert seen == [("a.json", "b.json")]


def test_verify_passes(capsys):
    assert cli.main(["verify", "--cases", "40"]) == 0
    out = capsys.readouterr().out
    assert "all 8 checks passed" in out
    assert out.count("PASS") == 8
    # the golden example is three cases; the closed form adds its misprint case
    assert "PASS golden-shift (3 cases)\n" in out
    assert "PASS kron-closed-form (41 cases)\n" in out


def test_verify_rank_two_degenerates(capsys):
    assert cli.main(["verify", "--max-rank", "2", "--cases", "30"]) == 0
    capsys.readouterr()


def test_verify_reports_injected_fault(monkeypatch, capsys):
    real = vecops.shift

    def broken(t):
        out = real(t)
        if out.size >= 2:
            data = list(out.data)
            data[0], data[1] = data[1], data[0]
            return vk.DenseTensor(out.shape, tuple(data), out.strides)
        return out

    monkeypatch.setattr(vecops, "shift", broken)
    code = cli.main(["verify", "--seed", "7", "--cases", "20"])
    first = capsys.readouterr().out
    assert code == 2
    assert "FAIL" in first
    assert "seed=7" in first
    # same seed, same counterexample: the report is reproducible
    assert cli.main(["verify", "--seed", "7", "--cases", "20"]) == 2
    assert capsys.readouterr().out == first


def test_verify_reports_a_check_that_raises(monkeypatch, capsys):
    real = blocking.gather

    def run():
        calls = []

        def dropping(data, dims, strides, offset):
            # the 50th gather loses its last element; the tensor built
            # from it then raises inside a check
            calls.append(None)
            out = real(data, dims, strides, offset)
            return out[:-1] if len(calls) == 50 else out

        monkeypatch.setattr(blocking, "gather", dropping)
        code = cli.main(["verify", "--seed", "5", "--cases", "20"])
        return code, capsys.readouterr()

    code, first = run()
    assert code == 2
    assert first.err == ""
    failed = [line for line in first.out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1
    assert re.fullmatch(r"FAIL [\w-]+: seed=5 case=\d+: \w+Error: .+", failed[0])
    # the same seed replays the same failure
    assert run() == (2, first)


def _on_call(n, fault):
    """Wrap a function so that its ``n``-th call runs ``fault`` instead."""

    def wrap(real):
        calls = []

        def wrapped(*args):
            calls.append(None)
            return fault(real, *args) if len(calls) == n else real(*args)

        return wrapped

    return wrap


def _raises(real, *args):
    raise RuntimeError("injected")


def _plus_one(real, *args):
    out = real(*args)
    return vk.make_tensor(out.shape, [v + 1 for v in vk.core.elements(out)])


def _conformable(real):
    # a matmul that no longer rejects mismatched inner extents
    def matmul(x, y):
        try:
            return real(x, y)
        except vk.ShapeError:
            return x

    return matmul


@pytest.mark.parametrize(
    "module, name, wrap, line",
    [
        (
            vk.indexmap, "vec_by_index", _on_call(5, _raises),
            "FAIL two-path-vec: seed=4 case=2: RuntimeError: injected",
        ),
        (
            vecops, "vec_k", _on_call(1, _plus_one),
            "FAIL golden-shift: seed=4 case=1: vec of golden tensor gave "
            "shape=[12] data=[2, 8, 5, 11, 3, 9, 6, 12, 4, 10, 7, 13]",
        ),
        (
            vk.kron2d, "kron_inverse_2d", _on_call(4, _plus_one),
            "FAIL kron-closed-form: seed=4 case=3: closed form rebuilt "
            "shape=[4, 5] data=[6, -4, 7, 8, 11, -17, 12, 0, -14, -12, 19, 18, "
            "-19, -10, -3, 14] ... (20 elements) as shape=[4, 5] data=[7, -3, "
            "8, 9, 12, -16, 13, 1, -13, -11, 20, 19, -18, -9, -2, 15] ... "
            "(20 elements)",
        ),
        (
            vk.kron2d, "matmul", _conformable,
            "FAIL kron-closed-form: seed=4 case=7: misprinted factor order "
            "unexpectedly conformable for 2x3",
        ),
    ],
    ids=["raises-on-5th-call", "golden-vec", "wrong-on-4th-call", "misprint"],
)
def test_verify_names_the_exact_failing_case(
    monkeypatch, capsys, module, name, wrap, line
):
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    argv = ["verify", "--seed", "4", "--cases", "7", "--max-rank", "3"]
    assert cli.main(argv) == 2
    out = capsys.readouterr().out
    assert [s for s in out.splitlines() if s.startswith("FAIL")] == [line]


def test_verify_report_on_large_shapes_is_bounded(monkeypatch):
    real = vecops.shift

    def broken(t):
        out = real(t)
        if out.size > 100:
            data = list(out.data)
            data[0], data[1] = data[1], data[0]
            return vk.DenseTensor(out.shape, tuple(data), out.strides)
        return out

    monkeypatch.setattr(vecops, "shift", broken)
    report = verify.run_all(seed=3, max_rank=4, max_extent=8, cases=20)
    failed = [c for c in report.checks if not c.passed]
    assert failed
    for c in failed:
        assert c.detail.startswith("seed=3 case=")
    lines = verify.format_report(report).splitlines()
    assert max(len(line) for line in lines) < 1000


class _Drawn(Exception):
    pass


def _no_draws(*args):
    raise _Drawn


@pytest.mark.parametrize(
    "rank, extent, message",
    [
        (30, 30, "max rank 30 is over the limit of 21"),
        (1000000000, 1, "max rank 1000000000 is over the limit of 21"),
        (
            2,
            100000,
            "max rank 2 and max extent 100000 draw tensors of up to "
            "10000000000 elements; the limit is 2097152",
        ),
    ],
    ids=["rank-30", "rank-1e9", "extent-100000"],
)
def test_verify_refuses_sizes_beyond_the_limit(
    monkeypatch, capsys, rank, extent, message
):
    # nothing may be drawn: a draw here would ask for more memory than exists
    monkeypatch.setattr(verify, "_random_shape", _no_draws)
    monkeypatch.setattr(verify, "_random_tensor", _no_draws)
    with pytest.raises(vk.ShapeError) as info:
        verify.run_all(max_rank=rank, max_extent=extent, cases=1)
    assert str(info.value) == message
    argv = ["verify", "--max-rank", str(rank), "--max-extent", str(extent)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("bound", ["max_rank", "max_extent", "cases"])
def test_verify_refuses_bounds_below_one(monkeypatch, bound, value):
    monkeypatch.setattr(verify, "_random_shape", _no_draws)
    monkeypatch.setattr(verify, "_random_tensor", _no_draws)
    with pytest.raises(vk.ShapeError, match=f"must be positive, got {value}$"):
        verify.run_all(**{bound: value})


@pytest.mark.parametrize(
    "rank, extent", [(4, 3), (5, 4), (6, 4), (4, 8), (3, 3), (21, 2), (1, 38)]
)
def test_verify_allows_sizes_within_the_limit(monkeypatch, rank, extent):
    monkeypatch.setattr(verify, "_random_shape", _no_draws)
    monkeypatch.setattr(verify, "_random_tensor", _no_draws)
    report = verify.run_all(max_rank=rank, max_extent=extent, cases=1)
    # every check that draws stops at its first draw, so the limit let it run
    assert "_Drawn" in verify.format_report(report)


def test_bench_csv(capsys):
    assert cli.main(["bench", "--shapes", "2x2x3", "3x3", "--reps", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "shape,path,median_ns,elements_per_sec"
    assert len(lines) == 5
    for line in lines[1:]:
        shape_text, path, median_ns, rate = line.split(",")
        assert shape_text in ("2x2x3", "3x3")
        assert path in ("block", "index")
        assert int(median_ns) > 0
        assert float(rate) > 0


def test_bench_rejects_fault(monkeypatch, capsys):
    monkeypatch.setattr(
        vecops, "vec_k", lambda t: vk.make_tensor((t.size,), [0] * t.size)
    )
    assert cli.main(["bench", "--shapes", "2x2", "--reps", "1"]) == 2
    assert "disagree" in capsys.readouterr().err


def test_bench_reports_a_route_that_raises(monkeypatch, capsys):
    real = blocking.gather

    def dropping(data, dims, strides, offset):
        # every block-route gather loses its last element, so unblock's
        # gather runs past the storage block's one gather made short, and
        # raises before the routes can be compared
        return real(data, dims, strides, offset)[:-1]

    monkeypatch.setattr(blocking, "gather", dropping)
    assert cli.main(["bench", "--shapes", "4x4", "--reps", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert _is_one_error_line(err)
    assert re.match(r"error: a route raised ShapeError on shape 4x4: .*run past", err)


@pytest.mark.parametrize(
    "text", ["100000x100000x100000", str(vk.core._MAX_BUILT_ELEMENTS + 1)]
)
def test_bench_rejects_oversized_shape(monkeypatch, capsys, text):
    def no_tensor(shape):
        raise AssertionError("bench built a tensor for an oversized shape")

    monkeypatch.setattr(cli, "_bench_tensor", no_tensor)
    assert cli.main(["bench", "--shapes", "2x2", text, "--reps", "1"]) == 1
    err = capsys.readouterr().err
    assert _is_one_error_line(err)
    assert text in err


def test_unvec_kron_rejects_oversized_closed_form(tmp_path, monkeypatch, capsys):
    def no_factors(n):
        raise AssertionError("unvec --kron built a factor over the cap")

    monkeypatch.setattr(vk.kron2d, "identity_matrix", no_factors)
    v = tmp_path / "v.json"
    v.write_text(json.dumps({"shape": [4096], "data": [0] * 4096}))
    out = tmp_path / "o.json"
    code = cli.main(["unvec", str(v), str(out), "--shape", "1x4096", "--kron"])
    assert code == 1
    err = capsys.readouterr().err
    assert _is_one_error_line(err)
    assert f"{4096**3} elements; the limit is {2**21}" in err
    assert not out.exists()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=12,
)
_tensor_docs = st.fixed_dictionaries(
    {"shape": _json_values, "data": _json_values},
    optional={"order": st.sampled_from(["row-major", "column-major"]) | _json_values},
).map(lambda doc: json.dumps(doc).encode())


@settings(deadline=None, max_examples=300)
@given(st.binary() | _tensor_docs)
def test_any_input_file_exits_cleanly(content):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.json"
        src.write_bytes(content)
        out = str(Path(tmp) / "out.json")
        for argv in (["vec"], ["unvec", "--shape", "2x3"], ["shift"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([*argv, str(src), out])
            assert code == 0 or (code == 1 and _is_one_error_line(err.getvalue()))


def _console_scripts():
    """``[project.scripts]`` of the repository's pyproject.toml as a dict.

    Read line by line because ``tomllib`` only exists from Python 3.11.
    """
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts, in_table = {}, False
    for line in pyproject.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            name, target = line.split("=", 1)
            scripts[name.strip().strip('"')] = target.strip().strip('"')
    return scripts


def _assert_help_output(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: veckit")
    assert re.search(r"^\s+vec\s", proc.stdout, re.MULTILINE)


def test_console_script_help():
    # the console script installs as a call of veckit.cli:entrypoint, which
    # ``python -m veckit`` makes too; run it on the code the tests import
    assert _console_scripts().get("veckit") == "veckit.cli:entrypoint"
    package_root = str(Path(vk.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "veckit", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    _assert_help_output(proc)


@pytest.mark.skipif(
    shutil.which("veckit") is None, reason="veckit console script not installed"
)
def test_installed_console_script_help():
    proc = subprocess.run(
        [shutil.which("veckit"), "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    _assert_help_output(proc)
