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


def test_exit_code_bad_shape_argument(tmp_path, golden_file, capsys):
    v = tmp_path / "v.json"
    assert cli.main(["vec", str(golden_file), str(v)]) == 0
    code = cli.main(["unvec", str(v), str(tmp_path / "o.json"), "--shape", "2xx3"])
    assert code == 1
    capsys.readouterr()


def test_exit_code_usage_errors(capsys):
    assert cli.main([]) == 1
    assert cli.main(["nosuch"]) == 1
    assert cli.main(["bench"]) == 1
    assert cli.main(["vec"]) == 1
    capsys.readouterr()


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

        def dropping(data, dims, strides):
            # the 50th gather loses its last element; the tensor built
            # from it then raises inside a check
            calls.append(None)
            out = real(data, dims, strides)
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

    def dropping(data, dims, strides):
        # every block-route gather loses its last element, so a tensor
        # built from one raises before the routes can be compared
        return real(data, dims, strides)[:-1]

    monkeypatch.setattr(blocking, "gather", dropping)
    assert cli.main(["bench", "--shapes", "4x4", "--reps", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert _is_one_error_line(err)
    assert re.match(r"error: a route raised \w+Error on shape 4x4: ", err)


@pytest.mark.parametrize(
    "text", ["100000x100000x100000", str(cli._BENCH_MAX_ELEMENTS + 1)]
)
def test_bench_rejects_oversized_shape(monkeypatch, capsys, text):
    def no_tensor(shape):
        raise AssertionError("bench built a tensor for an oversized shape")

    monkeypatch.setattr(cli, "_bench_tensor", no_tensor)
    assert cli.main(["bench", "--shapes", "2x2", text, "--reps", "1"]) == 1
    err = capsys.readouterr().err
    assert _is_one_error_line(err)
    assert text in err


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
