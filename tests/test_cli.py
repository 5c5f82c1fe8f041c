import importlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from conftest import run_child
from oracles import first_difference, pow_d

from cyclemod import cli, svgplot
from cyclemod.cli import (
    GEN_CHUNK, PLOT_RANGE_LIMIT, RANGE_LIMIT, THRESHOLD_ENV_VAR, dumps_fixed, main,
)
from cyclemod.seedgen import generate_sequence
from cyclemod.svgplot import render_residue_svg


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dumps_fixed_formats_floats_with_six_decimals():
    text = dumps_fixed({"a": 0.5, "b": [1, True], "c": "x", "d": {}})
    assert '"a": 0.500000' in text
    assert '"b": [' in text and "true" in text
    assert json.loads(text) == {"a": 0.5, "b": [1, True], "c": "x", "d": {}}
    assert dumps_fixed([]) == "[]"
    with pytest.raises(TypeError):
        dumps_fixed(object())


# Float-free JSON values whose strings need no escaping: json.dumps is the oracle.
_JSON_TEXT = st.text(
    st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters='"\\'),
    max_size=8,
)
_JSON_VALUES = st.recursive(
    st.booleans() | st.integers() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@given(value=_JSON_VALUES)
def test_dumps_fixed_matches_json_dumps_without_floats(value):
    assert dumps_fixed(value) == json.dumps(value, indent=2)


def test_gen_csv(capsys):
    code, out, _ = run_cli(capsys, "gen", "--p", "2", "--k-end", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,a_k,d_k"
    assert [line.split(",")[2] for line in lines[1:]] == ["8", "4", "2", "1", "5", "7"]


def test_gen_json(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--p", "2", "--k-end", "6", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["d_k"] for row in rows] == [8, 4, 2, 1, 5, 7]
    assert rows[0] == {"k": 1, "a_k": 1, "d_k": 8}


@pytest.mark.parametrize("n", [GEN_CHUNK - 1, GEN_CHUNK, GEN_CHUNK + 1, 2 * GEN_CHUNK + 1])
def test_gen_streams_whole_rows_at_chunk_edges(n, capsys, tmp_path):
    p, k0 = 80, 10**12
    rows = [(k, pow(2, k - 1, 3**p), pow_d(k, p)) for k in range(k0, k0 + n)]
    expected = {
        "csv": "k,a_k,d_k\n" + "".join(f"{k},{a},{d}\n" for k, a, d in rows),
        "json": dumps_fixed([{"k": k, "a_k": a, "d_k": d} for k, a, d in rows]) + "\n",
    }
    for fmt, text in expected.items():
        argv = ["gen", "--p", str(p), "--k-start", str(k0), "--k-end", str(k0 + n - 1),
                "--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert first_difference(out, text) is None
        target = tmp_path / f"gen.{fmt}"
        assert main(argv + ["--output", str(target)]) == 0
        assert target.read_bytes() == out.encode()


def test_gen_rejects_bad_p(capsys):
    code, _, err = run_cli(capsys, "gen", "--p", "0", "--k-end", "6")
    assert code == 2
    assert "p must be" in err


def test_gen_rejects_bad_range(capsys):
    code, _, _ = run_cli(capsys, "gen", "--p", "2", "--k-start", "9", "--k-end", "6")
    assert code == 2


def test_ecs_full_period_with_three_buckets(capsys):
    code, out, _ = run_cli(
        capsys, "ecs", "--p", "2", "--k-end", "6", "--buckets", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ecs"] == 1.0
    assert report["admitted"] is True
    assert report["threshold"] == 0.9


def test_ecs_default_buckets_report(capsys):
    code, out, _ = run_cli(capsys, "ecs", "--p", "2", "--k-end", "6")
    assert code == 0
    report = json.loads(out)
    assert report["buckets"] == 9
    # with single-integer buckets (M = 9) the fullest holds 1/6 of mass
    assert report["mbi"] == pytest.approx(1 / 16, abs=1e-9)
    assert report["ecs"] == pytest.approx(0.9875, abs=1e-9)
    assert report["admitted"] is True


def test_ecs_rejection_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "ecs", "--p", "1", "--k-end", "1", "--threshold", "0.99"
    )
    assert code == 3
    assert json.loads(out)["admitted"] is False


def test_ecs_env_var_overrides_default_threshold(capsys, monkeypatch):
    monkeypatch.setenv(THRESHOLD_ENV_VAR, "0.999")
    code, out, _ = run_cli(capsys, "ecs", "--p", "2", "--k-end", "6")
    assert code == 3
    report = json.loads(out)
    assert report["threshold"] == 0.999
    # explicit flag still wins over the environment
    code, out, _ = run_cli(
        capsys, "ecs", "--p", "2", "--k-end", "6", "--threshold", "0.5"
    )
    assert code == 0
    assert json.loads(out)["threshold"] == 0.5


def test_ecs_bad_env_threshold_exits_usage(capsys, monkeypatch):
    monkeypatch.setenv(THRESHOLD_ENV_VAR, "abc")
    code, out, err = run_cli(capsys, "ecs", "--p", "2", "--k-end", "6")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and THRESHOLD_ENV_VAR in err


def test_ecs_refuses_a_bad_threshold_before_scoring(capsys, monkeypatch):
    def score(*args, **kwargs):
        raise AssertionError("scored a range under a refused threshold")

    monkeypatch.setattr(cli.ecs_mod, "score", score)
    code, out, err = run_cli(
        capsys, "ecs", "--p", "80", "--k-end", str(RANGE_LIMIT), "--threshold", "2"
    )
    assert (code, out) == (2, "")
    assert err == "cyclemod ecs: threshold must be in [0, 1], got 2.0\n"
    # A bad p or range is still reported first.
    for bad, message in [(["--p", "0", "--k-end", "6"], "p must be in [1, 80], got 0"),
                         (["--p", "2", "--k-start", "9", "--k-end", "6"], "need k_start <= k_end")]:
        code, _, err = run_cli(capsys, "ecs", *bad, "--threshold", "2")
        assert code == 2
        assert err.count("\n") == 1 and message in err


def test_ecs_full_traversal_p5(capsys):
    code, out, _ = run_cli(capsys, "ecs", "--p", "5", "--k-end", "162")
    assert code == 0
    report = json.loads(out)
    assert report["cd"] == 1.0
    assert report["ecs"] == 1.0


@pytest.mark.parametrize(
    "p,s,expected",
    [
        (3, 2, {"A": 80, "k": 5, "n": 0, "d": 5}),
        (2, 0, {"A": 8, "k": 4, "n": 0, "d": 1}),
        (3, 1, {"A": 53, "k": 1, "n": 0, "d": 53}),
    ],
)
def test_decompose_rows(capsys, p, s, expected):
    code, out, _ = run_cli(capsys, "decompose", "--p", str(p), "--s", str(s))
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert {key: payload[key] for key in expected} == expected


def test_decompose_key_order(capsys):
    _, out, _ = run_cli(capsys, "decompose", "--p", "3", "--s", "1")
    assert list(json.loads(out)) == ["p", "s", "A", "k", "n", "d", "verified"]


@pytest.mark.parametrize("p", ["1", "80"])
def test_decompose_refuses_a_past_the_digit_limit(capsys, p):
    # The widest --s that int() parses: A = 3^p(s+1) - 1 has more digits.
    code, out, err = run_cli(capsys, "decompose", "--p", p, "--s", "9" * 4300)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "digits" in err


def test_plot_emits_deterministic_svg(capsys):
    code, first, _ = run_cli(capsys, "plot", "--p", "1", "--k-end", "61")
    assert code == 0
    assert first.startswith('<?xml version="1.0"')
    assert 'viewBox="0 0 800 400"' in first
    assert "d_k mod 3^1" in first
    # p=1 alternates between the two units: only two distinct y values
    ys = {line.split('cy="')[1].split('"')[0] for line in first.splitlines()
          if line.startswith("<circle")}
    assert len(ys) == 2
    _, second, _ = run_cli(capsys, "plot", "--p", "1", "--k-end", "61")
    assert first == second


def test_plot_writes_file(tmp_path, capsys):
    target = tmp_path / "out.svg"
    code, out, _ = run_cli(
        capsys, "plot", "--p", "2", "--k-end", "12", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").endswith("</svg>\n")


def test_plot_written_through_main_equals_the_render(capsys, tmp_path):
    # 108,047 bytes: main writes them in 64 KiB slices, and no byte may fall between two.
    target = tmp_path / "p7.svg"
    code, out, _ = run_cli(capsys, "plot", "--p", "7", "--k-end", "2000", "--output", str(target))
    expected = render_residue_svg(generate_sequence(7, 1, 2000)).encode()
    assert (code, out) == (0, "")
    assert len(expected) == 108_047
    assert target.read_bytes() == expected


def test_plot_range_cap(capsys, tmp_path):
    code, _, err = run_cli(capsys, "plot", "--p", "2", "--k-end", "200001")
    assert code == 2
    assert "capped" in err
    # The cap counts points inclusively: 100,001 is refused, 100,000 drawn.
    code, _, err = run_cli(capsys, "plot", "--p", "1", "--k-end", "100001")
    assert code == 2
    assert "capped" in err
    target = str(tmp_path / "max.svg")
    code, _, _ = run_cli(
        capsys, "plot", "--p", "1", "--k-start", "2", "--k-end", "100001", "--output", target
    )
    assert code == 0


@pytest.mark.parametrize("verb", ["gen", "ecs"])
def test_range_cap(capsys, verb):
    code, out, err = run_cli(capsys, verb, "--p", "1", "--k-end", "1000001")
    assert code == 2
    assert out == ""
    assert "capped" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--p", "2", "--k-end", "3"],
        ["ecs", "--p", "2", "--k-end", "6"],
        ["plot", "--p", "2", "--k-end", "6"],
        ["decompose", "--p", "2", "--s", "0"],
        ["mask", "--p", "3", "--k", "5", "--r-hex", "13"],
    ],
)
@pytest.mark.parametrize("where", ["missing/out.txt", "."])
def test_unwritable_output_exits_usage(capsys, tmp_path, argv, where):
    code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / where))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "cannot write --output" in err


def test_plot_refuses_unwritable_output_before_rendering(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(svgplot, "render_residue_svg", lambda seq: calls.append(seq) or "")
    target = tmp_path / "missing" / "x.svg"
    code, out, err = run_cli(
        capsys, "plot", "--p", "80", "--k-end", "100000", "--output", str(target)
    )
    assert (code, out, calls) == (2, "", [])
    assert "cannot write --output" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--p", "2", "--k-start", "5", "--k-end", "4"],
        ["ecs", "--p", "2", "--k-end", "6", "--buckets", "1"],
        ["plot", "--p", "1", "--k-end", str(PLOT_RANGE_LIMIT + 1)],
        ["decompose", "--p", "2", "--s", "-1"],
        ["mask", "--p", "3", "--k", "5", "--source", "test", "--width", "4097"],
        ["bench", "--p", "2", "--reps", "10"],
    ],
)
def test_refused_input_leaves_no_output_file(capsys, tmp_path, argv):
    # Each verb checks its input before main opens --output.
    target = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"cyclemod {argv[0]}: ")
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--p", "2", "--k-end", str(2 * GEN_CHUNK + 1)],
        ["ecs", "--p", "2", "--k-end", "6"],
    ],
)
def test_failed_write_exits_internal(capsys, argv):
    # The file opens, but every flush fails with ENOSPC: an OSError, not a usage error.
    code, out, err = run_cli(capsys, *argv, "--output", "/dev/full")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"cyclemod {argv[0]}: ")


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(seq):
        raise ValueError("internal bug")

    monkeypatch.setattr(svgplot, "render_residue_svg", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["plot", "--p", "2", "--k-end", "6"])


def test_mask_with_zero_token(capsys):
    code, out, _ = run_cli(capsys, "mask", "--p", "3", "--k", "5", "--r-hex", "00")
    assert code == 0
    assert out == "05\n"


def test_mask_with_explicit_token(capsys):
    code, out, _ = run_cli(capsys, "mask", "--p", "3", "--k", "5", "--r-hex", "13")
    assert code == 0
    assert out == "16\n"


def test_mask_test_source_reproducible(capsys):
    args = ("mask", "--p", "3", "--k", "5", "--source", "test", "--seed", "7")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_mask_os_source_unavailable_exits_internal(capsys, monkeypatch):
    def no_facility(n):
        raise NotImplementedError

    monkeypatch.setattr(os, "urandom", no_facility)
    code, out, err = run_cli(capsys, "mask", "--p", "3", "--k", "5", "--source", "os")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("cyclemod mask: ")


def test_mask_width_mismatch_exits_usage(capsys):
    code, _, err = run_cli(
        capsys, "mask", "--p", "3", "--k", "5", "--r-hex", "00", "--width", "3"
    )
    assert code == 2
    assert "width" in err.lower()


def test_mask_bad_hex_exits_usage(capsys):
    code, _, _ = run_cli(capsys, "mask", "--p", "3", "--k", "5", "--r-hex", "zz")
    assert code == 2


def test_mask_width_cap(capsys):
    code, out, err = run_cli(
        capsys, "mask", "--p", "3", "--k", "5", "--source", "test", "--width", "4097"
    )
    assert code == 2
    assert out == ""
    assert "capped" in err


def test_mask_admits_the_width_cap(capsys):
    code, out, err = run_cli(
        capsys, "mask", "--p", "3", "--k", "5", "--source", "test", "--width", "4096"
    )
    assert (code, err) == (0, "")
    assert len(out) == 1024 + 1 and out.endswith("\n")
    int(out, 16)


def test_bench_report(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--p", "3", "--k-end", "6", "--reps", "30"
    )
    assert code == 0
    report = json.loads(out)
    assert report["k_end"] == 6
    assert [row["variant"] for row in report["rows"]] == ["euclid", "ct"]
    ct_row = report["rows"][1]
    assert ct_row["iter_min"] == ct_row["iter_max"]


def test_bench_default_range_is_one_period(capsys):
    code, out, _ = run_cli(capsys, "bench", "--p", "2", "--reps", "30")
    assert code == 0
    report = json.loads(out)
    assert (report["k_start"], report["k_end"]) == (1, 6)
    assert report["euclid_iteration_spread"] > 0


def test_bench_rejects_low_reps(capsys):
    code, _, _ = run_cli(capsys, "bench", "--p", "2", "--reps", "10")
    assert code == 2


def test_bench_sample_cap(capsys):
    code, out, err = run_cli(
        capsys, "bench", "--p", "1", "--k-end", "2", "--reps", "500001"
    )
    assert code == 2
    assert out == ""
    assert "capped" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_script_target_runs_main(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module_name, _, attr = target["cyclemod"].partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    assert entry(["decompose", "--p", "2", "--s", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_module_entrypoint_subprocess():
    proc = run_child(["-m", "cyclemod", "gen", "--p", "2", "--k-end", "3"])
    assert proc.returncode == 0
    assert proc.stdout == "k,a_k,d_k\n1,1,8\n2,2,4\n3,4,2\n"


# Argument values for the property test: in range, out of range, and
# text that is not a number at all. Every integer flag also takes values
# of 300 to 4,299 digits, which int() parses but a float cannot hold.
_HUGE = st.integers(10**299, 10**4299 - 1) | st.integers(-(10**4299) + 1, -(10**299))
_P = (st.integers(-3, 100) | _HUGE).map(str)
_NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "x"]),
    st.floats(-2, 2).map(str),
    st.integers(-5, 64).map(str),
    st.integers(-5, 10**6).map(str),
)


@st.composite
def _range_args(draw):
    # Lengths are either small or past every cap, so no example generates
    # a large sequence; lengths <= 0 give an empty or inverted range. Both
    # ends stay below 10^4300, so str() can write them.
    k_start = draw(st.integers(-3, 10**12) | _HUGE)
    length = draw(st.integers(-2, 64) | st.integers(RANGE_LIMIT + 1, 10**12) | _HUGE)
    return ["--p", draw(_P), "--k-start", str(k_start), "--k-end", str(k_start + length - 1)]


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(["gen", "ecs", "plot", "decompose", "mask"]))
    if verb == "decompose":
        s = draw(st.integers(-3, 10**40) | st.integers(10**4299, 10**4300 - 1))
        return [verb, "--p", draw(_P), "--s", str(s)]
    if verb == "mask":
        argv = [verb, "--p", draw(_P), "--k", str(draw(st.integers(-3, 10**12) | _HUGE))]
        if draw(st.booleans()):
            argv += ["--width", str(draw(st.integers(-5, 5000) | _HUGE))]
        source = draw(st.sampled_from(["os", "test", "hex"]))
        if source == "hex":
            return argv + ["--r-hex", draw(st.text("0123456789abcdefxz_ ", max_size=40))]
        return argv + ["--source", source]
    argv = [verb] + draw(_range_args())
    if verb == "gen":
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    if verb == "ecs":
        argv += ["--buckets", draw(_NUMBER | _HUGE.map(str)), "--threshold", draw(_NUMBER)]
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
# Deep failures a random draw rarely reaches: a float-overflowing bucket
# count, values at the 4,300-digit str() limit, and the plot cap's edge.
@example(argv=["ecs", "--p", "2", "--k-end", "6", "--buckets", "1" + "0" * 400,
               "--threshold", "0.5"])
@example(argv=["decompose", "--p", "80", "--s", "9" * 4299])
@example(argv=["mask", "--p", "3", "--k", "9" * 4299, "--width", str(10**400),
               "--source", "test"])
@example(argv=["gen", "--p", "80", "--format", "json",
               "--k-start", "9" * 4299, "--k-end", "9" * 4299])
@example(argv=["plot", "--p", "1", "--k-end", str(PLOT_RANGE_LIMIT + 1)])
def test_cli_never_raises_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    assert code in (0, 2, 3)
    if code == 2:
        assert err.getvalue().count("\n") == 1
        assert out.getvalue() == ""
