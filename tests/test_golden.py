"""Byte-stability of CLI outputs against committed golden files."""

import pathlib

import pytest

from cyclemod.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

CASES = [
    (["gen", "--p", "2", "--k-end", "6"], "gen_p2_k1-6.csv"),
    (["gen", "--p", "5", "--k-end", "165"], "gen_p5_k1-165.csv"),
    (["ecs", "--p", "2", "--k-end", "6"], "ecs_p2_k1-6.json"),
    (["ecs", "--p", "5", "--k-end", "165"], "ecs_p5_k1-165.json"),
    (["plot", "--p", "2", "--k-end", "6"], "plot_p2_k1-6.svg"),
    (["plot", "--p", "5", "--k-end", "165"], "plot_p5_k1-165.svg"),
    (["gen", "--p", "2", "--k-end", "6", "--format", "json"], "gen_p2_k1-6.json"),
    (["decompose", "--p", "3", "--s", "2"], "decompose_p3_s2.json"),
    (["decompose", "--p", "80", "--s", "987654321"], "decompose_p80_s987654321.json"),
    (["mask", "--p", "3", "--k", "5", "--r-hex", "13"], "mask_p3_k5_r13.txt"),
    (["mask", "--p", "3", "--k", "5", "--source", "test", "--seed", "7"], "mask_p3_k5_test7.txt"),
]


@pytest.mark.parametrize("argv,golden", CASES, ids=[c[1] for c in CASES])
def test_output_is_byte_identical_across_runs_and_matches_golden(
    argv, golden, tmp_path
):
    first = tmp_path / "first.out"
    second = tmp_path / "second.out"
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


HELP_VERBS = ["", "gen", "ecs", "decompose", "plot", "mask", "bench"]


@pytest.mark.parametrize("verb", HELP_VERBS, ids=[v or "cyclemod" for v in HELP_VERBS])
def test_help_is_byte_identical_to_golden(verb, capsys, monkeypatch):
    # argparse wraps help to $COLUMNS; the goldens are made at 80 columns.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--help"] if verb else ["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN_DIR / f"help_{verb or 'cyclemod'}.txt").read_text(encoding="utf-8")
    if verb:  # build_parser adds --output to every verb last
        assert out.splitlines()[-1].lstrip().startswith("--output")
