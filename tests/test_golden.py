"""Byte-stability of CLI outputs against committed golden files."""

import pathlib

import pytest

from cyclemod.cli import THRESHOLD_ENV_VAR, main

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


@pytest.fixture(autouse=True)
def clean_threshold_env(monkeypatch):
    monkeypatch.delenv(THRESHOLD_ENV_VAR, raising=False)


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
