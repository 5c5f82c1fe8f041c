"""Smoke test of the benchmark at tiny sizes: result schema, metric names,
exact counters, the driver's memory and the oracles. No timing is asserted.

Run from the root of the repository:

    python3 -m pytest -q -p no:cacheprovider perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run as driver

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, seed: int, seconds: float, root: Path = ROOT) -> subprocess.CompletedProcess:
    """The driver at its full sizes, as a separate process."""
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


# The driver's main() with every window shrunk, so that a run takes well
# under a second. Each run gets a fresh interpreter, as in the benchmark:
# tracemalloc's figure for seedgen.bytes_per_record repeats exactly only
# from the same starting state.
TINY_MAIN = f"""\
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
import run
run.GEN_RECORDS, run.AUDIT_RECORDS, run.MEMORY_WINDOW = 200, 1_000, 20
sys.exit(run.main(sys.argv[1:]))
"""


def result(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", TINY_MAIN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().split("\n")[-1])


def cyclemod(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CYCLEMOD_THRESHOLD", None)
    return subprocess.run([sys.executable, "-m", "cyclemod", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


def bump_digit(text: str, at: int) -> str:
    """Change the decimal or hex digit at index ``at``."""
    digit = text[at]
    return text[:at] + ("1" if digit == "0" else "0") + text[at + 1:]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema_and_metric_names(workload, trace):
    res = result(workload, 1, trace)
    assert set(res) == RESULT_KEYS
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == declared
    for m in res["metrics"].values():
        assert isinstance(m["value"], float) and m["value"] > 0


@pytest.mark.parametrize("workload, ct_steps", [("gen-p80", 127), ("audit-p7", 12), ("keyed-seed-p80", 127)])
def test_exact_counters_repeat(workload, ct_steps):
    first, again, other_seed = (result(workload, seed, 1) for seed in (1, 1, 2))
    for name in ("modring.ct_steps", "modring.euclid_steps_max"):
        assert first["metrics"][name] == again["metrics"][name] == other_seed["metrics"][name]
    assert first["metrics"]["modring.ct_steps"]["value"] == ct_steps
    # Byte counts follow the decimal widths of the seeded operands, so
    # they repeat exactly for one seed.
    for name in ("svgplot.bytes_per_point", "cli.bytes_out_per_record", "seedgen.bytes_per_record"):
        assert first["metrics"][name] == again["metrics"][name]


def test_fails_without_the_package():
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("gen-p80", 1, 0.3, root=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_latency_log_keeps_one_second_in_memory(tmp_path):
    log = driver.LatencyLog(tmp_path / "latencies.bin")
    for ns in range(10_000):
        log.append(ns)
        if ns % 1_000 == 999:
            log.spill()
            assert len(log.chunk) == 0
    log.append(10_000)
    values = log.values()
    assert list(values) == list(range(10_001))
    assert [s["requests"] for s in log.per_second(values)] == [1_000] * 10 + [1]


def test_keyed_peak_rss_does_not_grow_with_run_length():
    # Logging every request time in memory would add 8 bytes per request:
    # about 0.4 MB over the 8 extra seconds of the longer run, once the
    # headroom left by the driver's start-up peak is used up.
    peaks = []
    for seconds in (2, 10):
        done = bench("keyed-seed-p80", 1, seconds)
        assert done.returncode == 0, done.stderr
        peaks.append(json.loads(done.stdout.strip().split("\n")[-1])["metrics"]["peak_rss_mb"]["value"])
    assert abs(peaks[1] - peaks[0]) < 0.15, peaks


def test_gen_oracle_catches_a_flipped_digit():
    text = cyclemod("gen", "--p", "80", "--k-start", "1000", "--k-end", "1009").stdout
    assert oracle.check_gen_csv(text, 80, 1000, 1009) is None
    second_row_end = text.index("\n", text.index("\n", text.index("\n") + 1) + 1)
    assert oracle.check_gen_csv(bump_digit(text, second_row_end - 1), 80, 1000, 1009)


def test_ecs_oracle_catches_a_wrong_value_or_exit_code():
    done = cyclemod("ecs", "--p", "7", "--k-start", "5", "--k-end", "3004")
    expected = oracle.expected_ecs(7, 5, 3004, 9)
    threshold = Fraction(9, 10)
    assert oracle.check_ecs_report(done.stdout, done.returncode, 7, 5, 3004, 9, threshold, expected) is None
    cd_end = done.stdout.index("\n", done.stdout.index('"cd"')) - 2
    wrong = bump_digit(done.stdout, cd_end)
    assert oracle.check_ecs_report(wrong, done.returncode, 7, 5, 3004, 9, threshold, expected)
    assert oracle.check_ecs_report(done.stdout, 3, 7, 5, 3004, 9, threshold, expected)


def test_svg_oracle_catches_a_missing_point():
    svg = cyclemod("plot", "--p", "7", "--k-start", "5", "--k-end", "104").stdout
    assert oracle.check_svg(svg, 100) is None
    start = svg.index("<circle ")
    assert oracle.check_svg(svg[:start] + svg[svg.index("\n", start) + 1:], 100)


def test_mask_oracles_catch_a_flipped_bit():
    p, k, token = 80, 123456789, 0x0123456789ABCDEF0123456789ABCDEF
    width = (3**p).bit_length()
    printed = cyclemod("mask", "--p", str(p), "--k", str(k), "--r-hex", format(token, "x")).stdout
    assert oracle.check_mask_hex(printed, p, k, token, width) is None
    assert oracle.check_mask_hex(bump_digit(printed, len(printed) - 2), p, k, token, width)
    d = oracle.d_of(k, 3**p)
    assert oracle.check_mask(p, k, d, token, width, d ^ token, d) is None
    assert oracle.check_mask(p, k, d ^ 1, token, width, d ^ 1 ^ token, d ^ 1)
    assert oracle.check_mask(p, k, d, token, width, d ^ token, d ^ 2)


def test_identity_oracle_catches_a_flipped_digit():
    w = json.loads(cyclemod("decompose", "--p", "80", "--s", "987654321").stdout)
    fields = (w["p"], w["s"], w["A"], w["k"], w["n"])
    assert oracle.check_identity(*fields, w["d"], w["verified"]) is None
    flipped = int(bump_digit(str(w["d"]), len(str(w["d"])) - 3))
    assert oracle.check_identity(*fields, flipped, w["verified"])
    assert oracle.check_identity(*fields, w["d"], False)
