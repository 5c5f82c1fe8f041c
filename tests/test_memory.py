"""Peak traced allocation of the range verbs, against the bytes they produce.

A sequence is its k range and the verbs walk its d_k, so only their
output may grow with the range. A verb that held its whole output as
per-row or per-point objects before joining it would peak at several
times its output; these bounds leave room for the output string itself,
no more. A range alone, and ``ecs``, whose report does not grow with the
range, stay within fixed budgets.
"""

import tracemalloc

import pytest

from cyclemod import generate_sequence, render_residue_svg
from cyclemod.cli import main


def traced_peak(fn):
    """(fn(), peak bytes allocated above the level when fn started)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_render_peak_below_two_and_a_half_outputs():
    seq = generate_sequence(7, 10**9, 10**9 + 99_999)
    svg, peak = traced_peak(lambda: render_residue_svg(seq))
    assert peak < 2.5 * len(svg)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gen_to_file_peak_below_bytes_written(fmt, tmp_path):
    target = tmp_path / f"gen.{fmt}"
    argv = ["gen", "--p", "80", "--k-start", str(10**12), "--k-end", str(10**12 + 99_999),
            "--format", fmt, "--output", str(target)]
    code, peak = traced_peak(lambda: main(argv))
    assert code == 0
    assert peak < target.stat().st_size


def test_generate_sequence_allocates_nothing_per_record():
    seq, peak = traced_peak(lambda: generate_sequence(80, 10**9, 10**9 + 10**6 - 1))
    assert len(seq) == 10**6
    assert peak < 64 * 1024


def test_ecs_peak_below_a_megabyte(tmp_path):
    target = tmp_path / "ecs.json"
    argv = ["ecs", "--p", "80", "--k-start", str(10**9), "--k-end", str(10**9 + 99_999),
            "--output", str(target)]
    code, peak = traced_peak(lambda: main(argv))
    assert code == 3  # 10^5 of about 10^38 units is far below the threshold
    assert peak < 1024 * 1024
