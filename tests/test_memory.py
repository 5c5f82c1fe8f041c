"""Peak traced allocation of the range verbs, against the bytes they produce.

A sequence is its k range and the verbs walk its d_k, so only the SVG
``plot`` returns may grow with the range. The render joins the polyline
once, then grows that SVG as one string and makes its circles from the
polyline text, so it peaks at the output string itself and a few chunks
of working text; a render that held its output twice, as parts and their
join, would not. ``gen``
writes its text in small pieces, and a range alone and ``ecs``, whose
report does not grow with the range, stay within fixed budgets. The last
checks read the peak the benchmark reads: the peak resident set of a
child process. A ``gen`` child stays at its import floor, and a ``plot``
child rises above it by about one SVG, since ``main`` writes the SVG in
slices rather than encoding a second copy of it in one piece.
"""

import tracemalloc

import pytest
from conftest import run_child

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


def test_render_peak_below_one_and_a_quarter_outputs():
    seq = generate_sequence(7, 10**9, 10**9 + 99_999)
    svg, peak = traced_peak(lambda: render_residue_svg(seq))
    assert peak < 1.25 * len(svg)


def gen_argv(fmt, n, target):
    """gen of n rows at p = 80 from k = 10^12 into the file target."""
    return ["gen", "--p", "80", "--k-start", str(10**12), "--k-end", str(10**12 + n - 1),
            "--format", fmt, "--output", str(target)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gen_to_file_peak_below_bytes_written(fmt, tmp_path):
    # gen writes a few KB at a time: 10^5 rows (about 6 to 9 MB) peak in a
    # fixed budget once a first call has paid for the parser's one-time costs.
    target = tmp_path / f"gen.{fmt}"
    assert main(gen_argv(fmt, 1, target)) == 0
    code, peak = traced_peak(lambda: main(gen_argv(fmt, 100_000, target)))
    assert code == 0
    assert peak < 128 * 1024 < target.stat().st_size


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


# As the benchmark's child reads it: VmHWM in kB, at exit, after the verb.
_PEAK_CHILD = """\
import sys
from cyclemod.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as f:
    print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))
sys.exit(code)
"""


def child_peak_mb(argv):
    """Peak resident set in MB (10^6 bytes) of a child process running the CLI."""
    proc = run_child(["-c", _PEAK_CHILD, *argv], check=True)
    return int(proc.stdout) * 1024 / 1e6


def _has_vmhwm():
    try:
        with open("/proc/self/status") as f:
            return any(line.startswith("VmHWM:") for line in f)
    except OSError:
        return False


@pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM in /proc/self/status")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gen_child_peaks_at_its_import_floor(fmt, tmp_path):
    # 20,000 rows at p = 80 write about 1.2 MB of CSV or 1.7 MB of JSON; a
    # child holding a large piece of them peaks 1.5 MB or more above one row.
    target = tmp_path / f"gen.{fmt}"
    floor = child_peak_mb(gen_argv(fmt, 1, target))
    peak = child_peak_mb(gen_argv(fmt, 20_000, target))
    assert peak - floor < 0.5


def plot_argv(n, target):
    """plot of n points at p = 7 from k = 10^12 into the file target."""
    return ["plot", "--p", "7", "--k-start", str(10**12), "--k-end", str(10**12 + n - 1),
            "--output", str(target)]


@pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM in /proc/self/status")
def test_plot_child_peaks_about_one_svg_over_one_point(tmp_path):
    # 10^5 points write a 5.35 MB SVG. A child that held it twice, as a join
    # of its parts or as the bytes of one write, would peak two SVGs above
    # a one-point plot. Where the allocator first grows the string inside
    # its heap, one early piece of it may be left behind: up to about 1.8 MB.
    target = tmp_path / "plot.svg"
    floor = child_peak_mb(plot_argv(1, target))
    peak = child_peak_mb(plot_argv(100_000, target))
    svg_mb = target.stat().st_size / 1e6
    assert peak - floor < 1.5 * svg_mb
