"""Alternating benchmark pairs of a parent revision and this checkout.

    python tools/benchpairs.py --parent REV [--pairs 10] [--seconds 35]
                               [--workload NAME ...] [--workdir DIR]
    python tools/benchpairs.py --parent REV --plot-sweep [--workdir DIR]

The parent is exported with ``git archive``, and this checkout is copied
without ``.git`` and caches, into the sibling directories ``parent`` and
``change`` of a fresh directory under ``--workdir`` (a temporary
directory by default). So both trees run from paths of one length: a
child's peak RSS moves by about 0.1 MB with the length of the paths it is
given. An export registers nothing in the repository's ``.git``, so an
interrupted run leaves nothing to prune. The script refuses to run when
the two trees' ``perfbench/`` or ``BENCHMARK.json`` differ, so that a
change to the harness never reads as a change to the code. Pair i runs
each tree's own ``perfbench/run.py`` with ``--seed i --trace 0``, the
parent first in odd pairs and the change first in even ones, and reads
back the record each run writes to ``.perfbench/results/``. The summary goes to ``BENCH_<parent>.json`` at
the root of the checkout: per workload, metric and side, the median,
quartiles (``statistics.quantiles``, exclusive method) and IQR; the pairs
in which the change was better; attempted and failed operations; host,
Python, both revisions and the SHA-256 of each tree's sources.

``--plot-sweep`` runs no benchmark. It starts audit-p7's ``plot`` child
over one 100,000-record window at p=7, as perfbench starts it: the
harness's own ``CHILD_CODE``, ``cwd`` at the tree's root, ``PYTHONPATH``
at its ``src/`` and the SVG written to ``ROOT/.perfbench/tmp-<pid>/``. It
does so on both trees at 16 root-path lengths and 3 pid widths, since the
child's heap layout, and with it which of its two peak-RSS modes it lands
in, moves with the lengths of the paths it is given. It prints, per side,
how many of the 48 runs peaked above 25 MB, where the upper mode reads
about 6 MB above the usual one, and the median, upper quartile and
largest peak, which also show a mode too small to pass 25 MB.

Exit status is 0 on success and 2 when the harnesses differ. Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import filecmp
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ("perfbench", "BENCHMARK.json")
SIDES = ("parent", "change")
SWEEP_LENGTHS = 16  # root-path lengths, one character apart
SWEEP_PIDS = ("4321", "54321", "654321")  # stand-ins for perfbench's pid in the SVG path
SWEEP_K = 10**12
PLOT_LIMIT_MB = 25.0
_UNCOPIED = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".perfbench", "*.egg-info",
)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, target: Path) -> Path:
    """The tree of ``rev``, written to ``target`` with ``git archive``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target)
    return target


def harness_differences(a: Path, b: Path) -> list[str]:
    """The harness paths, relative to the tree roots, that differ between two trees."""
    def files(root: Path) -> dict[str, Path]:
        found = {}
        for name in HARNESS:
            top = root / name
            paths = [top] if top.is_file() else sorted(top.rglob("*")) if top.is_dir() else []
            for path in paths:
                if path.is_file() and "__pycache__" not in path.parts:
                    found[path.relative_to(root).as_posix()] = path
        return found

    fa, fb = files(a), files(b)
    return sorted(name for name in fa.keys() | fb.keys()
                  if name not in fa or name not in fb
                  or not filecmp.cmp(fa[name], fb[name], shallow=False))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Run one tree's perfbench/run.py and return the record it wrote."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                    str(seed), "--seconds", str(seconds), "--trace", "0"],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)
    record = tree / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(record.read_text(encoding="utf-8"))


def child_code(tree: Path) -> str:
    """perfbench's ``CHILD_CODE``, read from the tree's run.py without importing it."""
    module = ast.parse((tree / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in module.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CHILD_CODE":
            return ast.literal_eval(node.value)
    raise SystemExit(f"benchpairs: no CHILD_CODE in {tree / 'perfbench' / 'run.py'}")


def run_plot(tree: Path, pid: str) -> float:
    """Peak RSS in MB of one audit-p7 plot child of ``tree``, started as perfbench starts it."""
    work = tree / ".perfbench" / f"tmp-{pid}"
    work.mkdir(parents=True, exist_ok=True)
    peak = work / "peak_kb"
    argv = ["plot", "--p", "7", "--k-start", str(SWEEP_K), "--k-end", str(SWEEP_K + 99_999),
            "--output", str(work / "plot.svg")]
    subprocess.run([sys.executable, "-c", child_code(tree), str(peak), *argv], cwd=tree,
                   env=dict(os.environ, PYTHONPATH=str(tree / "src")), check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return int(peak.read_text(encoding="utf-8")) * 1024 / 1e6


def plot_sweep(holder: Path, run) -> dict:
    """Per side, the plot child's peaks over the sweep's layouts, and how many exceed the limit.

    ``holder`` holds the trees ``parent`` and ``change``; it is renamed to
    each of the sweep's lengths in turn, so both trees always sit at roots
    of one length. ``run(tree, pid)`` gives one child's peak in MB. Each
    layout runs both sides, alternating which goes first.
    """
    peaks = {side: [] for side in SIDES}
    for length in range(1, SWEEP_LENGTHS + 1):
        holder = holder.rename(holder.with_name("r" * length))
        for i, pid in enumerate(SWEEP_PIDS):
            for side in SIDES if (length + i) % 2 else SIDES[::-1]:
                peaks[side].append(run(holder / side, pid))
    return {side: {"runs": len(mb), "above_limit": sum(v > PLOT_LIMIT_MB for v in mb),
                   "peak_mb": {**spread(mb), "max": max(mb)}} for side, mb in peaks.items()}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """One workload's entry from each side's records, listed in pair order."""
    metrics = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"], "better": direction,
            **{side: spread(values[side]) for side in SIDES}, "change_better_in_pairs": wins,
        }
    return {
        "pairs": len(runs["parent"]),
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "metrics": metrics,
    }


def revision(runs: list[dict], fallback: str) -> dict:
    """One side's git revision and source digest, which every run of it must share."""
    digests = {r["descriptor"]["src_sha256"] for r in runs}
    if len(digests) != 1:
        raise SystemExit(f"benchpairs: the sources changed during the runs: {sorted(digests)}")
    return {"git_revision": fallback, "src_sha256": digests.pop()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--plot-sweep", action="store_true",
                        help="count plot children above 25 MB instead of running the benchmark")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent_rev = git("rev-parse", f"{args.parent}^{{commit}}")
    short = git("rev-parse", "--short=7", parent_rev)
    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--", "src")
    change_rev = f"uncommitted change on {head[:7]}, identified by src_sha256" if dirty else head

    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="benchpairs-", dir=args.workdir) as tmp:
        holder = Path(tmp) / "t"
        parent = export(parent_rev, holder / "parent")
        differ = harness_differences(parent, ROOT)
        if differ:
            print(f"benchpairs: the harness differs from {short}: {', '.join(differ)}",
                  file=sys.stderr)
            return 2
        trees = {"parent": parent,
                 "change": shutil.copytree(ROOT, holder / "change", ignore=_UNCOPIED)}
        if args.plot_sweep:
            for side, found in plot_sweep(holder, run_plot).items():
                peak = found["peak_mb"]
                print(f"benchpairs: plot sweep, {side}: {found['above_limit']} of {found['runs']} "
                      f"runs above {PLOT_LIMIT_MB:g} MB (median {peak['median']:.2f}, "
                      f"q3 {peak['q3']:.2f}, max {peak['max']:.2f} MB)")
            return 0
        started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        summaries, every = {}, {side: [] for side in SIDES}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for seed in range(1, args.pairs + 1):
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    runs[side].append(run_once(trees[side], workload, seed, args.seconds))
                print(f"benchpairs: {workload} pair {seed} of {args.pairs}", flush=True)
            summaries[workload] = summarize(runs, better)
            for side in SIDES:
                every[side] += runs[side]

    bench = {
        "what": (
            "End-to-end metrics of the unchanged perfbench/run.py at the parent and at the "
            "change, from alternating pairs on one host, written by tools/benchpairs.py. Both "
            f"runs of pair i use --seed i, --trace 0 and a {args.seconds:g} s run length; odd "
            "pairs run the parent first, even pairs the change first. Each metric gives the "
            "median and interquartile range over the pairs, and the number of pairs in which "
            "the change was better."
        ),
        "seconds_per_run": args.seconds,
        "seeds": f"pair i uses --seed i, i = 1..{args.pairs}",
        "host": {"machine": platform.machine(), "system": platform.system(),
                 "release": platform.release(), "nproc": os.cpu_count(),
                 "affinity": len(os.sched_getaffinity(0))},
        "python": {"version": platform.python_version(),
                   "implementation": platform.python_implementation()},
        "parent": revision(every["parent"], parent_rev),
        "change": revision(every["change"], change_rev),
        "started_utc": started,
        "workloads": summaries,
    }
    out = ROOT / f"BENCH_{short}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(f"benchpairs: wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
