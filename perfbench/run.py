"""Benchmark driver for cyclemod: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is taken from ``src/``):

    python3 perfbench/run.py --workload gen-p80 --seed 1 --seconds 20 --trace 0

One process drives one request at a time in a closed loop. ``gen-p80``
and ``audit-p7`` start the ``cyclemod`` CLI as a child per request;
``keyed-seed-p80`` calls the library in this process. Inputs come from
``--seed`` only. Every output is checked by ``oracle.py`` outside the
timed region; a wrong output counts as failed work.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` is a separate run of the same requests made in process,
each once untraced and once with spans around the package's public
functions (``tracing.py``); it reports the per-layer metrics and the
tracing overhead. The last line of standard output is the result JSON;
a record of the run with its descriptor is written under ``.perfbench/``.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import importlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import oracle
from tracing import Tracer, instrument, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

K_MAX = 10**12  # window starts, keys k and identity inputs s are drawn below this
GEN_P, GEN_RECORDS = 80, 20_000
AUDIT_P, AUDIT_RECORDS = 7, 100_000
KEYED_P = 80
BUCKETS = 9  # the CLI's default, left implicit on its command line
THRESHOLD = Fraction(9, 10)  # the CLI's default gate
SETUP_REPS = 3  # interpreter starts timed before the loop; the loop adds more
SETUP_EVERY_S = 1.0  # keyed-seed-p80 times an interpreter start this often
MIN_REQUESTS = 3
PROBE_OPERANDS = 8  # window operands probed per traced CLI request
INVERSE_PROBE_EVERY = 8  # keyed requests per inverter probe
PROBE_EVERY = 32  # keyed requests per sequence and CLI probe
PROBE_WINDOW = 64  # records in a keyed sequence probe
MEMORY_WINDOW = 2_000  # records generated under tracemalloc
EUCLID_REF_K = 2_048  # euclid_steps_max is taken over k in [1, min(phi, this)]
MAX_REASONS = 10
IMPORT_CODE = "import os, cyclemod; os.write(1, cyclemod.__file__.encode())"
# ``python -m cyclemod ARGV`` that also writes its own peak RSS in kB to the
# file named by its first argument when it exits.
CHILD_CODE = """\
import atexit, runpy, sys
def write_peak(path=sys.argv.pop(1)):
    with open(path, "w") as f:
        f.write(str(peak_kb()))
def peak_kb():
    with open("/proc/self/status") as f:
        return int(next(line.split()[1] for line in f if line.startswith("VmHWM:")))
atexit.register(write_peak)
runpy.run_module("cyclemod", run_name="__main__", alter_sys=True)
"""
PACKAGE_MODULES = ("modring", "seedgen", "ecs", "svgplot", "hybrid", "cli", "bench")


class Run:
    """State of one invocation: inputs, child environment and failure count."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.rng = random.Random(args.seed)
        self.tmp = WORK / f"tmp-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.deadline = math.inf
        self.setup: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.notes: dict = {}  # workload-specific entries for the run descriptor
        self._lib = None

    def window(self, n: int) -> tuple[int, int]:
        k0 = self.rng.randint(1, K_MAX)
        return k0, k0 + n - 1

    def start_clock(self) -> None:
        self.deadline = time.perf_counter() + self.args.seconds

    def more(self, done: int, typical_s: float = 0.0) -> bool:
        """Start another request unless one of ``typical_s`` would end past the deadline."""
        return done < MIN_REQUESTS or time.perf_counter() + typical_s < self.deadline

    def sample_setup(self) -> None:
        """Time one fresh interpreter start until ``import cyclemod`` returns.

        Samples are spread over the run so that they see the same host as
        the requests do.
        """
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=self.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        ) as proc:
            proc.stdout.read(1)
            self.setup.append(time.perf_counter() - t0)
            proc.stdout.read()

    def check(self, reason: str | None) -> None:
        """Count one attempted operation; a reason means its output was wrong."""
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(reason)

    def lib(self) -> SimpleNamespace:
        """The package's modules, imported from this checkout's src/."""
        if self._lib is None:
            if str(SRC) not in sys.path:
                sys.path.insert(0, str(SRC))
            package = importlib.import_module("cyclemod")
            if Path(package.__file__).resolve().parent != (SRC / "cyclemod").resolve():
                raise SystemExit(f"cyclemod was imported from {package.__file__}, not {SRC}")
            modules = {name: importlib.import_module(f"cyclemod.{name}") for name in PACKAGE_MODULES}
            self._lib = SimpleNamespace(modules=modules, **modules)
        return self._lib

    def child(self, argv: list[str]) -> tuple[float, float, int]:
        """Run ``cyclemod argv`` to completion: (wall s, peak RSS MB, exit code).

        The child reports its peak itself (``VmHWM``, since its exec). The
        ``ru_maxrss`` that ``wait4`` gives would not do: a child inherits its
        parent's peak across fork and exec, so it would also count the
        driver's memory.
        """
        peak_file = self.tmp / "peak_kb"
        peak_file.unlink(missing_ok=True)
        with open(self.tmp / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", CHILD_CODE, str(peak_file), *argv], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                code = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        peak_kb = read_output(peak_file)
        return wall, int(peak_kb) * 1024 / 1e6 if peak_kb else 0.0, code


def read_output(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


class LatencyLog:
    """Request times in ns, spilled to a file at each second of the loop.

    Only the current second's times stay in memory, so the driver's own
    peak RSS, which keyed-seed-p80 reports, does not grow with the number
    of requests a run makes.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.chunk = array.array("q")
        self.count = 0
        self.second_ends: list[int] = []
        path.unlink(missing_ok=True)

    def append(self, ns: int) -> None:
        self.chunk.append(ns)
        self.count += 1

    def spill(self) -> None:
        """End one second: append its times to the file and free them."""
        with open(self.path, "ab") as f:
            self.chunk.tofile(f)
        self.chunk = array.array("q")
        self.second_ends.append(self.count)

    def values(self) -> array.array:
        """Every time logged, in order."""
        self.spill()
        out = array.array("q")
        out.frombytes(self.path.read_bytes())
        return out

    def per_second(self, values: array.array) -> list[dict]:
        """Request count, p50 and p99 of each second, for the run record."""
        edges = [0, *self.second_ends]
        return [
            {"requests": b - a, "p50_us": statistics.median(values[a:b]) / 1e3,
             "p99_us": percentile(values[a:b], 0.99) / 1e3}
            for a, b in zip(edges, edges[1:]) if b > a
        ]


def self_peak_kb() -> int:
    """This process's peak RSS since its exec, in kB."""
    with open("/proc/self/status") as f:
        return int(next(line.split()[1] for line in f if line.startswith("VmHWM:")))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def start_setup(run: Run) -> None:
    """Compile the bytecode cache with one unmeasured start, check that the
    child imports this checkout's package, then take the first samples."""
    where = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=run.env, capture_output=True, check=True,
    ).stdout.decode()
    if Path(where).resolve().parent != (SRC / "cyclemod").resolve():
        raise SystemExit(f"child imported cyclemod from {where}, not {SRC}")
    for _ in range(SETUP_REPS):
        run.sample_setup()


def e2e_metrics(latencies: list[float], records: int, peak_mb: float) -> dict[str, float]:
    """Requests of ``records`` each, one after another, timed in seconds."""
    busy_s = sum(latencies)
    return {
        "records_per_s": records * len(latencies) / busy_s,
        "requests_per_s": len(latencies) / busy_s,
        "latency_us_p50": statistics.median(latencies) * 1e6,
        "latency_us_p99": percentile(latencies, 0.99) * 1e6,
        "peak_rss_mb": peak_mb,
    }


def typical(latencies) -> float:
    return statistics.median(latencies) if latencies else 0.0


# ---------------------------------------------------------------- gen-p80


def gen_argv(k0: int, k1: int, out: Path) -> list[str]:
    return ["gen", "--p", str(GEN_P), "--k-start", str(k0), "--k-end", str(k1), "--output", str(out)]


def check_gen(run: Run, code: int, out: Path, k0: int, k1: int) -> None:
    text = read_output(out)
    run.check(f"gen exited {code}" if code or text is None else oracle.check_gen_csv(text, GEN_P, k0, k1))


def gen_untraced(run: Run) -> tuple[dict, int]:
    n = GEN_RECORDS
    out = run.tmp / "gen.csv"
    latencies, rss = [], []
    run.start_clock()
    while run.more(len(latencies), typical(latencies)):
        k0, k1 = run.window(n)
        out.unlink(missing_ok=True)
        wall, peak, code = run.child(gen_argv(k0, k1, out))
        latencies.append(wall)
        rss.append(peak)
        check_gen(run, code, out, k0, k1)
        run.sample_setup()
    return e2e_metrics(latencies, n, statistics.median(rss)), len(latencies)


def gen_traced(run: Run, tracer: Tracer) -> tuple[list, list, dict]:
    lib = run.lib()
    n = GEN_RECORDS
    out = run.tmp / "gen.csv"
    m = lib.modring.make_modulus(GEN_P)
    stream = lib.hybrid.entropy_source("deterministic_test", m.bit_width, seed=run.args.seed)
    first = run.window(n)
    counters = exact_counters(run, GEN_P, first[0])
    untraced, traced = [], []
    run.start_clock()
    while run.more(len(traced), typical(traced) * 2e-9):
        k0, k1 = first if not traced else run.window(n)
        tracer.request_id += 1
        argv = gen_argv(k0, k1, out)
        elapsed, code = cli_call(lib, None, argv, out, n)
        untraced.append(elapsed)
        check_gen(run, code, out, k0, k1)
        with instrument(tracer, lib.modules):
            elapsed, code = cli_call(lib, tracer, argv, out, n)
            traced.append(elapsed)
            ks = [run.rng.randint(k0, k1) for _ in range(PROBE_OPERANDS)]
            probe_operands(run, lib, tracer, m, ks, stream)
            probe_sequence(run, lib, tracer.last_sequence)
            probe_identity(run, lib, tracer, GEN_P)
        check_gen(run, code, out, k0, k1)
    return untraced, traced, counters


# ---------------------------------------------------------------- audit-p7


def audit_argv(verb: str, k0: int, k1: int, out: Path) -> list[str]:
    return [verb, "--p", str(AUDIT_P), "--k-start", str(k0), "--k-end", str(k1), "--output", str(out)]


def check_audit(run: Run, ecs_code: int, plot_code: int, k0: int, k1: int) -> str | None:
    """Check one admission check's two outputs; return the SVG's digest."""
    report = read_output(run.tmp / "ecs.json")
    if report is None:
        run.check(f"ecs exited {ecs_code} without a report")
    else:
        expected = oracle.expected_ecs(AUDIT_P, k0, k1, BUCKETS)
        run.check(oracle.check_ecs_report(report, ecs_code, AUDIT_P, k0, k1, BUCKETS, THRESHOLD, expected))
    svg = read_output(run.tmp / "plot.svg")
    if plot_code or svg is None:
        run.check(f"plot exited {plot_code}")
        return None
    run.check(oracle.check_svg(svg, k1 - k0 + 1))
    return hashlib.sha256(svg.encode()).hexdigest()


def audit_untraced(run: Run) -> tuple[dict, int]:
    n = AUDIT_RECORDS
    ecs_out, plot_out = run.tmp / "ecs.json", run.tmp / "plot.svg"
    latencies, rss, digests = [], [], []
    run.start_clock()
    while run.more(len(latencies), typical(latencies)):
        # The second request repeats the first window: its plot must give the same bytes.
        k0, k1 = run.window(n) if len(latencies) != 1 else first
        ecs_out.unlink(missing_ok=True)
        plot_out.unlink(missing_ok=True)
        ecs_wall, ecs_rss, ecs_code = run.child(audit_argv("ecs", k0, k1, ecs_out))
        plot_wall, plot_rss, plot_code = run.child(audit_argv("plot", k0, k1, plot_out))
        latencies.append(ecs_wall + plot_wall)
        rss.append(max(ecs_rss, plot_rss))
        digests.append(check_audit(run, ecs_code, plot_code, k0, k1))
        if len(digests) == 1:
            first = (k0, k1)
        elif len(digests) == 2:
            run.check(None if digests[0] == digests[1] else "SVG differs between two plots of one window")
        run.sample_setup()
    return e2e_metrics(latencies, n, statistics.median(rss)), len(latencies)


def audit_traced(run: Run, tracer: Tracer) -> tuple[list, list, dict]:
    lib = run.lib()
    n = AUDIT_RECORDS
    ecs_out, plot_out = run.tmp / "ecs.json", run.tmp / "plot.svg"
    m = lib.modring.make_modulus(AUDIT_P)
    stream = lib.hybrid.entropy_source("deterministic_test", m.bit_width, seed=run.args.seed)
    first = run.window(n)
    counters = exact_counters(run, AUDIT_P, first[0])
    untraced, traced = [], []
    run.start_clock()
    while run.more(len(traced), typical(traced) * 2e-9):
        k0, k1 = first if not traced else run.window(n)
        tracer.request_id += 1
        ecs_argv, plot_argv = audit_argv("ecs", k0, k1, ecs_out), audit_argv("plot", k0, k1, plot_out)
        ecs_elapsed, ecs_code = cli_call(lib, None, ecs_argv, ecs_out, n)
        plot_elapsed, plot_code = cli_call(lib, None, plot_argv, plot_out, n)
        untraced.append(ecs_elapsed + plot_elapsed)
        plain = check_audit(run, ecs_code, plot_code, k0, k1)
        with instrument(tracer, lib.modules):
            ecs_elapsed, ecs_code = cli_call(lib, tracer, ecs_argv, ecs_out, n)
            plot_elapsed, plot_code = cli_call(lib, tracer, plot_argv, plot_out, n)
            traced.append(ecs_elapsed + plot_elapsed)
            ks = [run.rng.randint(k0, k1) for _ in range(PROBE_OPERANDS)]
            probe_operands(run, lib, tracer, m, ks, stream)
            probe_identity(run, lib, tracer, AUDIT_P)
        run.check(None if check_audit(run, ecs_code, plot_code, k0, k1) == plain
                  else "SVG differs between the untraced and traced plot of one window")
    return untraced, traced, counters


# ---------------------------------------------------------- keyed-seed-p80


def keyed_input(rng: random.Random, i: int) -> tuple[str, int]:
    """Three in four requests mask d_k for a fresh k; the fourth decomposes a fresh s."""
    if i % 4 == 3:
        return "decompose", rng.randint(0, K_MAX)
    return "mask", rng.randint(1, K_MAX)


def keyed_call(lib, m, stream, kind: str, x: int, tracer: Tracer | None = None):
    if kind == "mask":
        d = lib.seedgen.compute_d(x, m)
        token = next(stream)
        seed = lib.hybrid.mask_xor(d, token, k=x)
        return d, token, seed, lib.hybrid.unmask(seed, token)
    with tracer.span("seedgen.decompose_verify") if tracer else nullcontext():
        witness = lib.seedgen.decompose_identity(KEYED_P, x)
        return witness, lib.seedgen.verify_identity(witness)


def keyed_check(kind: str, x: int, out) -> str | None:
    if kind == "mask":
        d, token, seed, back = out
        return oracle.check_mask(KEYED_P, x, d.value, token.bits, token.width, seed.h, back.value)
    w, verified = out
    return oracle.check_identity(KEYED_P, x, w.A, w.k, w.n, w.d, verified)


def keyed_untraced(run: Run) -> tuple[dict, int]:
    lib = run.lib()
    m = lib.modring.make_modulus(KEYED_P)
    stream = lib.hybrid.entropy_source("deterministic_test", m.bit_width, seed=run.args.seed)
    log = LatencyLog(run.tmp / "latencies.bin")
    clock = time.perf_counter_ns
    run.start_clock()
    next_setup = time.perf_counter() + SETUP_EVERY_S
    while run.more(log.count):
        kind, x = keyed_input(run.rng, log.count)
        t0 = clock()
        try:
            out = keyed_call(lib, m, stream, kind, x)
        except Exception as exc:  # a request that raises is failed work, as a bad exit code is
            out = exc
        log.append(clock() - t0)
        run.check(f"{kind} raised {out!r}" if isinstance(out, Exception) else keyed_check(kind, x, out))
        if time.perf_counter() >= next_setup:
            log.spill()
            run.sample_setup()
            next_setup += SETUP_EVERY_S
    # The peak is read before the logged times come back into memory, and
    # from VmHWM, which unlike ru_maxrss does not count the launcher's peak.
    peak_mb = self_peak_kb() * 1024 / 1e6
    latencies = log.values()
    run.notes["per_second"] = log.per_second(latencies)
    return e2e_metrics([ns / 1e9 for ns in latencies], 1, peak_mb), len(latencies)


def keyed_traced(run: Run, tracer: Tracer) -> tuple[list, list, dict]:
    lib = run.lib()
    m = lib.modring.make_modulus(KEYED_P)
    stream = lib.hybrid.entropy_source("deterministic_test", m.bit_width, seed=run.args.seed)
    out = run.tmp / "mask.txt"
    clock = time.perf_counter_ns
    counters = exact_counters(run, KEYED_P, run.rng.randint(1, K_MAX))
    untraced, traced = [], []
    run.start_clock()
    while run.more(len(traced)):
        i = len(traced)
        kind, x = keyed_input(run.rng, i)
        tracer.request_id += 1
        t0 = clock()
        result = keyed_call(lib, m, stream, kind, x)
        untraced.append(clock() - t0)
        run.check(keyed_check(kind, x, result))
        with instrument(tracer, lib.modules):
            t0 = clock()
            with tracer.span("request"):
                result = keyed_call(lib, m, stream, kind, x, tracer)
            traced.append(clock() - t0)
            k = x if kind == "mask" else result[0].k
            if i % INVERSE_PROBE_EVERY == 0:
                probe_inverses(run, lib, m, [lib.seedgen.compute_a(k, m)])
            if i % PROBE_EVERY == 0:
                probe_sequence(run, lib, lib.seedgen.generate_sequence(KEYED_P, k, k + PROBE_WINDOW - 1))
                token = next(stream)
                argv = ["mask", "--p", str(KEYED_P), "--k", str(k), "--r-hex", token.hex(), "--output", str(out)]
                _, code = cli_call(lib, tracer, argv, out, 1)
                text = read_output(out)
                run.check(f"mask exited {code}" if code or text is None
                          else oracle.check_mask_hex(text, KEYED_P, k, token.bits, token.width))
        run.check(keyed_check(kind, x, result))
    return untraced, traced, counters


# ------------------------------------------------------------ traced parts


def cli_call(lib, tracer: Tracer | None, argv: list[str], out: Path, records: int) -> tuple[int, int]:
    """``cli.main(argv)`` in process: (elapsed ns, exit code); traced as one cli.main span."""
    out.unlink(missing_ok=True)
    t0 = time.perf_counter_ns()
    with tracer.span("cli.main", records) if tracer else nullcontext() as sid:
        code = lib.cli.main(argv)
    elapsed = time.perf_counter_ns() - t0
    if tracer:
        tracer.set_bytes(sid, out.stat().st_size if out.exists() else 0)
    return elapsed, code


def probe_inverses(run: Run, lib, m, operands) -> None:
    for a in operands:
        ct = lib.modring.inverse_ct(a)
        euclid = lib.modring.inverse_euclid(a)
        run.check(None if a.value * ct.value % m.M == 1 == a.value * euclid.value % m.M
                  else f"inverse of {a.value} mod 3^{m.p} is wrong")


def probe_operands(run: Run, lib, tracer: Tracer, m, ks: list[int], stream) -> None:
    """Inverters, compute_d and masking on operands drawn from the request's window."""
    probe_inverses(run, lib, m, [lib.seedgen.compute_a(k, m) for k in ks])
    for k in ks:
        d = lib.seedgen.compute_d(k, m)
        token = next(stream)
        seed = lib.hybrid.mask_xor(d, token, k=k)
        back = lib.hybrid.unmask(seed, token)
        run.check(oracle.check_mask(m.p, k, d.value, token.bits, token.width, seed.h, back.value))


def probe_sequence(run: Run, lib, seq) -> None:
    """Scoring and rendering on a generated sequence of the workload."""
    p, k0, k1 = seq.modulus.p, seq.k_start, seq.k_end
    run.check(None if seq.d_values() == oracle.d_window(p, k0, k1) else "generated d_k differ")
    report = lib.ecs.score(seq, buckets=BUCKETS)
    values = {"cd": report.cd, "rud": report.rud, "mbi": report.mbi, "ecs": report.ecs}
    run.check(oracle.check_ecs_values(values, oracle.expected_ecs(p, k0, k1, BUCKETS)))
    run.check(oracle.check_svg(lib.svgplot.render_residue_svg(seq), len(seq)))


def probe_identity(run: Run, lib, tracer: Tracer, p: int) -> None:
    s = run.rng.randint(0, K_MAX)
    with tracer.span("seedgen.decompose_verify"):
        witness = lib.seedgen.decompose_identity(p, s)
        verified = lib.seedgen.verify_identity(witness)
    run.check(oracle.check_identity(p, s, witness.A, witness.k, witness.n, witness.d, verified))


def exact_counters(run: Run, p: int, k0: int) -> dict[str, float]:
    """Step counts from bench.count_iterations and generation memory per record.

    ct steps are taken on the workload's own operands; the Euclid maximum on
    a fixed range of k so that it does not depend on the seed.
    """
    lib = run.lib()
    ct_min, ct_max = lib.bench.count_iterations("ct", p, (k0, k0 + PROBE_OPERANDS - 1))
    run.check(None if ct_min == ct_max else f"ct steps vary from {ct_min} to {ct_max}")
    phi = 2 * 3 ** (p - 1)
    _, euclid_max = lib.bench.count_iterations("euclid", p, (1, min(phi, EUCLID_REF_K)))
    n = MEMORY_WINDOW
    tracemalloc.start()
    try:
        seq = lib.seedgen.generate_sequence(p, k0, k0 + n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    run.check(None if seq.d_values() == oracle.d_window(p, k0, k0 + n - 1) else "generated d_k differ")
    return {
        "modring.ct_steps": float(ct_max),
        "modring.euclid_steps_max": float(euclid_max),
        "seedgen.bytes_per_record": peak / n,
    }


WORKLOADS = {
    "gen-p80": (gen_untraced, gen_traced),
    "audit-p7": (audit_untraced, audit_traced),
    "keyed-seed-p80": (keyed_untraced, keyed_traced),
}


# ------------------------------------------------------------------ driver


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 over the package sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cyclemod").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def describe(run: Run) -> dict:
    args = run.args
    sizes = {
        "gen-p80": {"p": GEN_P, "records_per_request": GEN_RECORDS},
        "audit-p7": {"p": AUDIT_P, "records_per_request": AUDIT_RECORDS},
        "keyed-seed-p80": {"p": KEYED_P, "mix": "3 mask : 1 decompose"},
    }[args.workload]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": dict(sizes, k_max=K_MAX),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="cyclemod benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # The oracles assume the CLI's default gate; children inherit this environment.
    os.environ.pop("CYCLEMOD_THRESHOLD", None)
    if not (SRC / "cyclemod" / "__init__.py").is_file():
        print(f"perfbench: no cyclemod package under {SRC}", file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    run = Run(args)
    descriptor = describe(run)
    untraced_fn, traced_fn = WORKLOADS[args.workload]
    run.tmp.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        if args.trace:
            untraced, traced, counters = traced_fn(run, tracer)
            metrics = dict(layer_metrics(tracer), **counters)
            samples = len(traced)
            u50, t50 = statistics.median(untraced) / 1e3, statistics.median(traced) / 1e3
            descriptor["tracing_overhead"] = {
                "untraced_request_p50_us": u50, "traced_request_p50_us": t50,
                "overhead_frac": t50 / u50 - 1, "requests": samples,
            }
        else:
            start_setup(run)
            metrics, samples = untraced_fn(run)
            metrics["setup_s"] = statistics.median(run.setup)
            descriptor["setup_samples"] = len(run.setup)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    descriptor.update(run.notes, requests=samples)
    if not args.trace:
        descriptor["p99_samples_beyond"] = samples - math.ceil(0.99 * samples)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(result, descriptor=descriptor, failed_frac=run.failed / run.attempted,
                  failures=run.reasons)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        (WORK / "traces").mkdir(exist_ok=True)
        tracer.write(WORK / "traces" / f"{stem}.jsonl")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {samples} requests, "
          f"{run.attempted} checked operations, failed_frac={run.failed / run.attempted:g}")
    for reason in run.reasons:
        print(f"  FAILED: {reason}")
    for name in units:
        print(f"  {name:32s} {metrics[name]:>16.6g} {units[name]}")
    print("descriptor " + json.dumps(descriptor))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
