"""Mutation check: does the tier-1 suite notice each known fault?

    python tools/mutants.py

Each entry of ``MUTANTS`` replaces one exact text in one file under
``src/cyclemod/``. For each mutant the script copies the repository (without
``.git`` and caches) into a temporary directory, applies the replacement
there, and runs the tier-1 suite in that copy. The suite's two known
failures, acceptance criteria 5 and 6, fail on every tree, so the run stops
at the first failure after them (``--maxfail=3``) rather than at the first
(``-x``). A mutant is killed when any other test fails or errors. The
repository itself is never edited; in the copy, only the table's own check
is left out.

Exit status is 0 when every mutant is killed and 1 when one survives. A
survivor is a gap in the tests: fix it with a test, never by dropping the
mutant. Stdlib only; the tests need pytest and hypothesis, as tier-1 does.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old text, new text, why). Each old text occurs exactly once in
# its file; tests/test_mutants.py checks that, so the table cannot rot.
MUTANTS = [
    (
        "src/cyclemod/seedgen.py",
        "d = (d + M) >> 1 if d & 1 else d >> 1",
        "d = (d + M) >> 1 if d & 1 or M > 80 else d >> 1",
        "a wrong 2^-1 step in the d_k walk for p >= 4",
    ),
    (
        "src/cyclemod/seedgen.py",
        "                a -= M\n",
        "                a -= M - (M > 6560)\n",
        "a_k doubling reduced wrongly for p >= 8",
    ),
    (
        "src/cyclemod/seedgen.py",
        "d = compute_d(self.k_start, self.modulus).value",
        "d = compute_d(self.k_start + (self.k_start >= 10**6), self.modulus).value",
        "the walk started at k + 1 for k >= 10^6",
    ),
    (
        "src/cyclemod/ecs.py",
        "(q + 1) * heavy[b] + q * light[b]",
        "q * heavy[b] + (q + 1) * light[b]",
        "the q + 1 and q bucket groups swapped",
    ),
    (
        "src/cyclemod/svgplot.py",
        'if start:\n            parts.append(" ")\n',
        'if start:\n            parts.append("")\n',
        "the polyline's separator between chunks dropped",
    ),
    (
        "src/cyclemod/svgplot.py",
        '    svg = "".join(parts)\n    del parts\n',
        '    svg = "".join(parts)\n',
        "the polyline's chunk texts kept through the circles",
    ),
    (
        "src/cyclemod/svgplot.py",
        "    svg += _SVG_END\n    return svg\n",
        "    return svg + _SVG_END\n",
        "the render returning a second copy of its SVG",
    ),
    (
        "src/cyclemod/svgplot.py",
        '\'<g fill="#1f4e8c">\\n\'',
        "'<g>\\n'",
        "the circles' group without its fill",
    ),
    (
        "src/cyclemod/hybrid.py",
        "HybridSeed(d.value ^ r.bits,",
        "HybridSeed(d.value ^ r.bits ^ 1,",
        "a flipped low bit in the xor mask",
    ),
    (
        "src/cyclemod/seedgen.py",
        "return w.A == (2 * M * w.n + w.d) << (w.k - 1)",
        "return True",
        "verify_identity without its factorization check",
    ),
    (
        "src/cyclemod/ecs.py",
        "rud = r * (phi - r)",
        "rud = r * r",
        "rud's numerator without the phi - r factor",
    ),
    (
        "src/cyclemod/ecs.py",
        "fullest * buckets - total",
        "fullest * buckets - 1",
        "mbi's excess taken over one record instead of L",
    ),
    (
        "src/cyclemod/seedgen.py",
        "if k_start > k_end:",
        "if k_start > k_end + 1:",
        "the range check letting k_end = k_start - 1 through",
    ),
    (
        "src/cyclemod/seedgen.py",
        "if k_end - k_start >= sys.maxsize:",
        "if k_end - k_start > sys.maxsize:",
        "the range check letting sys.maxsize + 1 records through",
    ),
    (
        "src/cyclemod/modring.py",
        "pow(x, e, m.M)",
        "pow(x, e ^ (1 << m.bit_width) - 1, m.M)",
        "the ladder multiplying on the 0 bits of phi - 1",
    ),
    (
        "src/cyclemod/modring.py",
        "else 2 * m.phi - 1",
        "else m.phi - 1",
        "the exponent's window fill dropped",
    ),
    (
        "src/cyclemod/modring.py",
        "pow(x, e, m.M)",
        "pow(x, -1, m.M)",
        "the kernel calling pow(x, -1, M), which has no step contract",
    ),
    (
        "src/cyclemod/modring.py",
        "return t % m.M, steps",
        "return t % m.M - m.M, steps",
        "Euclid's sign correction subtracting M",
    ),
    (
        "src/cyclemod/modring.py",
        "for field in fields)",
        "for field in fields[:-1])",
        "the generated record binder not setting its last field",
    ),
    (
        "src/cyclemod/cli.py",
        "islice(rows, GEN_CHUNK)",
        "islice(rows, 64 * GEN_CHUNK)",
        "gen writing pieces 64 times as large",
    ),
    (
        "src/cyclemod/bench.py",
        "counted(a, m)\n            samples_ns",
        "counted(a, m), m.residue(a)\n            samples_ns",
        "each timed call building a Residue again",
    ),
    (
        "src/cyclemod/cli.py",
        "t[i:i + 65536] for t in text for i in range(0, len(t), 65536)",
        "t for t in text",
        "main writing each text piece unsliced",
    ),
    (
        "src/cyclemod/cli.py",
        "range(0, len(t), 65536)",
        "range(0, len(t), 65537)",
        "main dropping a character between two write slices",
    ),
    (
        "src/cyclemod/cli.py",
        "if width > MASK_WIDTH_LIMIT:",
        "if width >= MASK_WIDTH_LIMIT:",
        "mask refusing the capped width itself",
    ),
    (
        "src/cyclemod/cli.py",
        "from .modring import make_modulus\n",
        "from .hybrid import entropy_source, mask_xor, token_from_hex\n"
        "from .modring import make_modulus\n",
        "cli importing hybrid at its top again, so every verb loads it",
    ),
    (
        "src/cyclemod/hybrid.py",
        'int.from_bytes(os.urandom(nbytes), "big") >> shift',
        'int.from_bytes(os.urandom(nbytes), "big") << shift',
        "the os source shifting its spare bits in, not out",
    ),
    (
        "src/cyclemod/modring.py",
        "for p in range(1, P_MAX + 1)}",
        "for p in range(1, P_MAX)}",
        "the shared-modulus cache missing p = P_MAX",
    ),
    (
        "src/cyclemod/bench.py",
        "if not isinstance(reps, int) or reps < MIN_REPS:",
        "if reps < MIN_REPS:",
        "time_inversion taking a non-integer reps",
    ),
    (
        "src/cyclemod/bench.py",
        "if len(seq) * reps > MAX_SAMPLES:",
        "if reps > 1 and len(seq) * reps > MAX_SAMPLES:",
        "count_iterations exempt from the sample cap",
    ),
    (
        "src/cyclemod/bench.py",
        "        counted = _INVERTERS[variant]\n    except KeyError:",
        "        counted = _INVERTERS.get(variant, inverse_ct_counted)\n    except KeyError:",
        "the bench kernel lookup refusing no variant",
    ),
    (
        "src/cyclemod/seedgen.py",
        "row[n & 15]",
        "row[n & (15 if m.p < 60 else 7)]",
        "the power table read with a 3-bit mask for p >= 60",
    ),
    (
        "src/cyclemod/seedgen.py",
        "while n >> 4 * len(rows):",
        "while n >> 4 * len(rows) + 4:",
        "the power table missing the top hex digit of phi - 1",
    ),
    (
        "src/cyclemod/seedgen.py",
        "rows[-1][15] * rows[-1][1] % M",
        "rows[-1][15] * rows[-1][2] % M",
        "the power table's next row built on a wrong base",
    ),
    (
        "src/cyclemod/seedgen.py",
        "    for row in rows:\n        a = a * row[n & 15] % M\n",
        "    for row in rows:\n        if not n:\n            break\n        a = a * row[n & 15] % M\n",
        "the power table lookup stopping after n's top digit, which reads k",
    ),
    (
        "src/cyclemod/seedgen.py",
        "    if w.A != M * (w.s + 1) - 1:\n        return False\n",
        "",
        "verify_identity without its check of A against s",
    ),
    (
        "src/cyclemod/modring.py",
        "        p = int(p)\n",
        "",
        "Modulus keeping a float or bool p as given",
    ),
    (
        "src/cyclemod/__init__.py",
        "    globals()[name] = value\n    return value\n",
        "    globals()[name] = value\n",
        "the package's lazy name answering None on its first lookup",
    ),
]

# Test ids as pytest prints them that fail on every tree: acceptance
# criteria 5 and 6 are unsatisfiable as written and stay asserted.
KNOWN_FAILURES = frozenset({
    "tests/test_acceptance.py::test_criterion_5_reference_score_table_weighted_sums",
    "tests/test_acceptance.py::test_criterion_6_component_property_suite",
})
TIMEOUT_S = 900
_IGNORE = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".perfbench", "*.egg-info",
)


def run_mutant(file: str, old: str, new: str) -> tuple[str, list[str]]:
    """Apply one mutant in a fresh copy and run tier-1 there: (verdict, new failures)."""
    with tempfile.TemporaryDirectory(prefix="cyclemod-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        target = copy / file
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{file}: mutant text occurs {text.count(old)} times, not once")
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        # Plain asserts: a verdict needs only the failure, not pytest's
        # explanation of it. tests/test_mutants.py
        # checks this table against the unmutated source, so it fails in
        # every copy and would count a kill for any mutant.
        cmd = [
            sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
            "--assert=plain", "--continue-on-collection-errors",
            f"--maxfail={len(KNOWN_FAILURES) + 1}", "--ignore=tests/test_mutants.py",
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "timeout", []
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    new_failures = [test for test in failed if test not in KNOWN_FAILURES]
    if new_failures:
        return "killed", new_failures
    if proc.returncode not in (0, 1):  # interrupted, internal or usage error
        return f"pytest exit {proc.returncode}", []
    return "survived", []


def main() -> int:
    survivors = 0
    for file, old, new, why in MUTANTS:
        start = time.perf_counter()
        verdict, failures = run_mutant(file, old, new)
        survivors += verdict != "killed"
        detail = f" by {failures[0]}" if failures else ""
        print(f"{why}: {verdict}{detail} ({time.perf_counter() - start:.0f} s)", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
