"""Output oracles for the benchmark workloads.

Every check here is written from the published definitions of the
cyclemod outputs (README and module docstrings), in plain integer and
``Fraction`` arithmetic. Nothing is imported from the package: a faster
but wrong program must fail these checks, so they may not share its
inverters or its scoring code. Inverses come from Python's own
``pow(x, -1, M)``.

Each check returns ``None`` when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction

ECS_KEYS = ("p", "k_start", "k_end", "buckets", "cd", "rud", "mbi", "ecs", "admitted", "threshold")
ECS_FLOAT_KEYS = ("cd", "rud", "mbi", "ecs", "threshold")
# Six-decimal rendering of a float carries at most half a unit of the
# sixth decimal of error, plus the float's own rounding.
SIX_DECIMAL_TOL = Fraction(5, 10**7) + Fraction(1, 10**12)
_FIXED6 = re.compile(r"-?\d+\.\d{6}")


def d_of(k: int, M: int) -> int:
    """d_k = -(2^(k-1))^-1 mod M, from Python's own modular inverse."""
    return -pow(2, -(k - 1), M) % M


def d_window(p: int, k_start: int, k_end: int) -> list[int]:
    """d_k for k in [k_start, k_end] by the step d_{k+1} = d_k * 2^-1."""
    M = 3**p
    half = pow(2, -1, M)
    d = d_of(k_start, M)
    out = []
    for _ in range(k_end - k_start + 1):
        out.append(d)
        d = d * half % M
    return out


def check_gen_csv(text: str, p: int, k_start: int, k_end: int) -> str | None:
    """CSV rows k,a_k,d_k: consecutive k, a_k = 2^(k-1), a_k * d_k = -1 (mod 3^p)."""
    M = 3**p
    lines = text.split("\n")
    if lines[0] != "k,a_k,d_k" or lines[-1] != "":
        return "bad CSV header or missing final newline"
    rows = lines[1:-1]
    if len(rows) != k_end - k_start + 1:
        return f"expected {k_end - k_start + 1} rows, got {len(rows)}"
    a = pow(2, k_start - 1, M)
    for k, row in enumerate(rows, start=k_start):
        fields = row.split(",")
        if len(fields) != 3:
            return f"row for k={k} has {len(fields)} fields"
        rk, ra, rd = (int(f) for f in fields)
        if rk != k or ra != a:
            return f"row for k={k} reads k={rk}, a_k={ra}; expected a_k={a}"
        if not 0 <= rd < M or (ra * rd + 1) % M:
            return f"d_k={rd} at k={k} is not -(a_k)^-1 mod 3^{p}"
        a = 2 * a % M
    return None


def expected_ecs(p: int, k_start: int, k_end: int, buckets: int) -> dict[str, Fraction]:
    """Exact cd, rud, mbi and ecs of the window, as defined in ecs.py's docstring."""
    M = 3**p
    phi = 2 * 3 ** (p - 1)
    ds = d_window(p, k_start, k_end)
    n = len(ds)
    counts = Counter(ds)
    cd = Fraction(len(counts), phi)
    gap = sum(abs(Fraction(c, n) - Fraction(1, phi)) for c in counts.values())
    rud = (gap + Fraction(phi - len(counts), phi)) / 2
    fullest = max(Counter(d * buckets // M for d in ds).values())
    raw = (Fraction(fullest, n) - Fraction(1, buckets)) / (1 - Fraction(1, buckets))
    mbi = min(Fraction(1), max(Fraction(0), raw))
    ecs = Fraction(2, 5) * cd + Fraction(2, 5) * (1 - rud) + Fraction(1, 5) * (1 - mbi)
    return {"cd": cd, "rud": rud, "mbi": mbi, "ecs": ecs}


def check_ecs_report(
    text: str,
    exit_code: int,
    p: int,
    k_start: int,
    k_end: int,
    buckets: int,
    threshold: Fraction,
    expected: dict[str, Fraction],
) -> str | None:
    """The ecs JSON report against exact values, key order and exit code 0/3."""
    fields: dict[str, str] = {}
    for line in text.strip().split("\n")[1:-1]:
        key, _, value = line.strip().rstrip(",").partition(": ")
        fields[key.strip('"')] = value
    if tuple(fields) != ECS_KEYS:
        return f"ecs keys {tuple(fields)} differ from {ECS_KEYS}"
    if (int(fields["p"]), int(fields["k_start"]), int(fields["k_end"]), int(fields["buckets"])) != (
        p, k_start, k_end, buckets,
    ):
        return "ecs report echoes the wrong p, range or bucket count"
    exact = dict(expected, threshold=threshold)
    for key in ECS_FLOAT_KEYS:
        if not _FIXED6.fullmatch(fields[key]):
            return f"ecs field {key}={fields[key]} is not a six-decimal float"
        if abs(Fraction(fields[key]) - exact[key]) > SIX_DECIMAL_TOL:
            return f"ecs field {key}={fields[key]}, exact value {float(exact[key]):.9f}"
    admitted = expected["ecs"] >= threshold
    if fields["admitted"] != ("true" if admitted else "false"):
        return f"admitted={fields['admitted']} but exact ecs >= threshold is {admitted}"
    if exit_code != (0 if admitted else 3):
        return f"ecs exit code {exit_code} for admitted={admitted}"
    return None


def check_ecs_values(values: dict[str, float], expected: dict[str, Fraction]) -> str | None:
    """Library-level scores (floats) against the exact values."""
    for key, exact in expected.items():
        if abs(Fraction(values[key]) - exact) > Fraction(1, 10**9):
            return f"score {key}={values[key]!r}, exact value {float(exact)!r}"
    return None


def check_svg(text: str, points: int) -> str | None:
    """A complete SVG document with one <circle> per plotted point."""
    if not text.startswith("<?xml") or not text.endswith("</svg>\n"):
        return "SVG is not a complete document"
    circles = text.count("<circle ")
    if circles != points:
        return f"SVG has {circles} circles for {points} points"
    return None


def check_mask(p: int, k: int, d: int, token_bits: int, width: int, h: int, unmasked: int) -> str | None:
    """d is d_k, the masked seed is d XOR token, and unmask returns d."""
    M = 3**p
    if not 0 <= d < M or (pow(2, k - 1, M) * d + 1) % M:
        return f"d={d} is not d_{k} mod 3^{p}"
    if width < M.bit_length() or h ^ token_bits != d:
        return f"masked seed {h:#x} is not d XOR token"
    if unmasked != d:
        return f"unmask gave {unmasked}, expected {d}"
    return None


def check_mask_hex(text: str, p: int, k: int, token_bits: int, width: int) -> str | None:
    """``cyclemod mask`` output: d_k XOR token as lowercase hex padded to the width."""
    expected = format(d_of(k, 3**p) ^ token_bits, f"0{(width + 3) // 4}x") + "\n"
    if text != expected:
        return f"mask printed {text!r}, expected {expected!r}"
    return None


def check_identity(p: int, s: int, A: int, k: int, n: int, d: int, verified: bool) -> str | None:
    """3^p(s+1) - 1 = 2^(k-1) (2 3^p n + d) with an odd cofactor and d = d_k mod 3^p."""
    M = 3**p
    if A != M * (s + 1) - 1:
        return f"A={A} is not 3^{p}(s+1)-1 for s={s}"
    if k < 1 or not 0 <= d < 2 * M or n < 0 or d % 2 != 1:
        return f"witness k={k}, n={n}, d={d} is out of range or has an even cofactor"
    if A != 2 ** (k - 1) * (2 * M * n + d):
        return "witness does not multiply back to A"
    if d % M != d_of(k, M):
        return f"d mod 3^{p} = {d % M} is not d_{k}"
    if verified is not True:
        return "verify_identity rejected a correct witness"
    return None
