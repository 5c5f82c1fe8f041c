"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's own code paths: inverses come
from exhaustive search, powers from repeated multiplication, and
distributions from hand-countable loops. ``first_difference`` says where
a long output and its reference text first differ.
"""

import os
from collections import Counter
from fractions import Fraction


def search_inverse(a: int, M: int) -> int | None:
    """Smallest t in [1, M) with a*t = 1 (mod M), or None."""
    for t in range(1, M):
        if a * t % M == 1:
            return t
    return None


def slow_pow(base: int, exp: int, M: int) -> int:
    """Repeated multiplication, no squaring shortcuts."""
    acc = 1 % M
    for _ in range(exp):
        acc = acc * base % M
    return acc


def brute_d(k: int, p: int) -> int:
    """d_k by exhaustive-search inversion of 2^(k-1)."""
    M = 3**p
    a = slow_pow(2, k - 1, M)
    inv = search_inverse(a, M)
    assert inv is not None
    return (M - inv) % M


def pow_d(k: int, p: int) -> int:
    """d_k from Python's built-in modular inverse of 2^(k-1); fast at any k."""
    M = 3**p
    return -pow(2, -(k - 1), M) % M


def ecs_reference(p: int, k_start: int, k_end: int, buckets: int) -> tuple[Fraction, ...]:
    """Exact (cd, rud, mbi, ecs) from a count of every d_k in the range.

    The d_k come from ``pow_d``. rud is half the summed gap between each
    unit's share and 1/phi, counting every unvisited unit at 1/phi; mbi
    normalizes the fullest bucket's share against 1/B. Any bucket count works.
    """
    M, phi = 3**p, 2 * 3 ** (p - 1)
    counts = Counter(pow_d(k, p) for k in range(k_start, k_end + 1))
    total = k_end - k_start + 1
    cd = Fraction(len(counts), phi)
    # |c/total - 1/phi| = |c*phi - total| / (total*phi), summed as integers
    visited_gap = Fraction(sum(abs(c * phi - total) for c in counts.values()), total * phi)
    rud = (visited_gap + Fraction(phi - len(counts), phi)) / 2
    per_bucket = Counter()
    for value, c in counts.items():
        per_bucket[value * buckets // M] += c
    f_max = Fraction(max(per_bucket.values()), total)
    mbi = (f_max - Fraction(1, buckets)) / (1 - Fraction(1, buckets))
    ecs = Fraction(2, 5) * cd + Fraction(2, 5) * (1 - rud) + Fraction(1, 5) * (1 - mbi)
    return cd, rud, mbi, ecs


def units_of(p: int) -> set[int]:
    M = 3**p
    return {x for x in range(1, M) if x % 3 != 0}


def svg_reference(p: int, k_start: int, d_list: list[int]) -> str:
    """The residue map drawn point by point with per-point f-strings.

    A plain-int copy of the original one-element-per-point renderer:
    800x400 view, margins 56/20/36/44, .2f coordinates, polyline before
    the circles, which sit in one group that gives their fill.
    """
    M = 3**p
    k_end = k_start + len(d_list) - 1
    x0, x1 = 56, 800 - 20
    y0, y1 = 400 - 44, 36
    k_span = max(k_end - k_start, 1)
    d_span = max(M - 1, 1)

    def sx(k):
        return x0 + (k - k_start) * (x1 - x0) / k_span

    def sy(d):
        return y0 + d * (y1 - y0) / d_span

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 400" '
        'width="800" height="400">\n',
        '<rect x="0" y="0" width="800" height="400" fill="white"/>\n',
        '<text x="400" y="22" text-anchor="middle" '
        f'font-family="monospace" font-size="16">d_k mod 3^{p}</text>\n',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>\n',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>\n',
        f'<text x="{(x0 + x1) // 2}" y="390" text-anchor="middle" '
        'font-family="monospace" font-size="12">k</text>\n',
        f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" '
        'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {(y0 + y1) // 2})">d_k</text>\n',
    ]
    for k, anchor in ((k_start, "start"), (k_end, "end")):
        parts.append(
            f'<text x="{sx(k):.2f}" y="{y0 + 16}" text-anchor="{anchor}" '
            f'font-family="monospace" font-size="11">{k}</text>\n'
        )
    for d in (0, M - 1):
        parts.append(
            f'<text x="{x0 - 6}" y="{sy(d) + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{d}</text>\n'
        )
    points = list(zip(range(k_start, k_end + 1), d_list))
    if len(points) > 1:
        coords = " ".join(f"{sx(k):.2f},{sy(d):.2f}" for k, d in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#888888" stroke-width="0.5"/>\n'
        )
    parts.append('<g fill="#1f4e8c">\n')
    for k, d in points:
        parts.append(f'<circle cx="{sx(k):.2f}" cy="{sy(d):.2f}" r="2"/>\n')
    parts.append("</g>\n</svg>\n")
    return "".join(parts)


def first_difference(actual: str, expected: str) -> tuple[int, str, str] | None:
    """None for equal texts, else (line, actual, expected) at their first difference.

    The line is that of the first differing character, and actual and expected
    are 40 characters of each text from it. ``assert first_difference(a, b) is
    None`` is as exact as ``a == b``, but a failure prints this short tuple, not
    pytest's diff of two long texts.
    """
    if actual == expected:
        return None
    i = len(os.path.commonprefix([actual, expected]))
    return actual.count("\n", 0, i) + 1, actual[i : i + 40], expected[i : i + 40]
