"""Hand-emitted SVG residue maps.

No plotting dependency: the byte output must be identical for identical
inputs so it can be pinned by golden tests. Coordinates are formatted
with .2f, integers stay integers, and the element order is fixed.
"""

from __future__ import annotations

from .seedgen import SeedSequence

VIEW_W = 800
VIEW_H = 400
MARGIN_L = 56
MARGIN_R = 20
MARGIN_T = 36
MARGIN_B = 44

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW_W} {VIEW_H}" '
    f'width="{VIEW_W}" height="{VIEW_H}">\n'
)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_residue_svg(seq: SeedSequence) -> str:
    """Scatter + line plot of (k, d_k) with axes and a fixed title."""
    m = seq.modulus
    ks = range(seq.k_start, seq.k_end + 1)
    ds = seq.d_values()

    x0, x1 = MARGIN_L, VIEW_W - MARGIN_R
    y0, y1 = VIEW_H - MARGIN_B, MARGIN_T
    k_span = max(seq.k_end - seq.k_start, 1)
    d_span = max(m.M - 1, 1)

    def sx(k: int) -> float:
        return x0 + (k - seq.k_start) * (x1 - x0) / k_span

    def sy(d: int) -> float:
        return y0 + d * (y1 - y0) / d_span

    parts = [_HEADER]
    parts.append(f'<rect x="0" y="0" width="{VIEW_W}" height="{VIEW_H}" fill="white"/>\n')
    parts.append(
        f'<text x="{VIEW_W // 2}" y="22" text-anchor="middle" '
        f'font-family="monospace" font-size="16">d_k mod 3^{m.p}</text>\n'
    )
    # axes
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>\n'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>\n'
    )
    # axis labels and extreme ticks
    parts.append(
        f'<text x="{(x0 + x1) // 2}" y="{VIEW_H - 10}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">k</text>\n'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {(y0 + y1) // 2})">d_k</text>\n'
    )
    for k, anchor in ((seq.k_start, "start"), (seq.k_end, "end")):
        parts.append(
            f'<text x="{_fmt(sx(k))}" y="{y0 + 16}" text-anchor="{anchor}" '
            f'font-family="monospace" font-size="11">{k}</text>\n'
        )
    for d in (0, m.M - 1):
        parts.append(
            f'<text x="{x0 - 6}" y="{_fmt(sy(d) + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{d}</text>\n'
        )
    # data: connecting polyline, then the scatter points
    if len(ks) > 1:
        coords = " ".join(f"{_fmt(sx(k))},{_fmt(sy(d))}" for k, d in zip(ks, ds))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#888888" '
            f'stroke-width="0.5"/>\n'
        )
    for k, d in zip(ks, ds):
        parts.append(
            f'<circle cx="{_fmt(sx(k))}" cy="{_fmt(sy(d))}" r="2" fill="#1f4e8c"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
