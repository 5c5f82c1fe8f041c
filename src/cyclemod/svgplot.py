"""Hand-emitted SVG residue maps.

No plotting dependency: the byte output must be identical for identical
inputs so it can be pinned by golden tests. Coordinates are formatted
with .2f, integers stay integers, and the element order is fixed.

The data points are drawn in one formatting pass over chunks of CHUNK
points taken from the sequence's d_k walk: one % formats a chunk's
polyline text "x,y x,y ...", and no d_k or coordinate list spans the
whole range. Past one period the d_k repeat, so only the first period is
walked and its y text is cycled. The circles are then made from each
chunk's span of the polyline text by two str.replace calls, so every
coordinate is formatted once.

The polyline's texts are joined once, into a block of their own, and the
circles then grow that str in place; only the peak depends on this, not the bytes.
"""

from __future__ import annotations

from itertools import accumulate, chain, cycle, islice, repeat
from operator import add, truediv

from .seedgen import SeedSequence

VIEW_W = 800
VIEW_H = 400
MARGIN_L = 56
MARGIN_R = 20
MARGIN_T = 36
MARGIN_B = 44
# Points formatted per pass of the data loop.
CHUNK = 4096

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW_W} {VIEW_H}" '
    f'width="{VIEW_W}" height="{VIEW_H}">\n'
)
_CIRCLE_START, _CIRCLE_END = '<circle cx="', '" r="2" fill="#1f4e8c"/>\n'


def render_residue_svg(seq: SeedSequence) -> str:
    """Scatter + line plot of (k, d_k) with axes and a fixed title."""
    m = seq.modulus

    x0, x1 = MARGIN_L, VIEW_W - MARGIN_R
    y0, y1 = VIEW_H - MARGIN_B, MARGIN_T
    k_span = max(seq.k_end - seq.k_start, 1)
    d_span = m.M - 1  # M >= 3 for every p
    dx, dy = x1 - x0, y1 - y0
    x_end = x0 + (seq.k_end - seq.k_start) * dx / k_span

    svg = _HEADER + f'<rect x="0" y="0" width="{VIEW_W}" height="{VIEW_H}" fill="white"/>\n'
    svg += (
        f'<text x="{VIEW_W // 2}" y="22" text-anchor="middle" '
        f'font-family="monospace" font-size="16">d_k mod 3^{m.p}</text>\n'
    )
    # axes
    svg += f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>\n'
    svg += f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>\n'
    # axis labels and extreme ticks; (M-1)*dy/(M-1) is exactly dy, so d = M-1 sits at y1
    svg += (
        f'<text x="{(x0 + x1) // 2}" y="{VIEW_H - 10}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">k</text>\n'
    )
    svg += (
        f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {(y0 + y1) // 2})">d_k</text>\n'
    )
    for k, x, anchor in ((seq.k_start, x0, "start"), (seq.k_end, x_end, "end")):
        svg += (
            f'<text x="{x:.2f}" y="{y0 + 16}" text-anchor="{anchor}" '
            f'font-family="monospace" font-size="11">{k}</text>\n'
        )
    for d, y in ((0, y0), (m.M - 1, y1)):
        svg += (
            f'<text x="{x0 - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{d}</text>\n'
        )
    # data: the connecting polyline, then the scatter points. Each CHUNK of
    # points is formatted by one % as its "x,y x,y ..." text, which goes into
    # the polyline; the circles are then made from that text, span by span.
    n = len(seq)
    y_texts = (f"{y0 + d * dy / d_span:.2f}" for d in seq.walk())
    if n > m.phi:
        # Past one period the d_k repeat, so one period of y text is cycled.
        y_texts = cycle(list(islice(y_texts, m.phi)))
    if n == 1:  # a single point draws no polyline
        return svg + _circles(f"{x0:.2f},{next(y_texts)}") + "</svg>\n"
    parts = [svg, '<polyline points="']
    for start in range(0, n, CHUNK):
        c = min(CHUNK, n - start)
        # x0 + i * dx / k_span for i in start .. start + c - 1, as C-level maps
        xs = map(add, repeat(x0, c), map(truediv, range(start * dx, (start + c) * dx, dx),
                                         repeat(k_span, c)))
        if start:
            parts.append(" ")
        parts.append(" ".join(repeat("%.2f,%s", c)) % tuple(chain.from_iterable(
            zip(xs, islice(y_texts, c)))))
    parts.append('" fill="none" stroke="#888888" stroke-width="0.5"/>\n')
    # One join, not +=: a str grown in the brk heap may be moved out later and strand its pages.
    ends = list(accumulate(map(len, parts)))  # each chunk's text ends at ends[2 + 2i]
    svg = "".join(parts)
    del parts
    for span in map(slice, ends[1::2], ends[2::2]):
        svg += _circles(svg[span])
    svg += "</svg>\n"
    return svg


def _circles(points: str) -> str:
    """One circle per point of a polyline's "x,y x,y ..." text.

    Coordinate texts are always digits and one dot, so the only spaces and
    commas are the separators.
    """
    circles = points.replace(" ", _CIRCLE_END + _CIRCLE_START).replace(",", '" cy="')
    return _CIRCLE_START + circles + _CIRCLE_END
