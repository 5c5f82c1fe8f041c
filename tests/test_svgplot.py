"""render_residue_svg against the point-by-point reference renderer."""

import pytest
from oracles import first_difference, pow_d, svg_reference

from cyclemod import generate_sequence, render_residue_svg
from cyclemod.svgplot import CHUNK

K_START = 10**9 + 7


def _cases():
    for p in (1, 2, 7, 80):
        phi = 2 * 3 ** (p - 1)
        # phi - 1 .. phi + 1 cross the y-cache switch, the others the chunk edges;
        # at p = 80 one period is far past the plot cap, so only the latter remain.
        lengths = {1, 2, phi - 1, phi, phi + 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1}
        for n in sorted(n for n in lengths if 1 <= n <= 2 * CHUNK + 1):
            yield p, n


@pytest.mark.parametrize("p,n", list(_cases()))
def test_render_matches_reference_byte_for_byte(p, n):
    seq = generate_sequence(p, K_START, K_START + n - 1)
    d_list = [pow_d(k, p) for k in range(K_START, K_START + n)]
    assert first_difference(render_residue_svg(seq), svg_reference(p, K_START, d_list)) is None


def test_render_matches_reference_at_the_benchmark_shape():
    # audit-p7's plot: 10^5 points from k near 10^12, so 25 chunks that cycle
    # one period of y text.
    k_start, n = 10**12, 100_000
    seq = generate_sequence(7, k_start, k_start + n - 1)
    d_list = [pow_d(k, 7) for k in range(k_start, k_start + n)]
    assert first_difference(render_residue_svg(seq), svg_reference(7, k_start, d_list)) is None


@pytest.mark.parametrize("n", [1, 2, CHUNK + 1])
def test_circles_take_their_fill_from_one_group(n):
    svg = render_residue_svg(generate_sequence(7, K_START, K_START + n - 1))
    circles = [line for line in svg.splitlines() if line.startswith("<circle")]
    # perfbench's oracle counts one "<circle " per point.
    assert svg.count("<circle ") == len(circles) == n
    assert not any("fill=" in line for line in circles)
    assert svg.count("<g") == svg.count("</g>") == 1
    group = svg[svg.index("<g"):svg.index("</g>")]
    assert group.startswith('<g fill="#1f4e8c">\n') and group.count("<circle ") == n
    assert svg.endswith("</g>\n</svg>\n")
