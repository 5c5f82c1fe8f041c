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
