import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemod import modring
from cyclemod.errors import NotInvertible, OutOfRange
from cyclemod.modring import (
    P_MAX,
    Modulus,
    Residue,
    inverse_ct,
    inverse_ct_counted,
    inverse_euclid,
    inverse_euclid_counted,
    make_modulus,
)
from cyclemod.seedgen import decompose_identity
from oracles import search_inverse, slow_pow, units_of


@pytest.mark.parametrize("p,M,phi", [(1, 3, 2), (2, 9, 6), (3, 27, 18), (5, 243, 162)])
def test_make_modulus_values(p, M, phi):
    m = make_modulus(p)
    assert (m.p, m.M, m.phi) == (p, M, phi)
    assert m.phi < m.M


def test_make_modulus_exact_at_upper_bound():
    m = make_modulus(P_MAX)
    assert m.M == 3**80
    assert m.phi == 2 * 3**79


def test_make_modulus_shares_one_record_per_p():
    for p in range(1, P_MAX + 1):
        assert make_modulus(p) is make_modulus(p)
        assert make_modulus(p) == Modulus(p)


@pytest.mark.parametrize("p", [0, -3, P_MAX + 1])
def test_make_modulus_rejects_out_of_range(p):
    with pytest.raises(OutOfRange):
        make_modulus(p)


@pytest.mark.parametrize("p", [0, P_MAX + 1, 5.5, 10**100])
def test_modulus_rejects_p_without_a_ring(p):
    with pytest.raises(OutOfRange):
        Modulus(p)


@pytest.mark.parametrize(
    "p,M,phi",
    [
        (2, 9, 6),        # even the ring's own M and phi
        (2, 10, 4),       # neither M nor phi is that of p
        (2, 9, 4),        # phi wrong
        (3, 9, 18),       # M wrong
        (80, 3**79, 2 * 3**79),  # the ring of p - 1
        (0, 1, 1),
        (P_MAX + 1, 3 ** (P_MAX + 1), 2 * 3**P_MAX),
    ],
)
def test_modulus_rejects_inconsistent_parameters(p, M, phi):
    # p fixes M and phi, so a Modulus takes neither.
    with pytest.raises(TypeError):
        Modulus(p, M, phi)
    with pytest.raises(TypeError):
        Modulus(p=p, M=M, phi=phi)


def test_modulus_is_built_from_p_alone():
    m = Modulus(5)
    assert (m.p, m.M, m.phi) == (5, 243, 162)
    assert m == make_modulus(5) and hash(m) == hash(make_modulus(5))
    assert repr(m) == "Modulus(p=5, M=243, phi=162)"
    assert make_modulus(5.0).M == 243
    assert type(make_modulus(5.0).p) is int
    assert repr(make_modulus(True)) == "Modulus(p=1, M=3, phi=2)"
    assert type(decompose_identity(3.0, 2).p) is int
    # Built directly, not through make_modulus's table, which answers 5.0 and True itself.
    assert Modulus(5.0).bit_width == 8
    assert repr(Modulus(True)) == repr(Modulus(1))


def test_residue_construction_canonicalizes():
    m = make_modulus(2)
    assert m.residue(17).value == 8
    assert m.residue(-1).value == 8
    for value in (m.M, -1, 2.5, 3.0):
        with pytest.raises(OutOfRange):
            Residue(value, m)
    with pytest.raises(OutOfRange):  # 2.5 % 9 is a float, not a residue
        m.residue(2.5)


@pytest.mark.parametrize(
    "p,a,expected",
    [
        (2, 8, 8),     # exhaustive search over [1, 9)
        (3, 16, 22),   # 16 * 22 = 352 = 13*27 + 1
        (5, 1, 1),
    ],
)
def test_inverse_euclid_known_values(p, a, expected):
    m = make_modulus(p)
    assert search_inverse(a, m.M) == expected
    assert inverse_euclid(m.residue(a)).value == expected


@pytest.mark.parametrize("factory", [inverse_euclid, inverse_ct])
def test_inverse_rejects_multiples_of_three(factory):
    m = make_modulus(2)
    with pytest.raises(NotInvertible):
        factory(m.residue(3))
    with pytest.raises(NotInvertible):
        factory(m.residue(0))


def test_inverse_ct_identity():
    m = make_modulus(5)
    assert inverse_ct(m.residue(1)).value == 1


@pytest.mark.parametrize("p", range(1, 6))
def test_inversion_agrees_with_search_oracle_exhaustively(p):
    m = make_modulus(p)
    for a in units_of(p):
        expected = search_inverse(a, m.M)
        res = m.residue(a)
        assert inverse_euclid(res).value == expected
        assert inverse_ct(res).value == expected
        assert a * expected % m.M == 1


@pytest.mark.parametrize("p", range(1, 8))
def test_euclid_inverse_times_operand_is_one(p):
    m = make_modulus(p)
    for a in units_of(p):
        inv = inverse_euclid(m.residue(a))
        assert a * inv.value % m.M == 1


@pytest.mark.parametrize("p", range(1, 8))
def test_ct_ladder_step_count_is_operand_independent(p):
    m = make_modulus(p)
    counts = {inverse_ct_counted(a, m)[1] for a in units_of(p)}
    assert counts == {m.bit_width}


def test_euclid_step_count_varies_with_operand():
    m = make_modulus(5)
    counts = {inverse_euclid_counted(a, m)[1] for a in units_of(5)}
    assert len(counts) > 1


@pytest.mark.parametrize("p", range(1, 13))
def test_two_is_a_primitive_root(p):
    # 2^phi = 1 and no exponent in {1..phi-1} reaches 1 first.
    m = make_modulus(p)
    assert pow(2, m.phi, m.M) == 1
    acc = 2 % m.M
    for _ in range(m.phi - 1):
        assert acc != 1
        acc = acc * 2 % m.M
    assert acc == 1


@settings(max_examples=200)
@given(p=st.integers(1, P_MAX), x=st.integers(1, 3**P_MAX))
def test_ct_equals_euclid_on_random_units(p, x):
    m = make_modulus(p)
    x %= m.M
    a = m.residue(x if x % 3 else x + 1)
    inv, steps = inverse_ct_counted(a.value, m)
    assert m.residue(inv) == inverse_ct(a) == inverse_euclid(a)
    assert a.value * inv % m.M == 1
    assert steps == m.bit_width
    # slow_pow makes phi - 1 multiplies, so it can only vouch for small rings.
    if p <= 8:
        assert inv == slow_pow(a.value, m.phi - 1, m.M)


@pytest.mark.parametrize("p", [*range(1, 8), 80])
def test_ct_ladder_multiplies_by_the_operand_once_per_exponent_one_bit(p, monkeypatch):
    # The square-and-multiply loop runs inside the builtin pow, whose
    # multiplies follow the bits of its exponent, so the contract is the one
    # public exponent the kernel hands it: one per ring, bit_width bits
    # long and -1 (mod phi), whatever the unit.
    m = make_modulus(p)
    if p <= 7:
        units = sorted(units_of(p))
    else:
        rng = random.Random(p)
        units = [x for x in (rng.randrange(1, m.M) for _ in range(400)) if x % 3][:200]
    calls = []

    def spy(x, e, M):
        calls.append((e, M))
        return pow(x, e, M)

    monkeypatch.setattr(modring, "pow", spy, raising=False)
    for value in units:
        before = len(calls)
        assert value * inverse_ct(Residue(value, m)).value % m.M == 1
        assert len(calls) == before + 1
    assert len(set(calls)) == 1
    e, M = calls[0]
    assert M == m.M
    assert e.bit_length() == m.bit_width
    assert e % m.phi == m.phi - 1
    assert e == {7: 2915, 80: m.phi - 1}.get(p, e)
