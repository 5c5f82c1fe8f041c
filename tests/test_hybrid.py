import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemod.errors import OutOfRange, SourceUnavailable, WidthMismatch
from cyclemod.hybrid import (
    _MIX_STEP,
    EntropyToken,
    encode_residue,
    entropy_source,
    identity_conditioner,
    mask_conditioned,
    mask_xor,
    token_from_hex,
    unmask,
)
from cyclemod.modring import make_modulus
from cyclemod.seedgen import compute_d, orbit


def test_zero_token_is_the_identity_mask():
    m = make_modulus(3)
    d = compute_d(5, m)
    seed = mask_xor(d, EntropyToken(bits=0, width=m.bit_width), k=5)
    assert seed.h == d.value == 5
    assert seed.hex() == "05"
    assert seed.method == "xor"
    assert (seed.k, seed.p) == (5, 3)


def test_known_bitwise_mask():
    # d=5 is 0b00101; r=0b10011; expect 0b10110
    m = make_modulus(3)
    seed = mask_xor(m.residue(5), EntropyToken(bits=0b10011, width=5))
    assert seed.h == 0b10110 == 0x16
    assert seed.hex() == "16"


def test_mask_round_trip_is_involutive():
    m = make_modulus(4)
    r = EntropyToken(bits=0x55, width=m.bit_width)
    for value in (1, 2, 40, 80):
        d = m.residue(value)
        assert unmask(mask_xor(d, r), r) == d


def test_mask_rejects_narrow_tokens():
    m = make_modulus(3)  # needs 5 bits
    with pytest.raises(WidthMismatch):
        mask_xor(m.residue(5), EntropyToken(bits=1, width=4))


def test_token_validates_its_own_width():
    with pytest.raises(WidthMismatch):
        EntropyToken(bits=32, width=5)
    with pytest.raises(OutOfRange):
        EntropyToken(bits=0, width=0)
    with pytest.raises(OutOfRange):
        EntropyToken(bits=1.0, width=4)
    with pytest.raises(OutOfRange):
        EntropyToken(bits=5, width=4.0)
    with pytest.raises(OutOfRange):
        token_from_hex("ab", 8.0)


def test_output_width_follows_the_token():
    m = make_modulus(2)
    seed = mask_xor(m.residue(7), EntropyToken(bits=0xBEEF, width=16))
    assert seed.width == 16
    assert len(seed.hex()) == 4
    assert unmask(seed, EntropyToken(bits=0xBEEF, width=16)).value == 7


def test_unmask_needs_matching_width():
    m = make_modulus(2)
    seed = mask_xor(m.residue(7), EntropyToken(bits=3, width=8))
    with pytest.raises(WidthMismatch):
        unmask(seed, EntropyToken(bits=3, width=9))


def test_unmask_rejects_conditioned_seeds_and_non_residues():
    m = make_modulus(2)  # M = 9 in 4 bits
    r = EntropyToken(bits=3, width=m.bit_width)
    with pytest.raises(OutOfRange, match="only xor seeds"):
        unmask(mask_conditioned(m.residue(7), r), r)
    seed = mask_xor(m.residue(7), EntropyToken(bits=0, width=4))
    with pytest.raises(OutOfRange):  # 7 ^ 8 = 15 lies in [M, 2^4)
        unmask(seed, EntropyToken(bits=8, width=4))


@settings(max_examples=500)
@given(p=st.integers(1, 5), k=st.integers(1, 400), data=st.data())
def test_xor_round_trip_property(p, k, data):
    m = make_modulus(p)
    d = compute_d(k, m)
    bits = data.draw(st.integers(0, 2**m.bit_width - 1))
    r = EntropyToken(bits=bits, width=m.bit_width)
    assert unmask(mask_xor(d, r), r) == d


@pytest.mark.parametrize("p", range(1, 6))
def test_xor_round_trip_full_orbit(p):
    m = make_modulus(p)
    rng = random.Random(1000 + p)
    width = m.bit_width
    for value in orbit(p)[0]:
        d = m.residue(value)
        r = EntropyToken(bits=rng.getrandbits(width), width=width)
        assert unmask(mask_xor(d, r), r) == d


def test_hex_serialization_is_lowercase_msb_first():
    token = EntropyToken(bits=0xAB, width=8)
    assert token.hex() == "ab"
    assert token_from_hex("ab", 8) == EntropyToken(bits=0xAB, width=8, source_id="hex")
    with pytest.raises(TypeError):
        token_from_hex("ab", 8, "explicit")  # a parsed token's source is always "hex"


def test_conditioner_identity_stub_concatenates():
    m = make_modulus(3)
    d = m.residue(5)
    r = EntropyToken(bits=0x13, width=5)
    seed = mask_conditioned(d, r)
    assert seed.method == "conditioner"
    expected = encode_residue(d) + r.to_bytes()
    assert seed.h == int.from_bytes(expected, "big")
    assert seed.width == 8 * len(expected)


def test_conditioner_is_deterministic_and_token_sensitive():
    m = make_modulus(3)
    d = m.residue(5)
    r1 = EntropyToken(bits=0x13, width=5)
    r2 = EntropyToken(bits=0x14, width=5)
    assert mask_conditioned(d, r1) == mask_conditioned(d, r1)
    assert mask_conditioned(d, r1) != mask_conditioned(d, r2)


def test_conditioner_hook_is_injectable():
    m = make_modulus(2)
    seen = []

    def recording(data: bytes) -> bytes:
        seen.append(data)
        return data[::-1]

    seed = mask_conditioned(m.residue(7), EntropyToken(bits=1, width=4), recording)
    assert seen == [encode_residue(m.residue(7)) + b"\x01"]
    assert seed.h == int.from_bytes(seen[0][::-1], "big")


def test_conditioner_errors_propagate():
    def broken(_: bytes) -> bytes:
        raise RuntimeError("conditioner exploded")

    m = make_modulus(2)
    with pytest.raises(RuntimeError, match="exploded"):
        mask_conditioned(m.residue(7), EntropyToken(bits=1, width=4), broken)


def test_identity_conditioner_is_identity():
    assert identity_conditioner(b"\x00\x42") == b"\x00\x42"


def test_deterministic_source_reproducible():
    a = list(itertools.islice(entropy_source("deterministic_test", 8, seed=7), 20))
    b = list(itertools.islice(entropy_source("deterministic_test", 8, seed=7), 20))
    assert a == b
    c = list(itertools.islice(entropy_source("deterministic_test", 8, seed=8), 20))
    assert [t.bits for t in a] != [t.bits for t in c]


def test_deterministic_source_successive_tokens_differ():
    stream = entropy_source("deterministic_test", 5, seed=0)
    previous = next(stream)
    for token in itertools.islice(stream, 50):
        assert token.bits != previous.bits
        previous = token
    # The stride is odd, so a unit mod 2^width: no width lets token n + 1 repeat token n.
    assert _MIX_STEP % 2 == 1
    for seed in (0, 1, 7, 2**64 + 5):
        for width in range(1, 257):
            stream = entropy_source("deterministic_test", width, seed=seed)
            bits = [token.bits for token in itertools.islice(stream, 4)]
            assert all(a != b for a, b in zip(bits, bits[1:])), (seed, width, bits)


def test_source_tokens_have_declared_width():
    for token in itertools.islice(entropy_source("deterministic_test", 11, seed=3), 10):
        assert token.width == 11
        assert 0 <= token.bits < 2**11


def test_os_source_yields_tokens():
    tokens = list(itertools.islice(entropy_source("os", 16), 4))
    assert all(t.width == 16 and 0 <= t.bits < 2**16 for t in tokens)


@pytest.mark.parametrize("width", [5, 11, 127])
def test_os_source_drops_the_spare_bits_of_its_last_byte(width):
    # Widths that are not a multiple of 8 draw whole bytes and shift the spare bits out.
    for token in itertools.islice(entropy_source("os", width), 64):
        assert token.width == width
        assert 0 <= token.bits < 2**width


def test_os_source_unavailable_raises_at_the_call(monkeypatch):
    def no_facility(n):
        raise NotImplementedError

    monkeypatch.setattr("os.urandom", no_facility)
    with pytest.raises(SourceUnavailable):
        entropy_source("os", 8)


@pytest.mark.parametrize("kind", ["deterministic_test", "os"])
def test_source_rejects_zero_width_at_the_call(kind):
    with pytest.raises(OutOfRange):
        entropy_source(kind, 0)


@pytest.mark.parametrize("kind", ["deterministic_test", "os"])
def test_source_rejects_a_non_integer_width_at_the_call(kind):
    with pytest.raises(OutOfRange):
        entropy_source(kind, 4.0)


@pytest.mark.parametrize("seed", [1.5, None, "3"])
@pytest.mark.parametrize("kind", ["deterministic_test", "os"])
def test_source_rejects_a_non_integer_seed_at_the_call(kind, seed):
    with pytest.raises(OutOfRange):
        entropy_source(kind, 8, seed=seed)


def test_source_rejects_unknown_kind():
    with pytest.raises(OutOfRange):
        entropy_source("quantum", 8)  # type: ignore[arg-type]
