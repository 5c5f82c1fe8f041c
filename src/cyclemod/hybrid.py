"""Hybrid seeds: residues combined with auxiliary entropy.

Two compositions are offered: bitwise XOR masking, which is lossless and
invertible (``unmask`` recovers the residue), and an injectable
conditioner hook for callers that want to run ``encode(d) || r`` through
their own KDF or hash. No cryptographic primitive is implemented here;
the shipped conditioner is the identity on the concatenated bytes.

Bit strings are held as nonnegative ints with an explicit width and
serialize as lowercase hex, most-significant bit first. A token must be
at least the bit width of M wide (the CLI's default), so no residue bit
is ever truncated.
"""

from __future__ import annotations

import os
from itertools import count
from typing import Callable, Iterator, Literal

from .errors import OutOfRange, SourceUnavailable, WidthMismatch
from .modring import Record, Residue, make_modulus

# Odd 64-bit mixing constants for the counter-based test source
# (successive tokens always differ because the stride is odd).
_MIX_SEED = 0x9E3779B97F4A7C15
_MIX_STEP = 0xBF58476D1CE4E5B9

Conditioner = Callable[[bytes], bytes]


class EntropyToken(Record):
    """A fixed-width bit string from some entropy source."""

    __slots__ = ("bits", "width", "source_id")

    def __init__(self, bits: int, width: int, source_id: str = "explicit") -> None:
        if not isinstance(width, int) or width < 1:
            raise OutOfRange(f"token width must be an integer >= 1, got {width!r}")
        if not isinstance(bits, int):
            raise OutOfRange(f"token bits must be an integer, got {bits!r}")
        if not 0 <= bits < (1 << width):
            raise WidthMismatch(f"token bits do not fit in {width} bits: {bits:#x}")
        self._bind(bits, width, source_id)

    def hex(self) -> str:
        return format(self.bits, f"0{(self.width + 3) // 4}x")

    def to_bytes(self) -> bytes:
        return self.bits.to_bytes((self.width + 7) // 8, "big")


class HybridSeed(Record):
    """Masked or conditioned seed bits plus their provenance."""

    __slots__ = ("h", "width", "k", "p", "method")

    def hex(self) -> str:
        return format(self.h, f"0{(self.width + 3) // 4}x")


def token_from_hex(text: str, width: int) -> EntropyToken:
    """Parse a hex string into a token of the given width."""
    try:
        bits = int(text, 16)
    except ValueError:
        raise OutOfRange(f"not a hex string: {text!r}") from None
    return EntropyToken(bits, width, "hex")


def identity_conditioner(data: bytes) -> bytes:
    """Placeholder conditioner: returns the concatenation unchanged."""
    return data


def encode_residue(d: Residue) -> bytes:
    """Big-endian byte encoding of a residue, padded to the ring width."""
    width = d.modulus.bit_width
    return d.value.to_bytes((width + 7) // 8, "big")


def mask_xor(d: Residue, r: EntropyToken, k: int | None = None) -> HybridSeed:
    """h = bits(d) XOR r, zero-padded to the token width."""
    needed = d.modulus.bit_width
    if r.width < needed:
        raise WidthMismatch(f"token width {r.width} cannot hold a residue of {needed} bits")
    return HybridSeed(d.value ^ r.bits, r.width, k, d.modulus.p, "xor")


def unmask(seed: HybridSeed, r: EntropyToken) -> Residue:
    """Invert mask_xor: recover the residue from seed and token."""
    if seed.method != "xor":
        raise OutOfRange(f"only xor seeds can be unmasked, got {seed.method!r}")
    if r.width != seed.width:
        raise WidthMismatch(f"token width {r.width} != seed width {seed.width}")
    # Residue refuses an XOR at or past M; an XOR of ints >= 0 is never negative.
    return Residue(seed.h ^ r.bits, make_modulus(seed.p))


def mask_conditioned(
    d: Residue,
    r: EntropyToken,
    conditioner: Conditioner = identity_conditioner,
    k: int | None = None,
) -> HybridSeed:
    """h = conditioner(encode(d) || r); errors from the hook propagate."""
    out = conditioner(encode_residue(d) + r.to_bytes())
    return HybridSeed(int.from_bytes(out, "big"), 8 * len(out), k, d.modulus.p, "conditioner")


def entropy_source(
    kind: Literal["deterministic_test", "os"], width: int, *, seed: int = 0
) -> Iterator[EntropyToken]:
    """Stream of entropy tokens; exclusive to one consumer.

    ``deterministic_test`` is a reproducible counter construction:
    token n carries ``(seed' + n * step) mod 2^width`` with fixed odd
    mixing constants, so equal seeds give identical streams and
    successive tokens always differ. ``os`` draws from the platform
    randomness facility.
    """
    EntropyToken(0, width)  # the token's width rule, applied at the call
    if not isinstance(seed, int):
        raise OutOfRange(f"entropy seed must be an integer, got {seed!r}")
    if kind == "deterministic_test":
        mask = (1 << width) - 1
        base = (seed * _MIX_SEED + _MIX_SEED) & mask
        step = _MIX_STEP & mask  # odd, hence nonzero for every width >= 1
        return (
            EntropyToken((base + n * step) & mask, width, f"test(seed={seed})[{n}]")
            for n in count()
        )
    if kind == "os":
        try:
            os.urandom(1)
        except NotImplementedError as exc:
            raise SourceUnavailable("platform randomness facility unavailable") from exc
        nbytes = (width + 7) // 8
        shift = 8 * nbytes - width
        return (
            EntropyToken(int.from_bytes(os.urandom(nbytes), "big") >> shift, width, f"os[{n}]")
            for n in count()
        )
    raise OutOfRange(f"unknown entropy source kind {kind!r}")
