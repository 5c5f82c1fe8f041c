#!/usr/bin/env python3
"""Combine deterministic residues with auxiliary entropy.

XOR masking is lossless: the token width covers every residue bit, so
the residue is recoverable whenever the token is known. The conditioner
path instead hands encode(d) || r to an injectable byte-level hook (a
KDF or hash in real deployments; the shipped stub is the identity).
"""

import itertools

from cyclemod import (
    EntropyToken,
    compute_d,
    entropy_source,
    make_modulus,
    mask_conditioned,
    mask_xor,
    unmask,
)

m = make_modulus(5)
d = compute_d(9, m)
print(f"residue d_9 mod 243 = {d.value}")

token = EntropyToken(bits=0b10110101, width=m.bit_width)
seed = mask_xor(d, token, k=9)
print(f"token {token.hex()} -> hybrid seed {seed.hex()}")
print(f"unmask recovers {unmask(seed, token).value}")

print("\nreproducible test-source stream (seed 7):")
stream = entropy_source("deterministic_test", m.bit_width, seed=7)
for tok in itertools.islice(stream, 4):
    print(f"  {tok.source_id}: {tok.hex()}")

print("\nconditioner hook (identity stub -> concatenation):")
stub = mask_conditioned(d, token, k=9)
print(f"  h = {stub.hex()} ({stub.width} bits)")


def xor_fold(data: bytes) -> bytes:
    """Toy conditioner: fold the input to a single byte."""
    acc = 0
    for b in data:
        acc ^= b
    return bytes([acc])


folded = mask_conditioned(d, token, xor_fold, k=9)
print(f"  custom conditioner output: {folded.hex()} ({folded.width} bits)")
