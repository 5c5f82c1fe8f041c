"""Inverse-consistent residue sequences over Z/3^pZ.

The generator maps an index k to the unit

    d_k = -(2^(k-1))^-1 mod 3^p

so every record satisfies 2^(k-1) * d_k = -1 (mod 3^p). Because 2
generates the full unit group mod 3^p, the d_k walk is periodic with
period phi(3^p) and visits every unit exactly once per period. A
``SeedSequence`` is therefore just its k range: it stores no d_k, and
its consumers walk them on demand.

The same residues arise from the integer identity

    3^p * (s+1) - 1 = 2^(k-1) * (2 * 3^p * n + d)

which ``decompose_identity`` recovers uniquely by splitting off the full
power of two of the left-hand side.
"""

from __future__ import annotations

import sys
from typing import Iterator

from .errors import OutOfRange
from .modring import Modulus, Record, Residue, inverse_ct, make_modulus

# Orbit enumeration holds one full period in a set, at 66-99 bytes per
# unit: phi(3^14) = 3.2M units is about 0.3 GB.
ORBIT_P_LIMIT = 14


class SeedSequence(Record):
    """The consecutive k range [k_start, k_end] of d_k mod 3^p."""

    __slots__ = ("modulus", "k_start", "k_end")

    def __init__(self, modulus: Modulus, k_start: int, k_end: int) -> None:
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "k_start", k_start)
        object.__setattr__(self, "k_end", k_end)

    def __len__(self) -> int:
        # A range built directly with k_end < k_start is empty, like range(5, 4).
        return max(0, self.k_end - self.k_start + 1)

    def walk(self) -> Iterator[int]:
        """d_k for k = k_start..k_end as plain ints.

        The inverses of consecutive powers of two differ by a factor of 2^-1,
        and negation commutes with that, so d_{k+1} = d_k * 2^-1 (mod M). M is
        odd, so that is a halving with no inversion, multiply or reduction:
        d / 2 for an even d, (d + M) / 2 for an odd one. A walk costs one
        inversion, for d_{k_start}. The halving branches on the low bit of
        d_k, which is public output; the keyed ``mask`` path calls
        ``compute_d`` and never walks.
        """
        M = self.modulus.M
        d = compute_d(self.k_start, self.modulus).value
        for _ in range(self.k_start, self.k_end + 1):
            yield d
            d = (d + M) >> 1 if d & 1 else d >> 1

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        """(k, a_k, d_k) rows as plain ints; a_k doubles from one k to the next."""
        M = self.modulus.M
        a = compute_a(self.k_start, self.modulus).value
        for k, d in enumerate(self.walk(), self.k_start):
            yield k, a, d
            a <<= 1
            if a >= M:
                a -= M

    def d_values(self) -> list[int]:
        return list(self.walk())


class IdentityWitness(Record):
    """Integer-level decomposition A = 2^(k-1) * (2 * 3^p * n + d).

    Fields are stored as produced; ``verify_identity`` is the checker, so
    deliberately inconsistent witnesses can be constructed for testing.
    Note d is the *unreduced* odd cofactor remainder in [0, 2*3^p); its
    reduction mod 3^p equals the canonical d_k.
    """

    __slots__ = ("p", "s", "A", "k", "n", "d")

    def __init__(self, p: int, s: int, A: int, k: int, n: int, d: int) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)


def compute_a(k: int, m: Modulus) -> Residue:
    """a_k = 2^(k-1) mod M."""
    if k < 1:
        raise OutOfRange(f"k must be >= 1, got {k}")
    return Residue(pow(2, k - 1, m.M), m)


def compute_d(k: int, m: Modulus) -> Residue:
    """d_k = -(a_k)^-1 mod M by the constant-step inverter; a_k is a unit."""
    # A unit's inverse lies in [1, M), so M minus it is already canonical.
    return Residue(m.M - inverse_ct(compute_a(k, m)).value, m)


def generate_sequence(p: int, k_start: int, k_end: int) -> SeedSequence:
    """The range k in [k_start, k_end], validated; its d_k are walked on demand."""
    if not 1 <= k_start <= k_end:
        raise OutOfRange(f"need 1 <= k_start <= k_end, got [{k_start}, {k_end}]")
    if k_end - k_start >= sys.maxsize:  # len(seq) must fit in an index
        raise OutOfRange(f"a range holds at most {sys.maxsize} records")
    return SeedSequence(modulus=make_modulus(p), k_start=k_start, k_end=k_end)


def orbit(p: int) -> tuple[set[int], int]:
    """Distinct d_k values over one full period, k = 1..phi(M), and their count."""
    if p > ORBIT_P_LIMIT:
        raise OutOfRange(f"orbit enumeration is capped at p <= {ORBIT_P_LIMIT}, got {p}")
    seen = set(generate_sequence(p, 1, make_modulus(p).phi).walk())
    return seen, len(seen)


def decompose_identity(p: int, s: int) -> IdentityWitness:
    """Split A = 3^p(s+1) - 1 as 2^(k-1) * (2*3^p*n + d) with odd cofactor.

    k - 1 is the full 2-adic valuation of A, making the decomposition
    unique with 0 <= d < 2*3^p (and d odd whenever k > 1).
    """
    m = make_modulus(p)
    M = m.M
    if s < 0:
        raise OutOfRange(f"s must be >= 0, got {s}")
    A = M * (s + 1) - 1
    # v2(A): A >= 2 here, so (A & -A) isolates the lowest set bit.
    v2 = (A & -A).bit_length() - 1
    q = A >> v2
    n, d = divmod(q, 2 * M)
    return IdentityWitness(p=m.p, s=s, A=A, k=v2 + 1, n=n, d=d)


def verify_identity(w: IdentityWitness) -> bool:
    """Exact integer check of the witness; d = d_k (mod 3^p) follows from it."""
    M = make_modulus(w.p).M
    if w.A != M * (w.s + 1) - 1:
        return False
    # 2^(k-1) <= A for any valid witness, so no larger k can verify.
    if not 1 <= w.k <= w.A.bit_length():
        return False
    # A = -1 (mod M), so d reduces to d_k without an inversion.
    return w.A == 2 ** (w.k - 1) * (2 * M * w.n + w.d)
