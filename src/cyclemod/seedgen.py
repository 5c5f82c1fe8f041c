"""Inverse-consistent residue sequences over Z/3^pZ.

The generator maps an index k to the unit

    d_k = -(2^(k-1))^-1 mod 3^p

so every record satisfies 2^(k-1) * d_k = -1 (mod 3^p). Because 2
generates the full unit group mod 3^p, the d_k walk is periodic with
period phi(3^p) and visits every unit exactly once per period. A
``SeedSequence`` is therefore just its k range: it stores no d_k, and
its consumers walk them on demand.

``compute_a`` and ``compute_d`` take a_k = 2^(k-1) from a per-p table of
fixed-base powers of 2 that grows a row per hex digit of (k-1) mod phi as k
needs (10 rows for k <= 10^12, at most 32 at p=80), one multiply per row.

The same residues arise from the integer identity

    3^p * (s+1) - 1 = 2^(k-1) * (2 * 3^p * n + d)

which ``decompose_identity`` recovers uniquely by splitting off the full
power of two of the left-hand side.
"""

from __future__ import annotations

import sys
from typing import Iterator

from .errors import OutOfRange
from .modring import Modulus, Record, Residue, inverse_ct_counted, make_modulus

# Orbit enumeration holds one full period in a set, at 66-99 bytes per
# unit: phi(3^14) = 3.2M units is about 0.3 GB.
ORBIT_P_LIMIT = 14


class SeedSequence(Record):
    """The consecutive k range [k_start, k_end] of d_k mod 3^p: 1 to sys.maxsize records."""

    __slots__ = ("modulus", "k_start", "k_end")

    def __init__(self, modulus: Modulus, k_start: int, k_end: int) -> None:
        # The package's one k range check: it refuses every range it cannot walk.
        if not (isinstance(k_start, int) and isinstance(k_end, int)):
            raise OutOfRange(f"k bounds must be integers, got [{k_start!r}, {k_end!r}]")
        if k_start > k_end:
            raise OutOfRange(f"need k_start <= k_end, got [{k_start}, {k_end}]")
        if k_end - k_start >= sys.maxsize:  # len(seq) must fit in an index
            raise OutOfRange(f"a range holds at most {sys.maxsize} records")
        if k_start < 1:  # no d_k for k < 1
            raise OutOfRange(f"k_start must be >= 1, got {k_start}")
        self._bind(modulus, int(k_start), int(k_end))  # a bool bound is stored as an int

    def __len__(self) -> int:
        return self.k_end - self.k_start + 1

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


# Fixed-base powers of 2 per p: row i holds 2^(j * 16^i) mod M for j = 0..15.
# Only _a_k writes it, and it replaces p's tuple whole rather than mutating it.
_POW2: dict[int, tuple[tuple[int, ...], ...]] = {}


def _a_k(k: int, m: Modulus) -> int:
    """a_k = 2^(k-1) mod M: the one check of k, then one multiply per grown row of p's table."""
    if not isinstance(k, int) or k < 1:
        raise OutOfRange(f"k must be an integer >= 1, got {k!r}")
    M, n = m.M, (k - 1) % m.phi  # 2^phi = 1 (mod M) by Euler's theorem
    rows = _POW2.get(m.p, ())
    while n >> 4 * len(rows):  # n has a hex digit past the last row
        row = [1]
        base = rows[-1][15] * rows[-1][1] % M if rows else 2
        for _ in range(15):
            row.append(row[-1] * base % M)
        rows = _POW2[m.p] = (*rows, tuple(row))
    a = 1
    for row in rows:
        a = a * row[n & 15] % M
        n >>= 4
    return a


def compute_a(k: int, m: Modulus) -> Residue:
    """a_k = 2^(k-1) mod M."""
    return Residue(_a_k(k, m), m)


def compute_d(k: int, m: Modulus) -> Residue:
    """d_k = -(a_k)^-1 mod M by the constant-step inverter; a_k is a unit."""
    # A unit's inverse lies in [1, M), so M minus it is already canonical.
    return Residue(m.M - inverse_ct_counted(_a_k(k, m), m)[0], m)


def generate_sequence(p: int, k_start: int, k_end: int) -> SeedSequence:
    """The range k in [k_start, k_end] mod 3^p; its d_k are walked on demand."""
    return SeedSequence(make_modulus(p), k_start, k_end)


def orbit(p: int) -> tuple[set[int], int]:
    """Distinct d_k values over one full period, k = 1..phi(M), and their count."""
    m = make_modulus(p)
    if m.p > ORBIT_P_LIMIT:
        raise OutOfRange(f"orbit enumeration is capped at p <= {ORBIT_P_LIMIT}, got {p}")
    seen = set(SeedSequence(m, 1, m.phi).walk())
    return seen, len(seen)


def decompose_identity(p: int, s: int) -> IdentityWitness:
    """Split A = 3^p(s+1) - 1 as 2^(k-1) * (2*3^p*n + d) with odd cofactor.

    k - 1 is the full 2-adic valuation of A, making the decomposition
    unique with 0 <= d < 2*3^p (and d odd whenever k > 1).
    """
    m = make_modulus(p)
    M = m.M
    if not isinstance(s, int) or s < 0:
        raise OutOfRange(f"s must be an integer >= 0, got {s!r}")
    A = M * (s + 1) - 1
    # v2(A): A >= 2 here, so (A & -A) isolates the lowest set bit.
    v2 = (A & -A).bit_length() - 1
    q = A >> v2
    n, d = divmod(q, 2 * M)
    return IdentityWitness(p=m.p, s=int(s), A=A, k=v2 + 1, n=n, d=d)  # a bool s as an int


def verify_identity(w: IdentityWitness) -> bool:
    """Exact integer check of the witness; d = d_k (mod 3^p) follows from it."""
    M = make_modulus(w.p).M
    if not int is type(w.s) is type(w.A) is type(w.k) is type(w.n) is type(w.d):
        return False
    if w.A != M * (w.s + 1) - 1:
        return False
    # 2^(k-1) <= A for any valid witness, so no larger k can verify.
    if not 1 <= w.k <= w.A.bit_length():
        return False
    # A = -1 (mod M), so d reduces to d_k without an inversion.
    return w.A == (2 * M * w.n + w.d) << (w.k - 1)
