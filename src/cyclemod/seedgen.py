"""Inverse-consistent residue sequences over Z/3^pZ.

The generator maps an index k to the unit

    d_k = -(2^(k-1))^-1 mod 3^p

so every record satisfies 2^(k-1) * d_k = -1 (mod 3^p). Because 2
generates the full unit group mod 3^p, the d_k walk is periodic with
period phi(3^p) and visits every unit exactly once per period.

The same residues arise from the integer identity

    3^p * (s+1) - 1 = 2^(k-1) * (2 * 3^p * n + d)

which ``decompose_identity`` recovers uniquely by splitting off the full
power of two of the left-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import OutOfRange
from .modring import Modulus, Residue, inverse_ct, make_modulus, neg_mod, pow_mod

# Orbit enumeration holds one full period in a set, at 66-99 bytes per
# unit: phi(3^14) = 3.2M units is about 0.3 GB.
ORBIT_P_LIMIT = 14


@dataclass(frozen=True)
class SeedRecord:
    """One generated step: index k, exponential a_k, inverse-consistent d_k."""

    k: int
    a_k: Residue
    d_k: Residue


@dataclass(frozen=True)
class SeedSequence:
    """d_k as plain ints for the consecutive k-range starting at k_start."""

    modulus: Modulus
    k_start: int
    d: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.d)

    def __iter__(self) -> Iterator[SeedRecord]:
        """SeedRecords built on demand; a_k doubles from one k to the next."""
        m = self.modulus
        a = compute_a(self.k_start, m).value
        for k, d in enumerate(self.d, self.k_start):
            yield SeedRecord(k=k, a_k=Residue(a, m), d_k=Residue(d, m))
            a = a * 2 % m.M

    @property
    def k_end(self) -> int:
        return self.k_start + len(self.d) - 1

    def d_values(self) -> list[int]:
        return list(self.d)


@dataclass(frozen=True)
class IdentityWitness:
    """Integer-level decomposition A = 2^(k-1) * (2 * 3^p * n + d).

    Fields are stored as produced; ``verify_identity`` is the checker, so
    deliberately inconsistent witnesses can be constructed for testing.
    Note d is the *unreduced* odd cofactor remainder in [0, 2*3^p); its
    reduction mod 3^p equals the canonical d_k.
    """

    p: int
    s: int
    A: int
    k: int
    n: int
    d: int


def compute_a(k: int, m: Modulus) -> Residue:
    """a_k = 2^(k-1) mod M."""
    if k < 1:
        raise OutOfRange(f"k must be >= 1, got {k}")
    return pow_mod(m.residue(2), k - 1)


def compute_d(k: int, m: Modulus) -> Residue:
    """d_k = -(a_k)^-1 mod M by the constant-step inverter; a_k is a unit."""
    return neg_mod(inverse_ct(compute_a(k, m)))


def _d_walk(m: Modulus, k_start: int) -> Iterator[int]:
    """d_k for k = k_start, k_start + 1, ... as plain ints, without end.

    The inverses of consecutive powers of two differ by a factor of 2^-1,
    and negation commutes with that, so d_{k+1} = d_k * 2^-1 (mod M). M is
    odd, so 2^-1 = (M + 1) / 2 needs no inversion: the walk costs one, for
    d_{k_start}, and every later step is one multiply and one reduction,
    whatever d_k is.
    """
    inv2 = (m.M + 1) // 2
    d = compute_d(k_start, m).value
    while True:
        yield d
        d = d * inv2 % m.M


def generate_sequence(p: int, k_start: int, k_end: int) -> SeedSequence:
    """d_k for every k in [k_start, k_end], deterministic across runs."""
    if not 1 <= k_start <= k_end:
        raise OutOfRange(f"need 1 <= k_start <= k_end, got [{k_start}, {k_end}]")
    m = make_modulus(p)
    d = tuple(islice(_d_walk(m, k_start), k_end - k_start + 1))
    return SeedSequence(modulus=m, k_start=k_start, d=d)


def orbit(p: int) -> tuple[set[int], int]:
    """Distinct d_k values over one full period, k = 1..phi(M), and their count."""
    if p > ORBIT_P_LIMIT:
        raise OutOfRange(f"orbit enumeration is capped at p <= {ORBIT_P_LIMIT}, got {p}")
    m = make_modulus(p)
    seen = set(islice(_d_walk(m, 1), m.phi))
    return seen, len(seen)


def decompose_identity(p: int, s: int) -> IdentityWitness:
    """Split A = 3^p(s+1) - 1 as 2^(k-1) * (2*3^p*n + d) with odd cofactor.

    k - 1 is the full 2-adic valuation of A, making the decomposition
    unique with 0 <= d < 2*3^p (and d odd whenever k > 1).
    """
    M = make_modulus(p).M
    if s < 0:
        raise OutOfRange(f"s must be >= 0, got {s}")
    A = M * (s + 1) - 1
    # v2(A): A >= 2 here, so (A & -A) isolates the lowest set bit.
    v2 = (A & -A).bit_length() - 1
    q = A >> v2
    n, d = divmod(q, 2 * M)
    return IdentityWitness(p=p, s=s, A=A, k=v2 + 1, n=n, d=d)


def verify_identity(w: IdentityWitness) -> bool:
    """Exact integer check of the witness plus congruence with compute_d."""
    M = 3**w.p
    if w.A != M * (w.s + 1) - 1:
        return False
    if w.A != 2 ** (w.k - 1) * (2 * M * w.n + w.d):
        return False
    return w.d % M == compute_d(w.k, make_modulus(w.p)).value
