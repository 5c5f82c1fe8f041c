"""Exact arithmetic in Z/3^pZ.

All values are canonical representatives in [0, M) with M = 3^p. Python
integers keep every intermediate exact, so there is no overflow ceiling;
P_MAX = 80 is the API bound, at which a residue is 127 bits wide.
``seedgen.ORBIT_P_LIMIT`` caps orbit enumeration separately.

Two inversion routines are provided:

* ``inverse_euclid`` -- iterative extended Euclid. Its loop count depends
  on the operand, which suits the tests' reference and ``bench``'s
  baseline but leaks timing.
* ``inverse_ct`` -- Euler ladder ``a^(phi-1) mod M`` evaluated with a
  fixed number of square/select/multiply steps that depends only on p.
  The seed path (``seedgen.compute_d``) always uses this one.

Each has a ``_counted`` form that also returns its step count; ``bench``
looks those up by name to time the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotInvertible, OutOfRange

P_MAX = 80
# (M, phi) per admissible p: Modulus never raises 3 to an unchecked p.
_RINGS = {p: (3**p, 2 * 3 ** (p - 1)) for p in range(1, P_MAX + 1)}


@dataclass(frozen=True)
class Modulus:
    """Ring parameterization, built from p alone: M = 3^p and phi = phi(M)."""

    p: int
    M: int = field(init=False)
    phi: int = field(init=False)

    def __post_init__(self) -> None:
        if self.p not in _RINGS:
            raise OutOfRange(f"p must be in [1, {P_MAX}], got {self.p}")
        M, phi = _RINGS[self.p]
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "phi", phi)

    def residue(self, value: int) -> "Residue":
        """Canonical residue of an arbitrary integer."""
        return Residue(value % self.M, self)

    @property
    def bit_width(self) -> int:
        """Bits needed to encode any canonical residue (ceil(log2 M))."""
        return self.M.bit_length()


@dataclass(frozen=True)
class Residue:
    """A canonical element of Z/MZ together with its ring."""

    value: int
    modulus: Modulus

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.modulus.M:
            raise OutOfRange(
                f"residue value {self.value} not canonical for M={self.modulus.M}"
            )


def make_modulus(p: int) -> Modulus:
    """Build the ring parameters for exponent p (1 <= p <= P_MAX)."""
    return Modulus(p)


def inverse_euclid_counted(a: Residue) -> tuple[Residue, int]:
    """Extended-Euclid inverse plus the number of reduction steps taken.

    The loop is the classical two-register form: it stops when the
    remainder register hits zero, so the step count varies with the
    operand. The final ``t < 0`` correction restores canonicality.
    """
    m = a.modulus
    t, new_t = 0, 1
    r, new_r = m.M, a.value
    steps = 0
    while new_r != 0:
        quotient = r // new_r
        t, new_t = new_t, t - quotient * new_t
        r, new_r = new_r, r - quotient * new_r
        steps += 1
    if r > 1:
        raise NotInvertible(f"{a.value} is not invertible mod {m.M}")
    if t < 0:
        t += m.M
    return Residue(t, m), steps


def inverse_euclid(a: Residue) -> Residue:
    """Multiplicative inverse via extended Euclid (variable time)."""
    inv, _ = inverse_euclid_counted(a)
    return inv


def inverse_ct_counted(a: Residue) -> tuple[Residue, int]:
    """Constant-step inverse plus its (operand-independent) step count.

    Computes a^(phi-1) mod M with one square and one branchless
    multiply-or-keep per bit of a fixed ``bit_width``-wide exponent
    window. phi - 1 < M always fits in that window, so the step count
    never depends on the operand value.
    """
    m = a.modulus
    if a.value % 3 == 0:
        raise NotInvertible(f"{a.value} is not invertible mod {m.M}")
    exp = m.phi - 1
    width = m.bit_width
    acc = 1
    for i in range(width - 1, -1, -1):
        acc = acc * acc % m.M
        bit = (exp >> i) & 1
        mult = acc * a.value % m.M
        mask = -bit
        acc = (mult & mask) | (acc & ~mask)
    return Residue(acc, m), width


def inverse_ct(a: Residue) -> Residue:
    """Multiplicative inverse with a step count depending only on p."""
    inv, _ = inverse_ct_counted(a)
    return inv
