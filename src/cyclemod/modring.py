"""Exact arithmetic in Z/3^pZ.

All values are canonical representatives in [0, M) with M = 3^p. Python
integers keep every intermediate exact, so there is no overflow ceiling;
P_MAX = 80 is the API bound, at which a residue is 127 bits wide.
``seedgen.ORBIT_P_LIMIT`` caps orbit enumeration separately.

Two inversion routines are provided:

* ``inverse_euclid`` -- iterative extended Euclid. Its loop count depends
  on the operand, which suits the tests' reference and ``bench``'s
  baseline but leaks timing.
* ``inverse_ct`` -- Euler ladder ``a^(phi-1) mod M``: ``bit_width``
  squarings plus one multiply per 1 bit of the public exponent ``phi - 1``,
  a schedule that depends only on p. Its step count is the contract, not
  wall-clock constant time: big-int arithmetic is slower on longer operands.
  The seed path (``seedgen.compute_d``) always uses this one.

Each has a ``_counted`` form that also returns its step count; ``bench``
looks those up by name to time the two against each other.
"""

from __future__ import annotations

from .errors import NotInvertible, OutOfRange

P_MAX = 80


class Record:
    """Frozen record whose ``__slots__`` name its fields in order: each
    subclass's ``__init__`` validates, then sets every field once."""

    __slots__ = ()

    def _asdict(self) -> dict:
        """Field name -> value in field order; nested records stay records."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Modulus(Record):
    """Ring parameterization, built from p alone: M = 3^p and phi = phi(M)."""

    __slots__ = ("p", "M", "phi")

    def __init__(self, p: int) -> None:
        if p not in range(1, P_MAX + 1):  # checked before 3 is raised to it
            raise OutOfRange(f"p must be in [1, {P_MAX}], got {p}")
        p = int(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "M", 3**p)
        object.__setattr__(self, "phi", 2 * 3 ** (p - 1))

    def residue(self, value: int) -> "Residue":
        """Canonical residue of an arbitrary integer."""
        return Residue(value % self.M, self)

    @property
    def bit_width(self) -> int:
        """Bits needed to encode any canonical residue (ceil(log2 M))."""
        return self.M.bit_length()


class Residue(Record):
    """A canonical element of Z/MZ together with its ring."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: Modulus) -> None:
        if not 0 <= value < modulus.M:
            raise OutOfRange(f"residue value {value} not canonical for M={modulus.M}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "modulus", modulus)


# Records are immutable, so every caller of make_modulus shares one per p.
_MODULI = {p: Modulus(p) for p in range(1, P_MAX + 1)}


def make_modulus(p: int) -> Modulus:
    """The ring parameters for exponent p (1 <= p <= P_MAX), built once per p."""
    return _MODULI.get(p) or Modulus(p)


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
    """Euler-ladder inverse plus its step count, ``bit_width`` for every unit.

    a^(phi-1) mod M: one squaring per bit of phi - 1 (< M) in a ``bit_width``
    window, and one multiply by ``a`` per 1 bit. p alone fixes the schedule.
    """
    m = a.modulus
    if a.value % 3 == 0:
        raise NotInvertible(f"{a.value} is not invertible mod {m.M}")
    M, x = m.M, a.value
    width = m.bit_width
    acc = 1
    for bit in format(m.phi - 1, f"0{width}b"):
        acc = acc * acc % M
        if bit == "1":
            acc = acc * x % M
    return Residue(acc, m), width


def inverse_ct(a: Residue) -> Residue:
    """Multiplicative inverse with a step count depending only on p."""
    inv, _ = inverse_ct_counted(a)
    return inv
