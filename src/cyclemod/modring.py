"""Exact arithmetic in Z/3^pZ.

All values are canonical representatives in [0, M) with M = 3^p. Python
integers keep every intermediate exact, so there is no overflow ceiling;
P_MAX = 80 is the API bound, at which a residue is 127 bits wide.
``seedgen.ORBIT_P_LIMIT`` caps orbit enumeration separately.

Two inversion routines are provided:

* ``inverse_euclid`` -- iterative extended Euclid. Its loop count depends
  on the operand, which suits the tests' reference and ``bench``'s
  baseline but leaks timing.
* ``inverse_ct`` -- Euler power ``a^e mod M`` for one public e = -1 (mod phi)
  of ``bit_width`` bits, run by the builtin ``pow`` as a square-and-multiply
  loop over the bits of e, so p alone fixes the schedule. Its step count is the
  contract, not wall-clock constant time: big-int arithmetic is slower on
  longer operands. The seed path (``seedgen.compute_d``) always uses this one.

Each has a ``_counted`` form, an int kernel ``(x, m) -> (inverse, steps)``
that ``bench`` looks up by name to time the two inversions alone; the public
forms build the one ``Residue`` their caller gets.
"""

from __future__ import annotations

from .errors import NotInvertible, OutOfRange

P_MAX = 80


class Record:
    """Frozen record whose ``__slots__`` name its fields in order. Each subclass
    gets ``_bind(self, *fields)``, generated from them, as its ``__init__`` or
    to call once its own ``__init__`` has checked the inputs; ``copy`` and
    ``pickle`` rebuild a record through ``_bind`` without checking again."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__slots__
        name = "_bind" if "__init__" in cls.__dict__ else "__init__"
        # Each field is set by its own slot's descriptor, with no lookup by name.
        setters = [cls.__dict__[field].__set__ for field in fields]
        lines = "".join(f"  set_{field}(self, {field})\n" for field in fields)
        namespace: dict = {}
        exec(f"def make({', '.join('set_' + f for f in fields)}):\n"
             f" def {name}(self, {', '.join(fields)}):\n{lines} return {name}", {}, namespace)
        cls._bind = bind = namespace["make"](*setters)
        bind.__qualname__ = f"{cls.__qualname__}.{name}"
        if name == "__init__":
            cls.__init__ = bind

    def __reduce__(self) -> tuple:
        return object.__new__, (type(self),), tuple(self._asdict().values())

    def __setstate__(self, state: tuple) -> None:
        self._bind(*state)

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
        self._bind(p, 3**p, 2 * 3 ** (p - 1))

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
        if not (isinstance(value, int) and 0 <= value < modulus.M):
            raise OutOfRange(f"residue value {value} not canonical for M={modulus.M}")
        self._bind(value, modulus)


# Records are immutable, so every caller of make_modulus shares one per p.
_MODULI = {p: Modulus(p) for p in range(1, P_MAX + 1)}


def make_modulus(p: int) -> Modulus:
    """The ring parameters for exponent p (1 <= p <= P_MAX), built once per p."""
    return _MODULI.get(p) or Modulus(p)


def inverse_euclid_counted(x: int, m: Modulus) -> tuple[int, int]:
    """Extended-Euclid inverse of the canonical x mod M plus the reduction steps taken.

    The loop is the classical two-register form: it stops when the
    remainder register hits zero, so the step count varies with the
    operand. The final ``t < 0`` correction restores canonicality.
    """
    t, new_t = 0, 1
    r, new_r = m.M, x
    steps = 0
    while new_r != 0:
        quotient = r // new_r
        t, new_t = new_t, t - quotient * new_t
        r, new_r = new_r, r - quotient * new_r
        steps += 1
    if r > 1:
        raise NotInvertible(f"{x} is not invertible mod {m.M}")
    if t < 0:
        t += m.M
    return t, steps


def inverse_euclid(a: Residue) -> Residue:
    """Multiplicative inverse via extended Euclid (variable time)."""
    return Residue(inverse_euclid_counted(a.value, a.modulus)[0], a.modulus)


def inverse_ct_counted(x: int, m: Modulus) -> tuple[int, int]:
    """Euler inverse x^e of the canonical x mod M plus its step count, ``bit_width``.

    A unit has x^phi = 1, so any e = -1 (mod phi) inverts. phi - 1, plus phi
    when shorter, has exactly ``bit_width`` bits (2*phi - 1 = 2915 at p=7).
    """
    if x % 3 == 0:
        raise NotInvertible(f"{x} is not invertible mod {m.M}")
    e = m.phi - 1 if (m.phi - 1).bit_length() == m.bit_width else 2 * m.phi - 1
    return pow(x, e, m.M), m.bit_width


def inverse_ct(a: Residue) -> Residue:
    """Multiplicative inverse with a step count depending only on p."""
    return Residue(inverse_ct_counted(a.value, a.modulus)[0], a.modulus)
