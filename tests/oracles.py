"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's own code paths: inverses come
from exhaustive search, powers from repeated multiplication, and
distributions from hand-countable loops.
"""


def search_inverse(a: int, M: int) -> int | None:
    """Smallest t in [1, M) with a*t = 1 (mod M), or None."""
    for t in range(1, M):
        if a * t % M == 1:
            return t
    return None


def slow_pow(base: int, exp: int, M: int) -> int:
    """Repeated multiplication, no squaring shortcuts."""
    acc = 1 % M
    for _ in range(exp):
        acc = acc * base % M
    return acc


def brute_d(k: int, p: int) -> int:
    """d_k by exhaustive-search inversion of 2^(k-1)."""
    M = 3**p
    a = slow_pow(2, k - 1, M)
    inv = search_inverse(a, M)
    assert inv is not None
    return (M - inv) % M


def pow_d(k: int, p: int) -> int:
    """d_k from Python's built-in modular inverse of 2^(k-1); fast at any k."""
    M = 3**p
    return -pow(2, -(k - 1), M) % M


def units_of(p: int) -> set[int]:
    M = 3**p
    return {x for x in range(1, M) if x % 3 != 0}
