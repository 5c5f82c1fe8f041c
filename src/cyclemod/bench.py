"""Timing-uniformity measurements for the two inversion variants.

This is the one module that chooses an inverter by name: the seed path
always uses ``inverse_ct``, and ``bench`` times it against
``inverse_euclid``. Exact algorithmic step counts are the portable
signal: the Euclid variant's loop count varies with the operand while
the ct variant performs the same number of steps for every unit at
fixed p. Wall-clock statistics are also collected, but they depend on
the host and are reported as advisory only.
"""

from __future__ import annotations

import statistics
import time
from itertools import accumulate
from typing import Literal

from .errors import OutOfRange
from .modring import Record, inverse_ct_counted, inverse_euclid_counted
from .seedgen import compute_a, generate_sequence

WARMUP_PASSES = 3
MIN_REPS = 30
# samples_ns holds one int per timed call, about 36 B each: 10^6 is ~36 MB.
MAX_SAMPLES = 10**6

Variant = Literal["euclid", "ct"]

_INVERTERS = {"euclid": inverse_euclid_counted, "ct": inverse_ct_counted}


class TimingStats(Record):
    """Per-variant iteration counts and wall-time statistics, in bench row order."""

    __slots__ = ("variant", "p", "k_start", "k_end", "reps", "mean_ns", "median_ns",
                 "max_jitter_ns", "cv", "iter_min", "iter_max")

    def __init__(
        self, variant: Variant, p: int, k_start: int, k_end: int, reps: int,
        mean_ns: float, median_ns: float, max_jitter_ns: float, cv: float,
        iter_min: int, iter_max: int,
    ) -> None:
        if iter_min > iter_max:
            raise OutOfRange("iter_min must not exceed iter_max")
        if variant == "ct" and iter_min != iter_max:
            raise OutOfRange("ct variant must have an exact iteration count")
        self._bind(variant, p, k_start, k_end, reps, mean_ns, median_ns, max_jitter_ns, cv,
                   iter_min, iter_max)
        if self.samples < 1:  # after the fields, so that ``samples`` is the one rule
            raise OutOfRange("samples must be >= 1")

    @property
    def samples(self) -> int:
        """Timed calls: one per (k, rep) pair."""
        return (self.k_end - self.k_start + 1) * self.reps


def _counted_pass(variant: str, p: int, k_range: tuple[int, int]) -> tuple:
    """(kernel, ring, a_k, steps): the int kernel named by ``variant``, the a_k as plain
    ints (no timed call builds a record), doubled, not walked, and each a_k's step
    count from one counted pass of the kernel over them."""
    try:
        counted = _INVERTERS[variant]
    except KeyError:
        raise OutOfRange(f"variant must be one of {sorted(_INVERTERS)}, got {variant!r}")
    seq = generate_sequence(p, *k_range)
    m, first = seq.modulus, compute_a(seq.k_start, seq.modulus).value
    operands = list(accumulate(range(len(seq) - 1), lambda a, _: a * 2 % m.M, initial=first))
    return counted, m, operands, [counted(a, m)[1] for a in operands]


def count_iterations(
    variant: Variant, p: int, k_range: tuple[int, int]
) -> tuple[int, int]:
    """Exact min/max inner-loop step counts over the operand range."""
    counts = _counted_pass(variant, p, k_range)[3]
    return min(counts), max(counts)


def time_inversion(
    variant: Variant, p: int, k_range: tuple[int, int], reps: int
) -> TimingStats:
    """Wall-clock statistics of the int kernel over all (k, rep) pairs, warm-up excluded."""
    if not isinstance(reps, int) or reps < MIN_REPS:
        raise OutOfRange(f"reps must be an integer >= {MIN_REPS}, got {reps}")
    if len(generate_sequence(p, *k_range)) * reps > MAX_SAMPLES:
        raise OutOfRange(f"timed samples (k range x reps) are capped at {MAX_SAMPLES}")

    counted, m, operands, counts = _counted_pass(variant, p, k_range)  # warm-up pass 1
    for _ in range(WARMUP_PASSES - 1):
        for a in operands:
            counted(a, m)

    samples_ns: list[int] = []
    clock = time.perf_counter_ns
    for _ in range(reps):
        for a in operands:
            t0 = clock()
            counted(a, m)
            samples_ns.append(clock() - t0)

    mean_ns = statistics.fmean(samples_ns)
    return TimingStats(
        variant=variant, p=p, k_start=k_range[0], k_end=k_range[1], reps=reps,
        mean_ns=mean_ns, median_ns=float(statistics.median(samples_ns)),
        max_jitter_ns=float(max(samples_ns) - min(samples_ns)),
        cv=statistics.pstdev(samples_ns) / mean_ns if mean_ns > 0 else 0.0,
        iter_min=min(counts), iter_max=max(counts),
    )


def compare_report(p: int, k_range: tuple[int, int], reps: int) -> dict:
    """Side-by-side stats for both variants plus the step-count verdict.

    The cv comparison is advisory: scheduler noise on a multitasking
    host can swamp sub-microsecond calls, so only the iteration counts
    are contractual.
    """
    euclid = time_inversion("euclid", p, k_range, reps)
    ct = time_inversion("ct", p, k_range, reps)
    return {
        "p": p,
        "k_start": k_range[0],
        "k_end": k_range[1],
        "reps": reps,
        "rows": [euclid._asdict(), ct._asdict()],
        "ct_iterations_constant": ct.iter_min == ct.iter_max,
        "euclid_iteration_spread": euclid.iter_max - euclid.iter_min,
        "advisory_cv_ct_not_above_euclid": ct.cv <= euclid.cv,
    }
