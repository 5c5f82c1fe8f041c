"""Entropy scoring for generated residue sequences.

Three structural components, each in [0, 1]:

* cycle density -- fraction of the unit group the sequence visited;
* residue uniformity deviation -- total-variation distance between the
  empirical d_k distribution and the uniform distribution on the
  phi(M) units (0 at exact uniformity, 1 - 1/phi(M) for a point mass);
* modular bias index -- normalized excess of the fullest of B
  equal-width buckets partitioning [0, M): (max_b f_b - 1/B) / (1 - 1/B),
  clamped to [0, 1].

The composite score is the fixed weighted sum

    ecs = 0.4 * cd + 0.4 * (1 - rud) + 0.2 * (1 - mbi)

and a sequence is admitted when ecs >= threshold (default 0.90).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import EmptySequence, OutOfRange
from .seedgen import SeedSequence

DEFAULT_BUCKETS = 9
DEFAULT_THRESHOLD = 0.90

WEIGHT_CD = 0.4
WEIGHT_UNIFORMITY = 0.4
WEIGHT_BIAS = 0.2


@dataclass(frozen=True)
class EcsReport:
    """Scored components and composite, fields in ``ecs`` report key order."""

    p: int
    k_start: int
    k_end: int
    buckets: int
    cd: float
    rud: float
    mbi: float
    ecs: float

    @property
    def k_range(self) -> tuple[int, int]:
        return self.k_start, self.k_end


def _require_records(seq: SeedSequence) -> None:
    if len(seq) == 0:
        raise EmptySequence("sequence has no records")


def weighted_score(cd: float, rud: float, mbi: float) -> float:
    """The fixed 0.4/0.4/0.2 composite of the three components."""
    return WEIGHT_CD * cd + WEIGHT_UNIFORMITY * (1.0 - rud) + WEIGHT_BIAS * (1.0 - mbi)


def cycle_density(seq: SeedSequence) -> float:
    """|distinct d_k| / phi(M)."""
    _require_records(seq)
    return len(set(seq.d)) / seq.modulus.phi


def residue_uniformity_deviation(seq: SeedSequence) -> float:
    """Total-variation distance of the empirical d_k law from uniform.

    RUD = 1/2 * sum over units x of |freq(x) - 1/phi|; unvisited units
    contribute 1/phi each.
    """
    _require_records(seq)
    return _uniformity_deviation(Counter(seq.d), len(seq), seq.modulus.phi)


def modular_bias_index(seq: SeedSequence, buckets: int = DEFAULT_BUCKETS) -> float:
    """Normalized max-bucket excess over equal-width subranges of [0, M)."""
    _check_buckets(buckets)
    _require_records(seq)
    return _bias_index(Counter(seq.d), len(seq), seq.modulus.M, buckets)


def _check_buckets(buckets: int) -> None:
    if buckets < 2:
        raise OutOfRange(f"buckets must be >= 2, got {buckets}")


def _uniformity_deviation(counts: Counter, total: int, phi: int) -> float:
    visited_gap = sum(abs(c / total - 1.0 / phi) for c in counts.values())
    unvisited_gap = (phi - len(counts)) / phi
    return 0.5 * (visited_gap + unvisited_gap)


def _bias_index(counts: Counter, total: int, M: int, buckets: int) -> float:
    per_bucket = Counter()
    for value, c in counts.items():
        per_bucket[value * buckets // M] += c
    f_max = max(per_bucket.values()) / total
    raw = (f_max - 1.0 / buckets) / (1.0 - 1.0 / buckets)
    return min(1.0, max(0.0, raw))


def score(seq: SeedSequence, buckets: int = DEFAULT_BUCKETS) -> EcsReport:
    """Assemble all components and their weighted composite from one count of d_k."""
    _require_records(seq)
    _check_buckets(buckets)
    counts = Counter(seq.d)
    total = len(seq)
    cd = len(counts) / seq.modulus.phi
    rud = _uniformity_deviation(counts, total, seq.modulus.phi)
    mbi = _bias_index(counts, total, seq.modulus.M, buckets)
    return EcsReport(
        p=seq.modulus.p,
        k_start=seq.k_start,
        k_end=seq.k_end,
        buckets=buckets,
        cd=cd,
        rud=rud,
        mbi=mbi,
        ecs=weighted_score(cd, rud, mbi),
    )


def admit(report: EcsReport, threshold: float = DEFAULT_THRESHOLD) -> bool:
    """Admission gate: score at or above the threshold passes."""
    if not 0.0 <= threshold <= 1.0:
        raise OutOfRange(f"threshold must be in [0, 1], got {threshold}")
    return report.ecs >= threshold
