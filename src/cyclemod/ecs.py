"""Entropy scoring for generated residue sequences.

Three structural components, each in [0, 1]:

* cycle density -- fraction of the unit group the sequence visited;
* residue uniformity deviation -- total-variation distance between the
  empirical d_k law and uniform on the phi(M) units, capped at 1 against
  rounding (0 at exact uniformity, 1 - 1/phi(M) for a point mass);
* modular bias index -- normalized excess of the fullest of B
  equal-width buckets partitioning [0, M): (max_b f_b - 1/B) / (1 - 1/B),
  in [0, 1] unclamped, as 1/B <= max_b f_b <= 1 and rounding is monotone.

The composite score is the fixed weighted sum

    ecs = 0.4 * cd + 0.4 * (1 - rud) + 0.2 * (1 - mbi)

and a sequence is admitted when ecs >= threshold (default 0.90).

The d_k walk visits every unit once per period phi(M), so ``score``
walks at most one period of a range and holds no record: it costs
O(min(L, phi)) for L records.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice, repeat

from .errors import EmptySequence, OutOfRange
from .modring import Record
from .seedgen import SeedSequence

DEFAULT_BUCKETS = 9
DEFAULT_THRESHOLD = 0.90

WEIGHT_CD = 0.4
WEIGHT_UNIFORMITY = 0.4
WEIGHT_BIAS = 0.2


class EcsReport(Record):
    """Scored components and composite, fields in ``ecs`` report key order."""

    __slots__ = ("p", "k_start", "k_end", "buckets", "cd", "rud", "mbi", "ecs")

    def __init__(
        self, p: int, k_start: int, k_end: int, buckets: int,
        cd: float, rud: float, mbi: float, ecs: float,
    ) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k_start", k_start)
        object.__setattr__(self, "k_end", k_end)
        object.__setattr__(self, "buckets", buckets)
        object.__setattr__(self, "cd", cd)
        object.__setattr__(self, "rud", rud)
        object.__setattr__(self, "mbi", mbi)
        object.__setattr__(self, "ecs", ecs)

    @property
    def k_range(self) -> tuple[int, int]:
        return self.k_start, self.k_end


def weighted_score(cd: float, rud: float, mbi: float) -> float:
    """The fixed 0.4/0.4/0.2 composite of the three components."""
    return WEIGHT_CD * cd + WEIGHT_UNIFORMITY * (1.0 - rud) + WEIGHT_BIAS * (1.0 - mbi)


def modular_bias_index(seq: SeedSequence, buckets: int = DEFAULT_BUCKETS) -> float:
    """Normalized max-bucket excess over equal-width subranges of [0, M)."""
    return score(seq, buckets).mbi


def score(seq: SeedSequence, buckets: int = DEFAULT_BUCKETS) -> EcsReport:
    """Assemble all components and their weighted composite from one period of d_k.

    L = q*phi + r records visit the first min(L, phi) values walked: the
    first r of them q + 1 times and the rest q times, so each bucket counts
    those two groups apart. Gaps are summed in that first-visit order.
    """
    total = len(seq)
    if total == 0:
        raise EmptySequence("sequence has no records")
    if buckets < 2:
        raise OutOfRange(f"buckets must be >= 2, got {buckets}")
    M, phi = seq.modulus.M, seq.modulus.phi
    distinct = min(total, phi)
    q, r = divmod(total, phi)
    walked = islice(seq.walk(), distinct)
    heavy = Counter(d * buckets // M for d in islice(walked, r))
    light = Counter(d * buckets // M for d in walked)
    fullest = max((q + 1) * heavy[b] + q * light[b] for b in heavy.keys() | light.keys())
    counts = chain(repeat(q + 1, r), repeat(q, distinct - r))
    visited_gap = sum(abs(c / total - 1.0 / phi) for c in counts)
    cd = distinct / phi
    rud = min(1.0, 0.5 * (visited_gap + (phi - distinct) / phi))
    mbi = (fullest / total - 1 / buckets) / (1 - 1 / buckets)
    ecs = weighted_score(cd, rud, mbi)
    return EcsReport(seq.modulus.p, seq.k_start, seq.k_end, buckets, cd, rud, mbi, ecs)


def admit(report: EcsReport, threshold: float = DEFAULT_THRESHOLD) -> bool:
    """Admission gate: score at or above the threshold passes."""
    if not 0.0 <= threshold <= 1.0:
        raise OutOfRange(f"threshold must be in [0, 1], got {threshold}")
    return report.ecs >= threshold
