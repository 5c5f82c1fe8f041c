"""Entropy scoring for generated residue sequences.

Three structural components over L records, each in [0, 1] and each one
int true division, so each float is its exact value correctly rounded:

* cycle density -- fraction of the phi = phi(M) units visited, min(L, phi)/phi;
* residue uniformity deviation -- total-variation distance from uniform on
  the units, r * (phi - r) / (phi * L) with r = L mod phi, at most 1 as r <= L;
* modular bias index -- normalized excess of the fullest of B equal-width
  buckets of [0, M), holding F records: (F*B - L) / (L * (B - 1)), in [0, 1]
  as L/B <= F <= L.

The composite score is the fixed weighted sum

    ecs = 0.4 * cd + 0.4 * (1 - rud) + 0.2 * (1 - mbi)

and a sequence is admitted when ecs >= threshold (default 0.90). ``score``
walks at most one period of d_k and holds no record: O(min(L, phi)) time.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice

from .errors import OutOfRange
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

    L = q*phi + r records visit the first min(L, phi) values walked: the first
    r of them q + 1 times, (phi - r)/(phi*L) above uniform, and the rest q
    times, r/(phi*L) below; rud is half the total gap. Each bucket counts the two
    groups apart to find F.
    """
    total = len(seq)
    if not isinstance(buckets, int) or buckets < 2:
        raise OutOfRange(f"buckets must be an integer >= 2, got {buckets!r}")
    M, phi = seq.modulus.M, seq.modulus.phi
    distinct = min(total, phi)
    q, r = divmod(total, phi)
    walked = islice(seq.walk(), distinct)
    heavy = Counter(d * buckets // M for d in islice(walked, r))
    light = Counter(d * buckets // M for d in walked)
    fullest = max((q + 1) * heavy[b] + q * light[b] for b in heavy.keys() | light.keys())
    cd = distinct / phi
    rud = r * (phi - r) / (phi * total)
    mbi = (fullest * buckets - total) / (total * (buckets - 1))
    ecs = weighted_score(cd, rud, mbi)
    return EcsReport(seq.modulus.p, seq.k_start, seq.k_end, buckets, cd, rud, mbi, ecs)


def check_threshold(threshold: float) -> float:
    """The threshold as given, refused outside [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise OutOfRange(f"threshold must be in [0, 1], got {threshold}")
    return threshold


def admit(report: EcsReport, threshold: float = DEFAULT_THRESHOLD) -> bool:
    """Admission gate: score at or above the threshold passes."""
    return report.ecs >= check_threshold(threshold)
