"""Deterministic seed residues over Z/3^pZ.

Generation, validation, entropy scoring, and masking of the
inverse-consistent residue family d_k = -(2^(k-1))^-1 mod 3^p, plus a
constant-step inversion variant with a timing-uniformity harness.
"""

from .bench import TimingStats, compare_report, count_iterations, time_inversion
from .ecs import (
    DEFAULT_BUCKETS,
    DEFAULT_THRESHOLD,
    EcsReport,
    admit,
    cycle_density,
    modular_bias_index,
    residue_uniformity_deviation,
    score,
    weighted_score,
)
from .errors import (
    CycleModError,
    EmptySequence,
    ModulusMismatch,
    NotInvertible,
    OutOfRange,
    SourceUnavailable,
    WidthMismatch,
)
from .hybrid import (
    EntropyToken,
    HybridSeed,
    encode_residue,
    entropy_source,
    identity_conditioner,
    mask_conditioned,
    mask_xor,
    token_from_hex,
    unmask,
)
from .modring import (
    P_MAX,
    Modulus,
    Residue,
    inverse_ct,
    inverse_euclid,
    make_modulus,
    mul_mod,
    neg_mod,
    pow_mod,
)
from .seedgen import (
    IdentityWitness,
    SeedSequence,
    compute_a,
    compute_d,
    decompose_identity,
    generate_sequence,
    orbit,
    verify_identity,
)
from .svgplot import render_residue_svg

__version__ = "0.1.0"

__all__ = [
    "P_MAX",
    "Modulus",
    "Residue",
    "make_modulus",
    "mul_mod",
    "pow_mod",
    "neg_mod",
    "inverse_euclid",
    "inverse_ct",
    "SeedSequence",
    "IdentityWitness",
    "compute_a",
    "compute_d",
    "generate_sequence",
    "orbit",
    "decompose_identity",
    "verify_identity",
    "EcsReport",
    "cycle_density",
    "residue_uniformity_deviation",
    "modular_bias_index",
    "score",
    "admit",
    "weighted_score",
    "DEFAULT_BUCKETS",
    "DEFAULT_THRESHOLD",
    "EntropyToken",
    "HybridSeed",
    "mask_xor",
    "unmask",
    "mask_conditioned",
    "identity_conditioner",
    "encode_residue",
    "entropy_source",
    "token_from_hex",
    "TimingStats",
    "count_iterations",
    "time_inversion",
    "compare_report",
    "render_residue_svg",
    "CycleModError",
    "OutOfRange",
    "ModulusMismatch",
    "NotInvertible",
    "EmptySequence",
    "WidthMismatch",
    "SourceUnavailable",
]
