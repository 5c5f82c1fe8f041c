"""Deterministic seed residues over Z/3^pZ.

Generation, validation, entropy scoring, and masking of the
inverse-consistent residue family d_k = -(2^(k-1))^-1 mod 3^p, plus a
constant-step inversion variant with a timing-uniformity harness.

``import cyclemod`` loads no submodule: each public name imports its
module on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining submodule, grouped by module in __all__'s order.
_MODULE_OF = {
    name: module
    for module, names in {
        "modring": "P_MAX Modulus Residue make_modulus inverse_euclid inverse_ct",
        "seedgen": "SeedSequence IdentityWitness compute_a compute_d generate_sequence orbit "
        "decompose_identity verify_identity",
        "ecs": "EcsReport modular_bias_index score admit weighted_score DEFAULT_BUCKETS "
        "DEFAULT_THRESHOLD",
        "hybrid": "EntropyToken HybridSeed mask_xor unmask mask_conditioned identity_conditioner "
        "encode_residue entropy_source token_from_hex",
        "bench": "TimingStats count_iterations time_inversion compare_report",
        "svgplot": "render_residue_svg",
        "errors": "CycleModError OutOfRange NotInvertible EmptySequence WidthMismatch "
        "SourceUnavailable",
    }.items()
    for name in names.split()
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
