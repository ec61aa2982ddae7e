"""maldist: exact witnesses and envelope bounds for irregular distribution
of subsequences mod 1.

Everything computes in arbitrary-precision rational arithmetic; claims about
constructed points and sequences ship as self-contained certificates that
re-verify from their echoed inputs.

The names below are re-exported lazily (PEP 562): `import maldist` loads no
layer, and `maldist.<name>` imports the one module that defines the name on
first use.
"""

import importlib

_EXPORTS = {
    "doubling": (
        "BinaryPoint",
        "OrbitHitReport",
        "doubling_orbit",
        "doubling_period",
        "five_sixth_check",
        "invariance_defect",
        "zero_block_alpha",
        "zero_block_density",
    ),
    "empirical": (
        "CellPartition",
        "CheckpointScan",
        "MeasureVector",
        "Residues",
        "checkpoint_scan",
        "scan_to_csv",
        "star_discrepancy",
    ),
    "envelope": (
        "AdmissibilityReport",
        "BlockSpec",
        "DominationResult",
        "RatioMeasure",
        "check_admissible",
        "envelope_dominates",
        "pi_measure",
    ),
    "exact": (
        "RationalParseError",
        "format_rational",
        "mod1",
        "parse_rational",
    ),
    "subspace": (
        "ExtensionResult",
        "ExtensionTarget",
        "greedy_extension",
        "validate_membership",
    ),
    "torus": ("TorusInterval",),
    "witness": (
        "AvoidanceResult",
        "HistogramTarget",
        "HistogramWitness",
        "HitFrequencyWitness",
        "MixingChain",
        "MixingConfig",
        "MixingConfigError",
        "WitnessPlan",
        "auto_plan",
        "avoidance_sequence",
        "histogram_witness",
        "hit_frequency_witness",
        "mixing_chain",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
