"""Coxeter diagram toolkit: classification, hyperbolicity, enumeration.

The `hyperbolic`, `enumeration` and `experiments` modules load on first use
of one of their names, so a query pays only for what it runs.
"""

from .core import (
    INFINITY,
    CoxeterSystem,
    Label,
    ValidationResult,
    components,
    is_connected,
    is_crystallographic,
    is_simply_laced,
    label_text,
    restrict,
    validate,
)
from .catalog import cycle_system, path_system, standard_system
from .classify import (
    INDEFINITE,
    Signature,
    ThresholdResult,
    TypeClass,
    UndecidedSignature,
    classify,
    classify_irreducible,
    has_affine_parabolic,
    is_k_spherical,
    is_spherical,
    kazhdan_threshold,
    max_spherical_rank,
    minimal_infinite_subsets,
    signature,
)
from .report import TOOL_VERSION, Report

__version__ = TOOL_VERSION

# public name -> the module that serves it on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(
        ("AffineCriterionCheck", "AffineSearchResult", "AffineSubset",
         "CommutingInfinitePair", "HyperbolicityVerdict", "affine_from_commuting",
         "check_affine_criterion", "is_hyperbolic", "validate_witness"),
        "hyperbolic",
    ),
    **dict.fromkeys(
        ("RANK_CAP", "EnumFilter", "canonical_code", "enumerate_diagrams",
         "iter_levels", "system_from_code", "worker_map"),
        "enumeration",
    ),
    **dict.fromkeys(
        ("enumerate_minimal_infinite", "enumerate_quasi_minimal",
         "verify_affine_criterion", "verify_engine_agreement", "verify_size_bounds"),
        "experiments",
    ),
}


def __getattr__(name: str):
    import importlib

    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())

__all__ = [
    "INFINITY",
    "Label",
    "CoxeterSystem",
    "ValidationResult",
    "validate",
    "restrict",
    "components",
    "is_connected",
    "is_simply_laced",
    "is_crystallographic",
    "label_text",
    "path_system",
    "cycle_system",
    "standard_system",
    "TypeClass",
    "INDEFINITE",
    "Signature",
    "UndecidedSignature",
    "classify",
    "classify_irreducible",
    "signature",
    "is_spherical",
    "is_k_spherical",
    "has_affine_parabolic",
    "max_spherical_rank",
    "ThresholdResult",
    "kazhdan_threshold",
    "AffineSubset",
    "CommutingInfinitePair",
    "HyperbolicityVerdict",
    "is_hyperbolic",
    "validate_witness",
    "AffineCriterionCheck",
    "check_affine_criterion",
    "AffineSearchResult",
    "affine_from_commuting",
    "RANK_CAP",
    "EnumFilter",
    "canonical_code",
    "system_from_code",
    "enumerate_diagrams",
    "iter_levels",
    "worker_map",
    "minimal_infinite_subsets",
    "enumerate_minimal_infinite",
    "enumerate_quasi_minimal",
    "verify_affine_criterion",
    "verify_engine_agreement",
    "verify_size_bounds",
    "Report",
    "TOOL_VERSION",
    "__version__",
]
