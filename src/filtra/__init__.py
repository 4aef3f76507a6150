"""Filtered quiver representations over prime fields.

Conflations (vertexwise short exact sequences), extension classes, filtrations
by an ordered family with reordering and grouping, a filtration decision
procedure with an independent oracle, and preenvelope/precover constructions.

The names below are resolved on first use (PEP 562), so ``import filtra``
loads no submodule and each name loads only the submodule that defines it.
"""

import importlib

_EXPORTS = {
    "errors": ("Budget", "BudgetExceeded", "DimensionMismatch", "ExtObstruction",
               "FiltraError", "ParseError", "ValidationError", "ZeroExt",
               "default_budget"),
    "linalg": ("Matrix", "PrimeField"),
    "quiverrep": ("Arrow", "Quiver", "RepMorphism", "Representation", "ThetaFamily",
                  "direct_sum", "direct_power", "enumerate_indecomposables",
                  "enumerate_reps", "enumerate_subreps", "euler_pairing",
                  "hom_space", "is_indecomposable", "is_isomorphic", "iso_key",
                  "iso_witness"),
    "conflation": ("Conflation", "ExtClass", "ExtSpace", "SplitWitness", "class_of",
                   "complete_square", "conflation_direct_sum",
                   "conflations_equivalent", "connecting_map", "et4_compose",
                   "et4op_compose", "ext_space", "is_split", "pullback",
                   "pushforward", "realize", "shift_base"),
    "filtration": ("Filtration", "FiltrationStep", "GroupedFiltration",
                   "GroupedStep", "collapse", "decide_filtered", "exchange",
                   "extend", "group", "in_add", "multiplicities", "oracle_filtered",
                   "power_filtration", "reorder", "star_membership",
                   "transport_top"),
    "approx": ("ApproxResult", "VerifyReport", "is_theta_injective",
               "is_theta_projective", "perp_class", "precover", "preenvelope",
               "universal_extension_cover", "universal_extension_env", "verify"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        # "from filtra import quiverrep" imports the submodule after this
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
