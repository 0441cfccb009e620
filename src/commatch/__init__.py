"""Correlated community-structured graph pairs: generation, typicality
matching with or without community knowledge, and numerical evaluation of the
matching feasibility conditions, validated by exact brute-force oracles.

The public names are resolved lazily (PEP 562): `import commatch` loads no
submodule and no numpy, and each name imports its defining module on first use
and is then bound here. The submodules themselves are public names too.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "bounds": ("AlphaRow", "ConverseVerdict", "ExponentReport", "RegionVerdict",
               "achievability_check", "achievability_check_csi",
               "achievability_check_wsi", "achievability_profile", "converse_check",
               "converse_check_csi", "converse_check_wsi", "er_achievability",
               "er_converse", "fixed_point_mixture", "kl_divergence",
               "mutual_information", "permuted_typicality_bound"),
    "errors": ("CommatchError", "EmptyAmbiguitySetError", "InfeasibleAllocationError",
               "ParameterError", "SizeGuardError", "ValidationError"),
    "graphgen": ("CorrelatedPair", "MatchingInstance", "anonymize", "load_instance",
                 "sample_pair", "save_instance", "vertex_accuracy"),
    "matcher": ("AmbiguitySet", "MatchDiagnostics", "MatchResult", "ambiguity_set_csi",
                "ambiguity_set_wsi", "run_matching", "select_labeling"),
    "model": ("CommunityLayout", "PairedEdgeModel", "copy_joint", "dsbs_joint",
              "homogeneous_model", "load_model", "marginal", "product_coupling",
              "save_model", "single_community", "uniform_product_joint"),
    "oracle": ("ExactProbability", "derangement_count", "enumerate_labelings",
               "exact_typicality_probability", "unrestricted_csi_labelings"),
    "permutation": ("CycleStructure", "Labeling", "Permutation", "cycle_decomposition",
                    "cycle_parameter_space", "fixed_point_fraction", "from_labelings",
                    "from_one_based", "standard_permutation", "to_one_based"),
    "typicality": ("DEFAULT_KAPPA", "block_slots", "blocks_jointly_typical",
                   "default_epsilon", "is_jointly_typical", "joint_type",
                   "paired_blocks"),
}

# public name -> the submodule that defines it; a submodule names itself
_MODULE_OF = {name: module for module, names in _MODULES.items()
              for name in (module, *names)}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
