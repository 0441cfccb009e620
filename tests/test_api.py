"""The package root's public names. A change to the public API shows up as a
change to this list."""

import importlib

import commatch

PUBLIC_NAMES = [
    "AlphaRow",
    "AmbiguitySet",
    "CommatchError",
    "CommunityLayout",
    "ConverseVerdict",
    "CorrelatedPair",
    "CycleStructure",
    "DEFAULT_KAPPA",
    "EmptyAmbiguitySetError",
    "ExactProbability",
    "ExponentReport",
    "InfeasibleAllocationError",
    "Labeling",
    "MatchDiagnostics",
    "MatchResult",
    "MatchingInstance",
    "PairedEdgeModel",
    "ParameterError",
    "Permutation",
    "RegionVerdict",
    "SizeGuardError",
    "ValidationError",
    "achievability_check",
    "achievability_check_csi",
    "achievability_check_wsi",
    "achievability_profile",
    "ambiguity_set_csi",
    "ambiguity_set_wsi",
    "anonymize",
    "block_slots",
    "blocks_jointly_typical",
    "bounds",
    "converse_check",
    "converse_check_csi",
    "converse_check_wsi",
    "copy_joint",
    "cycle_decomposition",
    "cycle_parameter_space",
    "default_epsilon",
    "derangement_count",
    "dsbs_joint",
    "enumerate_labelings",
    "er_achievability",
    "er_converse",
    "errors",
    "exact_typicality_probability",
    "fixed_point_fraction",
    "fixed_point_mixture",
    "from_labelings",
    "from_one_based",
    "graphgen",
    "homogeneous_model",
    "is_jointly_typical",
    "joint_type",
    "kl_divergence",
    "load_instance",
    "load_model",
    "marginal",
    "matcher",
    "model",
    "mutual_information",
    "oracle",
    "paired_blocks",
    "permutation",
    "permuted_typicality_bound",
    "product_coupling",
    "run_matching",
    "sample_pair",
    "save_instance",
    "save_model",
    "select_labeling",
    "single_community",
    "standard_permutation",
    "to_one_based",
    "typicality",
    "uniform_product_joint",
    "unrestricted_csi_labelings",
    "vertex_accuracy",
]

SUBMODULES = ["bounds", "errors", "graphgen", "matcher", "model", "oracle", "permutation",
              "typicality"]


def test_package_root_public_names():
    assert sorted(commatch.__all__) == PUBLIC_NAMES
    assert all(hasattr(commatch, name) for name in PUBLIC_NAMES)


def test_package_root_names_are_the_defining_modules_objects():
    # the root resolves its names lazily; each must be the very object its
    # submodules hold, and a submodule's name the submodule itself
    subs = {name: importlib.import_module(f"commatch.{name}") for name in SUBMODULES}
    for name in commatch.__all__:
        value = getattr(commatch, name)
        if name in subs:
            assert value is subs[name]
            continue
        holders = [m for m in subs.values() if hasattr(m, name)]
        assert holders and all(getattr(m, name) is value for m in holders), name
    assert set(commatch.__all__) <= set(dir(commatch))
    star = {}
    exec("from commatch import *", star)
    assert all(star[name] is getattr(commatch, name) for name in commatch.__all__)
