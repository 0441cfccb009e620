"""Correlated community-structured graph pairs: generation, typicality
matching with or without community knowledge, and numerical evaluation of the
matching feasibility conditions, validated by exact brute-force oracles."""

__version__ = "0.1.0"

from .bounds import (AlphaRow, ConverseVerdict, ExponentReport, RegionVerdict,
                     achievability_check, achievability_check_csi,
                     achievability_check_wsi, achievability_profile,
                     converse_check, converse_check_csi, converse_check_wsi,
                     er_achievability, er_converse, fixed_point_mixture,
                     kl_divergence, mutual_information,
                     permuted_typicality_bound)
from .errors import (CommatchError, EmptyAmbiguitySetError,
                     InfeasibleAllocationError, ParameterError, SizeGuardError,
                     ValidationError)
from .graphgen import (CorrelatedPair, MatchingInstance, anonymize,
                       load_instance, sample_pair, save_instance,
                       vertex_accuracy)
from .matcher import (AmbiguitySet, MatchDiagnostics, MatchResult,
                      ambiguity_set_csi, ambiguity_set_wsi, run_matching,
                      select_labeling)
from .model import (CommunityLayout, PairedEdgeModel, copy_joint, dsbs_joint,
                    homogeneous_model, load_model, marginal, product_coupling,
                    save_model, single_community, uniform_product_joint)
from .oracle import (ExactProbability, derangement_count, enumerate_labelings,
                     exact_typicality_probability, unrestricted_csi_labelings)
from .permutation import (CycleStructure, Labeling, Permutation,
                          cycle_decomposition, cycle_parameter_space,
                          fixed_point_fraction, from_labelings, from_one_based,
                          standard_permutation, to_one_based)
from .typicality import (DEFAULT_KAPPA, block_slots, blocks_jointly_typical,
                         default_epsilon, is_jointly_typical, joint_type,
                         paired_blocks)

__all__ = [name for name in dir() if not name.startswith("_")]
