"""pilat: partition lattices, finite and symbolic.

The finite side works on ground sets {0..n-1}: enumeration, chains,
antichains, complements and orthocomplement search, all exact.  The
symbolic side evaluates the matching statements about infinite ground
sets: alephs with Cantor-normal-form indices, cofinality, cardinal powers
under GCH or pinned continuum values, complement counts by shape, and
chain cardinality bounds.
"""
from .antichains import (AntichainReport, bipartition_antichain, doubleton_antichain,
                         extend_to_maximal_antichain, verify_antichain)
from .cardinal import (ALEPH0, GCH, Cardinal, CardinalInterval, ChainBounds,
                       ContinuumModel, Ordinal, PartitionShape, aleph,
                       card_cofinality, card_pow, card_sum_family,
                       card_tarski_product, chain_cardinality_bounds,
                       complement_count_symbolic, evaluate, fin,
                       format_cardinal, format_ordinal, format_result,
                       parse_ordinal, power_of_two)
from .chains import (ChainReport, KeyframePlan, enumerate_maximal_chains,
                     extend_to_maximal, keyframe_chain, lift_subset_chain,
                     verify_chain)
from .complements import (complement_census, enumerate_complements, grieser_count,
                          injection_complement, injection_complement_family,
                          is_complement, relative_complement_in,
                          split_transversal_complement, split_transversal_family)
from .enumeration import atoms, bell, coatoms, iter_partitions, stirling2
from .ortho import (NonOrthoWitness, OrthoReport, check_ortho_map, non_ortho_witness,
                    search_orthocomplementation)
from .partitions import (Partition, bottom, comparable, covers, diag, ground_cap,
                         join, leq, meet, top)

__version__ = "0.1.0"
