"""pilat: partition lattices, finite and symbolic.

The finite side works on ground sets {0..n-1}: enumeration, chains,
antichains, complements and orthocomplement search, all exact.  The
symbolic side evaluates the matching statements about infinite ground
sets: alephs with Cantor-normal-form indices, cofinality, cardinal powers
under GCH or pinned continuum values, complement counts by shape, and
chain cardinality bounds.

Importing the package loads none of its modules.  Each export loads on
first use: ``__getattr__`` (PEP 562) looks the name up in ``_EXPORTS``,
imports the submodule that defines it and stores the value here, so a
later lookup is an ordinary global.  ``from pilat import Partition`` and
``from pilat import *`` work as with eager imports; a name outside the
table raises AttributeError, so ``from pilat import cardinal`` falls
back to importing the submodule.
"""
__version__ = "0.1.0"

# export name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("antichains", "AntichainReport bipartition_antichain doubleton_antichain "
                   "extend_to_maximal_antichain verify_antichain"),
    ("cardinal", "ALEPH0 GCH Cardinal CardinalInterval ChainBounds ContinuumModel Ordinal "
                 "PartitionShape aleph card_cofinality card_pow card_sum_family "
                 "card_tarski_product chain_cardinality_bounds complement_count_symbolic "
                 "evaluate fin format_cardinal format_ordinal format_result parse_ordinal "
                 "power_of_two"),
    ("chains", "ChainReport KeyframePlan enumerate_maximal_chains extend_to_maximal "
               "keyframe_chain lift_subset_chain verify_chain"),
    ("complements", "complement_census enumerate_complements grieser_count "
                    "injection_complement injection_complement_family is_complement "
                    "split_transversal_complement split_transversal_family"),
    ("enumeration", "atoms bell coatoms iter_partitions stirling2"),
    ("ortho", "NonOrthoWitness OrthoReport check_ortho_map non_ortho_witness "
              "search_orthocomplementation"),
    ("partitions", "Partition bottom comparable covers diag ground_cap join leq meet top"),
) for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
