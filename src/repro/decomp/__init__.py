"""Decomposition substrate: HD/GHD structures, extended subhypergraphs,
components, λ-label enumeration, validation, join trees."""

from .decomposition import (
    Decomposition,
    DecompositionNode,
    GeneralizedHypertreeDecomposition,
    HypertreeDecomposition,
)
from .extended import BitComp, FragmentNode, full_bitcomp
from .components import components, covered_items, separate
from .covers import CoverEnumerator, label_union
from .validation import (
    check_width,
    is_valid_ghd,
    is_valid_hd,
    validate_extended_hd,
    validate_ghd,
    validate_hd,
)
from .jointree import JoinTree, JoinTreeNode, join_tree_from_decomposition

__all__ = [
    "Decomposition",
    "DecompositionNode",
    "GeneralizedHypertreeDecomposition",
    "HypertreeDecomposition",
    "BitComp",
    "FragmentNode",
    "full_bitcomp",
    "components",
    "covered_items",
    "separate",
    "CoverEnumerator",
    "label_union",
    "check_width",
    "is_valid_ghd",
    "is_valid_hd",
    "validate_extended_hd",
    "validate_ghd",
    "validate_hd",
    "JoinTree",
    "JoinTreeNode",
    "join_tree_from_decomposition",
]
