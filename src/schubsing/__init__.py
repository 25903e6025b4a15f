"""Singularities of Schubert varieties in type A flag varieties.

The package decides smoothness, locates the irreducible components of the
singular locus, classifies each component into one of three types, and
verifies the associated local data exactly: transversal slice equations,
tangent space dimensions, and Kazhdan-Lusztig polynomials.
"""

from .components import (
    TYPE_3412_EMPTY,
    TYPE_3412_STAR,
    TYPE_4231,
    ClassificationError,
    Component,
    classify_component,
    components_from_patterns,
    enumerate_components,
    verify_formulas,
)
from .kl import clear_kl_cache, kl_recursion
from .patterns import PatternOccurrence, find_patterns, is_smooth
from .perms import (
    Permutation,
    bruhat_leq,
    compose,
    format_permutation,
    identity,
    inverse,
    length,
    longest_element,
    make_permutation,
    parse_permutation,
    rank_table,
    transposition,
)
from .slices import (
    FlagMatrix,
    SliceModel,
    SliceStructureError,
    SliceVerdict,
    build_slice,
    determinantal_model,
    embed_point,
    free_coordinates,
    in_schubert,
    slice_report,
    verify_slice,
)
from .sweep import verify_all, verify_permutation
from .tangent import TangentReport, singular_components, tangent_dimension

__version__ = "0.1.0"

# The one interval-mask kernel is pure Python; benchmark results are stamped
# with this name, which perfbench/run.py reads, so it stays public.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "TYPE_3412_EMPTY",
    "TYPE_3412_STAR",
    "TYPE_4231",
    "ClassificationError",
    "Component",
    "FlagMatrix",
    "PatternOccurrence",
    "Permutation",
    "SliceModel",
    "SliceStructureError",
    "SliceVerdict",
    "TangentReport",
    "__version__",
    "bruhat_leq",
    "build_slice",
    "classify_component",
    "clear_kl_cache",
    "components_from_patterns",
    "compose",
    "determinantal_model",
    "embed_point",
    "enumerate_components",
    "find_patterns",
    "format_permutation",
    "free_coordinates",
    "identity",
    "in_schubert",
    "inverse",
    "is_smooth",
    "kl_recursion",
    "length",
    "longest_element",
    "make_permutation",
    "parse_permutation",
    "rank_table",
    "singular_components",
    "slice_report",
    "tangent_dimension",
    "transposition",
    "verify_all",
    "verify_formulas",
    "verify_permutation",
    "verify_slice",
]
