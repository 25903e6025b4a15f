"""Singularities of Schubert varieties in type A flag varieties.

The package decides smoothness, locates the irreducible components of the
singular locus, classifies each component into one of three types, and
verifies the associated local data exactly: transversal slice equations,
tangent space dimensions, and Kazhdan-Lusztig polynomials.

The top level exports what README documents, and the types and errors
those functions take or raise; every other name is imported from its
module (``schubsing.perms``, ``schubsing.components``, ...).
"""

from .components import (
    ClassificationError,
    components_from_patterns,
    enumerate_components,
)
from .kl import kl_recursion
from .patterns import find_patterns, is_smooth
from .perms import Permutation, make_permutation, parse_permutation
from .slices import (
    FlagMatrix,
    SliceStructureError,
    build_slice,
    in_schubert,
    verify_slice,
)
from .sweep import verify_all
from .tangent import singular_components, tangent_dimension

__version__ = "0.1.0"

# The one interval-mask kernel is pure Python; benchmark results are stamped
# with this name, which perfbench/run.py reads, so it stays public.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "ClassificationError",
    "FlagMatrix",
    "Permutation",
    "SliceStructureError",
    "__version__",
    "build_slice",
    "components_from_patterns",
    "enumerate_components",
    "find_patterns",
    "in_schubert",
    "is_smooth",
    "kl_recursion",
    "make_permutation",
    "parse_permutation",
    "singular_components",
    "tangent_dimension",
    "verify_all",
    "verify_slice",
]
