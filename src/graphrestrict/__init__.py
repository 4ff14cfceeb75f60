"""graphrestrict: graph-restrictiveness for intransitive permutation groups.

Decides whether an intransitive permutation group is graph-restrictive
(exactly the semiregular ones are) and, for intransitive non-semiregular
groups, explicitly constructs and certifies finite locally-L pairs whose
vertex-stabiliser orders grow without bound.
"""

__version__ = "0.1.0"

from .classify import (LocalGroupAnalysis, analyze_local_group,
                       restrictive_verdict)
from .amalgam import AmalgamStar, build_star, local_model, validate_star
from .completion import (Carrier, CompletionCandidate, CompletionReport,
                         SearchConfig, build_involution, find_completion,
                         verify_completion)
from .cosetgraph import (FiniteGraph, GrowthTable, LocallyLPair,
                         build_graph, construct_pair, enumerate_cosets,
                         export_graph, growth_report, local_action,
                         parse_graph, verify_locally_L)
from .errors import (CapacityError, CompletionSearchError, GraphRestrictError,
                     InputError, NotEnumeratedError, ParseError,
                     TheoryViolationError, ValidationError)
from .perm import (Permutation, PermutationGroup, StabiliserChain,
                   is_semiprimitive, orbits, parse_permutation,
                   permutation_isomorphic, point_stabiliser, predicates)

__all__ = [
    "__version__",
    "Permutation", "PermutationGroup", "StabiliserChain",
    "parse_permutation", "orbits", "point_stabiliser", "predicates",
    "is_semiprimitive",
    "permutation_isomorphic",
    "LocalGroupAnalysis", "analyze_local_group", "restrictive_verdict",
    "AmalgamStar", "build_star", "validate_star",
    "local_model",
    "SearchConfig", "CompletionCandidate", "CompletionReport",
    "Carrier", "build_involution", "verify_completion",
    "find_completion",
    "FiniteGraph", "LocallyLPair", "GrowthTable", "enumerate_cosets",
    "build_graph", "local_action", "verify_locally_L", "growth_report",
    "construct_pair", "export_graph", "parse_graph",
    "GraphRestrictError", "InputError", "ParseError", "CapacityError",
    "ValidationError", "TheoryViolationError", "CompletionSearchError",
    "NotEnumeratedError",
]
