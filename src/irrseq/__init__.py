"""Sequences of monic irreducible polynomials over odd prime fields.

The package builds infinite families of irreducible polynomials by
iterating a degree-doubling transform, factors the transform through a
linear system over F_p when it splits, and verifies the tree structure
of the underlying halving map on the projective line.
"""

from .errors import (InternalInvariantError, NonResidueError, PolyParseError,
                     ReducibleError)
from .extfield import (INFINITY, ExtElem, ExtField, RFactorization, factor_r,
                       theta, tilde)
from .fp import fp_sqrt, is_prime, legendre, nu2, solve_nullspace
from .graph import (FunctionalGraph, TreeReport, build_graph, conjugacy_check,
                    export_dot, verify_tree_structure)
from .poly import (FpPoly, irreducibles, q_irreducibility_predicate,
                    r_irreducibility_predicate, random_irreducible)
from .sequence import (SeqConfig, SeqTrace, StepRecord, TieBreak,
                       build_sequence, choose_factor)

__version__ = "0.1.0"

__all__ = [
    "ExtElem", "ExtField", "FpPoly", "FunctionalGraph", "INFINITY",
    "InternalInvariantError", "NonResidueError", "PolyParseError",
    "RFactorization", "ReducibleError", "SeqConfig", "SeqTrace", "StepRecord",
    "TieBreak", "TreeReport", "build_graph", "build_sequence", "choose_factor",
    "conjugacy_check", "export_dot", "factor_r", "fp_sqrt", "irreducibles",
    "is_prime", "legendre", "nu2", "q_irreducibility_predicate",
    "r_irreducibility_predicate", "random_irreducible", "solve_nullspace",
    "theta", "tilde", "verify_tree_structure",
]
