"""Finite relation algebras of group actions.

Atom structures with converse, identity and a composition cycle table,
their validation and the three axioms of the paper; concrete algebras of
binary relations; compatible-relation algebras of finite permutation
group actions; and a decision procedure, with constructive witnesses, for
representability over actions of the two-element group.  Elements of an
atom structure are bitmasks of atoms (AtomStructure.compose_mask and
converse_mask); a structure's validation report is
AtomStructure.validation.
"""

from .atoms import (AtomStructure, AxiomFailure, AxiomReport,
                    ValidationReport, Violation, check_z2_axioms,
                    close_cycles, peirce_orbit)
from .concrete import ConcreteAlgebra, extract_atom_structure
from .actions import GroupAction, build_group, pair_orbits, rel_algebra
from .pairdense import (AtomClassification, AtomTypeInfo, BasePartition,
                        classify_atoms, derive_points_twins)
from .decision import (DEFAULT_BUDGET, IsoWitness, VerificationReport,
                       Z2Decision, check_action_represents, decide_z2,
                       find_isomorphism, verify_decision)
from .errors import (ActionError, ClassificationError, ConcreteAlgebraError,
                     InternalError, InvalidStructureError, ParseError,
                     RelalgError, SearchBudgetExceeded)
from .formats import (format_atom_structure, format_concrete_algebra,
                      format_group_action, parse_atom_structure,
                      parse_concrete_algebra, parse_group_action)

__version__ = "0.1.0"

__all__ = [
    "AtomStructure", "ValidationReport", "Violation", "AxiomFailure",
    "AxiomReport", "peirce_orbit", "close_cycles", "check_z2_axioms",
    "ConcreteAlgebra", "extract_atom_structure",
    "GroupAction", "build_group", "pair_orbits", "rel_algebra",
    "BasePartition", "AtomTypeInfo", "AtomClassification",
    "derive_points_twins", "classify_atoms",
    "IsoWitness", "Z2Decision", "VerificationReport", "DEFAULT_BUDGET",
    "find_isomorphism", "decide_z2", "check_action_represents",
    "verify_decision",
    "ParseError", "InvalidStructureError", "ConcreteAlgebraError",
    "ActionError", "ClassificationError", "SearchBudgetExceeded",
    "InternalError", "RelalgError",
    "parse_atom_structure", "format_atom_structure",
    "parse_concrete_algebra", "format_concrete_algebra",
    "parse_group_action", "format_group_action",
    "__version__",
]
