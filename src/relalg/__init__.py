"""Finite relation algebras of group actions.

Atom structures with converse, identity and a composition cycle table;
concrete algebras of binary relations; compatible-relation algebras of
finite permutation group actions; and a decision procedure, with
constructive witnesses, for representability over actions of the
two-element group.
"""

from .atoms import (AtomStructure, AxiomFailure, AxiomReport, Element,
                    ElementClass, ValidationReport, Violation, apply_converse,
                    atoms_functional, check_functional_density,
                    check_z2_axioms, classify_element, close_cycles, compose,
                    is_function, is_pair, is_pair_dense, is_point, is_simple,
                    is_twin, peirce_orbit, validate_structure)
from .concrete import (ConcreteAlgebra, ConcreteRelation,
                       extract_atom_structure, relation_complement,
                       relation_compose, relation_converse)
from .actions import (GroupAction, build_group, is_compatible, pair_orbits,
                      rel_algebra)
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
    "AtomStructure", "Element", "ElementClass", "ValidationReport",
    "Violation", "AxiomFailure", "AxiomReport", "peirce_orbit",
    "close_cycles", "validate_structure", "compose", "apply_converse",
    "is_point", "is_pair", "is_twin", "is_function", "classify_element",
    "is_simple", "is_pair_dense", "atoms_functional", "check_z2_axioms",
    "check_functional_density",
    "ConcreteRelation", "ConcreteAlgebra", "relation_compose",
    "relation_converse", "relation_complement", "extract_atom_structure",
    "GroupAction", "build_group", "pair_orbits", "rel_algebra", "is_compatible",
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
