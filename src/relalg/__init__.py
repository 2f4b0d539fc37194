"""Finite relation algebras of group actions.

Atom structures with converse, identity and a composition cycle table,
their validation and the three axioms of the paper; concrete algebras of
binary relations; compatible-relation algebras of finite permutation
group actions; and a decision procedure, with constructive witnesses, for
representability over actions of the two-element group.  Elements of an
atom structure are bitmasks of atoms (AtomStructure.compose_mask and
converse_mask); a structure's validation report is
AtomStructure.validation.

Each public name resolves on first use: `import relalg` loads no
submodule, and `relalg.decide_z2` imports `relalg.decision` when it is
first read (PEP 562).  A program that never reads a name of the decision
procedure or of the pair-dense classification never compiles them.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, in the order of __all__
_SUBMODULE = {name: module for module, names in (
    ("atoms", ("AtomStructure", "ValidationReport", "Violation",
               "AxiomFailure", "AxiomReport", "peirce_orbit",
               "check_z2_axioms")),
    ("concrete", ("ConcreteAlgebra", "extract_atom_structure")),
    ("actions", ("GroupAction", "build_group", "pair_orbits", "rel_algebra")),
    ("pairdense", ("BasePartition", "AtomTypeInfo", "AtomClassification",
                   "derive_points_twins", "classify_atoms")),
    ("decision", ("IsoWitness", "Z2Decision", "VerificationReport",
                  "DEFAULT_BUDGET", "find_isomorphism", "decide_z2",
                  "check_action_represents", "verify_decision")),
    ("errors", ("ParseError", "InvalidStructureError", "ConcreteAlgebraError",
                "ActionError", "ClassificationError", "SearchBudgetExceeded",
                "InternalError", "RelalgError")),
    ("formats", ("parse_atom_structure", "format_atom_structure",
                 "parse_concrete_algebra", "format_concrete_algebra",
                 "parse_group_action", "format_group_action")),
) for name in names}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE})
