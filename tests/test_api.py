"""The public surface of the package, pinned so that a removal is deliberate."""

import relalg

PUBLIC = [
    "ActionError", "AtomClassification", "AtomStructure", "AtomTypeInfo",
    "AxiomFailure", "AxiomReport", "BasePartition", "ClassificationError",
    "ConcreteAlgebra", "ConcreteAlgebraError", "DEFAULT_BUDGET",
    "GroupAction", "InternalError", "InvalidStructureError", "IsoWitness",
    "ParseError", "RelalgError", "SearchBudgetExceeded", "ValidationReport",
    "VerificationReport", "Violation", "Z2Decision", "__version__",
    "build_group", "check_action_represents", "check_z2_axioms",
    "classify_atoms", "close_cycles", "decide_z2", "derive_points_twins",
    "extract_atom_structure", "find_isomorphism", "format_atom_structure",
    "format_concrete_algebra", "format_group_action", "pair_orbits",
    "parse_atom_structure", "parse_concrete_algebra", "parse_group_action",
    "peirce_orbit", "rel_algebra", "verify_decision",
]


def test_public_names_are_pinned():
    assert sorted(relalg.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in relalg.__all__:
        assert hasattr(relalg, name), name
    namespace = {}
    exec("from relalg import *", namespace)
    assert set(relalg.__all__) <= namespace.keys()
