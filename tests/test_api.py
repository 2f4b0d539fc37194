"""The public surface of the package, pinned so that a removal is deliberate."""

import inspect
import pickle

import pytest

import relalg
from relalg import (AtomClassification, AtomStructure, AtomTypeInfo,
                    AxiomFailure, AxiomReport, BasePartition, ConcreteAlgebra,
                    GroupAction, IsoWitness, ValidationReport,
                    VerificationReport, Violation, Z2Decision, decide_z2)

from conftest import load_structure, replaced

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


def fields_of(record) -> dict:
    return {k: getattr(record, k)
            for k in inspect.signature(type(record)).parameters}


def test_records_keep_value_semantics():
    # each public record compares and hashes by its fields, within its own
    # class only, writes its fields in its repr, refuses assignment and
    # deletion, survives a pickle, and keeps its constructor's parameters
    # and defaults
    s = load_structure("swap.ra")
    d = decide_z2(s)
    base, info = BasePartition(3, (2,), ((0, 1),)), AtomTypeInfo("a", 1, (0,))
    rows = [  # class, fields in parameter order, a change, the defaults
        (Violation, {"code": "identity", "message": "m"}, {"message": "n"},
         {}),
        (ValidationReport, {"violations": (Violation("c", "m"),)},
         {"violations": ()}, {"violations": ()}),
        (AtomStructure, fields_of(s), {"atom_names": ("x", "y")}, {}),
        (AxiomFailure, {"axiom": 1, "condition": "simplicity",
                        "witness": "a"}, {"axiom": 2}, {}),
        (AxiomReport, {"simple": True, "pair_dense": False,
                       "functional": True, "simple_witness": None,
                       "pair_dense_witness": "a", "functional_witness": None},
         {"simple": False}, {"simple_witness": None,
                             "pair_dense_witness": None,
                             "functional_witness": None}),
        (ConcreteAlgebra, fields_of(d.algebra), {"atom_names": ("x", "y")},
         {}),
        (GroupAction, fields_of(d.action), {"generators": ()}, {}),
        (BasePartition, fields_of(base), {"base_size": 4}, {}),
        (AtomTypeInfo, fields_of(info), {"type_tag": 2}, {}),
        (AtomClassification, {"base": base, "atoms": (info,), "tilde": ()},
         {"atoms": ()}, {}),
        (IsoWitness, fields_of(d.witness), {"atom_map": (1, 0)}, {}),
        (Z2Decision, fields_of(d), {"accepted": False},
         {"failures": (), "action": None, "algebra": None, "witness": None}),
        (VerificationReport, {"problems": ("p",)}, {"problems": ()},
         {"problems": ()}),
    ]
    assert len({row[0] for row in rows}) == 13
    for cls, fields, change, defaults in rows:
        params = inspect.signature(cls).parameters
        assert list(params) == list(fields), cls
        assert {k: p.default for k, p in params.items()
                if p.default is not p.empty} == defaults, cls
        a, b = cls(**fields), cls(*fields.values())
        assert fields_of(a) == fields, cls
        assert a == b and hash(a) == hash(b) and not a != b, cls
        assert a != replaced(a, **change), cls
        assert a.__eq__(object()) is NotImplemented and a != object(), cls
        assert repr(a) == cls.__name__ + "(" + ", ".join(
            f"{k}={getattr(a, k)!r}" for k in fields) + ")"
        assert pickle.loads(pickle.dumps(a)) == a, cls
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert fields_of(a) == fields, cls
        if defaults:
            bare = cls(**{k: v for k, v in fields.items()
                          if k not in defaults})
            assert all(getattr(bare, k) == v for k, v in defaults.items())
