"""The paper's three first-order axioms: simplicity, pair-density and
functionality of every atom up to converse.

atoms.check_z2_axioms, which validates first, imports this module when
it is called, and the decision procedure imports it with its own module.
So `axioms`, `decide-z2`, `iso` and `check-action` load it, and `rel`,
`validate` and `classify` never compile it.  The axioms compose nothing:
they read AtomStructure._places, O(atoms + identity atoms^2) mask
operations.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .atoms import AtomStructure, _Record

# The three witnesses below read per-atom facts, never a composition, and
# the local laws, which make each atom's domain and range single identity
# atoms.  Simplicity and pair-density lean on associativity too; where it
# fails they may err, but no output changes: every rejection and `none` is
# validated, every accepted map certified (IsoWitness.problems()), and a
# failed proof map validated first (decision._gated).


def _simplicity_witness(s: AtomStructure) -> str | None:
    """The least atom a with 1;a;1 != 1, or None.

    On a valid structure 1;a;1 = 1;d;1 for d the domain of a, since
    a = d;a and d <= a;a~.  And 1;d;1 = 1 exactly when every identity atom
    f lies below it, which holds when some atom runs from f to d, that is
    when the rectangle f;1;d, out[f] & into[d], is not empty, and only
    then.  So the witness is the least atom in the union of out[d], the
    atoms with domain d, over the identity atoms d that fail.
    """
    out, into = s._places[:2]
    bad = reduce(or_, (out[d] for d in s.identity_atoms
                       if not all(out[f] & into[d] for f in s.identity_atoms)), 0)
    return s.atom_names[(bad & -bad).bit_length() - 1] if bad else None


def _pair_density_witness(s: AtomStructure, fn: int) -> str | None:
    """The least identity atom e that is not a pair, or None.

    e;0';e;0';e = L;L for L = e;0';e, the diversity atoms from e to e.
    Each x;y with x, y in L is nonzero and meets 1' only if y = x~, so two
    atoms of L fail (in x;y or x;x), and one, then x = x~, passes iff it is
    a function (in fn).
    """
    for e, loops in sorted(s._loops.items()):
        if loops & (loops - 1) or loops & ~fn:
            return s.atom_names[e]
    return None


def _functionality_witness(s: AtomStructure, fn: int) -> str | None:
    """The least atom a with neither a nor a~ a function (in fn), or None."""
    for a, c in enumerate(s.converse_map):
        if not (fn >> a & 1 or fn >> c & 1):
            return s.atom_names[a]
    return None


# the three axioms in order: number, condition, and the AxiomReport field
# of the answer (its witness is the field name + "_witness")
_AXIOMS = ((1, "simplicity", "simple"), (2, "pair-density", "pair_dense"),
           (3, "functionality", "functional"))


class AxiomFailure(_Record):
    __slots__ = _fields = ("axiom", "condition", "witness")

    def __init__(self, axiom: int, condition: str, witness: str):
        self._init(axiom, condition, witness)


class AxiomReport(_Record):
    """Results of the three first-order axioms, with witnesses on failure."""

    __slots__ = _fields = ("simple", "pair_dense", "functional",
                           "simple_witness", "pair_dense_witness",
                           "functional_witness")

    def __init__(self, simple: bool, pair_dense: bool, functional: bool,
                 simple_witness: str | None = None,
                 pair_dense_witness: str | None = None,
                 functional_witness: str | None = None):
        self._init(simple, pair_dense, functional, simple_witness,
                   pair_dense_witness, functional_witness)

    @property
    def all_hold(self) -> bool:
        return self.simple and self.pair_dense and self.functional

    def failures(self) -> tuple[AxiomFailure, ...]:
        return tuple(AxiomFailure(k, condition, getattr(self, f"{field}_witness"))
                     for k, condition, field in _AXIOMS
                     if not getattr(self, field))


def _z2_axioms(s: AtomStructure) -> AxiomReport:
    # check_z2_axioms on a structure whose local laws hold
    fn = s.full_mask & ~s._places[2]  # the functions, by the cycle law
    sw = _simplicity_witness(s)
    pw = _pair_density_witness(s, fn)
    fw = _functionality_witness(s, fn)
    return AxiomReport(
        simple=sw is None, pair_dense=pw is None, functional=fw is None,
        simple_witness=sw, pair_dense_witness=pw, functional_witness=fw)
