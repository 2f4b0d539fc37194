"""Deciding representability over actions of the two-element group.

The decision evaluates three first-order axioms (simplicity, pair-density,
functionality of every atom up to converse), builds the canonical
involution with one base element per point atom and two per twin atom,
and certifies acceptance with the atom bijection of the proof, fixed by
each atom's domain and range identity atoms and, between twins, whether
it is parallel or crossed (_proof_witness), and checked cycle by cycle.
By the theorem that map fails its check on no valid input that satisfies
the axioms, so a failure is an InternalError.

`iso` and `check-action` let the class answer whenever it can.  The
three axioms alone decide membership (_class_counts), and first-order
sentences are preserved by isomorphism, so a structure in the class is
isomorphic to none outside it.  Two structures in the class are
isomorphic exactly when they have as many point and as many twin
identity atoms, and the algebra of an involution with f fixed points and
t 2-cycles, itself in the class, realizes exactly those with f points
and t twins.  So `iso` answers `none` when one side only is in the class
or the counts differ, and `check-action` with an action of order at most
two answers `none` when the structure is outside the class or its counts
differ from the action's fixed points and 2-cycles, before any algebra
is built.  Equal counts get the proof's map (_realize): onto the
action's algebra, and for `iso` both sides' maps onto the algebra of the
source's involution, composed.  The search, and with it the budget and
SearchBudgetExceeded, is left to `iso` pairs with neither side in the
class and to actions of order above two.  It lives in the module search,
imported only on that branch (_searched), and its map is checked here as
an IsoWitness.

Inputs are checked against the local laws first.  The associativity join
runs only before a verdict that no witness certifies (a rejection, `none`,
an error, the target of an `iso` map found by search): an isomorphism
onto an associative structure proves the other side associative, and
the proof maps both sides of an `iso` onto the structure of one proper
algebra.  The rule lives in one gate, _gated.
"""

from __future__ import annotations

from collections.abc import Sequence

from .actions import GroupAction, build_group, rel_algebra
from .atoms import (AtomStructure, AxiomFailure, _Record, _z2_axioms,
                    iter_bits)
from .concrete import ConcreteAlgebra, extract_atom_structure
from .errors import DEFAULT_BUDGET, InternalError
from .formats import format_atom_structure


class IsoWitness(_Record):
    """An atom bijection claimed to be an isomorphism of structures."""

    __slots__ = _fields = ("source", "target", "atom_map")

    def __init__(self, source: AtomStructure, target: AtomStructure,
                 atom_map: tuple[int, ...]):
        self._init(source, target, atom_map)

    def problems(self) -> tuple[str, ...]:
        s, t, m = self.source, self.target, self.atom_map
        n = s.n_atoms
        if t.n_atoms != n:
            return ("structures have different atom counts",)
        if len(m) != n or sorted(m) != list(range(n)):
            return ("atom map is not a bijection",)
        out = []
        if {m[e] for e in s.identity_atoms} != set(t.identity_atoms):
            out.append("identity atoms are not mapped onto identity atoms")
        for a in range(n):
            if m[s.converse_map[a]] != t.converse_map[m[a]]:
                out.append(f"map does not commute with converse at atom "
                           f"{s.atom_names[a]}")
        # m is a bijection, so it preserves the cycles both ways iff it maps
        # the source cycles onto the target cycles; sort only on failure
        if {(m[x], m[y], m[z]) for x, y, z in s.cycles} != t.cycles:
            inv = self.inverted().atom_map
            for c in sorted(c for c in s.cycles
                            if (m[c[0]], m[c[1]], m[c[2]]) not in t.cycles):
                out.append(f"cycle {s._fmt_triple(c)} is not preserved")
            for c in sorted(c for c in t.cycles
                            if (inv[c[0]], inv[c[1]], inv[c[2]]) not in s.cycles):
                out.append(f"target cycle {t._fmt_triple(c)} has no "
                           f"source cycle")
        return tuple(out)

    def is_valid(self) -> bool:
        return not self.problems()

    def inverted(self) -> "IsoWitness":
        inv = [0] * len(self.atom_map)
        for a, b in enumerate(self.atom_map):
            inv[b] = a
        return IsoWitness(self.target, self.source, tuple(inv))

    def map_lines(self) -> list[str]:
        return [f"map {self.source.atom_names[a]} -> "
                f"{self.target.atom_names[self.atom_map[a]]}"
                for a in range(self.source.n_atoms)]


def find_isomorphism(source: AtomStructure, target: AtomStructure,
                     budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    """An isomorphism of structures, by the class when either side is in
    it, otherwise by a refine-and-propagate search.

    When some structure satisfies the axioms (see _class_counts), no
    search node is spent: None when the other does not or their (points,
    twins) counts differ, otherwise both sides mapped by the proof onto
    the algebra of the source's involution (see _realize) and composed,
    which certifies both, so no join runs.

    Otherwise the search runs (module search, see _searched): each atom
    assignment, tried or forced, is one node of `budget`; past it,
    SearchBudgetExceeded is raised.  None means no isomorphism exists.

    An invalid structure raises InvalidStructureError, the source's when
    both are invalid (see _gated).
    """
    def compute():
        counts = _class_counts(source), _class_counts(target)
        if counts == (None, None):
            w = _searched(source, target, budget)
            return w, (source, target) if w is None else (source,)
        if counts[0] != counts[1]:
            return None, (source, target)
        # both onto the algebra of the source's involution, then composed
        g = _canonical_involution(source)
        _, algebra, there = _realize(source, g)
        back = _proof_witness(target, _blocks(target, g), algebra,
                              there.target).inverted().atom_map
        return IsoWitness(source, target,
                          tuple(back[b] for b in there.atom_map)), ()

    return _gated((source, target), compute)


def _gated(inputs: tuple[AtomStructure, ...], compute):
    """compute() behind the one validation rule of the decision path.

    compute() returns an answer and the inputs that answer does not
    certify.
    1. If any input breaks a local law, every input is validated in full,
       in order, and the first invalid one's report is raised.
    2. Otherwise compute() runs.  If it raises, every input is validated
       before the exception propagates, so an invalid input that fails the
       proof's map ends in its own report, not in an InternalError.
    3. After an answer, only the inputs it does not certify are validated:
       none after an accepted `decide-z2`, a found `check-action` map or an
       `iso` map built by the proof, the source alone after an `iso` map
       found by search, and all of them after any other answer.

    The computations need only the local laws, and a witness onto the
    structure of a proper relation algebra, which is associative (Maddux,
    Relation Algebras, 2006), carries (a;b);c = a;(b;c) back atom by atom,
    so the associativity join runs only where no witness does that.
    """
    if any(s._local_violations for s in inputs):
        for s in inputs:  # raises: a local violation fails validation
            s.require_valid()
    try:
        answer, unproven = compute()
    except Exception:
        for s in inputs:
            s.require_valid()
        raise
    for s in unproven:
        s.require_valid()
    return answer


def _searched(source: AtomStructure, target: AtomStructure,
              budget: int) -> IsoWitness | None:
    """The search's isomorphism of structures whose local laws hold, as a
    checked witness, or None.  The search module is imported here, so
    that a request the class answers never compiles it."""
    from .search import _search_isomorphism
    atom_map = _search_isomorphism(source, target, budget)
    if atom_map is None:
        return None
    witness = IsoWitness(source, target, atom_map)
    bad = witness.problems()
    if bad:
        raise InternalError("search produced an invalid witness: " + bad[0])
    return witness


# ---------------------------------------------------------------------------


class Z2Decision(_Record):
    """Outcome of the representability decision.

    Accepted decisions carry the constructed action, its algebra of
    compatible relations, and the isomorphism witness.  Rejected ones
    carry every failed axiom with its witness atom.
    """

    __slots__ = _fields = ("structure", "accepted", "failures", "action",
                           "algebra", "witness")

    def __init__(self, structure: AtomStructure, accepted: bool,
                 failures: tuple[AxiomFailure, ...] = (),
                 action: GroupAction | None = None,
                 algebra: ConcreteAlgebra | None = None,
                 witness: IsoWitness | None = None):
        self._init(structure, accepted, failures, action, algebra, witness)


def decide_z2(structure: AtomStructure) -> Z2Decision:
    """Decide whether the structure is the compatible-relation algebra of
    some action of the two-element group, and construct one if so.

    An invalid structure raises InvalidStructureError (see _gated).  An
    accepted decision skips the associativity join, soundly:
    `_proof_witness` returns only a witness without problems, a bijection
    onto the structure extracted from the constructed algebra that keeps
    identity atoms, converse and every cycle both ways.
    """
    return _gated((structure,), lambda: _decide_z2(structure))


def _decide_z2(structure: AtomStructure
               ) -> tuple[Z2Decision, tuple[AtomStructure, ...]]:
    # decide_z2 on a structure whose local laws hold, with the inputs
    # its answer leaves unproven
    report = _z2_axioms(structure)
    if not report.all_hold:
        return (Z2Decision(structure, False, failures=report.failures()),
                (structure,))
    action, algebra, witness = _realize(structure,
                                        _canonical_involution(structure))
    return Z2Decision(structure, True, action=action, algebra=algebra,
                      witness=witness), ()


def _realize(s: AtomStructure, g: tuple[int, ...]
             ) -> tuple[GroupAction, ConcreteAlgebra, IsoWitness]:
    """The action of the involution g, which has as many fixed points and
    2-cycles as s has points and twins, its algebra, and the proof's map of
    s onto the algebra's extracted structure (see _proof_witness)."""
    action = build_group(len(g), [g])
    algebra = rel_algebra(action)
    return action, algebra, _proof_witness(
        s, _blocks(s, g), algebra, extract_atom_structure(algebra))


def _canonical_involution(s: AtomStructure) -> tuple[int, ...]:
    """The proof's involution for s: one base element per point atom, two
    swapped elements per twin atom, allocated in identity-atom id order,
    the order _blocks walks them in, giving each its own elements.
    Pair-density makes every identity atom a pair, so one with a diversity
    atom from e to e is a twin."""
    g: list[int] = []
    for e in sorted(s.identity_atoms):
        g.extend((len(g) + 1, len(g)) if s._loops[e] else (len(g),))
    return tuple(g)


def _class_counts(s: AtomStructure) -> tuple[int, int] | None:
    """The (points, twins) counts of a structure whose local laws hold,
    when it satisfies the axioms, else None."""
    if not _z2_axioms(s).all_hold:
        return None
    twins = sum(map(bool, s._loops.values()))
    return len(s.identity_atoms) - twins, twins


def _blocks(s: AtomStructure, g: Sequence[int]
            ) -> dict[int, tuple[int, ...]]:
    """Base elements for s's identity atoms from an involution g with as
    many fixed points and 2-cycles as s has points and twins: walked in id
    order, a point gets the next fixed point of g, a twin (one with a
    nonzero AtomStructure._loops) the next 2-cycle, by its lower element."""
    fixed = iter([(i,) for i, j in enumerate(g) if i == j])
    swaps = iter([(i, j) for i, j in enumerate(g) if i < j])
    return {e: next(swaps if s._loops[e] else fixed)
            for e in sorted(s.identity_atoms)}


def _proof_witness(s: AtomStructure, blocks: dict[int, tuple[int, ...]],
                   algebra: ConcreteAlgebra, target: AtomStructure
                   ) -> IsoWitness:
    """The proof's map from s onto target, the structure extracted from
    the algebra of an involution whose fixed points and 2-cycles are the
    blocks of s's points and twins.

    An atom from identity atom d to r maps to the orbit of a pair from
    block d to block r.  The axioms leave two atoms between twins, parallel
    and crossed: the lower-id atom p[E] from the first twin R to each twin
    E is declared parallel (p[R] = R), and x from E1 to E2 is parallel iff
    (p[E1]~, p[E2], x) is a cycle; a parallel atom maps to the pair orbit from
    the first element of block d to the first of block r, a crossed one to
    the second.  Where s has not this shape or the map fails
    IsoWitness.problems(), raises InternalError with the reason and both
    structures.
    """
    conv, names = s.converse_map, s.atom_names
    idents = sorted(blocks)
    out, into = s._places[:2]
    groups = {(d, r): [*iter_bits(out[d] & into[r])]
              for d in idents for r in idents}
    for (d, r), group in groups.items():
        if len(group) != 1 + (len(blocks[d]) == len(blocks[r]) == 2):
            raise _unproven(s, target, f"{len(group)} atoms from "
                                       f"{names[d]} to {names[r]}")

    twins = sorted(e for e, b in blocks.items() if len(b) == 2)
    p = {e: e if e == twins[0] else min(groups[twins[0], e]) for e in twins}
    owner, n = algebra.owner, algebra.base_size
    m = [-1] * s.n_atoms
    for (d, r), group in groups.items():
        # par holds the atoms sent to the first element of block r: a
        # twin's identity atom, a single atom, or the parallel atom
        par = 1 << d if d == r else 1 << group[0]
        if d != r and len(group) == 2:
            par = sum(1 << a for a in group
                      if (conv[p[d]], p[r], a) in s.cycles)
            if par & (par - 1) or not par:
                raise _unproven(s, target,
                                f"{names[p[d]]}~;{names[p[r]]} is not one "
                                f"atom from {names[d]} to {names[r]}")
        for a in group:
            m[a] = owner[blocks[d][0] * n + blocks[r][not par >> a & 1]]
    witness = IsoWitness(s, target, tuple(m))
    bad = witness.problems()
    if bad:
        raise _unproven(s, target, bad[0])
    return witness


def _unproven(s: AtomStructure, target: AtomStructure, reason: str
              ) -> InternalError:
    # the error to raise where the proof's map of s onto target breaks
    return InternalError(
        f"accepted axioms but the constructed isomorphism fails: {reason}"
        "\n--- input ---\n" + format_atom_structure(s)
        + "--- constructed ---\n" + format_atom_structure(target))


def check_action_represents(structure: AtomStructure, action: GroupAction,
                            budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    """Does this particular action's algebra realize the structure?

    When the action's group has order at most two (a trivial action
    counts), its algebra is in the class, so the class answers and no
    search runs: None, before any algebra is built, when the structure is
    outside the class or its (points, twins) counts (see _class_counts)
    differ from the action's fixed points and 2-cycles, otherwise the
    proof's map with those as the blocks (see _realize).  Only actions of
    order above two go to the search of find_isomorphism.

    Only the structure is validated: the one extracted from the action's
    algebra is valid by construction (see extract_atom_structure), so a
    found map proves the structure associative (see _gated)."""
    def compute():
        g = _involution(action)
        if g is None:
            target = extract_atom_structure(rel_algebra(action))
            w = _searched(structure, target, budget)
            return w, (structure,) if w is None else ()
        fixed = sum(i == j for i, j in enumerate(g))
        if _class_counts(structure) != (fixed, (len(g) - fixed) // 2):
            return None, (structure,)
        return _realize(structure, g)[2], ()

    return _gated((structure,), compute)


def _involution(action: GroupAction) -> tuple[int, ...] | None:
    """The permutation that generates the action's group when that group
    has order at most two: the non-identity generators are all one
    permutation and it is an involution, or there are none (the identity
    is returned).  None otherwise."""
    ident = tuple(range(action.base_size))
    moved = {g for g in action.generators if g != ident}
    if len(moved) > 1:
        return None
    g = moved.pop() if moved else ident
    return g if all(g[j] == i for i, j in enumerate(g)) else None


class VerificationReport(_Record):
    __slots__ = _fields = ("problems",)

    def __init__(self, problems: tuple[str, ...] = ()):
        self._init(problems)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


def verify_decision(d: Z2Decision) -> VerificationReport:
    """Independently re-check an accepted decision from first principles:
    the action has order at most two, its orbit algebra equals the stored
    one, and the witness really is an isomorphism, cycle by cycle.

    The order is read off the generators (see _involution)."""
    if not d.accepted:
        raise ValueError("verify_decision requires an accepted decision")
    problems: list[str] = []
    if _involution(d.action) is None:
        problems.append("action group has order above 2, expected <= 2")
    rebuilt = rel_algebra(d.action)
    if rebuilt != d.algebra:
        problems.append("stored algebra is not the compatible-relation algebra "
                        "of the action")
    if d.witness.source != d.structure:
        problems.append("witness source is not the decided structure")
    t = d.witness.target
    if t != extract_atom_structure(rebuilt):
        problems.append("witness target is not the extraction of the "
                        "action's algebra")
    problems.extend(d.witness.problems())
    return VerificationReport(tuple(problems))
