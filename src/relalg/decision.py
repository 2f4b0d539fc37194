"""Deciding representability over actions of the two-element group.

decide_z2 evaluates three first-order axioms (simplicity, pair-density,
functionality of every atom up to converse) and, when they hold, runs the
paper's construction (module `proof`): the canonical involution, one base
element per point atom and two per twin atom, and one call of
proof._realize, which returns the action, its algebra and the proof's
atom bijection onto the structure extracted from it, checked by
IsoWitness.problems() one cycle line per Peircean orbit.  By the theorem
it fails on no valid input that satisfies the axioms, so a failure is an
InternalError.  verify_decision re-checks an accepted decision from its
algebra's owner table, with none of that code: its body is module
`check`, imported on the first verification.

`iso` and `check-action` answer by one rule (_answer): the class answers
whenever either side is in it, and the search only when neither is.  The
axioms decide membership (_class_counts) and are first-order, so kept by
isomorphism, and two structures in the class are isomorphic exactly when
their point and twin counts agree.  The algebra of an action is in the
class exactly when its group has order at most two: pair-density allows
no orbit of three or more points, and functionality makes any two 2-point
orbits swap together.  So `check-action` asks _answer about the action's
extracted structure when _involution finds no involution, and reads the
action side's counts, its fixed points and 2-cycles, off the involution
before any algebra is built otherwise: a shortcut of the same rule.  A
side outside the class, or unequal counts, answer `none`, and equal
counts get the proof's maps from one call of proof._realize, which builds
one algebra and one extracted structure: for `check-action` the
structure's map onto the action's algebra, for `iso` both sides' maps
onto the algebra of the source's involution, the first composed with the
inverse of the second.  Such an answer costs the algebra and its
extraction, O(n^2 + atoms * n) on n points, and O(cycles) per map's
check, besides the local laws and the axioms, and no search budget.
Only pairs with neither side in the class reach the search and its
budget (_searched, called by _answer alone), which must be an int of at
least 1 (_check_budget), and the search module is imported only when the
two sides' power runs (_power_runs) agree.

Inputs are checked against the local laws first, and the associativity
join runs only before a verdict that no witness certifies (_gated).

This module imports `proof`, `actions`, `concrete`, `search` and `check`
only in the branches that run them (README, "Start-up").
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from .atoms import AtomStructure, _Record, _whole_orbits
from .axioms import AxiomFailure, _z2_axioms
from .errors import DEFAULT_BUDGET, InternalError


_NOT_A_BIJECTION = "atom map is not a bijection"


def _map_problems(s: AtomStructure, m: tuple[int, ...], identity,
                  converse: tuple[int, ...]) -> list[str]:
    """The rules of an atom map m from s to a target with these identity
    atoms and converse: a sequence that is a bijection of int ids (floats
    and bools refused, as by ConcreteAlgebra and GroupAction), else that
    problem alone; the identity atoms mapped onto the target's; converse
    kept at each atom."""
    n = len(converse)
    if (not isinstance(m, Sequence) or s.n_atoms != n or len(m) != n
            or any(type(b) is not int for b in m)
            or sorted(m) != list(range(n))):
        return [_NOT_A_BIJECTION]
    out = [] if {m[e] for e in s.identity_atoms} == set(identity) else [
        "identity atoms are not mapped onto identity atoms"]
    return out + [f"map does not commute with converse at atom "
                  f"{s.atom_names[a]}" for a, c in enumerate(s.converse_map)
                  if m[c] != converse[m[a]]]


class IsoWitness(_Record):
    """An atom bijection claimed to be an isomorphism of structures."""

    __slots__ = _fields = ("source", "target", "atom_map")

    def __init__(self, source: AtomStructure, target: AtomStructure,
                 atom_map: tuple[int, ...]):
        self._init(source, target, atom_map)

    def problems(self) -> tuple[str, ...]:
        """Why the map is no isomorphism, () if it is one.  The map rules
        come first (_map_problems), a non-bijection alone.  A bijection
        keeps the cycles both ways iff it maps the source cycles onto the
        target's.  Where m keeps the rules and both sides have whole orbits
        (atoms._whole_orbits), AtomStructure._maps_onto answers that from
        each side's cycle lines, and from whichever store it holds: a
        searched map is checked without building a cycle set.  Otherwise,
        or when it answers no, the whole sets are compared, misses
        sorted."""
        s, t, m = self.source, self.target, self.atom_map
        if t.n_atoms != s.n_atoms:
            return ("structures have different atom counts",)
        out = _map_problems(s, m, t.identity_atoms, t.converse_map)
        if out == [_NOT_A_BIJECTION]:
            return tuple(out)
        if (not out and _whole_orbits(s) and _whole_orbits(t)
                and s._maps_onto(t, m)):
            return ()
        if {(m[x], m[y], m[z]) for x, y, z in s.cycles} != t.cycles:
            inv = self.inverted().atom_map
            out += [f"cycle {s._fmt_triple(c)} is not preserved" for c in
                    sorted(c for c in s.cycles
                           if (m[c[0]], m[c[1]], m[c[2]]) not in t.cycles)]
            out += [f"target cycle {t._fmt_triple(c)} has no source cycle"
                    for c in sorted(c for c in t.cycles if (
                        inv[c[0]], inv[c[1]], inv[c[2]]) not in s.cycles)]
        return tuple(out)

    def inverted(self) -> "IsoWitness":
        m = self.atom_map  # a bijection: its inverse sorts the ids by image
        return IsoWitness(self.target, self.source,
                          tuple(sorted(range(len(m)), key=m.__getitem__)))

    def map_lines(self) -> list[str]:
        s, t = self.source.atom_names, self.target.atom_names
        return [f"map {s[a]} -> {t[b]}" for a, b in enumerate(self.atom_map)]


def find_isomorphism(source: AtomStructure, target: AtomStructure,
                     budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    """An isomorphism of structures, or None if none exists, by the rule
    of _answer: by the class when either side is in it, otherwise by a
    search (_searched) that counts each atom assignment, tried or forced,
    as one node of `budget` and raises SearchBudgetExceeded past it.  An invalid structure raises
    InvalidStructureError, the source's when both are (see _gated); a
    budget that is not an int of at least 1 raises ValueError before any
    work."""
    _check_budget(budget)
    return _gated((source, target), lambda: _answer(source, target, budget))


def _answer(source: AtomStructure, target: AtomStructure, budget: int):
    """The one rule of `iso` and `check-action`: the isomorphism of
    structures whose local laws hold, or None, with the inputs the answer
    leaves unproven (see _gated).  The class answers when either side is
    in it; the search (_searched) only when neither is."""
    counts = _class_counts(source), _class_counts(target)
    if counts == (None, None):
        w = _searched(source, target, budget)
        return w, (source, target) if w is None else (source,)
    if counts[0] != counts[1]:
        return None, (source, target)
    from .proof import _canonical_involution, _realize
    there, back = _realize(_canonical_involution(source), source,
                           target)[2]  # both maps onto one algebra
    return IsoWitness(source, target, tuple(map(
        back.inverted().atom_map.__getitem__, there.atom_map))), ()


def _check_budget(budget) -> None:
    # the search's node budget is an int of at least 1, as the CLI reads
    # it: floats, bools, None and ints below 1 refused, whether or not the
    # search would run
    if type(budget) is not int or budget < 1:
        raise ValueError(f"search budget {budget!r} is not an int of at least 1")


def _gated(inputs: tuple[AtomStructure, ...], compute):
    """compute(), which returns an answer and the inputs it leaves
    unproven, behind the decision path's one validation rule: (1) if an
    input breaks a local law, the inputs are validated in full, in order;
    (2) if compute() raises, every input is validated first, so an invalid
    input ends in its own report, not in an InternalError; (3) after an
    answer, only the inputs it leaves unproven: none after an accepted
    `decide-z2` or a map of the proof, the source after an `iso` map found
    by search, all after any other answer.  A map onto the structure of a
    proper relation algebra, which is associative (Maddux, Relation
    Algebras, 2006), carries (a;b);c = a;(b;c) back atom by atom."""
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
    """The search's checked isomorphism of structures whose local laws
    hold, or None.  Unequal multisets of power runs (_power_runs) answer
    None before the first node; search is imported only when they agree,
    so only a search compiles it, and is given the runs."""
    runs = _power_runs(source), _power_runs(target)
    if Counter(runs[0]) != Counter(runs[1]):
        return None
    from .search import _search_isomorphism
    atom_map = _search_isomorphism(source, target, budget, runs)
    if atom_map is None:
        return None
    witness = IsoWitness(source, target, atom_map)
    bad = witness.problems()
    if bad:
        raise InternalError("search produced an invalid witness: " + bad[0])
    return witness


def _power_runs(s: AtomStructure) -> list[tuple[int, ...]]:
    """Each atom's power run, in atom order: an isomorphism keeps each
    atom's run, so the multisets of two isomorphic structures' runs agree.
    An invariant of O(atoms + cycles), it answers None for the regular
    actions of distinct abelian groups of one order, which colour
    refinement cannot tell apart (it does not separate the Cayley tables
    of groups of one order; Cai, Fürer & Immerman, 1992), before search
    is imported; the search orders each branch's candidates by the runs.

    Atom x's run follows x, x;x, (x;x);x, ... while each power is one atom
    and stops at the first power that is empty, has several atoms or
    repeats; each power adds the int 2 * (its atom count) + (whether it
    meets the identity), so a run is a tuple of small ints that hashes
    and compares fast.  In the structure of a group, the identity first
    shows at the element's order.  Only _comp and the identity atoms are
    read, so a relabelling permutes the runs.  Step k of x's run reads the
    cycle (x^k, x, x^(k+1)), never the same one twice over all runs, so
    all runs cost at most atoms + cycles lookups.
    """
    comp, ident, n = s._comp, s.identity_mask, s.n_atoms
    # a one-atom power z adds one[z]; last[z] == x once z is a power of x
    one = [2 + (ident >> z & 1) for z in range(n)]
    last = [-1] * n
    runs = []
    for x in range(n):
        z, run = x, []
        while True:
            run.append(one[z])
            if last[z] == x:
                break
            last[z] = x
            p = comp[z][x]
            if not p or p & (p - 1):
                run.append(2 * p.bit_count() + (p & ident != 0))
                break
            z = p.bit_length() - 1
        runs.append(tuple(run))
    return runs


class Z2Decision(_Record):
    """Outcome of the representability decision: the constructed action,
    its algebra of compatible relations and the isomorphism witness when
    accepted, every failed axiom with its witness atom when rejected."""

    __slots__ = _fields = ("structure", "accepted", "failures", "action",
                           "algebra", "witness")

    def __init__(self, structure: AtomStructure, accepted: bool,
                 failures: tuple[AxiomFailure, ...] = (),
                 action: GroupAction | None = None,
                 algebra: ConcreteAlgebra | None = None,
                 witness: IsoWitness | None = None):
        self._init(structure, accepted, failures, action, algebra, witness)


def decide_z2(structure: AtomStructure) -> Z2Decision:
    """Decide whether the structure is the algebra of some action of the
    two-element group, and construct one if so.  An invalid structure
    raises InvalidStructureError (_gated); the proof's map, from one call
    of proof._realize, certifies an accepted one."""
    def compute():
        report = _z2_axioms(structure)
        if not report.all_hold:
            return (Z2Decision(structure, False, failures=report.failures()),
                    (structure,))
        from .proof import _canonical_involution, _realize
        action, algebra, (witness,) = _realize(
            _canonical_involution(structure), structure)
        return Z2Decision(structure, True, action=action, algebra=algebra,
                          witness=witness), ()

    return _gated((structure,), compute)


def _class_counts(s: AtomStructure) -> tuple[int, int] | None:
    """The (points, twins) of a structure under the local laws, if in the
    class, else None."""
    if not _z2_axioms(s).all_hold:
        return None
    twins = sum(map(bool, s._loops.values()))
    return len(s.identity_atoms) - twins, twins


def check_action_represents(structure: AtomStructure, action: GroupAction,
                            budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    """Does this particular action's algebra realize the structure?  The
    rule of find_isomorphism (_answer) answers, on the action's extracted
    structure, which is in the class exactly when the group has order at
    most two.  For such a group the counts are read off its involution
    instead, before any algebra is built: None, or the proof's map
    (proof._realize).  For a larger one the structure's class counts
    answer None, and only a structure outside the class reaches the
    search.  Only the structure is validated: the action's is valid by
    construction (see extract_atom_structure).  A budget that is not an
    int of at least 1 raises ValueError before any work."""
    _check_budget(budget)

    def compute():
        g = _involution(action)
        if g is None:
            from .actions import rel_algebra
            from .concrete import extract_atom_structure
            w = _answer(structure, extract_atom_structure(
                rel_algebra(action)), budget)[0]
            # the action's side is valid by construction, and a map onto
            # its algebra's structure proves the structure (see _gated)
            return w, (structure,) if w is None else ()
        fixed = sum(i == j for i, j in enumerate(g))
        if _class_counts(structure) != (fixed, (len(g) - fixed) // 2):
            return None, (structure,)
        from .proof import _realize
        return _realize(g, structure)[2][0], ()

    return _gated((structure,), compute)


def _involution(action: GroupAction) -> tuple[int, ...] | None:
    """The generator of the action's group if it has order at most two:
    the non-identity generators are one involution, or there are none (the
    identity is returned).  None otherwise."""
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
    """Re-check an accepted decision from its certificate alone (module
    `check`, imported on the first verification), with none of
    rel_algebra, extract_atom_structure and problems() but its map rules
    (_map_problems).  A rejected decision has no certificate to re-check
    and raises ValueError; an accepted one that lacks its action, algebra
    or witness fails, each missing part named."""
    if not d.accepted:
        raise ValueError("verify_decision requires an accepted decision")
    from .check import check
    return VerificationReport(check(d))
