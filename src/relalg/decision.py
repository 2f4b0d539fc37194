"""Deciding representability over actions of the two-element group.

decide_z2 evaluates three first-order axioms (simplicity, pair-density,
functionality of every atom up to converse) and, when they hold, runs the
paper's construction (module `proof`): the canonical involution, one base
element per point atom and two per twin atom, its algebra, and the
proof's atom bijection (proof._proof_witness), checked by
IsoWitness.problems() one cycle line per Peircean orbit.  By the theorem
it fails on no valid input that satisfies the axioms, so a failure is an
InternalError.  verify_decision re-checks an accepted decision from its
algebra's owner table, with none of that code.

`iso` and `check-action` let the class answer whenever it can.  The
axioms decide membership (_class_counts) and are first-order, so kept by
isomorphism, and two structures in the class, or one and the algebra of
an involution, are isomorphic exactly when their point and twin counts
(fixed points and 2-cycles) agree.  So a side outside the class, or
unequal counts, answer `none` before any algebra is built, and equal
counts get the proof's map (proof._realize), for `iso` both sides' maps
onto the algebra of the source's involution, composed.  Only `iso` pairs
with neither side in the class and actions of order above two reach the
search and its budget (_searched).

Inputs are checked against the local laws first, and the associativity
join runs only before a verdict that no witness certifies (_gated).

This module imports `proof`, `actions`, `concrete` and `search` only in
the branches that run them (README, "Start-up").
"""

from __future__ import annotations

from .atoms import AtomStructure, _Record, _whole_orbits
from .axioms import AxiomFailure, _z2_axioms
from .errors import DEFAULT_BUDGET, InternalError


class IsoWitness(_Record):
    """An atom bijection claimed to be an isomorphism of structures."""

    __slots__ = _fields = ("source", "target", "atom_map")

    def __init__(self, source: AtomStructure, target: AtomStructure,
                 atom_map: tuple[int, ...]):
        self._init(source, target, atom_map)

    def problems(self) -> tuple[str, ...]:
        """Why the map is no isomorphism, () if it is one.  A bijection m
        keeps the cycles both ways iff it maps the source cycles onto the
        target's.  If m commutes with converse and both sides have whole
        orbits (atoms._whole_orbits) and as many cycles, m sends each of the
        source's cycle lines (AtomStructure._line_columns) to its image's
        transforms, so lines landing on target cycles put their closure,
        the source cycles, inside the target's, a set of the same size.
        Otherwise, or when a line misses, the whole sets are compared,
        misses sorted."""
        s, t, m = self.source, self.target, self.atom_map
        n = s.n_atoms
        if t.n_atoms != n:
            return ("structures have different atom counts",)
        if len(m) != n or sorted(m) != list(range(n)):
            return ("atom map is not a bijection",)
        out = []
        if {m[e] for e in s.identity_atoms} != set(t.identity_atoms):
            out.append("identity atoms are not mapped onto identity atoms")
        out += [f"map does not commute with converse at atom {s.atom_names[a]}"
                for a, c in enumerate(s.converse_map)
                if m[c] != t.converse_map[m[a]]]
        if (not out and len(s.cycles) == len(t.cycles)
                and _whole_orbits(s) and _whole_orbits(t)
                and t.cycles.issuperset(zip(*(map(m.__getitem__, ids)
                                              for ids in s._line_columns())))):
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
        inv = [0] * len(self.atom_map)
        for a, b in enumerate(self.atom_map):
            inv[b] = a
        return IsoWitness(self.target, self.source, tuple(inv))

    def map_lines(self) -> list[str]:
        s, t = self.source.atom_names, self.target.atom_names
        return [f"map {s[a]} -> {t[b]}" for a, b in enumerate(self.atom_map)]


def find_isomorphism(source: AtomStructure, target: AtomStructure,
                     budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    """An isomorphism of structures, or None if none exists: by the class
    when either side is in it, otherwise by a search (_searched) that
    counts each atom assignment, tried or forced, as one node of `budget`
    and raises SearchBudgetExceeded past it.  An invalid structure raises
    InvalidStructureError, the source's when both are (see _gated)."""
    def compute():
        counts = _class_counts(source), _class_counts(target)
        if counts == (None, None):
            w = _searched(source, target, budget)
            return w, (source, target) if w is None else (source,)
        if counts[0] != counts[1]:
            return None, (source, target)
        from .proof import (_blocks, _canonical_involution, _proof_witness,
                            _realize)
        g = _canonical_involution(source)  # both maps onto g's algebra
        _, algebra, there = _realize(source, g)
        back = _proof_witness(target, _blocks(target, g), algebra,
                              there.target).inverted().atom_map
        return IsoWitness(source, target,
                          tuple(back[b] for b in there.atom_map)), ()

    return _gated((source, target), compute)


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
    hold, or None; search is imported here, so only a search compiles it."""
    from .search import _search_isomorphism
    atom_map = _search_isomorphism(source, target, budget)
    if atom_map is None:
        return None
    witness = IsoWitness(source, target, atom_map)
    bad = witness.problems()
    if bad:
        raise InternalError("search produced an invalid witness: " + bad[0])
    return witness


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
    raises InvalidStructureError (_gated); proof._proof_witness certifies
    one."""
    return _gated((structure,), lambda: _decide_z2(structure))


def _decide_z2(structure: AtomStructure
               ) -> tuple[Z2Decision, tuple[AtomStructure, ...]]:
    # decide_z2 under the local laws, with the inputs left unproven
    report = _z2_axioms(structure)
    if not report.all_hold:
        return (Z2Decision(structure, False, failures=report.failures()),
                (structure,))
    from .proof import _canonical_involution, _realize
    action, algebra, witness = _realize(structure,
                                        _canonical_involution(structure))
    return Z2Decision(structure, True, action=action, algebra=algebra,
                      witness=witness), ()


def _class_counts(s: AtomStructure) -> tuple[int, int] | None:
    """The (points, twins) of a structure under the local laws, if in the
    class, else None."""
    if not _z2_axioms(s).all_hold:
        return None
    twins = sum(map(bool, s._loops.values()))
    return len(s.identity_atoms) - twins, twins


def check_action_represents(structure: AtomStructure, action: GroupAction,
                            budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    """Does this particular action's algebra realize the structure?  For
    a group of order at most two the class answers: None before any
    algebra is built, or the proof's map (proof._realize).  Larger groups
    go to the search.  Only the structure is validated: the action's is
    valid by construction (see extract_atom_structure)."""
    def compute():
        g = _involution(action)
        if g is None:
            from .actions import rel_algebra
            from .concrete import extract_atom_structure
            target = extract_atom_structure(rel_algebra(action))
            w = _searched(structure, target, budget)
            return w, (structure,) if w is None else ()
        fixed = sum(i == j for i, j in enumerate(g))
        if _class_counts(structure) != (fixed, (len(g) - fixed) // 2):
            return None, (structure,)
        from .proof import _realize
        return _realize(structure, g)[2], ()

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
    """Re-check an accepted decision from its certificate alone (action,
    owner table, the witness's map m and target t, the decided structure
    s), with none of rel_algebra, extract_atom_structure and problems().

    The group is {1, g} (_involution) and the table holds its orbits on
    pairs (_orbit_firsts), so it is the action's algebra: atom z's converse
    holds the transpose of its first pair (i, k), the identity atoms meet
    the diagonal, and the cycles are the (x, y, z) with (x, y) in the
    profile of (i, k), the image of j -> (owner(i,j), owner(j,k)), one to
    one but that j and g(j) meet when g fixes i and k: n K - t f^2 cycles
    for K atoms, f fixed points and t 2-cycles.  m is a bijection that
    keeps identity atoms and converse and puts each cycle line (x, y, z)
    of s (AtomStructure._line_columns) in a profile: (i, j) in m(x),
    j = b if m(x)'s first pair (a, b) has a = i, g(b) if g(a) = i, has
    (j, k) in m(y).  m commutes with the Peircean transforms, which keep
    the table's cycles, and s's cycles are its lines' closure, so m maps
    them into the table's, as many: onto.  t has the table's names,
    converse and identity atoms, as many cycles, whole orbits
    (atoms._whole_orbits) and each line's image: it is the table's."""
    if not d.accepted:
        raise ValueError("verify_decision requires an accepted decision")
    s, t, m, alg = d.structure, d.witness.target, d.witness.atom_map, d.algebra
    g = _involution(d.action)
    firsts = _orbit_firsts(g, alg)
    out = [] if firsts else ["action group has order above 2, expected <= 2"
                             if g is None else "stored algebra is not the "
                             "compatible-relation algebra of the action"]
    if d.witness.source != s:
        out.append("witness source is not the decided structure")
    if not firsts:
        return VerificationReport(tuple(out))
    n, owner, atoms = alg.base_size, alg.owner, len(firsts)
    row, col = [p // n for p in firsts], [p % n for p in firsts]
    conv = tuple(owner[b * n + a] for a, b in zip(row, col))
    if s.n_atoms != atoms or sorted(m) != list(range(atoms)):
        return VerificationReport((*out, "atom map is not a bijection"))
    ident = set(owner[::n + 1])
    if {m[e] for e in s.identity_atoms} != ident:
        out.append("identity atoms are not mapped onto identity atoms")
    out += [f"map does not commute with converse at atom {s.atom_names[a]}"
            for a, c in enumerate(s.converse_map) if m[c] != conv[m[a]]]
    if out:
        return VerificationReport(tuple(out))
    lines = s._line_columns()
    xs, ys, zs = ([*map(m.__getitem__, ids)] for ids in lines)
    out = [f"cycle {s._fmt_triple(c)} is not preserved" for c in sorted({
        c for c, x, y, z in zip(zip(*lines), xs, ys, zs)
        if not (row[x] == row[z] and owner[col[x] * n + col[z]] == y
                or g[row[x]] == row[z] and owner[g[col[x]] * n + col[z]] == y)})]
    f = sum(a == b for a, b in enumerate(g))
    size = atoms * n - (n - f) // 2 * f * f
    if not out and size != len(s.cycles):
        out.append(f"structure has {len(s.cycles)} cycles and the action's "
                   f"algebra {size}")
    if not out and ((t.atom_names, t.converse_map, t.identity_atoms)
                    != (alg.atom_names, conv, ident) or len(t.cycles) != size
                    or not _whole_orbits(t)
                    or not t.cycles.issuperset(zip(xs, ys, zs))):
        out.append("witness target is not the extraction of the action's "
                   "algebra")
    return VerificationReport(tuple(out))


def _orbit_firsts(g: tuple[int, ...] | None, alg: ConcreteAlgebra
                  ) -> list[int] | None:
    """The first pair of each atom if alg's owner table holds the orbits
    of the involution g on pairs as rel_algebra numbers (by least pair) and
    names them (_orbit_names), else None.  g keeps every atom (one list
    comparison), so each is a union of orbits, which number f^2 + (n^2 -
    f^2)/2 for f fixed points: as many atoms are one orbit each."""
    from .actions import _orbit_names
    n, owner = alg.base_size, alg.owner
    if g is None or len(g) != n or alg.atom_names != _orbit_names(n, owner):
        return None
    first = dict(zip(owner[::-1], range(n * n - 1, -1, -1)))
    firsts = [*map(first.__getitem__, range(len(first)))]
    f = sum(a == b for a, b in enumerate(g))
    image = [q for a in g for q in map((a * n).__add__, g)]
    if (firsts == sorted(firsts) and len(firsts) == (n * n + f * f) // 2
            and [*map(owner.__getitem__, image)] == [*owner]):
        return firsts
    return None
