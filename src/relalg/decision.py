"""Deciding representability over actions of the two-element group.

The decision evaluates three first-order axioms (simplicity, pair-density,
functionality of every atom up to converse), builds the canonical
involution with one base element per point atom and two per twin atom,
and certifies acceptance with the atom bijection of the proof, fixed by
each atom's domain and range identity atoms and checked cycle by cycle.
`iso` and `check-action` find isomorphisms by a refine-and-propagate
search instead (find_isomorphism); its colour refinement reads each
cycle at its first atom only, which the cycle law makes enough.

Inputs are checked against the local laws first.  The associativity join
runs only before a verdict that no witness certifies (a rejection, `none`,
an error): an isomorphism onto an associative structure proves the other
side associative.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NoReturn

from .actions import GroupAction, build_group, rel_algebra
from .atoms import AtomStructure, AxiomFailure, _z2_axioms
from .concrete import ConcreteAlgebra, extract_atom_structure
from .errors import InternalError, SearchBudgetExceeded
from .formats import format_atom_structure

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class IsoWitness:
    """An atom bijection claimed to be an isomorphism of structures."""

    source: AtomStructure
    target: AtomStructure
    atom_map: tuple[int, ...]

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


def _refined_colours(source: AtomStructure, target: AtomStructure
                     ) -> tuple[list[int], list[int]] | None:
    """Colour refinement over cycles, from identity and self-converse atoms.

    An atom x's next colour is its colour and the multiset of (c[y], c[z])
    over its first-place cycles (x, y, z).  One table numbers the colours
    of both structures, so equal numbers mean equal colours; rounds stop
    when no class splits.  None when some class differs in size.

    Requires the cycle law, with converse an involution, as valid and
    extracted structures have.  Then x's second- and third-place cycles
    are the (z~, x, y~) and (z, y~, x), and x~'s first-place cycles the
    (x~, z, y).  Equal start colours have converses of equal colours, as
    identity atoms are self-converse and so is an atom iff its converse
    is; each round keeps that, so keying also on the other two places and
    on c[x~] would give the same classes, numbered alike.
    """
    table: dict = {}
    cols = [[table.setdefault((a in s.identity_atoms, c == a), len(table))
             for a, c in enumerate(s.converse_map)] for s in (source, target)]
    while Counter(cols[0]) == Counter(cols[1]):
        classes, table = len(table), {}
        for k, s in enumerate((source, target)):
            c = cols[k]
            ctx: list[list[tuple[int, int]]] = [[] for _ in c]
            for x, y, z in s.cycles:
                ctx[x].append((c[y], c[z]))
            cols[k] = [table.setdefault((c[a], tuple(sorted(t))), len(table))
                       for a, t in enumerate(ctx)]
        if len(table) == classes:
            return cols[0], cols[1]
    return None


class _Partial:
    """A partial atom map: m (-1 where unset), the live target candidates
    of each unassigned source atom as a bitmask, the assigned source atoms
    in order, and the mask of assigned target atoms."""

    __slots__ = ("m", "masks", "done", "taken")

    def __init__(self, m, masks, done, taken):
        self.m, self.masks, self.done, self.taken = m, masks, done, taken

    def copy(self) -> "_Partial":
        return _Partial(self.m[:], self.masks[:], self.done[:], self.taken)


def find_isomorphism(source: AtomStructure, target: AtomStructure,
                     budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    """Refine-and-propagate search for a structure isomorphism.

    Colour refinement over each atom's first-place cycles, which fix its
    others by the cycle law (see _refined_colours), started from two
    colours per atom (is it an identity atom, is it its own converse) and
    iterated to a fixed point with one colour table for both structures,
    gives each source atom its candidates: the target atoms of its colour.
    The search branches on the unassigned atom with the fewest live
    candidates (lowest id on ties), trying candidates in target id order.
    Assigning a -> b also assigns a~ -> b~ and, for every assigned y,
    requires a;y and b;m(y) (and y;a, m(y);b) to have as many atoms, maps
    each assigned atom of a;y into b;m(y), and narrows the candidates of
    the unassigned ones to b;m(y).  An empty candidate set backtracks, a
    single one is assigned at once.  Each atom assignment, tried or forced,
    is one node of `budget`; past it, SearchBudgetExceeded is raised.  None
    means no isomorphism exists.

    An invalid structure raises InvalidStructureError, the source's when
    both are invalid.  The search needs only the local laws; a found map
    carries the source's associativity over to the target, so then only
    the source is validated in full, and otherwise both are.
    """
    if source._local_violations or target._local_violations:
        source.require_valid()
        target.require_valid()
    witness = _validating_unless_found(
        lambda: _search_isomorphism(source, target, budget), (source, target))
    if witness is not None:
        source.require_valid()
    return witness


def _validating_unless_found(search, unproven: tuple[AtomStructure, ...]
                             ) -> IsoWitness | None:
    # search(); before any outcome but a witness (None or an exception)
    # the structures of `unproven` are validated in full, in order
    try:
        witness = search()
    except Exception:
        for s in unproven:
            s.require_valid()
        raise
    if witness is None:
        for s in unproven:
            s.require_valid()
    return witness


def _search_isomorphism(source: AtomStructure, target: AtomStructure,
                        budget: int) -> IsoWitness | None:
    # find_isomorphism on structures whose local laws hold
    colours = _refined_colours(source, target)
    if colours is None:
        return None
    n = source.n_atoms
    by_colour: dict[int, int] = {}
    for b, c in enumerate(colours[1]):
        by_colour[c] = by_colour.get(c, 0) | 1 << b
    scomp, tcomp = source._comp, target._comp
    sconv, tconv = source.converse_map, target.converse_map
    nodes = 0

    def assign(p: _Partial, a: int, b: int) -> bool:
        # a -> b with its consequences; False on a contradiction
        nonlocal nodes
        m, masks, done = p.m, p.masks, p.done
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            if m[a] == b:
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"isomorphism search exceeded its budget of {budget} nodes")
            if m[a] != -1 or p.taken >> b & 1 or not masks[a] >> b & 1:
                return False
            m[a] = b
            p.taken |= 1 << b
            done.append(a)
            if sconv[a] != a:
                queue.append((sconv[a], tconv[b]))
            srow, trow = scomp[a], tcomp[b]
            for y in done:
                my = m[y]
                for sz, tz in ((srow[y], trow[my]), (scomp[y][a], tcomp[my][b])):
                    if sz.bit_count() != tz.bit_count():
                        return False
                    while sz:
                        low = sz & -sz
                        sz ^= low
                        z = low.bit_length() - 1
                        if m[z] != -1:
                            if not tz >> m[z] & 1:
                                return False
                        else:
                            live = masks[z] & tz
                            if not live:
                                return False
                            masks[z] = live
                            if not live & (live - 1):
                                queue.append((z, live.bit_length() - 1))
        return True

    def branch_atom(p: _Partial) -> tuple[int, int]:
        # (a, live candidates) of the unassigned atom with the fewest live
        # candidates, lowest id first; (-1, 0) when all are assigned
        best, best_live, best_k = -1, 0, n + 1
        for a in range(n):
            if p.m[a] == -1:
                live = p.masks[a] & ~p.taken
                k = live.bit_count()
                if k < best_k:
                    best, best_live, best_k = a, live, k
                    if k < 2:
                        break
        return best, best_live

    p = _Partial([-1] * n, [by_colour[c] for c in colours[0]], [], 0)
    # one entry per open branching decision: the state before it, the atom
    # branched on, and its candidates not yet tried; the last one tried,
    # like the only one of a forced atom, takes the saved state, not a copy
    stack: list[tuple[_Partial, int, int]] = []
    while True:
        a, live = branch_atom(p)
        if a < 0:
            break
        if live:
            stack.append((p, a, live))
        while True:
            if not stack:
                return None
            saved, a, cands = stack.pop()
            low = cands & -cands
            if cands != low:
                stack.append((saved, a, cands ^ low))
                saved = saved.copy()
            p = saved
            if assign(p, a, low.bit_length() - 1):
                break
    witness = IsoWitness(source, target, tuple(p.m))
    bad = witness.problems()
    if bad:
        raise InternalError("search produced an invalid witness: " + bad[0])
    return witness


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Z2Decision:
    """Outcome of the representability decision.

    Accepted decisions carry the constructed action, its algebra of
    compatible relations, and the isomorphism witness.  Rejected ones
    carry every failed axiom with its witness atom.
    """

    structure: AtomStructure
    accepted: bool
    failures: tuple[AxiomFailure, ...] = ()
    action: GroupAction | None = None
    algebra: ConcreteAlgebra | None = None
    witness: IsoWitness | None = None


def decide_z2(structure: AtomStructure) -> Z2Decision:
    """Decide whether the structure is the compatible-relation algebra of
    some action of the two-element group, and construct one if so.

    An invalid structure raises InvalidStructureError.  The axioms need
    only the local laws, and a rejection, or any failure to build the
    witness, validates in full first.  An accepted decision skips the
    associativity join, soundly: `_construct_witness` returns only a
    witness without problems, a bijection onto the structure extracted
    from the constructed algebra that keeps identity atoms, converse and
    every cycle both ways.  That structure is the atom structure of a
    proper relation algebra, hence associative (Maddux, Relation Algebras,
    2006), and the bijection carries (a;b);c = a;(b;c) back atom by atom,
    so the input is associative too.
    """
    structure._require_local_laws()
    report = _z2_axioms(structure)
    if not report.all_hold:
        structure.require_valid()
        return Z2Decision(structure, False, failures=report.failures())
    try:
        # one base element per point atom, two swapped elements per twin
        # atom, allocated in identity-atom id order; blocks[e] holds e's
        # elements; pair-density has made every identity atom a pair, so a
        # non-point (one with a diversity atom from e to e) is a twin
        g: list[int] = []
        blocks: dict[int, tuple[int, ...]] = {}
        for e in sorted(structure.identity_atoms):
            blocks[e] = ((len(g),) if not structure._loops[e]
                         else (len(g), len(g) + 1))
            g.extend(reversed(blocks[e]))
        action = build_group(len(g), [tuple(g)])
        algebra = rel_algebra(action)
        witness = _construct_witness(structure, blocks, algebra)
    except Exception:
        structure.require_valid()
        raise
    return Z2Decision(structure, True, action=action, algebra=algebra,
                      witness=witness)


def _construct_witness(s: AtomStructure, blocks: dict[int, tuple[int, ...]],
                       algebra: ConcreteAlgebra) -> IsoWitness:
    """The proof's isomorphism from s onto the involution algebra on blocks.

    An atom from identity atom d to r maps to the orbit of a pair from block
    d to block r.  The axioms leave two atoms between twins, parallel and
    crossed: the lower-id atom p[E] from the first twin R to each twin E is
    declared parallel (p[R] = R), and x from E1 to E2 is parallel iff
    x <= p[E1]~;p[E2].  Anything that does not check out is an InternalError.
    """
    target = extract_atom_structure(algebra)

    def fail(reason: str) -> NoReturn:
        raise InternalError(
            f"accepted axioms but the constructed isomorphism fails: {reason}"
            "\n--- input ---\n" + format_atom_structure(s)
            + "--- constructed ---\n" + format_atom_structure(target))

    conv, names = s.converse_map, s.atom_names
    groups = {(d, r): [] for d in blocks for r in blocks}
    for a, ends in enumerate(zip(*s._ends)):
        groups[ends].append(a)
    for (d, r), group in groups.items():
        if len(group) != 1 + (len(blocks[d]) == len(blocks[r]) == 2):
            fail(f"{len(group)} atoms from {names[d]} to {names[r]}")

    twins = sorted(e for e, b in blocks.items() if len(b) == 2)
    p = {e: e if e == twins[0] else min(groups[twins[0], e]) for e in twins}
    owner, n = algebra._owner, algebra.base_size
    m = [-1] * s.n_atoms
    for (d, r), group in groups.items():
        # par holds the atoms sent to the first element of block r: a
        # twin's identity atom, a single atom, or the parallel atom
        par = 1 << d if d == r else 1 << group[0]
        if d != r and len(group) == 2:
            par = s.compose_mask(1 << conv[p[d]], 1 << p[r])
            if par & (par - 1) or not par & sum(1 << a for a in group):
                fail(f"{names[p[d]]}~;{names[p[r]]} is not one atom from "
                     f"{names[d]} to {names[r]}")
        for a in group:
            m[a] = owner[blocks[d][0] * n + blocks[r][not par >> a & 1]]
    witness = IsoWitness(s, target, tuple(m))
    bad = witness.problems()
    if bad:
        fail(bad[0])
    return witness


def check_action_represents(structure: AtomStructure, action: GroupAction,
                            budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    """Does this particular action's algebra realize the structure?

    Only the structure is validated: the one extracted from the action's
    algebra is valid by construction (see extract_atom_structure), so a
    found map proves the structure associative, and the join runs only
    before `None` or an error."""
    structure._require_local_laws()
    return _validating_unless_found(
        lambda: _search_isomorphism(
            structure, extract_atom_structure(rel_algebra(action)), budget),
        (structure,))


@dataclass(frozen=True)
class VerificationReport:
    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


def verify_decision(d: Z2Decision) -> VerificationReport:
    """Independently re-check an accepted decision from first principles:
    the action has order at most two, its orbit algebra equals the stored
    one, and the witness really is an isomorphism, cycle by cycle.

    The order is read off the generators: it is at most two exactly when
    the non-identity generators are all one permutation and that
    permutation is an involution."""
    if not d.accepted:
        raise ValueError("verify_decision requires an accepted decision")
    problems: list[str] = []
    moved = {g for g in d.action.generators if g != tuple(range(len(g)))}
    if len(moved) > 1 or any(g[g[i]] != i for g in moved
                             for i in range(len(g))):
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
