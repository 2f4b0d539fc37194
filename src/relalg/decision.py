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
class and to actions of order above two.

The search (find_isomorphism) refines and propagates; its colour
refinement reads each cycle at its first atom only, which the cycle law
makes enough.  Before it branches, the
search compares the atoms' power runs (_power_runs), an invariant of
O(atoms + cycles) that answers `none` for the regular actions of distinct
abelian groups of one order, which refinement cannot tell apart; it
never rejects an isomorphic pair, so no found map or node count depends
on it.

Inputs are checked against the local laws first.  The associativity join
runs only before a verdict that no witness certifies (a rejection, `none`,
an error, the target of an `iso` map found by search): an isomorphism
onto an associative structure proves the other side associative, and
the proof maps both sides of an `iso` onto the structure of one proper
algebra.  The rule lives in one gate, _gated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NoReturn, Sequence

from .actions import GroupAction, build_group, rel_algebra
from .atoms import AtomStructure, AxiomFailure, _z2_axioms, iter_bits
from .concrete import ConcreteAlgebra, extract_atom_structure
from .errors import DEFAULT_BUDGET, InternalError, SearchBudgetExceeded
from .formats import format_atom_structure


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
    over its first-place cycles (x, y, z), each pair keyed by the integer
    c[y] * k + c[z], k the previous round's class count: every colour is
    below k, so the key is injective and sorts like the pair.  One table
    numbers the colours of both structures, so equal numbers mean equal
    colours; rounds stop when no class splits.  None when some class
    differs in size.

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
            ctx: list[list[int]] = [[] for _ in c]
            for x, y, z in s.cycles:
                ctx[x].append(c[y] * classes + c[z])
            cols[k] = [table.setdefault((c[a], tuple(sorted(t))), len(table))
                       for a, t in enumerate(ctx)]
        if len(table) == classes:
            return cols[0], cols[1]
    return None


def _power_runs(s: AtomStructure) -> Counter:
    """The multiset of the atoms' power runs, an isomorphism invariant.

    Atom x's run follows x, x;x, (x;x);x, ... while each power is one atom
    and stops at the first power that is empty, has several atoms or
    repeats; each power adds its atom count and whether it meets the
    identity.  In the structure of a group, the identity first shows at
    the element's order.  Only _comp and the identity atoms are read, so a
    relabelling keeps the multiset.  Step k of x's run reads the cycle
    (x^k, x, x^(k+1)), never the same one twice over all runs, so all runs
    cost at most atoms + cycles lookups.
    """
    comp, ident = s._comp, s.identity_mask
    runs: Counter = Counter()
    for x in range(s.n_atoms):
        p, seen, run = 1 << x, 0, []
        while True:
            run.append((p.bit_count(), p & ident != 0))
            if not p or p & (p - 1) or p & seen:
                break
            seen |= p
            p = comp[p.bit_length() - 1][x]
        runs[tuple(run)] += 1
    return runs


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
    """An isomorphism of structures, by the class when either side is in
    it, otherwise by a refine-and-propagate search.

    When some structure satisfies the axioms (see _class_counts), no
    search node is spent: None when the other does not or their (points,
    twins) counts differ, otherwise both sides mapped by the proof onto
    the algebra of the source's involution (see _realize) and composed,
    which certifies both, so no join runs.

    The search: colour refinement over each atom's first-place cycles,
    which fix its others by the cycle law (see _refined_colours), started
    from two colours per atom (is it an identity atom, is it its own
    converse) and iterated to a fixed point with one colour table for both
    structures, gives each source atom its candidates: the target atoms of
    its colour.  Unequal multisets of power runs (see _power_runs) then
    answer None without a search; isomorphic structures always have equal
    ones, so this changes no found map and no node count.  The search
    branches on the unassigned atom with the fewest live candidates
    (lowest id on ties), trying candidates in target id order.
    Assigning a -> b also assigns a~ -> b~ and, for every assigned y,
    requires a;y and b;m(y) (and y;a, m(y);b) to have as many atoms, maps
    each assigned atom of a;y into b;m(y), and narrows the candidates of
    the unassigned ones to b;m(y).  An empty candidate set backtracks, a
    single one is assigned at once.  Each atom assignment, tried or forced,
    is one node of `budget`; past it, SearchBudgetExceeded is raised.  None
    means no isomorphism exists.

    An invalid structure raises InvalidStructureError, the source's when
    both are invalid (see _gated).
    """
    def compute():
        counts = _class_counts(source), _class_counts(target)
        if counts == (None, None):
            w = _search_isomorphism(source, target, budget)
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


def _search_isomorphism(source: AtomStructure, target: AtomStructure,
                        budget: int) -> IsoWitness | None:
    # find_isomorphism on structures whose local laws hold
    colours = _refined_colours(source, target)
    if colours is None or _power_runs(source) != _power_runs(target):
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
    so that _blocks gives each identity atom its own elements.
    Pair-density makes every identity atom a pair, so one with a diversity
    atom from e to e is a twin."""
    g: list[int] = []
    for e in sorted(s.identity_atoms):
        g.extend((len(g) + 1, len(g)) if s._loops[e] else (len(g),))
    return tuple(g)


def _kinds(s: AtomStructure) -> tuple[list[int], list[int]]:
    """The point and the twin identity atoms of s, each in id order: a twin
    has a diversity atom from itself to itself, a point none."""
    idents, loops = sorted(s.identity_atoms), s._loops
    return ([e for e in idents if not loops[e]],
            [e for e in idents if loops[e]])


def _class_counts(s: AtomStructure) -> tuple[int, int] | None:
    """The (points, twins) counts of a structure whose local laws hold,
    when it satisfies the axioms, else None."""
    if not _z2_axioms(s).all_hold:
        return None
    points, twins = _kinds(s)
    return len(points), len(twins)


def _blocks(s: AtomStructure, g: Sequence[int]
            ) -> dict[int, tuple[int, ...]]:
    """Base elements for s's identity atoms from an involution g with as
    many fixed points and 2-cycles as s has points and twins: the k-th
    point (twin) of s, in id order, gets the k-th fixed point (2-cycle, by
    its lower element)."""
    points, twins = _kinds(s)
    return {**dict(zip(points, [(i,) for i, j in enumerate(g) if i == j])),
            **dict(zip(twins, [(i, j) for i, j in enumerate(g) if i < j]))}


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
            _unproven(s, target, f"{len(group)} atoms from {names[d]} to "
                                 f"{names[r]}")

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
                _unproven(s, target, f"{names[p[d]]}~;{names[p[r]]} is not "
                                     f"one atom from {names[d]} to {names[r]}")
        for a in group:
            m[a] = owner[blocks[d][0] * n + blocks[r][not par >> a & 1]]
    witness = IsoWitness(s, target, tuple(m))
    bad = witness.problems()
    if bad:
        _unproven(s, target, bad[0])
    return witness


def _unproven(s: AtomStructure, target: AtomStructure, reason: str
              ) -> NoReturn:
    # the proof's map of s onto target breaks, for the given reason
    raise InternalError(
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
            w = _search_isomorphism(structure, target, budget)
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
