"""The isomorphism search, run only where the class cannot answer: `iso`
pairs with neither side in it and `check-action` with a group of order
above two.  decision imports this module on that branch alone
(decision._searched) and checks the map it returns as an IsoWitness.

Colour refinement (_refined_colours) gives each source atom its
candidates, the target atoms of its colour.  Before it branches, the
search compares the atoms' power runs (_power_runs), an invariant of
O(atoms + cycles) that answers None for the regular actions of distinct
abelian groups of one order, which refinement cannot tell apart;
isomorphic structures always have equal ones, so no found map or node
count depends on it.  The search branches on the unassigned atom with
the fewest live candidates (lowest id on ties), trying candidates in
target id order.  Assigning a -> b also assigns a~ -> b~ and, for every
assigned y, requires a;y and b;m(y) (and y;a, m(y);b) to have as many
atoms, maps each assigned atom of a;y into b;m(y), and narrows the
candidates of the unassigned ones to b;m(y).  An empty candidate set
backtracks, a single one is assigned at once.  Each atom assignment,
tried or forced, is one node of the budget; past it,
SearchBudgetExceeded is raised.
"""

from __future__ import annotations

from collections import Counter

from .atoms import AtomStructure
from .errors import SearchBudgetExceeded


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


def _search_isomorphism(source: AtomStructure, target: AtomStructure,
                        budget: int) -> tuple[int, ...] | None:
    # the atom map of an isomorphism of structures whose local laws hold,
    # or None when none exists
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
    return tuple(p.m)
