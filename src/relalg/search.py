"""The isomorphism search, run only where the class cannot answer: on
pairs with neither side in it (decision._answer, the one rule of `iso`
and `check-action`), and then only when the two sides' power runs agree.
`check-action` reaches it only with a group of order above two, whose
algebra is outside the class.  decision imports this module on that
branch alone (decision._searched) and checks the map it returns as an
IsoWitness.

Everything here reads each structure's composition table _comp (and the
identity atoms and converse), never its cycle set, which the search
therefore never builds (AtomStructure.cycles).

decision._searched has compared the multisets of the atoms' power runs
(decision._power_runs) before importing this module, and passes the runs
in: they agree.  Colour refinement (_refined_colours) gives each source
atom its candidates, the target atoms of its colour.  The search
branches on the unassigned atom with the fewest live candidates (lowest
id on ties) and tries, in target id order, only those whose power run
equals the atom's.  An isomorphism keeps each atom's run, so the others
lead to no map: the map found is the one that trying every live
candidate finds, with a subset of its assignments.  Assigning a -> b
also assigns a~ -> b~ and, for every assigned y, requires a;y and b;m(y)
(and y;a, m(y);b) to have as many atoms, maps each assigned atom of a;y
into b;m(y), and narrows the candidates of the unassigned ones to
b;m(y).  An empty candidate set backtracks, a single one is assigned at
once.  Each atom assignment, tried or forced, is one node of the budget;
past it, SearchBudgetExceeded is raised.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress

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

    x's first-place cycles are read off its row of the table _comp, not
    off the cycle set, which is never built here: C (compress) finds the
    row's nonzero entries, and only those are touched in Python, so a
    round's Python work is O(cycles) even at thousands of atoms.  A
    one-atom entry's atom is its bit length less one; an entry of several
    atoms is read bit by bit.  Repeated cycle lines of a parsed text are
    merged in the table, so they count once, as in the cycle set.

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
    ids = [*range(source.n_atoms)]  # a list: compress yields its ints
    while Counter(cols[0]) == Counter(cols[1]):
        classes, table = len(table), {}
        for k, s in enumerate((source, target)):
            c, new = cols[k], []
            cy = [col * classes for col in c]
            for a, row in enumerate(s._comp):
                keys = []
                for y in compress(ids, row):
                    e = row[y]
                    if e & (e - 1):  # several atoms, read bit by bit
                        while e:
                            low = e & -e
                            keys.append(cy[y] + c[low.bit_length() - 1])
                            e ^= low
                    else:
                        keys.append(cy[y] + c[e.bit_length() - 1])
                keys.sort()
                new.append(table.setdefault((c[a], tuple(keys)), len(table)))
            cols[k] = new
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


def _search_isomorphism(source: AtomStructure, target: AtomStructure,
                        budget: int, runs: tuple[list, list]
                        ) -> tuple[int, ...] | None:
    # the atom map of an isomorphism of structures whose local laws hold,
    # or None when none exists; runs are both sides' power runs
    # (decision._power_runs), whose multisets agree
    sruns, truns = runs
    colours = _refined_colours(source, target)
    if colours is None:
        return None
    n = source.n_atoms
    by_colour: dict[int, int] = {}
    by_run: dict[tuple[int, ...], int] = {}
    for b, (c, r) in enumerate(zip(colours[1], truns)):
        by_colour[c] = by_colour.get(c, 0) | 1 << b
        by_run[r] = by_run.get(r, 0) | 1 << b
    same_run = [*map(by_run.__getitem__, sruns)]
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
    # branched on, and its candidates of the atom's power run not yet
    # tried; the last one tried, like the only one of a forced atom, takes
    # the saved state, not a copy
    stack: list[tuple[_Partial, int, int]] = []
    while True:
        a, live = branch_atom(p)
        if a < 0:
            break
        cands = live & same_run[a]
        if cands:
            stack.append((p, a, cands))
        while True:
            if not stack:
                return None
            saved, a, cands = stack.pop()
            low = cands & -cands
            cands ^= low
            if cands:
                stack.append((saved, a, cands))
                saved = saved.copy()
            p = saved
            if assign(p, a, low.bit_length() - 1):
                break
    return tuple(p.m)
