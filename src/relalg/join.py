"""The associativity join, run only where a verdict needs it: `validate`
and `axioms`, a `decide-z2` rejection, an `iso` or `check-action` answer
of `none`, and the source of an `iso` map found by search.  laws._validate
imports this module when it is called, so that a request that validates
no structure in full never compiles it.

The join uses Light's reduction and Peircean symmetry: one block kernel
compares (a;b);c with a;(b;c) for a middle atom b over all its rows and
columns at once, in C, over a generating set closed under converse and
grown from the functions, then over every middle atom only if that fails;
where every atom is its own converse the table is commutative and a block
computes one side, the other being its transpose; hand-built tables
without the symmetry take every middle atom; decision._gated picks its
inputs.  It reads the dense table and the column supports that
AtomStructure._table builds in one O(cycles) pass.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from itertools import chain, compress, count, repeat
from operator import and_, ge, itemgetter, ne, neg, not_, or_, xor

from .atoms import AtomStructure, Triple, _union, _whole_orbits, iter_bits


def _associativity_witness(s: AtomStructure) -> Triple | None:
    """The least (a, b, c) with (a;b);c != a;(b;c), or None.

    Light's reduction (Clifford & Preston, The Algebraic Theory of
    Semigroups I, 1961, section 1.2): call a column c good when
    (a;b);c = a;(b;c) for all atoms a and b.  Composition of masks is the
    union over their atoms, so a good c also gives (X;Y);c = X;(Y;c) for
    all masks X and Y.  If c1 and c2 are good and c1;c2 = {c}, then

        (a;b);c = ((a;b);c1);c2 = (a;(b;c1));c2 = a;((b;c1);c2) = a;(b;c)

    so c is good too.  The proof uses only distributivity, so it holds for
    every cycle table, valid or not.  A product of two or more atoms does
    not separate them, so only singleton products reach new columns.

    Under the cycle law with an involutive converse the cycles are closed
    under the six Peircean transforms (Maddux, Relation Algebras, 2006),
    and then, for all atoms a, b, c and d, the statement

        S(a, b, c, d):  d <= (a;b);c  iff  d <= a;(b;c)

    is the same as S(b~, a~, d, c) and as S(a~, d, c~, b).  For the first,
    d <= e;c iff c <= e~;d, and e <= a;b iff e~ <= b~;a~, so the left sides
    agree through e~; d <= a;f iff f <= a~;d, and c <= b~;g iff g <= b;c,
    so both right sides say that b;c meets a~;d.  For the second the same
    transforms turn the left side of each into the right side of the
    other.  The two maps carry c from the third place to every other: to
    the fourth, to the third as c~, to the second (the first map, then the
    second) and to the first as c~.  So for a good column c:

    - c~ is good, so G is closed under converse as it grows;
    - (a;c);d = a;(c;d) for all a and d, and that holds only when c is
      good: c can be checked as the middle atom of every row and column;
    - the block of any middle atom holds in row c and in column c.

    The first pass then takes the i-th member g of G as the middle atom,
    against the rows and columns that the members before g had not
    reached: by induction on i, the atoms they reached are good, which
    settles the rest of g's block.  Tables that break the cycle law or
    have a non-involutive converse, which only a hand-built table can,
    take the exact scan: every middle atom against every row and column.

    The kernel, _mismatches, answers block by block, so the first pass
    stops at its first mismatch.  When it finds none every column is good.
    Otherwise the answer is still the least (a, b, c).  Under the cycle
    law the mismatches with a in the first place are those with a~ in the
    third, so the least first atom of a mismatch is the least atom a that
    is not good, which is also the first atom whose block as the middle
    atom fails.  Every mismatch then has first atom a or later, so each
    single-row block (b, [a], every) yields None or a triple whose first
    atom is a or later, the latter from a row a' with a';b = 0; the block
    of the least b that fails in row a yields (a, b, least c), and that
    triple is the least witness.  So the search takes the blocks in order
    up to a, then the single-row blocks in b order up to the first that
    yields a triple with first atom a.

    When every atom is its own converse, the cycle law carries (x, y, z)
    to (y, x, z), so x;y = y;x for atoms and, by distributivity, for
    masks: a;(b;c) = (c;b);a, valid table or not.  Such tables, the
    dihedral ones among them, pass the kernel its symmetric flag, and a
    block whose candidate rows are its columns computes one side only.
    G grows from the functions first (see _generating_set), so that its
    size depends little on the atom ids.

    The table and its column supports come from one pass over the cycles
    (AtomStructure._table); the blocks read the entries of the table in
    C, with Python work per block, not per row.
    """
    comp, col_supp = s._table
    n = len(comp)
    every = range(n)
    conv = s.converse_map
    full = ((b, every, every) for b in every)
    if not _whole_orbits(s):
        return min(filter(None, _mismatches(comp, col_supp, full)),
                   default=None)
    symmetric = conv == tuple(every)
    # the diversity atoms that are functions, the identity atoms, the rest
    not_fn, ident = s._places[2], s.identity_mask
    order = chain.from_iterable(map(iter_bits, (
        s.full_mask & ~(not_fn | ident), ident, not_fn & ~ident)))
    gens, rank = _generating_set(comp, conv, order)
    # the i-th member g of G against the atoms not reached before it
    # joined, as rows and as columns
    fresh = ([*compress(every, map(ge, rank, repeat(i)))]
             for i in range(1, len(gens) + 1))
    first = ((g, cols, cols) for g, cols in zip(gens, fresh))
    if not any(_mismatches(comp, col_supp, first, symmetric)):
        return None
    # the first middle atom whose block fails is the least atom not good
    a = next(filter(None, _mismatches(comp, col_supp, full, symmetric)))[1]
    return next(w for w in _mismatches(comp, col_supp,
                                       ((b, [a], every) for b in every),
                                       symmetric)
                if w and w[0] == a)


def _generating_set(comp: Sequence[Sequence[int]], conv: Sequence[int],
                    order: Iterable[int]) -> tuple[list[int], list[int]]:
    """Light's generating set G, grown greedily over the atoms in the given
    order, and per atom the number of members of G up to the one whose
    closure reached it.

    An atom joins G when it is not yet reached, and z is reached when
    x;y = {z} for x and y reached, one of them in G, or when conv[z] is;
    the identity map as conv gives plain Light's set.  A new member of G
    is read against every reached atom, on both sides; each newly reached
    atom then against G alone: O(atoms * |G|) reads, in C.

    Every order gives a generating set, and the join the same verdict.
    The join takes the diversity atoms that are functions first, then the
    identity atoms, then the rest, each group in id order.  In an
    associative table a;f is at most one atom when f is a function: z1,
    z2 <= a;f gives a <= z1;f~, so z2 <= z1;(f~;f) <= z1.  So functions
    reach far through one-atom products.  An identity atom reaches nothing
    new, so it is left to be reached.  On 12 shuffles each of the
    dihedral tables of 24, 40 and 60 points |G| is then 7, 11 and 16
    whatever the ids, where in id order it ranged over 7-13, 11-20 and
    16-31.
    """
    n = len(comp)
    full = (1 << n) - 1
    one_atom = {1 << z for z in range(n)}.__contains__
    reached = bytearray(n)  # the reached mask, as a selector for compress
    rank = [0] * n
    mask = 0
    gens: list[int] = []
    gen_rows = []
    for g in order:
        if mask >> g & 1:
            continue
        gens.append(g)
        gen_rows.append(comp[g])
        pick = itemgetter(*gens, g)  # a tuple, even for one generator
        new = 1 << g
        while new:
            new = (new | sum(1 << conv[z] for z in iter_bits(new))) & ~mask
            mask |= new
            fresh = list(iter_bits(new))
            for z in fresh:
                reached[z] = 1
                rank[z] = len(gens)
            if mask == full:
                break
            prods = chain.from_iterable(
                chain(pick(comp[z]), map(itemgetter(z), gen_rows))
                for z in fresh)
            if new >> g & 1:  # g itself, against every reached atom
                prods = chain(prods, compress(comp[g], reached),
                              map(itemgetter(g), compress(comp, reached)))
            # each distinct product tested and joined once: most repeat
            new = reduce(or_, filter(one_atom, set(prods)), 0) & ~mask
    return gens, rank


def _mismatches(comp: Sequence[Sequence[int]], col_supp: Sequence[int],
                blocks: Iterable[tuple[int, Sequence[int], Sequence[int]]],
                symmetric: bool = False) -> Iterator[Triple | None]:
    """For each block (b, candidate rows, columns) in turn, the least
    (a, b, c) with (a;b);c != a;(b;c), c among the columns and a among the
    candidates or, where a;b = 0, any atom; or None.

    A block takes its middle atom b against all its rows and columns at
    once: its rows A, the candidates a with a;b != 0, read off column b,
    and its live columns, those with b;c != 0.  Both sides over A and the
    live columns are gathered by itemgetter into flat lists, row after row,
    in C: the left side, the union of e;c over the atoms e of a;b, from the
    rows of those e; the right side, the union of a;f over the atoms f of
    b;c, from the rows of A.  Index lists (_index_lists) hold the k-th atom
    of each a;b and of each b;c, or its first: the union is idempotent.

    symmetric says that the table is commutative, as it is under the
    cycle law when every atom is its own converse.  Then a;b != 0 iff
    b;a != 0, so a block whose candidates are its columns (cands is cols)
    has its rows as its live columns, and a;(b;c) = (c;b);a, so its right
    side is the transpose of its left side and is not gathered.  Both
    lists are still row-major, so the first mismatch is the block's least
    (a, c).  Single-row blocks keep both sides.

    Two failures only invalid tables have take one mask test per block on
    the column supports col_supp[b], the atoms a with a;b != 0, and run
    only where they can fire.  A row with a;b = 0 has 0 on the left, so it
    fails when a;(b;c) != 0 for a live c: when some atom f of b;c has
    a;f != 0 for an atom a off the support of b.  A column with b;c = 0
    has 0 on the right, so it fails when (a;b);c != 0: when some atom below
    some a;b has a nonzero product with c.
    """
    n = len(comp)
    full = (1 << n) - 1
    atom = {1 << z: z for z in range(n)}.get
    for b, cands, cols in blocks:
        one_sided = symmetric and cands is cols
        # column b over the candidate rows, and row b over the columns
        cand_rows = [*map(comp.__getitem__, cands)]
        col_b = [*map(itemgetter(b), cand_rows)]
        rows = [*compress(cands, col_b)]
        row_b = col_b if one_sided else [*map(comp[b].__getitem__, cols)]
        live = rows if one_sided else [*compress(cols, row_b)]
        prods = [*compress(row_b, row_b)]
        f_lists = _index_lists(prods, atom)  # the atoms f of each b;c
        fails = []  # the least (a, c) of each test that fails
        if live and col_supp[b] != full:
            out = reduce(or_, map(col_supp.__getitem__,
                                  set(chain.from_iterable(f_lists))))
            out &= ~col_supp[b]
            if out:
                a = (out & -out).bit_length() - 1
                fails.append((a, next(c for c, m in zip(live, prods)
                                      if _union(comp[a], m))))
        if rows:
            row_prods = prods if one_sided else [*compress(col_b, col_b)]
            zero = [*compress(cols, map(not_, row_b))]
            if zero and any(map(and_, map(col_supp.__getitem__, zero),
                                repeat(reduce(or_, row_prods)))):
                fails.append(next((a, c) for a, ab in zip(rows, row_prods)
                                  for c in zero if col_supp[c] & ab))
            if live:
                e_lists = f_lists if one_sided else _index_lists(row_prods,
                                                                 atom)
                left = _or_lists(_gather([*map(comp.__getitem__, es)], live)
                                 for es in e_lists)
                m = len(live)
                if one_sided:
                    right = [*chain.from_iterable(left[j::m]
                                                  for j in range(m))]
                else:
                    rows_a = [*compress(cand_rows, col_b)]
                    right = _or_lists(_gather(rows_a, fs) for fs in f_lists)
                if left != right:
                    p = next(compress(count(), map(ne, left, right)))
                    fails.append((rows[p // m], live[p % m]))
        if fails:
            a, c = min(fails)
            yield a, b, c
        else:
            yield None


def _gather(rows: Sequence[Sequence[int]], idx: Sequence[int]) -> list[int]:
    # row[i] for each row, then each i of idx, as one flat list
    if len(idx) == 1:
        return [*map(itemgetter(idx[0]), rows)]
    return [*chain.from_iterable(map(itemgetter(*idx), rows))]


def _or_lists(lists: Iterable[list[int]]) -> list[int]:
    # the entrywise union of lists of one length
    return reduce(lambda x, y: [*map(or_, x, y)], lists)


def _index_lists(prods: list[int], atom) -> list[list[int]]:
    # list k holds the k-th atom of each nonzero mask, or its first atom
    lists = [[*map(atom, prods)]]
    if None not in lists[0]:
        return lists
    low = list(map(and_, prods, map(neg, prods)))
    lists = [list(map(atom, low))]
    rest = list(map(xor, prods, low))
    while any(rest):
        low = list(map(and_, rest, map(neg, rest)))
        lists.append(list(map(atom, low, lists[0])))
        rest = list(map(xor, rest, low))
    return lists
