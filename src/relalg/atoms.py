"""Finite relation algebras presented by their atom structures.

A structure lists atom names, the converse involution, the identity atoms,
and the allowed composition cycles: a stored triple (x, y, z) means the
atom z lies below the composition x;y.  An element is a set of atoms
packed into an integer bitmask: union and meet are bit work, and
AtomStructure.compose_mask and converse_mask give the Peircean operations.
AtomStructure._element_flags states point, pair and function as the
element inequalities; the decision never reads it, and it is kept as the
compositional reference that the per-atom facts of the axioms are
tested against.

Validation has two parts.  The local laws (names, converse, the cycle
and identity laws, one domain and one range atom per atom) cost two
O(cycles) passes: the cycle law, skipped on structures that the parser
and extraction build (AtomStructure._of_checked_ids), and
AtomStructure._places, which places every atom by two masks per
identity atom e, the atoms below e;1 and below 1;e, finds the atoms
that are no functions, and collects the cycles that break the identity
law.  The associativity join uses Light's reduction and Peircean
symmetry: one block kernel compares (a;b);c with
a;(b;c) for a middle atom b over all its rows and columns at once, in C,
over a generating set closed under converse and grown from the functions,
then over every middle atom only if that fails; where every atom is its
own converse the table is commutative and a block computes one side, the
other being its transpose; hand-built tables without the symmetry take
every middle atom; decision._gated picks its inputs.  The three axioms
compose nothing: they read _places, O(atoms + identity atoms^2) mask
operations.  AtomStructure._table builds the dense table _comp and the
column supports in one O(cycles) pass; the join reads both, and
search._power_runs, the search, and compose_mask, the reference of
_element_flags, read _comp.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, reduce
from itertools import chain, compress, count, repeat
from operator import and_, ge, itemgetter, ne, neg, not_, or_, xor

from .errors import InvalidStructureError

Triple = tuple[int, int, int]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# \s matches exactly the characters for which str.isspace() holds
_USABLE_NAME = re.compile(r"[^\s:#]+")


def usable_atom_name(name: str) -> bool:
    """Non-empty, without whitespace, `:` or `#`, as the text formats need."""
    return _USABLE_NAME.fullmatch(name) is not None


def _union(table: Sequence[int], mask: int) -> int:
    """The union of table[a] over the atoms a of mask."""
    acc = 0
    for a in iter_bits(mask):
        acc |= table[a]
    return acc


def _transforms(triple: Triple, converse: Sequence[int]) -> tuple[Triple, ...]:
    # the six Peircean transforms of a cycle, repeats included
    x, y, z = triple
    cx, cy, cz = converse[x], converse[y], converse[z]
    return ((x, y, z), (cx, z, y), (z, cy, x),
            (y, cz, cx), (cz, x, cy), (cy, cx, cz))


def peirce_orbit(triple: Triple, converse: Sequence[int]) -> frozenset[Triple]:
    """All six transforms of a cycle that must hold together.

    If z <= x;y then also y <= x~;z, x <= z;y~, and the converses of all
    three, which gives six triples.
    """
    return frozenset(_transforms(triple, converse))


def close_cycles(cycles: Iterable[Triple], converse: Sequence[int]) -> frozenset[Triple]:
    """The union of the six Peircean transforms of each cycle.

    The union is closed under the transforms exactly when the converse is
    an involution: the six transforms of a cycle are then its orbit under
    the group they generate.  Every cycle must be a triple; the ids are
    not checked.  The set is built by _close_columns.
    """
    reps = list(cycles)
    if not reps:
        return frozenset()
    if set(map(len, reps)) != {3}:
        raise ValueError("every cycle must be a triple of atom ids")
    return _close_columns(*zip(*reps), converse)


def _close_columns(xs: Sequence[int], ys: Sequence[int], zs: Sequence[int],
                   converse: Sequence[int]) -> frozenset[Triple]:
    # the six transforms of the cycles (xs[i], ys[i], zs[i]), built column
    # by column with zip and map over the three columns, in C
    cx, cy, cz = ([*map(converse.__getitem__, col)] for col in (xs, ys, zs))
    return frozenset(chain(zip(xs, ys, zs), zip(cx, zs, ys), zip(zs, cy, xs),
                           zip(ys, cz, cx), zip(cz, xs, cy), zip(cy, cx, cz)))


_setattr = object.__setattr__


class _Record:
    """Base of the immutable records: _fields names a subclass's fields in
    its constructor's parameter order, and __init__ sets them by _init.
    Records of one class are equal, and hash, by their fields, repr as
    Name(field=value, ...), copy and pickle through the constructor, and
    refuse assignment and deletion."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        items = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({items})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(_Record):
    __slots__ = _fields = ("code", "message")

    def __init__(self, code: str, message: str):
        self._init(code, message)


class ValidationReport(_Record):
    __slots__ = _fields = ("violations",)

    def __init__(self, violations: tuple[Violation, ...] = ()):
        self._init(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)

    def lines(self) -> list[str]:
        return [f"{v.code}: {v.message}" for v in self.violations]


class AtomStructure(_Record):
    """Atom-level presentation of a finite relation algebra.

    atom_names     index is the atom id
    converse_map   converse_map[a] is the id of a~
    identity_atoms ids of the atoms below the identity element
    cycles         triples (x, y, z) meaning z <= x;y
    """

    _fields = ("atom_names", "converse_map", "identity_atoms", "cycles")

    def __init__(self, atom_names: tuple[str, ...],
                 converse_map: tuple[int, ...], identity_atoms: frozenset[int],
                 cycles: frozenset[Triple]):
        atom_names, converse_map = tuple(atom_names), tuple(converse_map)
        identity_atoms = frozenset(identity_atoms)
        cycles = frozenset(map(tuple, cycles))
        self._init(atom_names, converse_map, identity_atoms, cycles)
        n = len(atom_names)
        if len(converse_map) != n:
            raise ValueError("converse_map must assign an image to every atom id")
        for a in converse_map:
            if not isinstance(a, int) or not 0 <= a < n:
                raise ValueError(f"converse image {a!r} is not an atom id")
        for e in identity_atoms:
            if not isinstance(e, int) or not 0 <= e < n:
                raise ValueError(f"identity atom {e!r} is not an atom id")
        # distinct ids and id types tested once; the culprit sought on
        # failure.  The types are read off every id, not off the distinct
        # ones, where 1.0 could hide behind an equal 1
        if not (set(map(len, cycles)) <= {3}
                and all(issubclass(k, int) for k in
                        set(map(type, chain.from_iterable(cycles))))
                and all(0 <= a < n for a in set(chain.from_iterable(cycles)))):
            for t in cycles:
                if len(t) != 3 or any(not isinstance(a, int) or not 0 <= a < n for a in t):
                    raise ValueError(f"cycle {t!r} does not name three atom ids")

    @classmethod
    def _of_checked_ids(cls, atom_names: tuple[str, ...],
                        converse_map: tuple[int, ...],
                        identity_atoms: frozenset[int],
                        cycles: frozenset[Triple]) -> "AtomStructure":
        """Internal to formats.parse_atom_structure and
        concrete.extract_atom_structure: the structure with these four
        fields, set as given, without the constructor's checks, and with the
        cycle law's scan preset to find nothing.  The caller vouches that
        every id is an int below the atom count and that the cycles are
        closed under an involutive converse.  The parser reads its ids off
        its name index, pairs each converse both ways, and closes its cycle
        lines by _close_columns; extraction reads its ids off an owner table
        that ConcreteAlgebra checked, and the structure of a proper algebra
        satisfies the cycle law (Maddux, Relation Algebras, 2006)."""
        s = cls.__new__(cls)
        s.__dict__.update(zip(cls._fields, (atom_names, converse_map,
                                            identity_atoms, cycles)),
                          _cycle_law_broken=())
        return s

    # -- basic views ------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.atom_names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_atoms) - 1

    @cached_property
    def identity_mask(self) -> int:
        m = 0
        for e in self.identity_atoms:
            m |= 1 << e
        return m

    def _fmt_triple(self, t: Triple) -> str:
        return "(" + ", ".join(self.atom_names[a] for a in t) + ")"

    # -- composition and converse on masks --------------------------------

    @cached_property
    def _table(self) -> tuple[list[list[int]], list[int]]:
        # one pass over the cycles: the table _comp, and per atom b its
        # column support, the bitmask of the atoms a with a;b != 0
        n = self.n_atoms
        table = [[0] * n for _ in range(n)]
        col_supp = [0] * n
        for x, y, z in self.cycles:
            table[x][y] |= 1 << z
            col_supp[y] |= 1 << x
        return table, col_supp

    @property
    def _comp(self) -> list[list[int]]:
        # _comp[a][b] is the bitmask of atoms z with (a, b, z) in cycles
        return self._table[0]

    def compose_mask(self, xm: int, ym: int) -> int:
        comp = self._comp
        acc = 0
        for a in iter_bits(xm):
            acc |= _union(comp[a], ym)
        return acc

    def converse_mask(self, mask: int) -> int:
        conv = self.converse_map
        acc = 0
        for a in iter_bits(mask):
            acc |= 1 << conv[a]
        return acc

    # -- element flags and the atom facts of the axioms ---------------------

    def _element_flags(self, mask: int) -> tuple[bool, bool, bool]:
        """(point, pair, function) flags of an element: x;1;x <= 1',
        x;0';x;0';x <= 1' and x~;x <= 1'.  O(|x| * atoms) mask operations."""
        div = self.full_mask & ~self.identity_mask
        point = self.compose_mask(
            self.compose_mask(mask, self.full_mask), mask) & div == 0
        m = self.compose_mask(self.compose_mask(mask, div), mask)
        pair = self.compose_mask(self.compose_mask(m, div), mask) & div == 0
        fn = self.compose_mask(self.converse_mask(mask), mask) & div == 0
        return point, pair, fn

    @cached_property
    def _places(self) -> tuple[dict[int, int], dict[int, int], int,
                               list[Triple]]:
        # one pass over the cycles: per identity atom e, out[e] holds the
        # atoms a with (e, a, a), below e;1, and into[e] those with
        # (a, e, a), below 1;e, so e;1;f is out[e] & into[f]; then the atoms
        # a with some (a, w, a), w in 0': by the cycle law, the non-functions;
        # then the cycles that break the identity law, sorted
        ident, conv = self.identity_atoms, self.converse_map
        out, into, not_fn = dict.fromkeys(ident, 0), dict.fromkeys(ident, 0), 0
        broken = set()
        for t in self.cycles:
            x, y, z = t
            if x == z:
                if y in ident:
                    into[y] |= 1 << x
                else:
                    not_fn |= 1 << x
            elif y in ident:
                broken.add(t)
            if y == z:
                if x in ident:
                    out[x] |= 1 << y
            elif x in ident:
                broken.add(t)
            if z in ident and y != conv[x]:
                broken.add(t)
        return out, into, not_fn, sorted(broken)

    @cached_property
    def _loops(self) -> dict[int, int]:
        # the mask of the diversity atoms from e to e, for each identity
        # atom e: e;0';e under the local laws, so e is a point iff it has none
        out, into = self._places[:2]
        return {e: out[e] & into[e] & ~self.identity_mask for e in out}

    # -- validation ---------------------------------------------------------

    @cached_property
    def validation(self) -> ValidationReport:
        return _validate(self)

    @cached_property
    def _local_violations(self) -> tuple[Violation, ...]:
        return _local_laws(self)

    @cached_property
    def _cycle_law_broken(self) -> Sequence[Triple]:
        # the cycles missing a transform, sorted; preset by _of_checked_ids
        return _broken_cycles(self)

    def require_valid(self) -> None:
        if not self.validation.ok:
            raise InvalidStructureError(self.validation)


def _validate(s: AtomStructure) -> ValidationReport:
    """The local laws, then associativity."""
    wit = _associativity_witness(s)
    if wit is None:
        return ValidationReport(s._local_violations)
    names = s.atom_names
    a, b, c = wit
    return ValidationReport(s._local_violations + (Violation(
        "associativity",
        f"({names[a]};{names[b]});{names[c]} != "
        f"{names[a]};({names[b]};{names[c]})"),))


def _local_laws(s: AtomStructure) -> tuple[Violation, ...]:
    """Names, converse, self-converse identity atoms, the cycle law, the
    identity law, and one domain and one range atom per atom.  When they
    hold this costs one O(cycles) pass for the cycle law on a structure
    built by the constructor, and a second, AtomStructure._places, for the
    identity law and the domain and range atoms."""
    v: list[Violation] = []
    names = s.atom_names
    n = s.n_atoms
    if n == 0:
        return (Violation("empty-structure",
                          "structure has no atoms (one = zero)"),)

    seen: dict[str, int] = {}
    for a, nm in enumerate(names):
        if not usable_atom_name(nm):
            v.append(Violation("bad-atom-name", f"atom {a} has unusable name {nm!r}"))
        if nm in seen:
            v.append(Violation(
                "duplicate-atom-name",
                f"atom name {nm!r} used by atoms {seen[nm]} and {a}"))
        else:
            seen[nm] = a

    conv = s.converse_map
    for a in range(n):
        if conv[conv[a]] != a:
            v.append(Violation(
                "converse-not-involution",
                f"converse(converse({names[a]})) = {names[conv[conv[a]]]} != {names[a]}"))

    for e in sorted(s.identity_atoms):
        if conv[e] != e:
            v.append(Violation(
                "identity-not-self-converse",
                f"identity atom {names[e]} has converse {names[conv[e]]}"))

    for t in s._cycle_law_broken:
        for u in sorted(peirce_orbit(t, conv)):
            if u not in s.cycles:
                v.append(Violation(
                    "cycle-law",
                    f"cycle {s._fmt_triple(t)} present but its transform "
                    f"{s._fmt_triple(u)} is missing"))

    ident = s.identity_atoms
    out, into, _, broken = s._places
    for x, y, z in broken:
        if x in ident and y != z:
            v.append(Violation(
                "identity-law",
                f"cycle {s._fmt_triple((x, y, z))} composes an identity atom "
                f"on the left but {names[y]} != {names[z]}"))
        if y in ident and x != z:
            v.append(Violation(
                "identity-law",
                f"cycle {s._fmt_triple((x, y, z))} composes an identity atom "
                f"on the right but {names[x]} != {names[z]}"))
        if z in ident and y != conv[x]:
            v.append(Violation(
                "identity-law",
                f"cycle {s._fmt_triple((x, y, z))} puts an identity atom below "
                f"{names[x]};{names[y]} but {names[y]} != {names[conv[x]]}"))

    # one out[e] holds each atom iff their sizes sum to n and union is all
    if any(sum(map(int.bit_count, m.values())) != n
           or reduce(or_, m.values(), 0) != s.full_mask for m in (out, into)):
        idents = sorted(ident)
        for a in range(n):
            for side, m, cycle in (("domain", out, "e has (e, {0}, {0})"),
                                   ("range", into, "f has ({0}, f, {0})")):
                found = [e for e in idents if m[e] >> a & 1]
                if not found:
                    v.append(Violation(
                        f"missing-{side}-atom",
                        f"no identity atom {cycle.format(names[a])} as a cycle"))
                elif len(found) > 1:
                    v.append(Violation(
                        f"multiple-{side}-atoms", f"atom {names[a]} has "
                        f"{side} atoms " + ", ".join(names[e] for e in found)))
    return tuple(v)


def _broken_cycles(s: AtomStructure) -> list[Triple]:
    """The cycles some transform of which is missing, sorted.

    Closure under (x~, z, y) and (z, y~, x) is closure under all six
    transforms, converse an involution or not: they compose to the other
    three.  The six are listed only to find the culprits.
    """
    cycles, conv = s.cycles, s.converse_map
    if all((conv[x], z, y) in cycles and (z, conv[y], x) in cycles
           for x, y, z in cycles):
        return []
    return sorted(t for t in cycles
                  if not cycles.issuperset(_transforms(t, conv)))


def _whole_orbits(s: AtomStructure) -> bool:
    """Whether the cycle law holds and the converse is an involution: the
    six transforms of a cycle are then its Peircean orbit, and every orbit
    lies inside the cycle set or outside it.  Parsed and extracted
    structures pass at the cost of the involution test."""
    conv = s.converse_map
    return (not s._cycle_law_broken
            and [*map(conv.__getitem__, conv)] == [*range(len(conv))])


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
            new = reduce(or_, filter(one_atom, prods), 0) & ~mask
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


# ---------------------------------------------------------------------------
# the three axioms


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

    def as_triple(self) -> tuple[bool, bool, bool]:
        return (self.simple, self.pair_dense, self.functional)

    @property
    def all_hold(self) -> bool:
        return self.simple and self.pair_dense and self.functional

    def failures(self) -> tuple[AxiomFailure, ...]:
        return tuple(AxiomFailure(k, condition, getattr(self, f"{field}_witness"))
                     for k, condition, field in _AXIOMS
                     if not getattr(self, field))


def check_z2_axioms(s: AtomStructure) -> AxiomReport:
    """Evaluate simplicity, pair-density and atom functionality."""
    s.require_valid()
    return _z2_axioms(s)


def _z2_axioms(s: AtomStructure) -> AxiomReport:
    # check_z2_axioms on a structure whose local laws hold
    fn = s.full_mask & ~s._places[2]  # the functions, by the cycle law
    sw = _simplicity_witness(s)
    pw = _pair_density_witness(s, fn)
    fw = _functionality_witness(s, fn)
    return AxiomReport(
        simple=sw is None, pair_dense=pw is None, functional=fw is None,
        simple_witness=sw, pair_dense_witness=pw, functional_witness=fw)
