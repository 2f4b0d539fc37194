"""Finite relation algebras presented by their atom structures.

A structure lists atom names, the converse involution, the identity atoms,
and the allowed composition cycles: a stored triple (x, y, z) means the
atom z lies below the composition x;y.  Elements are atom sets packed into
integer bitmasks, so Boolean and Peircean operations reduce to bit work.

Validation has two parts.  The local laws (names, converse, the cycle
and identity laws, one domain and one range atom per atom) cost
O(cycles + atoms * identity atoms).  The associativity join uses Light's
reduction: one row kernel compares (a;b);c with a;(b;c) over a
generating set of columns, and over all columns only when that pass
fails, in place of an atoms^3 scan.  The three axioms are read off each
atom's domain and range identity atoms, which the local laws make well
defined, in O(atoms + sum over identity atoms e of |atoms from e to e| *
atoms).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress, starmap
from operator import and_, itemgetter, neg, or_, xor
from typing import Iterable, Iterator, Sequence

from .errors import InvalidStructureError

Triple = tuple[int, int, int]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def usable_atom_name(name: str) -> bool:
    """Non-empty, without whitespace, `:` or `#`, as the text formats need."""
    return bool(name) and not any(ch.isspace() or ch in ":#" for ch in name)


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
    """Close a cycle set under the six Peircean transforms."""
    closed: set[Triple] = set()
    for t in cycles:
        closed |= peirce_orbit(tuple(t), converse)
    return frozenset(closed)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)

    def lines(self) -> list[str]:
        return [f"{v.code}: {v.message}" for v in self.violations]


@dataclass(frozen=True)
class AtomStructure:
    """Atom-level presentation of a finite relation algebra.

    atom_names     index is the atom id
    converse_map   converse_map[a] is the id of a~
    identity_atoms ids of the atoms below the identity element
    cycles         triples (x, y, z) meaning z <= x;y
    """

    atom_names: tuple[str, ...]
    converse_map: tuple[int, ...]
    identity_atoms: frozenset[int]
    cycles: frozenset[Triple]

    def __post_init__(self):
        object.__setattr__(self, "atom_names", tuple(self.atom_names))
        object.__setattr__(self, "converse_map", tuple(self.converse_map))
        object.__setattr__(self, "identity_atoms", frozenset(self.identity_atoms))
        object.__setattr__(self, "cycles", frozenset(map(tuple, self.cycles)))
        n = len(self.atom_names)
        if len(self.converse_map) != n:
            raise ValueError("converse_map must assign an image to every atom id")
        for a in self.converse_map:
            if not isinstance(a, int) or not 0 <= a < n:
                raise ValueError(f"converse image {a!r} is not an atom id")
        for e in self.identity_atoms:
            if not isinstance(e, int) or not 0 <= e < n:
                raise ValueError(f"identity atom {e!r} is not an atom id")
        # distinct ids and id types tested once; the culprit sought on failure
        ids = tuple(chain.from_iterable(self.cycles))
        if not (set(map(len, self.cycles)) <= {3}
                and all(issubclass(k, int) for k in set(map(type, ids)))
                and all(0 <= a < n for a in set(ids))):
            for t in self.cycles:
                if len(t) != 3 or any(not isinstance(a, int) or not 0 <= a < n for a in t):
                    raise ValueError(f"cycle {t!r} does not name three atom ids")

    # -- basic views ------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.atom_names)

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {name: a for a, name in enumerate(self.atom_names)}

    def atom_id(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise ValueError(f"unknown atom name {name!r}") from None

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
    def _comp(self) -> tuple[tuple[int, ...], ...]:
        # _comp[a][b] is the bitmask of atoms z with (a, b, z) in cycles
        n = self.n_atoms
        table = [[0] * n for _ in range(n)]
        for x, y, z in self.cycles:
            table[x][y] |= 1 << z
        return tuple(tuple(row) for row in table)

    def compose_mask(self, xm: int, ym: int) -> int:
        comp = self._comp
        acc = 0
        rest = xm
        while rest:
            low = rest & -rest
            rest ^= low
            row = comp[low.bit_length() - 1]
            ys = ym
            while ys:
                yl = ys & -ys
                ys ^= yl
                acc |= row[yl.bit_length() - 1]
        return acc

    def converse_mask(self, mask: int) -> int:
        conv = self.converse_map
        acc = 0
        for a in iter_bits(mask):
            acc |= 1 << conv[a]
        return acc

    # -- element constructors ---------------------------------------------

    def element(self, mask: int) -> "Element":
        return Element(self, mask)

    def element_from_ids(self, ids: Iterable[int]) -> "Element":
        mask = 0
        for a in ids:
            if not 0 <= a < self.n_atoms:
                raise ValueError(f"no atom with id {a}")
            mask |= 1 << a
        return Element(self, mask)

    def element_from_names(self, names: Iterable[str]) -> "Element":
        return self.element_from_ids(self.atom_id(nm) for nm in names)

    @cached_property
    def zero(self) -> "Element":
        return Element(self, 0)

    @cached_property
    def one(self) -> "Element":
        return Element(self, self.full_mask)

    @cached_property
    def identity(self) -> "Element":
        return Element(self, self.identity_mask)

    @cached_property
    def diversity(self) -> "Element":
        return Element(self, self.full_mask & ~self.identity_mask)

    # -- element flags and the atom facts of the axioms ---------------------

    def _element_flags(self, mask: int) -> tuple[bool, bool, bool]:
        """(is_point, is_pair, is_function) of an element: x;1;x <= 1',
        x;0';x;0';x <= 1' and x~;x <= 1'.  O(|x| * atoms) mask operations."""
        div = self.full_mask & ~self.identity_mask
        point = self.compose_mask(
            self.compose_mask(mask, self.full_mask), mask) & div == 0
        m = self.compose_mask(self.compose_mask(mask, div), mask)
        pair = self.compose_mask(self.compose_mask(m, div), mask) & div == 0
        fn = self.compose_mask(self.converse_mask(mask), mask) & div == 0
        return point, pair, fn

    @cached_property
    def _ends(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # the domain (a;a~).1' and the range (a~;a).1' of each atom a, as
        # atom ids; each is one identity atom when the local laws hold
        comp, conv, ident = self._comp, self.converse_map, self.identity_mask
        return (tuple((comp[a][c] & ident).bit_length() - 1
                      for a, c in enumerate(conv)),
                tuple((comp[c][a] & ident).bit_length() - 1
                      for a, c in enumerate(conv)))

    @cached_property
    def _loops(self) -> dict[int, int]:
        # the mask of the diversity atoms from e to e, for each identity
        # atom e: e;0';e under the local laws, so e is a point iff it has none
        loops = dict.fromkeys(self.identity_atoms, 0)
        ident = self.identity_mask
        for a, (d, r) in enumerate(zip(*self._ends)):
            if d == r and not ident >> a & 1:
                loops[d] |= 1 << a
        return loops

    # -- validation ---------------------------------------------------------

    @cached_property
    def validation(self) -> ValidationReport:
        return _validate(self)

    @cached_property
    def _local_violations(self) -> tuple[Violation, ...]:
        return _local_laws(self)

    def require_valid(self) -> None:
        if not self.validation.ok:
            raise InvalidStructureError(self.validation)

    def _require_local_laws(self) -> None:
        # raise as require_valid does, full report included, when a local
        # law fails; when they all hold, the join is not run
        if self._local_violations:
            self.require_valid()


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
    identity law, and one domain and one range atom per atom, in
    O(cycles + atoms * identity atoms) set lookups when they hold."""
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

    # closure under (x~, z, y) and (z, y~, x) is closure under all six
    # transforms, converse an involution or not: they compose to the other
    # three.  The six are listed only to word the messages.
    cycles = s.cycles
    if not all((conv[x], z, y) in cycles and (z, conv[y], x) in cycles
               for x, y, z in cycles):
        broken = [t for t in cycles
                  if not cycles.issuperset(_transforms(t, conv))]
        for t in sorted(broken):
            for u in sorted(peirce_orbit(t, conv)):
                if u not in cycles:
                    v.append(Violation(
                        "cycle-law",
                        f"cycle {s._fmt_triple(t)} present but its transform "
                        f"{s._fmt_triple(u)} is missing"))

    ident = s.identity_atoms
    broken = [(x, y, z) for x, y, z in cycles
              if (x in ident and y != z) or (y in ident and x != z)
              or (z in ident and y != conv[x])]
    for x, y, z in sorted(broken):
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

    idents = sorted(ident)
    for a in range(n):
        for side, found, cycle in (
                ("domain", [e for e in idents if (e, a, a) in cycles],
                 "e has (e, {0}, {0})"),
                ("range", [e for e in idents if (a, e, a) in cycles],
                 "f has ({0}, f, {0})")):
            if not found:
                v.append(Violation(
                    f"missing-{side}-atom",
                    f"no identity atom {cycle.format(names[a])} as a cycle"))
            elif len(found) > 1:
                v.append(Violation(
                    f"multiple-{side}-atoms", f"atom {names[a]} has {side} atoms "
                    + ", ".join(names[e] for e in found)))
    return tuple(v)


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

    The row kernel therefore runs first over a generating set G of
    columns.  When that pass finds no mismatch every column is good;
    otherwise the kernel runs again over all columns, so that the answer is
    still the least (a, b, c).  The first pass costs about the rows
    visited times |G|, the rerun, on failing tables only, the rows times
    the columns.
    """
    comp = s._comp
    gens = _generating_set(comp)
    wit = _first_mismatch(comp, gens)
    if wit is None or len(gens) == len(comp):
        return wit
    return _first_mismatch(comp, range(len(comp)))


def _generating_set(comp: Sequence[Sequence[int]]) -> list[int]:
    """Light's generating set G, grown greedily in id order: an atom joins
    G when it is not yet reached, and z is reached when x;y = {z} for x and
    y reached, one of them in G.  A new member of G is read against every
    reached atom, on both sides; each newly reached atom then against G
    alone, so that the reading costs O(atoms * |G|), in C."""
    n = len(comp)
    full = (1 << n) - 1
    one_atom = {1 << z for z in range(n)}.__contains__
    reached = bytearray(n)  # the reached mask, as a selector for compress
    mask = 0
    gens: list[int] = []
    gen_rows = []
    for g in range(n):
        if mask >> g & 1:
            continue
        gens.append(g)
        gen_rows.append(comp[g])
        pick = itemgetter(*gens, g)  # a tuple, even for one generator
        reached[g] = 1
        mask |= 1 << g
        prods = chain(compress(comp[g], reached),
                      map(itemgetter(g), compress(comp, reached)))
        while mask != full:
            new = reduce(or_, filter(one_atom, prods), 0) & ~mask
            if not new:
                break
            mask |= new
            fresh = list(iter_bits(new))
            for z in fresh:
                reached[z] = 1
            prods = chain.from_iterable(
                chain(pick(comp[z]), map(itemgetter(z), gen_rows))
                for z in fresh)
    return gens


def _first_mismatch(comp: Sequence[Sequence[int]],
                    columns: Sequence[int]) -> Triple | None:
    """The least (a, b, c) with c in columns and (a;b);c != a;(b;c), or None.

    Rows (a, b) with a;b != 0 are visited in order.  In each only the
    columns c in C (the columns given) with b;c != 0 are gathered, each side
    in C by itemgetter: the left side, the union of e;c over the atoms e of
    a;b, from the rows of those e; the right side, the union of a;f over the
    atoms f of b;c, from row a through per-b index lists, list k holding the
    k-th atom of each b;c (or its first: the union is idempotent).

    Two failures only invalid tables have are found apart.  Where b;c = 0
    the right side is 0, so the left one must be too: the columns of C
    reached by the e must lie in those reached by b.  A row with a;b = 0
    has 0 on the left, so it fails exactly when a;(b;C) != 0; the least
    such row is found first from the column supports, and the visit stops
    there.
    """
    n = len(comp)
    # the atom of a one-atom mask, or the default given for 0
    atom = {1 << z: z for z in range(n)}.get
    pick = itemgetter(*columns) if len(columns) > 1 else None
    shl = (1).__lshift__
    getters = []  # per atom b: None, or its left getter and right getters
    reach = []  # per atom b: the columns c in C with b;c != 0, as a mask
    times_c = []  # per atom b: b;C
    for row in comp:
        # a getter of one index would return the entry, not a tuple
        vals = row if len(columns) == n else (
            pick(row) if pick else (row[columns[0]],))
        cs = list(compress(columns, vals))
        if not cs:
            getters.append(None)
            reach.append(0)
            times_c.append(0)
            continue
        prods = list(compress(vals, vals))
        reach.append(sum(map(shl, cs)))
        times_c.append(reduce(or_, prods))
        lists = _index_lists(prods, atom)
        if len(cs) == 1:
            # so one column is gathered twice
            cs *= 2
            lists = [ks * 2 for ks in lists]
        getters.append((itemgetter(*cs), itemgetter(*lists[0]),
                        [*starmap(itemgetter, lists[1:])]))
    col_supp = [0] * n  # per atom y: the atoms x with x;y != 0
    for x, row in enumerate(comp):
        bit = 1 << x
        for y in compress(range(n), row):
            col_supp[y] |= bit
    # the least row (a, b) with a;b = 0 but a;f != 0 for some f in b;C
    stop_a = stop_b = n
    full = (1 << n) - 1
    for b, t in enumerate(times_c):
        if t and col_supp[b] != full:
            bad = _union(col_supp, t) & ~col_supp[b]
            first = (bad & -bad).bit_length() - 1
            if bad and first < stop_a:
                stop_a, stop_b = first, b
    for a, row_a in enumerate(comp):
        for b in compress(range(stop_b if a == stop_a else n), row_a):
            ab = row_a[b]
            g = getters[b]
            if ab & (ab - 1) == 0:
                e = atom(ab)
                if reach[e] & ~reach[b]:
                    return (a, b, _least_column(comp, a, b, columns))
                if g is None:
                    continue
                get, right_get, more = g
                left = get(comp[e])
            else:
                if _union(reach, ab) & ~reach[b]:
                    return (a, b, _least_column(comp, a, b, columns))
                if g is None:
                    continue
                get, right_get, more = g
                # unions are lists: a tuple built from a map is
                # over-allocated, then shrunk, and the shrunk tuples fill
                # the interpreter's free lists, which raises peak memory
                left = None
                for e in iter_bits(ab):
                    part = get(comp[e])
                    left = part if left is None else [*map(or_, left, part)]
            right = right_get(row_a)
            for extra in more:
                right = [*map(or_, right, extra(row_a))]
            # a getter gives a tuple and a union a list: compare entries
            if left != right and [*left] != [*right]:
                return (a, b, _least_column(comp, a, b, columns))
        if a == stop_a:
            return (a, stop_b, _least_column(comp, a, stop_b, columns))
    return None


def _index_lists(prods: list[int], atom) -> list[list[int]]:
    # list k holds the k-th atom of each nonzero mask, or its first atom
    low = list(map(and_, prods, map(neg, prods)))
    lists = [list(map(atom, low))]
    if low == prods:
        return lists
    rest = list(map(xor, prods, low))
    while any(rest):
        low = list(map(and_, rest, map(neg, rest)))
        lists.append(list(map(atom, low, lists[0])))
        rest = list(map(xor, rest, low))
    return lists


def _least_column(comp: Sequence[Sequence[int]], a: int, b: int,
                  columns: Sequence[int]) -> int:
    # the least c in columns with (a;b);c != a;(b;c), in a row that has one
    ab, row_a = comp[a][b], comp[a]
    for c in columns:
        if _union([row[c] for row in comp], ab) != _union(row_a, comp[b][c]):
            return c
    raise AssertionError("no mismatch in a mismatching row")


def validate_structure(s: AtomStructure) -> ValidationReport:
    """Check every structure invariant, reporting all violations found."""
    return s.validation


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class Element:
    """A Boolean element of the algebra: a set of atoms as a bitmask."""

    structure: AtomStructure
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= self.structure.full_mask:
            raise ValueError("element mask out of range for its structure")

    def _check_mate(self, other: "Element") -> None:
        if self.structure != other.structure:
            raise ValueError("elements belong to different structures")

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    def atoms(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def atom_names(self) -> tuple[str, ...]:
        return tuple(self.structure.atom_names[a] for a in iter_bits(self.mask))

    def __or__(self, other: "Element") -> "Element":
        self._check_mate(other)
        return Element(self.structure, self.mask | other.mask)

    def __and__(self, other: "Element") -> "Element":
        self._check_mate(other)
        return Element(self.structure, self.mask & other.mask)

    def __le__(self, other: "Element") -> bool:
        self._check_mate(other)
        return self.mask & ~other.mask == 0

    def complement(self) -> "Element":
        return Element(self.structure, self.structure.full_mask & ~self.mask)

    def converse(self) -> "Element":
        self.structure.require_valid()
        return Element(self.structure, self.structure.converse_mask(self.mask))

    def compose(self, other: "Element") -> "Element":
        self._check_mate(other)
        self.structure.require_valid()
        return Element(self.structure, self.structure.compose_mask(self.mask, other.mask))

    def __repr__(self) -> str:
        return "Element({" + ", ".join(self.atom_names()) + "})"


def compose(x: Element, y: Element) -> Element:
    return x.compose(y)


def apply_converse(x: Element) -> Element:
    return x.converse()


# ---------------------------------------------------------------------------
# predicates


@dataclass(frozen=True)
class ElementClass:
    is_point: bool
    is_pair: bool
    is_twin: bool
    is_function: bool


def _flags(x: Element) -> tuple[bool, bool, bool]:
    if x.is_zero:
        raise ValueError("classification undefined on zero")
    x.structure.require_valid()
    return x.structure._element_flags(x.mask)


def is_point(x: Element) -> bool:
    """x;1;x <= 1'."""
    return _flags(x)[0]


def is_pair(x: Element) -> bool:
    """x;0';x;0';x <= 1'."""
    return _flags(x)[1]


def is_twin(x: Element) -> bool:
    """A pair containing no point.

    A point below x would contain a point atom below x (the point
    inequality is monotone), so scanning the atoms of x is exhaustive.
    """
    if not is_pair(x):
        return False
    s = x.structure
    return not any(s._element_flags(1 << a)[0] for a in iter_bits(x.mask))


def is_function(x: Element) -> bool:
    """x~;x <= 1'."""
    return _flags(x)[2]


def classify_element(x: Element) -> ElementClass:
    """Point/pair/twin/function flags of a nonzero element."""
    point, pair, fn = _flags(x)
    return ElementClass(is_point=point, is_pair=pair, is_twin=is_twin(x),
                        is_function=fn)


# ---------------------------------------------------------------------------
# structure-level checks


def is_simple(s: AtomStructure) -> bool:
    """1;a;1 = 1 for every atom a (equivalently for every nonzero element)."""
    s.require_valid()
    return _simplicity_witness(s) is None


def is_pair_dense(s: AtomStructure) -> tuple[bool, str | None]:
    """Every nonzero element below 1' contains a pair.

    Quantifying over identity atoms is enough: an identity atom below a
    sub-identity element either is a pair itself or witnesses failure.
    """
    s.require_valid()
    w = _pair_density_witness(s)
    return w is None, w


def atoms_functional(s: AtomStructure) -> tuple[bool, str | None]:
    """Every atom, or its converse, is a function."""
    s.require_valid()
    w = _functionality_witness(s)
    return w is None, w


# The three witnesses below read only the local laws: each atom's domain
# and range are then single identity atoms, e;x is x for x starting at the
# identity atom e and 0 otherwise, and x;e likewise.


def _simplicity_witness(s: AtomStructure) -> str | None:
    """The least atom a with 1;a;1 != 1, or None.

    On a valid structure 1;a;1 = 1;d;1 for d the domain of a, since
    a = d;a and d <= a;a~.  And 1;d;1 = 1 exactly when every identity atom
    f lies below it, which holds when some atom runs from f to d, and only
    then.
    """
    dom, rng = s._ends
    into = dict.fromkeys(s.identity_atoms, 0)  # domains of atoms into e
    for d, r in zip(dom, rng):
        into[r] |= 1 << d
    for a, d in enumerate(dom):
        if into[d] != s.identity_mask:
            return s.atom_names[a]
    return None


def _pair_density_witness(s: AtomStructure) -> str | None:
    """The least identity atom e that is not a pair, or None.

    e;0';e is the set L of diversity atoms from e to e, so
    e;0';e;0';e <= 1' says that no diversity atom of L;0' ends at e.
    """
    comp, rng = s._comp, s._ends[1]
    div = s.full_mask & ~s.identity_mask
    is_div = [not s.identity_mask >> b & 1 for b in range(s.n_atoms)]
    for e in sorted(s.identity_atoms):
        reach = 0
        for x in iter_bits(s._loops[e]):
            reach |= reduce(or_, compress(comp[x], is_div), 0)
        if any(rng[z] == e for z in iter_bits(reach & div)):
            return s.atom_names[e]
    return None


def _functional_mask(s: AtomStructure) -> int:
    # the atoms a with a~;a <= 1', one lookup each
    comp, conv, ident = s._comp, s.converse_map, s.identity_mask
    return sum(1 << a for a, c in enumerate(conv) if not comp[c][a] & ~ident)


def _functionality_witness(s: AtomStructure) -> str | None:
    """The least atom a such that neither a nor a~ is a function, or None."""
    fn = _functional_mask(s)
    for a, c in enumerate(s.converse_map):
        if not (fn >> a & 1 or fn >> c & 1):
            return s.atom_names[a]
    return None


@dataclass(frozen=True)
class AxiomFailure:
    axiom: int
    condition: str
    witness: str


@dataclass(frozen=True)
class AxiomReport:
    """Results of the three first-order axioms, with witnesses on failure."""

    simple: bool
    pair_dense: bool
    functional: bool
    simple_witness: str | None = None
    pair_dense_witness: str | None = None
    functional_witness: str | None = None

    def as_triple(self) -> tuple[bool, bool, bool]:
        return (self.simple, self.pair_dense, self.functional)

    @property
    def all_hold(self) -> bool:
        return self.simple and self.pair_dense and self.functional

    def failures(self) -> tuple[AxiomFailure, ...]:
        out = []
        if not self.simple:
            out.append(AxiomFailure(1, "simplicity", self.simple_witness))
        if not self.pair_dense:
            out.append(AxiomFailure(2, "pair-density", self.pair_dense_witness))
        if not self.functional:
            out.append(AxiomFailure(3, "functionality", self.functional_witness))
        return tuple(out)


def check_z2_axioms(s: AtomStructure) -> AxiomReport:
    """Evaluate simplicity, pair-density and atom functionality."""
    s.require_valid()
    return _z2_axioms(s)


def _z2_axioms(s: AtomStructure) -> AxiomReport:
    # check_z2_axioms on a structure whose local laws hold
    sw = _simplicity_witness(s)
    pw = _pair_density_witness(s)
    fw = _functionality_witness(s)
    return AxiomReport(
        simple=sw is None, pair_dense=pw is None, functional=fw is None,
        simple_witness=sw, pair_dense_witness=pw, functional_witness=fw)


def check_functional_density(s: AtomStructure) -> bool:
    """The union of x~;y over functional atoms x, y equals one.

    Functional elements are unions of functional atoms, so atoms suffice,
    and by distributivity the union is f~;f for f the join of those atoms.
    """
    s.require_valid()
    f = _functional_mask(s)
    return s.compose_mask(s.converse_mask(f), f) == s.full_mask
