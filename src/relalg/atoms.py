"""Finite relation algebras presented by their atom structures.

A structure lists atom names, the converse involution, the identity atoms,
and the allowed composition cycles: a stored triple (x, y, z) means the
atom z lies below the composition x;y.  An element is a set of atoms
packed into an integer bitmask: union and meet are bit work, and
AtomStructure.compose_mask and converse_mask give the Peircean operations.
The six Peircean transforms of a cycle are written out here only:
_close_columns for the parser's cycle lines and for one cycle
(peirce_orbit), AtomStructure._table and laws._line_places, which read
those lines, and _orbit_reps, the line that writes each whole orbit.

How a structure holds its cycles is known to this module alone, and its
members choose which store answers a reader.  The parser hands
AtomStructure._of_checked_ids its three columns of cycle lines, and
extraction a call that streams every cycle, never both; _cycle_stream
closes a parsed structure's lines (_close_columns) or calls the extracted
one's stream, and `cycles` is that stream's set, built the first time it
is read: by the proof's map and verify_decision, which count the set or
test membership in it, and by the messages of a map that fails.
_places reads a parsed structure's lines where they break no clause of
the identity law (laws._line_places), else the stream
(laws._place_atoms).  _maps_onto, the onto test of
IsoWitness.problems(), maps the source's cycle lines into the target
(_maps_lines_into).  The search reads nothing but the table _comp, and
where a side holds that table and no set (_table_only), as the search
leaves both sides, _maps_onto maps the target's lines back under the
inverse map, each image tested through the table of the side it lands
in where that side holds no set, so a searched `iso` or `check-action`
builds no set; else it compares the two sets' sizes.
Readers that only iterate take _cycle_stream (a checked structure's
stream, set built or not); verify_decision's body, check.check, reads
_line_columns.

The local laws and validation live in `laws`, and the three axioms in
`axioms`.  The members of AtomStructure that compute the laws (_places,
_cycle_law_broken, _local_violations and validation) import `laws` the
first time they are computed, and check_z2_axioms imports `axioms` when
it is called.  So `rel` and `classify` compile neither module, and
`validate` compiles `laws` but not `axioms`.

AtomStructure._table builds the dense table _comp and the column
supports in one O(cycles) pass, over the cycles or a parsed structure's
lines; the join reads both, and the search, _maps_lines_into and
compose_mask read _comp.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain, groupby

from .errors import InvalidStructureError

Triple = tuple[int, int, int]


def _converted(kind, value, message: str, error=ValueError):
    """kind(value), where kind makes a tuple or a set of a constructor's
    argument; error(message) where the argument or a member is of no type
    that converts (not iterable, or unhashable), not a TypeError."""
    try:
        return kind(value)
    except TypeError:
        raise error(message) from None


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def usable_atom_name(name: str) -> bool:
    """A str, non-empty, without whitespace, `:` or `#`, as the text
    formats need.  str.split() splits at exactly the characters for which
    str.isspace() holds, so a name without them is its one word."""
    return (isinstance(name, str) and name.split() == [name]
            and ":" not in name and "#" not in name)


def _union(table: Sequence[int], mask: int) -> int:
    """The union of table[a] over the atoms a of mask."""
    acc = 0
    for a in iter_bits(mask):
        acc |= table[a]
    return acc


def _close_columns(xs: Sequence[int], ys: Sequence[int], zs: Sequence[int],
                   converse: Sequence[int]) -> Iterator[Triple]:
    # the six transforms of the cycles (xs[i], ys[i], zs[i]), streamed
    # column by column with zip and map over the three columns, in C
    cx, cy, cz = ([*map(converse.__getitem__, col)] for col in (xs, ys, zs))
    return chain(zip(xs, ys, zs), zip(cx, zs, ys), zip(zs, cy, xs),
                 zip(ys, cz, cx), zip(cz, xs, cy), zip(cy, cx, cz))


def peirce_orbit(triple: Triple, converse: Sequence[int]) -> frozenset[Triple]:
    """All six transforms of a cycle that must hold together.

    If z <= x;y then also y <= x~;z, x <= z;y~, and the converses of all
    three, which gives six triples (_close_columns of one cycle line).
    """
    x, y, z = triple
    return frozenset(_close_columns((x,), (y,), (z,), converse))


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

    def lines(self) -> list[str]:
        return [f"{v.code}: {v.message}" for v in self.violations]


_NAMES_RULE = "atom_names must be a sequence of names"
_CONVERSE_RULE = "converse_map must assign an image to every atom id"


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
        atom_names = _converted(tuple, atom_names, _NAMES_RULE)
        converse_map = _converted(tuple, converse_map, _CONVERSE_RULE)
        identity_atoms = _converted(frozenset, identity_atoms,
                                    "identity_atoms must be a set of atom ids")
        cycles = _converted(lambda c: frozenset(map(tuple, c)), cycles,
                            "cycles must be a set of triples of atom ids")
        self._init(atom_names, converse_map, identity_atoms, cycles)
        n = len(atom_names)
        if len(converse_map) != n:
            raise ValueError(_CONVERSE_RULE)
        # ids are ints, as in ConcreteAlgebra and GroupAction: floats and
        # bools refused
        for a in converse_map:
            if type(a) is not int or not 0 <= a < n:
                raise ValueError(f"converse image {a!r} is not an atom id")
        for e in identity_atoms:
            if type(e) is not int or not 0 <= e < n:
                raise ValueError(f"identity atom {e!r} is not an atom id")
        # distinct ids and id types tested once; the culprit sought on
        # failure.  The types are read off every id, not off the distinct
        # ones, where 1.0 could hide behind an equal 1
        if not (set(map(len, cycles)) <= {3}
                and set(map(type, chain.from_iterable(cycles))) <= {int}
                and all(0 <= a < n for a in set(chain.from_iterable(cycles)))):
            for t in cycles:
                if len(t) != 3 or any(type(a) is not int or not 0 <= a < n for a in t):
                    raise ValueError(f"cycle {t!r} does not name three atom ids")

    # extraction's call that streams every cycle, one or more times,
    # anew; None on other structures
    _triples: Callable[[], Iterable[Triple]] | None = None
    # the parser's cycle lines, three id columns whose Peircean closure is
    # the cycle set, read in this module only; None unless parsed
    _lines: tuple[Sequence[int], Sequence[int], Sequence[int]] | None = None

    @classmethod
    def _of_checked_ids(cls, atom_names: tuple[str, ...],
                        converse_map: tuple[int, ...],
                        identity_atoms: frozenset[int],
                        triples: Callable[[], Iterable[Triple]] | None = None,
                        lines=None) -> "AtomStructure":
        """Internal to formats.parse_atom_structure and
        concrete.extract_atom_structure: the structure with these fields,
        set as given, without the constructor's checks, with the cycle
        law's scan preset to find nothing, and with `cycles` built the
        first time it is read as the set of _cycle_stream().  The parser
        gives lines, its three id columns, and _cycle_stream streams their
        closure (_close_columns); extraction gives triples, a call that
        streams the cycles.  Each caller gives one of the two.

        The caller vouches that every id is an int below the atom count,
        that the converse is an involution, and that the cycles obey the
        cycle law.  The parser reads its ids off its name index and pairs
        each converse both ways, no atom in two entries, so its converse is
        an involution, and the closure of its lines under an involution
        obeys the cycle law.  Extraction reads its ids off an owner table
        that ConcreteAlgebra checked, and the structure of a proper algebra
        satisfies the cycle law (Maddux, Relation Algebras, 2006)."""
        s = cls.__new__(cls)
        s.__dict__.update(atom_names=atom_names, converse_map=converse_map,
                          identity_atoms=identity_atoms, _cycle_law_broken=(),
                          _lines=lines, _triples=triples)
        return s

    @cached_property
    def cycles(self) -> frozenset[Triple]:
        # a field, set by the constructor; on a checked structure built the
        # first time it is read
        return frozenset(self._cycle_stream())

    def _cycle_stream(self) -> Iterable[Triple]:
        # every cycle, one or more times, for readers that only iterate:
        # the closure of a parsed structure's lines, an extracted one's
        # stream, else the constructor's set
        if self._lines is not None:
            return _close_columns(*self._lines, self.converse_map)
        return self.cycles if self._triples is None else self._triples()

    def _table_only(self) -> bool:
        # whether the table _comp is built and the cycle set is not, as
        # the search leaves both sides
        return "_table" in self.__dict__ and "cycles" not in self.__dict__

    def _maps_lines_into(self, t: "AtomStructure",
                         m: Sequence[int]) -> bool:
        # whether m maps each of the cycle lines (the parser's lines, else
        # every cycle, streamed where no set is built) to a cycle of t,
        # tested through t's table where t holds it and no set
        if self._lines is None:
            images = ((m[x], m[y], m[z]) for x, y, z in self._cycle_stream())
        else:
            images = zip(*(map(m.__getitem__, ids) for ids in self._lines))
        if t._table_only():
            comp = t._comp
            return all(comp[x][y] >> z & 1 for x, y, z in images)
        return t.cycles.issuperset(images)

    def _maps_onto(self, t: "AtomStructure", m: Sequence[int]) -> bool:
        # whether m, a bijection that keeps converse between structures
        # with whole orbits (_whole_orbits), maps the cycles onto t's.  m
        # sends each cycle line to its image's transforms, so lines that
        # land on t's cycles put their closure, every cycle, inside t's:
        # onto if t's lines land on ours under the inverse map, the test
        # where a side holds its table and no set (_table_only), as the
        # search leaves both, so a searched map builds no set; else if the
        # two sets are as large
        return self._maps_lines_into(t, m) and (
            t._maps_lines_into(self, sorted(range(len(m)), key=m.__getitem__))
            if self._table_only() or t._table_only()
            else len(self.cycles) == len(t.cycles))

    def _line_columns(self) -> tuple[Sequence[int], Sequence[int],
                                     Sequence[int]]:
        # three id columns whose Peircean closure is the cycle set: the
        # parser's lines, else every cycle
        return self._lines or tuple(zip(*self.cycles)) or ((), (), ())

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
        x, y, z = map(self.atom_names.__getitem__, t)  # names of any type
        return f"({x}, {y}, {z})"

    # -- composition and converse on masks --------------------------------

    @cached_property
    def _table(self) -> tuple[list[list[int]], list[int]]:
        # one pass over the cycles: the table _comp, and per atom b its
        # column support, the bitmask of the atoms a with a;b != 0.  On a
        # parsed structure the pass runs over its lines instead, each
        # entering the six transforms that the closure holds; entries are
        # unions, so repeats change nothing
        n = self.n_atoms
        table = [[0] * n for _ in range(n)]
        col_supp = [0] * n
        bit = [1 << a for a in range(n)]
        if self._lines is None:
            for x, y, z in self._cycle_stream():
                table[x][y] |= bit[z]
                col_supp[y] |= bit[x]
            return table, col_supp
        conv = self.converse_map
        for x, y, z in zip(*self._lines):
            cx, cy, cz = conv[x], conv[y], conv[z]
            table[x][y] |= bit[z]
            table[cx][z] |= bit[y]
            table[z][cy] |= bit[x]
            table[y][cz] |= bit[cx]
            table[cz][x] |= bit[cy]
            table[cy][cx] |= bit[cz]
            col_supp[y] |= bit[x]
            col_supp[z] |= bit[cx]
            col_supp[cy] |= bit[z]
            col_supp[cz] |= bit[y]
            col_supp[x] |= bit[cz]
            col_supp[cx] |= bit[cy]
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

    # -- the atom facts of the axioms ---------------------------------------

    @cached_property
    def _places(self) -> tuple[dict[int, int], dict[int, int], int,
                               list[tuple[Triple, int]]]:
        # per identity atom e the atoms below e;1 and those below 1;e, the
        # atoms that are no functions, and each (cycle, clause) that breaks
        # the identity law: one O(cycles) scan, of a parsed structure's
        # lines where they break no clause (laws._line_places), else of
        # the stream (laws._place_atoms)
        from .laws import _line_places, _place_atoms
        places = self._lines and _line_places(
            self._lines, self.identity_atoms, self.converse_map)
        return places or _place_atoms(self)

    @cached_property
    def _loops(self) -> dict[int, int]:
        # the mask of the diversity atoms from e to e, for each identity
        # atom e: e;0';e under the local laws, so e is a point iff it has none
        out, into = self._places[:2]
        return {e: out[e] & into[e] & ~self.identity_mask for e in out}

    # -- validation ---------------------------------------------------------

    @cached_property
    def validation(self) -> ValidationReport:
        from .laws import _validate
        return _validate(self)

    @cached_property
    def _local_violations(self) -> tuple[Violation, ...]:
        from .laws import _local_laws
        return _local_laws(self)

    @cached_property
    def _cycle_law_broken(self) -> Sequence[tuple[Triple, Triple]]:
        # each (cycle, missing transform), sorted; preset to none by
        # _of_checked_ids
        from .laws import _broken_cycles
        return _broken_cycles(self)

    def require_valid(self) -> None:
        if not self.validation.ok:
            raise InvalidStructureError(self.validation)


def _whole_orbits(s: AtomStructure) -> bool:
    """Whether the cycle law holds and the converse is an involution: the
    six transforms of a cycle are then its Peircean orbit, and every orbit
    lies inside the cycle set or outside it.  Parsed and extracted
    structures pass at the cost of the involution test."""
    conv = s.converse_map
    return (not s._cycle_law_broken
            and [*map(conv.__getitem__, conv)] == [*range(len(conv))])


def _orbit_leasts(cycles: Iterable[Triple],
                  conv: Sequence[int]) -> list[Triple]:
    """The cycles t = (x, y, z) at most each of their five other Peircean
    transforms, under an involutive converse.  t is compared with a
    transform by x against its first place, x~, y, y~, z or z~, and as a
    whole only on a tie.  A tie with (y, z~, x~) needs no second look:
    when x = y, t <= (y, z~, x~) is (x, z) <= (z~, x~), which x <= z~
    gives, as x = z~ makes z = x~."""
    reps = []
    for t in cycles:
        x, y, z = t
        # (y, z~, x~) and (z, y~, x), whose first places need no lookup
        if x > y or x > z or x == z and t > (z, conv[y], x):
            continue
        cx, cy, cz = conv[x], conv[y], conv[z]
        if ((x < cx or x == cx and t <= (cx, z, y))
                and (x < cy or x == cy and t <= (cy, cx, cz))
                and (x < cz or x == cz and t <= (cz, x, cy))):
            reps.append(t)
    return reps


def _orbit_reps(s: AtomStructure) -> list[Triple]:
    """The cycles that stand for their Peircean orbits in the text format,
    one per orbit, its least member, in sorted order.

    The orbits must be whole (_whole_orbits), as in every parsed or
    extracted structure: the transforms of a cycle are then its orbit, so
    a cycle is its orbit's least exactly when it is at most each
    transform, a local test per cycle.  The test runs over
    AtomStructure._cycle_stream, so the set is never built to be written;
    the stream can repeat a cycle, so the sorted leasts are deduplicated.
    The writer's one refusal, O(atoms) on such structures: no text parses
    back to a table without identity atoms, with an unusable or repeated
    name or not whole orbits, which raises InvalidStructureError with its
    whole local-law report."""
    names = s.atom_names  # usable and distinct: as many usable as names
    if not (s.identity_atoms and _whole_orbits(s)
            and len({*filter(usable_atom_name, names)}) == len(names)):
        raise InvalidStructureError(ValidationReport(s._local_violations))
    leasts = sorted(_orbit_leasts(s._cycle_stream(), s.converse_map))
    return [t for t, _ in groupby(leasts)]


def check_z2_axioms(s: AtomStructure) -> AxiomReport:
    """Evaluate simplicity, pair-density and atom functionality, as an
    axioms.AxiomReport.  The axioms are imported here, so that a request
    that checks none never compiles them."""
    s.require_valid()
    from .axioms import _z2_axioms
    return _z2_axioms(s)
