"""Finite relation algebras presented by their atom structures.

A structure lists atom names, the converse involution, the identity atoms,
and the allowed composition cycles: a stored triple (x, y, z) means the
atom z lies below the composition x;y.  An element is a set of atoms
packed into an integer bitmask: union and meet are bit work, and
AtomStructure.compose_mask and converse_mask give the Peircean operations.
AtomStructure._element_flags states point, pair and function as the
element inequalities; the decision never reads it, and it is kept as the
compositional reference that the per-atom facts of the axioms are
tested against.  The six Peircean transforms of a cycle are written out
here only: peirce_orbit for one cycle, _close_columns for the parser's
cycle lines, and _orbit_reps, the line that writes each whole orbit.

Validation has two parts.  The local laws (names, converse, the cycle
and identity laws, one domain and one range atom per atom) cost two
O(cycles) scans, which record what breaks each law for _local_laws to
word: the cycle law's, skipped on structures that the parser and
extraction build (AtomStructure._of_checked_ids), and
AtomStructure._places, which places every atom by two masks per
identity atom e, the atoms below e;1 and below 1;e, finds the atoms
that are no functions, and records each (cycle, clause) that breaks the
identity law.  Associativity is checked by the join, in its own
module, join, which _validate imports when it runs.  The three axioms
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
from itertools import chain
from operator import or_

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


def peirce_orbit(triple: Triple, converse: Sequence[int]) -> frozenset[Triple]:
    """All six transforms of a cycle that must hold together.

    If z <= x;y then also y <= x~;z, x <= z;y~, and the converses of all
    three, which gives six triples.
    """
    x, y, z = triple
    cx, cy, cz = converse[x], converse[y], converse[z]
    return frozenset(((x, y, z), (cx, z, y), (z, cy, x),
                      (y, cz, cx), (cz, x, cy), (cy, cx, cz)))


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
                               list[tuple[Triple, int]]]:
        # one pass over the cycles: per identity atom e, out[e] holds the
        # atoms a with (e, a, a), below e;1, and into[e] those with
        # (a, e, a), below 1;e, so e;1;f is out[e] & into[f]; then the atoms
        # a with some (a, w, a), w in 0': by the cycle law, the non-functions;
        # then each (cycle, clause) that breaks the identity law, sorted,
        # its clause numbered as in _IDENTITY_LAW
        ident, conv = self.identity_atoms, self.converse_map
        out, into, not_fn = dict.fromkeys(ident, 0), dict.fromkeys(ident, 0), 0
        broken = []
        for t in self.cycles:
            x, y, z = t
            if x == z:
                if y in ident:
                    into[y] |= 1 << x
                else:
                    not_fn |= 1 << x
            elif y in ident:
                broken.append((t, 1))
            if y == z:
                if x in ident:
                    out[x] |= 1 << y
            elif x in ident:
                broken.append((t, 0))
            if z in ident and y != conv[x]:
                broken.append((t, 2))
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
    def _cycle_law_broken(self) -> Sequence[tuple[Triple, Triple]]:
        # each (cycle, missing transform), sorted; preset to none by
        # _of_checked_ids
        return _broken_cycles(self)

    def require_valid(self) -> None:
        if not self.validation.ok:
            raise InvalidStructureError(self.validation)


def _validate(s: AtomStructure) -> ValidationReport:
    """The local laws, then associativity.  The join is imported here, so
    that a request that validates no structure in full never compiles it."""
    from .join import _associativity_witness
    wit = _associativity_witness(s)
    if wit is None:
        return ValidationReport(s._local_violations)
    names = s.atom_names
    a, b, c = wit
    return ValidationReport(s._local_violations + (Violation(
        "associativity",
        f"({names[a]};{names[b]});{names[c]} != "
        f"{names[a]};({names[b]};{names[c]})"),))


# the identity law's clauses as _places numbers them, in x, y, z and x~
_IDENTITY_LAW = ("composes an identity atom on the left but {1} != {2}",
                 "composes an identity atom on the right but {0} != {2}",
                 "puts an identity atom below {0};{1} but {1} != {3}")


def _local_laws(s: AtomStructure) -> tuple[Violation, ...]:
    """Names, converse, self-converse identity atoms, the cycle law, the
    identity law, and one domain and one range atom per atom.  The cycle
    law's scan, run on a structure built by the constructor, and
    AtomStructure._places, one O(cycles) pass each, record what breaks
    the two laws on cycles, and the record is only worded here."""
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

    for t, u in s._cycle_law_broken:
        v.append(Violation(
            "cycle-law", f"cycle {s._fmt_triple(t)} present but its "
            f"transform {s._fmt_triple(u)} is missing"))

    out, into, _, broken = s._places
    for (x, y, z), clause in broken:
        v.append(Violation("identity-law", f"cycle {s._fmt_triple((x, y, z))} "
                           + _IDENTITY_LAW[clause].format(
                               names[x], names[y], names[z], names[conv[x]])))

    # one out[e] holds each atom iff their sizes sum to n and union is all
    if any(sum(map(int.bit_count, m.values())) != n
           or reduce(or_, m.values(), 0) != s.full_mask for m in (out, into)):
        idents = sorted(s.identity_atoms)
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


def _broken_cycles(s: AtomStructure) -> list[tuple[Triple, Triple]]:
    """Each (cycle, transform of it that is missing), sorted.

    Closure under (x~, z, y) and (z, y~, x) is closure under all six
    transforms, converse an involution or not: they compose to the other
    three.  The six are listed only to find the culprits.
    """
    cycles, conv = s.cycles, s.converse_map
    if all((conv[x], z, y) in cycles and (z, conv[y], x) in cycles
           for x, y, z in cycles):
        return []
    return sorted((t, u) for t in cycles for u in peirce_orbit(t, conv)
                  if u not in cycles)


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
    transform, a local test per cycle.  The writer's one refusal, O(atoms)
    on such structures: no text parses back to a table without identity
    atoms, with an unusable or repeated name or not whole orbits, which
    raises InvalidStructureError with its whole local-law report."""
    names = s.atom_names  # usable and distinct: as many usable as names
    if not (s.identity_atoms and _whole_orbits(s)
            and len({*filter(usable_atom_name, names)}) == len(names)):
        raise InvalidStructureError(ValidationReport(s._local_violations))
    return sorted(_orbit_leasts(s.cycles, s.converse_map))


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
