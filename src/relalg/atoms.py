"""Finite relation algebras presented by their atom structures.

A structure lists atom names, the converse involution, the identity atoms,
and the allowed composition cycles: a stored triple (x, y, z) means the
atom z lies below the composition x;y.  Elements are atom sets packed into
integer bitmasks, so Boolean and Peircean operations reduce to bit work.

Validation checks associativity by a join of the cycles on their shared
atom, in place of an atoms^3 scan; the point, pair and function flags of
all atoms cost O(atoms^2) mask operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress
from operator import or_
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

    # -- per-atom flags used by predicates and the axioms ------------------

    @cached_property
    def _unions(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        # a;1, 1;a and a;0' for every atom a
        comp = self._comp
        div = [not self.identity_mask >> b & 1 for b in range(self.n_atoms)]
        return (tuple(reduce(or_, row, 0) for row in comp),
                tuple(reduce(or_, col, 0) for col in zip(*comp)),
                tuple(reduce(or_, compress(row, div), 0) for row in comp))

    def _element_flags(self, mask: int) -> tuple[bool, bool, bool]:
        """(is_point, is_pair, is_function) of an element: x;1;x <= 1',
        x;0';x;0';x <= 1' and x~;x <= 1'.  O(atoms) mask operations for
        an atom, through the cached a;1 and a;0'."""
        times_one, _, times_div = self._unions
        other = ~self.identity_mask
        point = self.compose_mask(_union(times_one, mask), mask) & other == 0
        m = self.compose_mask(_union(times_div, mask), mask)
        pair = self.compose_mask(_union(times_div, m), mask) & other == 0
        fn = self.compose_mask(self.converse_mask(mask), mask) & other == 0
        return point, pair, fn

    @cached_property
    def atom_flags(self) -> tuple[tuple[bool, bool, bool], ...]:
        # (is_point, is_pair, is_function) for each atom as an element
        return tuple(self._element_flags(1 << a) for a in range(self.n_atoms))

    # -- validation ---------------------------------------------------------

    @cached_property
    def validation(self) -> ValidationReport:
        return _validate(self)

    def require_valid(self) -> None:
        if not self.validation.ok:
            raise InvalidStructureError(self.validation)


def _validate(s: AtomStructure) -> ValidationReport:
    v: list[Violation] = []
    names = s.atom_names
    n = s.n_atoms
    if n == 0:
        return ValidationReport((
            Violation("empty-structure", "structure has no atoms (one = zero)"),))

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

    # messages, sorted, only for the cycles with a transform missing
    cycles = s.cycles
    broken = [t for t in cycles if not cycles.issuperset(_transforms(t, conv))]
    for t in sorted(broken):
        for u in sorted(peirce_orbit(t, conv)):
            if u not in cycles:
                v.append(Violation(
                    "cycle-law",
                    f"cycle {s._fmt_triple(t)} present but its transform "
                    f"{s._fmt_triple(u)} is missing"))

    ident = s.identity_atoms
    for x, y, z in sorted(s.cycles):
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
        nm = names[a]
        for side, found, cycle in (
                ("domain", [e for e in idents if (e, a, a) in s.cycles],
                 f"e has (e, {nm}, {nm})"),
                ("range", [e for e in idents if (a, e, a) in s.cycles],
                 f"f has ({nm}, f, {nm})")):
            if not found:
                v.append(Violation(f"missing-{side}-atom",
                                   f"no identity atom {cycle} as a cycle"))
            elif len(found) > 1:
                v.append(Violation(
                    f"multiple-{side}-atoms", f"atom {nm} has {side} atoms "
                    + ", ".join(names[e] for e in found)))

    wit = _associativity_witness(s)
    if wit is not None:
        a, b, c = wit
        v.append(Violation(
            "associativity",
            f"({names[a]};{names[b]});{names[c]} != "
            f"{names[a]};({names[b]};{names[c]})"))

    return ValidationReport(tuple(v))


def _associativity_witness(s: AtomStructure) -> Triple | None:
    """The least (a, b, c) with (a;b);c != a;(b;c), or None.

    A join on the shared atom, one row (a, b) at a time: c maps on the left
    to the union of e;c over the cycles (a, b, e), on the right to the
    union of a;f over the cycles (b, c, f).  Only rows where either side
    can be nonzero are visited, so the work grows with the cycles joined.
    """
    comp = s._comp
    n = s.n_atoms
    cols = [list(compress(range(n), row)) for row in comp]  # nonzero entries
    supp = [sum(1 << c for c in cs) for cs in cols]
    # per atom b: the (c, f) of the cycles (b, c, f) as two flat lists, which
    # hold no tuple per cycle; per atom f: the atoms b with such a cycle
    outgoing: list[tuple[list[int], list[int]]] = [([], []) for _ in range(n)]
    reached_by = [0] * n
    for b, c, f in s.cycles:
        outgoing[b][0].append(c)
        outgoing[b][1].append(f)
        reached_by[f] |= 1 << b
    for a, row_a in enumerate(comp):
        # both sides are 0 for every c unless a;b != 0 or a;(b;1) != 0
        for b in iter_bits(supp[a] | _union(reached_by, supp[a])):
            left, right = [0] * n, [0] * n
            for e in iter_bits(row_a[b]):
                row_e = comp[e]
                for c in cols[e]:
                    left[c] |= row_e[c]
            for c, f in zip(*outgoing[b]):
                right[c] |= row_a[f]
            if left != right:
                return (a, b, next(c for c in range(n) if left[c] != right[c]))
    return None


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
    flags = x.structure.atom_flags
    return not any(flags[a][0] for a in iter_bits(x.mask))


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
    return _simplicity_witness(s) is None


def _simplicity_witness(s: AtomStructure) -> str | None:
    s.require_valid()
    times_one, one_times, _ = s._unions
    for a in range(s.n_atoms):
        if _union(times_one, one_times[a]) != s.full_mask:
            return s.atom_names[a]
    return None


def is_pair_dense(s: AtomStructure) -> tuple[bool, str | None]:
    """Every nonzero element below 1' contains a pair.

    Quantifying over identity atoms is enough: an identity atom below a
    sub-identity element either is a pair itself or witnesses failure.
    """
    s.require_valid()
    for e in sorted(s.identity_atoms):
        if not s.atom_flags[e][1]:
            return False, s.atom_names[e]
    return True, None


def atoms_functional(s: AtomStructure) -> tuple[bool, str | None]:
    """Every atom, or its converse, is a function."""
    s.require_valid()
    flags = s.atom_flags
    for a in range(s.n_atoms):
        if not (flags[a][2] or flags[s.converse_map[a]][2]):
            return False, s.atom_names[a]
    return True, None


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
    sw = _simplicity_witness(s)
    pd, pw = is_pair_dense(s)
    fn, fw = atoms_functional(s)
    return AxiomReport(
        simple=sw is None, pair_dense=pd, functional=fn,
        simple_witness=sw, pair_dense_witness=pw, functional_witness=fw)


def check_functional_density(s: AtomStructure) -> bool:
    """The union of x~;y over functional atoms x, y equals one.

    Functional elements are unions of functional atoms, so atoms suffice,
    and by distributivity the union is f~;f for f the join of those atoms.
    """
    s.require_valid()
    f = sum(1 << a for a, flags in enumerate(s.atom_flags) if flags[2])
    return s.compose_mask(s.converse_mask(f), f) == s.full_mask
