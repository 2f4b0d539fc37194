"""Shared fixtures and independent brute-force oracles.

The oracles recompute operations from first principles (pair scans,
exhaustive enumeration) so library results can be checked against an
implementation that shares no code with the one under test.
"""

import functools
import inspect
import itertools
import operator
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import pytest

try:
    from hypothesis import settings
except ImportError:  # hypothesis is optional: its property tests skip
    pass
else:
    # the same examples on every run, and no deadline on a slow machine
    settings.register_profile("relalg", derandomize=True, deadline=None)
    settings.load_profile("relalg")

from relalg import (AtomClassification, AtomStructure, AtomTypeInfo,
                    ClassificationError, ConcreteAlgebra, build_group,
                    extract_atom_structure, parse_atom_structure,
                    parse_concrete_algebra, parse_group_action, peirce_orbit,
                    rel_algebra)
from relalg.atoms import Violation, iter_bits

DATA = Path(__file__).resolve().parent.parent / "data"


def load_structure(name: str) -> AtomStructure:
    path = DATA / name
    return parse_atom_structure(path.read_text(), source=str(path))


def replaced(obj, **changes):
    """A copy of a relalg record with the given fields changed, rebuilt
    through its class, whose constructor takes one parameter per field."""
    names = inspect.signature(type(obj)).parameters
    return type(obj)(**{**{f: getattr(obj, f) for f in names}, **changes})


def load_action(name: str):
    path = DATA / name
    return parse_group_action(path.read_text(), source=str(path))


def load_concrete(name: str):
    path = DATA / name
    return parse_concrete_algebra(path.read_text(), source=str(path))


@pytest.fixture
def s23() -> AtomStructure:
    return load_structure("23.ra")


@pytest.fixture
def s57() -> AtomStructure:
    return load_structure("57.ra")


@pytest.fixture
def swap_structure() -> AtomStructure:
    return load_structure("swap.ra")


@pytest.fixture
def type6_algebra():
    return load_concrete("type6.ca")


def involutions(n: int) -> list[tuple[int, ...]]:
    """Every permutation of order dividing two, identity included."""
    return [p for p in itertools.permutations(range(n))
            if all(p[p[i]] == i for i in range(n))]


def swap_action():
    return build_group(2, [(1, 0)])


def conjugate(s: AtomStructure, perm, rng=None) -> AtomStructure:
    """Relabel atom ids by perm (new_id = perm[old_id]) with fresh names."""
    n = s.n_atoms
    inv = [0] * n
    for a, b in enumerate(perm):
        inv[b] = a
    names = tuple(f"q{i}" for i in range(n))
    conv = tuple(perm[s.converse_map[inv[b]]] for b in range(n))
    ident = frozenset(perm[e] for e in s.identity_atoms)
    cycles = frozenset((perm[x], perm[y], perm[z]) for x, y, z in s.cycles)
    return AtomStructure(names, conv, ident, cycles)


def shuffled(s, rng):
    ids = list(range(s.n_atoms))
    rng.shuffle(ids)
    return conjugate(s, ids)


def regular_action(orders):
    """Z_a x Z_b x ... acting on itself by translation, one generator per
    factor, elements written in mixed radix."""
    n = 1
    for q in orders:
        n *= q
    gens, stride = [], 1
    for q in orders:
        gens.append(tuple(x + stride * (1 - q if x // stride % q == q - 1
                                        else 1) for x in range(n)))
        stride *= q
    return build_group(n, gens)


def involution_action(points, twins):
    """The involution fixing `points` elements and swapping `twins` pairs."""
    g = list(range(points))
    for k in range(points, points + 2 * twins, 2):
        g += [k + 1, k]
    return build_group(len(g), [tuple(g)])


def involution_structure(points, twins):
    """The structure of involution_action(points, twins):
    points^2 + 2*points*twins + 2*twins^2 atoms."""
    action = involution_action(points, twins)
    return extract_atom_structure(rel_algebra(action))


def one_orbit_corruptions() -> list[tuple[AtomStructure, object]]:
    """(table, action) pairs: the structure of each involution action with
    (points, twins) in a fixed list, with one Peircean orbit of diversity
    cycles dropped, one table per orbit (39 in all).  Dropping a whole
    orbit of cycles free of identity atoms keeps the cycle law, the
    identity law and every domain and range atom, so each table breaks
    associativity alone."""
    out = []
    for points, twins in ((1, 1), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3),
                          (2, 2), (4, 0)):
        action = involution_action(points, twins)
        s = extract_atom_structure(rel_algebra(action))
        conv, ident = s.converse_map, s.identity_atoms
        orbits = sorted({tuple(sorted(peirce_orbit(c, conv)))
                         for c in s.cycles if not ident.intersection(c)})
        out += [(AtomStructure(s.atom_names, conv, ident,
                               s.cycles.difference(orbit)), action)
                for orbit in orbits]
    return out


# --- oracles -------------------------------------------------------------


@dataclass(frozen=True)
class ConcreteRelation:
    """A binary relation on {0..base_size-1}, one successor bitmask per
    row: the oracles' model of a relation, built apart from the owner
    table that the library keeps."""

    base_size: int
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        n = self.base_size
        if n < 1:
            raise ValueError("base set must be nonempty")
        if len(self.rows) != n:
            raise ValueError(f"expected {n} rows, got {len(self.rows)}")
        full = (1 << n) - 1
        for i, row in enumerate(self.rows):
            if not 0 <= row <= full:
                raise ValueError(f"row {i} has successors outside the base set")

    @classmethod
    def from_pairs(cls, base_size: int,
                   pairs: Iterable[tuple[int, int]]) -> "ConcreteRelation":
        rows = [0] * base_size
        for i, j in pairs:
            if not (0 <= i < base_size and 0 <= j < base_size):
                raise ValueError(f"pair ({i},{j}) outside base set of size {base_size}")
            rows[i] |= 1 << j
        return cls(base_size, tuple(rows))

    @classmethod
    def empty(cls, base_size: int) -> "ConcreteRelation":
        return cls(base_size, (0,) * base_size)

    @classmethod
    def identity(cls, base_size: int) -> "ConcreteRelation":
        return cls(base_size, tuple(1 << i for i in range(base_size)))

    @classmethod
    def universal(cls, base_size: int) -> "ConcreteRelation":
        full = (1 << base_size) - 1
        return cls(base_size, (full,) * base_size)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, row in enumerate(self.rows) if row
                     for j in iter_bits(row))

    def contains(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def _check_mate(self, other: "ConcreteRelation") -> None:
        if self.base_size != other.base_size:
            raise ValueError("relations over different base sets")

    def compose(self, other: "ConcreteRelation") -> "ConcreteRelation":
        self._check_mate(other)
        rows = []
        for row in self.rows:
            acc = 0
            for j in iter_bits(row):
                acc |= other.rows[j]
            rows.append(acc)
        return ConcreteRelation(self.base_size, tuple(rows))

    def converse(self) -> "ConcreteRelation":
        n = self.base_size
        rows = [0] * n
        for i in range(n):
            for j in iter_bits(self.rows[i]):
                rows[j] |= 1 << i
        return ConcreteRelation(n, tuple(rows))

    def complement(self) -> "ConcreteRelation":
        full = (1 << self.base_size) - 1
        return ConcreteRelation(self.base_size,
                                tuple(full & ~row for row in self.rows))

    def __or__(self, other: "ConcreteRelation") -> "ConcreteRelation":
        self._check_mate(other)
        return ConcreteRelation(self.base_size, tuple(
            a | b for a, b in zip(self.rows, other.rows)))

    def __and__(self, other: "ConcreteRelation") -> "ConcreteRelation":
        self._check_mate(other)
        return ConcreteRelation(self.base_size, tuple(
            a & b for a, b in zip(self.rows, other.rows)))

    def __le__(self, other: "ConcreteRelation") -> bool:
        self._check_mate(other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def intersects(self, other: "ConcreteRelation") -> bool:
        self._check_mate(other)
        return any(a & b for a, b in zip(self.rows, other.rows))

    def permuted(self, perm: Sequence[int]) -> "ConcreteRelation":
        """The image relation {(g(x), g(y)) : (x, y) in self}."""
        n = self.base_size
        if len(perm) != n:
            raise ValueError("permutation length does not match base size")
        rows = [0] * n
        for i in range(n):
            moved = 0
            for j in iter_bits(self.rows[i]):
                moved |= 1 << perm[j]
            rows[perm[i]] = moved
        return ConcreteRelation(n, tuple(rows))


def is_compatible(rel: ConcreteRelation, action) -> bool:
    """(g(x), g(y)) lies in rel for every (x, y) in rel and generator g."""
    if rel.base_size != action.base_size:
        raise ValueError("relation and action have different base sets")
    return all(rel.permuted(g) <= rel for g in action.generators)


def owner_relations(n: int, owner) -> tuple[ConcreteRelation, ...]:
    """The relation of each atom of an owner table, owner[i*n + j] the
    atom holding the pair (i, j)."""
    pairs = [[] for _ in range(max(owner) + 1)]
    for p, k in enumerate(owner):
        pairs[k].append(divmod(p, n))
    return tuple(ConcreteRelation.from_pairs(n, ps) for ps in pairs)


def atom_relations(c: ConcreteAlgebra) -> tuple[ConcreteRelation, ...]:
    """The relation of each atom of a concrete algebra."""
    return owner_relations(c.base_size, c.owner)


def algebra_of_relations(n: int, names, rels) -> ConcreteAlgebra:
    """The concrete algebra whose atoms are the given relations."""
    return ConcreteAlgebra.from_pairs(n, names, [r.pairs() for r in rels])


def owner_table_oracle(rels) -> tuple[int, ...]:
    """The owner table of relations that partition the square, pair by
    pair: entry i*n + j is the relation that contains (i, j)."""
    n = rels[0].base_size
    return tuple(next(k for k, r in enumerate(rels) if r.contains(i, j))
                 for i in range(n) for j in range(n))


def group_closure_oracle(action) -> tuple[tuple[int, ...], ...]:
    """Every element of the group an action generates, in sorted order:
    the generators closed under composition by breadth-first search."""
    n = action.base_size
    identity = tuple(range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for g in action.generators:
                q = tuple(p[g[i]] for i in range(n))
                if q not in elements:
                    elements.add(q)
                    new.append(q)
        frontier = new
    return tuple(sorted(elements))


def pair_orbits_oracle(action) -> tuple[ConcreteRelation, ...]:
    """Orbits of the diagonal action on ordered pairs, each built by
    applying every group element to its lexicographically least pair."""
    n = action.base_size
    elements = group_closure_oracle(action)
    claimed, orbits = set(), []
    for i in range(n):
        for j in range(n):
            if (i, j) not in claimed:
                orbit = {(g[i], g[j]) for g in elements}
                claimed |= orbit
                orbits.append(ConcreteRelation.from_pairs(n, orbit))
    return tuple(orbits)


def rel_algebra_oracle(action) -> ConcreteAlgebra:
    """The algebra of the action's pair orbits, by pair_orbits_oracle, each
    orbit named e<k> when it lies inside the identity and a<k> otherwise,
    numbered in orbit order."""
    orbits = pair_orbits_oracle(action)
    ident = ConcreteRelation.identity(action.base_size)
    kinds = ["e" if rel <= ident else "a" for rel in orbits]
    names = [f"{kind}{kinds[:k].count(kind)}" for k, kind in enumerate(kinds)]
    return algebra_of_relations(action.base_size, names, orbits)


def orbit_minimum_cycle_lines(s):
    """One cycle line per Peircean orbit, the least member of the orbit,
    in sorted order."""
    reps = sorted({min(peirce_orbit(t, s.converse_map)) for t in s.cycles})
    return [f"cycle {' '.join(s.atom_names[a] for a in t)}" for t in reps]


def atom_structure_text_oracle(s) -> str:
    """The text format_atom_structure writes, by one sorted pass over the
    cycles that emits each cycle not yet marked and marks its six Peircean
    transforms: the least member of each orbit when the orbits are whole,
    and well defined on any table."""
    names, conv = s.atom_names, s.converse_map
    ident = sorted(s.identity_atoms)
    pairs = [(a, c) for a, c in enumerate(conv) if a <= c]
    lines = ["atoms " + " ".join(names),
             "identity " + " ".join(names[e] for e in ident),
             "converse " + " ".join(f"{names[a]}:{names[c]}"
                                    for a, c in pairs)]
    marked = set()
    for x, y, z in sorted(s.cycles):
        if (x, y, z) not in marked:
            cx, cy, cz = conv[x], conv[y], conv[z]
            marked.update([(x, y, z), (cx, z, y), (z, cy, x),
                           (y, cz, cx), (cz, x, cy), (cy, cx, cz)])
            lines.append(f"cycle {names[x]} {names[y]} {names[z]}")
    return "\n".join(lines) + "\n"


def concrete_algebra_text_oracle(c) -> str:
    """The text format_concrete_algebra writes, pair by pair: each atom's
    pairs in row order, read off the owner table."""
    n, owner = c.base_size, c.owner
    lines = [f"set {n}"]
    for k, name in enumerate(c.atom_names):
        pairs = [f"({i},{j})" for i in range(n) for j in range(n)
                 if owner[i * n + j] == k]
        lines.append(f"atom {name} = " + " ".join(pairs))
    return "\n".join(lines) + "\n"


def emitted_cycle_lines(text):
    return [ln for ln in text.splitlines() if ln.startswith("cycle ")]


def atom_pairs_oracle(owner) -> list[list[int]]:
    """The flat pairs of each atom of an owner table, grouped entry by
    entry, in row order."""
    pairs = [[] for _ in range(max(owner) + 1)]
    for p, k in enumerate(owner):
        pairs[k].append(p)
    return pairs


def generated_groups(max_points: int) -> dict:
    """One action per group generated by one or two permutations on 1 to
    max_points points, keyed by (points, sorted group elements)."""
    actions = {}
    for n in range(1, max_points + 1):
        perms = list(itertools.permutations(range(n)))
        for gens in itertools.chain(((p,) for p in perms),
                                    itertools.combinations(perms, 2)):
            a = build_group(n, gens)
            actions.setdefault((n, group_closure_oracle(a)), a)
    return actions


def catalog_structures() -> list[AtomStructure]:
    """The structures of the 195 actions on up to 5 points, of every
    data/*.ra file, and of the type6.ca algebra."""
    structures = [extract_atom_structure(rel_algebra(a))
                  for a in generated_groups(5).values()]
    structures += [load_structure(p.name) for p in sorted(DATA.glob("*.ra"))]
    structures.append(extract_atom_structure(load_concrete("type6.ca")))
    assert len(structures) == 195 + 4 + 1
    return structures


def larger_structures() -> list[AtomStructure]:
    """Involution structures of 17 to 52 atoms and regular actions of 12
    to 48 atoms, beyond the catalog's 5 points."""
    return ([involution_structure(p, t) for p, t in ((3, 1), (0, 4),
                                                      (2, 4), (4, 2))]
            + [extract_atom_structure(rel_algebra(regular_action(orders)))
               for orders in ([12], [48], [2, 8], [3, 9], [4, 4])])


# the regular expressions that the library's token tests once were, kept
# as oracles: \s matches exactly the characters for which str.isspace()
# holds, numbers are ASCII digits, and the pair reader is given the words
# of str.split(), so its $ never meets a newline
USABLE_NAME_RE = re.compile(r"[^\s:#]+")
INT_RE = re.compile(r"([+-]?)0*([0-9]+)")
PAIR_RE = re.compile(r"^\(([0-9]+),([0-9]+)\)$")


def int_oracle(tok: str) -> int | None:
    """The value that formats._int gives a number token, by INT_RE: past
    18 digits, leading zeros aside, 10**18 with its sign; None where it
    raises ValueError."""
    m = INT_RE.fullmatch(tok)
    if m is None:
        return None
    sign, digits = m.groups()
    return int(sign + (digits if len(digits) <= 18 else "1" + "0" * 18))


def usable_atom_name_oracle(name: str) -> bool:
    """The atom name rule character by character: non-empty, and no
    character is whitespace (str.isspace), `:` or `#`."""
    return bool(name) and not any(ch.isspace() or ch in ":#" for ch in name)


def element_flags(s: AtomStructure, mask: int) -> tuple[bool, bool, bool]:
    """(point, pair, function) flags of an element, stated as the element
    inequalities x;1;x <= 1', x;0';x;0';x <= 1' and x~;x <= 1' through
    AtomStructure.compose_mask: the compositional reference that the
    per-atom facts of the axioms are tested against."""
    comp = s.compose_mask
    div = s.full_mask & ~s.identity_mask
    point = comp(comp(mask, s.full_mask), mask) & div == 0
    m = comp(comp(mask, div), mask)
    pair = comp(comp(m, div), mask) & div == 0
    fn = comp(s.converse_mask(mask), mask) & div == 0
    return point, pair, fn


def atom_flags_oracle(s: AtomStructure) -> list[tuple[bool, bool, bool]]:
    """(point, pair, function) flags of every atom as an element, by the
    element-level definitions (element_flags)."""
    return [element_flags(s, 1 << a) for a in range(s.n_atoms)]


def report_codes(report) -> tuple[str, ...]:
    """The codes of a ValidationReport's violations, in order."""
    return tuple(v.code for v in report.violations)


def axiom_triple(report) -> tuple[bool, bool, bool]:
    """(simple, pair_dense, functional) of an AxiomReport."""
    return report.simple, report.pair_dense, report.functional


def type_tags(classification) -> tuple[int, ...]:
    """The shape of each atom of an AtomClassification, in atom order."""
    return tuple(info.type_tag for info in classification.atoms)


def axioms_oracle(s: AtomStructure) -> tuple:
    """The three axioms as the definitions state them, atom by atom:
    (simple, pair_dense, functional, and the least failing atom of each or
    None).  Simplicity asks (1;a);1 = 1 of every atom a, through the
    unions a;1 and 1;a of each row and column of the composition table;
    pair-density the pair flag of every identity atom, and functionality
    the function flag of every atom or its converse."""
    def union(masks):
        return functools.reduce(operator.or_, masks, 0)

    def first(bad):
        return next((s.atom_names[a] for a in bad), None)

    atoms = range(s.n_atoms)
    times_one = [union(row) for row in s._comp]
    one_times = [union(col) for col in zip(*s._comp)]
    flags = atom_flags_oracle(s)
    sw = first(a for a in atoms
               if union(times_one[b] for b in atoms
                        if one_times[a] >> b & 1) != s.full_mask)
    pw = first(e for e in sorted(s.identity_atoms) if not flags[e][1])
    fw = first(a for a in atoms
               if not (flags[a][2] or flags[s.converse_map[a]][2]))
    return sw is None, pw is None, fw is None, sw, pw, fw


def signature_oracle(s: AtomStructure) -> list[tuple]:
    """A fingerprint of each atom that every isomorphism preserves: identity
    and self-converse, the function flag of the atom and of its converse,
    the point and pair flags, and how many cycles hold the atom in each of
    the three positions."""
    flags = atom_flags_oracle(s)
    pos = [[0, 0, 0] for _ in range(s.n_atoms)]
    for x, y, z in s.cycles:
        pos[x][0] += 1
        pos[y][1] += 1
        pos[z][2] += 1
    out = []
    for a in range(s.n_atoms):
        point, pair, fn = flags[a]
        conv = s.converse_map[a]
        out.append((a in s.identity_atoms, conv == a, fn, flags[conv][2],
                    point, pair, tuple(pos[a])))
    return out


def refined_colours_oracle(source: AtomStructure, target: AtomStructure):
    """Colour refinement keyed on every place an atom takes in a cycle and
    on its converse's colour: an atom's next colour is its colour, its
    converse's colour and the multiset of (place, colours of the other two
    atoms) over all its cycles.  Same start, table and stopping rule as
    `_refined_colours`, without relying on the cycle law."""
    table: dict = {}
    cols = [[table.setdefault((a in s.identity_atoms, c == a), len(table))
             for a, c in enumerate(s.converse_map)] for s in (source, target)]
    while Counter(cols[0]) == Counter(cols[1]):
        classes, table = len(table), {}
        for k, s in enumerate((source, target)):
            c, conv = cols[k], s.converse_map
            ctx: list[list[tuple[int, int, int]]] = [[] for _ in c]
            for x, y, z in s.cycles:
                cx, cy, cz = c[x], c[y], c[z]
                ctx[x].append((0, cy, cz))
                ctx[y].append((1, cx, cz))
                ctx[z].append((2, cx, cy))
            cols[k] = [table.setdefault((c[a], c[conv[a]], tuple(sorted(t))),
                                        len(table))
                       for a, t in enumerate(ctx)]
        if len(table) == classes:
            return cols[0], cols[1]
    return None


def compose_masks_oracle(s: AtomStructure, xm: int, ym: int) -> int:
    """Atom composition straight off the cycle list, no tables."""
    out = 0
    for (x, y, z) in s.cycles:
        if xm >> x & 1 and ym >> y & 1:
            out |= 1 << z
    return out


def converse_mask_oracle(s: AtomStructure, m: int) -> int:
    out = 0
    for a in range(s.n_atoms):
        if m >> a & 1:
            out |= 1 << s.converse_map[a]
    return out


def relation_compose_oracle(r: ConcreteRelation, t: ConcreteRelation):
    pairs = {(i, k) for i, j in r.pairs() for j2, k in t.pairs() if j == j2}
    return ConcreteRelation.from_pairs(r.base_size, pairs)


def relation_converse_oracle(r: ConcreteRelation):
    return ConcreteRelation.from_pairs(r.base_size,
                                       [(j, i) for i, j in r.pairs()])


def compatible_masks_bruteforce(action) -> set[tuple[int, ...]]:
    """All relations fixed by the action, by checking every single one.

    Relations are encoded as row-bitmask tuples; feasible only for tiny
    base sets (2^(n^2) candidates).
    """
    n = action.base_size
    rowmask = (1 << n) - 1
    found = set()
    for m in range(1 << (n * n)):
        rows = tuple((m >> (i * n)) & rowmask for i in range(n))
        ok = True
        for g in action.generators:
            for i in range(n):
                img = 0
                bits = rows[i]
                while bits:
                    j = (bits & -bits).bit_length() - 1
                    bits &= bits - 1
                    img |= 1 << g[j]
                if img & ~rows[g[i]] & rowmask:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(rows)
    return found


def union_of_orbits_masks(action) -> set[tuple[int, ...]]:
    """Row-bitmask encodings of every union of pair orbits."""
    from relalg import pair_orbits
    n = action.base_size
    orbit_rows = [r.rows for r in owner_relations(n, pair_orbits(action))]
    out = set()
    for bits in range(1 << len(orbit_rows)):
        rows = [0] * n
        for k, orows in enumerate(orbit_rows):
            if bits >> k & 1:
                for i in range(n):
                    rows[i] |= orows[i]
        out.add(tuple(rows))
    return out


def random_prime_cyclic_action(rng):
    """A random faithful action of a cyclic group of prime order on <= 10
    points: disjoint p-cycles over a shuffled base, rest fixed."""
    p = rng.choice([2, 3, 5])
    n = rng.randint(p, 10)
    base = list(range(n))
    rng.shuffle(base)
    img = list(range(n))
    k = rng.randint(1, n // p)
    for c in range(k):
        cyc = base[c * p:(c + 1) * p]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return p, build_group(n, [tuple(img)])


def associativity_witness_oracle(s: AtomStructure):
    """The dense O(atoms^3) scan: the least (a, b, c), in id order, with
    (a;b);c != a;(b;c) computed straight off the composition table."""
    comp = s._comp
    n = s.n_atoms
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = rhs = 0
                for e in range(n):
                    if comp[a][b] >> e & 1:
                        lhs |= comp[e][c]
                    if comp[b][c] >> e & 1:
                        rhs |= comp[a][e]
                if lhs != rhs:
                    return (a, b, c)
    return None


def iso_problems_oracle(w) -> tuple[str, ...]:
    """IsoWitness.problems() by the whole cycle sets: atom counts, then
    bijection of int ids, each alone; then identity atoms, converse at each
    atom, and, when the mapped source cycles are not the target's, each
    unpreserved source cycle and each target cycle without a source cycle,
    both in sorted order."""
    s, t, m = w.source, w.target, w.atom_map
    n = s.n_atoms
    if t.n_atoms != n:
        return ("structures have different atom counts",)
    if (len(m) != n or any(type(b) is not int for b in m)
            or sorted(m) != list(range(n))):
        return ("atom map is not a bijection",)
    out = []
    if {m[e] for e in s.identity_atoms} != set(t.identity_atoms):
        out.append("identity atoms are not mapped onto identity atoms")
    for a in range(n):
        if m[s.converse_map[a]] != t.converse_map[m[a]]:
            out.append(f"map does not commute with converse at atom "
                       f"{s.atom_names[a]}")
    inv = {b: a for a, b in enumerate(m)}
    mapped = {tuple(m[a] for a in c) for c in s.cycles}
    if mapped != t.cycles:
        out += [f"cycle {s._fmt_triple(c)} is not preserved"
                for c in sorted(s.cycles) if tuple(m[a] for a in c)
                not in t.cycles]
        out += [f"target cycle {t._fmt_triple(c)} has no source cycle"
                for c in sorted(t.cycles) if tuple(inv[a] for a in c)
                not in s.cycles]
    return tuple(out)


def close_cycles_oracle(cycles, converse) -> frozenset:
    """The union of the Peircean orbits of the cycles, one orbit at a time."""
    closed = set()
    for t in cycles:
        closed |= peirce_orbit(tuple(t), converse)
    return frozenset(closed)


def local_laws_oracle(s: AtomStructure) -> tuple:
    """The violations of the local laws, in the library's order and words:
    every cycle scanned for the cycle law and for each clause of the
    identity law, whatever holds, and the domain and range atoms looked up
    cycle by cycle."""
    v = []
    names = s.atom_names
    n = s.n_atoms
    if n == 0:
        return (Violation("empty-structure",
                          "structure has no atoms (one = zero)"),)

    def fmt(t):
        return "(" + ", ".join(names[a] for a in t) + ")"

    seen = {}
    for a, nm in enumerate(names):
        if not usable_atom_name_oracle(nm):
            v.append(Violation("bad-atom-name",
                               f"atom {a} has unusable name {nm!r}"))
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
                f"converse(converse({names[a]})) = {names[conv[conv[a]]]} "
                f"!= {names[a]}"))

    for e in sorted(s.identity_atoms):
        if conv[e] != e:
            v.append(Violation(
                "identity-not-self-converse",
                f"identity atom {names[e]} has converse {names[conv[e]]}"))

    cycles = s.cycles
    for t in sorted(cycles):
        for u in sorted(peirce_orbit(t, conv)):
            if u not in cycles:
                v.append(Violation(
                    "cycle-law",
                    f"cycle {fmt(t)} present but its transform {fmt(u)} "
                    f"is missing"))

    ident = s.identity_atoms
    for x, y, z in sorted(cycles):
        if x in ident and y != z:
            v.append(Violation(
                "identity-law",
                f"cycle {fmt((x, y, z))} composes an identity atom "
                f"on the left but {names[y]} != {names[z]}"))
        if y in ident and x != z:
            v.append(Violation(
                "identity-law",
                f"cycle {fmt((x, y, z))} composes an identity atom "
                f"on the right but {names[x]} != {names[z]}"))
        if z in ident and y != conv[x]:
            v.append(Violation(
                "identity-law",
                f"cycle {fmt((x, y, z))} puts an identity atom below "
                f"{names[x]};{names[y]} but {names[y]} != {names[conv[x]]}"))

    idents = sorted(ident)
    for a in range(n):
        for side, found, cycle in (
                ("domain", [e for e in idents if (e, a, a) in cycles],
                 "e has (e, {0}, {0})"),
                ("range", [f for f in idents if (a, f, a) in cycles],
                 "f has ({0}, f, {0})")):
            if not found:
                v.append(Violation(
                    f"missing-{side}-atom",
                    f"no identity atom {cycle.format(names[a])} as a cycle"))
            elif len(found) > 1:
                v.append(Violation(
                    f"multiple-{side}-atoms", f"atom {names[a]} has {side} "
                    "atoms " + ", ".join(names[e] for e in found)))
    return tuple(v)


def points_twins_oracle(bp) -> None:
    """Assert the point inequality x;1;x <= 1' for every point of a base
    partition, and the pair inequality x;0';x;0';x <= 1' without the point
    one for every twin, recomputed with relation composition on the base."""
    n = bp.base_size
    ident = ConcreteRelation.identity(n)
    universal = ConcreteRelation.universal(n)
    diversity = ident.complement()
    for p in bp.points:
        r = ConcreteRelation.from_pairs(n, [(p, p)])
        assert r.compose(universal).compose(r) <= ident, f"point {p}"
    for a, b in bp.twins:
        r = ConcreteRelation.from_pairs(n, [(a, a), (b, b)])
        m = r
        for step in (diversity, r, diversity, r):
            m = m.compose(step)
        assert m <= ident, f"twin {{{a},{b}}} fails the pair inequality"
        assert not r.compose(universal).compose(r) <= ident, \
            f"twin {{{a},{b}}} is a point"


def composition_scan_oracle(names, rels):
    """Cycles and composition-closure messages of relations that partition
    the square, from `ConcreteRelation.compose` on every pair of them."""
    owner = {}
    for k, rel in enumerate(rels):
        for pair in rel.pairs():
            owner[pair] = k
    cycles, messages = set(), []
    for x, rx in enumerate(rels):
        for y, ry in enumerate(rels):
            comp = rx.compose(ry)
            hit = sorted({owner[pair] for pair in comp.pairs()})
            for z in hit:
                cycles.add((x, y, z))
                if not rels[z] <= comp:
                    messages.append(
                        f"not closed under composition: {names[x]};{names[y]}"
                        f" meets atom {names[z]} without covering it")
    return frozenset(cycles), messages


def invariant_violations_oracle(n, names, rels) -> tuple[str, ...]:
    """The messages a set of named relations on {0..n-1} gets as a concrete
    algebra, recomputed pair by pair: partition by `contains` (the message
    of `ConcreteAlgebra.from_pairs`), then those of `invariant_violations`,
    converse by building each atom's converse relation, identity by `<=`,
    closure by composition."""
    for k, rel in enumerate(rels):
        for i, j in rel.pairs():
            first = next(m for m, prev in enumerate(rels) if prev.contains(i, j))
            if first < k:
                return (f"not a partition: atoms {names[first]} and "
                        f"{names[k]} overlap at pair ({i},{j})",)
    for i in range(n):
        for j in range(n):
            if not any(rel.contains(i, j) for rel in rels):
                return (f"not a partition: pair ({i},{j}) is in no atom",)
    rows = {rel.rows for rel in rels}
    out = [f"not closed under converse: the converse of atom {names[k]} "
           f"is not an atom" for k, rel in enumerate(rels)
           if rel.converse().rows not in rows]
    ident = ConcreteRelation.identity(n)
    out += [f"identity is not a union of atoms: atom {names[k]} meets the "
            f"identity without lying inside it" for k, rel in enumerate(rels)
            if rel.intersects(ident) and not rel <= ident]
    return tuple(out + composition_scan_oracle(names, rels)[1])


def _match_shape(prs, pset, partner):
    """Return (type_tag, witness, related_twins_or_None), or None."""
    twin_of = lambda x: (x, partner[x]) if x < partner[x] else (partner[x], x)
    if len(prs) == 1:
        a, b = prs[0]
        if a == b and a in pset:
            return 1, (a,), None
        if a != b and a in pset and b in pset:
            return 3, (a, b), None
        return None
    if len(prs) == 2:
        (p1, q1), (p2, q2) = prs
        if p1 == q1 and p2 == q2 and partner.get(p1) == p2:
            return 2, (p1, p2), None
        if p1 == q2 and q1 == p2 and p1 != q1 and partner.get(p1) == q1:
            return 2, (min(p1, q1), max(p1, q1)), None
        if q1 == q2 and q1 in pset and partner.get(p1) == p2:
            return 4, (p1, p2, q1), None
        if p1 == p2 and p1 in pset and partner.get(q1) == q2:
            return 4, (q1, q2, p1), None
        if (partner.get(p1) == p2 and partner.get(q1) == q2
                and twin_of(p1) != twin_of(q1)):
            wit = tuple(sorted({p1, p2, q1, q2}))
            return 5, wit, (twin_of(p1), twin_of(q1))
        return None
    if len(prs) == 4:
        dom = sorted({x for x, _ in prs})
        rng = sorted({y for _, y in prs})
        if (len(dom) == 2 and len(rng) == 2
                and partner.get(dom[0]) == dom[1]
                and partner.get(rng[0]) == rng[1]
                and tuple(dom) != tuple(rng)
                and set(prs) == {(x, y) for x in dom for y in rng}):
            return 6, tuple(sorted(set(dom) | set(rng))), None
        return None
    return None


def shape_oracle(c, bp):
    """`classify_atoms` by seven hand-written pair patterns, one or more per
    shape, over disjoint blocks; an atom that matches none raises."""
    pset = set(bp.points)
    partner = {}
    for a, b in bp.twins:
        partner[a] = b
        partner[b] = a
    infos, related = [], set()
    for name, rel in zip(c.atom_names, atom_relations(c)):
        got = _match_shape(rel.pairs(), pset, partner)
        if got is None:
            raise ClassificationError(
                f"atom {name} matches none of the six pair-dense atom shapes")
        tag, wit, rel_pair = got
        infos.append(AtomTypeInfo(name, tag, wit))
        if rel_pair is not None:
            related.add(tuple(sorted(rel_pair)))
    return AtomClassification(bp, tuple(infos), tuple(sorted(related)))
