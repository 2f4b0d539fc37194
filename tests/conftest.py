"""Shared fixtures and independent brute-force oracles.

The oracles recompute operations from first principles (pair scans,
exhaustive enumeration) so library results can be checked against an
implementation that shares no code with the one under test.
"""

import itertools
from pathlib import Path

import pytest

from relalg import (AtomStructure, ConcreteRelation, build_group,
                    parse_atom_structure, parse_concrete_algebra,
                    parse_group_action)

DATA = Path(__file__).resolve().parent.parent / "data"


def load_structure(name: str) -> AtomStructure:
    path = DATA / name
    return parse_atom_structure(path.read_text(), source=str(path))


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


# --- oracles -------------------------------------------------------------


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
    orbit_rows = [r.rows for r in pair_orbits(action)]
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


def composition_scan_oracle(c):
    """Cycles and composition-closure messages of a partitioning concrete
    algebra, from `ConcreteRelation.compose` on every pair of atoms."""
    owner = {}
    for k, rel in enumerate(c.atom_relations):
        for pair in rel.pairs():
            owner[pair] = k
    cycles, messages = set(), []
    names = c.atom_names
    for x, rx in enumerate(c.atom_relations):
        for y, ry in enumerate(c.atom_relations):
            comp = rx.compose(ry)
            hit = sorted({owner[pair] for pair in comp.pairs()})
            for z in hit:
                cycles.add((x, y, z))
                if not c.atom_relations[z] <= comp:
                    messages.append(
                        f"not closed under composition: {names[x]};{names[y]}"
                        f" meets atom {names[z]} without covering it")
    return frozenset(cycles), messages
