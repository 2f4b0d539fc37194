"""Shared fixtures and independent brute-force oracles.

The oracles recompute operations from first principles (pair scans,
exhaustive enumeration) so library results can be checked against an
implementation that shares no code with the one under test.
"""

import itertools
from collections import Counter
from pathlib import Path

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
                    ClassificationError, ConcreteRelation, build_group,
                    parse_atom_structure, parse_concrete_algebra,
                    parse_group_action, relation_converse)

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


def signature_oracle(s: AtomStructure) -> list[tuple]:
    """A fingerprint of each atom that every isomorphism preserves: identity
    and self-converse, the function flag of the atom and of its converse,
    the point and pair flags, and how many cycles hold the atom in each of
    the three positions."""
    flags = s.atom_flags
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


def invariant_violations_oracle(c) -> tuple[str, ...]:
    """The messages of `ConcreteAlgebra.invariant_violations`, recomputed
    pair by pair: partition by `contains`, converse by building each atom's
    converse relation, identity by `<=`, closure by composition."""
    n, names, rels = c.base_size, c.atom_names, c.atom_relations
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
           if relation_converse(rel).rows not in rows]
    ident = ConcreteRelation.identity(n)
    out += [f"identity is not a union of atoms: atom {names[k]} meets the "
            f"identity without lying inside it" for k, rel in enumerate(rels)
            if rel.intersects(ident) and not rel <= ident]
    return tuple(out + composition_scan_oracle(c)[1])


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
    for name, rel in zip(c.atom_names, c.atom_relations):
        got = _match_shape(rel.pairs(), pset, partner)
        if got is None:
            raise ClassificationError(
                f"atom {name} matches none of the six pair-dense atom shapes")
        tag, wit, rel_pair = got
        infos.append(AtomTypeInfo(name, tag, wit))
        if rel_pair is not None:
            related.add(tuple(sorted(rel_pair)))
    return AtomClassification(bp, tuple(infos), tuple(sorted(related)))
