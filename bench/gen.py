"""Seeded inputs for the relalg benchmark, built without relalg code.

Every input is derived from a permutation group given by generators on
{0..n-1}.  The benchmark computes the pair orbits (the atoms of the
compatible-relation algebra) and the cycle table by its own scans, writes
the `.ra`, `.act` and `.ca` files relalg reads, and records beside each
request the answer known from how the input was built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Structure:
    """An atom structure in the benchmark's own terms.

    Atom ids are positions in `names`; `conv[a]` is the converse atom,
    `identity` the atoms below 1', `cycles` every triple (x, y, z) with
    z below x;y.
    """

    names: tuple[str, ...]
    conv: tuple[int, ...]
    identity: frozenset[int]
    cycles: frozenset[tuple[int, int, int]]

    @property
    def n_atoms(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class Orbits:
    """Pair orbits of a group on {0..n-1}: owner[i*n + j] is an atom id."""

    n: int
    owner: tuple[int, ...]
    n_atoms: int

    def diagonal_sizes(self) -> dict[int, int]:
        """Identity atom id -> number of base points it covers."""
        sizes: dict[int, int] = {}
        for i in range(self.n):
            a = self.owner[i * self.n + i]
            sizes[a] = sizes.get(a, 0) + 1
        return sizes


def pair_orbits(n: int, gens: list[tuple[int, ...]]) -> Orbits:
    """Orbits of the diagonal action on ordered pairs, by flood fill.

    The group is finite, so closing under the generators alone (no
    inverses) already gives the orbits of the group they generate.
    """
    owner = [-1] * (n * n)
    k = 0
    for start in range(n * n):
        if owner[start] >= 0:
            continue
        owner[start] = k
        stack = [divmod(start, n)]
        while stack:
            x, y = stack.pop()
            for g in gens:
                u, v = g[x], g[y]
                if owner[u * n + v] < 0:
                    owner[u * n + v] = k
                    stack.append((u, v))
        k += 1
    return Orbits(n, tuple(owner), k)


def structure_of(orb: Orbits, perm: list[int]) -> Structure:
    """The atom structure of the orbit algebra; orbit a gets atom id perm[a].

    Cycles are read off base triples: (owner(i,j), owner(j,l), owner(i,l)).
    """
    n, owner = orb.n, orb.owner
    conv = [0] * orb.n_atoms
    ident = set()
    for i in range(n):
        for j in range(n):
            conv[perm[owner[i * n + j]]] = perm[owner[j * n + i]]
        ident.add(perm[owner[i * n + i]])
    cycles = set()
    for i in range(n):
        row_i = owner[i * n:(i + 1) * n]
        for j in range(n):
            x = perm[row_i[j]]
            row_j = owner[j * n:(j + 1) * n]
            for m in range(n):
                cycles.add((x, perm[row_j[m]], perm[row_i[m]]))
    names = tuple(f"a{a}" for a in range(orb.n_atoms))
    return Structure(names, tuple(conv), frozenset(ident), frozenset(cycles))


def relabeled(s: Structure, rng: random.Random) -> Structure:
    """An isomorphic copy with atom ids and names permuted by rng."""
    perm = list(range(s.n_atoms))
    rng.shuffle(perm)
    conv = [0] * s.n_atoms
    for a in range(s.n_atoms):
        conv[perm[a]] = perm[s.conv[a]]
    return Structure(
        tuple(f"b{a}" for a in range(s.n_atoms)), tuple(conv),
        frozenset(perm[e] for e in s.identity),
        frozenset((perm[x], perm[y], perm[z]) for x, y, z in s.cycles))


def _transforms(t, conv):
    """The six triples that z <= x;y forces: y <= x~;z, x <= z;y~, and the
    converses of all three."""
    x, y, z = t
    cx, cy, cz = conv[x], conv[y], conv[z]
    return ((x, y, z), (cx, z, y), (z, cy, x), (y, cz, cx), (cz, x, cy),
            (cy, cx, cz))


def ra_text(s: Structure) -> str:
    """The `.ra` format: one cycle line per Peircean class."""
    nm = s.names
    lines = ["atoms " + " ".join(nm),
             "identity " + " ".join(nm[e] for e in sorted(s.identity)),
             "converse " + " ".join(f"{nm[a]}:{nm[s.conv[a]]}"
                                    for a in range(s.n_atoms)
                                    if a <= s.conv[a])]
    # one representative per class; the parser closes the rest
    reps = sorted({min(_transforms(t, s.conv)) for t in s.cycles})
    lines.extend(f"cycle {nm[x]} {nm[y]} {nm[z]}" for x, y, z in reps)
    return "\n".join(lines) + "\n"


def read_ra(text: str) -> Structure:
    """Read back a `.ra` file written by `ra_text` (or a catalog file in
    the same format), closing the cycle lines under the six transforms."""
    names: list[str] = []
    ident: list[str] = []
    conv_pairs: list[str] = []
    reps = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "atoms":
            names = parts[1:]
        elif parts[0] == "identity":
            ident = parts[1:]
        elif parts[0] == "converse":
            conv_pairs = parts[1:]
        elif parts[0] == "cycle":
            reps.append(parts[1:])
    index = {nm: a for a, nm in enumerate(names)}
    conv = list(range(len(names)))
    for p in conv_pairs:
        a, b = (index[x] for x in p.split(":"))
        conv[a], conv[b] = b, a
    cycles = set()
    for rep in reps:
        cycles.update(_transforms([index[nm] for nm in rep], conv))
    return Structure(tuple(names), tuple(conv),
                     frozenset(index[nm] for nm in ident), frozenset(cycles))


def read_ca(text: str) -> Orbits:
    """Read a `.ca` file as a partition of the pairs into atoms."""
    n = 0
    owner: list[int] = []
    k = 0
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "set":
            n = int(parts[1])
            owner = [-1] * (n * n)
        elif parts[0] == "atom":
            for tok in parts[3:]:
                i, j = map(int, tok.strip("()").split(","))
                owner[i * n + j] = k
            k += 1
    return Orbits(n, tuple(owner), k)


def act_text(n: int, gens: list[tuple[int, ...]]) -> str:
    return "\n".join([f"set {n}"] + ["gen " + " ".join(map(str, g))
                                     for g in gens]) + "\n"


def ca_text(orb: Orbits) -> str:
    """The `.ca` format: one atom line per pair orbit."""
    n = orb.n
    pairs: list[list[str]] = [[] for _ in range(orb.n_atoms)]
    for i in range(n):
        for j in range(n):
            pairs[orb.owner[i * n + j]].append(f"({i},{j})")
    return "\n".join([f"set {n}"] + [f"atom c{a} = " + " ".join(p)
                                     for a, p in enumerate(pairs)]) + "\n"


# -- groups -----------------------------------------------------------------


def _relabel_gens(n, cycles_list, rng):
    """Generators given as lists of cycles on 0..n-1, under a random
    relabelling of the base set."""
    base = list(range(n))
    rng.shuffle(base)
    gens = []
    for cycles in cycles_list:
        img = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[base[a]] = base[b]
        gens.append(tuple(img))
    return gens


def involution(f: int, t: int, rng) -> list[tuple[int, ...]]:
    """f fixed points and t swapped pairs (twins), on f + 2t points."""
    return _relabel_gens(f + 2 * t,
                         [[[f + 2 * k, f + 2 * k + 1] for k in range(t)]],
                         rng)


def z3_triangles(k: int, rng) -> list[tuple[int, ...]]:
    """Z3 rotating k disjoint triangles at once, on 3k points."""
    return _relabel_gens(3 * k, [[[3 * i, 3 * i + 1, 3 * i + 2]
                                  for i in range(k)]], rng)


def cyclic_regular(n: int, rng) -> list[tuple[int, ...]]:
    """Z_n acting on itself by translation."""
    return _relabel_gens(n, [[list(range(n))]], rng)


def dihedral(n: int, rng) -> list[tuple[int, ...]]:
    """D_n on the n vertices of a polygon: a rotation and a reflection."""
    flip = [[i, n - i] for i in range(1, (n + 1) // 2)]
    return _relabel_gens(n, [[list(range(n))], flip], rng)


def abelian_regular(orders: list[int], rng) -> list[tuple[int, ...]]:
    """Z_a x Z_b x ... acting on itself by translation, one generator per
    factor; non-isomorphic groups of equal order give non-isomorphic
    atom structures with equal atom counts."""
    n = 1
    for q in orders:
        n *= q
    cycles_list = []
    stride = 1
    for q in orders:
        # translation by one in this factor: a product of n/q cycles
        cyc = []
        for start in range(n):
            if (start // stride) % q == 0:
                cyc.append([start + stride * r for r in range(q)])
        cycles_list.append(cyc)
        stride *= q
    return _relabel_gens(n, cycles_list, rng)
