"""The re-check of an accepted decision from its certificate alone.

decision.verify_decision is the entry point: it refuses a rejected
decision and imports this module on the first verification, so only
`decide-z2 --verify` compiles it (README, "Start-up").  check reads the
action, the algebra's owner table, the witness's map and target and the
decided structure, and runs none of rel_algebra, extract_atom_structure
and IsoWitness.problems(): a fault there cannot pass twice.  Of the
decision procedure it shares only the map rules (_map_problems) and the
test for a group of order at most two (_involution), with problems() the
members of `atoms` that read a structure's cycle lines and store (the
columns AtomStructure._line_columns, the membership test _has_cycles and
the count _cycle_count), and with rel_algebra the rule that names each
orbit atom (actions._orbit_names).
"""

from __future__ import annotations

from .atoms import _whole_orbits
from .decision import _involution, _map_problems


def check(d: Z2Decision) -> tuple[str, ...]:
    """The problems of an accepted decision's certificate (action, owner
    table, the witness's map m and target t, the decided structure s), ()
    if there are none; an accepted decision that lacks its action, algebra
    or witness fails, each missing part named.

    The group is {1, g} (_involution) and the table holds its orbits on
    pairs (_orbit_firsts), so it is the action's algebra: atom z's converse
    holds the transpose of its first pair (i, k), the identity atoms meet
    the diagonal, and the cycles are the (x, y, z) with (x, y) in the
    profile of (i, k), the image of j -> (owner(i,j), owner(j,k)), one to
    one but that j and g(j) meet when g fixes i and k: n K - t f^2 cycles
    for K atoms, f fixed points and t 2-cycles.  m keeps the map rules and
    puts each cycle line (x, y, z) of s (AtomStructure._line_columns) in a
    profile: (i, j) in m(x), j = b if m(x)'s first pair (a, b) has a = i,
    g(b) if g(a) = i, has (j, k) in m(y).  m commutes with the Peircean
    transforms, which keep the table's cycles, and s's cycles are its
    lines' closure, so m maps them into the table's, as many: onto.  t has
    the table's names, converse and identity atoms, as many cycles, whole
    orbits (atoms._whole_orbits) and each line's image: it is the table's."""
    missing = tuple(f"accepted decision has no {part}" for part in
                    ("action", "algebra", "witness") if getattr(d, part) is None)
    if missing:
        return missing
    s, t, m, alg = d.structure, d.witness.target, d.witness.atom_map, d.algebra
    g = _involution(d.action)
    firsts = _orbit_firsts(g, alg)
    out = [] if firsts else ["action group has order above 2, expected <= 2"
                             if g is None else "stored algebra is not the "
                             "compatible-relation algebra of the action"]
    if d.witness.source != s:
        out.append("witness source is not the decided structure")
    if not firsts:
        return tuple(out)
    n, owner, atoms = alg.base_size, alg.owner, len(firsts)
    row, col = [p // n for p in firsts], [p % n for p in firsts]
    conv = tuple(owner[b * n + a] for a, b in zip(row, col))
    ident = set(owner[::n + 1])
    out += _map_problems(s, m, ident, conv)
    if out:
        return tuple(out)
    lines = s._line_columns()
    xs, ys, zs = ([*map(m.__getitem__, ids)] for ids in lines)
    out = [f"cycle {s._fmt_triple(c)} is not preserved" for c in sorted({
        c for c, x, y, z in zip(zip(*lines), xs, ys, zs)
        if not (row[x] == row[z] and owner[col[x] * n + col[z]] == y
                or g[row[x]] == row[z] and owner[g[col[x]] * n + col[z]] == y)})]
    f = sum(a == b for a, b in enumerate(g))
    size = atoms * n - (n - f) // 2 * f * f
    if not out and size != s._cycle_count():
        out.append(f"structure has {s._cycle_count()} cycles and the action's "
                   f"algebra {size}")
    if not out and ((t.atom_names, t.converse_map, t.identity_atoms)
                    != (alg.atom_names, conv, ident)
                    or t._cycle_count() != size or not _whole_orbits(t)
                    or not t._has_cycles(zip(xs, ys, zs))):
        out.append("witness target is not the extraction of the action's "
                   "algebra")
    return tuple(out)


def _orbit_firsts(g: tuple[int, ...] | None, alg: ConcreteAlgebra
                  ) -> list[int] | None:
    """The first pair of each atom if alg's owner table holds the orbits
    of the involution g on pairs as rel_algebra numbers (by least pair) and
    names them (_orbit_names), else None.  g keeps every atom (one list
    comparison), so each is a union of orbits, which number f^2 + (n^2 -
    f^2)/2 for f fixed points: as many atoms are one orbit each."""
    from .actions import _orbit_names
    n, owner = alg.base_size, alg.owner
    if g is None or len(g) != n or alg.atom_names != _orbit_names(n, owner):
        return None
    first = dict(zip(owner[::-1], range(n * n - 1, -1, -1)))
    firsts = [*map(first.__getitem__, range(len(first)))]
    f = sum(a == b for a, b in enumerate(g))
    image = [q for a in g for q in map((a * n).__add__, g)]
    if (firsts == sorted(firsts) and len(firsts) == (n * n + f * f) // 2
            and [*map(owner.__getitem__, image)] == [*owner]):
        return firsts
    return None
