"""The paper's construction: an involution, its algebra and the proof's map.

A structure in the class has points and twins, its identity atoms with
and without a diversity atom from e to e.  _canonical_involution fixes
one base element per point and swaps two per twin.  One call of
_realize(g, *structures) makes every proof map of a request: it builds
the action of the involution g, its algebra of compatible relations and
the one structure extracted from it, and returns each given structure's
map onto that structure.  _proof_witness maps each atom from identity
atom d to r onto the orbit of a pair from d's block to r's (_blocks),
checked by IsoWitness.problems(); where the map fails, _unproven words
the InternalError with both structures' texts.

`decision` imports this module only in the branches where the
construction runs (README, "Start-up").
"""

from __future__ import annotations

from collections.abc import Sequence

from .actions import GroupAction, build_group, rel_algebra
from .atoms import AtomStructure, iter_bits
from .concrete import ConcreteAlgebra, extract_atom_structure
from .decision import IsoWitness
from .errors import InternalError
from .formats import format_atom_structure


def _realize(g: tuple[int, ...], *structures: AtomStructure
             ) -> tuple[GroupAction, ConcreteAlgebra, list[IsoWitness]]:
    """The action of the involution g, its algebra, and the proof's map of
    each structure, in order, onto the one structure extracted from that
    algebra; each structure has as many points and twins as g has fixed
    points and 2-cycles."""
    action = build_group(len(g), [g])
    algebra = rel_algebra(action)
    target = extract_atom_structure(algebra)
    return action, algebra, [_proof_witness(s, _blocks(s, g), algebra, target)
                             for s in structures]


def _canonical_involution(s: AtomStructure) -> tuple[int, ...]:
    """The proof's involution for s, in identity-atom id order as _blocks
    walks them: a fixed element per point, two swapped ones per twin, an
    identity atom e with a diversity atom from e to e (_loops)."""
    g: list[int] = []
    for e in sorted(s.identity_atoms):
        g.extend((len(g) + 1, len(g)) if s._loops[e] else (len(g),))
    return tuple(g)


def _blocks(s: AtomStructure, g: Sequence[int]
            ) -> dict[int, tuple[int, ...]]:
    """Base elements for s's identity atoms from an involution g with as
    many fixed points and 2-cycles as s has points and twins: in id order,
    a point gets the next fixed point, a twin the next 2-cycle."""
    fixed = iter([(i,) for i, j in enumerate(g) if i == j])
    swaps = iter([(i, j) for i, j in enumerate(g) if i < j])
    return {e: next(swaps if s._loops[e] else fixed)
            for e in sorted(s.identity_atoms)}


def _proof_witness(s: AtomStructure, blocks: dict[int, tuple[int, ...]],
                   algebra: ConcreteAlgebra, target: AtomStructure
                   ) -> IsoWitness:
    """The proof's map from s onto target, extracted from the algebra of an
    involution whose fixed points and 2-cycles are the blocks of s's points
    and twins: an atom from identity atom d to r maps to the orbit of a
    pair from block d to block r.  Between twins the axioms leave two
    atoms: the lower-id atom p[E] from the first twin R to each twin E is
    parallel (p[R] = R), and x from E1 to E2 is parallel iff (p[E1]~,
    p[E2], x) is a cycle; a parallel atom maps to the orbit from the first
    element of block d to the first of block r, a crossed one to the
    second.  Where s has not this shape or the map fails the decision's one
    tripwire, IsoWitness.problems(), raises InternalError with the reason
    and both structures."""
    conv, names = s.converse_map, s.atom_names
    idents = sorted(blocks)
    out, into = s._places[:2]
    groups = {(d, r): [*iter_bits(out[d] & into[r])]
              for d in idents for r in idents}
    for (d, r), group in groups.items():
        if len(group) != 1 + (len(blocks[d]) == len(blocks[r]) == 2):
            raise _unproven(s, target, f"{len(group)} atoms from "
                                       f"{names[d]} to {names[r]}")
    twins = sorted(e for e, b in blocks.items() if len(b) == 2)
    p = {e: e if e == twins[0] else min(groups[twins[0], e]) for e in twins}
    owner, n = algebra.owner, algebra.base_size
    m = [-1] * s.n_atoms
    for (d, r), group in groups.items():
        # par holds the atoms sent to the first element of block r: a
        # twin's identity atom, a single atom, or the parallel atom
        par = 1 << d if d == r else 1 << group[0]
        if d != r and len(group) == 2:
            par = sum(1 << a for a in group
                      if s._has_cycles(((conv[p[d]], p[r], a),)))
            if par & (par - 1) or not par:
                raise _unproven(s, target,
                                f"{names[p[d]]}~;{names[p[r]]} is not one "
                                f"atom from {names[d]} to {names[r]}")
        for a in group:
            m[a] = owner[blocks[d][0] * n + blocks[r][not par >> a & 1]]
    witness = IsoWitness(s, target, tuple(m))
    bad = witness.problems()
    if bad:
        raise _unproven(s, target, bad[0])
    return witness


def _unproven(s: AtomStructure, target: AtomStructure, reason: str
              ) -> InternalError:
    # the error to raise where the proof's map of s onto target breaks
    return InternalError(
        f"accepted axioms but the constructed isomorphism fails: {reason}"
        "\n--- input ---\n" + format_atom_structure(s)
        + "--- constructed ---\n" + format_atom_structure(target))
