"""Structure of simple pair-dense proper relation algebras.

The base set splits into points and twins, read off the identity atoms.
On an algebra that passes its closure check every atom lies in the
product of one domain block and one range block and fills both, so its
shape (1-6) is read off |d|, |r|, its pair count and whether d = r;
classify_atoms derives the partition itself and proves this in its
docstring.  Twin-to-twin atoms induce an equivalence on twins that
decides whether the atoms between two twins split into functional halves
or form a single four-pair block.
"""

from __future__ import annotations

from .atoms import _Record
from .concrete import ConcreteAlgebra
from .errors import ClassificationError

Twin = tuple[int, int]


class BasePartition(_Record):
    """Disjoint points and twins in range(base_size), each kept sorted."""

    __slots__ = _fields = ("base_size", "points", "twins")

    def __init__(self, base_size: int, points: tuple[int, ...],
                 twins: tuple[Twin, ...]):
        self._init(base_size, tuple(sorted(points)),
                   tuple(sorted(tuple(sorted(t)) for t in twins)))


def derive_points_twins(c: ConcreteAlgebra) -> BasePartition:
    """Split the base set by identity-atom size: one diagonal pair makes a
    point, two make a twin, more means the algebra is not pair-dense.

    On an algebra that passes its closure check the cardinality test
    agrees with the point and pair inequalities.
    """
    c.require_invariants()
    n = c.base_size
    blocks: dict[int, list[int]] = {}
    for i, k in enumerate(c.owner[::n + 1]):
        blocks.setdefault(k, []).append(i)
    for k, block in sorted(blocks.items()):
        if len(block) > 2:
            raise ClassificationError(
                f"identity atom {c.atom_names[k]} covers {len(block)} base elements; "
                f"the algebra is not pair-dense in the structural sense")
    return BasePartition(n, tuple(b[0] for b in blocks.values() if len(b) == 1),
                         tuple(tuple(b) for b in blocks.values() if len(b) == 2))


class AtomTypeInfo(_Record):
    __slots__ = _fields = ("name", "type_tag", "witness")

    def __init__(self, name: str, type_tag: int, witness: tuple[int, ...]):
        self._init(name, type_tag, witness)


class AtomClassification(_Record):
    __slots__ = _fields = ("base", "atoms", "tilde")

    def __init__(self, base: BasePartition, atoms: tuple[AtomTypeInfo, ...],
                 tilde: tuple[tuple[Twin, Twin], ...]):
        self._init(base, atoms, tilde)

    def report_lines(self) -> list[str]:
        pts = " ".join("{%d}" % p for p in self.base.points) or "(none)"
        tws = " ".join("{%d,%d}" % t for t in self.base.twins) or "(none)"
        lines = [f"points: {pts}", f"twins: {tws}"]
        for info in self.atoms:
            wit = " ".join(str(w) for w in info.witness)
            lines.append(f"atom {info.name} type {info.type_tag} [{wit}]")
        for t1, t2 in self.tilde:
            lines.append("tilde: {%d,%d} ~ {%d,%d}" % (*t1, *t2))
        return lines


# (|d|, |r|, pairs, d == r) -> shape of an atom whose first and second
# coordinates are all of the blocks d and r
_SHAPES = {(1, 1, 1, True): 1, (2, 2, 2, True): 2, (1, 1, 1, False): 3,
           (2, 1, 2, False): 4, (1, 2, 2, False): 4, (2, 2, 2, False): 5,
           (2, 2, 4, False): 6}


def classify_atoms(c: ConcreteAlgebra) -> AtomClassification:
    """Tag every atom with its shape (1-6) against the points and twins of c.

    derive_points_twins checks closure and leaves blocks of one or two
    elements; on such an algebra every atom has a shape.  For an identity
    atom e, e;a is 0 or a, so the first coordinates of an atom a lie in one
    block d, and a;a~ meets, so covers, the identity atom of d: they fill d.
    Likewise the second coordinates fill a block r.  A diagonal pair puts a
    below the identity (shape 1 or 2).  d x r is the element e;1;e' for the
    identity atoms e of d and e' of r, so a three-pair atom would leave a
    one-pair atom that fills no twin: the pair count picks the shape.

    A shape-5 atom (a matching) between two twins leaves the other matching,
    so no shape-6 atom joins them, and two matchings compose to a matching,
    so the relation shape-5 atoms induce on twins is an equivalence.
    """
    bp = derive_points_twins(c)
    block = {x: b for b in [(p,) for p in bp.points] + list(bp.twins)
             for x in b}
    infos: list[AtomTypeInfo] = []
    related: set[tuple[Twin, Twin]] = set()
    for name, pairs in zip(c.atom_names, c._atom_pairs):
        i, j = divmod(pairs[0], c.base_size)
        d, r = block[i], block[j]
        tag = _SHAPES[len(d), len(r), len(pairs), d == r]
        if tag in (3, 4):
            wit = (*d, *r) if len(d) >= len(r) else (*r, *d)
        else:
            wit = tuple(sorted({*d, *r}))
        infos.append(AtomTypeInfo(name, tag, wit))
        if tag == 5:
            related.add(tuple(sorted((d, r))))
    return AtomClassification(bp, tuple(infos), tuple(sorted(related)))
