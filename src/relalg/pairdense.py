"""Structure of simple pair-dense proper relation algebras.

The base set splits into points and twins, read off the identity atoms.
Every atom then lies in the product of one domain block and one range
block and fills both: its first coordinates are all of the block d, its
second all of the block r, and its shape (1-6) is read off |d|, |r|, its
pair count and whether d = r.  Twin-to-twin atoms induce an equivalence
on twins that decides whether the atoms between two twins split into
functional halves or form a single four-pair block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .atoms import iter_bits
from .concrete import ConcreteAlgebra
from .errors import ClassificationError

Twin = tuple[int, int]


@dataclass(frozen=True)
class BasePartition:
    """Disjoint points and twins in range(base_size), checked when built."""

    base_size: int
    points: tuple[int, ...]
    twins: tuple[Twin, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(sorted(self.points)))
        object.__setattr__(self, "twins", tuple(
            sorted(tuple(sorted(t)) for t in self.twins)))
        for t in self.twins:
            if len(t) != 2 or t[0] == t[1]:
                raise ClassificationError(
                    "twin {%s} does not have exactly two distinct elements"
                    % ",".join(map(str, t)))
        seen: set[int] = set()
        for b in [(p,) for p in self.points] + list(self.twins):
            for x in b:
                if not 0 <= x < self.base_size:
                    raise ClassificationError(
                        "block {%s} has element %d outside the base 0..%d"
                        % (",".join(map(str, b)), x, self.base_size - 1))
                if x in seen:
                    raise ClassificationError(
                        f"base element {x} lies in two blocks of the partition")
                seen.add(x)


def derive_points_twins(c: ConcreteAlgebra) -> BasePartition:
    """Split the base set by identity-atom size: one diagonal pair makes a
    point, two make a twin, more means the algebra is not pair-dense.

    On an algebra that passes its closure check the cardinality test
    agrees with the point and pair inequalities.
    """
    c.require_invariants()
    n = c.base_size
    blocks: dict[int, list[int]] = {}
    for i, k in enumerate(c._owner[::n + 1]):
        blocks.setdefault(k, []).append(i)
    for k, block in sorted(blocks.items()):
        if len(block) > 2:
            raise ClassificationError(
                f"identity atom {c.atom_names[k]} covers {len(block)} base elements; "
                f"the algebra is not pair-dense in the structural sense")
    return BasePartition(n, tuple(b[0] for b in blocks.values() if len(b) == 1),
                         tuple(tuple(b) for b in blocks.values() if len(b) == 2))


@dataclass(frozen=True)
class AtomTypeInfo:
    name: str
    type_tag: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class AtomClassification:
    base: BasePartition
    atoms: tuple[AtomTypeInfo, ...]
    tilde: tuple[tuple[Twin, Twin], ...]

    def type_tags(self) -> tuple[int, ...]:
        return tuple(info.type_tag for info in self.atoms)

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


def classify_atoms(c: ConcreteAlgebra, bp: BasePartition) -> AtomClassification:
    """Tag every atom with its shape type (1-6) against the partition.

    Assumes bp was derived from c.  An atom matching no shape, or an
    intransitive twin equivalence, raises ClassificationError.
    """
    block = {x: b for b in [(p,) for p in bp.points] + list(bp.twins)
             for x in b}

    infos: list[AtomTypeInfo] = []
    related: set[tuple[Twin, Twin]] = set()
    unrelated: set[tuple[Twin, Twin]] = set()
    for name, rel in zip(c.atom_names, c.atom_relations):
        dom = tuple(compress(range(c.base_size), rel.rows))
        rows = [rel.rows[i] for i in dom]
        d, r = block.get(dom[0]), block.get(next(iter_bits(rows[0])))
        tag = (d and r and dom == d
               and {y for row in rows for y in iter_bits(row)} == set(r)
               and _SHAPES.get((len(d), len(r),
                                sum(row.bit_count() for row in rows), d == r)))
        if not tag:
            raise ClassificationError(
                f"atom {name} matches none of the six pair-dense atom shapes")
        if tag in (3, 4):
            wit = (*d, *r) if len(d) >= len(r) else (*r, *d)
        else:
            wit = tuple(sorted({*d, *r}))
        infos.append(AtomTypeInfo(name, tag, wit))
        if tag == 5:
            related.add(tuple(sorted((d, r))))
        elif tag == 6:
            unrelated.add(tuple(sorted((d, r))))

    conflict = related & unrelated
    if conflict:
        t1, t2 = sorted(conflict)[0]
        raise ClassificationError(
            "twins {%d,%d} and {%d,%d} have both split and block atoms "
            "between them" % (*t1, *t2))

    # the twin equivalence must be transitive: related components are cliques
    adj: dict[Twin, set[Twin]] = {t: set() for t in bp.twins}
    for t1, t2 in related:
        adj[t1].add(t2)
        adj[t2].add(t1)
    for t1 in bp.twins:
        for t2 in sorted(adj[t1]):
            for t3 in sorted(adj[t2]):
                if t3 != t1 and t3 not in adj[t1]:
                    raise ClassificationError(
                        "twin equivalence fails transitivity: "
                        "{%d,%d} ~ {%d,%d} ~ {%d,%d} but the ends are unrelated"
                        % (*t1, *t2, *t3))

    return AtomClassification(bp, tuple(infos), tuple(sorted(related)))
