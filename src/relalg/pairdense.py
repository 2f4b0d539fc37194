"""Structure of simple pair-dense proper relation algebras.

The base set splits into points and twins, read off the identity atoms.
Every atom then matches one of six shapes; twin-to-twin atoms induce an
equivalence on twins that decides whether the atoms between two twins
split into functional halves or form a single four-pair block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .concrete import ConcreteAlgebra
from .errors import ClassificationError

Twin = tuple[int, int]


@dataclass(frozen=True)
class BasePartition:
    base_size: int
    points: tuple[int, ...]
    twins: tuple[Twin, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(sorted(self.points)))
        object.__setattr__(self, "twins", tuple(
            sorted(tuple(sorted(t)) for t in self.twins)))


def derive_points_twins(c: ConcreteAlgebra) -> BasePartition:
    """Split the base set by identity-atom size: one diagonal pair makes a
    point, two make a twin, more means the algebra is not pair-dense.

    On an algebra that passes its closure check the cardinality test
    agrees with the point and pair inequalities.
    """
    c.require_invariants()
    n = c.base_size
    points: list[int] = []
    twins: list[Twin] = []
    for k in sorted(c._identity_ids):
        rel = c.atom_relations[k]
        diag = [i for i in range(n) if rel.rows[i] >> i & 1]
        if len(diag) == 1:
            points.append(diag[0])
        elif len(diag) == 2:
            twins.append((diag[0], diag[1]))
        else:
            raise ClassificationError(
                f"identity atom {c.atom_names[k]} covers {len(diag)} base elements; "
                f"the algebra is not pair-dense in the structural sense")
    return BasePartition(n, tuple(sorted(points)), tuple(sorted(twins)))


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


def _match_shape(prs, pset, partner):
    """Return (type_tag, witness, related_or_None, unrelated_or_None)."""
    twin_of = lambda x: (x, partner[x]) if x < partner[x] else (partner[x], x)
    if len(prs) == 1:
        a, b = prs[0]
        if a == b and a in pset:
            return 1, (a,), None, None
        if a != b and a in pset and b in pset:
            return 3, (a, b), None, None
        return None
    if len(prs) == 2:
        (p1, q1), (p2, q2) = prs
        if p1 == q1 and p2 == q2 and partner.get(p1) == p2:
            return 2, (p1, p2), None, None
        if p1 == q2 and q1 == p2 and p1 != q1 and partner.get(p1) == q1:
            return 2, (min(p1, q1), max(p1, q1)), None, None
        if q1 == q2 and q1 in pset and partner.get(p1) == p2:
            return 4, (p1, p2, q1), None, None
        if p1 == p2 and p1 in pset and partner.get(q1) == q2:
            return 4, (q1, q2, p1), None, None
        if (partner.get(p1) == p2 and partner.get(q1) == q2
                and twin_of(p1) != twin_of(q1)):
            wit = tuple(sorted({p1, p2, q1, q2}))
            return 5, wit, (twin_of(p1), twin_of(q1)), None
        return None
    if len(prs) == 4:
        dom = sorted({x for x, _ in prs})
        rng = sorted({y for _, y in prs})
        if (len(dom) == 2 and len(rng) == 2
                and partner.get(dom[0]) == dom[1]
                and partner.get(rng[0]) == rng[1]
                and tuple(dom) != tuple(rng)
                and set(prs) == {(x, y) for x in dom for y in rng}):
            wit = tuple(sorted(set(dom) | set(rng)))
            return 6, wit, None, (tuple(dom), tuple(rng))
        return None
    return None


def classify_atoms(c: ConcreteAlgebra, bp: BasePartition) -> AtomClassification:
    """Tag every atom with its shape type (1-6) against the partition.

    Assumes bp was derived from c.  An atom matching no shape, or an
    intransitive twin equivalence, raises ClassificationError.
    """
    pset = set(bp.points)
    partner: dict[int, int] = {}
    for a, b in bp.twins:
        partner[a] = b
        partner[b] = a

    infos: list[AtomTypeInfo] = []
    related: set[tuple[Twin, Twin]] = set()
    unrelated: set[tuple[Twin, Twin]] = set()
    for name, rel in zip(c.atom_names, c.atom_relations):
        got = _match_shape(rel.pairs(), pset, partner)
        if got is None:
            raise ClassificationError(
                f"atom {name} matches none of the six pair-dense atom shapes")
        tag, wit, rel_pair, unrel_pair = got
        infos.append(AtomTypeInfo(name, tag, wit))
        if rel_pair is not None:
            related.add(tuple(sorted(rel_pair)))
        if unrel_pair is not None:
            unrelated.add(tuple(sorted(unrel_pair)))

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
