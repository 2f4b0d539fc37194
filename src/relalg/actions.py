"""Finite permutation group actions and their compatible-relation algebras.

A GroupAction is its generators.  A relation is compatible with the group
exactly when every generator preserves it, so the pair orbits, and with
them the algebra of compatible relations, come from the generators alone,
and the group's elements are never enumerated.  Whether the group has
order at most two is read off the generators too: it does exactly when its
non-identity generators are all one permutation and that permutation is
an involution (see verify_decision).

The orbits come from one pass over the n^2 ordered pairs, indexed flat as
p = i*n + j: each generator becomes one image list of length n^2, and one
search along those lists writes the owner table, the orbit of every pair.
That table is the algebra (ConcreteAlgebra holds nothing else), and its
atom names are read off it; the check that every generator keeps each
pair in its atom reads the table along the same image lists.  With the
extraction of its structure, O(atoms * n), an action's path costs
O(n^2 * generators + atoms * n), whatever the order of the group.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .atoms import _converted, _Record
from .concrete import ConcreteAlgebra
from .errors import ActionError, InternalError


class GroupAction(_Record):
    """The permutation group on {0..base_size-1} generated by `generators`,
    a sequence of image sequences, each checked to be a bijection of a
    nonempty base set; ActionError otherwise."""

    __slots__ = _fields = ("base_size", "generators")

    def __init__(self, base_size: int, generators: Iterable[Sequence[int]]):
        n = base_size
        if type(n) is not int:  # as the text format: 2.0 and True are no sizes
            raise ActionError(f"base set size {n!r} is not an int")
        if n < 1:
            raise ActionError("base set must be nonempty")
        gens = _converted(lambda gs: tuple(map(tuple, gs)), generators,
                          "generators must be sequences of images",
                          ActionError)
        for k, g in enumerate(gens):
            if len(g) != n:
                raise ActionError(f"generator {k} lists {len(g)} images, expected {n}")
            seen = set()
            for img in g:
                if type(img) is not int or not 0 <= img < n:
                    raise ActionError(f"generator {k} is not a bijection: image {img!r} "
                                      f"is outside the base set")
                if img in seen:
                    raise ActionError(f"generator {k} is not a bijection: image {img} repeated")
                seen.add(img)
        self._init(n, gens)


def build_group(base_size: int, generators: Iterable[Sequence[int]]) -> GroupAction:
    """The group action of these generators, as GroupAction checks it."""
    return GroupAction(base_size, generators)


def _flat_images(action: GroupAction) -> list[list[int]]:
    """Each generator as a map on flat pair indices p = i*n + j:
    img[i*n + j] = g(i)*n + g(j)."""
    n = action.base_size
    return [[q for gi in g for q in map((gi * n).__add__, g)]
            for g in action.generators]


def _pair_owners(n: int, images: Sequence[Sequence[int]]
                 ) -> tuple[list[int], list[list[int]]]:
    """The owner table of the pair orbits, owner[i*n + j] the orbit of the
    pair (i, j), and each orbit's pairs in the order found.  One search
    over flat pair indices, following every generator's image list; the
    orbit of the least unclaimed pair is numbered next, so orbit k's least
    pair precedes orbit k+1's."""
    owner = [-1] * (n * n)
    orbits = []
    k = 0
    for p in range(n * n):
        if owner[p] >= 0:
            continue
        owner[p] = k
        orbit = [p]
        for q in orbit:
            for img in images:
                r = img[q]
                if owner[r] < 0:
                    owner[r] = k
                    orbit.append(r)
        orbits.append(orbit)
        k += 1
    return owner, orbits


def pair_orbits(action: GroupAction) -> tuple[int, ...]:
    """Orbits of the diagonal action on ordered pairs, as their owner
    table: entry i*n + j is the orbit of the pair (i, j).

    Deterministic: the orbit of the lexicographically least unclaimed pair
    is numbered first.
    """
    n = action.base_size
    return tuple(_pair_owners(n, _flat_images(action))[0])


def _orbit_names(n: int, owner: Sequence[int]) -> tuple[str, ...]:
    """The names of the atoms 0, 1, ... of an owner table on n points, in
    order: e0, e1, ... for those that meet the diagonal, a0, a1, ... for
    the others."""
    diagonal = set(owner[::n + 1])
    names, count = [], {"e": 0, "a": 0}
    for k in range(max(owner) + 1):
        kind = "e" if k in diagonal else "a"
        names.append(f"{kind}{count[kind]}")
        count[kind] += 1
    return tuple(names)


def rel_algebra(action: GroupAction) -> ConcreteAlgebra:
    """The algebra of relations compatible with the action: its atoms are
    the pair orbits, closed under composition (Maddux, Relation Algebras,
    2006), named by _orbit_names.

    The generators' image lists are built once: _pair_owners reads them
    for the owner table and each orbit's pairs, one search over the n^2
    pairs, and the self-check reads them again.  The table is the algebra,
    so it is a partition by construction: every pair is claimed by exactly
    one orbit, numbered 0, 1, ... in order, which is what
    ConcreteAlgebra._of_orbits takes on trust, with each orbit's pairs
    sorted into row order.  The self-check, O(n^2 * generators), is the
    converse and identity checks and each generator keeping every pair in
    its atom, one comparison of the table with its image per generator."""
    n = action.base_size
    images = _flat_images(action)
    owner, orbits = _pair_owners(n, images)
    for orbit in orbits:
        orbit.sort()
    alg = ConcreteAlgebra._of_orbits(n, _orbit_names(n, owner), tuple(owner),
                                     tuple(orbits))
    bad = alg.invariant_violations()
    if not bad:
        for k, img in enumerate(images):
            if [*map(owner.__getitem__, img)] != owner:
                p = next(p for p, q in enumerate(img) if owner[q] != owner[p])
                i, j = divmod(p, n)
                bad = (f"generator {k} moves pair ({i},{j}) out of its atom",)
                break
    if bad:
        raise InternalError(
            "orbit algebra failed its self-check: " + bad[0])
    return alg
