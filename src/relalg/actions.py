"""Finite permutation group actions and their compatible-relation algebras.

A GroupAction is its generators.  A relation is compatible with the group
exactly when every generator preserves it, so the pair orbits, and with
them the algebra of compatible relations, come from the generators alone,
and the group's elements are never enumerated.  Whether the group has
order at most two is read off the generators too: it does exactly when its
non-identity generators are all one permutation and that permutation is
an involution (see verify_decision).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .concrete import ConcreteAlgebra, ConcreteRelation
from .errors import ActionError, InternalError

Perm = tuple[int, ...]


@dataclass(frozen=True)
class GroupAction:
    """The permutation group on {0..base_size-1} generated by `generators`."""

    base_size: int
    generators: tuple[Perm, ...]


def build_group(base_size: int, generators: Iterable[Sequence[int]]) -> GroupAction:
    """Check that every generator is a bijection of a nonempty base set."""
    n = base_size
    if n < 1:
        raise ActionError("base set must be nonempty")
    gens: list[Perm] = []
    for k, g in enumerate(generators):
        g = tuple(g)
        if len(g) != n:
            raise ActionError(f"generator {k} lists {len(g)} images, expected {n}")
        seen = set()
        for img in g:
            if not isinstance(img, int) or not 0 <= img < n:
                raise ActionError(f"generator {k} is not a bijection: image {img!r} "
                                  f"is outside the base set")
            if img in seen:
                raise ActionError(f"generator {k} is not a bijection: image {img} repeated")
            seen.add(img)
        gens.append(g)
    return GroupAction(n, tuple(gens))


def pair_orbits(action: GroupAction) -> tuple[ConcreteRelation, ...]:
    """Orbits of the diagonal action on ordered pairs.

    Deterministic: the orbit of the lexicographically least unclaimed pair
    is emitted first.
    """
    n = action.base_size
    claimed: set[tuple[int, int]] = set()
    orbits = []
    for i in range(n):
        for j in range(n):
            if (i, j) in claimed:
                continue
            orbit = {(i, j)}
            stack = [(i, j)]
            while stack:
                x, y = stack.pop()
                for g in action.generators:
                    t = (g[x], g[y])
                    if t not in orbit:
                        orbit.add(t)
                        stack.append(t)
            claimed |= orbit
            orbits.append(ConcreteRelation.from_pairs(n, orbit))
    return tuple(orbits)


def rel_algebra(action: GroupAction) -> ConcreteAlgebra:
    """The algebra of relations compatible with the action: its atoms are
    the pair orbits, closed under composition (Maddux, Relation Algebras,
    2006).  Its self-check, O(n^2 * generators), is the partition, converse
    and identity checks and each generator keeping every pair in its atom."""
    orbits = pair_orbits(action)
    ident = ConcreteRelation.identity(action.base_size)
    names, count = [], {"e": 0, "a": 0}
    for rel in orbits:
        kind = "e" if rel <= ident else "a"
        names.append(f"{kind}{count[kind]}")
        count[kind] += 1
    alg = ConcreteAlgebra(action.base_size, tuple(names), orbits)
    alg.__dict__["_uncovered"] = ()  # closed: the O(n^3) scan is not run
    n, owner = alg.base_size, alg._owner
    bad = alg.invariant_violations() or [
        f"generator {k} moves pair ({i},{j}) out of its atom"
        for k, g in enumerate(action.generators)
        for i in range(n) for j in range(n)
        if owner[g[i] * n + g[j]] != owner[i * n + j]]
    if bad:
        raise InternalError(
            "orbit algebra failed its self-check: " + bad[0])
    return alg


def is_compatible(rel: ConcreteRelation, action: GroupAction) -> bool:
    """(g(x), g(y)) lies in rel for every (x, y) in rel and generator g."""
    if rel.base_size != action.base_size:
        raise ValueError("relation and action have different base sets")
    return all(rel.permuted(g) <= rel for g in action.generators)
