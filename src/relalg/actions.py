"""Finite permutation group actions and their compatible-relation algebras."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .concrete import ConcreteAlgebra, ConcreteRelation
from .errors import ActionError, InternalError

Perm = tuple[int, ...]

DEFAULT_MAX_ORDER = 10_000


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose_perm(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class GroupAction:
    """A permutation group on {0..base_size-1}, closed under composition."""

    base_size: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_z2(self) -> bool:
        return self.order == 2

    @property
    def is_cyclic_of_prime_order(self) -> bool:
        # a group of prime order is cyclic
        return _is_prime(self.order)


def build_group(base_size: int, generators: Iterable[Sequence[int]]) -> GroupAction:
    """Close the generators into a permutation group by breadth-first search,
    up to DEFAULT_MAX_ORDER elements."""
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

    ident = identity_perm(n)
    elements = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = compose_perm(p, g)
                if q not in elements:
                    elements.add(q)
                    new.append(q)
                    if len(elements) > DEFAULT_MAX_ORDER:
                        raise ActionError(f"group order exceeds the cap of {DEFAULT_MAX_ORDER}")
        frontier = new
    return GroupAction(n, tuple(gens), tuple(sorted(elements)))


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
    the pair orbits.  Its closure check is the one runtime self-check of
    the action path, which extraction reuses; a failure there is a bug."""
    orbits = pair_orbits(action)
    ident = ConcreteRelation.identity(action.base_size)
    names, count = [], {"e": 0, "a": 0}
    for rel in orbits:
        kind = "e" if rel <= ident else "a"
        names.append(f"{kind}{count[kind]}")
        count[kind] += 1
    alg = ConcreteAlgebra(action.base_size, tuple(names), orbits)
    bad = alg.invariant_violations()
    if bad:
        raise InternalError(
            "orbit algebra failed closure verification: " + bad[0])
    return alg


def is_compatible(rel: ConcreteRelation, action: GroupAction) -> bool:
    """(g(x), g(y)) lies in rel for every (x, y) in rel and generator g."""
    if rel.base_size != action.base_size:
        raise ValueError("relation and action have different base sets")
    return all(rel.permuted(g) <= rel for g in action.generators)
