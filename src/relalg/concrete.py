"""Binary relations on a finite base set, and proper relation algebras.

A relation is stored as one successor bitmask per row, so composition,
converse and the Boolean operations are integer bit work.  A concrete
algebra is a named list of relations that partition the square of the
base set and are closed under converse and composition.  One owner table,
the atom holding each pair, answers the partition, converse and identity
checks.  It is built from the atom rows, bit by bit, for an algebra read
from outside; an orbit algebra (built by rel_algebra through
ConcreteAlgebra._of_orbits) comes with the table its rows were read from,
so it is a partition by construction.

Closure under composition holds exactly when all pairs (i, k) of each atom z
share one profile, the cycles (owner(i,j), owner(j,k), z) over all j: O(n^3),
checked only on algebras from outside.  Cycles are read off one pair per atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .atoms import AtomStructure, Triple, iter_bits, usable_atom_name
from .errors import ConcreteAlgebraError


@dataclass(frozen=True)
class ConcreteRelation:
    base_size: int
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        n = self.base_size
        if n < 1:
            raise ValueError("base set must be nonempty")
        if len(self.rows) != n:
            raise ValueError(f"expected {n} rows, got {len(self.rows)}")
        full = (1 << n) - 1
        for i, row in enumerate(self.rows):
            if not 0 <= row <= full:
                raise ValueError(f"row {i} has successors outside the base set")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_pairs(cls, base_size: int, pairs: Iterable[tuple[int, int]]) -> "ConcreteRelation":
        rows = [0] * base_size
        for i, j in pairs:
            if not (0 <= i < base_size and 0 <= j < base_size):
                raise ValueError(f"pair ({i},{j}) outside base set of size {base_size}")
            rows[i] |= 1 << j
        return cls(base_size, tuple(rows))

    @classmethod
    def empty(cls, base_size: int) -> "ConcreteRelation":
        return cls(base_size, (0,) * base_size)

    @classmethod
    def identity(cls, base_size: int) -> "ConcreteRelation":
        return cls(base_size, tuple(1 << i for i in range(base_size)))

    @classmethod
    def universal(cls, base_size: int) -> "ConcreteRelation":
        full = (1 << base_size) - 1
        return cls(base_size, (full,) * base_size)

    # -- views ---------------------------------------------------------------

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, row in enumerate(self.rows) if row for j in iter_bits(row))

    def first_pair(self) -> tuple[int, int]:
        """The least pair, without listing the others; needs a nonempty
        relation."""
        i, row = next((i, row) for i, row in enumerate(self.rows) if row)
        return i, (row & -row).bit_length() - 1

    @property
    def n_pairs(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    @property
    def is_empty(self) -> bool:
        return all(row == 0 for row in self.rows)

    def contains(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def _check_mate(self, other: "ConcreteRelation") -> None:
        if self.base_size != other.base_size:
            raise ValueError("relations over different base sets")

    # -- operations ------------------------------------------------------------

    def compose(self, other: "ConcreteRelation") -> "ConcreteRelation":
        self._check_mate(other)
        rows = []
        for row in self.rows:
            acc = 0
            for j in iter_bits(row):
                acc |= other.rows[j]
            rows.append(acc)
        return ConcreteRelation(self.base_size, tuple(rows))

    def converse(self) -> "ConcreteRelation":
        n = self.base_size
        rows = [0] * n
        for i in range(n):
            for j in iter_bits(self.rows[i]):
                rows[j] |= 1 << i
        return ConcreteRelation(n, tuple(rows))

    def complement(self) -> "ConcreteRelation":
        full = (1 << self.base_size) - 1
        return ConcreteRelation(self.base_size, tuple(full & ~row for row in self.rows))

    def __or__(self, other: "ConcreteRelation") -> "ConcreteRelation":
        self._check_mate(other)
        return ConcreteRelation(self.base_size, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def __and__(self, other: "ConcreteRelation") -> "ConcreteRelation":
        self._check_mate(other)
        return ConcreteRelation(self.base_size, tuple(a & b for a, b in zip(self.rows, other.rows)))

    def __le__(self, other: "ConcreteRelation") -> bool:
        self._check_mate(other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def intersects(self, other: "ConcreteRelation") -> bool:
        self._check_mate(other)
        return any(a & b for a, b in zip(self.rows, other.rows))

    def permuted(self, perm: Sequence[int]) -> "ConcreteRelation":
        """The image relation {(g(x), g(y)) : (x, y) in self}."""
        n = self.base_size
        if len(perm) != n:
            raise ValueError("permutation length does not match base size")
        rows = [0] * n
        for i in range(n):
            moved = 0
            for j in iter_bits(self.rows[i]):
                moved |= 1 << perm[j]
            rows[perm[i]] = moved
        return ConcreteRelation(n, tuple(rows))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcreteAlgebra:
    """Atoms of a proper relation algebra on a finite base set."""

    base_size: int
    atom_names: tuple[str, ...]
    atom_relations: tuple[ConcreteRelation, ...]

    def __post_init__(self):
        object.__setattr__(self, "atom_names", tuple(self.atom_names))
        object.__setattr__(self, "atom_relations", tuple(self.atom_relations))
        if len(self.atom_names) != len(self.atom_relations):
            raise ValueError("need exactly one name per atom relation")
        if not self.atom_relations:
            raise ValueError("an algebra needs at least one atom")
        seen = set()
        for nm in self.atom_names:
            if not usable_atom_name(nm):
                raise ValueError(f"unusable atom name {nm!r}")
            if nm in seen:
                raise ValueError(f"duplicate atom name {nm!r}")
            seen.add(nm)
        for rel in self.atom_relations:
            if rel.base_size != self.base_size:
                raise ValueError("atom relation over a different base set")
            if rel.is_empty:
                raise ValueError("atom relations must be nonempty")

    @classmethod
    def _of_orbits(cls, base_size: int, atom_names: Sequence[str],
                   atom_relations: Sequence[ConcreteRelation],
                   owner: Sequence[int]) -> "ConcreteAlgebra":
        """Internal to actions.rel_algebra: the algebra whose atoms are
        the pair orbits of a permutation group, given with their owner
        table, owner[i*n + j] the orbit of (i, j), from which the relations
        were read.  The table is trusted as the partition, so it is not
        rebuilt, and the closure scan is not run: the orbits of a group are
        closed under composition.  Nothing here checks that the table
        matches the relations or that they are a group's orbits."""
        alg = cls(base_size, atom_names, atom_relations)
        alg.__dict__["_partition"] = (tuple(owner), "")
        alg.__dict__["_uncovered"] = ()
        return alg

    @property
    def n_atoms(self) -> int:
        return len(self.atom_relations)

    @cached_property
    def _partition(self) -> tuple[tuple[int, ...], str]:
        """The owner table, _owner[i*n + j] the atom holding the pair
        (i, j), filled in atom and row order up to the first overlap or
        gap, and the message for that overlap or gap ('' if none)."""
        n, names = self.base_size, self.atom_names
        owner = [-1] * (n * n)
        for k, rel in enumerate(self.atom_relations):
            for i, row in enumerate(rel.rows):
                for j in iter_bits(row):
                    if owner[i * n + j] >= 0:
                        return tuple(owner), (
                            f"not a partition: atoms {names[owner[i * n + j]]}"
                            f" and {names[k]} overlap at pair ({i},{j})")
                    owner[i * n + j] = k
        if -1 in owner:
            i, j = divmod(owner.index(-1), n)
            return tuple(owner), f"not a partition: pair ({i},{j}) is in no atom"
        return tuple(owner), ""

    @property
    def _owner(self) -> tuple[int, ...]:
        return self._partition[0]

    @cached_property
    def _converse_ids(self) -> tuple[int, ...]:
        """The atom equal to the converse of each atom, -1 if none.  k~ = c
        when c holds the transposes of all pairs of k and one atom holds the
        transposes of all pairs of c: that atom holds k's pairs, so it is k.
        Needs a partition."""
        n, owner = self.base_size, self._owner
        transposed = [k for i in range(n) for k in owner[i::n]]
        conv = dict(zip(owner, transposed))
        bad = {k for k, c in zip(owner, transposed) if conv[k] != c}
        return tuple(-1 if {k, c} & bad else c
                     for k, c in sorted(conv.items()))

    @cached_property
    def _identity_ids(self) -> frozenset[int]:
        # atoms on the diagonal owning no pair off it; the pair i*n + j is on
        # the diagonal when n + 1 divides it.  Needs a partition.
        n, owner = self.base_size, self._owner
        off = {k for p, k in enumerate(owner) if p % (n + 1)}
        return frozenset(set(owner[::n + 1]) - off)

    def invariant_violations(self) -> tuple[str, ...]:
        """Partition / converse / composition / identity-closure check.

        Returns one message with a witness per broken invariant; the
        closure checks are skipped when the partition itself is broken.
        Computed once per algebra object.
        """
        return self._violations

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        n, names = self.base_size, self.atom_names
        if self._partition[1]:
            return (self._partition[1],)
        out = [f"not closed under converse: the converse of atom "
               f"{names[k]} is not an atom"
               for k, ck in enumerate(self._converse_ids) if ck < 0]
        diagonal = set(self._owner[::n + 1])
        out += [f"identity is not a union of atoms: atom {names[k]} "
                f"meets the identity without lying inside it"
                for k in sorted(diagonal - self._identity_ids)]
        for x, y, z in self._uncovered:
            out.append(
                f"not closed under composition: {names[x]};{names[y]} "
                f"meets atom {names[z]} without covering it")
        return tuple(out)

    def _profile(self, i: int, k: int, z: int) -> set[Triple]:
        """The profile of the pair (i, k) of atom z: the cycles
        (owner(i,j), owner(j,k), z) over all j.  Needs a partition."""
        n, owner = self.base_size, self._owner
        return set(zip(owner[i * n:(i + 1) * n], owner[k::n], (z,) * n))

    @cached_property
    def _uncovered(self) -> tuple[Triple, ...]:
        """(x, y, z), sorted, where x;y meets atom z without covering it:
        the cycle is in the profiles of some pairs of z, not of all."""
        out: set[Triple] = set()
        for z, rel in enumerate(self.atom_relations):
            first, *rest = rel.pairs()
            profile = self._profile(*first, z)
            for i, k in rest:
                out |= self._profile(i, k, z) ^ profile
        return tuple(sorted(out))

    def require_invariants(self) -> None:
        bad = self.invariant_violations()
        if bad:
            raise ConcreteAlgebraError(bad)


def extract_atom_structure(c: ConcreteAlgebra) -> AtomStructure:
    """Read the abstract atom structure off a concrete algebra.

    Cycles are the triples (x, y, z) whose atom z meets the composition
    x;y, read off the profile of one pair of each atom: closure, checked
    first, gives every pair of an atom the same profile.

    The result is not validated: once that check passes, the atoms are the
    atoms of a subalgebra of the full algebra of relations on the base set,
    and the atom structure of such an algebra satisfies the cycle law, the
    identity law and associativity (Maddux, Relation Algebras, 2006).  The
    atom names obey the structure's naming rule, checked by ConcreteAlgebra.
    """
    c.require_invariants()
    cycles = [t for z, rel in enumerate(c.atom_relations)
              for t in c._profile(*rel.first_pair(), z)]
    return AtomStructure(c.atom_names, c._converse_ids, c._identity_ids,
                         cycles)
