"""Proper relation algebras on a finite base set, held as an owner table.

A concrete algebra is a named list of atoms that partition the square of
the base set and are closed under converse and composition.  It is held
as one owner table: owner[i*n + j] is the atom holding the pair (i, j),
so the partition holds by construction.  from_pairs fills the table from
each atom's pairs and reports the first overlap or gap; an orbit algebra
(built by rel_algebra through ConcreteAlgebra._of_orbits) comes with the
table and each orbit's pairs from its orbit search, taken without the
constructor's scans.  The converse and identity checks read the table by
slices and whole-table comparisons, in C; each atom's pairs, in row
order, are read off the table once where the search did not give them.

Closure under composition holds exactly when all pairs (i, k) of each atom z
share one profile, the pairs (owner(i,j), owner(j,k)) over all j: O(n^3),
checked only on algebras from outside.  Cycles are read off one pair per
atom: extraction hands the structure the stream of those profiles'
triples.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain, repeat

from .atoms import (_NAMES_RULE, AtomStructure, Triple, _converted, _Record,
                    usable_atom_name)
from .errors import ConcreteAlgebraError


def _check_names(names: Sequence[str]) -> None:
    if not names:
        raise ValueError("an algebra needs at least one atom")
    seen = set()
    for nm in names:
        if not usable_atom_name(nm):
            raise ValueError(f"unusable atom name {nm!r}")
        if nm in seen:
            raise ValueError(f"duplicate atom name {nm!r}")
        seen.add(nm)


def _check_size(n: int) -> None:
    if type(n) is not int:  # as the owner entries: 2.0 and True refused
        raise ValueError(f"base set size {n!r} is not an int")
    if n < 1:
        raise ValueError("base set must be nonempty")


_OWNER_RULE = ("the owner table must give every atom a pair and name no "
               "other atom")


def _check_atoms(owner: Sequence[int], atoms: int) -> None:
    if set(owner) != set(range(atoms)):
        raise ValueError(_OWNER_RULE)


class ConcreteAlgebra(_Record):
    """Atoms of a proper relation algebra on a finite base set:
    owner[i*n + j] is the atom holding the pair (i, j)."""

    _fields = ("base_size", "atom_names", "owner")

    def __init__(self, base_size: int, atom_names: tuple[str, ...],
                 owner: tuple[int, ...]):
        atom_names = _converted(tuple, atom_names, _NAMES_RULE)
        owner = _converted(tuple, owner, _OWNER_RULE)
        self._init(base_size, atom_names, owner)
        _check_names(atom_names)
        n = base_size
        _check_size(n)
        if len(owner) != n * n:
            raise ValueError(f"expected an owner table of {n * n} entries, "
                             f"got {len(owner)}")
        # the types are read off every entry: 0.0 and True equal atom ids
        if set(map(type, owner)) != {int}:
            raise ValueError(_OWNER_RULE)
        _check_atoms(owner, len(atom_names))

    @classmethod
    def from_pairs(cls, base_size: int, atom_names: Sequence[str],
                   atom_pairs: Iterable[Iterable[tuple[int, int]]]
                   ) -> "ConcreteAlgebra":
        """The algebra whose atom k holds the pairs atom_pairs[k].  The
        table is filled atom by atom, a pair listed twice in one atom
        counted once.  The first fault in atom and row order raises: a
        pair outside the base set ValueError, a pair claimed by two atoms
        ConcreteAlgebraError; then the first pair no atom claims raises
        ConcreteAlgebraError.  Names and the base size are checked first,
        then that atom_pairs is a list of pair lists, no longer than the
        names, that every pair is a tuple of two coordinates, and that
        every coordinate is an int (floats and bools refused, as by the
        constructor), and last that every atom has a pair and no other
        atom is named, with ValueError.  The table is n^2 ints by
        construction, so the record is set without the constructor's
        scans."""
        n, names = base_size, _converted(tuple, atom_names, _NAMES_RULE)
        _check_names(names)
        _check_size(n)
        lists = _converted(lambda ps: [*map(tuple, ps)], atom_pairs,
                           "atom_pairs must list the pairs of each atom")
        if len(lists) > len(names):
            raise ValueError(_OWNER_RULE)
        # the types are read off every pair and coordinate, in C, before
        # any set can merge (True, 1) into an equal (1, 1)
        flat = [*chain.from_iterable(lists)]
        if {*map(type, flat)} - {tuple} or {*map(len, flat)} - {2}:
            raise ValueError("each pair must be a tuple of two coordinates")
        if {*map(type, chain.from_iterable(flat))} - {int}:
            raise ValueError("pair coordinates must be ints")
        owner = [-1] * (n * n)
        for k, pairs in enumerate(map(set, lists)):
            for i, j in pairs:
                if not (0 <= i < n and 0 <= j < n) or owner[i * n + j] >= 0:
                    # the atom's first fault in row order, sought only here
                    i, j = min(p for p in pairs if not 0 <= min(p) <= max(p) < n
                               or owner[p[0] * n + p[1]] not in (-1, k))
                    if not 0 <= min(i, j) <= max(i, j) < n:
                        raise ValueError(f"pair ({i},{j}) outside base set "
                                         f"of size {n}")
                    raise ConcreteAlgebraError((
                        f"not a partition: atoms {names[owner[i * n + j]]}"
                        f" and {names[k]} overlap at pair ({i},{j})",))
                owner[i * n + j] = k
        if -1 in owner:
            i, j = divmod(owner.index(-1), n)
            raise ConcreteAlgebraError(
                (f"not a partition: pair ({i},{j}) is in no atom",))
        _check_atoms(owner, len(names))
        alg = cls.__new__(cls)
        alg._init(n, names, tuple(owner))
        return alg

    @classmethod
    def _of_orbits(cls, base_size: int, atom_names: Sequence[str],
                   owner: Sequence[int], atom_pairs: tuple[list[int], ...]
                   ) -> "ConcreteAlgebra":
        """Internal to actions.rel_algebra: the algebra whose atoms are
        the pair orbits of a permutation group, given by their owner table,
        owner[i*n + j] the orbit of (i, j), and by the flat pairs of each
        orbit in row order, which are kept as _atom_pairs.  The three fields
        are set as given, without the constructor's scans: the caller
        vouches that base_size is positive, that the names are usable and
        distinct, that owner is a tuple of n^2 ints naming each atom
        0..atoms-1 at least once and no other, and that atom_pairs[k] lists
        the pairs p with owner[p] = k, in order.  rel_algebra numbers the
        orbits itself and names them e<k> and a<k>.  The closure scan is
        not run: the orbits of a group are closed under composition.
        Nothing here checks that the table holds a group's orbits;
        invariant_violations checks converse and identity."""
        alg = cls.__new__(cls)
        alg.__dict__.update(zip(cls._fields, (base_size, atom_names, owner)),
                            _atom_pairs=atom_pairs, _uncovered=())
        return alg

    @property
    def n_atoms(self) -> int:
        return len(self.atom_names)

    @cached_property
    def _atom_pairs(self) -> tuple[list[int], ...]:
        """The flat pairs i*n + j of each atom, in row order: grouped off
        the owner table, or given by _of_orbits."""
        pairs: list[list[int]] = [[] for _ in self.atom_names]
        for p, k in enumerate(self.owner):
            pairs[k].append(p)
        return tuple(pairs)

    @cached_property
    def _converse_ids(self) -> tuple[int, ...]:
        """The atom equal to the converse of each atom, -1 if none.  k~ = c
        when c holds the transposes of all pairs of k and one atom holds the
        transposes of all pairs of c: that atom holds k's pairs, so it is k.

        conv maps each atom to the owner of the transpose of one of its
        pairs; the whole transposed table is compared with conv read along
        the table, in C, and the pairs are scanned one by one for the atoms
        without a converse only when that comparison fails."""
        n, owner = self.base_size, self.owner
        transposed = [*chain.from_iterable(owner[i::n] for i in range(n))]
        conv = dict(zip(owner, transposed))
        every = range(len(conv))
        if [*map(conv.__getitem__, owner)] == transposed:
            return tuple(map(conv.__getitem__, every))
        bad = {k for k, c in zip(owner, transposed) if conv[k] != c}
        return tuple(-1 if k in bad or conv[k] in bad else conv[k]
                     for k in every)

    @cached_property
    def _identity_ids(self) -> frozenset[int]:
        # atoms on the diagonal owning no pair off it; the off-diagonal
        # pairs are the n entries between consecutive diagonal entries
        n, owner = self.base_size, self.owner
        off = set(chain.from_iterable(owner[d + 1:d + n + 1]
                                      for d in range(0, n * n, n + 1)))
        return frozenset(set(owner[::n + 1]) - off)

    def invariant_violations(self) -> tuple[str, ...]:
        """Converse / composition / identity-closure check.

        Returns one message with a witness per broken invariant.  Computed
        once per algebra object.
        """
        return self._violations

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        n, names = self.base_size, self.atom_names
        out = [f"not closed under converse: the converse of atom "
               f"{names[k]} is not an atom"
               for k, ck in enumerate(self._converse_ids) if ck < 0]
        diagonal = set(self.owner[::n + 1])
        out += [f"identity is not a union of atoms: atom {names[k]} "
                f"meets the identity without lying inside it"
                for k in sorted(diagonal - self._identity_ids)]
        for x, y, z in self._uncovered:
            out.append(
                f"not closed under composition: {names[x]};{names[y]} "
                f"meets atom {names[z]} without covering it")
        return tuple(out)

    def _profile(self, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The profile of the pair p = i*n + k, as two columns: owner(i,j)
        and owner(j,k) over all j.  With z the atom of p, its cycles are
        the triples (owner(i,j), owner(j,k), z)."""
        n, owner = self.base_size, self.owner
        i, k = divmod(p, n)
        return owner[i * n:(i + 1) * n], owner[k::n]

    @cached_property
    def _uncovered(self) -> tuple[Triple, ...]:
        """(x, y, z), sorted, where x;y meets atom z without covering it:
        the cycle is in the profiles of some pairs of z, not of all.  Each
        later pair's profile is compared with the first pair's, and the
        cycles are written out only where the two differ."""
        out: set[Triple] = set()
        for z, (first, *rest) in enumerate(self._atom_pairs):
            profile = set(zip(*self._profile(first)))
            for p in rest:
                other = set(zip(*self._profile(p)))
                if other != profile:
                    out.update((x, y, z) for x, y in other ^ profile)
        return tuple(sorted(out))

    def require_invariants(self) -> None:
        bad = self.invariant_violations()
        if bad:
            raise ConcreteAlgebraError(bad)


def extract_atom_structure(c: ConcreteAlgebra) -> AtomStructure:
    """Read the abstract atom structure off a concrete algebra.

    Cycles are the triples (x, y, z) whose atom z meets the composition
    x;y, read off the profile of the first pair of each atom: closure,
    checked first, gives every pair of an atom the same profile.  The
    structure gets the stream of those triples, O(atoms * n) of them, in
    which one profile can repeat a pair.

    The result is not validated: once that check passes, the atoms are the
    atoms of a subalgebra of the full algebra of relations on the base set,
    and the atom structure of such an algebra satisfies the cycle law, the
    identity law and associativity (Maddux, Relation Algebras, 2006).  Nor
    does it go through the AtomStructure constructor's checks, and the
    cycle law's scan is preset to find nothing (see
    AtomStructure._of_checked_ids): every id is read off the owner table,
    whose entries are the ints 0..atoms-1, checked by the ConcreteAlgebra
    constructor or by from_pairs, or numbered so by rel_algebra (see
    _of_orbits), and the names obey the structure's naming rule, checked
    there or written so.
    """
    c.require_invariants()
    n = c.base_size

    def triples() -> Iterator[Triple]:
        # the first-pair profile of each atom z as the triples (x, y, z)
        return chain.from_iterable(
            zip(*c._profile(pairs[0]), repeat(z, n))
            for z, pairs in enumerate(c._atom_pairs))

    return AtomStructure._of_checked_ids(c.atom_names, c._converse_ids,
                                         c._identity_ids, triples)
