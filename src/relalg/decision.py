"""Deciding representability over actions of the two-element group.

The decision evaluates three first-order axioms (simplicity, pair-density,
functionality of every atom up to converse), builds the canonical
involution with one base element per point atom and two per twin atom,
and certifies acceptance with the atom bijection of the proof, fixed by
each atom's domain and range identity atoms and checked cycle by cycle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NoReturn

from .actions import GroupAction, build_group, rel_algebra
from .atoms import AtomStructure, AxiomFailure, check_z2_axioms
from .concrete import ConcreteAlgebra, extract_atom_structure
from .errors import InternalError, SearchBudgetExceeded
from .formats import format_atom_structure

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class IsoWitness:
    """An atom bijection claimed to be an isomorphism of structures."""

    source: AtomStructure
    target: AtomStructure
    atom_map: tuple[int, ...]

    def problems(self) -> tuple[str, ...]:
        s, t, m = self.source, self.target, self.atom_map
        n = s.n_atoms
        if t.n_atoms != n:
            return ("structures have different atom counts",)
        if len(m) != n or sorted(m) != list(range(n)):
            return ("atom map is not a bijection",)
        out = []
        if {m[e] for e in s.identity_atoms} != set(t.identity_atoms):
            out.append("identity atoms are not mapped onto identity atoms")
        for a in range(n):
            if m[s.converse_map[a]] != t.converse_map[m[a]]:
                out.append(f"map does not commute with converse at atom "
                           f"{s.atom_names[a]}")
        inv = [0] * n
        for a, b in enumerate(m):
            inv[b] = a
        for x, y, z in sorted(s.cycles):
            if (m[x], m[y], m[z]) not in t.cycles:
                out.append(f"cycle {s._fmt_triple((x, y, z))} is not preserved")
        for x, y, z in sorted(t.cycles):
            if (inv[x], inv[y], inv[z]) not in s.cycles:
                out.append(f"target cycle {t._fmt_triple((x, y, z))} has no "
                           f"source cycle")
        return tuple(out)

    def is_valid(self) -> bool:
        return not self.problems()

    def inverted(self) -> "IsoWitness":
        inv = [0] * len(self.atom_map)
        for a, b in enumerate(self.atom_map):
            inv[b] = a
        return IsoWitness(self.target, self.source, tuple(inv))

    def map_lines(self) -> list[str]:
        return [f"map {self.source.atom_names[a]} -> "
                f"{self.target.atom_names[self.atom_map[a]]}"
                for a in range(self.source.n_atoms)]


def _signatures(s: AtomStructure) -> list[tuple]:
    # isomorphism-invariant atom fingerprints used to prune the search
    flags = s.atom_flags
    pos = [[0, 0, 0] for _ in range(s.n_atoms)]
    for x, y, z in s.cycles:
        pos[x][0] += 1
        pos[y][1] += 1
        pos[z][2] += 1
    out = []
    for a in range(s.n_atoms):
        point, pair, fn = flags[a]
        conv = s.converse_map[a]
        out.append((a in s.identity_atoms, conv == a, fn, flags[conv][2],
                    point, pair, tuple(pos[a])))
    return out


def find_isomorphism(source: AtomStructure, target: AtomStructure,
                     budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    """Exhaustive backtracking search for a structure isomorphism.

    Atoms are matched in id order against candidates of equal signature,
    converse pairs are assigned atomically, and cycles are checked both
    ways as soon as all three coordinates are mapped.  None means no
    isomorphism exists; running past `budget` tried candidates raises
    SearchBudgetExceeded instead.
    """
    source.require_valid()
    target.require_valid()
    n = source.n_atoms
    if n != target.n_atoms:
        return None
    ssig = _signatures(source)
    tsig = _signatures(target)
    if Counter(ssig) != Counter(tsig):
        return None
    classes: dict[tuple, list[int]] = {}
    for b, sig in enumerate(tsig):
        classes.setdefault(sig, []).append(b)
    cand = [classes[sig] for sig in ssig]

    m = [-1] * n
    inv = [-1] * n
    sconv, tconv = source.converse_map, target.converse_map
    s_cycles, t_cycles = source.cycles, target.cycles
    s_touch, t_touch = source.cycles_by_atom, target.cycles_by_atom
    nodes = 0

    def consistent(a: int) -> bool:
        for x, y, z in s_touch[a]:
            mx, my, mz = m[x], m[y], m[z]
            if mx >= 0 and my >= 0 and mz >= 0 and (mx, my, mz) not in t_cycles:
                return False
        for x, y, z in t_touch[m[a]]:
            ix, iy, iz = inv[x], inv[y], inv[z]
            if ix >= 0 and iy >= 0 and iz >= 0 and (ix, iy, iz) not in s_cycles:
                return False
        return True

    def assign(a: int, b: int) -> list[int] | None:
        m[a] = b
        inv[b] = a
        placed = [a]
        ac, bc = sconv[a], tconv[b]
        if ac != a:
            if bc == b or inv[bc] != -1:
                undo(placed)
                return None
            m[ac] = bc
            inv[bc] = ac
            placed.append(ac)
        elif bc != b:
            undo(placed)
            return None
        for x in placed:
            if not consistent(x):
                undo(placed)
                return None
        return placed

    def undo(placed: list[int]) -> None:
        for x in placed:
            inv[m[x]] = -1
            m[x] = -1

    def solve(a: int) -> bool:
        nonlocal nodes
        while a < n and m[a] != -1:
            a += 1
        if a == n:
            return True
        for b in cand[a]:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"isomorphism search exceeded its budget of {budget} nodes")
            if inv[b] != -1:
                continue
            placed = assign(a, b)
            if placed is None:
                continue
            if solve(a + 1):
                return True
            undo(placed)
        return False

    if not solve(0):
        return None
    witness = IsoWitness(source, target, tuple(m))
    bad = witness.problems()
    if bad:
        raise InternalError("search produced an invalid witness: " + bad[0])
    return witness


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Z2Decision:
    """Outcome of the representability decision.

    Accepted decisions carry the constructed action, its algebra of
    compatible relations, and the isomorphism witness.  Rejected ones
    carry every failed axiom with its witness atom.
    """

    structure: AtomStructure
    accepted: bool
    failures: tuple[AxiomFailure, ...] = ()
    action: GroupAction | None = None
    algebra: ConcreteAlgebra | None = None
    witness: IsoWitness | None = None


def decide_z2(structure: AtomStructure) -> Z2Decision:
    """Decide whether the structure is the compatible-relation algebra of
    some action of the two-element group, and construct one if so."""
    structure.require_valid()
    report = check_z2_axioms(structure)
    if not report.all_hold:
        return Z2Decision(structure, False, failures=report.failures())

    # one base element per point atom, two swapped elements per twin atom,
    # allocated in identity-atom id order; blocks[e] holds e's elements
    g: list[int] = []
    blocks: dict[int, tuple[int, ...]] = {}
    for e in sorted(structure.identity_atoms):
        point, pair, _ = structure.atom_flags[e]
        if not (point or pair):
            raise InternalError(
                f"identity atom {structure.atom_names[e]} is neither a "
                f"point nor a pair despite pair-density")
        blocks[e] = (len(g),) if point else (len(g), len(g) + 1)
        g.extend(reversed(blocks[e]))
    action = build_group(len(g), [tuple(g)])
    algebra = rel_algebra(action)
    witness = _construct_witness(structure, blocks, algebra)
    return Z2Decision(structure, True, action=action, algebra=algebra,
                      witness=witness)


def _construct_witness(s: AtomStructure, blocks: dict[int, tuple[int, ...]],
                       algebra: ConcreteAlgebra) -> IsoWitness:
    """The proof's isomorphism from s onto the involution algebra on blocks.

    An atom from identity atom d to r maps to the orbit of a pair from block
    d to block r.  The axioms leave two atoms between twins, parallel and
    crossed: the lower-id atom p[E] from the first twin R to each twin E is
    declared parallel (p[R] = R), and x from E1 to E2 is parallel iff
    x <= p[E1]~;p[E2].  Anything that does not check out is an InternalError.
    """
    target = extract_atom_structure(algebra)

    def fail(reason: str) -> NoReturn:
        raise InternalError(
            f"accepted axioms but the constructed isomorphism fails: {reason}"
            "\n--- input ---\n" + format_atom_structure(s)
            + "--- constructed ---\n" + format_atom_structure(target))

    conv, names, comp = s.converse_map, s.atom_names, s._comp
    groups = {(d, r): [] for d in blocks for r in blocks}
    for a in range(s.n_atoms):  # domain a;a~ . 1', range a~;a . 1'
        groups[(comp[a][conv[a]] & s.identity_mask).bit_length() - 1,
               (comp[conv[a]][a] & s.identity_mask).bit_length() - 1].append(a)
    for (d, r), group in groups.items():
        if len(group) != 1 + (len(blocks[d]) == len(blocks[r]) == 2):
            fail(f"{len(group)} atoms from {names[d]} to {names[r]}")

    twins = sorted(e for e, b in blocks.items() if len(b) == 2)
    p = {e: e if e == twins[0] else min(groups[twins[0], e]) for e in twins}
    owner, n = algebra._owner, algebra.base_size
    m = [-1] * s.n_atoms
    for (d, r), group in groups.items():
        # par holds the atoms sent to the first element of block r: a
        # twin's identity atom, a single atom, or the parallel atom
        par = 1 << d if d == r else 1 << group[0]
        if d != r and len(group) == 2:
            par = s.compose_mask(1 << conv[p[d]], 1 << p[r])
            if par & (par - 1) or not par & sum(1 << a for a in group):
                fail(f"{names[p[d]]}~;{names[p[r]]} is not one atom from "
                     f"{names[d]} to {names[r]}")
        for a in group:
            m[a] = owner[blocks[d][0] * n + blocks[r][not par >> a & 1]]
    witness = IsoWitness(s, target, tuple(m))
    bad = witness.problems()
    if bad:
        fail(bad[0])
    return witness


def check_action_represents(structure: AtomStructure, action: GroupAction,
                            budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    """Does this particular action's algebra realize the structure?"""
    structure.require_valid()
    algebra = rel_algebra(action)
    extracted = extract_atom_structure(algebra)
    return find_isomorphism(structure, extracted, budget=budget)


@dataclass(frozen=True)
class VerificationReport:
    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


def verify_decision(d: Z2Decision) -> VerificationReport:
    """Independently re-check an accepted decision from first principles:
    the action has order at most two, its orbit algebra equals the stored
    one, and the witness really is an isomorphism, cycle by cycle."""
    if not d.accepted:
        raise ValueError("verify_decision requires an accepted decision")
    problems: list[str] = []
    if d.action.order > 2:
        problems.append(f"action group has order {d.action.order}, expected <= 2")
    rebuilt = rel_algebra(d.action)
    if rebuilt != d.algebra:
        problems.append("stored algebra is not the compatible-relation algebra "
                        "of the action")
    if d.witness.source != d.structure:
        problems.append("witness source is not the decided structure")
    t = d.witness.target
    if t != AtomStructure(rebuilt.atom_names, rebuilt._converse_ids,
                          rebuilt._identity_ids, rebuilt._triple_scan[0]) \
            or not t.validation.ok:
        problems.append("witness target is not the extraction of the "
                        "action's algebra")
    problems.extend(d.witness.problems())
    return VerificationReport(tuple(problems))
