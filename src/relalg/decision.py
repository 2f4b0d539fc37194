"""Deciding representability over actions of the two-element group.

The decision evaluates three first-order axioms (simplicity, pair-density,
functionality of every atom up to converse), builds the canonical
involution with one base element per point atom and two per twin atom,
and certifies acceptance with an explicit atom bijection found by a
pruned exhaustive backtracking search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

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


def decide_z2(structure: AtomStructure, budget: int = DEFAULT_BUDGET) -> Z2Decision:
    """Decide whether the structure is the compatible-relation algebra of
    some action of the two-element group, and construct one if so."""
    structure.require_valid()
    report = check_z2_axioms(structure)
    if not report.all_hold:
        return Z2Decision(structure, False, failures=report.failures())

    # one base element per point atom, two swapped elements per twin atom,
    # allocated in identity-atom id order
    g: list[int] = []
    for e in sorted(structure.identity_atoms):
        point, pair, _ = structure.atom_flags[e]
        if point:
            g.append(len(g))
        elif pair:
            g.extend((len(g) + 1, len(g)))
        else:
            raise InternalError(
                f"identity atom {structure.atom_names[e]} is neither a "
                f"point nor a pair despite pair-density")
    action = build_group(len(g), [tuple(g)])
    algebra = rel_algebra(action)
    extracted = extract_atom_structure(algebra)
    witness = find_isomorphism(structure, extracted, budget=budget)
    if witness is None:
        raise InternalError(
            "accepted axioms but found no isomorphism onto the constructed "
            "action algebra\n--- input ---\n" + format_atom_structure(structure)
            + "--- constructed ---\n" + format_atom_structure(extracted))
    return Z2Decision(structure, True, action=action, algebra=algebra,
                      witness=witness)


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
    extracted = extract_atom_structure(d.algebra)
    if d.witness.source != d.structure:
        problems.append("witness source is not the decided structure")
    if d.witness.target != extracted:
        problems.append("witness target is not the extraction of the algebra")
    problems.extend(d.witness.problems())
    return VerificationReport(tuple(problems))
