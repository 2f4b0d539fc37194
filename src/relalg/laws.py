"""The local laws of an atom structure, and its validation.

The local laws are names, converse, self-converse identity atoms, the
cycle law, the identity law, and one domain and one range atom per atom.
They cost two O(cycles) scans, which record what breaks each law for
_local_laws to word: the cycle law's (_broken_cycles), skipped on
structures that the parser and extraction build
(AtomStructure._of_checked_ids), and _place_atoms, which places every
atom by two masks per identity atom e, the atoms below e;1 and below
1;e, finds the atoms that are no functions, and records each (cycle,
clause) that breaks the identity law.  AtomStructure._places, which
alone knows how the cycles are held, calls _line_places on a parsed
structure's lines, and _place_atoms where the lines break a clause or
there are none.  _validate adds associativity, checked by the join, in
its own module, which it imports when it runs.

The members of AtomStructure that these compute (_places,
_cycle_law_broken, _local_violations and validation) import this module
the first time one of them is read.  So `validate` and every command
that checks or reads the laws load it, and `rel` and `classify`, which
read none of them, never compile it.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce
from operator import or_

from .atoms import (AtomStructure, Triple, ValidationReport, Violation,
                    peirce_orbit, usable_atom_name)


def _place_atoms(s: AtomStructure) -> tuple[dict[int, int], dict[int, int],
                                            int, list[tuple[Triple, int]]]:
    """AtomStructure._places: one pass over the cycles.  Per identity atom
    e, out[e] holds the atoms a with (e, a, a), below e;1, and into[e]
    those with (a, e, a), below 1;e, so e;1;f is out[e] & into[f]; then the
    atoms a with some (a, w, a), w in 0': by the cycle law, the
    non-functions; then each (cycle, clause) that breaks the identity law,
    sorted and once each, its clause numbered as in _IDENTITY_LAW.  The
    pass reads AtomStructure._cycle_stream, which holds every cycle, once
    or more; the marks are unions and the records deduplicated, so repeats
    change nothing.  _places calls it where _line_places gives no
    answer."""
    ident, conv = s.identity_atoms, s.converse_map
    out, into, not_fn = dict.fromkeys(ident, 0), dict.fromkeys(ident, 0), 0
    broken = []
    for t in s._cycle_stream():
        x, y, z = t
        if x == z:
            if y in ident:
                into[y] |= 1 << x
            else:
                not_fn |= 1 << x
        elif y in ident:
            broken.append((t, 1))
        if y == z:
            if x in ident:
                out[x] |= 1 << y
        elif x in ident:
            broken.append((t, 0))
        if z in ident and y != conv[x]:
            broken.append((t, 2))
    return out, into, not_fn, sorted(set(broken))


def _line_places(lines, ident: frozenset[int], conv: Sequence[int]):
    """AtomStructure._places read off cycle lines whose closure under the
    involution conv is the cycle set, or None where that reading may not
    hold: an identity atom that is not its own converse, or a line that
    can break the identity law.  The scan's marks are unions, so each
    line's Peircean orbit is read as a whole, repeats and all.

    With every identity atom e its own converse, so is the set of them,
    and an orbit meets them in every member or in none.  One that does
    breaks no clause exactly when it is the orbit of some (e, a, a), a no
    identity atom other than e: (e, a, a), (a, a~, e) and (a~, e, a~),
    which put a in out[e] and a~ in into[e].  An orbit that does not marks
    only non-functions, the first atoms of its members (u, w, u): of the
    six transforms of (x, y, z), x when x = z, y when y = x~, and z~ when
    y = z."""
    if any(conv[e] != e for e in ident):
        return None
    out, into, not_fn = dict.fromkeys(ident, 0), dict.fromkeys(ident, 0), 0
    for x, y, z in zip(*lines):
        if x in ident or y in ident or z in ident:
            if y == z and x in ident:
                e, a = x, y
            elif y == conv[x] and z in ident:
                e, a = z, x
            elif x == z and y in ident:
                e, a = y, conv[x]
            else:
                return None
            if a in ident and a != e:
                return None
            out[e] |= 1 << a
            into[e] |= 1 << conv[a]
        else:
            if x == z:
                not_fn |= 1 << x
            if y == conv[x]:
                not_fn |= 1 << y
            if y == z:
                not_fn |= 1 << conv[z]
    return out, into, not_fn, []


def _validate(s: AtomStructure) -> ValidationReport:
    """The local laws, then associativity.  The join is imported here, so
    that a request that validates no structure in full never compiles it."""
    from .join import _associativity_witness
    wit = _associativity_witness(s)
    if wit is None:
        return ValidationReport(s._local_violations)
    names = s.atom_names
    a, b, c = wit
    return ValidationReport(s._local_violations + (Violation(
        "associativity",
        f"({names[a]};{names[b]});{names[c]} != "
        f"{names[a]};({names[b]};{names[c]})"),))


# the identity law's clauses as _place_atoms numbers them, in x, y, z and x~
_IDENTITY_LAW = ("composes an identity atom on the left but {1} != {2}",
                 "composes an identity atom on the right but {0} != {2}",
                 "puts an identity atom below {0};{1} but {1} != {3}")


def _local_laws(s: AtomStructure) -> tuple[Violation, ...]:
    """Names, converse, self-converse identity atoms, the cycle law, the
    identity law, and one domain and one range atom per atom.  The cycle
    law's scan, run on a structure built by the constructor, and
    AtomStructure._places, one O(cycles) pass each, record what breaks
    the two laws on cycles, and the record is only worded here."""
    v: list[Violation] = []
    names, n, conv = s.atom_names, s.n_atoms, s.converse_map
    if n == 0:
        return (Violation("empty-structure",
                          "structure has no atoms (one = zero)"),)

    seen: dict[str, int] = {}  # a name that is no str is only unusable
    for a, nm in enumerate(names):
        if not usable_atom_name(nm):
            v.append(Violation("bad-atom-name", f"atom {a} has unusable name {nm!r}"))
        if isinstance(nm, str) and seen.setdefault(nm, a) != a:
            v.append(Violation(
                "duplicate-atom-name",
                f"atom name {nm!r} used by atoms {seen[nm]} and {a}"))

    v += [Violation("converse-not-involution", f"converse(converse("
                    f"{names[a]})) = {names[conv[conv[a]]]} != {names[a]}")
          for a in range(n) if conv[conv[a]] != a]
    v += [Violation("identity-not-self-converse", f"identity atom "
                    f"{names[e]} has converse {names[conv[e]]}")
          for e in sorted(s.identity_atoms) if conv[e] != e]
    v += [Violation("cycle-law", f"cycle {s._fmt_triple(t)} present but "
                    f"its transform {s._fmt_triple(u)} is missing")
          for t, u in s._cycle_law_broken]

    out, into, _, broken = s._places
    for (x, y, z), clause in broken:
        v.append(Violation("identity-law", f"cycle {s._fmt_triple((x, y, z))} "
                           + _IDENTITY_LAW[clause].format(
                               names[x], names[y], names[z], names[conv[x]])))

    # one out[e] holds each atom iff their sizes sum to n and union is all
    if any(sum(map(int.bit_count, m.values())) != n
           or reduce(or_, m.values(), 0) != s.full_mask for m in (out, into)):
        idents = sorted(s.identity_atoms)
        for a in range(n):
            for side, m, cycle in (("domain", out, "e has (e, {0}, {0})"),
                                   ("range", into, "f has ({0}, f, {0})")):
                found = [e for e in idents if m[e] >> a & 1]
                if not found:
                    v.append(Violation(
                        f"missing-{side}-atom",
                        f"no identity atom {cycle.format(names[a])} as a cycle"))
                elif len(found) > 1:
                    v.append(Violation(
                        f"multiple-{side}-atoms", f"atom {names[a]} has "
                        f"{side} atoms " + ", ".join(
                            f"{names[e]}" for e in found)))
    return tuple(v)


def _broken_cycles(s: AtomStructure) -> list[tuple[Triple, Triple]]:
    """Each (cycle, transform of it that is missing), sorted.

    Closure under (x~, z, y) and (z, y~, x) is closure under all six
    transforms, converse an involution or not: they compose to the other
    three.  The six are listed only to find the culprits.
    """
    cycles, conv = s.cycles, s.converse_map
    if all((conv[x], z, y) in cycles and (z, conv[y], x) in cycles
           for x, y, z in cycles):
        return []
    return sorted((t, u) for t in cycles for u in peirce_orbit(t, conv)
                  if u not in cycles)
