"""Line-oriented text formats for structures, concrete algebras, actions.

All three formats share the same conventions: '#' starts a comment, blank
lines are ignored, and every directive is a whitespace-separated line.
Lines are split by str.splitlines, so LF, CRLF and a lone CR each end a
line and the text needs no newline translation (the CLI decodes files
read as bytes).  Parsers raise ParseError with the offending source name,
line number, and token.  Emitters produce text the parsers round-trip exactly.

An atom structure is read in one loop over its lines, cycle lines tested
first, with the three ids of each cycle line appended to three column
lists, closed by atoms._close_columns under the parser's converse.
AtomStructure._of_checked_ids sets the fields without the constructor's
checks and with the cycle law's scan preset to find nothing: every id is
a value of the parser's name index, each converse entry a:b sets both
a~ = b and b~ = a and no atom is in two entries, so the converse is an
involution, and the closure under an involution obeys the cycle law.

An atom structure is written with one cycle line per Peircean orbit, its
least member.  Where the orbits are whole (atoms._whole_orbits), each
cycle is tested locally against its five other transforms, most of them
rejected by comparing their first atom with the transforms' first atoms,
and only the representatives are sorted; other tables, hand-built, take
a sorted pass that marks the transforms of each cycle it writes.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence

from .actions import GroupAction, build_group
from .atoms import (AtomStructure, Triple, _close_columns, _transforms,
                    _whole_orbits)
from .concrete import ConcreteAlgebra
from .errors import ParseError

# numbers are ASCII digits: int() and \d would also read underscores and
# other scripts' digits, which no emitter writes
_PAIR_RE = re.compile(r"^\(([0-9]+),([0-9]+)\)$")
_INT_RE = re.compile(r"([+-]?)0*([0-9]+)")

# the largest `set n` of a .act or .ca file, checked before any table of
# the n^2 pairs is built
MAX_BASE_SIZE = 128


def _int(tok: str) -> int:
    """The value of a number token, else ValueError.  Past 18 digits,
    leading zeros aside, it is read as 10**18 with its sign: beyond every
    size and index the formats take, so that their range checks name the
    fault, where int() would refuse a number of more than 4300 digits."""
    m = _INT_RE.fullmatch(tok)
    if not m:
        raise ValueError(tok)
    sign, digits = m.groups()
    return int(sign + (digits if len(digits) <= 18 else "1" + "0" * 18))


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_atom_structure(text: str, source: str = "<string>") -> AtomStructure:
    """Parse the `atoms / identity / converse / cycle` format.

    Converse is given as `a:b` pairs (fixed atoms may be listed as `a:a`
    or omitted); cycle lines list one representative per Peircean orbit
    and the parser closes the set under the six transforms.
    """
    atoms: list[str] | None = None
    identity: list[int] | None = None
    converse: list[int] | None = None
    index: dict[str, int] = {}  # first occurrence wins on duplicate names
    xs: list[int] = []  # the cycle lines' ids, one list per place
    ys: list[int] = []
    zs: list[int] = []

    def atom_id(name: str, lineno: int) -> int:
        if atoms is None:
            raise ParseError(source, lineno, "atoms must be declared first")
        try:
            return index[name]
        except KeyError:
            raise ParseError(source, lineno, "unknown atom", token=name) from None

    get = index.__getitem__
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        kw = parts[0]
        if kw == "cycle":
            if len(parts) != 4:
                raise ParseError(source, lineno,
                                 "cycle lines take exactly three atoms")
            try:
                x, y, z = get(parts[1]), get(parts[2]), get(parts[3])
            except KeyError:
                for p in parts[1:]:  # raises at the first unknown name
                    atom_id(p, lineno)
            xs.append(x)
            ys.append(y)
            zs.append(z)
        elif kw == "atoms":
            if atoms is not None:
                raise ParseError(source, lineno, "duplicate atoms line")
            if len(parts) == 1:
                raise ParseError(source, lineno, "atoms line lists no atoms")
            atoms = parts[1:]
            for a, name in enumerate(atoms):
                index.setdefault(name, a)
        elif kw == "identity":
            if identity is not None:
                raise ParseError(source, lineno, "duplicate identity line")
            identity = [atom_id(p, lineno) for p in parts[1:]]
            if not identity:
                raise ParseError(source, lineno, "identity line lists no atoms")
        elif kw == "converse":
            if converse is not None:
                raise ParseError(source, lineno, "duplicate converse line")
            if atoms is None:
                raise ParseError(source, lineno, "atoms must be declared first")
            converse = list(range(len(atoms)))
            seen: set[int] = set()
            for p in parts[1:]:
                if ":" not in p:
                    raise ParseError(source, lineno,
                                     "converse entries look like a:b", token=p)
                a, _, b = p.partition(":")
                ia, ib = atom_id(a, lineno), atom_id(b, lineno)
                if ia in seen or ib in seen:
                    raise ParseError(source, lineno,
                                     "atom appears in two converse pairs",
                                     token=p)
                seen.update((ia, ib))
                converse[ia], converse[ib] = ib, ia
        else:
            raise ParseError(source, lineno, "unknown directive", token=kw)

    if atoms is None:
        raise ParseError(source, 0, "missing atoms line")
    if identity is None:
        raise ParseError(source, 0, "missing identity line")
    conv = tuple(range(len(atoms)) if converse is None else converse)
    return AtomStructure._of_checked_ids(
        tuple(atoms), conv, frozenset(identity), _close_columns(xs, ys, zs, conv))


def _orbit_leasts(cycles: Iterable[Triple],
                  conv: Sequence[int]) -> list[Triple]:
    """The cycles t = (x, y, z) at most each of their five other Peircean
    transforms, under an involutive converse.  t is compared with a
    transform by x against its first place, x~, y, y~, z or z~, and as a
    whole only on a tie.  A tie with (y, z~, x~) needs no second look:
    when x = y, t <= (y, z~, x~) is (x, z) <= (z~, x~), which x <= z~
    gives, as x = z~ makes z = x~."""
    reps = []
    for t in cycles:
        x, y, z = t
        # (y, z~, x~) and (z, y~, x), whose first places need no lookup
        if x > y or x > z or x == z and t > (z, conv[y], x):
            continue
        cx, cy, cz = conv[x], conv[y], conv[z]
        if ((x < cx or x == cx and t <= (cx, z, y))
                and (x < cy or x == cy and t <= (cy, cx, cz))
                and (x < cz or x == cz and t <= (cz, x, cy))):
            reps.append(t)
    return reps


def format_atom_structure(s: AtomStructure) -> str:
    """The text of s, one cycle line per Peircean orbit: its least member,
    in sorted order.

    When the orbits are whole (atoms._whole_orbits), as in every parsed or
    extracted structure, the transforms of a cycle are its orbit, so a
    cycle is its orbit's least exactly when it is at most each transform:
    a local test per cycle, and only the representatives are sorted.
    Other tables keep the sorted pass that emits each cycle not yet
    marked and marks its transforms, whose output the local test equals
    wherever both apply."""
    conv, names = s.converse_map, s.atom_names
    lines = ["atoms " + " ".join(names)]
    lines.append("identity " + " ".join(names[e]
                                        for e in sorted(s.identity_atoms)))
    pairs = [f"{names[a]}:{names[conv[a]]}"
             for a in range(s.n_atoms) if a <= conv[a]]
    lines.append("converse " + " ".join(pairs))
    if _whole_orbits(s):
        reps = sorted(_orbit_leasts(s.cycles, conv))
    else:
        reps, marked = [], set()
        for t in sorted(s.cycles):
            if t not in marked:
                marked.update(_transforms(t, conv))
                reps.append(t)
    lines += [f"cycle {names[x]} {names[y]} {names[z]}" for x, y, z in reps]
    return "\n".join(lines) + "\n"


def _parse_size(parts, source, lineno) -> int:
    if len(parts) != 2:
        raise ParseError(source, lineno, "set line takes one number")
    try:
        n = _int(parts[1])
    except ValueError:
        raise ParseError(source, lineno, "set size must be an integer",
                         token=parts[1]) from None
    if n <= 0:
        raise ParseError(source, lineno, "set size must be positive",
                         token=parts[1])
    if n > MAX_BASE_SIZE:
        raise ParseError(source, lineno, f"set size is above the cap of "
                         f"{MAX_BASE_SIZE} points", token=parts[1])
    return n


def _set_body(text: str, source: str, keyword: str):
    """Yield n at the set line, which must come first, then (lineno, parts)
    of each `keyword` line, lazily so the first bad line is the one reported."""
    n: int | None = None
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "set":
            if n is not None:
                raise ParseError(source, lineno, "duplicate set line")
            n = _parse_size(parts, source, lineno)
            yield n
        elif parts[0] != keyword:
            raise ParseError(source, lineno, "unknown directive",
                             token=parts[0])
        elif n is None:
            raise ParseError(source, lineno, "set size must come first")
        else:
            yield lineno, parts
    if n is None:
        raise ParseError(source, 0, "missing set line")


def parse_concrete_algebra(text: str, source: str = "<string>") -> ConcreteAlgebra:
    """Parse `set n` plus one `atom <name> = (i,j) (k,l) ...` line per atom.

    Bad names raise ParseError; atoms that overlap or leave a pair out
    raise ConcreteAlgebraError (see ConcreteAlgebra.from_pairs)."""
    body = _set_body(text, source, "atom")
    n = next(body)
    names: list[str] = []
    atom_pairs: list[list[tuple[int, int]]] = []
    for lineno, parts in body:
        if len(parts) < 4 or parts[2] != "=":
            raise ParseError(source, lineno,
                             "atom lines look like: atom name = (i,j) ...")
        pairs = []
        for tok in parts[3:]:
            mm = _PAIR_RE.match(tok)
            if not mm:
                raise ParseError(source, lineno, "malformed pair", token=tok)
            try:
                i, j = int(mm.group(1)), int(mm.group(2))
            except ValueError:  # more than int()'s 4300 digits
                i, j = _int(mm.group(1)), _int(mm.group(2))
            if i >= n or j >= n:
                raise ParseError(source, lineno,
                                 "pair outside the base set", token=tok)
            pairs.append((i, j))
        names.append(parts[1])
        atom_pairs.append(pairs)
    if not names:
        raise ParseError(source, 0, "no atom lines")
    try:
        return ConcreteAlgebra.from_pairs(n, names, atom_pairs)
    except ValueError as exc:
        raise ParseError(source, 0, str(exc)) from None


def format_concrete_algebra(c: ConcreteAlgebra) -> str:
    n = c.base_size
    # the text of every pair, cells[i*n + j] = "(i,j)", built once per call
    cells = [row + col for row in [f"({i}," for i in range(n)]
             for col in [f"{j})" for j in range(n)]]
    lines = [f"set {n}"]
    lines += [f"atom {name} = " + " ".join(map(cells.__getitem__, pairs))
              for name, pairs in zip(c.atom_names, c._atom_pairs)]
    return "\n".join(lines) + "\n"


def parse_group_action(text: str, source: str = "<string>") -> GroupAction:
    """Parse `set n` plus `gen i0 i1 ... i(n-1)` permutation lines."""
    body = _set_body(text, source, "gen")
    n = next(body)
    gens: list[tuple[int, ...]] = []
    for lineno, parts in body:
        if len(parts) != n + 1:
            raise ParseError(source, lineno,
                             f"gen lines take exactly {n} images")
        imgs = []
        for tok in parts[1:]:
            try:
                imgs.append(_int(tok))
            except ValueError:
                raise ParseError(source, lineno, "images must be integers",
                                 token=tok) from None
            if not 0 <= imgs[-1] < n:
                raise ParseError(source, lineno,
                                 "image outside the base set", token=tok)
        gens.append(tuple(imgs))
    return build_group(n, gens)


def format_group_action(a: GroupAction) -> str:
    lines = [f"set {a.base_size}"]
    for g in a.generators:
        lines.append("gen " + " ".join(str(i) for i in g))
    return "\n".join(lines) + "\n"
