"""Line-oriented text formats for structures, concrete algebras, actions.

All three formats share the same conventions: '#' starts a comment, blank
lines are ignored, and every directive is a whitespace-separated line.
The three parsers read lines through one reader, _content_lines, which
splits by str.splitlines, so LF, CRLF and a lone CR each end a line and
the text needs no newline translation (the CLI decodes files read as
bytes).  Parsers raise ParseError with the offending source name, line
number, and token.  Emitters produce text the parsers round-trip exactly.

An atom structure is read in one loop over its lines, cycle lines tested
first, with the three ids of each cycle line appended to three column
lists.  The structure is built by AtomStructure._of_checked_ids from the
columns alone, and `atoms` streams their closure under the converse
where a reader needs the cycles; the parser streams none.  Every id is a
value of the parser's name index, and each converse entry a:b sets both
a~ = b and b~ = a, no atom in two entries, so the converse is an
involution.

An atom structure is written with one cycle line per Peircean orbit, its
least member, chosen by atoms._orbit_reps, the writer's one refusal: no
text parses back to a table without identity atoms, with an unusable or
repeated atom name, whose converse is no involution or that breaks the
cycle law, and _orbit_reps raises InvalidStructureError on it.

Two caps bound what a text can ask for, each checked at its line: the
`set n` of an action or a concrete algebra (MAX_BASE_SIZE) and the atoms
line of a structure (MAX_ATOMS).  The action and concrete-algebra
parsers import `actions` and `concrete` where they build their result
(README, "Start-up").
"""

from __future__ import annotations

import re

from .atoms import AtomStructure, _orbit_reps
from .errors import ParseError

# numbers are ASCII digits: int() and \d would also read underscores and
# other scripts' digits, which no emitter writes
_PAIR_RE = re.compile(r"^\(([0-9]+),([0-9]+)\)$")
_INT_RE = re.compile(r"([+-]?)0*([0-9]+)")

# the largest `set n` of a .act or .ca file, checked before any table of
# the n^2 pairs is built
MAX_BASE_SIZE = 128
# the most atoms an `atoms` line may list, checked before any later line
# is read: the n^2 atoms of the trivial action at the base-size cap, the
# most that `rel` writes
MAX_ATOMS = MAX_BASE_SIZE ** 2


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
    """(line number, tokens) of each line with a token, its comment cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, parts


def parse_atom_structure(text: str, source: str = "<string>") -> AtomStructure:
    """Parse the `atoms / identity / converse / cycle` format.

    Converse is given as `a:b` pairs (fixed atoms may be listed as `a:a`
    or omitted); cycle lines list one representative per Peircean orbit,
    and the cycle set is their closure under the six transforms.
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
    for lineno, parts in _content_lines(text):
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
            if len(parts) - 1 > MAX_ATOMS:
                raise ParseError(source, lineno, f"atoms line lists "
                                 f"{len(parts) - 1} atoms, above the cap of "
                                 f"{MAX_ATOMS} atoms")
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
        tuple(atoms), conv, frozenset(identity), lines=(xs, ys, zs))


def format_atom_structure(s: AtomStructure) -> str:
    """The text of s, one cycle line per Peircean orbit: its least member,
    in sorted order, as atoms._orbit_reps chooses them or refuses s."""
    conv, names = s.converse_map, s.atom_names
    lines = ["atoms " + " ".join(names)]
    lines.append("identity " + " ".join(names[e]
                                        for e in sorted(s.identity_atoms)))
    pairs = [f"{names[a]}:{names[conv[a]]}"
             for a in range(s.n_atoms) if a <= conv[a]]
    lines.append("converse " + " ".join(pairs))
    lines += [f"cycle {names[x]} {names[y]} {names[z]}"
              for x, y, z in _orbit_reps(s)]
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
    for lineno, parts in _content_lines(text):
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
    from .concrete import ConcreteAlgebra
    try:
        return ConcreteAlgebra.from_pairs(n, names, atom_pairs)
    except ValueError as exc:
        raise ParseError(source, 0, str(exc)) from None


def format_concrete_algebra(c: ConcreteAlgebra) -> str:
    n = c.base_size
    # the text of every pair, cells[i*n + j] = "(i,j)", from the n row
    # and the n column strings, each built once per call
    cols = [f"{j})" for j in range(n)]
    cells = [row + col for row in [f"({i}," for i in range(n)] for col in cols]
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
    from .actions import build_group
    return build_group(n, gens)


def format_group_action(a: GroupAction) -> str:
    lines = [f"set {a.base_size}"]
    for g in a.generators:
        lines.append("gen " + " ".join(str(i) for i in g))
    return "\n".join(lines) + "\n"
