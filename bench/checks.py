"""Verdict checks: does a relalg answer match the one known by construction?

`wrong_verdict` returns None when the answer is right and a description
when it is wrong.  It is called only for requests that finished with exit
0 or 2; exit 1, SystemExit and uncaught exceptions are failures, which the
benchmark counts rather than checks.
"""

from __future__ import annotations

import re
from pathlib import Path

import gen

_AXIOM_RE = re.compile(r"^axiom ([123]) (holds|fails at atom (\S+)) \(")


def _failed_axioms(lines: list[str]) -> dict[int, str]:
    """Axiom number -> witness atom, for every `axiom N fails` line."""
    out = {}
    for line in lines:
        m = _AXIOM_RE.match(line)
        if m and m.group(3) is not None:
            out[int(m.group(1))] = m.group(3)
    return out


def _check_axioms(lines, spec) -> str | None:
    failed = _failed_axioms(lines)
    if spec["exact"] and sorted(failed) != spec["fails"]:
        return f"failed axioms {sorted(failed)}, expected {spec['fails']}"
    missing = [a for a in spec["fails"] if a not in failed]
    if missing:
        return f"axioms {missing} should fail but do not"
    allowed = spec["witnesses"]
    if allowed is not None and failed[2] not in allowed:
        return (f"pair-density witness {failed[2]} is not an identity atom "
                f"over 3 or more points")
    return None


def _count(lines, prefix) -> int:
    return sum(1 for line in lines if line.startswith(prefix))


def _check_iso(lines, spec) -> str | None:
    src = gen.read_ra(Path(spec["source"]).read_text(encoding="utf-8"))
    dst = gen.read_ra(Path(spec["target"]).read_text(encoding="utf-8"))
    si = {nm: a for a, nm in enumerate(src.names)}
    di = {nm: a for a, nm in enumerate(dst.names)}
    m = [-1] * src.n_atoms
    for line in lines:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "map" or parts[2] != "->":
            return f"unexpected line {line!r}"
        if parts[1] not in si or parts[3] not in di:
            return f"map line names an unknown atom: {line!r}"
        m[si[parts[1]]] = di[parts[3]]
    if sorted(m) != list(range(dst.n_atoms)):
        return "atom map is not a bijection"
    if {m[e] for e in src.identity} != set(dst.identity):
        return "atom map does not preserve the identity atoms"
    if any(m[src.conv[a]] != dst.conv[m[a]] for a in range(src.n_atoms)):
        return "atom map does not commute with converse"
    if {(m[x], m[y], m[z]) for x, y, z in src.cycles} != dst.cycles:
        return "atom map does not carry the cycles onto the target's"
    return None


def wrong_verdict(spec: dict, expect: int, status: int,
                  out: str) -> str | None:
    if status != expect:
        return f"exit {status}, expected {expect}"
    kind = spec["kind"]
    lines = out.splitlines()
    if kind == "accept":
        if lines[:2] != ["accepted", "verified"]:
            return f"output starts {lines[:2]}, expected accepted, verified"
        if f"set {spec['base']}" not in lines:
            return f"constructed action is not on {spec['base']} points"
        if _count(lines, "map ") != spec["atoms"]:
            return "witness does not map every atom"
        return None
    if kind == "reject":
        if lines[:1] != ["rejected"]:
            return f"output starts {lines[:1]}, expected rejected"
        return _check_axioms(lines[1:], spec)
    if kind == "axioms":
        return _check_axioms(lines, spec)
    if kind == "rel":
        # the concrete algebra lists one `atom` line per pair orbit, the
        # atom structure one `atoms` line naming them again
        atoms_line = [ln for ln in lines if ln.startswith("atoms ")]
        ident_line = [ln for ln in lines if ln.startswith("identity ")]
        if _count(lines, "atom ") != spec["atoms"] or len(atoms_line) != 1 \
                or len(atoms_line[0].split()) - 1 != spec["atoms"]:
            return f"rel does not report {spec['atoms']} atoms"
        if len(ident_line) != 1 \
                or len(ident_line[0].split()) - 1 != spec["identity"]:
            return f"rel does not report {spec['identity']} identity atoms"
        return None
    if kind == "classify":
        pts = lines[0].split(":", 1)[1].split() if lines else []
        tws = lines[1].split(":", 1)[1].split() if len(lines) > 1 else []
        got = (0 if pts == ["(none)"] else len(pts),
               0 if tws == ["(none)"] else len(tws),
               _count(lines, "atom "))
        want = (spec["points"], spec["twins"], spec["atoms"])
        if got != want:
            return f"points, twins, atoms {got}, expected {want}"
        return None
    if kind == "iso":
        return _check_iso(lines, spec)
    if kind == "map":
        if _count(lines, "map ") != spec["atoms"]:
            return "witness does not map every atom"
        return None
    if kind == "none":
        if lines != ["none"]:
            return f"output {lines[:2]}, expected none"
        return None
    raise ValueError(f"unknown check kind {kind!r}")
