"""The benchmark's workloads: seeded relalg requests with known verdicts.

Each workload writes its input files into a work directory and returns
the requests of one pass.  A request is a relalg command line, the exit
code its input was built to produce, a verdict check (see checks.py), and
the sizes of its input.  Sizes are fixed per workload; the seed only
relabels base points and atom ids, so it changes the search order but not
the amount of input.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from pathlib import Path

import gen

# One fixed isomorphism-search budget, below relalg's 10M default, so that
# an input that exhausts it costs a bounded part of a run.
BUDGET = 50_000

# Groups are named by specs: ("inv", (f, t)) is an involution with f fixed
# points and t twins (f^2 + 2ft + 2t^2 atoms; t = 0 is a trivial action),
# ("z3", k) rotates k triangles (3k^2 atoms on 3k points), ("dihedral", n)
# and ("cyclic", n) act on an n-gon (about n/2 and n atoms on n points),
# and ("abelian", [a, b, ...]) is Z_a x Z_b x ... acting on itself.
# Inputs whose search outcome depends on the shuffle appear three times,
# each with its own relabelling, so that the share of failed requests and
# the latency quantiles vary less from seed to seed.
FULL = {
    # involutions from 1 to 145 atoms
    "z2_decide": ([(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (8, 0), (0, 1),
                   (1, 1), (0, 2), (2, 1), (1, 2), (0, 3), (3, 1), (2, 2),
                   (1, 3), (3, 2), (4, 2), (0, 5), (1, 8)]
                  + [(0, 4), (6, 0), (2, 4)] * 3),
    # many atoms on a small base against few atoms on a large one
    "orbit_reject": ([("z3", k) for k in (2, 3, 4, 5)]
                     + [("dihedral", n) for n in (24, 32, 40, 48, 60)]
                     + [("cyclic", n) for n in (24, 32, 40, 48, 60)]),
    "iso_copies": ([("inv", ft) for ft in ((3, 1), (2, 2), (1, 3), (4, 2),
                                           (8, 0))]
                   + [("z3", 3), ("z3", 5), ("cyclic", 24), ("dihedral", 30),
                      ("abelian", [2, 8]), ("abelian", [3, 9]),
                      ("abelian", [4, 4])]
                   + [("inv", (6, 0)), ("inv", (0, 4)), ("inv", (2, 4)),
                      ("z3", 4), ("cyclic", 48), ("dihedral", 60)] * 3),
    # non-isomorphic with equal atom counts: regular actions of
    # non-isomorphic groups of one order agree on every atom signature, so
    # only the search tells them apart; the cross-family pairs differ in
    # signature and are cheap rejects
    "iso_pairs": ([(("abelian", a), ("abelian", b)) for a, b in (
                      ([16], [4, 4]), ([2, 8], [4, 4]), ([9], [3, 3]),
                      ([2, 2, 4], [2, 8]))]
                  + [(("abelian", a), ("abelian", b)) for a, b in (
                      ([27], [3, 9]), ([25], [5, 5]), ([4, 8], [2, 16]))] * 3
                  + [(("cyclic", 13), ("inv", (1, 2))),
                     (("cyclic", 25), ("inv", (1, 3))),
                     (("cyclic", 12), ("z3", 2)),
                     (("dihedral", 24), ("inv", (1, 2))),
                     (("inv", (1, 3)), ("inv", (5, 0)))]),
    "check_action": [(2, 1), (1, 2), (3, 1), (2, 2), (1, 3), (4, 2)]
                    + [(0, 4), (2, 4)] * 3,
}

# Smaller sizes of the same shapes, for the self-test.
TINY = {
    "z2_decide": [(1, 0), (3, 0), (0, 1), (1, 1), (2, 1), (0, 3)],
    "orbit_reject": [("z3", 1), ("z3", 2), ("dihedral", 5), ("cyclic", 6)],
    "iso_copies": [("inv", (3, 1)), ("z3", 2), ("cyclic", 6),
                   ("dihedral", 7), ("abelian", [2, 4])],
    "iso_pairs": [(("abelian", [4]), ("abelian", [2, 2])),
                  (("abelian", [8]), ("abelian", [2, 4])),
                  (("cyclic", 5), ("inv", (1, 1)))],
    "check_action": [(2, 1), (1, 2)],
}


def group_gens(spec, rng):
    """Generators of the group a spec names, on a shuffled base."""
    kind, arg = spec
    if kind == "inv":
        return gen.involution(*arg, rng)
    return {"z3": gen.z3_triangles, "dihedral": gen.dihedral,
            "cyclic": gen.cyclic_regular,
            "abelian": gen.abelian_regular}[kind](arg, rng)


def _spec_name(spec) -> str:
    kind, arg = spec
    if isinstance(arg, (tuple, list)):
        arg = "_".join(map(str, arg))
    return f"{kind}_{arg}"


@dataclass
class Request:
    label: str
    argv: list[str]
    expect: int
    check: dict
    # base points, atoms and cycles of the first input file; base points
    # are 0 for catalog presentations that come without an action
    sizes: tuple[int, int, int]


@dataclass
class Generated:
    """An action written as `.act` and its structure written as `.ra`."""

    act: str
    ra: str
    orb: gen.Orbits
    s: gen.Structure
    perm: list[int]

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.orb.n, self.s.n_atoms, len(self.s.cycles))

    def wide_identity_atoms(self) -> list[str]:
        """Names of the identity atoms over 3 or more base points: exactly
        the atoms that fail pair-density."""
        return sorted(self.s.names[self.perm[a]]
                      for a, size in self.orb.diagonal_sizes().items()
                      if size >= 3)


class _Writer:
    def __init__(self, workdir: Path, rng: random.Random):
        self.dir = workdir
        self.rng = rng
        self.count = 0
        workdir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def action(self, spec) -> Generated:
        gens = group_gens(spec, self.rng)
        n = len(gens[0])
        orb = gen.pair_orbits(n, gens)
        perm = list(range(orb.n_atoms))
        self.rng.shuffle(perm)
        s = gen.structure_of(orb, perm)
        # a counter keeps names unique when one spec is used twice
        self.count += 1
        stem = f"{self.count:03d}_{_spec_name(spec)}"
        return Generated(self.write(f"{stem}.act", gen.act_text(n, gens)),
                         self.write(f"{stem}.ra", gen.ra_text(s)),
                         orb, s, perm)


def _budget(argv: list[str]) -> list[str]:
    return argv + ["--budget", str(BUDGET)]


def _z2_decide(w: _Writer, data: Path, sizes: dict) -> list[Request]:
    out = []
    for f, t in sizes["z2_decide"]:
        g = w.action(("inv", (f, t)))
        ca = w.write(Path(g.ra).stem + ".ca", gen.ca_text(g.orb))
        out.append(Request(f"decide-z2 involution f={f} t={t}",
                           _budget(["decide-z2", g.ra, "--verify"]), 0,
                           {"kind": "accept", "base": f + 2 * t,
                            "atoms": g.s.n_atoms}, g.sizes))
        out.append(Request(f"classify involution f={f} t={t}",
                           ["classify", ca], 0,
                           {"kind": "classify", "points": f, "twins": t,
                            "atoms": g.s.n_atoms}, g.sizes))
    # catalog inputs, as their header comments describe them: 23.ra fails
    # only pair-density, 57.ra fails pair-density and functionality
    for name, fails in (("23.ra", [2]), ("57.ra", [2, 3])):
        text = (data / name).read_text(encoding="utf-8")
        s = gen.read_ra(text)
        out.append(Request(f"decide-z2 catalog {name}",
                           _budget(["decide-z2", w.write(name, text)]), 2,
                           {"kind": "reject", "fails": fails, "exact": True,
                            "witnesses": None},
                           (0, s.n_atoms, len(s.cycles))))
    text = (data / "type6.ca").read_text(encoding="utf-8")
    orb = gen.read_ca(text)
    widths = list(orb.diagonal_sizes().values())
    s = gen.structure_of(orb, list(range(orb.n_atoms)))
    out.append(Request("classify catalog type6.ca",
                       ["classify", w.write("type6.ca", text)], 0,
                       {"kind": "classify", "points": widths.count(1),
                        "twins": widths.count(2), "atoms": orb.n_atoms},
                       (orb.n, s.n_atoms, len(s.cycles))))
    return out


def _orbit_reject(w: _Writer, data: Path, sizes: dict) -> list[Request]:
    out = []
    for spec in sizes["orbit_reject"]:
        g = w.action(spec)
        name = _spec_name(spec)
        out.append(Request(f"rel {name}", ["rel", g.act], 0,
                           {"kind": "rel", "atoms": g.orb.n_atoms,
                            "identity": len(g.orb.diagonal_sizes())},
                           g.sizes))
        reject = {"fails": [2], "exact": False,
                  "witnesses": g.wide_identity_atoms()}
        out.append(Request(f"decide-z2 {name}", _budget(["decide-z2", g.ra]),
                           2, {"kind": "reject", **reject}, g.sizes))
        out.append(Request(f"axioms {name}", ["axioms", g.ra], 2,
                           {"kind": "axioms", **reject}, g.sizes))
    return out


def _iso_search(w: _Writer, data: Path, sizes: dict) -> list[Request]:
    out = []
    for spec in sizes["iso_copies"]:
        g = w.action(spec)
        copy = w.write(Path(g.ra).stem + "_copy.ra",
                       gen.ra_text(gen.relabeled(g.s, w.rng)))
        out.append(Request(f"iso {_spec_name(spec)} shuffled copy",
                           _budget(["iso", g.ra, copy]), 0,
                           {"kind": "iso", "source": g.ra, "target": copy},
                           g.sizes))
    for a, b in sizes["iso_pairs"]:
        ga, gb = w.action(a), w.action(b)
        if ga.s.n_atoms != gb.s.n_atoms:
            raise ValueError(f"iso pair {a} {b} differs in atom count")
        out.append(Request(f"iso {_spec_name(a)} vs {_spec_name(b)}",
                           _budget(["iso", ga.ra, gb.ra]), 2,
                           {"kind": "none"}, ga.sizes))
    for f, t in sizes["check_action"]:
        g = w.action(("inv", (f, t)))
        # same base size, one twin traded for two fixed points
        other = w.action(("inv", (f + 2, t - 1)))
        out.append(Request(f"check-action f={f} t={t} matching",
                           _budget(["check-action", g.ra, g.act]), 0,
                           {"kind": "map", "atoms": g.s.n_atoms}, g.sizes))
        out.append(Request(f"check-action f={f} t={t} vs f={f + 2} t={t - 1}",
                           _budget(["check-action", g.ra, other.act]), 2,
                           {"kind": "none"}, g.sizes))
    return out


BUILDERS = {
    "z2-decide": _z2_decide,
    "orbit-reject": _orbit_reject,
    "iso-search": _iso_search,
}


def build(name: str, seed: int | str, workdir: Path, data: Path,
          tiny: bool = False) -> list[Request]:
    """Write the inputs of workload `name` for `seed`; return one pass of
    requests.  `tiny` selects the self-test sizes."""
    rng = random.Random(f"{name}/{seed}")
    return BUILDERS[name](_Writer(workdir, rng), data,
                          TINY if tiny else FULL)


def smallest(requests: list[Request]) -> Request:
    return min(requests, key=lambda r: (r.sizes[1], r.sizes[0]))


def to_json(requests: list[Request]) -> list[dict]:
    return [asdict(r) for r in requests]
