"""Self-test of the benchmark on tiny inputs.

Usage, from the root of a checkout:  python3 bench/selftest.py

For each workload, at small sizes of the same shapes, it checks that:
- the generator's pair-orbit counts match the closed forms of each group;
- relalg finishes every request with the answer the generator expects;
- traced self times are at least 0 and sum to no more than the traced
  wall time;
- every count (calls, failures, search outcomes) repeats exactly across
  two runs;
- a wrapped name that does not exist is reported absent with zero calls,
  and uninstalling the tracer restores every original.
Prints one line per check group and exits 0 when all hold.
"""

from __future__ import annotations

import random
import shutil
import sys
from pathlib import Path

import gen
import tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent


def closed_form_atoms(spec) -> int:
    kind, arg = spec
    if kind == "inv":
        f, t = arg
        return f * f + 2 * f * t + 2 * t * t
    if kind == "z3":
        return 3 * arg * arg
    if kind == "dihedral":
        return arg // 2 + 1
    if kind == "cyclic":
        return arg
    size = 1
    for q in arg:
        size *= q
    return size


def check_generator() -> None:
    t = workloads.TINY
    specs = ([("inv", ft) for ft in t["z2_decide"]] + t["orbit_reject"]
             + t["iso_copies"] + [s for pair in t["iso_pairs"] for s in pair])
    rng = random.Random(0)
    for spec in specs:
        gens = workloads.group_gens(spec, rng)
        got = gen.pair_orbits(len(gens[0]), gens).n_atoms
        if got != closed_form_atoms(spec):
            raise AssertionError(f"{spec}: {got} pair orbits, expected "
                                 f"{closed_form_atoms(spec)}")
    print(f"generator: {len(specs)} groups match their closed-form atom "
          f"counts")


def check_workload(cli, name: str, workdir: Path) -> None:
    requests = workloads.to_json(
        workloads.build(name, 7, workdir, ROOT / "data", tiny=True))
    runs = [worker.run_workload(cli, [requests], 7, 1, True)
            for _ in range(2)]
    for run in runs:
        failures = run["passes"][0]["failures"]
        if failures:
            raise AssertionError(f"{name}: tiny requests failed: {failures}")
        layer = run["per_layer"]
        selfs = {k: v for k, v in layer.items() if k.endswith(".self_s")}
        negative = [k for k, v in selfs.items() if v < -1e-9]
        if negative:
            raise AssertionError(f"{name}: negative self time in {negative}")
        if sum(selfs.values()) > layer["trace.wall_s"]:
            raise AssertionError(f"{name}: self times exceed the traced wall")
    counts = [{k: v for k, v in run["per_layer"].items()
               if not k.endswith("_s")} for run in runs]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        raise AssertionError(f"{name}: counts differ across runs: {diff}")
    print(f"{name}: {len(requests)} tiny requests answered as built; "
          f"self times consistent; {len(counts[0])} counts repeat")


def check_tracer(cli) -> None:
    original = cli.main
    missing = "decision.no_such_function"
    tracing.LAYERS["decision"].append("no_such_function")
    try:
        tracer = tracing.Tracer()
        tracer.install()
        if cli.main is original:
            raise AssertionError("cli.main was not wrapped")
        tracer.uninstall()
        calls = tracer.layer_metrics()[f"{missing}.calls"]
    finally:
        tracing.LAYERS["decision"].remove("no_such_function")
    if tracer.absent != [missing]:
        raise AssertionError(f"absent names {tracer.absent}")
    if calls != 0:
        raise AssertionError("an absent name has calls")
    if cli.main is not original:
        raise AssertionError("uninstall did not restore cli.main")
    print("tracer: absent names reported with zero calls; originals restored")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from relalg import cli
    workdir = ROOT / "bench" / ".work" / "selftest"
    try:
        check_generator()
        for name in workloads.BUILDERS:
            check_workload(cli, name, workdir / name)
        check_tracer(cli)
    except (AssertionError, worker.WrongVerdict) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
