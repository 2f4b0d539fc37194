"""Run one workload's requests through `relalg.cli.main` in this process.

Usage: python3 bench/worker.py MANIFEST RESULT

MANIFEST is the JSON the benchmark wrote (input sets, seed, number of
passes, time limit, trace).  One client sends one request at a time (a
closed loop) in a seeded order, for the given number of passes; each pass
takes the next input set.  After each pass every answer is checked
against the one known by construction.  RESULT receives the timings, the counts and
the process's peak RSS; a wrong verdict writes the reason instead and
exits 3.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import gen
import tracing


class WrongVerdict(Exception):
    pass


class Reference:
    """A fixed computation of the benchmark's own, timed between requests.

    The speed of a shared machine drifts by a quarter or more over
    minutes.  A request's latency divided by the mean of the reference
    times measured just before and just after it keeps relalg's cost and
    drops most of that drift; the benchmark reports such ratios in `ref`
    units beside the raw seconds.
    """

    def __init__(self):
        self.orb = gen.pair_orbits(15, gen.z3_triangles(5, random.Random(0)))
        self.perm = list(range(self.orb.n_atoms))

    def seconds(self) -> float:
        t0 = perf_counter()
        gen.read_ra(gen.ra_text(gen.structure_of(self.orb, self.perm)))
        return perf_counter() - t0


def run_request(cli, argv: list[str]) -> tuple[int | str, str, float]:
    """(status, stdout, seconds).  The status is the exit code, or the
    exception class name for SystemExit and uncaught exceptions."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit:
        status = "SystemExit"
    except Exception as exc:  # counted as a failed request, never dropped
        status = type(exc).__name__
    return status, out.getvalue(), perf_counter() - t0


def run_pass(cli, requests: list[dict], order: list[int], ref: Reference,
             tracer: tracing.Tracer | None = None) -> dict:
    """One pass in `order`, with a reference timing before and after every
    request; returns the latencies in seconds and in `ref` units, and the
    failures.  Raises WrongVerdict if a finished request gave the wrong
    answer."""
    results = []
    refs = [ref.seconds()]
    for k in order:
        if tracer is not None:
            tracer.request = k
        results.append(run_request(cli, requests[k]["argv"]))
        refs.append(ref.seconds())
    failures: dict[str, int] = {}
    latencies = [0.0] * len(requests)
    in_ref = [0.0] * len(requests)
    for i, (k, (status, out, dt)) in enumerate(zip(order, results)):
        latencies[k] = dt
        in_ref[k] = dt / ((refs[i] + refs[i + 1]) / 2)
        req = requests[k]
        if status in (0, 2):
            wrong = checks.wrong_verdict(req["check"], req["expect"],
                                         status, out)
            if wrong:
                raise WrongVerdict(f"{req['label']}: {wrong}")
        else:
            key = f"exit {status}" if isinstance(status, int) else status
            failures[key] = failures.get(key, 0) + 1
    return {"wall_s": sum(latencies), "wall_ref": sum(in_ref),
            "ref_s": statistics.mean(refs),
            # indexed by request, not by position in the pass
            "latencies_s": latencies, "latencies_ref": in_ref,
            "failures": failures}


def run_workload(cli, sets: list[list[dict]], seed: int, n_passes: int,
                 trace: bool, limit_s: float = math.inf) -> dict:
    """`n_passes` closed-loop passes; pass i runs the requests of input set
    i (cycling), in a seeded order.  The number of passes is fixed, not
    timed, so that the requests run, and so the failure counts, repeat
    exactly for a seed.  A pass that would end past `limit_s` is not
    started; that only guards the run's time on a very slow machine.
    With `trace`, every pass runs the first input set and is followed by a
    traced pass over the same requests, so that every count repeats; the
    traced passes give the per-layer numbers, and the difference in wall
    time gives the tracing overhead."""
    rng = random.Random(f"order/{seed}")
    ref = Reference()
    start = perf_counter()
    longest = 0.0
    passes, traced, layer_runs, absent = [], [], [], []
    while len(passes) < n_passes:
        if passes and perf_counter() - start + longest > limit_s:
            break
        began = perf_counter()
        requests = sets[0 if trace else len(passes) % len(sets)]
        order = list(range(len(requests)))
        rng.shuffle(order)
        passes.append(run_pass(cli, requests, order, ref))
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced.append(run_pass(cli, requests, order, ref, tracer))
            finally:
                tracer.uninstall()
            layer_runs.append(tracer.layer_metrics())
            absent = tracer.absent
        longest = max(longest, perf_counter() - began)
    result = {"passes": passes}
    if trace:
        per_layer = {k: statistics.median_low(r[k] for r in layer_runs)
                     for k in layer_runs[0]}
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        untraced_wall = statistics.median(p["wall_s"] for p in passes)
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.overhead_s"] = traced_wall - untraced_wall
        per_layer["trace.ref_s"] = statistics.median(
            p["ref_s"] for p in traced)
        result["per_layer"] = per_layer
        result["absent"] = absent
    return result


def main(manifest_path: str, result_path: str) -> int:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    sys.path.insert(0, manifest["src"])
    from relalg import cli  # the checkout's own source, not an install
    try:
        result = run_workload(cli, manifest["sets"], manifest["seed"],
                              manifest["passes"], manifest["trace"],
                              manifest["limit_s"])
    except WrongVerdict as exc:
        Path(result_path).write_text(json.dumps({"wrong": str(exc)}))
        return 3
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
