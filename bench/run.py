"""relalg benchmark: seeded verdict workloads driven through the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload z2-decide --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py):
  z2-decide     decide-z2 --verify on shuffled involution structures, with
                classify and two catalog rejects: search, extraction and
                validation on the accepting path
  orbit-reject  rel, decide-z2 and axioms on actions with an orbit of 3 or
                more points; search never runs
  iso-search    iso on shuffled copies and on non-isomorphic pairs of
                equal atom count, and check-action

The inputs are written from the seed into bench/.work/, as several
independently relabelled input sets, one per pass in turn, and removed at
the end.  setup_s is measured on fresh `python -m relalg.cli` processes,
against bare interpreter starts (see setup_seconds); the requests then run in one worker process (worker.py) that imports relalg
from src/.  The number of passes follows from --seconds and the workload's
nominal pass time (PASS_SECONDS), not from a clock, so that a seed always
runs the same requests and gets the same failure counts; on hardware like
the reference machine a run measures about --seconds.  With --trace 0 the
last line of output holds the end-to-end metrics, with --trace 1 the
per-layer metrics of traced passes.  The line before it records the settings and the details behind the metrics.  A
wrong verdict prints "correct": false and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 15
# Wall time of a bare `python -c pass` on the reference machine (below).
BARE_START_S = 0.06
# Seconds one untraced pass of each workload takes, requests and reference
# timings together, on the reference machine: a 2-vCPU x86-64 VM under
# Python 3.11.  A run makes
# round(--seconds / this) passes, at least one; a traced run makes
# iterations of an untraced and a traced pass, TRACED_FACTOR times as long.
PASS_SECONDS = {"z2-decide": 7.5, "orbit-reject": 5.8, "iso-search": 7.6}
TRACED_FACTOR = 2.2
# No pass is started that would end later than this many times --seconds
# (and 120 s) after the first: a guard for very slow machines only.
LIMIT_FACTOR = 2.5
# Each pass takes the next of these input sets, relabelled from the seed
# independently, so that a run averages the search's luck over several
# shuffles of every input instead of depending on one.
INPUT_SETS = 6
WORKER_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail_percentile(per_pass: int) -> float:
    """The highest ladder percentile with at least 10 of one pass's
    samples beyond it; every run has at least one pass, so the chosen
    percentile depends on the workload only."""
    for p in TAIL_LADDER:
        if per_pass - math.ceil(p / 100 * per_pass) >= 10:
            return p
    raise ValueError(f"a pass of {per_pass} requests has no tail")


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    per_pass = PASS_SECONDS[workload] * (TRACED_FACTOR if trace else 1)
    return max(1, round(seconds / per_pass))


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


def _launch(argv: list[str], env: dict) -> tuple[int, float]:
    """Exit code and wall time of one fresh interpreter process."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    # a blocking wait: wait(timeout=...) polls in steps of up to 50 ms,
    # which would quantize the measurement
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        status = proc.wait()
    finally:
        killer.cancel()
    return status, perf_counter() - t0


def setup_seconds(req: workloads.Request) -> tuple[float, dict]:
    """setup_s, and the raw seconds behind it.

    Fresh `python -m relalg.cli` processes run the request (interpreter
    start, import, argparse, parse and answer), each right after a bare
    `python -c pass`.  The speed of a shared machine shifts by a quarter
    or more for minutes at a time, and both launches shift alike, so
    setup_s is the median ratio of the two scaled by BARE_START_S: the
    set-up time in seconds at the reference machine's speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    bare, full = [], []
    for _ in range(SETUP_LAUNCHES):
        bare.append(_launch(["-c", "pass"], env)[1])
        status, dt = _launch(["-m", "relalg.cli", *req.argv], env)
        full.append(dt)
        if status != req.expect:
            raise RuntimeError(f"setup request {req.label} exited "
                               f"{status}, expected {req.expect}")
    ratio = statistics.median(f / b for f, b in zip(full, bare))
    return ratio * BARE_START_S, {"setup_raw_s": statistics.median(full),
                                  "bare_start_s": statistics.median(bare)}


def settings(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "budget": workloads.BUDGET, "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count()}


def summary(result: dict, per_pass: int) -> tuple[int, int, dict]:
    """Attempted and failed request counts, and the details behind them."""
    passes = result["passes"]
    attempted = per_pass * len(passes)
    failed = sum(sum(p["failures"].values()) for p in passes)
    details = {"passes": len(passes), "requests_per_pass": per_pass,
               "first_pass_failures": passes[0]["failures"]}
    return attempted, failed, details


def _latency_stats(passes: list[dict], unit: str, p_tail: float):
    lat = [x for p in passes for x in p[f"latencies_{unit}"]]
    return (statistics.median(p[f"wall_{unit}"] for p in passes),
            statistics.median(lat), nearest_rank(lat, p_tail))


def end_to_end(result: dict, setup_s: float, p_tail: float,
               completed_frac: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw seconds behind the `ref` ones."""
    passes = result["passes"]
    wall_ref, p50_ref, tail_ref = _latency_stats(passes, "ref", p_tail)
    wall_s, p50_s, tail_s = _latency_stats(passes, "s", p_tail)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_ref": (wall_ref, "ref"),
        "request_p50_ref": (p50_ref, "ref"),
        "request_tail_ref": (tail_ref, "ref"),
        "completed_frac": (completed_frac, "ratio"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    raw = {"wall_s": wall_s, "request_p50_ms": p50_s * 1000,
           "request_tail_ms": tail_s * 1000,
           "ref_s": statistics.median(p["ref_s"] for p in passes),
           "pass_walls_s": [p["wall_s"] for p in passes]}
    return metrics, raw


def per_layer(result: dict, requests) -> dict:
    units = {"calls": "count", "failed": "count", "total_s": "s",
             "self_s": "s", "found_ratio": "ratio",
             "budget_exceeded": "count", "wall_s": "s", "overhead_s": "s",
             "ref_s": "s"}
    metrics = {k: (v, units[k.rsplit(".", 1)[1]])
               for k, v in result["per_layer"].items()}
    for k, name in enumerate(("base_points", "atoms", "cycles")):
        metrics[f"input.{name}"] = (sum(r.sizes[k] for r in requests), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relalg" / "cli.py").is_file():
        print(f"error: no relalg source under {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / "bench" / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        n_passes = pass_count(args.workload, args.seconds, args.trace)
        # a traced run repeats the first set, so that its counts repeat
        sets = [workloads.build(args.workload, f"{args.seed}/{k}",
                                workdir / f"set{k}", ROOT / "data")
                for k in range(1 if args.trace
                               else min(INPUT_SETS, n_passes))]
        requests = sets[0]
        if not args.trace:
            setup_s, setup_raw = setup_seconds(workloads.smallest(requests))
        manifest = workdir / "manifest.json"
        manifest.write_text(json.dumps({
            "src": str(SRC), "seed": args.seed,
            "passes": n_passes,
            "limit_s": min(LIMIT_FACTOR * args.seconds, 120),
            "trace": bool(args.trace),
            "sets": [workloads.to_json(r) for r in sets]}), encoding="utf-8")
        result_path = workdir / "result.json"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")),
             str(manifest), str(result_path)],
            cwd=ROOT, timeout=WORKER_TIMEOUT_S)
        if proc.returncode not in (0, 3):
            print(f"error: worker exited {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if "wrong" in result:
        print(f"wrong verdict: {result['wrong']}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    attempted, failed, details = summary(result, len(requests))
    if args.trace:
        metrics = per_layer(result, requests)
        details["absent"] = result["absent"]
    else:
        p_tail = tail_percentile(len(requests))
        metrics, raw = end_to_end(result, setup_s, p_tail,
                                  (attempted - failed) / attempted)
        details.update({"tail_percentile": p_tail, "latency_samples": attempted,
                        "samples_beyond_tail":
                            attempted - math.ceil(p_tail / 100 * attempted),
                        "raw": {**raw, **setup_raw}})
    print(json.dumps({"settings": settings(args), "details": details}))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
