"""The repository benchmark: city-scale control-plane runs, end to end and
per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lane-paging --seed 1 --seconds 20 --trace 0

Every run goes through the public ``repro.scale.run_scenario`` entry
point in a fresh child process (``perfbench/child.py``), so each run's
peak memory is its own.  A benchmark seed stands for a fixed list of
scenario seeds (``common.sub_seeds``); the runner plays them round after
round until the measured time is closest to ``--seconds``, with at least
one full round,
after ``SETUP_PROBES`` set-up-only runs that add samples to ``setup_s``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with every layer entry point wrapped,
and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when a run's fingerprint differs from its pin
or from another run of the same scenario seed, when the consistency
auditor reports a violation, or when a mechanism check fails.
Workload definitions and their rationale are in
``perfbench/workloads.json``; pinned fingerprints in
``perfbench/fingerprints.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: every run of this script ends within this many seconds
DEADLINE_S = 170.0

#: set-up-only child runs per benchmark run, on top of the set-up of
#: every measured run, so that ``setup_s`` is a median of several cold
#: set-ups even on a workload whose round is a single run
SETUP_PROBES = 6

CHILD = os.path.join(common.HERE, "child.py")
OUT_DIR = os.path.join(common.HERE, "out")

#: the end-to-end table; BENCHMARK.json's ``end_to_end`` names the ones
#: the JSON result carries
TABLE = [
    ("procs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_p50_ms", "ms"),
    ("sim_p95_ms", "ms"),
]


class BenchError(Exception):
    """A run could not produce a result (crash, timeout, bad pin table)."""


class Runner:
    """Starts child runs and stops each one by the overall deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def child(self, req: Dict[str, Any]) -> Dict[str, Any]:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before a %s run" % req["kind"])
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(req)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=common.ROOT,
            start_new_session=True,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("%s run of seed %d timed out" % (req["kind"], req["seed"]))
        if proc.returncode != 0:
            sys.stderr.write(err)
            raise BenchError(
                "%s run of seed %d exited %d" % (req["kind"], req["seed"], proc.returncode)
            )
        return json.loads(out.strip().splitlines()[-1])


def _check_fingerprints(workload: str, seed: int,
                        runs: Dict[int, List[dict]]) -> str:
    """Add an error to every run whose fingerprint differs from its pin or,
    for an unpinned seed, from the first run of the same scenario seed."""
    pins = common.load_pins().get(workload, {}).get(str(seed))
    if pins is not None and len(pins) < len(runs):
        raise BenchError("%d pins for %d scenario seeds" % (len(pins), len(runs)))
    for j, rs in enumerate(runs.values()):
        want = pins[j] if pins is not None else rs[0]["fingerprint"]
        for r in rs:
            if r["fingerprint"] != want:
                r["errors"].append("fingerprint %s, expected %s"
                                   % (r["fingerprint"], want))
    if pins is not None:
        return "pinned"
    return "repeat-checked" if all(len(v) > 1 for v in runs.values()) else "unpinned"


def _failures(every: List[dict]):
    """(problems, failed): a run with any error counts all it started."""
    problems = ["scenario seed %d: %s" % (r["seed"], e)
                for r in every for e in r["errors"]]
    failed = sum(r["started"] if r["errors"] else r["aborted"] + r["violations"]
                 for r in every)
    return problems, failed


def measure(runner: Runner, workload: str, seed: int, seconds: float):
    w = common.WORKLOADS[workload]
    subs = common.sub_seeds(workload, seed)
    runs: Dict[int, List[dict]] = {s: [] for s in subs}
    probes = [runner.child({"kind": "setup", "workload": workload,
                            "seed": subs[j % len(subs)]})
              for j in range(SETUP_PROBES)]
    t0 = time.monotonic()
    rounds = 0
    while True:
        t_round = time.monotonic()
        for sub in subs:
            runs[sub].append(runner.child(
                {"kind": "measure", "workload": workload, "seed": sub}))
        rounds += 1
        now = time.monotonic()
        # stop where the measured time is closest to --seconds (another
        # round would overshoot it by more than this one falls short), or
        # when another round would not end well before the deadline
        took = now - t_round
        if now - t0 + took / 2 >= seconds or now + 2 * took > runner.deadline:
            break
    pin_state = _check_fingerprints(workload, seed, runs)
    every = [r for rs in runs.values() for r in rs]
    problems, failed = _failures(every)

    # each run's own rate, and their median: a burst of load from other
    # tenants of the host that slows one run does not move it
    rates = [r["completed"] / r["wall_s"] for r in every]
    # one cold set-up per fresh process, as a user of the run pays it
    setups = [r["setup_s"] for r in probes + every]
    heads = [rs[0]["headline"] for rs in runs.values()]
    # The simulated percentiles are exact per scenario seed but vary with
    # it: on autoscale-replace the worst region's median has a long tail
    # (a region that queues for the whole storm), so the run reports the
    # median over its scenario seeds.
    metrics = {
        "procs_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_mb"] for r in every),
        "sim_p50_ms": statistics.median(h["p50"] for h in heads),
        "sim_p95_ms": statistics.fmean(h["p95"] for h in heads),
    }
    attempted = sum(r["started"] for r in every)

    print("workload %s  seed %d  (%s, %d UEs, %.1f s simulated, %s, %d shard%s%s)"
          % (workload, seed, w["scenario"], w["n_ue"], w["duration_s"], w["mode"],
             w["shards"], "" if w["shards"] == 1 else "s",
             "" if w["shards"] == 1 else ", " + w["shard_backend"] + " backend"))
    print("scenario seeds %s x %d round%s; fingerprints %s"
          % (" ".join(map(str, subs)), rounds, "" if rounds == 1 else "s", pin_state))
    print("%-8s %9s %9s %8s %8s %8s  %s" % (
        "seed", "wall_s", "setup_s", "started", "done", "rss_mb", "fingerprint"))
    for r in every:
        print("%-8d %9.3f %9.4f %8d %8d %8.1f  %s" % (
            r["seed"], r["wall_s"], r["setup_s"], r["started"], r["completed"],
            r["rss_mb"], r["fingerprint"]))
    samples = {
        "procs_per_s": "median of %d runs; %d procedures / %.2f s in all" % (
            len(every), sum(r["completed"] for r in every),
            sum(r["wall_s"] for r in every)),
        "setup_s": "median of %d set-ups (%d set-up-only runs)" % (
            len(setups), len(probes)),
        "peak_rss_mb": "highest of %d runs" % len(every),
        "sim_p50_ms": "median over scenario seeds; %s in the worst region, n=%s" % (
            heads[0]["procedure"], "/".join(str(h["count"]) for h in heads)),
        "sim_p95_ms": "mean over %d scenario seeds" % len(heads),
    }
    print()
    print("%-16s %14s %-6s %s" % ("metric", "value", "unit", "samples"))
    for name, unit in TABLE:
        print("%-16s %14.6f %-6s %s" % (name, metrics[name], unit, samples[name]))
    print("%-16s %14.6f %-6s %s" % (
        "proc_fail_ratio",
        sum(r["aborted"] + r["violations"] for r in every) / max(1, attempted), "",
        "(aborted + violations) / %d started" % attempted))
    return metrics, attempted, failed, problems


def traced(runner: Runner, workload: str, seed: int):
    w = common.WORKLOADS[workload]
    sharded = w["shards"] != 1
    backend = "inline" if sharded else None
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_out = os.path.join(OUT_DIR, "%s-seed%d.trace.json" % (workload, seed))
    base = {"workload": workload, "seed": seed, "backend": backend}
    ref = runner.child(dict(base, kind="measure"))
    layered = runner.child(dict(base, kind="layers", trace_out=trace_out))
    runs = [ref, layered]
    metrics = dict(layered["metrics"])
    coord_metrics = {
        "shard.spawn_s": 0.0, "shard.compute_max_s": 0.0, "shard.imbalance": 0.0,
        "shard.barrier_wait_s": 0.0, "shard.ipc_s": 0.0,
        "shard.roundtrip_s": 0.0, "shard.merge_s": 0.0,
    }
    if sharded:
        coord = runner.child(dict(base, kind="coordinator"))
        runs.append(coord)
        coord_metrics = coord["metrics"]
    metrics.update(coord_metrics)
    metrics["trace.wall_s"] = layered["wall_s"]
    metrics["trace.overhead"] = layered["wall_s"] / ref["wall_s"]

    wall = layered["wall_s"]
    if abs(layered["closure_s"]) > 1e-6 * wall:
        layered["errors"].append("layer self times miss the traced wall by %.6f s"
                                 % layered["closure_s"])
    _check_fingerprints(workload, seed, {seed: runs})
    problems, _failed = _failures(runs)

    print("workload %s  seed %d  traced run%s" % (
        workload, seed, " (inline shards; coordinator timed on the process backend)"
        if sharded else ""))
    print("untraced wall %.3f s, traced wall %.3f s, trace.overhead %.3f, "
          "%d spans (trace file %s)" % (
              ref["wall_s"], wall, metrics["trace.overhead"], layered["spans_total"],
              os.path.relpath(trace_out, common.ROOT)))
    print()
    print("%-10s %10s %7s" % ("layer", "self_s", "share"))
    total = 0.0
    for layer in common.LAYERS + ("other",):
        value = metrics[layer + ".self_s"]
        total += value
        print("%-10s %10.4f %6.1f%%" % (layer, value, 100.0 * value / wall))
    print("%-10s %10.4f %6.1f%%  (traced wall %.4f s)" % (
        "sum", total, 100.0 * total / wall, wall))
    print()
    for name in sorted(metrics):
        print("%-24s %16.6f" % (name, metrics[name]))
    attempted = layered["started"]
    failed = attempted if problems else layered["aborted"] + layered["violations"]
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not common.have_source():
        sys.stderr.write("perfbench: no repro sources under %s\n" % common.SRC)
        return 2
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [(m["name"], m["unit"])
             for m in bench["per_layer" if args.trace else "end_to_end"]]
    runner = Runner(time.monotonic() + DEADLINE_S)
    try:
        if args.trace:
            metrics, attempted, failed, problems = traced(
                runner, args.workload, args.seed)
        else:
            metrics, attempted, failed, problems = measure(
                runner, args.workload, args.seed, args.seconds)
        missing = [n for n, _u in names if n not in metrics]
        if missing:
            raise BenchError("no value for metrics %s" % missing)
    except BenchError as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 1
    for p in problems:
        print("FAILED CHECK: %s" % p)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
