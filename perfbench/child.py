"""One scenario run in a fresh process; prints one JSON line.

Usage: ``python3 perfbench/child.py '<json request>'`` where the request
holds ``kind`` (``measure``, ``setup``, ``layers`` or ``coordinator``),
``workload``, ``seed`` and optionally ``backend`` and ``trace_out``.  The
runner (``perfbench/run.py``) starts one child per measured run, so that
each run's peak resident memory is its own.

* ``measure`` — an untraced run.  Setup time is the wall from the
  ``run_scenario`` call until the simulation starts (the first
  ``Simulator.run`` call, or on the process shard backend the first
  epoch of the coordinator).
* ``setup`` — the same run stopped where the simulation would start:
  only its setup time is reported.
* ``layers`` — the traced run: every layer entry point wrapped
  (:func:`tracer.install_layers`), per-layer self times and counts.
* ``coordinator`` — the process shard backend with only the
  coordinator's calls timed (:class:`tracer.CoordinatorClock`).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import tracer as tracing  # noqa: E402


class _SetupDone(Exception):
    """Raised at the end of setup by a ``setup`` run."""


class _SetupClock:
    """Marks when a run leaves setup: first kernel run or first epoch.

    With ``stop`` the run ends there by raising :class:`_SetupDone`; shard
    worker processes are terminated first, since ``run_sharded``'s cleanup
    would otherwise wait out its join timeout on workers blocked in a
    receive.
    """

    def __init__(self, patcher: tracing.Patcher, stop: bool = False):
        from repro.scale import shard
        from repro.sim.core import Simulator

        self.t = None
        clock = time.perf_counter
        me = self
        sim_run = Simulator.__dict__["run"]
        epoch_loop = shard.__dict__["_epoch_loop"]

        def mark(hosts=()):
            if me.t is None:
                me.t = clock()
            if stop:
                for host in hosts:
                    if isinstance(host, shard._ProcessHost):
                        host.handle.process.terminate()
                raise _SetupDone()

        def run(sim, *args, **kwargs):
            mark()
            return sim_run(sim, *args, **kwargs)

        def loop(hosts, *args, **kwargs):
            mark(hosts)
            return epoch_loop(hosts, *args, **kwargs)

        patcher.raw(Simulator, "run", run)
        patcher.raw(shard, "_epoch_loop", loop)


def _rss_mb(result) -> float:
    """Peak RSS of this run: this process plus every shard worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = 0.0
    if result.perf.get("backend") == "process":
        workers = sum(row.get("rss_kb", 0.0) for row in result.shards)
    return (own + workers) / 1024.0


def _summary(workload: str, result, wall: float) -> dict:
    return {
        "seed": result.seed,
        "wall_s": wall,
        "completed": result.completed,
        "started": common.started(result),
        "aborted": result.aborted,
        "violations": result.violations,
        "fingerprint": common.fingerprint(result),
        "headline": common.headline_latency(workload, result),
        "errors": (
            ["%d RYW auditor violations" % result.violations]
            if result.violations else []
        ),
    }


def measure(req: dict) -> dict:
    scale = common.import_repro()
    workload, seed = req["workload"], req["seed"]
    backend = req.get("backend")
    kwargs = common.run_kwargs(workload, seed, backend)
    patcher = tracing.Patcher()
    setup = _SetupClock(patcher)
    try:
        t0 = time.perf_counter()
        result = scale.run_scenario(**kwargs)
        wall = time.perf_counter() - t0
    finally:
        patcher.undo()
    out = _summary(workload, result, wall)
    out["rss_mb"] = _rss_mb(result)
    out["setup_s"] = setup.t - t0
    out["errors"] += common.mechanism_errors(
        workload, result, kwargs.get("shard_backend")
    )
    return out


def setup(req: dict) -> dict:
    scale = common.import_repro()
    kwargs = common.run_kwargs(req["workload"], req["seed"], req.get("backend"))
    patcher = tracing.Patcher()
    clock = _SetupClock(patcher, stop=True)
    try:
        t0 = time.perf_counter()
        try:
            scale.run_scenario(**kwargs)
        except _SetupDone:
            pass
        else:
            raise RuntimeError("the run never left setup")
    finally:
        patcher.undo()
    return {"seed": req["seed"], "setup_s": clock.t - t0}


def layers(req: dict) -> dict:
    scale = common.import_repro()
    from repro.scale.engine import _Engine

    workload, seed = req["workload"], req["seed"]
    kwargs = common.run_kwargs(workload, seed, req.get("backend"))
    tracer = tracing.Tracer()
    patcher = tracing.Patcher(tracer)
    tracing.install_layers(patcher)
    engines = []
    booted = []
    prepare = _Engine.__dict__["prepare"]

    def counting_prepare(engine):
        prepare(engine)
        engines.append(engine)
        marks = getattr(engine.driver, "_booted", None)
        booted.append(sum(marks) if marks is not None else engine.driver.n)

    patcher.raw(_Engine, "prepare", counting_prepare)
    root = tracer.name_id("run")
    try:
        t0 = time.perf_counter()
        tracer.enter(root)
        try:
            result = scale.run_scenario(**kwargs)
        finally:
            tracer.leave()
        wall = time.perf_counter() - t0
        tracer.finish()
    finally:
        patcher.undo()

    layer_self = tracer.layer_self_s()
    other = layer_self.pop("run")
    closure = (sum(layer_self.values()) + other - tracer.stat("run", "incl_s"))
    n_started = common.started(result)
    events = sum(e.sim._seq for e in engines)
    planned = result.counters.get("replacements_planned", 0)
    executed = result.counters.get("replaced", 0)
    orch_log = getattr(result, "orch_log", None) or []
    m = {
        "engine.prepare_s": tracer.stat("engine.prepare", "incl_s"),
        "engine.bootstrap_ues": sum(booted),
        "traffic.arrivals": tracer.stat("traffic.arrival", "calls"),
        "sim.events": events,
        "sim.events_per_proc": events / max(1, n_started),
        "lane.admit_ratio": result.lane.get("admitted", 0) / max(1, n_started),
        "lane.fallback": result.lane.get("fallback", 0),
        "lane.spills": result.lane.get("spills", 0),
        "core.hop_calls": tracer.stat("core.hop", "calls"),
        "core.hop_s": tracer.stat("core.hop"),
        "core.uplink_s": tracer.stat("core.uplink"),
        "core.ckpt_ships": tracer.stat("core.ckpt", "created"),
        "core.ckpt_s": tracer.stat("core.ckpt"),
        "core.cta_ingest_s": tracer.stat("core.cta_ingest"),
        "core.replay_msgs": tracer.stat("core.replay", "calls"),
        "faults.transit_s": tracer.stat("faults.transit"),
        "replace.planned": planned,
        "replace.executed": executed,
        "replace.useful_ratio": executed / planned if planned else 0.0,
        "replace.scan_calls": tracer.stat("replace.scan", "calls"),
        "replace.scan_s": tracer.stat("replace.scan"),
        "replace.exec_s": tracer.stat("replace.exec"),
        "orch.ticks": tracer.stat("orch.observe", "calls"),
        "orch.actions": len(orch_log),
        "orch.tick_s": layer_self.get("orch", 0.0),
        "shard.epochs": result.perf.get("epochs", 0),
        "shard.migrations": common.migrations(result),
        "other.self_s": other,
    }
    for layer in common.LAYERS:
        m[layer + ".self_s"] = layer_self.get(layer, 0.0)
    out = _summary(workload, result, wall)
    out["metrics"] = m
    out["closure_s"] = closure
    out["spans_total"] = tracer.spans_total
    if req.get("trace_out"):
        tracer.write_chrome(
            req["trace_out"],
            {"workload": workload, "seed": seed, "run": kwargs, "wall_s": wall},
        )
    return out


def coordinator(req: dict) -> dict:
    scale = common.import_repro()
    workload, seed = req["workload"], req["seed"]
    kwargs = common.run_kwargs(workload, seed, "process")
    clock = tracing.CoordinatorClock()
    patcher = tracing.Patcher()
    clock.install(patcher)
    try:
        t0 = time.perf_counter()
        result = scale.run_scenario(**kwargs)
        wall = time.perf_counter() - t0
    finally:
        patcher.undo()
    out = _summary(workload, result, wall)
    out["metrics"] = clock.metrics(result.n_shards, result.perf["epochs"])
    out["errors"] += common.mechanism_errors(workload, result, "process")
    return out


def main() -> int:
    req = json.loads(sys.argv[1])
    out = {"measure": measure, "setup": setup, "layers": layers,
           "coordinator": coordinator}[
        req["kind"]
    ](req)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
