"""Span tracer that wraps the simulator's layer entry points from outside.

Nothing in ``src/repro`` knows about this module: :func:`install_layers`
and :class:`CoordinatorClock` patch class and module attributes of an
already-imported ``repro`` with timing wrappers through a
:class:`Patcher`, whose ``undo`` puts the originals back.

Each wrapped call, and each *resume* of a wrapped generator, is one span
with a name, a start, an end and a parent span.  Generators matter here:
the kernel drives procedures, lane walks, checkpoint ships, traffic and
re-placement as generators, and timing only the call that creates one
would charge all of its work to whichever span happens to resume it.

Self time is computed online (span duration minus the time its child
spans cover), so the per-layer totals are exact for every span, while
only the first ``keep`` spans are retained for the Chrome trace file.
A span name is ``<layer>.<what>``; the layer is everything before the
first dot.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans kept for the trace file; the totals count every span.
DEFAULT_KEEP = 50_000


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self, keep: int = DEFAULT_KEEP):
        self.keep = keep
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        #: duration of outermost spans of a name (a name nested in itself
        #: is counted once)
        self.incl_s: List[float] = []
        self.created: List[int] = []
        self._active: List[int] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.spans_total = 0
        self._stack: List[list] = []
        self._counter = itertools.count()
        self.enter, self.leave = self._make_hooks()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self.created.append(0)
            self._active.append(0)
        return nid

    def _make_hooks(self) -> Tuple[Callable[[int], None], Callable[[], None]]:
        clock = time.perf_counter
        stack = self._stack
        counter = self._counter
        calls, self_s, incl_s, active = (
            self.calls, self.self_s, self.incl_s, self._active,
        )
        keep = self.keep
        s_name, s_start, s_end, s_parent = (
            self.span_name, self.span_start, self.span_end, self.span_parent,
        )

        def enter(nid: int) -> None:
            calls[nid] += 1
            active[nid] += 1
            # [name, start, child seconds, span index]
            stack.append([nid, clock(), 0.0, next(counter)])

        def leave() -> None:
            end = clock()
            nid, start, child, idx = stack.pop()
            dur = end - start
            self_s[nid] += dur - child
            active[nid] -= 1
            if not active[nid]:
                incl_s[nid] += dur
            parent = -1
            if stack:
                top = stack[-1]
                top[2] += dur
                parent = top[3]
            if idx < keep:
                s_name.append(nid)
                s_start.append(start)
                s_end.append(end)
                s_parent.append(parent)

        return enter, leave

    def finish(self) -> None:
        self.spans_total = next(self._counter)
        if self._stack:
            raise RuntimeError(
                "unbalanced spans at finish: %s"
                % [self.names[f[0]] for f in self._stack]
            )

    # -- summaries ---------------------------------------------------------

    def stat(self, name: str, what: str = "self_s") -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return getattr(self, what)[nid]

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.self_s[nid]
        return out

    def table(self) -> List[Dict[str, Any]]:
        return [
            {
                "name": name,
                "calls": self.calls[nid],
                "created": self.created[nid],
                "self_s": self.self_s[nid],
                "incl_s": self.incl_s[nid],
            }
            for nid, name in enumerate(self.names)
        ]

    def write_chrome(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the kept spans as a Chrome/Perfetto ``traceEvents`` file."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        events = [
            {
                "name": self.names[self.span_name[i]],
                "cat": self.names[self.span_name[i]].split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (self.span_start[i] - t0) * 1e6,
                "dur": (self.span_end[i] - self.span_start[i]) * 1e6,
                "args": {"span": i, "parent": self.span_parent[i]},
            }
            for i in range(len(self.span_name))
        ]
        meta = dict(meta)
        meta["spans_total"] = self.spans_total
        meta["spans_kept"] = len(events)
        meta["per_span"] = self.table()
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "otherData": meta}, fh)


class _TracedGen:
    """Generator proxy: every ``send``/``throw`` is one span.

    Implements the generator protocol, so the kernel, the lane's
    ``gen.send`` loop and ``yield from`` delegation all drive it exactly
    as they drive the generator it wraps.
    """

    __slots__ = ("_gen", "_nid", "_enter", "_leave", "__name__")

    def __init__(self, gen, nid, enter, leave, name):
        self._gen = gen
        self._nid = nid
        self._enter = enter
        self._leave = leave
        self.__name__ = name

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        self._enter(self._nid)
        try:
            return self._gen.send(value)
        finally:
            self._leave()

    def throw(self, *args):
        self._enter(self._nid)
        try:
            return self._gen.throw(*args)
        finally:
            self._leave()

    def close(self):
        return self._gen.close()


class Patcher:
    """Installs wrappers on ``(owner, attribute)`` pairs and undoes them."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    def _swap(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def call(self, owner, attr: str, span: str) -> None:
        """Time every call of ``owner.attr`` as span ``span``."""
        fn = owner.__dict__[attr]
        if isinstance(fn, (staticmethod, classmethod)):
            raise TypeError("%s.%s: wrap plain functions only" % (owner, attr))
        nid = self.tracer.name_id(span)
        enter, leave = self.tracer.enter, self.tracer.leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        self._swap(owner, attr, wrapper)

    def gen(self, owner, attr: str, span: str) -> None:
        """Time every resume of the generators ``owner.attr`` returns."""
        fn = owner.__dict__[attr]
        if not inspect.isgeneratorfunction(fn):
            raise TypeError("%s.%s is not a generator function" % (owner, attr))
        tracer = self.tracer
        nid = tracer.name_id(span)
        enter, leave = tracer.enter, tracer.leave
        created = tracer.created

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            created[nid] += 1
            return _TracedGen(fn(*args, **kwargs), nid, enter, leave, fn.__name__)

        self._swap(owner, attr, wrapper)

    def raw(self, owner, attr: str, new) -> None:
        """Replace ``owner.attr`` with ``new`` (restored by :meth:`undo`)."""
        self._swap(owner, attr, new)

    def undo(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def install_layers(patcher: Patcher) -> None:
    """Wrap every in-process layer entry point of ``repro``.

    Layers and span names (``<layer>.<what>``):

    * engine — construction, ``prepare`` and population bootstrap;
    * traffic — the arrival generators and each arrival handler;
    * sim — ``Simulator.run`` (its self time is the kernel's own loop
      plus every scheduled callback no other span claims);
    * lane — batched-lane admission and every walk resume;
    * core — procedure resumes, hops, CPF uplink handling, procedure
      commit, checkpoint-ship resumes, CTA ingest, log replay, fetches;
    * faults — ``FaultInjector.transit_event`` (runs on every hop);
    * replace — stale-placement scans, rebalance and re-placement resumes;
    * orch — health rows, controller decisions, action application;
    * shard — the epoch loop, per-epoch shard steps, migration installs,
      merge (in-process backend only; the coordinator-side timing of
      the process backend is :class:`CoordinatorClock`).
    """
    from repro.core.cpf import CPF
    from repro.core.cta import CTA
    from repro.core.deployment import Deployment
    from repro.faults.injector import FaultInjector
    from repro.orch.controller import Orchestrator
    from repro.scale import shard
    from repro.scale.cohort import BatchedDriver, CohortDriver
    from repro.scale.engine import _Engine
    from repro.scale.lane import LaneRuntime
    from repro.sim.core import Simulator

    p = patcher
    for cls in (_Engine, shard.ShardEngine):
        p.call(cls, "__init__", "engine.init")
        p.call(cls, "prepare", "engine.prepare")
        p.call(cls, "_bootstrap_population", "engine.bootstrap")
    p.gen(_Engine, "_traffic_modeled", "traffic.gen")
    p.gen(_Engine, "_traffic", "traffic.gen")
    for attr in ("_arrival_service", "_arrival_tau", "_arrival_move",
                 "_arrival_storm"):
        p.call(_Engine, attr, "traffic.arrival")
    p.call(Simulator, "run", "sim.run")
    p.gen(LaneRuntime, "walk", "lane.walk")
    p.call(BatchedDriver, "_admit", "lane.admit")
    p.gen(CohortDriver, "run_procedure", "core.procedure")
    p.gen(shard._ShardSlots, "run_procedure", "core.procedure")
    p.call(Deployment, "hop", "core.hop")
    p.call(CPF, "handle_uplink", "core.uplink")
    p.call(CPF, "complete_procedure", "core.complete")
    p.gen(CPF, "_ship", "core.ckpt")
    p.call(CTA, "ingest", "core.cta_ingest")
    p.call(CPF, "replay_message", "core.replay")
    p.gen(CPF, "fetch_state_from", "core.fetch")
    p.call(FaultInjector, "transit_event", "faults.transit")
    p.call(Deployment, "stale_placements", "replace.scan")
    p.gen(_Engine, "_rebalance", "replace.plan")
    p.gen(_Engine, "_replace_one", "replace.exec")
    p.gen(_Engine, "_copy_state", "replace.exec")
    p.call(_Engine, "health_row", "orch.health")
    p.call(Orchestrator, "observe", "orch.observe")
    p.call(_Engine, "apply_actions", "orch.apply")
    p.gen(_Engine, "_orch_loop", "orch.loop")
    p.call(shard._InlineHost, "step_send", "shard.step")
    p.call(shard.ShardEngine, "deliver", "shard.deliver")
    p.call(shard.ShardEngine, "finish_payload", "shard.finish")
    p.call(shard, "_epoch_loop", "shard.loop")
    p.call(shard, "_merge_payloads", "shard.merge")


class CoordinatorClock:
    """Coordinator-side timing of the process shard backend.

    Records, without tracing the shards' insides: the wall from worker
    spawn to the first epoch, each epoch's send and receive legs per
    shard, the merge, and — through a wrapper on the step function that
    forked workers inherit — every shard's compute time per epoch, which
    rides back in the shard's finish payload.
    """

    def __init__(self):
        self.spawn_t0 = None
        self.loop_t0 = None
        self.send_s: List[float] = []
        self.recv_s: List[float] = []
        self.merge_s = 0.0
        self.payload_steps: List[List[float]] = []

    def install(self, patcher: Patcher) -> None:
        from repro.scale import shard

        clock = time.perf_counter
        spawn = shard.__dict__["spawn_workers"]
        loop = shard.__dict__["_epoch_loop"]
        merge = shard.__dict__["_merge_payloads"]
        host_step = shard.__dict__["_host_step"]
        finish_payload = shard.ShardEngine.__dict__["finish_payload"]
        send = shard._ProcessHost.__dict__["step_send"]
        recv = shard._ProcessHost.__dict__["step_recv"]
        me = self
        #: per-process list of step durations (each forked worker
        #: inherits its own empty copy)
        steps: List[float] = []

        def spawn_workers(*args, **kwargs):
            me.spawn_t0 = clock()
            return spawn(*args, **kwargs)

        def epoch_loop(*args, **kwargs):
            me.loop_t0 = clock()
            return loop(*args, **kwargs)

        def merge_payloads(spec, mode, shards, payloads, *rest):
            me.payload_steps = [p.pop("bench_step_s", []) for p in payloads]
            t0 = clock()
            try:
                return merge(spec, mode, shards, payloads, *rest)
            finally:
                me.merge_s += clock() - t0

        def timed_host_step(*args, **kwargs):
            t0 = clock()
            try:
                return host_step(*args, **kwargs)
            finally:
                steps.append(clock() - t0)

        def timed_finish_payload(engine):
            payload = finish_payload(engine)
            payload["bench_step_s"] = list(steps)
            return payload

        def step_send(host, *args, **kwargs):
            t0 = clock()
            try:
                return send(host, *args, **kwargs)
            finally:
                me.send_s.append(clock() - t0)

        def step_recv(host):
            t0 = clock()
            try:
                return recv(host)
            finally:
                me.recv_s.append(clock() - t0)

        patcher.raw(shard, "spawn_workers", spawn_workers)
        patcher.raw(shard, "_epoch_loop", epoch_loop)
        patcher.raw(shard, "_merge_payloads", merge_payloads)
        patcher.raw(shard, "_host_step", timed_host_step)
        patcher.raw(shard.ShardEngine, "finish_payload", timed_finish_payload)
        patcher.raw(shard._ProcessHost, "step_send", step_send)
        patcher.raw(shard._ProcessHost, "step_recv", step_recv)

    def metrics(self, n_shards: int, epochs: int) -> Dict[str, float]:
        """Spawn, barrier, IPC, merge and shard-balance figures."""
        steps = self.payload_steps
        if len(steps) != n_shards or any(len(s) != epochs for s in steps):
            raise RuntimeError(
                "shard step timings incomplete: %d shards x %s epochs, want "
                "%d x %d" % (len(steps), [len(s) for s in steps], n_shards, epochs)
            )
        if len(self.send_s) != n_shards * epochs or len(self.recv_s) != len(
            self.send_s
        ):
            raise RuntimeError("coordinator saw an unexpected number of steps")
        totals = [sum(s) for s in steps]
        slowest = [max(s[e] for s in steps) for e in range(epochs)]
        roundtrip = sum(self.send_s) + sum(self.recv_s)
        return {
            "shard.spawn_s": self.loop_t0 - self.spawn_t0,
            "shard.compute_max_s": max(totals),
            "shard.imbalance": max(totals) / (sum(totals) / n_shards),
            # shard time spent idle at the epoch barrier, waiting for the
            # slowest shard of that epoch
            "shard.barrier_wait_s": sum(
                slowest[e] - s[e] for s in steps for e in range(epochs)
            ),
            # round trip beyond the slowest shard's compute: pickling,
            # pipes and scheduling
            "shard.ipc_s": roundtrip - sum(slowest),
            "shard.roundtrip_s": roundtrip,
            "shard.merge_s": self.merge_s,
        }
