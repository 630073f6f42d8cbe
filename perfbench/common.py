"""Workload table, fingerprints and result checks shared by the runner and
its per-run child processes."""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: span layers of the traced run, in table order (see tracer.install_layers)
LAYERS = ("engine", "traffic", "sim", "lane", "core", "faults", "replace",
          "orch", "shard")

with open(os.path.join(HERE, "workloads.json")) as _fh:
    CATALOG = json.load(_fh)
WORKLOADS: Dict[str, Dict[str, Any]] = CATALOG["workloads"]


def have_source() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "scale", "engine.py"))


def import_repro():
    """Import ``repro`` from this checkout's ``src`` (never an installed copy)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro.scale

    return repro.scale


def sub_seeds(workload: str, seed: int) -> List[int]:
    """Scenario seeds one benchmark seed stands for (the first is ``seed``).

    Averaging over several scenario seeds per run keeps seed-to-seed
    variation of the workload itself (how many scale-outs, which region
    queues) from dominating the run-to-run spread.
    """
    stride = CATALOG["seed_stride"]
    return [seed + j * stride for j in range(WORKLOADS[workload]["sub_seeds"])]


def load_pins() -> Dict[str, Dict[str, List[str]]]:
    with open(os.path.join(HERE, "fingerprints.json")) as fh:
        return json.load(fh)["pins"]


def run_kwargs(workload: str, seed: int, backend: Optional[str] = None) -> Dict[str, Any]:
    w = WORKLOADS[workload]
    kwargs: Dict[str, Any] = {
        "scenario": w["scenario"],
        "n_ue": w["n_ue"],
        "duration_s": w["duration_s"],
        "seed": seed,
        "mode": w["mode"],
    }
    if w["shards"] != 1:
        kwargs["shards"] = w["shards"]
        kwargs["shard_backend"] = backend or w["shard_backend"]
    return kwargs


#: ScaleResult fields that describe how a run executed, not what it did.
_EXECUTION_FIELDS = ("perf", "lane", "shards", "ledger_path", "mode")


def fingerprint(result) -> str:
    """Hash of the simulated outcome: every result field except execution
    details, plus the controller's action log when there is one."""
    data = result.to_dict()
    for key in _EXECUTION_FIELDS:
        data.pop(key, None)
    orch_log = getattr(result, "orch_log", None)
    if orch_log is not None:
        data["orch_log"] = orch_log
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def started(result) -> int:
    return int(result.counters.get("procedures_started", 0))


def migrations(result) -> int:
    return int(result.counters.get("migrations_out", 0))


def mechanism_errors(workload: str, result, backend: Optional[str] = None) -> List[str]:
    """A workload must keep loading the layer it exists for.

    ``backend`` is the shard backend the run asked for; a run that asked
    for processes must not have fallen back to running inline.
    """
    errors = []
    if backend is not None and result.perf.get("backend") != backend:
        errors.append(
            "asked for shard backend %r, ran %r"
            % (backend, result.perf.get("backend"))
        )
    if workload == "lane-paging":
        ratio = result.lane.get("admitted", 0) / max(1, started(result))
        if ratio < 0.9:
            errors.append("lane admit ratio %.3f < 0.9" % ratio)
    elif workload == "storm-sharded":
        if result.recovered <= 0:
            errors.append("no CTA log recovery (recovered=0)")
        if migrations(result) <= 0:
            errors.append("no cross-shard migrations")
    elif workload == "autoscale-replace":
        if result.counters.get("orch_scale_out", 0) < 1:
            errors.append("controller never scaled out")
        if result.counters.get("replaced", 0) <= 0:
            errors.append("no state re-placement executed")
    return errors


def headline_latency(workload: str, result) -> Dict[str, Any]:
    """Simulated latency of the headline procedure in its worst region
    (the region with the highest p95)."""
    proc = WORKLOADS[workload]["headline_procedure"]
    rows = [
        (row[proc]["p95"], region, row[proc])
        for region, row in result.region_pct_ms.items()
        if proc in row and row[proc].get("p95") is not None
    ]
    if not rows:
        raise RuntimeError("no %s latency samples" % proc)
    _p95, region, stats = max(rows)
    return {
        "procedure": proc,
        "region": region,
        "count": int(stats["count"]),
        "p50": stats["p50"],
        "p95": stats["p95"],
    }
