"""Run one workload in the measurement process and turn it into metrics."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from .common import STATE_DIR, environment, median, percentile, usable_cores
from .tracer import Tracer, install

#: End-to-end metrics and their units, in ``BENCHMARK.json`` order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "schedules_per_s": "1/s",
    "ops_per_s": "1/s",
    "ops_request_p50_ms": "ms",
    "ops_request_p99_ms": "ms",
    "close_request_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units, in ``BENCHMARK.json`` order.
PER_LAYER_UNITS = {
    "explorer.schedules.busy_s": "s",
    "explorer.trie_executor.busy_s": "s",
    "explorer.batch_kernel.rows": "count",
    "explorer.batch_kernel.ejected_rows": "count",
    "explorer.memo.busy_s": "s",
    "explorer.memo.classified": "count",
    "explorer.memo.hit_ratio": "ratio",
    "persist.store.commit_s": "s",
    "persist.store.commits": "count",
    "persist.store.save_s": "s",
    "persist.store.saves": "count",
    "persist.store.save_growth": "ratio",
    "distrib.queue.busy_s": "s",
    "distrib.queue.leases": "count",
    "distrib.queue.reclaims": "count",
    "distrib.runner.wait_s": "s",
    "distrib.runner.worker_busy_s": "s",
    "distrib.runner.fenced_results": "count",
    "explorer.reduction.busy_s": "s",
    "explorer.reduction.executed_ratio": "ratio",
    "engine.scheduler.busy_s": "s",
    "engine.scheduler.runs": "count",
    "testbed.busy_s": "s",
    "workloads.scenarios.manifests_s": "s",
    "service.online.busy_s": "s",
    "service.online.ops": "count",
    "service.online.certificates": "count",
    "service.server.other_s": "s",
    "service.server.retained_streams": "count",
    "residual_s": "s",
}


class Tracing:
    """Whether this run is traced, and where traced processes write spans."""

    def __init__(self, tracer: Optional[Tracer], undo,
                 worker_dir: Optional[Path] = None,
                 server_trace: Optional[Path] = None) -> None:
        self.tracer = tracer
        self.undo = undo
        self.worker_dir = worker_dir
        self.server_trace = server_trace

    @classmethod
    def for_run(cls, traced: bool, workload: str, workdir: Path) -> "Tracing":
        if not traced:
            return cls(None, None)
        tracer = Tracer("main")
        worker_dir = workdir / "worker-traces"
        worker_dir.mkdir(parents=True, exist_ok=True)
        undo = install(tracer, worker_dump_dir=worker_dir)
        server_trace = (workdir / "server-trace.json"
                        if workload == "certifier-tcp" else None)
        return cls(tracer, undo, worker_dir, server_trace)

    @property
    def enabled(self) -> bool:
        return self.tracer is not None

    def on(self) -> None:
        if self.tracer is not None:
            self.tracer.enabled = True

    def off(self) -> None:
        if self.tracer is not None:
            self.tracer.enabled = False


def _execute(workload: str, state: Dict[str, Any], workdir: Path, seed: int,
             seconds: float, tracing: Tracing) -> Dict[str, Any]:
    if workload in ("campaign-sampled", "distrib-2w"):
        from . import campaigns
        return campaigns.run(state, workdir, seed, seconds,
                             workload == "distrib-2w", tracing)
    if workload == "table4-explored":
        from . import table4
        return table4.run(state, workdir, seed, seconds, tracing)
    from . import certifier
    return certifier.run(state, seed, seconds)


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end figures of one run (``setup_s`` is added by the caller).

    Every figure is a median over the run's segments (campaigns, passes or
    rounds) of that segment's rate or latency percentile, so a burst of
    interference from other guests on the host moves a few segments, not the
    run's figure.
    """
    segments = result["segments"]

    def over_segments(samples: str, q: float) -> float:
        return median([percentile(s[samples], q) for s in segments])

    return {
        "schedules_per_s": median([s["schedules"] / s["wall_s"] for s in segments]),
        "ops_per_s": median([s["ops"] / s["wall_s"] for s in segments]),
        "ops_request_p50_ms": over_segments("request_ms", 0.50),
        "ops_request_p99_ms": over_segments("request_ms", 0.99),
        "close_request_p50_ms": over_segments("close_ms", 0.50),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _load(path: Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _growth(samples: List[float]) -> float:
    """Median of the last tenth of the samples over the median of the first."""
    tenth = len(samples) // 10
    if tenth < 1:
        return 0.0
    return median(samples[-tenth:]) / median(samples[:tenth])


def layer_metrics(workload: str, result: Dict[str, Any], tracing: Tracing,
                  wall: float) -> Dict[str, Any]:
    """Per-layer metrics plus the accounting of the traced wall time.

    The accounting timeline is the process that blocks the result: the
    campaign process, the distrib supervisor, the Table 4 process, and for
    the certifier the two client connections (connection-seconds), whose
    round trips split into server layers and ``service.server.other_s``.
    Layers that ran in other processes (distrib workers) are reported but do
    not enter the sum.
    """
    main = tracing.tracer.to_json()
    others = [_load(path) for path in sorted(tracing.worker_dir.glob("worker-*.json"))]
    if tracing.server_trace is not None:
        others.append(_load(tracing.server_trace))
    processes = [main] + others

    def busy(layer: str) -> float:
        return sum(p["self_s"].get(layer, 0.0) for p in processes)

    def calls(layer: str) -> int:
        return sum(sum(1 for span in p["spans"]
                       if p["names"][span[0]] == layer
                       and (span[3] < 0 or p["spans"][span[3]][0] != span[0]))
                   for p in processes)

    def counted(name: str) -> float:
        return sum(p["counts"].get(name, 0) for p in processes)

    counts = result["counts"]
    rows = sum(r["rows"] for r in result["level_rows"].values())
    ejected = sum(r["ejected_rows"] for r in result["level_rows"].values())
    classified = counts.get("hits", 0) + counts.get("misses", 0) + counts.get("shared_hits", 0)
    covered = counted("explorer.reduction.covered")
    saves = [d for p in processes for d in p["samples"].get("persist.store.save", [])]
    server = others[-1] if tracing.server_trace is not None else None
    other_s = 0.0
    if server is not None:
        other_s = (counts["client_round_trip_s"]
                   - server["inclusive_s"].get("service.server.dispatch", 0.0))
    metrics = {
        "explorer.schedules.busy_s": busy("explorer.schedules"),
        "explorer.trie_executor.busy_s": busy("explorer.trie_executor"),
        "explorer.batch_kernel.rows": rows,
        "explorer.batch_kernel.ejected_rows": ejected,
        "explorer.memo.busy_s": busy("explorer.memo"),
        "explorer.memo.classified": classified,
        "explorer.memo.hit_ratio": ((counts.get("hits", 0) + counts.get("shared_hits", 0))
                                    / classified if classified else 0.0),
        "persist.store.commit_s": busy("persist.store.commit"),
        "persist.store.commits": calls("persist.store.commit"),
        "persist.store.save_s": busy("persist.store.save"),
        "persist.store.saves": len(saves),
        "persist.store.save_growth": _growth(saves),
        "distrib.queue.busy_s": busy("distrib.queue"),
        "distrib.queue.leases": counts.get("leases_granted", 0),
        "distrib.queue.reclaims": counts.get("leases_reclaimed", 0),
        "distrib.runner.wait_s": busy("distrib.runner.wait"),
        "distrib.runner.worker_busy_s": sum(p["inclusive_s"].get("distrib.runner.worker", 0.0)
                                            for p in others),
        "distrib.runner.fenced_results": counts.get("fenced_results", 0),
        "explorer.reduction.busy_s": busy("explorer.reduction"),
        "explorer.reduction.executed_ratio": (counted("explorer.reduction.executed") / covered
                                              if covered else 0.0),
        "engine.scheduler.busy_s": busy("engine.scheduler"),
        "engine.scheduler.runs": counted("engine.scheduler.runs"),
        "testbed.busy_s": busy("testbed"),
        "workloads.scenarios.manifests_s": busy("workloads.scenarios.manifests"),
        "service.online.busy_s": busy("service.online"),
        "service.online.ops": counts.get("server_ops", 0),
        "service.online.certificates": counts.get("server_certificates", 0),
        "service.server.other_s": other_s,
        "service.server.retained_streams": counts.get("retained_streams", 0),
    }
    if server is not None:
        timeline = wall * counts["connections"]
        parts = {"service.online": server["self_s"].get("service.online", 0.0),
                 "persist.store.save": server["self_s"].get("persist.store.save", 0.0),
                 "service.server.other": other_s}
    else:
        timeline = wall
        parts = dict(main["self_s"])
    metrics["residual_s"] = timeline - sum(parts.values())
    accounting = {"timeline_s": timeline, "self_s": parts,
                  "residual_s": metrics["residual_s"]}
    trace_dir = STATE_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    with open(trace_dir / f"{workload}.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "accounting": accounting,
                   "processes": processes}, handle, separators=(",", ":"))
    return {"metrics": metrics, "accounting": accounting}


def run_workload(workload: str, state: Dict[str, Any], workdir: Path, seed: int,
                 seconds: float, tracing: Tracing) -> Dict[str, Any]:
    try:
        result = _execute(workload, state, workdir, seed, seconds, tracing)
    finally:
        if tracing.undo is not None:
            tracing.undo()
    figures = end_to_end(result)
    wall = sum(s["wall_s"] for s in result["segments"])
    run: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": tracing.enabled,
        "environment": environment(workdir),
        "level_rows": result["level_rows"],
        "segments": len(result["segments"]),
        "segment_wall_s": [round(s["wall_s"], 4) for s in result["segments"]],
        # Host steal during each segment (virtual machines only): the share
        # of the machine's CPU time the hypervisor gave to other guests.
        "segment_steal_share": [round(s["steal_s"] / s["wall_s"] / usable_cores(), 4)
                                for s in result["segments"]],
        "timed_s": wall,
        "request_samples": sum(len(s["request_ms"]) for s in result["segments"]),
        "close_samples": sum(len(s["close_ms"]) for s in result["segments"]),
        "counts": result["counts"],
        "errors": result["errors"][:20],
        "error_count": len(result["errors"]),
        "end_to_end": figures,
    }
    if tracing.enabled:
        layered = layer_metrics(workload, result, tracing, wall)
        run["accounting"] = layered["accounting"]
        metrics = {name: {"value": layered["metrics"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items() if name != "setup_s"}
    return {"correct": not result["errors"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics, "run": run}


__all__ = ["END_TO_END_UNITS", "PER_LAYER_UNITS", "Tracing", "end_to_end",
           "layer_metrics", "run_workload"]
