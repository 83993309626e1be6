"""Workloads ``campaign-sampled`` and ``distrib-2w``.

``campaign-sampled`` runs what ``python -m repro campaign run --store <new
file> --program-set contention --mode sample --max-schedules 2000`` runs:
``explore()`` at the five default levels with a fresh SQLite store attached,
then ``persist_result`` and the coverage report.  ``distrib-2w`` runs the same
campaign through ``distrib.CampaignRunner`` with two workers and no faults.

Each campaign is one segment: it opens its own store, and its seed is
``seed * 1000 + campaign index``.  Checks run between campaigns, outside the
timed region.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from . import checks
from .common import (
    CONTENTION_PARAMS,
    level_rows,
    merge_counts,
    peak_rss_mb,
    steal_seconds,
)

#: Schedules sampled per level per campaign, and the campaign chunk size.
SCHEDULES = 2000
CHUNK_SIZE = 64
WORKERS = 2
#: Records per level replayed from scratch after every campaign.
SAMPLE_PER_LEVEL = 20

_clock = time.perf_counter


class StoreClock:
    """A store proxy that times the requests a campaign makes of its store.

    * ``close_ms``: duration of each ``commit_chunk`` / ``save_table4_cell``
      (the request that persists results);
    * ``request_ms``: per-unit latency -- for a distributed campaign from the
      lease grant of a chunk to its commit, otherwise from the previous
      commit (or the segment start) to this one.
    """

    def __init__(self, inner: Any, started: float) -> None:
        self._inner = inner
        self._last = started
        self._granted: Dict[Tuple[str, int], float] = {}
        self.close_ms: List[float] = []
        self.request_ms: List[float] = []
        self.commits = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def _finished(self, began: float, key: Any) -> None:
        done = _clock()
        self.close_ms.append((done - began) * 1e3)
        start = self._granted.pop(key, None) if key is not None else None
        self.request_ms.append((done - (self._last if start is None else start)) * 1e3)
        self._last = done
        self.commits += 1

    def commit_chunk(self, campaign_id: str, scope: str, chunk_index: int,
                     *args: Any, **kwargs: Any) -> Any:
        began = _clock()
        out = self._inner.commit_chunk(campaign_id, scope, chunk_index,
                                       *args, **kwargs)
        self._finished(began, (scope, chunk_index))
        return out

    def save_table4_cell(self, *args: Any, **kwargs: Any) -> Any:
        began = _clock()
        out = self._inner.save_table4_cell(*args, **kwargs)
        self._finished(began, None)
        return out

    def put_lease(self, campaign_id: str, lease: Any) -> Any:
        if lease.state == "leased":
            self._granted[(lease.scope, lease.chunk_index)] = _clock()
        return self._inner.put_lease(campaign_id, lease)


def contention_spec():
    from repro.explorer import ProgramSetSpec
    return ProgramSetSpec.make("contention", **CONTENTION_PARAMS)


def setup(workdir: Path, distributed: bool) -> Dict[str, Any]:
    """Imports and the program set; everything a campaign needs but its store."""
    from repro.explorer import DEFAULT_LEVELS, ExploreOptions, explore
    from repro.persist import SqliteStore
    from repro.persist.analytics import persist_result
    state: Dict[str, Any] = dict(spec=contention_spec(), levels=DEFAULT_LEVELS,
                                 explore=explore, options=ExploreOptions,
                                 store=SqliteStore, persist_result=persist_result)
    if distributed:
        from repro.distrib import CampaignRunner
        state["runner"] = CampaignRunner
    return state


def _capture_accepted():
    """Keep a reference to every chunk result the lease queue accepts."""
    from repro.distrib.queue import LeaseQueue
    accepted: List[Tuple[str, int, tuple]] = []
    original = LeaseQueue.__dict__["complete"]

    def complete(self, scope, chunk_index, token, records):
        ok = original(self, scope, chunk_index, token, records)
        if ok:
            accepted.append((scope, chunk_index, tuple(records)))
        return ok

    LeaseQueue.complete = complete

    def undo() -> None:
        LeaseQueue.complete = original
    return accepted, undo


def _remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(str(path) + suffix).unlink(missing_ok=True)


def _history_ops(records) -> int:
    return sum(len(record.history.split()) for record in records)


def run(state: Dict[str, Any], workdir: Path, seed: int, seconds: float,
        distributed: bool, tracing, schedules: int = SCHEDULES,
        sample_per_level: int = SAMPLE_PER_LEVEL,
        max_segments: int = 10_000) -> Dict[str, Any]:
    spec, levels = state["spec"], state["levels"]
    segments: List[Dict[str, Any]] = []
    errors: List[str] = []
    stats_by_level: Dict[str, Dict[str, int]] = {}
    counts: Dict[str, float] = {}
    attempted = 0
    timed = 0.0
    accepted, undo_capture = (_capture_accepted() if distributed
                              else (None, lambda: None))
    try:
        index = 0
        while index < max_segments and (index == 0 or timed < seconds):
            campaign_seed = seed * 1000 + index
            campaign_id = f"campaign-{campaign_seed}"
            path = workdir / f"{campaign_id}.sqlite"
            _remove_store(path)
            if accepted is not None:
                accepted.clear()

            tracing.on()
            stolen = steal_seconds()
            started = _clock()
            clock = StoreClock(state["store"](path), started)
            try:
                if distributed:
                    result = state["runner"](
                        clock, spec, levels=levels, mode="sample",
                        max_schedules=schedules, seed=campaign_seed,
                        chunk_size=CHUNK_SIZE, workers=WORKERS,
                        campaign_id=campaign_id, deadline_s=120.0).run()
                else:
                    result = state["explore"](spec, state["options"](
                        levels=levels, mode="sample", max_schedules=schedules,
                        seed=campaign_seed, chunk_size=CHUNK_SIZE, store=clock,
                        campaign_id=campaign_id))
                    report = state["persist_result"](clock, campaign_id, result)
                    report.render(title=f"campaign {campaign_id}")
            finally:
                clock.close()
            wall = _clock() - started
            stolen = steal_seconds() - stolen
            tracing.off()
            timed += wall

            if distributed:
                produced, level_stats, more = _distributed_outcome(
                    result, accepted, levels, errors, clock.commits)
            else:
                produced = {level: result.levels[level].records for level in levels}
                level_stats = {level.value: dict(result.levels[level].cache_stats,
                                                 schedules=len(result.levels[level].records))
                               for level in levels}
                more = {key: sum(s.get(key, 0) for s in level_stats.values())
                        for key in ("hits", "misses", "shared_hits")}
            for name, stats in level_stats.items():
                merge_counts(stats_by_level.setdefault(name, {}), stats)
            merge_counts(counts, more)
            covered = sum(len(records) for records in produced.values())
            attempted += covered
            segments.append({"wall_s": wall, "steal_s": stolen, "schedules": covered,
                             "ops": _history_ops(r for rs in produced.values()
                                                 for r in rs),
                             "request_ms": clock.request_ms,
                             "close_ms": clock.close_ms})

            reloaded_store = state["store"](path)
            try:
                reloaded = {level: tuple(reloaded_store.iter_records(campaign_id,
                                                                     level.value))
                            for level in levels}
            finally:
                reloaded_store.close()
            errors.extend(checks.campaign_errors(
                spec, produced, reloaded, sample_per_level, campaign_seed,
                expected_per_level=schedules))
            _remove_store(path)
            index += 1
    finally:
        undo_capture()
    rss = peak_rss_mb()
    if distributed:
        rss = max(rss, peak_rss_mb(children=True))
    return {
        "attempted": attempted,
        "failed": 0,
        "errors": errors,
        "segments": segments,
        "peak_rss_mb": rss,
        "level_rows": level_rows(stats_by_level),
        "counts": counts,
    }


def _distributed_outcome(result, accepted, levels, errors: List[str],
                         store_commits: int):
    """Records per level from the accepted chunk results, plus run checks."""
    scopes = {level.value: level for level in levels}
    if not result.success or result.timed_out:
        errors.append(f"campaign {result.campaign_id} did not complete "
                      f"(success={result.success}, timed_out={result.timed_out})")
    if result.fenced_results:
        errors.append(f"campaign {result.campaign_id}: "
                      f"{result.fenced_results} fenced results")
    if result.poisoned:
        errors.append(f"campaign {result.campaign_id}: poisoned chunks "
                      f"{result.poisoned}")
    seen: Dict[Tuple[str, int], int] = {}
    for scope, chunk, _records in accepted:
        seen[(scope, chunk)] = seen.get((scope, chunk), 0) + 1
    twice = [key for key, times in seen.items() if times != 1]
    if twice:
        errors.append(f"chunks accepted more than once: {twice[:3]}")
    if store_commits != len(seen) or result.committed_chunks != len(seen):
        errors.append(f"{store_commits} store commits and "
                      f"{result.committed_chunks} committed chunks for "
                      f"{len(seen)} distinct chunks")
    produced: Dict[Any, List] = {level: [] for level in levels}
    for scope, _chunk, records in sorted(accepted, key=lambda a: (a[0], a[1])):
        produced[scopes[scope]].extend(records)
    stats = result.stats
    aggregate = {
        "batch_rows_fast": stats.get("worker_batch_rows_fast", 0),
        "batch_rows_ejected": stats.get("worker_batch_rows_ejected", 0),
        "schedules": sum(len(records) for records in produced.values()),
    }
    more = {
        "hits": stats.get("worker_hits", 0),
        "misses": stats.get("worker_misses", 0),
        "shared_hits": stats.get("worker_shared_hits", 0),
        "leases_granted": stats.get("leases_granted", 0),
        "leases_reclaimed": stats.get("leases_reclaimed", 0),
        "fenced_results": stats.get("fenced_results", 0),
    }
    return ({level: tuple(records) for level, records in produced.items()},
            {"all levels": aggregate}, more)
