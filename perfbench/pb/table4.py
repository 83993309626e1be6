"""Workload ``table4-explored``: the paper's Table 4, computed by exploration.

Each pass is one segment: ``compute_table4_explored()`` with its default
levels, scenarios, budget and sleep-set reduction, started with the
``explorer.scenarios`` reduction-plan cache cold, and committing its cells to
a fresh SQLite store as the matrix's resumable-campaign mode does.  The
default budget explores every variant space exhaustively, so the inputs do
not depend on the seed.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List

from . import checks
from .campaigns import StoreClock, _remove_store
from .common import level_rows, merge_counts, peak_rss_mb, steal_seconds

_clock = time.perf_counter


def setup(workdir: Path) -> Dict[str, Any]:
    from repro.analysis.matrix import TABLE_4_LEVELS, compute_table4_explored
    from repro.explorer import scenarios as explorer_scenarios
    from repro.explorer.scenarios import DEFAULT_MAX_SCHEDULES
    from repro.explorer.schedules import schedule_space
    from repro.persist import SqliteStore
    from repro.workloads.scenarios import ALL_SCENARIOS

    # Schedule steps covered by one pass: every variant space, every level.
    steps = 0
    for scenario in ALL_SCENARIOS:
        for variant in scenario.variants:
            space = schedule_space(variant.build_programs(),
                                   max_schedules=DEFAULT_MAX_SCHEDULES)
            steps += space.selected * sum(space.step_counts)
    return dict(compute=compute_table4_explored, plan_cache=explorer_scenarios,
                store=SqliteStore, steps_per_pass=steps * len(TABLE_4_LEVELS))


def run(state: Dict[str, Any], workdir: Path, seed: int, seconds: float,
        tracing, max_segments: int = 10_000) -> Dict[str, Any]:
    segments: List[Dict[str, Any]] = []
    errors: List[str] = []
    per_level: Dict[str, Dict[str, int]] = {}
    attempted = 0
    timed = 0.0
    index = 0
    while index < max_segments and (index == 0 or timed < seconds):
        path = workdir / f"table4-{seed}-{index}.sqlite"
        _remove_store(path)
        state["plan_cache"]._PLAN_CACHE.clear()

        tracing.on()
        stolen = steal_seconds()
        started = _clock()
        clock = StoreClock(state["store"](path), started)
        try:
            table = state["compute"](store=clock,
                                     campaign_id=f"table4-pass-{index}")
        finally:
            clock.close()
        wall = _clock() - started
        stolen = steal_seconds() - stolen
        tracing.off()
        timed += wall

        covered = table.total_schedules()
        attempted += covered
        segments.append({"wall_s": wall, "steal_s": stolen, "schedules": covered,
                         "ops": state["steps_per_pass"],
                         "request_ms": clock.request_ms,
                         "close_ms": clock.close_ms})
        for level, row in table.cells.items():
            # Table 4 runs every schedule on the stepwise engines: the batch
            # kernel takes no rows here.
            merge_counts(per_level.setdefault(level.value, {}), {
                "schedules": sum(cell.schedules for cell in row.values())})
        errors.extend(checks.table4_errors(table))
        _remove_store(path)
        index += 1
    return {
        "attempted": attempted,
        "failed": 0,
        "errors": errors,
        "segments": segments,
        "peak_rss_mb": peak_rss_mb(),
        "level_rows": level_rows(per_level),
        "counts": {},
    }
