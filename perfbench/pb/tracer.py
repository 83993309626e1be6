"""Per-layer spans, recorded from outside the program.

The traced run wraps the public entry points of each layer (the modules of
``src/repro``) with timing shims; the program itself is not edited.  A span
is ``(layer, start, end, parent)``; spans nest by call, so a layer's *self*
time is its spans' duration minus the part covered by child spans.  Spans
are kept in flat arrays while the run is timed and written out as JSON when
the run ends.

Layers instrumented (the layer name is the module path under ``repro``):

=============================  ==============================================
layer                          wrapped calls
=============================  ==============================================
explorer.schedules             ``ScheduleSpace.iter_chunks`` (each chunk),
                               ``ScheduleSpace.schedules``
explorer.trie_executor         ``TrieExecutor.run_batch`` (each schedule;
                               the batch kernel runs inside it)
explorer.memo                  ``BatchClassifier.classify``
persist.store.commit           ``SqliteStore.commit_chunk`` and
                               ``SqliteStore.save_table4_cell``
persist.store.save             ``SqliteStore.save_certificates``
distrib.queue                  every public ``LeaseQueue`` method
distrib.runner.wait            ``multiprocessing.connection.wait`` as the
                               runner calls it
distrib.runner.worker          ``execute_chunk`` inside worker processes
explorer.reduction             ``build_execution_plan`` (Table 4 path)
engine.scheduler               ``ScheduleRunner.run`` / ``.replay``
testbed                        ``make_engine`` and each scenario variant's
                               ``build_database`` (Table 4 path)
workloads.scenarios.manifests  each scenario variant's ``manifests``
service.online                 ``OnlineClassifier.feed_shorthand`` /
                               ``.verdict``
service.server.dispatch        ``CertifierServer._dispatch`` (the server
                               has no public per-request entry point)
=============================  ==============================================
"""

from __future__ import annotations

import json
import os
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "install"]

_clock = time.perf_counter


class Tracer:
    """An in-memory span recorder; records only while ``enabled``."""

    def __init__(self, label: str = "main") -> None:
        self.label = label
        self.enabled = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        #: Counts recorded at the same boundaries as the spans.
        self.counts: Dict[str, float] = {}
        #: Ordered per-call durations kept for layers whose trend matters.
        self.samples: Dict[str, List[float]] = {}

    def reset(self, label: Optional[str] = None) -> None:
        self.__init__(label or self.label)

    # -- recording --------------------------------------------------------------

    def begin(self, name: str) -> int:
        if not self.enabled:
            return -1
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(_clock())
        self._end.append(0.0)
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        """Close a span; returns its duration (0 when it was not recorded)."""
        if index < 0:
            return 0.0
        stop = _clock()
        self._end[index] = stop
        self._stack.pop()
        return stop - self._start[index]

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- analysis ---------------------------------------------------------------

    def times(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(self_time, inclusive_time)`` per layer, in seconds."""
        n = len(self._start)
        covered = [0.0] * n
        for i in range(n):
            parent = self._parent[i]
            if parent >= 0:
                covered[parent] += self._end[i] - self._start[i]
        own: Dict[str, float] = {}
        inclusive: Dict[str, float] = {}
        for i in range(n):
            name = self.names[self._name[i]]
            duration = self._end[i] - self._start[i]
            own[name] = own.get(name, 0.0) + duration - covered[i]
            # Inclusive time counts outermost spans of a layer only, so a
            # layer calling itself is not counted twice.
            parent = self._parent[i]
            if parent < 0 or self._name[parent] != self._name[i]:
                inclusive[name] = inclusive.get(name, 0.0) + duration
        return own, inclusive

    def to_json(self) -> Dict[str, Any]:
        own, inclusive = self.times()
        origin = self._start[0] if len(self._start) else 0.0
        return {
            "process": self.label,
            "pid": os.getpid(),
            "names": list(self.names),
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[self._name[i], round(self._start[i] - origin, 7),
                       round(self._end[i] - origin, 7), self._parent[i]]
                      for i in range(len(self._start))],
            "self_s": own,
            "inclusive_s": inclusive,
            "counts": self.counts,
            "samples": self.samples,
        }

    def dump(self, path: Path) -> None:
        tmp = Path(str(path) + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, separators=(",", ":"))
        os.replace(tmp, path)


# -- wrappers -------------------------------------------------------------------


def _timed(tracer: Tracer, layer: str, func: Callable,
           sample: Optional[str] = None) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = tracer.begin(layer)
        try:
            return func(*args, **kwargs)
        finally:
            duration = tracer.end(index)
            if sample is not None and index >= 0:
                tracer.samples.setdefault(sample, []).append(duration)
    wrapper.__wrapped__ = func  # type: ignore[attr-defined]
    return wrapper


def _timed_generator(tracer: Tracer, layer: str, func: Callable) -> Callable:
    """Time the call and every ``next()`` of the generator it returns."""
    def wrapper(*args: Any, **kwargs: Any) -> Iterator:
        index = tracer.begin(layer)
        try:
            inner = iter(func(*args, **kwargs))
        finally:
            tracer.end(index)
        return _timed_iteration(tracer, layer, inner)
    wrapper.__wrapped__ = func  # type: ignore[attr-defined]
    return wrapper


def _timed_iteration(tracer: Tracer, layer: str, inner: Iterator) -> Iterator:
    while True:
        index = tracer.begin(layer)
        try:
            item = next(inner)
        except StopIteration:
            return
        finally:
            tracer.end(index)
        yield item


class _Patches:
    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class _TimedWait:
    """Stand-in for ``multiprocessing.connection`` whose ``wait`` is timed."""

    def __init__(self, module: Any, tracer: Tracer) -> None:
        self._module = module
        self.wait = _timed(tracer, "distrib.runner.wait", module.wait)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


_QUEUE_METHODS = ("register_scope", "acquire", "next_ready_delay", "renew",
                  "release", "reclaim_expired", "force_expire", "poisoned",
                  "drain_poisoned", "complete", "scope_committed",
                  "all_committed", "outstanding", "has_open_work",
                  "lease_stats")


def install(tracer: Tracer, worker_dump_dir: Optional[Path] = None) -> Callable[[], None]:
    """Wrap every instrumented layer; returns a function that unwraps them.

    ``worker_dump_dir``: where forked distrib workers write their spans when
    they exit (each worker records into its own fresh tracer).
    """
    from repro.distrib import runner as runner_module
    from repro.distrib.queue import LeaseQueue
    from repro.engine.scheduler import ScheduleRunner
    from repro.explorer import scenarios as explorer_scenarios
    from repro.explorer.memo import BatchClassifier
    from repro.explorer.schedules import ScheduleSpace
    from repro.explorer.trie_executor import TrieExecutor
    from repro.persist.sqlite_store import SqliteStore
    from repro.service.online import OnlineClassifier
    from repro.service.server import CertifierServer
    from repro.workloads.scenarios import ALL_SCENARIOS

    patches = _Patches()
    patches.set(ScheduleSpace, "iter_chunks", _timed_generator(
        tracer, "explorer.schedules", ScheduleSpace.iter_chunks))
    schedules_property = ScheduleSpace.__dict__["schedules"]
    patches.set(ScheduleSpace, "schedules", property(_timed(
        tracer, "explorer.schedules", schedules_property.fget)))
    patches.set(TrieExecutor, "run_batch", _timed_generator(
        tracer, "explorer.trie_executor", TrieExecutor.run_batch))
    patches.set(BatchClassifier, "classify", _timed(
        tracer, "explorer.memo", BatchClassifier.classify))
    patches.set(SqliteStore, "commit_chunk", _timed(
        tracer, "persist.store.commit", SqliteStore.commit_chunk))
    patches.set(SqliteStore, "save_table4_cell", _timed(
        tracer, "persist.store.commit", SqliteStore.save_table4_cell))
    patches.set(SqliteStore, "save_certificates", _timed(
        tracer, "persist.store.save", SqliteStore.save_certificates,
        sample="persist.store.save"))
    for name in _QUEUE_METHODS:
        patches.set(LeaseQueue, name, _timed(
            tracer, "distrib.queue", LeaseQueue.__dict__[name]))
    patches.set(runner_module, "mp_connection",
                _TimedWait(runner_module.mp_connection, tracer))
    patches.set(runner_module, "execute_chunk", _timed(
        tracer, "distrib.runner.worker", runner_module.execute_chunk))
    if worker_dump_dir is not None:
        patches.set(runner_module, "_worker_main", _traced_worker_main(
            tracer, runner_module._worker_main, Path(worker_dump_dir)))

    patches.set(explorer_scenarios, "build_execution_plan", _timed(
        tracer, "explorer.reduction", explorer_scenarios.build_execution_plan))
    original_explore_variant = explorer_scenarios.explore_variant

    def explore_variant(*args: Any, **kwargs: Any) -> Any:
        result = original_explore_variant(*args, **kwargs)
        tracer.count("explorer.reduction.covered", result.schedules)
        tracer.count("explorer.reduction.executed", result.executed)
        return result
    patches.set(explorer_scenarios, "explore_variant", explore_variant)

    original_run = ScheduleRunner.run

    def run(self: Any) -> Any:
        tracer.count("engine.scheduler.runs")
        return original_run(self)
    patches.set(ScheduleRunner, "run", _timed(tracer, "engine.scheduler", run))
    patches.set(ScheduleRunner, "replay", _timed(
        tracer, "engine.scheduler", ScheduleRunner.replay))
    patches.set(explorer_scenarios, "make_engine", _timed(
        tracer, "testbed", explorer_scenarios.make_engine))
    for scenario in ALL_SCENARIOS:
        for variant in scenario.variants:
            patches.set(variant, "build_database", _timed(
                tracer, "testbed", variant.build_database))
            patches.set(variant, "manifests", _timed(
                tracer, "workloads.scenarios.manifests", variant.manifests))

    patches.set(OnlineClassifier, "feed_shorthand", _timed(
        tracer, "service.online", OnlineClassifier.feed_shorthand))
    patches.set(OnlineClassifier, "verdict", _timed(
        tracer, "service.online", OnlineClassifier.verdict))
    patches.set(CertifierServer, "_dispatch", _timed(
        tracer, "service.server.dispatch", CertifierServer._dispatch))
    return patches.undo


def _traced_worker_main(tracer: Tracer, worker_main: Callable,
                        dump_dir: Path) -> Callable:
    """Worker body that records its own spans and writes them when it exits.

    Workers are forked, so they inherit the wrapped layers; each starts a
    fresh recording and dumps it on the way out (the parent sends ``None``
    to every live worker before joining it).
    """
    def traced(worker_index: int, incarnation: int, *rest: Any) -> None:
        tracer.reset(f"worker-{worker_index}.{incarnation}")
        tracer.enabled = True
        try:
            worker_main(worker_index, incarnation, *rest)
        finally:
            tracer.enabled = False
            tracer.dump(dump_dir / f"worker-{os.getpid()}.json")
    return traced
