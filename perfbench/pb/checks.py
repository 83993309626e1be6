"""Correctness checks, run outside every timed region.

Each check returns a list of error strings (empty when the output is right),
so a run reports every fault it saw, and the self-tests can show each check
failing on a deliberately corrupted output.

The references are computed apart from the code the benchmark times:

* schedule records are replayed from scratch on a fresh stepwise engine
  (``engine.scheduler.ScheduleRunner``, not the trie executor or the batch
  kernel) and classified with ``core.phenomena.detect_all`` plus
  ``core.dependency`` / ``core.mv_analysis`` (not ``explorer.memo``);
* the explored Table 4 is compared with the paper's printed table, and every
  witness is replayed from scratch;
* certifier verdicts are compared with the offline classification of the
  same generated stream (``service.loadgen.drain_offline``), and every
  acknowledged certificate is looked up in the store.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "reference_record",
    "record_errors",
    "level_property_errors",
    "campaign_errors",
    "table4_errors",
    "certifier_errors",
]

#: Levels at which no record may show a dirty read (P1) or its strict form (A1).
_NO_DIRTY_READ = ("READ COMMITTED", "REPEATABLE READ", "Snapshot Isolation",
                  "SERIALIZABLE")

_COMPARED = ("history", "serializable", "phenomena", "committed", "aborted",
             "blocked_events", "deadlocks", "stalled")


def _initial_items(database) -> Tuple[str, ...]:
    names = list(database.items())
    for table_name, table in database.tables().items():
        names.extend(f"{table_name}/{row.key}" for row in table)
    return tuple(names)


def reference_record(spec, level, interleaving: Sequence[int]) -> Dict[str, Any]:
    """Replay one schedule from scratch and classify it without the memo."""
    from repro.core.dependency import is_serializable
    from repro.core.mv_analysis import (
        assign_write_versions,
        mv_is_serializable,
        mv_to_sv,
    )
    from repro.core.phenomena import detect_all
    from repro.engine.scheduler import ScheduleRunner
    from repro.testbed import make_engine
    from repro.workloads.program_sets import build_program_set

    database, programs = build_program_set(spec)
    initial = _initial_items(database)
    outcome = ScheduleRunner(make_engine(database, level), programs,
                             list(interleaving)).run()
    history = outcome.history
    if history.is_multiversion():
        completed = assign_write_versions(history, initial)
        serializable = mv_is_serializable(completed)
        judged = mv_to_sv(completed)
    else:
        serializable = is_serializable(history)
        judged = history
    found = detect_all(judged)
    return {
        "history": history.to_shorthand(),
        "serializable": serializable,
        "phenomena": tuple(sorted(code for code, hits in found.items() if hits)),
        "committed": tuple(sorted(history.committed_set())),
        "aborted": tuple(sorted(history.aborted_set())),
        "blocked_events": outcome.blocked_events,
        "deadlocks": len(outcome.deadlocks),
        "stalled": outcome.stalled,
    }


def record_errors(spec, level, record) -> List[str]:
    """Differences between a stored record and its from-scratch replay."""
    expected = reference_record(spec, level, record.interleaving)
    errors = []
    for field in _COMPARED:
        got = getattr(record, field)
        if got != expected[field]:
            errors.append(f"{level.value} {record.interleaving}: {field} is "
                          f"{got!r}, replay gives {expected[field]!r}")
    return errors


def level_property_errors(level, records: Iterable) -> List[str]:
    """Properties every record must have at its level (paper Tables 2 and 4)."""
    errors = []
    for record in records:
        where = f"{level.value} {record.interleaving}"
        if "P0" in record.phenomena:
            errors.append(f"{where}: shows P0 (dirty write)")
        if level.value in _NO_DIRTY_READ:
            for code in ("P1", "A1"):
                if code in record.phenomena:
                    errors.append(f"{where}: shows {code}")
        if level.value == "SERIALIZABLE":
            if not record.serializable:
                errors.append(f"{where}: SERIALIZABLE record not serializable")
            if record.phenomena:
                errors.append(f"{where}: SERIALIZABLE record shows "
                              f"{record.phenomena}")
    return errors


def campaign_errors(spec, produced: Mapping[Any, Sequence],
                    reloaded: Mapping[Any, Sequence], sample_per_level: int,
                    seed: int, expected_per_level: int) -> List[str]:
    """Every check of one finished campaign.

    ``produced``: the records the run handed back, per level;
    ``reloaded``: the same campaign read back from the SQLite store.
    A seeded sample of ``sample_per_level`` records per level is replayed.
    """
    errors: List[str] = []
    rng = random.Random(seed)
    for level in sorted(produced, key=lambda lvl: lvl.value):
        mine = tuple(produced[level])
        stored = tuple(reloaded.get(level, ()))
        if len(mine) != expected_per_level:
            errors.append(f"{level.value}: {len(mine)} records, expected "
                          f"{expected_per_level}")
        if mine != stored:
            errors.append(f"{level.value}: records reloaded from the store "
                          f"differ from the records the run produced")
        errors.extend(level_property_errors(level, mine))
        count = min(sample_per_level, len(mine))
        for position in sorted(rng.sample(range(len(mine)), count)):
            errors.extend(record_errors(spec, level, mine[position]))
    return errors


def table4_errors(table) -> List[str]:
    """The explored matrix against the paper's Table 4, plus witness replays."""
    from repro.analysis.matrix import EXPECTED_TABLE_4
    from repro.engine.scheduler import ScheduleRunner
    from repro.testbed import make_engine
    from repro.workloads.scenarios import scenario_by_code

    errors: List[str] = []
    measured = table.possibilities()
    if set(measured) != set(EXPECTED_TABLE_4):
        errors.append(f"rows {sorted(l.value for l in measured)} differ from "
                      f"the paper's {sorted(l.value for l in EXPECTED_TABLE_4)}")
    for level, row in EXPECTED_TABLE_4.items():
        for code, expected in row.items():
            got = measured.get(level, {}).get(code)
            if got != expected:
                errors.append(f"Table 4 cell ({level.value}, {code}) is "
                              f"{got}, the paper has {expected}")
    for level, row in table.cells.items():
        for code, cell in row.items():
            if cell.witness is None:
                continue
            variant_name, interleaving, _history = cell.witness
            variant = scenario_by_code(code).variant(variant_name)
            outcome = ScheduleRunner(
                make_engine(variant.build_database(), level),
                variant.build_programs(), list(interleaving)).run()
            if outcome.stalled or not variant.manifests(outcome):
                errors.append(f"witness of ({level.value}, {code}) "
                              f"{variant_name} {tuple(interleaving)} does not "
                              f"manifest on replay")
    return errors


def certifier_errors(closed: Mapping[str, Tuple[Any, int, Dict[str, Any],
                                                 Sequence[Tuple]]],
                     stored: Mapping[str, Sequence[Tuple]],
                     offline: Mapping[str, Tuple]) -> List[str]:
    """Closed streams against the offline classifier and the store.

    ``closed[stream] = (config, client_index, verdict_reply, acked)`` where
    ``acked`` holds the certificate keys ``(seq, code, txns, items,
    op_index)`` the server acknowledged on that stream; ``stored[stream]``
    holds the keys found in the store; ``offline[stream]`` is the offline
    classification ``(serializable, phenomena, committed, aborted)``.
    """
    errors: List[str] = []
    for stream, (_config, _index, verdict, acked) in sorted(closed.items()):
        online = (verdict.get("serializable"), tuple(verdict.get("phenomena", ())),
                  tuple(verdict.get("committed", ())),
                  tuple(verdict.get("aborted", ())))
        reference = offline.get(stream)
        if reference is None:
            errors.append(f"{stream}: no offline classification")
        elif online != tuple(reference):
            errors.append(f"{stream}: online verdict {online} differs from the "
                          f"offline classification {tuple(reference)}")
        have = set(stored.get(stream, ()))
        missing = [key for key in acked if key not in have]
        if missing:
            errors.append(f"{stream}: {len(missing)} acknowledged certificates "
                          f"missing from the store, first {missing[0]}")
    return errors


def offline_verdict(config, client_index: int) -> Tuple:
    """The offline classification of one generated stream, as plain tuples."""
    from repro.service.loadgen import drain_offline
    reference = drain_offline(config, client_index)
    return (reference.serializable, tuple(reference.phenomena),
            tuple(reference.committed), tuple(reference.aborted))
