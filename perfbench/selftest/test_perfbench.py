"""The benchmark's own tests: every workload at a small size through every
correctness check, and every check failing on a deliberately corrupted output.

Run from the root of a checkout::

    python -m pytest perfbench/selftest -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pb import campaigns, certifier, checks, table4
from pb.harness import Tracing
from pb.tracer import Tracer

PERFBENCH = Path(__file__).resolve().parent.parent
NO_TRACING = Tracing(None, None)


# -- every workload, small, through every check -----------------------------------


def test_campaign_sampled_small(tmp_path):
    state = campaigns.setup(tmp_path, distributed=False)
    result = campaigns.run(state, tmp_path, seed=3, seconds=0, distributed=False,
                           tracing=NO_TRACING, schedules=40, sample_per_level=40,
                           max_segments=1)
    assert result["errors"] == []
    assert result["attempted"] == 40 * 5
    assert result["failed"] == 0
    (segment,) = result["segments"]
    assert len(segment["close_ms"]) == len(segment["request_ms"]) > 0


def test_distrib_2w_small(tmp_path):
    state = campaigns.setup(tmp_path, distributed=True)
    result = campaigns.run(state, tmp_path, seed=3, seconds=0, distributed=True,
                           tracing=NO_TRACING, schedules=40, sample_per_level=40,
                           max_segments=1)
    assert result["errors"] == []
    assert result["attempted"] == 40 * 5
    assert result["counts"]["fenced_results"] == 0
    (segment,) = result["segments"]
    assert result["counts"]["leases_granted"] == len(segment["close_ms"])


@pytest.fixture(scope="module")
def explored_table(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("table4")
    state = table4.setup(workdir)
    result = table4.run(state, workdir, seed=0, seconds=0, tracing=NO_TRACING,
                        max_segments=1)
    assert result["errors"] == []
    from repro.analysis.matrix import compute_table4_explored
    return compute_table4_explored()


def test_certifier_tcp_small(tmp_path):
    state = certifier.setup(tmp_path, seed=4, trace_out=None)
    result = certifier.run(state, seed=4, seconds=0, check_processes=2,
                           max_segments=1)
    assert result["errors"] == []
    assert result["failed"] == 0
    counts = result["counts"]
    # One round: 50 streams, one abandoned and (today) retained by the server.
    assert counts["closed_streams"] == certifier.ABANDON_EVERY - 1
    assert counts["retained_streams"] == 1


# -- each check fails on a corrupted output -----------------------------------------


@pytest.fixture(scope="module")
def small_campaign():
    from repro.explorer import ExploreOptions, explore
    spec = campaigns.contention_spec()
    result = explore(spec, ExploreOptions(mode="sample", max_schedules=30, seed=11))
    return spec, {level: exploration.records
                  for level, exploration in result.levels.items()}


def _flip_phenomenon(records, level_name):
    """Drop one phenomenon from the first record at the level that has one."""
    for level, rows in records.items():
        if level.value != level_name:
            continue
        for position, record in enumerate(rows):
            if record.phenomena:
                flipped = dataclasses.replace(record, phenomena=record.phenomena[1:])
                corrupted = dict(records)
                corrupted[level] = rows[:position] + (flipped,) + rows[position + 1:]
                return corrupted
    raise AssertionError(f"no record with a phenomenon at {level_name}")


def test_campaign_checks_pass_on_true_records(small_campaign):
    spec, records = small_campaign
    assert checks.campaign_errors(spec, records, records, 30, 0, 30) == []


def test_flipped_phenomenon_fails_the_replay_check(small_campaign):
    spec, records = small_campaign
    corrupted = _flip_phenomenon(records, "READ UNCOMMITTED")
    # Same corruption in the store copy: only the from-scratch replay sees it.
    errors = checks.campaign_errors(spec, corrupted, corrupted, 30, 0, 30)
    assert any("phenomena is" in error for error in errors)


def test_flipped_phenomenon_fails_the_store_check(small_campaign):
    spec, records = small_campaign
    corrupted = _flip_phenomenon(records, "READ UNCOMMITTED")
    errors = checks.campaign_errors(spec, corrupted, records, 0, 0, 30)
    assert any("reloaded from the store" in error for error in errors)


def test_level_properties_catch_forbidden_phenomena(small_campaign):
    _spec, records = small_campaign
    level = next(lvl for lvl in records if lvl.value == "SERIALIZABLE")
    bad = dataclasses.replace(records[level][0], phenomena=("P0", "P1"),
                              serializable=False)
    errors = checks.level_property_errors(level, [bad])
    assert any("P0" in e for e in errors) and any("P1" in e for e in errors)
    assert any("not serializable" in e for e in errors)


def test_table4_check_passes_on_the_explored_table(explored_table):
    assert checks.table4_errors(explored_table) == []


def test_changed_table4_cell_fails(explored_table):
    from repro.core.isolation import IsolationLevelName, Possibility
    level = IsolationLevelName.REPEATABLE_READ
    cells = {lvl: dict(row) for lvl, row in explored_table.cells.items()}
    cells[level]["P3"] = dataclasses.replace(cells[level]["P3"],
                                             possibility=Possibility.NOT_POSSIBLE)
    errors = checks.table4_errors(dataclasses.replace(explored_table, cells=cells))
    assert errors == [f"Table 4 cell ({level.value}, P3) is "
                      f"{Possibility.NOT_POSSIBLE}, the paper has "
                      f"{Possibility.POSSIBLE}"]


def test_non_manifesting_witness_fails(explored_table):
    from repro.core.isolation import IsolationLevelName
    level = IsolationLevelName.READ_UNCOMMITTED
    cells = {lvl: dict(row) for lvl, row in explored_table.cells.items()}
    variant, interleaving, history = cells[level]["P1"].witness
    serial = tuple(sorted(interleaving))        # every transaction in turn
    cells[level]["P1"] = dataclasses.replace(cells[level]["P1"],
                                             witness=(variant, serial, history))
    errors = checks.table4_errors(dataclasses.replace(explored_table, cells=cells))
    assert any("does not manifest" in error for error in errors)


@pytest.fixture(scope="module")
def closed_stream():
    from repro.service.loadgen import LoadConfig, generate_stream
    config = LoadConfig(seed=9)
    index = next(i for i in range(50)
                 if len(_classify(generate_stream(config, i)).certificates) >= 2)
    online = _classify(generate_stream(config, index))
    verdict = online.verdict()
    reply = {"serializable": verdict.serializable, "phenomena": list(verdict.phenomena),
             "committed": list(verdict.committed), "aborted": list(verdict.aborted)}
    keys = tuple((c.seq, c.code, tuple(c.txns), tuple(c.items), c.op_index)
                 for c in online.certificates)
    closed = {"s": (config, index, reply, keys)}
    offline = {"s": checks.offline_verdict(config, index)}
    return closed, {"s": list(keys)}, offline


def _classify(tokens):
    from repro.service.online import OnlineClassifier
    online = OnlineClassifier("s")
    online.feed_shorthand(" ".join(tokens))
    return online


def test_certifier_check_passes_on_a_true_stream(closed_stream):
    closed, stored, offline = closed_stream
    assert checks.certifier_errors(closed, stored, offline) == []


def test_dropped_certificate_fails(closed_stream):
    closed, stored, offline = closed_stream
    dropped = {"s": stored["s"][1:]}
    errors = checks.certifier_errors(closed, dropped, offline)
    assert errors and "missing from the store" in errors[0]


def test_wrong_verdict_fails(closed_stream):
    closed, stored, offline = closed_stream
    config, index, reply, keys = closed["s"]
    wrong = dict(reply, serializable=not reply["serializable"])
    errors = checks.certifier_errors({"s": (config, index, wrong, keys)}, stored,
                                     offline)
    assert errors and "differs from the offline" in errors[0]


# -- tracer accounting and the command's contract ------------------------------------


def test_self_times_add_up_to_the_outer_span():
    tracer = Tracer()
    tracer.enabled = True
    outer = tracer.begin("a")
    inner = tracer.begin("b")
    tracer.end(inner)
    again = tracer.begin("a")
    tracer.end(again)
    total = tracer.end(outer)
    own, inclusive = tracer.times()
    assert own["a"] + own["b"] == pytest.approx(total)
    assert inclusive["a"] == pytest.approx(total)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-sampled",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_names_every_metric():
    from pb.harness import END_TO_END_UNITS, PER_LAYER_UNITS
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == [
        "campaign-sampled", "distrib-2w", "table4-explored", "certifier-tcp"]
