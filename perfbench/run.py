"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign-sampled --seed 1 --seconds 15 --trace 0

Workloads: ``campaign-sampled``, ``distrib-2w``, ``table4-explored``,
``certifier-tcp`` (see ``perfbench/README.md``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment and
the per-level batch-kernel rows.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` makes a separate traced run and reports the per-layer
metrics, writing every span to ``.perfbench/traces/<workload>.json``.

Process layout: this process starts no program code itself.  It times
``SETUP_PROBES`` set-up probes (fresh processes that do a measurement's
set-up and stop), then one measurement process that sets up, runs the
workload for ``--seconds`` of timed segments, checks the outputs outside the
timed region and hands its figures back.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb.common import CHECKOUT, SRC, STATE_DIR  # noqa: E402

WORKLOADS = ("campaign-sampled", "distrib-2w", "table4-explored", "certifier-tcp")
#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Wall-clock limit of the measurement process (the run must end in 180 s).
CHILD_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 30.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal roles of the processes this script starts.
    parser.add_argument("--role", default="main",
                        choices=("main", "probe", "measure", "serve-traced",
                                 "verify"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    return parser


def _fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _child_command(role: str, args: argparse.Namespace, workdir: Path) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir)]


def _kill_group(process: subprocess.Popen) -> None:
    """Kill whatever is left of a child's process group and wait for it.

    Children run in their own session, so the group also holds anything they
    started (the certifier server, distrib workers).
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def _probe_setup(args: argparse.Namespace, workdir: Path) -> float:
    """Seconds from starting a fresh process to its first timed operation."""
    began = time.perf_counter()
    process = subprocess.Popen(_child_command("probe", args, workdir), cwd=CHECKOUT,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        line = process.stdout.readline()
        ready = time.perf_counter() - began
        process.stdout.read()
        process.wait(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("set-up probe did not finish")
    finally:
        _kill_group(process)
        process.stdout.close()
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({process.returncode}): {line!r}")
    return ready


def _measure(args: argparse.Namespace, workdir: Path) -> dict:
    process = subprocess.Popen(_child_command("measure", args, workdir), cwd=CHECKOUT,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"measurement exceeded {CHILD_TIMEOUT_S:.0f} s")
    finally:
        _kill_group(process)
    lines = [line for line in out.splitlines() if line.strip()]
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"measurement failed with code {process.returncode}")
    return json.loads(lines[-1])


def main_role(args: argparse.Namespace) -> int:
    if args.workload is None:
        return _fail("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources under {SRC}; run from a checkout "
                     f"of the repository")
    workdir = STATE_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        probes = []
        if args.trace == 0:
            probes = [_probe_setup(args, workdir) for _ in range(SETUP_PROBES)]
        measured = _measure(args, workdir)
    except (RuntimeError, OSError, ValueError) as error:
        return _fail(str(error), 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = measured["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(probes), "unit": "s"}
    run_record = dict(measured["run"], setup_probes_s=probes)
    print(json.dumps({"run": run_record}, sort_keys=True))
    print(json.dumps({"correct": measured["correct"],
                      "attempted": measured["attempted"],
                      "failed": measured["failed"],
                      "metrics": metrics}))
    return 0


def _setup(args: argparse.Namespace, workdir: Path, tracing) -> dict:
    if args.workload in ("campaign-sampled", "distrib-2w"):
        from pb import campaigns
        return campaigns.setup(workdir, args.workload == "distrib-2w")
    if args.workload == "table4-explored":
        from pb import table4
        return table4.setup(workdir)
    from pb import certifier
    return certifier.setup(workdir, args.seed, tracing.server_trace)


def probe_role(args: argparse.Namespace) -> int:
    from pb.common import ensure_src_on_path
    from pb.harness import Tracing
    ensure_src_on_path()
    state = _setup(args, Path(args.workdir), Tracing(None, None))
    print("ready", flush=True)
    if args.workload == "certifier-tcp":
        from pb import certifier
        certifier.teardown(state)
    return 0


def measure_role(args: argparse.Namespace) -> int:
    from pb import harness
    from pb.common import ensure_src_on_path
    ensure_src_on_path()
    workdir = Path(args.workdir)
    tracing = harness.Tracing.for_run(args.trace == 1, args.workload, workdir)
    state = _setup(args, workdir, tracing)
    setup_s = time.perf_counter() - _STARTED
    report = harness.run_workload(args.workload, state, workdir, args.seed,
                                  args.seconds, tracing)
    report["run"]["measure_setup_s"] = setup_s
    print(json.dumps(report))
    return 0


def serve_traced_role(args: argparse.Namespace) -> int:
    """The certifier server with every layer wrapped, spans written at exit."""
    from pb.common import ensure_src_on_path
    from pb.tracer import Tracer, install
    ensure_src_on_path()
    tracer = Tracer("server")
    install(tracer)
    from repro.service.cli import serve_main
    tracer.enabled = True
    try:
        return serve_main(["--store", args.store])
    finally:
        tracer.enabled = False
        tracer.dump(Path(args.trace_out))


def verify_role(args: argparse.Namespace) -> int:
    """Offline verdicts for the certifier streams listed in ``--store``."""
    from pb import certifier
    from pb.common import ensure_src_on_path
    ensure_src_on_path()
    jobs = json.loads(Path(args.store).read_text())
    print(json.dumps(certifier.verify_jobs(jobs)))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.role == "main":
        return main_role(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources under {SRC}")
    roles = {"probe": probe_role, "measure": measure_role,
             "serve-traced": serve_traced_role, "verify": verify_role}
    return roles[args.role](args)


if __name__ == "__main__":
    sys.exit(main())
