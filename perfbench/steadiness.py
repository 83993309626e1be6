"""Run each workload N times and report how much its metrics spread.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --runs 10 --seconds 20
    python3 perfbench/steadiness.py --runs 5 --traced 5 --workloads certifier-tcp

Run ``i`` of a workload uses seed ``--first-seed + i``.  For every metric the
report gives the median, the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the quartile distance
as a share of the median -- the figure each bound in ``BENCHMARK.json`` must
stay above.  ``--traced N`` adds N runs with ``--trace 1`` (seeds from
``--first-seed``): the per-layer figures, the traced end-to-end figures and
the tracing overhead (traced median over untraced median).  The full report
is written as JSON to ``--out`` (default ``.perfbench/steadiness.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb.common import CHECKOUT, STATE_DIR, spread, usable_cores  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("campaign-sampled", "distrib-2w", "table4-explored", "certifier-tcp")


def one_run(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One ``run.py`` invocation: its result line plus the run record."""
    began = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=CHECKOUT, stdout=subprocess.PIPE, text=True, check=False)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed "
                           f"with code {done.returncode}")
    result = json.loads(lines[-1])
    result["run"] = json.loads(lines[-2])["run"]
    result["run_end_to_end"] = result["run"]["end_to_end"]
    result["elapsed_s"] = time.monotonic() - began
    return result


def summarize(results: List[Dict], key: str = "metrics") -> Dict[str, Dict]:
    names = list(results[0][key])
    table = {}
    for name in names:
        values = [r[key][name]["value"] if key == "metrics" else r[key][name]
                  for r in results]
        table[name] = dict(spread(values), values=values)
    return table


def _print_table(title: str, table: Dict[str, Dict]) -> None:
    print(title)
    print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, row in table.items():
        print(f"  {name:34} {row['median']:14.6g} {row['q1']:14.6g} "
              f"{row['q3']:14.6g} {row['spread']:8.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steadiness.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed seconds per run (BENCHMARK.json run_seconds)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--traced", type=int, default=0, metavar="N",
                        help="also make N traced runs and report the per-layer "
                             "figures and the tracing overhead")
    parser.add_argument("--out", default=str(STATE_DIR / "steadiness.json"))
    args = parser.parse_args(argv)

    report: Dict = {"cores": usable_cores(), "runs": args.runs,
                    "seconds": args.seconds, "first_seed": args.first_seed,
                    "workloads": {}}
    for workload in args.workloads:
        seeds = [args.first_seed + i for i in range(max(args.runs, args.traced))]
        entry: Dict = {"seeds": seeds[:args.runs]}
        if args.runs:
            plain = [one_run(workload, seed, args.seconds, 0) for seed in seeds[:args.runs]]
            entry.update({
                "correct": all(r["correct"] for r in plain),
                "failed_share": sorted({r["failed"] / r["attempted"] for r in plain}),
                "environment": plain[0]["run"]["environment"],
                "elapsed_s": [round(r["elapsed_s"], 2) for r in plain],
                "end_to_end": summarize(plain),
                "steal_share": [r["run"]["segment_steal_share"] for r in plain],
            })
            _print_table(f"{workload}: {args.runs} runs, seeds {seeds[0]}.."
                         f"{seeds[args.runs - 1]}, correct={entry['correct']}, "
                         f"longest run {max(entry['elapsed_s']):.1f} s",
                         entry["end_to_end"])
        if args.traced:
            traced = [one_run(workload, seed, args.seconds, 1)
                      for seed in seeds[:args.traced]]
            entry["traced_seeds"] = seeds[:args.traced]
            entry["traced_correct"] = all(r["correct"] for r in traced)
            entry["per_layer"] = summarize(traced)
            entry["traced_end_to_end"] = summarize(traced, "run_end_to_end")
            entry["accounting"] = [r["run"]["accounting"] for r in traced]
            _print_table(f"{workload}: traced end-to-end", entry["traced_end_to_end"])
            _print_table(f"{workload}: per layer", entry["per_layer"])
            if args.runs:
                entry["tracing_overhead"] = {
                    name: row["median"] / entry["end_to_end"][name]["median"]
                    for name, row in entry["traced_end_to_end"].items()}
                print("  tracing overhead (traced / untraced median): " + ", ".join(
                    f"{name} {ratio:.3f}"
                    for name, ratio in entry["tracing_overhead"].items()))
        report["workloads"][workload] = entry
        sys.stdout.flush()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(report, indent=2, sort_keys=True))
    os.replace(tmp, out)
    print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
