"""Run every workload once untraced and once traced, and print each metric
by name and unit, the error rate and wrong verdicts, and the layer map.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Each run is ``run.py`` in its own process, one after another.  The metric
names are checked against ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as fh:
        design = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    args = parser.parse_args()

    moves = {}
    for group in design["per_layer"]:
        for metric in group["metrics"]:
            moves[metric] = f"-> {', '.join(group['moves']) or '-'} on {', '.join(group['on'])}"
    ok = True
    for workload in args.workload:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, text = run(workload, args.seed, args.seconds, trace)
            got = result["metrics"]
            if {m["name"] for m in declared} != set(got):
                print(f"{workload}: metrics differ from BENCHMARK.json", file=sys.stderr)
                ok = False
            for m in declared:
                if m["name"] in got:
                    note = moves.get(m["name"], "") if trace else ""
                    print(f"{workload:14} {m['name']:36} {got[m['name']]['value']:14.6g} "
                          f"{m['unit']:6} {note}")
            for line in text:
                if "error_rate" in line or "wrong_verdicts" in line or "is p" in line:
                    if trace == 0:
                        print(line)
            print(f"{workload:14} {'correct':36} {str(result['correct']):>14} "
                  f"({result['attempted']} attempted, {result['failed']} failed)")
            ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
