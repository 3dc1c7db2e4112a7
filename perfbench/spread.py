"""Run-to-run spread of the end-to-end metrics. From the root of a kgmon tree:

    python3 perfbench/spread.py --workload eval_validate --runs 10

Runs the benchmark once for each seed 1..runs, one run at a time, and prints for each
end-to-end metric the median, the quartiles and the spread (quartile
distance over the median, as statistics.quantiles(values, n=4) gives them)
next to the metric's bound from BENCHMARK.json. The raw wall-clock
figures from each run's env line are shown the same way.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ref: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}
    for seed in range(1, args.runs + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
        if proc.returncode or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, correct={result['correct']}")
            return 1
        for name, metric in result["metrics"].items():
            ref.setdefault(name, []).append(metric["value"])
        for name, value in env["wall"].items():
            wall.setdefault(name, []).append(value)
        print(f"seed {seed} ({time.perf_counter() - start:.0f} s): " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
        ), flush=True)

    for label, table in (("reported", ref), ("wall", wall)):
        print(f"{label}:")
        for name, values in table.items():
            med, q1, q3, rel = spread(values)
            print(f"  {name:<22} median {med:<12.5g} q1 {q1:<12.5g} q3 {q3:<12.5g} "
                  f"spread {rel:.3f}  bound {bounds.get(name, '-')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
