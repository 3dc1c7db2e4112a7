"""Checks on the benchmark itself. Run from the root of a kgmon tree:

    python3 perfbench/selftest.py [workload ...]

For each workload it runs two traced runs and one short untraced run with
one seed, then checks that

- every run's outputs passed the planted-truth checks, and its digests
  equal the ones pinned in perfbench/digests.json;
- every count metric repeats exactly across the two traced runs;
- the traced and untraced runs print the same history and baseline digests;
- the traced run names the layer the workload was built to stress as the
  largest span of its cycles.

Last, it copies only BENCHMARK.json and perfbench/ into an empty directory
and checks that the benchmark fails there without printing a result.
Exits 1 on any failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = ["perfbench/run.py"]
SEED = 1  # the seed perfbench/digests.json pins
TIMEOUT = 600

STRESSED = {
    "eval_validate": "hallucination.validate_graph",
    "eval_extract": "extract.build_baseline",
    "history_long": "monitor.history_read",
}


def is_count(name: str) -> bool:
    return (
        name.endswith(".calls")
        or name.startswith("hallucination.failed.")
        or name
        in ("kernels.tokens", "graph.candidate_entities", "monitor.history_rows_read")
    )


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict, dict | None]:
    """Run the benchmark; returns (exit code, env line, result or None)."""
    proc = subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT,
    )
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, env, result


def main() -> int:
    workloads = sys.argv[1:] or sorted(STRESSED)
    failures: list[str] = []

    def check(ok: bool, text: str) -> None:
        print(("ok    " if ok else "FAIL  ") + text)
        if not ok:
            failures.append(text)

    for workload in workloads:
        runs = [bench(workload, 1), bench(workload, 1), bench(workload, 0)]
        for i, (code, _env, result) in enumerate(runs):
            check(
                code == 0 and result is not None and result["correct"],
                f"{workload}: run {i} exits 0 with correct outputs",
            )
        if failures:
            continue
        (_, env_a, res_a), (_, env_b, res_b), (_, env_c, _res_c) = runs
        counts = sorted(n for n in res_a["metrics"] if is_count(n))
        differing = [
            n for n in counts if res_a["metrics"][n]["value"] != res_b["metrics"][n]["value"]
        ]
        check(not differing, f"{workload}: {len(counts)} count metrics repeat {differing}")
        for key in ("history_sha256", "baseline_sha256"):
            check(
                env_a[key] == env_b[key] == env_c[key],
                f"{workload}: {key} equal in traced and untraced runs",
            )
        check(
            env_a["largest_cycle_span"] == STRESSED[workload],
            f"{workload}: largest cycle span is {env_a['largest_cycle_span']}",
        )

    bare = ROOT / "perfbench" / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__")
    )
    code, _env, result = bench(workloads[0], 0, cwd=bare)
    check(code != 0 and result is None, "without kgmon sources the benchmark fails")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
