"""kgmon pipeline benchmark: closed-loop `evaluate` cycles on seeded inputs.

One caller drives `kgmon.cli.main(["evaluate", ...])` in-process, back to
back, each cycle with a fresh generated batch and a larger --timestamp.
Every cycle's output is checked against what the generator planted.

    python3 perfbench/run.py --workload eval_validate --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics. --trace 1 runs a fixed number of
cycles untraced and then traced, and reports per-layer metrics from the
traced ones. The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
the run environment, digests and a readable table. Run from the root of a
kgmon source tree: kgmon is imported from its `src/` directory.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import gen
from clock import Clock
from tracer import Tracer, rebind, undo

ROOT = Path.cwd()
WORK = ROOT / "perfbench" / ".work"

# Shapes were sized on a 2-core x86-64 box, Python 3.11, pure-Python
# kernels, so that each workload's stressed layer dominates its cycle and a
# run of 20 s holds well over 20 cycles.
WORKLOADS = {
    # Large candidates with Hal weighted: the O(entities x text) validator
    # blocks every cycle. Every third cycle the drift candidate carries
    # injected entities that fail each validation stage.
    "eval_validate": gen.Shape(
        docs=26, sentences=10, words=8, surfaces=2, instances=1,
        dict_size=3000, pool=400, rules=6, models=("clean", "drift"), hal=True,
        inject_untraceable=200, inject_schema=4, inject_rule_pairs=3,
        subset=0, subset_untraceable=0, prefill=0,
    ),
    # Long articles dense in surfaces of a 20k-surface dictionary and 24
    # rules, with a small candidate and no Hal weight: tokenize, scan, rule
    # matching and ontology lookups block the cycle.
    "eval_extract": gen.Shape(
        docs=6, sentences=40, words=4, surfaces=4, instances=2,
        dict_size=20000, pool=0, rules=24, models=("subset",), hal=False,
        inject_untraceable=0, inject_schema=0, inject_rule_pairs=0,
        subset=40, subset_untraceable=4, prefill=0,
    ),
    # `kgmon simulate` grows a 20k-row history, then small cycles with four
    # models each re-read all of it, then the file is read and replayed.
    # No Hal weight: simulate exits 1 on a config that weights hal.
    "history_long": gen.Shape(
        docs=3, sentences=6, words=8, surfaces=2, instances=1,
        dict_size=500, pool=60, rules=4, models=("clean", "clean2", "drift", "subset"),
        hal=False, inject_untraceable=20, inject_schema=1,
        inject_rule_pairs=1, subset=10, subset_untraceable=1, prefill=20000,
    ),
}

WARMUP_CYCLES = 2  # run before timing; they still count for the digests
DIGEST_CYCLES = 16  # cycles every run hashes; also the traced run's length
MIN_TIMED_CYCLES = DIGEST_CYCLES - WARMUP_CYCLES
TIMESTAMP_BASE = 100_000
# Set-up is repeated (each repeat between two calibrations) at least this
# often and this long, and reports the median.
MIN_REPS, MIN_SECONDS, MAX_REPS = 9, 2.0, 300
# History and baseline digests of one reference seed per workload, from a
# run whose outputs passed every check. A run with that seed must match.
PINNED = Path(__file__).resolve().parent / "digests.json"


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the "end_to_end" or "per_layer" metrics in
    BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _import_kgmon():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kgmon.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import kgmon from {src}: {exc}")
    import kgmon

    if not Path(kgmon.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: kgmon was imported from outside {src}")
    return kgmon


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_stat(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond). With fewer than 11
    samples the maximum is returned with the count actually beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, n - 1)
    index = n - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / n, beyond


class Run:
    """One workload's inputs, kgmon process state and output checks."""

    def __init__(self, kgmon, workload: str, seed: int, label: str):
        self.kgmon = kgmon
        self.shape = WORKLOADS[workload]
        self.seed = seed
        self.dir = WORK / f"{workload}-{seed}-{label}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.corpus = gen.Corpus(self.shape, seed)
        self.paths = gen.write_shared(self.corpus, self.dir)
        self.log = open(self.dir / "kgmon.log", "w", encoding="utf-8")
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.cycles_failed = 0
        self.baselines: list = []
        self._undo_capture = self._capture_baselines()
        self.prefilled: Path | None = None
        self.sim_histories: list[str] = []
        self.reset_history()
        self.clock = Clock()

    def close(self) -> None:
        """Undo the baseline capture; keep the files only if a check failed."""
        undo(self._undo_capture)
        self.log.close()
        if not self.problems:
            shutil.rmtree(self.dir, ignore_errors=True)

    def _capture_baselines(self):
        """Keep each baseline graph kgmon builds, to check it after the cycle.

        One extra call per cycle; like the tracer, it wraps build_baseline
        wherever a kgmon module holds it.
        """
        original = self.kgmon.extract.build_baseline
        sink = self.baselines

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            sink.append(result[0] if isinstance(result, tuple) else result)
            return result

        return rebind(original, capture)

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"perfbench: CHECK FAILED: {text}", file=sys.stderr)

    def main(self, argv: list[str]) -> tuple[int, str]:
        """kgmon.cli.main with stdout captured and stderr sent to the log."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(self.log):
            try:
                code = self.kgmon.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash fails the operation, not the run
                traceback.print_exc(file=self.log)
                code = 1
        return code, out.getvalue()

    # -- set-up ---------------------------------------------------------------

    def setup_once(self) -> None:
        """What every evaluate invocation loads before its first batch."""
        config = self.kgmon.cli.load_run_config(self.paths["config"])
        onto = self.kgmon.ontology.load_ontology(_read(config.ontology))
        self.kgmon.extract.load_dictionary(_read(config.dictionary), onto)
        self.kgmon.extract.load_rules(_read(config.rules), onto)

    def measure_setup(self) -> tuple[float, float]:
        """Median set-up seconds over repeats: (reference, wall)."""
        ref: list[float] = []
        wall: list[float] = []
        while _more(ref, wall):
            _, r, w = self.clock.time(self.setup_once)
            ref.append(r)
            wall.append(w)
        return statistics.median(ref), statistics.median(wall)

    # -- history ----------------------------------------------------------------

    def reset_history(self) -> None:
        """Start the evaluate history over: empty, or the prefilled rows."""
        history = Path(self.paths["history"])
        if self.prefilled is not None:
            shutil.copyfile(self.prefilled, history)
        elif history.exists():
            history.unlink()
        self.history_offset = history.stat().st_size if history.exists() else 0
        self.history_hash = hashlib.sha256()
        if history.exists():
            with open(history, "rb") as fh:
                self.history_hash = hashlib.file_digest(fh, "sha256")
        self.baseline_hash = hashlib.sha256()

    def simulate(self, prefill: bool = False) -> tuple[float, float]:
        """One checked `kgmon simulate`; returns rows/s (reference, wall).

        With `prefill` it grows the evaluate history by the workload's
        prefill rows; otherwise it writes gen.SIM_STEPS rows to a history
        of its own.
        """
        if prefill:
            config, history = self.paths["config"], self.paths["history"]
            schedule, steps = self.paths["prefill_schedule"], self.shape.prefill
        else:
            files = gen.write_simulation(self.corpus, self.dir, len(self.sim_histories))
            config, history, schedule = files["config"], files["history"], files["schedule"]
            steps = gen.SIM_STEPS
            self.sim_histories.append(history)
        history = Path(history)
        if history.exists():
            history.unlink()
        argv = ["simulate", "--config", config, "--schedule", schedule, "--steps", str(steps)]
        self.attempted += 1
        (code, out), ref, wall = self.clock.time(self.main, argv)
        ok = code == 0
        if not ok:
            self.problem(f"simulate exited {code}")
        else:
            summary = json.loads(out.strip().splitlines()[-1])
            rows = _count_lines(history)
            if summary.get("steps") != steps or rows != steps:
                ok = False
                self.problem(f"simulate wrote {rows} rows for {steps} steps")
        if not ok:
            self.failed += 1
        if prefill:
            self.prefilled = self.dir / "prefilled.jsonl"
            shutil.copyfile(history, self.prefilled)
            self.reset_history()
        return steps / ref, steps / wall

    def replay(self, path: str) -> tuple[float, float]:
        """read_history + replay_history of one history file, checked bit
        for bit against the stored thresholds and flags; returns rows/s
        (reference, wall)."""
        monitor = self.kgmon.monitor
        # The simulate configs share the evaluate config's window, lambda
        # and warmup.
        config = self.kgmon.cli.load_run_config(self.paths["config"])

        def read_and_replay():
            rows = monitor.read_history(path)
            return rows, monitor.replay_history(
                rows, capacity=config.window, lam=config.lam, warmup_min=config.warmup_min
            )

        (rows, replayed), ref, wall = self.clock.time(read_and_replay)
        stored = [row for row in rows if row.model != monitor.BASELINE_MODEL]
        mismatches = abs(len(stored) - len(replayed)) + sum(
            1
            for row, threshold, flagged in replayed
            if flagged != row.flagged or _bits(threshold) != _bits(row.threshold)
        )
        self.attempted += 1
        if mismatches:
            self.failed += 1
            self.problem(f"replay of {path} differs from the stored history on {mismatches} rows")
        return len(rows) / ref, len(rows) / wall

    # -- cycles -------------------------------------------------------------------

    def cycle(self, index: int, tracer: Tracer | None = None) -> tuple[float, float]:
        """Generate, run and check cycle `index`, as a root span of `tracer`
        when given. Returns the cycle's seconds (reference, wall)."""
        files = gen.write_cycle(self.corpus, index, self.dir)
        argv = [
            "evaluate",
            "--config", self.paths["config"],
            "--batch", files.batch,
            "--timestamp", str(TIMESTAMP_BASE + index),
        ]
        for model, path, _total, _failed in files.candidates:
            argv += ["--candidate", f"{model}={path}"]
        self.baselines.clear()
        self.attempted += 1
        self.cycles += 1
        if tracer is None:
            (code, _out), ref, wall = self.clock.time(self.main, argv)
        else:
            ((code, _out), _s), ref, wall = self.clock.time(
                tracer.root, "cli.cycle", self.main, argv
            )
        if not self.check_cycle(index, files, code):
            self.failed += 1
            self.cycles_failed += 1
        for path in {files.batch, files.expected_baseline, *(c[1] for c in files.candidates)}:
            os.unlink(path)
        self.docs, self.chars, self.entities = files.docs, files.chars, files.entities
        return ref, wall

    def check_cycle(self, index: int, files, code: int) -> bool:
        ok = True
        if code not in (0, 2):
            self.problem(f"cycle {index}: evaluate exited {code}")
            return False
        expected = Path(files.expected_baseline).read_text(encoding="utf-8")
        if len(self.baselines) != 1:
            self.problem(f"cycle {index}: {len(self.baselines)} baseline builds seen")
            ok = False
            got = ""
        else:
            got = self.kgmon.graph.canonical_serialize(self.baselines[0])
            if got != expected:
                self.problem(f"cycle {index}: baseline differs from the planted graph")
                ok = False

        with open(self.paths["history"], "rb") as fh:
            fh.seek(self.history_offset)
            new = fh.read()
        self.history_offset += len(new)
        rows = [json.loads(line) for line in new.decode("utf-8").splitlines()]
        want = [("GT", None, None)] + sorted(
            (model, total, failed) for model, _p, total, failed in files.candidates
        )
        got_rows = [(r["model"], r["hall_total"], r["hall_failed"]) for r in rows]
        want_rows = [(m, 0 if t is None else t, 0 if f is None else f) for m, t, f in want]
        if got_rows != want_rows:
            self.problem(f"cycle {index}: history rows {got_rows} != {want_rows}")
            ok = False
        elif any(
            r["timestamp"] != TIMESTAMP_BASE + index or r["batch_id"] != files.batch_id
            for r in rows
        ):
            self.problem(f"cycle {index}: history rows carry the wrong timestamp or batch")
            ok = False
        elif self.shape.hal and rows[0]["hal"] != 0.0:
            self.problem(f"cycle {index}: baseline Hal is {rows[0]['hal']}, planted 0.0")
            ok = False
        elif not self.check_scores(index, rows, files):
            ok = False
        if index < DIGEST_CYCLES:
            self.history_hash.update(new)
            self.baseline_hash.update(got.encode("utf-8"))
        return ok

    def check_scores(self, index: int, rows: list[dict], files) -> bool:
        """The scores the planted truth fixes. Each candidate's Hal is its
        planted failed share. A candidate file that is the planted baseline
        has the baseline row's ICR, IPR and CI, zero deltas and score, and
        is never flagged (past scores are never negative)."""
        base = rows[0]
        for row, (model, path, total, failed) in zip(rows[1:], sorted(files.candidates)):
            wrong = [] if row["hal"] == failed / total else ["hal"]
            if path == files.expected_baseline:
                wrong += [k for k in ("icr", "ipr", "ci") if row[k] != base[k]]
                wrong += [k for k in ("d_icr", "d_ipr", "d_ci", "score") if row[k] != 0.0]
                wrong += ["flagged"] if row["flagged"] else []
            if wrong:
                self.problem(f"cycle {index}: {model} row has wrong {', '.join(wrong)}")
                return False
        return True

    def check_pinned(self, workload: str) -> None:
        pinned = json.loads(PINNED.read_text(encoding="utf-8")).get(workload, {})
        if pinned.get("seed") != self.seed:
            return
        for key, value in self.digests().items():
            if key in pinned and pinned[key] != value:
                self.problem(f"{key} {value} differs from the pinned {pinned[key]}")

    def digests(self) -> dict:
        return {
            "history_sha256": self.history_hash.hexdigest(),
            "baseline_sha256": self.baseline_hash.hexdigest(),
            "digest_cycles": DIGEST_CYCLES,
        }


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def _more(values: list, seconds: list) -> bool:
    """Whether a repeated measurement, with `seconds` of wall time so far,
    needs another repeat."""
    return len(values) < MAX_REPS and (len(values) < MIN_REPS or sum(seconds) < MIN_SECONDS)


def _bits(value):
    return None if value is None else float(value).hex()


# -- untraced run: end-to-end metrics -----------------------------------------


def end_to_end(kgmon, workload: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    run = Run(kgmon, workload, seed, "e2e")
    try:
        setup = run.measure_setup()
        if run.shape.prefill:
            run.simulate(prefill=True)
        for index in range(WARMUP_CYCLES):
            run.cycle(index)
        durations: list[tuple[float, float]] = []
        sims: list[tuple[float, float]] = []
        replays: list[tuple[float, float]] = []
        # After each cycle, one simulate and one replay of the history it
        # wrote, so the two rates are medians over the whole run, not over
        # a few seconds of it. Their time does not count toward `seconds`.
        start = time.perf_counter()
        rates_seconds = 0.0
        while (
            len(durations) < MIN_TIMED_CYCLES
            or time.perf_counter() - start - rates_seconds < seconds
        ):
            durations.append(run.cycle(WARMUP_CYCLES + len(durations)))
            rates_start = time.perf_counter()
            sims.append(run.simulate())
            replays.append(run.replay(run.sim_histories[-1]))
            rates_seconds += time.perf_counter() - rates_start
        history_rows = _count_lines(Path(run.paths["history"]))
        run.replay(run.paths["history"])
    finally:
        run.close()

    def metrics_of(k: int) -> dict:
        cycles = [d[k] for d in durations]
        return {
            "setup_s": setup[k],
            "cycle_p50_s": statistics.median(cycles),
            "cycle_tail_s": tail_stat(cycles)[0],
            "docs_per_s": run.docs * len(cycles) / sum(cycles),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "simulate_rows_per_s": statistics.median(s[k] for s in sims),
            "replay_rows_per_s": statistics.median(r[k] for r in replays),
        }

    metrics = metrics_of(0)
    _tail, pct, beyond = tail_stat([d[0] for d in durations])
    info = {
        "wall": metrics_of(1),
        "timed_cycles": len(durations),
        "cycle_tail_percentile": round(pct, 1),
        "cycle_tail_beyond": beyond,
        "fail_ratio": run.cycles_failed / run.cycles,
        "history_rows": history_rows,
        **run.digests(),
    }
    return run, metrics, info


# -- traced run: per-layer metrics --------------------------------------------


def _rows_read(tracer, result, _args):
    if tracer.phase == "cycle":
        tracer.counts["history_rows_read"] += len(result)


def _tokens(tracer, result, _args):
    tracer.counts["tokens"] += len(result)


def _scanned(tracer, _result, args):
    tracer.counts["scanned_tokens"] += len(args[0])


def _rules(tracer, result, _args):
    tracer.counts["rules"] = len(result)


def _triples(tracer, result, _args):
    tracer.counts["triples_emitted"] += len(result[1])


def _candidate(tracer, result, _args):
    tracer.counts["candidate_entities"] += len(result[0].entities)


def _validated(tracer, result, _args):
    tracer.counts["validated_entities"] += result.total
    for stage, count in result.per_stage.items():
        tracer.counts["failed." + stage] += count


# (metric prefix, home module, attribute, result hook, guard group, cycle alias)
TRACED = (
    ("cli.load_run_config", "kgmon.cli", "load_run_config", None, None, None),
    ("cli.load_batch", "kgmon.cli", "load_batch", None, None, None),
    ("cli._read_history_rows", "kgmon.cli", "_read_history_rows", _rows_read,
     "history_read", "monitor.history_read"),
    ("kernels.tokenize", "kgmon.kernels", "tokenize", _tokens, None, None),
    ("kernels.find_matches", "kgmon.kernels", "find_matches", _scanned, None, None),
    ("ontology.load_ontology", "kgmon.ontology", "load_ontology", None, None, None),
    ("ontology.is_subclass", "kgmon.ontology", "Ontology.is_subclass", None, None, None),
    ("ontology.is_permissible", "kgmon.ontology", "is_permissible", None, None, None),
    ("extract.load_dictionary", "kgmon.extract", "load_dictionary", None, None, None),
    ("extract.load_rules", "kgmon.extract", "load_rules", _rules, None, None),
    ("extract.build_baseline", "kgmon.extract", "build_baseline", None, None, None),
    ("extract.extract_article", "kgmon.extract", "extract_article", _triples, None, None),
    ("graph.build_graph", "kgmon.graph", "build_graph", None, None, None),
    ("graph.parse_records", "kgmon.graph", "parse_records", None, None, None),
    ("llm.ingest_offline", "kgmon.llm", "ingest_offline", _candidate, None, None),
    ("hallucination.validate_graph", "kgmon.hallucination", "validate_graph", _validated,
     None, None),
    ("hallucination.trace_entity", "kgmon.hallucination", "trace_entity", None, None, None),
    ("metrics.metric_vector", "kgmon.metrics", "metric_vector", None, None, None),
    ("monitor.observe", "kgmon.monitor", "observe", None, None, None),
    ("monitor.append_history", "kgmon.monitor", "append_history", None, None, None),
    ("monitor.read_history", "kgmon.monitor", "read_history", _rows_read,
     "history_read", "monitor.history_read"),
    ("monitor.replay_history", "kgmon.monitor", "replay_history", None, None, None),
    ("simlab.run_scenario", "kgmon.simlab", "run_scenario", None, None, None),
)

# Counters fed by result hooks, and the metric each one is reported as.
COUNTERS = {
    "kernels.tokens": "tokens",
    "graph.candidate_entities": "candidate_entities",
    "monitor.history_rows_read": "history_rows_read",
    "hallucination.failed.source-trace": "failed.source-trace",
    "hallucination.failed.schema-alignment": "failed.schema-alignment",
    "hallucination.failed.rule-conformance": "failed.rule-conformance",
}


@contextlib.contextmanager
def _tracing(tracer: Tracer):
    for spec in TRACED:
        tracer.patch(*spec)
    try:
        yield
    finally:
        tracer.restore()


def per_layer(kgmon, workload: str, seed: int) -> tuple[Run, dict, dict]:
    run = Run(kgmon, workload, seed, "trace")
    tracer = Tracer()
    try:
        tracer.phase = "simulate"
        with _tracing(tracer):
            run.simulate()
            if run.shape.prefill:
                run.simulate(prefill=True)
        # Untraced cycles first: the reference for the tracing overhead, and
        # the digests the traced cycles must reproduce.
        plain = [run.cycle(i)[0] for i in range(DIGEST_CYCLES)][WARMUP_CYCLES:]
        plain_digests = run.digests()
        run.reset_history()
        with _tracing(tracer):
            tracer.phase = "cycle"
            traced = [run.cycle(i, tracer)[0] for i in range(DIGEST_CYCLES)][WARMUP_CYCLES:]
            tracer.phase = "replay"
            run.replay(run.paths["history"])
        if run.digests() != plain_digests:
            run.failed += 1
            run.problem("traced cycles produced other digests than untraced ones")
    finally:
        run.close()

    names = metric_units("per_layer")
    metrics = layer_metrics(tracer, names)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    cycle_spans = {
        name[:-2]: tracer.total(
            "monitor.history_read" if name == "monitor.history_read.s" else name[:-2],
            ("cycle",),
        ).seconds
        for name in names
        if name.endswith(".s")
    }
    info = {
        "largest_cycle_span": max(cycle_spans, key=cycle_spans.get) if cycle_spans else None,
        "absent": sorted(set(tracer.absent)),
        **run.digests(),
    }
    return run, metrics, info


def layer_metrics(tracer: Tracer, names) -> dict:
    out: dict[str, float] = {}
    for name in names:
        if name in COUNTERS:
            out[name] = tracer.counts[COUNTERS[name]]
            continue
        base, _, field = name.rpartition(".")
        if name == "monitor.history_read.s":
            stat = tracer.total("monitor.history_read", ("cycle",))
        elif name == "cli.cycle.self_s":
            stat = tracer.total("cli.cycle")
        else:
            stat = tracer.total(base)
        if field == "calls":
            out[name] = stat.calls
        elif field == "s":
            out[name] = stat.seconds
        elif field == "self_s":
            out[name] = stat.self_seconds
    validated = tracer.counts["validated_entities"]
    out["hallucination.validate_graph.us_per_entity"] = (
        1e6 * tracer.total("hallucination.validate_graph").seconds / validated
        if validated
        else 0.0
    )
    work = tracer.counts["rules"] * tracer.counts["scanned_tokens"]
    out["extract.rule_hit_ratio"] = tracer.counts["triples_emitted"] / work if work else 0.0
    return out


# -- entry point ----------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    kgmon = _import_kgmon()
    WORK.mkdir(parents=True, exist_ok=True)
    if args.trace:
        run, values, info = per_layer(kgmon, args.workload, args.seed)
        units = metric_units("per_layer")
    else:
        run, values, info = end_to_end(kgmon, args.workload, args.seed, args.seconds)
        units = metric_units("end_to_end")
    run.check_pinned(args.workload)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernels": kgmon.kernels.implementation,
        "docs_per_batch": run.docs,
        "chars_per_batch": run.chars,
        "entities_per_batch": run.entities,
        **info,
    }
    print("env " + json.dumps(env))
    for name, unit in units.items():
        shown = "absent" if name.rpartition(".")[0] in env.get("absent", ()) else values[name]
        print(f"  {name:<46} {shown!s:>22} {unit}")
    for problem in run.problems:
        print(f"  check failed: {problem}")
    correct = not run.problems and run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
