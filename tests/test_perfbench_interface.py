"""The kgmon interface that the pipeline benchmark (`perfbench/run.py`)
reads, called as the benchmark calls it.

The benchmark is not imported here: it is a separate program whose hooks
wrap these functions by name and read fixed parts of their results. A
change that renames one of them, or reshapes a result a hook reads, fails
here before it breaks a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from kgmon import cli, extract, graph, hallucination, kernels, llm, monitor, ontology

from conftest import DICTIONARY_TEXT, ONTOLOGY_TEXT, RULES_TEXT

# (module, attribute) of every function the benchmark traces that kgmon
# still defines; the tracer looks each one up by these names.
TRACED = [
    ("kgmon.cli", "load_run_config"),
    ("kgmon.cli", "load_batch"),
    ("kgmon.kernels", "find_matches"),
    ("kgmon.ontology", "load_ontology"),
    ("kgmon.ontology", "is_permissible"),
    ("kgmon.extract", "load_dictionary"),
    ("kgmon.extract", "load_rules"),
    ("kgmon.extract", "build_baseline"),
    ("kgmon.extract", "extract_article"),
    ("kgmon.graph", "build_graph"),
    ("kgmon.graph", "parse_records"),
    ("kgmon.llm", "ingest_offline"),
    ("kgmon.hallucination", "validate_graph"),
    ("kgmon.metrics", "metric_vector"),
    ("kgmon.monitor", "observe"),
    ("kgmon.monitor", "append_history"),
    ("kgmon.monitor", "read_history"),
    ("kgmon.monitor", "replay_history"),
    ("kgmon.simlab", "run_scenario"),
]


@pytest.mark.parametrize("module, attribute", TRACED, ids=lambda v: v)
def test_traced_functions_exist(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_benchmark_hooks_read_the_result_shapes(tmp_path):
    for name, text in (
        ("ontology.txt", ONTOLOGY_TEXT),
        ("dictionary.tsv", DICTIONARY_TEXT),
        ("rules.tsv", RULES_TEXT),
    ):
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "run.json").write_text(
        '{"ontology": "ontology.txt", "dictionary": "dictionary.tsv", '
        '"rules": "rules.tsv", "history": "history.jsonl", "models": ["probe"], '
        '"lambda": 2.5, "window": 7, "warmup_min": 3}',
        encoding="utf-8",
    )

    # Set-up, as Run.setup_once does it.
    config = cli.load_run_config(str(tmp_path / "run.json"))
    assert (config.window, config.lam, config.warmup_min) == (7, 2.5, 3)
    onto = ontology.load_ontology(Path(config.ontology).read_text(encoding="utf-8"))
    dictionary = extract.load_dictionary(DICTIONARY_TEXT, onto)
    rules = extract.load_rules(RULES_TEXT, onto)
    assert len(rules) == 2  # the `_rules` hook

    # The baseline capture keeps `result[0]` and serializes it.
    batch = tmp_path / "batch.tsv"
    batch.write_text(
        "a1\t100\tAlice Chen works for Acme Corp. Acme Corp is based in Berlin.\n",
        encoding="utf-8",
    )
    articles = cli.load_batch(str(batch))
    result = extract.build_baseline(articles, dictionary, rules, onto)
    assert isinstance(result, tuple)
    assert isinstance(result[0], graph.KnowledgeGraph)
    assert graph.canonical_serialize(result[0]).startswith("E\tAcme Corp\tCompany\ta1\n")

    # The `_triples` hook reads `len(result[1])`.
    per_article = extract.extract_article(articles[0], dictionary, rules, onto)
    assert len(per_article[1]) == 2

    # The `_candidate` hook reads `result[0].entities`.
    records = tmp_path / "probe.rec"
    records.write_text(graph.canonical_serialize(result[0]), encoding="utf-8")
    assert llm.ingest_offline(str(records))[0].entities == result[0].entities

    # The `_validated` hook reads `.total` and `.per_stage`.
    report = hallucination.validate_graph(
        result[0], hallucination.source_text(articles), onto
    )
    assert report.total == 3
    for stage, count in report.per_stage.items():
        assert isinstance(stage, str) and isinstance(count, int)

    # Replay, as Run.replay does it: read, replay, compare bit for bit.
    history = str(tmp_path / "history.jsonl")
    argv = ["evaluate", "--config", str(tmp_path / "run.json")]
    argv += ["--batch", str(batch), "--candidate", f"probe={records}"]
    for ts in range(1, 6):
        assert cli.main(argv + ["--timestamp", str(ts)]) == 0
    rows = monitor.read_history(history)
    assert len(rows) == 10  # the `_rows_read` hook
    replayed = monitor.replay_history(
        rows, capacity=config.window, lam=config.lam, warmup_min=config.warmup_min
    )
    stored = [row for row in rows if row.model != monitor.BASELINE_MODEL]
    assert len(replayed) == len(stored)
    for row, threshold, flagged in replayed:
        assert (threshold, flagged) == (row.threshold, row.flagged)

    # Named on the benchmark's env line.
    assert isinstance(kernels.implementation, str)
