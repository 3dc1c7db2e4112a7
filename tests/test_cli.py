import contextlib
import errno
import hashlib
import io
import json
import logging
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgmon import cli, extract, llm
from kgmon.cli import (
    CliError,
    _unescape_text,
    load_batch,
    load_run_config,
    main,
)
from kgmon.extract import INDEX_SUFFIX, build_baseline
from kgmon.hallucination import source_text, validate_graph
from kgmon.metrics import MetricVector, metric_delta
from kgmon.monitor import UndecodableFileError, anomaly_score, read_history

from conftest import (
    DICTIONARY_TEXT,
    NOT_LINE_BREAKS,
    ONTOLOGY_TEXT,
    RULES_TEXT,
    FakeResponse,
    codepoint,
)

BATCH_LINE = (
    "b1\t100\tAlice Chen works for Acme Corp. Acme Corp is based in Berlin.\n"
)

GOOD_CANDIDATE = (
    "E\tAcme Corp\tCompany\tb1\n"
    "E\tAlice Chen\tPerson\tb1\n"
    "E\tBerlin\tCity\tb1\n"
    "T\tAcme Corp\tlocatedIn\tBerlin\tb1\n"
    "T\tAlice Chen\tworksFor\tAcme Corp\tb1\n"
)

BAD_CANDIDATE = "E\tZorblax\tMartian\tb1\n"


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "ontology.txt").write_text(ONTOLOGY_TEXT, encoding="utf-8")
    (tmp_path / "dictionary.tsv").write_text(DICTIONARY_TEXT, encoding="utf-8")
    (tmp_path / "rules.tsv").write_text(RULES_TEXT, encoding="utf-8")
    (tmp_path / "batch.tsv").write_text(BATCH_LINE, encoding="utf-8")
    (tmp_path / "good.rec").write_text(GOOD_CANDIDATE, encoding="utf-8")
    (tmp_path / "bad.rec").write_text(BAD_CANDIDATE, encoding="utf-8")
    return tmp_path


def _write_config(ws, **overrides):
    payload = {
        "ontology": "ontology.txt",
        "dictionary": "dictionary.tsv",
        "rules": "rules.tsv",
        "history": "history.jsonl",
        "models": ["probe"],
        "weights": {"icr": 1.0, "ipr": 1.0, "ci": 1.0},
        "lambda": 2.0,
        "window": 30,
        "warmup_min": 2,
    }
    payload.update(overrides)
    path = ws / "run.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_load_run_config_resolves_relative_paths(ws):
    config = load_run_config(_write_config(ws))
    assert config.ontology == str(ws / "ontology.txt")
    assert config.history == str(ws / "history.jsonl")
    assert config.models == ["probe"]
    assert config.lam == 2.0
    assert config.warmup_min == 2
    assert config.weights.icr == pytest.approx(1 / 3)
    assert config.weights.hal is None


def test_load_run_config_rejects_bad_documents(ws):
    with pytest.raises(CliError, match="unknown keys: frobnicate"):
        load_run_config(_write_config(ws, frobnicate=1))
    with pytest.raises(CliError, match="missing keys"):
        path = ws / "short.json"
        path.write_text('{"ontology": "ontology.txt"}', encoding="utf-8")
        load_run_config(str(path))
    with pytest.raises(CliError, match="reserved"):
        load_run_config(_write_config(ws, models=["GT"]))
    with pytest.raises(CliError, match="duplicate model"):
        load_run_config(_write_config(ws, models=["a", "a"]))
    with pytest.raises(CliError, match="list of names"):
        load_run_config(_write_config(ws, models="probe"))
    with pytest.raises(CliError, match="weights need"):
        load_run_config(_write_config(ws, weights={"icr": 1.0}))
    with pytest.raises(CliError, match="unknown weight keys"):
        load_run_config(
            _write_config(ws, weights={"icr": 1, "ipr": 1, "ci": 1, "x": 1})
        )
    with pytest.raises(CliError, match="dictionary file not found"):
        load_run_config(_write_config(ws, dictionary="nope.tsv"))
    bad = ws / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(CliError, match="bad.json"):
        load_run_config(str(bad))
    bad.write_text("[1]", encoding="utf-8")
    with pytest.raises(CliError, match="bad.json: expected a key-value document"):
        load_run_config(str(bad))


_INT_KEYS = ("window", "warmup_min", "noise_seed")
_REAL_KEYS = ("lambda", "noise_sigma")
_ENDPOINT_INT_KEYS = ("max_retries", "parallelism")
_ENDPOINT_REAL_KEYS = ("temperature", "timeout")
_NOT_A_NUMBER = ("x", None, True)


@pytest.mark.parametrize(
    "key, value",
    [
        (key, value)
        for key in _INT_KEYS + _ENDPOINT_INT_KEYS
        for value in _NOT_A_NUMBER + (1.7,)
    ]
    + [
        (key, value)
        for key in _REAL_KEYS + _ENDPOINT_REAL_KEYS
        for value in _NOT_A_NUMBER
    ],
)
def test_config_number_of_wrong_type_is_an_error(
    ws, monkeypatch, capsys, key, value
):
    if key in _ENDPOINT_INT_KEYS + _ENDPOINT_REAL_KEYS:
        # monitor reads the endpoint config before its first cycle.
        config = _monitor_workspace(ws, monkeypatch)
        bad, label = ws / "endpoint.json", "endpoint config"
        endpoint = json.loads(bad.read_text(encoding="utf-8"))
        bad.write_text(json.dumps({**endpoint, key: value}), encoding="utf-8")
        argv = ["monitor", "--config", config, "--interval", "1", "--cycles", "1"]
        rc = main(argv)
    else:
        config = _write_config(ws, **{key: value})
        bad, label = ws / "run.json", "config"
        rc = _evaluate(ws, config, f"probe={ws / 'good.rec'}", 1)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"ERROR {label} {bad}: {key} must be" in err
    assert "Traceback" not in err
    assert not (ws / "history.jsonl").exists()


def test_load_run_config_number_types(ws):
    config = load_run_config(_write_config(ws, **{"lambda": 3, "noise_sigma": 0.5}))
    assert config.lam == 3.0 and type(config.lam) is float
    assert config.noise_sigma == 0.5
    # 1e400 parses as inf; 10**400 is an int too large for a float.
    for key, value in (("lambda", 1e400), ("noise_sigma", 10**400), ("window", 2.0)):
        with pytest.raises(CliError, match=f"{key} must be"):
            load_run_config(_write_config(ws, **{key: value}))
    weights = {"icr": True, "ipr": 1, "ci": 1}
    expect = "weights: icr must be a finite number, not true"
    with pytest.raises(CliError, match=expect):
        load_run_config(_write_config(ws, weights=weights))
    for key in ("history", "feed_url", "endpoint_config"):
        with pytest.raises(CliError, match=f"{key} must be a string, not 5"):
            load_run_config(_write_config(ws, **{key: 5}))


@pytest.mark.parametrize(
    "weights, message",
    [
        ({"icr": 0, "ipr": 0, "ci": 0}, "at least one weight must be positive"),
        ({"icr": 0, "ipr": 0, "ci": 0, "hal": 0}, "at least one weight must be positive"),
        ({"icr": 1, "ipr": -0.5, "ci": 1}, "weights must be nonnegative"),
        ({"icr": 1e308, "ipr": 1e308, "ci": 0}, "weights must have a finite sum"),
    ],
    ids=["all-zero", "all-zero-with-hal", "negative", "overflowing-sum"],
)
def test_bad_weights_are_one_error_line(ws, capsys, weights, message):
    config = _write_config(ws, weights=weights)
    rc = _evaluate(ws, config, f"probe={ws / 'good.rec'}", 1)
    assert rc == 1
    assert capsys.readouterr().err == f"ERROR config {config}: bad weights: {message}\n"
    assert not (ws / "history.jsonl").exists()


def test_load_run_config_hal_weight(ws):
    config = load_run_config(
        _write_config(ws, weights={"icr": 1, "ipr": 1, "ci": 1, "hal": 1})
    )
    assert config.weights.hal == 0.25


def _escape_text(text):
    # The batch-file escaping that _unescape_text undoes.
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def test_escape_round_trip():
    rng = random.Random(3)
    alphabet = "ab\\n\nx\t"
    for _ in range(300):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 20)))
        escaped = _escape_text(s)
        assert "\n" not in escaped
        assert _unescape_text(escaped) == s


def _reference_unescape(text):
    # The character loop _unescape_text replaced, kept as its oracle.
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="\\nx\t\n", max_size=24))
@example("tail\\")
@example("\\\\n")
def test_unescape_matches_reference(text):
    assert _unescape_text(text) == _reference_unescape(text)


def test_load_batch_file_unescapes(tmp_path):
    path = tmp_path / "batch.tsv"
    path.write_text(
        "# comment\n"
        "e1\t5\tline one\\nline two\n"
        "e2\t6\tplain\ttext with tab kept\n",
        encoding="utf-8",
    )
    articles = load_batch(str(path))
    assert articles[0].text == "line one\nline two"
    assert articles[1].text == "plain\ttext with tab kept"
    assert [a.id for a in articles] == ["e1", "e2"]


def test_load_batch_file_errors(tmp_path):
    path = tmp_path / "batch.tsv"
    path.write_text("onlyid\t7\n", encoding="utf-8")
    with pytest.raises(CliError, match="expected id"):
        load_batch(str(path))
    path.write_text("e1\tnotanint\ttext\n", encoding="utf-8")
    with pytest.raises(CliError, match="published_at"):
        load_batch(str(path))
    path.write_text("e1\t1\ta\n \t2\tb\n", encoding="utf-8")
    with pytest.raises(CliError, match="batch line 2: empty article id"):
        load_batch(str(path))
    path.write_text("e1\t1\ta\ne1\t2\tb\n", encoding="utf-8")
    with pytest.raises(CliError, match="duplicate article ids"):
        load_batch(str(path))
    with pytest.raises(CliError, match="not found"):
        load_batch(str(tmp_path / "ghost"))


def test_load_batch_names_repeated_ids_of_a_large_batch(tmp_path):
    # Ids are counted in one pass: a 20,000-article batch is checked at once.
    path = tmp_path / "batch.tsv"
    ids = [f"a{i}" for i in range(20_000)] + ["a7", "a19999", "a7"]
    path.write_text("".join(f"{i}\t1\ttext\n" for i in ids), encoding="utf-8")
    with pytest.raises(CliError) as excinfo:
        load_batch(str(path))
    assert str(excinfo.value) == "duplicate article ids in batch: a19999, a7"


def _load_feed(monkeypatch, text):
    monkeypatch.setattr(cli, "_feed_get", lambda _url: text)
    return load_batch("https://feed.example/b")


@pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=codepoint)
def test_batch_text_keeps_unicode_line_separators_in_the_article(char, monkeypatch):
    feed = f"a1\t0\tOne line{char}same article.\na2\t1\tTwo.\n"
    articles = _load_feed(monkeypatch, feed)
    assert [(a.id, a.text) for a in articles] == [
        ("a1", f"One line{char}same article."),
        ("a2", "Two."),
    ]


def test_batch_text_breaks_lines_as_text_mode_does(monkeypatch):
    feed = "a1\t0\tOne.\r\na2\t1\tTwo.\ra3\t2\tThree.\n"
    articles = _load_feed(monkeypatch, feed)
    assert [(a.id, a.text) for a in articles] == [
        ("a1", "One."), ("a2", "Two."), ("a3", "Three."),
    ]
    # Each \r\n is one line break, so error messages count lines right.
    bad = "a1\t0\tOne.\r\n\r\nno fields\u2028here\r\n"
    with pytest.raises(CliError, match="batch line 3: expected id"):
        _load_feed(monkeypatch, bad)


def test_load_batch_directory(tmp_path, caplog):
    d = tmp_path / "articles"
    d.mkdir()
    (d / "a.txt").write_text("Alice Chen works for Globex.", encoding="utf-8")
    (d / "b.txt").write_text("   ", encoding="utf-8")
    (d / "c.txt").write_text("Berlin grew.", encoding="utf-8")
    (d / "ignored.md").write_text("not loaded", encoding="utf-8")
    with caplog.at_level("WARNING", logger="kgmon.cli"):
        articles = load_batch(str(d))
    assert [a.id for a in articles] == ["a", "c"]
    assert any("empty article file b.txt" in r.message for r in caplog.records)
    empty = tmp_path / "empty"
    empty.mkdir()
    caplog.clear()
    with caplog.at_level("WARNING", logger="kgmon.cli"):
        assert load_batch(str(empty)) == []
    assert [r.getMessage() for r in caplog.records] == [f"empty batch from {empty}"]
    (d / "d.txt").write_bytes(b"\xff")
    bad = re.escape(str(d / "d.txt"))
    with pytest.raises(UndecodableFileError, match=f"^{bad}: not valid UTF-8"):
        load_batch(str(d))


def _build_baseline(ws, out):
    argv = ["build-baseline", "--ontology", str(ws / "ontology.txt")]
    argv += ["--dict", str(ws / "dictionary.tsv"), "--rules", str(ws / "rules.tsv")]
    argv += ["--batch", str(ws / "batch.tsv"), "--out", str(out)]
    return main(argv)


def test_build_baseline_same_bytes_cold_warm_and_unwritable_index(
    ws, capsys, monkeypatch, caplog
):
    index = ws / ("dictionary.tsv" + INDEX_SUFFIX)
    assert _build_baseline(ws, ws / "cold.rec") == 0
    assert index.exists()
    with monkeypatch.context() as patch:
        patch.setattr(
            extract, "load_dictionary", lambda *a: pytest.fail("dictionary parsed")
        )
        assert _build_baseline(ws, ws / "warm.rec") == 0
    index.unlink()
    files = sorted(p.name for p in ws.iterdir())
    monkeypatch.setattr(os, "replace", _disk_full)
    with caplog.at_level("DEBUG", logger="kgmon.extract"):
        assert _build_baseline(ws, ws / "unwritten.rec") == 0
    assert "not written: [Errno 28]" in caplog.text
    # Only the output file is new: no index, no temporary file.
    assert sorted(p.name for p in ws.iterdir()) == sorted(files + ["unwritten.rec"])
    outs = [(ws / name).read_bytes() for name in ("cold.rec", "warm.rec", "unwritten.rec")]
    assert outs == [GOOD_CANDIDATE.encode("utf-8")] * 3
    stdout = capsys.readouterr().out.splitlines()
    assert len(stdout) == 3 and len({line.split(" -> ")[0] for line in stdout}) == 1


def test_evaluate_with_stale_index_checks_the_ontology(ws, capsys):
    config = _write_config(ws)
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 1) == 0
    assert (ws / ("dictionary.tsv" + INDEX_SUFFIX)).exists()
    ontology = ws / "ontology.txt"
    ontology.write_text(
        ontology.read_text(encoding="utf-8").replace("CLASS City SUBCLASS_OF Location\n", ""),
        encoding="utf-8",
    )
    capsys.readouterr()
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 2) == 1
    assert "unknown class 'City'" in capsys.readouterr().err


def test_build_baseline_command(ws, capsys):
    out = ws / "baseline.rec"
    rc = main(
        [
            "build-baseline",
            "--ontology",
            str(ws / "ontology.txt"),
            "--dict",
            str(ws / "dictionary.tsv"),
            "--rules",
            str(ws / "rules.tsv"),
            "--batch",
            str(ws / "batch.tsv"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert out.read_text(encoding="utf-8") == GOOD_CANDIDATE
    stdout = capsys.readouterr().out
    assert "3 entities, 2 triples, 0 class conflicts" in stdout


def _evaluate(ws, config, candidate, ts):
    return main(
        [
            "evaluate",
            "--config",
            config,
            "--batch",
            str(ws / "batch.tsv"),
            "--candidate",
            candidate,
            "--timestamp",
            str(ts),
        ]
    )


def test_evaluate_writes_baseline_then_model_rows(ws):
    config = _write_config(ws)
    rc = _evaluate(ws, config, f"probe={ws / 'good.rec'}", 1)
    assert rc == 0
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.model for r in rows] == ["GT", "probe"]
    gt, probe = rows
    assert gt.timestamp == 1 and gt.batch_id == "batch"
    assert gt.icr == 0.6 and gt.ipr == 1.0
    assert gt.threshold is None and gt.flagged is False
    assert gt.hal is None
    assert probe.score == 0.0
    assert probe.threshold is None  # still warming up
    assert probe.hal == 0.0
    assert probe.hall_total == 3 and probe.hall_failed == 0


def test_evaluate_flags_divergent_candidate(ws, capsys):
    config = _write_config(ws)
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 1) == 0
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 2) == 0
    capsys.readouterr()
    rc = _evaluate(ws, config, f"probe={ws / 'bad.rec'}", 3)
    assert rc == 2
    err = capsys.readouterr().err
    alert = "ALERT model=probe timestamp=3 score=0.755556 threshold=0.000000 top=ipr\n"
    assert err.endswith(alert)
    rows = read_history(str(ws / "history.jsonl"))
    last = rows[-1]
    assert last.model == "probe" and last.flagged
    assert last.threshold == 0.0
    assert last.hall_total == 1 and last.hall_failed == 1


# Two entities the batch text never names, so source tracing fails them.
HALLUCINATING_CANDIDATE = GOOD_CANDIDATE + (
    "E\tZorblax Prime\tPerson\tb1\n"
    "E\tQuux Holdings\tCompany\tb1\n"
)


def test_evaluate_with_hal_weight_scores_the_hal_delta(ws, capsys):
    config = _write_config(ws, weights={"icr": 1, "ipr": 1, "ci": 1, "hal": 1})
    (ws / "hallucinating.rec").write_text(HALLUCINATING_CANDIDATE, encoding="utf-8")
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 1) == 0
    _evaluate(ws, config, f"probe={ws / 'hallucinating.rec'}", 2)

    ontology, dictionary, rules = cli._load_pipeline(
        str(ws / "ontology.txt"), str(ws / "dictionary.tsv"), str(ws / "rules.tsv")
    )
    batch = load_batch(str(ws / "batch.tsv"))
    g_base, _ = build_baseline(batch, dictionary, rules, ontology)
    base_hal = validate_graph(g_base, source_text(batch), ontology).score

    rows = read_history(str(ws / "history.jsonl"))
    assert [(r.timestamp, r.model) for r in rows] == [
        (1, "GT"), (1, "probe"), (2, "GT"), (2, "probe")
    ]
    weights = load_run_config(config).weights
    for gt, probe in (rows[0:2], rows[2:4]):
        assert gt.hal == base_hal
        delta = metric_delta(
            MetricVector(icr=probe.icr, ipr=probe.ipr, ci=probe.ci, hal=probe.hal),
            MetricVector(icr=gt.icr, ipr=gt.ipr, ci=gt.ci, hal=gt.hal),
        )
        assert probe.score.hex() == anomaly_score(delta, weights).hex()
    assert rows[1].hal == base_hal and rows[1].score == 0.0
    # Only the Hal term moves: the two extra entities add no class.
    hallucinated = rows[3]
    assert hallucinated.hall_failed == 2 and hallucinated.hal > base_hal
    assert (hallucinated.d_icr, hallucinated.d_ipr, hallucinated.d_ci) == (
        0.0, 0.0, abs(hallucinated.ci - rows[2].ci)
    )
    assert hallucinated.score > 0.0

    capsys.readouterr()
    history = str(ws / "history.jsonl")
    assert main(["replay", "--history", history, "--config", config]) == 0
    assert "2 rows replayed, 0 mismatches" in capsys.readouterr().out


# One line outside the record grammar, one triple with an unasserted
# endpoint, and one entity asserted with two classes.
DIRTY_CANDIDATE = GOOD_CANDIDATE + (
    "E\tAcme Corp\n"
    "T\tAlice Chen\tworksFor\tInitech\tb1\n"
    "E\tBerlin\tLocation\tb1\n"
)
DIRTY_WARNING = (
    "model dirty candidate: 1 unparsed lines, 1 closure violations, "
    "1 class conflicts"
)


def test_evaluate_warns_once_per_model_with_ingest_counts(ws, caplog):
    (ws / "dirty.rec").write_text(DIRTY_CANDIDATE, encoding="utf-8")
    config = _write_config(ws, models=["dirty", "probe"])
    argv = ["evaluate", "--config", config, "--batch", str(ws / "batch.tsv")]
    argv += ["--candidate", f"dirty={ws / 'dirty.rec'}"]
    argv += ["--candidate", f"probe={ws / 'good.rec'}", "--timestamp", "1"]
    with caplog.at_level("WARNING"):
        assert main(argv) == 0
    assert [r.getMessage() for r in caplog.records] == [DIRTY_WARNING]
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.model for r in rows] == ["GT", "dirty", "probe"]


def test_evaluate_live_warns_with_batch_ingest_counts(ws, monkeypatch, caplog):
    _monitor_workspace(ws, monkeypatch)
    config = _write_config(ws, models=["dirty"], endpoint_config="endpoint.json")
    response = "BEGIN_KG\n" + DIRTY_CANDIDATE + "END_KG\n"
    monkeypatch.setattr(llm, "_http_transport", lambda *_args: response)
    with caplog.at_level("WARNING"):
        assert _evaluate(ws, config, "dirty=live", 1) == 0
    assert [r.getMessage() for r in caplog.records] == [DIRTY_WARNING]


def test_evaluate_requires_known_candidate_model(ws, capsys):
    config = _write_config(ws)
    rc = _evaluate(ws, config, f"ghost={ws / 'good.rec'}", 1)
    assert rc == 1
    assert "ERROR" in capsys.readouterr().err
    assert not (ws / "history.jsonl").exists()


def test_evaluate_candidate_parse_errors(ws, capsys):
    config = _write_config(ws)
    assert _evaluate(ws, config, "probe", 1) == 1
    assert _evaluate(ws, config, f"GT={ws / 'good.rec'}", 1) == 1
    assert _evaluate(ws, config, "probe= ", 1) == 1
    assert "must be MODEL=PATH or MODEL=live: 'probe= '" in capsys.readouterr().err
    argv = ["evaluate", "--config", config, "--batch", str(ws / "batch.tsv")]
    good = f"probe={ws / 'good.rec'}"
    assert main(argv + ["--candidate", good, "--candidate", good]) == 1
    assert "ERROR duplicate candidate model 'probe'" in capsys.readouterr().err
    assert not (ws / "history.jsonl").exists()


def test_evaluate_batch_directory_without_a_name_is_labelled_batch(
    ws, monkeypatch
):
    articles = ws / "articles"
    articles.mkdir()
    (articles / "b1.txt").write_text(BATCH_LINE.split("\t")[2], encoding="utf-8")
    config = _write_config(ws)
    monkeypatch.chdir(articles)
    argv = ["evaluate", "--config", config, "--batch", "."]
    assert main(argv + ["--candidate", f"probe={ws / 'good.rec'}"]) == 0
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.batch_id for r in rows] == ["batch", "batch"]


@pytest.mark.parametrize(
    "models, model", [(["probe"], "GT"), ([], "probe")], ids=["baseline", "no-models"]
)
def test_evaluate_unlisted_candidate_writes_no_history(ws, capsys, models, model):
    config = _write_config(ws, models=models)
    assert _evaluate(ws, config, f"{model}={ws / 'good.rec'}", 1) == 1
    assert capsys.readouterr().err.startswith("ERROR ")
    assert not (ws / "history.jsonl").exists()


def test_evaluate_batch_with_repeated_id_writes_no_history(ws, capsys):
    (ws / "batch.tsv").write_text(BATCH_LINE + BATCH_LINE, encoding="utf-8")
    config = _write_config(ws)
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 1) == 1
    assert capsys.readouterr().err == "ERROR duplicate article ids in batch: b1\n"
    assert not (ws / "history.jsonl").exists()


def test_evaluate_all_candidates_failed(ws, capsys):
    config = _write_config(ws)
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 1) == 0
    before = (ws / "history.jsonl").read_bytes()
    rc = _evaluate(ws, config, f"probe={ws / 'missing.rec'}", 2)
    assert rc == 1
    assert "ERROR every candidate extraction failed" in capsys.readouterr().err
    assert (ws / "history.jsonl").read_bytes() == before


def test_evaluate_undecodable_candidate_warns_with_its_path(ws, caplog):
    (ws / "dirty.rec").write_bytes(b"E\tAl\xffice\tPerson\ta1\n")
    config = _write_config(ws, models=["dirty", "probe"])
    argv = ["evaluate", "--config", config, "--batch", str(ws / "batch.tsv")]
    argv += ["--candidate", f"dirty={ws / 'dirty.rec'}"]
    argv += ["--candidate", f"probe={ws / 'good.rec'}", "--timestamp", "1"]
    with caplog.at_level("WARNING"):
        assert main(argv) == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"model dirty extraction failed: {ws / 'dirty.rec'}: "
        "not valid UTF-8: invalid start byte"
    ]
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.model for r in rows] == ["GT", "probe"]


def test_evaluate_all_candidates_failed_creates_no_history(ws, capsys):
    config = _write_config(ws)
    assert _evaluate(ws, config, f"probe={ws / 'missing.rec'}", 1) == 1
    capsys.readouterr()
    assert not (ws / "history.jsonl").exists()


def test_evaluate_live_without_endpoint_config(ws, capsys):
    config = _write_config(ws)
    rc = _evaluate(ws, config, "probe=live", 1)
    assert rc == 1
    assert "endpoint_config" in capsys.readouterr().err


def test_evaluate_non_monotone_timestamp_is_operational_error(ws, capsys):
    config = _write_config(ws)
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 5) == 0
    before = (ws / "history.jsonl").read_bytes()
    rc = _evaluate(ws, config, f"probe={ws / 'good.rec'}", 5)
    assert rc == 1
    assert "non-monotone" in capsys.readouterr().err
    # The rejected cycle's baseline row is not left behind.
    assert (ws / "history.jsonl").read_bytes() == before


def test_evaluate_rejects_non_finite_history_score(ws, capsys):
    config = _write_config(ws)
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 5) == 0
    history = ws / "history.jsonl"
    lines = history.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[-1])
    assert row["model"] == "probe"
    row["score"] = float("nan")
    lines[-1] = json.dumps(row)
    assert '"score": NaN' in lines[-1]
    history.write_text("\n".join(lines) + "\n", encoding="utf-8")
    before = history.read_bytes()
    rc = _evaluate(ws, config, f"probe={ws / 'good.rec'}", 6)
    assert rc == 1
    assert "non-finite anomaly score nan" in capsys.readouterr().err
    assert history.read_bytes() == before


@pytest.mark.parametrize("position, evaluate_rc", [("head", 0), ("tail", 1)])
def test_evaluate_parses_only_the_history_tail(ws, capsys, position, evaluate_rc):
    config = _write_config(ws, window=2)
    for ts in (1, 2):
        assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", ts) == 0
    history = ws / "history.jsonl"
    lines = history.read_text(encoding="utf-8").splitlines(keepends=True)
    # "head" is older than probe's last two rows; "tail" sits between them.
    lines.insert(0 if position == "head" else len(lines) - 1, "not json\n")
    history.write_text("".join(lines), encoding="utf-8")
    before = history.read_bytes()
    capsys.readouterr()
    rc = _evaluate(ws, config, f"probe={ws / 'good.rec'}", 3)
    assert rc == evaluate_rc
    if evaluate_rc:
        assert "ERROR bad history line" in capsys.readouterr().err
        assert history.read_bytes() == before
    assert main(["replay", "--history", str(history), "--config", config]) == 1
    assert "ERROR bad history line" in capsys.readouterr().err


def test_torn_last_history_line_breaks_no_later_run(ws, capsys, caplog):
    config = _write_config(ws)
    for ts in (1, 2):
        assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", ts) == 0
    history = ws / "history.jsonl"
    whole = history.read_bytes()
    # A write cut short: the first 60 bytes of a row, no newline.
    history.write_bytes(whole + whole.splitlines()[-1][:60])
    capsys.readouterr()
    replay = ["replay", "--history", str(history), "--config", config]
    report = ["report", "--history", str(history), "--format", "records"]
    with caplog.at_level("WARNING"):
        assert main(replay) == 0
        assert "2 rows replayed, 0 mismatches" in capsys.readouterr().out
        assert main(report) == 0
        assert capsys.readouterr().out.encode() == whole
        torn = f"history {history}: dropping a torn last line"
        assert [r.getMessage().startswith(torn) for r in caplog.records] == [True] * 2
        for ts in (3, 4):
            assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", ts) == 0
    damaged = history.read_bytes()

    # The same cycles on the undamaged history write the same bytes.
    (ws / "clean.jsonl").write_bytes(whole)
    config = _write_config(ws, history="clean.jsonl")
    for ts in (3, 4):
        assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", ts) == 0
    assert damaged == (ws / "clean.jsonl").read_bytes()
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert main(replay) == 0
    assert "4 rows replayed, 0 mismatches" in capsys.readouterr().out
    assert not caplog.records


def test_evaluate_warns_once_of_a_torn_history_line(ws, caplog):
    config = _write_config(ws)
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 1) == 0
    history = ws / "history.jsonl"
    whole = history.read_bytes()
    history.write_bytes(whole + whole.splitlines()[-1][:60])
    with caplog.at_level("DEBUG"):
        assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 2) == 0
    torn = f"history {history}: dropping a torn last line"
    # The tail read warns; the append that then cuts the line off only
    # logs at debug level.
    assert [
        r.levelname for r in caplog.records if r.getMessage().startswith(torn)
    ] == ["WARNING", "DEBUG"]
    assert history.read_bytes().startswith(whole)
    assert len(read_history(str(history))) == 4


def test_each_main_call_warns_to_its_own_stderr(ws):
    # The first stream is closed before the second call, as a caller that
    # redirects stderr per call may do; the second call must neither write
    # to it nor flush it.
    config = _write_config(ws)
    (ws / "unparsed.rec").write_text(GOOD_CANDIDATE + "not a record\n", encoding="utf-8")
    warned = []
    for ts in (1, 2):
        stream = io.StringIO()
        with contextlib.redirect_stderr(stream):
            assert _evaluate(ws, config, f"probe={ws / 'unparsed.rec'}", ts) == 0
        warned.append(stream.getvalue())
        if ts == 1:
            stream.close()
    line = "WARN model probe candidate: 1 unparsed lines, 0 closure violations"
    assert [out.count(line) for out in warned] == [1, 1]
    assert "Logging error" not in warned[1]


@pytest.mark.parametrize("level", ["NOTSET", "ERROR"])
def test_main_shows_warnings_under_a_quieter_root_logger(ws, level):
    config = _write_config(ws)
    (ws / "unparsed.rec").write_text(GOOD_CANDIDATE + "not a record\n", encoding="utf-8")
    root = logging.getLogger()
    before = root.level
    root.setLevel(level)
    try:
        with contextlib.redirect_stderr(io.StringIO()) as stream:
            assert _evaluate(ws, config, f"probe={ws / 'unparsed.rec'}", 1) == 0
        assert root.level == logging.WARNING
    finally:
        root.setLevel(before)
    assert "WARN model probe candidate: 1 unparsed lines" in stream.getvalue()


def test_ill_typed_history_score_is_an_error(ws, capsys):
    config = _write_config(ws)
    for ts in (1, 2):
        assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", ts) == 0
    history = ws / "history.jsonl"
    lines = history.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[-1])
    assert row["model"] == "probe"
    row["score"] = "0.5"
    lines[-1] = json.dumps(row)
    history.write_text("\n".join(lines) + "\n", encoding="utf-8")
    before = history.read_bytes()
    capsys.readouterr()
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 3) == 1
    assert "ERROR bad history line" in capsys.readouterr().err
    assert history.read_bytes() == before
    assert main(["replay", "--history", str(history), "--config", config]) == 1
    assert "ERROR bad history line" in capsys.readouterr().err
    assert main(["report", "--history", str(history)]) == 1
    assert "ERROR bad history line" in capsys.readouterr().err


def test_undecodable_config_is_an_error(ws, capsys):
    bad = ws / "bad.json"
    bad.write_bytes(b"\xff" + json.dumps({"models": []}).encode("utf-8"))
    rc = main(["replay", "--config", str(bad), "--history", str(ws / "h.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR ")
    assert "Traceback" not in err


def test_undecodable_dictionary_names_the_file(ws, capsys):
    bad = ws / "dictionary.tsv"
    bad.write_bytes(b"\xff" + DICTIONARY_TEXT.encode("utf-8"))
    argv = ["build-baseline", "--ontology", str(ws / "ontology.txt")]
    argv += ["--dict", str(bad), "--rules", str(ws / "rules.tsv")]
    argv += ["--batch", str(ws / "batch.tsv"), "--out", str(ws / "out.rec")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR {bad}: not valid UTF-8")
    assert "Traceback" not in err
    assert not (ws / "out.rec").exists()


@pytest.mark.parametrize("command", ["replay", "report", "evaluate"])
def test_undecodable_history_names_the_file(ws, capsys, command):
    # replay and report read the whole history forward, evaluate only the
    # tail that seeds its window; each names the file it could not decode.
    config = _write_config(ws)
    for ts in (1, 2):
        assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", ts) == 0
    history = ws / "history.jsonl"
    with open(history, "ab") as fh:
        fh.write(b'{"model": "\xff"}\n')
    damaged = history.read_bytes()
    capsys.readouterr()
    if command == "evaluate":
        rc = _evaluate(ws, config, f"probe={ws / 'good.rec'}", 3)
    elif command == "replay":
        rc = main(["replay", "--history", str(history), "--config", config])
    else:
        rc = main(["report", "--history", str(history)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR ")
    assert f"{history}: not valid UTF-8" in err
    assert "Traceback" not in err
    assert history.read_bytes() == damaged


def test_main_keeps_no_arguments_between_calls(ws):
    config = _write_config(ws, models=["probe", "other"])
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 1) == 0
    assert _evaluate(ws, config, f"other={ws / 'good.rec'}", 2) == 0
    rows = read_history(str(ws / "history.jsonl"))
    assert [(r.timestamp, r.model) for r in rows] == [
        (1, "GT"),
        (1, "probe"),
        (2, "GT"),
        (2, "other"),
    ]


def test_replay_verifies_stored_thresholds(ws, capsys):
    config = _write_config(ws)
    history = ws / "history.jsonl"
    assert main(["replay", "--history", str(history), "--config", config]) == 1
    assert "ERROR history not found" in capsys.readouterr().err
    for ts in (1, 2, 3):
        assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", ts) == 0
    assert main(["replay", "--history", str(history), "--config", config]) == 0
    assert "3 rows replayed, 0 mismatches" in capsys.readouterr().out

    lines = history.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[-1])
    assert row["model"] == "probe" and row["threshold"] == 0.0
    row["threshold"] = 0.5
    lines[-1] = json.dumps(row)
    history.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["replay", "--history", str(history), "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("MISMATCH timestamp=3 model=probe ")
    assert len(captured.err.splitlines()) == 1
    assert "3 rows replayed, 1 mismatches" in captured.out


def test_simulate_flag_assertion_passes(ws, capsys):
    config = _write_config(ws, warmup_min=5, history="sim.jsonl")
    schedule = ws / "schedule.tsv"
    schedule.write_text(
        "12\tdrop-classes\t3\t5\nASSERT_FLAG_AT 12\n", encoding="utf-8"
    )
    rc = main(
        ["simulate", "--config", config, "--schedule", str(schedule), "--steps", "30"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["steps"] == 30
    assert payload["first_flag_step"] == 12
    assert payload["false_positive_count"] == 0
    assert 12 in payload["flagged_steps"]
    rows = read_history(str(ws / "sim.jsonl"))
    assert len(rows) == 30
    assert all(r.model == "sim" for r in rows)


def test_simulate_flag_assertion_fails(ws, capsys, caplog):
    config = _write_config(ws, warmup_min=5, history="sim.jsonl")
    schedule = ws / "schedule.tsv"
    schedule.write_text("ASSERT_FLAG_AT 3\n", encoding="utf-8")
    with caplog.at_level("WARNING", logger="kgmon.cli"):
        rc = main(
            ["simulate", "--config", config, "--schedule", str(schedule), "--steps", "20"]
        )
    assert rc == 2
    assert any("no flag at step 3" in r.message for r in caplog.records)
    payload = json.loads(capsys.readouterr().out)
    assert payload["first_flag_step"] is None


def test_simulate_too_short_is_error(ws, capsys):
    config = _write_config(ws, warmup_min=5, history="sim.jsonl")
    schedule = ws / "schedule.tsv"
    schedule.write_text("", encoding="utf-8")
    rc = main(
        ["simulate", "--config", config, "--schedule", str(schedule), "--steps", "3"]
    )
    assert rc == 1
    assert "ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["5", "0", "-1"])
def test_rejected_simulate_writes_no_history(ws, capsys, steps):
    config = _write_config(ws, warmup_min=5, history="sim.jsonl")
    schedule = ws / "schedule.tsv"
    schedule.write_text("", encoding="utf-8")
    rc = main(
        ["simulate", "--config", config, "--schedule", str(schedule), "--steps", steps]
    )
    assert rc == 1
    assert "scenario too short" in capsys.readouterr().err
    assert not (ws / "sim.jsonl").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("ASSERT_FLAG_AT \u00b2", "ASSERT_FLAG_AT needs one step number"),
        ("ASSERT_FLAG_AT -3", "negative step"),
    ],
    ids=["superscript", "negative"],
)
def test_simulate_bad_assert_step_is_one_error_line(ws, capsys, line, message):
    config = _write_config(ws, warmup_min=5, history="sim.jsonl")
    schedule = ws / "schedule.tsv"
    schedule.write_text(f"# steps\n{line}\n", encoding="utf-8")
    rc = main(
        ["simulate", "--config", config, "--schedule", str(schedule), "--steps", "12"]
    )
    assert rc == 1
    assert capsys.readouterr().err == f"ERROR schedule line 2: {message}\n"
    assert not (ws / "sim.jsonl").exists()


@pytest.mark.parametrize(
    "line, step",
    [
        ("50\tdrop-classes\t3\t5", 50),
        ("20\tdelta-noise\t0.5\t0", 20),
        ("ASSERT_FLAG_AT 40", 40),
        ("ASSERT_FLAG_AT 20", 20),
    ],
    ids=["perturbation-past", "perturbation-at", "assert-past", "assert-at"],
)
def test_simulate_step_outside_the_run_is_one_error_line(ws, capsys, line, step):
    config = _write_config(ws, warmup_min=5, history="sim.jsonl")
    schedule = ws / "schedule.tsv"
    schedule.write_text(f"3\tdrop-classes\t1\t0\n{line}\n", encoding="utf-8")
    rc = main(
        ["simulate", "--config", config, "--schedule", str(schedule), "--steps", "20"]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"ERROR schedule line 2: step {step} is not below --steps 20\n"
    )
    assert captured.out == ""
    assert not (ws / "sim.jsonl").exists()


def test_simulate_on_a_classless_ontology_writes_no_history(ws, capsys):
    (ws / "empty.txt").write_text("# no classes\n", encoding="utf-8")
    config = _write_config(ws, ontology="empty.txt", warmup_min=5, history="sim.jsonl")
    schedule = ws / "schedule.tsv"
    schedule.write_text("", encoding="utf-8")
    rc = main(
        ["simulate", "--config", config, "--schedule", str(schedule), "--steps", "12"]
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        "ERROR icr undefined: ontology declares no classes\n"
    )
    assert not (ws / "sim.jsonl").exists()


def test_simulate_on_a_property_less_ontology_writes_no_history(ws, capsys):
    (ws / "flat.txt").write_text("CLASS Person\nCLASS Location\n", encoding="utf-8")
    config = _write_config(ws, ontology="flat.txt", warmup_min=5, history="sim.jsonl")
    schedule = ws / "schedule.tsv"
    schedule.write_text("", encoding="utf-8")
    rc = main(
        ["simulate", "--config", config, "--schedule", str(schedule), "--steps", "12"]
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        "ERROR ipr undefined: ontology declares no properties\n"
    )
    assert not (ws / "sim.jsonl").exists()


def test_hal_weighted_simulate_writes_no_history(ws, capsys):
    config = _write_config(
        ws,
        weights={"icr": 1, "ipr": 1, "ci": 1, "hal": 1},
        warmup_min=5,
        history="sim.jsonl",
    )
    schedule = ws / "schedule.tsv"
    schedule.write_text("", encoding="utf-8")
    rc = main(
        ["simulate", "--config", config, "--schedule", str(schedule), "--steps", "12"]
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        "ERROR w_hal configured but delta carries no d_hal\n"
    )
    assert not (ws / "sim.jsonl").exists()


def test_hal_weighted_simulate_leaves_a_torn_history_as_it_was(ws, capsys):
    config = _write_config(ws)
    for ts in (1, 2):
        assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", ts) == 0
    history = ws / "history.jsonl"
    whole = history.read_bytes()
    torn = whole + whole.splitlines()[-1][:60]
    history.write_bytes(torn)
    config = _write_config(ws, weights={"icr": 1, "ipr": 1, "ci": 1, "hal": 1})
    schedule = ws / "schedule.tsv"
    schedule.write_text("", encoding="utf-8")
    capsys.readouterr()
    rc = main(
        ["simulate", "--config", config, "--schedule", str(schedule), "--steps", "6"]
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        "ERROR w_hal configured but delta carries no d_hal\n"
    )
    assert history.read_bytes() == torn


@pytest.mark.parametrize("prior", [False, True], ids=["no-history", "history"])
def test_simulate_with_a_failing_step_leaves_the_history_as_it_was(ws, capsys, prior):
    config = _write_config(ws, warmup_min=5, history="sim.jsonl")
    schedule = ws / "schedule.tsv"
    simulate = ["simulate", "--config", config, "--schedule", str(schedule)]
    history = ws / "sim.jsonl"
    if prior:
        schedule.write_text("", encoding="utf-8")
        assert main(simulate + ["--steps", "8"]) == 0
        before = history.read_bytes()
    schedule.write_text("7\tdrop-classes\t6\t1\n", encoding="utf-8")
    capsys.readouterr()
    assert main(simulate + ["--steps", "12"]) == 1
    assert capsys.readouterr().err == (
        "ERROR step 7: drop-classes 6 infeasible: 5 classes instantiated\n"
    )
    if prior:
        assert history.read_bytes() == before
    else:
        assert not history.exists()


@pytest.mark.parametrize("magnitude", ["nan", "inf"])
def test_simulate_rejects_a_non_finite_noise_sigma(ws, capsys, magnitude):
    config = _write_config(ws, warmup_min=5, history="sim.jsonl")
    schedule = ws / "schedule.tsv"
    schedule.write_text(f"7\tdelta-noise\t{magnitude}\t0\n", encoding="utf-8")
    rc = main(
        ["simulate", "--config", config, "--schedule", str(schedule), "--steps", "12"]
    )
    assert rc == 1
    assert capsys.readouterr().err == "ERROR delta-noise magnitude must be finite\n"
    assert not (ws / "sim.jsonl").exists()


def test_simulate_cuts_a_torn_history_line(ws, capsys, caplog):
    config = _write_config(ws)
    for ts in (1, 2):
        assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", ts) == 0
    history = ws / "history.jsonl"
    whole = history.read_bytes()
    # A write cut short: the first 60 bytes of a row, no newline.
    history.write_bytes(whole + whole.splitlines()[-1][:60])
    schedule = ws / "schedule.tsv"
    schedule.write_text("", encoding="utf-8")
    simulate = ["simulate", "--config", config, "--schedule", str(schedule)]
    with caplog.at_level("WARNING"):
        assert main(simulate + ["--steps", "6"]) == 0
    torn = f"history {history}: dropping a torn last line"
    assert [r.getMessage().startswith(torn) for r in caplog.records] == [True]
    assert history.read_bytes().startswith(whole)
    capsys.readouterr()
    assert main(["replay", "--history", str(history), "--config", config]) == 0
    assert "8 rows replayed, 0 mismatches" in capsys.readouterr().out


def test_simulate_continues_a_history_that_holds_sim_rows(ws, capsys):
    config = _write_config(
        ws, warmup_min=5, history="sim.jsonl", noise_sigma=0.05, noise_seed=3
    )
    schedule = ws / "schedule.tsv"
    schedule.write_text("", encoding="utf-8")
    simulate = ["simulate", "--config", config, "--schedule", str(schedule)]
    assert main(simulate + ["--steps", "40"]) == 0
    assert main(simulate + ["--steps", "40"]) == 0
    history = str(ws / "sim.jsonl")
    assert [r.timestamp for r in read_history(history)] == list(range(80))
    capsys.readouterr()
    assert main(["replay", "--history", history, "--config", config]) == 0
    assert "80 rows replayed, 0 mismatches" in capsys.readouterr().out


def test_simulate_rows_carry_the_step_batch_id(ws):
    config = _write_config(ws, warmup_min=5, history="sim.jsonl")
    schedule = ws / "schedule.tsv"
    schedule.write_text("7\tdrop-classes\t1\t2\n", encoding="utf-8")
    simulate = ["simulate", "--config", config, "--schedule", str(schedule)]
    assert main(simulate + ["--steps", "12"]) == 0
    assert main(simulate + ["--steps", "8"]) == 0
    rows = read_history(str(ws / "sim.jsonl"))
    ids = [f"sim-{step:05d}" for step in range(12)]
    ids += [f"sim-{step:05d}" for step in range(8)]
    assert [r.batch_id for r in rows] == ids
    assert [r.timestamp for r in rows] == list(range(20))


def test_simulate_history_bytes_are_pinned(ws, capsys):
    # Seeded noise and every perturbation kind, run twice into one history.
    # A change to the synthetic baseline, a perturbation, the noise stream,
    # the threshold or the row format changes these bytes.
    config = _write_config(
        ws, warmup_min=5, window=8, noise_sigma=0.01, noise_seed=7, history="sim.jsonl"
    )
    schedule = ws / "schedule.tsv"
    schedule.write_text(
        "10\tdrop-classes\t2\t11\n"
        "20\tdrop-properties\t1\t12\n"
        "30\tinject-entities\t5\t13\n"
        "40\tdepth-skew\t0.6\t14\n"
        "50\tdepth-skew\t1.0\t15\n"
        "55\tdelta-noise\t0.3\t16\n",
        encoding="utf-8",
    )
    simulate = ["simulate", "--config", config, "--schedule", str(schedule)]
    assert main(simulate + ["--steps", "60"]) == 0
    assert main(simulate + ["--steps", "60"]) == 0
    for line in capsys.readouterr().out.splitlines():
        assert json.loads(line)["flagged_steps"] == [9, 10, 20, 40, 50]
    data = (ws / "sim.jsonl").read_bytes()
    assert len(data.splitlines()) == 120
    assert hashlib.sha256(data).hexdigest() == (
        "181ec91619d1873923da9e6b7e636a79c7d8255edeb60c3a66cd9d6d502e9be1"
    )


def test_simulate_flags_sustained_drift_only_at_its_onset(ws, capsys):
    # One property dropped at every step from 20 on. Flagged scores join
    # the threshold window, so after five flags the drifted level is the
    # window's own and no later step is flagged. Steps 7, 15 and 16 are
    # noise-only false positives.
    config = _write_config(
        ws, warmup_min=5, window=30, noise_sigma=0.002, history="sim.jsonl"
    )
    schedule = ws / "schedule.tsv"
    schedule.write_text(
        "".join(f"{step}\tdrop-properties\t1\t{step}\n" for step in range(20, 60)),
        encoding="utf-8",
    )
    rc = main(
        ["simulate", "--config", config, "--schedule", str(schedule), "--steps", "60"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flagged_steps"] == [7, 15, 16, 20, 21, 22, 23, 24]
    assert payload["false_positive_count"] == 3


def _seed_report_history(ws):
    lines = [
        {
            "timestamp": 1, "model": "GT", "batch_id": "b", "icr": 0.8,
            "ipr": 0.92, "ci": 0.09, "hal": None, "d_icr": 0.0, "d_ipr": 0.0,
            "d_ci": 0.0, "score": 0.0, "threshold": None, "flagged": False,
            "hall_total": 0, "hall_failed": 0,
        },
        {
            "timestamp": 1, "model": "gpt35", "batch_id": "b", "icr": 0.16,
            "ipr": 0.07, "ci": 0.07, "hal": 0.5, "d_icr": 0.64, "d_ipr": 0.85,
            "d_ci": 0.02, "score": 0.5033, "threshold": None, "flagged": False,
            "hall_total": 4, "hall_failed": 2,
        },
        {
            "timestamp": 2, "model": "gpt35", "batch_id": "b2", "icr": 0.2,
            "ipr": 0.1, "ci": 0.1, "hal": 0.25, "d_icr": 0.6, "d_ipr": 0.8,
            "d_ci": 0.0, "score": 0.467, "threshold": None, "flagged": False,
            "hall_total": 4, "hall_failed": 1,
        },
    ]
    path = ws / "report.jsonl"
    path.write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
    )
    return str(path)


def test_report_table_rendering(ws, capsys):
    history = _seed_report_history(ws)
    rc = main(["report", "--history", history, "--timestamp", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == (
        "timestamp 1\n"
        "metric  GT    gpt35\n"
        "ICR     0.80  0.16\n"
        "IPR     0.92  0.07\n"
        "CI      0.09  0.07\n"
        "Hal     -     0.50\n"
    )


def test_report_table_all_timestamps(ws, capsys):
    history = _seed_report_history(ws)
    rc = main(["report", "--history", history])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("timestamp") == 2
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].startswith("timestamp 1")
    assert blocks[1].startswith("timestamp 2")
    assert "GT" not in blocks[1].split("\n")[1]


def test_report_records_mode_verbatim(ws, capsys):
    history = _seed_report_history(ws)
    with open(history, encoding="utf-8") as fh:
        raw_lines = [line.rstrip("\n") for line in fh]
    rc = main(["report", "--history", history, "--format", "records"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "".join(line + "\n" for line in raw_lines)
    rc = main(
        ["report", "--history", history, "--format", "records", "--model", "GT"]
    )
    out = capsys.readouterr().out
    assert out == raw_lines[0] + "\n"


def test_report_model_filter_keeps_baseline_column(ws, capsys):
    history = _seed_report_history(ws)
    rc = main(["report", "--history", history, "--timestamp", "1", "--model", "gpt35"])
    assert rc == 0
    header = capsys.readouterr().out.splitlines()[1]
    assert header.split() == ["metric", "GT", "gpt35"]
    # Timestamp 2 has no GT row and no qwen row, so it gets no table.
    assert main(["report", "--history", history, "--model", "qwen"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == ["timestamp 1", "metric  GT"]
    assert "timestamp 2" not in out


def test_report_missing_history(ws, capsys):
    rc = main(["report", "--history", str(ws / "ghost.jsonl")])
    assert rc == 1
    assert "ERROR history not found" in capsys.readouterr().err


def test_report_last_row_per_model_wins(ws, capsys):
    history = _seed_report_history(ws)
    with open(history, "a", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {
                    "timestamp": 1, "model": "gpt35", "batch_id": "b",
                    "icr": 0.99, "ipr": 0.07, "ci": 0.07, "hal": 0.5,
                    "d_icr": 0.0, "d_ipr": 0.0, "d_ci": 0.0, "score": 0.0,
                    "threshold": None, "flagged": False,
                    "hall_total": 0, "hall_failed": 0,
                }
            )
            + "\n"
        )
    main(["report", "--history", history, "--timestamp", "1"])
    out = capsys.readouterr().out
    assert "0.99" in out
    assert "0.16" not in out


def _monitor_workspace(ws, monkeypatch):
    (ws / "template.txt").write_text(
        "Schema:\n{{ONTOLOGY}}\nArticle:\n{{ARTICLE}}\n", encoding="utf-8"
    )
    (ws / "endpoint.json").write_text(
        json.dumps(
            {
                "url": "https://models.example/v1/complete",
                "auth_env": "KGMON_CLI_TOKEN",
                "template": "template.txt",
                "max_retries": 0,
                "parallelism": 2,
            }
        ),
        encoding="utf-8",
    )
    monkeypatch.setenv("KGMON_CLI_TOKEN", "sk-cli")
    config = _write_config(
        ws,
        feed_url="https://feed.example/batches",
        endpoint_config="endpoint.json",
    )
    feed_text = (
        "f1\t10\tAlice Chen works for Acme Corp.\n"
        "f2\t11\tGlobex is based in Geneva.\n"
    )
    monkeypatch.setattr(cli, "_feed_get", lambda url: feed_text)

    def transport(config, token, prompt):
        assert token == "sk-cli"
        if "Alice Chen" in prompt:
            return (
                "BEGIN_KG\n"
                "E\tAlice Chen\tPerson\tx\n"
                "E\tAcme Corp\tCompany\tx\n"
                "T\tAlice Chen\tworksFor\tAcme Corp\tx\n"
                "END_KG\n"
            )
        return (
            "BEGIN_KG\n"
            "E\tGlobex\tOrganization\tx\n"
            "E\tGeneva\tCity\tx\n"
            "T\tGlobex\tlocatedIn\tGeneva\tx\n"
            "END_KG\n"
        )

    monkeypatch.setattr(llm, "_http_transport", transport)
    return config


def test_monitor_interrupt_ends_the_loop_after_the_cycle(ws, monkeypatch):
    config = _monitor_workspace(ws, monkeypatch)
    fetch = cli._feed_get

    def interrupted_fetch(url):
        # What a SIGINT during the fetch runs: monitor's own handler.
        signal.getsignal(signal.SIGINT)(signal.SIGINT, None)
        return fetch(url)

    monkeypatch.setattr(cli, "_feed_get", interrupted_fetch)
    assert main(["monitor", "--config", config, "--interval", "1"]) == 0
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.model for r in rows] == ["GT", "probe"]


def test_monitor_cycles_and_seen_dedupe(ws, monkeypatch, caplog):
    config = _monitor_workspace(ws, monkeypatch)
    before = signal.getsignal(signal.SIGINT)
    with caplog.at_level("WARNING"):
        rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "2"])
    assert rc == 0
    # The second cycle fetches the same two articles, both already seen.
    assert [r.getMessage() for r in caplog.records] == [
        "empty batch from https://feed.example/batches"
    ]
    assert signal.getsignal(signal.SIGINT) is before
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.model for r in rows] == ["GT", "probe"]
    assert rows[0].batch_id == "feed"
    # Both fragments merged: Person, Company, Organization and City present.
    assert rows[1].icr == 0.8
    assert rows[1].score == 0.0
    seen = (ws / "history.jsonl.seen").read_text(encoding="utf-8")
    assert seen == "f1\nf2\n"


_F1 = "f1\t10\tAlice Chen works for Acme Corp.\n"
_F2 = "f2\t11\tGlobex is based in Geneva.\n"


def test_load_batch_feed_dedupes_via_seen(ws, monkeypatch):
    # load_batch returns the whole feed; monitor evaluates only the
    # articles whose ids are not in the seen-set yet.
    config = _monitor_workspace(ws, monkeypatch)
    feed = "https://feed.example/batches"
    monkeypatch.setattr(cli, "_feed_get", lambda url: _F1 + _F2)
    assert [a.id for a in load_batch(feed)] == ["f1", "f2"]
    fetches = iter([_F1, _F1 + _F2])
    monkeypatch.setattr(cli, "_feed_get", lambda url: next(fetches))
    prompts = []
    transport = llm._http_transport

    def recording(config, token, prompt):
        prompts.append(prompt)
        return transport(config, token, prompt)

    monkeypatch.setattr(llm, "_http_transport", recording)
    rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "2"])
    assert rc == 0
    assert ["Alice Chen" in p for p in prompts] == [True, False]
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.model for r in rows] == ["GT", "probe", "GT", "probe"]
    assert (ws / "history.jsonl.seen").read_text(encoding="utf-8") == "f1\nf2\n"


def test_monitor_feed_with_repeated_id_appends_nothing(ws, monkeypatch, caplog):
    config = _monitor_workspace(ws, monkeypatch)
    monkeypatch.setattr(cli, "_feed_get", lambda url: _F1 + _F1)
    with caplog.at_level("WARNING"):
        rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "1"])
    assert rc == 0
    assert [r.getMessage() for r in caplog.records] == [
        "feed fetch failed: duplicate article ids in batch: f1"
    ]
    assert not (ws / "history.jsonl").exists()
    assert not (ws / "history.jsonl.seen").exists()


def test_monitor_seen_set_holds_only_the_latest_fetch(ws, monkeypatch):
    # f1 leaves the feed after cycle 1 and is forgotten, so when it comes
    # back in cycle 3 it is evaluated again.
    config = _monitor_workspace(ws, monkeypatch)
    f3 = "f3\t12\tGlobex is based in Geneva.\n"
    fetches = iter([_F1 + _F2, _F2 + f3, _F1 + f3])
    seen_after = []

    def fetch(url):
        seen_path = ws / "history.jsonl.seen"
        if seen_path.exists():
            seen_after.append(seen_path.read_text(encoding="utf-8"))
        return next(fetches)

    monkeypatch.setattr(cli, "_feed_get", fetch)
    rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "3"])
    assert rc == 0
    seen_after.append((ws / "history.jsonl.seen").read_text(encoding="utf-8"))
    assert seen_after == ["f1\nf2\n", "f2\nf3\n", "f1\nf3\n"]
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.model for r in rows] == ["GT", "probe"] * 3


def test_endpoint_config_is_read_once_per_command(ws, monkeypatch):
    # monitor keeps the endpoint config and template it read at start: a
    # template edited between cycles is not picked up.
    config = _monitor_workspace(ws, monkeypatch)
    loads = []
    load_endpoint = cli._load_endpoint

    def counted(run_config):
        loads.append(run_config)
        return load_endpoint(run_config)

    monkeypatch.setattr(cli, "_load_endpoint", counted)
    fetches = iter([_F1, _F1 + _F2])

    def fetch(url):
        if (ws / "history.jsonl").exists():
            (ws / "template.txt").write_text(
                "Changed:\n{{ONTOLOGY}}\n{{ARTICLE}}\n", encoding="utf-8"
            )
        return next(fetches)

    monkeypatch.setattr(cli, "_feed_get", fetch)
    prompts = []
    transport = llm._http_transport

    def recording(config, token, prompt):
        prompts.append(prompt)
        return transport(config, token, prompt)

    monkeypatch.setattr(llm, "_http_transport", recording)
    rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "2"])
    assert rc == 0
    assert len(loads) == 1
    assert [p.startswith("Schema:") for p in prompts] == [True, True]
    loads.clear()
    config = _write_config(ws, endpoint_config="endpoint.json", history="live.jsonl")
    assert _evaluate(ws, config, "probe=live", 1) == 0
    assert len(loads) == 1


def _disk_full(*_args):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fails", ["fsync", "replace"])
def test_seen_set_write_failure_keeps_old_file(ws, monkeypatch, caplog, fails):
    # The cycle's rows are appended before the seen-set write fails, so the
    # old set stays whole and the batch is evaluated again next time.
    config = _monitor_workspace(ws, monkeypatch)
    fetches = iter([_F1, _F1 + _F2])

    def fetch(url):
        feed_text = next(fetches)
        if feed_text != _F1:
            monkeypatch.setattr(os, fails, _disk_full)
        return feed_text

    monkeypatch.setattr(cli, "_feed_get", fetch)
    with caplog.at_level("WARNING"):
        rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "2"])
    assert rc == 0
    assert [r.getMessage() for r in caplog.records] == [
        "cycle failed: [Errno 28] No space left on device"
    ]
    assert (ws / "history.jsonl.seen").read_bytes() == b"f1\n"
    assert not list(ws.glob("*.tmp"))
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.model for r in rows] == ["GT", "probe", "GT", "probe"]


def test_monitor_evaluates_batch_of_failed_cycle_again(ws, monkeypatch, caplog):
    # Cycle 1 fails with the endpoint down; its article is not marked
    # seen, so cycle 2 evaluates it.
    config = _monitor_workspace(ws, monkeypatch)
    endpoint_up = iter([False, True])
    up = []

    def fetch(url):
        up.append(next(endpoint_up))
        return _F1

    monkeypatch.setattr(cli, "_feed_get", fetch)
    transport = llm._http_transport

    def flaky(config, token, prompt):
        if not up[-1]:
            raise RuntimeError("endpoint down")
        return transport(config, token, prompt)

    monkeypatch.setattr(llm, "_http_transport", flaky)
    with caplog.at_level("WARNING"):
        rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "2"])
    assert rc == 0
    assert any("cycle failed" in r.getMessage() for r in caplog.records)
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.model for r in rows] == ["GT", "probe"]
    assert (ws / "history.jsonl.seen").read_text(encoding="utf-8") == "f1\n"


def test_monitor_rejects_sub_second_interval(ws, monkeypatch, capsys):
    # Cycles are stamped with whole seconds, so two cycles in one second
    # would share a timestamp and the second batch would be lost.
    config = _monitor_workspace(ws, monkeypatch)
    for interval in ("0.01", "0.999"):
        argv = ["monitor", "--config", config, "--interval", interval, "--cycles", "2"]
        rc = main(argv)
        assert rc == 1
        assert "interval" in capsys.readouterr().err
    assert not (ws / "history.jsonl").exists()


def test_monitor_shortest_interval_stamps_each_cycle_apart(ws, monkeypatch, caplog):
    config = _monitor_workspace(ws, monkeypatch)
    fetches = iter(
        [
            "f1\t10\tAlice Chen works for Acme Corp.\n",
            "f2\t11\tGlobex is based in Geneva.\n",
        ]
    )
    monkeypatch.setattr(cli, "_feed_get", lambda url: next(fetches))
    with caplog.at_level("WARNING"):
        rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "2"])
    assert rc == 0
    assert not [r for r in caplog.records if "cycle failed" in r.getMessage()]
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.model for r in rows] == ["GT", "probe", "GT", "probe"]
    assert rows[0].timestamp < rows[2].timestamp


def test_monitor_with_a_hal_weight_scores_and_replays_hallucinations(
    ws, monkeypatch, capsys
):
    _monitor_workspace(ws, monkeypatch)
    config = _write_config(
        ws,
        feed_url="https://feed.example/batches",
        endpoint_config="endpoint.json",
        weights={"icr": 1.0, "ipr": 1.0, "ci": 1.0, "hal": 1.0},
        warmup_min=1,
    )
    fetches = iter([_F1, _F2])
    monkeypatch.setattr(cli, "_feed_get", lambda url: next(fetches))
    transport = llm._http_transport

    def hallucinating(config, token, prompt):
        # The second cycle's candidate names a company its article lacks.
        extra = "E\tZorblax Industries\tCompany\tx\n" if "Globex" in prompt else ""
        return transport(config, token, prompt).replace("END_KG", extra + "END_KG")

    monkeypatch.setattr(llm, "_http_transport", hallucinating)
    rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "2"])
    assert rc == 0
    history = str(ws / "history.jsonl")
    rows = read_history(history)
    assert [r.model for r in rows] == ["GT", "probe", "GT", "probe"]
    assert [(r.hall_total, r.hall_failed) for r in rows[1::2]] == [(2, 0), (3, 1)]
    weights = load_run_config(config).weights
    for base, row in zip(rows[0::2], rows[1::2]):
        delta = MetricVector(row.d_icr, row.d_ipr, row.d_ci, abs(row.hal - base.hal))
        assert row.score.hex() == anomaly_score(delta, weights).hex()
    assert rows[3].hal != rows[2].hal
    assert rows[3].score > rows[1].score
    capsys.readouterr()
    assert main(["replay", "--history", history, "--config", config]) == 0
    assert "2 rows replayed, 0 mismatches" in capsys.readouterr().out


@pytest.mark.parametrize("damaged", ["history.jsonl.seen", "history.jsonl"])
def test_monitor_exits_on_undecodable_own_file(
    ws, monkeypatch, capsys, caplog, damaged
):
    # A seen-set or history that is not UTF-8 would fail every cycle, so
    # the loop ends with exit 1 instead of logging and retrying.
    config = _monitor_workspace(ws, monkeypatch)
    bad = ws / damaged
    # A row of the monitored model, so the history's tail read decodes it.
    damage = b'{"model": "probe", "batch_id": "\xff"}\n'
    bad.write_bytes(damage)
    argv = ["monitor", "--config", config, "--interval", "1", "--cycles", "2"]
    with caplog.at_level("WARNING"):
        rc = main(argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert "ERROR " in err and str(bad) in err and "not valid UTF-8" in err
    assert not [r for r in caplog.records if "failed" in r.getMessage()]
    assert bad.read_bytes() == damage


def test_monitor_requires_feed_url(ws, capsys):
    config = _write_config(ws)
    rc = main(["monitor", "--config", config, "--interval", "1"])
    assert rc == 1
    assert "feed_url" in capsys.readouterr().err
    config = _write_config(ws, feed_url="https://feed.example/b", models=[])
    rc = main(["monitor", "--config", config, "--interval", "1"])
    assert rc == 1
    assert capsys.readouterr().err == "ERROR config lists no models to monitor\n"


def test_monitor_rejects_bad_interval(ws, monkeypatch, capsys):
    # NaN fails every comparison, so it would slip past a bare "< 1" and
    # never wait; inf and huge finite values overflow the wait.
    config = _monitor_workspace(ws, monkeypatch)
    for interval in ("0", "nan", "inf", "-inf", "1e300"):
        argv = ["monitor", "--config", config, f"--interval={interval}"]
        rc = main(argv + ["--cycles", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ERROR interval" in err and "Traceback" not in err
    assert not (ws / "history.jsonl").exists()


@pytest.mark.parametrize("cycles", ["0", "-3"])
def test_monitor_rejects_fewer_than_one_cycle(ws, monkeypatch, capsys, cycles):
    config = _monitor_workspace(ws, monkeypatch)
    monkeypatch.setattr(cli, "_load_pipeline", lambda *a: pytest.fail("loaded"))
    monkeypatch.setattr(cli, "_feed_get", lambda url: pytest.fail("fetched"))
    rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", cycles])
    assert rc == 1
    assert capsys.readouterr().err == f"ERROR cycles must be at least 1, not {cycles}\n"
    assert not (ws / "history.jsonl").exists()


_THRESHOLD_OUT_OF_RANGE = [
    ("lambda", 0, "a positive finite number"),
    ("lambda", -1, "a positive finite number"),
    ("lambda", -0.5, "a positive finite number"),
    ("window", 0, "an integer of at least 1"),
    ("window", -3, "an integer of at least 1"),
    ("warmup_min", 0, "an integer of at least 1"),
]


@pytest.mark.parametrize("key, value, kind", _THRESHOLD_OUT_OF_RANGE)
def test_threshold_parameter_out_of_range_fails_before_extraction(
    ws, monkeypatch, capsys, key, value, kind
):
    # The range is checked with the config, not when the threshold state is
    # built after baseline extraction.
    monkeypatch.setattr(
        cli, "build_baseline", lambda *a, **k: pytest.fail("baseline built")
    )
    config = _write_config(ws, **{key: value})
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 1) == 1
    err = capsys.readouterr().err
    assert f"ERROR config {config}: {key} must be {kind}, not {value}" in err
    assert not (ws / "history.jsonl").exists()


@pytest.mark.parametrize("key, value, kind", _THRESHOLD_OUT_OF_RANGE)
def test_monitor_threshold_parameter_out_of_range_marks_nothing_seen(
    ws, monkeypatch, capsys, key, value, kind
):
    _monitor_workspace(ws, monkeypatch)
    config = _write_config(
        ws,
        feed_url="https://feed.example/batches",
        endpoint_config="endpoint.json",
        **{key: value},
    )
    monkeypatch.setattr(cli, "_feed_get", lambda url: pytest.fail("feed fetched"))
    rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "2"])
    assert rc == 1
    assert f"ERROR config {config}: {key} must be {kind}" in capsys.readouterr().err
    assert not (ws / "history.jsonl.seen").exists()
    assert not (ws / "history.jsonl").exists()


def test_warmup_longer_than_the_window_fails_before_extraction(
    ws, monkeypatch, capsys
):
    # No threshold is ever computed from a window of 3 scores when 5 are
    # needed, so nothing could flag.
    monkeypatch.setattr(
        cli, "build_baseline", lambda *a, **k: pytest.fail("baseline built")
    )
    config = _write_config(ws, window=3, warmup_min=5)
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 1) == 1
    assert capsys.readouterr().err == (
        f"ERROR config {config}: warmup_min must be at most window (3), not 5\n"
    )
    assert not (ws / "history.jsonl").exists()
    # The default warmup_min of 5 is checked against the window too.
    payload = json.loads(Path(config).read_text(encoding="utf-8"))
    del payload["warmup_min"]
    Path(config).write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CliError, match="warmup_min must be at most window"):
        load_run_config(config)
    assert load_run_config(_write_config(ws, window=5, warmup_min=5)).warmup_min == 5


def test_threshold_parameters_at_their_limits_are_accepted(ws):
    config = load_run_config(
        _write_config(ws, **{"lambda": 5e-324, "window": 1, "warmup_min": 1})
    )
    assert (config.lam, config.window, config.warmup_min) == (5e-324, 1, 1)


_ENDPOINT_OUT_OF_RANGE = [
    ("timeout", 0, "timeout must be positive"),
    ("timeout", -2.5, "timeout must be positive"),
    ("temperature", -0.1, "temperature must be nonnegative"),
    ("parallelism", 0, "parallelism must be at least 1"),
    ("max_retries", -1, "max_retries must be nonnegative"),
    ("url", "ftp://models.example/v1", "endpoint url not well-formed"),
    ("url", "https://", "endpoint url not well-formed"),
    ("auth_env", "", "auth_env must name an environment variable"),
]


@pytest.mark.parametrize("key, value, message", _ENDPOINT_OUT_OF_RANGE)
def test_monitor_endpoint_out_of_range_fails_before_first_fetch(
    ws, monkeypatch, capsys, key, value, message
):
    # EndpointConfig's range checks run once, before the loop, instead of
    # failing every cycle after its articles were marked seen.
    config = _monitor_workspace(ws, monkeypatch)
    path = ws / "endpoint.json"
    endpoint = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**endpoint, key: value}), encoding="utf-8")
    monkeypatch.setattr(cli, "_feed_get", lambda url: pytest.fail("feed fetched"))
    rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"ERROR endpoint config {path}: {message}" in err
    assert "Traceback" not in err
    assert not (ws / "history.jsonl.seen").exists()
    assert not (ws / "history.jsonl").exists()


def test_evaluate_live_endpoint_out_of_range_is_a_config_error(ws, monkeypatch, capsys):
    config = _monitor_workspace(ws, monkeypatch)
    path = ws / "endpoint.json"
    endpoint = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**endpoint, "timeout": 0}), encoding="utf-8")
    with pytest.raises(CliError, match="timeout must be positive"):
        cli._load_endpoint(load_run_config(config))
    monkeypatch.setattr(
        cli, "build_baseline", lambda *a, **k: pytest.fail("baseline built")
    )
    assert _evaluate(ws, config, "probe=live", 1) == 1
    err = capsys.readouterr().err
    assert f"ERROR endpoint config {path}: timeout must be positive" in err
    assert "extraction failed" not in err
    assert not (ws / "history.jsonl").exists()


# The feed and model requests run for real below, with requests.get and
# requests.post replaced on the requests module: no connection is made.
_REAL_FEED_GET = cli._feed_get


def test_feed_get_requests_the_feed_url(monkeypatch):
    calls = []

    def get(url, **kwargs):
        calls.append((url, kwargs))
        return FakeResponse(text=_F1 + _F2)

    monkeypatch.setattr(requests, "get", get)
    articles = load_batch("https://feed.example/batches")
    assert [a.id for a in articles] == ["f1", "f2"]
    assert calls == [("https://feed.example/batches", {"timeout": 30})]
    monkeypatch.setattr(
        requests, "get",
        lambda url, **kw: FakeResponse(error=requests.HTTPError("503 Server Error")),
    )
    with pytest.raises(requests.HTTPError, match="503"):
        load_batch("https://feed.example/batches")


def _feed_response(body: bytes):
    """A response as requests.get builds it for a body served as
    tab-separated text with no charset."""
    response = requests.models.Response()
    response.status_code = 200
    response.headers["Content-Type"] = "text/tab-separated-values"
    response.encoding = requests.utils.get_encoding_from_headers(response.headers)
    response._content = body
    return response


def test_feed_is_decoded_as_utf8(monkeypatch):
    body = "f1\t10\tZ\u00fcrich grew.\n".encode("utf-8")
    monkeypatch.setattr(requests, "get", lambda url, **kw: _feed_response(body))
    articles = load_batch("https://feed.example/batches")
    assert [a.text for a in articles] == ["Z\u00fcrich grew."]


def test_evaluate_feed_not_utf8_is_one_error_line(ws, monkeypatch, capsys):
    body = b"f1\t10\t\xff Alice Chen works for Acme Corp.\n"
    monkeypatch.setattr(requests, "get", lambda url, **kw: _feed_response(body))
    config = _write_config(ws)
    argv = ["evaluate", "--config", config, "--batch", "https://feed.example/b"]
    rc = main(argv + ["--candidate", f"probe={ws / 'good.rec'}", "--timestamp", "1"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "ERROR feed https://feed.example/b: not valid UTF-8: invalid start byte"
    ]
    assert not (ws / "history.jsonl").exists()


def test_monitor_feed_not_utf8_is_logged_and_retried(ws, monkeypatch, caplog):
    config = _monitor_workspace(ws, monkeypatch)
    monkeypatch.setattr(cli, "_feed_get", _REAL_FEED_GET)
    bodies = iter([b"f1\t10\t\xff\n", (_F1 + _F2).encode("utf-8")])
    monkeypatch.setattr(
        requests, "get", lambda url, **kw: _feed_response(next(bodies))
    )
    with caplog.at_level("WARNING"):
        rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "2"])
    assert rc == 0
    assert [r.getMessage() for r in caplog.records] == [
        "feed fetch failed: feed https://feed.example/batches: "
        "not valid UTF-8: invalid start byte"
    ]
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.model for r in rows] == ["GT", "probe"]


def test_evaluate_feed_connection_error_is_one_error_line(ws, monkeypatch, capsys):
    def refused(url, **kwargs):
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr(requests, "get", refused)
    config = _write_config(ws)
    argv = ["evaluate", "--config", config, "--batch", "https://feed.example/b"]
    rc = main(argv + ["--candidate", f"probe={ws / 'good.rec'}", "--timestamp", "1"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["ERROR connection refused"]
    assert not (ws / "history.jsonl").exists()


def test_monitor_feed_connection_error_is_logged_and_retried(ws, monkeypatch, caplog):
    config = _monitor_workspace(ws, monkeypatch)
    monkeypatch.setattr(cli, "_feed_get", _REAL_FEED_GET)
    responses = iter([requests.ConnectionError("connection refused"), _F1 + _F2])

    def get(url, **kwargs):
        response = next(responses)
        if isinstance(response, Exception):
            raise response
        return FakeResponse(text=response)

    monkeypatch.setattr(requests, "get", get)
    with caplog.at_level("WARNING"):
        rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "2"])
    assert rc == 0
    assert [r.getMessage() for r in caplog.records] == [
        "feed fetch failed: connection refused"
    ]
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.model for r in rows] == ["GT", "probe"]


# Run in a fresh interpreter: this one may have imported requests already.
_OFFLINE_COMMANDS = """
import json, sys
from kgmon.cli import main
ws, run, sim = sys.argv[1:]
codes = [
    main(["build-baseline", "--ontology", ws + "/ontology.txt",
          "--dict", ws + "/dictionary.tsv", "--rules", ws + "/rules.tsv",
          "--batch", ws + "/batch.tsv", "--out", ws + "/baseline.rec"]),
    main(["evaluate", "--config", run, "--batch", ws + "/batch.tsv",
          "--candidate", "probe=" + ws + "/good.rec", "--timestamp", "1"]),
    main(["simulate", "--config", sim, "--schedule", ws + "/schedule.tsv",
          "--steps", "30"]),
    main(["report", "--history", ws + "/history.jsonl"]),
    main(["replay", "--history", ws + "/history.jsonl", "--config", run]),
]
loaded = [m for m in ("requests", "urllib3", "concurrent.futures") if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _src_env():
    return {**os.environ, "PYTHONPATH": _SRC}


def test_offline_commands_load_no_http_stack(ws):
    sim = _write_config(ws, warmup_min=5, noise_sigma=0.01, history="sim.jsonl")
    sim = str(Path(sim).rename(ws / "sim.json"))
    run = _write_config(ws)
    (ws / "schedule.tsv").write_text("12\tdrop-classes\t3\t5\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", _OFFLINE_COMMANDS, str(ws), run, sim],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout.splitlines()[-1])
    assert outcome == {"codes": [0, 0, 0, 0, 0], "loaded": []}


def _other_pythons():
    """Each python3.1x on PATH that starts, other than this interpreter's
    version."""
    found = []
    for minor in range(10, 20):
        exe = shutil.which(f"python3.{minor}")
        if exe is None or minor == sys.version_info.minor:
            continue
        probe = subprocess.run(
            [exe, "-c", f"import sys; print(sys.version_info[:2] == (3, {minor}))"],
            capture_output=True, text=True, timeout=60,
        )
        if probe.returncode == 0 and probe.stdout.strip() == "True":
            found.append(exe)
    return found


def test_simulate_and_replay_do_not_depend_on_the_python_version(ws):
    pythons = _other_pythons()
    if not pythons:
        pytest.skip("no python3.1x of another version on PATH starts")
    schedule = ws / "schedule.tsv"
    schedule.write_text(
        "60\tdrop-classes\t3\t5\n120\tdepth-skew\t0.5\t7\n", encoding="utf-8"
    )

    def config_for(history):
        path = _write_config(
            ws, warmup_min=5, noise_sigma=0.01, noise_seed=3, history=history
        )
        return str(Path(path).rename(ws / f"{history}.json"))

    simulate = ["simulate", "--schedule", str(schedule), "--steps", "200"]
    config = config_for("sim.jsonl")
    assert main(simulate + ["--config", config]) == 0
    expected = (ws / "sim.jsonl").read_bytes()
    for exe in pythons:
        history = f"sim-{Path(exe).name}.jsonl"
        other = [exe, "-m", "kgmon.cli"]
        proc = subprocess.run(
            other + simulate + ["--config", config_for(history)],
            capture_output=True, text=True, env=_src_env(), timeout=300,
        )
        assert proc.returncode == 0, (exe, proc.stderr)
        assert (ws / history).read_bytes() == expected, exe
        proc = subprocess.run(
            other + ["replay", "--history", str(ws / "sim.jsonl"), "--config", config],
            capture_output=True, text=True, env=_src_env(), timeout=300,
        )
        assert proc.returncode == 0, (exe, proc.stderr)
        assert proc.stdout.splitlines()[-1] == "200 rows replayed, 0 mismatches"
