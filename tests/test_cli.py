import json
import random
import re
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgmon import cli, llm
from kgmon.cli import (
    CliError,
    _unescape_text,
    load_batch,
    load_run_config,
    main,
)
from kgmon.monitor import UndecodableFileError, read_history

from conftest import DICTIONARY_TEXT, ONTOLOGY_TEXT, RULES_TEXT

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
    assert config.weights.w_icr == pytest.approx(1 / 3)
    assert config.weights.w_hal is None


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


def test_load_run_config_hal_weight(ws):
    config = load_run_config(
        _write_config(ws, weights={"icr": 1, "ipr": 1, "ci": 1, "hal": 1})
    )
    assert config.weights.w_hal == 0.25


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
    assert articles[0].published_at == 5


def test_load_batch_file_errors(tmp_path):
    path = tmp_path / "batch.tsv"
    path.write_text("onlyid\t7\n", encoding="utf-8")
    with pytest.raises(CliError, match="expected id"):
        load_batch(str(path))
    path.write_text("e1\tnotanint\ttext\n", encoding="utf-8")
    with pytest.raises(CliError, match="published_at"):
        load_batch(str(path))
    path.write_text("e1\t1\ta\ne1\t2\tb\n", encoding="utf-8")
    with pytest.raises(CliError, match="duplicate article ids"):
        load_batch(str(path))
    with pytest.raises(CliError, match="not found"):
        load_batch(str(tmp_path / "ghost"))


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
    (d / "d.txt").write_bytes(b"\xff")
    bad = re.escape(str(d / "d.txt"))
    with pytest.raises(UndecodableFileError, match=f"^{bad}: not valid UTF-8"):
        load_batch(str(d))


def test_load_batch_feed_dedupes_via_seen(tmp_path):
    seen = str(tmp_path / "h.seen")
    feed_text = "f1\t1\talpha\nf2\t2\tbeta\n"
    first = load_batch("https://feed.example/x", seen_path=seen, http_get=lambda u: feed_text)
    assert [a.id for a in first] == ["f1", "f2"]
    second = load_batch("https://feed.example/x", seen_path=seen, http_get=lambda u: feed_text)
    assert second == []
    with open(seen, encoding="utf-8") as fh:
        assert fh.read() == "f1\nf2\n"
    third = load_batch(
        "https://feed.example/x",
        seen_path=seen,
        http_get=lambda u: feed_text + "f3\t3\tgamma\n",
    )
    assert [a.id for a in third] == ["f3"]
    with open(seen, "ab") as fh:
        fh.write(b"\xff\n")
    bad = re.escape(seen)
    with pytest.raises(UndecodableFileError, match=f"^{bad}: not valid UTF-8"):
        load_batch("https://feed.example/x", seen_path=seen, http_get=lambda u: feed_text)


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
    assert "ALERT model=probe timestamp=3" in err
    assert "top=ipr" in err
    rows = read_history(str(ws / "history.jsonl"))
    last = rows[-1]
    assert last.model == "probe" and last.flagged
    assert last.threshold == 0.0
    assert last.hall_total == 1 and last.hall_failed == 1


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
    capsys.readouterr()


def test_evaluate_all_candidates_failed(ws, capsys):
    config = _write_config(ws)
    assert _evaluate(ws, config, f"probe={ws / 'good.rec'}", 1) == 0
    before = (ws / "history.jsonl").read_bytes()
    rc = _evaluate(ws, config, f"probe={ws / 'missing.rec'}", 2)
    assert rc == 1
    assert "ERROR every candidate extraction failed" in capsys.readouterr().err
    assert (ws / "history.jsonl").read_bytes() == before


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


def test_monitor_cycles_and_seen_dedupe(ws, monkeypatch):
    config = _monitor_workspace(ws, monkeypatch)
    before = signal.getsignal(signal.SIGINT)
    rc = main(["monitor", "--config", config, "--interval", "1", "--cycles", "2"])
    assert rc == 0
    assert signal.getsignal(signal.SIGINT) is before
    rows = read_history(str(ws / "history.jsonl"))
    assert [r.model for r in rows] == ["GT", "probe"]
    assert rows[0].batch_id == "feed"
    # Both fragments merged: Person, Company, Organization and City present.
    assert rows[1].icr == 0.8
    assert rows[1].score == 0.0
    seen = (ws / "history.jsonl.seen").read_text(encoding="utf-8")
    assert seen == "f1\nf2\n"


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


def test_monitor_rejects_bad_interval(ws, monkeypatch, capsys):
    config = _monitor_workspace(ws, monkeypatch)
    rc = main(["monitor", "--config", config, "--interval", "0"])
    assert rc == 1
    assert "interval" in capsys.readouterr().err
