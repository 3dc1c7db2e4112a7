import contextlib
import errno
import io
import json
import os
import random
import re
import signal

import pytest
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
from kgmon.extract import INDEX_SUFFIX
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
    assert [a.id for a in load_batch(feed, http_get=lambda u: _F1 + _F2)] == ["f1", "f2"]
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
