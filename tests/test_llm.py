import threading

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from kgmon import llm
from kgmon.extract import ArticleDoc
from kgmon.graph import parse_records
from kgmon.llm import (
    EndpointConfig,
    LlmError,
    extract_batch,
    ingest_offline,
    load_template,
    parse_llm_response,
    render_prompt,
)
from kgmon.monitor import UndecodableFileError

from conftest import NOT_LINE_BREAKS, FakeResponse, codepoint

TEMPLATE = load_template(
    "Schema:\n{{ONTOLOGY}}\nArticle:\n{{ARTICLE}}\nEmit records between "
    "BEGIN_KG and END_KG lines."
)


def _config(**kw):
    defaults = dict(
        url="https://models.example/v1/complete",
        auth_env="KGMON_TEST_TOKEN",
        model_name="probe-1",
        temperature=0.0,
        timeout=30.0,
        max_retries=2,
        parallelism=4,
    )
    defaults.update(kw)
    return EndpointConfig(**defaults)


@pytest.fixture
def token_env(monkeypatch):
    monkeypatch.setenv("KGMON_TEST_TOKEN", "sk-test")


def _article(i=0, text="Alice Chen works for Globex."):
    return ArticleDoc(id=f"art-{i}", text=text)


def _block(*records):
    return "preamble chatter\nBEGIN_KG\n" + "\n".join(records) + "\nEND_KG\ntrailer\n"


def test_endpoint_config_validation():
    _config()
    with pytest.raises(LlmError, match="url"):
        _config(url="not a url")
    with pytest.raises(LlmError, match="url"):
        _config(url="ftp://models.example/x")
    with pytest.raises(LlmError, match="auth_env"):
        _config(auth_env="")
    with pytest.raises(LlmError, match="temperature"):
        _config(temperature=-0.5)
    with pytest.raises(LlmError, match="timeout"):
        _config(timeout=0.0)
    with pytest.raises(LlmError, match="max_retries"):
        _config(max_retries=-1)
    with pytest.raises(LlmError, match="parallelism"):
        _config(parallelism=0)


def test_load_template_requires_each_slot_once():
    with pytest.raises(LlmError, match="ARTICLE"):
        load_template("{{ONTOLOGY}}")
    with pytest.raises(LlmError, match="found 2"):
        load_template("{{ARTICLE}} {{ARTICLE}} {{ONTOLOGY}}")
    with pytest.raises(LlmError, match="ONTOLOGY"):
        load_template("{{ARTICLE}} {{ONTOLOGY}} {{ONTOLOGY}}")


def test_render_prompt_single_pass(onto):
    article = _article(text="Mentions {{ONTOLOGY}} literally.")
    rendered = render_prompt(TEMPLATE, article, onto)
    assert "Mentions {{ONTOLOGY}} literally." in rendered
    assert rendered.count("CLASS Person") == 1
    assert "{{ARTICLE}}" not in rendered
    assert rendered.index("CLASS Person") < rendered.index("Mentions")


def test_parse_llm_response_happy_path():
    raw = _block(
        "E\tAlice Chen\tPerson\tmodel-claims-this",
        "E\tGlobex\tOrganization\tx",
        "T\tAlice Chen\tworksFor\tGlobex\ty",
    )
    graph, diags = parse_llm_response(raw, "art-9")
    assert diags.malformed_lines == 0
    assert graph.entities == {
        "Alice Chen": ("Person", "art-9"),
        "Globex": ("Organization", "art-9"),
    }
    assert graph.triples == {("Alice Chen", "worksFor", "Globex"): "art-9"}


def test_parse_llm_response_counts_garbled_lines():
    raw = _block(
        "E\tAlice Chen\tPerson\ta",
        "I think the answer is:",
        "E\tbroken",
        "",
        "T\tAlice Chen\tworksFor\tGlobex\ta",
    )
    graph, diags = parse_llm_response(raw, "a1")
    assert diags.malformed_lines == 2
    assert len(graph.entities) == 1
    assert graph.triples == {}


def test_parse_llm_response_missing_sentinels():
    raw = "no sentinels here\nE\tAlice\tPerson\ta\n"
    graph, diags = parse_llm_response(raw, "a1")
    assert len(graph.entities) == 0
    assert diags.malformed_lines == 2
    half = "BEGIN_KG\nE\tAlice\tPerson\ta\n"
    graph, diags = parse_llm_response(half, "a1")
    assert len(graph.entities) == 0
    assert diags.malformed_lines == 2


def test_parse_llm_response_first_block_wins():
    raw = (
        "BEGIN_KG\nE\tAlice\tPerson\tx\nEND_KG\n"
        "BEGIN_KG\nE\tBob\tPerson\tx\nEND_KG\n"
    )
    graph, _ = parse_llm_response(raw, "a1")
    assert list(graph.entities) == ["Alice"]


def test_parse_llm_response_indented_sentinels():
    raw = "  BEGIN_KG  \nE\tAlice\tPerson\tx\n\tEND_KG\n"
    graph, _ = parse_llm_response(raw, "a1")
    assert list(graph.entities) == ["Alice"]


_NAME = st.sampled_from(["Alice", "Bob  Marsh", " Acme Corp", "Ghost", ""])
_TOKEN = st.sampled_from(["Person", "Organization", "City", "two words", ""])
_RECORD = st.one_of(
    st.builds("E\t{}\t{}\ta1".format, _NAME, _TOKEN),
    st.builds("T\t{}\t{}\t{}\ta1".format, _NAME, _TOKEN, _NAME),
    # Anything else on one line, a sentinel aside.
    st.text(st.characters(blacklist_characters="\n\r"), max_size=12).filter(
        lambda line: line.strip() not in ("BEGIN_KG", "END_KG")
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_RECORD, max_size=12))
def test_parse_llm_response_block_parses_as_record_text(lines):
    # A model's block and a record file of the same lines give one graph
    # and the same three counts.
    text = "".join(line + "\n" for line in lines)
    graph, diags = parse_llm_response(f"chatter\nBEGIN_KG\n{text}END_KG\n", "a1")
    expected, expected_diags = parse_records(text)
    assert list(graph.entities.items()) == list(expected.entities.items())
    assert list(graph.triples.items()) == list(expected.triples.items())
    assert diags == expected_diags


def test_extract_batch_requires_token(onto, monkeypatch):
    monkeypatch.delenv("KGMON_TEST_TOKEN", raising=False)
    calls = []
    monkeypatch.setattr(llm, "_http_transport", lambda *a: calls.append(a))
    with pytest.raises(LlmError, match="KGMON_TEST_TOKEN"):
        extract_batch([_article()], _config(), TEMPLATE, onto)
    assert calls == []


def test_extract_batch_merges_fragments(onto, token_env, monkeypatch):
    def transport(config, token, prompt):
        assert token == "sk-test"
        assert "Article:" in prompt
        if "first article" in prompt:
            return _block(
                "E\tAlice Chen\tPerson\tz",
                "E\tGlobex\tOrganization\tz",
                "T\tAlice Chen\tworksFor\tGlobex\tz",
            )
        return _block("E\tGlobex\tOrganization\tz", "E\tBerlin\tCity\tz")

    batch = [
        _article(0, "first article"),
        _article(1, "second article"),
    ]
    monkeypatch.setattr(llm, "_http_transport", transport)
    graph, diags = extract_batch(batch, _config(), TEMPLATE, onto)
    assert set(graph.entities) == {"Alice Chen", "Globex", "Berlin"}
    # Same entity from two articles keeps the smaller provenance id.
    assert graph.entities["Globex"] == ("Organization", "art-0")
    assert diags.failures == []
    assert diags.malformed_lines == 0


def test_extract_batch_reports_per_article_build_diagnostics(
    onto, token_env, monkeypatch
):
    # Each article's graph is closed and conflict-free by the time the
    # fragments are united, so only the per-article counts see these.
    def transport(config, token, prompt):
        if "first article" in prompt:
            return _block(
                "E\tAlice Chen\tPerson\tz",
                "E\tAlice Chen\tOrganization\tz",
                "T\tAlice Chen\tworksFor\tGhost Corp\tz",
            )
        return _block("E\tGlobex\tOrganization\tz")

    batch = [_article(0, "first article"), _article(1, "second article")]
    monkeypatch.setattr(llm, "_http_transport", transport)
    graph, diags = extract_batch(batch, _config(), TEMPLATE, onto)
    assert graph.triples == {}
    assert graph.entities["Alice Chen"] == ("Organization", "art-0")
    assert (diags.closure_violations, diags.class_conflicts) == (1, 1)


def test_extract_batch_partial_failure(onto, token_env, monkeypatch, caplog):
    def transport(config, token, prompt):
        if "bad article" in prompt:
            raise RuntimeError("boom")
        return _block("E\tAlice Chen\tPerson\tz")

    monkeypatch.setattr(llm, "_http_transport", transport)
    batch = [_article(0, "good article"), _article(1, "bad article")]
    with caplog.at_level("WARNING", logger="kgmon.llm"):
        graph, diags = extract_batch(batch, _config(max_retries=0), TEMPLATE, onto)
    assert set(graph.entities) == {"Alice Chen"}
    assert len(diags.failures) == 1
    assert "art-1" in diags.failures[0]
    assert any("art-1" in r.message for r in caplog.records)


def test_extract_batch_all_failed(onto, token_env, monkeypatch):
    def transport(config, token, prompt):
        raise RuntimeError("down")

    monkeypatch.setattr(llm, "_http_transport", transport)
    with pytest.raises(LlmError, match="all 2 article extractions failed"):
        extract_batch(
            [_article(0), _article(1)], _config(max_retries=0), TEMPLATE, onto
        )


def test_extract_batch_empty_batch(onto, token_env, monkeypatch):
    monkeypatch.setattr(llm, "_http_transport", lambda *a: "")
    graph, diags = extract_batch([], _config(), TEMPLATE, onto)
    assert len(graph.entities) == 0
    assert diags.failures == []


def test_retries_backoff_then_success(onto, token_env, monkeypatch):
    sleeps = []
    monkeypatch.setattr(llm, "_sleep", sleeps.append)
    attempts = {"n": 0}

    def transport(config, token, prompt):
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise RuntimeError("flaky")
        return _block("E\tAlice Chen\tPerson\tz")

    monkeypatch.setattr(llm, "_http_transport", transport)
    graph, diags = extract_batch([_article()], _config(max_retries=2), TEMPLATE, onto)
    assert attempts["n"] == 3
    assert set(graph.entities) == {"Alice Chen"}
    assert diags.retried == {"art-0": 2}
    assert len(sleeps) == 2
    assert 1.0 <= sleeps[0] <= 1.5
    assert 2.0 <= sleeps[1] <= 3.0


def test_retries_exhausted(onto, token_env, monkeypatch):
    sleeps = []
    monkeypatch.setattr(llm, "_sleep", sleeps.append)

    def transport(config, token, prompt):
        raise RuntimeError("always down")

    monkeypatch.setattr(llm, "_http_transport", transport)
    with pytest.raises(LlmError, match="all 1 article extractions failed"):
        extract_batch([_article()], _config(max_retries=2), TEMPLATE, onto)
    assert len(sleeps) == 2


def _http_error(status):
    response = requests.models.Response()
    response.status_code = status
    response.reason = "Status"
    response.url = "https://models.example/v1/complete"
    return FakeResponse(error=requests.HTTPError(f"{status} Error", response=response))


def test_client_error_is_not_retried(onto, token_env, monkeypatch):
    sleeps, calls = [], []
    monkeypatch.setattr(llm, "_sleep", sleeps.append)

    def post(url, **kwargs):
        calls.append(url)
        return _http_error(401)

    monkeypatch.setattr(requests, "post", post)
    with pytest.raises(LlmError, match="all 1 article extractions failed: art-0: 401"):
        extract_batch([_article()], _config(max_retries=2), TEMPLATE, onto)
    assert (len(calls), sleeps) == (1, [])


@pytest.mark.parametrize("status", [503, 429, 408])
def test_transient_http_errors_are_retried(onto, token_env, monkeypatch, status):
    sleeps, calls = [], []
    monkeypatch.setattr(llm, "_sleep", sleeps.append)

    def post(url, **kwargs):
        calls.append(url)
        return _http_error(status)

    monkeypatch.setattr(requests, "post", post)
    with pytest.raises(LlmError, match=f"art-0: {status}"):
        extract_batch([_article()], _config(max_retries=2), TEMPLATE, onto)
    assert (len(calls), len(sleeps)) == (3, 2)


def test_parallelism_bounded(onto, token_env, monkeypatch):
    monkeypatch.setattr(llm, "_sleep", lambda s: None)
    lock = threading.Lock()
    live = {"now": 0, "peak": 0}
    release = threading.Event()

    def transport(config, token, prompt):
        with lock:
            live["now"] += 1
            live["peak"] = max(live["peak"], live["now"])
        release.wait(0.05)
        with lock:
            live["now"] -= 1
        return _block("E\tAlice Chen\tPerson\tz")

    monkeypatch.setattr(llm, "_http_transport", transport)
    batch = [_article(i, f"text {i}") for i in range(8)]
    extract_batch(batch, _config(parallelism=2), TEMPLATE, onto)
    assert live["peak"] <= 2


def test_ingest_offline(tmp_path):
    path = tmp_path / "records.txt"
    path.write_text(
        "E\tAlice\tPerson\ta1\nE\tGlobex\tOrganization\ta1\n"
        "T\tAlice\tworksFor\tGlobex\ta1\nnot a record\n",
        encoding="utf-8",
    )
    graph, diags = ingest_offline(str(path))
    assert len(graph.entities) == 2
    assert diags.malformed_lines == 1
    with pytest.raises(OSError):
        ingest_offline(str(tmp_path / "missing.txt"))


def test_ingest_offline_undecodable_file_names_it(tmp_path):
    path = tmp_path / "records.txt"
    path.write_bytes(b"E\tAl\xffice\tPerson\ta1\n")
    with pytest.raises(UndecodableFileError) as caught:
        ingest_offline(str(path))
    assert str(caught.value) == f"{path}: not valid UTF-8: invalid start byte"
    assert isinstance(caught.value, ValueError)


# The model request runs for real below, with requests.post replaced on the
# requests module: no connection is made.
def test_http_transport_posts_the_prompt(onto, token_env, monkeypatch):
    calls = []

    def post(url, **kwargs):
        calls.append((url, kwargs))
        return FakeResponse(body={"text": _block("E\tAlice Chen\tPerson\tz")})

    monkeypatch.setattr(requests, "post", post)
    article = _article()
    graph, diags = extract_batch(
        [article], _config(temperature=0.25, timeout=7.5), TEMPLATE, onto
    )
    assert graph.entities == {"Alice Chen": ("Person", "art-0")}
    assert diags.failures == []
    assert calls == [
        (
            "https://models.example/v1/complete",
            {
                "json": {
                    "model": "probe-1",
                    "temperature": 0.25,
                    "prompt": render_prompt(TEMPLATE, article, onto),
                },
                "headers": {"Authorization": "Bearer sk-test"},
                "timeout": 7.5,
            },
        )
    ]


def test_http_transport_raises_http_errors(monkeypatch):
    error = requests.HTTPError("429 Client Error: Too Many Requests")
    monkeypatch.setattr(requests, "post", lambda url, **kw: FakeResponse(error=error))
    with pytest.raises(requests.HTTPError, match="429"):
        llm._http_transport(_config(), "sk-test", "prompt")


@pytest.mark.parametrize("body", [{"choices": []}, ["text"], None])
def test_http_transport_needs_a_text_field(monkeypatch, body):
    monkeypatch.setattr(requests, "post", lambda url, **kw: FakeResponse(body=body))
    with pytest.raises(LlmError, match="no text field"):
        llm._http_transport(_config(), "sk-test", "prompt")


@pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=codepoint)
def test_parse_llm_response_keeps_unicode_line_separators_in_a_record(char):
    raw = _block(f"E\tAl{char}ice\tPerson\tz", "E\tBob\tPerson\tz")
    graph, diags = parse_llm_response(raw, "a1")
    assert graph.entities == {"Al ice": ("Person", "a1"), "Bob": ("Person", "a1")}
    assert diags.malformed_lines == 0


@pytest.mark.parametrize("brk", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_parse_llm_response_breaks_lines_as_text_mode_does(brk):
    raw = brk.join(["BEGIN_KG", "E\tAlice\tPerson\tz", "garbled", "END_KG", ""])
    graph, diags = parse_llm_response(raw, "a1")
    assert list(graph.entities) == ["Alice"]
    assert diags.malformed_lines == 1
    # Without sentinels every line counts, the trailing break adding none.
    _, diags = parse_llm_response(brk.join(["one", "two", ""]), "a1")
    assert diags.malformed_lines == 2
