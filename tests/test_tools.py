import http.client
import urllib.error
import urllib.request
from unittest import mock

import pytest

from fixturelib import answering
from vulrtex.config import ToolSection
from vulrtex.corpus import CanonicalIR, RichTextElement
from vulrtex.errors import ToolBackendUnavailable
from vulrtex.tools import (
    HttpAnalyzer,
    StubCodeAnalyzer,
    StubScrAnalyzer,
    ToolKit,
    make_toolkit,
    sidecar_filename,
)


def write_sidecar(dirpath, url, text):
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / sidecar_filename(url)).write_text(text, encoding="utf-8")


@pytest.fixture
def kit(tmp_path):
    fixtures = tmp_path / "shots"
    write_sidecar(fixtures, "https://img.test/a.png", "login form with script tag in the name field\n")
    return ToolKit(StubScrAnalyzer(fixtures), StubCodeAnalyzer())


def test_scr_stub_returns_sidecar_contents(kit):
    el = RichTextElement("SCR", "[SCR1]", "https://img.test/a.png")
    assert kit.run_tool(el) == "login form with script tag in the name field"


def test_scr_stub_missing_sidecar_unavailable(kit):
    el = RichTextElement("SCR", "[SCR1]", "https://img.test/unknown.png")
    with pytest.raises(ToolBackendUnavailable):
        kit.run_tool(el)


def test_code_stub_language_guesses():
    code = StubCodeAnalyzer()
    assert code.analyze("echo $_GET['q'];") == "code snippet in php: echo $_GET['q'];"
    assert code.analyze("import os\nos.system(cmd)") == "code snippet in python: import os"
    assert code.analyze("SELECT * FROM users") == "code snippet in sql: SELECT * FROM users"
    assert code.analyze("plain words") == "code snippet in text: plain words"


def test_cache_skips_second_backend_call(kit):
    el = RichTextElement("SCR", "[SCR1]", "https://img.test/a.png")
    kit.run_tool(el)
    calls_after_first = kit.backend_calls
    kit.run_tool(el)
    assert kit.backend_calls == calls_after_first


def test_cache_persists_on_disk(tmp_path):
    fixtures = tmp_path / "shots"
    write_sidecar(fixtures, "https://img.test/a.png", "shot text")
    cache = tmp_path / "cache"
    el = RichTextElement("SCR", "[SCR1]", "https://img.test/a.png")

    first = ToolKit(StubScrAnalyzer(fixtures), StubCodeAnalyzer(), cache_dir=cache)
    first.run_tool(el)
    assert first.backend_calls == 1

    second = ToolKit(StubScrAnalyzer(fixtures), StubCodeAnalyzer(), cache_dir=cache)
    assert second.run_tool(el) == "shot text"
    assert second.backend_calls == 0


def test_flatten_plain_ir(kit):
    ir = CanonicalIR("x#1", "crash on load", "the page crash on load")
    assert kit.flatten_ir(ir) == "crash on load\nthe page crash on load"


def test_flatten_expands_code_tag(kit):
    ir = CanonicalIR("x#2", "", "payload here [CODE1] end",
                     rich_text=[RichTextElement("CODE", "[CODE1]", "echo $_GET['q'];")])
    flat = kit.flatten_ir(ir)
    assert "[CODE1] (code snippet in php: echo $_GET['q'];)" in flat


def test_flatten_motivation_shape_expands_all_five(tmp_path):
    fixtures = tmp_path / "shots"
    write_sidecar(fixtures, "https://img.test/a.png", "main page before injection")
    write_sidecar(fixtures, "https://img.test/b.png", "alert box after injection")
    kit = ToolKit(StubScrAnalyzer(fixtures), StubCodeAnalyzer())
    ir = CanonicalIR(
        "x#3", "stored xss",
        "first [SCR1] then [SCR2] with [CODE1] and [CODE2] and [CODE3]",
        rich_text=[
            RichTextElement("SCR", "[SCR1]", "https://img.test/a.png"),
            RichTextElement("SCR", "[SCR2]", "https://img.test/b.png"),
            RichTextElement("CODE", "[CODE1]", "echo $_GET['q'];"),
            RichTextElement("CODE", "[CODE2]", "SELECT name FROM users"),
            RichTextElement("CODE", "[CODE3]", "console.log(q)"),
        ])
    flat = kit.flatten_ir(ir)
    assert flat.count("] (") == 5
    assert flat.index("[SCR1] (") < flat.index("[SCR2] (") < flat.index("[CODE1] (")
    assert "[SCR1] (main page before injection)" in flat


@pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2)])
def test_flatten_leaves_tags_inside_tool_outputs_in_any_element_order(tmp_path, order):
    fixtures = tmp_path / "shots"
    write_sidecar(fixtures, "https://img.test/a.png", "the page quotes [SCR2] and [CODE1]")
    write_sidecar(fixtures, "https://img.test/b.png", "second shot")
    kit = ToolKit(StubScrAnalyzer(fixtures), StubCodeAnalyzer())
    elements = [RichTextElement("SCR", "[SCR1]", "https://img.test/a.png"),
                RichTextElement("SCR", "[SCR2]", "https://img.test/b.png"),
                RichTextElement("CODE", "[CODE1]", "echo 1")]
    ir = CanonicalIR("x#5", "t", "see [SCR1] then [SCR2] and [CODE1]",
                     rich_text=[elements[k] for k in order])
    assert kit.flatten_ir(ir) == (
        "t\nsee [SCR1] (the page quotes [SCR2] and [CODE1]) then [SCR2] (second shot) "
        "and [CODE1] (code snippet in php: echo 1)")


def test_flatten_unavailable_element_warns(kit):
    ir = CanonicalIR("x#4", "t", "see [SCR1]",
                     rich_text=[RichTextElement("SCR", "[SCR1]", "https://img.test/gone.png")])
    flat = kit.flatten_ir(ir)
    assert "[SCR1] ()" in flat
    assert len(kit.warnings) == 1
    assert "[SCR1]" in kit.warnings[0]


def test_sidecar_that_is_a_directory_expands_empty(tmp_path, caplog):
    url = "https://img.test/dir.png"
    (tmp_path / "shots" / sidecar_filename(url)).mkdir(parents=True)
    kit = ToolKit(StubScrAnalyzer(tmp_path / "shots"), StubCodeAnalyzer())
    ir = CanonicalIR("x#6", "t", "see [SCR1]",
                     rich_text=[RichTextElement("SCR", "[SCR1]", url)])
    with caplog.at_level("WARNING", logger="vulrtex.tools"):
        assert kit.flatten_ir(ir) == "t\nsee [SCR1] ()"
    assert kit.warnings == [f"x#6: [SCR1] output unavailable (no sidecar text for "
                            f"screenshot {url})"]
    assert kit.warnings[0] in caplog.text


def test_fixtures_dir_that_is_a_file_is_unavailable(tmp_path):
    (tmp_path / "shots").write_text("", encoding="utf-8")
    kit = ToolKit(StubScrAnalyzer(tmp_path / "shots"), StubCodeAnalyzer())
    with pytest.raises(ToolBackendUnavailable):
        kit.run_tool(RichTextElement("SCR", "[SCR1]", "https://img.test/a.png"))


def test_make_toolkit_stub(tmp_path):
    write_sidecar(tmp_path, "https://img.test/a.png", "shot text")
    kit = make_toolkit(ToolSection(scr_fixtures_dir=str(tmp_path),
                                   cache_dir=str(tmp_path / "cache")))
    assert kit.run_tool(RichTextElement("SCR", "[SCR1]", "https://img.test/a.png")) == "shot text"
    assert kit.run_tool(RichTextElement("CODE", "[CODE1]", "echo 1;")) == \
        "code snippet in php: echo 1;"
    assert kit.backend_calls == 2
    assert len(list((tmp_path / "cache").glob("*.txt"))) == 2


def http_error(code: int):
    def fail(request, timeout):
        raise urllib.error.HTTPError(request.full_url, code, "refused", {}, None)
    return fail


def http_kit(tmp_path) -> ToolKit:
    return ToolKit(HttpAnalyzer("http://scr.invalid/v1"), StubCodeAnalyzer(),
                   cache_dir=tmp_path / "cache")


SCR_ELEMENT = RichTextElement("SCR", "[SCR1]", "https://img.test/a.png")

UNAVAILABLE_REPLIES = {
    "cut short": answering(http.client.IncompleteRead(b'{"te')),
    "5xx": http_error(503),
    "429": http_error(429),
    "4xx": http_error(404),
    "not json": answering(b"<html>busy</html>"),
    "array": answering([1, 2]),
    "string": answering("text"),
    "no text": answering({"caption": "a login form"}),
    "null text": answering({"text": None}),
    "number text": answering({"text": 5}),
}


@pytest.mark.parametrize("urlopen", UNAVAILABLE_REPLIES.values(), ids=UNAVAILABLE_REPLIES)
def test_http_analyzer_failure_is_unavailable_and_never_cached(tmp_path, urlopen):
    kit = http_kit(tmp_path)
    with mock.patch.object(urllib.request, "urlopen", urlopen):
        with pytest.raises(ToolBackendUnavailable, match="scr.invalid"):
            kit.run_tool(SCR_ELEMENT)
    assert not (tmp_path / "cache").exists()
    # the next good reply reaches the backend again and is the one cached
    with mock.patch.object(urllib.request, "urlopen", answering({"text": "a login form"})):
        assert kit.run_tool(SCR_ELEMENT) == "a login form"
    with mock.patch.object(urllib.request, "urlopen", urlopen):
        assert kit.run_tool(SCR_ELEMENT) == "a login form"
    assert kit.backend_calls == 2
    assert len(list((tmp_path / "cache").iterdir())) == 1


@pytest.mark.parametrize("urlopen", UNAVAILABLE_REPLIES.values(), ids=UNAVAILABLE_REPLIES)
def test_flatten_expands_an_unavailable_http_element_empty(tmp_path, urlopen):
    kit = http_kit(tmp_path)
    ir = CanonicalIR("x#5", "t", "see [SCR1]", rich_text=[SCR_ELEMENT])
    with mock.patch.object(urllib.request, "urlopen", urlopen):
        assert kit.flatten_ir(ir) == "t\nsee [SCR1] ()"
    assert len(kit.warnings) == 1
    assert kit.warnings[0].startswith("x#5: [SCR1] output unavailable")
