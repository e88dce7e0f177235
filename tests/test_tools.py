import pytest

from vulrtex.config import ToolSection
from vulrtex.corpus import CanonicalIR, RichTextElement
from vulrtex.errors import KindMismatch, ToolBackendUnavailable
from vulrtex.graph import AGENT_TERMINATOR, CODE_ANALYZER, SCR_ANALYZER
from vulrtex.tools import (
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


def test_terminator_sentinel(kit):
    result = kit.run_tool(AGENT_TERMINATOR)
    assert result.output_text == "TERMINATE"
    assert result.input_tag == ""


def test_scr_stub_returns_sidecar_contents(kit):
    el = RichTextElement("SCR", "[SCR1]", "https://img.test/a.png")
    result = kit.run_tool(SCR_ANALYZER, el)
    assert result.output_text == "login form with script tag in the name field"
    assert result.input_tag == "[SCR1]"


def test_scr_stub_missing_sidecar_unavailable(kit):
    el = RichTextElement("SCR", "[SCR1]", "https://img.test/unknown.png")
    with pytest.raises(ToolBackendUnavailable):
        kit.run_tool(SCR_ANALYZER, el)


def test_kind_mismatch(kit):
    code_el = RichTextElement("CODE", "[CODE1]", "echo 1;")
    with pytest.raises(KindMismatch):
        kit.run_tool(SCR_ANALYZER, code_el)
    scr_el = RichTextElement("SCR", "[SCR1]", "https://img.test/a.png")
    with pytest.raises(KindMismatch):
        kit.run_tool(CODE_ANALYZER, scr_el)


def test_code_stub_language_guesses():
    code = StubCodeAnalyzer()
    assert code.analyze("echo $_GET['q'];") == "code snippet in php: echo $_GET['q'];"
    assert code.analyze("import os\nos.system(cmd)") == "code snippet in python: import os"
    assert code.analyze("SELECT * FROM users") == "code snippet in sql: SELECT * FROM users"
    assert code.analyze("plain words") == "code snippet in text: plain words"


def test_cache_skips_second_backend_call(kit):
    el = RichTextElement("SCR", "[SCR1]", "https://img.test/a.png")
    kit.run_tool(SCR_ANALYZER, el)
    calls_after_first = kit.backend_calls
    kit.run_tool(SCR_ANALYZER, el)
    assert kit.backend_calls == calls_after_first


def test_cache_persists_on_disk(tmp_path):
    fixtures = tmp_path / "shots"
    write_sidecar(fixtures, "https://img.test/a.png", "shot text")
    cache = tmp_path / "cache"
    el = RichTextElement("SCR", "[SCR1]", "https://img.test/a.png")

    first = ToolKit(StubScrAnalyzer(fixtures), StubCodeAnalyzer(), cache_dir=cache)
    first.run_tool(SCR_ANALYZER, el)
    assert first.backend_calls == 1

    second = ToolKit(StubScrAnalyzer(fixtures), StubCodeAnalyzer(), cache_dir=cache)
    assert second.run_tool(SCR_ANALYZER, el).output_text == "shot text"
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


def test_flatten_unavailable_element_warns(kit):
    ir = CanonicalIR("x#4", "t", "see [SCR1]",
                     rich_text=[RichTextElement("SCR", "[SCR1]", "https://img.test/gone.png")])
    flat = kit.flatten_ir(ir)
    assert "[SCR1] ()" in flat
    assert len(kit.warnings) == 1
    assert "[SCR1]" in kit.warnings[0]


def test_make_toolkit_stub(tmp_path):
    kit = make_toolkit(ToolSection(scr_fixtures_dir=str(tmp_path),
                                   cache_dir=str(tmp_path / "cache")))
    assert kit.run_tool(AGENT_TERMINATOR).output_text == "TERMINATE"
