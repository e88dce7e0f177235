import json

import pytest

from vulrtex.corpus import (
    CanonicalIR,
    RichTextElement,
    load_corpus,
    save_corpus,
    split_corpus,
)
from vulrtex.errors import DuplicateId, EmptyCorpus


def make_ir(ir_id="acme/cms#1", content="body text", rich_text=(), created_at=100,
            **kwargs) -> CanonicalIR:
    return CanonicalIR(id=ir_id, title="a title", content=content,
                       rich_text=list(rich_text), created_at=created_at, **kwargs)


# --- corpus splitting ---

def test_split_corpus_sixty_forty():
    irs = [make_ir(ir_id=f"r#{i}", created_at=i) for i in range(10)]
    split = split_corpus(irs, 0.6)
    assert len(split.historical) == 6
    assert len(split.target) == 4
    assert max(ir.created_at for ir in split.historical) <= min(
        ir.created_at for ir in split.target)


def test_split_corpus_single_record_rounds_up():
    split = split_corpus([make_ir()], 0.6)
    assert len(split.historical) == 1
    assert split.target == []


def test_split_corpus_tie_broken_by_id():
    irs = [make_ir(ir_id="b#1", created_at=5), make_ir(ir_id="a#1", created_at=5)]
    split = split_corpus(irs, 0.5)
    assert split.historical[0].id == "a#1"
    assert split.target[0].id == "b#1"


def test_split_corpus_empty_rejected():
    with pytest.raises(EmptyCorpus):
        split_corpus([], 0.6)


# --- serialization ---

def test_jsonl_round_trip(tmp_path):
    irs = [
        make_ir(ir_id="acme/cms#1", content="plain"),
        make_ir(ir_id="acme/cms#2", content="with [SCR1]",
                rich_text=[RichTextElement("SCR", "[SCR1]", "https://x.test/a.png")],
                label_vul=True, cwe_id="CWE-79", cve_id="CVE-2021-0001"),
    ]
    path = tmp_path / "corpus.jsonl"
    save_corpus(irs, path)
    assert load_corpus(path) == irs


def test_load_corpus_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus([make_ir(), make_ir()], path)
    with pytest.raises(DuplicateId):
        load_corpus(path)


def test_canonical_json_field_names(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus([make_ir()], path)
    text = path.read_text(encoding="utf-8")
    assert '"Content"' in text
    assert '"Rich-Text"' in text


def test_tag_bijection_check():
    bad = make_ir(content="mentions [SCR1] but table empty")
    with pytest.raises(ValueError):
        bad.check_tag_bijection()


@pytest.mark.parametrize("label, cwe", [(True, "CWE-79"), (False, None), (None, None)])
def test_from_dict_keeps_json_labels(label, cwe):
    ir = CanonicalIR.from_dict({"id": "a#1", "label_vul": label, "cwe_id": cwe})
    assert (ir.label_vul, ir.cwe_id) == (label, cwe)


@pytest.mark.parametrize("change, reason", [
    ({"label_vul": "no"}, "label_vul 'no' is not a boolean"),
    ({"label_vul": "false"}, "label_vul 'false' is not a boolean"),
    ({"label_vul": 1}, "label_vul 1 is not a boolean"),
    ({"cwe_id": 79}, "cwe_id 79 is not a string"),
    ({"cwe_id": ["CWE-79"]}, r"cwe_id \['CWE-79'\] is not a string"),
])
def test_from_dict_refuses_labels_json_does_not_type(tmp_path, change, reason):
    record = {"id": "a#1", "label_vul": True, "cwe_id": "CWE-79", **change}
    with pytest.raises(ValueError, match=reason):
        CanonicalIR.from_dict(record)
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"corpus.jsonl:1: {reason}"):
        load_corpus(path)


SCR_ELEMENT = {"kind": "SCR", "tag": "[SCR1]", "payload": "a.png"}


@pytest.mark.parametrize("change, reason", [
    ({"id": 7}, "id 7 is not a string"),
    ({"title": ["a"]}, r"title \['a'\] is not a string"),
    ({"Content": 5}, "Content 5 is not a string"),
    ({"Rich-Text": "[SCR1]"}, r"Rich-Text '\[SCR1\]' is not a list"),
    ({"Rich-Text": [{**SCR_ELEMENT, "payload": 5}]}, "payload 5 is not a string"),
    ({"Rich-Text": [{**SCR_ELEMENT, "kind": None}]}, "kind None is not a string"),
    ({"Rich-Text": [{**SCR_ELEMENT, "tag": 1}]}, "tag 1 is not a string"),
    ({"created_at": "5"}, "created_at '5' is not an integer"),
    ({"created_at": 1.9}, "created_at 1.9 is not an integer"),
    ({"created_at": True}, "created_at True is not an integer"),
    ({"cve_id": 2021}, "cve_id 2021 is not a string"),
    ({"flags": ["x"]}, r"flags \['x'\] is not an object"),
])
def test_from_dict_refuses_fields_of_another_json_type(tmp_path, change, reason):
    record = {"id": "a#1", "title": "t", "Content": "see [SCR1]",
              "Rich-Text": [SCR_ELEMENT], "created_at": 5, **change}
    with pytest.raises(ValueError, match=reason):
        CanonicalIR.from_dict(record)
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"corpus.jsonl:1: {reason}"):
        load_corpus(path)


def test_from_dict_defaults_missing_fields():
    ir = CanonicalIR.from_dict({"id": "a#1", "cve_id": None})
    assert ir == CanonicalIR("a#1", "", "", [], 0, None, None, None, {})
