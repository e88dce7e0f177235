import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulrtex import knowledge
from vulrtex.errors import DuplicateKey
from vulrtex.knowledge import (
    KnowledgeRecord,
    KnowledgeStore,
    ingest,
    load_store,
    retrieve_golden,
    save_store,
)
from vulrtex.textindex import STOPWORDS, build_index, similarity, term_counts

from oracles import oracle_similarity
from test_textindex import texts

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def store() -> KnowledgeStore:
    return load_store(DATA / "va_store.jsonl")


def oracle_golden_keys(store, path_text, theta):
    corpus = [r.text for r in store.records] + [path_text]
    scored = [(oracle_similarity(path_text, r.text, corpus, STOPWORDS), r.key)
              for r in store.records]
    kept = [(s, k) for s, k in scored if s > theta]
    kept.sort(key=lambda p: (-p[0], p[1]))
    return [k for _, k in kept]


def test_fixture_has_fifty_records(store):
    assert len(store) == 50


def test_duplicate_key_rejected():
    rec = KnowledgeRecord("kb-fix", "ADV-1", "some advisory text")
    with pytest.raises(DuplicateKey):
        ingest([rec, KnowledgeRecord("kb-fix", "ADV-1", "other text")])


def test_same_key_different_source_allowed():
    a = KnowledgeRecord("kb-fix", "ADV-1", "text one")
    b = KnowledgeRecord("debian-fix", "ADV-1", "text two")
    assert len(ingest([a, b])) == 2


def test_empty_record_text_rejected():
    with pytest.raises(ValueError):
        KnowledgeRecord("kb-fix", "ADV-2", "")


@pytest.mark.parametrize("text", ["the of into", ", . ( the"])
def test_record_text_without_terms_rejected(text):
    # no lookup could return such a record: its term counts are empty
    with pytest.raises(ValueError, match="has no terms"):
        KnowledgeRecord("kb-fix", "ADV-2", text)


@pytest.mark.parametrize("fields", [
    {"source": 3}, {"key": 7}, {"text": 5}, {"text": ["xss"]}, {"cwe_id": 79}])
def test_record_fields_of_the_wrong_type_rejected(fields):
    record = {"source": "kb-fix", "key": "ADV-3", "text": "xss payload", **fields}
    with pytest.raises(ValueError, match=next(iter(fields))):
        KnowledgeRecord.from_dict(record)


def test_load_store_names_the_line_of_a_mistyped_record(tmp_path):
    # a numeric key next to a string key would otherwise load, and fail
    # only later when retrieve_golden breaks a tie by key
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps({"source": "kb-fix", "key": "ADV-1", "text": "xss"}) + "\n"
                    + json.dumps({"source": "kb-fix", "key": 7, "text": "xss"}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"records\.jsonl:2: knowledge record key"):
        load_store(path)


def test_empty_store_returns_nothing():
    assert retrieve_golden(ingest([]), "any text at all", 0.0) == []


def test_threshold_one_returns_nothing(store):
    assert retrieve_golden(store, "stored xss payload executes", 1.0) == []


def test_threshold_zero_returns_every_nonzero_match(store):
    got = retrieve_golden(store, "xss payload stored page", 0.0)
    assert [r.key for r in got] == oracle_golden_keys(store, "xss payload stored page", 0.0)
    assert 0 < len(got) < 50


def test_membership_matches_oracle_at_several_thresholds(store):
    for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
        got = [r.key for r in retrieve_golden(store, "xss payload stored page", theta)]
        assert got == oracle_golden_keys(store, "xss payload stored page", theta)


def test_all_results_exceed_threshold_independently(store):
    theta = 0.3
    corpus = [r.text for r in store.records] + ["xss payload stored page"]
    for rec in retrieve_golden(store, "xss payload stored page", theta):
        s = oracle_similarity("xss payload stored page", rec.text, corpus, STOPWORDS)
        assert s > theta


def test_monotone_shrinkage(store):
    sizes = [len(retrieve_golden(store, "sql injection in the login form", t / 10))
             for t in range(11)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_sorted_by_similarity_then_key(store):
    got = retrieve_golden(store, "cross-site scripting stored payload page", 0.05)
    corpus = [r.text for r in store.records] + ["cross-site scripting stored payload page"]
    sims = [oracle_similarity("cross-site scripting stored payload page", r.text, corpus, STOPWORDS)
            for r in got]
    assert sims == sorted(sims, reverse=True)


def test_retrieval_pure(store):
    a = retrieve_golden(store, "csrf token missing", 0.2)
    b = retrieve_golden(store, "csrf token missing", 0.2)
    assert a == b


def test_store_round_trip(tmp_path, store):
    out = tmp_path / "va.jsonl"
    save_store(store, out)
    again = load_store(out)
    assert again.records == store.records
    assert not (tmp_path / "va.index.json").exists()


QUERY_WORDS = ["xss", "payload", "stored", "page", "sql", "injection", "login", "csrf",
               "token", "the", "Cross-Site", "scripting", "overflow", "unknownterm"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(QUERY_WORDS), max_size=12).map(" ".join))
def test_similarities_equal_per_call_index(store, query):
    # the pre-counted store with query-adjusted document frequencies must
    # give exactly the floats of an index rebuilt over records + query
    idx = build_index([r.text for r in store.records] + [query])
    want = [similarity(idx, query, r.text) for r in store.records]
    assert store.similarities(query) == want


# Stores of generated texts (a record needs a term), with repeated terms,
# query-only terms and the empty query forced in; compared with == and
# float.hex, never approx.
_record_texts = st.one_of(texts.filter(term_counts),
                          st.sampled_from(["xss XSS xss payload", "token token Token page-x"]))
_queries = st.one_of(st.just(""), texts, texts.map(lambda t: t + " query-only"),
                     st.sampled_from(["the", "xss xss xss", "payload query-only token"]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_record_texts, max_size=8), _queries)
def test_similarities_equal_index_over_records_and_query(records, query):
    store = ingest([KnowledgeRecord("hyp", f"k{i}", r) for i, r in enumerate(records)])
    idx = build_index(records + [query])
    want = [similarity(idx, query, r) for r in records]
    got = store.similarities(query)
    assert got == want
    assert [s.hex() for s in got] == [s.hex() for s in want]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_record_texts, min_size=1, max_size=8),
       st.lists(st.one_of(_queries, st.lists(st.sampled_from(QUERY_WORDS), max_size=12)
                          .map(" ".join)), min_size=1, max_size=12))
def test_memoized_norms_equal_index_over_many_queries(records, queries):
    # one store answers every query, so later queries read norms memoized by
    # earlier ones; each float must still be that of a per-call index, and
    # counts in place of the text must give the same floats
    store = ingest([KnowledgeRecord("hyp", f"k{i}", r) for i, r in enumerate(records)])
    for query in queries + queries[::-1]:
        idx = build_index(records + [query])
        want = [similarity(idx, query, r).hex() for r in records]
        assert [s.hex() for s in store.similarities(query)] == want
        assert [s.hex() for s in store.similarities(term_counts(query))] == want


def test_records_sharing_no_term_are_never_scored(monkeypatch):
    # a fresh store: the module's fixture has normed records for other tests
    store = load_store(DATA / "va_store.jsonl")
    normed = []
    doc_norm = knowledge._doc_norm

    def counting(table, query):
        normed.append(table)
        return doc_norm(table, query)

    monkeypatch.setattr(knowledge, "_doc_norm", counting)
    query = "stored xss payload unknownterm"
    got = store.similarities(query)
    terms = {"stored", "xss", "payload", "unknownterm"}
    sharing = [i for i, counts in enumerate(store.record_counts) if counts.keys() & terms]
    assert 0 < len(sharing) < len(store)
    # each record sharing a term is normed once, from its own table, and no other
    record_of = {id(table): i for i, table in enumerate(store._lookup[1])}
    assert sorted(record_of[id(table)] for table in normed) == sharing
    for i, s in enumerate(got):
        if i in sharing:
            assert s > 0.0
        else:
            assert s.hex() == (0.0).hex()
    # a repeat holds the same terms of every record, so it norms none
    normed.clear()
    assert store.similarities(query) == got
    assert normed == []


def test_each_record_is_normed_once_per_set_of_held_terms(monkeypatch):
    # across many lookups, a record is normed once for each set of its terms
    # some query held, and never again
    store = load_store(DATA / "va_store.jsonl")
    record_of = {id(table): i for i, table in enumerate(store._lookup[1])}
    normed = []
    doc_norm = knowledge._doc_norm

    def counting(table, query):
        normed.append((record_of[id(table)], frozenset(t for t, *_ in table if t in query)))
        return doc_norm(table, query)

    monkeypatch.setattr(knowledge, "_doc_norm", counting)
    queries = [" ".join(QUERY_WORDS[i:i + n]) for n in (1, 3, 5) for i in range(len(QUERY_WORDS))]
    for query in queries + queries[::-1]:
        store.similarities(query)
        store.similarities(term_counts(query))
    reached = {(i, frozenset(counts.keys() & term_counts(query).keys()))
               for query in queries for i, counts in enumerate(store.record_counts)}
    assert len(normed) == len(set(normed))
    assert set(normed) == {pair for pair in reached if pair[1]}
