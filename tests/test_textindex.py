import math
import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vulrtex.errors import EmptyCorpus
from vulrtex.knowledge import KnowledgeRecord, KnowledgeStore
from vulrtex.textindex import (
    STOPWORDS,
    CorpusIdf,
    TermIds,
    build_index,
    cosine,
    query_cosines,
    similarity,
    term_counts,
    tokenize,
)

from oracles import oracle_similarity

FIVE_DOCS = [
    "stored xss payload executes on the profile page",
    "sql injection in the login form parameters",
    "cross-site scripting via comment preview page",
    "buffer overflow when parsing long headers",
    "csrf token missing on the settings form",
]


def test_stopword_list_has_fifty_entries():
    assert len(STOPWORDS) == 50


def test_tokenize_keeps_hyphenated_terms_whole():
    assert tokenize("Cross-Site scripting") == ["cross-site", "scripting"]


def test_tokenize_drops_stopwords_and_punctuation():
    assert tokenize("the payload, THE PAYLOAD!") == ["payload", "payload"]


def test_build_index_counts_document_frequencies():
    # every counted term has an idf, and the one in more documents weighs less
    idx = build_index(["a b", "a"])
    assert sorted(idx.idf) == ["a", "b"]
    assert idx.idf["a"] < idx.idf["b"]


def test_build_index_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        build_index([])


def test_smoothed_idf_formula():
    idx = build_index(["a b", "a"])
    assert idx.idf["a"] == pytest.approx(math.log(3 / 3) + 1.0, abs=1e-12)
    assert idx.idf["b"] == pytest.approx(math.log(3 / 2) + 1.0, abs=1e-12)


def test_vectorize_weight_is_tf_times_idf():
    idx = build_index(["a b", "a"])
    vec = idx.vectorize("b b b")
    assert vec.weights == {"b": 3 * idx.idf["b"]}


def test_vectorize_unknown_terms_dropped():
    idx = build_index(["a b", "a"])
    assert idx.vectorize("zzz qqq").weights == {}


def test_similarity_identity():
    idx = build_index(FIVE_DOCS)
    assert similarity(idx, "stored xss payload", "stored xss payload") == pytest.approx(1.0, abs=1e-12)


def test_similarity_disjoint_vocabulary_is_zero():
    idx = build_index(FIVE_DOCS)
    assert similarity(idx, "sql injection", "buffer overflow") == 0.0


def test_similarity_empty_side_is_zero():
    idx = build_index(FIVE_DOCS)
    assert similarity(idx, "", "xss payload") == 0.0
    assert similarity(idx, "unseen-term-only", "xss payload") == 0.0


def test_similarity_matches_oracle_on_fixture():
    # Frozen from the brute-force oracle over FIVE_DOCS.
    expected = 0.7891589913464456
    idx = build_index(FIVE_DOCS)
    got = similarity(idx, "xss payload page", "xss page")
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(
        oracle_similarity("xss payload page", "xss page", FIVE_DOCS, STOPWORDS), abs=1e-12)


def test_similarity_matches_oracle_on_random_texts():
    rng = random.Random(20240817)
    words = ["xss", "sql", "payload", "page", "form", "token", "overflow",
             "the", "on", "scripting", "cross-site", "header"]
    docs = [" ".join(rng.choices(words, k=rng.randint(2, 9))) for _ in range(12)]
    idx = build_index(docs)
    for _ in range(40):
        a = " ".join(rng.choices(words, k=rng.randint(1, 7)))
        b = " ".join(rng.choices(words, k=rng.randint(1, 7)))
        assert similarity(idx, a, b) == pytest.approx(
            oracle_similarity(a, b, docs, STOPWORDS), abs=1e-12)


def test_similarity_symmetric_exactly():
    idx = build_index(FIVE_DOCS)
    pairs = [("xss payload page", "xss page"),
             ("sql injection login", "login form sql"),
             ("csrf token", "token csrf missing settings")]
    for a, b in pairs:
        assert similarity(idx, a, b) == similarity(idx, b, a)


def test_similarity_range():
    idx = build_index(FIVE_DOCS)
    rng = random.Random(7)
    vocab = sorted(idx.idf)
    for _ in range(50):
        a = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
        b = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
        assert 0.0 <= similarity(idx, a, b) <= 1.0


def test_similarity_scale_invariant():
    idx = build_index(FIVE_DOCS)
    base = similarity(idx, "xss payload page", "csrf token missing")
    for k in (2, 3, 5):
        repeated = " ".join(["xss payload page"] * k)
        assert similarity(idx, repeated, "csrf token missing") == pytest.approx(base, abs=1e-9)


def test_build_index_deterministic():
    a = build_index(FIVE_DOCS)
    b = build_index(FIVE_DOCS)
    assert list(a.idf.items()) == list(b.idf.items())


def test_cosine_clamped_to_one():
    idx = build_index(FIVE_DOCS)
    va = idx.vectorize("xss payload xss payload")
    assert cosine(va, va) <= 1.0


# ------------------------------------------- term counts against plain texts
#
# The counts path must give the same floats as tokenizing the text, bit for
# bit, so these compare with == and never approx.

_PIECES = ["xss", "XSS", "payload", "Page", "the", "of", "cross-site", "sql-injection",
           "a-b", "-", "42", "token", "Token", "é", "über", "tag", ",", ".", "(", ")"]
_SEPARATORS = [" ", "  ", "\n", "", ", ", "-", "\t"]

texts = st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from(_SEPARATORS)),
                 max_size=14).map(lambda parts: "".join(w + sep for w, sep in parts))
corpora = st.lists(texts, min_size=1, max_size=5)
exact = settings(max_examples=100, deadline=None, derandomize=True)


@exact
@given(texts, texts)
def test_merged_counts_equal_counts_of_joined_text(a, b):
    merged = term_counts(a) + term_counts(b)
    assert list(merged.items()) == list(term_counts(a + " " + b).items())


@exact
@given(corpora, texts, texts)
def test_vectorize_merged_counts_equals_joined_text(docs, a, b):
    idx = build_index(docs + [a, b])
    from_counts = idx.vectorize(term_counts(a) + term_counts(b))
    from_text = idx.vectorize(a + " " + b)
    # same keys in the same order: the order in which the joined text's
    # terms first occur
    assert list(from_counts.weights.items()) == list(from_text.weights.items())
    first_seen = dict.fromkeys(tokenize(a + " " + b))
    assert list(from_text.weights) == list(first_seen)
    assert from_counts.norm() == from_text.norm()
    assert from_text.norm() == math.sqrt(math.fsum(w * w for w in from_text.weights.values()))


@exact
@given(corpora, texts, texts)
def test_counts_and_texts_give_identical_index_and_similarity(docs, a, b):
    from_text = build_index(docs)
    from_counts = build_index([term_counts(d) for d in docs])
    assert from_counts.idf == from_text.idf
    assert (similarity(from_counts, term_counts(a), term_counts(b))
            == similarity(from_text, a, b))


@exact
@given(corpora, texts)
def test_corpus_idf_index_equals_index_over_corpus_and_query(docs, query):
    # the tabled idf for one query must be exactly build_index's over the
    # corpus plus that query: absent for a corpus term the query lacks,
    # shared for one it holds, query_only for a term only the query holds
    tabled = CorpusIdf.from_corpus([term_counts(d) for d in docs])
    q = term_counts(query)
    built = build_index(docs + [query])
    assert tabled.absent.keys() | q.keys() == built.idf.keys()
    for term, idf in built.idf.items():
        if term not in q:
            assert tabled.absent[term] == idf
        elif term in tabled.shared:
            assert tabled.shared[term] == idf
        else:
            assert tabled.query_only == idf


# terms no document strategy draws, so a query can hold terms no doc holds
query_texts = st.lists(
    st.tuples(st.sampled_from(_PIECES + ["zero-day", "unseen"]), st.sampled_from(_SEPARATORS)),
    max_size=14).map(lambda parts: "".join(w + sep for w, sep in parts))


@exact
@given(corpora, query_texts)
@example(["xss payload", "sql token page"], "")                   # an empty query
@example(["xss payload", "the of", "page"], "xss page")           # a stopword-only doc
@example(["xss payload", "sql token"], "xss zero-day unseen xss")  # query-only terms
# a norm whose last bit, summed left to right, depends on term order
@example(["", "xss xssxss payload payload payload"], "xss")
def test_corpus_query_cosine_equals_index_path(docs, query):
    # every text a corpus query scores, each doc and each doc joined to
    # another (retrieval weighs pair texts no corpus holds), must get the
    # float of an index over the corpus plus the query, bit for bit
    counts = [term_counts(d) for d in docs]
    idf = CorpusIdf.from_corpus(counts)
    scorer = idf.query(term_counts(query))
    index = build_index(docs + [query])
    scored = list(zip(docs, counts))
    scored += [(f"{docs[i]} {docs[j]}", counts[i] + counts[j])
               for i, j in permutations(range(len(docs)), 2)]
    for text, c in scored:
        assert scorer.cosine(idf.table(c)).hex() == similarity(index, query, text).hex()


@exact
@given(st.lists(st.tuples(texts, st.booleans()), max_size=6),
       st.lists(st.integers(0, 5), max_size=3), query_texts)
@example([("xss payload", False), ("sql token", False)], [0], "xss page")  # a doc twice
@example([("xss payload", False), ("sql token", False)], [], "csrf form")  # no shared term
@example([("xss payload", False), ("sql token", True)], [], "xss zero-day unseen")
@example([("xss payload", False), ("sql token", False)], [], "")           # an empty query
@example([("xss payload", False), ("sql token", False)], [], "the of")     # stopwords only
@example([("", False), ("the of", True), ("xss", False)], [0], "xss")     # empty docs
@example([("token page", True), ("xss token", False)], [1], "token xss")  # refused
# a dot whose last bit, summed left to right, depends on term order
@example([("a-b", False), ("42 payload tag page", False)], [], "page page 42 tag 42")
def test_query_cosines_equal_index_path(docs, repeats, query):
    # every float must be the index path's, bit for bit, with every doc
    # numbered under one table; docs numbered under two, whose ids name
    # different terms, are refused
    table = TermIds()
    numbered = [(c, table.doc_terms(c)) for c in (term_counts(d) for d, _ in docs)]
    numbered += [numbered[i % len(numbered)] for i in repeats if numbered]
    counts = [c for c, _ in numbered]
    q = term_counts(query)
    index = build_index(counts + [q])
    want = [cosine(index.vectorize(q), index.vectorize(c)).hex() for c in counts]
    doc_terms = [d for _, d in numbered]
    assert [s.hex() for s in query_cosines(q, doc_terms)] == want
    if doc_terms:
        # the first doc's table now numbers every doc's term and no query-only
        # one, and scoring again leaves it as it is
        ids = dict(doc_terms[0].table.ids)
        assert ids.keys() == set().union(*counts)
        assert sorted(ids.values()) == list(range(len(ids)))
        assert [s.hex() for s in query_cosines(q, doc_terms)] == want
        assert doc_terms[0].table.ids == ids
    other = TermIds()
    mixed = [other.doc_terms(c) if apart else d
             for (c, d), (_, apart) in zip(numbered, docs)]
    if len({d.table for d in mixed}) > 1:
        with pytest.raises(ValueError, match="one TermIds"):
            query_cosines(q, mixed)


def _reordered(counts, rng):
    items = list(counts.items())
    rng.shuffle(items)
    return Counter(dict(items))


def _record(i, text, counts):
    record = KnowledgeRecord("prop", str(i), text)
    record.__dict__["counts"] = counts  # the cached term counts, in this key order
    return record


@exact
@given(st.lists(texts.filter(lambda t: bool(term_counts(t))), min_size=1, max_size=5),
       query_texts, st.randoms(use_true_random=False))
# a doc norm whose last bit a left-to-right float sum changes when the doc's
# term order is reversed
@example(["tag xss token 42 page"], "42", random.Random(0))
def test_every_path_gives_the_index_float_in_any_term_order(docs, query, rng):
    # the index path, the two shortcut paths and the knowledge store must give
    # one double per doc, whatever the key order of the query's and the docs'
    # counts
    counts = [term_counts(d) for d in docs]
    q = term_counts(query)
    index = build_index(counts + [q])
    want = [similarity(index, q, c).hex() for c in counts]
    for order in (lambda c: c, lambda c: Counter(dict(reversed(c.items()))),
                  lambda c: _reordered(c, rng)):
        qo, co = order(q), [order(c) for c in counts]
        assert [similarity(build_index(co + [qo]), qo, c).hex() for c in co] == want
        ids = TermIds()
        assert [s.hex() for s in query_cosines(qo, [ids.doc_terms(c) for c in co])] == want
        idf = CorpusIdf.from_corpus(co)
        scorer = idf.query(qo)
        assert [scorer.cosine(idf.table(c)).hex() for c in co] == want
        store = KnowledgeStore([_record(i, d, c) for i, (d, c) in enumerate(zip(docs, co))])
        assert [s.hex() for s in store.similarities(qo)] == want
