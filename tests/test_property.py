"""Property-based conformance (SURVEY §5): random seeded corpora -> the
distributed engine must match the oracle on every scorer; postings
invariants hold; codec round-trips are identity."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from org_rdkit_lucene_ray.config import AnalyzerConfig, IndexConfig
from org_rdkit_lucene_ray.functions.analyze import REGISTRY, analyze_text, postings_from_batch
from org_rdkit_lucene_ray.functions.codec import (
    decode_posting_list,
    encode_posting_list,
    varint_decode,
    varint_encode,
)
from org_rdkit_lucene_ray.oracle import OracleIndex


# --------------------------------------------------------------- pure codec
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                min_size=0, max_size=300))
@settings(max_examples=50, deadline=None)
def test_varint_roundtrip_any(values):
    arr = np.asarray(values, dtype=np.uint64)
    assert np.array_equal(varint_decode(varint_encode(arr), len(arr)), arr)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_posting_roundtrip_any(data):
    n = data.draw(st.integers(1, 400))
    gaps = data.draw(st.lists(st.integers(1, 10_000), min_size=n, max_size=n))
    docs = np.cumsum(np.asarray(gaps, dtype=np.int64))
    tfs = np.asarray(data.draw(st.lists(st.integers(1, 500), min_size=n, max_size=n)))
    dls = np.asarray(data.draw(st.lists(st.integers(1, 5000), min_size=n, max_size=n)))
    enc = encode_posting_list(docs, tfs, dls)
    d2, t2, l2 = decode_posting_list(enc)
    assert np.array_equal(d2, docs)
    assert np.array_equal(t2, tfs)
    assert np.array_equal(l2, dls)


# --------------------------------------------- tokenizer/postings invariants
_texts = st.lists(
    st.text(alphabet="ab1 .,!\t\n&é中", min_size=0, max_size=80),
    min_size=1, max_size=40)


@given(_texts)
@settings(max_examples=30, deadline=None)
def test_postings_invariants_any_text(texts):
    cfg = REGISTRY["standard"]
    ids = np.arange(len(texts), dtype=np.int64)
    postings, doclens = postings_from_batch(ids, pa.array(texts, pa.string()), cfg)
    dl_map = dict(zip(doclens["doc_id"].to_pylist(), doclens["dl"].to_pylist()))
    # df(term) == number of postings rows; tf matches a direct count; dl rides
    for row in postings.to_pylist():
        toks = analyze_text(texts[row["doc_id"]], cfg)
        assert toks.count(row["term"]) == row["tf"]
        assert dl_map[row["doc_id"]] == len(toks) == row["dl"]
    # total tf mass == total token count
    assert sum(r["tf"] for r in postings.to_pylist()) == \
        sum(len(analyze_text(t, cfg)) for t in texts)


# ------------------------------------------------- end-to-end random corpora
@pytest.mark.parametrize("seed", [101, 202, 303])
def test_random_corpus_engine_matches_oracle(ray_session, tmp_path_factory, seed):
    """Random corpus + random queries: build -> both scorers == oracle,
    AND/OR/exact parity included."""
    from org_rdkit_lucene_ray.pipelines.build import build_index
    from org_rdkit_lucene_ray.pipelines.query import Searcher
    from org_rdkit_lucene_ray.synth import write_pages_dir

    rng = np.random.default_rng(seed)
    n_docs = int(rng.integers(80, 400))
    d = tmp_path_factory.mktemp(f"prop_pages_{seed}")
    write_pages_dir(str(d), n_docs=n_docs, n_fragments=int(rng.integers(2, 7)),
                    seed=seed, max_len=int(rng.integers(30, 300)))
    idx = tmp_path_factory.mktemp(f"prop_idx_{seed}")
    cfg = IndexConfig(docs_per_segment=int(rng.integers(32, 200)),
                      term_buckets=int(rng.integers(2, 9)),
                      block_size=int(rng.integers(8, 64)))
    build_index(str(d), str(idx), cfg=cfg)

    # oracle over the deduped corpus with identical ids
    import pyarrow.parquet as pq

    from org_rdkit_lucene_ray.pipelines.build import plan_fragments

    best = {}
    for fr in plan_fragments(str(d)):
        t = pq.read_table(fr["path"], columns=["url", "warc_ts", "text"])
        for i in range(t.num_rows):
            doc_id = fr["base"] + i
            url = t["url"][i].as_py()
            key = (t["warc_ts"][i].value, doc_id)
            if url not in best or key > best[url][0]:
                best[url] = (key, doc_id, t["text"][i].as_py())
    oi = OracleIndex()
    for _, doc_id, text in sorted(best.values(), key=lambda v: v[1]):
        oi.add(doc_id, text)

    s = Searcher(str(idx))
    assert s.n_docs == oi.n_docs
    vocab_terms = sorted(oi.postings)
    for _ in range(15):
        nq = int(rng.integers(1, 5))
        terms = [vocab_terms[int(rng.integers(0, len(vocab_terms)))] for _ in range(nq)]
        if rng.random() < 0.3:
            terms.append("absentterm")
        q = " ".join(terms)
        k = int(rng.integers(1, 30))
        want = [(dd, float(sc)) for dd, sc in oi.topk(q, k)]
        assert s.topk_bmw(q, k) == want, (seed, q)
        assert s.topk_exhaustive(q, k) == want, (seed, q)
        assert s.search_and(q).tolist() == oi.search_and(q)
        assert s.search_or(q).tolist() == oi.search_or(q)


@pytest.mark.parametrize("seed", [404, 505])
def test_random_corpus_extended_search_types(ray_session, tmp_path_factory, seed):
    """FP-scored conjunctive top-k + boolean MUST/MUST_NOT/SHOULD +
    screen/verify vs the oracle on random corpora."""
    import pyarrow.parquet as pq

    from org_rdkit_lucene_ray.pipelines.build import build_index, plan_fragments
    from org_rdkit_lucene_ray.pipelines.query import Searcher
    from org_rdkit_lucene_ray.synth import write_pages_dir

    rng = np.random.default_rng(seed)
    d = tmp_path_factory.mktemp(f"ext_pages_{seed}")
    write_pages_dir(str(d), n_docs=250, n_fragments=3, seed=seed,
                    dup_url_frac=0.0)
    idx = tmp_path_factory.mktemp(f"ext_idx_{seed}")
    build_index(str(d), str(idx),
                cfg=IndexConfig(docs_per_segment=64, term_buckets=4,
                                block_size=16),
                dedup=False)
    oi = OracleIndex()
    for fr in plan_fragments(str(d)):
        t = pq.read_table(fr["path"], columns=["text"])
        for i in range(t.num_rows):
            oi.add(fr["base"] + i, t["text"][i].as_py())
    s = Searcher(str(idx))
    vocab_terms = sorted(oi.postings)
    for _ in range(12):
        pick = lambda: vocab_terms[int(rng.integers(0, len(vocab_terms)))]
        q_and = f"{pick()} {pick()}"
        k = int(rng.integers(1, 15))
        got = [(dd, float(np.float32(sc))) for dd, sc in s.search_fp_scored(q_and, k)]
        want = [(dd, float(sc)) for dd, sc in oi.search_fp_scored(q_and, k)]
        assert got == want, (seed, q_and)
        q_bool = f"+{pick()} {pick()} -{pick()}"
        assert s.search_boolean(q_bool).tolist() == oi.search_boolean(q_bool), (seed, q_bool)
        # screen/verify with an uncapped screen == fp_search doc set prefix
        sv = s.search_screen_verify(q_and, k, prescreen_multiplier=10_000)
        assert [d for d, _ in sv] == sorted(
            [d for d, _ in want], key=lambda dd: (
                -float(dict(want)[dd]), dd))[:len(sv)] or sv == []


@pytest.mark.parametrize("seed", [606, 707])
def test_random_corpus_search_after_paging(ray_session, tmp_path_factory, seed):
    """Paging with after=(last score, last doc) reconstructs the full
    ranking with no gaps or duplicates, for every page size and mode, on
    random corpora (K2 search-after collector)."""
    from org_rdkit_lucene_ray.pipelines.build import build_index
    from org_rdkit_lucene_ray.pipelines.query import Searcher
    from org_rdkit_lucene_ray.synth import write_pages_dir

    rng = np.random.default_rng(seed)
    d = tmp_path_factory.mktemp(f"pg_pages_{seed}")
    write_pages_dir(str(d), n_docs=220, n_fragments=2, seed=seed,
                    dup_url_frac=0.0)
    idx = tmp_path_factory.mktemp(f"pg_idx_{seed}")
    build_index(str(d), str(idx),
                cfg=IndexConfig(docs_per_segment=64, term_buckets=4,
                                block_size=16),
                dedup=False)
    s = Searcher(str(idx))
    from org_rdkit_lucene_ray.synth import vocab

    words = vocab(200)
    for _ in range(8):
        q = " ".join(words[int(rng.integers(0, 40))] for _ in range(int(rng.integers(1, 4))))
        full = s.topk(q, 500, mode="exhaustive")
        page_size = int(rng.integers(1, 9))
        for mode in ("bmw", "exhaustive"):
            pages, after = [], None
            while True:
                page = s.topk(q, page_size, mode=mode, after=after)
                if not page:
                    break
                pages.extend(page)
                if len(page) < page_size:
                    break
                after = (page[-1][1], page[-1][0])
            assert pages == full, (seed, q, mode, page_size)


@given(st.text(alphabet="abc", max_size=7), st.text(alphabet="abc", max_size=7),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=300, deadline=None)
def test_levenshtein_within_matches_full_dp(a, b, k):
    """The early-exit banded DP agrees with the textbook Wagner-Fischer
    distance on every (string, string, budget) triple."""
    from org_rdkit_lucene_ray.pipelines.query import _levenshtein_within

    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    assert _levenshtein_within(a, b, k) == (prev[len(b)] <= k)


# ------------------------------------------------- round-3b pure-fn properties
@given(st.lists(st.text(alphabet="abcdef", min_size=0, max_size=6),
                min_size=1, max_size=40),
       st.lists(st.tuples(st.text(alphabet="abcdef", min_size=1, max_size=6),
                          st.integers(-8, 8)),
                min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_score_tokens_matches_python(doc_tokens, model_rows):
    """score_tokens == plain-python mean of member weights (halves),
    OOV -> 0, empty doc -> (0, count 0)."""
    from org_rdkit_lucene_ray.stages.classifier import (
        score_tokens,
        sorted_model_arrays,
    )

    model = {}
    for t, w in model_rows:
        model[t] = w / 2.0
    weights = pa.table({
        "term": pa.array(list(model), pa.string()),
        "weight": pa.array([model[t] for t in model], pa.float64()),
    })
    h, w = sorted_model_arrays(weights)
    toks = pa.array([doc_tokens], pa.list_(pa.string()))
    score, counts = score_tokens(toks, h, w)
    n = len(doc_tokens)
    assert counts[0] == n
    if n == 0:
        assert score[0] == 0.0
    else:
        want = sum(model.get(t, 0.0) for t in doc_tokens) / n
        assert score[0] == want     # halves sum exactly in float64


@given(st.lists(st.integers(0, 12), min_size=1, max_size=200),
       st.integers(2, 64), st.integers(1, 37))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_packing_offsets_property(ray_session, counts, seq_len, range_size):
    """Packing offsets == numpy exclusive cumsum for ANY doc-length
    multiset, range size and sequence length."""
    import ray.data as rd
    from hypothesis import assume

    from org_rdkit_lucene_ray.stages.packing import packing_offsets

    # an all-empty corpus returns a 0-row Dataset (Ray drops the schema
    # of any empty Dataset; packing_offsets documents the short-circuit)
    assume(any(c > 0 for c in counts))
    texts = [" ".join(["w"] * c) for c in counts]
    t = pa.table({"doc_id": pa.array(range(len(counts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = packing_offsets(rd.from_arrow(t), seq_len=seq_len,
                          range_size=range_size).to_pandas() \
        .sort_values("doc_id")
    n = np.asarray(counts, np.int64)
    starts = np.concatenate([[0], np.cumsum(n)[:-1]])
    keep = n > 0
    assert out["doc_id"].tolist() == np.flatnonzero(keep).tolist()
    assert out["start_token"].tolist() == starts[keep].tolist()
    assert (out["seq_last"].to_numpy() ==
            (starts[keep] + n[keep] - 1) // seq_len).all()
