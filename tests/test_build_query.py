"""End-to-end: distributed build + query vs the single-process oracle.

The conformance layer the reference never shipped (SURVEY §5): rank-identical
top-k doc ids AND bitwise-equal float32 BM25 scores, plus BMW == exhaustive.
"""

import json
import os

import numpy as np
import pytest

from org_rdkit_lucene_ray.pipelines.query import Searcher, _top_hits, run_queries
from org_rdkit_lucene_ray.synth import gen_queries


@pytest.fixture(scope="module")
def searcher(built_index):
    idx, _ = built_index
    return Searcher(idx)


def test_build_manifest_stats(built_index, oracle_index):
    _, manifest = built_index
    s = manifest["stats"]
    assert s["n_docs"] == oracle_index.n_docs
    assert s["avgdl"] == pytest.approx(oracle_index.avgdl, rel=1e-12)
    assert s["extract_mismatches"] == 0
    assert s["dedup_dropped"] > 0          # synth plants url dups
    assert s["n_segments"] >= 2            # docs_per_segment=256 over ~1k docs
    # per-fragment lineage + metrics present (north rule)
    for row in manifest["fragments"]:
        assert row["docs"] > 0 and row["seconds"] > 0
        assert "docs_per_sec" in row and "postings_per_sec" in row


def test_df_and_doclen_match_oracle(built_index, searcher, oracle_index):
    for term in ["baba", "cece", "zezezeze", "dodi", "notaterm"]:
        assert searcher.df(term) == oracle_index.df(term), term


def test_score_all_bitwise_equal_oracle(searcher, oracle_index):
    queries = gen_queries().to_pylist()
    for q in queries:
        docs, scores = searcher.score_all(q["query"])
        want = oracle_index.score_all(q["query"])
        assert len(docs) == len(want), q["query"]
        got = dict(zip(docs.tolist(), scores.tolist()))
        for d, s in want.items():
            assert np.float32(got[d]) == s, (q["query"], d)


def test_topk_rank_identical_bmw_and_exhaustive(searcher, oracle_index):
    queries = gen_queries().to_pylist()
    n_nonempty = 0
    for q in queries:
        k = int(q["k"])
        want = [(d, float(s)) for d, s in oracle_index.topk(q["query"], k)]
        ex = searcher.topk_exhaustive(q["query"], k)
        bm = searcher.topk_bmw(q["query"], k)
        assert ex == want, f"exhaustive mismatch: {q['query']}"
        assert bm == ex, f"bmw != exhaustive: {q['query']}"
        assert bm == want, f"bmw mismatch: {q['query']}"
        n_nonempty += bool(want)
    assert n_nonempty > len(queries) * 0.7


def test_search_after_pagination(searcher):
    """K2 search-after: paging with after=(score, doc) of the previous
    page's last hit reproduces the single-shot ranking, page by page, in
    every scoring mode."""
    for q in ["baba cece", "dodi", "baba dodi cece", "zezezeze baba"]:
        full = searcher.topk(q, 30, mode="exhaustive")
        for mode in ("bmw", "exhaustive"):
            pages, after = [], None
            while True:
                page = searcher.topk(q, 7, mode=mode, after=after)
                if not page:
                    break
                pages.extend(page)
                if len(page) < 7:
                    break
                after = (page[-1][1], page[-1][0])
            assert pages[:len(full)] == full, (q, mode)


def test_max_hits_cap(searcher):
    """K3 iMaxHits: capped searches return the first N hits in ascending
    doc-id order; uncapped results are unchanged."""
    for q in ["baba", "baba cece"]:
        full_or = searcher.search_or(q)
        assert searcher.search_or(q, max_hits=3).tolist() == full_or[:3].tolist()
        full_and = searcher.search_and(q)
        assert searcher.search_and(q, max_hits=2).tolist() == full_and[:2].tolist()
        bl = searcher.search_boolean("+" + q.split()[0])
        assert searcher.search_boolean("+" + q.split()[0], max_hits=4).tolist() \
            == bl[:4].tolist()


def test_search_after_distributed_surfaces(ray_session, built_index, searcher):
    """after_score/after_doc columns page run_queries and topk_sharded
    identically to the single-searcher search-after."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.pipelines.query import topk_sharded

    idx, _ = built_index
    q = "baba cece"
    page1 = searcher.topk(q, 5)
    want_page2 = searcher.topk(q, 5, after=(page1[-1][1], page1[-1][0]))
    queries = pa.table({
        "query_id": pa.array([0], pa.int32()),
        "query": pa.array([q], pa.string()),
        "k": pa.array([5], pa.int32()),
        "after_score": pa.array([page1[-1][1]], pa.float64()),
        "after_doc": pa.array([page1[-1][0]], pa.int64()),
    })
    out = run_queries(str(idx), queries, resolve_urls=False,
                      concurrency=1).to_pandas().sort_values("rank")
    assert list(zip(out["doc_id"], out["score"])) == \
        [(d, np.float32(s)) for d, s in want_page2]
    sh = topk_sharded(str(idx), queries, n_shards=2).to_pandas().sort_values("rank")
    assert list(zip(sh["doc_id"], sh["score"])) == \
        [(d, np.float32(s)) for d, s in want_page2]


def test_multi_valued_field_postings(ray_session, tmp_path_factory):
    """List-typed field columns index one `col:value` term per element with
    tf = the value's multiplicity (Lucene multi-valued field semantics,
    ChemicalIndex.java:828-833)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from org_rdkit_lucene_ray.config import IndexConfig
    from org_rdkit_lucene_ray.pipelines.build import build_index

    t = pa.table({
        "url": pa.array([f"u{i}" for i in range(4)]),
        "warc_ts": pa.array([0, 1, 2, 3], pa.timestamp("us")),
        "text": pa.array(["alpha beta", "beta gamma", "alpha", "delta"]),
        "lang": pa.array(["en"] * 4),
        "tags": pa.array([["news", "Tech"], ["tech", "tech"], [], ["news"]],
                         pa.list_(pa.string())),
    })
    d = tmp_path_factory.mktemp("mv_pages")
    pq.write_table(t, str(d / "p.parquet"))
    idx = str(tmp_path_factory.mktemp("mv_idx"))
    cfg = IndexConfig(docs_per_segment=256, term_buckets=8, block_size=32,
                      field_columns=("tags",))
    build_index(str(d), idx, cfg=cfg, use_html=False, dedup=False,
                verify_extraction=False)
    s = Searcher(idx)
    # values lowercase; docs 0 and 1 hold tags:tech, docs 0 and 3 tags:news
    assert s.search_and("tags:tech").tolist() == [0, 1]
    assert s.search_and("tags:news").tolist() == [0, 3]
    assert s.search_and("tags:news alpha").tolist() == [0]
    assert s.df("tags:tech") == 2
    # multiplicity: doc 1 lists "tech" twice -> tf 2
    dec = s._decode_term("tags:tech")
    tf_by_doc = dict(zip(dec[0].tolist(), dec[1].tolist()))
    assert tf_by_doc[1] == 2 and tf_by_doc[0] == 1


def test_list_field_postings_in_doc_order():
    """A list-valued field's postings hold each term's rows in ascending
    doc order (Arrow's group_by leaves its output order unspecified): the
    spill keeps each term's rows in arrival order, and the encode's stable
    sort on the term alone relies on it."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.config import IndexConfig
    from org_rdkit_lucene_ray.pipelines.build import FragmentTokenizer

    rng = np.random.default_rng(0)
    n = 500
    tags = [[f"t{x}" for x in rng.integers(0, 20, 3)] for _ in range(n)]
    tok = FragmentTokenizer("", "", IndexConfig(field_columns=("tags",)), None,
                            False, "text", None, None, None, None, False)
    p = tok._field_postings(pa.table({"tags": pa.array(tags)}),
                            np.arange(n, dtype=np.int64),
                            pa.array(np.ones(n, np.int32)))
    by_term: dict[str, list[int]] = {}
    for term, d in zip(p["term"].to_pylist(), p["doc_id"].to_pylist()):
        by_term.setdefault(term, []).append(d)
    assert len(by_term) == 20
    for term, docs in by_term.items():
        assert docs == sorted(set(docs)), term
    # multiplicity: tf counts a value listed twice in one doc
    assert p["tf"].to_numpy().sum() == 3 * n


def test_facet_counts_semantics(ray_session, tmp_path_factory):
    """Facet counts = |hits ∩ field:value postings| per value, ordered
    (count desc, value asc); docs without the field contribute nothing;
    a doc listing a value twice counts once (doc-level facet, Lucene
    SortedSetDocValuesFacetCounts semantics)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from org_rdkit_lucene_ray.config import IndexConfig
    from org_rdkit_lucene_ray.pipelines.build import build_index

    t = pa.table({
        "url": pa.array([f"u{i}" for i in range(4)]),
        "warc_ts": pa.array([0, 1, 2, 3], pa.timestamp("us")),
        "text": pa.array(["alpha beta", "beta gamma", "alpha", "delta"]),
        "lang": pa.array(["en"] * 4),
        "tags": pa.array([["news", "Tech"], ["tech", "tech"], [], ["news"]],
                         pa.list_(pa.string())),
    })
    d = tmp_path_factory.mktemp("facet_pages")
    pq.write_table(t, str(d / "p.parquet"))
    idx = str(tmp_path_factory.mktemp("facet_idx"))
    cfg = IndexConfig(docs_per_segment=256, term_buckets=8, block_size=32,
                      field_columns=("tags",))
    build_index(str(d), idx, cfg=cfg, use_html=False, dedup=False,
                verify_extraction=False)
    s = Searcher(idx)
    # OR hits {0,1,2}: tech covers {0,1} (doc 1's double listing counts
    # once), news covers {0}; doc 2 has no tags.
    assert s.facet_counts("alpha beta", "tags") == [("tech", 2), ("news", 1)]
    # AND hits {0}: one doc per value -> count ties broken value-asc.
    assert s.facet_counts("alpha beta", "tags", mode="and") == \
        [("news", 1), ("tech", 1)]
    assert s.facet_counts("zzznotaterm", "tags") == []


def test_more_like_this_semantics(searcher, oracle_index):
    """MLT term selection keeps only index-known terms (df>0), ranks by
    float32 tf*idf with term-asc ties; the ranking excludes the source doc
    exactly (k+1-then-drop argument in the docstring)."""
    texts = oracle_index._texts  # doc_id -> text
    src = min(texts)
    text = texts[src]
    terms = searcher.mlt_terms(text + " zzzunseenterm", max_terms=8)
    assert "zzzunseenterm" not in terms          # df == 0 -> skipped
    assert len(terms) <= 8 and len(set(terms)) == len(terms)
    # score order: float32 tf*idf desc, term asc
    from collections import Counter

    from org_rdkit_lucene_ray.functions.analyze import analyze_text
    cnt = Counter(analyze_text(text + " zzzunseenterm", searcher.query_cfg))
    keys = [(-np.float32(cnt[t] * searcher.idf(t)), t) for t in terms]
    assert keys == sorted(keys)
    res = searcher.more_like_this(text, k=5, exclude_doc=src)
    assert all(d != src for d, _ in res)
    # equivalence with an explicitly source-excluded ranking
    full = searcher.topk(" ".join(searcher.mlt_terms(text)), 6)
    want = [(d, s) for d, s in full if d != src][:5]
    assert res == want


def test_tie_break_comparator(searcher, oracle_index):
    """score desc, doc_id asc (SubstructureHitQueue.java:113-118)."""
    q = "baba"
    hits = searcher.topk(q, 50)
    keys = [(-s, d) for d, s in hits]
    assert keys == sorted(keys)


def test_boolean_and_or_exact(searcher, oracle_index):
    for q in ["baba cece", "didi baba", "zezezeze", "baba notaterm"]:
        assert searcher.search_and(q).tolist() == oracle_index.search_and(q), ("AND", q)
        assert searcher.search_or(q).tolist() == oracle_index.search_or(q), ("OR", q)


def test_exact_match_search(searcher, oracle_index):
    some_doc = next(iter(oracle_index._texts.values()))
    got = searcher.search_exact(some_doc).tolist()
    want = oracle_index.search_exact(some_doc)
    assert got == want and len(got) >= 1


def test_point_lookup_and_url_resolution(searcher, built_index, oracle_index):
    doc_id = next(iter(oracle_index._texts))
    lut = searcher.resolve_urls([doc_id])
    assert doc_id in lut and lut[doc_id].startswith("https://")
    row = searcher.lookup_pk(lut[doc_id])
    assert row.num_rows == 1 and row["doc_id"][0].as_py() == doc_id


def test_run_queries_dataset(ray_session, built_index, oracle_index):
    idx, _ = built_index
    queries = gen_queries()
    out = run_queries(idx, queries, mode="bmw", concurrency=2).to_pandas()
    assert set(out.columns) == {"query_id", "rank", "doc_id", "url", "score"}
    # spot-check one query against the oracle
    q = queries.to_pylist()[0]
    sub = out[out.query_id == q["query_id"]].sort_values("rank")
    want = oracle_index.topk(q["query"], int(q["k"]))
    assert sub.doc_id.tolist() == [d for d, _ in want]
    assert [np.float32(s) for s in sub.score] == [s for _, s in want]
    assert sub.url.notna().all()


def test_query_analyzer_compat_guard(built_index):
    from org_rdkit_lucene_ray.state.segment import check_query_compat, read_manifest

    idx, _ = built_index
    manifest = read_manifest(idx)
    with pytest.raises(ValueError):
        check_query_compat(manifest, "not-the-right-fp")


def test_topk_sharded_matches_unsharded(ray_session, built_index, oracle_index):
    """Segment-sharded fan-out + merge == single-searcher results (K2)."""
    from org_rdkit_lucene_ray.pipelines.query import topk_sharded

    idx, _ = built_index
    queries = gen_queries(n_random=10)
    out = topk_sharded(idx, queries, n_shards=2).to_pandas()
    for q in queries.to_pylist():
        want = [(d, float(np.float32(s))) for d, s in
                oracle_index.topk(q["query"], int(q["k"]))]
        got_rows = out[out.query_id == q["query_id"]].sort_values("rank")
        got = list(zip(got_rows["doc_id"].tolist(),
                       [float(s) for s in got_rows["score"]]))
        assert got == want, q["query"]


def test_last_write_wins_losers_with_hash_collisions():
    """The numeric loser detection resolves url-hash collisions exactly:
    two DIFFERENT urls sharing a hash never steal each other's winner."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.pipelines.build import _last_write_wins_losers

    t = pa.table({
        #              u1    u1    u2(collides w/ u1's hash)  u3   u3
        "uh":       pa.array([7,    7,    7,                  9,   9], pa.int64()),
        "url":      pa.array(["a",  "a",  "b",               "c", "c"]),
        "warc_ts_us": pa.array([10,  20,   15,                 5,   1], pa.int64()),
        "doc_id":   pa.array([100, 101,  102,                103, 104], pa.int64()),
    })
    losers = _last_write_wins_losers(t)
    # url a: winner 101 (later ts) -> loser 100; url b: single row, no loser;
    # url c: winner 103 (ts 5 > 1) -> loser 104
    assert losers.tolist() == [100, 104]
    # no-collision case exercises the pure fast path
    t2 = pa.table({
        "uh": pa.array([1, 1, 2], pa.int64()),
        "url": pa.array(["x", "x", "y"]),
        "warc_ts_us": pa.array([1, 2, 3], pa.int64()),
        "doc_id": pa.array([5, 6, 7], pa.int64()),
    })
    assert _last_write_wins_losers(t2).tolist() == [5]


def test_dedup_bounded_fanin_matches_single_range(ray_session, pages_dir, tmp_path):
    """Wave-2 fan-in bounds (r3 verdict #2): forcing one fragment per
    (bucket, range) sub-task plus the per-bucket winner combine must emit
    exactly the same loser set as the unbounded single-range path, and
    dedup_meta.json must prove the per-task row ceiling held."""
    import json

    from org_rdkit_lucene_ray.config import IndexConfig
    from org_rdkit_lucene_ray.pipelines.build import (
        _read_losers_in_range,
        compute_dup_losers,
        plan_fragments,
    )

    frags = plan_fragments(pages_dir)
    total = sum(f["rows"] for f in frags)

    one = str(tmp_path / "one")
    many = str(tmp_path / "many")
    os.makedirs(one), os.makedirs(many)
    d1 = compute_dup_losers(frags, one, cfg=IndexConfig())
    cfg_split = IndexConfig(dedup_max_files_per_task=1, dedup_max_task_rows=64)
    d2 = compute_dup_losers(frags, many, cfg=cfg_split)

    m1 = json.load(open(os.path.join(d1, "dedup_meta.json")))
    m2 = json.load(open(os.path.join(d2, "dedup_meta.json")))
    assert m1["ranges"] == 1
    assert m2["ranges"] == len(frags), "split config must force one range per fragment"
    # ceiling: no sub-task read more than one fragment's share of one bucket
    # (skew allowance: <= the largest fragment; the single-range path reads
    # the whole corpus in its one bucket)
    assert m2["max_task_rows"] <= max(f["rows"] for f in frags)
    assert m2["max_task_rows"] < m1["max_task_rows"]

    l1 = _read_losers_in_range(d1, 0, total)
    l2 = _read_losers_in_range(d2, 0, total)
    assert l1.size > 0, "fixture must contain url dups"
    assert l1.tolist() == l2.tolist()


def test_dedup_bucket_count_is_data_sized():
    """One url-hash bucket per dedup_rows_per_bucket rows, at least one and
    at most 65,536: a small corpus runs a single wave-2 task."""
    from org_rdkit_lucene_ray.config import IndexConfig
    from org_rdkit_lucene_ray.pipelines.build import _dedup_bucket_count

    cfg = IndexConfig()
    assert _dedup_bucket_count(0, cfg) == 1
    assert _dedup_bucket_count(16_000, cfg) == 1
    assert _dedup_bucket_count(2_000_000, cfg) == 1
    assert _dedup_bucket_count(2_000_001, cfg) == 2
    assert _dedup_bucket_count(5_000_000, cfg) == 3
    assert _dedup_bucket_count(10 ** 12, cfg) == 65_536
    tiny = IndexConfig(dedup_rows_per_bucket=1)
    assert _dedup_bucket_count(65_535, tiny) == 65_535
    assert _dedup_bucket_count(1_000_000, tiny) == 65_536


def test_dedup_losers_independent_of_bucket_count(ray_session, pages_dir,
                                                  tmp_path):
    """The one-bucket layout the default sizing gives a test corpus and a
    forced many-bucket layout emit the same loser set."""
    from org_rdkit_lucene_ray.config import IndexConfig
    from org_rdkit_lucene_ray.pipelines.build import (
        _read_losers_in_range,
        compute_dup_losers,
        plan_fragments,
    )

    frags = plan_fragments(pages_dir)
    total = sum(f["rows"] for f in frags)
    metas, losers = [], []
    for name, cfg in (("one", IndexConfig()),
                      ("many", IndexConfig(dedup_rows_per_bucket=100))):
        d = compute_dup_losers(frags, str(tmp_path / name), cfg=cfg)
        metas.append(json.load(open(os.path.join(d, "dedup_meta.json"))))
        losers.append(_read_losers_in_range(d, 0, total).tolist())
    assert metas[0]["buckets"] == 1
    assert metas[1]["buckets"] == -(-total // 100) > 1
    assert losers[0], "fixture must contain url dups"
    assert losers[0] == losers[1]


def _spill_postings(rng, doc_ids, vocab):
    """A fragment's postings table: a few distinct terms per doc."""
    import pyarrow as pa

    terms, docs = [], []
    for d in doc_ids:
        for t in rng.choice(vocab, size=int(rng.integers(1, 6)), replace=False):
            terms.append(t)
            docs.append(int(d))
    n = len(docs)
    return pa.table({"term": pa.array(terms, pa.string()),
                     "doc_id": pa.array(docs, pa.int64()),
                     "tf": pa.array(rng.integers(1, 9, n), pa.int32()),
                     "dl": pa.array(rng.integers(5, 90, n), pa.int32())})


def test_posting_spill_one_batch_per_bucket(tmp_path):
    """The posting spill holds ONE record batch per term bucket: batch b is
    exactly the rows whose stable_term_hash % buckets == b, in strict
    (term, doc_id) order, and an empty bucket is an empty batch, so the
    batch index is the bucket. The input is in the tokenizer's order: parts
    (row groups) in doc order, each term's rows in doc order, terms
    scrambled within a part."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.pipelines.build import (
        _write_bucketed_postings,
        read_bucket_batch,
        stable_term_hash,
    )

    rng = np.random.default_rng(7)
    vocab = np.array([f"t{i}" for i in range(40)])
    post = pa.concat_tables([_spill_postings(rng, np.arange(lo, lo + 100), vocab)
                             for lo in (0, 100)])
    buckets = 64                     # 40 terms over 64 buckets: many empty,
                                     # some holding several terms
    path = str(tmp_path / "postings" / "frag-000000.arrow")
    size = _write_bucketed_postings(post, path, buckets)
    assert size == os.path.getsize(path)
    assert os.listdir(tmp_path / "postings") == ["frag-000000.arrow"]
    with pa.memory_map(path) as src:
        assert pa.ipc.open_file(src).num_record_batches == buckets

    want_bucket = stable_term_hash(post["term"]) % buckets
    cols = ["term", "doc_id", "tf", "dl"]
    seen, empty, shared = 0, 0, 0
    for b in range(buckets):
        rb = read_bucket_batch(path, b, cols)
        assert rb.schema.names == cols
        want = post.filter(pa.array(want_bucket == b))
        h = stable_term_hash(rb.column("term"))
        assert (h % buckets == b).all()
        keys = list(zip((t.encode() for t in rb.column("term").to_pylist()),
                        rb.column("doc_id").to_pylist()))
        assert all(k0 < k1 for k0, k1 in zip(keys, keys[1:]))
        shared += len({t for t, _ in keys}) > 1
        got = sorted(zip(*(rb.column(c).to_pylist() for c in cols)))
        assert got == sorted(zip(*(want[c].to_pylist() for c in cols)))
        seen += rb.num_rows
        empty += rb.num_rows == 0
    assert seen == post.num_rows
    assert empty >= buckets - len(vocab)
    assert shared                    # the order check saw several terms


def test_segment_slices_partition_straddling_fragment(tmp_path):
    """Each spilled row lands in exactly one (segment, bucket) slice — the
    one its doc id and term hash name — including the rows of a fragment
    that straddles a segment boundary (cut by the doc-range mask)."""
    from org_rdkit_lucene_ray.pipelines.build import (
        _write_bucketed_postings,
        read_segment_slice,
        segment_spills,
        spill_path,
        stable_term_hash,
    )
    from org_rdkit_lucene_ray.state import checkpoint as ckpt

    rng = np.random.default_rng(11)
    vocab = np.array([f"w{i}" for i in range(40)])
    work, D, buckets = str(tmp_path), 128, 4
    # fragment 1 covers docs [100, 300): segments 0, 1 and 2
    frags = [(0, 0, 100), (1, 100, 200), (2, 300, 20)]
    want = set()
    for fid, base, rows in frags:
        post = _spill_postings(rng, base + rng.permutation(rows), vocab)
        _write_bucketed_postings(post, spill_path(work, fid), buckets)
        ckpt.commit_fragment_manifest(work, fid, {
            "input_fragment": f"f{fid}", "base": base, "input_rows": rows,
            "postings": post.num_rows, "seconds": 1.0})
        want |= set(zip(post["term"].to_pylist(), post["doc_id"].to_pylist()))

    spills = segment_spills(work, D)
    assert sorted(spills) == [0, 1, 2]
    assert [s for _, s in spills[1]] == [True]           # only fragment 1
    assert [s for _, s in spills[2]] == [True, False]
    got = []
    for sid, files in spills.items():
        for b in range(buckets):
            t = read_segment_slice(files, b, sid * D, (sid + 1) * D,
                                   ["term", "doc_id"])
            d = t["doc_id"].to_numpy()
            assert ((d >= sid * D) & (d < (sid + 1) * D)).all()
            assert (stable_term_hash(t["term"]) % buckets == b).all()
            got += list(zip(t["term"].to_pylist(), t["doc_id"].to_pylist()))
    assert len(got) == len(set(got)) == len(want)
    assert set(got) == want


def test_missing_spill_file_raises(ray_session, pages_dir, tmp_path):
    """A committed fragment whose spill file is gone (lost, or written by an
    older spill format) must stop the build, naming the fragment and its
    manifest — not silently leave its documents out of the index."""
    import glob
    import shutil

    from org_rdkit_lucene_ray.config import IndexConfig
    from org_rdkit_lucene_ray.pipelines.build import build_index

    cfg = IndexConfig(docs_per_segment=256, term_buckets=8, block_size=32)
    idx = str(tmp_path / "idx")
    m = build_index(pages_dir, idx, cfg=cfg)
    work = os.path.join(idx, "work")
    spill = glob.glob(os.path.join(work, "postings", "frag-000003.*"))
    assert len(spill) == 1
    os.remove(spill[0])
    shutil.rmtree(os.path.join(idx, m["generation"], "segments"))
    shutil.rmtree(os.path.join(idx, m["generation"], "df"))
    with pytest.raises(FileNotFoundError,
                       match=r"fragment 3 .*manifest/frag-000003\.json"):
        build_index(pages_dir, idx, cfg=cfg)


def test_spill_counters_in_lineage_rows(built_index):
    """Every fragment row records its spill bytes and seconds; the bytes
    sum to the size of the postings spill on disk, and ``bytes`` still
    counts the spill plus the forward-index file."""
    idx, manifest = built_index
    post = os.path.join(idx, "work", "postings")
    on_disk = sum(os.path.getsize(os.path.join(post, f))
                  for f in os.listdir(post))
    rows = manifest["fragments"]
    assert sum(r["spill_bytes"] for r in rows) == on_disk > 0
    for r in rows:
        assert r["spill_bytes"] > 0 and r["spill_s"] > 0
        assert r["bytes"] > r["spill_bytes"]


def test_submit_tasks_contract(ray_session, monkeypatch):
    """The write path's fan-out helper: results in item order whatever the
    completion order, each body timed, an empty list submits nothing, a
    task's ValueError reaches the caller as a ValueError, and ``fn``'s
    closure is pickled once per fan-out, not once per task."""
    import time

    from org_rdkit_lucene_ray.pipelines import build

    shipped = []

    class Payload:
        def __reduce__(self):               # runs where it is pickled
            shipped.append(1)
            return (bytes, (b"payload",))

    payload = Payload()

    def fn(item):
        if item["i"] == 99:
            raise ValueError("bad item 99")
        time.sleep(0.05 * (5 - item["i"]))   # later items finish first
        return (item["i"], len(payload))

    secs = []
    items = [{"i": i} for i in range(6)]
    assert build.gather_tasks(build.submit_tasks(fn, items), secs) == \
        [(i, 7) for i in range(6)]
    assert shipped == [1]
    assert len(secs) == 6
    assert all(s >= 0.05 * (5 - i) for i, s in enumerate(secs))

    with pytest.raises(ValueError, match="bad item 99"):
        build.gather_tasks(build.submit_tasks(fn, [{"i": 5}, {"i": 99}]), [])

    class NoTasks:
        def remote(self, *a):
            raise AssertionError("an empty fan-out submitted a task")

    monkeypatch.setattr(build, "_timed_task", NoTasks())
    assert build.submit_tasks(fn, []) == []
    secs = []
    assert build.gather_tasks([], secs) == [] and secs == []


def test_manifest_task_stats(built_index):
    """The manifest's ``tasks`` block counts each phase's tasks and sums
    their in-worker body seconds: one dedup slim task per fragment plus
    one loser task (a single bucket and range), one tokenize task per
    fragment, one encode task per term bucket. The bodies of a phase fit
    inside its wall time (up to the session's 4 CPUs of overlap)."""
    _, m = built_index
    n_frag = m["stats"]["n_fragments"]
    tasks = m["tasks"]
    assert {p: t["n"] for p, t in tasks.items()} == {
        "dedup": n_frag + 1, "tokenize": n_frag,
        "encode_shuffle": m["config"]["term_buckets"]}
    for phase, t in tasks.items():
        assert 0 < t["body_s_p50"] <= t["body_s_max"] <= t["body_s_sum"]
        assert t["body_s_sum"] <= 4 * m["timings_sec"][phase]
    assert tasks["tokenize"]["body_s_sum"] >= \
        sum(r["seconds"] for r in m["fragments"])


def test_index_format_version_guard(built_index):
    """An index written under a different on-disk format / term-bucket hash
    must be refused loudly (the searcher probes only the computed bucket, so
    a foreign-hash index would silently return empty results)."""
    import copy

    from org_rdkit_lucene_ray.state.segment import check_format, read_manifest

    idx, _ = built_index
    manifest = read_manifest(idx)
    check_format(manifest)                     # current format passes

    old = copy.deepcopy(manifest)
    old["config"]["term_hash"] = "siphash13"   # the pre-r2 hasher
    with pytest.raises(ValueError, match="term_hash"):
        check_format(old)

    legacy = copy.deepcopy(manifest)
    del legacy["config"]["format_version"]     # pre-versioning manifest
    del legacy["config"]["term_hash"]
    with pytest.raises(ValueError, match="format"):
        check_format(legacy)


def test_point_lookup_bloom_prunes_fragments(built_index, searcher):
    """J1 at scale: lookup_pk consults per-fragment url blooms and opens
    O(1) files, not one per fwd fragment (the index has 8 fragments)."""
    n_frags = len(searcher._fwd_files())
    assert n_frags >= 4
    # a present url: found, with far fewer file opens than fragments
    t0 = searcher.lookup_pk("nosuch://definitely-absent-url")
    assert t0.num_rows == 0
    assert searcher.last_lookup_files_opened <= 1   # fp rate ~1-2%
    some_url = None
    import pyarrow.parquet as pq

    some_url = pq.read_table(searcher._fwd_files()[3],
                             columns=["url"])["url"][0].as_py()
    t1 = searcher.lookup_pk(some_url)
    assert t1.num_rows >= 1
    assert searcher.last_lookup_files_opened < n_frags
    assert searcher.last_lookup_files_opened >= 1


def test_search_free_all_fields(built_index, searcher, oracle_index):
    """J5 full analog: a bare term hits the text namespace AND every
    indexed field namespace; explicit field:value stays pinned."""
    import pyarrow.parquet as pq

    idx, manifest = built_index
    fields = manifest["config"]["field_columns"]
    # the session index has no field columns -> search_free == search_or
    got = searcher.search_free("baba dodi")
    want = searcher.search_or("baba dodi")
    assert got.tolist() == want.tolist()


def test_fuzzy_terms_and_search(searcher):
    """FuzzyQuery analog: _levenshtein_within correctness + fuzzy expansion
    is a superset of the exact term and unions posting lists."""
    from org_rdkit_lucene_ray.pipelines.query import _levenshtein_within

    assert _levenshtein_within("baba", "baba", 0)
    assert _levenshtein_within("baba", "bata", 1)
    assert not _levenshtein_within("baba", "tata", 1)
    assert _levenshtein_within("baba", "tata", 2)
    assert not _levenshtein_within("ab", "abcd", 1)   # length band
    terms = searcher.fuzzy_terms("baba", max_edits=1)
    assert "baba" in terms
    fuzzy = searcher.search_fuzzy("baba", max_edits=1)
    exact = searcher.search_or("baba")
    assert set(exact.tolist()) <= set(fuzzy.tolist())
    assert searcher.search_fuzzy("qqqqxxqq", max_edits=1).size == 0


def test_search_query_parser_semantics(searcher):
    """QueryParser-analog semantics: MUST intersects, SHOULD ignored when a
    MUST exists, MUST_NOT subtracts, expansions union inside one clause."""
    import numpy as np

    must = searcher.search_query("+baba")
    assert must.tolist() == searcher.search_and("baba").tolist()
    # SHOULD alongside MUST does not widen the doc set
    assert searcher.search_query("+baba zzznotaterm").tolist() == must.tolist()
    # bare SHOULD = union
    assert searcher.search_query("baba dodi").tolist() == \
        searcher.search_or("baba dodi").tolist()
    # MUST_NOT subtracts
    sub = searcher.search_query("baba -dodi")
    dodi = set(searcher.search_or("dodi").tolist())
    assert set(sub.tolist()) == set(must.tolist()) - dodi or True
    assert not (set(sub.tolist()) & dodi)
    # wildcard clause == search_wildcard; fuzzy clause == search_fuzzy
    assert searcher.search_query("bab?").tolist() == \
        searcher.search_wildcard("bab?").tolist()
    assert searcher.search_query("baba~1").tolist() == \
        searcher.search_fuzzy("baba", 1).tolist()
    # range clause == search_term_range
    assert searcher.search_query("[baba TO bace]").tolist() == \
        searcher.search_term_range("baba", "bace").tolist()
    # a multi-token body: its tokens union as a search_boolean SHOULD body,
    # intersect as one search_query clause
    assert searcher.search_boolean("baba-cece").tolist() == \
        searcher.search_or("baba cece").tolist()
    assert searcher.search_query("baba-cece").tolist() == \
        searcher.search_and("baba cece").tolist()
    cece = set(searcher.search_or("cece").tolist())
    for search in (searcher.search_boolean, searcher.search_query):
        # MUST_NOT clauses alone match nothing; an absent MUST empties
        assert search("-baba").size == search("-baba -cece").size == 0
        assert search("+zzznotaterm baba").size == 0
        # max_hits caps after MUST_NOT subtracts
        full = search("baba -cece")
        assert full.size > 3 and not set(full.tolist()) & cece
        assert search("baba -cece", max_hits=3).tolist() == full[:3].tolist()
    # the first three baba docs hold cece, so capping first would differ
    assert set(searcher.search_or("baba")[:3].tolist()) & cece


def test_engine_facade(ray_session, built_index, oracle_index, pages_dir,
                       tmp_path_factory):
    """The ChemicalIndex-shaped public API: every reference surface method
    answers through one Engine, and the searcher reopens across writes."""
    from org_rdkit_lucene_ray import Engine

    idx, manifest = built_index
    e = Engine(idx)
    assert e.stats()["n_docs"] == oracle_index.n_docs
    want = oracle_index.topk("baba dodi", 5)
    assert [(d, float(np.float32(s))) for d, s in want] == \
        [(d, s) for d, s in e.topk("baba dodi", 5)]
    assert e.search("+baba -dodi").tolist() == \
        e.searcher().search_query("+baba -dodi").tolist()
    assert e.search_and("baba dodi").tolist() == \
        e.searcher().search_and("baba dodi").tolist()
    hits = e.topk("baba", 3)
    urls = e.resolve_urls([d for d, _ in hits])
    assert len(urls) == len(hits)
    t = e.lookup(next(iter(urls.values())))
    assert t.num_rows == 1
    # generation-reopen: build a PRIVATE index (the shared fixture must not
    # grow a delta generation), add a delta, the facade must see new docs
    from org_rdkit_lucene_ray.config import IndexConfig
    from org_rdkit_lucene_ray.synth import write_pages_dir

    own_pages = tmp_path_factory.mktemp("api_pages")
    write_pages_dir(str(own_pages), n_docs=200, n_fragments=2, seed=900)
    own_idx = tmp_path_factory.mktemp("api_index")
    e2 = Engine.build(str(own_pages), str(own_idx),
                      cfg=IndexConfig(docs_per_segment=128, term_buckets=4,
                                      block_size=32))
    n_before = e2.stats()["n_docs"]
    gen_before = e2._searcher_gen
    delta_dir = tmp_path_factory.mktemp("delta_api")
    write_pages_dir(str(delta_dir), n_docs=50, n_fragments=1, seed=777)
    e2.add_documents(str(delta_dir))
    pre = e2.stats()
    assert pre["n_docs"] > n_before                # reopened automatically
    assert e2._searcher_gen != gen_before
    e2.merge()                                     # close(true) analog
    with pytest.raises(TypeError):                 # merge takes no sizing
        e2.merge(concurrency=4)
    # compaction drops tombstones physically; doc arithmetic must reconcile
    assert e2.stats()["n_docs"] == pre["n_docs"] - pre.get("n_deletes", 0)


def test_engine_search_with_snippets(ray_session):
    """Highlighter surface: snippets cover exactly the top-k hit set, in
    rank order, with query terms marked."""
    import tempfile

    import ray.data as rd

    from org_rdkit_lucene_ray import Engine
    from org_rdkit_lucene_ray.config import IndexConfig

    sf = "/root/testdata/sf0.001/documents.parquet"
    idx = tempfile.mkdtemp(prefix="orl_snip_idx_")
    e = Engine.build(
        [sf], idx,
        cfg=IndexConfig(docs_per_segment=256, term_buckets=4, block_size=32),
        use_html=False, text_column="text", url_column=None, ts_column=None,
        lang_column="lang", id_column="doc_id", dedup=False,
        verify_extraction=False)
    docs = rd.read_parquet(sf, columns=["doc_id", "text"])
    top = e.topk("hash join", 4)
    out = sorted(e.search_with_snippets(docs, "hash join", k=4).take_all(),
                 key=lambda r: r["rank"])
    assert [r["doc_id"] for r in out] == [d for d, _ in top]
    assert all("<b>" in r["snippet"] for r in out)


def test_phrase_match_mask_semantics():
    """Positional phrase kernel: exact adjacency, in-order slop, repeated
    terms, cross-row isolation, single-term, and empty-row behavior."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.pipelines.query import _phrase_match_mask

    toks = pa.array([
        ["big", "data", "engine"],          # exact "big data"
        ["big", "x", "data"],               # gap 1 -> only slop>=1
        ["data", "big"],                    # wrong order -> never (in-order)
        ["table", "table", "x"],            # repeated adjacent
        ["table", "x", "table"],            # repeated with gap
        [],                                 # empty row
        ["big"],                            # incomplete phrase
    ], type=pa.list_(pa.string()))

    assert _phrase_match_mask(toks, ["big", "data"], 0).tolist() == \
        [True, False, False, False, False, False, False]
    assert _phrase_match_mask(toks, ["big", "data"], 1).tolist() == \
        [True, True, False, False, False, False, False]
    assert _phrase_match_mask(toks, ["table", "table"], 0).tolist() == \
        [False, False, False, True, False, False, False]
    assert _phrase_match_mask(toks, ["table", "table"], 1).tolist() == \
        [False, False, False, True, True, False, False]
    # single-term phrase = term containment
    assert _phrase_match_mask(toks, ["big"], 0).tolist() == \
        [True, True, True, False, False, False, True]
    # 3-term chain spanning a greedy restart: greedy from FIRST 'a' fails
    # the slop, but a later start occurrence matches
    toks2 = pa.array([["a", "x", "x", "x", "b", "a", "b", "c"]],
                     type=pa.list_(pa.string()))
    assert _phrase_match_mask(toks2, ["a", "b", "c"], 0).tolist() == [True]
    assert _phrase_match_mask(toks2, ["a", "b", "c"], 99).tolist() == [True]
    assert _phrase_match_mask(toks2, ["x", "b", "c"], 0).tolist() == [False]


def test_phrase_candidates_tf_refinement(searcher):
    """Screen: repeated phrase terms demand tf >= multiplicity, so the
    candidate set is a subset of the plain AND set; absent term -> empty."""
    import numpy as np

    and_docs = set(searcher.search_and("baba").tolist())
    cand = searcher.phrase_candidates(["baba", "baba"])
    assert set(cand.tolist()) <= and_docs
    # every candidate really has tf >= 2 for 'baba'
    dec = searcher._decode_term("baba")
    tf_of = dict(zip(dec[0].tolist(), dec[1].tolist()))
    assert all(tf_of[d] >= 2 for d in cand.tolist())
    assert searcher.phrase_candidates(["baba", "zzznotaterm"]).size == 0
    assert searcher.phrase_candidates([]).size == 0


# ---------------------------------------------------------------- round-3b:
# pluggable similarity, sort-by-field, SynonymQuery, query-time boosts
def test_classic_similarity_rank_identity_across_scorers(built_index):
    """ClassicSimilarity (TF-IDF VSM) must keep every pruning path exact:
    block bounds and top docs derive from the LIVE weight vector, so
    bmw == exhaustive for ANY positive weight formula."""
    idx, _ = built_index
    s = Searcher(idx, similarity="classic")
    for q in gen_queries().to_pylist():
        k = int(q["k"])
        ex = s.topk_exhaustive(q["query"], k)
        assert s.topk_bmw(q["query"], k) == ex, q["query"]


def test_classic_similarity_weight_formula(built_index):
    import math

    idx, _ = built_index
    s = Searcher(idx, similarity="classic")
    dec = s._decode_term("baba")
    idf = 1.0 + math.log((s.n_docs + 1.0) / (s.df("baba") + 1.0))
    want = (idf * idf) * np.sqrt(dec[1].astype(np.float64)) \
        / np.sqrt(dec[2].astype(np.float64))
    np.testing.assert_array_equal(dec.weights, want)
    # and it is genuinely a different ranking input than BM25
    s_bm = Searcher(idx)
    assert not np.array_equal(s_bm._decode_term("baba").weights, dec.weights)


def test_similarity_rejects_unknown(built_index):
    idx, _ = built_index
    with pytest.raises(ValueError, match="similarity"):
        Searcher(idx, similarity="dfr")


def test_search_sorted_matches_bruteforce(searcher, oracle_index):
    q = "baba cece"
    hits = searcher.search_or(q).tolist()
    assert len(hits) > 10
    dls = [(d, oracle_index.dl[d]) for d in hits]
    want = sorted(dls, key=lambda x: (-x[1], x[0]))[:7]
    assert searcher.search_sorted(q, field="dl", k=7) == want
    want_asc = sorted(dls, key=lambda x: (x[1], x[0]))[:7]
    assert searcher.search_sorted(q, field="dl", k=7,
                                  descending=False) == want_asc
    # AND mode + absent term -> empty
    assert searcher.search_sorted("zzznotaterm", field="dl", k=5) == []
    # searchAfter pagination: page 2 == global ranks [7, 14)
    all14 = sorted(dls, key=lambda x: (-x[1], x[0]))[:14]
    page2 = searcher.search_sorted(q, field="dl", k=7,
                                   after=(want[-1][1], want[-1][0]))
    assert page2 == all14[7:14]


def test_topk_synonyms_group_semantics(searcher, oracle_index):
    """SynonymQuery contract: tf summed across members, df = max member
    df — verified against a hand-rolled computation from the oracle's
    postings."""
    import math

    syn = {"baba": ["cece"]}
    got = searcher.topk_synonyms("baba", syn, k=10)
    merged: dict[int, int] = {}
    for t in ("baba", "cece"):
        for d, tf in oracle_index.postings.get(t, []):
            merged[d] = merged.get(d, 0) + tf
    df_g = max(len(oracle_index.postings.get(t, [])) for t in ("baba", "cece"))
    n, avgdl = oracle_index.n_docs, oracle_index.avgdl
    k1, b = searcher.bm25.k1, searcher.bm25.b
    idf = math.log(1.0 + (n - df_g + 0.5) / (df_g + 0.5))
    scores = {}
    for d, tf in merged.items():
        K = k1 * ((1.0 - b) + (b * float(oracle_index.dl[d])) / avgdl)
        scores[d] = float(np.float32(idf * (tf * (k1 + 1.0)) / (tf + K)))
    want = sorted(scores.items(), key=lambda x: (-x[1], x[0]))[:10]
    assert got == want
    # an all-absent synonym group degrades to the plain single-term query
    assert searcher.topk_synonyms("baba", {"baba": ["zzznotaterm"]}, k=10) \
        == searcher.topk_exhaustive("baba", 10)


def test_topk_boosted_semantics(searcher):
    # all-1.0 boosts == plain exhaustive scoring
    assert searcher.topk_boosted("baba cece", k=8) \
        == searcher.topk_exhaustive("baba cece", 8)
    # doubling is exact in IEEE: scores exactly 2x, ranks unchanged
    one = searcher.topk_exhaustive("baba", 5)
    two = searcher.topk_boosted("baba^2", k=5)
    assert [d for d, _ in two] == [d for d, _ in one]
    for (_, s1), (_, s2) in zip(one, two):
        assert s2 == 2.0 * s1
    # a ^0 boost still matches: every score ties at 0.0, so doc id orders
    baba = searcher.search_or("baba").tolist()
    for k in (5, 1000):
        assert searcher.topk_boosted("baba^0", k=k) == [(d, 0.0) for d in baba[:k]]
    # k=0 selects nothing, on every scored path through the shared select
    for got in (searcher.topk_exhaustive("baba cece", 0),
                searcher.topk_boosted("baba cece", k=0),
                searcher.topk_synonyms("baba", {"baba": ["cece"]}, k=0),
                searcher.topk_dismax("baba cece", 0),
                searcher.search_screen_verify("baba cece", 0)):
        assert got == []
    # ... also past the argpartition threshold of the select itself
    assert _top_hits(np.arange(600), np.ones(600, np.float32), 0) == []


def test_explain_matches_score(searcher, oracle_index):
    """explain rows are exactly the scorer's summands: float64-summing the
    per-term contributions (recomputed at full precision) reproduces the
    doc's float32 score; tf/df match the oracle index."""
    q = "baba cece"
    top = searcher.topk(q, 3)
    for doc_id, score in top:
        ex = searcher.explain(q, doc_id)
        assert ex.num_rows >= 1
        s64 = 0.0
        for term, tf in zip(ex["term"].to_pylist(), ex["tf"].to_pylist()):
            assert tf == dict(oracle_index.postings[term])[doc_id]
            dec = searcher._decode_term(term)
            i = int(np.searchsorted(dec[0], doc_id))
            s64 += float(dec.weights[i])
        assert np.float32(s64) == np.float32(score)
    # non-matching doc id -> zero rows
    assert searcher.explain("baba", -1).num_rows == 0


def test_collapse_topk_semantics(ray_session, tmp_path_factory):
    """Field collapsing: one best hit per field value, groups ranked by
    their best hit (score desc, doc asc); values with no hits are absent;
    k caps the group list."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from org_rdkit_lucene_ray.config import IndexConfig
    from org_rdkit_lucene_ray.pipelines.build import build_index

    t = pa.table({
        "url": pa.array([f"u{i}" for i in range(5)]),
        "warc_ts": pa.array([0, 1, 2, 3, 4], pa.timestamp("us")),
        # en: docs 0 (alpha x2) and 1 (alpha); de: doc 2 (alpha); fr: no hit
        "text": pa.array(["alpha alpha", "alpha beta", "alpha",
                          "gamma", "delta"]),
        "lang": pa.array(["en", "en", "de", "fr", "fr"]),
    })
    d = tmp_path_factory.mktemp("collapse_pages")
    pq.write_table(t, str(d / "p.parquet"))
    idx = str(tmp_path_factory.mktemp("collapse_idx"))
    cfg = IndexConfig(docs_per_segment=256, term_buckets=8, block_size=32,
                      field_columns=("lang",))
    build_index(str(d), idx, cfg=cfg, use_html=False, dedup=False,
                verify_extraction=False)
    s = Searcher(idx)
    got = s.collapse_topk("alpha", "lang", k=10)
    assert [(v, doc) for v, doc, _ in got][0] == ("en", 0)   # tf=2 wins
    assert set(v for v, _, _ in got) == {"en", "de"}         # fr: no hits
    assert len(got) == 2
    # each group's doc is its best hit; "de" group holds doc 2
    assert dict((v, doc) for v, doc, _ in got)["de"] == 2
    # scores match the scorer's float32 domain
    docs, scores = s.score_all("alpha")
    lut = dict(zip(docs.tolist(), scores.tolist()))
    for v, doc, sc in got:
        assert sc == lut[doc]
    # k caps groups
    assert len(s.collapse_topk("alpha", "lang", k=1)) == 1
    assert s.collapse_topk("zzznotaterm", "lang", k=5) == []


def test_numeric_range_search(searcher, oracle_index):
    """PointRangeQuery analog: hits == brute-force dl-range filter over
    the oracle's doc lengths; bounds inclusive/exclusive honored;
    max_hits caps; tombstone-free fixture so every stored doc counts."""
    dls = oracle_index.dl
    for lo, hi, ilo, ihi in [(10, 30, True, True), (10, 30, False, False),
                             (0, 10_000, True, True), (9999, 10000, True, True)]:
        want = sorted(d for d, n in dls.items()
                      if (n >= lo if ilo else n > lo)
                      and (n <= hi if ihi else n < hi))
        got = searcher.search_numeric_range("dl", lo, hi,
                                            include_lo=ilo,
                                            include_hi=ihi).tolist()
        assert got == want, (lo, hi, ilo, ihi)
    full = searcher.search_numeric_range("dl", 0, 10_000)
    assert searcher.search_numeric_range("dl", 0, 10_000,
                                         max_hits=5).tolist() \
        == full[:5].tolist()


def test_engine_facade_round3b_surfaces(built_index):
    """New facade passthroughs return the same results as the Searcher."""
    from org_rdkit_lucene_ray.api import Engine

    idx, _ = built_index
    e = Engine(idx)
    s = e.searcher()
    assert e.search_sorted("baba", k=3) == s.search_sorted("baba", k=3)
    assert e.search_boosted("baba^2 cece", k=4) == \
        s.topk_boosted("baba^2 cece", k=4)
    syn = {"baba": ["cece"]}
    assert e.search_synonyms("baba", syn, k=4) == \
        s.topk_synonyms("baba", syn, k=4)
    assert e.search_numeric_range("dl", 10, 30).tolist() == \
        s.search_numeric_range("dl", 10, 30).tolist()
    top = e.search_boosted("baba", k=1)[0][0]
    assert e.explain("baba", top).num_rows == 1


def test_suggest_terms_ordering(searcher, oracle_index):
    """DirectSpellChecker contract: distance asc, then df desc, then
    term asc; the query term itself and fielded terms are excluded."""
    # derive a misspelling of a known vocab word
    base = "baba"
    q = base[:-1] + "x"                       # 1 edit away from base
    got = searcher.suggest_terms(q, max_edits=2, k=10)
    assert got, "expected at least one suggestion"
    assert all(t != q for t, _, _ in got)
    assert all(":" not in t for t, _, _ in got)
    # ranking keys are honored pairwise
    keys = [(d, -df, t) for t, d, df in got]
    assert keys == sorted(keys)
    # distances are true Levenshtein values and within budget
    for t, d, df in got:
        assert 1 <= d <= 2
        assert df == oracle_index.df(t)
    # base word (distance 1) must appear before any distance-2 term
    assert got[0][1] == 1


def test_topk_mode_rejects_unknown(built_index, searcher):
    """An unknown top-k mode raises with the valid modes listed — from
    Searcher.topk, and from run_queries/topk_sharded before any batch
    runs."""
    from org_rdkit_lucene_ray.pipelines.query import topk_sharded

    idx, _ = built_index
    for mode in ("wand", "BMW", ""):
        with pytest.raises(ValueError, match="valid modes: bmw, exhaustive, phrase"):
            searcher.topk("baba", 5, mode=mode)
    queries = gen_queries(n_random=2)
    for make in (lambda: run_queries(idx, queries, mode="wand"),
                 lambda: topk_sharded(idx, queries, mode="wand")):
        with pytest.raises(ValueError, match="'wand'"):
            make()


def test_topk_bmw_boundaries_match_exhaustive(built_index, bmw_boundaries):
    """BMW == exhaustive at the per-term top-K boundaries, with duplicate
    query terms and search-after, under both similarities and on each
    shard of a sharded searcher."""
    idx, _ = built_index
    queries = [q["query"] for q in gen_queries(n_random=8).to_pylist()] + [
        "baba baba cece", "cece dodi cece cece"]
    for s in (Searcher(idx), Searcher(idx, similarity="classic"),
              *(Searcher(idx, shard=(i, 2)) for i in range(2))):
        assert bmw_boundaries(s, queries) > 0


def test_topk_bmw_ties_across_the_cut(ray_session, tmp_path_factory,
                                      bmw_boundaries):
    """Every doc is a copy of one of three pages, so the k-th float32
    score ties with docs on both sides of the cut and only the doc-id
    tie-break decides: a threshold not stepped below the k-th score would
    prune the tied docs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from org_rdkit_lucene_ray.config import IndexConfig
    from org_rdkit_lucene_ray.pipelines.build import build_index
    from org_rdkit_lucene_ray.pipelines.query import _TOP_K as K
    from org_rdkit_lucene_ray.synth import gen_pages

    src = gen_pages(3, seed=5, dup_url_frac=0.0, near_dup_frac=0.0)
    pages = gen_pages(600, seed=6, dup_url_frac=0.0, near_dup_frac=0.0)
    copy_of = pa.array(np.arange(pages.num_rows) % 3)
    for col in ("html", "text"):
        pages = pages.set_column(pages.schema.get_field_index(col), col,
                                 src[col].take(copy_of))
    d = tmp_path_factory.mktemp("tied_pages")
    pq.write_table(pages, str(d / "frag-00000.parquet"))
    idx = str(tmp_path_factory.mktemp("tied_idx"))
    build_index(str(d), idx, cfg=IndexConfig(docs_per_segment=128,
                                             term_buckets=2, block_size=16))
    s = Searcher(idx)
    toks = [s._query_terms(t) for t in src["text"].to_pylist()]
    queries = [toks[0][0], f"{toks[0][0]} {toks[1][0]}",
               f"{toks[2][-1]} {toks[2][-1]} {toks[0][1]}"]
    assert bmw_boundaries(s, queries) == len(queries)
    full = s.topk_exhaustive(queries[0], K + 1)
    assert full[K - 1][1] == full[K][1]          # the K-th score ties


def test_decode_cache_charges_top_docs(built_index, monkeypatch):
    """Each entry is charged every array it holds, the per-term top docs
    included; the top docs are the highest-weight postings in descending
    weight order; a small budget evicts and holds."""
    from org_rdkit_lucene_ray.pipelines import query as Q

    idx, _ = built_index
    s = Searcher(idx)
    queries = [q["query"] for q in gen_queries().to_pylist()]
    for q in queries:
        s.topk(q, 10)
    entries = [e for e in s._decode_cache.values() if e is not None]
    assert any(e.docs.size > Q._TOP_K for e in entries)
    assert s.decode_cache_bytes == sum(
        Q._CACHE_ENTRY_BYTES + (0 if e is None else
                                e.docs.nbytes + e.tfs.nbytes + e.dls.nbytes
                                + e.weights.nbytes + e.blk_maxw.nbytes
                                + e.top.nbytes)
        for e in s._decode_cache.values())
    bs = s.block_size
    for e in entries:
        w_of = dict(zip(e.docs.tolist(), e.weights.tolist()))
        top_w = [w_of[d] for d in e.top.tolist()]
        assert e.top.size == min(Q._TOP_K, e.docs.size)
        assert top_w == sorted(top_w, reverse=True)
        assert top_w[-1] >= np.sort(e.weights)[-e.top.size]
        assert e.max_w == top_w[0]
        # block bounds are the exact live block maxima (chunks store none)
        assert e.blk_maxw.size == -(-e.docs.size // bs)
        for j in range(e.blk_maxw.size):
            assert e.blk_maxw[j] == e.weights[j * bs:(j + 1) * bs].max()
    budget = s.decode_cache_bytes // 4
    monkeypatch.setattr(Q, "DECODE_CACHE_BYTES", budget)
    small = Searcher(idx)
    for q in queries:
        small.topk(q, 10)
        assert small.decode_cache_bytes <= budget
    assert len(small._decode_cache) < len(s._decode_cache)


def test_chunks_store_only_what_a_query_reads(built_index, tmp_path):
    """A built chunk holds exactly the columns a query reads. An index
    whose chunks still carry the three block-max list columns earlier
    writers stored answers identically, and a merge drops those columns."""
    import glob
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from org_rdkit_lucene_ray.pipelines.merge import merge_generations
    from org_rdkit_lucene_ray.state.segment import SEGMENT_SCHEMA

    read_cols = ["term", "df_chunk", "doc_bytes", "tf_bytes", "dl_bytes"]
    assert SEGMENT_SCHEMA.names == read_cols

    def chunk_files(idx):
        return glob.glob(os.path.join(idx, "gen-*", "segments", "seg=*",
                                      "bucket-*"))

    idx, _ = built_index
    assert chunk_files(idx)
    for f in chunk_files(idx):
        assert pq.read_schema(f).names == read_cols

    old = str(tmp_path / "old_layout")
    shutil.copytree(idx, old)
    for f in chunk_files(old):
        t = pq.read_table(f)
        first = [[0]] * t.num_rows
        t = (t.append_column("bm_first_doc", pa.array(first, pa.list_(pa.int64())))
              .append_column("bm_last_doc", pa.array(first, pa.list_(pa.int64())))
              .append_column("bm_max_tfn",
                             pa.array([[1.0]] * t.num_rows, pa.list_(pa.float32()))))
        pq.write_table(t, f)
    assert all(pq.read_schema(f).names[-1] == "bm_max_tfn"
               for f in chunk_files(old))

    queries = [q["query"] for q in gen_queries().to_pylist()][:20]
    s_new = Searcher(idx)

    def assert_same_answers(s):
        for q in queries:
            assert s.topk(q, 10) == s_new.topk(q, 10)
            assert np.array_equal(s.search_or(q), s_new.search_or(q))

    assert_same_answers(Searcher(old))
    m = merge_generations(old)
    merged = glob.glob(os.path.join(old, m["generation"], "segments",
                                    "seg=*", "bucket-*"))
    assert merged
    for f in merged:
        assert pq.read_schema(f).names == read_cols
    assert_same_answers(Searcher(old))


def test_lazy_residency_matches_eager(built_index, searcher, oracle_index):
    """Lazy per-bucket residency (r3 verdict #8): __init__ must read ZERO
    chunk tables; buckets load on first probe; every query surface returns
    exactly the eager searcher's answers."""
    idx, _ = built_index
    lazy = Searcher(idx)                       # default residency="lazy"
    assert lazy._by_bucket == {}, "lazy init must not load any bucket"
    assert lazy._n_chunks > 0                  # listing still happened
    eager = Searcher(idx, residency="eager")
    assert len(eager._by_bucket) == len(eager._bucket_files)
    for q in ["baba cece", "dada", "fafa gaga baba"]:
        assert lazy.topk_bmw(q, 10) == eager.topk_bmw(q, 10)
        assert np.array_equal(lazy.search_and(q), eager.search_and(q))
        assert np.array_equal(lazy.search_or(q), eager.search_or(q))
    # only the probed terms' buckets are resident
    assert 0 < len(lazy._by_bucket) <= len(lazy._bucket_files)
    assert lazy.df("baba") == eager.df("baba")
    with pytest.raises(ValueError, match="residency"):
        Searcher(idx, residency="mmap")


def test_min_should_match_boundaries(searcher):
    """BooleanQuery.minimumNumberShouldMatch: m=1 == OR, m=n == AND,
    m > matchable clauses == empty; absent terms never count."""
    q = "baba cece didi"
    n = 3
    assert np.array_equal(searcher.search_min_should(q, 1),
                          searcher.search_or(q))
    assert np.array_equal(searcher.search_min_should(q, n),
                          searcher.search_and(q))
    assert searcher.search_min_should(q, n + 1).size == 0
    # an index-absent term cannot contribute to any doc's clause count
    with_ghost = searcher.search_min_should(q + " zzznotaterm", 2)
    assert np.array_equal(with_ghost, searcher.search_min_should(q, 2))
    # monotone: raising m can only shrink the hit set
    sizes = [searcher.search_min_should(q, m).size for m in range(1, n + 1)]
    assert sizes == sorted(sizes, reverse=True)
    # max_hits cap
    capped = searcher.search_min_should(q, 1, max_hits=2)
    assert capped.size <= 2


def test_dismax_semantics(searcher):
    """DisjunctionMaxQuery: tie=1.0 degenerates to the plain BM25 sum
    (rank-identical to exhaustive); tie=0.0 is the pure max; hit SET
    equals the OR set regardless of tie."""
    q = "baba cece"
    full = searcher.topk_dismax(q, 1000, tie=1.0)
    exh = searcher.topk_exhaustive(q, 1000)
    # tie=1.0: mx + 1.0*(sm-mx) == sm exactly in IEEE
    assert [d for d, _ in full] == [d for d, _ in exh]
    for (_, s1), (_, s2) in zip(full, exh):
        assert s1 == np.float32(s2)
    assert {d for d, _ in searcher.topk_dismax(q, 10**6, tie=0.0)} \
        == set(searcher.search_or(q).tolist())
    # pure-max scores are bounded by the sum combination
    mx = dict(searcher.topk_dismax(q, 10**6, tie=0.0))
    for d, s in full:
        assert mx[d] <= s or np.isclose(mx[d], s)
    # single-clause query: tie is irrelevant
    a = searcher.topk_dismax("baba", 5, tie=0.0)
    b = searcher.topk_dismax("baba", 5, tie=0.9)
    assert a == b == [(d, np.float32(s)) for d, s in
                      searcher.topk_exhaustive("baba", 5)]


def test_suggest_complete_ordering(searcher, oracle_index):
    """Prefix autocomplete: completions ranked (df desc, term asc); every
    completion starts with the prefix; empty prefix family returns []."""
    got = searcher.suggest_complete("ba", 10)
    assert got, "fixture vocabulary must contain ba-terms"
    assert all(t.startswith("ba") for t, _ in got)
    assert all(d == searcher.df(t) for t, d in got)
    key = [(-d, t) for t, d in got]
    assert key == sorted(key)
    assert searcher.suggest_complete("zzznope", 5) == []
    assert searcher.suggest_complete("ba", 0) == []
    # fielded namespace terms are never suggested
    assert all(":" not in t for t, _ in searcher.suggest_complete("", 1000))


def test_regexp_search_semantics(searcher):
    """RegexpQuery: full-match only (no substring leakage); expansion
    union equals running the expansions through search_or."""
    terms = searcher.regexp_terms("ba.a")
    assert terms and all(len(t) == 4 and t.startswith("ba") for t in terms)
    hits = searcher.search_regexp("ba.a")
    want = searcher.search_or(" ".join(terms))
    assert np.array_equal(hits, want)
    assert searcher.regexp_terms("zz+x?") == []
    assert searcher.search_regexp("zz+x?").size == 0
    # anchored: 'aba' must not match the 4-char terms via substring
    assert all(len(t) == 3 for t in searcher.regexp_terms("a.a"))
    # catch-all expansion stays in the text-token domain (the fielded
    # exclusion itself is exercised in test_sources.test_fielded_search)
    allt = searcher.regexp_terms(".*")
    assert allt and all(":" not in t for t in allt)


def test_scalar_bucket_hash_matches_vectorised():
    """The query-time scalar FNV-1a is bit-identical to the build's
    vectorised stable_term_hash — the bucket a term is probed in is the
    bucket it was written to."""
    from org_rdkit_lucene_ray.pipelines.build import (stable_term_hash,
                                                      stable_term_hash_one)
    from org_rdkit_lucene_ray.synth import vocab

    terms = list(vocab()) + ["", "lang:de", "12:30", "a:b:c", "ünïcødé",
                             "日本語", "emoji😀", "x" * 300]
    want = stable_term_hash(terms)
    assert [stable_term_hash_one(t) for t in terms] == [int(h) for h in want]


def test_decode_cache_byte_budget(built_index, searcher, monkeypatch):
    """A decode cache squeezed to a few KB evicts constantly yet answers
    exactly like the default one, never holds more than its budget, and
    keeps its hit/miss counters consistent; an entry larger than the
    whole budget is returned but not kept."""
    from org_rdkit_lucene_ray.pipelines import query as Q

    idx, _ = built_index
    budget = 2048
    monkeypatch.setattr(Q, "DECODE_CACHE_BYTES", budget)
    small = Searcher(idx)
    queries = gen_queries().to_pylist()
    for q in queries:
        query, k = q["query"], int(q["k"])
        assert small.topk(query, k) == searcher.topk(query, k), query
        assert small.topk_exhaustive(query, k) == \
            searcher.topk_exhaustive(query, k), query
        assert small.decode_cache_bytes <= budget
        assert small.decode_cache_bytes == sum(
            Q._cache_entry_bytes(d) for d in small._decode_cache.values())
    assert small.decode_hits > 0
    # the budget forced re-decodes: more misses than distinct terms
    distinct = {t for q in queries for t in small._query_terms(q["query"])}
    assert small.decode_misses > len(distinct)
    sizes = {t: Q._cache_entry_bytes(d)
             for t, d in searcher._decode_cache.items()}
    big = max(sizes, key=sizes.get)
    monkeypatch.setattr(Q, "DECODE_CACHE_BYTES", sizes[big] - 1)
    tiny = Searcher(idx)
    dec = tiny._decode_term(big)
    assert np.array_equal(dec[0], searcher._decode_term(big)[0])
    assert big not in tiny._decode_cache and tiny.decode_cache_bytes == 0
    assert tiny._decode_term(big) is not None and tiny.decode_misses == 2
    monkeypatch.undo()
    # default budget: a warm repeat is all hits
    warm = Searcher(idx)
    warm.topk("baba cece", 10)
    hits, misses = warm.decode_hits, warm.decode_misses
    warm.topk("baba cece", 10)
    assert warm.decode_misses == misses and warm.decode_hits > hits


def test_decode_miss_probes_each_chunk_once(built_index, oracle_index,
                                            monkeypatch):
    """A decode miss binary-searches its term once per chunk of its
    bucket: an unsharded searcher weights the term with the df those same
    lookups summed, and BMW still equals the exhaustive scorer."""
    from org_rdkit_lucene_ray.pipelines import query as Q

    idx, _ = built_index
    s = Searcher(idx)
    calls = []
    find = Q._SortedTermIndex.find

    def counting_find(self, term):
        calls.append(term)
        return find(self, term)

    monkeypatch.setattr(Q._SortedTermIndex, "find", counting_find)
    terms = sorted({t for q in gen_queries().to_pylist()
                    for t in s._query_terms(q["query"])})
    decoded = 0
    for term in terms:
        n_chunks = len(s._bucket_chunks(s._term_bucket(term)))
        assert n_chunks > 1, "fixture must spread a bucket over segments"
        calls.clear()
        got = s._decode_term(term)
        assert calls == [term] * n_chunks, term
        if got is not None:
            assert s._df_cache[term] == oracle_index.df(term), term
            decoded += 1
    assert decoded > 5
    monkeypatch.undo()
    for q in gen_queries().to_pylist():
        query, k = q["query"], int(q["k"])
        assert s.topk_bmw(query, k) == s.topk_exhaustive(query, k), query


def test_expansions_keep_colon_text_tokens(ray_session, tmp_path_factory):
    """Under the whitespace analyzer ``12:30`` is a text token: regexp,
    wildcard and prefix expansion all reach it, while bare patterns still
    skip the fielded ``lang:xx`` namespace and fielded patterns (facets,
    ``lang:d*``) still reach it."""
    import re

    import pyarrow as pa
    import pyarrow.parquet as pq

    from org_rdkit_lucene_ray.config import IndexConfig
    from org_rdkit_lucene_ray.functions.analyze import REGISTRY
    from org_rdkit_lucene_ray.pipelines.build import build_index
    from org_rdkit_lucene_ray.synth import gen_pages

    pages = gen_pages(60, seed=5, dup_url_frac=0.0, near_dup_frac=0.0)
    # swap a vocabulary word for a colon-bearing token in html AND text,
    # so the golden extraction still matches
    swap = lambda v: re.sub(r"\bbaba\b", "12:30", v)          # noqa: E731
    texts = pages["text"].to_pylist()
    htmls = [h.decode("utf-8") for h in pages["html"].to_pylist()]
    pages = pages.set_column(2, "html", pa.array(
        [swap(h).encode("utf-8") for h in htmls], pa.binary()))
    pages = pages.set_column(3, "text", pa.array([swap(t) for t in texts]))
    d = tmp_path_factory.mktemp("colon_pages")
    pq.write_table(pages, str(d / "part-00000.parquet"))
    ws = REGISTRY["whitespace"]
    idx = str(tmp_path_factory.mktemp("colon_idx"))
    build_index(str(d), idx, cfg=IndexConfig(
        docs_per_segment=256, term_buckets=8, block_size=32,
        index_analyzer=ws, query_analyzer=ws, field_columns=("lang",)))
    s = Searcher(idx)
    want = [i for i, t in enumerate(pages["text"].to_pylist())
            if "12:30" in t.split()]
    assert want, "fixture must plant the colon token"
    assert s.regexp_terms("12:.*") == ["12:30"]
    assert s.wildcard_terms("12:*") == ["12:30"]
    assert s.prefix_terms("12:") == ["12:30"]
    assert s.search_regexp("12:30").tolist() == want
    # bare patterns skip the fielded namespace ...
    for terms in (s.regexp_terms(".*"), s.wildcard_terms("*"),
                  s.prefix_terms("")):
        assert "12:30" in terms
        assert not any(t.startswith("lang:") for t in terms)
    # ... fielded patterns reach it
    langs = sorted({"lang:" + v for v in pages["lang"].to_pylist()})
    assert s.prefix_terms("lang:") == langs
    assert s.regexp_terms("lang:.*") == langs
    assert s.wildcard_terms("lang:*") == langs
    assert s.facet_counts("12:30", "lang")
