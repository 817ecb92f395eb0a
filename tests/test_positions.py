"""Positional postings sidecar (store_positions=True; r3 verdict #7):
layout round-trip, phrase verify off the index == stored-text verify,
scoring unaffected, positions survive merge/deletes and delta adds."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from org_rdkit_lucene_ray.config import IndexConfig
from org_rdkit_lucene_ray.pipelines.build import build_index
from org_rdkit_lucene_ray.pipelines.query import (
    Searcher,
    _phrase_match_mask,
    search_phrases,
)


@pytest.fixture(scope="module")
def pos_index(ray_session, pages_dir, tmp_path_factory):
    idx = tmp_path_factory.mktemp("pos_index")
    cfg = IndexConfig(docs_per_segment=256, term_buckets=8, block_size=32,
                      store_positions=True)
    manifest = build_index(pages_dir, str(idx), cfg=cfg)
    return str(idx), manifest


def _corpus_tokens(pages_dir: str, cfg):
    """(doc_ids, token ListArray) for the whole synth corpus, build order."""
    from org_rdkit_lucene_ray.functions.analyze import tokenize_column

    tabs = [pq.read_table(os.path.join(pages_dir, f), columns=["text"])
            for f in sorted(os.listdir(pages_dir)) if f.endswith(".parquet")]
    t = pa.concat_tables(tabs)
    toks = tokenize_column(t["text"].combine_chunks(), cfg)
    return np.arange(t.num_rows, dtype=np.int64), toks


def _phrases_from_corpus(toks, n=6) -> list[tuple[list[str], int]]:
    """(tokens, slop) cases: real consecutive bigrams/trigrams from the
    corpus (guaranteed hits), a gapped pair needing slop, and a miss."""
    row = toks[3].as_py()
    out = [(row[0:2], 0), (row[2:5], 0), (row[1:3], 1),
           ([row[0], row[3]], 2),          # needs slop>=2 in doc 3
           ([row[0], row[3]], 0),          # same pair, strict adjacency
           (["zzzz", "qqqq"], 0)]          # vocabulary miss
    return out[:n]


def test_chunk_files_carry_pos_streams(pos_index):
    idx, manifest = pos_index
    assert manifest["config"]["store_positions"] is True
    gdir = os.path.join(idx, manifest["generation"])
    seg0 = sorted(os.listdir(os.path.join(gdir, "segments")))[0]
    f = sorted(os.listdir(os.path.join(gdir, "segments", seg0)))[0]
    t = pq.read_table(os.path.join(gdir, "segments", seg0, f))
    assert t.column_names == ["term", "df_chunk", "doc_bytes", "tf_bytes",
                              "dl_bytes", "pos_bytes"]
    # every text-term stream is non-null and its position count == sum(tf)
    from org_rdkit_lucene_ray.functions.codec import (
        decode_position_streams, varint_decode)
    checked = 0
    for i in range(min(50, t.num_rows)):
        blob = t["pos_bytes"][i]
        if not blob.is_valid:
            assert ":" in t["term"][i].as_py()   # only fielded terms are null
            continue
        n = t["df_chunk"][i].as_py()
        tfs = varint_decode(
            np.frombuffer(t["tf_bytes"][i].as_buffer(), np.uint8), n) \
            .view(np.int64)
        pos = decode_position_streams(
            np.frombuffer(blob.as_buffer(), np.uint8), tfs)
        assert pos.size == int(tfs.sum())
        checked += 1
    assert checked > 0


def test_phrase_hits_match_stored_text_verify(pos_index, pages_dir):
    """Index-side positional verify == brute-force stored-text mask for
    adjacency, proximity, repeated-term and miss cases."""
    idx, _ = pos_index
    s = Searcher(idx)
    ids, toks = _corpus_tokens(pages_dir, s.query_cfg)
    # dedup dropped some docs; restrict truth to stored docs
    stored = np.sort(np.concatenate(
        [pq.read_table(p, columns=["doc_id"])["doc_id"].to_numpy()
         for p in s._fwd_files()]))
    for ptoks, slop in _phrases_from_corpus(toks):
        want = ids[_phrase_match_mask(toks, ptoks, slop)]
        want = want[np.isin(want, stored)]
        got = s.phrase_hits(ptoks, slop)
        assert np.array_equal(got, want), (ptoks, slop, got, want)
    # at least one case has hits, or the test proves nothing
    first = _phrases_from_corpus(toks)[0]
    assert s.phrase_hits(first[0], first[1]).size > 0


def test_search_phrases_uses_index_positions(ray_session, pos_index,
                                             built_index, pages_dir):
    """The distributed surface returns identical rows on both layouts (the
    done-criterion of r3 verdict #7)."""
    import ray.data as rd

    idx_pos, _ = pos_index
    idx_txt, _ = built_index
    s_pos, s_txt = Searcher(idx_pos), Searcher(idx_txt)
    assert s_pos.store_positions and not s_txt.store_positions
    ids, toks = _corpus_tokens(pages_dir, s_pos.query_cfg)
    cases = _phrases_from_corpus(toks)
    phrases = [(i, " ".join(p), slop) for i, (p, slop) in enumerate(cases)]
    # (doc_id, text) dataset with positional ids by read order
    tabs = [pq.read_table(os.path.join(pages_dir, f), columns=["text"])
            for f in sorted(os.listdir(pages_dir)) if f.endswith(".parquet")]
    t = pa.concat_tables(tabs).append_column(
        "doc_id", pa.array(np.arange(sum(x.num_rows for x in tabs)), pa.int64()))
    docs = rd.from_arrow(t)

    def rows(ds):
        df = ds.to_pandas().sort_values(["query_id", "doc_id"])
        return list(map(tuple, df.to_numpy()))

    got_pos = rows(search_phrases(s_pos, docs, phrases))
    got_txt = rows(search_phrases(s_txt, docs, phrases))
    # both indexes dedup'd the same corpus -> same doc ids survive
    assert got_pos == got_txt
    assert len(got_pos) > 0


def test_positions_survive_delete_and_merge(ray_session, pages_dir,
                                            tmp_path_factory):
    """Tombstone a term's docs, merge generations: the re-encoded chunks
    keep positional streams aligned and phrase hits shrink accordingly."""
    from org_rdkit_lucene_ray.pipelines.merge import (
        delete_by_query, merge_generations)

    idx = str(tmp_path_factory.mktemp("pos_merge"))
    cfg = IndexConfig(docs_per_segment=256, term_buckets=8, block_size=32,
                      store_positions=True)
    build_index(pages_dir, idx, cfg=cfg)
    s0 = Searcher(idx)
    ids, toks = _corpus_tokens(pages_dir, s0.query_cfg)
    ptoks = toks[3].as_py()[0:2]
    before = s0.phrase_hits(ptoks, 0)
    assert before.size > 0
    # tombstone every doc containing the phrase's first term -> the phrase
    # can no longer match anywhere
    delete_by_query(idx, ptoks[0], mode="or")
    s1 = Searcher(idx)
    assert s1.phrase_hits(ptoks, 0).size == 0
    merge_generations(idx)
    s2 = Searcher(idx)
    assert s2.phrase_hits(ptoks, 0).size == 0
    # other phrases (not touching the deleted term) still verify vs truth
    other = toks[7].as_py()[0:2]
    if other[0] != ptoks[0] and other[1] != ptoks[0]:
        want = ids[_phrase_match_mask(toks, other, 0)]
        stored = np.sort(np.concatenate(
            [pq.read_table(p, columns=["doc_id"])["doc_id"].to_numpy()
             for p in s2._fwd_files()]))
        want = want[np.isin(want, stored)]
        assert np.array_equal(s2.phrase_hits(other, 0), want)


def test_delta_add_inherits_positions(ray_session, pages_dir,
                                      tmp_path_factory):
    """add_documents on a positional index writes a positional delta
    generation; phrases spanning old+new docs all verify."""
    from org_rdkit_lucene_ray.pipelines.merge import add_documents
    from org_rdkit_lucene_ray.synth import write_pages_dir

    idx = str(tmp_path_factory.mktemp("pos_delta"))
    cfg = IndexConfig(docs_per_segment=256, term_buckets=8, block_size=32,
                      store_positions=True)
    build_index(pages_dir, idx, cfg=cfg)
    delta_dir = tmp_path_factory.mktemp("pos_delta_pages")
    write_pages_dir(str(delta_dir), n_docs=120, n_fragments=2, seed=99)
    add_documents(idx, str(delta_dir))
    s = Searcher(idx)
    assert s.store_positions
    _, dtoks = _corpus_tokens(str(delta_dir), s.query_cfg)
    ptoks = dtoks[0].as_py()[0:2]
    hits = s.phrase_hits(ptoks, 0)
    # the phrase exists in the delta corpus; at least its own doc matches
    assert hits.size > 0


def test_non_positional_index_refuses_phrase_hits(built_index):
    idx, _ = built_index
    s = Searcher(idx)
    with pytest.raises(ValueError, match="store_positions"):
        s.phrase_hits(["baba", "cece"], 0)


def test_topk_phrase_scoring_semantics(pos_index, pages_dir):
    """Lucene PhraseQuery scoring: tf = exact adjacent-occurrence count,
    idf = sum of term idfs (duplicates counted), BM25 normalization —
    verified against a brute-force recount over the tokenized corpus."""
    import math

    idx, _ = pos_index
    s = Searcher(idx)
    ids, toks = _corpus_tokens(pages_dir, s.query_cfg)
    stored = np.sort(np.concatenate(
        [pq.read_table(p, columns=["doc_id"])["doc_id"].to_numpy()
         for p in s._fwd_files()]))
    row = toks[3].as_py()
    phrase = row[0:2]
    got = s.topk_phrase(" ".join(phrase), 10)
    assert got, "fixture phrase must have hits"

    # brute force: freq per stored doc, then the same score expression
    freqs = {}
    for i in range(len(toks)):
        if ids[i] not in stored:
            continue
        t = toks[i].as_py()
        f = sum(1 for j in range(len(t) - 1)
                if t[j] == phrase[0] and t[j + 1] == phrase[1])
        if f:
            freqs[int(ids[i])] = f
    idf_sum = sum(s._sim_idf(t) for t in phrase)
    want = []
    # dl via the first term's postings (same source the engine uses)
    dec = s._decode_term(phrase[0])
    dl_of = dict(zip(dec[0].tolist(), dec[2].tolist()))
    k1, b = s.bm25.k1, s.bm25.b
    for d, f in freqs.items():
        dl = float(dl_of[d])
        sc = idf_sum * (f * (k1 + 1.0)) / (f + k1 * ((1.0 - b) + (b * dl) / s.avgdl))
        want.append((d, sc))
    want.sort(key=lambda x: (-np.float32(x[1]), x[0]))
    want = want[:10]
    assert [d for d, _ in got] == [d for d, _ in want]
    np.testing.assert_allclose([x[1] for x in got], [x[1] for x in want],
                               rtol=0, atol=0)

    # repeated-term phrase: freq counts overlapping adjacency correctly
    rep = s.topk_phrase(f"{phrase[0]} {phrase[0]}", 5)
    for d, sc in rep:
        t = toks[int(np.flatnonzero(ids == d)[0])].as_py()
        f = sum(1 for j in range(len(t) - 1)
                if t[j] == phrase[0] and t[j + 1] == phrase[0])
        assert f >= 1


def test_engine_facade_phrase_surfaces(pos_index):
    """Engine facade exposes the positional surfaces (phrase_hits /
    search_phrase_topk) with Searcher-identical answers."""
    from org_rdkit_lucene_ray import Engine

    idx, _ = pos_index
    e = Engine(idx)
    s = Searcher(idx)
    toks = s._query_terms("baba cece")
    assert np.array_equal(e.phrase_hits("baba cece"), s.phrase_hits(toks))
    assert e.search_phrase_topk("baba cece", 5) == s.topk_phrase("baba cece", 5)


def test_run_queries_phrase_mode(ray_session, pos_index):
    """Scored phrase queries through the distributed actor-pool surface
    (run_queries mode="phrase") == driver-side topk_phrase."""
    from org_rdkit_lucene_ray.pipelines.query import run_queries

    idx, _ = pos_index
    s = Searcher(idx)
    queries = pa.table({
        "query_id": pa.array([0, 1], pa.int32()),
        "query": pa.array(["baba cece", "cece dada"], pa.string()),
        "k": pa.array([5, 5], pa.int32()),
    })
    out = run_queries(idx, queries, mode="phrase", resolve_urls=False,
                      concurrency=2).to_pandas().sort_values(
                          ["query_id", "rank"]).reset_index(drop=True)
    for qid, q in ((0, "baba cece"), (1, "cece dada")):
        want = s.topk_phrase(q, 5)
        got = out[out.query_id == qid]
        assert list(got.doc_id) == [d for d, _ in want]
        np.testing.assert_allclose(got.score.to_numpy(),
                                   np.float32([sc for _, sc in want]))


def test_search_phrases_respects_docs_scope(ray_session, pos_index, pages_dir):
    """On a positional index the docs dataset still defines the searchable
    universe (review fix): hits outside the provided docs are excluded,
    and an empty phrase list returns an empty dataset, matching the
    stored-text path's contract."""
    import ray.data as rd

    idx, _ = pos_index
    s = Searcher(idx)
    ids, toks = _corpus_tokens(pages_dir, s.query_cfg)
    ptoks = toks[3].as_py()[0:2]
    full = s.phrase_hits(ptoks, 0)
    assert full.size >= 2
    keep = full[: full.size // 2]                 # scope to half the hits
    scoped_docs = rd.from_arrow(pa.table({"doc_id": pa.array(keep, pa.int64()),
                                          "text": pa.array([""] * keep.size)}))
    out = search_phrases(s, scoped_docs, [(0, " ".join(ptoks), 0)]).to_pandas()
    assert sorted(out.doc_id) == sorted(keep.tolist())
    # 0-row Datasets lose schema through to_pandas (known Ray behavior);
    # contract on the count
    assert search_phrases(s, scoped_docs, []).count() == 0


def test_topk_phrase_classic_similarity_consistent(pos_index):
    """Phrase scoring under similarity='classic' uses the classic weight
    formula (idf_sum^2 * sqrt(freq) / sqrt(dl)), never a BM25 hybrid."""
    idx, _ = pos_index
    sc = Searcher(idx, similarity="classic")
    sb = Searcher(idx)
    got = sc.topk_phrase("baba cece", 5)
    assert got
    toks = sc._query_terms("baba cece")
    docs, freq = sb._phrase_freqs(toks)
    d0 = sb._decode_term(toks[0])
    dl = d0[2][np.searchsorted(d0[0], docs)].astype(np.float64)
    idf_sum = sum(sc._sim_idf(t) for t in toks)
    want_scores = (idf_sum * idf_sum) * np.sqrt(freq.astype(np.float64)) / np.sqrt(dl)
    order = np.lexsort((docs, -want_scores.astype(np.float32)))[:5]
    assert [d for d, _ in got] == [int(docs[i]) for i in order]
    np.testing.assert_array_equal([s for _, s in got], want_scores[order])


def test_topk_sharded_phrase_matches_unsharded(ray_session, pos_index):
    """Sharded phrase top-k == unsharded: shards partition docs, phrase
    scores use GLOBAL df/avgdl (the shard searcher's _gdf path), so the
    cross-shard merge is exact for mode='phrase' too."""
    from org_rdkit_lucene_ray.pipelines.query import topk_sharded

    idx, _ = pos_index
    s = Searcher(idx)
    queries = pa.table({
        "query_id": pa.array([0, 1], pa.int32()),
        "query": pa.array(["baba cece", "cece dada"], pa.string()),
        "k": pa.array([5, 5], pa.int32()),
    })
    out = topk_sharded(idx, queries, n_shards=2, mode="phrase") \
        .to_pandas().sort_values(["query_id", "rank"])
    for qid, q in ((0, "baba cece"), (1, "cece dada")):
        want = s.topk_phrase(q, 5)
        got = out[out.query_id == qid]
        assert list(got.doc_id) == [d for d, _ in want]
        np.testing.assert_allclose(got.score.to_numpy(),
                                   np.float32([sc for _, sc in want]))


def test_crash_resume_byte_identical_positional_ipc(ray_session, pages_dir,
                                                    tmp_path_factory):
    """Crash-resume determinism holds for the r4 layouts too: a positional
    Arrow-IPC build whose outputs are partially destroyed resumes to
    byte-identical segment files (positions encode deterministically; the
    resume scan recognizes .arrow chunks)."""
    import hashlib
    import shutil

    def tree_hashes(root):
        out = {}
        for dp, _, fs in os.walk(root):
            for f in fs:
                p = os.path.join(dp, f)
                out[os.path.relpath(p, root)] = hashlib.md5(
                    open(p, "rb").read()).hexdigest()
        return out

    cfg = IndexConfig(docs_per_segment=256, term_buckets=8, block_size=32,
                      store_positions=True, chunk_format="ipc")
    idx1 = str(tmp_path_factory.mktemp("pos_resume_ctrl"))
    m1 = build_index(pages_dir, idx1, cfg=cfg)
    control = tree_hashes(os.path.join(idx1, m1["generation"], "segments"))

    idx2 = str(tmp_path_factory.mktemp("pos_resume_crash"))
    m2 = build_index(pages_dir, idx2, cfg=cfg)
    gdir2 = os.path.join(idx2, m2["generation"])
    work = os.path.join(idx2, "work")
    os.remove(os.path.join(work, "manifest", "frag-000002.json"))
    os.remove(os.path.join(work, "postings", "frag-000002.arrow"))
    os.remove(os.path.join(gdir2, "fwd", "frag-000002.parquet"))
    seg_root = os.path.join(gdir2, "segments")
    removed = 0
    for seg in sorted(os.listdir(seg_root)):
        for f in sorted(os.listdir(os.path.join(seg_root, seg))):
            assert f.endswith(".arrow")
            if removed < 3:
                os.remove(os.path.join(seg_root, seg, f))
                removed += 1
    shutil.rmtree(os.path.join(gdir2, "df"))
    m2b = build_index(pages_dir, idx2, cfg=cfg)
    assert m2b["stats"]["n_postings"] == m1["stats"]["n_postings"]
    assert tree_hashes(os.path.join(gdir2, "segments")) == control


def test_phrase_hits_sharded_identity(pos_index, pages_dir):
    """Sharded phrase execution (contiguous segment ranges) returns the
    EXACT single-searcher hit set per query — union of disjoint shards."""
    from org_rdkit_lucene_ray.pipelines.query import phrase_hits_sharded

    idx, manifest = pos_index
    assert manifest["stats"]["n_segments"] >= 2
    s = Searcher(idx)
    _, toks = _corpus_tokens(pages_dir, s.query_cfg)
    cases = _phrases_from_corpus(toks)
    queries = pa.table({
        "query_id": pa.array(range(len(cases)), pa.int64()),
        "query": pa.array([" ".join(p) for p, _ in cases], pa.string()),
        "slop": pa.array([sl for _, sl in cases], pa.int64()),
    })
    got = phrase_hits_sharded(idx, queries, n_shards=2).to_pandas()
    n_hits = 0
    for qid, (ptoks, slop) in enumerate(cases):
        want = np.sort(s.phrase_hits(ptoks, slop))
        mine = np.sort(got[got["query_id"] == qid]["doc_id"].to_numpy())
        assert np.array_equal(mine, want), (ptoks, slop)
        n_hits += want.size
    assert n_hits > 0
    # 3-shard split agrees too (uneven segment counts per shard)
    got3 = phrase_hits_sharded(idx, queries, n_shards=3).to_pandas()
    assert sorted(map(tuple, got3.values.tolist())) == \
        sorted(map(tuple, got.values.tolist()))


def test_sharded_nshards_clamped_to_segments(pos_index, pages_dir):
    """n_shards beyond the segment count is clamped (shard granularity IS
    the segment — requesting more would spawn empty eager actors; soak
    finding, round 5), and the result is still the exact hit set."""
    from org_rdkit_lucene_ray.pipelines.query import (
        _n_segments, phrase_hits_sharded)

    idx, manifest = pos_index
    n_seg = manifest["stats"]["n_segments"]
    assert _n_segments(idx) == n_seg
    s = Searcher(idx)
    _, toks = _corpus_tokens(pages_dir, s.query_cfg)
    cases = _phrases_from_corpus(toks)[:2]
    queries = pa.table({
        "query_id": pa.array(range(len(cases)), pa.int64()),
        "query": pa.array([" ".join(p) for p, _ in cases], pa.string()),
        "slop": pa.array([sl for _, sl in cases], pa.int64()),
    })
    got = phrase_hits_sharded(idx, queries, n_shards=n_seg + 5).to_pandas()
    for qid, (ptoks, slop) in enumerate(cases):
        want = np.sort(s.phrase_hits(ptoks, slop))
        mine = np.sort(got[got["query_id"] == qid]["doc_id"].to_numpy())
        assert np.array_equal(mine, want), (ptoks, slop)


def test_phrase_position_decode_branches(pos_index, pages_dir, monkeypatch):
    """Both branches of the positional decode equal the stored-text truth.
    A head term next to a rare term decodes only its candidates' position
    runs (SELECTIVE: never cached, so a repeat decodes it again); two head
    terms decode whole (DENSE: cached, so a repeat decodes nothing)."""
    from collections import Counter

    from org_rdkit_lucene_ray.pipelines import query as Q

    idx, _ = pos_index
    s = Searcher(idx)
    ids, toks = _corpus_tokens(pages_dir, s.query_cfg)
    stored = np.sort(np.concatenate(
        [pq.read_table(p, columns=["doc_id"])["doc_id"].to_numpy()
         for p in s._fwd_files()]))
    bigrams = Counter((a, b) for row in toks.to_pylist()
                      for a, b in zip(row, row[1:]) if a != b)
    # the head term's candidates are under 1/8 of its postings
    selective = next(list(p) for p in sorted(bigrams)
                     if s.df(p[0]) >= 400 and s.df(p[1]) <= 20
                     and 0 < s.phrase_candidates(list(p)).size * 8 < s.df(p[0]))
    # no term shared with the selective phrase, whose cache state is asserted
    dense = next(list(p) for p, _ in bigrams.most_common()
                 if not set(p) & set(selective))
    assert all(s.phrase_candidates(dense).size * 8 >= s.df(t) for t in dense)

    decodes = []

    def counting(ranges):
        decodes.append(ranges)
        return decode(ranges)

    decode = Q.decode_postings
    monkeypatch.setattr(Q, "decode_postings", counting)
    for rnd in range(2):
        for p in (selective, dense):
            want = ids[_phrase_match_mask(toks, p, 0)]
            want = want[np.isin(want, stored)]
            assert want.size, p
            decodes.clear()
            assert np.array_equal(s.phrase_hits(p, 0), want), (p, rnd)
            if rnd == 1:
                # the head term of the selective phrase decodes again; the
                # dense phrase is served from the positions cache
                assert len(decodes) == (1 if p is selective else 0), p
    assert selective[0] not in s._pos_cache
    assert all(t in s._pos_cache for t in dense)


def test_merge_chunk_bytes_match_per_term_reference(ray_session, pages_dir,
                                                    tmp_path_factory):
    """Every merged chunk equals, column for column, a chunk built per term
    from the pre-merge postings minus the tombstones with the reference
    encoders (``encode_posting_list``, ``encode_position_streams``): merge
    copies position bytes instead of re-encoding them, and fielded terms
    keep null position streams."""
    from org_rdkit_lucene_ray.functions.codec import (
        decode_position_streams, decode_posting_list, encode_position_streams,
        encode_posting_list)
    from org_rdkit_lucene_ray.pipelines.merge import (
        delete_by_query, merge_generations, read_deletes)
    from org_rdkit_lucene_ray.state.segment import (
        SEGMENT_SCHEMA_POS, read_chunk_table)

    idx = str(tmp_path_factory.mktemp("pos_merge_bytes"))
    cfg = IndexConfig(docs_per_segment=256, term_buckets=8, block_size=32,
                      store_positions=True, chunk_format="ipc",
                      field_columns=("lang",))
    m0 = build_index(pages_dir, idx, cfg=cfg)
    delete_by_query(idx, "kiki", mode="or")
    dead = read_deletes(idx)
    assert dead.size
    merged = merge_generations(idx)
    g0 = os.path.join(idx, m0["generation"], "segments")
    g1 = os.path.join(idx, merged["generation"], "segments")
    n_chunks = n_dropped = n_null = 0
    for rel in sorted(os.path.relpath(os.path.join(dp, f), g0)
                      for dp, _, fs in os.walk(g0) for f in fs):
        src = read_chunk_table(os.path.join(g0, rel)).to_pylist()
        rows = []
        for r in src:
            docs, tfs, dls = decode_posting_list(r)
            keep = ~np.isin(docs, dead)
            n_dropped += int((~keep).sum())
            if not keep.any():
                continue
            row = {"term": r["term"], **encode_posting_list(
                docs[keep], tfs[keep], dls[keep]), "pos_bytes": None}
            if r["pos_bytes"] is not None:
                pos = decode_position_streams(
                    np.frombuffer(r["pos_bytes"], np.uint8), tfs)
                cum = np.concatenate([[0], np.cumsum(tfs)])
                runs = [pos[cum[i]:cum[i + 1]] for i in np.flatnonzero(keep)]
                starts = np.cumsum([0] + [x.size for x in runs[:-1]])
                row["pos_bytes"] = encode_position_streams(
                    np.concatenate(runs), starts)[0]
            n_null += row["pos_bytes"] is None
            rows.append(row)
        out = os.path.join(g1, rel)
        if not rows:
            assert not os.path.exists(out), rel
            continue
        got = read_chunk_table(out)
        want = pa.Table.from_pylist(rows).select(got.column_names) \
            .cast(SEGMENT_SCHEMA_POS)
        assert got.equals(want), rel
        n_chunks += 1
    assert n_chunks and n_dropped and n_null
