"""Incremental adds (delta generations + tombstones), log-structured merge,
and crash-resume byte-identity — the IndexWriter/segment-merge analog
(SURVEY T2, ``ChemicalIndex.java:344, :801``)."""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from org_rdkit_lucene_ray.config import IndexConfig
from org_rdkit_lucene_ray.oracle import OracleIndex
from org_rdkit_lucene_ray.pipelines.build import build_index, plan_fragments
from org_rdkit_lucene_ray.pipelines.merge import (
    add_documents,
    merge_generations,
    read_deletes,
)
from org_rdkit_lucene_ray.pipelines.query import Searcher
from org_rdkit_lucene_ray.synth import gen_queries

CFG = IndexConfig(docs_per_segment=256, term_buckets=8, block_size=32)


def _frag_paths(pages_dir):
    return sorted(os.path.join(pages_dir, f) for f in os.listdir(pages_dir)
                  if f.endswith(".parquet"))


def _survivors(paths, doc_id_base=0):
    """Replicate the engine's id assignment + last-write-wins dedup."""
    rows = []
    frags = plan_fragments(paths, doc_id_base=doc_id_base)
    for fr in frags:
        t = pq.read_table(fr["path"], columns=["url", "warc_ts", "text"])
        for i in range(t.num_rows):
            rows.append((fr["base"] + i, t["url"][i].as_py(),
                         t["warc_ts"][i].value, t["text"][i].as_py()))
    best = {}
    for doc_id, url, ts, text in rows:
        cur = best.get(url)
        if cur is None or (ts, doc_id) > (cur[0], cur[1]):
            best[url] = (ts, doc_id, text)
    return {doc_id: (url, text) for url, (ts, doc_id, text) in best.items()}, rows


@pytest.fixture(scope="module")
def incr_index(ray_session, pages_dir, tmp_path_factory):
    import pyarrow as pa

    from org_rdkit_lucene_ray.synth import gen_pages

    paths = _frag_paths(pages_dir)
    base_paths = paths[:5]
    # delta: fresh docs + explicit upserts of 8 base urls (later warc_ts)
    delta = gen_pages(200, seed=99, dup_url_frac=0.0, near_dup_frac=0.0)
    base0 = pq.read_table(base_paths[0], columns=["url"])
    upsert_urls = base0["url"].to_pylist()[10:18]
    # synth urls are a function of the row index — remap the delta into its
    # own namespace so only the planted upserts collide with the base
    urls = [u.replace("https://", "https://delta.") for u in delta["url"].to_pylist()]
    for i, u in enumerate(upsert_urls):
        urls[i * 20] = u          # delta wins by generation order (J6)
    delta = delta.set_column(0, "url", pa.array(urls, pa.string()))
    ddir = tmp_path_factory.mktemp("delta_frags")
    delta_paths = []
    for f in range(2):
        part = delta.slice(f * 100, 100)
        p = str(ddir / f"delta-{f:05d}.parquet")
        pq.write_table(part, p)
        delta_paths.append(p)
    idx = str(tmp_path_factory.mktemp("incr_idx"))
    base_manifest = build_index(base_paths, idx, cfg=CFG)
    add_manifest = add_documents(idx, delta_paths)
    return idx, base_paths, delta_paths, base_manifest, add_manifest


def _expected_corpus(base_paths, delta_paths):
    base_surv, base_rows = _survivors(base_paths)
    n_base_rows = len(base_rows)
    ceiling = ((n_base_rows - 1) // CFG.docs_per_segment + 1) * CFG.docs_per_segment
    delta_surv, _ = _survivors(delta_paths, doc_id_base=ceiling)
    delta_urls = {u for u, _ in delta_surv.values()}
    live_base = {d: v for d, v in base_surv.items() if v[0] not in delta_urls}
    return live_base, delta_surv, ceiling


def test_delta_generation_and_tombstones(incr_index):
    idx, base_paths, delta_paths, base_m, add_m = incr_index
    live_base, delta_surv, ceiling = _expected_corpus(base_paths, delta_paths)
    assert add_m["doc_id_base"] == ceiling
    # tombstones = base survivors whose url reappears in the delta
    base_surv, _ = _survivors(base_paths)
    want_dead = sorted(d for d, (u, _) in base_surv.items()
                       if u in {u for u, _ in delta_surv.values()})
    assert want_dead, "fixture must exercise cross-generation upserts"
    got_dead = sorted(read_deletes(idx).tolist())
    assert got_dead == want_dead
    # stale-stats contract (Lucene analog): stats still count tombstones
    s = Searcher(idx)
    assert s.n_docs == len(base_surv) + len(delta_surv)


def test_add_manifest_reports_its_phases(incr_index):
    """An add's manifest keeps the delta build's phase timings and task
    counts, plus the tombstone scan's: where the add's time went."""
    add_m = incr_index[4]
    for phase in ("dedup", "tokenize", "encode_shuffle", "tombstones"):
        assert add_m["tasks"][phase]["n"] > 0, phase
        assert add_m["timings_sec"][phase] >= add_m["tasks"][phase]["body_s_max"] >= 0
    # one tombstone task per parent forward-index fragment
    assert add_m["tasks"]["tombstones"]["n"] == len(incr_index[1])
    assert add_m["timings_sec"]["total"] >= add_m["timings_sec"]["tombstones"]



def test_one_pass_decode_matches_per_chunk_reference(incr_index):
    """The one-stream term decode (every chunk's doc/tf/dl slices joined
    into one varint_decode, doc ids rebuilt by one cumsum reset per chunk)
    equals decoding each chunk row on its own, on the two-generation
    view: several segments per generation, and tombstones."""
    from org_rdkit_lucene_ray.functions.codec import varint_decode

    idx, *_, add_m = incr_index
    s = Searcher(idx, generation=add_m["generation"])
    assert len(s._gdirs) == 2 and s._deletes is not None and s._deletes.size
    dead = set(s._deletes.tolist())

    def reference(term):
        docs, tfs, dls = [], [], []
        for _, tbl, tix in s._bucket_chunks(s._term_bucket(term)):
            i = tix.find(term)
            if i is None:
                continue
            n = tbl["df_chunk"][i].as_py()
            docs.append(np.cumsum(varint_decode(tbl["doc_bytes"][i].as_py(), n)))
            tfs.append(varint_decode(tbl["tf_bytes"][i].as_py(), n))
            dls.append(varint_decode(tbl["dl_bytes"][i].as_py(), n))
        if not docs:
            return None
        d, t, l = (np.concatenate(x).astype(np.int64) for x in (docs, tfs, dls))
        keep = np.array([x not in dead for x in d.tolist()], bool)
        return (d[keep], t[keep], l[keep]) if keep.any() else None

    terms = sorted({t for q in gen_queries().to_pylist()
                    for t in s._query_terms(q["query"])})
    multi_chunk = 0
    for term in terms:
        got, want = s._decode_term_uncached(term), reference(term)
        assert (got is None) == (want is None), term
        if got is not None:
            for g, w in zip(got, want):
                assert g.dtype == np.int64 and np.array_equal(g, w), term
            # the df before the tombstone mask, from the same lookups
            assert got[3] == s.df(term), term
        multi_chunk += sum(tix.find(term) is not None for _, _, tix in
                           s._bucket_chunks(s._term_bucket(term))) > 1
    assert multi_chunk, "queries must hit terms spanning several chunks"


def test_pre_merge_doc_sets_match_oracle(incr_index):
    idx, base_paths, delta_paths, *_ = incr_index
    live_base, delta_surv, _ = _expected_corpus(base_paths, delta_paths)
    oi = OracleIndex()
    for d, (u, text) in sorted({**live_base, **delta_surv}.items()):
        oi.add(d, text)
    s = Searcher(idx)
    for q in ["baba cece", "dodi", "zezezeze baba", "notaterm"]:
        assert s.search_or(q).tolist() == oi.search_or(q), q
        assert s.search_and(q).tolist() == oi.search_and(q), q
    # point lookup of an upserted url returns ONLY the delta row
    some_dead_url = next(u for d, (u, t) in sorted(
        (set(_survivors(base_paths)[0].items()) - set(live_base.items()))))
    t = s.lookup_pk(some_dead_url)
    assert t.num_rows == 1
    assert int(t["doc_id"][0].as_py()) in delta_surv


def test_merge_rank_identical_to_oracle(incr_index):
    idx, base_paths, delta_paths, *_ = incr_index
    live_base, delta_surv, _ = _expected_corpus(base_paths, delta_paths)
    merged = merge_generations(idx)
    assert merged["stats"]["n_deletes"] == 0
    assert merged["stats"]["n_docs"] == len(live_base) + len(delta_surv)
    oi = OracleIndex()
    for d, (u, text) in sorted({**live_base, **delta_surv}.items()):
        oi.add(d, text)
    s = Searcher(idx)          # now reads the merged generation
    assert s.n_docs == oi.n_docs
    assert s.avgdl == pytest.approx(oi.avgdl, rel=1e-12)
    for q in gen_queries(n_random=15).to_pylist():
        want = [(d, float(sc)) for d, sc in oi.topk(q["query"], int(q["k"]))]
        got = [(d, float(sc)) for d, sc in s.topk_bmw(q["query"], int(q["k"]))]
        assert got == want, q["query"]
        assert s.topk_bmw(q["query"], int(q["k"])) == \
            s.topk_exhaustive(q["query"], int(q["k"])), q["query"]


def test_pre_merge_pruning_admissible_across_avgdl_shift(
        ray_session, tmp_path_factory):
    """ADVICE r1 (high): on a multi-generation index the combined avgdl can
    exceed a generation's encode-time avgdl, making the STORED block-max
    bounds non-admissible — topk_bmw could prune genuine top-k
    hits between an add and a merge. Bounds are now derived at decode time
    from the live weight vector; this test plants a delta whose docs are
    much longer than the base (combined avgdl >> base encode avgdl) and
    asserts bmw == exhaustive on the pre-merge index."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.synth import gen_pages

    def frag_dir(tbl, name):
        d = tmp_path_factory.mktemp(name)
        for f in range(2):
            pq.write_table(tbl.slice(f * (tbl.num_rows // 2), tbl.num_rows // 2),
                           str(d / f"frag-{f:05d}.parquet"))
        return str(d)

    base = gen_pages(400, seed=7, dup_url_frac=0.0, near_dup_frac=0.0,
                     len_mean=2.5, max_len=60)       # short docs
    delta = gen_pages(200, seed=8, dup_url_frac=0.0, near_dup_frac=0.0,
                      len_mean=5.5, max_len=400)     # long docs
    delta = delta.set_column(
        0, "url", pa.array([u.replace("https://", "https://delta.")
                            for u in delta["url"].to_pylist()], pa.string()))
    idx = str(tmp_path_factory.mktemp("avgdl_idx"))
    m0 = build_index(frag_dir(base, "avgdl_base"), idx, cfg=CFG)
    add_m = add_documents(idx, frag_dir(delta, "avgdl_delta"))
    s = Searcher(idx)
    assert s.avgdl > m0["stats"]["avgdl"] * 1.5, \
        "fixture must actually shift avgdl upward"
    for q in gen_queries(n_random=20).to_pylist():
        want = s.topk_exhaustive(q["query"], int(q["k"]))
        assert s.topk_bmw(q["query"], int(q["k"])) == want, q["query"]
    # classic TF-IDF under the SAME stats shift: its weights depend on
    # the live n_docs (idf) and per-doc dl, and its bounds are derived
    # from the live vector too — pruning must stay exact pre-merge
    sc = Searcher(idx, similarity="classic")
    for q in gen_queries(n_random=12).to_pylist():
        want = sc.topk_exhaustive(q["query"], int(q["k"]))
        assert sc.topk_bmw(q["query"], int(q["k"])) == want, q["query"]


def _tree_hashes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            rel = os.path.relpath(p, root)
            out[rel] = hashlib.md5(open(p, "rb").read()).hexdigest()
    return out


def _index_hashes(gdir):
    """Per-file hashes of a generation's segment chunks and df files."""
    return {sub: _tree_hashes(os.path.join(gdir, sub))
            for sub in ("segments", "df")}


def test_rebuild_same_dir_with_other_analyzer_equals_fresh(
        ray_session, pages_dir, tmp_path_factory):
    """Nothing of a build's tokenizer outlives it: rebuilding the same
    index dir in the same Ray session with another analyzer gives the same
    index as a build into a fresh dir (a tokenizer cached per worker
    process by output dir would tokenize the rebuild with the first
    build's analyzer while its manifest claims the second's)."""
    from dataclasses import replace

    from org_rdkit_lucene_ray.functions.analyze import REGISTRY

    shingles = replace(CFG, index_analyzer=REGISTRY["shingle_2"],
                       query_analyzer=REGISTRY["shingle_2"])
    idx = str(tmp_path_factory.mktemp("rebuild_same_dir"))
    build_index(pages_dir, idx, cfg=CFG)
    shutil.rmtree(idx)
    again = build_index(pages_dir, idx, cfg=shingles)
    fresh_dir = str(tmp_path_factory.mktemp("rebuild_fresh_dir"))
    fresh = build_index(pages_dir, fresh_dir, cfg=shingles)
    assert again["stats"] == fresh["stats"]
    assert _index_hashes(os.path.join(idx, again["generation"])) == \
        _index_hashes(os.path.join(fresh_dir, fresh["generation"]))


def test_crash_resume_byte_identical(ray_session, pages_dir, tmp_path_factory):
    idx1 = str(tmp_path_factory.mktemp("resume_ctrl"))
    m1 = build_index(pages_dir, idx1, cfg=CFG)
    gdir1 = os.path.join(idx1, m1["generation"])
    control = _index_hashes(gdir1)
    assert control["df"], "control build must write df files"

    # "crashed" run: complete build, then destroy a slice of its outputs —
    # two fragment manifests (+ their postings), three segment chunks, the
    # df table — and rerun. The rerun must skip committed work and reproduce
    # byte-identical segments and df files.
    idx2 = str(tmp_path_factory.mktemp("resume_crash"))
    m2 = build_index(pages_dir, idx2, cfg=CFG)
    gdir2 = os.path.join(idx2, m2["generation"])
    work = os.path.join(idx2, "work")
    for fid in (2, 5):
        os.remove(os.path.join(work, "manifest", f"frag-{fid:06d}.json"))
        os.remove(os.path.join(work, "postings", f"frag-{fid:06d}.arrow"))
        os.remove(os.path.join(gdir2, "fwd", f"frag-{fid:06d}.parquet"))
    seg_root = os.path.join(gdir2, "segments")
    removed = 0
    for seg in sorted(os.listdir(seg_root)):
        for f in sorted(os.listdir(os.path.join(seg_root, seg))):
            if removed < 3:
                os.remove(os.path.join(seg_root, seg, f))
                removed += 1
    shutil.rmtree(os.path.join(gdir2, "df"))

    m2b = build_index(pages_dir, idx2, cfg=CFG)
    assert m2b["stats"]["n_docs"] == m1["stats"]["n_docs"]
    assert m2b["stats"]["n_postings"] == m1["stats"]["n_postings"]
    assert m2b["stats"]["n_terms"] == m1["stats"]["n_terms"]
    # resumed fragments are marked; untouched ones were skipped
    resumed = {r["fragment_id"]: bool(r.get("resumed_skip"))
               for r in m2b["fragments"]}
    assert not resumed[2] and not resumed[5]      # re-processed
    assert resumed[3] and resumed[0]              # skipped from checkpoint
    assert _index_hashes(gdir2) == control

    # crash inside one bucket's encode task: every chunk of the bucket is
    # written, its df file is not. The rerun must rewrite that file.
    os.remove(os.path.join(gdir2, "df", "bucket-00003.parquet"))
    m2c = build_index(pages_dir, idx2, cfg=CFG)
    assert m2c["stats"]["n_terms"] == m1["stats"]["n_terms"]
    assert m2c["chunks"] == m1["chunks"]
    assert _index_hashes(gdir2) == control


def test_chained_deltas_three_generations(ray_session, pages_dir, tmp_path_factory):
    """Two sequential add_documents calls -> three live generations; the
    searcher unions all three with correct cross-generation upsert masking,
    and a final merge compacts to exact stats."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.synth import gen_pages

    def frag(tbl, name):
        d = tmp_path_factory.mktemp(name)
        pq.write_table(tbl, str(d / "p.parquet"))
        return str(d)

    base = gen_pages(300, seed=21, dup_url_frac=0.0, near_dup_frac=0.0)
    d1 = gen_pages(100, seed=22, dup_url_frac=0.0, near_dup_frac=0.0)
    d2 = gen_pages(100, seed=23, dup_url_frac=0.0, near_dup_frac=0.0)
    # d1 upserts 10 base urls; d2 upserts 5 base urls AND 5 d1 urls
    base_urls = base["url"].to_pylist()
    u1 = [u.replace("https://", "https://d1.") for u in d1["url"].to_pylist()]
    for i in range(10):
        u1[i * 7] = base_urls[i]
    d1 = d1.set_column(0, "url", pa.array(u1, pa.string()))
    u2 = [u.replace("https://", "https://d2.") for u in d2["url"].to_pylist()]
    for i in range(5):
        u2[i * 9] = base_urls[50 + i]
        u2[i * 9 + 1] = u1[i * 7 + 1]       # a d1 url (non-upserted one)
    d2 = d2.set_column(0, "url", pa.array(u2, pa.string()))

    idx = str(tmp_path_factory.mktemp("chain_idx"))
    build_index(frag(base, "chain_base"), idx, cfg=CFG)
    add_documents(idx, frag(d1, "chain_d1"))
    m2 = add_documents(idx, frag(d2, "chain_d2"))
    assert m2["includes"] == ["gen-000000", "gen-000001", "gen-000002"]

    # sharded fan-out clamps against segments across ALL included
    # generations, not just the newest one
    from org_rdkit_lucene_ray.pipelines.query import _n_segments
    from org_rdkit_lucene_ray.state.segment import list_segment_ids
    want_segs = {sid for g in m2["includes"]
                 for sid in list_segment_ids(os.path.join(idx, g))}
    assert _n_segments(idx) == len(want_segs) > 0

    s = Searcher(idx)
    # every upserted url resolves to exactly ONE live doc (the newest)
    for u in [base_urls[0], base_urls[50], u2[1]]:
        t = s.lookup_pk(u)
        assert t.num_rows == 1, u
    # deletes accumulate across the chain: 10 base + 5 base + 5 d1
    assert read_deletes(idx).size == 20
    pre = {int(d) for d in s.search_or("baba cece dodi")}

    merged = merge_generations(idx)
    assert merged["stats"]["n_docs"] == 300 + 100 + 100 - 20
    s2 = Searcher(idx)
    assert {int(d) for d in s2.search_or("baba cece dodi")} == pre
    for q in gen_queries(n_random=10).to_pylist():
        assert s2.topk_bmw(q["query"], int(q["k"])) == \
            s2.topk_exhaustive(q["query"], int(q["k"])), q["query"]


def test_run_queries_sees_new_generation(ray_session, tmp_path_factory):
    """A ``run_queries`` call after ``add_documents`` answers from the new
    generation, equal to a fresh Searcher's top-k, although an earlier call
    in the same session searched the old one."""
    from org_rdkit_lucene_ray.pipelines.query import run_queries
    from org_rdkit_lucene_ray.synth import gen_pages

    d = tmp_path_factory.mktemp("newgen_pages")
    pq.write_table(gen_pages(300, seed=31), str(d / "base.parquet"))
    pq.write_table(gen_pages(100, seed=32, index_offset=300),
                   str(d / "delta.parquet"))
    idx = str(tmp_path_factory.mktemp("newgen_idx"))
    build_index([str(d / "base.parquet")], idx, cfg=CFG)
    queries = gen_queries(n_random=10)

    def rows():
        df = run_queries(idx, queries, resolve_urls=False).to_pandas()
        return sorted(zip(df.query_id, df["rank"], df.doc_id, df.score))

    def want():
        s = Searcher(idx)
        return sorted((q["query_id"], r, d, sc) for q in queries.to_pylist()
                      for r, (d, sc) in enumerate(s.topk(q["query"], q["k"])))

    before = rows()
    assert before == want()
    add_documents(idx, [str(d / "delta.parquet")])
    after = rows()
    assert after == want()
    assert after != before


def test_merge_crash_resume(ray_session, pages_dir, tmp_path_factory):
    """A merge killed mid-flight resumes by skip-if-exists: rerunning after
    deleting the new generation's manifest + a slice of its outputs
    reproduces the same stats and file set as an uninterrupted merge."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.synth import gen_pages

    paths = _frag_paths(pages_dir)[:4]
    delta = gen_pages(120, seed=55, dup_url_frac=0.0, near_dup_frac=0.0)
    delta = delta.set_column(
        0, "url", pa.array([u.replace("https://", "https://delta.")
                            for u in delta["url"].to_pylist()], pa.string()))
    ddir = tmp_path_factory.mktemp("mcr_delta")
    pq.write_table(delta, str(ddir / "d.parquet"))

    idx = str(tmp_path_factory.mktemp("mcr_idx"))
    build_index(paths, idx, cfg=CFG)
    add_documents(idx, str(ddir))
    control = merge_generations(idx)
    gdir = os.path.join(idx, control["generation"])
    control_hashes = _index_hashes(gdir)
    # "crash": drop the manifest, two chunk files, the df file of a bucket
    # whose chunks are all written, and one fwd fragment, and point
    # CURRENT back at the pre-merge generation
    os.remove(os.path.join(gdir, "manifest.json"))
    seg_root = os.path.join(gdir, "segments")
    removed = []
    for seg in sorted(os.listdir(seg_root)):
        for f in sorted(os.listdir(os.path.join(seg_root, seg))):
            if len(removed) < 2:
                os.remove(os.path.join(seg_root, seg, f))
                removed.append(f.split(".")[0])
    df_dir = os.path.join(gdir, "df")
    lost_df = [f for f in sorted(os.listdir(df_dir))
               if f.split(".")[0] not in removed][-1]
    os.remove(os.path.join(df_dir, lost_df))
    fwd = os.path.join(gdir, "fwd")
    os.remove(os.path.join(fwd, sorted(os.listdir(fwd))[0]))
    from org_rdkit_lucene_ray.state.segment import set_current_generation

    set_current_generation(idx, control["stats"]["merged_from"][-1])

    resumed = merge_generations(idx)
    assert resumed["generation"] == control["generation"]
    assert resumed["stats"]["n_docs"] == control["stats"]["n_docs"]
    assert resumed["stats"]["n_postings"] == control["stats"]["n_postings"]
    assert resumed["stats"]["n_terms"] == control["stats"]["n_terms"]
    assert resumed["chunks"] == control["chunks"]
    assert _index_hashes(gdir) == control_hashes
    s = Searcher(idx)
    assert s.n_docs == control["stats"]["n_docs"]
    assert len(s.topk("baba", 5)) == 5


def test_extract_error_threshold_aborts(ray_session, tmp_path_factory):
    """M12 analog: per-record mismatches tolerated up to a threshold, then
    the job aborts with a clear error."""
    import pyarrow as pa
    import ray

    from org_rdkit_lucene_ray.synth import gen_pages

    t = gen_pages(60, seed=5, dup_url_frac=0.0, near_dup_frac=0.0)
    # corrupt the golden text of most rows -> extraction mismatch
    bad = pa.table({
        "url": t["url"], "warc_ts": t["warc_ts"], "html": t["html"],
        "text": pa.array(["CORRUPTED"] * t.num_rows, pa.string()),
        "lang": t["lang"],
    })
    d = tmp_path_factory.mktemp("bad_pages")
    pq.write_table(bad, str(d / "pages-00000.parquet"))
    idx = tmp_path_factory.mktemp("bad_idx")
    with pytest.raises((RuntimeError, ray.exceptions.RayTaskError)) as ei:
        build_index(str(d), str(idx), cfg=CFG, max_extract_errors=10)
    assert "max_extract_errors" in str(ei.value)
    # with the guard off, the build completes and records the mismatch count
    idx2 = tmp_path_factory.mktemp("bad_idx2")
    m = build_index(str(d), str(idx2), cfg=CFG, max_extract_errors=None)
    assert m["stats"]["extract_mismatches"] == 60


def test_sharded_search_on_incremental_index(ray_session, incr_index):
    """Sharded searchers must sum GLOBAL df across included generations —
    scores on a multi-generation index equal the unsharded ones."""
    from org_rdkit_lucene_ray.pipelines.query import Searcher

    idx, *_ = incr_index
    # pin the multi-generation delta (gen-000001 includes gen-000000) so the
    # test exercises cross-generation df summing even after the merge test
    # has advanced CURRENT
    full = Searcher(idx, generation="gen-000001")
    shards = [Searcher(idx, generation="gen-000001", shard=(i, 2))
              for i in range(2)]
    for q in ["baba cece", "dodi baba", "zezezeze"]:
        want = full.topk(q, 10)
        partial = sorted(
            (hit for s in shards for hit in s.topk(q, 10)),
            key=lambda e: (-e[1], e[0]))[:10]
        # merge of per-shard top-k with the global comparator == unsharded
        assert [(d, float(np.float32(sc))) for d, sc in partial] == \
            [(d, float(np.float32(sc))) for d, sc in want], q
        for s in shards:
            assert s.df("baba") == full.df("baba")


def test_delete_by_query_generation_chain(ray_session, tmp_path_factory):
    """delete_by_query writes a delete-only generation: matches vanish
    immediately (snapshot swap), survive an add_documents chained on top,
    and are physically dropped by merge; df/avgdl stay Lucene-stale until
    the merge."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.pipelines.merge import delete_by_query
    from org_rdkit_lucene_ray.synth import gen_pages

    def frag(tbl, name):
        d = tmp_path_factory.mktemp(name)
        pq.write_table(tbl, str(d / "p.parquet"))
        return str(d)

    base = gen_pages(300, seed=31, dup_url_frac=0.0, near_dup_frac=0.0)
    idx = str(tmp_path_factory.mktemp("delq_idx"))
    build_index(frag(base, "delq_base"), idx, cfg=CFG)

    s0 = Searcher(idx)
    victims = {int(d) for d in s0.search_and("baba cece")}
    assert victims, "query must match something for the test to bite"
    n0 = s0.n_docs

    out = delete_by_query(idx, "baba cece", mode="and")
    assert out["n_new_deletes"] == len(victims)
    assert out["includes"] == ["gen-000000"]     # no segments of its own

    s1 = Searcher(idx)
    # matches gone from every search surface; stats still Lucene-stale
    assert {int(d) for d in s1.search_and("baba cece")} == set()
    assert set(map(int, s1.search_or("baba"))).isdisjoint(victims)
    assert s1.n_docs == n0
    # idempotent-ish: re-deleting finds nothing new
    out2 = delete_by_query(idx, "baba cece", mode="and")
    assert out2["n_new_deletes"] == 0

    # a delta chains off the delete-only generation; deletes persist
    d1 = gen_pages(80, seed=32, dup_url_frac=0.0, near_dup_frac=0.0)
    d1 = d1.set_column(
        0, "url", pa.array([u.replace("https://", "https://delta.")
                            for u in d1["url"].to_pylist()], pa.string()))
    add_documents(idx, frag(d1, "delq_d1"))
    s2 = Searcher(idx)
    assert {int(d) for d in s2.search_and("baba cece")}.isdisjoint(victims)
    assert read_deletes(idx).size >= len(victims)

    merged = merge_generations(idx)
    # exact arithmetic: all tombstones at merge time are the victims
    # (delta urls were disjoint, so no upsert tombstones joined them)
    assert merged["stats"]["n_docs"] == n0 + 80 - len(victims)
    s3 = Searcher(idx)
    # the base victims are physically gone; delta docs matching the same
    # query are legitimately live
    assert {int(d) for d in s3.search_and("baba cece")}.isdisjoint(victims)
    assert s3.n_docs == n0 + 80 - len(victims)
    # BMW pruning stays exact on the post-delete index
    for q in gen_queries(n_random=8).to_pylist():
        assert s3.topk_bmw(q["query"], int(q["k"])) == \
            s3.topk_exhaustive(q["query"], int(q["k"])), q["query"]


def test_topk_bmw_boundaries_on_tombstoned_generations(incr_index,
                                                       bmw_boundaries):
    """Per-term top docs are taken after tombstones are masked, so BMW
    stays exact at the top-K boundaries on a multi-generation index with
    upserted-away docs."""
    idx, *_ = incr_index
    # pinned: the merge test advances CURRENT past the tombstoned delta
    s = Searcher(idx, generation="gen-000001")
    assert s._deletes is not None and s._deletes.size
    queries = [q["query"] for q in gen_queries(n_random=8).to_pylist()] + [
        "baba baba cece"]
    assert bmw_boundaries(s, queries) > 0
    for e in s._decode_cache.values():
        if e is not None:
            assert not np.isin(e.top, s._deletes).any()


def test_write_path_constructs_no_dataset(ray_session, pages_dir,
                                          tmp_path_factory, monkeypatch):
    """build -> add_documents (with upserts) -> delete_by_query -> merge
    run as plain Ray tasks: with every ``ray.data.Dataset`` construction
    raising, the chain completes and the merged index is rank- and
    score-identical to the oracle over the surviving docs."""
    import pyarrow as pa
    import ray.data

    from org_rdkit_lucene_ray.pipelines.merge import delete_by_query
    from org_rdkit_lucene_ray.synth import gen_pages

    paths = _frag_paths(pages_dir)
    delta = gen_pages(120, seed=77, dup_url_frac=0.0, near_dup_frac=0.0)
    urls = [u.replace("https://", "https://delta.") for u in delta["url"].to_pylist()]
    base_urls = pq.read_table(paths[1], columns=["url"])["url"].to_pylist()
    for i in range(6):
        urls[i * 15] = base_urls[i * 3]               # upserts
    delta = delta.set_column(0, "url", pa.array(urls, pa.string()))
    ddir = tmp_path_factory.mktemp("nods_delta")
    pq.write_table(delta, str(ddir / "d.parquet"))
    delta_paths = [str(ddir / "d.parquet")]

    def no_dataset(self, *a, **kw):
        raise AssertionError("the index write path built a ray.data.Dataset")

    monkeypatch.setattr(ray.data.Dataset, "__init__", no_dataset)
    idx = str(tmp_path_factory.mktemp("nods_idx"))
    build_index(paths, idx, cfg=CFG)
    add_documents(idx, delta_paths)
    delete_by_query(idx, "baba cece", mode="and")
    merged = merge_generations(idx)
    monkeypatch.undo()

    live_base, delta_surv, _ = _expected_corpus(paths, delta_paths)
    assert len(live_base) < len(_survivors(paths)[0]), "fixture must upsert"
    live = OracleIndex()
    for d, (u, text) in sorted({**live_base, **delta_surv}.items()):
        live.add(d, text)
    victims = set(live.search_and("baba cece"))
    assert victims, "the delete must match something"
    oi = OracleIndex()
    for d, (u, text) in sorted({**live_base, **delta_surv}.items()):
        if d not in victims:
            oi.add(d, text)
    assert merged["stats"]["n_docs"] == oi.n_docs
    s = Searcher(idx)
    for q in gen_queries(n_random=15).to_pylist():
        want = [(d, float(sc)) for d, sc in oi.topk(q["query"], int(q["k"]))]
        got = [(d, float(sc)) for d, sc in s.topk_bmw(q["query"], int(q["k"]))]
        assert got == want, q["query"]
