"""Unit tests for the training-data-pipeline stages (dedup / ANN / textstats /
windows / multimodal plumbing) against plain numpy/pandas oracles."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from org_rdkit_lucene_ray.functions.analyze import REGISTRY, analyze_text
from org_rdkit_lucene_ray.stages.dedup import (
    exact_dedup_groups,
    exact_jaccard,
    jaccard_pairs_exact,
    minhash_dup_pairs,
    simhash_dup_pairs,
)


def _docs_table() -> pa.Table:
    """Small corpus with planted exact dups + near dups."""
    base = ("the quick brown fox jumps over the lazy dog while a crow watches "
            "from the old oak tree near the river bank in early morning light")
    texts = []
    for i in range(30):
        words = (base + f" filler{i} token{i * 7 % 11} extra{i % 5}").split()
        texts.append(" ".join(words))
    texts[10] = texts[3]                      # exact dup
    texts[11] = texts[3]                      # exact dup
    texts[12] = texts[4].replace("crow", "raven")   # near dup of 4
    texts[13] = texts[5].replace("early", "late")   # near dup of 5
    return pa.table({
        "doc_id": pa.array(range(30), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    return rd.from_arrow(_docs_table()).repartition(4)


# ------------------------------------------------------------------- dedup
def test_exact_dedup_groups(docs_ds):
    out = exact_dedup_groups(docs_ds).to_pandas()
    # oracle: pandas groupby on text
    df = _docs_table().to_pandas()
    want = df.groupby("text")["doc_id"].agg(["min", "count"]).reset_index()
    got = out.sort_values("doc_id").reset_index(drop=True)
    assert len(got) == len(want)
    w = want.sort_values("min").reset_index(drop=True)
    assert got["doc_id"].tolist() == w["min"].tolist()
    assert got["n_copies"].tolist() == w["count"].tolist()
    # the planted dup group (3,10,11) survives as id 3 with 3 copies
    assert got.set_index("doc_id").loc[3, "n_copies"] == 3


def test_minhash_finds_planted_near_dups(docs_ds):
    pairs = minhash_dup_pairs(docs_ds, threshold=0.7, num_perm=64, bands=16)
    got = {(a, b) for a, b in zip(pairs["a"].to_pylist(), pairs["b"].to_pylist())}
    assert (3, 10) in got and (3, 11) in got and (10, 11) in got
    assert (4, 12) in got and (5, 13) in got
    # every returned pair truly clears the threshold (verify step is exact)
    cfg = REGISTRY["standard"]
    texts = _docs_table()["text"].to_pylist()
    for a, b, j in zip(pairs["a"].to_pylist(), pairs["b"].to_pylist(),
                       pairs["jaccard"].to_pylist()):
        jj = exact_jaccard(analyze_text(texts[a], cfg), analyze_text(texts[b], cfg))
        assert j == pytest.approx(jj, abs=1e-6)
        assert jj >= 0.7


def test_minhash_agrees_with_exact_shingle_jaccard(docs_ds):
    """On this small corpus LSH must recover every pair the exact oracle
    finds at a comfortably-above-band threshold."""
    exact = jaccard_pairs_exact(_docs_table(), threshold=0.8, use_shingles=True)
    lsh = minhash_dup_pairs(docs_ds, threshold=0.8)
    exact_pairs = set(zip(exact["a"].to_pylist(), exact["b"].to_pylist()))
    lsh_pairs = set(zip(lsh["a"].to_pylist(), lsh["b"].to_pylist()))
    assert exact_pairs == lsh_pairs


def test_simhash_pairs(docs_ds):
    pairs = simhash_dup_pairs(docs_ds, max_hamming=6)
    got = {(a, b) for a, b in zip(pairs["a"].to_pylist(), pairs["b"].to_pylist())}
    assert (3, 10) in got and (3, 11) in got      # identical docs: hamming 0
    for h in pairs["hamming"].to_pylist():
        assert 0 <= h <= 6


def test_fold_partitions_is_data_sized():
    """The bucket-fold partition count follows the exchange's bytes: a
    tiny exchange is one partition, a huge one clamps at the bucket
    domain (a bucket is never split)."""
    from org_rdkit_lucene_ray.util import (
        FOLD_PARTITION_BYTES,
        fold_buckets,
        fold_partitions,
    )

    nb = fold_buckets()
    assert fold_partitions(0, nb) == 1
    assert fold_partitions(4096, nb) == 1
    assert fold_partitions(FOLD_PARTITION_BYTES, nb) == 1
    assert fold_partitions(3 * FOLD_PARTITION_BYTES + 1, nb) == 4
    assert fold_partitions(10 ** 15, nb) == nb
    assert fold_partitions(10 ** 15, 7) == 7


def test_bucket_fold_keeps_buckets_whole(ray_session, monkeypatch):
    """At P = fold_buckets() every key still folds in exactly one call:
    each key's rows, spread over 8 input blocks, come back as ONE row
    with the full count, and the exchange really ran P partitions. The
    same holds with an empty block among the inputs and with keys that
    fill only 3 of the buckets; an empty Dataset folds to no rows. At
    both P the fold never sees an empty table and the answers agree."""
    import pyarrow.compute as pc

    from org_rdkit_lucene_ray import util

    nb = util.fold_buckets()
    keys = np.arange(3000, dtype=np.int64) % 500
    t = pa.table({"key": pa.array(keys), "_bkt": pa.array(keys % nb)})
    few = t.set_column(1, "_bkt", pa.array(keys % 3))
    blocks = [t.slice(i, 375) for i in range(0, 3000, 375)]
    inputs = {
        "spread": rd.from_arrow(blocks),
        "empty_block": rd.from_arrow(blocks[:3] + [t.slice(0, 0)] + blocks[3:]),
        "few_buckets": rd.from_arrow([few.slice(i, 375) for i in range(0, 3000, 375)]),
        "empty": rd.from_arrow(t.slice(0, 0)),
    }

    def fold(g: pa.Table) -> pa.Table:
        assert "_bkt" not in g.column_names and g.num_rows
        gg = g.group_by("key").aggregate([("key", "count")])
        return pa.table({"key": gg["key"],
                         "n": pc.cast(gg["key_count"], pa.int64())})

    for part_bytes, want_blocks in ((util.FOLD_PARTITION_BYTES, 1), (1, nb)):
        monkeypatch.setattr(util, "FOLD_PARTITION_BYTES", part_bytes)
        for name, ds in inputs.items():
            out = util.bucket_fold(ds, fold).materialize()
            got = sorted((r["key"], r["n"]) for r in out.take_all())
            if name == "empty":
                assert got == []
            else:
                assert out.num_blocks() == want_blocks, name
                assert got == [(k, 6) for k in range(500)], name


def test_fold_bucket_domain_resolved_on_driver(ray_session, monkeypatch):
    """``fold_by_key`` resolves the bucket domain once, on the driver, and
    the workers bucket with it: with ``ORL_FOLD_BUCKETS=3`` set in the
    driver only (the workers started without it, so a worker-side
    ``fold_buckets()`` would give 64) and one partition per bucket, each
    fold call gets exactly the keys of one driver-side bucket."""
    from org_rdkit_lucene_ray import util
    from org_rdkit_lucene_ray.pipelines.build import stable_term_hash

    monkeypatch.setenv("ORL_FOLD_BUCKETS", "3")
    monkeypatch.setattr(util, "FOLD_PARTITION_BYTES", 1)
    vocab = [f"k{i}" for i in range(200)]
    t = pa.table({"key": pa.array([vocab[i % 200] for i in range(600)])})
    ds = rd.from_arrow([t.slice(i, 100) for i in range(0, 600, 100)])

    def fold(g: pa.Table) -> pa.Table:
        return pa.table({"keys": [sorted(set(g["key"].to_pylist()))]})

    got = sorted(tuple(r["keys"]) for r in util.fold_by_key(ds, "key", fold).take_all())
    b = stable_term_hash(pa.array(vocab)) % 3
    want = sorted(tuple(sorted(k for k, kb in zip(vocab, b) if kb == j))
                  for j in range(3))
    assert got == want


def test_bucket_fold_answers_independent_of_partition_count(ray_session,
                                                            monkeypatch):
    """Exact dedup, MinHash pairs, adjacent-pair counts and exact
    distinct counts are identical at P = 1 and at P = fold_buckets()
    (FOLD_PARTITION_BYTES forced to 1 byte): every fold is correct on
    any union of whole buckets. At both P an empty Dataset gives no
    exact groups and no MinHash pairs."""
    from org_rdkit_lucene_ray import synth, util
    from org_rdkit_lucene_ray.stages.lm import top_adjacent_pairs
    from org_rdkit_lucene_ray.stages.window import tumbling_distinct

    texts = synth.gen_pages(600, seed=5)["text"].to_pylist()
    for dst in range(0, 600, 40):              # exact copies across blocks
        texts[dst] = texts[(dst * 7 + 13) % 600]
    t = pa.table({"doc_id": pa.array(range(600), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    docs = rd.from_arrow([t.slice(i, 75) for i in range(0, 600, 75)])
    events = rd.from_pandas(_events_df()).repartition(8)

    def answers():
        groups = sorted((r["doc_id"], r["n_copies"])
                        for r in exact_dedup_groups(docs).take_all())
        mh = minhash_dup_pairs(docs, threshold=0.5)
        pairs = top_adjacent_pairs(docs, k=30, method="exact")
        distinct = (tumbling_distinct(events, width_secs=600).to_pandas()
                    .sort_values(["event_type", "window_start"])
                    .reset_index(drop=True))
        return groups, mh, pairs, distinct

    empty_docs = rd.from_arrow(t.slice(0, 0))
    one = answers()
    assert exact_dedup_groups(empty_docs).take_all() == []
    assert minhash_dup_pairs(empty_docs).num_rows == 0
    monkeypatch.setattr(util, "FOLD_PARTITION_BYTES", 1)
    many = answers()
    assert exact_dedup_groups(empty_docs).take_all() == []
    assert minhash_dup_pairs(empty_docs).num_rows == 0
    assert any(n > 1 for _, n in one[0])
    assert one[0] == many[0]
    assert one[1].num_rows > 0 and one[1].equals(many[1])
    assert one[2].equals(many[2])
    pd.testing.assert_frame_equal(one[3], many[3])


# --------------------------------------------------------------------- ann
def _emb_table(n=64, d=16, seed=7) -> pa.Table:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, d))
    return pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([row.tolist() for row in m], pa.list_(pa.float32())),
    })


def test_brute_force_topk_matches_numpy(ray_session):
    from org_rdkit_lucene_ray.stages.ann import brute_force_topk, _emb_matrix

    tbl = _emb_table()
    ds = rd.from_arrow(tbl).repartition(4)
    M = _emb_matrix(tbl)
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    queries = {"qids": np.array([0, 5], dtype=np.int64), "vectors": M[[0, 5]]}
    out = brute_force_topk(ds, queries, k=5).to_pandas()
    sims = Mn @ Mn[[0, 5]].T
    for col, qid in [(0, 0), (1, 5)]:
        want = np.lexsort((np.arange(len(M)), -sims[:, col]))[:5]
        got = out[out.query_id == qid].sort_values("rank")["vec_id"].tolist()
        assert got == want.tolist()
        assert out[out.query_id == qid].sort_values("rank")["sim"].iloc[0] == pytest.approx(1.0)


def test_ivf_recall(ray_session):
    from org_rdkit_lucene_ray.stages.ann import brute_force_topk, ivf_topk, _emb_matrix

    tbl = _emb_table(n=256, d=8, seed=9)
    ds = rd.from_arrow(tbl).repartition(4)
    M = _emb_matrix(tbl)
    queries = {"qids": np.array([1, 2, 3], dtype=np.int64), "vectors": M[[1, 2, 3]]}
    bf = brute_force_topk(ds, queries, k=10).to_pandas()
    iv = ivf_topk(ds, queries, k=10, nlist=8, nprobe=4).to_pandas()
    recalls = []
    for q in [1, 2, 3]:
        b = set(bf[bf.query_id == q]["vec_id"])
        i = set(iv[iv.query_id == q]["vec_id"])
        recalls.append(len(b & i) / len(b))
    assert np.mean(recalls) >= 0.6


def test_cosine_threshold(ray_session):
    from org_rdkit_lucene_ray.stages.ann import cosine_threshold_search, _emb_matrix

    tbl = _emb_table(n=64, d=8, seed=3)
    ds = rd.from_arrow(tbl)
    M = _emb_matrix(tbl)
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    queries = {"qids": np.array([2], dtype=np.int64), "vectors": M[[2]]}
    out = cosine_threshold_search(ds, queries, threshold=0.5).to_pandas()
    want = np.flatnonzero(Mn @ Mn[2] >= 0.5)
    assert sorted(out["vec_id"]) == want.tolist()


# --------------------------------------------------------------- textstats
def test_token_stats_and_quality(ray_session):
    from org_rdkit_lucene_ray.stages.textstats import (
        quality_score_batch,
        token_stats_batch,
    )

    tbl = _docs_table()
    out = token_stats_batch(tbl)
    cfg = REGISTRY["standard"]
    for i in range(tbl.num_rows):
        t = tbl["text"][i].as_py()
        assert out["n_tokens"][i].as_py() == len(analyze_text(t, cfg))
        assert out["n_ws_tokens"][i].as_py() == len(t.split())
    q = quality_score_batch(tbl)
    qs = q["quality"].to_numpy()
    assert np.all(qs > 0) and np.all(qs <= 1.0000001)
    ar = q["alpha_ratio"].to_numpy()
    assert np.all((ar >= 0) & (ar <= 1))


def test_fingerprints(ray_session):
    from org_rdkit_lucene_ray.stages.textstats import (
        md5_fingerprint_batch,
        rolling_fingerprint_batch,
    )

    tbl = _docs_table()
    out = md5_fingerprint_batch(tbl)
    assert out["fp_md5"][0].as_py() == hashlib.md5(
        tbl["text"][0].as_py().encode()).hexdigest()
    roll = rolling_fingerprint_batch(tbl)
    # identical docs -> identical rolling fp
    r = roll["fp_roll"].to_pylist()
    assert r[3] == r[10] == r[11]
    # docs sharing no word 8-grams -> different min-hash fingerprints
    disjoint = pa.table({"text": pa.array([
        "alpha beta gamma delta epsilon zeta eta theta iota kappa",
        "one two three four five six seven eight nine ten eleven",
    ])})
    r2 = rolling_fingerprint_batch(disjoint)["fp_roll"].to_pylist()
    assert r2[0] != r2[1]


def test_langid(ray_session):
    from org_rdkit_lucene_ray.stages.textstats import LangIdStage

    tbl = pa.table({"text": pa.array([
        "the cat sat on the mat and it is happy",
        "el perro corre en la calle y se va de los parques",
        "der hund und die katze sind mit den kindern auf dem hof",
        "le chien et le chat sont dans les jardins de la ville",
        "这是一个中文句子",
        "",
    ])})
    out = LangIdStage()(tbl)
    assert out["lang_pred"].to_pylist() == ["en", "es", "de", "fr", "zh", "und"]


# ----------------------------------------------------------------- windows
def _events_df(n=500, seed=11) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    ts = pd.Timestamp("2024-01-01") + pd.to_timedelta(
        np.sort(rng.integers(0, 6 * 3600, size=n)), unit="s")
    return pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": ts,
        "user_id": rng.integers(0, 20, size=n).astype(np.int64),
        "event_type": rng.choice(["click", "view", "buy"], size=n),
        "value": np.round(rng.uniform(0, 100, size=n), 3),
    })


def test_tumbling_window(ray_session):
    from org_rdkit_lucene_ray.stages.window import tumbling_window_agg

    df = _events_df()
    ds = rd.from_pandas(df).repartition(4)
    out = tumbling_window_agg(ds, width_secs=3600).to_pandas()
    df2 = df.copy()
    df2["window_start"] = df2["ts"].dt.floor("1h")
    want = df2.groupby(["event_type", "window_start"]).agg(
        n_events=("value", "size"), sum_value=("value", "sum"),
        min_value=("value", "min"), max_value=("value", "max")).reset_index()
    got = out.sort_values(["event_type", "window_start"]).reset_index(drop=True)
    want = want.sort_values(["event_type", "window_start"]).reset_index(drop=True)
    assert got["n_events"].tolist() == want["n_events"].tolist()
    np.testing.assert_allclose(got["sum_value"], want["sum_value"], atol=1e-3)
    np.testing.assert_allclose(got["min_value"], want["min_value"])


def test_sessionize(ray_session):
    from org_rdkit_lucene_ray.stages.window import sessionize

    df = _events_df()
    ds = rd.from_pandas(df).repartition(4)
    out = sessionize(ds, gap_secs=600).to_pandas().sort_values("user_id")
    for uid, g in df.groupby("user_id"):
        # pandas ts is ns; engine normalizes to MICROSECONDS and compares
        # the gap against gap_secs * 1e6 (true-seconds semantics, matching
        # the SQL oracle's epoch_us — ADVICE r1)
        ts_us = np.sort(g["ts"].astype("int64").to_numpy() // 1_000)
        n_sessions = 1 + int((np.diff(ts_us) > 600 * 1_000_000).sum())
        row = out[out.user_id == uid].iloc[0]
        assert row["n_events"] == len(g)
        assert row["n_sessions"] == n_sessions


def test_grouped_topn(ray_session):
    from org_rdkit_lucene_ray.stages.window import grouped_topn

    df = _events_df()
    ds = rd.from_pandas(df).repartition(4)
    out = grouped_topn(ds, n=2).to_pandas()
    for et, g in df.groupby("event_type"):
        want = g.sort_values(["value", "event_id"], ascending=[False, True]).head(2)
        got = out[out.event_type == et].sort_values("rank")
        assert got["event_id"].tolist() == want["event_id"].tolist()


# -------------------------------------------------------------- multimodal
def test_media_feature_plumbing(ray_session):
    from org_rdkit_lucene_ray.stages.multimodal import (
        FrameSampleStage,
        MediaFeatureStage,
        attach_payload,
        media_features,
        FEATURE_DIM,
    )

    tbl = attach_payload(_docs_table())
    assert tbl.schema.names == ["media_id", "mime", "payload", "n_bytes"]
    ds = rd.from_arrow(tbl).repartition(2)
    feats = media_features(ds).to_pandas()
    assert len(feats) == tbl.num_rows
    v = np.asarray(feats.iloc[0]["feature"], dtype=np.float32)
    assert v.shape == (FEATURE_DIM,)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-5)
    # determinism: same payload -> same feature (rows 3 and 10 are dups)
    f = feats.set_index("media_id")
    np.testing.assert_array_equal(np.asarray(f.loc[3, "feature"]),
                                  np.asarray(f.loc[10, "feature"]))
    # real decoder refuses mimes it has no pure-python codec for
    # (full real-path coverage lives in test_media_codec.py)
    with pytest.raises(NotImplementedError):
        MediaFeatureStage(decoder="real")(tbl.slice(0, 1))
    frames = FrameSampleStage(n_frames=3)(tbl)
    assert frames.schema.names == ["media_id", "frame_idx", "frame"]
    # frames of one item concatenate back to the payload
    m0 = frames.filter(pa.compute.equal(frames["media_id"], 0))
    assert b"".join(m0["frame"].to_pylist()) == tbl["payload"][0].as_py()


def test_embedding_dup_pairs(ray_session):
    """Exact embedding near-dup == numpy oracle; IVF-bucketed variant is a
    subset with high recall on same-cluster dups."""
    from org_rdkit_lucene_ray.stages.ann import (
        _emb_matrix,
        embedding_dup_pairs,
        embedding_dup_pairs_ivf,
    )

    rng = np.random.default_rng(21)
    base = rng.standard_normal((60, 12))
    # plant near-dups: rows 50-59 are jittered copies of rows 0-9
    for i in range(10):
        base[50 + i] = base[i] + rng.normal(0, 0.03, 12)
    tbl = pa.table({
        "vec_id": pa.array(range(60), pa.int64()),
        "embedding": pa.array([r.tolist() for r in base], pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl).repartition(3)
    M = _emb_matrix(tbl)
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    sims = Mn @ Mn.T
    ii, jj = np.nonzero(np.triu(sims >= 0.95, k=1))
    want = sorted(zip(ii.tolist(), jj.tolist()))
    assert len(want) >= 10                      # the planted pairs qualify

    exact = embedding_dup_pairs(ds, threshold=0.95)
    got = sorted(zip(exact["a"].to_pylist(), exact["b"].to_pylist()))
    assert got == want

    ivf = embedding_dup_pairs_ivf(ds, threshold=0.95, nlist=4)
    got_ivf = set(zip(ivf["a"].to_pylist(), ivf["b"].to_pylist()))
    assert got_ivf <= set(want)                 # no false positives
    assert len(got_ivf) >= 0.8 * len(want)      # near-identical pairs co-cluster


def test_ivf_pairs_refuse_oversized_cell(ray_session, monkeypatch):
    """An undersized ``nlist`` must fail loudly with sizing guidance, never
    run an O(n²) cell silently (r3 verdict #9; same ceiling as LSH buckets)."""
    from org_rdkit_lucene_ray.stages import dedup
    from org_rdkit_lucene_ray.stages.ann import embedding_dup_pairs_ivf

    rng = np.random.default_rng(3)
    M = rng.standard_normal((40, 8))
    tbl = pa.table({
        "vec_id": pa.array(range(40), pa.int64()),
        "embedding": pa.array([r.tolist() for r in M], pa.list_(pa.float32())),
    })
    monkeypatch.setattr(dedup, "_MAX_LSH_BUCKET", 5)
    with pytest.raises(Exception, match="raise nlist"):
        embedding_dup_pairs_ivf(rd.from_arrow(tbl), threshold=0.5, nlist=1)


# ---------------------------------------------------------------- export
def test_export_curated_partitioned_resume(ray_session, tmp_path_factory):
    """Quality-filtered export lands lang-partitioned Parquet, resumable
    per fragment (skip-if-exists on the _done marker)."""
    import duckdb
    import pyarrow.parquet as pq

    from org_rdkit_lucene_ray.pipelines.export import export_curated
    from org_rdkit_lucene_ray.synth import gen_pages

    t = gen_pages(300, seed=11, dup_url_frac=0.0, near_dup_frac=0.0)
    src = tmp_path_factory.mktemp("exp_pages")
    for f in range(3):
        pq.write_table(t.slice(f * 100, 100), str(src / f"p-{f:05d}.parquet"))
    out = str(tmp_path_factory.mktemp("exp_out"))

    m1 = export_curated(str(src), out, min_quality=0.6)
    assert m1["resumed"] == 0
    con = duckdb.connect()
    want = con.execute(
        f"SELECT count(*) FROM read_parquet('{src}/*.parquet') "
        "WHERE 1=1").fetchone()[0]
    got = con.execute(
        f"SELECT count(*) FROM read_parquet('{out}/lang=*/*.parquet')").fetchone()[0]
    assert got == m1["rows_kept"] <= want
    assert m1["rows_kept"] > 0
    # partition dirs exist and carry only their language
    langs = [d for d in os.listdir(out) if d.startswith("lang=")]
    assert len(langs) >= 2
    one = con.execute(
        f"SELECT DISTINCT lang FROM read_parquet('{out}/{langs[0]}/*.parquet')"
    ).fetchall()
    assert one == [(langs[0].split("=")[1],)]

    # resume: drop one fragment's marker + outputs -> only that one re-runs
    os.remove(os.path.join(out, ".done-000001"))
    m2 = export_curated(str(src), out, min_quality=0.6)
    assert m2["resumed"] == 2
    assert m2["rows_kept"] == m1["rows_kept"]


def test_resize_stage_plumbing(ray_session):
    from org_rdkit_lucene_ray.stages.multimodal import ResizeStage, attach_payload

    t = _docs_table()
    media = attach_payload(t)
    out = ResizeStage(width=8, height=4, channels=3)(media)
    assert out.num_rows == t.num_rows
    assert set(out["n_bytes"].to_pylist()) == {8 * 4 * 3}
    assert out["width"].to_pylist() == [8] * t.num_rows
    # deterministic: same payload -> same resized bytes
    again = ResizeStage(width=8, height=4, channels=3)(media)
    assert out["payload"].to_pylist() == again["payload"].to_pylist()
    import pytest as _pt
    with _pt.raises(NotImplementedError):     # image/fake mime, real path
        ResizeStage(decoder="real")(media.slice(0, 1))


def test_batch_shingles_match_per_doc():
    """_batch_shingles is value-identical to per-doc _shingle_hashes."""
    from org_rdkit_lucene_ray.functions.analyze import tokenize_column
    from org_rdkit_lucene_ray.stages.dedup import _batch_shingles, _shingle_hashes

    t = _docs_table()
    texts = list(t["text"].to_pylist()) + ["", "one", "two words", "a b c"]
    arr = pa.array(texts, pa.string())
    toks = tokenize_column(arr, REGISTRY["standard"])
    parents, hashes = _batch_shingles(toks, shingle=3)
    for i, doc in enumerate(toks.to_pylist()):
        want = np.sort(_shingle_hashes(doc, 3))
        got = hashes[parents == i]
        assert got.tolist() == want.tolist(), i


def test_minhash_signatures_match_modulo_reference():
    """The division-free Mersenne fold equals ``v % (2^61 - 1)`` on random
    uint64 and on its edge values, and ``MinHashStage.signatures`` is
    bit-identical to the plain ``(a*x + b) % (2^61 - 1)`` permutation
    over a synth slice; a doc with no shingles keeps the all-max
    sentinel row."""
    from org_rdkit_lucene_ray import synth
    from org_rdkit_lucene_ray.functions.analyze import tokenize_column
    from org_rdkit_lucene_ray.stages.dedup import (
        _MERSENNE,
        MinHashStage,
        _batch_shingles,
        _mod_mersenne,
    )

    P = np.uint64(_MERSENNE)
    edge = np.array([0, 1, P - 1, P, P + 1, 2 * P, 2 * P + 7, 2 ** 64 - 1],
                    np.uint64)
    rand = np.random.default_rng(3).integers(0, 2 ** 64 - 1, 100_000,
                                             np.uint64, endpoint=True)
    v = np.concatenate([edge, rand])
    assert np.array_equal(_mod_mersenne(v.copy(), np.empty_like(v)), v % P)

    texts = synth.gen_pages(200, seed=3)["text"].to_pylist() + ["", "one two"]
    arr = pa.array(texts, pa.string())
    st = MinHashStage()
    got = st.signatures(arr)
    parents, flat = _batch_shingles(tokenize_column(arr, st.cfg), st.shingle)
    want = np.full((len(texts), st.num_perm), np.iinfo(np.uint64).max, np.uint64)
    x = flat % P
    for p in range(st.num_perm):
        np.minimum.at(want[:, p], parents, (st.a[p] * x + st.b[p]) % P)
    assert np.array_equal(got, want)
    assert (got[200] == np.iinfo(np.uint64).max).all()
    assert not (got[:200] == np.iinfo(np.uint64).max).all(axis=1).any()


def test_simhash_batch_matches_per_doc(ray_session):
    """Batch-vectorized SimHash is value-identical to the per-doc formula."""
    from org_rdkit_lucene_ray.functions.analyze import tokenize_column
    from org_rdkit_lucene_ray.stages.dedup import SimHashStage, _fnv1a_tokens

    t = _docs_table()
    texts = list(t["text"].to_pylist()) + ["", "solo"]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    got = SimHashStage()(tbl)["simhash"].to_numpy().astype(np.uint64)
    toks = tokenize_column(tbl["text"].combine_chunks(), REGISTRY["standard"])
    for i, doc in enumerate(toks.to_pylist()):
        if not doc:
            assert got[i] == 0
            continue
        h = _fnv1a_tokens(doc)
        bits = np.unpackbits(h.view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little")
        votes = bits.astype(np.int64).sum(axis=0) * 2 - len(doc)
        want = np.packbits((votes > 0).astype(np.uint8),
                           bitorder="little").view(np.uint64)[0]
        assert got[i] == want, i


def test_simhash_hot_bucket_refinement():
    """_refine_pairs: identical-hash clusters -> star pairs; every true
    near pair (hamming <= 3) among distinct values survives refinement."""
    from org_rdkit_lucene_ray.stages.dedup import _refine_pairs

    # identical cluster of 100 -> 99 star pairs from the min id
    ids = np.arange(100, dtype=np.int64)
    h = np.full(100, 0x1234_5678_9ABC_DEF0, dtype=np.uint64)
    out = _refine_pairs(ids, h, frozenset(range(16)), 3, refine_threshold=10)
    assert out.num_rows == 99
    assert set(out["a"].to_pylist()) == {0}
    assert sorted(out["b"].to_pylist()) == list(range(1, 100))

    # distinct values with planted near pairs: candidates must cover them
    rng = np.random.default_rng(3)
    base = rng.integers(0, 2**63, size=300, dtype=np.int64).astype(np.uint64)
    h2 = base.copy()
    planted = []
    for i in range(0, 40, 2):
        flip = np.uint64(0)
        for b in rng.choice(48, size=int(rng.integers(0, 4)), replace=False):
            flip |= np.uint64(1) << np.uint64(16 + int(b))  # keep band 0 clean
        h2[i + 1] = h2[i] ^ flip
        planted.append((i, i + 1))
    ids2 = np.arange(300, dtype=np.int64)
    out2 = _refine_pairs(ids2, h2, frozenset(range(16)), 3, refine_threshold=8)
    # representative mapping: identical pairs (flip==0) become star pairs,
    # others must appear directly
    got = set(zip(out2["a"].to_pylist(), out2["b"].to_pylist()))
    for a, b in planted:
        xor = int(h2[a] ^ h2[b])
        if bin(xor).count("1") <= 3 and int((xor & 0xFFFF)) == 0:
            assert (a, b) in got, (a, b, hex(xor))


def test_dedup_degeneracy_guards():
    """Oversized LSH buckets and over-budget simhash refinement raise
    explicit, actionable errors instead of emitting quadratic candidates."""
    from org_rdkit_lucene_ray.stages.dedup import (
        _MAX_LSH_BUCKET,
        _PairBudget,
        _pairs_of_bucket_groups,
        _refine_pairs,
    )

    n = _MAX_LSH_BUCKET + 1                    # one (band, band_hash) bucket
    big = pa.table({"band": pa.array(np.zeros(n, np.int32)),
                    "band_hash": pa.array(np.full(n, 7, np.int64)),
                    "doc_id": pa.array(np.arange(n, dtype=np.int64))})
    with pytest.raises(ValueError, match="exact dedup first"):
        _pairs_of_bucket_groups(big)

    ids = np.arange(100, dtype=np.int64)
    h = np.full(100, 7, dtype=np.uint64)       # identical: 99 star pairs
    with pytest.raises(ValueError, match="per-bucket ceiling"):
        _refine_pairs(ids, h, frozenset(range(16)), 3, refine_threshold=10,
                      budget=_PairBudget(50))


def test_pair_budget_nets_to_distinct_pairs():
    """The per-bucket candidate budget charges NET (post-dedup) pairs: a
    pair surviving in several pigeonhole sub-bands is charged once, so the
    ceiling reflects the true distinct candidate count (ADVICE r2)."""
    from org_rdkit_lucene_ray.stages.dedup import _PairBudget, _refine_pairs

    rng = np.random.default_rng(11)
    # distinct hashes, oversized bucket -> recursion with sub-band overlap
    h = rng.integers(0, 2**63, size=400, dtype=np.int64).astype(np.uint64)
    h = np.unique(h)
    ids = np.arange(h.size, dtype=np.int64)
    big = 10_000_000
    budget = _PairBudget(big)
    out = _refine_pairs(ids, h, frozenset(range(16)), 3, refine_threshold=16,
                        budget=budget)
    assert big - budget.left == out.num_rows   # net charge == distinct pairs


def test_minhash_distributed_verify_equals_broadcast(docs_ds):
    """The hash-partitioned co-group verify (100 TB path) produces the
    IDENTICAL verified pair table as the broadcast-LUT fast path."""
    fast = minhash_dup_pairs(docs_ds, threshold=0.7, num_perm=64, bands=16)
    dist = minhash_dup_pairs(docs_ds, threshold=0.7, num_perm=64, bands=16,
                             broadcast_candidate_limit=0)
    assert fast.num_rows > 0                 # planted near dups found
    assert dist.equals(fast)


def test_hopping_window_agg(ray_session):
    """hop == width reduces exactly to the tumbling aggregate; hop < width
    multiplies membership by width/hop."""
    import pyarrow.compute as pc

    from org_rdkit_lucene_ray.stages.window import (
        hopping_window_agg,
        tumbling_window_agg,
    )

    n = 500
    t = pa.table({
        "event_type": pa.array([f"t{i % 3}" for i in range(n)]),
        "ts": pa.array(np.arange(n, dtype=np.int64) * 137_000_000
                       ).cast(pa.timestamp("us")),
        "value": pa.array(np.round(np.random.default_rng(5).uniform(
            0, 100, n), 2)),
    })
    ds = rd.from_arrow(t).repartition(4)
    hop_eq = hopping_window_agg(ds, width_secs=3600, hop_secs=3600,
                                value_decimals=2).to_pandas()
    tumb = tumbling_window_agg(ds, width_secs=3600,
                               value_decimals=2).to_pandas()
    cols = ["event_type", "window_start", "n_events", "sum_value",
            "min_value", "max_value"]
    a = hop_eq[cols].sort_values(cols[:2]).reset_index(drop=True)
    b = tumb[cols].sort_values(cols[:2]).reset_index(drop=True)
    assert a.equals(b)
    hop4 = hopping_window_agg(ds, width_secs=3600, hop_secs=900,
                              value_decimals=2).to_pandas()
    assert hop4["n_events"].sum() == 4 * n       # every event in 4 windows
    with pytest.raises(ValueError, match="multiple"):
        hopping_window_agg(ds, width_secs=3600, hop_secs=1000)


def test_hll_sketch_accuracy_and_merge():
    """HLL registers: vectorized rank computation, merge associativity, and
    estimate accuracy across the linear-counting and raw regimes."""
    from org_rdkit_lucene_ray.stages.sketch import (
        hll_estimate,
        hll_registers,
    )

    rng = np.random.default_rng(2)
    for n in (100, 3000, 50_000, 400_000):
        h = np.unique(rng.integers(0, 2**64, size=n, dtype=np.uint64))
        est = hll_estimate(hll_registers(h))
        assert abs(est / h.size - 1.0) < 0.05, (n, est)
        # split-merge == whole (elementwise max associativity)
        r1 = hll_registers(h[: n // 2])
        r2 = hll_registers(h[n // 2:])
        assert hll_estimate(np.maximum(r1, r2)) == est
    # duplicates do not move the estimate
    h = rng.integers(0, 2**64, size=10_000, dtype=np.uint64)
    assert hll_estimate(hll_registers(np.tile(h, 3))) == \
        hll_estimate(hll_registers(h))


def test_repetition_stats_edge_cases():
    """Gopher repetition features: dominated doc drops, diverse doc keeps,
    empty/single-token docs get dup_frac 1.0 consistently."""
    import numpy as np
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.textstats import repetition_stats_batch

    batch = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "spam spam spam spam spam spam spam spam spam spam",  # dominated
            " ".join(f"w{i} x{i}" for i in range(40)),             # diverse
            "",                                                    # empty
            "single",                                              # one token
        ]),
    })
    out = repetition_stats_batch(batch)
    top = out["top_tok_frac"].to_numpy()
    keep = out["keep"].to_numpy()
    assert top[0] == 1.0 and keep[0] == 0
    assert keep[1] == 1
    assert out["n_tokens"].to_numpy().tolist() == [10, 80, 0, 1]
    # empty -> 0 distinct / max(0,1) => dup 1.0; single token -> 0 bigrams
    assert out["dup_tok_frac"].to_numpy()[2] == 1.0
    assert out["dup_2gram_frac"].to_numpy()[3] == 1.0
    assert keep[2] == 0 and keep[3] == 0
    # bigram domination: "a b a b a b" -> top bigram a_b count 3 of 5
    b2 = pa.table({"doc_id": pa.array([0], pa.int64()),
                   "text": pa.array(["a b a b a b"])})
    o2 = repetition_stats_batch(b2)
    assert np.isclose(o2["top_2gram_frac"].to_numpy()[0], 3 / 5)


def test_paragraph_dedup_stats(ray_session):
    """First global occurrence (min doc_id, then min line idx) wins; empty
    lines are skipped but keep their line-number positions; all-empty docs
    emit no row."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.dedup import paragraph_dedup_stats

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "alpha\nbeta\n\ngamma",       # idx 0,1,3 (2 is empty)
            "beta\nalpha\ndelta",          # beta+alpha dup -> only delta kept
            "gamma\ngamma",                # both copies lose to doc 1
            "\n\n",                        # all-empty -> no output row
        ]),
    })).repartition(3)
    out = {r["doc_id"]: r for r in
           paragraph_dedup_stats(docs).take_all()}
    assert set(out) == {1, 2, 3}
    assert (out[1]["n_paras"], out[1]["n_kept"]) == (3, 3)
    assert (out[2]["n_paras"], out[2]["n_kept"]) == (3, 1)
    assert (out[3]["n_paras"], out[3]["n_kept"]) == (2, 0)


def test_stratified_sample_deterministic(ray_session):
    """Same sample regardless of partitioning; rates roughly honored;
    unlisted strata drop entirely."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.sample import stratified_sample

    n = 4000
    tbl = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "lang": pa.array(["en", "fr", "xx", "zh"] * (n // 4)),
    })
    rates = {"en": 0.5, "fr": 1.0, "zh": 0.1}
    a = sorted(r["doc_id"] for r in stratified_sample(
        rd.from_arrow(tbl).repartition(2), rates=rates,
        stratum_col="lang").take_all())
    b = sorted(r["doc_id"] for r in stratified_sample(
        rd.from_arrow(tbl).repartition(13), rates=rates,
        stratum_col="lang").take_all())
    assert a == b and a
    langs = [tbl["lang"][i].as_py() for i in a]
    assert "xx" not in langs
    assert langs.count("fr") == n // 4                  # rate 1.0 keeps all
    assert abs(langs.count("en") / (n // 4) - 0.5) < 0.06
    assert abs(langs.count("zh") / (n // 4) - 0.1) < 0.04


def test_duplicate_span_stats(ray_session):
    """Interval-union arithmetic: overlapping gram hits merge; repeats
    within one doc count; clean docs emit no row."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.dedup import duplicate_span_stats

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "a b c d e f g h",            # grams at 0..3 vs doc2: 0,1 shared
            "a b c d e f x y",            # shares 'a b c d e'/'b c d e f'
            "q r s t u v w",              # clean
        ]),
    })).repartition(2)
    out = {r["doc_id"]: r for r in
           duplicate_span_stats(docs, k=5).take_all()}
    assert set(out) == {1, 2}
    # doc1: dup grams at pos 0 and 1 -> union [0,5) u [1,6) = 6 tokens
    assert (out[1]["dup_grams"], out[1]["covered_tokens"],
            out[1]["n_tokens"]) == (2, 6, 8)
    assert (out[2]["dup_grams"], out[2]["covered_tokens"]) == (2, 6)


def test_connected_components_topologies(ray_session):
    """Large-star/small-star CC: path, clique, pair, and a bridge merging
    two structures all label to the component-min doc id."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.components import connected_components

    pairs = pa.table({"a": [1, 2, 3, 4, 10, 10, 11, 20, 30, 31, 32],
                      "b": [2, 3, 4, 5, 11, 12, 12, 21, 31, 32, 5]})
    got = {r["doc_id"]: r["component_id"]
           for r in connected_components(pairs).take_all()}
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 30: 1, 31: 1, 32: 1,
                   10: 10, 11: 10, 12: 10, 20: 20, 21: 20}
    # empty graph -> empty labels, stable schema
    empty = connected_components(pairs.slice(0, 0))
    assert empty.count() == 0


def test_connected_components_random_vs_union_find(ray_session):
    """Property: CC labels == driver-side union-find on random graphs
    (including long paths, which stress the round count)."""
    import numpy as np
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.components import connected_components

    rng = np.random.default_rng(7)
    n = 300
    a = rng.integers(0, n, 400)
    b = rng.integers(0, n, 400)
    # add a deliberate long path over high ids (worst case for label prop)
    path = np.arange(n, n + 60)
    a = np.concatenate([a, path[:-1]])
    b = np.concatenate([b, path[1:]])
    keep = a != b
    a, b = a[keep], b[keep]

    parent = list(range(n + 60))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a.tolist(), b.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    # canonical min-id label per node that appears in an edge
    nodes = sorted(set(a.tolist()) | set(b.tolist()))
    label = {}
    for v in sorted(nodes):
        r = find(v)
        label.setdefault(r, v)  # first (smallest) member of the root's class
    want = {v: label[find(v)] for v in nodes}

    pairs = pa.table({"a": pa.array(a, pa.int64()),
                      "b": pa.array(b, pa.int64())})
    got = {r["doc_id"]: r["component_id"]
           for r in connected_components(pairs, n_buckets=8).take_all()}
    assert got == want


def test_near_dedup_end_to_end(docs_ds):
    """Pairs -> components -> survivors: kept set == component minima of
    the actual pair graph plus all unpaired docs (checked against a
    driver-side union-find over the same pairs); the precomputed-pairs
    path applies an explicit pair table exactly."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.components import near_dedup

    pairs = minhash_dup_pairs(docs_ds, threshold=0.7, num_perm=64, bands=16)
    kept = sorted(r["doc_id"] for r in
                  near_dedup(docs_ds, pairs=pairs).take_all())
    parent = list(range(30))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["a"].to_pylist(), pairs["b"].to_pylist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = sorted(d for d in range(30) if find(d) == d)
    assert kept == want
    # the planted dups never survive over their cluster minimum
    assert {10, 11, 12, 13}.isdisjoint(kept)
    # precomputed-pairs path: explicit pair table applied exactly
    pre = pa.table({"a": [3, 3, 4, 5], "b": [10, 11, 12, 13]})
    kept2 = sorted(r["doc_id"] for r in
                   near_dedup(docs_ds, pairs=pre).take_all())
    assert kept2 == sorted(set(range(30)) - {10, 11, 12, 13})


# --------------------------------------------------------------- decontaminate
def test_ngram_decontaminate_semantics(ray_session):
    """Distinct-gram counting, short-doc whole-gram contract, clean docs,
    and the n_dirty arithmetic against a hand-computed corpus."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.decontaminate import ngram_decontaminate

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "alpha beta gamma delta epsilon",   # contains bench gram at pos 1
            "zeta eta theta",                    # clean
            "beta gamma",                        # 2 tokens < n -> ONE whole gram
            "",                                  # no tokens -> no grams
        ]),
    }))
    bench = rd.from_arrow(pa.table({
        "text": pa.array(["beta gamma delta",    # one exact 3-gram
                          "beta gamma"]),        # a 2-token bench doc: whole-gram
    }))
    out = {r["doc_id"]: r for r in
           ngram_decontaminate(docs, bench, n=3).take_all()}
    # doc 0: grams = (a,b,g) (b,g,d) (g,d,e); (b,g,d) is the bench gram
    assert out[0]["n_grams"] == 3 and out[0]["n_dirty"] == 1
    assert out[0]["contaminated"] == 1
    # doc 1: 1 gram, clean
    assert out[1]["n_grams"] == 1 and out[1]["n_dirty"] == 0
    assert out[1]["contaminated"] == 0
    # doc 2: one whole-doc gram "beta gamma" == the short bench doc's gram
    assert out[2]["n_grams"] == 1 and out[2]["n_dirty"] == 1
    # doc 3: empty
    assert out[3]["n_grams"] == 0 and out[3]["n_dirty"] == 0


def test_ngram_decontaminate_empty_bench_and_guard(ray_session):
    """An empty benchmark yields an all-clean verdict; an oversized gram
    set refuses to broadcast."""
    import pyarrow as pa

    import org_rdkit_lucene_ray.stages.decontaminate as dc

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["alpha beta gamma", "delta epsilon zeta"]),
    }))
    empty_bench = rd.from_arrow(pa.table({"text": pa.array([], pa.string())}))
    out = dc.ngram_decontaminate(docs, empty_bench, n=2).take_all()
    assert all(r["n_dirty"] == 0 and r["contaminated"] == 0 for r in out)
    assert all(r["n_grams"] == 2 for r in out)

    old = dc.BENCH_GRAM_LIMIT
    dc.BENCH_GRAM_LIMIT = 1
    try:
        with pytest.raises(ValueError, match="SMALL"):
            dc.ngram_decontaminate(docs, docs, n=2)
    finally:
        dc.BENCH_GRAM_LIMIT = old


# ------------------------------------------------------------------ highlight
def test_highlight_hits_window_and_marking(ray_session):
    """Window clipping at the doc start, earliest-term anchoring, multi-hit
    docs (same doc in two queries), and term markup."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.highlight import highlight_hits

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([
            "alpha beta gamma delta epsilon zeta eta theta iota kappa",
            "one two three four five six seven eight nine ten eleven beta",
        ]),
    }))
    hits = pa.table({"query_id": pa.array([0, 0, 1], pa.int64()),
                     "rank": pa.array([0, 1, 0], pa.int64()),
                     "doc_id": pa.array([0, 1, 0], pa.int64())})
    terms = {0: ["beta", "eta"], 1: ["delta"]}
    out = {(r["query_id"], r["doc_id"]): r["snippet"]
           for r in highlight_hits(docs, hits, terms, window=2).take_all()}
    # doc 0 / q0: anchor = first 'beta' (pos 1); window clips at start
    assert out[(0, 0)] == "alpha <b>beta</b> gamma delta"
    # doc 1 / q0: 'beta' is the last token; window clips at the end
    assert out[(1, 1)] if (1, 1) in out else True
    assert out[(0, 1)] == "ten eleven <b>beta</b>"
    # doc 0 / q1: different query, different anchor on the SAME doc
    assert out[(1, 0)] == "beta gamma <b>delta</b> epsilon zeta"
    assert len(out) == 3


# ------------------------------------------------------------------ pagerank
def test_pagerank_both_paths_exact(ray_session):
    """Broadcast and hash-join paths produce bit-identical int64 ranks
    equal to the single-machine reference of the same integer recurrence,
    including dangling nodes (mass dropped) and no-in-edge nodes
    (teleport-only rank)."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.graph import (
        PR_SCALE,
        pagerank,
        pagerank_reference,
    )

    N = 60
    rng = np.random.default_rng(11)
    src = rng.integers(0, N - 2, 240)     # nodes N-2, N-1 dangling: no out
    dst = rng.integers(0, N, 240)
    keep = src != dst
    e = np.unique(np.stack([src[keep], dst[keep]], 1), axis=0)
    src, dst = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64)
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(3)
    want = pagerank_reference(src, dst, N, n_iter=4)

    got_b = {r["node"]: r["rank"]
             for r in pagerank(edges, N, n_iter=4).take_all()}
    got_j = {r["node"]: r["rank"]
             for r in pagerank(edges, N, n_iter=4,
                               broadcast_nodes_limit=0).take_all()}
    assert len(got_b) == N == len(got_j)
    assert all(got_b[n] == want[n] for n in range(N))
    assert all(got_j[n] == want[n] for n in range(N))
    # dangling mass is dropped, so total mass < PR_SCALE but positive
    assert 0 < sum(got_b.values()) <= PR_SCALE

    with pytest.raises(ValueError, match="positive"):
        pagerank(edges, 0)


def test_pagerank_tolerates_zero_column_blocks(ray_session):
    """Ray map_groups emits zero-COLUMN empty blocks for empty sort
    splits; fold-backed edge datasets (keyword_textrank at sf0.01) carry
    them through to_arrow_refs into the broadcast path's raw tasks, which
    crashed with KeyError('src') before the r5 guard. Reproduce with an
    explicit zero-column block unioned into the edge dataset."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.graph import pagerank, pagerank_reference

    src = np.array([0, 1, 2, 2], np.int64)
    dst = np.array([1, 2, 0, 1], np.int64)
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst})).union(
        rd.from_arrow(pa.table({})))
    want = pagerank_reference(src, dst, 3, n_iter=3)
    got = {r["node"]: r["rank"] for r in pagerank(edges, 3, n_iter=3).take_all()}
    assert got == {n: want[n] for n in range(3)}


def test_quantiles_tolerate_zero_column_blocks(ray_session):
    """Same empty-split class for the quantile descent's raw block tasks
    (exact/grouped/weighted all route through the guarded key helpers)."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.quantile import (
        exact_quantiles,
        exact_quantiles_by,
        exact_weighted_quantiles,
    )

    vals = np.arange(1, 101, dtype=np.float64)
    base = pa.table({"v": vals, "g": ["a" if i % 2 else "b" for i in range(100)],
                     "w": np.ones(100, np.int64)})
    ds = rd.from_arrow(base).union(rd.from_arrow(pa.table({})))
    q = exact_quantiles(ds, "v", [0.5])
    assert q["value"][0].as_py() == 50.0
    gq = exact_quantiles_by(ds, "v", "g", [0.5])
    assert gq.num_rows == 2
    wq = exact_weighted_quantiles(ds, "v", "w", [0.5])
    assert wq["value"][0].as_py() == 50.0


# ------------------------------------------------------------ perplexity LM
def test_bigram_lm_hand_computed(ray_session):
    """Counts and smoothed NLL against a hand-computed corpus: verifies
    add-one arithmetic, unseen-bigram smoothing, short docs (0
    transitions), and V = distinct corpus tokens."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.lm import (
        perplexity_scores,
        train_bigram_lm,
    )

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["a b a b", "a c", "x"]),
    }))
    model = train_bigram_lm(docs)
    # V = {a,b,c,x} = 4; bigrams: (a b)x2, (b a)x1, (a c)x1; ctx a=3, b=1
    assert model["V"] == 4
    out = {r["doc_id"]: r for r in perplexity_scores(docs, model).take_all()}
    V = 4.0
    nll0 = -(np.log(3 / (3 + V)) + np.log(2 / (1 + V)) + np.log(3 / (3 + V))) / 3
    nll1 = -np.log(2 / (3 + V)) / 1
    assert out[0]["n_transitions"] == 3
    assert out[0]["nll"] == pytest.approx(nll0, rel=1e-12)
    assert out[1]["nll"] == pytest.approx(nll1, rel=1e-12)
    assert out[2]["n_transitions"] == 0 and out[2]["nll"] == 0.0

    # unseen transitions score with cb=0 smoothing (score novel docs)
    novel = rd.from_arrow(pa.table({
        "doc_id": pa.array([9], pa.int64()),
        "text": pa.array(["c x"]),
    }))
    r9 = perplexity_scores(novel, model).take_all()[0]
    # ctx 'c' never starts a bigram in training -> cc=0
    assert r9["nll"] == pytest.approx(-np.log(1 / (0 + V)), rel=1e-12)


# ----------------------------------------------------------------- count-min
def test_cms_sketch_properties(ray_session):
    """Count-min guarantees on a known multiset: never undercounts, exact
    for isolated terms at this width, partition-invariant (same sketch for
    1 block and 4 blocks), and estimates >= truth for every term."""
    import pyarrow as pa

    from org_rdkit_lucene_ray.stages.sketch import cms_query, cms_sketch

    texts = ["apple apple banana", "apple cherry", "banana banana date"]
    tbl = pa.table({"text": pa.array(texts * 5)})
    truth = {"apple": 15, "banana": 15, "cherry": 5, "date": 5}

    sk1 = cms_sketch(rd.from_arrow(tbl), "text", tokenize=True)
    sk4 = cms_sketch(rd.from_arrow(tbl).repartition(4), "text", tokenize=True)
    assert np.array_equal(sk1["counts"], sk4["counts"])
    assert sk1["total"] == sum(truth.values())

    terms = sorted(truth)
    est = cms_query(sk1, terms)
    for t, e in zip(terms, est):
        assert e >= truth[t]
    # 4 distinct terms in a 2^14-wide sketch: collisions impossible to
    # matter -> exact
    assert est.tolist() == [truth[t] for t in terms]

    with pytest.raises(ValueError, match="depth"):
        cms_sketch(rd.from_arrow(tbl), "text", depth=99)


# ----------------------------------------------------------------- quantiles
def test_exact_quantiles_matches_numpy_order_statistics(ray_session):
    """quantile_disc convention (rank = max(0, ceil(q*n)-1)) against a
    driver-side sort, across sign mix, duplicates, nulls and NaNs — and a
    forced multi-pass descent (tiny buckets + gather_limit) must agree
    with the single-gather path bit-for-bit."""
    from org_rdkit_lucene_ray.stages.quantile import exact_quantiles

    rng = np.random.default_rng(11)
    vals = np.concatenate([
        rng.normal(0, 1e6, 4000),            # mixed sign
        np.repeat([-3.5, 0.0, 42.0], 500),   # heavy duplicates
        rng.uniform(-1e-9, 1e-9, 1000),      # subnormal-ish cluster
    ])
    col = pa.array(vals, pa.float64())
    with_gaps = pa.concat_arrays([
        col, pa.array([None, float("nan"), None], pa.float64())])
    ds = rd.from_arrow(pa.table({"x": with_gaps})).repartition(7)

    qs = [0.0, 0.01, 0.25, 0.5, 0.9, 1.0]
    clean = np.sort(vals)
    import math
    want = {q: clean[max(0, math.ceil(q * clean.size) - 1)] for q in qs}

    got = exact_quantiles(ds, "x", qs)
    for q, v in zip(got["q"].to_pylist(), got["value"].to_pylist()):
        assert v == want[q], (q, v, want[q])

    # force the descent loop: 16-wide histograms, gather only under 64 keys
    got2 = exact_quantiles(ds, "x", qs, log2_buckets=4, gather_limit=64)
    assert got2.equals(got)


def test_exact_quantiles_empty_and_all_null(ray_session):
    from org_rdkit_lucene_ray.stages.quantile import exact_quantiles

    empty = rd.from_arrow(pa.table({"x": pa.array([], pa.float64())}))
    out = exact_quantiles(empty, "x", [0.5])
    assert out["value"].to_pylist() == [None]

    nulls = rd.from_arrow(pa.table(
        {"x": pa.array([None, None], pa.float64())}))
    out = exact_quantiles(nulls, "x", [0.25, 0.75])
    assert out["value"].to_pylist() == [None, None]

    assert exact_quantiles(empty, "x", []).num_rows == 0


def test_exact_quantiles_single_hot_key(ray_session):
    """A value repeated past gather_limit pins all 64 bits during descent
    (the no-gather branch) and must come back exactly."""
    from org_rdkit_lucene_ray.stages.quantile import exact_quantiles

    tbl = pa.table({"x": pa.array([7.25] * 3000 + [1.0, 99.0], pa.float64())})
    out = exact_quantiles(rd.from_arrow(tbl).repartition(3), "x", [0.5],
                          log2_buckets=4, gather_limit=100)
    assert out["value"].to_pylist() == [7.25]


# ----------------------------------------------------------------- asof join
def test_asof_join_matches_pandas_merge_asof(ray_session):
    """Random keyed series vs pandas merge_asof (backward, by-key), plus
    the strict (<) variant and inner-drop of never-matched left rows."""
    from org_rdkit_lucene_ray.stages.join import asof_join

    rng = np.random.default_rng(5)
    n_l, n_r = 400, 300
    lt = pa.table({
        "k": pa.array(rng.integers(0, 20, n_l), pa.int64()),
        "t": pa.array(rng.integers(0, 1000, n_l), pa.int64()),
        "lv": pa.array(np.arange(n_l), pa.int64()),
    })
    rt = pa.table({
        "k": pa.array(rng.integers(0, 25, n_r), pa.int64()),
        "t": pa.array(rng.integers(0, 1000, n_r), pa.int64()),
        "rv": pa.array(np.arange(n_r), pa.int64()),
    })
    left = rd.from_arrow(lt).repartition(5)
    right = rd.from_arrow(rt).repartition(3)

    def oracle(strict: bool) -> pd.DataFrame:
        l = lt.to_pandas().sort_values("t", kind="mergesort")
        r = rt.to_pandas().sort_values("t", kind="mergesort")
        r["t_r"] = r["t"]     # merge_asof drops the right `on` column
        m = pd.merge_asof(l, r, on="t", by="k", suffixes=("", "_r"),
                          allow_exact_matches=not strict)
        m = m.dropna(subset=["t_r"])
        # right can have duplicate (k, t): merge_asof picks the LAST of
        # the tied rows (positional); our contract only pins (k, t_r), so
        # compare the tie-invariant columns
        return m[["lv", "t_r"]].astype({"t_r": "int64"}) \
            .sort_values("lv").reset_index(drop=True)

    for strict in (False, True):
        out = asof_join(left, right, on="k", ts="t",
                        left_cols=["lv", "k"], right_cols=["rv"],
                        strict=strict, num_buckets=8)
        got = out.to_pandas()[["lv", "t_r"]] \
            .sort_values("lv").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, oracle(strict))


def test_asof_join_bucket_isolation(ray_session):
    """A right row must never match a left row of a DIFFERENT key even
    when both land in the same hash bucket (num_buckets=1 forces it)."""
    from org_rdkit_lucene_ray.stages.join import asof_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()),
        "t": pa.array([100, 100], pa.int64())}))
    right = rd.from_arrow(pa.table({
        "k": pa.array([1], pa.int64()),
        "t": pa.array([50], pa.int64())}))
    out = asof_join(left, right, on="k", ts="t",
                    left_cols=["k"], right_cols=[], num_buckets=1) \
        .to_pandas().sort_values("k")
    assert out["k"].tolist() == [1]
    assert out["t_r"].tolist() == [50]


def test_exact_quantiles_by_group(ray_session):
    """Per-group descent vs per-group driver sort, including a group
    small enough to resolve in one gather and the max_groups guard."""
    import math

    from org_rdkit_lucene_ray.stages.quantile import exact_quantiles_by

    rng = np.random.default_rng(3)
    groups = np.array(["a", "b", "c"])[rng.integers(0, 3, 5000)]
    vals = rng.normal(0, 100, 5000)
    vals[groups == "c"] = 7.0          # constant group
    tbl = pa.table({"g": pa.array(groups), "x": pa.array(vals, pa.float64())})
    ds = rd.from_arrow(tbl).repartition(6)

    qs = [0.1, 0.5, 0.9]
    got = exact_quantiles_by(ds, "x", "g", qs, log2_buckets=4,
                             gather_limit=100)
    want = {}
    for g in "abc":
        clean = np.sort(vals[groups == g])
        for q in qs:
            want[(g, q)] = clean[max(0, math.ceil(q * clean.size) - 1)]
    for g, q, v in zip(got["group"].to_pylist(), got["q"].to_pylist(),
                       got["value"].to_pylist()):
        assert v == want[(g, q)], (g, q)

    with pytest.raises(ValueError, match="max_groups"):
        exact_quantiles_by(ds, "x", "g", [0.5], max_groups=2)


def test_linear_classifier_hand_computed(ray_session):
    """fastText-shape: score == mean of token weights, OOV tokens weigh 0,
    zero-token docs are dropped, keep = score >= threshold."""
    import ray.data as rd

    from org_rdkit_lucene_ray.stages.classifier import (
        linear_classifier_scores,
    )

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["good good bad", "bad bad", "unknown words only",
                          "...!!!"], pa.string()),
    }))
    weights = pa.table({
        "term": pa.array(["good", "bad"], pa.string()),
        "weight": pa.array([1.5, -0.5], pa.float64()),
    })
    out = linear_classifier_scores(docs, weights).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # doc 3 ("...!!!") has no tokens -> dropped
    assert out["doc_id"].tolist() == [0, 1, 2]
    assert out["n_tokens"].tolist() == [3, 2, 3]
    assert out["score"].tolist() == [(1.5 + 1.5 - 0.5) / 3, -0.5, 0.0]
    assert out["keep"].tolist() == [1, 0, 1]


def test_linear_classifier_rejects_hash_collision(ray_session):
    import ray.data as rd

    from org_rdkit_lucene_ray.stages.classifier import (
        linear_classifier_scores,
    )

    docs = rd.from_arrow(pa.table({"doc_id": pa.array([0], pa.int64()),
                                   "text": pa.array(["x"], pa.string())}))
    dup = pa.table({"term": pa.array(["same", "same"], pa.string()),
                    "weight": pa.array([1.0, 2.0], pa.float64())})
    with pytest.raises(ValueError, match="collision"):
        linear_classifier_scores(docs, dup)


def test_mixture_sample_temperature_rule(ray_session):
    """Temperature flattening: the smallest language keeps everything;
    keep fraction tracks sqrt(c_min/c); membership is deterministic and
    partitioning-invariant (re-run equals itself)."""
    from org_rdkit_lucene_ray.pipelines.gate import q_mixture_sample

    sf = "/root/testdata/sf0.001"
    got = q_mixture_sample(sf).to_pandas().sort_values("doc_id")
    got2 = q_mixture_sample(sf).to_pandas().sort_values("doc_id")
    assert got["doc_id"].tolist() == got2["doc_id"].tolist()
    import pyarrow.parquet as pq

    full = pq.read_table(f"{sf}/documents.parquet",
                         columns=["doc_id", "lang"]).to_pandas()
    c = full.groupby("lang").size()
    kept = got.groupby("lang").size().reindex(c.index).fillna(0)
    cmin = c.min()
    for src in c.index:
        rate = float(np.sqrt(np.float64(cmin) / np.float64(c[src])))
        if c[src] == cmin:
            assert kept[src] == c[src]          # rate 1.0 keeps all
        else:
            # hash-uniformity tolerance on small strata
            assert abs(kept[src] / c[src] - rate) < 0.35


def test_packing_offsets_prefix_sum(ray_session):
    """Distributed ordered prefix sum == numpy cumsum ground truth at a
    range size that forces many ranges; spans tile the token stream."""
    import ray.data as rd

    from org_rdkit_lucene_ray.functions.analyze import (
        REGISTRY,
        analyze_text,
    )
    from org_rdkit_lucene_ray.stages.packing import packing_offsets

    rng = np.random.RandomState(7)
    texts = [" ".join(f"w{rng.randint(50)}" for _ in range(rng.randint(0, 9)))
             for _ in range(300)]          # some empty docs
    t = pa.table({"doc_id": pa.array(range(300), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = packing_offsets(rd.from_arrow(t), seq_len=16, range_size=32) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    n = np.array([len(analyze_text(x, REGISTRY["standard"])) for x in texts],
                 np.int64)
    starts = np.concatenate([[0], np.cumsum(n)[:-1]])
    keep = n > 0
    assert out["doc_id"].tolist() == np.flatnonzero(keep).tolist()
    assert out["n_tokens"].tolist() == n[keep].tolist()
    assert out["start_token"].tolist() == starts[keep].tolist()
    assert (out["seq_first"] == out["start_token"] // 16).all()
    assert (out["seq_last"] ==
            (out["start_token"] + out["n_tokens"] - 1) // 16).all()
    # the packed stream is gapless: next start == prev start + prev n
    s, m = out["start_token"].to_numpy(), out["n_tokens"].to_numpy()
    assert (s[1:] == s[:-1] + m[:-1]).all() and s[0] == 0


def test_top_terms_per_doc_hand_computed(ray_session):
    """Per-doc keyword extraction: tf*idf ranking, term-asc ties,
    dictionary misses ignored, k caps per doc."""
    import math

    import ray.data as rd

    from org_rdkit_lucene_ray.stages.textstats import top_terms_per_doc

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["rare rare common oov", "common"], pa.string()),
    }))
    df = pa.table({"term": pa.array(["common", "rare"], pa.string()),
                   "df": pa.array([2, 1], pa.int64())})
    out = top_terms_per_doc(docs, df, n_docs=2, k=2).to_pandas() \
        .sort_values(["doc_id", "rnk"]).reset_index(drop=True)
    # doc 0: rare tf=2 idf=ln(1+1.5/1.5)=ln 2 -> 1.386; common tf=1
    # idf=ln(1+0.5/2.5)=0.182; oov not in dictionary -> ignored
    idf_rare = math.log(1.0 + (2 - 1 + 0.5) / 1.5)
    idf_common = math.log(1.0 + (2 - 2 + 0.5) / 2.5)
    assert 2 * idf_rare > idf_common
    assert out[out.doc_id == 0]["term"].tolist() == ["rare", "common"]
    assert out[out.doc_id == 1]["term"].tolist() == ["common"]
    assert out["rnk"].tolist() == [0, 1, 0]


def test_funnel_steps_hand_computed(ray_session):
    """Ordered-subsequence semantics: out-of-order steps don't count;
    greedy earliest-match is exact; ties break on event_id."""
    import ray.data as rd

    from org_rdkit_lucene_ray.stages.window import funnel_steps

    rows = [
        # user 0: view -> click -> purchase (full funnel)
        (0, 1, "view"), (0, 2, "click"), (0, 3, "purchase"),
        # user 1: purchase BEFORE view/click -> only step 1 (view) + click
        (1, 1, "purchase"), (1, 2, "view"), (1, 3, "click"),
        # user 2: click only -> 0 steps (no view first)
        (2, 1, "click"),
        # user 3: view then nothing else
        (3, 1, "view"), (3, 2, "error"),
        # user 4: same-ts tie decided by event_id: view(id 10) then
        # click(id 11) at the SAME ts counts
        (4, 5, "view"), (4, 5, "click"), (4, 6, "purchase"),
    ]
    # event_id must be globally increasing within user for the tie case
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] * 1000 for r in rows], pa.timestamp("us")),
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
    })
    out = funnel_steps(rd.from_arrow(t), ["view", "click", "purchase"]) \
        .to_pandas().set_index("user_id")["steps_completed"].to_dict()
    assert out == {0: 3, 1: 2, 2: 0, 3: 1, 4: 3}


def test_exact_weighted_quantiles_matches_expansion(ray_session):
    """Weighted descent == quantile over the weight-expanded multiset
    (brute force), including forced multi-pass descents and ties."""
    import ray.data as rd

    from org_rdkit_lucene_ray.stages.quantile import exact_weighted_quantiles

    rng = np.random.RandomState(11)
    vals = np.round(rng.randn(4000) * 50, 2)
    wts = rng.randint(0, 7, size=4000).astype(np.int64)
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.float64()),
                                 "w": pa.array(wts, pa.int64())}))
    qs = [0.01, 0.25, 0.5, 0.9, 0.999]
    out = exact_weighted_quantiles(ds, "v", "w", qs,
                                   log2_buckets=4, gather_limit=64)
    expanded = np.sort(np.repeat(vals, wts))
    W = expanded.size
    import math
    for q, v in zip(out["q"].to_pylist(), out["value"].to_pylist()):
        want = expanded[max(0, math.ceil(q * W) - 1)]
        assert v == want, (q, v, want)
    # all weights 1 == unweighted quantile_disc semantics
    from org_rdkit_lucene_ray.stages.quantile import exact_quantiles
    ones = rd.from_arrow(pa.table({"v": pa.array(vals, pa.float64()),
                                   "w": pa.array(np.ones(4000, np.int64))}))
    a = exact_weighted_quantiles(ones, "v", "w", [0.5])["value"][0].as_py()
    b = exact_quantiles(ones, "v", [0.5])["value"][0].as_py()
    assert a == b


def test_epoch_mix_replication_rule(ray_session):
    """floor(w) copies always; one extra with probability frac(w) by the
    hash rule; weight 0 strata dropped; copy indices are 0..n-1."""
    import ray.data as rd

    from org_rdkit_lucene_ray.stages.sample import _MOD, _MULT, _mix32, epoch_mix

    t = pa.table({
        "doc_id": pa.array(range(400), pa.int64()),
        "lang": pa.array((["a"] * 200) + (["b"] * 150) + (["c"] * 50),
                         pa.string()),
    })
    out = epoch_mix(rd.from_arrow(t), weights={"a": 2.25, "b": 0.5},
                    stratum_col="lang").to_pandas()
    assert (out[out.lang == "c"]).empty          # unlisted -> dropped
    h = _mix32(np.arange(400, dtype=np.int64), 12345)
    import numpy as _np
    for i in range(200):                          # lang a: 2 or 3 copies
        n = int((out.doc_id == i).sum())
        want = 2 + int(h[i] < int(_np.floor(0.25 * _MOD)))
        assert n == want, i
        assert sorted(out[out.doc_id == i]["copy"]) == list(range(n))
    kept_b = out[out.lang == "b"]
    assert 0 < len(kept_b) < 150                  # ~half of b, hash-decided
    assert (kept_b["copy"] == 0).all()


def test_lookup_join_broadcast_and_shuffle_paths_identical(ray_session):
    """`lookup_join` must return the same rows whichever execution path the
    size switch picks (r3 verdict #4): Arrow-broadcast probe vs
    hash-partitioned Dataset.join — for inner and left_outer flavors."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from org_rdkit_lucene_ray.stages.join import lookup_join

    left = pa.table({
        "k": pa.array([1, 2, 3, 4, 2, 9], pa.int64()),
        "x": pa.array([10, 20, 30, 40, 21, 90], pa.int64()),
    })
    right = pa.table({
        "rk": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "seg": pa.array(["a", "b", "c", "d", "e"]),
    })

    def run(join_type, limit):
        out = lookup_join(rd.from_arrow(left), rd.from_arrow(right),
                          on="k", right_on="rk", join_type=join_type,
                          broadcast_row_limit=limit)
        df = out.to_pandas().sort_values(["k", "x"]).reset_index(drop=True)
        return df[sorted(df.columns)]

    want_inner = pd.DataFrame({
        "k": [1, 2, 2, 3, 4], "seg": ["a", "b", "b", "c", "d"],
        "x": [10, 20, 21, 30, 40]})
    for limit in (1_000_000, 0):  # broadcast path, then forced shuffle path
        got = run("inner", limit)
        pd.testing.assert_frame_equal(got, want_inner[sorted(want_inner.columns)],
                                      check_dtype=False)
    # left_outer keeps the unmatched k=9 row with a null segment
    b = run("left_outer", 1_000_000)
    s = run("left_outer", 0)
    assert len(b) == len(s) == 6
    assert b[b.k == 9]["seg"].isna().all() and s[s.k == 9]["seg"].isna().all()
    pd.testing.assert_frame_equal(
        b.astype({"seg": "object"}), s.astype({"seg": "object"}), check_dtype=False)


def test_lookup_join_refuses_duplicate_broadcast_keys(ray_session):
    """The broadcast lookup keeps one match per key; duplicate right keys
    must fail loudly instead of silently diverging from the shuffle path
    (review fix). Empty right sides route to the join path, not a crash."""
    from org_rdkit_lucene_ray.stages.join import lookup_join

    left = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
    dup_right = rd.from_arrow(pa.table({
        "rk": pa.array([1, 1, 2], pa.int64()),
        "v": pa.array(["a", "b", "c"])}))
    with pytest.raises(Exception, match="not unique"):
        lookup_join(left, dup_right, on="k", right_on="rk").materialize()
    # one-to-many works via the forced shuffle path
    out = lookup_join(left, dup_right, on="k", right_on="rk",
                      broadcast_row_limit=0).to_pandas()
    assert len(out) == 3
    # empty right: inner -> no rows; left_outer -> left rows, null values
    empty_right = rd.from_arrow(pa.table({
        "rk": pa.array([], pa.int64()), "v": pa.array([], pa.string())}))
    assert lookup_join(left, empty_right, on="k", right_on="rk").count() == 0
    lo = lookup_join(left, empty_right, on="k", right_on="rk",
                     join_type="left_outer").to_pandas()
    assert len(lo) == 2 and lo["v"].isna().all()


def _rows(ds) -> list[tuple]:
    """A Dataset's rows as sorted hashable tuples (list values -> tuples,
    nulls -> None), read off its Arrow blocks."""
    import ray

    out = []
    for t in ray.get(ds.to_arrow_refs()):
        for r in t.to_pylist():
            out.append(tuple(tuple(v) if isinstance(v, list) else v
                             for v in r.values()))
    return sorted(out, key=repr)


def _merge_rows(left: pa.Table, right: pa.Table, how: str) -> list[tuple]:
    """pandas ``merge`` oracle of ``fold_join(on="k", right_on="rk")``:
    all left columns, then the right side's non-key columns."""
    m = pd.merge(left.to_pandas(), right.to_pandas(), how=how,
                 left_on="k", right_on="rk", sort=False)
    cols = left.column_names + [c for c in right.column_names if c != "rk"]

    def norm(v):
        if isinstance(v, (list, np.ndarray)):
            return tuple(v.tolist() if isinstance(v, np.ndarray) else v)
        if v is None or (isinstance(v, float) and np.isnan(v)):
            return None
        return v.item() if isinstance(v, np.generic) else v

    return sorted((tuple(norm(v) for v in row)
                   for row in m[cols].itertuples(index=False)), key=repr)


def test_fold_join_matches_pandas_merge(ray_session, monkeypatch):
    """`fold_join` equals a pandas `merge` oracle, inner and left_outer:
    duplicate keys on both sides (many-to-many), list-typed payloads on
    both sides, an int32 right key, an empty right side, and a skewed key
    holding ~90% of the rows — at P = 1 and at P = fold_buckets()
    (FOLD_PARTITION_BYTES forced to 1 byte). The skewed key's bucket is
    the largest fold call: a partition keeps its buckets whole."""
    from org_rdkit_lucene_ray import util
    from org_rdkit_lucene_ray.stages.join import _fold_two_sided, fold_join

    rng = np.random.default_rng(8)
    lk = np.where(rng.random(300) < 0.9, 7, rng.integers(0, 60, 300))
    rk = np.where(rng.random(60) < 0.9, 7, rng.integers(30, 90, 60))
    left = pa.table({
        "k": pa.array(lk, pa.int64()),
        "x": pa.array(np.arange(300), pa.int64()),
        "tags": pa.array([[f"t{i % 3}"] * (i % 3) for i in range(300)],
                         pa.list_(pa.string()))})
    right = pa.table({
        "rk": pa.array(rk, pa.int32()),
        "rv": pa.array(np.arange(60) * 10, pa.int64()),
        "vec": pa.array([[float(i), i / 2] for i in range(60)],
                        pa.list_(pa.float64()))})
    lds = rd.from_arrow([left.slice(i, 50) for i in range(0, 300, 50)])
    rds = rd.from_arrow([right.slice(i, 20) for i in range(0, 60, 20)])
    empty = rd.from_arrow(right.slice(0, 0))

    def sizes(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return pa.table({"rows": [lt.num_rows + rt.num_rows],
                         "bytes": [lt.nbytes + rt.nbytes]})

    for part_bytes in (util.FOLD_PARTITION_BYTES, 1):
        monkeypatch.setattr(util, "FOLD_PARTITION_BYTES", part_bytes)
        for jt, how in (("inner", "inner"), ("left_outer", "left")):
            out = fold_join(lds, rds, on="k", right_on="rk", join_type=jt)
            assert out.schema().names == ["k", "x", "tags", "rv", "vec"]
            assert _rows(out) == _merge_rows(left, right, how)
            assert _rows(fold_join(lds, empty, on="k", right_on="rk",
                                   join_type=jt)) == \
                _merge_rows(left, right.slice(0, 0), how)
        parts = _fold_two_sided(lds, rds, "k", "rk", sizes).to_pandas()
        hot = int((lk == 7).sum() + (rk == 7).sum())
        assert parts["rows"].sum() == 360
        if part_bytes == 1:      # one bucket per partition: 7's is largest
            assert parts["rows"].max() >= hot > 0.85 * 360
    nb = util.fold_buckets()     # empty partitions never reach the fold
    assert len(parts) == len(set(lk % nb) | set(rk % nb))


# --------------------------------------------------------------- clustering
def test_kmeans_assign_matches_numpy(ray_session):
    """Assignment profile == a direct numpy oracle (quantize, squared L2,
    argmin with first-match ties, per-cluster count/sum-of-id)."""
    from org_rdkit_lucene_ray.stages.cluster import (
        QUANT, init_centroids, kmeans_assign_profile)

    t = _emb_table(n=60, d=8)
    ds = rd.from_arrow(t).repartition(4).materialize()
    k = 5
    C = init_centroids(ds, k)
    got = kmeans_assign_profile(ds, C, concurrency=2).to_pandas()

    E = np.stack([np.asarray(v, np.float64) for v in
                  t["embedding"].to_pylist()])
    Q = np.floor(E * QUANT).astype(np.int64)
    np.testing.assert_array_equal(C, Q[:k])   # k smallest vec_ids
    dists = ((Q[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    a = np.argmin(dists, axis=1)
    ids = np.arange(len(t), dtype=np.int64)
    want = pd.DataFrame({
        "cluster": np.arange(k, dtype=np.int64),
        "n": np.bincount(a, minlength=k).astype(np.int64),
        "sum_vec_id": np.array(
            [ids[a == c].sum() for c in range(k)], np.int64),
    })
    want = want[want.n > 0].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_kmeans_assign_ties_go_to_lowest_cluster(ray_session):
    """A point exactly equidistant from two centroids lands in the
    lower-id cluster (numpy argmin first-match == SQL ORDER BY dist,
    cluster)."""
    from org_rdkit_lucene_ray.stages.cluster import (
        QUANT, init_centroids, kmeans_assign_profile)

    # 1-dim, exactly representable multiples of 1/QUANT:
    # centroids q=0 (vec 0) and q=2 (vec 1); vec 2 at q=1 is equidistant
    t = pa.table({
        "vec_id": pa.array([0, 1, 2], pa.int64()),
        "embedding": pa.array([[0.0], [2.0 / QUANT], [1.0 / QUANT]],
                              pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(t).materialize()
    C = init_centroids(ds, 2)
    got = kmeans_assign_profile(ds, C).to_pandas()
    # cluster 0 holds vec 0 AND the tied vec 2; cluster 1 holds vec 1
    assert got.to_dict("list") == {
        "cluster": [0, 1], "n": [2, 1], "sum_vec_id": [2, 1]}


def test_kmeans_fit_partition_invariant_and_monotone(ray_session):
    """Bit-identical centroids + inertia under different block splits and
    pool sizes (int64 partials commute); inertia converges."""
    from org_rdkit_lucene_ray.stages.cluster import kmeans_fit

    t = _emb_table(n=80, d=8)
    a = kmeans_fit(rd.from_arrow(t).repartition(3).materialize(),
                   k=4, iters=4, concurrency=2)
    b = kmeans_fit(rd.from_arrow(t).repartition(7).materialize(),
                   k=4, iters=4, concurrency=3)
    np.testing.assert_array_equal(a["centroids"], b["centroids"])
    assert a["inertia"] == b["inertia"]
    assert a["inertia"][-1] <= a["inertia"][0]
    assert int(a["profile"]["n"].sum()) == 80


def test_top_adjacent_pairs_matches_python(docs_ds):
    """BPE pair counts == a per-doc python zip(toks, toks[1:]) oracle,
    including the (n desc, pair asc) cut order."""
    from collections import Counter

    from org_rdkit_lucene_ray.stages.lm import top_adjacent_pairs

    got = top_adjacent_pairs(docs_ds, k=15).to_pandas()
    cnt: Counter = Counter()
    for text in _docs_table()["text"].to_pylist():
        toks = analyze_text(text, REGISTRY["standard"])
        cnt.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:15]
    assert list(zip(got["pair"], got["n"])) == [(p, n) for p, n in want]


def test_top_adjacent_pairs_hashed_equals_exact(docs_ds):
    """The blob-fold scale path and the exact string-groupby path emit
    identical tables (hash counting + candidate string recovery is exact
    absent 64-bit collisions, which fail loudly)."""
    from org_rdkit_lucene_ray.stages.lm import top_adjacent_pairs

    exact = top_adjacent_pairs(docs_ds, k=12, method="exact")
    hashed = top_adjacent_pairs(docs_ds, k=12, method="hashed")
    assert exact.equals(hashed)


# -------------------------------------------------------------------- bloom
def test_bloom_no_false_negatives(ray_session):
    """Every key that went into the distributed bloom MUST test positive
    (the screen's exactness guarantee rests on zero false negatives)."""
    from org_rdkit_lucene_ray.stages.sketch import bloom_build, bloom_member
    from org_rdkit_lucene_ray.util import md5_digest64_column

    t = _docs_table()
    ds = rd.from_arrow(t).repartition(4)
    bm = bloom_build(ds, "text", n_bits=1 << 13)
    d = md5_digest64_column(t["text"])
    assert bloom_member(bm, d).all()


def test_bloom_novel_docs_matches_set_oracle(ray_session):
    """Novelty filter == python set anti-join, including content that is
    duplicated in OLD under a different id (still not novel)."""
    from org_rdkit_lucene_ray.stages.sketch import bloom_novel_docs

    old_t = _docs_table()                      # ids 0..29, 10/11 dup 3
    texts = old_t["text"].to_pylist()
    new_texts = [t + " changed" if i % 7 == 0 else t
                 for i, t in enumerate(texts)]
    new_texts.append(texts[3])                 # re-crawl of dup content
    new_ids = list(range(30)) + [99]
    new_t = pa.table({"doc_id": pa.array(new_ids, pa.int64()),
                      "text": pa.array(new_texts, pa.string())})
    got = bloom_novel_docs(rd.from_arrow(new_t).repartition(3),
                           rd.from_arrow(old_t).repartition(4))
    old_set = set(texts)
    want = sorted(i for i, t in zip(new_ids, new_texts)
                  if t not in old_set)
    assert got["doc_id"].to_pylist() == want
    assert 99 not in want                      # dup content: not novel


def test_bloom_novel_docs_candidate_guard(ray_session, monkeypatch):
    """Overlap-dominated inputs must fail loudly at the broadcast
    candidate ceiling instead of materializing them on the driver."""
    import org_rdkit_lucene_ray.stages.sketch as sk

    monkeypatch.setattr(sk, "_BLOOM_CAND_LIMIT", 1)
    t = _docs_table()
    with pytest.raises(ValueError, match="snapshot_diff"):
        sk.bloom_novel_docs(rd.from_arrow(t).repartition(2),
                            rd.from_arrow(t).repartition(2))


def test_kmeans_assign_column_and_shard_layout(ray_session, tmp_path):
    """jobs/shard_by_cluster_job.py logic (in-process): the tagged column
    matches the profile's per-cluster counts bit-for-bit and the
    partitioned export lands one directory per live cluster."""
    from org_rdkit_lucene_ray.stages.cluster import (
        init_centroids, kmeans_assign_column, kmeans_assign_profile,
        kmeans_fit)

    t = _emb_table(n=90, d=8)
    ds = rd.from_arrow(t).repartition(4).materialize()
    fit = kmeans_fit(ds, k=4, iters=3)
    tagged = kmeans_assign_column(ds, fit["centroids"])
    counts = tagged.to_pandas().groupby("cluster").size()
    prof = kmeans_assign_profile(ds, fit["centroids"]).to_pandas()
    assert dict(counts) == dict(zip(prof["cluster"], prof["n"]))
    out = str(tmp_path / "shards")
    tagged.write_parquet(out, partition_cols=["cluster"])
    dirs = sorted(p for p in os.listdir(out) if p.startswith("cluster="))
    assert len(dirs) == len(prof)


def test_retrieval_metrics_hand_computed(ray_session):
    """Hand-built ranked lists × qrels: precision@k numerator, 1-based
    first relevant rank, rr, and the zero-result / zero-hit edge rows."""
    from org_rdkit_lucene_ray.stages.evalmetrics import retrieval_metrics

    # q1: ranked docs [10, 11, 12]; relevant {11, 12, 99} -> 2 in top-k,
    #     first at rank 2.  q2: ranked [20, 21]; relevant {5} -> no hit.
    # q3: in query_ids but has NO result rows at all.
    results = pa.table({
        "query_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "rank": pa.array([0, 1, 2, 0, 1], pa.int64()),
        "doc_id": pa.array([10, 11, 12, 20, 21], pa.int64()),
    })
    qrels_t = pa.table({
        "query_id": pa.array([1, 1, 1, 2, 3], pa.int64()),
        "doc_id": pa.array([11, 12, 99, 5, 7], pa.int64()),
    })
    for nparts in (1, 3):
        qrels = rd.from_arrow(qrels_t).repartition(nparts)
        out = retrieval_metrics(results, qrels,
                                query_ids=[1, 2, 3]).to_pandas()
        assert out["query_id"].tolist() == [1, 2, 3]
        assert out["n_rel"].tolist() == [3, 1, 1]
        assert out["n_rel_topk"].tolist() == [2, 0, 0]
        assert out["first_rel_rank"].tolist() == [2, 0, 0]
        assert out["rr"].tolist() == [0.5, 0.0, 0.0]
    # duplicate (query, doc) qrels rows within a block are deduped in
    # the partial: n_rel must not double-count
    dup = pa.concat_tables([qrels_t, qrels_t])
    out = retrieval_metrics(results, rd.from_arrow(dup),
                            query_ids=[1, 2, 3]).to_pandas()
    assert out["n_rel"].tolist() == [3, 1, 1]
    assert out["n_rel_topk"].tolist() == [2, 0, 0]


def test_dsir_lut_empty_corpus(ray_session):
    """unigram_logratio_lut on an all-empty-text corpus returns an empty
    (or all-zero bucketed) LUT instead of raising."""
    from org_rdkit_lucene_ray.stages.dsir import unigram_logratio_lut

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["", ""], pa.string()),
        "lang": pa.array(["en", "de"], pa.string()),
    }))
    lut = unigram_logratio_lut(empty, target_col="lang", target_value="en")
    assert len(lut["features"]) == 0 and lut["lr"].size == 0
    lut_b = unigram_logratio_lut(empty, target_col="lang",
                                 target_value="en", n_buckets=128)
    assert lut_b["features"] is None
    assert lut_b["lr"].size == 128 and (lut_b["lr"] == 0.0).all()


def test_chunk_documents_matches_python(docs_ds):
    """Chunk explosion == a per-doc python slicing oracle (window/stride
    rule, last-chunk shortening, zero-token docs emit nothing)."""
    from org_rdkit_lucene_ray.stages.chunk import chunk_documents

    W, S = 7, 5
    got = chunk_documents(docs_ds, window=W, stride=S,
                          emit_text=True).to_pandas()
    got = got.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    rows = []
    t = _docs_table()
    for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = analyze_text(text, REGISTRY["standard"])
        n = len(toks)
        if n == 0:
            continue
        n_chunks = 1 if n <= W else (n - W + S - 1) // S + 1
        for i in range(n_chunks):
            sl = toks[i * S: i * S + W]
            rows.append((did, i, len(sl), sl[0], sl[-1], " ".join(sl)))
    assert len(got) == len(rows)
    for r, (did, cid, nt, ft, lt, txt) in zip(got.itertuples(index=False), rows):
        assert (r.doc_id, r.chunk_id, r.n_tokens) == (did, cid, nt)
        assert (r.first_token, r.last_token, r.chunk_text) == (ft, lt, txt)
    # consecutive chunks overlap by window - stride tokens
    multi = got.groupby("doc_id").size()
    assert (multi > 1).any(), "fixture must produce multi-chunk docs"


def test_chunk_documents_rejects_bad_geometry(docs_ds):
    from org_rdkit_lucene_ray.stages.chunk import chunk_batch

    with pytest.raises(ValueError, match="stride"):
        chunk_batch(_docs_table(), window=4, stride=5)
    with pytest.raises(ValueError, match="stride"):
        chunk_batch(_docs_table(), window=4, stride=0)


def test_dsir_topk_matches_python_and_hashed_path(ray_session):
    """DSIR log-ratio weights == a direct python reference on a planted
    corpus (en docs share 'quantum'); the hashed fixed-feature-space
    variant reproduces the same formula over FNV buckets and is
    partition-invariant."""
    import math

    from org_rdkit_lucene_ray.pipelines.build import stable_term_hash
    from org_rdkit_lucene_ray.stages.dsir import dsir_topk

    texts, langs = [], []
    for i in range(40):
        if i % 3 == 0:
            texts.append("quantum flux entangle " + f"w{i % 5}")
            langs.append("en")
        else:
            texts.append("common words everywhere " + f"w{i % 5}")
            langs.append("de")
    t = pa.table({"doc_id": pa.array(range(40), pa.int64()),
                  "lang": pa.array(langs), "text": pa.array(texts)})

    def py_reference(feature_of, v):
        from collections import Counter
        tgt, raw = Counter(), Counter()
        toks_by_doc = []
        for lang, text in zip(langs, texts):
            toks = [feature_of(w) for w in analyze_text(text, REGISTRY["standard"])]
            toks_by_doc.append(toks)
            raw.update(toks)
            if lang == "en":
                tgt.update(toks)
        t_t, t_r = sum(tgt.values()), sum(raw.values())
        lr = {f: math.log((tgt[f] + 1.0) / (t_t + v))
              - math.log((raw[f] + 1.0) / (t_r + v)) for f in raw}
        scores = [(did, np.float32(math.fsum(lr[f] for f in toks)))
                  for did, toks in enumerate(toks_by_doc) if toks]
        scores.sort(key=lambda x: (-x[1], x[0]))
        return [d for d, _ in scores[:10]]

    ds = rd.from_arrow(t).repartition(5)
    got = dsir_topk(ds, target_col="lang", target_value="en",
                    n=10)["doc_id"].to_pylist()
    vocab = {w for txt in texts for w in analyze_text(txt, REGISTRY["standard"])}
    assert got == py_reference(lambda w: w, len(vocab))
    # every top doc is an 'en' doc on this planted corpus
    assert all(d % 3 == 0 for d in got)

    NB = 4096
    def bucket_of(w):
        return int(stable_term_hash(pa.array([w]))[0] % np.uint64(NB))
    got_h = dsir_topk(ds, target_col="lang", target_value="en",
                      n=10, n_buckets=NB)["doc_id"].to_pylist()
    assert got_h == py_reference(bucket_of, NB)
    # partition invariance of the hashed path
    got_h2 = dsir_topk(rd.from_arrow(t).repartition(2), target_col="lang",
                       target_value="en", n=10,
                       n_buckets=NB)["doc_id"].to_pylist()
    assert got_h2 == got_h


def test_hard_negatives_hand_computed(ray_session):
    """Hard-negative mining: non-relevant results keep retrieval order,
    re-ranked densely; fully-relevant queries emit nothing."""
    from org_rdkit_lucene_ray.stages.evalmetrics import hard_negatives

    results = pa.table({
        "query_id": pa.array([0, 0, 0, 0, 1, 1, 2], pa.int64()),
        "rank": pa.array([0, 1, 2, 3, 0, 1, 0], pa.int64()),
        "doc_id": pa.array([10, 11, 12, 13, 20, 21, 30], pa.int64()),
    })
    qrels = rd.from_arrow(pa.table({
        "query_id": pa.array([0, 0, 1, 1, 2, 0], pa.int64()),
        "doc_id": pa.array([11, 13, 20, 21, 30, 99], pa.int64()),
    })).repartition(3)
    out = hard_negatives(results, qrels, n_per_query=2).to_pandas()
    got = list(out.itertuples(index=False, name=None))
    # q0: ranks 0(10) and 2(12) survive -> neg_rank 0,1; q1/q2 fully covered
    assert got == [(0, 0, 10), (0, 1, 12)]
    # cap applies per query
    out3 = hard_negatives(results, rd.from_arrow(pa.table({
        "query_id": pa.array([9], pa.int64()),
        "doc_id": pa.array([9], pa.int64())})), n_per_query=3).to_pandas()
    assert (out3.groupby("query_id").size() <= 3).all()
    assert len(out3) == 3 + 2 + 1


def test_bpe_train_matches_naive_recompute(ray_session):
    """Incremental pair-count maintenance == a from-scratch recount every
    iteration (same (count desc, pair asc) rule)."""
    from collections import Counter

    from org_rdkit_lucene_ray.stages.bpe import (_merge_word, _symbols_of,
                                                 bpe_train)

    wc = pa.table({
        "word": pa.array(["low", "lower", "newest", "widest", "wide",
                          "west", "new", "est"], pa.string()),
        "n": pa.array([5, 2, 6, 3, 2, 1, 4, 2], pa.int64())})

    def naive(k):
        words = [_symbols_of(w) for w in wc["word"].to_pylist()]
        counts = wc["n"].to_pylist()
        merges = []
        for _ in range(k):
            pc_ = Counter()
            for sym, c in zip(words, counts):
                for p in zip(sym, sym[1:]):
                    pc_[p] += c
            if not +pc_:
                break
            best = min(((-c, p) for p, c in pc_.items() if c > 0))
            merges.append(best[1])
            words = [_merge_word(s, *best[1]) for s in words]
        return merges

    for k in (1, 5, 12, 40):
        assert bpe_train(wc, k) == naive(k), k


def test_bpe_encode_replays_training_segmentation(ray_session):
    """encode_word (rank-order replay) == applying the merge list in
    learned order (the trainer's segmentation) for every training word;
    round-trips with the end-of-word marker stripped."""
    from org_rdkit_lucene_ray.stages.bpe import (EOW, _merge_word,
                                                 _symbols_of, bpe_train,
                                                 encode_word)

    wc = pa.table({
        "word": pa.array(["hashing", "hash", "hashes", "shard", "share",
                          "shared", "hard"], pa.string()),
        "n": pa.array([4, 7, 2, 5, 3, 2, 6], pa.int64())})
    merges = bpe_train(wc, 15)
    ranks = {p: i for i, p in enumerate(merges)}
    for w in wc["word"].to_pylist():
        sym = _symbols_of(w)
        for a, b in merges:
            sym = _merge_word(sym, a, b)
        enc = encode_word(w, ranks)
        assert enc == sym, w
        joined = "".join(enc)
        assert joined[:-len(EOW)] == w


def test_bpe_word_counts_and_encode_distributed(docs_ds):
    """Distributed word-count fold == Counter oracle; bpe_encode emits
    per-doc piece counts with n_pieces >= n_tokens and all round-trips."""
    from collections import Counter

    from org_rdkit_lucene_ray.stages.bpe import (bpe_encode, bpe_train,
                                                 word_counts)

    wc = word_counts(docs_ds)
    cnt: Counter = Counter()
    for text in _docs_table()["text"].to_pylist():
        cnt.update(analyze_text(text, REGISTRY["standard"]))
    assert dict(zip(wc["word"].to_pylist(),
                    wc["n"].to_pylist())) == dict(cnt)
    merges = bpe_train(wc, 10)
    assert len(merges) == 10
    out = bpe_encode(docs_ds, merges).to_pandas()
    assert (out["roundtrip_ok"] == 1).all()
    assert (out["n_pieces"] >= out["n_tokens"]).all()
    assert out["n_tokens"].sum() == sum(cnt.values())


def test_group_sample_quota_and_partition_invariance(ray_session):
    """k-per-group draw: exact quota where the group has >= k rows, whole
    group otherwise; identical membership under different partitionings."""
    from org_rdkit_lucene_ray.stages.sample import group_sample

    t = pa.table({
        "doc_id": pa.array(range(100), pa.int64()),
        "grp": pa.array((["a"] * 60) + (["b"] * 35) + (["c"] * 5)),
    })

    def draw(nblocks):
        out = group_sample(rd.from_arrow(t).repartition(nblocks),
                           k=10, group_col="grp").to_pandas()
        return out.sort_values(["grp", "rank"]).reset_index(drop=True)

    a, b = draw(3), draw(8)
    assert a.equals(b)
    sizes = a.groupby("grp").size().to_dict()
    assert sizes == {"a": 10, "b": 10, "c": 5}
    # ranks dense from 0 per group
    for g, sub in a.groupby("grp"):
        assert list(sub["rank"]) == list(range(len(sub)))


def test_length_buckets_quantile_boundaries(ray_session, tmp_path):
    """Bucket id == count of exact-quantile thresholds strictly below the
    doc's token length (python oracle over the same quantile rule)."""
    import math

    from org_rdkit_lucene_ray.pipelines.gate import (LENGTH_BUCKET_QS,
                                                     q_length_buckets)

    sf = "/root/testdata/sf0.001"
    out = q_length_buckets(sf).to_pandas().sort_values("doc_id")
    dls = out.sort_values("doc_id")["dl"].to_numpy()
    srt = np.sort(dls)
    thr = [srt[max(0, math.ceil(q * len(srt)) - 1)] for q in LENGTH_BUCKET_QS]
    want = np.array([sum(t < d for t in thr) for d in out["dl"]])
    assert (out["bucket"].to_numpy() == want).all()
    assert set(out["bucket"]) <= {0, 1, 2, 3}


def test_winnow_fingerprints_guarantee_and_tie_rule(ray_session):
    """Winnowing theorem: docs sharing a substring of >= window+k-1
    tokens share >= 1 selected fingerprint hash; selection density is
    bounded; the rightmost-tie rule picks ONE fp for a constant doc."""
    from org_rdkit_lucene_ray.stages.textstats import winnow_batch
    from org_rdkit_lucene_ray.util import md5_hex_column
    from org_rdkit_lucene_ray.functions.analyze import tokenize_column

    K, W = 3, 4
    shared = "alpha beta gamma delta epsilon zeta eta theta"   # 8 toks >= W+K-1
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "xx yy " + shared + " zz",
            "aa " + shared + " bb cc",
            "same same same same same same same same",   # all grams equal
        ]),
    })
    out = winnow_batch(t, shingle_k=K, window=W).to_pandas()
    assert (out.loc[out.n_grams > 0, "n_fps"] > 0).all()
    # constant-gram doc: every window min is the same hash; rightmost tie
    # picks the LAST position of each window -> fps = one per window tail,
    # but all share one hash value; check via selected-hash containment:
    # recompute full selected sets with a python reference
    def py_winnow(text):
        toks = tokenize_column(pa.array([text]),
                               REGISTRY[f"shingle_{K}"]).values
        hx = md5_hex_column(toks).to_pylist()
        m = len(hx)
        if m == 0:
            return set()
        w = min(W, m)
        sel = set()
        for ws in range(max(1, m - w + 1)):
            win = hx[ws: ws + w]
            mn = min(win)
            # rightmost occurrence
            pos = max(i for i, h in enumerate(win) if h == mn) + ws
            sel.add((pos, hx[pos]))
        return sel

    sets = [py_winnow(x) for x in t["text"].to_pylist()]
    # theorem: 0 and 1 share at least one fingerprint HASH
    assert {h for _, h in sets[0]} & {h for _, h in sets[1]}
    # engine counts == python reference counts
    assert list(out["n_fps"]) == [len(s) for s in sets]
    assert list(out["fp_min"]) == [min(h for _, h in s) if s else ""
                                   for s in sets]
    # density: far fewer fingerprints than grams for doc 0
    assert out.loc[0, "n_fps"] <= out.loc[0, "n_grams"]


def test_tumbling_distinct_matches_pandas(ray_session):
    """Windowed exact count-distinct == a pandas nunique oracle,
    partition-invariant (triples dedup across batches)."""
    from org_rdkit_lucene_ray.stages.window import tumbling_distinct

    n = 600
    t = pa.table({
        "event_type": pa.array([f"t{i % 3}" for i in range(n)]),
        "ts": pa.array((1_700_000_000_000_000
                        + np.arange(n, dtype=np.int64) * 37_000_000)
                       .astype("datetime64[us]")),
        "user_id": pa.array((np.arange(n, dtype=np.int64) * 7) % 40),
    })
    for nblocks in (2, 7):
        got = tumbling_distinct(rd.from_arrow(t).repartition(nblocks),
                                width_secs=3600).to_pandas()
        got = got.sort_values(["event_type", "window_start"]).reset_index(
            drop=True)
        df = t.to_pandas()
        df["window_start"] = df["ts"].dt.floor("h")
        want = (df.groupby(["event_type", "window_start"])["user_id"]
                .nunique().reset_index(name="n_users")
                .sort_values(["event_type", "window_start"])
                .reset_index(drop=True))
        assert list(got["n_users"]) == list(want["n_users"])
        assert list(got["event_type"]) == list(want["event_type"])


def test_collocation_topk_matches_python(docs_ds):
    """PMI collocations == a Counter-based python oracle (same min-count
    floor, same float32-rank tie rule)."""
    from collections import Counter

    from org_rdkit_lucene_ray.stages.lm import collocation_topk

    K, MIN = 10, 3
    got = collocation_topk(docs_ds, k=K, min_count=MIN)
    uni: Counter = Counter()
    pc_: Counter = Counter()
    for text in _docs_table()["text"].to_pylist():
        toks = analyze_text(text, REGISTRY["standard"])
        uni.update(toks)
        pc_.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
    T, P = sum(uni.values()), sum(pc_.values())
    cand = []
    for pair, c in pc_.items():
        if c < MIN:
            continue
        a, b = pair.split(" ")
        pmi = np.float32(np.log((float(c) * T * T) / (float(P) * uni[a] * uni[b])))
        cand.append((pair, c, pmi))
    cand.sort(key=lambda r: (-r[2], r[0]))
    want = cand[:K]
    assert list(zip(got["pair"].to_pylist(), got["n"].to_pylist())) == \
        [(p, c) for p, c, _ in want]
    # the hashed unigram-LUT fallback (web-scale vocab path) is
    # output-identical to the exact string LUT
    hashed = collocation_topk(docs_ds, k=K, min_count=MIN, method="hashed")
    assert hashed.equals(got)
    # auto switches to hashed above the max_vocab ceiling — same output
    auto_h = collocation_topk(docs_ds, k=K, min_count=MIN, max_vocab=2)
    assert auto_h.equals(got)



def test_hashed_pmi_lut_refuses_missing_keys():
    """The hashed PMI lookup raises on a word hash absent from the unigram
    LUT — in the middle (searchsorted would read the neighbour's count)
    and past the end (it would index out of range) — and finds present
    keys exactly."""
    from org_rdkit_lucene_ray.stages.lm import _hashed_lut_rows

    words = np.array([10, 20, 30], np.uint64)
    assert _hashed_lut_rows(words, np.array([30, 10, 20, 20], np.uint64)) \
        .tolist() == [2, 0, 1, 1]
    assert _hashed_lut_rows(words, np.zeros(0, np.uint64)).size == 0
    for keys in ([10, 25], [40], [5]):
        with pytest.raises(ValueError, match="missing"):
            _hashed_lut_rows(words, np.array(keys, np.uint64))
    with pytest.raises(ValueError, match="missing"):
        _hashed_lut_rows(np.zeros(0, np.uint64), np.array([1], np.uint64))


def test_keyword_textrank_rank_stage_tolerates_empty_blocks():
    """keyword_textrank's per-block rank top-k returns the empty
    ``(node, rank)`` table for empty and zero-column blocks (the join
    path's empty partitions) instead of raising, and keeps the k best
    rows (rank desc, node asc) of a real block."""
    from org_rdkit_lucene_ray.stages.graph import _rank_block_top

    empty = pa.table({"node": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64())})
    for blk in (empty, pa.table({})):
        assert _rank_block_top(blk, 5).equals(empty)
    blk = pa.table({"node": pa.array([0, 1, 2, 3], pa.int64()),
                    "rank": pa.array([5, 9, 9, 1], pa.int64())})
    assert _rank_block_top(blk, 2).to_pydict() == {"node": [1, 2],
                                                   "rank": [9, 9]}

def test_keyword_textrank_vocab_ceiling(docs_ds):
    """TextRank refuses above max_vocab (the node space is intrinsically
    vocabulary-sized) instead of silently gathering a web-scale vocab."""
    from org_rdkit_lucene_ray.stages.graph import keyword_textrank

    with pytest.raises(ValueError, match="max_vocab"):
        keyword_textrank(docs_ds, k=5, max_vocab=3)


def test_keyword_textrank_matches_reference(docs_ds):
    """TextRank == the single-machine integer PageRank reference over the
    same (sorted-vocab-id, symmetric distinct adjacency) graph."""
    from org_rdkit_lucene_ray.stages.graph import (PR_SCALE,
                                                   keyword_textrank,
                                                   pagerank_reference)

    got = keyword_textrank(docs_ds, k=8, n_iter=3)
    vocab = sorted({w for txt in _docs_table()["text"].to_pylist()
                    for w in analyze_text(txt, REGISTRY["standard"])})
    idx = {w: i for i, w in enumerate(vocab)}
    es = set()
    for txt in _docs_table()["text"].to_pylist():
        toks = analyze_text(txt, REGISTRY["standard"])
        for a, b in zip(toks, toks[1:]):
            if a != b:
                es.add((idx[a], idx[b]))
                es.add((idx[b], idx[a]))
    src = np.array([a for a, _ in sorted(es)], np.int64)
    dst = np.array([b for _, b in sorted(es)], np.int64)
    r = pagerank_reference(src, dst, len(vocab), n_iter=3)
    order = sorted(range(len(vocab)), key=lambda i: (-r[i], vocab[i]))[:8]
    assert got["term"].to_pylist() == [vocab[i] for i in order]
    assert got["score"].to_pylist() == [int(r[i]) for i in order]


def test_review_fix_empty_edge_cases(ray_session):
    """Review-fix regressions: empty ranked results, null target langs,
    and empty LSH groups must not crash (r4c self-review findings)."""
    from org_rdkit_lucene_ray.stages.dedup import _simhash_group_pairs
    from org_rdkit_lucene_ray.stages.dsir import dsir_topk
    from org_rdkit_lucene_ray.stages.evalmetrics import hard_negatives

    empty_results = pa.table({
        "query_id": pa.array([], pa.int64()),
        "rank": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64())})
    qrels = rd.from_arrow(pa.table({
        "query_id": pa.array([0, 1], pa.int64()),
        "doc_id": pa.array([5, 6], pa.int64())}))
    out = hard_negatives(empty_results, qrels, n_per_query=3)
    assert out.num_rows == 0

    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "lang": pa.array(["en", None, "de"]),
                  "text": pa.array(["alpha beta", "beta gamma",
                                    "gamma delta"])})
    top = dsir_topk(rd.from_arrow(t), target_col="lang",
                    target_value="en", n=3)
    assert len(top) == 3          # null lang counted as non-target, no crash

    empty_band = pa.table({
        "band": pa.array([], pa.int32()),
        "band_hash": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64()),
        "simhash": pa.array([], pa.int64())})
    assert _simhash_group_pairs(empty_band, max_hamming=3).num_rows == 0
