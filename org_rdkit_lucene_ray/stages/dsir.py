"""DSIR-style importance weighting — Data Selection via Importance
Resampling (Xie et al., NeurIPS 2023): score every raw document by the
log-likelihood ratio of its unigram features under a TARGET distribution
(e.g. the high-quality / in-domain slice) vs the RAW corpus distribution,
then keep/resample the top-weighted docs.

Scale shape (two streaming passes, one vocabulary-sized exchange):

1. **feature counts** — one ``map_batches`` pass tokenizes each batch and
   emits per-batch partial (feature, target_count, raw_count) rows (Arrow
   ``group_by`` inside the batch), folded by a ``groupby(feature).sum``
   whose input is already collapsed to per-batch distinct features. With
   ``n_buckets`` set, features are FNV-hashed into a fixed-size bucket
   space (the paper's hashed n-gram trick) so the exchange and the LUT are
   O(n_buckets) regardless of corpus vocabulary — the 100 TB path. NOTE on
   cross-corpus scoring: the exact path scores tokens unseen at fit time
   as 0 (no feature), while the hashed path cannot distinguish OOV from a
   never-hit bucket and charges the smoothed unseen-bucket estimate
   ln((t_raw+V)/(t_tgt+V)) — the paper's own behavior for hashed
   features. Same-corpus scoring (the fit==score gate regime) is
   identical on both paths.
2. **LUT broadcast + scoring** — the add-one-smoothed log-ratio vector
   rides ``ray.put`` once; a second ``map_batches`` pass maps tokens to
   features (``pc.index_in`` against the sorted feature dictionary, or a
   vectorized FNV+mod for the hashed space) and folds per-doc sums with
   one ``np.add.reduceat``. Zero shuffles in the scoring pass.

Float parity with the SQL oracle: each feature's log-ratio is
``ln((c_tgt+1)/(T_tgt+V)) - ln((c_raw+1)/(T_raw+V))`` — exact-integer
operands through one double division and one ``ln`` on each side; per-doc
sums are rank-compared on float32-cast scores (repo float-parity policy).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from org_rdkit_lucene_ray.config import AnalyzerConfig
from org_rdkit_lucene_ray.functions.analyze import REGISTRY, tokenize_column


def _count_partials(t: pa.Table, *, text_column: str, target_col: str,
                    target_value: str, cfg: AnalyzerConfig,
                    n_buckets: int | None) -> pa.Table:
    toks = tokenize_column(t[text_column], cfg)
    flat = toks.values
    parents = np.repeat(
        np.arange(len(t)),
        np.diff(toks.offsets.to_numpy(zero_copy_only=False)))
    # null target values count as non-target (pc.equal propagates nulls)
    is_tgt = pc.equal(t[target_col].combine_chunks(), target_value) \
        .fill_null(False)
    tgt_rows = is_tgt.to_numpy(zero_copy_only=False)
    tok_tgt = tgt_rows[parents].astype(np.int64)
    if n_buckets is not None:
        from org_rdkit_lucene_ray.pipelines.build import stable_term_hash

        key = pa.array(stable_term_hash(flat) % np.uint64(n_buckets))
        key = pc.cast(key, pa.int64())
        part = pa.table({"feature": key,
                         "tgt": pa.array(tok_tgt),
                         "one": pa.array(np.ones(len(flat), np.int64))})
    else:
        part = pa.table({"feature": flat,
                         "tgt": pa.array(tok_tgt),
                         "one": pa.array(np.ones(len(flat), np.int64))})
    g = part.group_by("feature").aggregate([("tgt", "sum"), ("one", "sum")])
    return pa.table({"feature": g["feature"],
                     "c_tgt": pc.cast(g["tgt_sum"], pa.int64()),
                     "c_raw": pc.cast(g["one_sum"], pa.int64())})


def unigram_logratio_lut(ds: rd.Dataset, *, target_col: str,
                         target_value: str, text_column: str = "text",
                         analyzer: str = "standard",
                         n_buckets: int | None = None) -> dict:
    """Pass 1: fold feature counts, return the broadcastable LUT dict
    ``{"features": sorted pa.Array | None, "lr": float64 np.ndarray,
    "n_buckets": int | None}``."""
    from org_rdkit_lucene_ray.util import fold_grouped_counts

    cfg = REGISTRY[analyzer]
    agg = fold_grouped_counts(
        ds, "feature", ["c_tgt", "c_raw"],
        pre=lambda t: _count_partials(t, text_column=text_column,
                                      target_col=target_col,
                                      target_value=target_value, cfg=cfg,
                                      n_buckets=n_buckets))
    rows = agg.take_all()
    if not rows:                        # empty / all-empty-text corpus
        if n_buckets is not None:
            return {"features": None, "lr": np.zeros(n_buckets, np.float64),
                    "n_buckets": n_buckets}
        return {"features": pa.array([], pa.string()),
                "lr": np.zeros(0, np.float64), "n_buckets": None}
    tbl = pa.Table.from_pylist(rows)
    c_tgt = tbl["c_tgt"].to_numpy(zero_copy_only=False).astype(np.int64)
    c_raw = tbl["c_raw"].to_numpy(zero_copy_only=False).astype(np.int64)
    t_tgt = int(c_tgt.sum())
    t_raw = int(c_raw.sum())
    if n_buckets is not None:
        # dense bucket LUT; V = feature-space size = n_buckets
        buckets = tbl["feature"].to_numpy(zero_copy_only=False).astype(np.int64)
        ct = np.zeros(n_buckets, np.int64)
        cr = np.zeros(n_buckets, np.int64)
        ct[buckets] = c_tgt
        cr[buckets] = c_raw
        lr = (np.log((ct + 1.0) / (t_tgt + n_buckets))
              - np.log((cr + 1.0) / (t_raw + n_buckets)))
        return {"features": None, "lr": lr, "n_buckets": n_buckets}
    feats = tbl["feature"].combine_chunks()
    order = pc.array_sort_indices(feats)
    feats = feats.take(order)
    v = len(feats)
    idx = order.to_numpy(zero_copy_only=False)
    lr = (np.log((c_tgt[idx] + 1.0) / (t_tgt + v))
          - np.log((c_raw[idx] + 1.0) / (t_raw + v)))
    return {"features": feats, "lr": lr, "n_buckets": None}


def dsir_scores(ds: rd.Dataset, lut: dict, *, text_column: str = "text",
                id_column: str = "doc_id",
                analyzer: str = "standard") -> rd.Dataset:
    """Pass 2: per-doc importance score = sum of feature log-ratios over
    the doc's tokens (docs with zero tokens emit no row). The LUT ships
    via ``ray.put`` once and resolves per worker process."""
    cfg = REGISTRY[analyzer]
    lut_ref = ray.put(lut)

    def score_batch(t: pa.Table) -> pa.Table:
        from org_rdkit_lucene_ray.stages.dedup import _bcast

        lu = _bcast(lut_ref)
        toks = tokenize_column(t[text_column], cfg)
        flat = toks.values
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offs)
        ids = t[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
        if lu["n_buckets"] is not None:
            from org_rdkit_lucene_ray.pipelines.build import stable_term_hash

            tok_lr = lu["lr"][stable_term_hash(flat)
                              % np.uint64(lu["n_buckets"])]
        else:
            pos = pc.index_in(flat, value_set=lu["features"])
            # every scored token was counted in pass 1, so pos has no
            # nulls when scoring the SAME corpus; unseen tokens (scoring
            # a different corpus) contribute 0 like an OOV feature
            valid = pc.is_valid(pos).to_numpy(zero_copy_only=False)
            posn = pos.fill_null(0).to_numpy(
                zero_copy_only=False).astype(np.int64)
            tok_lr = np.where(valid, lu["lr"][posn], 0.0)
        nz = lens > 0
        if not nz.any():
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        sums = np.add.reduceat(tok_lr, offs[:-1][nz])
        return pa.table({"doc_id": pa.array(ids[nz]),
                         "score": pa.array(sums, pa.float64())})

    return ds.map_batches(score_batch, batch_format="pyarrow")


def dsir_topk(ds: rd.Dataset, *, target_col: str, target_value: str,
              n: int, text_column: str = "text", id_column: str = "doc_id",
              analyzer: str = "standard",
              n_buckets: int | None = None) -> pa.Table:
    """Top-``n`` docs by importance weight — partial top-n per block, tiny
    driver fold; comparator (float32 score desc, doc_id asc), the repo's
    rank-comparison domain."""
    lut = unigram_logratio_lut(ds, target_col=target_col,
                               target_value=target_value,
                               text_column=text_column, analyzer=analyzer,
                               n_buckets=n_buckets)
    scores = dsir_scores(ds, lut, text_column=text_column,
                         id_column=id_column, analyzer=analyzer)

    def block_top(t: pa.Table) -> pa.Table:
        s32 = pc.cast(t["score"], pa.float32())
        probe = pa.table({"doc_id": t["doc_id"], "s32": s32})
        idx = pc.select_k_unstable(probe, k=min(n, len(t)), sort_keys=[
            ("s32", "descending"), ("doc_id", "ascending")])
        return probe.take(idx)

    rows = scores.map_batches(block_top, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: (-np.float32(r["s32"]), r["doc_id"]))
    rows = rows[:n]
    return pa.table({
        "rank": pa.array(range(len(rows)), pa.int64()),
        "doc_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
    })
