"""Statistical-LM perplexity scoring — the CCNet-style quality filter.

CCNet (Wenzek et al. 2020) and the pipelines derived from it (RedPajama,
FineWeb ancestors) score each document's perplexity under a language
model trained on a trusted corpus and drop/bucket the tail. This module
implements the same shape with an add-one-smoothed bigram model
(Jurafsky & Martin ch. 3 arithmetic) trained distributed over a Ray
Dataset — the KenLM stand-in this container can express.

Scale shape:
- **train** streams the corpus through one ``map_batches`` that emits
  per-batch pre-aggregated (hash, count) partials — occurrence-sized data
  never leaves the batch — then reduces them DISTRIBUTED in a
  hash-range-bucketed ``groupby``; the driver only concatenates the
  per-bucket sorted unique arrays (the model must materialize somewhere
  to be broadcast; a guard refuses models past ``MODEL_LIMIT`` entries).
  At 100 TB you train
  on a sample (CCNet trains on Wikipedia, not the crawl) and score the
  full corpus, so the model side stays small by construction.
- **score** broadcasts the model once via ``ray.put`` and streams the
  corpus through a second shuffle-free ``map_batches``: token hashes via
  the shared FNV-1a, per-occurrence bigram/context lookups via
  ``searchsorted``, per-doc reductions via ``np.add.at``. No Python
  per-token loop anywhere.

Token/bigram identity is 64-bit FNV-based hashing (shared with the
dedup/decontaminate stages): collision odds ~``entries^2 / 2^65``,
negligible false-merge risk at any corpus a driver-side model fits.
"""

from __future__ import annotations

import functools
import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from org_rdkit_lucene_ray.functions.analyze import REGISTRY, tokenize_column
from org_rdkit_lucene_ray.stages.dedup import _bcast

logger = logging.getLogger(__name__)

MODEL_LIMIT = 50_000_000    # sorted-array entries (16 B each -> 800 MB)
_B = np.uint64(1099511628211)


def _token_and_bigram_hashes(texts: pa.Array, cfg) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
        pa.Array]:
    """-> (doc index per transition, bigram hash, context hash, flat token
    hashes, transition start position, flat token Array) for one batch,
    fully vectorized. ``pos[i]`` indexes transition i's FIRST token in the
    flat array (its second token is ``pos[i] + 1``)."""
    from org_rdkit_lucene_ray.pipelines.build import stable_term_hash

    toks = tokenize_column(texts, cfg)
    flat = pc.list_flatten(toks)
    counts = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    if len(flat) == 0:
        z = np.zeros(0, np.uint64)
        return (np.zeros(0, np.int64), z, z, z, np.zeros(0, np.int64),
                flat)
    enc = pc.dictionary_encode(flat)
    th = stable_term_hash(enc.dictionary)[
        enc.indices.to_numpy(zero_copy_only=False)]
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    docs2 = np.flatnonzero(counts >= 2)
    if not docs2.size:
        z = np.zeros(0, np.uint64)
        return (np.zeros(0, np.int64), z, z, th, np.zeros(0, np.int64),
                flat)
    n_tr = counts[docs2] - 1
    tr_doc = np.repeat(docs2, n_tr)
    bounds = np.concatenate([[0], np.cumsum(n_tr)])
    intra = np.arange(bounds[-1]) - np.repeat(bounds[:-1], n_tr)
    pos = starts[tr_doc] + intra
    ctx = th[pos]
    with np.errstate(over="ignore"):
        big = (ctx * _B) ^ th[pos + 1]
    return tr_doc, big, ctx, th, pos, flat


_FOLD_BUCKETS = 32        # top-5-bit hash-range buckets for the model fold
_FOLD_SHIFT = np.uint64(64 - int(np.log2(_FOLD_BUCKETS)))


def _range_blobs(u: np.ndarray, c: np.ndarray, base: int = 0) -> pa.Table:
    """One ``(bkey, h, n)`` row per non-empty top-hash-bit range of the
    SORTED uint64 hashes ``u`` (counts ``c``): ``bkey = base + range``,
    ``h``/``n`` the range's hashes and int64 counts packed as blobs —
    the per-batch half of the hash-range blob exchange (per-entry rows
    never exist)."""
    # u is sorted, so each range is a contiguous slice
    edges = np.searchsorted((u >> _FOLD_SHIFT).astype(np.int64),
                            np.arange(_FOLD_BUCKETS + 1))
    bkeys, hs, ns = [], [], []
    for b in range(_FOLD_BUCKETS):
        lo, hi = int(edges[b]), int(edges[b + 1])
        if hi > lo:
            bkeys.append(base + b)
            hs.append(u[lo:hi].tobytes())
            ns.append(c[lo:hi].astype(np.int64).tobytes())
    return pa.table({"bkey": pa.array(bkeys, pa.int64()),
                     "h": pa.array(hs, pa.large_binary()),
                     "n": pa.array(ns, pa.large_binary())})


def _sorted_blobs(g: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """The fold half: a group's ``h``/``n`` blobs concatenated and
    stably sorted by hash -> (hashes, counts)."""
    hh = np.concatenate([np.frombuffer(x.as_py(), np.uint64)
                         for x in g["h"]])
    nn = np.concatenate([np.frombuffer(x.as_py(), np.int64)
                         for x in g["n"]])
    order = np.argsort(hh, kind="stable")
    return hh[order], nn[order]


def train_bigram_lm(docs: rd.Dataset, *, text_col: str = "text",
                    analyzer: str = "standard") -> dict:
    """Add-one-smoothed bigram model: ``p(w2|w1) = (c(w1 w2) + 1) /
    (c(w1·) + V)`` with ``V`` = distinct corpus tokens. Returns sorted
    hash->count arrays ready to broadcast.

    The count fold is DISTRIBUTED: each batch emits its per-batch unique
    (hash, count) arrays pre-split into ``_FOLD_BUCKETS`` top-hash-bit
    ranges (packed blobs — per-entry rows never exist); a
    ``groupby(bucket).map_groups`` merges each range with a worker-side
    sort+``reduceat``; the driver only CONCATENATES the per-bucket
    results, which arrive disjoint and internally sorted, so the global
    arrays are sorted without any driver-side sort. (The driver runs
    under ``OMP_NUM_THREADS=1``, where a single 40M-entry ``np.unique``
    measured 6x slower than the same call in a plain process — the fold
    must not live there.)"""
    cfg = REGISTRY[analyzer]

    def partial(t: pa.Table) -> pa.Table:
        _, big, ctx, th, _, _ = _token_and_bigram_hashes(
            t[text_col].combine_chunks(), cfg)
        vocab = np.unique(th)
        # bkey = kind * _FOLD_BUCKETS + range: 0 bigram, 1 context, 2 vocab
        return pa.concat_tables([
            _range_blobs(u, c, kind * _FOLD_BUCKETS) for kind, (u, c) in
            enumerate([np.unique(big, return_counts=True),
                       np.unique(ctx, return_counts=True),
                       (vocab, np.ones(vocab.size, np.int64))])])

    def fold(g: pa.Table) -> pa.Table:
        bkey = g["bkey"][0].as_py()
        sh, sn = _sorted_blobs(g)
        starts = np.flatnonzero(
            np.concatenate([[True], sh[1:] != sh[:-1]]))
        return pa.table({
            "bkey": pa.array([bkey], pa.int64()),
            "h": pa.array([sh[starts].tobytes()], pa.large_binary()),
            "n": pa.array([np.add.reduceat(sn, starts).tobytes()],
                          pa.large_binary())})

    rows = (docs.map_batches(partial, batch_format="pyarrow")
            .groupby("bkey").map_groups(fold, batch_format="pyarrow")
            .take_all())
    rows.sort(key=lambda r: r["bkey"])

    def reduce_kind(k: int, count: bool) -> tuple[np.ndarray, np.ndarray]:
        mine = [r for r in rows if r["bkey"] // _FOLD_BUCKETS == k]
        if not mine:
            z = np.zeros(0, np.uint64)
            return z, np.zeros(0, np.int64)
        uniq = np.concatenate([np.frombuffer(r["h"], np.uint64)
                               for r in mine])
        if not count:
            return uniq, np.ones(uniq.size, np.int64)
        return uniq, np.concatenate([np.frombuffer(r["n"], np.int64)
                                     for r in mine])

    big_h, big_n = reduce_kind(0, True)
    ctx_h, ctx_n = reduce_kind(1, True)
    vocab_h, _ = reduce_kind(2, False)
    if big_h.size + ctx_h.size > MODEL_LIMIT:
        raise ValueError(
            f"bigram model has {big_h.size + ctx_h.size} entries "
            f"(> {MODEL_LIMIT}); train on a sample (CCNet shape), not "
            "the full corpus")
    logger.info("bigram LM: %d bigrams, %d contexts, V=%d",
                big_h.size, ctx_h.size, vocab_h.size)
    return {"big_h": big_h, "big_n": big_n, "ctx_h": ctx_h, "ctx_n": ctx_n,
            "V": int(vocab_h.size)}


def _lookup(sorted_h: np.ndarray, sorted_n: np.ndarray,
            keys: np.ndarray) -> np.ndarray:
    if not sorted_h.size:
        return np.zeros(keys.size, np.int64)
    pos = np.searchsorted(sorted_h, keys)
    pos_c = np.minimum(pos, sorted_h.size - 1)
    out = np.where(sorted_h[pos_c] == keys, sorted_n[pos_c], 0)
    return out.astype(np.int64)


def perplexity_scores(docs: rd.Dataset, model: dict, *,
                      text_col: str = "text", id_col: str = "doc_id",
                      analyzer: str = "standard") -> rd.Dataset:
    """Per-doc mean negative log-likelihood over bigram transitions:
    ``(doc_id, n_transitions, nll)``; docs with fewer than 2 tokens get
    ``n_transitions = 0`` and ``nll = 0`` (no evidence). ``exp(nll)`` is
    the perplexity; ranking on ``nll`` is equivalent and avoids the exp."""
    cfg = REGISTRY[analyzer]
    ref = ray.put(model)

    def score(t: pa.Table) -> pa.Table:
        m = _bcast(ref)
        ids = pc.cast(t[id_col], pa.int64())
        tr_doc, big, ctx, _, _, _ = _token_and_bigram_hashes(
            t[text_col].combine_chunks(), cfg)
        n_tr = np.zeros(len(t), np.int64)
        nll_sum = np.zeros(len(t), np.float64)
        if tr_doc.size:
            cb = _lookup(m["big_h"], m["big_n"], big)
            cc = _lookup(m["ctx_h"], m["ctx_n"], ctx)
            p = (cb + 1.0) / (cc + float(m["V"]))
            np.add.at(n_tr, tr_doc, 1)
            np.add.at(nll_sum, tr_doc, -np.log(p))
        nll = np.divide(nll_sum, n_tr, out=np.zeros_like(nll_sum),
                        where=n_tr > 0)
        return pa.table({"doc_id": ids,
                         "n_transitions": pa.array(n_tr, pa.int64()),
                         "nll": pa.array(nll, pa.float64())})

    return docs.map_batches(score, batch_format="pyarrow")


_PAIR_SCHEMA = pa.schema([("pair", pa.string()), ("c", pa.int64())])


_PAIR_EXACT_DOC_LIMIT = 100_000   # auto: exact string groupby below this
_PAIR_CAND_LIMIT = 65_536         # hashed path: candidate-set ceiling


def _pair_partial(t: pa.Table, cfg, text_col: str) -> pa.Table:
    """Per-batch (pair, c) adjacent-pair partials (exact strings path)."""
    toks = tokenize_column(t[text_col].combine_chunks(), cfg)
    flat = pc.list_flatten(toks)
    counts = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    n = len(flat)
    if n < 2:
        return _PAIR_SCHEMA.empty_table()
    mask = np.ones(n, bool)
    last = np.cumsum(counts)[counts > 0] - 1   # doc-final positions
    mask[last] = False
    idx = np.flatnonzero(mask)
    if not idx.size:
        return _PAIR_SCHEMA.empty_table()
    t1 = flat.take(pa.array(idx, pa.int64()))
    t2 = flat.take(pa.array(idx + 1, pa.int64()))
    pair = pc.binary_join_element_wise(t1, t2, " ")
    g = pa.table({"pair": pair}).group_by("pair").aggregate(
        [("pair", "count")])
    return pa.table({"pair": g["pair"],
                     "c": pc.cast(g["pair_count"], pa.int64())})


def _exact_pair_counts(docs, cfg, text_col: str) -> list:
    """Global (pair, c) counts as the fold outputs' block refs — the
    per-block partials (:func:`_pair_partial`, the exchange's ``pre``)
    through the shared bucket fold of :func:`util.fold_grouped_counts`
    (never a sort over the pair-string domain). ``docs`` is a Dataset
    or a list of block refs."""
    from org_rdkit_lucene_ray.util import _exchange, _grouped_sum

    return _exchange(docs, _grouped_sum("pair", ["c"]), key_col="pair",
                     pre=functools.partial(_pair_partial, cfg=cfg,
                                           text_col=text_col))


def top_adjacent_pairs(docs: rd.Dataset, *, k: int = 30,
                       text_col: str = "text", analyzer: str = "standard",
                       method: str = "auto") -> pa.Table:
    """The BPE merge-step statistic (Sennrich et al. 2016): the ``k`` most
    frequent ADJACENT token pairs across the corpus, ``(pair, n)`` ordered
    (n desc, pair asc). One iteration of tokenizer training = pick the top
    pair and merge; this operator is that counting pass, distributed.

    Two executions with identical output (equality-tested):

    - ``exact``: per-block pair strings pre-aggregated inside the block
      (the exchange's ``pre`` map task), summed by one bucket fold on the
      pair string, then one Arrow top-k over the fold outputs. Exact by
      construction, but every distinct (block, pair) partial rides the
      exchange as a string (the former sort-based ``groupby`` measured
      137 s at 400k docs), so it is the small-corpus path.
    - ``hashed``: the ``train_bigram_lm`` fold shape. Pass 1 counts
      64-bit FNV pair hashes through the bucket-packed blob exchange
      (per-batch unique arrays pre-split into hash ranges; only ~32
      blob rows per batch ride the shuffle) and each bucket emits its
      top-k WITH count-ties, so the global top-k is always inside the
      candidate set. Pass 2 streams the corpus once more to recover the
      candidate pair STRINGS (broadcast sorted candidate hashes, one
      searchsorted membership per batch). Collision odds are the lm.py
      contract (~candidates^2 / 2^65) and an actual collision fails
      loudly rather than merging counts. Count-tie explosions past
      ``_PAIR_CAND_LIMIT`` fail loudly too (use ``method="exact"``).

    ``auto`` picks exact under ``_PAIR_EXACT_DOC_LIMIT`` docs. No Python
    per-token loop on either path: pair starts are a numpy boolean mask /
    position vector over the flat token array, pair strings come from one
    ``binary_join_element_wise`` kernel."""
    if method == "auto":
        method = ("exact" if docs.count() <= _PAIR_EXACT_DOC_LIMIT
                  else "hashed")
    if method == "hashed":
        return _top_adjacent_pairs_hashed(docs, k=k, text_col=text_col,
                                          analyzer=analyzer)
    outs = [t for t in ray.get(_exact_pair_counts(docs, REGISTRY[analyzer],
                                                  text_col)) if t.num_rows]
    if not outs:
        return pa.table({"pair": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    t = pa.concat_tables(outs)
    top = t.take(pc.select_k_unstable(t, k=min(k, t.num_rows), sort_keys=[
        ("c", "descending"), ("pair", "ascending")]))
    return pa.table({"pair": top["pair"].cast(pa.string()), "n": top["c"]})


def _top_adjacent_pairs_hashed(docs: rd.Dataset, *, k: int, text_col: str,
                               analyzer: str) -> pa.Table:
    """Scale path of :func:`top_adjacent_pairs` — see its docstring."""
    cfg = REGISTRY[analyzer]
    # two STREAMING passes: the input plan re-executes rather than
    # materializing the corpus (re-reading parquet beats holding 100 TB in
    # the object store; pass a .materialize()d dataset if the input is
    # itself an expensive computation)

    def partial(t: pa.Table) -> pa.Table:
        _, big, _, _, _, _ = _token_and_bigram_hashes(
            t[text_col].combine_chunks(), cfg)
        return _range_blobs(*np.unique(big, return_counts=True))

    def fold_top(g: pa.Table) -> pa.Table:
        sh, sn = _sorted_blobs(g)
        starts = np.flatnonzero(np.concatenate([[True], sh[1:] != sh[:-1]]))
        u, c = sh[starts], np.add.reduceat(sn, starts)
        if u.size > k:
            kth = np.partition(c, u.size - k)[u.size - k]
            keep = c >= kth    # include count-ties: the global top-k's
            u, c = u[keep], c[keep]   # string tie-break happens later
        return pa.table({"h": pa.array(u, pa.uint64()),
                         "n": pa.array(c, pa.int64())})

    cand = (docs.map_batches(partial, batch_format="pyarrow")
            .groupby("bkey").map_groups(fold_top, batch_format="pyarrow")
            .take_all())
    if not cand:
        return pa.table({"pair": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    if len(cand) > _PAIR_CAND_LIMIT:
        raise ValueError(
            f"top_adjacent_pairs(hashed): {len(cand)} candidates after "
            f"count-tie expansion (> {_PAIR_CAND_LIMIT}) — the kth count "
            "is tied corpus-wide; use method='exact'")
    cand_h = np.sort(np.array([r["h"] for r in cand], np.uint64))
    counts = dict((int(r["h"]), int(r["n"])) for r in cand)
    ref = ray.put(cand_h)

    def recover(t: pa.Table) -> pa.Table:
        H = _bcast(ref)
        _, big, _, _, pos, flat = _token_and_bigram_hashes(
            t[text_col].combine_chunks(), cfg)
        if not big.size:
            return pa.table({"h": pa.array([], pa.uint64()),
                             "pair": pa.array([], pa.string())})
        loc = np.searchsorted(H, big)
        loc_c = np.minimum(loc, H.size - 1)
        hit = H[loc_c] == big
        if not hit.any():
            return pa.table({"h": pa.array([], pa.uint64()),
                             "pair": pa.array([], pa.string())})
        p = pos[hit]
        t1 = flat.take(pa.array(p, pa.int64()))
        t2 = flat.take(pa.array(p + 1, pa.int64()))
        pair = pc.binary_join_element_wise(t1, t2, " ")
        tab = pa.table({"h": pa.array(big[hit], pa.uint64()), "pair": pair})
        return tab.group_by(["h", "pair"]).aggregate([])   # batch-distinct

    rows = docs.map_batches(recover, batch_format="pyarrow").take_all()
    by_hash: dict[int, str] = {}
    for r in rows:
        h, s = int(r["h"]), r["pair"]
        old = by_hash.get(h)
        if old is not None and old != s:
            raise ValueError(
                f"top_adjacent_pairs(hashed): 64-bit pair-hash collision "
                f"({old!r} vs {s!r}) — use method='exact'")
        by_hash[h] = s
    out = sorted(((by_hash[h], n) for h, n in counts.items()),
                 key=lambda kv: (-kv[1], kv[0]))[:k]
    return pa.table({
        "pair": pa.array([p for p, _ in out], pa.string()),
        "n": pa.array([n for _, n in out], pa.int64()),
    })


def _hashed_unigram_lut(wc_ds: rd.Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(sorted uint64 word-hash, int64 count) arrays from a distributed
    (word, n) Dataset — the DSIR-style hashed LUT for vocabularies too
    large to gather as strings (16 B/entry vs ~60 B+ for Arrow strings +
    Python row overhead). Words are globally distinct by construction,
    so a duplicate hash IS a 64-bit collision — detected in the fold and
    refused loudly (odds ~V^2 / 2^65, the lm.py hash contract)."""

    def partial(t: pa.Table) -> pa.Table:
        from org_rdkit_lucene_ray.pipelines.build import stable_term_hash

        h = stable_term_hash(t["word"].combine_chunks())
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(h, kind="stable")
        return _range_blobs(h[order], n[order])

    def fold(g: pa.Table) -> pa.Table:
        sh, sn = _sorted_blobs(g)
        if sh.size > 1 and (sh[1:] == sh[:-1]).any():
            raise ValueError(
                "hashed unigram LUT: 64-bit hash collision between two "
                "distinct words — use the exact (string) LUT path")
        return pa.table({
            "bkey": pa.array([g["bkey"][0].as_py()], pa.int64()),
            "h": pa.array([sh.tobytes()], pa.large_binary()),
            "n": pa.array([sn.tobytes()], pa.large_binary())})

    rows = (wc_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("bkey").map_groups(fold, batch_format="pyarrow")
            .take_all())
    rows.sort(key=lambda r: r["bkey"])
    if not rows:
        return np.zeros(0, np.uint64), np.zeros(0, np.int64)
    return (np.concatenate([np.frombuffer(r["h"], np.uint64)
                            for r in rows]),
            np.concatenate([np.frombuffer(r["n"], np.int64)
                            for r in rows]))


def _hashed_lut_rows(words: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Row of each word hash ``keys`` in the sorted hashed unigram LUT
    ``words``. A key absent from the LUT raises: ``searchsorted`` alone
    would silently read a neighbour's count, or run off the end."""
    pos = np.minimum(np.searchsorted(words, keys), max(words.size - 1, 0))
    if keys.size and (words.size == 0 or not np.array_equal(words[pos], keys)):
        raise ValueError("collocation_topk: pair token missing from the "
                         "hashed unigram LUT")
    return pos


def collocation_topk(docs: rd.Dataset, *, k: int = 20, min_count: int = 5,
                     text_col: str = "text", analyzer: str = "standard",
                     method: str = "auto",
                     max_vocab: int = MODEL_LIMIT) -> pa.Table:
    """Collocation extraction by pointwise mutual information (Church &
    Hanks 1990): the ``k`` adjacent pairs with the highest
    ``PMI = ln(c_ab * T * T / (P * c_a * c_b))`` among pairs seen at
    least ``min_count`` times (the standard frequency floor — rare pairs
    have degenerate PMI). ``T`` = total tokens, ``P`` = total adjacent
    pairs.

    Shape: pair counts through the shared bucket fold; the
    vocabulary-sized unigram LUT broadcasts once; PMI + the min-count
    filter + a partial top-k run inside the same pass. Rank comparator
    (float32 PMI desc, pair asc) — the repo float-parity policy (the
    PMI expression is the identical left-to-right double product on
    the SQL side).

    ``method``: ``"exact"`` gathers the (word, count) LUT as strings on
    the driver; ``"hashed"`` broadcasts (sorted word-hash, count) arrays
    instead — identical output (collisions are detected and refused),
    16 B/entry, for web-scale vocabularies past what a driver should
    hold as strings. ``"auto"`` switches to hashed above ``max_vocab``
    distinct words (the vocabulary count is taken on the DISTRIBUTED
    fold before anything vocabulary-sized reaches the driver)."""
    import ray as _ray

    from org_rdkit_lucene_ray.stages.bpe import word_counts_ds

    cfg = REGISTRY[analyzer]
    wc_ds = word_counts_ds(docs, text_column=text_col,
                           analyzer=analyzer).materialize()
    t_total = int(wc_ds.sum("n") or 0)
    if method == "auto":
        method = "exact" if wc_ds.count() <= max_vocab else "hashed"
    pairs = rd.from_arrow_refs(_exact_pair_counts(docs, cfg, text_col))
    p_total = int(pairs.sum("c") or 0)
    if p_total == 0:
        return pa.table({"rank": pa.array([], pa.int64()),
                         "pair": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    if method == "hashed":
        lut_ref = _ray.put(_hashed_unigram_lut(wc_ds))
    else:
        rows_wc = wc_ds.take_all()
        words = pa.array([r["word"] for r in rows_wc], pa.string())
        srt = pc.array_sort_indices(words)
        ucounts_arr = np.array([int(r["n"]) for r in rows_wc], np.int64)
        lut_ref = _ray.put((words.take(srt),
                            ucounts_arr[srt.to_numpy(zero_copy_only=False)]))

    def pmi_top(t: pa.Table) -> pa.Table:
        from org_rdkit_lucene_ray.stages.dedup import _bcast

        words, ucounts = _bcast(lut_ref)
        t = t.filter(pc.greater_equal(t["c"], min_count))
        if t.num_rows == 0:
            return pa.table({"pair": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "pmi32": pa.array([], pa.float32())})
        split = pc.split_pattern(t["pair"].combine_chunks(), " ")
        flat = split.values
        if method == "hashed":
            from org_rdkit_lucene_ray.pipelines.build import \
                stable_term_hash

            pos = _hashed_lut_rows(words, stable_term_hash(flat))
        else:
            rows = pc.index_in(flat, value_set=words)
            if rows.null_count:
                raise ValueError("collocation_topk: pair token missing "
                                 "from the unigram LUT")
            pos = rows.to_numpy(zero_copy_only=False).astype(np.int64)
        pos = pos.reshape(-1, 2)
        ca = ucounts[pos[:, 0]].astype(np.float64)
        cb = ucounts[pos[:, 1]].astype(np.float64)
        cab = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        pmi = np.log((cab * t_total * t_total) / (float(p_total) * ca * cb))
        probe = pa.table({"pair": t["pair"], "n": t["c"],
                          "pmi32": pa.array(pmi.astype(np.float32))})
        sel = pc.select_k_unstable(probe, k=min(k, probe.num_rows),
                                   sort_keys=[("pmi32", "descending"),
                                              ("pair", "ascending")])
        return probe.take(sel)

    rows = pairs.map_batches(pmi_top, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: (-np.float32(r["pmi32"]), r["pair"]))
    rows = rows[:k]
    return pa.table({
        "rank": pa.array(range(len(rows)), pa.int64()),
        "pair": pa.array([r["pair"] for r in rows], pa.string()),
        "n": pa.array([r["n"] for r in rows], pa.int64()),
    })
