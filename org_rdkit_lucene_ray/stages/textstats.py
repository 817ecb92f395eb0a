"""Text-analysis stages for large-scale training-data pipelines.

Per-batch, vectorized (pyarrow.compute / numpy) transforms over a documents
table (``doc_id, text, lang, ...``): token counting, quality scoring,
document fingerprinting, and a heuristic language-ID stage.

Reference analog: the validation predicates + scalar string functions layer
(M10 ``util/ChemUtils.java:66-105``, M11 ``util/StringUtils.java:139-220``)
— generalized to the text-corpus quality checks a 100 TB training-data
pipeline needs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from org_rdkit_lucene_ray.config import AnalyzerConfig
from org_rdkit_lucene_ray.functions.analyze import (
    ENGLISH_STOPWORDS,
    REGISTRY,
    split_whitespace,
    tokenize_column,
)

_STOPWORD_ARRAY = pa.array(ENGLISH_STOPWORDS)


# GPT-2-style BPE pre-tokenizer pattern (Radford et al. 2019, the public
# gpt-2 `pat`), RE2-compatible (the original's `\s+(?!\S)` lookahead is
# dropped — RE2 has no lookahead — so trailing spaces count as one run):
# contractions | space?letters | space?digits | space?punct-run | space-run.
# The SAME RE2 string runs in Arrow (count_substring_regex) and DuckDB
# (regexp_extract_all), so the count is oracle-checkable bit-for-bit.
BPE_ISH_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


def token_stats_batch(batch: pa.Table, text_col: str = "text",
                      cfg: AnalyzerConfig | None = None) -> pa.Table:
    """Append ``n_tokens`` (analyzer tokens), ``n_ws_tokens`` (whitespace
    split) and ``n_bpe_tokens`` (GPT-2-style pre-tokenizer pieces — the
    training-data token-budget estimator) columns. Vectorized."""
    cfg = cfg or REGISTRY["standard"]
    toks = tokenize_column(batch[text_col].combine_chunks(), cfg)
    n_tokens = pc.cast(pc.list_value_length(toks), pa.int64())
    ws = split_whitespace(batch[text_col].combine_chunks())
    keep = pc.not_equal(pc.list_flatten(ws), "")
    counts = np.bincount(
        pc.list_parent_indices(ws).filter(keep).to_numpy(zero_copy_only=False),
        minlength=batch.num_rows)
    n_bpe = pc.cast(pc.count_substring_regex(
        batch[text_col].combine_chunks(), pattern=BPE_ISH_PATTERN), pa.int64())
    return (batch.append_column("n_tokens", n_tokens)
            .append_column("n_ws_tokens", pa.array(counts))
            .append_column("n_bpe_tokens", n_bpe))


def quality_score_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append quality features + a composite score, all computable in SQL so
    the driver can oracle-check them:

    - ``n_chars_m``     codepoint length
    - ``alpha_ratio``   fraction of [a-z] characters (after lower)
    - ``stop_ratio``    stopword tokens / tokens
    - ``mean_tok_len``  mean analyzer-token length
    - ``quality``       0.4*alpha_ratio + 0.4*(1 - |stop_ratio - 0.4|) +
                        0.2*min(n_tokens,256)/256

    No rounding anywhere: every feature is a single IEEE-754 double
    expression (exact-integer numerators/denominators), so a SQL oracle
    evaluating the same expression is bitwise-equal — no round-half-even
    vs round-half-away flakes.
    """
    text = batch[text_col].combine_chunks()
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    lower = pc.utf8_lower(text)
    alpha_only = pc.replace_substring_regex(lower, pattern="[^a-z]", replacement="")
    n_alpha = pc.cast(pc.utf8_length(alpha_only), pa.float64())
    alpha_ratio = pc.if_else(
        pc.greater(n_chars, 0),
        pc.divide(n_alpha, pc.cast(n_chars, pa.float64())),
        pa.scalar(0.0),
    )
    toks = tokenize_column(text, REGISTRY["standard"])
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.float64)
    is_stop = pc.is_in(flat, value_set=_STOPWORD_ARRAY).to_numpy(zero_copy_only=False)
    tok_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.float64)
    n = batch.num_rows
    stop_cnt = np.zeros(n)
    len_sum = np.zeros(n)
    if len(parents):
        np.add.at(stop_cnt, parents, is_stop.astype(np.float64))
        np.add.at(len_sum, parents, tok_len)
    denom = np.maximum(n_tok, 1.0)
    stop_ratio = stop_cnt / denom
    mean_tok_len = len_sum / denom
    quality = (
        0.4 * alpha_ratio.to_numpy(zero_copy_only=False)
        + 0.4 * (1.0 - np.abs(stop_ratio - 0.4))
        + 0.2 * np.minimum(n_tok, 256.0) / 256.0
    )
    return (
        batch.append_column("n_chars_m", n_chars)
        .append_column("alpha_ratio", pa.array(alpha_ratio.to_numpy(zero_copy_only=False)))
        .append_column("stop_ratio", pa.array(stop_ratio))
        .append_column("mean_tok_len", pa.array(mean_tok_len))
        .append_column("quality", pa.array(quality))
    )


# Gopher-style repetition thresholds (Rae et al. 2021 §A1.1 "repetition
# removal", re-parameterized for this corpus' distribution): a doc is kept
# when no single token or bigram dominates it. Part of the gate contract —
# the SQL oracle compares the SAME IEEE-double expressions to the SAME
# constants, so boundary docs agree bit-for-bit.
GOPHER_TOP_TOK_MAX = 0.10
GOPHER_DUP_TOK_MAX = 0.55
GOPHER_TOP_2GRAM_MAX = 0.05
GOPHER_DUP_2GRAM_MAX = 0.05


def repetition_stats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append Gopher-style repetition features + the keep verdict:

    - ``top_tok_frac``    most-frequent token's count / n_tokens
    - ``dup_tok_frac``    1 - distinct_tokens / n_tokens
    - ``top_2gram_frac``  most-frequent word-bigram's count / n_bigrams
    - ``dup_2gram_frac``  1 - distinct_bigrams / n_bigrams
    - ``keep``            1 when every feature is under its GOPHER_* bound

    Every feature is one float64 division (denominator ``max(n, 1)``;
    empty lists yield dup_frac 1.0 -> dropped, consistently on both
    engines). Vectorized batch-wide: one Arrow ``group_by`` per gram order
    gives per-(doc, gram) counts, then ``np.bincount`` / ``np.maximum.at``
    reduce per doc — no per-row loop."""
    from org_rdkit_lucene_ray.functions.analyze import _shingle_lists

    n = batch.num_rows
    toks = tokenize_column(batch[text_col].combine_chunks(), REGISTRY["standard"])

    def per_doc(lst: pa.ListArray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        tot = pc.fill_null(pc.list_value_length(lst), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        grouped = pa.table({
            "p": pc.list_parent_indices(lst),
            "t": pc.list_flatten(lst),
        }).group_by(["p", "t"]).aggregate([("t", "count")])
        p = grouped["p"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = grouped["t_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        nd = np.bincount(p, minlength=n) if p.size else np.zeros(n, np.int64)
        mx = np.zeros(n, np.int64)
        if p.size:
            np.maximum.at(mx, p, c)
        return tot, nd, mx

    nt, nd_tok, mx_tok = per_doc(toks)
    ng, nd_bi, mx_bi = per_doc(_shingle_lists(toks, 2))
    dt = np.maximum(nt, 1).astype(np.float64)
    db = np.maximum(ng, 1).astype(np.float64)
    top_tok = mx_tok / dt
    dup_tok = 1.0 - nd_tok / dt
    top_bi = mx_bi / db
    dup_bi = 1.0 - nd_bi / db
    keep = ((top_tok <= GOPHER_TOP_TOK_MAX) & (dup_tok <= GOPHER_DUP_TOK_MAX)
            & (top_bi <= GOPHER_TOP_2GRAM_MAX)
            & (dup_bi <= GOPHER_DUP_2GRAM_MAX)).astype(np.int64)
    return (batch.append_column("n_tokens", pa.array(nt))
            .append_column("top_tok_frac", pa.array(top_tok))
            .append_column("dup_tok_frac", pa.array(dup_tok))
            .append_column("top_2gram_frac", pa.array(top_bi))
            .append_column("dup_2gram_frac", pa.array(dup_bi))
            .append_column("keep", pa.array(keep)))


def md5_fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``fp_md5`` — content fingerprint (matches DuckDB ``md5()``).
    Digests the Arrow UTF-8 buffer by offset slices (`util.md5_hex_column`),
    skipping the per-row str decode/encode round-trip."""
    from org_rdkit_lucene_ray.util import md5_hex_column

    return batch.append_column("fp_md5", md5_hex_column(batch[text_col]))


def rolling_fingerprint_batch(batch: pa.Table, text_col: str = "text",
                              window: int = 8) -> pa.Table:
    """Append ``fp_roll`` — min of polynomial rolling hashes over token
    ``window``-grams (a winnowing-style document sketch). Deterministic.

    Token hashing is ONE vectorized FNV pass over the whole batch's flat
    token column (``stable_term_hash``); only the per-doc window combine
    remains a (numpy) loop. Values are byte-identical to the r1 per-token
    Python path (same FNV-1a)."""
    from org_rdkit_lucene_ray.pipelines.build import stable_term_hash

    cfg = REGISTRY["standard"]
    toks = tokenize_column(batch[text_col].combine_chunks(), cfg)
    flat = pc.list_flatten(toks)
    H = stable_term_hash(flat) if len(flat) else np.zeros(0, np.uint64)
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out = np.zeros(batch.num_rows, dtype=np.uint64)
    B = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        for i in range(batch.num_rows):
            c = int(counts[i])
            if c == 0:
                continue
            h = H[starts[i]:starts[i] + c]
            if c < window:
                acc = np.uint64(14695981039346656037)
                for v in h:
                    acc = (acc * B) ^ v
                out[i] = acc
            else:
                grams = np.lib.stride_tricks.sliding_window_view(h, window)
                acc = np.full(grams.shape[0], 14695981039346656037, dtype=np.uint64)
                for k in range(window):
                    acc = (acc * B) ^ grams[:, k]
                out[i] = acc.min()
    return batch.append_column("fp_roll", pa.array(out.astype(np.int64), pa.int64()))


# ------------------------------------------------------------------- lang id
_LANG_PROFILES: dict[str, tuple[str, ...]] = {
    # tiny stopword/bigram profiles; heuristic by design (no external models)
    "en": ("the", "and", "of", "to", "in", "is", "that", "it", "for", "with"),
    "es": ("de", "la", "que", "el", "en", "y", "los", "del", "se", "las"),
    "de": ("der", "die", "und", "den", "von", "zu", "das", "mit", "sich", "auf"),
    "fr": ("de", "la", "le", "et", "les", "des", "en", "un", "du", "une"),
}


class LangIdStage:
    """Heuristic language-ID stage: an instance is the ``map_batches`` task
    function (profiles compiled once on the driver and shipped with it, T1
    analog). CJK detection by unicode block; otherwise the
    profile with the highest DISTINCT-stopword hit count ('und' when no
    evidence); ties resolve in profile order (en, es, de, fr) — exactly the
    oracle's CASE chain.

    Vectorized: tokens filtered to the profile-word union (pc.is_in), the
    (doc, word) pairs deduped with one Arrow group_by, per-language counts
    via np.bincount — no per-document Python loop."""

    def __init__(self):
        self._langs = list(_LANG_PROFILES)
        words = sorted({w for p in _LANG_PROFILES.values() for w in p})
        self._words = pa.array(words, pa.string())
        self._word_lang = np.zeros((len(words), len(self._langs)), dtype=bool)
        for li, lang in enumerate(self._langs):
            prof = set(_LANG_PROFILES[lang])
            for wi, w in enumerate(words):
                self._word_lang[wi, li] = w in prof

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        texts = batch["text"].combine_chunks()
        cjk = pc.match_substring_regex(
            texts, pattern=r"[一-鿿぀-ヿ]").to_numpy(zero_copy_only=False)
        toks = tokenize_column(texts, REGISTRY["standard"])
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks)
        keep = pc.is_in(flat, value_set=self._words)
        pairs = pa.table({"p": parents.filter(keep), "w": flat.filter(keep)})
        distinct = pairs.group_by(["p", "w"]).aggregate([])
        p = distinct["p"].to_numpy(zero_copy_only=False).astype(np.int64)
        widx = pc.index_in(distinct["w"], value_set=self._words) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.zeros((n, len(self._langs)), dtype=np.int64)
        for li in range(len(self._langs)):
            m = self._word_lang[widx, li]
            if m.any():
                counts[:, li] = np.bincount(p[m], minlength=n)
        best = np.argmax(counts, axis=1)        # first max wins: CASE order
        hit = counts[np.arange(n), best] > 0
        lang_arr = np.asarray(self._langs, dtype=object)[best]
        out = np.where(cjk, "zh", np.where(hit, lang_arr, "und"))
        return batch.append_column(
            "lang_pred", pa.array(out.astype(object), pa.string()))


# ------------------------------------------------- per-doc keyword extraction
def top_terms_per_doc(docs, df_table: pa.Table, n_docs: int, *, k: int = 3,
                      text_col: str = "text", id_col: str = "doc_id",
                      analyzer: str = "standard"):
    """Batch MoreLikeThis term selection (`MoreLikeThis.
    retrieveInterestingTerms` for EVERY doc at once) — per-doc keyword
    extraction, the tf·idf feature-export step of corpus curation.

    The global (term, df) dictionary is the MODEL: broadcast once
    (``ray.put``), term-SORTED so that ``pc.index_in`` positions double as
    the lexicographic tie-break rank — no string comparisons in the hot
    path. The broadcast assumes a memory-resident dictionary (true for
    curated vocabularies; fastText-style hashing or a hash-partitioned
    term join is the fallback when the raw web vocabulary exceeds a
    worker's heap). Per batch: tokenize, one ``index_in`` (C-speed hash join into
    the dictionary), one lexsort+run-length fold for per-(doc, term) tf,
    score ``tf * idf`` (the BM25 idf, as ``Searcher.mlt_terms``), rank on
    float32 (score desc, term asc), keep the top ``k`` per doc. Output
    (doc_id, rnk, term) is integer/string only — hash-stable.
    """
    import ray
    import ray.data as rd  # noqa: F401  (type only)

    order = pc.sort_indices(df_table["term"])
    sorted_df = df_table.take(order)
    dv = sorted_df["df"].to_numpy().astype(np.float64)
    n = float(n_docs)
    idf = np.log(1.0 + (n - dv + 0.5) / (dv + 0.5))
    model = ray.put((sorted_df["term"].combine_chunks(), idf))
    cfg = REGISTRY[analyzer]
    kk = int(k)

    def fn(t: pa.Table) -> pa.Table:
        terms_sorted, idf_b = ray.get(model)
        V = len(terms_sorted)
        toks = tokenize_column(t[text_col].combine_chunks(), cfg)
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "rnk": pa.array([], pa.int64()),
                          "term": pa.array([], pa.string())})
        if len(flat) == 0:
            return empty
        pos = pc.index_in(flat, value_set=terms_sorted)
        pos_np = pos.to_numpy(zero_copy_only=False)
        ok = ~np.isnan(pos_np.astype(np.float64)) if pos_np.dtype.kind == "f" \
            else np.ones(len(pos_np), bool)
        rank = np.where(ok, pos_np, 0).astype(np.int64)
        key = parents * V + rank
        key = key[ok]
        if key.size == 0:
            return empty
        key.sort()
        starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        tf = np.diff(np.concatenate([starts, [key.size]])).astype(np.float64)
        uk = key[starts]
        doc_ix = uk // V
        rnk_ix = uk % V
        s32 = (tf * idf_b[rnk_ix]).astype(np.float32)
        sel = np.lexsort((rnk_ix, -s32.astype(np.float64), doc_ix))
        d_s, r_s = doc_ix[sel], rnk_ix[sel]
        run_start = np.flatnonzero(
            np.concatenate([[True], d_s[1:] != d_s[:-1]]))
        within = np.arange(d_s.size) - np.repeat(
            run_start, np.diff(np.concatenate([run_start, [d_s.size]])))
        m = within < kk
        return pa.table({
            "doc_id": pa.array(ids[d_s[m]], pa.int64()),
            "rnk": pa.array(within[m], pa.int64()),
            "term": terms_sorted.take(pa.array(r_s[m], pa.int64())),
        })

    return docs.map_batches(fn, batch_format="pyarrow")


def winnow_batch(batch: pa.Table, text_col: str = "text", *,
                 shingle_k: int = 3, window: int = 4,
                 id_col: str = "doc_id") -> pa.Table:
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken,
    SIGMOD 2003 — the MOSS local-similarity sketch): hash every
    ``shingle_k``-gram, slide a ``window``-gram window and select each
    window's MINIMUM hash (tie -> rightmost position, the paper's rule);
    the distinct selected (position, hash) set is the fingerprint.
    Guarantees: any shared substring of length >= window+shingle_k-1
    yields at least one shared fingerprint (the winnowing theorem), at
    ~2/(window+1) the k-gram density.

    Gram hash = DuckDB-parity ``md5`` hex of the ``_``-joined shingle
    (the shingle analyzer's own join rule; hex strings order
    lexicographically == numerically, so the window-min is computed on a
    per-batch RANK ENCODING of the hex values — ``np.unique`` inverse —
    because numpy has no min ufunc for flexible dtypes). Fewer grams
    than ``window`` -> one window over what exists.

    Emits (doc_id, n_grams, n_fps, fp_min): fingerprint count + the
    smallest selected hash ('' when the doc has no grams) — the summary
    the SQL oracle pins exactly; the full (doc, pos, hash) set is what a
    dedup join would consume."""
    cfg = REGISTRY[f"shingle_{shingle_k}"]
    toks = tokenize_column(batch[text_col].combine_chunks(), cfg)
    from org_rdkit_lucene_ray.util import md5_hex_column

    flat = toks.values
    hexes = md5_hex_column(flat).to_numpy(zero_copy_only=False) \
        if len(flat) else np.zeros(0, object)
    counts = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    # order-isomorphic integer ranks (batch-global is fine per doc)
    if len(hexes):
        uniq, inv = np.unique(hexes, return_inverse=True)
    else:
        uniq, inv = np.zeros(0, object), np.zeros(0, np.int64)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    n_fps = np.zeros(batch.num_rows, np.int64)
    fp_min = [""] * batch.num_rows
    for i in range(batch.num_rows):
        m = int(counts[i])
        if m == 0:
            continue
        r = inv[starts[i]: starts[i] + m]
        w = min(window, m)
        W = np.lib.stride_tricks.sliding_window_view(r, w)
        wmin = W.min(axis=1)
        # rightmost occurrence of the window min (paper's tie rule)
        best = np.zeros(wmin.size, np.int64)
        for off in range(w):
            hit = r[off: off + wmin.size] == wmin
            best[hit] = np.arange(wmin.size)[hit] + off
        sel = np.unique(best)
        n_fps[i] = sel.size
        fp_min[i] = str(uniq[r[sel].min()])
    return pa.table({
        "doc_id": pa.array(ids),
        "n_grams": pa.array(counts),
        "n_fps": pa.array(n_fps),
        "fp_min": pa.array(fp_min, pa.string()),
    })
