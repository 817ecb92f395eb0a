"""Analyzer (tokenizer) registry — text -> (term, tf) — vectorized.

Reference analogs:
- ``AnalyzerFactory`` extension point (``AnalyzerFactory.java:37-39``,
  ``StandardAnalyzerFactory.java:39-51``) -> :data:`REGISTRY`.
- fingerprinting, the reference's "tokenize" (SMILES -> bit vector,
  ``DefaultFingerprintFactory.createFingerprint:172-224``; 9 pluggable types,
  ``fingerprint/FingerprintType.java:44-434``) -> pluggable analyzers here.
- postings emission (one index term per set bit,
  ``ChemicalIndex.java:822-825``) -> :func:`postings_from_batch` producing
  the flat ``(term, doc_id, tf, dl)`` table.
- query canonicalization (``ChemicalIndex.java:582``) -> :func:`analyze_text`
  applied to query strings — query and index paths share this exact code,
  which is what makes rank-identity possible (SURVEY M9).

Three faithful implementations of the SAME tokenization are kept in sync:
1. :func:`tokenize_column` — pyarrow.compute (re2), the hot distributed path;
2. :func:`analyze_text` — plain Python (oracle + per-query path);
3. :func:`sql_tokens_expr` — a DuckDB SQL expression used by the driver's
   oracle queries. Unit tests assert 1 == 2 and (via the driver) 2 == 3.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from org_rdkit_lucene_ray.config import AnalyzerConfig

# A small English stopword list (fixed; part of the analyzer fingerprint).
ENGLISH_STOPWORDS: tuple[str, ...] = (
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
    "in", "into", "is", "it", "no", "not", "of", "on", "or", "such", "that",
    "the", "their", "then", "there", "these", "they", "this", "to", "was",
    "will", "with",
)

REGISTRY: dict[str, AnalyzerConfig] = {
    # mirrors the reference's pluggable type enum
    # (fingerprint/FingerprintType.java:44-434, 9 flavors): one registry key
    # per analyzer flavor, each hashed into the index manifest for the
    # compat guard
    "standard": AnalyzerConfig(name="standard"),
    "standard_en_stop": AnalyzerConfig(name="standard_en_stop", stopwords=ENGLISH_STOPWORDS),
    "whitespace": AnalyzerConfig(name="whitespace", lowercase=False, token_pattern=r"[^\s]+"),
    # keyword semantics = index the WHOLE value verbatim: DOTALL pattern so
    # newlines don't split, max_token_len=0 (falsy => unlimited) so long
    # values aren't silently dropped (Lucene KeywordAnalyzer analog).
    "keyword": AnalyzerConfig(name="keyword", lowercase=False,
                              token_pattern=r"(?s).+", max_token_len=0),
    # word-shingle analyzer (Lucene ShingleFilter, shingles-only): terms are
    # adjacent 2-token runs — the phrase-ish fingerprint near-dup pipelines
    # and phrase search lean on
    "shingle_2": AnalyzerConfig(name="shingle_2", word_shingles=2),
    "shingle_3": AnalyzerConfig(name="shingle_3", word_shingles=3),
    # char-n-gram analyzer (Lucene NGramTokenFilter, n=3): substring-match
    # and typo-tolerant retrieval; tokens shorter than n are dropped
    "char_3gram": AnalyzerConfig(name="char_3gram", char_ngrams=3),
    "char_4gram": AnalyzerConfig(name="char_4gram", char_ngrams=4),
    # English minimal plural stemmer (Lucene EnglishMinimalStemFilter,
    # Savoy's minimal English stemmer): 9th registry flavor, completing the
    # reference's 9-member type menu (FingerprintType.java:44-434). ONE RE2
    # pattern (_STEM_PATTERN) is shared verbatim by the Arrow, Python and
    # DuckDB implementations so the three paths cannot drift.
    "en_stem": AnalyzerConfig(name="en_stem", en_minimal_stem=True),
}

# Strip a trailing 's' when the token is >= 4 chars and doesn't end in
# 'us'/'ss' (EnglishMinimalStemmer.java semantics). `.{2,}` + `[^us]` = a
# >= 3-char prefix whose last char is not u/s; RE2-safe, so the identical
# string drives pc.replace_substring_regex, re.sub and DuckDB
# regexp_replace (all codepoint-based UTF-8 engines).
_STEM_PATTERN = r"^(.{2,}[^us])s$"
_STEM_REWRITE = r"\1"


# ---------------------------------------------------------------- python path
_PY_RE_CACHE: dict[tuple, re.Pattern] = {}


def _py_pattern(cfg: AnalyzerConfig) -> re.Pattern:
    key = (cfg.token_pattern,)
    pat = _PY_RE_CACHE.get(key)
    if pat is None:
        pat = _PY_RE_CACHE[key] = re.compile(cfg.token_pattern)
    return pat


def _py_stem_pattern() -> re.Pattern:
    pat = _PY_RE_CACHE.get(("__stem__",))
    if pat is None:
        pat = _PY_RE_CACHE[("__stem__",)] = re.compile(_STEM_PATTERN)
    return pat


def analyze_text(text: str, cfg: AnalyzerConfig) -> list[str]:
    """Tokenize one string. Duplicates preserved, order preserved."""
    if text is None:
        return []
    if cfg.lowercase:
        text = text.lower()
    toks = _py_pattern(cfg).findall(text)
    stop = set(cfg.stopwords)
    toks = [
        t for t in toks
        if cfg.min_token_len <= len(t)
        and (not cfg.max_token_len or len(t) <= cfg.max_token_len)
        and t not in stop
    ]
    if cfg.en_minimal_stem:
        stem = _py_stem_pattern()
        toks = [stem.sub(_STEM_REWRITE, t) for t in toks]
    if cfg.word_shingles >= 2:
        k = cfg.word_shingles
        toks = ["_".join(toks[i:i + k]) for i in range(len(toks) - k + 1)]
    if cfg.char_ngrams >= 2:
        n = cfg.char_ngrams
        toks = [t[i:i + n] for t in toks for i in range(len(t) - n + 1)]
    return toks


# ----------------------------------------------------------------- arrow path
def _list_counts_offsets(lst: pa.ListArray) -> tuple[np.ndarray, np.ndarray]:
    counts = pc.list_value_length(lst).to_numpy(zero_copy_only=False).astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return counts, starts


def _shingle_lists(toks: pa.ListArray, k: int) -> pa.ListArray:
    """Adjacent-``k``-token shingles per doc ("_"-joined), vectorized:
    gram gather positions computed numpy-side (same pattern as
    dedup._batch_shingles), components joined with ONE
    ``binary_join_element_wise`` kernel call."""
    flat = pc.list_flatten(toks)
    counts, starts = _list_counts_offsets(toks)
    n_grams = np.maximum(counts - k + 1, 0)
    total = int(n_grams.sum())
    if total == 0 or len(flat) == 0:
        return pa.ListArray.from_arrays(
            pa.array(np.zeros(len(toks) + 1, np.int64), pa.int32()).cast(pa.int32()),
            pa.array([], pa.string()))
    gram_doc = np.repeat(np.arange(len(counts)), n_grams)
    bounds = np.concatenate([[0], np.cumsum(n_grams)])
    intra = np.arange(total) - np.repeat(bounds[:-1], n_grams)
    gpos = starts[gram_doc] + intra
    parts = [flat.take(pa.array(gpos + j)) for j in range(k)]
    joined = pc.binary_join_element_wise(*parts, "_")
    offsets = pa.array(bounds, pa.int64()).cast(pa.int32())
    return pa.ListArray.from_arrays(offsets, joined)


def _char_ngram_lists(toks: pa.ListArray, n: int) -> pa.ListArray:
    """All char ``n``-grams within each token (tokens shorter than n drop),
    order = (token position, gram position) — identical to the Python path.
    One ``utf8_slice_codeunits`` kernel per gram start position (bounded by
    max_token_len, default 64)."""
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    if len(flat) == 0 or lens.size == 0 or int(lens.max()) < n:
        return pa.ListArray.from_arrays(
            pa.array(np.zeros(len(toks) + 1, np.int64)).cast(pa.int32()),
            pa.array([], pa.string()))
    tok_idx_parts, pos_parts, val_parts = [], [], []
    for i in range(int(lens.max()) - n + 1):
        sel = np.flatnonzero(lens >= i + n)
        if not sel.size:
            break
        grams = pc.utf8_slice_codeunits(
            flat.take(pa.array(sel)), start=i, stop=i + n)
        tok_idx_parts.append(sel)
        pos_parts.append(np.full(sel.size, i, np.int64))
        val_parts.append(grams)
    tok_idx = np.concatenate(tok_idx_parts)
    pos = np.concatenate(pos_parts)
    vals = pa.concat_arrays([v.combine_chunks() if isinstance(v, pa.ChunkedArray)
                             else v for v in val_parts])
    order = np.lexsort((pos, tok_idx))        # (token, gram position)
    vals = vals.take(pa.array(order))
    gram_parents = parents[tok_idx[order]]
    counts = np.bincount(gram_parents, minlength=len(toks))
    offsets = pa.array(np.concatenate([[0], np.cumsum(counts)])).cast(pa.int32())
    return pa.ListArray.from_arrays(offsets, vals)


def split_whitespace(texts: pa.Array | pa.ChunkedArray) -> pa.ListArray:
    """Split on RE2 ``\\s`` (``[\\t\\n\\f\\r ]``) with one literal split:
    the four non-space members become spaces first, so only the rare tab or
    newline is rewritten. Separator runs and leading or trailing separators
    leave empty strings; callers drop them."""
    s = pc.replace_substring_regex(texts, pattern=r"[\t\n\f\r]", replacement=" ")
    return pc.split_pattern(s, pattern=" ")


def tokenize_column(texts: pa.Array | pa.ChunkedArray, cfg: AnalyzerConfig) -> pa.ListArray:
    """Vectorized tokenize of a string column -> list<string> of terms."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    s = pc.utf8_lower(texts) if cfg.lowercase else texts
    # Split on the complement of the token pattern with a literal split on
    # " ": the standard analyzer first maps each run of its separator class
    # (the complement of [a-z0-9], spaces excepted) to one space; empty
    # tokens left by space runs are dropped below.
    if cfg.token_pattern == "[a-z0-9]+":
        s = pc.replace_substring_regex(s, pattern="[^a-z0-9 ]+", replacement=" ")
        toks = pc.split_pattern(s, pattern=" ")
    elif cfg.token_pattern == r"[^\s]+":
        toks = split_whitespace(s)
    else:
        # generic fallback: python path per row (slow; only 'keyword' etc.)
        pylists = [analyze_text(t, cfg) for t in s.to_pylist()]
        return pa.array(pylists, type=pa.list_(pa.string()))
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    keep = pc.not_equal(flat, "")
    if cfg.min_token_len > 1:
        keep = pc.and_(keep, pc.greater_equal(pc.utf8_length(flat), cfg.min_token_len))
    if cfg.max_token_len:
        keep = pc.and_(keep, pc.less_equal(pc.utf8_length(flat), cfg.max_token_len))
    if cfg.stopwords:
        keep = pc.and_(keep, pc.invert(pc.is_in(flat, value_set=pa.array(cfg.stopwords))))
    flat = flat.filter(keep)
    parents = parents.filter(keep)
    if cfg.en_minimal_stem:
        flat = pc.replace_substring_regex(
            flat, pattern=_STEM_PATTERN, replacement=_STEM_REWRITE)
    # rebuild list array from (parent, token) pairs; parents are sorted
    counts = np.bincount(parents.to_numpy(zero_copy_only=False),
                         minlength=len(texts))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    out = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), flat)
    if cfg.word_shingles >= 2:
        out = _shingle_lists(out, cfg.word_shingles)
    if cfg.char_ngrams >= 2:
        out = _char_ngram_lists(out, cfg.char_ngrams)
    return out


def postings_from_batch(
    doc_ids: pa.Array | np.ndarray,
    texts: pa.Array | pa.ChunkedArray,
    cfg: AnalyzerConfig,
    positions: bool = False,
) -> tuple[pa.Table, pa.Table]:
    """One Arrow batch -> (postings, doclens).

    postings: ``term:string, doc_id:int64, tf:int32, dl:int32`` in
    ``(term, doc_id)`` order (terms in byte order, as Arrow sorts strings)
    — ``dl`` (doc token count) rides along with every posting so
    downstream block-max encoding never needs a doc-length join (SURVEY
    §7.1(5) design note).
    doclens: ``doc_id:int64, dl:int32`` (one row per doc, incl. empty docs).

    One integer sort does the grouping: the flat tokens are
    dictionary-encoded, only the distinct terms are string-sorted (a rank
    per term), and ``rank * n_docs + doc`` keys one ``np.unique`` whose
    counts are the tfs.

    ``positions=True`` (store_positions builds) adds ``pos_bytes:binary`` —
    the posting's ascending token positions, delta+varint encoded
    (functions/codec.py) — from one stable sort on the same key, which
    keeps each posting's tokens in position order.
    """
    doc_ids = pc.cast(doc_ids, pa.int64())
    toks = tokenize_column(texts, cfg)
    dl = pc.cast(pc.list_value_length(toks), pa.int32())
    doclens = pa.table({"doc_id": doc_ids, "dl": dl})
    p = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    td = pc.dictionary_encode(pc.list_flatten(toks))
    by_term = pc.sort_indices(td.dictionary).to_numpy()
    rank = np.empty(by_term.size, np.int64)
    rank[by_term] = np.arange(by_term.size)
    n_docs = max(len(doclens), 1)
    key = rank[td.indices.to_numpy(zero_copy_only=False)] * n_docs + p
    if positions:
        from org_rdkit_lucene_ray.functions.codec import encode_position_streams

        # tokens of one doc arrive in position order, so a stable sort
        # keeps each posting's positions ascending
        order = np.argsort(key, kind="stable")
        ks = key[order]
        starts = np.flatnonzero(np.diff(ks, prepend=-1))     # keys are >= 0
        keys = ks[starts]
        tf = np.diff(np.append(starts, ks.size))
        # intra-doc token position: flat index minus that of the doc's first token
        first = toks.offsets.to_numpy().astype(np.int64)
        pos = np.arange(p.size, dtype=np.int64) - (first[p] - first[0])
        buf, pos_offs = encode_position_streams(pos[order], starts)
    else:
        keys, tf = np.unique(key, return_counts=True)
    doc = keys % n_docs
    cols = {
        "term": td.dictionary.take(pa.array(by_term[keys // n_docs])),
        "doc_id": pc.take(doc_ids, pa.array(doc)),
        "tf": pa.array(tf, pa.int32()),
        "dl": pc.take(dl, pa.array(doc)),
    }
    if positions:
        cols["pos_bytes"] = pa.Array.from_buffers(
            pa.binary(), keys.size,
            [None, pa.py_buffer(pos_offs.astype(np.int32).tobytes()),
             pa.py_buffer(buf)])
    return pa.table(cols), doclens


# ------------------------------------------------------------------- sql path
def sql_tokens_expr(col: str, cfg: AnalyzerConfig | None = None) -> str:
    """DuckDB expression producing the SAME token list as :func:`analyze_text`.

    Used to build the driver's oracle SQL so the SQL tokenizer can never
    drift from the engine tokenizer.
    """
    cfg = cfg or REGISTRY["standard"]
    if cfg.token_pattern != "[a-z0-9]+" or not cfg.lowercase:
        raise ValueError("sql path only mirrors the 'standard' analyzer family")
    expr = f"list_filter(string_split_regex(lower({col}), '[^a-z0-9]+'), x -> x <> '')"
    if cfg.max_token_len:
        expr = f"list_filter({expr}, x -> length(x) <= {cfg.max_token_len})"
    if cfg.min_token_len > 1:
        expr = f"list_filter({expr}, x -> length(x) >= {cfg.min_token_len})"
    if cfg.stopwords:
        stoplist = ", ".join(f"'{w}'" for w in cfg.stopwords)
        expr = f"list_filter({expr}, x -> x NOT IN ({stoplist}))"
    return expr


def sql_gram_transform(toks_col: str, cfg: AnalyzerConfig) -> str:
    """DuckDB expression applying the shingle/char-n-gram transforms to an
    already-tokenized list column (pass the :func:`sql_tokens_expr` output
    through a CTE alias first — the expression references ``toks_col``
    several times). Mirrors :func:`analyze_text`'s transform order exactly;
    validated against DuckDB semantics (``range(1, 0) = []``,
    ``list_slice`` 1-based inclusive)."""
    expr = toks_col
    if cfg.en_minimal_stem:
        # DuckDB string literals are escape-free: \1 passes to RE2's
        # rewrite verbatim, and _STEM_PATTERN contains no quotes.
        expr = (f"list_transform({expr}, x -> "
                f"regexp_replace(x, '{_STEM_PATTERN}', '{_STEM_REWRITE}'))")
    if cfg.word_shingles >= 2:
        k = cfg.word_shingles
        expr = (f"list_transform(range(1, len({expr}) - {k} + 2), "
                f"i -> array_to_string(list_slice({expr}, i, i + {k} - 1), '_'))")
    if cfg.char_ngrams >= 2:
        n = cfg.char_ngrams
        expr = (f"flatten(list_transform({expr}, t -> "
                f"list_transform(range(1, length(t) - {n} + 2), "
                f"i -> substring(t, i, {n}))))")
    return expr
