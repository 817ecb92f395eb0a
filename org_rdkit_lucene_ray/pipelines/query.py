"""BM25 top-k query pipeline: searcher tasks + vectorized block-max
pruning.

Reference analogs:
- ``IndexSearcher`` singleton opened lazily on the first query (T3,
  ``ChemicalIndex.java:886-904``) -> :class:`Searcher`, lazy by default:
  a bucket's chunks load on its first probe and every later query of
  that Searcher reuses them. The batch surfaces (:func:`run_queries`,
  :func:`run_set_queries`, :func:`topk_sharded`,
  :func:`phrase_hits_sharded`) are plain ``map_batches`` task functions:
  each task opens one Searcher per query block on the generation the
  driver resolved for the call.
- bounded top-k PQ with "lower score loses; tie -> larger docID loses"
  (``SubstructureHitQueue.java:98-118``) -> :func:`_top_hits`, the final
  select of every top-k scorer.
- ``TopScoreDocCollector`` (K1/K2) -> two collectors:
  :meth:`Searcher.topk_exhaustive` scores every match, and
  :meth:`Searcher.topk_bmw` prunes. Both produce IDENTICAL results
  (tested), and both are float-exact vs the oracle: per-doc contributions
  are added in ascending term order in float64 and rounded once to float32.
  Pruning follows the public literature: Block-Max WAND (Ding & Suel,
  SIGIR 2011) bounds and MaxScore essential-list splitting (Turtle &
  Flood, IP&M 1995), re-derived in vectorized numpy form with an
  exactness guarantee the papers don't need, and a threshold known before
  scoring, from per-term top docs kept in the decode cache.
- hit -> stored-field join (J7, ``getPrimaryKeysForSearchHits:739-767``) ->
  :meth:`Searcher.resolve_urls` — predicate-pushdown read of the forward
  index for just the top-k doc ids (a broadcast-small-side join).

Distribution model: a search task scores whole queries against all
segment chunks (query-parallel). ``topk_sharded`` also shards by segment:
each shard task searches one contiguous run of segments, and the driver
merges the per-shard top-k rows with the same (score desc, doc_id asc)
comparator in one ``np.lexsort`` — doc-id ranges are disjoint per segment
so partial heaps concatenate safely (SURVEY K2), and a query has at most
``n_shards × k`` rows to re-sort.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from org_rdkit_lucene_ray.config import AnalyzerConfig, BM25Params
from org_rdkit_lucene_ray.functions.analyze import analyze_text
from org_rdkit_lucene_ray.functions.codec import (
    decode_position_streams,
    gather_position_runs,
)
from org_rdkit_lucene_ray.pipelines.build import stable_term_hash_one
from org_rdkit_lucene_ray.state.segment import (
    _ChunkIndex,
    _SortedTermIndex,
    check_format,
    check_query_compat,
    chunk_bucket_of,
    decode_postings,
    gen_dir,
    list_chunk_files,
    list_segment_ids,
    read_chunk_table,
    read_manifest,
)


# Byte budget of one Searcher's decoded-posting cache (one _Postings per
# term: docs, tfs, dls, weights, block bounds, top docs). A budget in
# bytes, not a slot count, sizes the cache to the working set: a whole
# 16k-doc index decodes to ~25 MB, while one head term of a billion-doc
# index can alone exceed it.
DECODE_CACHE_BYTES = 256 << 20
# fixed per-entry charge (dict slot, key, tuple) — keeps cached misses
# (``None`` entries) inside the budget too
_CACHE_ENTRY_BYTES = 128
# doc ids of each term's largest weights kept in its decode-cache entry:
# the bootstrap threshold of any top-k with k <= _TOP_K is scored from
# them, so no query makes a pass over a term's postings to find it.
_TOP_K = 128


class _Postings(NamedTuple):
    """One term's decode-cache entry: its posting list concatenated across
    segments, plus the query-independent data every scorer reads.

    Doc ids are globally ascending because segments are doc-id-range
    partitions visited in ascending segment order (SURVEY §2.9 ordering
    invariant).

    ``weights`` is the per-posting float64 weight under the searcher's
    similarity. ``blk_maxw[j]`` is the EXACT maximum of ``weights`` over
    postings ``j * block_size`` to ``(j + 1) * block_size - 1``, derived
    from the live weights; chunks store no bounds. A bound fixed at
    encode time would be relative to that generation's avgdl, and on a
    multi-generation index the query-time avgdl can exceed it, making it
    non-admissible (true weights above the bound => block-max pruning
    could drop genuine top-k hits). ``top`` holds the doc ids of the
    ``_TOP_K`` largest weights in descending weight order, ``max_w`` the
    largest weight."""

    docs: np.ndarray
    tfs: np.ndarray
    dls: np.ndarray
    weights: np.ndarray
    blk_maxw: np.ndarray
    top: np.ndarray
    max_w: float


def _cache_entry_bytes(dec: _Postings | None) -> int:
    return _CACHE_ENTRY_BYTES + (0 if dec is None else sum(
        a.nbytes for a in dec if isinstance(a, np.ndarray)))


def _exact_scores(clauses: list[tuple[_Postings, int]],
                  docs: np.ndarray) -> np.ndarray:
    """float64 scores of ``docs`` with the oracle's summation order: one add
    per clause occurrence, in ascending clause order (adding +0.0 for an
    absent clause is an exact identity, so each sum equals the oracle's)."""
    acc = np.zeros(docs.size, dtype=np.float64)
    for p, mult in clauses:
        pos = np.minimum(np.searchsorted(p.docs, docs), p.docs.size - 1)
        w = np.where(p.docs[pos] == docs, p.weights[pos], 0.0)
        for _ in range(mult):
            acc = acc + w
    return acc


# up to this many hits one lexsort is cheaper than argpartition + filter +
# lexsort (one CPU core: 6.5 vs 14 us at 16 hits, 11 vs 16 us at 256)
_SORT_ALL_MAX = 512


def _top_hits(docs: np.ndarray, s32: np.ndarray,
              k: int) -> list[tuple[int, float]]:
    """The first ``k`` of parallel doc/float32-score arrays in (score desc,
    doc_id asc) order — the reference's hit-queue comparator
    (``SubstructureHitQueue.java:98-118``)."""
    if k <= 0:
        return []
    if docs.size > max(k, _SORT_ALL_MAX):
        kth = s32[np.argpartition(-s32, k - 1)[:k]].min()
        sel = np.flatnonzero(s32 >= kth)          # keep ties for doc-id order
        docs, s32 = docs[sel], s32[sel]
    order = np.lexsort((docs, -s32.astype(np.float64)))[:k]
    return [(int(docs[i]), float(s32[i])) for i in order]


def _sum_by_doc(parts_d: list, parts_w: list):
    """Concatenated per-clause (docs, float64 weights) grouped by doc ->
    ``(docs sorted, weights in that order, group starts)``. The stable sort
    keeps clause order within a doc, so ``np.add.reduceat`` over the starts
    sums left-to-right in the oracle's order (it is sequential below its
    128-element pairwise threshold; queries have far fewer clauses). A
    weight part may be 2-D: its rows travel with their docs."""
    docs = np.concatenate(parts_d)
    order = np.argsort(docs, kind="stable")
    docs_s, ws_s = docs[order], np.concatenate(parts_w)[order]
    starts = np.flatnonzero(
        np.concatenate([[True], docs_s[1:] != docs_s[:-1]]))
    return docs_s, ws_s, starts


def _fold_scores(parts_d: list, parts_w: list) -> tuple[np.ndarray, np.ndarray]:
    """The one exhaustive fold: per-clause (docs, float64 weights) ->
    ``(docs ascending, float32 scores)``, each doc's weights summed in
    clause order (:func:`_sum_by_doc`) and cast to float32 once."""
    if not parts_d:
        return np.zeros(0, np.int64), np.zeros(0, np.float32)
    docs_s, ws_s, starts = _sum_by_doc(parts_d, parts_w)
    return docs_s[starts], np.add.reduceat(ws_s, starts).astype(np.float32)


# Doc-set algebra over ascending, duplicate-free doc-id arrays (Lucene
# BooleanQuery doc-set semantics); every result is ascending too.
def _intersect(sets: list[np.ndarray]) -> np.ndarray:
    """MUST: shortest set first, stopping as soon as the result is empty."""
    if not sets:
        return np.zeros(0, np.int64)
    sets = sorted(sets, key=len)
    out = sets[0]
    for s in sets[1:]:
        if out.size == 0:
            break
        out = out[np.isin(out, s, assume_unique=True)]
    return out


def _union(sets: list[np.ndarray]) -> np.ndarray:
    """SHOULD: every doc of any set."""
    return np.unique(np.concatenate(sets)) if sets else np.zeros(0, np.int64)


def _combine(musts: list[np.ndarray], shoulds: list[np.ndarray],
             must_nots: list[np.ndarray]) -> np.ndarray:
    """MUST sets intersect; SHOULD sets union only when no MUST exists
    (beside a MUST they only score); MUST_NOT sets always subtract. A query
    of MUST_NOT clauses alone matches nothing."""
    out = _intersect(musts) if musts else _union(shoulds)
    if must_nots and out.size:
        out = out[~np.isin(out, _union(must_nots), assume_unique=True)]
    return out


def _cap(docs: np.ndarray, max_hits: int | None) -> np.ndarray:
    """The reference's ``iMaxHits`` cap (``ChemicalIndex.java:513``): the
    first ``max_hits`` docs in ascending doc-id order."""
    return docs if max_hits is None else docs[:max_hits]


# scorers :meth:`Searcher.topk` dispatches to
TOPK_MODES = ("bmw", "exhaustive", "phrase")


def _check_topk_mode(mode: str) -> None:
    if mode not in TOPK_MODES:
        raise ValueError(f"unknown top-k mode {mode!r}; valid modes: "
                         + ", ".join(TOPK_MODES))


def _levenshtein_within(a: str, b: str, k: int) -> bool:
    """Wagner-Fischer DP with an early-exit row-minimum bound: True iff
    edit_distance(a, b) <= k. O(len(a) * len(b)) worst case but candidates
    are length-banded first, and rows abort once min > k."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return False
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cost = 0 if ca == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        if min(cur) > k:
            return False
        prev = cur
    return prev[lb] <= k


class Searcher:
    """Open one index generation and answer the reference's search surface.

    ``shard=(i, n)`` loads only the i-th of ``n`` nearly-equal contiguous
    runs of segment ids (a doc-range partition) while keeping
    GLOBAL corpus statistics (n_docs/avgdl from the manifest; df from the
    index's df table), so per-shard scores equal the unsharded scores and
    per-shard top-k heaps merge exactly (any global top-k doc is in its
    shard's top-k) — the intra-query parallelism design SURVEY §4 calls for.
    """

    def __init__(self, index_dir: str, generation: str | None = None,
                 shard: tuple[int, int] | None = None, similarity: str = "bm25",
                 residency: str = "lazy"):
        if similarity not in ("bm25", "classic"):
            raise ValueError(f"unknown similarity {similarity!r} "
                             "(expected 'bm25' or 'classic')")
        # pluggable per-term weight formula (Lucene's Similarity seam:
        # BM25Similarity is the modern default, ClassicSimilarity the
        # TF-IDF VSM it replaced). Block-max bounds are derived from the
        # LIVE weight vector in _decode_term, so every pruning path stays
        # admissible for ANY positive weight formula — no per-similarity
        # pruning code.
        self.similarity = similarity
        self.manifest = read_manifest(index_dir, generation)
        check_format(self.manifest)   # refuse foreign bucket-hash formats
        self.gdir = gen_dir(index_dir, generation)
        stats = self.manifest["stats"]
        self.n_docs = int(stats["n_docs"])
        self.avgdl = float(stats["avgdl"])
        bm = self.manifest["config"]["bm25"]
        self.bm25 = BM25Params(k1=bm["k1"], b=bm["b"])
        self.block_size = int(self.manifest["config"]["block_size"])
        # positional sidecar flag (r4): chunk rows carry pos_bytes streams,
        # so phrase verify runs off the index, not the stored text
        self.store_positions = bool(
            self.manifest["config"].get("store_positions", False))
        qa = self.manifest["config"]["query_analyzer"]
        qa = {k: tuple(v) if isinstance(v, list) else v for k, v in qa.items()}
        self.query_cfg = AnalyzerConfig(**qa)
        check_query_compat(self.manifest, self.query_cfg.fingerprint())

        # segment dictionaries: term -> per-chunk row locator, grouped by
        # term bucket (a term lives in exactly ONE bucket across every
        # segment, so a lookup probes only its bucket's chunk tables).
        # Loaded once per Searcher (T3); columns stay zero-copy Arrow — the
        # term dictionary is a _SortedTermIndex over the term-sorted chunk
        # column, NOT a Python dict (web-scale vocabularies). A generation
        # may include parent generations (log-structured incremental adds,
        # pipelines/merge.py); segment ids are globally unique and
        # doc-range-ordered across included gens.
        self._gdirs: list[str] = [
            os.path.join(index_dir, g)
            for g in self.manifest.get("includes", [self.manifest["generation"]])
        ]
        self._term_buckets = int(self.manifest["config"]["term_buckets"])
        self._by_bucket: dict[int, list[tuple[int, pa.Table, _ChunkIndex]]] = {}
        mine: set[int] | None = None
        if shard is not None:
            # CONTIGUOUS doc-range sharding (segment ids order doc ranges):
            # shard i takes the i-th of n nearly-equal contiguous sid runs,
            # so its doc span shrinks ~1/n. The r2 `sid % n` interleave left
            # every shard spanning the FULL doc range, which made each
            # shard searcher allocate a corpus-wide dense accumulator —
            # measured at soak scale: sharded p95 2.2x WORSE than a single
            # searcher from the concurrent span-wide memory traffic.
            # Contiguous ranges are also the multi-node layout (a shard =
            # a doc-range partition co-located with its segments).
            all_sids = sorted({s for gd in self._gdirs
                               for s in list_segment_ids(gd)})
            splits = np.array_split(np.asarray(all_sids, dtype=np.int64),
                                    shard[1])
            mine = set(int(s) for s in splits[shard[0]])
        # LAZY residency (r3 verdict #8 / north-star "mmap'd segment
        # shards"): __init__ only LISTS chunk files (no data read); a
        # bucket's chunk tables + term indexes load on the first probe of
        # that bucket and stay cached for the Searcher's lifetime. A
        # searcher serving a selective query mix touches only the buckets
        # its terms hash to, so its RSS and init time scale with the WORKING
        # SET, not the shard — at web scale a searcher over a 100 GB shard that
        # answers head-term queries resides a few hot buckets. Parquet
        # reads use memory_map=True so the OS page cache backs the raw
        # column bytes (zstd pages still decompress into heap; the decoded
        # posting arrays themselves live in the byte-budgeted _decode_cache).
        # ``residency="eager"`` preloads everything (old behavior) for
        # latency-critical serving where the first-probe cost must not
        # land on a query.
        self._bucket_files: dict[int, list[tuple[int, str]]] = {}
        n_chunks = 0
        for gd in self._gdirs:
            for sid in list_segment_ids(gd):
                if mine is not None and sid not in mine:
                    continue
                for f in list_chunk_files(gd, sid):
                    self._bucket_files.setdefault(chunk_bucket_of(f), []) \
                        .append((sid, f))
                    n_chunks += 1
        for lst in self._bucket_files.values():
            lst.sort(key=lambda x: x[0])       # ascending segment order
        self._n_chunks = n_chunks
        if residency not in ("lazy", "eager"):
            raise ValueError(f"residency must be 'lazy' or 'eager', "
                             f"got {residency!r}")
        if residency == "eager":
            for b in self._bucket_files:
                self._bucket_chunks(b)
        # sharded scoring needs GLOBAL df — from the df table, not the
        # shard's partial chunk counts. Kept Arrow-native: a term-sorted
        # (term, df) table + binary search, not a vocab-sized Python dict.
        # The sorted table replaces the cached one, so one copy serves the
        # df lookups and the vocabulary scans (whose answers are sorted).
        self._gdf_index: _SortedTermIndex | None = None
        self._gdf_vals: np.ndarray | None = None
        if shard is not None:
            dfs = self._dfs()
            if dfs is not None:
                dfs = self._dfs_cache = dfs.take(pc.sort_indices(dfs["term"]))
                self._gdf_index = _SortedTermIndex(dfs["term"])
                self._gdf_vals = dfs["df"].to_numpy()
        # tombstones (upserted-away docs): masked at decode time; like
        # Lucene, they still count in df/avgdl until a merge drops them.
        del_path = os.path.join(self.gdir, "deletes.parquet")
        self._deletes = (pq.read_table(del_path)["doc_id"].to_numpy()
                         if os.path.exists(del_path) else None)
        self._df_cache: dict[str, int] = {}
        # LRU of decoded posting lists + precomputed weight vectors, block
        # bounds and top docs (_Postings), bounded by DECODE_CACHE_BYTES:
        # head terms recur across queries (T3 warm-searcher analog). The
        # arrays are shared by every query and never written. The counters
        # are always on.
        from collections import OrderedDict

        self._decode_cache: "OrderedDict[str, _Postings | None]" = OrderedDict()
        self.decode_hits = 0
        self.decode_misses = 0
        self.decode_cache_bytes = 0
        # full positional decodes of dense phrase terms
        # (_decode_term_positions), bounded by _POS_CACHE_MAX_VALUES
        self._pos_cache: "OrderedDict[str, tuple]" = OrderedDict()
        self._pos_cache_values = 0

    def _bucket_chunks(self, bucket: int) -> list[tuple[int, pa.Table, _ChunkIndex]]:
        """Chunk tables + term indexes (with posting-column views) of one
        bucket, loaded on first probe and cached (lazy residency).
        memory_map=True keeps the raw Parquet bytes on the page cache
        instead of a heap copy."""
        got = self._by_bucket.get(bucket)
        if got is None:
            got = []
            for sid, f in self._bucket_files.get(bucket, ()):
                # ipc chunks map zero-copy (page-cache-resident buffers);
                # parquet decompresses pages into heap on read
                tbl = read_chunk_table(f, memory_map=True)
                if tbl.num_rows:
                    got.append((sid, tbl, _ChunkIndex(tbl)))
            self._by_bucket[bucket] = got
        return got

    # ------------------------------------------------------------- stats/meta
    def _dfs(self) -> pa.Table | None:
        """The (term, df) table: the per-bucket df tables concatenated and,
        across included generations (where terms repeat), combined. Read
        once per Searcher, the one place the df Parquet files are read — for
        the sharded global df, the multi-term rewrites (vocab scans) and the
        suggester (df weights)."""
        if hasattr(self, "_dfs_cache"):
            return self._dfs_cache
        tabs = []
        for gd in self._gdirs:
            df_dir = os.path.join(gd, "df")
            if not os.path.isdir(df_dir):
                continue
            tabs.extend(pq.read_table(os.path.join(df_dir, f))
                        for f in sorted(os.listdir(df_dir))
                        if f.endswith(".parquet"))
        t = pa.concat_tables(tabs) if tabs else None
        if t is not None and len(self._gdirs) > 1:
            g = t.group_by("term").aggregate([("df", "sum")])
            t = pa.table({"term": g["term"], "df": g["df_sum"]})
        self._dfs_cache = t
        return t

    def _term_bucket(self, term: str) -> int:
        return stable_term_hash_one(term) % self._term_buckets

    def df(self, term: str) -> int:
        if self._gdf_vals is not None:
            i = self._gdf_index.find(term)
            return 0 if i is None else int(self._gdf_vals[i])
        d = self._df_cache.get(term)
        if d is None:
            d = sum(int(v.df[i]) for v, i, _ in self._term_ranges(term))
            self._df_cache[term] = d
        return d

    def idf(self, term: str) -> float:
        import math
        df = self.df(term)
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def _sim_idf_of_df(self, df: int) -> float:
        """idf under the active similarity: BM25's Robertson-Sparck-Jones
        form, or ClassicSimilarity's ``1 + ln((N + 1) / (df + 1))``."""
        import math
        if self.similarity == "classic":
            return 1.0 + math.log((self.n_docs + 1.0) / (df + 1.0))
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def _sim_idf(self, term: str) -> float:
        return self._sim_idf_of_df(self.df(term))

    def _weight_arrays(self, idf: float, tf: np.ndarray,
                       dl: np.ndarray) -> np.ndarray:
        """Per-posting float64 weight vector under the active similarity
        (``tf``/``dl`` already float64). Op order matches the oracle SQL."""
        if self.similarity == "classic":
            return (idf * idf) * np.sqrt(tf) / np.sqrt(dl)
        k1, b = self.bm25.k1, self.bm25.b
        K = k1 * ((1.0 - b) + (b * dl) / self.avgdl)
        return idf * (tf * (k1 + 1.0)) / (tf + K)

    # ---------------------------------------------------------- decode cache
    def _decode_term(self, term: str) -> _Postings | None:
        """This term's :class:`_Postings` (``None`` if no live posting),
        decoded once and kept in a byte-budgeted LRU.

        Everything in the entry is query-independent (idf and avgdl are
        fixed per searcher) and is built here, once per decode:

        - the float64 weight vector under the active similarity;
        - LIVE block-max bounds, one ``np.maximum.reduceat`` over the
          weights (nothing is stored: an encode-time bound would carry its
          generation's own avgdl, stop being admissible once a delta
          generation shifts the combined avgdl, and go stale across
          tombstones). Live bounds are exact for the (avgdl, deletes)
          pair;
        - the doc ids of the ``_TOP_K`` largest weights, by one
          ``argpartition`` and a sort of ``_TOP_K`` items, from which
          :meth:`topk_bmw` scores its pruning threshold.

        The cache holds at most ``DECODE_CACHE_BYTES``: each entry costs
        its arrays' ``nbytes`` (top docs included) plus
        ``_CACHE_ENTRY_BYTES`` (so cached misses are bounded too);
        least-recently-used entries are evicted, and an entry larger than
        the whole budget is returned uncached."""
        cache = self._decode_cache
        if term in cache:
            cache.move_to_end(term)
            self.decode_hits += 1
            return cache[term]
        self.decode_misses += 1
        dec = self._decode_term_uncached(term)
        if dec is not None:
            docs, tfs, dls, df = dec
            if self._gdf_vals is None:
                # unsharded: the chunks just probed hold every posting, so
                # their summed df_chunk IS the term's df — no second lookup
                self._df_cache[term] = df
            else:
                df = self.df(term)      # sharded: the global df table
            weights = self._weight_arrays(self._sim_idf_of_df(df),
                                          tfs.astype(np.float64),
                                          dls.astype(np.float64))
            blk_maxw = np.maximum.reduceat(
                weights, np.arange(0, docs.size, self.block_size))
            top = (np.argpartition(-weights, _TOP_K - 1)[:_TOP_K]
                   if docs.size > _TOP_K else np.arange(docs.size))
            top = top[np.argsort(-weights[top], kind="stable")]
            dec = _Postings(docs, tfs, dls, weights, blk_maxw, docs[top],
                            float(blk_maxw.max()))
        size = _cache_entry_bytes(dec)
        if size <= DECODE_CACHE_BYTES:
            cache[term] = dec
            self.decode_cache_bytes += size
            while self.decode_cache_bytes > DECODE_CACHE_BYTES:
                self.decode_cache_bytes -= _cache_entry_bytes(
                    cache.popitem(last=False)[1])
        return dec

    def _term_ranges(self, term: str) -> list[tuple[_ChunkIndex, int, int]]:
        """``(view, row, row + 1)`` of each chunk holding ``term``, in
        ascending segment order — the :func:`decode_postings` ranges of one
        term. Only the term's own bucket is probed, one binary search per
        chunk."""
        return [(tix, i, i + 1)
                for _, _, tix in self._bucket_chunks(self._term_bucket(term))
                if (i := tix.find(term)) is not None]

    def _decode_term_uncached(self, term: str):
        """Concatenate this term's chunks across segments (ascending sid)
        -> ``(docs, tfs, dls, df)`` with ``df`` the summed ``df_chunk``
        before the tombstone mask, or None if no live posting. One varint
        pass per term (:func:`decode_postings`)."""
        ranges = self._term_ranges(term)
        if not ranges:
            return None
        docs, tfs, dls, _ = decode_postings(ranges)
        n = docs.size
        if self._deletes is not None and self._deletes.size:
            keep = ~np.isin(docs, self._deletes)
            if not keep.all():
                docs, tfs, dls = docs[keep], tfs[keep], dls[keep]
                if docs.size == 0:
                    return None
        return (docs, tfs, dls, n)

    def _query_terms(self, query: str) -> list[str]:
        """Tokenize a query, honoring ``field:value`` composite terms for
        indexed metadata fields (J5, ``MultiFieldQueryParser`` analog
        ``ChemicalIndex.java:466-491``); everything else goes through the
        query analyzer."""
        fields = set(self.manifest["config"].get("field_columns", []))
        out: list[str] = []
        for raw in query.split():
            if ":" in raw and fields:
                f, v = raw.split(":", 1)
                if f in fields and v:
                    out.append(f + ":" + v.lower())
                    continue
            out.extend(analyze_text(raw, self.query_cfg))
        return out

    def _clauses(self, query: str) -> list[tuple[_Postings, int]]:
        """-> ``(postings, mult)`` per distinct indexed query term, in
        ascending term order; ``mult`` counts the term's occurrences (the
        oracle adds one contribution per occurrence)."""
        terms = sorted(self._query_terms(query))
        out = []
        for t in dict.fromkeys(terms):
            p = self._decode_term(t)
            if p is not None:
                out.append((p, terms.count(t)))
        return out

    # ------------------------------------------------------------ exhaustive
    def score_all(self, query: str) -> tuple[np.ndarray, np.ndarray]:
        """Score every matching doc (TermQuery-OR over clauses).

        float-exact vs the oracle: contributions concatenated in ascending
        term-occurrence order and summed per doc in that order
        (:func:`_fold_scores`)."""
        reps = [p for p, mult in self._clauses(query) for _ in range(mult)]
        return _fold_scores([p.docs for p in reps], [p.weights for p in reps])

    @staticmethod
    def _after_mask(docs: np.ndarray, s32: np.ndarray,
                    after: tuple[float, int]) -> np.ndarray:
        """Search-after predicate (K2 collector variant,
        ``SubstructureScoreDocCollector.java:63-256``, factory ``:268-301``):
        keep hits STRICTLY after ``(after_score, after_doc)`` in the global
        (score desc, doc_id asc) order. Comparisons on float32 scores — the
        same domain the final rank comparator uses."""
        a_s = np.float32(after[0])
        a_d = int(after[1])
        return (s32 < a_s) | ((s32 == a_s) & (docs > a_d))

    def topk_exhaustive(self, query: str, k: int,
                        after: tuple[float, int] | None = None) -> list[tuple[int, float]]:
        if k <= 0:
            return []
        docs, scores = self.score_all(query)
        if after is not None:
            m = self._after_mask(docs, scores, after)
            docs, scores = docs[m], scores[m]
        return _top_hits(docs, scores, k)

    @classmethod
    def _theta(cls, docs: np.ndarray, s32: np.ndarray, k: int,
               after: tuple[float, int] | None) -> float:
        """Pruning threshold from the exact float32 scores ``s32`` of some
        real ``docs``: the k-th largest score among those eligible under
        ``after``, stepped one f32 ulp down so that a doc TYING the k-th
        score is never pruned (the doc-id tie-break must still see it);
        -inf when fewer than ``k`` are eligible. Hits at or before the
        ``after`` position never reach the result, so they may not raise
        the threshold."""
        if after is not None:
            s32 = s32[cls._after_mask(docs, s32, after)]
        if s32.size < k:
            return float("-inf")
        return float(np.nextafter(np.sort(s32)[-k], np.float32(-np.inf)))

    # ------------------------------------------------- vectorized block-max
    def topk_bmw(self, query: str, k: int,
                 after: tuple[float, int] | None = None) -> list[tuple[int, float]]:
        """Vectorized block-max dynamic pruning (MaxScore skeleton + BMW
        block bounds, numpy throughout) — rank- and score-identical to
        :meth:`topk_exhaustive` and the oracle.

        1. θ before selection: the k-th largest ELIGIBLE exact float32
           score over the union of each clause's first ``k`` cached top
           docs (:class:`_Postings` ``top``; see :meth:`_theta`). Any ``k``
           real docs bound the k-th best score from below, so θ is
           admissible for any positive weight formula, and it is never
           below the max over clauses of the clause's k-th weight.
        2. Dense (posting mass > span/16): ONE ``np.bincount`` over the
           clauses' docs and weights, each clause repeated ``mult`` times
           in ascending clause order — bincount adds per bin in input
           order, the oracle's summation order, so it also gives step 1's
           exact scores — then only docs scoring above θ reach selection.
        3. Sparse: split clauses essential/non-essential (maximal
           UB-ascending prefix with ΣUB **strictly** < θ is no candidate
           SOURCE); candidates = union of essential lists, bounded by
           Σ essential block-max UB + Σ non-essential UB; drop bounds < θ;
           exact-score the survivors and the step-1 docs.
        """
        clauses = self._clauses(query)
        if not clauses or k <= 0:
            return []

        # -- 1. θ's docs: the union of each clause's first k cached top docs
        boot = np.unique(np.concatenate([p.top[:k] for p, _ in clauses]))

        # -- 2. dense: when the posting mass is a sizable fraction of the
        # doc-id span, pruning can't skip much and sparse searchsorted
        # gathers dominate (profiled ~550 ms/query at 1.5M docs, against
        # ~30 ms for one accumulator). The span starts at the smallest doc
        # id present: a sharded searcher holds a contiguous doc-range
        # slice, so its accumulator is proportional to the SHARD
        base = min(int(p.docs[0]) for p, _ in clauses)
        span = max(int(p.docs[-1]) for p, _ in clauses) + 1 - base
        total = sum(p.docs.size for p, _ in clauses)
        if total > span // 16 and span <= 64_000_000:
            reps = [p for p, mult in clauses for _ in range(mult)]
            idx = np.concatenate([p.docs for p in reps])
            acc = np.bincount(idx - base if base else idx,
                              weights=np.concatenate([p.weights for p in reps]),
                              minlength=span)
            theta = self._theta(boot, acc[boot - base].astype(np.float32),
                                k, after)
            # weights are strictly positive (idf > 0 even at df == N), so
            # acc > 0 is the touched set
            docs = np.flatnonzero(acc > max(theta, 0.0))
            s32 = acc[docs].astype(np.float32)
            docs += base
            if after is not None:
                m = self._after_mask(docs, s32, after)
                docs, s32 = docs[m], s32[m]
            return _top_hits(docs, s32, k)

        # -- 3. sparse: θ, then the essential split (UB ascending,
        # strict prefix)
        theta = self._theta(
            boot, _exact_scores(clauses, boot).astype(np.float32), k, after)
        ubs = [mult * p.max_w for p, mult in clauses]
        cum = 0.0
        non_essential = set()
        for i in np.argsort(ubs, kind="stable"):
            if cum + ubs[i] >= theta:
                break
            cum += ubs[i]
            non_essential.add(i)
        ess = [c for i, c in enumerate(clauses) if i not in non_essential]
        cand = np.unique(np.concatenate([p.docs for p, _ in ess])) \
            if ess else np.zeros(0, np.int64)
        bound = np.full(cand.size, cum, dtype=np.float64)
        bs = self.block_size
        for p, mult in ess:
            pos = np.minimum(np.searchsorted(p.docs, cand), p.docs.size - 1)
            bound += np.where(p.docs[pos] == cand,
                              mult * p.blk_maxw[pos // bs], 0.0)
        final = np.unique(np.concatenate([boot, cand[bound >= theta]]))
        s32 = _exact_scores(clauses, final).astype(np.float32)
        if after is not None:
            m = self._after_mask(final, s32, after)
            final, s32 = final[m], s32[m]
        return _top_hits(final, s32, k)

    def search_boolean(self, query: str,
                       max_hits: int | None = None) -> np.ndarray:
        """Lucene-style boolean query over the free-query surface (J5 +
        BooleanQuery MUST/MUST_NOT/SHOULD, ``ChemicalIndex.java:466-491``,
        ``:538-554``, ``:607-637``):

        ``+term`` MUST, ``-term`` MUST_NOT, bare term SHOULD; ``field:value``
        composite terms work in any role. Matching docs: hold every MUST
        term, none of the MUST_NOT terms, and (if any SHOULD terms exist
        and there are no MUST terms) at least one SHOULD term. With MUST
        terms present, SHOULD terms only influence scoring (Lucene
        semantics) — this method returns the doc SET, sorted ascending.
        """
        terms: dict[str, set[str]] = {"+": set(), "": set(), "-": set()}
        for raw in query.split():
            role = raw[0] if raw[0] in "+-" and len(raw) > 1 else ""
            terms[role].update(self._query_terms(raw[len(role):]))
        if terms["+"]:
            terms[""] = set()        # beside a MUST, SHOULDs only score: no decode
        sets = {r: [self._term_docs(t) for t in ts] for r, ts in terms.items()}
        return _cap(_combine(sets["+"], sets[""], sets["-"]), max_hits)

    def search_free(self, query: str, max_hits: int | None = None) -> np.ndarray:
        """J5 full analog — ``MultiFieldQueryParser`` over ALL live fields
        (``ChemicalIndex.java:466-491``): every BARE term expands across the
        indexed namespaces (the text namespace plus ``field:term`` for each
        field column recorded in the manifest — the ``FieldInfos`` live-field
        discovery analog); explicit ``field:value`` terms stay pinned to
        their field. Disjunctive over terms and namespaces (the parser's
        default OR), doc set sorted ascending; ``max_hits`` caps (iMaxHits).
        """
        fields = list(self.manifest["config"].get("field_columns", []))
        expansions: list[str] = []
        for t in self._query_terms(query):
            expansions.append(t)
            if ":" not in t:                        # bare term -> all fields
                expansions.extend(f"{f}:{t}" for f in fields)
        return self._union_docs(expansions, max_hits)

    # ------------------------------------------ term-dictionary expansions
    # Lucene 3.6 multi-term query family (PrefixQuery / WildcardQuery /
    # TermRangeQuery / FuzzyQuery — the QueryParser surface the reference's
    # MultiFieldQueryParser inherits): expand against the term dictionary,
    # then SHOULD-union the expansions' posting lists. Pre-4.0 Lucene
    # rewrites all of these by enumerating the dictionary; ours is the df
    # table (bounded vocabulary), scanned with vectorized Arrow kernels.
    def _vocab(self) -> pa.Array:
        if not hasattr(self, "_vocab_cache"):
            dfs = self._dfs()
            self._vocab_cache = (dfs["term"].combine_chunks()
                                 if dfs is not None else pa.array([], pa.string()))
        return self._vocab_cache

    def _expansion_vocab(self, pattern: str) -> pa.Array:
        """The dictionary a multi-term expansion scans. A pattern that
        names a configured field (``lang:d*``) scans every term; any other
        pattern scans only text terms, i.e. terms that do not start with
        ``field:`` for a configured field — so ``la.*`` never unions
        ``lang:de`` postings, while analyzer tokens that merely contain
        ``:`` (``12:30`` under the whitespace analyzer) stay reachable."""
        fields = self.manifest["config"].get("field_columns", [])
        v = self._vocab()
        if not fields or any(pattern.startswith(f + ":") for f in fields):
            return v
        if not hasattr(self, "_text_vocab_cache"):
            fielded = pc.starts_with(v, fields[0] + ":")
            for f in fields[1:]:
                fielded = pc.or_(fielded, pc.starts_with(v, f + ":"))
            self._text_vocab_cache = v.filter(pc.invert(fielded))
        return self._text_vocab_cache

    def _term_docs(self, term: str) -> np.ndarray:
        """The ascending live doc ids holding ``term`` (empty if none)."""
        d = self._decode_term(term)
        return np.zeros(0, np.int64) if d is None else d.docs

    def _union_docs(self, terms: list[str],
                    max_hits: int | None = None) -> np.ndarray:
        return _cap(_union([self._term_docs(t) for t in set(terms)]), max_hits)

    def prefix_terms(self, prefix: str) -> list[str]:
        """PrefixQuery expansion (``term*``): vectorized starts_with scan."""
        v = self._expansion_vocab(prefix)
        return sorted(v.filter(pc.starts_with(v, prefix)).to_pylist())

    def wildcard_terms(self, pattern: str) -> list[str]:
        """WildcardQuery expansion: Lucene ``*`` (any run) / ``?`` (one
        char); anything else matches literally (vocab terms are analyzer
        output, so regex metachars are escaped defensively)."""
        import re as _re

        rx = "".join("[\\s\\S]*" if c == "*" else "[\\s\\S]" if c == "?"
                     else _re.escape(c) for c in pattern)
        v = self._expansion_vocab(pattern)
        return sorted(v.filter(
            pc.match_substring_regex(v, "^" + rx + "$")).to_pylist())

    def regexp_terms(self, pattern: str) -> list[str]:
        """RegexpQuery expansion (the 3.6-era contrib ``RegexQuery`` the
        QueryParser family sits beside): vocabulary terms FULLY matching
        the RE2 pattern, via one vectorized Arrow regex scan. Unless the
        pattern itself starts with ``field:``, fielded namespace terms are
        excluded (:meth:`_expansion_vocab`)."""
        v = self._expansion_vocab(pattern)
        return sorted(v.filter(pc.match_substring_regex(
            v, "^(?:" + pattern + ")$")).to_pylist())

    def search_regexp(self, pattern: str,
                      max_hits: int | None = None) -> np.ndarray:
        """Docs holding any term matching ``pattern`` (SHOULD-union of the
        expansions, like the other multi-term rewrites)."""
        return self._union_docs(self.regexp_terms(pattern), max_hits)

    def range_terms(self, lo: str, hi: str, *, include_lo: bool = True,
                    include_hi: bool = True) -> list[str]:
        """TermRangeQuery expansion: lexicographic [lo, hi] over the vocab."""
        v = self._vocab()
        m_lo = (pc.greater_equal if include_lo else pc.greater)(v, lo)
        m_hi = (pc.less_equal if include_hi else pc.less)(v, hi)
        return sorted(v.filter(pc.and_(m_lo, m_hi)).to_pylist())

    def search_prefix(self, prefix: str,
                      max_hits: int | None = None) -> np.ndarray:
        return self._union_docs(self.prefix_terms(prefix), max_hits)

    def search_wildcard(self, pattern: str,
                        max_hits: int | None = None) -> np.ndarray:
        return self._union_docs(self.wildcard_terms(pattern), max_hits)

    def search_term_range(self, lo: str, hi: str,
                          max_hits: int | None = None, **kw) -> np.ndarray:
        return self._union_docs(self.range_terms(lo, hi, **kw), max_hits)

    def fuzzy_terms(self, term: str, max_edits: int = 1) -> list[str]:
        """Indexed terms within ``max_edits`` Levenshtein edits of ``term``.

        Lucene 3.6's ``FuzzyQuery`` (the query surface the reference's
        parser inherits) enumerates the TERM DICTIONARY and keeps terms
        within the edit budget — pre-4.0 Lucene had no automaton, it was
        exactly this scan. Here the dictionary is the index's df table
        (term-sorted Arrow); a length-band prefilter (|len(t) - len(q)| <=
        max_edits, an edit-distance lower bound) cuts the exact
        Wagner-Fischer DP to a small candidate set. The scan is per-query
        over the vocabulary (bounded, not corpus-sized); at web scale the
        same filter runs as a map over the df table partitions."""
        terms = self._vocab()
        lens = pc.utf8_length(terms).to_numpy(zero_copy_only=False)
        band = np.flatnonzero(np.abs(lens - len(term)) <= max_edits)
        out = []
        for t in terms.take(pa.array(band)).to_pylist():
            if _levenshtein_within(term, t, max_edits):
                out.append(t)
        return sorted(out)

    def suggest_terms(self, term: str, *, max_edits: int = 2,
                      k: int = 5) -> list[tuple[str, int, int]]:
        """Did-you-mean spell suggestions (Lucene ``DirectSpellChecker``):
        dictionary terms within ``max_edits`` of ``term``, ranked by
        (edit distance asc, df desc, term asc) — Lucene's
        ``SuggestWord.DEFAULT_COMPARATOR`` ordering. The exact query term
        itself is excluded (it needs no correction). Fielded namespace
        terms (``lang:de``) are skipped: suggestions come from the text
        vocabulary, as the analyzer can never emit ``:``. Returns
        ``[(suggestion, distance, df)]``."""
        q = term.lower()
        out = []
        for t in self.fuzzy_terms(q, max_edits=max_edits):
            if t == q or ":" in t:
                continue
            dist = next(d for d in range(1, max_edits + 1)
                        if _levenshtein_within(q, t, d))
            out.append((t, dist, self.df(t)))
        out.sort(key=lambda r: (r[1], -r[2], r[0]))
        return out[:k]

    def suggest_complete(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Prefix autocomplete (the Lucene suggest module's
        ``AnalyzingSuggester`` shape, weight = corpus doc frequency):
        dictionary terms starting with ``prefix`` ranked (df desc, term
        asc). One vectorized ``starts_with`` scan over the df table +
        ``select_k`` — the df table doubles as the suggester's
        weight-bearing FST input. Fielded ``lang:de`` namespace terms are
        excluded (completions come from the text vocabulary)."""
        dfs = self._dfs()
        if dfs is None or k <= 0:
            return []
        terms = dfs["term"].combine_chunks()
        m = pc.and_(pc.starts_with(terms, prefix),
                    pc.invert(pc.match_substring(terms, pattern=":")))
        sel = pa.table({"term": terms, "df": dfs["df"]}).filter(m)
        if len(sel) == 0:
            return []
        idx = pc.select_k_unstable(sel, k=min(k, len(sel)), sort_keys=[
            ("df", "descending"), ("term", "ascending")])
        sel = sel.take(idx)
        return [(t, int(d)) for t, d in
                zip(sel["term"].to_pylist(), sel["df"].to_pylist())]

    def search_fuzzy(self, query: str, max_edits: int = 1,
                     max_hits: int | None = None) -> np.ndarray:
        """FuzzyQuery analog: every query term expands to its fuzzy term
        set (:meth:`fuzzy_terms`); docs holding ANY expansion (SHOULD
        semantics, Lucene's fuzzy rewrite), sorted ascending."""
        expansions: list[str] = []
        for t in self._query_terms(query):
            expansions.extend(self.fuzzy_terms(t, max_edits))
        return self._union_docs(expansions, max_hits)

    _CLAUSE_RE = None   # compiled lazily (class-level cache)

    def search_query(self, query: str,
                     max_hits: int | None = None) -> np.ndarray:
        """Lucene-QueryParser-analog string surface — the reference's real
        query language (``MultiFieldQueryParser`` wraps exactly this
        grammar, ``ChemicalIndex.java:466-491``). Supported per clause:

        - ``+body`` MUST, ``-body`` MUST_NOT, bare SHOULD (Lucene doc-set
          semantics: MUSTs intersect; SHOULDs only matter when no MUST
          exists; MUST_NOTs always subtract);
        - ``field:value`` composite terms in any role;
        - ``body~`` / ``body~N`` fuzzy (edit distance N, default 1);
        - ``bo?y*`` wildcard, ``pre*`` prefix (same expansion machinery);
        - ``[lo TO hi]`` / ``field:[lo TO hi]`` term range.

        A multi-term-query clause contributes the UNION of its expansions
        (Lucene's rewrite makes the rewritten BooleanQuery one clause);
        expansion bodies are lowercased verbatim (Lucene's
        ``lowercase_expanded_terms`` default) since the analyzer would
        strip ``*``/``?``. A plain body analyzes through the query
        analyzer; multi-token bodies (e.g. ``+foo-bar``) intersect their
        tokens. Returns the sorted doc-id set (``max_hits`` caps)."""
        import re as _re

        if Searcher._CLAUSE_RE is None:
            Searcher._CLAUSE_RE = _re.compile(
                r"[+-]?(?:[\w.]+:)?\[[^\]]*\]|[+-]?\S+")
        fields = set(self.manifest["config"].get("field_columns", []))

        def norm(body: str) -> str:
            # expansion bodies: lowercase verbatim, keep field: prefixes
            if ":" in body:
                f, v = body.split(":", 1)
                if f in fields:
                    return f + ":" + v.lower()
            return body.lower()

        def clause_docs(body: str) -> np.ndarray:
            m = _re.fullmatch(r"(?:([\w.]+):)?\[(\S+) TO (\S+)\]", body)
            if m:
                f, lo, hi = m.groups()
                pre = f + ":" if f and f in fields else ""
                return self._union_docs(self.range_terms(
                    (pre + lo).lower(), (pre + hi).lower()))
            m = _re.fullmatch(r"(.+?)~(\d*)", body)
            if m:
                edits = int(m.group(2)) if m.group(2) else 1
                return self._union_docs(
                    self.fuzzy_terms(norm(m.group(1)), max_edits=edits))
            if "*" in body or "?" in body:
                return self._union_docs(self.wildcard_terms(norm(body)))
            return _intersect([self._term_docs(t)
                               for t in set(self._query_terms(body))])

        sets: dict[str, list[np.ndarray]] = {"+": [], "": [], "-": []}
        for raw in Searcher._CLAUSE_RE.findall(query):
            role = raw[0] if raw[0] in "+-" and len(raw) > 1 else ""
            sets[role].append(clause_docs(raw[len(role):]))
        return _cap(_combine(sets["+"], sets[""], sets["-"]), max_hits)

    def search_fp_scored(self, query: str, k: int) -> list[tuple[int, float]]:
        """The reference's FP-search type (``searchMoleculesByFingerprintMatch``
        :607-637): BooleanQuery MUST over every query term, scored, top-k —
        i.e. BM25 top-k restricted to docs containing ALL query terms.
        Implemented as an uncapped screen + conjunctive verify (exact)."""
        and_docs = self.search_and(query)
        if and_docs.size == 0 or k <= 0:
            return []
        s32 = _exact_scores(self._clauses(query), and_docs).astype(np.float32)
        return _top_hits(and_docs, s32, k)

    # ------------------------------------------------- two-phase screen/verify
    def search_screen_verify(self, query: str, k: int,
                             prescreen_multiplier: int = 10,
                             prescreen_cap: int = 100_000) -> list[tuple[int, float]]:
        """The reference's substructure-search plan rebuilt
        (``ChemicalIndex.searchMoleculesWithSubstructure:657-727``):

        1. SCREEN: approximate candidates = BM25 top-``min(k*multiplier,
           cap)`` over the query's terms as SHOULD clauses (the FP-screen
           analog, caps per ``ChemicalIndex.java:661`` /
           ``LuceneBenchmark.java:358-365``);
        2. VERIFY: exact containment — candidate must hold EVERY query term
           (the RDKit ``hasSubstructMatch`` analog, here exact conjunctive
           semantics);
        3. collect verified hits carrying the SCREEN score (`:697`), stop
           at ``k`` in screen-rank order.
        """
        screened = self.topk(query, min(k * prescreen_multiplier, prescreen_cap))
        ok = np.isin([d for d, _ in screened], self.search_and(query))
        return [hit for hit, o in zip(screened, ok) if o][:k]

    def topk(self, query: str, k: int, mode: str = "bmw",
             after: tuple[float, int] | None = None) -> list[tuple[int, float]]:
        """Top-k with optional search-after pagination: ``after`` is the
        ``(score, doc_id)`` of the LAST hit of the previous page; results
        resume strictly after it in (score desc, doc_id asc) order.
        ``mode`` is one of :data:`TOPK_MODES`; any other value raises."""
        _check_topk_mode(mode)
        if mode == "phrase":
            # scored exact-phrase queries through the same distributed
            # surface (run_queries / topk_sharded); no pagination — phrase
            # hit sets are verify-bounded, page via k
            if after is not None:
                raise ValueError("phrase mode does not support search-after")
            return self.topk_phrase(query, k)
        if mode == "exhaustive":
            return self.topk_exhaustive(query, k, after=after)
        return self.topk_bmw(query, k, after=after)

    # --------------------------------------------- reference-API search peers
    def search_and(self, query: str, max_hits: int | None = None) -> np.ndarray:
        """J3: conjunctive containment (BooleanQuery MUST over terms,
        ``ChemicalIndex.java:607-637``) — sorted posting intersection.

        ``max_hits`` mirrors the reference's ``iMaxHits`` cap
        (``ChemicalIndex.java:513``, used at ``LuceneBenchmark.java:358-365``):
        at most that many hits are returned, in ascending doc-id order —
        a head-term query over a web-scale index stays bounded."""
        return _cap(_intersect([self._term_docs(t)
                                for t in set(self._query_terms(query))]),
                    max_hits)

    def search_or(self, query: str, max_hits: int | None = None) -> np.ndarray:
        """J4: disjunctive union (BooleanQuery SHOULD, ``:538-554``);
        ``max_hits`` caps per the iMaxHits contract (see search_and)."""
        return self._union_docs(self._query_terms(query), max_hits)

    def search_min_should(self, query: str, min_match: int,
                          max_hits: int | None = None) -> np.ndarray:
        """``BooleanQuery.setMinimumNumberShouldMatch`` analog (the knob
        between J3's pure AND and J4's pure OR): docs holding at least
        ``min_match`` DISTINCT query terms, ascending doc-id order.

        Vectorized as one concat of the (already doc-unique) per-term
        posting doc arrays + ``np.unique(return_counts=True)`` — a term
        absent from the index contributes to no doc's count, exactly like
        a SHOULD clause that matches nothing."""
        if min_match <= 0:
            return self.search_or(query, max_hits)
        parts = [d for t in set(self._query_terms(query))
                 if (d := self._term_docs(t)).size]
        if len(parts) < min_match:
            return np.zeros(0, np.int64)
        u, cnt = np.unique(np.concatenate(parts), return_counts=True)
        return _cap(u[cnt >= min_match], max_hits)

    def topk_dismax(self, query: str, k: int = 10,
                    tie: float = 0.1) -> list[tuple[int, float]]:
        """``DisjunctionMaxQuery`` analog (the multi-field scoring rule the
        reference's MultiFieldQueryParser family rewrites into): clause =
        each DISTINCT query term (composite ``field:value`` clauses score
        through the same decode-cache entries);
        ``score(doc) = max_clause_score + tie * (sum_of_other_clause_scores)``.

        Float parity with the SQL oracle: per-clause contributions are the
        per-posting BM25 weights; the segment max is order-independent, the
        segment sum runs in ascending clause order (``np.add.reduceat`` is
        sequential below its 128-element pairwise threshold), and the final
        score is the single IEEE expression ``mx + tie * (sm - mx)``. Rank
        comparator: (float32 score desc, doc_id asc)."""
        clauses = self._clauses(query)        # distinct, ascending term
        if not clauses or k <= 0:
            return []
        docs_s, ws_s, starts = _sum_by_doc([p.docs for p, _ in clauses],
                                           [p.weights for p, _ in clauses])
        mx = np.maximum.reduceat(ws_s, starts)
        sm = np.add.reduceat(ws_s, starts)
        return _top_hits(docs_s[starts],
                         (mx + tie * (sm - mx)).astype(np.float32), k)

    def search_exact(self, text: str, max_hits: int | None = None) -> np.ndarray:
        """J2: exact-match after canonicalization. Canonical form = the token
        multiset (the analyzer is our 'canonical SMILES',
        ``ChemicalIndex.java:574-589``): doc matches iff it has exactly the
        query's tf for every query term and the same total length."""
        from collections import Counter

        toks = analyze_text(text, self.query_cfg)
        sets = []
        for t, tf_want in Counter(toks).items():
            d = self._decode_term(t)
            if d is None:
                return np.zeros(0, np.int64)
            sets.append(d.docs[(d.tfs == tf_want) & (d.dls == len(toks))])
        return _cap(_intersect(sets), max_hits)

    def phrase_candidates(self, tokens: list[str],
                          max_hits: int | None = None) -> np.ndarray:
        """SCREEN phase of phrase search (Lucene ``PhraseQuery`` /
        ``SpanNearQuery`` analog — the reference index has no positional
        surface; this is the fulltext-tier extension, SURVEY §2.10):
        candidate docs that contain every phrase term with tf >= the term's
        multiplicity IN the phrase (the tf refinement makes the screen
        strictly tighter for repeated-term phrases like ``"table table"``
        at zero extra I/O — tf already rides in every posting). Admissible:
        a true phrase match needs at least that many occurrences. Position
        VERIFY runs over the stored text, candidates only — see
        :func:`search_phrases`."""
        from collections import Counter

        sets = []
        for t, mult in Counter(tokens).items():
            d = self._decode_term(t)
            if d is None:
                return np.zeros(0, np.int64)
            sets.append(d.docs if mult == 1 else d.docs[d.tfs >= mult])
        return _cap(_intersect(sets), max_hits)

    def _decode_term_positions(self, term: str,
                               only_docs: np.ndarray | None = None):
        """Decode one term's positional postings from the ``pos_bytes``
        sidecar: ``(docs, tfs, flat_positions)`` with posting *i*'s
        positions at ``[cumsum(tfs)[i-1], cumsum(tfs)[i])``. Tombstoned
        docs are NOT masked here — callers go through
        :meth:`phrase_candidates`, whose ``_decode_term`` screen already
        excludes them.

        Doc ids and tfs come from :func:`decode_postings` over the term's
        chunk rows; the rows' ``pos_bytes`` slices join into one stream.
        ``only_docs`` (sorted) restricts the result to those docs. When
        they are SELECTIVE (under 1/8 of the term's postings) the other
        postings' positions are never decoded: a terminator-byte scan finds
        every posting's byte run and one vectorized gather copies the
        candidates' runs (:func:`gather_position_runs`). A phrase with one
        rare term then pays O(candidate positions) to decode its HEAD terms
        too, not O(head-term postings) (measured 102 s -> sub-second for a
        head+rare phrase at 1.57M docs, BASELINE r4).

        DENSE decodes (candidate set not selective — stopword-pair
        phrases) are the expensive case, so their full per-term result is
        LRU-cached (bounded by total cached positions) and later calls
        subset the cached arrays whatever their candidate set."""
        if not self.store_positions:
            raise ValueError(
                "index was built without store_positions=True — phrase "
                "verify must run over the stored text (search_phrases)")
        cached = self._pos_cache_get(term)
        if cached is None:
            ranges = self._term_ranges(term)
            if not ranges:
                return None
            if not all(v.pos_valid[i] for v, i, _ in ranges):
                raise ValueError(
                    f"term {term!r} carries no positions (fielded "
                    "'col:value' terms are whole-value, not positional)")
            docs, tfs, _, _ = decode_postings(ranges)
            stream = np.concatenate([v.pos[1][v.pos[0][i]:v.pos[0][i + 1]]
                                     for v, i, _ in ranges])
            if only_docs is not None:
                sel = np.isin(docs, only_docs, assume_unique=True)
                if int(sel.sum()) * 8 < docs.size:
                    # SELECTIVE: not fully decoded -> not cacheable
                    _, runs = gather_position_runs(stream, tfs, sel)
                    docs, tfs = docs[sel], tfs[sel]
                    if docs.size == 0:
                        return None
                    return docs, tfs, decode_position_streams(runs, tfs)
            cached = (docs, tfs, decode_position_streams(stream, tfs))
            self._pos_cache_put(term, cached)
        docs, tfs, pos = cached
        if only_docs is not None:
            sel = np.isin(docs, only_docs, assume_unique=True)
            if not sel.all():
                pos = pos[np.repeat(sel, tfs)]
                docs, tfs = docs[sel], tfs[sel]
        if docs.size == 0:
            return None
        return docs, tfs, pos

    # positions LRU: caches FULL per-term decodes (the dense stopword
    # case) bounded by total cached position count, so repeated phrase
    # queries over head terms pay the big decode once per Searcher
    _POS_CACHE_MAX_VALUES = 64_000_000      # ~0.5 GB of int64 positions

    def _pos_cache_get(self, term: str):
        hit = self._pos_cache.get(term)
        if hit is not None:
            self._pos_cache.move_to_end(term)
        return hit

    def _pos_cache_put(self, term: str, dec) -> None:
        n = int(dec[2].size)
        if n > self._POS_CACHE_MAX_VALUES:
            return                           # never cache a monster alone
        self._pos_cache[term] = dec
        self._pos_cache_values += n
        while self._pos_cache_values > self._POS_CACHE_MAX_VALUES:
            _, old = self._pos_cache.popitem(last=False)
            self._pos_cache_values -= int(old[2].size)

    def _phrase_chain(self, tokens: list[str]):
        """Shared SCREEN + greedy occurrence chain behind the positional
        phrase surfaces: returns ``(cand, start, cur, alive)`` or None when
        no occurrence chain exists. ``start``/``cur`` are the first/last
        composite ``(cand_rank << 32 | position)`` keys of each chained
        occurrence attempt; the greedy chain finds each start's minimal
        completion (same decision rule as the stored-text
        :func:`_phrase_match_mask`)."""
        cand = self.phrase_candidates(tokens)
        if cand.size == 0:
            return None
        keys: list[np.ndarray] = []
        for t in tokens:
            dec = self._decode_term_positions(t, only_docs=cand)
            if dec is None:                      # screened => present, but be safe
                return None
            docs, tfs, pos = dec
            rank = np.searchsorted(cand, docs)
            k = (np.repeat(rank, tfs) << 32) | pos
            if k.size == 0:
                return None
            keys.append(k)                       # ascending: docs asc, pos asc
        start = keys[0]
        cur = start
        alive = np.ones(cur.size, bool)
        for k in keys[1:]:
            nxt_idx = np.searchsorted(k, cur, side="right")
            ok = nxt_idx < k.size
            nxt = k[np.minimum(nxt_idx, k.size - 1)]
            ok &= (nxt >> 32) == (cur >> 32)     # same candidate doc
            alive &= ok
            cur = np.where(ok, nxt, cur)
        return cand, start, cur, alive

    def phrase_hits(self, tokens: list[str], slop: int = 0,
                    max_hits: int | None = None) -> np.ndarray:
        """Phrase / in-order proximity hits ENTIRELY from the index (needs
        ``store_positions=True``): SCREEN via :meth:`phrase_candidates`,
        then VERIFY on the candidates' decoded positions with the same
        greedy occurrence chain as the stored-text mask
        (:func:`_phrase_match_mask` — both decide ``p_n - p_1 - (n-1) <=
        slop`` over strictly-increasing in-order occurrences), so the two
        layouts return identical hit sets. Cost is O(candidate postings)
        — no stored-text decode per candidate (r3 verdict #7)."""
        chain = self._phrase_chain(tokens)
        if chain is None:
            return np.zeros(0, np.int64)
        cand, start, cur, alive = chain
        span_extra = (cur & 0xFFFFFFFF) - (start & 0xFFFFFFFF) - (len(tokens) - 1)
        good = alive & (span_extra <= slop)
        return _cap(cand[np.unique(start[good] >> 32)], max_hits)

    def _phrase_freqs(self, tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(docs, exact-phrase frequency) over the candidate set — freq =
        number of start positions that begin a strict-adjacency occurrence
        (Lucene ``PhraseQuery`` freq at slop=0; the greedy chain finds the
        minimal completion per start, which for slop=0 decides each start
        exactly). Same chain as :meth:`phrase_hits`."""
        chain = self._phrase_chain(tokens)
        if chain is None:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        cand, start, cur, alive = chain
        good = alive & ((cur & 0xFFFFFFFF) - (start & 0xFFFFFFFF)
                        == (len(tokens) - 1))
        freq = np.bincount((start[good] >> 32).astype(np.int64),
                           minlength=cand.size)
        hit = freq > 0
        return cand[hit], freq[hit].astype(np.int64)

    def topk_phrase(self, phrase: str, k: int = 10) -> list[tuple[int, float]]:
        """Scored exact-phrase top-k (Lucene ``PhraseQuery``): tf = the
        doc's exact phrase frequency (adjacent occurrences, from the
        positional sidecar), idf = the SUM of the phrase terms' idfs
        (duplicates counted — Lucene's multi-term ``Weight`` convention),
        fed through the searcher's ACTIVE similarity's weight formula
        (:meth:`_weight_arrays` — the same seam every other scored surface
        uses, so phrase ranking under ``similarity="classic"`` is the
        classic formula, never a BM25/classic hybrid). Under the default
        BM25:

            score = (sum_t idf(t)) * freq*(k1+1) / (freq + k1*(1-b+b*dl/avgdl))

        Ties break to the smaller doc id (K1 comparator). Requires
        ``store_positions=True``."""
        tokens = self._query_terms(phrase)
        if not tokens:
            return []
        docs, freq = self._phrase_freqs(tokens)
        if docs.size == 0:
            return []
        # dl rides every posting: take it from the first term's decode
        d0 = self._decode_term(tokens[0])
        dl = d0[2][np.searchsorted(d0[0], docs)].astype(np.float64)
        idf_sum = float(sum(self._sim_idf(t) for t in tokens))
        scores = self._weight_arrays(idf_sum, freq.astype(np.float64), dl)
        order = np.lexsort((docs, -scores.astype(np.float32)))[:k]
        return [(int(docs[i]), float(scores[i])) for i in order]

    def _fwd_files(self) -> list[str]:
        out = []
        for gd in self._gdirs:
            fwd = os.path.join(gd, "fwd")
            if os.path.isdir(fwd):
                out.extend(os.path.join(fwd, f) for f in sorted(os.listdir(fwd))
                           if f.endswith(".parquet"))
        return out

    def _fwd_meta(self) -> list[tuple[str, int, int, bytes | None]]:
        """(path, min_doc, max_doc, url_bloom) per forward fragment — ONE
        footer read per fragment, cached per searcher. Doc ranges prune
        ``resolve_urls`` (fragments hold contiguous doc ranges by
        construction); the url bloom (written into the footer at build and
        merge time, state/bloom.py) prunes ``lookup_pk`` to the ~1 fragment
        that can contain the url — the Lucene-term-dictionary analog of J1
        (``searchMoleculeByPK:505-519``). ``None`` bloom (pre-bloom
        fragment) degrades to a scan of that fragment, never a miss."""
        if not hasattr(self, "_fwd_meta_cache"):
            from org_rdkit_lucene_ray.state.bloom import read_url_bloom

            out = []
            for p in self._fwd_files():
                md = pq.read_metadata(p)
                bloom = read_url_bloom(md)
                los, his = [], []
                for rg in range(md.num_row_groups):
                    col = md.row_group(rg).column(0)     # doc_id is column 0
                    st = col.statistics
                    if st is None or not st.has_min_max:
                        los, his = [None], [None]
                        break
                    los.append(st.min)
                    his.append(st.max)
                if los and los[0] is None:
                    out.append((p, -(1 << 62), 1 << 62, bloom))  # no stats: scan
                else:
                    out.append((p, int(min(los)), int(max(his)), bloom))
            self._fwd_meta_cache = out
        return self._fwd_meta_cache

    def _not_deleted(self, t: pa.Table) -> pa.Table:
        if self._deletes is None or not self._deletes.size or not t.num_rows:
            return t
        keep = ~np.isin(t["doc_id"].to_numpy(), self._deletes)
        return t.filter(pa.array(keep))

    def facet_counts(self, query: str, field: str, *,
                     mode: str = "or") -> list[tuple[str, int]]:
        """Lucene faceting analog (SortedSetDocValues facet counts): for
        the query's hit set, hits per value of an indexed field namespace,
        computed by intersecting the hit set with each ``field:value``
        posting list — the fielded postings ARE the doc-values structure
        here. Values with zero hits are omitted; order is (count desc,
        value asc), Lucene's ``FacetResult`` ordering."""
        hits = (self.search_and(query) if mode == "and"
                else self.search_or(query))
        if hits.size == 0:
            return []
        prefix = field + ":"
        out: list[tuple[str, int]] = []
        for term in self.prefix_terms(prefix):
            c = int(np.intersect1d(hits, self._term_docs(term),
                                   assume_unique=True).size)
            if c:
                out.append((term[len(prefix):], c))
        out.sort(key=lambda x: (-x[1], x[0]))
        return out

    def mlt_terms(self, text: str, *, max_terms: int = 10) -> list[str]:
        """MoreLikeThis term selection (Lucene ``MoreLikeThis.
        retrieveInterestingTerms`` analog): analyze the source text with
        the query analyzer, score each distinct term by
        tf-in-source x idf-in-index, keep the top ``max_terms``. Terms the
        index has never seen (df == 0) are skipped, as Lucene MLT does.
        Ranking compares float32 scores with term-asc tie-break — the
        repo's float-parity policy (same domain the oracle CASTs to)."""
        from collections import Counter

        cnt = Counter(analyze_text(text, self.query_cfg))
        scored = []
        for term, tf in cnt.items():
            df = self.df(term)
            if df == 0:
                continue
            scored.append((np.float32(tf * self.idf(term)), term))
        scored.sort(key=lambda x: (-x[0], x[1]))
        return [t for _, t in scored[:max_terms]]

    def more_like_this(self, text: str, *, max_terms: int = 10, k: int = 10,
                       exclude_doc: int | None = None,
                       mode: str = "bmw") -> list[tuple[int, float]]:
        """MoreLikeThis: BM25 top-k for the OR-query of the source text's
        most interesting terms (:meth:`mlt_terms`), optionally excluding
        the source doc itself. Asking for ``k + 1`` and dropping the
        source afterwards yields exactly the ranks of a source-excluded
        ranking (the source occupies at most one slot)."""
        terms = self.mlt_terms(text, max_terms=max_terms)
        if not terms:
            return []
        extra = 1 if exclude_doc is not None else 0
        res = self.topk(" ".join(terms), k + extra, mode=mode)
        if exclude_doc is not None:
            res = [(d, s) for d, s in res if d != exclude_doc]
        return res[:k]

    def search_sorted(self, query: str, *, field: str = "dl", k: int = 10,
                      descending: bool = True, mode: str = "or",
                      after: tuple[int, int] | None = None) -> list[tuple[int, int]]:
        """Lucene ``Sort``/``SortField`` collector (TopFieldCollector):
        rank the query's hit set by a STORED numeric field instead of
        relevance. The forward fragments are the doc-values store; each
        overlapping fragment contributes a footer-range-pruned pushdown
        read and a per-fragment partial top-k, then one global merge —
        the per-segment-collector + ``TopFieldDocs.merge`` shape, so at
        web scale only ``k`` rows per fragment ride the merge.

        Order: (field desc|asc, doc_id asc). Returns ``[(doc_id, value)]``
        of length <= k. Numeric fields only (``dl``, ``warc_ts``-encoded
        int64 — Lucene's NumericDocValues analog). ``after=(value,
        doc_id)`` resumes strictly after that position (paged
        ``TopFieldDocs`` searchAfter) — exact because the predicate is
        per-row, applied before each fragment's partial top-k."""
        hits = (self.search_and(query) if mode == "and"
                else self.search_or(query))
        if hits.size == 0 or k <= 0:
            return []
        lo_id, hi_id = int(hits[0]), int(hits[-1])
        parts_d, parts_v = [], []
        for p, lo, hi, _bloom in self._fwd_meta():
            if hi < lo_id or lo > hi_id:
                continue
            t = pq.read_table(
                p, columns=["doc_id", field],
                filters=[("doc_id", ">=", lo_id), ("doc_id", "<=", hi_id)])
            if not t.num_rows:
                continue
            d = t["doc_id"].to_numpy()
            m = np.isin(d, hits, assume_unique=True)
            if not m.any():
                continue
            d = d[m]
            v = t[field].to_numpy(zero_copy_only=False).astype(np.int64)[m]
            if after is not None:
                # strictly after (value, doc) in the global field order —
                # the TopFieldCollector searchAfter predicate
                av, ad = int(after[0]), int(after[1])
                keep = ((v < av) if descending else (v > av)) | \
                    ((v == av) & (d > ad))
                d, v = d[keep], v[keep]
                if d.size == 0:
                    continue
            order = np.lexsort((d, -v if descending else v))[:k]
            parts_d.append(d[order])
            parts_v.append(v[order])
        if not parts_d:
            return []
        d = np.concatenate(parts_d)
        v = np.concatenate(parts_v)
        order = np.lexsort((d, -v if descending else v))[:k]
        return [(int(d[i]), int(v[i])) for i in order]

    def topk_synonyms(self, query: str, synonyms: dict[str, list[str]],
                      k: int = 10) -> list[tuple[int, float]]:
        """Lucene ``SynonymQuery`` scoring: each query-term occurrence
        expands to its synonym group, and the GROUP scores as a single
        pseudo-term — per-doc tf is the SUM of member tfs, the group df is
        the MAX member df (SynonymQuery's blended docFreq) — so a doc
        matching two synonyms is not double-idf-counted the way a plain OR
        expansion would. Groups contribute in ascending base-term order
        (float64, then one float32 cast), the repo's score-parity protocol.
        """
        if k <= 0:
            return []
        parts_d, parts_w = [], []
        for base in sorted(self._query_terms(query)):
            grp = sorted({base, *(s.lower() for s in synonyms.get(base, []))})
            decs = [d for t in grp if (d := self._decode_term(t)) is not None]
            if not decs:
                continue
            # group members by doc: (tf, dl) rows ride the doc sort
            docs, tl, starts = _sum_by_doc(
                [d.docs for d in decs],
                [np.column_stack((d.tfs, d.dls)) for d in decs])
            parts_d.append(docs[starts])
            parts_w.append(self._weight_arrays(
                self._sim_idf_of_df(max(self.df(t) for t in grp)),
                np.add.reduceat(tl[:, 0], starts).astype(np.float64),
                tl[starts, 1].astype(np.float64)))
        return _top_hits(*_fold_scores(parts_d, parts_w), k)

    _BOOST_RE = None

    def topk_boosted(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """Query-time boosts (Lucene ``BoostQuery`` / QueryParser
        ``term^2.5`` grammar): every whitespace clause may carry a
        ``^boost`` suffix; the clause's per-posting weight vector is scaled
        by the boost before the per-doc sum. Unboosted clauses get 1.0.
        Clauses contribute in ascending (term, occurrence) order — the
        same float-parity protocol as :meth:`score_all`."""
        import re as _re

        if k <= 0:
            return []
        if Searcher._BOOST_RE is None:
            Searcher._BOOST_RE = _re.compile(r"^(.*?)\^(\d+(?:\.\d+)?)$")
        clauses: list[tuple[str, float]] = []
        for raw in query.split():
            m = Searcher._BOOST_RE.match(raw)
            body, boost = (m.group(1), float(m.group(2))) if m else (raw, 1.0)
            for t in self._query_terms(body):
                clauses.append((t, boost))
        decs = [(d, boost) for t, boost in sorted(clauses)
                if (d := self._decode_term(t)) is not None]
        return _top_hits(*_fold_scores([d.docs for d, _ in decs],
                                       [b * d.weights for d, b in decs]), k)

    def search_numeric_range(self, field: str, lo, hi, *,
                             include_lo: bool = True,
                             include_hi: bool = True,
                             max_hits: int | None = None) -> np.ndarray:
        """Lucene ``PointRangeQuery`` / ``NumericDocValues`` range filter
        over a STORED numeric field (``dl``, ``warc_ts``): per-fragment
        predicate-pushdown reads — Parquet row-group statistics play the
        role of the BKD tree's cell bounds, so non-overlapping row groups
        never leave storage. Returns the ascending doc-id set
        (tombstones masked; ``max_hits`` caps like the boolean family)."""
        parts = []
        opl = ">=" if include_lo else ">"
        oph = "<=" if include_hi else "<"
        for p, _lo, _hi, _bloom in self._fwd_meta():
            t = pq.read_table(p, columns=["doc_id", field],
                              filters=[(field, opl, lo), (field, oph, hi)])
            if t.num_rows:
                parts.append(self._not_deleted(t)["doc_id"].to_numpy())
        out = np.sort(np.concatenate(parts)) if parts else np.zeros(0, np.int64)
        return _cap(out, max_hits)

    def collapse_topk(self, query: str, field: str,
                      k: int = 10) -> list[tuple[str, int, float]]:
        """Lucene grouping / field collapsing (grouping module's
        ``TopGroups`` with 1 doc per group, Elasticsearch ``collapse``):
        the query's scored hit set keeps only the BEST hit per value of an
        indexed field namespace, and the surviving groups rank by their
        best hit's (score desc, doc asc). The fielded postings are the
        group-assignment doc-values; comparisons happen on float32 scores
        (the repo's rank domain). Returns ``[(field_value, doc_id,
        score)]`` of length <= k."""
        docs, scores = self.score_all(query)
        if docs.size == 0 or k <= 0:
            return []
        prefix = field + ":"
        out: list[tuple[str, int, float]] = []
        for term in self.prefix_terms(prefix):
            m = np.isin(docs, self._term_docs(term), assume_unique=True)
            if m.any():
                out.append((term[len(prefix):],
                            *_top_hits(docs[m], scores[m], 1)[0]))
        out.sort(key=lambda r: (-np.float64(np.float32(r[2])), r[1]))
        return out[:k]

    def explain(self, query: str, doc_id: int) -> pa.Table:
        """Lucene ``IndexSearcher.explain`` analog: the per-clause score
        breakdown for one (query, doc) pair — one row PER OCCURRENCE (the
        same clause multiset the scorers sum), with the exact tf/df inputs
        and each clause's contribution (the exact float64 summand of
        score_all's ascending-term sum, rounded to float32 for the
        display column — the same domain the rank comparator uses)."""
        terms, tfs, dfs, ws = [], [], [], []
        for t in sorted(self._query_terms(query)):
            dec = self._decode_term(t)
            if dec is None:
                continue
            i = int(np.searchsorted(dec[0], doc_id))
            if i >= dec[0].size or int(dec[0][i]) != doc_id:
                continue
            terms.append(t)
            tfs.append(int(dec[1][i]))
            dfs.append(self.df(t))
            ws.append(float(np.float32(dec.weights[i])))
        return pa.table({
            "term": pa.array(terms, pa.string()),
            "tf": pa.array(tfs, pa.int64()),
            "df": pa.array(dfs, pa.int64()),
            "weight": pa.array(ws, pa.float32()),
        })

    def lookup_pk(self, url: str) -> pa.Table:
        """J1: point lookup by primary key (``searchMoleculeByPK:505-519``).

        Per-fragment url blooms (footer metadata) reduce the candidate set
        to the ~1 fragment that can hold the url — O(1) expected file opens
        at any fragment count (vs the pre-r3 scan of every fwd fragment);
        each surviving candidate gets a predicate-pushdown read. A bloom
        false positive (~1-2%) costs one extra read, never a wrong result.
        ``last_lookup_files_opened`` records the opened-file count (tested
        on a multi-fragment index)."""
        from org_rdkit_lucene_ray.pipelines.build import stable_term_hash
        from org_rdkit_lucene_ray.state.bloom import bloom_might_contain

        uh = int(stable_term_hash([url])[0])
        tabs = []
        opened = 0
        schema = None
        for p, _lo, _hi, bloom in self._fwd_meta():
            if bloom is not None and not bloom_might_contain(bloom, uh):
                continue
            opened += 1
            t = self._not_deleted(pq.read_table(p, filters=[("url", "==", url)]))
            schema = t.schema
            tabs.append(t)
        self.last_lookup_files_opened = opened
        if not tabs:
            # every fragment bloom-rejected: empty result with the fwd schema
            files = self._fwd_files()
            schema = pq.read_schema(files[0]) if files else pa.schema(
                [("doc_id", pa.int64()), ("dl", pa.int32()),
                 ("url", pa.string())])
            return schema.empty_table()
        return pa.concat_tables(tabs)

    def resolve_urls(self, doc_ids: list[int]) -> dict[int, str]:
        """J7: top-k doc ids -> urls via pushdown read of JUST the forward
        fragments whose footer doc range overlaps the requested ids."""
        if not doc_ids:
            return {}
        ids = sorted(set(int(d) for d in doc_ids))
        ids_np = np.asarray(ids, dtype=np.int64)
        out: dict[int, str] = {}
        for p, lo, hi, _bloom in self._fwd_meta():
            # any requested id inside this fragment's [lo, hi]?
            i = int(np.searchsorted(ids_np, lo, side="left"))
            if i >= ids_np.size or ids_np[i] > hi:
                continue
            t = pq.read_table(
                p, columns=["doc_id", "url"],
                filters=[("doc_id", ">=", ids[0]), ("doc_id", "<=", ids[-1])],
            )
            if t.num_rows:
                m = pc.is_in(t["doc_id"], value_set=pa.array(ids, pa.int64()))
                sel = t.filter(m)
                out.update(zip(sel["doc_id"].to_pylist(), sel["url"].to_pylist()))
        return out


def _topk_of_batch(s: Searcher, batch: pa.Table, mode: str):
    """``(query_id, k, hits)`` per query row of ``batch``. Optional per-row
    columns: ``k`` (default 10), and ``after_score:float`` /
    ``after_doc:int`` (null = first page), which resume the query strictly
    after that (score, doc) position — search-after pagination, the K2
    collector-factory surface at the Dataset level."""
    names = batch.column_names
    ks = batch["k"].to_pylist() if "k" in names else None
    afters = (list(zip(batch["after_score"].to_pylist(),
                       batch["after_doc"].to_pylist()))
              if "after_score" in names and "after_doc" in names else None)
    for i, (qid, q) in enumerate(zip(batch["query_id"].to_pylist(),
                                     batch["query"].to_pylist())):
        k = int(ks[i]) if ks else 10
        after = None
        if afters is not None and afters[i][0] is not None:
            after = (float(afters[i][0]), int(afters[i][1]))
        yield qid, k, s.topk(q, k, mode=mode, after=after)


def _query_blocks(queries: pa.Table | rd.Dataset) -> rd.Dataset:
    """One block, and so one search task, per cluster CPU. A known-size
    Arrow query table is split driver-side into ``min(rows, CPUs)`` blocks
    (no AllToAll Repartition — that extra exchange round was the bm25_topk
    gate's dominant cost at small query counts, BENCH r2); a Dataset
    repartitions to ``CPUs`` blocks."""
    n_blocks = (int(ray.cluster_resources().get("CPU", 1))
                if ray.is_initialized() else os.cpu_count() or 1)
    if isinstance(queries, pa.Table):
        n_blocks = max(1, min(n_blocks, queries.num_rows))
        step = -(-queries.num_rows // n_blocks)
        return rd.from_arrow([queries.slice(i * step, step)
                              for i in range(n_blocks)
                              if i * step < queries.num_rows])
    return queries.repartition(n_blocks)


def run_queries(
    index_dir: str,
    queries: pa.Table | rd.Dataset,
    *,
    mode: str = "bmw",
    concurrency: int | None = None,
    resolve_urls: bool = True,
    similarity: str = "bm25",
) -> rd.Dataset:
    """The ``-benchmark`` query workload rebuilt (SURVEY §3.2): queries
    table ``(query_id, query[, k, after_score, after_doc])`` -> one search
    task per query block -> rows (FIXTURES.md §3) query_id:int32,
    rank:int32, doc_id:int64, url:string, score:float32.

    The driver resolves the CURRENT generation once, so every block of a
    call reads one snapshot, and the next call sees a newer one. Each task
    opens one lazy :class:`Searcher` on it. ``concurrency`` caps the
    concurrent tasks (the reference ini's ``thread_count``)."""
    _check_topk_mode(mode)
    gen = read_manifest(index_dir)["generation"]

    def search(batch: pa.Table) -> pa.Table:
        s = Searcher(index_dir, gen, similarity=similarity)
        qids, ranks, docs, scores = [], [], [], []
        for qid, _, hits in _topk_of_batch(s, batch, mode):
            for r, (d, sc) in enumerate(hits):
                qids.append(qid)
                ranks.append(r)
                docs.append(d)
                scores.append(sc)
        urls = [None] * len(docs)
        if resolve_urls and docs:
            lut = s.resolve_urls(docs)
            urls = [lut.get(d) for d in docs]
        return pa.table({
            "query_id": pa.array(qids, pa.int32()),
            "rank": pa.array(ranks, pa.int32()),
            "doc_id": pa.array(docs, pa.int64()),
            "url": pa.array(urls, pa.string()),
            "score": pa.array(scores, pa.float32()),
        })

    return _query_blocks(queries).map_batches(
        search, batch_format="pyarrow", batch_size=None,
        concurrency=concurrency)


def run_set_queries(
    index_dir: str,
    queries: pa.Table | rd.Dataset,
    *,
    method: str = "search_query",
    method_kwargs: dict | None = None,
) -> rd.Dataset:
    """Distributed batch surface for the SET-returning search family
    (boolean / parser / fuzzy / prefix / wildcard / free — any Searcher
    method taking ``(query, **kwargs)`` and returning a doc-id array):
    queries table ``(query_id, query)`` -> one search task per query block
    (one snapshot, as in :func:`run_queries`) -> ``(query_id, doc_id)``
    membership rows. The batch analog of the reference's per-thread search
    dispatch (``LuceneBenchmark.runTest`` :352-382) for the uncollected
    search types."""
    gen = read_manifest(index_dir)["generation"]
    kwargs = method_kwargs or {}

    def search(batch: pa.Table) -> pa.Table:
        fn = getattr(Searcher(index_dir, gen), method)
        qids, docs = [], []
        for qid, q in zip(batch["query_id"].to_pylist(),
                          batch["query"].to_pylist()):
            hits = fn(q, **kwargs)
            qids.extend([int(qid)] * len(hits))
            docs.extend(int(d) for d in hits)
        return pa.table({"query_id": pa.array(qids, pa.int64()),
                         "doc_id": pa.array(docs, pa.int64())})

    return _query_blocks(queries).map_batches(
        search, batch_format="pyarrow", batch_size=None)


def _n_segments(index_dir: str, generation: str | None = None) -> int:
    """Driver-side segment count (manifest + dir listing only, no data read).

    Segment = the shard granularity of ``topk_sharded`` /
    ``phrase_hits_sharded``: a doc lives in exactly one segment, so shards
    beyond the segment count would be tasks with no segment to search
    (measured at soak scale: a 1.54M-doc index at the default
    ``docs_per_segment=1M`` has only 2 segments, so ``n_shards=4`` left
    two shards idle)."""
    manifest = read_manifest(index_dir, generation)
    gdirs = [os.path.join(index_dir, g)
             for g in manifest.get("includes", [manifest["generation"]])]
    return len({s for gd in gdirs for s in list_segment_ids(gd)})


def _shard_union(index_dir: str, queries: pa.Table | rd.Dataset,
                 n_shards: int, shard_fn) -> rd.Dataset:
    """Fan ``queries`` out to one task per (query block, shard): the union
    of ``n`` lazy ``map_batches`` passes, where ``shard_fn(searcher,
    batch)`` answers a block from a lazy :class:`Searcher` over the i-th
    contiguous segment run of one driver-resolved generation. ``n`` is
    ``n_shards`` clamped to the segment count."""
    gen = read_manifest(index_dir)["generation"]
    n = max(1, min(n_shards, _n_segments(index_dir, gen)))
    ds = rd.from_arrow(queries) if isinstance(queries, pa.Table) else queries

    def on_shard(i: int):
        return lambda batch: shard_fn(
            Searcher(index_dir, gen, shard=(i, n)), batch)

    shards = [ds.map_batches(on_shard(i), batch_format="pyarrow",
                             batch_size=None) for i in range(n)]
    return shards[0].union(*shards[1:]) if n > 1 else shards[0]


_SHARD_TOPK_SCHEMA = pa.schema([("query_id", pa.int32()),
                                ("doc_id", pa.int64()),
                                ("score", pa.float32()),
                                ("k", pa.int32())])


def topk_sharded(
    index_dir: str,
    queries: pa.Table | rd.Dataset,
    *,
    n_shards: int = 2,
    mode: str = "bmw",
) -> rd.Dataset:
    """Segment-sharded distributed top-k (intra-query parallelism).

    Every query fans out to ``n_shards`` shard tasks, each scoring only its
    contiguous run of segment ids (see :class:`Searcher`'s ``shard``) with
    GLOBAL idf/avgdl, and emitting that shard's top-k. The call runs them
    and merges on the driver: one ``np.lexsort`` over (query_id, score
    desc, doc_id asc) keeps each query's first k of its at most
    ``n_shards × k`` rows — exact because each global top-k doc is in its
    own shard's top-k (SURVEY K2). Search-after is per shard: the after
    predicate is per-doc, so each global next-page doc is in its own
    shard's after-filtered top-k. Returns rows query_id:int32, rank:int32,
    doc_id:int64, score:float32, ordered by (query_id, rank).
    """
    _check_topk_mode(mode)

    def shard_topk(s: Searcher, batch: pa.Table) -> pa.Table:
        qids, docs, scores, ks = [], [], [], []
        for qid, k, hits in _topk_of_batch(s, batch, mode):
            for d, sc in hits:
                qids.append(qid)
                docs.append(d)
                scores.append(sc)
                ks.append(k)
        return pa.table([qids, docs, scores, ks], schema=_SHARD_TOPK_SCHEMA)

    merged = _shard_union(index_dir, queries, n_shards, shard_topk)
    parts = [t for t in ray.get(merged.to_arrow_refs()) if t.num_rows]
    t = pa.concat_tables(parts) if parts else _SHARD_TOPK_SCHEMA.empty_table()
    qid, doc, score, k = (t[c].to_numpy() for c in _SHARD_TOPK_SCHEMA.names)
    order = np.lexsort((doc, -score, qid))
    qid, doc, score, k = qid[order], doc[order], score[order], k[order]
    starts = np.flatnonzero(np.r_[True, qid[1:] != qid[:-1]])
    rank = np.arange(qid.size) - np.repeat(starts, np.diff(np.r_[starts, qid.size]))
    keep = rank < k
    return rd.from_arrow(pa.table({
        "query_id": pa.array(qid[keep], pa.int32()),
        "rank": pa.array(rank[keep], pa.int32()),
        "doc_id": pa.array(doc[keep], pa.int64()),
        "score": pa.array(score[keep], pa.float32()),
    }))


def phrase_hits_sharded(
    index_dir: str,
    queries: pa.Table | rd.Dataset,
    *,
    n_shards: int = 2,
    slop: int = 0,
) -> rd.Dataset:
    """Segment-sharded distributed phrase search (intra-query
    parallelism for :meth:`Searcher.phrase_hits` — VERDICT r4 #8): every
    phrase fans out to ``n_shards`` shard tasks, each screening +
    position-verifying only its contiguous segment range, so the dense
    all-head-term worst case — where the candidate screen barely prunes
    and the verify chain walks nearly every posting's positions — divides
    its decode + chain work by ``n_shards``. Docs live in exactly one
    segment, so the union of per-shard hit sets IS the global hit set — no
    merge/dedup step, and exactness is structural.

    Queries: ``(query_id, query[, slop])``; output rows
    ``(query_id, doc_id)`` (unordered — phrase hits are a membership
    set, same contract as :func:`run_set_queries`)."""

    def shard_hits(s: Searcher, batch: pa.Table) -> pa.Table:
        qids: list[int] = []
        docs: list[np.ndarray] = []
        slops = (batch["slop"].to_pylist()
                 if "slop" in batch.column_names else None)
        for i, (qid, q) in enumerate(zip(batch["query_id"].to_pylist(),
                                         batch["query"].to_pylist())):
            hits = s.phrase_hits(s._query_terms(q),
                                 int(slops[i]) if slops is not None else slop)
            qids.extend([int(qid)] * hits.size)
            docs.append(hits)
        return pa.table({
            "query_id": pa.array(qids, pa.int64()),
            "doc_id": pa.array(
                np.concatenate(docs) if docs else np.zeros(0, np.int64),
                pa.int64()),
        })

    return _shard_union(index_dir, queries, n_shards, shard_hits)


def search_block_join(
    docs: rd.Dataset,
    queries: list[tuple[int, str, str]],
    *,
    child_tokens: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
    analyzer: str = "standard",
) -> rd.Dataset:
    """Parent/child block join (Lucene ``ToParentBlockJoinQuery``):
    every doc's token stream splits into fixed-size CHILD blocks, a
    query ``(t1, t2)`` matches a child containing BOTH terms, and the
    match reports the PARENT — stricter than doc-level AND (the terms
    must co-occur locally), looser than a phrase. Emits distinct
    ``(query_id, doc_id)`` rows.

    Vectorized per batch: one composite ``(row << 32 | chunk)`` key per
    term occurrence, matched across the two terms with ``np.isin`` —
    no per-row loop, no shuffle."""
    from org_rdkit_lucene_ray.functions.analyze import (
        REGISTRY,
        analyze_text,
        tokenize_column,
    )

    cfg = REGISTRY[analyzer]
    qs = []
    for qid, t1, t2 in queries:
        a1 = analyze_text(t1, cfg)
        a2 = analyze_text(t2, cfg)
        if a1 and a2:                 # a term the analyzer drops can't match
            qs.append((qid, a1[0], a2[0]))
    C = int(child_tokens)

    def match(t: pa.Table) -> pa.Table:
        toks = tokenize_column(t[text_col].combine_chunks(), cfg)
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        counts = pc.list_value_length(toks) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        intra = np.arange(len(flat), dtype=np.int64) - starts[parents]
        chunk_key = (parents << 32) | (intra // C)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        qids_out, docs_out = [], []
        for qid, t1, t2 in qs:
            k1 = np.unique(chunk_key[
                pc.equal(flat, t1).to_numpy(zero_copy_only=False)])
            k2 = np.unique(chunk_key[
                pc.equal(flat, t2).to_numpy(zero_copy_only=False)])
            both = k1[np.isin(k1, k2, assume_unique=True)]
            rows = np.unique(both >> 32)
            qids_out.append(np.full(rows.size, qid, np.int64))
            docs_out.append(ids[rows])
        return pa.table({
            "query_id": pa.array(np.concatenate(qids_out) if qids_out
                                 else np.zeros(0, np.int64), pa.int64()),
            "doc_id": pa.array(np.concatenate(docs_out) if docs_out
                               else np.zeros(0, np.int64), pa.int64()),
        })

    return docs.map_batches(match, batch_format="pyarrow")


def percolate(
    docs: rd.Dataset,
    queries: list[tuple[int, str]],
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    analyzer: str = "standard",
) -> rd.Dataset:
    """Percolator / Lucene-Monitor analog — REVERSE search: match a
    document STREAM against a broadcast set of stored conjunctive
    queries (alerting / routing / saved-search, the direction to run
    when queries are long-lived and documents flow through). Emits
    ``(query_id, doc_id)`` membership rows — the same contract as
    ``search_and`` computed without any index.

    Scale shape: the stored-query term dictionary broadcasts once; per
    batch, ONE ``index_in`` maps the batch's flat tokens into it and a
    per-(row, query) hit-count fold decides containment — no per-query
    scan, no shuffle (embarrassingly parallel map)."""
    from org_rdkit_lucene_ray.functions.analyze import (
        REGISTRY,
        analyze_text,
        tokenize_column,
    )

    import ray as _ray

    cfg = REGISTRY[analyzer]
    qterms: list[tuple[int, list[str]]] = [
        (qid, sorted(set(analyze_text(q, cfg)))) for qid, q in queries]
    vocab = sorted({t for _, ts in qterms for t in ts})
    v_index = {t: i for i, t in enumerate(vocab)}
    # per-query term-id sets + required counts
    need = [(qid, np.array([v_index[t] for t in ts], np.int64))
            for qid, ts in qterms]
    model = _ray.put((pa.array(vocab, pa.string()), need))

    def match(t: pa.Table) -> pa.Table:
        vocab_arr, need_b = _ray.get(model)
        toks = tokenize_column(t[text_col].combine_chunks(), cfg)
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = pc.index_in(flat, value_set=vocab_arr) \
            .to_numpy(zero_copy_only=False)
        ok = ~np.isnan(pos.astype(np.float64)) if pos.dtype.kind == "f" \
            else np.ones(len(pos), bool)
        V = len(vocab_arr)
        # distinct (row, vocab term) keys — SPARSE: per query, count how
        # many of its terms each row holds and demand all of them (no
        # rows x vocab dense matrix; memory stays O(distinct hits))
        key = parents[ok] * V + pos[ok].astype(np.int64)
        uk = np.unique(key) if key.size else np.zeros(0, np.int64)
        uk_row = uk // V
        uk_term = uk % V
        qids_out, docs_out = [], []
        for qid, tids in need_b:
            if tids.size == 0:
                continue
            sel = np.isin(uk_term, tids)
            cnt = np.bincount(uk_row[sel], minlength=t.num_rows)
            hit = np.flatnonzero(cnt == tids.size)
            qids_out.append(np.full(hit.size, qid, np.int64))
            docs_out.append(ids[hit])
        return pa.table({
            "query_id": pa.array(np.concatenate(qids_out) if qids_out
                                 else np.zeros(0, np.int64), pa.int64()),
            "doc_id": pa.array(np.concatenate(docs_out) if docs_out
                               else np.zeros(0, np.int64), pa.int64()),
        })

    return docs.map_batches(match, batch_format="pyarrow")


# --------------------------------------------------------------- phrase search
def _phrase_match_mask(toks: pa.ListArray, ptoks: list[str],
                       slop: int) -> np.ndarray:
    """Per-row bool: does the token list contain the phrase terms at
    strictly-increasing positions ``p_1 < ... < p_n`` with total extra gap
    ``p_n - p_1 - (n-1) <= slop``? ``slop=0`` is exact adjacency (Lucene
    ``PhraseQuery``); ``slop>0`` is the in-order ``SpanNearQuery`` contract.

    Vectorized across the whole batch with NO per-row loop: occurrences of
    each phrase term become sorted composite keys ``row_idx << 32 | pos``,
    and one ``searchsorted(side='right')`` per phrase term chains every
    start occurrence to its greedily-nearest completion at once (the greedy
    chain minimizes ``p_n`` for each ``p_1``, so it is exact for the
    span-<=-slop decision). Repeated phrase terms work because the chain
    demands a strictly later key from the SAME sorted occurrence list."""
    n_rows = len(toks)
    if n_rows == 0 or not ptoks:
        return np.zeros(n_rows, bool)
    counts = pc.fill_null(pc.list_value_length(toks), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    intra = np.arange(len(flat), dtype=np.int64) - starts[parents]
    keys: list[np.ndarray] = []
    for t in ptoks:
        hit = pc.fill_null(pc.equal(flat, t), False) \
            .to_numpy(zero_copy_only=False)
        idx = np.flatnonzero(hit)
        if idx.size == 0:
            return np.zeros(n_rows, bool)
        # ascending by construction: flat order IS (row, position) order
        keys.append((parents[idx].astype(np.int64) << 32) | intra[idx])
    start = keys[0]
    cur = start
    alive = np.ones(cur.size, bool)
    for k in keys[1:]:
        pos = np.searchsorted(k, cur, side="right")
        ok = pos < k.size
        nxt = k[np.minimum(pos, k.size - 1)]
        ok &= (nxt >> 32) == (cur >> 32)     # same row
        alive &= ok
        cur = np.where(ok, nxt, cur)
    span_extra = (cur & 0xFFFFFFFF) - (start & 0xFFFFFFFF) - (len(ptoks) - 1)
    good = alive & (span_extra <= slop)
    mask = np.zeros(n_rows, bool)
    mask[np.unique(start[good] >> 32)] = True
    return mask


class PhraseVerifyStage:
    """VERIFY phase of phrase search over the stored text, as a
    ``map_batches`` task function (an instance): the screened candidate ids
    (one ``ray.put`` broadcast of ``({query_id: sorted int64[]}, their
    union)``, fetched once per worker process by ``dedup._bcast``) prune
    each batch before the tokenizer runs, then :func:`_phrase_match_mask`
    decides each phrase. Verification cost is proportional to candidates,
    not corpus — the same screen/verify economics as
    ``search_screen_verify`` (K3)."""

    def __init__(self, cands_ref, phrases: list[tuple[int, list[str], int]],
                 cfg: AnalyzerConfig, id_column: str = "doc_id",
                 text_column: str = "text"):
        self.cands_ref = cands_ref
        self.phrases = phrases                   # (query_id, tokens, slop)
        self.cfg = cfg
        self.id_column = id_column
        self.text_column = text_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        from org_rdkit_lucene_ray.functions.analyze import tokenize_column
        from org_rdkit_lucene_ray.stages.dedup import _bcast

        out_schema = pa.schema([("query_id", pa.int64()),
                                ("doc_id", pa.int64())])
        cands, union = _bcast(self.cands_ref)
        ids = batch[self.id_column].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = np.isin(ids, union)
        if not keep.any():
            return out_schema.empty_table()
        sub = batch.filter(pa.array(keep))
        ids = ids[keep]
        toks = tokenize_column(sub[self.text_column], self.cfg)
        qids_out, docs_out = [], []
        for qid, ptoks, slop in self.phrases:
            cand = cands[qid]
            if not cand.size:
                continue
            in_q = np.isin(ids, cand)
            m = _phrase_match_mask(toks, ptoks, slop) & in_q
            hit = ids[m]
            qids_out.append(np.full(hit.size, qid, np.int64))
            docs_out.append(hit)
        if not qids_out:
            return out_schema.empty_table()
        return pa.table({"query_id": np.concatenate(qids_out),
                         "doc_id": np.concatenate(docs_out)},
                        schema=out_schema)


def search_phrases(
    searcher: Searcher,
    docs: rd.Dataset,
    phrases: list[tuple[int, str, int]],
    *,
    id_column: str = "doc_id",
    text_column: str = "text",
) -> rd.Dataset:
    """Phrase / in-order-proximity search (Lucene ``PhraseQuery`` slop=0,
    ``SpanNearQuery(inOrder=true)`` slop>0) as a two-phase distributed plan:

    1. SCREEN (driver, index-only): multiplicity-aware posting intersection
       per phrase (:meth:`Searcher.phrase_candidates`) — no text touched.
    2. VERIFY (streamed): ONE ``map_batches`` pass over the stored-text
       Dataset checks every phrase's positions on its candidates only; the
       candidate sets ride a single ``ray.put`` broadcast. At 100 TB the
       docs Dataset is the stored-field table and the pass is pruned
       further by pushing ``id in candidates`` into the read when the
       candidate count is small.

    On a ``store_positions=True`` index the verify phase reads the
    positional sidecar instead (``Searcher.phrase_hits``) — cost
    O(candidate postings); only ``docs``'s ID column is streamed (one
    ``select_columns`` pass scoping the hits to the caller's dataset —
    never the text), so both layouts return identical rows for the same
    ``docs`` scope (tested in test_positions.py).

    ``phrases`` rows are ``(query_id, phrase, slop)``; result rows are
    ``(query_id, doc_id)`` membership, like the rest of the set-returning
    search family."""
    import ray

    out_schema = pa.schema([("query_id", pa.int64()), ("doc_id", pa.int64())])
    if searcher.store_positions:
        qids_out, docs_out = [], []
        for qid, phrase, slop in phrases:
            ptoks = analyze_text(phrase, searcher.query_cfg)
            hit = searcher.phrase_hits(ptoks, int(slop))
            qids_out.append(np.full(hit.size, int(qid), np.int64))
            docs_out.append(hit)
        hits_tbl = pa.table({
            "query_id": pa.array(np.concatenate(qids_out)
                                 if qids_out else [], pa.int64()),
            "doc_id": pa.array(np.concatenate(docs_out)
                               if docs_out else [], pa.int64()),
        })
        if hits_tbl.num_rows == 0:
            return rd.from_arrow(out_schema.empty_table())
        # scope the index-wide hits to the docs the caller provided: the
        # docs dataset defines the searchable universe exactly as it does
        # on the stored-text path (each doc id appears in one batch)
        hits_ref = ray.put(hits_tbl)

        def scope(batch: pa.Table) -> pa.Table:
            hits = ray.get(hits_ref)
            keep = np.isin(hits["doc_id"].to_numpy(),
                           batch[id_column].to_numpy(zero_copy_only=False)
                           .astype(np.int64))
            return hits.filter(pa.array(keep)).cast(out_schema)

        return docs.select_columns([id_column]).map_batches(
            scope, batch_format="pyarrow")

    parsed: list[tuple[int, list[str], int]] = []
    cands: dict[int, np.ndarray] = {}
    for qid, phrase, slop in phrases:
        ptoks = analyze_text(phrase, searcher.query_cfg)
        parsed.append((int(qid), ptoks, int(slop)))
        cands[int(qid)] = searcher.phrase_candidates(ptoks)
    union = np.unique(np.concatenate(
        [v for v in cands.values() if v.size] or [np.zeros(0, np.int64)]))
    stage = PhraseVerifyStage(ray.put((cands, union)), parsed,
                              searcher.query_cfg, id_column=id_column,
                              text_column=text_column)
    return docs.map_batches(stage, batch_format="pyarrow")
