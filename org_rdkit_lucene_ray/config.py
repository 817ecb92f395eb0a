"""Typed engine configuration.

Reference analogs:
- ``FingerprintSettings`` (immutable typed settings,
  ``fingerprint/FingerprintSettings.java:50-245``) -> :class:`AnalyzerConfig`.
- ``IndexWriterConfigFactory`` (``DefaultIndexWriterConfigFactory.java:39-67``)
  -> :class:`IndexConfig` (segment sizing, block size for block-max, codec).
- The index/query analyzer-compatibility constraint
  (``ChemicalIndex.java:148-151``, ``FingerprintType.isCompatible:578-586``)
  is enforced by hashing :class:`AnalyzerConfig` into the segment manifest and
  refusing queries under a mismatched config (see state/segment.py).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict

# On-disk index format identity. ``TERM_HASH_FN`` names the function that
# assigns terms to buckets (build.stable_term_hash); the searcher probes ONLY
# the computed bucket, so an index whose buckets were assigned by a different
# hash opens fine but silently returns empty results. Both values are written
# into every generation manifest and verified by Searcher / add_documents /
# merge_generations (state.segment.check_format) — the analog of Lucene's
# codec-version check on segment open. Bump FORMAT_VERSION whenever bucket
# assignment, the posting codec, or the manifest layout changes
# incompatibly. (version 2 = FNV-1a bucket hash, r2; version 1 indexes used
# pandas siphash and are refused.) Dropping the three stored block-max list
# columns from chunks did NOT bump it: no reader ever touched them, so
# version-2 chunks with or without them open under old and new code alike —
# readers address columns by name, as with ``pos_bytes``.
FORMAT_VERSION = 2
TERM_HASH_FN = "fnv1a64"


@dataclass(frozen=True)
class BM25Params:
    """BM25 scoring parameters (Lucene-style idf).

    score(q, d) = sum_t idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))
    idf(t)      = ln(1 + (N - df + 0.5) / (df + 0.5))

    Accumulation contract (rank-identity with the oracle): per-document
    contributions are added in ascending term order, in float64, and the final
    score is rounded to float32. Mirrors the fixed-summation-order requirement
    called out in SURVEY.md §7.4(2).
    """

    k1: float = 1.2
    b: float = 0.75


@dataclass(frozen=True)
class AnalyzerConfig:
    """Tokenizer settings; hashed into segment manifests.

    Reference analog: the 9-member ``FingerprintType`` enum + settings
    (``fingerprint/FingerprintType.java:42-434``). The reference keeps
    *asymmetric* index-time vs query-time settings (Avalon structure vs query
    bit flags, ``LuceneBenchmark.java:589-599``); we keep two config slots in
    the manifest (``index_analyzer`` / ``query_analyzer``) with a
    compatibility check.
    """

    name: str = "standard"          # registry key, see functions/analyze.py
    lowercase: bool = True
    token_pattern: str = "[a-z0-9]+"  # applied AFTER lowercasing
    stopwords: tuple[str, ...] = ()   # "english" preset available via registry
    min_token_len: int = 1
    max_token_len: int = 64
    # gram transforms applied AFTER the stopword/length filters (the Lucene
    # filter-chain order: StopFilter -> ShingleFilter / NGramTokenFilter).
    # word_shingles >= 2: terms become joined runs of that many adjacent
    # tokens ("_"-separated; shingles only, no unigrams — docs with fewer
    # tokens emit none). char_ngrams >= 2: terms become all character
    # n-grams of that length within each token (tokens shorter than n are
    # dropped, NGramTokenFilter semantics). Composable in that order.
    word_shingles: int = 0
    char_ngrams: int = 0
    # English minimal plural stemmer (Lucene EnglishMinimalStemFilter /
    # Savoy 2006): strip a trailing 's' from tokens of length >= 4 unless
    # the token ends in 'us'/'ss'. Applied after the stopword/length
    # filters and BEFORE the gram transforms (Lucene filter-chain order:
    # StopFilter -> StemFilter -> ShingleFilter).
    en_minimal_stem: bool = False

    def fingerprint(self) -> str:
        """Stable hash used for index/query compatibility checks."""
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class IndexConfig:
    """Physical index layout knobs.

    ``docs_per_segment`` is the doc-id range width of one segment — this IS
    the head-term salting mechanism (SURVEY §7.1(6)): every posting list is
    split by doc-id range into per-segment chunks, so the widest possible
    groupby-term group is bounded by ``docs_per_segment`` regardless of a
    term's global df. Chunks are doc-id-disjoint and ordered, so concatenation
    preserves sorted posting lists.
    """

    docs_per_segment: int = 1 << 20   # 1M docs per segment at scale
    term_buckets: int = 32            # groupby salt: (segment, hash(term)%B) groups
    block_size: int = 128             # postings per query-time block-max block (Lucene BMW-style)
    # dedup pre-pass sizing (execution knobs, not on-disk format — kept out
    # of manifest_dict). Bucket count is DATA-sized, like the join-partition
    # rule: buckets = clamp(ceil(total_rows / dedup_rows_per_bucket), 1, 65536),
    # so a wave-2 task concatenates at most ~dedup_rows_per_bucket rows at any
    # corpus size, and a small corpus runs one task (r3 verdict #2).
    dedup_rows_per_bucket: int = 2_000_000
    # wave-2 fan-in bounds: a (bucket, fragment-range) sub-task reads at most
    # ~dedup_max_task_rows rows and opens at most dedup_max_files_per_task
    # slim files; ranges are folded by a per-bucket winner combine.
    dedup_max_task_rows: int = 4_000_000
    dedup_max_files_per_task: int = 256
    bm25: BM25Params = field(default_factory=BM25Params)
    index_analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)
    query_analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)
    # NOTE: a per-(segment, term) "sub-salt" knob existed in r1 but was
    # never applied — docs_per_segment already bounds the widest encode
    # task (smaller segments = finer doc-range salting), so the knob was
    # removed rather than carried as dead configuration.
    # metadata columns indexed as composite "col:value" terms (J5 multi-field
    # query surface, MultiFieldQueryParser analog ChemicalIndex.java:466-491)
    field_columns: tuple[str, ...] = ()
    # OPTIONAL positional postings sidecar (Lucene's positions-at-index-time;
    # the reference's fields are NOT_ANALYZED so it has no positional surface
    # — this is the fulltext-tier extension, r3 verdict #7): each chunk row
    # gains a `pos_bytes` stream of delta+varint token positions, one
    # self-contained run per posting (run length = that posting's tf). Phrase
    # / proximity verify then costs O(candidate postings) instead of a full
    # stored-text decode per candidate. Off by default: ~the cost of one
    # extra tf-like stream per posting at build time and on disk.
    store_positions: bool = False
    # on-disk chunk format: "parquet" (zstd, smaller — the cold-storage
    # default) or "ipc" (uncompressed Arrow IPC — the query-serving layout:
    # searchers memory-map chunk files ZERO-COPY, so actor RSS is the
    # touched pages and init never decompresses; the north star's "mmap'd
    # segment shards"). Varint posting streams are already entropy-packed,
    # so the ipc size penalty is bounded (measured in BASELINE r4).
    chunk_format: str = "parquet"

    def __post_init__(self):
        if self.chunk_format not in ("parquet", "ipc"):
            raise ValueError(f"chunk_format must be 'parquet' or 'ipc', "
                             f"got {self.chunk_format!r}")

    def manifest_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "term_hash": TERM_HASH_FN,
            "docs_per_segment": self.docs_per_segment,
            "term_buckets": self.term_buckets,
            "block_size": self.block_size,
            "bm25": asdict(self.bm25),
            "index_analyzer": asdict(self.index_analyzer),
            "index_analyzer_fp": self.index_analyzer.fingerprint(),
            "query_analyzer": asdict(self.query_analyzer),
            "query_analyzer_fp": self.query_analyzer.fingerprint(),
            "field_columns": list(self.field_columns),
            "store_positions": self.store_positions,
            "chunk_format": self.chunk_format,
        }
