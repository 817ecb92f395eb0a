"""Distributed inverted-index build (the ``-index`` entry point rebuilt).

Reference lifecycle being re-expressed (SURVEY §3.1,
``LuceneBenchmark.index() :574-623`` -> ``ChemicalIndex.addSDFFileToIndex``):
single-threaded SDF loop -> canonicalize -> fingerprint -> addDocument.
Here the same computation is three phases over Parquet pages, each plain
Ray tasks, one per fragment or bucket (:func:`submit_tasks`):

Phase DEDUP (J6, upsert/delete-by-PK analog ``ChemicalIndex.java:801``):
    storage-partitioned like Phase B — per-fragment slim scans spilled as
    one record batch per url-hash bucket (:func:`write_bucket_batches`),
    then per-bucket last-write-wins loser detection over the memory-mapped
    batches (one lexsort per bucket; real urls compared, so hash collisions
    are harmless). The bucket count is sized by the data (one bucket per
    ``dedup_rows_per_bucket`` rows, at least one), so a small corpus pays
    for one wave-2 task, not a fixed fan-out. Tokenize workers anti-join
    against the loser files with row-group predicate pushdown — no Ray
    groupby, nothing rides the driver (SURVEY §2.4 J6).

Phase A (tokenize; the expensive, checkpointed pass):
    plain Ray tasks, one per fragment descriptor, all running the one
    ``FragmentTokenizer`` the build put in the object store. Each fragment:
    row-group-streamed pruned read -> ``extract_text(html)`` (byte-identity
    invariant verified against the shipped ``text`` column) -> vectorized
    tokenize -> postings ``(term, doc_id, tf, dl)`` spilled as one Arrow
    IPC file per fragment (one record batch per term bucket) + forward-index
    Parquet, written atomically, manifest row committed last (resume = skip
    committed fragments).
    doc_id = fragment base (prefix sum over path-sorted fragments) + row
    offset — deterministic across runs and resumes (SURVEY §7.4(1)).

Phase B (the wide step — a STORAGE-PARTITIONED exchange, no Ray groupby):
    Phase A spilled each fragment's postings as an uncompressed Arrow IPC
    file whose record batch *b* holds term bucket *b*
    (``stable_hash(term) % term_buckets``), rows in ``(term, doc_id)``
    order; fragments own contiguous doc-id ranges, so one encode task per
    term bucket walks the segments in ascending order, memory-maps batch
    *b* of the few fragment files overlapping each segment (a numpy mask
    cuts the doc range of a fragment that straddles a segment boundary),
    re-sorts the slice, and writes one atomically-renamed chunk file
    (delta+varint, vectorized across all terms). Nothing is decoded and no
    file statistics are evaluated per slice. The deterministic file layout
    IS the shuffle — it removed the 53 s all-to-all sort the
    ``groupby(term)`` variant cost at 160k docs, and makes resume = skip
    existing chunk files. Skew: a
    term's postings are pre-split by doc-id range (segment), so a task
    holds at most ``docs_per_segment`` docs' postings at once no matter
    how hot the head term is — salting-by-docID-range per SURVEY §7.1(6);
    sub-lists stay sorted and concatenable.

    The same task writes the bucket's df file (A4 corpus statistics): a
    term lives in exactly one bucket, so its df is the sum of the
    ``df_chunk`` values of that bucket's chunks — no shuffle and no second
    pass over the chunk files (:func:`run_bucket_tasks`, shared with merge).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from org_rdkit_lucene_ray.config import IndexConfig
from org_rdkit_lucene_ray.functions.analyze import postings_from_batch
from org_rdkit_lucene_ray.functions.codec import encode_posting_block
from org_rdkit_lucene_ray.functions.html import extract_text
from org_rdkit_lucene_ray.state import checkpoint as ckpt
from org_rdkit_lucene_ray.state.segment import (
    SEGMENT_SCHEMA,
    SEGMENT_SCHEMA_POS,
    atomic_write_json,
    atomic_write_table,
    binary_views,
    gen_name,
    one_array,
    read_chunk_table,
    segment_chunk_path,
    set_current_generation,
)


_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def stable_term_hash(terms) -> np.ndarray:
    """Deterministic (cross-process, cross-run, library-version-independent)
    uint64 FNV-1a hash of a string array.

    Vectorized over the STRING COLUMN'S FLAT UTF-8 BUFFER: one numpy pass
    per byte position of the longest surviving string (gather + xor +
    multiply over the still-alive rows), zero-copy from Arrow — no
    ``to_pylist`` object materialization, no per-row Python. Replaces the
    r1 pandas ``hash_array`` path (object-ndarray round trip on the hot
    build path, VERDICT r1 #6). Bucket assignment is internal to an index
    generation; all generations of one index use the same function."""
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    if not isinstance(terms, pa.Array):
        terms = pa.array(list(terms), pa.string())
    elif terms.type != pa.string():
        terms = terms.cast(pa.string())
    n = len(terms)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    bufs = terms.buffers()
    offs = np.frombuffer(bufs[1], np.int32)[terms.offset: terms.offset + n + 1].astype(np.int64)
    data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None \
        else np.zeros(0, np.uint8)
    starts = offs[:-1]
    lens = offs[1:] - starts
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    alive = np.flatnonzero(lens > 0)
    k = 0
    with np.errstate(over="ignore"):        # FNV wraps mod 2^64 by design
        while alive.size:
            idx = starts[alive] + k
            h[alive] = (h[alive] ^ data[idx].astype(np.uint64)) * _FNV_PRIME
            k += 1
            alive = alive[lens[alive] > k]
    return h


_FNV_MASK = (1 << 64) - 1


def stable_term_hash_one(term: str) -> int:
    """:func:`stable_term_hash` of ONE string, as a Python int — the same
    FNV-1a over the same UTF-8 bytes, without building an Arrow array (a
    query-time bucket probe hashes one term at a time)."""
    h = int(_FNV_OFFSET)
    prime = int(_FNV_PRIME)
    for byte in term.encode("utf-8"):
        h = ((h ^ byte) * prime) & _FNV_MASK
    return h


# --------------------------------------------------------------------- plan
def plan_fragments(input_paths: str | list[str], doc_id_base: int = 0) -> list[dict]:
    """Fragment descriptors with deterministic doc-id bases.

    Fragments are ordered by path (the canonical ordering pinned into the
    manifest, SURVEY §7.4(1)); bases are the prefix sum of Parquet footer
    row counts. Footer reads are metadata-only and cheap; at very large
    fragment counts this loop itself becomes a small Ray map over paths."""
    if isinstance(input_paths, str):
        root = input_paths
        paths = sorted(
            os.path.join(root, f) for f in os.listdir(root) if f.endswith(".parquet")
        )
    else:
        paths = sorted(input_paths)
    if not paths:
        raise FileNotFoundError(f"no parquet fragments under {input_paths}")
    frags, base = [], doc_id_base
    for i, p in enumerate(paths):
        rows = pq.read_metadata(p).num_rows
        frags.append({"fragment_id": i, "path": p, "base": base, "rows": rows})
        base += rows
    return frags


# -------------------------------------------------------------------- spill
def write_bucket_batches(table: pa.Table, bucket: np.ndarray, buckets: int,
                         path: str) -> int:
    """Write ``table``, whose rows are sorted by ``bucket`` (each row's
    bucket id in ``[0, buckets)``), as one Arrow IPC file with ONE RECORD
    BATCH PER BUCKET: the batch index is the bucket, and an empty bucket is
    an empty batch. The write side of the build's storage-partitioned
    exchanges (the tokenize posting spill and the dedup slim spill).
    Uncompressed, so :func:`read_bucket_batch` maps a bucket without
    decoding a byte. Atomic (temp + rename); returns the file's size."""
    import uuid

    cuts = np.searchsorted(bucket, np.arange(buckets + 1))
    batch = pa.record_batch([c.combine_chunks() for c in table.columns],
                            schema=table.schema)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{uuid.uuid4().hex}")
    with pa.OSFile(tmp, "wb") as f, pa.ipc.new_file(f, batch.schema) as w:
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            w.write_batch(batch.slice(lo, hi - lo))
    size = os.path.getsize(tmp)
    os.replace(tmp, path)
    return size


def read_bucket_batch(path: str, bucket: int, columns: list[str]) -> pa.RecordBatch:
    """Bucket ``bucket`` of a :func:`write_bucket_batches` file, memory-mapped:
    the batch's buffers point into the mapping (which they keep alive)."""
    with pa.memory_map(path) as src:
        return pa.ipc.open_file(src).get_batch(bucket).select(columns)


def spill_path(work_dir: str, fragment_id: int) -> str:
    """A fragment's posting spill file."""
    return os.path.join(work_dir, "postings", f"frag-{fragment_id:06d}.arrow")


# -------------------------------------------------------------------- dedup
def _dedup_bucket_count(total_rows: int, cfg: IndexConfig) -> int:
    """Data-sized bucket count (r3 verdict #2): one bucket per
    ~dedup_rows_per_bucket input rows, clamped to [1, 65536] — a small
    corpus runs one wave-2 task instead of a fixed fan-out whose tasks each
    open every slim file. Deterministic given the fragment plan, so resumes
    re-derive the same layout."""
    import math

    b = math.ceil(max(1, total_rows) / max(1, cfg.dedup_rows_per_bucket))
    return int(min(max(1, b), 65536))


def _dedup_fragment_ranges(fragments: list[dict], buckets: int,
                           cfg: IndexConfig) -> list[tuple[int, int]]:
    """Split the fragment list into consecutive ranges so a wave-2
    (bucket, range) sub-task reads ≲ dedup_max_task_rows rows
    (≈ range_rows / buckets) and opens ≤ dedup_max_files_per_task files."""
    max_range_rows = cfg.dedup_max_task_rows * buckets
    ranges: list[tuple[int, int]] = []
    start, rows = 0, 0
    for i, fr in enumerate(fragments):
        if i > start and (rows + fr["rows"] > max_range_rows
                          or i - start >= cfg.dedup_max_files_per_task):
            ranges.append((start, i))
            start, rows = i, 0
        rows += fr["rows"]
    ranges.append((start, len(fragments)))
    return ranges


def _slim_path(slim_dir: str, fragment_id: int) -> str:
    return os.path.join(slim_dir, f"frag-{fragment_id:06d}.arrow")


def _slim_bucketed_write(frag: dict, slim_dir: str, buckets: int) -> None:
    """Wave 1: one fragment's slim scan sorted by (bucket, uh) and spilled as
    one record batch per url-hash bucket (:func:`write_bucket_batches`) —
    the dedup side of the storage-partitioned exchange (no Ray groupby
    anywhere in dedup)."""
    t = pq.read_table(frag["path"], columns=["url", "warc_ts"])
    uh = stable_term_hash(t["url"]).astype(np.int64)
    bucket = uh % buckets
    order = np.lexsort((uh, bucket))
    slim = pa.table({
        "uh": pa.array(uh),
        "url": t["url"],
        "warc_ts_us": pc.cast(t["warc_ts"], pa.int64()),
        "doc_id": pa.array(frag["base"] + np.arange(t.num_rows, dtype=np.int64)),
    }).take(pa.array(order))
    write_bucket_batches(slim, bucket[order], buckets,
                         _slim_path(slim_dir, int(frag["fragment_id"])))


def compute_dup_losers(fragments: list[dict], work_dir: str,
                       cfg: IndexConfig | None = None,
                       task_secs: list[float] | None = None) -> str:
    """DEDUP phase -> directory of per-bucket loser doc_id Parquet files.

    Storage-partitioned, no shuffle (same trick as Phase B), with BOTH
    fan-in axes bounded (r3 verdict #2):

    - bucket count is DATA-sized (`_dedup_bucket_count`): one url-hash
      bucket per ~2M input rows (at least one), so a bucket's slice stays
      bounded at any corpus size and a small corpus runs one bucket;
    - wave 1 (per fragment): slim (uh, url, warc_ts, doc_id) scan spilled
      as one Arrow IPC file, one record batch per url-hash bucket;
    - wave 2 (per bucket × fragment-range): consecutive fragments are packed
      into ranges (`_dedup_fragment_ranges`) so one sub-task reads
      ≲ dedup_max_task_rows rows and maps ≤ dedup_max_files_per_task files,
      reading batch *b* of each. Each sub-task lexsorts its slice, emits
      local last-write-wins LOSERS immediately and — when more than one
      range exists — its per-url local WINNER rows (one row per distinct
      url in the slice);
    - combine (per bucket, only when ranges > 1): fold the bucket's winner
      rows across ranges (≤ distinct-urls-per-range × ranges rows, tiny) and
      emit the sub-winners that lose globally. Last-write-wins is an
      associative per-url max, so the two-level fold is exact.

    Real urls are compared at every level, so a hash collision can never
    pick a wrong winner. Dup groups crossing buckets are impossible (same
    url -> same hash -> same bucket). `dedup_meta.json` records buckets,
    ranges and per-task rows-read so tests can assert the ceiling; the
    task bodies' seconds go to ``task_secs``, if given.
    """
    cfg = cfg or IndexConfig()
    secs = [] if task_secs is None else task_secs
    total_rows = sum(int(f["rows"]) for f in fragments)
    buckets = _dedup_bucket_count(total_rows, cfg)
    ranges = _dedup_fragment_ranges(fragments, buckets, cfg)
    losers_dir = os.path.join(work_dir, "losers")
    done = os.path.join(losers_dir, "_SUCCESS")
    if os.path.exists(done):
        return losers_dir
    slim_dir = os.path.join(work_dir, "dedup_slim")
    winners_dir = os.path.join(work_dir, "dedup_winners")
    os.makedirs(slim_dir, exist_ok=True)
    os.makedirs(losers_dir, exist_ok=True)
    os.makedirs(winners_dir, exist_ok=True)
    multi_range = len(ranges) > 1

    gather_tasks(submit_tasks(_slim_bucketed_write, fragments, slim_dir, buckets),
                 secs)

    def losers_of_bucket_range(item: dict) -> int:
        """Rows read by one (bucket, range) sub-task."""
        b, rid = item["bucket"], item["range_id"]
        lo, hi = ranges[rid]
        t = pa.Table.from_batches([
            read_bucket_batch(_slim_path(slim_dir, int(fr["fragment_id"])),
                              b, ["uh", "url", "warc_ts_us", "doc_id"])
            for fr in fragments[lo:hi]])
        if t.num_rows == 0:
            return 0
        losers = _last_write_wins_losers(t)
        if losers.size:
            atomic_write_table(
                pa.table({"doc_id": pa.array(losers, pa.int64())}),
                os.path.join(losers_dir, f"bucket-{b:05d}-range-{rid:04d}.parquet"))
        if multi_range:
            ids = t["doc_id"].to_numpy()
            win_mask = np.ones(len(ids), dtype=bool)
            if losers.size:
                pos = np.searchsorted(losers, ids)
                pos[pos >= losers.size] = losers.size - 1
                win_mask = losers[pos] != ids
            atomic_write_table(
                t.filter(pa.array(win_mask)),
                os.path.join(winners_dir, f"bucket-{b:05d}-range-{rid:04d}.parquet"))
        return t.num_rows

    items = [{"bucket": b, "range_id": r}
             for b in range(buckets) for r in range(len(ranges))]
    rows_read = gather_tasks(submit_tasks(losers_of_bucket_range, items), secs)

    if multi_range:
        def combine_bucket(item: dict) -> None:
            b = item["bucket"]
            tabs = [pq.read_table(os.path.join(winners_dir, f))
                    for f in sorted(os.listdir(winners_dir))
                    if f.startswith(f"bucket-{b:05d}-")]
            if not tabs:
                return
            losers = _last_write_wins_losers(pa.concat_tables(tabs))
            if losers.size:
                atomic_write_table(
                    pa.table({"doc_id": pa.array(losers, pa.int64())}),
                    os.path.join(losers_dir, f"bucket-{b:05d}-final.parquet"))

        gather_tasks(submit_tasks(combine_bucket,
                                  [{"bucket": b} for b in range(buckets)]), secs)

    atomic_write_json(
        {"buckets": buckets, "ranges": len(ranges), "total_rows": total_rows,
         "max_task_rows": max(rows_read, default=0)},
        os.path.join(losers_dir, "dedup_meta.json"))
    with open(done, "w") as f:
        f.write("ok")
    return losers_dir


def _last_write_wins_losers(t: pa.Table) -> np.ndarray:
    """Doc ids losing the last-write-wins upsert within one url-hash bucket.

    Numeric (url-hash, ts, id) sort + vectorized Arrow string equality
    between neighbors — no url object array, no object lexsort (the r1
    hot spot of this wave). Hash collisions could interleave two urls
    inside one hash run; those runs (neighbors with equal hash but
    unequal url) are re-resolved with the exact object path (negligible
    at 64-bit, but correctness never rests on the hash)."""
    uh = t["uh"].to_numpy()
    ts = t["warc_ts_us"].to_numpy()
    ids = t["doc_id"].to_numpy()
    order = np.lexsort((ids, ts, uh))
    uh_s, ids_s, ts_s = uh[order], ids[order], ts[order]
    urls_s = t["url"].combine_chunks().take(pa.array(order))
    n = len(ids_s)
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    same_uh = uh_s[1:] == uh_s[:-1]
    eq_url = pc.equal(urls_s.slice(1), urls_s.slice(0, n - 1)) \
        .to_numpy(zero_copy_only=False)
    fast_is_last = np.concatenate([~(same_uh & eq_url), [True]])
    collision = same_uh & ~eq_url
    if not collision.any():
        return np.sort(ids_s[~fast_is_last])
    # whole hash runs containing a collision go through the exact object
    # path; rows outside them keep the fast logic (bad runs cover entire
    # hashes, so good/bad neighbors always differ in uh)
    bad = np.isin(uh_s, np.unique(uh_s[:-1][collision]))
    losers_good = ids_s[~fast_is_last & ~bad]
    sub = np.flatnonzero(bad)
    u_obj = np.asarray(urls_s.take(pa.array(sub)).to_pylist(), dtype=object)
    o2 = np.lexsort((ids_s[sub], ts_s[sub], u_obj))
    u2, i2 = u_obj[o2], ids_s[sub][o2]
    last2 = np.concatenate([u2[1:] != u2[:-1], [True]])
    return np.sort(np.concatenate([losers_good, i2[~last2]]))


def _read_losers_in_range(losers_dir: str | None, lo: int, hi: int) -> np.ndarray:
    if not losers_dir or not os.path.isdir(losers_dir):
        return np.zeros(0, dtype=np.int64)
    flt = [("doc_id", ">=", lo), ("doc_id", "<", hi)]
    tabs = []
    for f in os.listdir(losers_dir):
        if f.endswith(".parquet"):
            tabs.append(pq.read_table(os.path.join(losers_dir, f), filters=flt))
    if not tabs:
        return np.zeros(0, dtype=np.int64)
    out = pa.concat_tables(tabs)
    return np.sort(out["doc_id"].to_numpy()) if out.num_rows else np.zeros(0, dtype=np.int64)


# ------------------------------------------------------------------ phase A
class FragmentTokenizer:
    """Tokenize stage: one __call__ processes one fragment descriptor and
    returns its lineage row; it runs in a plain Ray task, one per fragment.

    Reference analog T1: heavyweight per-worker state (RDKit native-lib
    activation, ``bin/RDKit.activate:114-189``); here the state is light
    (the build's options and analyzer config, stored as attributes), so
    the build puts one instance in the object store and every task reads
    it — nothing is cached per worker process across builds.
    Per-record error tolerance mirrors M12 (``ChemicalIndex.java:280-292``):
    extraction mismatches are counted per fragment, not fatal.
    """

    def __init__(self, work_dir: str, fwd_dir: str, cfg: IndexConfig,
                 losers_dir: str | None, use_html: bool, text_column: str,
                 url_column: str | None, ts_column: str | None,
                 lang_column: str | None, id_column: str | None,
                 verify_extraction: bool, max_extract_errors: int | None = 100):
        self.work_dir = work_dir
        self.fwd_dir = fwd_dir
        self.cfg = cfg
        self.analyzer = cfg.index_analyzer
        self.losers_dir = losers_dir
        self.use_html = use_html
        self.text_column = text_column
        self.url_column = url_column
        self.ts_column = ts_column
        self.lang_column = lang_column
        self.id_column = id_column
        self.verify_extraction = verify_extraction
        # M12 analog (ChemicalIndex.java:280-292 / :236-237): tolerate
        # per-record errors, abort the job past a threshold
        self.max_extract_errors = max_extract_errors

    def _columns(self) -> list[str]:
        cols = []
        if self.use_html:
            cols.append("html")
        if not self.use_html or self.verify_extraction:
            cols.append(self.text_column)
        for c in (self.url_column, self.ts_column, self.lang_column, self.id_column):
            if c:
                cols.append(c)
        cols.extend(self.cfg.field_columns)
        return list(dict.fromkeys(cols))

    def _field_postings(self, t: pa.Table, doc_ids: np.ndarray,
                        dl: pa.Array) -> pa.Table | None:
        """J5 fielded terms: ``col:value`` postings per metadata column
        (dl = the doc's TEXT length so fielded clauses score with the same
        normalization — Lucene analog: per-field terms, shared doc).

        Scalar columns emit one posting per doc (tf=1). LIST-typed columns
        are MULTI-VALUED fields (the reference's ``name`` synonym field,
        ``ChemicalIndex.java:828-833``, searched at ``:538-554``): one
        ``col:value`` term per element, tf = the value's multiplicity in
        the list (Lucene multi-valued tf semantics)."""
        if not self.cfg.field_columns:
            return None
        parts = []
        dl_np = np.asarray(dl)
        for col in self.cfg.field_columns:
            arr = t[col].combine_chunks()
            if pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type):
                flat = pc.utf8_lower(pc.cast(arr.values, pa.string()))
                parents = pc.list_parent_indices(arr).to_numpy(zero_copy_only=False)
                terms = pc.binary_join_element_wise(
                    pa.array([col] * len(flat)), flat, ":")
                pairs = pa.table({
                    "term": terms,
                    "doc_id": pa.array(doc_ids[parents], pa.int64()),
                    "dl": pa.array(dl_np[parents], pa.int32()),
                })
                # group_by's output order is unspecified; the spill and the
                # encode need each term's rows in doc order
                g = pairs.group_by(["doc_id", "term", "dl"]).aggregate(
                    [("term", "count")]).sort_by([("term", "ascending"),
                                                  ("doc_id", "ascending")])
                parts.append(pa.table({
                    "term": g["term"],
                    "doc_id": pc.cast(g["doc_id"], pa.int64()),
                    "tf": pc.cast(g["term_count"], pa.int32()),
                    "dl": g["dl"],
                }))
            else:
                vals = pc.utf8_lower(pc.cast(arr, pa.string()))
                terms = pc.binary_join_element_wise(
                    pa.array([col] * len(doc_ids)), vals, ":")
                # join produces "col" + ":" + value via separator-last
                # semantics: binary_join_element_wise(a, b, sep) = a sep b
                parts.append(pa.table({
                    "term": terms,
                    "doc_id": pa.array(doc_ids, pa.int64()),
                    "tf": pa.array(np.ones(len(doc_ids), np.int32)),
                    "dl": dl,
                }))
        return pa.concat_tables(parts)

    def __call__(self, frag: dict) -> dict:
        fid, path, base, rows = (
            int(frag["fragment_id"]), frag["path"], int(frag["base"]), int(frag["rows"])
        )
        existing = ckpt.load_fragment_manifest(self.work_dir, fid)
        if existing is not None:
            existing["resumed_skip"] = True
            return existing
        # fresh processing below; marked in the lineage row

        sw = ckpt.Stopwatch()
        losers = _read_losers_in_range(self.losers_dir, base, base + rows)
        pf = pq.ParquetFile(path)
        post_parts, fwd_parts = [], []
        offset = 0
        mismatches = 0
        for rg in range(pf.num_row_groups):
            t = pf.read_row_group(rg, columns=self._columns())
            n = t.num_rows
            if self.id_column:
                doc_ids = t[self.id_column].to_numpy().astype(np.int64)
                # CONSTRAINT: id_column is an assertion of positional
                # identity, not a free mapping. Segment routing (Phase B) and
                # dedup-loser ids are derived from the fragment's positional
                # range [base, base+rows); out-of-position ids would be
                # silently dropped from the index, so fail loudly instead.
                expect = base + offset + np.arange(n, dtype=np.int64)
                if not np.array_equal(doc_ids, expect):
                    bad = int(np.flatnonzero(doc_ids != expect)[0])
                    raise ValueError(
                        f"fragment {fid} ({path}) row-group {rg}: id_column "
                        f"'{self.id_column}' must equal the positional doc id "
                        f"(fragment base + row offset); row {bad} has "
                        f"{int(doc_ids[bad])}, expected {int(expect[bad])}. "
                        "Drop id_column to use positional ids, or renumber "
                        "the input so ids are the global row index.")
            else:
                doc_ids = base + offset + np.arange(n, dtype=np.int64)
            offset += n
            if self.use_html:
                text = extract_text(t["html"].combine_chunks())
                if self.verify_extraction and self.text_column in t.column_names:
                    golden = t[self.text_column].combine_chunks()
                    mismatches += int(
                        pc.sum(pc.cast(pc.not_equal(text, golden), pa.int64())).as_py() or 0
                    )
            else:
                text = t[self.text_column].combine_chunks()
            if losers.size:
                keep = ~np.isin(doc_ids, losers, assume_unique=False)
                if not keep.all():
                    idx = np.flatnonzero(keep)
                    doc_ids = doc_ids[idx]
                    text = text.take(pa.array(idx))
                    t = t.take(pa.array(idx))
            postings, doclens = postings_from_batch(
                doc_ids, text, self.analyzer,
                positions=self.cfg.store_positions)
            post_parts.append(postings)
            fielded = self._field_postings(t, doc_ids, doclens["dl"].combine_chunks())
            if fielded is not None:
                if self.cfg.store_positions:
                    # fielded "col:value" terms carry NO positions (they are
                    # whole-value terms, not text tokens) — null sidecar rows
                    fielded = fielded.append_column(
                        "pos_bytes", pa.nulls(fielded.num_rows, pa.binary()))
                post_parts.append(fielded)
            fwd_cols = {"doc_id": pa.array(doc_ids, pa.int64()), "dl": doclens["dl"]}
            if self.url_column:
                fwd_cols["url"] = t[self.url_column].combine_chunks()
            else:
                fwd_cols["url"] = pc.binary_join_element_wise(
                    pa.array(["doc://"] * len(doc_ids)),
                    pc.cast(pa.array(doc_ids), pa.string()), "")
            if self.ts_column:
                fwd_cols["warc_ts"] = t[self.ts_column].combine_chunks()
            if self.lang_column:
                fwd_cols["lang"] = t[self.lang_column].combine_chunks()
            fwd_parts.append(pa.table(fwd_cols))

        if (self.max_extract_errors is not None
                and mismatches > self.max_extract_errors):
            raise RuntimeError(
                f"fragment {fid} ({path}): {mismatches} extraction mismatches "
                f"exceed max_extract_errors={self.max_extract_errors} — input "
                "corpus and extractor disagree (M12 abort-threshold analog)")
        postings_tbl = pa.concat_tables(post_parts) if post_parts else None
        fwd_tbl = pa.concat_tables(fwd_parts)
        spill_bytes, spill_s = 0, 0.0
        if postings_tbl is not None and postings_tbl.num_rows:
            t_spill = time.perf_counter()
            spill_bytes = _write_bucketed_postings(
                postings_tbl, spill_path(self.work_dir, fid), self.cfg.term_buckets)
            spill_s = time.perf_counter() - t_spill
        # url bloom in the fragment footer -> lookup_pk opens O(1) files
        # instead of every fwd fragment (J1 at web scale, state/bloom.py)
        from org_rdkit_lucene_ray.state.bloom import attach_url_bloom

        nbytes = spill_bytes + atomic_write_table(
            attach_url_bloom(fwd_tbl),
            os.path.join(self.fwd_dir, f"frag-{fid:06d}.parquet"))
        row = {
            "input_fragment": path,
            "base": base,
            "input_rows": rows,
            "docs": int(fwd_tbl.num_rows),
            "postings": int(postings_tbl.num_rows if postings_tbl is not None else 0),
            "sum_dl": int(pc.sum(fwd_tbl["dl"]).as_py() or 0),
            "dedup_dropped": int(rows - fwd_tbl.num_rows),
            "extract_mismatches": mismatches,
            "bytes": int(nbytes),
            "spill_bytes": int(spill_bytes),
            "spill_s": spill_s,
            "seconds": sw.secs(),
            "resumed_skip": False,
        }
        return ckpt.commit_fragment_manifest(self.work_dir, fid, row)


def _write_bucketed_postings(postings: pa.Table, path: str, buckets: int) -> int:
    """Spill a fragment's postings with ONE RECORD BATCH PER TERM BUCKET
    (:func:`write_bucket_batches`) — the write side of the
    storage-partitioned exchange that replaces the groupby-term shuffle
    (an encode task memory-maps batch *b* of each overlapping fragment).
    Atomic: temp + rename; returns the file's size in bytes.

    Within a bucket, rows are in ``(term, doc_id)`` order, provided each
    term's rows arrive in doc order — as they do from the tokenizer, whose
    parts (one :func:`postings_from_batch` per row group, then the fielded
    terms) follow the fragment's doc order. Those parts are term-sorted,
    so the work is per run of equal terms: each run's term is hashed once,
    the runs take a stable sort by ``(bucket, term)``, and the rows are
    gathered run by run — no per-row hash and no per-row sort."""
    term = postings["term"].combine_chunks()
    n = len(term)
    new_run = pc.not_equal(term[1:], term[:-1]).to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.concatenate([[n > 0], new_run]))
    lens = np.diff(np.append(starts, n))
    run_terms = term.take(pa.array(starts))
    bucket = (stable_term_hash(run_terms) % buckets).astype(np.int32)
    by_term = pc.sort_indices(run_terms).to_numpy()      # stable: ties keep doc order
    runs = by_term[np.argsort(bucket[by_term], kind="stable")]
    run_lens = lens[runs]
    order = np.arange(n) + np.repeat(starts[runs] - (np.cumsum(run_lens) - run_lens),
                                     run_lens)
    return write_bucket_batches(postings.take(pa.array(order)),
                                np.repeat(bucket[runs], run_lens), buckets, path)


# ------------------------------------------------------------------ phase B
def _binary_from_offsets(buf: bytes | np.ndarray, offsets: np.ndarray,
                         valid: np.ndarray | None = None) -> pa.Array:
    """Zero-copy binary array: value i = buf[offsets[i]:offsets[i+1]], null
    where the bool mask ``valid`` is False."""
    bitmap = None if valid is None else \
        pa.py_buffer(np.packbits(valid, bitorder="little"))
    return pa.Array.from_buffers(
        pa.binary(), len(offsets) - 1,
        [bitmap, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(buf)])


def encode_chunk_table(postings: pa.Table,
                       path: str) -> tuple[dict, pa.Table]:
    """Encode one (segment, bucket) postings slice into its chunk file: sort
    it to (term, doc_id) order, find the term runs, then
    :func:`write_chunk`. Returns what that returns.

    Each fragment's rows are (term, doc_id)-sorted and the fragments come
    in ascending doc order, so a STABLE sort on the term alone gives that
    order (``encode_posting_block`` raises if it does not). The sort key is
    each row's rank in the sorted term dictionary, so no string column is
    sorted or gathered row by row."""
    td = pc.dictionary_encode(one_array(postings["term"]))
    by_term = pc.sort_indices(td.dictionary).to_numpy()
    rank = np.empty(by_term.size, np.int64)
    rank[by_term] = np.arange(by_term.size)
    key = rank[td.indices.to_numpy(zero_copy_only=False)]
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    pos = None
    if "pos_bytes" in postings.column_names:
        pos = binary_views(postings["pos_bytes"].take(pa.array(order)))
    docs, tfs, dls = (postings[c].to_numpy()[order] for c in ("doc_id", "tf", "dl"))
    return write_chunk(td.dictionary.take(pa.array(by_term)), docs, tfs, dls,
                       starts, pos, path)


def write_chunk(terms: pa.Array, docs: np.ndarray, tfs: np.ndarray,
                dls: np.ndarray, term_starts: np.ndarray,
                pos: tuple[np.ndarray, np.ndarray] | None,
                path: str) -> tuple[dict, pa.Table]:
    """The one chunk assembly of build and merge: encode the flat
    (term, doc_id)-sorted postings, term *i*'s run starting at
    ``term_starts[i]``, in one vectorized pass (``encode_posting_block``),
    fold the optional per-posting position runs into per-term streams, and
    write the chunk atomically. Returns its stats and its
    ``(term, df_chunk)`` columns. Chunk files are sorted by term ->
    row-group stats allow term pruning (parquet); ipc chunks are mmap'd
    whole, pruning happens at the bucket.

    ``pos = (offsets, data)``: posting *i*'s self-contained delta+varint
    position run is ``data[offsets[i]:offsets[i + 1]]``, so a term's stream
    is the byte concatenation of its postings' runs — per-term offsets into
    the SAME buffer, no bytes moved. A term whose postings hold no bytes
    (fielded ``col:value`` terms carry no positions) gets a NULL stream;
    text and fielded terms never mix under one term (fielded terms contain
    ``:``, analyzer tokens cannot)."""
    enc = encode_posting_block(docs, tfs, dls, term_starts)
    cols = {
        "term": terms,
        "df_chunk": pa.array(enc["df_chunk"], pa.int32()),
        "doc_bytes": _binary_from_offsets(enc["doc_buf"], enc["doc_off"]),
        "tf_bytes": _binary_from_offsets(enc["tf_buf"], enc["tf_off"]),
        "dl_bytes": _binary_from_offsets(enc["dl_buf"], enc["dl_off"]),
    }
    schema = SEGMENT_SCHEMA
    if pos is not None:
        offs, data = pos
        term_offs = offs[np.append(term_starts, offs.size - 1)]
        cols["pos_bytes"] = _binary_from_offsets(data, term_offs,
                                                 np.diff(term_offs) > 0)
        schema = SEGMENT_SCHEMA_POS
    chunk = pa.table(cols).cast(schema)
    nbytes = atomic_write_table(chunk, path, row_group_size=8192)
    return ({"terms": chunk.num_rows, "postings": int(np.sum(enc["df_chunk"])),
             "bytes_compressed": int(nbytes)}, chunk.select(_DF_COLUMNS))


_DF_COLUMNS = ["term", "df_chunk"]


def df_table_path(gdir: str, bucket: int) -> str:
    return os.path.join(gdir, "df", f"bucket-{bucket:05d}.parquet")


def _chunk_row(sid: int, bucket: int, path: str, t: pa.Table) -> dict:
    """Stats row of an already-written chunk (``t`` holds its df_chunk)."""
    return {"segment_id": sid, "bucket": bucket, "terms": t.num_rows,
            "postings": int(pc.sum(t["df_chunk"]).as_py() or 0),
            "bytes_compressed": os.path.getsize(path)}


def write_bucket_df(parts: list[pa.Table], gdir: str, bucket: int) -> int:
    """Write one bucket's global (term, df) file (A4) from its chunks'
    ``(term, df_chunk)`` columns, given in ascending segment order, and
    return its term count (no file for a bucket without chunks). A
    term lives in exactly one bucket, so its df is a per-bucket sum — no
    shuffle, and no pass re-reads the chunk files."""
    if not parts:
        return 0
    g = pa.concat_tables(parts).group_by("term").aggregate([("df_chunk", "sum")])
    out = pa.table({"term": g["term"],
                    "df": pc.cast(g["df_chunk_sum"], pa.int64())})
    atomic_write_table(out, df_table_path(gdir, bucket))
    return out.num_rows


def _pin_arrow_threads() -> None:
    """One Arrow thread per Ray worker: each worker process otherwise sizes
    Arrow's internal pool to ALL cores, so 32 workers x 32 threads thrash
    (tokenize stage measured at ~30% CPU utilization before this)."""
    try:
        if pa.cpu_count() != 1:
            pa.set_cpu_count(1)
            pa.set_io_thread_count(2)
    except Exception:
        pass


@ray.remote(num_cpus=1)
def _timed_task(fn, item: dict, *args):
    _pin_arrow_threads()
    t = time.perf_counter()
    out = fn(item, *args)
    return out, time.perf_counter() - t


def submit_tasks(fn, items: list[dict], *args) -> list:
    """One plain Ray task per descriptor, ``fn(item, *args)``, on one CPU
    each — every fan-out of the build and merge, whose data moves through
    files. ``fn`` is put in the object store once per fan-out, not pickled
    per task; an ObjectRef in ``args`` reaches ``fn`` as its value. Tasks
    write atomically, so Ray's retries after a worker dies are safe. An
    empty ``items`` submits nothing. Returns refs for :func:`gather_tasks`."""
    if not items:
        return []
    fn_ref = ray.put(fn)
    return [_timed_task.remote(fn_ref, item, *args) for item in items]


def gather_tasks(refs: list, secs: list[float]) -> list:
    """Wait for :func:`submit_tasks`' tasks; return their results in item
    order and append each task body's seconds, timed inside the worker, to
    ``secs``. A task's exception is raised here as its own type: Ray's
    ``RayTaskError(ValueError)`` is a ``ValueError``."""
    done = ray.get(refs)
    secs.extend(s for _, s in done)
    return [out for out, _ in done]


def task_stats(secs: list[float]) -> dict:
    """A phase's entry in a manifest's ``tasks`` block. The phase's wall
    time minus ``body_s_sum`` (at one CPU) is its dispatch overhead, and
    ``body_s_max`` against ``body_s_p50`` shows its skew."""
    return {"n": len(secs), "body_s_sum": float(sum(secs)),
            "body_s_p50": float(np.median(secs)) if secs else 0.0,
            "body_s_max": max(secs, default=0.0)}


def run_bucket_tasks(gdir: str, chunk_format: str,
                     sids_of: dict[int, list[int]], make_chunk,
                     secs: list[float], *args) -> tuple[list[dict], int]:
    """One Ray task per term bucket writes that bucket's chunks and then its
    df file — the shared Phase-B shape of build and merge.

    ``sids_of[bucket]`` lists the bucket's segment ids in ascending order.
    For each, an existing chunk is read back (resume); otherwise
    ``make_chunk(sid, bucket, path, *args)`` writes it and returns what
    :func:`write_chunk` returns, or None when the slice is empty. The
    collected ``(term, df_chunk)`` columns then give the bucket's df file
    (:func:`write_bucket_df`). A bucket whose chunks and df file all exist
    is skipped; the task bodies' seconds go to ``secs``. Returns (one
    stats row per chunk in (segment, bucket) order, global term count)."""
    def chunk_path(sid: int, bucket: int) -> str:
        return segment_chunk_path(gdir, sid, bucket, chunk_format)

    def bucket_task(item: dict, *args) -> tuple[list[dict], int]:
        b = item["bucket"]
        out, parts = [], []
        for sid in sids_of[b]:
            path = chunk_path(sid, b)
            if os.path.exists(path):                 # resumed run
                t = read_chunk_table(path, columns=_DF_COLUMNS)
                out.append(_chunk_row(sid, b, path, t))
            else:
                got = make_chunk(sid, b, path, *args)
                if got is None:
                    continue
                out.append({"segment_id": sid, "bucket": b, **got[0]})
                t = got[1]
            parts.append(t)
        return out, write_bucket_df(parts, gdir, b)

    complete = {b for b, sids in sids_of.items()
                if os.path.exists(df_table_path(gdir, b))
                and all(os.path.exists(chunk_path(sid, b)) for sid in sids)}
    rows = [_chunk_row(sid, b, chunk_path(sid, b),
                       read_chunk_table(chunk_path(sid, b), columns=["df_chunk"]))
            for b in sorted(complete) for sid in sids_of[b]]
    n_terms = sum(pq.read_metadata(df_table_path(gdir, b)).num_rows
                  for b in complete)
    todo = [{"bucket": b} for b in sorted(sids_of) if b not in complete]
    for task_rows, task_terms in gather_tasks(
            submit_tasks(bucket_task, todo, *args), secs):
        rows += task_rows
        n_terms += task_terms
    return sorted(rows, key=lambda r: (r["segment_id"], r["bucket"])), n_terms


def segment_spills(work_dir: str,
                   docs_per_segment: int) -> dict[int, list[tuple[str, bool]]]:
    """Segment id -> ``(spill file, straddles)`` for each committed fragment
    whose doc range overlaps the segment's; ``straddles`` is True when the
    fragment spans more than one segment, so its rows must be cut to the
    segment's range.

    A committed fragment with postings but no spill file raises (a lost
    file, or a work dir written by an older spill format): leaving it out
    would silently drop its documents from the index."""
    D = docs_per_segment
    out: dict[int, list[tuple[str, bool]]] = {}
    for m in ckpt.list_fragment_manifests(work_dir):
        if not int(m["postings"]):
            continue          # fragment produced no postings, spilled nothing
        fid = int(m["fragment_id"])
        path = spill_path(work_dir, fid)
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"fragment {fid} ({m['input_fragment']}) is committed with "
                f"{m['postings']} postings but its spill file {path} is missing "
                "(lost, or left by a build with another spill format); delete "
                f"{ckpt.fragment_manifest_path(work_dir, fid)} to re-tokenize "
                f"that fragment, or delete the work dir {work_dir} to rebuild")
        base, rows = int(m["base"]), int(m["input_rows"])
        first, last = base // D, (base + rows - 1) // D
        for sid in range(first, last + 1):
            out.setdefault(sid, []).append((path, first != last))
    return out


def read_segment_slice(spills: list[tuple[str, bool]], bucket: int,
                       lo: int, hi: int, columns: list[str]) -> pa.Table:
    """One ``(segment, bucket)`` slice: batch ``bucket`` of each of the
    segment's spill files (:func:`segment_spills`), memory-mapped; a
    straddling fragment's batch is cut to doc ids ``[lo, hi)`` with a numpy
    mask. Rows keep the spill's per-fragment ``(term, doc_id)`` order."""
    parts = []
    for path, straddles in spills:
        rb = read_bucket_batch(path, bucket, columns)
        if straddles:
            d = rb.column("doc_id").to_numpy()
            rb = rb.filter(pa.array((d >= lo) & (d < hi)))
        parts.append(rb)
    return pa.Table.from_batches(parts)


def encode_segments(work_dir: str, gdir: str, cfg: IndexConfig,
                    secs: list[float]) -> tuple[list[dict], int]:
    """Phase B driver — storage-partitioned exchange, NO Ray groupby.

    Tokenize spilled each fragment's postings as one record batch per term
    bucket; fragments own contiguous doc-id ranges, so ``(segment, bucket)``
    -> batch *bucket* of the few fragment files overlapping that segment's
    doc range (:func:`read_segment_slice`: memory-mapped, nothing decoded).
    The "shuffle" is the deterministic file layout, which (a) removes the
    all-to-all sort the groupby did (53s of a 70s sf-scaling build), and
    (b) makes resume = skip existing chunk files, no recompute. Skew: a
    head term's postings are still split by doc range exactly as before
    (segment = docID-range salt, SURVEY §7.1(6)).

    Bucket-major (:func:`run_bucket_tasks`): one task per term bucket
    encodes the bucket's slices in ascending segment order, one slice in
    memory at a time, then writes the bucket's df file.

    Returns (one stats row per chunk, global term count)."""
    D = cfg.docs_per_segment
    seg_files = segment_spills(work_dir, D)
    sids = sorted(seg_files)

    read_cols = ["term", "doc_id", "tf", "dl"]
    if cfg.store_positions:
        read_cols.append("pos_bytes")

    def encode_slice(sid: int, b: int, path: str):
        t = read_segment_slice(seg_files[sid], b, sid * D, (sid + 1) * D,
                               read_cols)
        if t.num_rows == 0:
            return None
        return encode_chunk_table(t, path)

    return run_bucket_tasks(gdir, cfg.chunk_format,
                            {b: sids for b in range(cfg.term_buckets)},
                            encode_slice, secs)


# -------------------------------------------------------------------- driver
def build_index(
    input_paths: str | list[str],
    index_dir: str,
    *,
    cfg: IndexConfig | None = None,
    work_dir: str | None = None,
    use_html: bool | None = None,
    text_column: str = "text",
    url_column: str | None = "url",
    ts_column: str | None = "warc_ts",
    lang_column: str | None = "lang",
    id_column: str | None = None,
    dedup: bool = True,
    verify_extraction: bool = True,
    doc_id_base: int = 0,
    max_extract_errors: int | None = 100,
) -> dict:
    """End-to-end build. Idempotent/resumable: re-running after a crash skips
    committed fragments (Phase A), committed chunk files and fully written
    buckets (Phase B)."""
    cfg = cfg or IndexConfig()
    work_dir = work_dir or os.path.join(index_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    # pin the target generation so resumes land in the same directory
    build_cfg_path = os.path.join(work_dir, "build_config.json")
    if os.path.exists(build_cfg_path):
        import json
        with open(build_cfg_path) as f:
            target_gen = json.load(f)["target_gen"]
    else:
        target_gen = gen_name(0)
        atomic_write_json({"target_gen": target_gen, "config": cfg.manifest_dict()}, build_cfg_path)
    gdir = os.path.join(index_dir, target_gen)
    fwd_dir = os.path.join(gdir, "fwd")
    os.makedirs(fwd_dir, exist_ok=True)

    t0 = time.perf_counter()
    fragments = plan_fragments(input_paths, doc_id_base=doc_id_base)
    if use_html is None:
        use_html = "html" in pq.read_schema(fragments[0]["path"]).names

    secs: dict[str, list[float]] = {"dedup": [], "tokenize": [],
                                    "encode_shuffle": []}
    losers_dir = compute_dup_losers(fragments, work_dir, cfg=cfg,
                                    task_secs=secs["dedup"]) if dedup else None
    t_dedup = time.perf_counter()

    tokenize = FragmentTokenizer(
        work_dir=work_dir, fwd_dir=fwd_dir, cfg=cfg, losers_dir=losers_dir,
        use_html=use_html, text_column=text_column, url_column=url_column,
        ts_column=ts_column, lang_column=lang_column, id_column=id_column,
        verify_extraction=verify_extraction, max_extract_errors=max_extract_errors,
    )
    frag_rows = gather_tasks(submit_tasks(tokenize, fragments), secs["tokenize"])
    t_tokenize = time.perf_counter()

    n_docs = sum(r["docs"] for r in frag_rows)
    sum_dl = sum(r["sum_dl"] for r in frag_rows)
    n_postings = sum(r["postings"] for r in frag_rows)

    chunk_rows, n_terms_global = encode_segments(work_dir, gdir, cfg,
                                                 secs["encode_shuffle"])
    t_encode = time.perf_counter()

    manifest = {
        "generation": target_gen,
        "config": cfg.manifest_dict(),
        "stats": {
            "n_docs": n_docs,
            "sum_dl": sum_dl,
            "avgdl": (sum_dl / n_docs) if n_docs else 0.0,
            "n_postings": n_postings,
            "n_terms": n_terms_global,
            "n_fragments": len(fragments),
            "n_segments": len({r["segment_id"] for r in chunk_rows}),
            "bytes_compressed": sum(r["bytes_compressed"] for r in chunk_rows),
            "dedup_dropped": sum(r["dedup_dropped"] for r in frag_rows),
            "extract_mismatches": sum(r["extract_mismatches"] for r in frag_rows),
        },
        "timings_sec": {
            "dedup": t_dedup - t0,
            "tokenize": t_tokenize - t_dedup,
            # the encode tasks also write df, so its time is in encode_shuffle
            "encode_shuffle": t_encode - t_tokenize,
            "df_table": 0.0,
            "total": t_encode - t0,
        },
        # per phase: each wave's task bodies, timed inside the workers
        "tasks": {phase: task_stats(v) for phase, v in secs.items()},
        "fragments": frag_rows,
        "chunks": chunk_rows,
    }
    atomic_write_json(manifest, os.path.join(gdir, "manifest.json"))
    set_current_generation(index_dir, target_gen)
    return manifest
