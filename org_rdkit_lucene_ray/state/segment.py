"""Segment + generation layout on disk.

The explicit rebuild of Lucene's ``Directory``/segment black box
(``ChemicalIndex.java:864-904``, SURVEY §1.4). Layout::

    index_dir/
      CURRENT                      # name of the live generation ("gen-000000")
      gen-000000/
        manifest.json              # global stats + config + lineage
        segments/seg=SID/bucket-BBBBB.parquet   # encoded posting-list chunks
        fwd/frag=PID.parquet       # forward index (doc_id,url,warc_ts,lang,dl)
        df/part-*.parquet          # global (term, df) table
      gen-000001/ ...              # produced by merges (log-structured)

Immutable segments + an atomically swapped CURRENT pointer give
readers/writers isolation without the reference's writer<->searcher locks
(``ChemicalIndex.java:129-131``). A segment chunk file is one
``(segment_id, term_bucket)`` groupby output, written temp-then-rename, so a
crashed encode pass resumes by skipping buckets that already exist
(SURVEY §7.4(7) resumable-output requirement).

Segment table schema (one row = one term's posting-list chunk within one
doc-id-range segment)::

    term:string, df_chunk:int32, doc_bytes:binary, tf_bytes:binary,
    dl_bytes:binary

It stores only what a query reads. Block-max bounds are not stored: the
searcher derives them from each term's live weights. Chunks from earlier
writers, which carry three more (block-max) list columns after these, still
open: readers address columns by name and never touch the extra ones.

The read side lives here too: :class:`_ChunkIndex` is the one view of a
chunk table and :func:`decode_postings` the one decoder of its posting
streams, for the Searcher and merge alike (the write side is
``pipelines/build.py`` ``write_chunk``).
"""

from __future__ import annotations

import json
import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from org_rdkit_lucene_ray.functions.codec import segmented_cumsum, varint_decode

SEGMENT_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("df_chunk", pa.int32()),
    ("doc_bytes", pa.binary()),
    ("tf_bytes", pa.binary()),
    ("dl_bytes", pa.binary()),
])

# positional layout (IndexConfig.store_positions): one extra nullable
# stream column — per-term concatenation of per-posting delta+varint token
# positions (run i's length = posting i's tf; functions/codec.py). Readers
# branch on column presence, so both layouts share FORMAT_VERSION.
SEGMENT_SCHEMA_POS = SEGMENT_SCHEMA.append(pa.field("pos_bytes", pa.binary()))


def atomic_write_table(table: pa.Table, path: str, **pq_kw) -> int:
    """Write a Parquet file — or, for an ``.arrow`` chunk path, an
    uncompressed Arrow IPC file, which the read side maps zero-copy —
    atomically (temp in same dir + rename); returns its size in bytes.

    Rename within one directory is atomic on POSIX; on object stores the
    equivalent is a conditional put — the commit point is identical."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{uuid.uuid4().hex}")
    if path.endswith(".arrow"):
        with pa.OSFile(tmp, "wb") as f, pa.ipc.new_file(f, table.schema) as w:
            w.write_table(table)
    else:
        pq.write_table(table, tmp, **pq_kw)
    size = os.path.getsize(tmp)
    os.replace(tmp, path)
    return size


def atomic_write_json(obj: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{uuid.uuid4().hex}")
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True,
                  default=lambda o: o.item() if hasattr(o, "item") else str(o))
    os.replace(tmp, path)


# ----------------------------------------------------------------- generation
def gen_name(i: int) -> str:
    return f"gen-{i:06d}"


def current_generation(index_dir: str) -> str | None:
    cur = os.path.join(index_dir, "CURRENT")
    if not os.path.exists(cur):
        return None
    with open(cur) as f:
        return f.read().strip()


def set_current_generation(index_dir: str, gen: str) -> None:
    """Atomic generation pointer swap (Lucene commit-point analog)."""
    os.makedirs(index_dir, exist_ok=True)
    tmp = os.path.join(index_dir, f".tmp-{uuid.uuid4().hex}")
    with open(tmp, "w") as f:
        f.write(gen)
    os.replace(tmp, os.path.join(index_dir, "CURRENT"))


def gen_dir(index_dir: str, gen: str | None = None) -> str:
    gen = gen or current_generation(index_dir)
    if gen is None:
        raise FileNotFoundError(f"no CURRENT generation in {index_dir}")
    return os.path.join(index_dir, gen)


def read_manifest(index_dir: str, gen: str | None = None) -> dict:
    with open(os.path.join(gen_dir(index_dir, gen), "manifest.json")) as f:
        return json.load(f)


def check_format(manifest: dict) -> None:
    """Refuse index generations written under a different on-disk format or
    term-bucket hash function.

    The searcher probes ONLY ``stable_term_hash(term) % term_buckets``
    (pipelines/query.py ``_term_bucket``); a generation whose buckets were
    assigned by a different hash (e.g. the pre-r2 siphash) opens without
    error but silently misses every term, and ``add_documents`` on it would
    mix two hash schemes across generations. Lucene gets the equivalent
    guard from its codec version on segment open."""
    from org_rdkit_lucene_ray.config import FORMAT_VERSION, TERM_HASH_FN

    c = manifest.get("config", {})
    got = (c.get("format_version"), c.get("term_hash"))
    if got != (FORMAT_VERSION, TERM_HASH_FN):
        raise ValueError(
            f"index generation {manifest.get('generation')!r} has on-disk "
            f"format (version={got[0]}, term_hash={got[1]}), but this build "
            f"reads (version={FORMAT_VERSION}, term_hash={TERM_HASH_FN}). "
            "Opening it would silently return wrong/empty results (term -> "
            "bucket assignment differs). Rebuild the index with the current "
            "code, or pin the engine version that wrote it."
        )


def check_query_compat(manifest: dict, query_analyzer_fp: str) -> None:
    """Refuse queries from a mismatched analyzer — the reference's
    ``FingerprintType.isCompatible`` guard (``FingerprintType.java:578-586``,
    documented constraint ``ChemicalIndex.java:148-151``)."""
    want = manifest["config"]["query_analyzer_fp"]
    if want != query_analyzer_fp:
        raise ValueError(
            f"query analyzer fingerprint {query_analyzer_fp} does not match "
            f"index manifest {want}; rebuild or use the indexed analyzer"
        )


def segment_chunk_path(gdir: str, segment_id: int, bucket: int,
                       chunk_format: str = "parquet") -> str:
    ext = {"parquet": "parquet", "ipc": "arrow"}[chunk_format]
    return os.path.join(gdir, "segments", f"seg={segment_id:06d}",
                        f"bucket-{bucket:05d}.{ext}")


def chunk_bucket_of(path: str) -> int:
    """Bucket number of a chunk file path, either on-disk format."""
    stem = os.path.basename(path).rsplit(".", 1)[0]
    return int(stem[len("bucket-"):])


def list_segment_ids(gdir: str) -> list[int]:
    seg_root = os.path.join(gdir, "segments")
    out = []
    if os.path.isdir(seg_root):
        for name in sorted(os.listdir(seg_root)):
            if name.startswith("seg="):
                out.append(int(name.split("=")[1]))
    return out


def list_chunk_files(gdir: str, segment_id: int) -> list[str]:
    d = os.path.join(gdir, "segments", f"seg={segment_id:06d}")
    return [os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith((".parquet", ".arrow"))]


def read_chunk_table(path: str, columns: list[str] | None = None,
                     memory_map: bool = False) -> pa.Table:
    """Read one chunk file, either format. ``.arrow`` (IPC, uncompressed)
    with ``memory_map=True`` is ZERO-COPY off the page cache — column
    buffers point straight into the mapped file, so a searcher's resident
    set is the touched pages, not a decompressed heap copy (the north-star
    "mmap'd segment shards" layout; Parquet pages must decompress into
    heap regardless of memory_map)."""
    if path.endswith(".arrow"):
        src = pa.memory_map(path) if memory_map else pa.OSFile(path)
        with src:
            t = pa.ipc.open_file(src).read_all()
        return t.select(columns) if columns is not None else t
    return pq.read_table(path, columns=columns, memory_map=memory_map)


def one_array(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """A column as one Arrow array — zero-copy unless it has several chunks
    (a multi-row-group Parquet read)."""
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def binary_views(col: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy ``(int32 offsets, uint8 data)`` numpy views of a
    string/binary column: row ``i`` is ``data[offs[i]:offs[i + 1]]``, so a
    run of rows is ONE byte slice. Null rows must hold no bytes (every
    writer and reader here keeps them empty); a column where one does
    raises, since its byte runs would misalign."""
    arr = one_array(col)
    _, offs, data = arr.buffers()
    offs = np.frombuffer(offs, np.int32)[arr.offset: arr.offset + len(arr) + 1]
    if arr.null_count and np.diff(offs)[
            ~pc.is_valid(arr).to_numpy(zero_copy_only=False)].any():
        raise ValueError("binary column has null rows that hold bytes")
    return offs, (np.frombuffer(data, np.uint8) if data is not None
                  else np.zeros(0, np.uint8))


class _SortedTermIndex:
    """Zero-copy binary search over a term-SORTED Arrow string column.

    The dictionary IS the Arrow column — only the int32 offset view and a
    memoryview of the UTF-8 data buffer are kept, so memory is not ∝ a
    Python dict of the vocabulary; a lookup is ~log2(n) tiny byte-slice
    compares (chunk and df files are written term-sorted)."""

    __slots__ = ("offs", "data", "n")

    def __init__(self, terms: pa.Array | pa.ChunkedArray):
        self.n = len(terms)
        self.offs, data = binary_views(terms)
        self.data = memoryview(data)

    def find(self, term: str) -> int | None:
        q = term.encode("utf-8")
        lo, hi = 0, self.n
        offs, data = self.offs, self.data
        while lo < hi:
            mid = (lo + hi) >> 1
            v = bytes(data[offs[mid]:offs[mid + 1]])
            if v < q:
                lo = mid + 1
            elif v > q:
                hi = mid
            else:
                return mid
        return None


class _ChunkIndex(_SortedTermIndex):
    """The read view of one chunk table, shared by the Searcher and merge:
    its term index plus zero-copy views of its posting columns — ``df``
    (the ``df_chunk`` values), ``streams`` (the (offsets, data) views of
    ``doc_bytes``/``tf_bytes``/``dl_bytes``) and, in a positional chunk,
    ``pos`` (the view of ``pos_bytes``) with ``pos_valid`` read off its
    validity bitmap (a null stream is a fielded term, which has no
    positions). A run of rows is then one byte slice per stream — no
    per-row pyarrow scalars on any decode path."""

    __slots__ = ("df", "streams", "pos", "pos_valid")

    def __init__(self, tbl: pa.Table):
        super().__init__(tbl["term"])
        self.df = one_array(tbl["df_chunk"]).to_numpy()
        self.streams = tuple(binary_views(tbl[c])
                             for c in ("doc_bytes", "tf_bytes", "dl_bytes"))
        self.pos = self.pos_valid = None
        if "pos_bytes" in tbl.column_names:
            col = one_array(tbl["pos_bytes"])
            self.pos = binary_views(col)
            self.pos_valid = pc.is_valid(col).to_numpy(zero_copy_only=False)


def decode_postings(ranges: list[tuple[_ChunkIndex, int, int]]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one decoder of the chunk posting streams: rows ``[lo, hi)`` of
    each ``(view, lo, hi)`` in ``ranges``, in order -> int64
    ``(docs, tfs, dls, counts)``, ``counts`` being each row's df_chunk. The
    Searcher passes the one row of each chunk that holds a term, merge a
    whole chunk. A run of rows is one byte slice per stream and varints
    are self-delimiting, so every slice joins into ONE ``varint_decode``
    call; each row's first doc delta is absolute, so doc ids come back by
    one segmented cumsum over the row counts."""
    counts = np.concatenate([v.df[lo:hi] for v, lo, hi in ranges]).astype(np.int64)
    n = int(counts.sum())
    parts = []
    for k in range(3):
        for v, lo, hi in ranges:
            offs, data = v.streams[k]
            parts.append(data[offs[lo]:offs[hi]])
    vals = varint_decode(np.concatenate(parts), 3 * n).view(np.int64)
    return segmented_cumsum(vals[:n], counts), vals[n:2 * n], vals[2 * n:], counts
