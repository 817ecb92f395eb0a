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
"""

from __future__ import annotations

import json
import os
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

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
    """Write a Parquet file atomically (temp in same dir + rename).

    Rename within one directory is atomic on POSIX; on object stores the
    equivalent is a conditional put — the commit point is identical."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{uuid.uuid4().hex}")
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


def atomic_write_chunk(table: pa.Table, path: str, **pq_kw) -> int:
    """Format-dispatching atomic chunk write (temp + rename, like
    :func:`atomic_write_table`). IPC files are written uncompressed in one
    record batch — the read side maps them zero-copy."""
    if not path.endswith(".arrow"):
        return atomic_write_table(table, path, **pq_kw)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{uuid.uuid4().hex}")
    with pa.OSFile(tmp, "wb") as f:
        with pa.ipc.new_file(f, table.schema) as w:
            w.write_table(table)
    size = os.path.getsize(tmp)
    os.replace(tmp, path)
    return size
