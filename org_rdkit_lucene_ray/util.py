"""Small shared utilities: driver-side log hygiene, md5 columns and the
one bucket-fold exchange (:func:`bucket_fold`, :func:`fold_by_key`).

The exchange is every curation fold's and every join's shuffle. It runs
on plain Ray tasks over a materialized Dataset's block refs: at one
partition a single task folds every block; past it one split task per
block cuts the rows at fixed bucket boundaries and one fold task per
partition folds its slices. Its output is a materialized Dataset."""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import ray
import ray.data


class _EmptySchemaDivergenceFilter(logging.Filter):
    """Drop Ray Data's cosmetic "RefBundle with a different schema ...
    new schema: (empty)" warning.

    ROOT CAUSE (VERDICT r2 #9, investigated): the warning is produced by
    Ray's streaming executor when an operator emits an empty, schema-less
    block. Our map/aggregate fns all return ``schema.empty_table()`` for
    empty inputs, but Ray's own sort-based shuffle creates empty partitions
    whenever a groupby/aggregate has fewer distinct keys than sort
    partitions, and ``map_groups``/aggregate emit those as zero-column
    blocks the UDF never sees. Reproduction with no user code involved::

        ray.data.from_arrow(pa.table({"k": [i % 5 for i in range(10_000)]}))
          .repartition(16).groupby("k").aggregate(Count())   # warns

    Ray keeps the previous (correct) schema when the divergent one is empty
    (``streaming_executor_state.py`` keeps ``old_schema`` unless
    ``enforce_schemas``), so the condition is harmless; this filter removes
    exactly that message shape — an EMPTY new schema — and nothing else, so
    genuine schema divergences still surface."""

    def filter(self, record: logging.LogRecord) -> bool:  # True = keep
        msg = record.getMessage()
        return not ("different schema than the previous" in msg
                    and "new schema: . This may" in msg)


_INSTALLED = False


def install_empty_schema_warning_filter() -> None:
    """Idempotently install the filter on the emitting Ray Data logger."""
    global _INSTALLED
    if _INSTALLED:
        return
    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptySchemaDivergenceFilter())
    _INSTALLED = True


def md5_hex_column(arr, *, null_value=None):
    """md5 hex digests of a UTF-8 Arrow string column, DuckDB ``md5()``
    parity. Hashes the column's flat UTF-8 buffer by offset slices —
    no per-row str decode/encode round-trip (measured 1.5 vs 2.8 µs/row
    at the 400k tier; the remaining cost is hashlib's per-call floor,
    profiled r4 — a vectorized md5 kernel exists in neither pyarrow nor
    numpy). ``null_value`` is emitted for null rows (e.g. ``""`` to match
    a ``COALESCE`` oracle, or None to propagate nulls).
    """
    import hashlib

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.type == pa.large_string():
        off_dtype = np.int64
    elif arr.type == pa.string():
        off_dtype = np.int32
    else:
        arr = arr.cast(pa.string())
        off_dtype = np.int32
    n = len(arr)
    if n == 0:
        return pa.array([], pa.string())
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], off_dtype)[arr.offset: arr.offset + n + 1]
    mv = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    md5 = hashlib.md5
    out = [md5(mv[offs[i]: offs[i + 1]]).hexdigest() for i in range(n)]
    if arr.null_count:
        nulls = np.asarray(pa.compute.is_null(arr))
        for i in np.flatnonzero(nulls):
            out[i] = null_value
    return pa.array(out, pa.string())


def md5_digest64_column(arr) -> np.ndarray:
    """md5 digests of a UTF-8 Arrow string column as an (n, 2) int64 array
    (the 16-byte digest viewed as two little-endian int64 words — the
    paragraph/span dedup key layout). Same buffer-slice path as
    :func:`md5_hex_column`; null rows hash as empty strings."""
    import hashlib

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.type not in (pa.string(), pa.large_string()):
        arr = arr.cast(pa.string())
    off_dtype = np.int64 if arr.type == pa.large_string() else np.int32
    n = len(arr)
    if n == 0:
        return np.zeros((0, 2), np.int64)
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], off_dtype)[arr.offset: arr.offset + n + 1]
    mv = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    md5 = hashlib.md5
    digs = b"".join(md5(mv[offs[i]: offs[i + 1]]).digest() for i in range(n))
    return np.frombuffer(digs, np.int64).reshape(-1, 2)


# Target input bytes of one fold call; see :func:`fold_partitions`.
FOLD_PARTITION_BYTES = 64 << 20


def fold_buckets(n_buckets=None) -> int:
    """Resolve the bucket domain of a hash-bucket fold exchange.

    An explicit ``n_buckets`` wins; otherwise ``ORL_FOLD_BUCKETS`` (env),
    otherwise ``max(64, 2 x cluster CPUs)`` (64 on one node up to 32 CPUs,
    so bench numbers stay comparable). The domain is the CEILING on the
    fold's partition count, not the count itself: :func:`bucket_fold`
    runs ``P`` = :func:`fold_partitions` partitions, each a contiguous
    range of whole buckets, so one fold call reads about
    ``max(FOLD_PARTITION_BYTES, exchange bytes / n_buckets)`` (bucket
    skew aside). Raise ``ORL_FOLD_BUCKETS`` when exchange bytes /
    n_buckets would outgrow a worker's heap."""
    if n_buckets:
        return int(n_buckets)
    import os

    env = os.environ.get("ORL_FOLD_BUCKETS")
    if env:
        return int(env)
    try:
        cpus = int(ray.cluster_resources().get("CPU", 0)) \
            if ray.is_initialized() else 0
    except Exception:
        cpus = 0
    return max(64, 2 * cpus)


def fold_partitions(exchange_bytes: int, n_buckets: int) -> int:
    """Partition count of a bucket-fold exchange: one partition per
    :data:`FOLD_PARTITION_BYTES` of exchanged rows, clamped to
    ``[1, n_buckets]`` so a bucket is never split across partitions.
    Sized by the data, not by the upstream block count."""
    return max(1, min(n_buckets, -(-exchange_bytes // FOLD_PARTITION_BYTES)))


def _bucket_ids(keys, n_buckets: int) -> np.ndarray:
    """int64 hash buckets of a key column in ``[0, n_buckets)`` (FNV for
    strings, identity-mod for integers): all rows of one key share a
    bucket, and the exchange moves whole buckets. ``n_buckets`` is the
    domain the driver resolved (:func:`fold_buckets`), so no worker asks
    the cluster for it."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if pa.types.is_integer(keys.type):
        return keys.to_numpy(zero_copy_only=False).astype(np.int64) % n_buckets
    from org_rdkit_lucene_ray.pipelines.build import stable_term_hash

    return (stable_term_hash(keys) % np.uint64(n_buckets)).astype(np.int64)


def append_bucket_column(t, key_col: str, n_buckets: int):
    """Append ``_bkt`` = :func:`_bucket_ids` of ``key_col``: a
    :func:`bucket_fold` input whose parts bucket on different columns
    (the two sides of a join) carries its bucket in this column."""
    return t.append_column(
        "_bkt", pa.array(_bucket_ids(t[key_col], n_buckets), pa.int64()))


@ray.remote
def _split_block(t: pa.Table, key_col: str | None, n_buckets: int,
                 bounds: list[int]) -> list[pa.Table]:
    """One input block -> ``len(bounds) + 1`` slices, slice ``i`` holding
    the rows whose bucket lies in ``[bounds[i-1], bounds[i])``. The bucket
    is ``_bkt`` (dropped here, so it never moves) or, with ``key_col``,
    :func:`_bucket_ids` of that column."""
    if not t.num_rows:
        return [t] * (len(bounds) + 1)
    if key_col is None:
        b = t["_bkt"].to_numpy()
        t = t.drop_columns(["_bkt"])
    else:
        b = _bucket_ids(t[key_col], n_buckets)
    part = np.searchsorted(bounds, b, side="right")
    ends = np.cumsum(np.bincount(part, minlength=len(bounds) + 1))
    t = t.take(np.argsort(part, kind="stable"))
    return [t.slice(s, e - s) for s, e in zip([0, *ends[:-1]], ends)]


@ray.remote
def _fold_partition(fold, *blocks: pa.Table) -> pa.Table:
    """One partition's rows from every input block -> ``fold`` called once
    on them, ``_bkt`` dropped. An empty partition never reaches ``fold``:
    it comes back as a zero-column empty block."""
    blocks = [b for b in blocks if b.num_rows]
    if not blocks:
        return pa.table({})
    t = pa.concat_tables(blocks, promote_options="default")
    return fold(t.drop_columns(["_bkt"]) if "_bkt" in t.column_names else t)


def _exchange(ds, fold, n_buckets: int, key_col: str | None):
    """The exchange behind :func:`bucket_fold` and :func:`fold_by_key`, on
    plain Ray tasks over the materialized blocks' refs."""
    parts = ds.materialize()
    p = fold_partitions(parts.size_bytes(), n_buckets)
    blocks = parts.to_arrow_refs()
    fold_ref = ray.put(fold)
    if p == 1:
        outs = [_fold_partition.remote(fold_ref, *blocks)]
    else:
        bounds = [n_buckets * i // p for i in range(1, p)]
        cuts = [_split_block.options(num_returns=p).remote(
            b, key_col, n_buckets, bounds) for b in blocks]
        outs = [_fold_partition.remote(fold_ref, *(c[i] for c in cuts))
                for i in range(p)]
    return ray.data.from_arrow_refs(outs)


def fold_by_key(ds, key_col: str, fold, n_buckets: int | None = None):
    """:func:`bucket_fold` of ``ds`` bucketed on ``key_col``. The rows are
    materialized as they are: at ``P`` = 1 no key is hashed, and at
    ``P`` > 1 the split tasks bucket each block with the domain resolved
    here, once, on the driver."""
    return _exchange(ds, fold, fold_buckets(n_buckets), key_col)


def bucket_fold(ds, fold, n_buckets: int | None = None):
    """The bucket-fold exchange: rows carrying a ``_bkt`` column in
    ``[0, fold_buckets(n_buckets))`` -> ``fold`` called once per
    partition of whole buckets, ``_bkt`` dropped before the call. It runs
    on plain Ray tasks, not on Ray Data's all-to-all operators:

    1. materialize the bucketed rows (the exchange is a full barrier
       anyway), so their byte size is known metadata;
    2. ``P`` = :func:`fold_partitions` of that size;
    3. ``P`` = 1: one task concatenates every block and calls ``fold``;
    4. ``P`` > 1: one split task per block cuts its rows at the fixed
       bucket boundaries ``nb*i//P`` (``num_returns=P``; no sampling
       pass), then one fold task per partition takes that partition's
       slice of every block and calls ``fold`` once.

    ``fold`` is put in the object store once per call. It must be correct
    on any union of whole buckets — i.e. segment by its real key (Arrow
    ``group_by`` or a lexsort) — and return a schema-stable table. Empty
    partitions never reach it; they come back as zero-column empty
    blocks. Returns a materialized Dataset of the fold outputs, one block
    per partition."""
    return _exchange(ds, fold, fold_buckets(n_buckets), None)


def fold_grouped_counts(parts, key_col: str, count_cols: list[str],
                        n_buckets: int | None = None):
    """Global sum of per-batch partial count rows through
    :func:`bucket_fold`: rows bucket by a hash of their key, and each
    partition (``P`` data-sized, about ``max(FOLD_PARTITION_BYTES,
    bytes / n_buckets)`` of input per fold call) sums its keys with
    Arrow's vectorized ``group_by``.

    Ray's ``groupby(key).sum`` is a sort-based shuffle over every
    partial row — measured ~10x the cost of the bucket fold on this
    repo's vocabulary-sized exchanges (BASELINE r3). Output: one
    (key, *count_cols) row per distinct key, bucket-partitioned.
    """
    def fold(g: pa.Table) -> pa.Table:
        gg = g.group_by(key_col).aggregate(
            [(c, "sum") for c in count_cols])
        cols = {key_col: gg[key_col]}
        for c in count_cols:
            cols[c] = gg[f"{c}_sum"].cast(pa.int64())
        return pa.table(cols)

    return fold_by_key(parts, key_col, fold, n_buckets)
