"""Small shared utilities: driver-side log hygiene, md5 columns and the
bucket-fold exchange (:func:`bucket_fold`)."""

from __future__ import annotations

import logging


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

    import numpy as np
    import pyarrow as pa

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


def md5_digest64_column(arr) -> "np.ndarray":
    """md5 digests of a UTF-8 Arrow string column as an (n, 2) int64 array
    (the 16-byte digest viewed as two little-endian int64 words — the
    paragraph/span dedup key layout). Same buffer-slice path as
    :func:`md5_hex_column`; null rows hash as empty strings."""
    import hashlib

    import numpy as np
    import pyarrow as pa

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
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 0)) \
            if ray.is_initialized() else 0
    except Exception:
        cpus = 0
    return max(64, 2 * cpus)


def fold_partitions(exchange_bytes: int, n_buckets: int) -> int:
    """Partition count of a bucket-fold exchange: one partition per
    :data:`FOLD_PARTITION_BYTES` of exchanged rows, clamped to
    ``[1, n_buckets]`` so a bucket is never split across partitions.
    Sized by the data, not by the upstream block count (Ray's sort
    shuffle would give one partition per input block)."""
    return max(1, min(n_buckets, -(-exchange_bytes // FOLD_PARTITION_BYTES)))


def append_bucket_column(t, key_col: str, n_buckets: int):
    """Append ``_bkt``, an int64 hash bucket of ``key_col`` (FNV for
    strings, identity-mod for integers) in ``[0, n_buckets)`` — the front
    half of :func:`bucket_fold`: all rows of one key share a bucket, and
    the exchange moves whole buckets. ``n_buckets`` is the domain the
    driver resolved (:func:`fold_buckets`), so no worker batch asks the
    cluster for it."""
    import numpy as np
    import pyarrow as pa

    keys = t[key_col].combine_chunks() if hasattr(t[key_col], "combine_chunks") \
        else t[key_col]
    if pa.types.is_integer(keys.type):
        b = keys.to_numpy(zero_copy_only=False).astype(np.int64) % n_buckets
    else:
        from org_rdkit_lucene_ray.pipelines.build import stable_term_hash

        b = (stable_term_hash(keys) % np.uint64(n_buckets)).astype(np.int64)
    return t.append_column("_bkt", pa.array(b, pa.int64()))


def fold_by_key(ds, key_col: str, fold, n_buckets: int | None = None):
    """:func:`bucket_fold` of ``ds`` bucketed on ``key_col``: the bucket
    domain is resolved once, here on the driver, and closed over by the
    :func:`append_bucket_column` map."""
    n_buckets = fold_buckets(n_buckets)
    return bucket_fold(
        ds.map_batches(lambda t: append_bucket_column(t, key_col, n_buckets),
                       batch_format="pyarrow"),
        fold, n_buckets)


def bucket_fold(ds, fold, n_buckets: int | None = None):
    """The bucket-fold exchange: rows carrying a ``_bkt`` column in
    ``[0, fold_buckets(n_buckets))`` -> ``fold`` called once per
    partition of whole buckets, ``_bkt`` dropped before the call.

    1. materialize the bucketed rows (the exchange is a full barrier
       anyway), so their byte size is known metadata;
    2. ``P`` = :func:`fold_partitions` of that size;
    3. range-partition on ``_bkt`` at fixed boundaries ``nb*i//P`` — no
       sampling pass, no aggregator actors; ``P`` = 1 is one
       ``repartition(1)`` block;
    4. ``map_batches(fold, batch_size=None)``: one call per partition.

    ``fold`` must be correct on any union of whole buckets — i.e. segment
    by its real key (Arrow ``group_by`` or a lexsort) — and return a
    schema-stable table. Empty partitions never reach it (Ray emits them
    as zero-column blocks). The materialized rows stay referenced by the
    returned Dataset's plan until it is dropped."""
    n_buckets = fold_buckets(n_buckets)
    parts = ds.materialize()
    p = fold_partitions(parts.size_bytes(), n_buckets)
    if p == 1:
        exchanged = parts.repartition(1)   # boundaries=[] would sample
    else:
        exchanged = parts.sort(
            "_bkt", boundaries=[n_buckets * i // p for i in range(1, p)])
    return exchanged.map_batches(lambda t: fold(t.drop_columns(["_bkt"])),
                                 batch_format="pyarrow", batch_size=None)


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
    import pyarrow as pa

    def fold(g: pa.Table) -> pa.Table:
        gg = g.group_by(key_col).aggregate(
            [(c, "sum") for c in count_cols])
        cols = {key_col: gg[key_col]}
        for c in count_cols:
            cols[c] = gg[f"{c}_sum"].cast(pa.int64())
        return pa.table(cols)

    return fold_by_key(parts, key_col, fold, n_buckets)
