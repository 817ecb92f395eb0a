"""Distributed joins on the one bucket-fold exchange.

Every join in the engine rides :func:`util.bucket_fold` through one
two-sided helper, :func:`_fold_two_sided`: each side is tagged with
``_bkt`` on its key (:func:`util.append_bucket_column`) and a ``_side``
flag, null-padded to one shared schema (``l:<col>`` for the left side's
columns, ``r:<col>`` for the right's), and the two are unioned and
folded. A key lives in exactly one bucket and a fold partition is a run
of whole buckets, so each fold call sees every row of its keys and
matches them exactly; it receives the partition's left rows and right
rows as two tables under their own column names. The partition count is
sized by the exchange's bytes (``util.FOLD_PARTITION_BYTES``), with no
sampling pass and no aggregator actors — no join sets a partition count.

- :func:`fold_join` — inner / left-outer equi-join (``Dataset.join``'s
  output columns). Each partition matches on the key plus row-index
  columns only, then ``take``\\ s the payloads: Arrow's ``Table.join``
  refuses list-typed non-key columns, and payloads never go through it.
- :func:`asof_join` — the time-series lookup Ray Data lacks: to every
  left row, the right row with the greatest timestamp ``<=`` (backward,
  inclusive) among rows sharing its key — DuckDB's ``ASOF JOIN`` /
  pandas ``merge_asof`` semantics, inner flavor (unmatched left rows
  drop). Inside a partition the body is fully vectorized: keys and
  timestamps are rank-compressed into one monotone int64 composite
  ``(key_rank << 32) | ts_rank`` and every left row finds its match with
  a single ``np.searchsorted`` over the sorted right composites — no
  per-key Python loop. Rank compression (not raw values) keeps the
  composite exact: it only requires < 2^31 distinct keys and < 2^32
  distinct timestamps PER PARTITION (enforced with an explicit error).
- :func:`lookup_join` — the reference's hit -> stored-fields lookup
  (``ChemicalIndex.java:521-538``): an Arrow broadcast probe for a small
  right side, :func:`fold_join` above it.

Skew: a hot key keeps its whole bucket in one partition, so the largest
fold call is at least that key's rows on both sides.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd


def _arrow_schema(ds: rd.Dataset) -> pa.Schema:
    """``ds``'s Arrow schema — it types the other side's null padding.
    Free on a materialized or file-backed Dataset; otherwise Ray runs the
    plan up to its first block."""
    s = ds.schema()
    if s is None:
        raise ValueError("join input has an unknown schema (an empty "
                         "Dataset that lost it) — cannot type the output")
    return pa.schema(list(zip(s.names, s.types)))


def _fold_two_sided(left: rd.Dataset, right: rd.Dataset, l_on: str,
                    r_on: str, match,
                    n_buckets: int | None = None) -> rd.Dataset:
    """The one two-sided exchange (see the module docstring):
    ``match(left_rows, right_rows) -> pa.Table`` runs once per partition
    of whole key buckets, on every row of the partition's keys from both
    sides; it must return a schema-stable table, also when one side has
    no rows."""
    from org_rdkit_lucene_ray.util import (
        append_bucket_column,
        bucket_fold,
        fold_buckets,
    )

    n_buckets = fold_buckets(n_buckets)
    lsch, rsch = _arrow_schema(left), _arrow_schema(right)
    # both keys bucket and match as the left key's type
    i = rsch.get_field_index(r_on)
    schemas = (lsch, rsch.set(i, rsch.field(i).with_type(lsch.field(l_on).type)))
    prefixes = ("l:", "r:")

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {"_side": pa.array(np.full(n, side, np.int8))}
            for s, (sch, pre) in enumerate(zip(schemas, prefixes)):
                for f in sch:     # `and n`: an empty block may have no columns
                    cols[pre + f.name] = t[f.name].cast(f.type) \
                        if s == side and n else pa.nulls(n, f.type)
            return append_bucket_column(
                pa.table(cols), prefixes[side] + (l_on, r_on)[side],
                n_buckets)
        return fn

    def fold(t: pa.Table) -> pa.Table:
        side = t["_side"].to_numpy(zero_copy_only=False)
        lt, rt = (t.select([pre + f.name for f in sch])
                  .rename_columns(sch.names).take(np.flatnonzero(side == s))
                  for s, (sch, pre) in enumerate(zip(schemas, prefixes)))
        return match(lt, rt)

    tagged = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow"))
    return bucket_fold(tagged, fold, n_buckets)


def fold_join(left: rd.Dataset, right: rd.Dataset, *, on: str,
              right_on: str | None = None,
              join_type: str = "inner") -> rd.Dataset:
    """Equi-join ``left`` to ``right`` on ``left.on == right.right_on``
    through the one bucket-fold exchange (module docstring).

    ``join_type`` is ``"inner"`` or ``"left_outer"`` (unmatched left rows
    get nulls). Duplicate keys on both sides give every pair
    (many-to-many); null keys match nothing. Output columns are
    ``Dataset.join``'s: all left columns, then the right side's non-key
    columns; a right column whose name a left column already has
    raises. The right key is cast to the left key's type."""
    if join_type not in ("inner", "left_outer"):
        raise ValueError(f"fold_join supports inner/left_outer, got {join_type!r}")
    right_on = right_on or on
    l_names = set(_arrow_schema(left).names)
    r_out = [c for c in _arrow_schema(right).names if c != right_on]
    clash = sorted(l_names.intersection(r_out))
    if clash:
        raise ValueError(f"fold_join: right columns {clash} collide with "
                         "left columns; rename one side first")
    arrow_type = "inner" if join_type == "inner" else "left outer"

    def match(lt: pa.Table, rt: pa.Table) -> pa.Table:
        # keys and row indices only: Arrow's join refuses list payloads
        pairs = pa.table({"k": lt[on], "_li": np.arange(lt.num_rows)}).join(
            pa.table({"k": rt[right_on], "_ri": np.arange(rt.num_rows)}), "k",
            join_type=arrow_type)
        out = lt.take(pairs["_li"])
        for c in r_out:        # a null index (no match) takes a null
            out = out.append_column(c, rt[c].take(pairs["_ri"]))
        return out

    return _fold_two_sided(left, right, on, right_on, match)


def asof_join(left: rd.Dataset, right: rd.Dataset, *, on: str, ts: str,
              left_cols: list[str], right_cols: list[str],
              right_suffix: str = "_r", strict: bool = False,
              num_buckets: int | None = None) -> rd.Dataset:
    """Backward as-of join of ``left`` to ``right`` on ``on`` within ``ts``.

    Returns ``left_cols`` + ``ts`` as-is plus each of ``right_cols`` and
    the matched right ``ts`` under ``right_suffix``; left rows with no
    qualifying right row are dropped (inner). ``strict=True`` requires
    ``right.ts < left.ts`` instead of ``<=``. ``num_buckets`` is the
    exchange's bucket domain (``util.bucket_fold``'s ``n_buckets``).

    ``on`` must be an integer key and ``ts`` a timestamp[us] or integer
    column in BOTH inputs; payload column name collisions between the two
    sides are resolved by suffixing the right side.
    """
    l_payload = list(dict.fromkeys(left_cols + [ts]))
    r_payload = list(dict.fromkeys(right_cols + [ts]))
    side_kind = "left" if strict else "right"

    def _i64(arr: pa.ChunkedArray) -> np.ndarray:
        a = arr.combine_chunks()
        if pa.types.is_timestamp(a.type):
            a = a.cast(pa.int64())
        return a.to_numpy(zero_copy_only=False).astype(np.int64)

    def match(lt: pa.Table, rt: pa.Table) -> pa.Table:
        def emit(l_take: np.ndarray, r_take: np.ndarray) -> pa.Table:
            lrows, rrows = lt.take(l_take), rt.take(r_take)
            cols = {c: lrows[c] for c in l_payload}
            for c in right_cols:
                cols[f"{c}{right_suffix}"] = rrows[c]
            cols[f"{ts}{right_suffix}"] = rrows[ts]
            return pa.table(cols)

        nl = lt.num_rows
        if nl == 0 or rt.num_rows == 0:
            return emit(np.zeros(0, np.int64), np.zeros(0, np.int64))
        keys = np.concatenate([_i64(lt[on]), _i64(rt[on])])
        tss = np.concatenate([_i64(lt[ts]), _i64(rt[ts])])
        # rank-compress (key, ts) into one monotone int64 composite
        uk = np.unique(keys)
        ut = np.unique(tss)
        if uk.size >= (1 << 31) or ut.size >= (1 << 32):
            raise ValueError(
                "asof_join partition exceeds rank-compression capacity "
                f"({uk.size} keys / {ut.size} timestamps)")
        comp = (np.searchsorted(uk, keys).astype(np.int64) << 32) \
            | np.searchsorted(ut, tss).astype(np.int64)
        li = np.arange(nl)
        ri = np.arange(nl, keys.size)
        r_order = ri[np.argsort(comp[ri], kind="stable")]
        r_comp = comp[r_order]
        # last right row with composite <= (strict: <) the left composite;
        # equal composite means equal (key, ts) exactly, so side= picks
        # the inclusive/exclusive contract
        pos = np.searchsorted(r_comp, comp[li], side=side_kind) - 1
        ok = pos >= 0
        matched = r_order[np.maximum(pos, 0)]
        ok &= keys[matched] == keys[li]
        return emit(li[ok], matched[ok] - nl)

    return _fold_two_sided(
        left.select_columns(list(dict.fromkeys([on] + l_payload))),
        right.select_columns(list(dict.fromkeys([on] + r_payload))),
        on, on, match, num_buckets)


# ------------------------------------------------------------- lookup join
# Auto-switch threshold, mirroring `stages.dedup.broadcast_candidate_limit`:
# below it the right side is broadcast ONCE through the object store as
# Arrow (never a driver Python dict); above it we pay the shuffle.
BROADCAST_ROW_LIMIT = 2_000_000


@ray.remote
def _lookup_table(right_on: str, *blocks: pa.Table) -> pa.Table:
    """The broadcast right side as one table, its key checked unique."""
    t = pa.concat_tables([b for b in blocks if b.num_rows]).combine_chunks()
    # LOOKUP contract: pc.index_in probes the FIRST match, so a duplicate
    # right key would silently drop rows the fold path (a real join)
    # emits — refuse instead of diverging
    n_uniq = pc.count_distinct(t[right_on]).as_py()
    if n_uniq != t.num_rows:
        raise ValueError(
            f"lookup_join: right key {right_on!r} is not unique "
            f"({t.num_rows - n_uniq:,} duplicate rows). The broadcast "
            "lookup keeps one match per key; for a one-to-many join pass "
            "broadcast_row_limit=0 to force the fold-join path, or dedupe "
            "the right side")
    return t


def lookup_join(left: rd.Dataset, right: rd.Dataset, *, on: str,
                right_on: str | None = None, join_type: str = "inner",
                broadcast_row_limit: int = BROADCAST_ROW_LIMIT) -> rd.Dataset:
    """Attach the right side's value columns to every left row by key,
    auto-switching execution by right-side size (reference J7 analog,
    ``ChemicalIndex.getPrimaryKeysForSearchHits``; r3 verdict #4):

    - ``0 <`` right rows ``<= broadcast_row_limit``: one task concatenates
      the right side's Arrow blocks into one object-store table; each
      map task fetches it once per worker process (``dedup._bcast``) and
      the lookup is one vectorized ``pc.index_in`` per batch — no
      exchange, no actor pool, no Python dict, no per-row loop. The
      broadcast path REQUIRES unique right keys (it is a lookup, not a
      one-to-many join) and refuses duplicates loudly so the two paths
      can never silently return different row sets;
    - otherwise (larger, or empty): :func:`fold_join`, the one
      bucket-fold exchange, sized by its bytes.

    Output columns: all left columns plus the right side's non-key
    columns. ``join_type`` is ``"inner"`` or ``"left_outer"`` (unmatched
    left rows get nulls on both paths).
    """
    if join_type not in ("inner", "left_outer"):
        raise ValueError(f"lookup_join supports inner/left_outer, got {join_type!r}")
    right_on = right_on or on
    # materialize once: count() would otherwise execute the right pipeline
    # and the broadcast/join below would execute it a second time
    right = right.materialize()
    if not 0 < right.count() <= broadcast_row_limit:
        return fold_join(left, right, on=on, right_on=right_on,
                         join_type=join_type)
    table_ref = _lookup_table.remote(right_on, *right.to_arrow_refs())

    def probe(t: pa.Table) -> pa.Table:
        from org_rdkit_lucene_ray.stages.dedup import _bcast

        r = _bcast(table_ref)
        idx = pc.index_in(t[on], value_set=r[right_on])
        if join_type == "inner":
            valid = pc.is_valid(idx)
            t = t.filter(valid)
            idx = idx.filter(valid)
        taken = r.drop_columns([right_on]).take(idx)  # null index -> null row
        for name in taken.column_names:
            t = t.append_column(name, taken[name])
        return t

    return left.map_batches(probe, batch_format="pyarrow")
