"""Stream-shaped operators over the ordered ``events`` log.

Ray Data has no event-time watermarks (SURVEY §2.9 notes the reference has
no streaming concerns either); windows are expressed batch-first per the
ray_guide pattern: tumbling windows as partial-aggregate ``map_batches`` +
a small bucket-fold combine; sessionization as a bucket fold over
ts-sorted keys. Every exchange is :func:`util.bucket_fold`: all rows of one
key land in one partition, which the fold sorts and segments itself.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


def _composite_window_bucket(t: pa.Table, key_col: str,
                             n_buckets: int) -> pa.Table:
    """Append _bkt = hash(key) ^ window * phi mod n_buckets — the shared
    composite bucketing for every windowed exchange (windows of one key
    spread across buckets, so a small key domain still parallelizes)."""
    from org_rdkit_lucene_ray.pipelines.build import stable_term_hash

    keys = t[key_col].combine_chunks()
    if pa.types.is_integer(keys.type):
        kh = keys.to_numpy(zero_copy_only=False).astype(np.uint64)
    else:
        kh = stable_term_hash(keys)
    w = t["window"].to_numpy(zero_copy_only=False).astype(np.uint64)
    with np.errstate(over="ignore"):
        b = ((kh ^ (w * np.uint64(0x9E3779B97F4A7C15)))
             % np.uint64(n_buckets)).astype(np.int64)
    return t.append_column("_bkt", pa.array(b, pa.int64()))


def _window_fold(ds: rd.Dataset, key_col: str, fold) -> rd.Dataset:
    """:func:`util.bucket_fold` on the composite (key, window) bucket; the
    bucket domain (:func:`util.fold_buckets`: 64 on one node, 2x CPUs on a
    cluster) is resolved once, on the driver."""
    from org_rdkit_lucene_ray.util import bucket_fold, fold_buckets

    n_buckets = fold_buckets()
    return bucket_fold(
        ds, fold, n_buckets,
        pre=lambda t: _composite_window_bucket(t, key_col, n_buckets))


def _window_bucket_combine(parts: rd.Dataset, key_col: str) -> rd.Dataset:
    """Shared final combine for the window aggregates: the per-batch
    partial rows ride :func:`util.bucket_fold` bucketed on the COMPOSITE
    (key, window) hash (windows of one key spread across buckets, so a
    small key domain still parallelizes), with the real (key, window)
    merge as an Arrow hash-aggregate per partition — never a sort over
    the keys x windows domain."""
    def merge(g: pa.Table) -> pa.Table:
        gg = g.group_by([key_col, "window"]).aggregate(
            [("n_part", "sum"), ("sum_part", "sum"),
             ("min_part", "min"), ("max_part", "max")])
        return pa.table({
            key_col: gg[key_col],
            "window": gg["window"],
            "n_events": pc.cast(gg["n_part_sum"], pa.int64()),
            "sum_value": gg["sum_part_sum"],
            "min_value": gg["min_part_min"],
            "max_value": gg["max_part_max"],
        })

    return _window_fold(parts, key_col, merge)


def tumbling_window_agg(events: rd.Dataset, width_secs: int = 3600,
                        ts_col: str = "ts", key_col: str = "event_type",
                        value_col: str = "value",
                        value_decimals: int | None = None) -> rd.Dataset:
    """count/sum/min/max of ``value`` per (key, window). Pre-aggregated per
    batch before the exchange so it moves one row per (key, window,
    batch), not one per event.

    ``value_decimals``: when the value column is a d-dp decimal stored as
    float, sum in exact int64 fixed-point (10^d) so the result is
    order-independent (float sums wobble in the last ulp across Ray's
    aggregation-tree orders — the orders_by_segment lesson). min/max are
    selections and need no such treatment."""
    scale = 10 ** value_decimals if value_decimals is not None else None

    def partial(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64())
        win = ts_us.to_numpy() // (width_secs * 1_000_000)
        vals = t[value_col]
        if scale is not None:
            vals = pa.array(np.round(
                t[value_col].to_numpy(zero_copy_only=False) * scale).astype(np.int64))
        g = (
            pa.table({key_col: t[key_col], "window": pa.array(win.astype(np.int64)),
                      value_col: vals})
            .group_by([key_col, "window"])
            .aggregate([(value_col, "count"), (value_col, "sum"),
                        (value_col, "min"), (value_col, "max")])
        )
        return pa.table({
            key_col: g[key_col],
            "window": g["window"],
            "n_part": pc.cast(g[f"{value_col}_count"], pa.int64()),
            "sum_part": g[f"{value_col}_sum"],
            "min_part": g[f"{value_col}_min"],
            "max_part": g[f"{value_col}_max"],
        })

    combined = _window_bucket_combine(
        events.map_batches(partial, batch_format="pyarrow"), key_col)

    def finish(t: pa.Table) -> pa.Table:
        sums = t["sum_value"].to_numpy(zero_copy_only=False)
        if scale is not None:
            sums = sums.astype(np.float64) / scale
            mins = t["min_value"].to_numpy(zero_copy_only=False).astype(np.float64) / scale
            maxs = t["max_value"].to_numpy(zero_copy_only=False).astype(np.float64) / scale
        else:
            sums = np.round(sums, 4)
            mins = t["min_value"]
            maxs = t["max_value"]
        return pa.table({
            key_col: t[key_col],
            "window_start": pc.cast(pc.multiply(t["window"], width_secs * 1_000_000),
                                    pa.timestamp("us")),
            "n_events": t["n_events"],
            "sum_value": pa.array(sums),
            "min_value": pa.array(mins) if scale is not None else mins,
            "max_value": pa.array(maxs) if scale is not None else maxs,
        })

    return combined.map_batches(finish, batch_format="pyarrow")


def hopping_window_agg(events: rd.Dataset, width_secs: int = 3600,
                       hop_secs: int = 900, ts_col: str = "ts",
                       key_col: str = "event_type", value_col: str = "value",
                       value_decimals: int | None = None) -> rd.Dataset:
    """Hopping (sliding) windows: count/sum/min/max of ``value`` per
    (key, window) where windows of ``width_secs`` start every ``hop_secs``
    — each event lands in ``width/hop`` windows. Tumbling is the
    ``hop == width`` special case (see :func:`tumbling_window_agg`).

    Same partial+final shape: events explode into their covering window
    ids INSIDE ``map_batches`` (a vectorized ``np.repeat``), pre-aggregate
    per (key, window) per batch, tiny bucket-fold combine — the shuffle
    moves one row per (key, window, batch), so the width/hop expansion
    factor never rides the exchange. Exact fixed-point sums via
    ``value_decimals`` (the orders_by_segment lesson)."""
    if width_secs % hop_secs:
        raise ValueError("width_secs must be a multiple of hop_secs")
    n_w = width_secs // hop_secs
    hop_us = hop_secs * 1_000_000
    scale = 10 ** value_decimals if value_decimals is not None else None

    def partial(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")),
                        pa.int64()).to_numpy()
        slot = ts_us // hop_us           # last window START slot covering ts
        vals = t[value_col].to_numpy(zero_copy_only=False)
        if scale is not None:
            vals = np.round(vals * scale).astype(np.int64)
        keys = t[key_col].combine_chunks()
        # explode: window start slots [slot - n_w + 1, slot]
        rep = pa.array(np.repeat(np.arange(len(ts_us)), n_w))
        win = (np.repeat(slot, n_w)
               - np.tile(np.arange(n_w - 1, -1, -1), len(ts_us)))
        g = (
            pa.table({key_col: keys.take(rep),
                      "window": pa.array(win.astype(np.int64)),
                      value_col: pa.array(np.repeat(vals, n_w))})
            .group_by([key_col, "window"])
            .aggregate([(value_col, "count"), (value_col, "sum"),
                        (value_col, "min"), (value_col, "max")])
        )
        return pa.table({
            key_col: g[key_col],
            "window": g["window"],
            "n_part": pc.cast(g[f"{value_col}_count"], pa.int64()),
            "sum_part": g[f"{value_col}_sum"],
            "min_part": g[f"{value_col}_min"],
            "max_part": g[f"{value_col}_max"],
        })

    combined = _window_bucket_combine(
        events.select_columns([key_col, ts_col, value_col])
        .map_batches(partial, batch_format="pyarrow"), key_col)

    def finish(t: pa.Table) -> pa.Table:
        sums = t["sum_value"].to_numpy(zero_copy_only=False)
        if scale is not None:
            sums = sums.astype(np.float64) / scale
            mins = pa.array(t["min_value"].to_numpy(zero_copy_only=False)
                            .astype(np.float64) / scale)
            maxs = pa.array(t["max_value"].to_numpy(zero_copy_only=False)
                            .astype(np.float64) / scale)
        else:
            sums = np.round(sums, 4)
            mins = t["min_value"]
            maxs = t["max_value"]
        return pa.table({
            key_col: t[key_col],
            "window_start": pc.cast(pc.multiply(t["window"], hop_us),
                                    pa.timestamp("us")),
            "n_events": t["n_events"],
            "sum_value": pa.array(sums),
            "min_value": mins,
            "max_value": maxs,
        })

    return combined.map_batches(finish, batch_format="pyarrow")


def sessionize(events: rd.Dataset, gap_secs: int = 1800,
               key_col: str = "user_id", ts_col: str = "ts") -> rd.Dataset:
    """Per-key session stats: a new session starts when the gap from the
    previous event exceeds ``gap_secs``.

    Shape: :func:`util.bucket_fold` on a hash of the key (never a sort
    over the user-id domain); each partition folds EVERY resident user in
    one vectorized sort + segmented reduceat pass. Only (key, ts) rides
    the shuffle — the other event columns are projected away first."""

    gap_us = gap_secs * 1_000_000

    def fold(g: pa.Table) -> pa.Table:
        # one VECTORIZED pass over every user in the partition: sort by
        # (key, ts), segment by key, count per-segment gap breaks.
        # gaps compared in MICROSECONDS: the SQL oracle's epoch keeps
        # fractional seconds, so flooring to whole seconds could flip a
        # session boundary for a gap in (gap_secs, gap_secs + 1)
        order = pc.sort_indices(g, sort_keys=[(key_col, "ascending"),
                                              (ts_col, "ascending")])
        g = g.take(order)
        keys = g[key_col].combine_chunks()
        kidx = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False)
        ts_us = pc.cast(g[ts_col], pa.timestamp("us")).cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        same_key = np.concatenate([[False], kidx[1:] == kidx[:-1]])
        breaks = same_key & (np.concatenate([[0], np.diff(ts_us)]) > gap_us)
        starts = np.flatnonzero(~same_key)
        bounds = np.concatenate([starts, [len(kidx)]])
        n_events = np.diff(bounds)
        n_sessions = 1 + np.add.reduceat(breaks.astype(np.int64), starts)
        return pa.table({
            key_col: keys.take(pa.array(starts)),
            "n_events": pa.array(n_events.astype(np.int64)),
            "n_sessions": pa.array(n_sessions.astype(np.int64)),
            "first_ts": pa.array(ts_us[starts]).cast(pa.timestamp("us")),
            "last_ts": pa.array(ts_us[bounds[1:] - 1]).cast(
                pa.timestamp("us")),
        })

    from org_rdkit_lucene_ray.util import fold_by_key

    return fold_by_key(events.select_columns([key_col, ts_col]), key_col, fold)


def grouped_topn(events: rd.Dataset, n: int = 2, key_col: str = "event_type",
                 value_col: str = "value", id_col: str = "event_id") -> rd.Dataset:
    """Top-n rows per group by (value desc, id asc) — the K1/K2 bounded-PQ
    comparator applied to a generic grouped table.

    A PARTIAL top-n runs inside ``map_batches`` before the shuffle (the
    same partial+final shape as ``tumbling_window_agg``): at most
    n x keys x batches rows reach the exchange instead of every event —
    a batch row outside its batch's per-key top-n can't be in the global
    top-n. The final per-group top-n is Arrow-native."""

    def keep_topn(t: pa.Table, is_final: bool) -> pa.Table:
        order = pc.sort_indices(t, sort_keys=[
            (key_col, "ascending"), (value_col, "descending"),
            (id_col, "ascending")])
        t = t.take(order)
        kidx = pc.dictionary_encode(
            t[key_col].combine_chunks()).indices.to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(
            np.concatenate([[True], kidx[1:] != kidx[:-1]])) if len(kidx) \
            else np.zeros(0, np.int64)
        bounds = np.concatenate([starts, [len(kidx)]])
        rank = np.arange(len(kidx)) - np.repeat(starts, np.diff(bounds))
        keep = rank < n
        t = t.filter(pa.array(keep))
        if is_final:
            t = t.append_column("rank", pa.array(rank[keep].astype(np.int32)))
        return t

    partial = events.map_batches(
        lambda t: keep_topn(t, False), batch_format="pyarrow")
    # final fold is a bucket fold (hash-partition by key), not a
    # sort-shuffle over the key domain — keep_topn already segments
    # multiple keys per block, so partitions of whole keys fold correctly
    from org_rdkit_lucene_ray.util import fold_by_key

    return fold_by_key(partial, key_col, lambda g: keep_topn(g, True))


def funnel_steps(events: rd.Dataset, steps: list[str], *,
                 key_col: str = "user_id", ts_col: str = "ts",
                 type_col: str = "event_type",
                 id_col: str = "event_id") -> rd.Dataset:
    """Funnel analysis: how far each user progresses through an ORDERED
    step sequence (view -> click -> purchase). A user completes step k
    iff events of the step types exist at strictly increasing
    (ts, id) positions — the same ordered-subsequence problem as phrase
    search, decided greedily (earliest match per step, which is exact
    for subsequence existence).

    Scale shape: the (key, ts, id, type) projection rides
    :func:`util.bucket_fold` (never a sort over the user domain); each
    partition sorts once by (key, ts, id) and walks every resident
    user's greedy step chain over per-step position arrays. Emits
    ``(user_id, steps_completed)``; callers aggregate the per-step
    conversion counts (a K-row table).
    """
    step_list = list(steps)

    def fold(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g, sort_keys=[(key_col, "ascending"),
                                              (ts_col, "ascending"),
                                              (id_col, "ascending")])
        g = g.take(order)
        keys = g[key_col].combine_chunks()
        kidx = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False)
        starts = np.flatnonzero(
            np.concatenate([[True], kidx[1:] != kidx[:-1]]))
        bounds = np.concatenate([starts, [len(kidx)]])
        types = g[type_col]
        pos_of = {
            st: pc.indices_nonzero(pc.equal(types, st)).to_numpy()
            for st in set(step_list)
        }
        done = np.zeros(starts.size, np.int64)
        for u in range(starts.size):
            lo, hi = int(bounds[u]), int(bounds[u + 1])
            p = lo
            for st in step_list:
                arr = pos_of[st]
                i = int(np.searchsorted(arr, p, side="left"))
                if i >= arr.size or arr[i] >= hi:
                    break
                p = int(arr[i]) + 1
                done[u] += 1
        return pa.table({
            key_col: keys.take(pa.array(starts)),  # key type preserved
            "steps_completed": pa.array(done),
        })

    from org_rdkit_lucene_ray.util import fold_by_key

    proj = events.select_columns([key_col, ts_col, id_col, type_col])
    return fold_by_key(proj, key_col, fold)


def tumbling_distinct(events: rd.Dataset, width_secs: int = 3600,
                      ts_col: str = "ts", key_col: str = "event_type",
                      user_col: str = "user_id") -> rd.Dataset:
    """EXACT distinct-actor counts per (key, window) — the streaming
    "unique users per hour per type" rollup. One exchange, two steps:

    1. per-batch DISTINCT (key, window, user) triples (Arrow group_by
       inside the batch) ride :func:`util.bucket_fold` bucketed on the
       composite hash; each partition re-distincts its residents —
       after this step each (key, window, user) triple exists exactly
       once, and all of one (key, window)'s triples share a partition.
    2. the per-partition distinct counts are final (a (key, window)
       lives in exactly one bucket), so step 2 is a plain vectorized
       segment count inside the same fold — nothing user-sized leaves it.

    Approximate-at-scale variant: :func:`stages.sketch.hll_distinct_by`
    trades exactness for fixed-size registers when the per-window user
    sets outgrow the bucket groups."""
    width_us = width_secs * 1_000_000

    def partial(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64())
        win = ts_us.to_numpy() // width_us
        g = (pa.table({key_col: t[key_col],
                       "window": pa.array(win.astype(np.int64)),
                       "user": pc.cast(t[user_col], pa.int64())})
             .group_by([key_col, "window", "user"]).aggregate([]))
        return g

    def count_distinct(g: pa.Table) -> pa.Table:
        gg = g.group_by([key_col, "window", "user"]).aggregate([])
        gc = gg.group_by([key_col, "window"]).aggregate([("user", "count")])
        return pa.table({
            key_col: gc[key_col],
            "window_start": pc.cast(pc.multiply(gc["window"], width_us),
                                    pa.timestamp("us")),
            "n_users": pc.cast(gc["user_count"], pa.int64()),
        })

    return _window_fold(events.select_columns([key_col, ts_col, user_col])
                        .map_batches(partial, batch_format="pyarrow"),
                        key_col, count_distinct)
