"""Posting-list codec: delta + varint doc ids, varint tfs/dls, positions.

This is the explicit rebuild of the black box the reference delegates to
Lucene (segment postings format; ``IndexWriter`` via default config,
``DefaultIndexWriterConfigFactory.java:61-65`` — SURVEY §1.1(3)).

Layout of one encoded posting-list chunk (all numpy-vectorized):
    varint(delta(doc_ids)) || varint(tfs) || varint(dls)
with the three section byte-lengths stored alongside. Doc ids MUST be
strictly increasing (Lucene keeps docID-sorted postings and all collectors
exploit it — ``SubstructureScoreDocCollector.java:62-94``; delta-encoding and
WAND both require it).

Encoding depends on no corpus statistic: no block-max metadata is stored.
The searcher derives exact block-max bounds from each decoded term's live
weights (``pipelines/query.py``), since any encode-time bound would be tied
to one generation's avgdl and stop being admissible once a delta shifts it.
"""

from __future__ import annotations

import numpy as np


# ------------------------------------------------------------------- varints
def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64 array (vectorized, no Python loop over values)."""
    return _varint_encode_offsets(values)[0]


def _varint_encode_offsets(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """:func:`varint_encode` plus each value's byte offset in the output
    (len = n + 1, the last entry is the total length) — the offsets come
    from the same length pass the encoder needs, so callers slicing the
    stream at term or posting boundaries do not measure it a second time."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.zeros(1, dtype=np.int64)
    lengths = varint_lengths(v)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    total = int(offsets[-1])
    out = np.zeros(total, dtype=np.uint8)
    # fill byte position k of every value with length > k
    remaining = v.copy()
    alive = np.arange(v.size)
    k = 0
    while alive.size:
        pos = offsets[alive] + k
        byte = (remaining[alive] & np.uint64(0x7F)).astype(np.uint8)
        more = (k + 1) < lengths[alive]
        out[pos] = byte | (more.astype(np.uint8) << 7)
        remaining[alive] = remaining[alive] >> np.uint64(7)
        alive = alive[more]
        k += 1
    return out.tobytes(), offsets


def varint_lengths(values: np.ndarray) -> np.ndarray:
    """LEB128 byte length per value (vectorized; shared with varint_encode).

    Shifts in 7-bit steps: a float log2 / frexp bit length is lossy above
    2**53."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    lengths = np.ones(v.shape, dtype=np.int64)
    shifted = v >> np.uint64(7)
    while shifted.any():
        grow = shifted > 0
        lengths[grow] += 1
        shifted = shifted >> np.uint64(7)
    return lengths


def varint_decode(buf: bytes | np.ndarray, count: int | None = None) -> np.ndarray:
    """Decode a LEB128 byte stream into a uint64 array (vectorized)."""
    b = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    if b.size == 0:
        return np.zeros(0, dtype=np.uint64)
    term_mask = (b & 0x80) == 0            # terminator bytes
    ends = np.flatnonzero(term_mask)       # inclusive end index of each value
    starts = np.concatenate([[0], ends[:-1] + 1])
    lengths = ends - starts + 1
    n = ends.size
    values = np.zeros(n, dtype=np.uint64)
    maxlen = int(lengths.max())
    for k in range(maxlen):
        sel = lengths > k
        idx = starts[sel] + k
        values[sel] |= (b[idx] & np.uint64(0x7F)).astype(np.uint64) << np.uint64(7 * k)
    if count is not None and n != count:
        raise ValueError(f"varint stream held {n} values, expected {count}")
    return values


# --------------------------------------------------------------- posting list
def encode_posting_list(doc_ids: np.ndarray, tfs: np.ndarray,
                        dls: np.ndarray) -> dict:
    """Encode one docID-sorted posting-list chunk: the per-term reference
    that :func:`encode_posting_block` must match byte for byte.

    Returns a dict with the binary payload and ``df_chunk``, ready to
    become one row of the segment table (state/segment.py).
    """
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    n = doc_ids.size
    if n == 0:
        raise ValueError("empty posting list")
    if n > 1 and not (np.diff(doc_ids) > 0).all():
        raise ValueError("doc_ids must be strictly increasing")
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = np.uint64(doc_ids[0])
    if n > 1:
        deltas[1:] = np.diff(doc_ids).astype(np.uint64)
    return {
        "df_chunk": n,
        "doc_bytes": varint_encode(deltas),
        "tf_bytes": varint_encode(tfs.astype(np.uint64)),
        "dl_bytes": varint_encode(dls.astype(np.uint64)),
    }


def encode_posting_block(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    term_starts: np.ndarray,
) -> dict:
    """Encode MANY terms' posting lists in one vectorized pass.

    ``term_starts`` are the start offsets of each term's run inside the
    (term, doc_id)-sorted arrays. Produces byte-identical output to calling
    :func:`encode_posting_list` per term (delta reset at every term start;
    per-term varint streams are slices of one whole-array encoding, and
    LEB128 is self-contained per value), ~10x less per-call overhead.

    Returns dict of per-term arrays aligned with ``term_starts``:
    ``df_chunk`` plus, per stream, one byte buffer and its offsets at the
    term boundaries (``doc_buf``/``doc_off``, ``tf_*``, ``dl_*``).
    """
    n = doc_ids.size
    bounds = np.concatenate([term_starts, [n]])
    counts = np.diff(bounds)
    if (counts <= 0).any():
        raise ValueError("empty term run")
    # deltas with reset at term starts
    deltas = np.empty(n, dtype=np.uint64)
    deltas[1:] = np.diff(doc_ids).astype(np.uint64)
    deltas[term_starts] = doc_ids[term_starts].astype(np.uint64)
    within = np.ones(n, dtype=bool)
    within[term_starts] = False
    if n > 1 and not (np.diff(doc_ids)[within[1:]] > 0).all():
        raise ValueError("doc_ids must be strictly increasing within a term")

    def _stream(vals: np.ndarray) -> tuple[bytes, np.ndarray]:
        buf, offs = _varint_encode_offsets(vals)
        return buf, offs[bounds]         # byte offset at each term boundary

    doc_buf, doc_off = _stream(deltas)
    tf_buf, tf_off = _stream(tfs.astype(np.uint64))
    dl_buf, dl_off = _stream(dls.astype(np.uint64))
    return {
        "df_chunk": counts.astype(np.int32),
        "doc_buf": doc_buf, "doc_off": doc_off,
        "tf_buf": tf_buf, "tf_off": tf_off,
        "dl_buf": dl_buf, "dl_off": dl_off,
    }


def decode_posting_list(row: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_posting_list` -> (doc_ids, tfs, dls)."""
    n = int(row["df_chunk"])
    deltas = varint_decode(row["doc_bytes"], n)
    doc_ids = np.cumsum(deltas.astype(np.int64))
    tfs = varint_decode(row["tf_bytes"], n).astype(np.int32)
    dls = varint_decode(row["dl_bytes"], n).astype(np.int32)
    return doc_ids, tfs, dls


# ------------------------------------------------------------------ positions
def encode_position_streams(positions: np.ndarray,
                            posting_starts: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode MANY postings' token-position lists in one vectorized pass.

    ``positions`` is the concatenation of every posting's ascending token
    positions; ``posting_starts`` marks each posting's first value. Each
    posting's run is delta-encoded with a reset at its start and LEB128 is
    self-contained per value, so any posting's stream is a byte slice of
    the whole encoding — the same slicing property the doc/tf/dl streams
    rely on (:func:`encode_posting_block`).

    Returns ``(buf, offsets)`` with ``offsets[i]:offsets[i+1]`` delimiting
    posting *i*'s bytes (len = n_postings + 1).
    """
    n = positions.size
    m = posting_starts.size
    if n == 0:
        return b"", np.zeros(m + 1, dtype=np.int64)
    deltas = np.empty(n, dtype=np.uint64)
    deltas[1:] = np.diff(positions).astype(np.uint64)
    deltas[posting_starts] = positions[posting_starts].astype(np.uint64)
    within = np.ones(n, dtype=bool)
    within[posting_starts] = False
    if n > 1 and not (np.diff(positions)[within[1:]] > 0).all():
        raise ValueError("positions must be strictly increasing within a posting")
    buf, offs = _varint_encode_offsets(deltas)
    return buf, offs[np.concatenate([posting_starts, [n]])]


def decode_position_streams(buf: bytes | np.ndarray,
                            counts: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_position_streams` over a CONCATENATED byte
    stream: ``counts[i]`` values belong to posting *i* (= its tf). Returns
    the flat ascending-position array; posting *i*'s slice is
    ``[cumsum(counts)[i-1], cumsum(counts)[i])``. One :func:`varint_decode`
    call + one segmented cumsum — no per-posting Python loop."""
    counts = np.asarray(counts, dtype=np.int64)
    return segmented_cumsum(
        varint_decode(buf, int(counts.sum())).view(np.int64), counts)


def segmented_cumsum(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Running sum of the int64 ``values``, IN PLACE, restarting at each of
    the consecutive runs ``counts`` (every count >= 1): how delta-coded doc
    ids (a run per term row) and positions (a run per posting) come back,
    since each run's first delta is absolute. Returns ``values``."""
    np.cumsum(values, out=values)
    if counts.size > 1:
        ends = np.cumsum(counts[:-1])
        values -= np.repeat(np.concatenate(([0], values[ends - 1])), counts)
    return values


def gather_position_runs(buf: np.ndarray, counts: np.ndarray,
                         keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Copy the byte runs of the postings that the bool mask ``keep``
    selects out of a concatenated position stream, WITHOUT decoding a value.
    Posting *i* holds ``counts[i]`` values (0 for a posting without
    positions); its run ends at the terminator byte (``b < 0x80``) of its
    last value, so one terminator scan finds every run's bounds and one
    byte mask gathers the kept runs. A run is self-contained (the delta
    resets at each posting), so the copied bytes equal re-encoding the kept
    postings' positions. Returns ``(offsets, data)`` with
    ``data[offsets[j]:offsets[j + 1]]`` the j-th kept run."""
    ends = np.flatnonzero(buf < 0x80)
    cum = np.concatenate(([0], np.cumsum(counts)))
    if ends.size != cum[-1]:
        raise ValueError(f"position stream held {ends.size} values, "
                         f"expected {cum[-1]}")
    lens = np.diff(np.concatenate(([-1], ends))[cum])
    return np.concatenate(([0], np.cumsum(lens[keep]))), buf[np.repeat(keep, lens)]
