"""Multimodal (image/audio/video) column plumbing over Ray Data.

Opaque ``binary`` payload columns ride next to typed metadata columns
(mime, width/height or sample-rate, byte length). The Ray-side plumbing —
schema contract, stage signature, bounded batch sizes for large
payloads, output layout — is real and tested. The codec seam has two
implementations per stage: ``decoder="real"`` dispatches by mime to the
pure-python PNG/WAV codecs in :mod:`..functions.media_codec` (stdlib
zlib/wave — 8-bit grey/RGB/RGBA PNG, 16-bit PCM WAV; unsupported formats
raise loudly, never fake), and ``decoder="fake"`` is a deterministic
stand-in for determinism/plumbing tests. Video decode stays a marked
:class:`NotImplementedError` (no honest pure-python video codec exists).

Reference analog: the reference treats molecules as opaque native handles
decoded by a per-worker library loaded once (T1, ``bin/RDKit.activate``);
here each stage instance's decoder plays that role. The codecs are pure
Python and load in microseconds, so the stages are ``map_batches`` task
functions (an instance), not actor pools: an actor pool would hold the
CPUs its upstream read needs.

Scale notes: payloads can be MBs each, so stages here default to small
``batch_size`` (64) and ``batch_format="pyarrow"`` (payload bytes stay in
the object store, zero-copy, until sliced); never collect payloads to the
driver.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("mime", pa.string()),
    ("payload", pa.binary()),
    ("n_bytes", pa.int64()),
])

#: embedding width produced by the (stub) image featurizer
FEATURE_DIM = 32


def attach_payload(batch: pa.Table, *, source_col: str = "text",
                   id_col: str = "doc_id", mime: str = "image/fake") -> pa.Table:
    """Wrap a source column into the MEDIA_SCHEMA contract (test/demo helper:
    real corpora arrive with the binary column already populated)."""
    payload = pc.cast(batch[source_col], pa.binary())
    return pa.table({
        "media_id": pc.cast(batch[id_col], pa.int64()),
        "mime": pa.array([mime] * batch.num_rows, pa.string()),
        "payload": payload,
        "n_bytes": pc.cast(pc.binary_length(payload), pa.int64()),
    })


def _fake_decode(payload: bytes, dim: int) -> np.ndarray:
    """Deterministic stand-in for a real image decode + embed: sha256-seeded
    unit-norm vector. Stable across processes/runs."""
    digest = hashlib.sha256(payload).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim).astype(np.float32)
    n = float(np.linalg.norm(v))
    return v / n if n else v


class MediaFeatureStage:
    """Task stage: MEDIA_SCHEMA batch -> features batch.

    ``__init__`` builds the decoder ONCE per instance (``decoder="real"``
    builds the mime -> decode+feature dispatch from the pure-python
    codecs); ``__call__`` decodes and embeds a batch. Output: ``media_id:int64,
    n_bytes:int64, feature:list<float32>[FEATURE_DIM]``. Real features:
    luminance histogram for ``image/png``, amplitude histogram for
    ``audio/wav`` — deterministic functions of the decoded CONTENT.
    Unknown mimes raise ``NotImplementedError`` (the honest seam).
    """

    def __init__(self, decoder: str = "fake", dim: int = FEATURE_DIM):
        self.dim = dim
        self.decoder = decoder
        if decoder == "real":
            from org_rdkit_lucene_ray.functions import media_codec as mc

            self._dispatch = {
                "image/png": lambda p: mc.image_feature(
                    mc.png_decode(p), self.dim),
                "audio/wav": lambda p: mc.audio_feature(
                    mc.wav_decode(p)[0], self.dim),
                "audio/x-wav": lambda p: mc.audio_feature(
                    mc.wav_decode(p)[0], self.dim),
            }

    def _decode_one(self, mime: str, payload: bytes) -> np.ndarray:
        if self.decoder != "real":
            return _fake_decode(payload, self.dim)
        fn = self._dispatch.get(mime)
        if fn is None:
            raise NotImplementedError(
                f"MediaFeatureStage(real): no pure-python codec for "
                f"{mime!r} (image/png and audio/wav are supported)")
        return fn(payload)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        mimes = batch["mime"].to_pylist()
        feats = (np.stack([self._decode_one(m, p or b"")
                           for m, p in zip(mimes, payloads)])
                 if payloads else np.zeros((0, self.dim), np.float32))
        return pa.table({
            "media_id": pc.cast(batch["media_id"], pa.int64()),
            "n_bytes": pc.cast(batch["n_bytes"], pa.int64()),
            "feature": pa.FixedSizeListArray.from_arrays(
                pa.array(feats.reshape(-1), pa.float32()), self.dim),
        })


class ResizeStage:
    """Task stage: image payload -> fixed (width x height x channels)
    payload. ``decoder="real"`` runs the full PNG decode -> nearest-
    neighbour resize -> PNG re-encode chain from
    :mod:`..functions.media_codec` (non-PNG mimes raise loudly); the fake
    emits a deterministic byte surface of EXACTLY
    ``width*height*channels`` bytes (the input bytes tiled/cut via
    ``np.resize``), so downstream stages exercise real-shaped data and the
    object-store sizing is faithful. Output keeps MEDIA_SCHEMA with the
    resized payload + ``width``/``height`` metadata columns."""

    def __init__(self, width: int = 64, height: int = 64, channels: int = 3,
                 decoder: str = "fake"):
        self.width = width
        self.height = height
        self.channels = channels
        self.decoder = decoder

    def _resize_real(self, mime: str, p: bytes) -> bytes:
        from org_rdkit_lucene_ray.functions import media_codec as mc

        if mime != "image/png":
            raise NotImplementedError(
                f"ResizeStage(real): no pure-python codec for {mime!r} "
                "(image/png is supported)")
        return mc.png_encode(mc.resize_nearest(
            mc.png_decode(p), self.width, self.height, self.channels))

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_out = self.width * self.height * self.channels
        payloads = []
        for mime, p in zip(batch["mime"].to_pylist(),
                           batch["payload"].to_pylist()):
            if self.decoder == "real":
                payloads.append(self._resize_real(mime, p or b""))
            else:
                src = np.frombuffer(p or b"\x00", dtype=np.uint8)
                payloads.append(np.resize(src, n_out).tobytes())
        out = pa.array(payloads, pa.binary())
        return pa.table({
            "media_id": pc.cast(batch["media_id"], pa.int64()),
            "mime": batch["mime"],
            "payload": out,
            "n_bytes": pc.cast(pc.binary_length(out), pa.int64()),
            "width": pa.array([self.width] * batch.num_rows, pa.int32()),
            "height": pa.array([self.height] * batch.num_rows, pa.int32()),
        })


class FrameSampleStage:
    """Task stage: video-shaped payload -> K evenly spaced "frames"
    (byte slices standing in for decoded frames; a real decoder replaces
    ``_slice_frames`` only — the fan-out plumbing is the deliverable).

    Output: one row per sampled frame: ``media_id, frame_idx:int32,
    frame:binary`` — a flat_map-shaped expansion done inside map_batches.
    """

    def __init__(self, n_frames: int = 4, decoder: str = "fake"):
        if decoder == "real":
            raise NotImplementedError("no video codec in this environment")
        self.n_frames = n_frames

    def _slice_frames(self, payload: bytes) -> list[bytes]:
        if not payload:
            return []
        k = min(self.n_frames, len(payload))
        pos = np.linspace(0, len(payload), num=k + 1, dtype=np.int64)
        return [payload[pos[i]:pos[i + 1]] for i in range(k)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, frames = [], [], []
        for mid, payload in zip(batch["media_id"].to_pylist(),
                                batch["payload"].to_pylist()):
            for i, fr in enumerate(self._slice_frames(payload or b"")):
                ids.append(mid)
                idxs.append(i)
                frames.append(fr)
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "frame_idx": pa.array(idxs, pa.int32()),
            "frame": pa.array(frames, pa.binary()),
        })


def media_features(media: rd.Dataset, *, batch_size: int = 64) -> rd.Dataset:
    """MEDIA_SCHEMA dataset -> per-item feature vectors (plain tasks; small
    batches because payloads are large)."""
    return media.map_batches(MediaFeatureStage(), batch_format="pyarrow",
                             batch_size=batch_size)
