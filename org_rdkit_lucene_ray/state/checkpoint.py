"""Per-partition checkpoint manifest for the build (lineage + metrics).

The done-right version of the reference's crude resume
(``strIgnoreUpToPK`` scan-and-skip, ``ChemicalIndex.java:248,268-270`` — M8):
each input fragment commits a manifest JSON row only AFTER its outputs are
atomically renamed into place; a restarted build skips committed fragments
without rescanning them (FIXTURES.md §5 manifest schema).

Metrics recorded per fragment (IndexListener analog, T6 /
``LuceneBenchmark.java:603-619``): docs, postings, sum_dl, bytes written,
the posting spill's bytes and seconds, seconds, docs/sec, postings/sec —
the north rule's per-partition lineage + metrics requirement.
"""

from __future__ import annotations

import json
import os
import time

from org_rdkit_lucene_ray.state.segment import atomic_write_json


def fragment_manifest_path(work_dir: str, fragment_id: int) -> str:
    return os.path.join(work_dir, "manifest", f"frag-{fragment_id:06d}.json")


def load_fragment_manifest(work_dir: str, fragment_id: int) -> dict | None:
    path = fragment_manifest_path(work_dir, fragment_id)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        m = json.load(f)
    return m if m.get("status") == "done" else None


def commit_fragment_manifest(work_dir: str, fragment_id: int, row: dict) -> dict:
    row = dict(row)
    row["fragment_id"] = fragment_id
    row["status"] = "done"
    secs = max(row.get("seconds", 0.0), 1e-9)
    row["docs_per_sec"] = row.get("docs", 0) / secs
    row["postings_per_sec"] = row.get("postings", 0) / secs
    atomic_write_json(row, fragment_manifest_path(work_dir, fragment_id))
    return row


def list_fragment_manifests(work_dir: str) -> list[dict]:
    d = os.path.join(work_dir, "manifest")
    out = []
    if os.path.isdir(d):
        for name in sorted(os.listdir(d)):
            if name.startswith("frag-") and name.endswith(".json"):
                with open(os.path.join(d, name)) as f:
                    m = json.load(f)
                if m.get("status") == "done":
                    out.append(m)
    return out


class Stopwatch:
    def __init__(self):
        self.t0 = time.perf_counter()

    def secs(self) -> float:
        return time.perf_counter() - self.t0
