"""Measurement plumbing shared by the workloads: operation accounting,
in-memory spans, summary statistics and the result record.

Nothing here imports the engine; every number it holds is taken from
outside, around public calls into the engine's layers.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager


class Spans:
    """Spans around calls into engine layers: name, start, end, parent and a
    trace id shared by the spans of one request. Kept in memory and written
    out once, at the end of the run. Disabled, a span records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace: int | None = None):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.records), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "trace": trace, "start": time.perf_counter(), "end": None}
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child = [0.0] * len(self.records)
        for r in self.records:
            if r["parent"] is not None and r["end"] is not None:
                child[r["parent"]] += r["end"] - r["start"]
        out: dict[str, float] = {}
        for r in self.records:
            if r["end"] is not None:
                out[r["name"]] = out.get(r["name"], 0.0) \
                    + (r["end"] - r["start"]) - child[r["id"]]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.records, "self_s": self.self_seconds()}, f)


class Ops:
    """Attempted and failed operations. An exception, a deadline overrun or
    a wrong answer each counts as one failure. ``expect`` registers
    operations a workload plans to run; any it never reaches (cut off by the
    deadline or by an earlier failure) count as attempted and failed.

    The workload thread counts; the supervising thread may ``cut_off`` the
    run at its deadline, after which the counts are frozen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.pending = 0
        self.errors: list[str] = []
        self.last_exc: BaseException | None = None
        self.in_flight: str | None = None
        self._frozen = False
        self._lock = threading.Lock()

    def expect(self, n: int) -> None:
        with self._lock:
            if not self._frozen:
                self.pending += n

    def _start(self) -> None:
        self.attempted += 1
        if self.pending:
            self.pending -= 1

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)

    def fail(self, why: str) -> None:
        with self._lock:
            if not self._frozen:
                self._fail(why)

    def check(self, ok: bool, why: str) -> bool:
        """One answer check counted as one operation."""
        with self._lock:
            if not self._frozen:
                self._start()
                if not ok:
                    self._fail(why)
        return ok

    @contextmanager
    def op(self, what: str):
        """One engine call; an exception inside counts as a failed op and
        propagates (later steps depend on the earlier ones)."""
        with self._lock:
            if not self._frozen:
                self._start()
                self.in_flight = what
        try:
            yield
        except BaseException as e:
            with self._lock:
                if not self._frozen:
                    self._fail(f"{what}: {type(e).__name__}: {e}")
                    self.last_exc = e
            raise
        finally:
            self.in_flight = None

    def cut_off(self, why: str) -> None:
        """Fail the operation in flight (or count one) and freeze the counts."""
        with self._lock:
            if self.in_flight is None:
                self._start()
            self._fail(f"{why} during {self.in_flight or 'set-up'}")
            self._frozen = True

    def close(self) -> None:
        with self._lock:
            self.attempted += self.pending
            self.failed += self.pending
            self.pending = 0
            self._frozen = True


def high_percentile(n: int) -> float | None:
    """Highest of the usual percentiles that keeps at least ten samples
    beyond it, or None when the sample is too small for any."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100.0) >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


class Report:
    """Named metrics of one run, each with its raw samples, so the table can
    print n, median and the high percentile."""

    def __init__(self):
        self.rows: list[tuple[str, str, list[float]]] = []

    def add(self, name: str, unit: str, samples) -> None:
        vals = [float(v) for v in (samples if isinstance(samples, (list, tuple))
                                   else [samples])]
        self.rows.append((name, unit, vals))

    def value(self, name: str) -> float:
        for n, _, vals in self.rows:
            if n == name:
                return median(vals)
        raise KeyError(name)

    def table(self) -> str:
        lines = [f"{'metric':<46} {'unit':<10} {'n':>6} {'median':>14} "
                 f"{'high':>14}  pct"]
        for name, unit, vals in self.rows:
            p = high_percentile(len(vals))
            hi = f"{percentile(vals, p):14.6g}" if p is not None else f"{'-':>14}"
            lines.append(f"{name:<46} {unit:<10} {len(vals):>6} "
                         f"{median(vals):14.6g} {hi}  "
                         f"{'p%g' % p if p is not None else '-'}")
        return "\n".join(lines)
