"""Driver-gate conformance: run every `queries()` entry and compare with its
`oracle_sql()` DuckDB result — the same check the driver performs at sf=0.01
(here at sf=0.001 for speed; mark `gate_sf001` runs the bigger one)."""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import time

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF_DIR = os.environ.get("GATE_SF_DIR", "/root/testdata/sf0.001")

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        p = os.path.join(SF_DIR, f"{t}.parquet")
        if os.path.exists(p):
            c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    return c


def _to_df(res) -> pd.DataFrame:
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        res = res.to_pandas()
    elif isinstance(res, pa.Table):
        res = res.to_pandas()
    return res


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    """Driver-style canonicalization: sort columns by name, rows by values."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = pd.to_datetime(df[c]).astype("datetime64[us]")
    df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def _compare(name: str, got: pd.DataFrame, want: pd.DataFrame):
    assert list(sorted(got.columns)) == list(sorted(want.columns)), \
        f"{name}: columns {sorted(got.columns)} != {sorted(want.columns)}"
    assert len(got) == len(want), f"{name}: rows {len(got)} != {len(want)}"
    g, w = _canon(got), _canon(want)
    for c in g.columns:
        # the driver's value-hash is dtype-sensitive: an int64 engine column
        # vs a float64 oracle column (e.g. DuckDB HUGEINT window-SUM through
        # fetch_df) hash-mismatches even when values are equal — the r3
        # `sequence_packing` red row. Guard every gate against that class.
        if len(g) and g[c].dtype != w[c].dtype:
            raise AssertionError(
                f"{name}.{c}: dtype {g[c].dtype} != oracle {w[c].dtype} "
                "(driver value-hash is dtype-sensitive — cast the SQL side)")
        gv, wv = g[c].to_numpy(), w[c].to_numpy()
        if gv.dtype.kind == "f" or wv.dtype.kind == "f":
            np.testing.assert_array_equal(
                gv.astype(np.float64), wv.astype(np.float64),
                err_msg=f"{name}.{c}")
        else:
            assert (gv == wv).all() if len(gv) else True, f"{name}.{c} mismatch"


def _entry_names():
    import __ray_entry__ as e

    return sorted(e.queries().keys())


def _oracled_names():
    """Every entry with a SQL oracle — auto-covers new gate entries."""
    from org_rdkit_lucene_ray.pipelines.gate import ORACLE_SQL

    return sorted(ORACLE_SQL)


@pytest.mark.parametrize("name", _oracled_names())
def test_query_matches_oracle(ray_session, con, name):
    import __ray_entry__ as e

    q = e.queries()[name]
    sql = e.oracle_sql()[name]
    got = _to_df(q(SF_DIR))
    want = con.execute(sql).fetch_df()
    _compare(name, got, want)


def test_rows_only_queries_run(ray_session):
    import __ray_entry__ as e

    qs = e.queries()
    oracles = e.oracle_sql()
    for name in set(qs) - set(oracles):
        out = _to_df(qs[name](SF_DIR))
        assert out is not None  # >= 0 rows with a stable schema
        assert len(out.columns) > 0, name


def test_entry_runs(ray_session):
    import __ray_entry__ as e

    out = _to_df(e.entry())
    assert len(out) > 0
    assert {"query_id", "rank", "doc_id"} <= set(out.columns)


def test_token_jaccard_refuses_oversized_matrix(ray_session, monkeypatch):
    """The exact all-pairs oracle must fail LOUDLY past its docs×vocab
    ceiling instead of allocating a quadratic matrix (r3 verdict #6)."""
    from org_rdkit_lucene_ray.pipelines import gate

    monkeypatch.setattr(gate, "_JACCARD_MAX_CELLS", 10)
    with pytest.raises(ValueError, match="exact-oracle ceiling"):
        gate.q_token_jaccard_pairs(SF_DIR)


# Child-process body of test_join_gates_finish_at_one_cpu: both join gates
# in a fresh 1-CPU Ray cluster, each result written to Parquet for the
# parent to check against DuckDB.
_ONE_CPU_JOIN_GATES = textwrap.dedent("""
    import sys
    import ray
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    from org_rdkit_lucene_ray.pipelines import gate
    sf_dir, out_dir = sys.argv[1], sys.argv[2]
    for name in ("order_revenue", "snapshot_diff", "orders_by_segment"):
        ds = getattr(gate, "q_" + name)(sf_dir)
        ds.to_pandas().to_parquet(f"{out_dir}/{name}.parquet")
    ray.shutdown()
""")


def _session_pids(sid: int) -> list[int]:
    """Live processes of session ``sid`` (read from /proc)."""
    out = []
    for p in os.listdir("/proc"):
        if p.isdigit():
            try:
                if os.getsid(int(p)) == sid:
                    out.append(int(p))
            except OSError:
                pass
    return out


def test_join_gates_finish_at_one_cpu(con, tmp_path):
    """The join gates finish on a 1-CPU Ray cluster and match the DuckDB
    oracle. Neither Ray's hash-shuffle ``Dataset.join`` (its aggregator
    actors) nor an actor-pool broadcast probe finished there: they wait
    for CPUs the cluster does not have. The child runs in its own
    session: on timeout the whole process group — Ray's raylet, GCS and
    workers included — is killed, and no process of that session may
    outlive the test."""
    import __ray_entry__ as e

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_JOIN_GATES, SF_DIR, str(tmp_path)],
        cwd=str(tmp_path), env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=120)
        timed_out = False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        timed_out = True
    deadline = time.monotonic() + 20
    while _session_pids(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.5)
    left = _session_pids(proc.pid)
    if left:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert not timed_out, "join gates did not finish in 120 s at num_cpus=1"
    assert proc.returncode == 0, err[-3000:]
    assert not left, f"Ray processes outlived the child: {left}"
    for name in ("order_revenue", "snapshot_diff", "orders_by_segment"):
        got = pd.read_parquet(tmp_path / f"{name}.parquet")
        _compare(name, got, con.execute(e.oracle_sql()[name]).fetch_df())
