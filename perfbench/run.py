#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {build,serve,update,curate} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root: the engine is imported from the current
directory, never from an installed copy, and every file the run makes
(inputs, indexes, Ray's session directory, the span dump) stays under it.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. Everything above that
line is a readable table of every number the run took.
"""

from __future__ import annotations

import os
import time


def _process_age() -> float:
    """Seconds since this process started (0 where /proc is missing)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


PROCESS_START = time.perf_counter() - _process_age()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

# The workload (set-up, measurement, checks) must end by DEADLINE_S; a
# hang past it is cut off and counted as a failed operation, and so are
# the checks it never reached. Shutting Ray down then has until
# HARD_DEADLINE_S, after which the process kills its descendants and
# exits, inside the 180 s a run may take.
DEADLINE_S = 140
HARD_DEADLINE_S = 170
OBJECT_STORE_BYTES = 512 * 2**20
# Unix socket paths are limited to 107 bytes; Ray appends up to 64 bytes
# of session and socket names to its temp dir.
MAX_RAY_TMP_LEN = 43
SCRATCH = ".pbtmp"     # per-run inputs, indexes and Ray sessions; removed after
OUT = ".pbout"         # span dumps of traced runs


def nproc() -> int:
    """CPUs this process may use, by the rule of coreutils ``nproc``
    (which honours OMP_NUM_THREADS)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return os.cpu_count() or 1


def _ppid_state(pid: int) -> tuple[int, str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
    except (OSError, ValueError):
        return None
    return int(ppid), state


def running(pids: list[int]) -> list[int]:
    """The pids still running; exited children of this process are reaped."""
    out = []
    for p in pids:
        ps = _ppid_state(p)
        if ps is None:
            continue
        if ps[1] == "Z":
            if ps[0] == os.getpid():
                os.waitpid(p, os.WNOHANG)
            continue
        out.append(p)
    return out


def descendants() -> list[int]:
    """Pids of every running process below this one."""
    parent = {int(d): ps[0] for d in os.listdir("/proc") if d.isdigit()
              if (ps := _ppid_state(int(d))) is not None and ps[1] != "Z"}
    out, frontier = [], [os.getpid()]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out.extend(kids)
        frontier.extend(kids)
    return out


def stop(pids: list[int], timeout: float) -> list[int]:
    """Wait for every process in ``pids`` to end; SIGKILL those still running
    at ``timeout``. Returns the pids that had to be killed."""
    end = time.monotonic() + timeout
    while running(pids) and time.monotonic() < end:
        time.sleep(0.2)
    killed = running(pids)
    for p in killed:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while running(killed) and time.monotonic() < end + 5:
        time.sleep(0.1)
    return killed


def ray_temp_dir(root: str) -> str:
    """Ray's session directory for this run: inside the checkout unless its
    path is too long for Ray's socket names."""
    d = os.path.join(root, SCRATCH, f"r{os.getpid()}")
    if len(d) > MAX_RAY_TMP_LEN:
        return tempfile.mkdtemp(prefix="pbr")
    os.makedirs(d)
    return d


def start_ray(root: str, tmp: str, ray_tmp: str) -> None:
    import logging

    import ray

    # workers import the engine from the checkout and write temp files into it
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = tmp
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=ray_tmp)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "org_rdkit_lucene_ray", "__init__.py")):
        print("perfbench: no org_rdkit_lucene_ray/ in the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, root)
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(root, SCRATCH), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, SCRATCH))
    ray_tmp = ray_temp_dir(root)
    run = Run(tmp, args.seed % 2**31, args.seconds, bool(args.trace))
    wl = WORKLOADS[args.workload](run)

    def hard_stop():
        print(f"perfbench: still running at {HARD_DEADLINE_S} s; killing", file=sys.stderr)
        stop(descendants(), 0)
        os._exit(3)

    watchdog = threading.Timer(HARD_DEADLINE_S - (time.perf_counter() - PROCESS_START), hard_stop)
    watchdog.daemon = True
    watchdog.start()
    phases: dict[str, float] = {}

    def phase(name: str, fn, *a) -> None:
        t = time.perf_counter()
        fn(*a)
        phases[name] = time.perf_counter() - t

    def failed(e: Exception) -> None:
        traceback.print_exc()
        if run.ops.last_exc is not e:      # not already counted against an op
            run.ops.fail(f"{type(e).__name__}: {e}")

    def body() -> None:
        try:
            phase("prepare", wl.prepare)
            run.e2e["setup_s"] = time.perf_counter() - PROCESS_START - phases["inputs"]
            phase("measure", wl.measure)
            phase("verify", wl.verify)
            if run.trace:
                run.layers.add("setup.ray_init_s", "s", phases["ray_init"])
                run.layers.add("setup.prepare_s", "s", phases["prepare"])
                run.spans.enabled = True
                phase("layers", wl.layer_metrics)
                run.layers.add("trace.overhead_ratio", "ratio", run.overhead_ratio(wl.unit_secs))
        except Exception as e:  # the run's boundary: report, then still clean up
            failed(e)

    # Ray's daemons die with the thread that started them (parent-death
    # signal), so this thread starts Ray and lives to the end. The engine
    # calls run in one workload thread, which this thread only waits for:
    # a blocking Ray call cannot be interrupted, so a hang is cut off here.
    worker = threading.Thread(target=body, name="workload", daemon=True)
    try:
        phase("inputs", wl.inputs)
        phase("ray_init", start_ray, root, tmp, ray_tmp)
        worker.start()
        worker.join(DEADLINE_S - (time.perf_counter() - PROCESS_START))
    except Exception as e:  # inputs or Ray start-up failed
        failed(e)
    hung = worker.is_alive()
    if hung:
        run.ops.cut_off(f"{args.workload} passed its {DEADLINE_S} s deadline")
        print(f"perfbench: cut off at the {DEADLINE_S} s deadline", file=sys.stderr)
        # Ray's core worker ends this process when its raylet goes away
        # under a running call, so report first, then kill every process
        # the run started and leave without joining the stuck thread.
        emit(args, run, phases)
        stop(descendants(), 0)
        cleanup(tmp, ray_tmp)
        os._exit(0)
    t = time.perf_counter()
    import ray

    # Ray's daemons are re-parented when the raylet exits, so take the
    # process tree before shutting down and wait on every pid in it
    procs = descendants()
    ray.shutdown()
    killed = stop(procs + descendants(), 15)
    if killed:
        print(f"perfbench: killed leftover processes {killed}", file=sys.stderr)
    cleanup(tmp, ray_tmp)
    phases["shutdown"] = time.perf_counter() - t
    watchdog.cancel()
    emit(args, run, phases)
    return 0


def cleanup(*dirs: str) -> None:
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)


def emit(args, run, phases: dict[str, float]) -> None:
    """Print the readable tables, then the JSON result as the last line."""
    run.ops.close()
    root = os.getcwd()
    if run.trace:
        out_dir = os.path.join(root, OUT)
        os.makedirs(out_dir, exist_ok=True)
        run.spans.dump(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.json"))
    if "setup_s" in run.e2e:
        run.report.add("setup_s", "s", run.e2e["setup_s"])
    run.report.add("failed_ops_share", "ratio", run.ops.failed / max(run.ops.attempted, 1))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  num_cpus {nproc()}")
    print("phases (s): " + "  ".join(f"{k} {v:.2f}" for k, v in phases.items()))
    print(run.report.table())
    if run.trace:
        print()
        print(run.layers.table())
    for err in run.ops.errors:
        print(f"FAILED: {err}")

    # the metrics BENCHMARK.json declares: per-layer when traced, else end-to-end
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if run.trace else "end_to_end"]
    values = ({r[0]: run.layers.value(r[0]) for r in run.layers.rows}
              if run.trace else run.e2e)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    print(json.dumps({"correct": run.ops.failed == 0 and len(metrics) == len(declared),
                      "attempted": max(run.ops.attempted, 1),
                      "failed": run.ops.failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    sys.exit(main())
