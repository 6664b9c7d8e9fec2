"""The repository benchmark: four seeded workloads, checked and timed from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/README.md`` has the full table of layers each loads):

* ``grid-cold`` — the paper's sweep grid through ``Engine(jobs=2)`` into an
  empty store, as ``sweep``/``figure --jobs 2`` do on first use;
* ``grid-warm`` — the same grid with every point already in the store;
* ``serve-mixed`` — ``repro serve --jobs 2``: bulk sweeps of the grid on one
  connection, an open loop of interactive point queries on the other;
* ``cycle-validate`` — the cycle tier: seeded chip mixes full-detail and
  with live sampling, and single-thread runs on each core type.

Each workload runs as many whole passes as fit ``--seconds`` at its
nominal pass time and reports medians.  Every pass starts in a fresh
interpreter.  Outputs are checked against the program's own oracle paths
after timing.  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics; with ``--trace 1`` passes alternate untraced and traced
and it carries the per-layer metrics.  The line before it is the run
record (versions, seed, commit, per-pass figures).
"""

import argparse
import concurrent.futures
import contextlib
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs, spans  # noqa: E402

WORKLOADS = ("grid-cold", "grid-warm", "serve-mixed", "cycle-validate")

#: Metric name -> unit.  ``BENCHMARK.json`` lists the same names and units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "points_per_s": "points/s",
}
PER_LAYER = {
    "engine.keys_s": "s",
    "engine.keys_us_per_unit": "us",
    "engine.store_read_s": "s",
    "engine.store_write_s": "s",
    "engine.dispatch_s": "s",
    "engine.worker_busy_s": "s",
    "engine.worker_utilization": "ratio",
    "engine.units": "count",
    "engine.store_hits": "count",
    "engine.slabs": "count",
    "interval.solve_s": "s",
    "interval.points": "count",
    "interval.us_per_point": "us",
    "core.scheduler_s": "s",
    "core.study_self_s": "s",
    "power.model_s": "s",
    "serve.prep_s": "s",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p90_ms": "ms",
    "serve.slab_p50_ms": "ms",
    "serve.coalesced_points": "count",
    "serve.generator_late_ms": "ms",
    "interactive_p50_ms": "ms",
    "interactive_p90_ms": "ms",
    "interactive_samples": "count",
    "serve.tail_in_prep_pct": "%",
    "sim.prepare_s": "s",
    "sim.full_s": "s",
    "sim.live_s": "s",
    "sim.full_kips": "kinstr/s",
    "sim.live_kips": "kinstr/s",
    "sim.live_speedup": "ratio",
    "sim.cycles": "count",
    "memory.dram_requests": "count",
    "live_ipc_error_pct": "%",
    "xval_ipc_error_pct": "%",
    "unattributed_s": "s",
    "trace.overhead_pct": "%",
}

#: Seconds budgeted for one pass of each workload, about what a pass takes
#: on the two-core machine the benchmark was sized on; ``--seconds`` is
#: divided by it to fix the pass count.
NOMINAL_PASS_S = {
    "grid-cold": 11.0,
    "grid-warm": 7.0,
    "serve-mixed": 14.0,
    "cycle-validate": 4.25,
}
#: Set-up-only samples per run, half before and half after the timed
#: passes (each pass adds one more).
SETUP_PROBES = 4
#: Upper bound on passes, whatever ``--seconds`` asks for.
MAX_PASSES = 12
#: An interactive query not answered within this many seconds has failed;
#: a failed query counts as this latency, beyond any latency limit.
QUERY_TIMEOUT_S = 30.0
#: Wall-clock limit for any one child process.
CHILD_TIMEOUT_S = 170.0


class Run:
    """One benchmark run: its arguments, scratch directory and child set-up."""

    def __init__(self, workload, seed, seconds, trace, size):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.work = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(ROOT)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self._ids = itertools.count()

    def fresh(self, stem: str) -> Path:
        return self.work / f"{stem}{next(self._ids)}"

    def child(self, command: str, *extra: str, span_dir=None) -> tuple:
        """Run one ``perfbench.child`` pass; returns (spawn time, report)."""
        report_path = self.fresh("report")
        cmd = [
            sys.executable, "-m", "perfbench.child", command,
            "--seed", str(self.seed), "--report", str(report_path), *extra,
        ]
        if span_dir is not None:
            cmd += ["--spans", str(span_dir)]
        if self.size is inputs.TINY:
            cmd.append("--tiny")
        spawned = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace")[-2000:]
            raise RuntimeError(f"perfbench.child {command} exited {proc.returncode}:\n{tail}")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.unlink()
        return spawned, report


def timed_passes(run: Run, one_pass) -> list:
    """As many passes as fit ``run.seconds`` at the workload's nominal pass
    time, so that every commit measured does the same work.

    A traced run alternates untraced and traced passes, at least one each,
    so that the tracing overhead is measured in the same run.
    """
    count = max(1, round(run.seconds / NOMINAL_PASS_S[run.workload]))
    if run.trace:
        count = max(2, count)
    return [one_pass(run.trace and i % 2 == 1) for i in range(min(count, MAX_PASSES))]


def probed(run: Run, probe, body):
    """``(set-up samples, body())``: half the set-up probes run before the
    timed passes and half after, so the samples span the run."""
    if run.trace:
        return [], body()
    half = SETUP_PROBES // 2
    before = [probe() for _ in range(half)]
    result = body()
    return before + [probe() for _ in range(SETUP_PROBES - half)], result


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# --------------------------------------------------------------------- #
# per-layer fold                                                        #
# --------------------------------------------------------------------- #


def _tag_sum(folded: dict, name: str) -> float:
    return sum(span[7] for span, _seconds in folded["tags"][name])


def layer_metrics(folded: dict, wall: float, engine: dict = None) -> dict:
    """Per-layer metrics every workload shares, from one traced pass."""
    self_s = folded["self"]
    calls = folded["calls"]
    points = _tag_sum(folded, "interval.solve")
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(
        {
            "engine.keys_s": self_s["engine.keys"],
            "engine.keys_us_per_unit": (
                self_s["engine.keys"] / calls["engine.keys"] * 1e6
                if calls["engine.keys"] else 0.0
            ),
            "engine.store_read_s": self_s["engine.store_read"],
            "engine.store_write_s": self_s["engine.store_write"],
            "engine.dispatch_s": self_s["engine.dispatch"],
            "engine.slabs": _tag_sum(folded, "engine.dispatch"),
            "interval.solve_s": self_s["interval.solve"],
            "interval.points": points,
            "interval.us_per_point": (
                self_s["interval.solve"] / points * 1e6 if points else 0.0
            ),
            "core.scheduler_s": self_s["core.scheduler"],
            "core.study_self_s": self_s["core.study"],
            "power.model_s": self_s["power.model"],
            "unattributed_s": wall - folded["main_self"],
        }
    )
    if engine is not None:
        metrics.update(
            {
                "engine.worker_busy_s": engine["compute_seconds"],
                "engine.worker_utilization": engine["worker_utilization"],
                "engine.units": engine["units_total"],
                "engine.store_hits": engine["store_hits"],
            }
        )
    return metrics


def per_layer(passes: list) -> dict:
    """Median of each per-layer metric over the traced passes, plus the
    tracing overhead against the untraced passes of the same run."""
    traced = [p for p in passes if p["traced"]]
    untraced_wall = _median(p["wall"] for p in passes if not p["traced"])
    traced_wall = _median(p["wall"] for p in traced)
    metrics = {
        name: _median(p["layers"][name] for p in traced) for name in PER_LAYER
    }
    metrics["trace.overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
    return metrics


# --------------------------------------------------------------------- #
# grid-cold and grid-warm                                               #
# --------------------------------------------------------------------- #


def grid_pass(run: Run, store: Path, traced: bool) -> dict:
    span_dir = run.fresh("spans") if traced else None
    spawned, report = run.child("grid", "--store", str(store), span_dir=span_dir)
    wall = report["end"] - report["start"]
    result = {
        "traced": traced,
        "wall": wall,
        "setup": report["ready"] - spawned,
        "rss": report["peak_rss_mb"],
        "points": len(report["results"]),
        "points_per_s": len(report["results"]) / wall,
        "attempted": len(report["results"]),
        "failed": report["engine"]["units_failed"],
        "report": report,
    }
    if traced:
        pid = report["pid"]
        recorded = spans.load(span_dir)
        folded = spans.fold(recorded, lambda s: s[0] == pid and s[1] == "MainThread")
        result["layers"] = layer_metrics(folded, wall, report["engine"])
        result["spans"] = recorded
    return result


def grid_setup(run: Run) -> float:
    spawned, report = run.child(
        "grid", "--store", str(run.fresh("probe-store")), "--setup-only"
    )
    return report["ready"] - spawned


def grid_workload(run: Run, warm: bool) -> dict:
    oracle = None
    extra_reports = []
    if warm:
        # Filled untimed by the grid-cold path of this same checkout; the
        # oracle is computed meanwhile, as nothing is timed yet.
        store = run.fresh("store")
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(checks.grid_oracle, run.seed, run.size)
            extra_reports.append(grid_pass(run, store, traced=False)["report"])
            oracle = future.result()

        def one_pass(traced):
            return grid_pass(run, store, traced)

    else:

        def one_pass(traced):
            store = run.fresh("store")
            try:
                return grid_pass(run, store, traced)
            finally:
                shutil.rmtree(store, ignore_errors=True)

    setups, passes = probed(
        run, lambda: grid_setup(run), lambda: timed_passes(run, one_pass)
    )
    if oracle is None:
        oracle = checks.grid_oracle(run.seed, run.size)
    problems = []
    for report in extra_reports + [p["report"] for p in passes]:
        problems += checks.check_grid(report, oracle)
    return {
        "passes": passes,
        "setups": setups + [p["setup"] for p in passes],
        "problems": problems,
    }


# --------------------------------------------------------------------- #
# serve-mixed                                                           #
# --------------------------------------------------------------------- #


def _maybe_span(recorder, name, tag=None):
    return recorder.span(name, tag) if recorder is not None else contextlib.nullcontext()


def _stop(proc) -> None:
    """Make sure a daemon we started is gone and reaped."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Daemon:
    """One ``repro serve --jobs 2`` process on a unix socket in the run's
    scratch directory, with an empty store.

    It starts through the ``perfbench.child serve`` launcher, which
    installs the span wrappers first when traced, so the daemon's pool
    workers inherit them, and reports the daemon's peak memory on exit.
    """

    def __init__(self, run: Run, span_dir=None):
        base = run.fresh("daemon")
        # Relative to the working directory the daemon inherits, which
        # keeps the path short enough for a unix socket.
        socket_path = os.path.relpath(f"{base}.sock")
        self.address = f"unix:{socket_path}"
        self.report = Path(f"{base}.json")
        cmd = [sys.executable, "-m", "perfbench.child", "serve", "--report", str(self.report)]
        if span_dir is not None:
            cmd += ["--spans", str(span_dir)]
        cmd += [
            "--", "--socket", socket_path, "--jobs", str(inputs.JOBS),
            "--cache-dir", f"{base}-store",
        ]
        self.log = open(f"{base}.log", "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=run.env, stdout=self.log, stderr=subprocess.STDOUT
        )
        try:
            self.ready = self._wait_ready()
        except BaseException:
            self.close()
            raise

    def _wait_ready(self) -> float:
        from repro.serve.client import ServeConnectionError

        deadline = self.spawned + 60.0
        while True:
            try:
                with self.client(timeout=5.0) as client:
                    client.ping()
                return time.perf_counter()
            except (ServeConnectionError, OSError):
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"serve daemon exited with {self.proc.returncode} during start-up"
                    ) from None
                if time.perf_counter() > deadline:
                    raise RuntimeError("serve daemon did not answer ping within 60 s") from None
                time.sleep(0.005)

    def client(self, name=None, timeout=60.0):
        from repro.serve.client import ServeClient

        return ServeClient(self.address, client_name=name, timeout=timeout)

    def shutdown(self) -> float:
        """Drain and exit through the ``shutdown`` op, then reap; returns
        the daemon's peak memory (MB), its workers included."""
        with self.client() as client:
            client.shutdown()
        self.proc.wait(timeout=120)
        self.close()
        return json.loads(self.report.read_text(encoding="utf-8"))["peak_rss_mb"]

    def close(self) -> None:
        _stop(self.proc)
        self.log.close()


def serve_setup(run: Run) -> float:
    daemon = Daemon(run)
    try:
        daemon.shutdown()
    finally:
        daemon.close()
    return daemon.ready - daemon.spawned


def serve_pass(run: Run, designs, sweep_points, queries, traced) -> dict:
    from repro.serve.client import ServeConnectionError, ServeError

    size = run.size
    span_dir = run.fresh("spans") if traced else None
    recorder = spans.Recorder(span_dir) if traced else None
    daemon = Daemon(run, span_dir)
    bulk = {"tables": {}, "windows": [], "points": 0, "failed": 0, "errors": []}

    def bulk_client():
        """Two bulk sweeps of the grid, one after the other."""
        try:
            with daemon.client("bulk", timeout=CHILD_TIMEOUT_S) as client:
                for kind in inputs.WORKLOAD_KINDS:
                    params = {
                        "designs": designs,
                        "kind": kind,
                        "max_threads": size.grid_max_threads,
                        "smt": True,
                    }
                    try:
                        with _maybe_span(recorder, "bulk.submit", kind):
                            sent = time.perf_counter()
                            job = client.submit("sweep", params, priority="bulk")
                            accepted = time.perf_counter()
                        with _maybe_span(recorder, "bulk.wait", kind):
                            status = client.wait(job)
                    except ServeError as exc:
                        bulk["failed"] += sweep_points[kind]
                        bulk["errors"].append(f"{kind} sweep: {exc}")
                        continue
                    # The daemon accepts a submit once its prep thread has
                    # derived the sweep's keys: this window is the prep.
                    bulk["windows"].append((sent, accepted))
                    bulk["tables"][kind] = status["result"]["mean_stp"]
                    bulk["points"] += status["total_points"]
        except ServeConnectionError as exc:
            bulk["errors"].append(f"bulk connection: {exc}")
            bulk["failed"] = sum(sweep_points.values()) - bulk["points"]
        finally:
            bulk["end"] = time.perf_counter()

    latencies, lateness, payloads, errors = [], [], [], []
    try:
        start = time.perf_counter()
        thread = threading.Thread(target=bulk_client, name="bulk")
        thread.start()
        try:
            with daemon.client("interactive", timeout=QUERY_TIMEOUT_S + 30) as client:
                for index, (design, mix) in enumerate(queries):
                    due = start + index / size.interactive_rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    lateness.append(time.perf_counter() - due)
                    try:
                        with _maybe_span(recorder, "interactive", index):
                            with _maybe_span(recorder, "interactive.submit", index):
                                job = client.submit(
                                    "point",
                                    {"design": design, "mix": list(mix), "smt": True},
                                    priority="interactive",
                                )
                            with _maybe_span(recorder, "interactive.wait", index):
                                status = client.wait(job, timeout=QUERY_TIMEOUT_S)
                        payloads.append(status["result"]["point"])
                        latencies.append(time.perf_counter() - due)
                    except (ServeError, ServeConnectionError) as exc:
                        payloads.append(None)
                        latencies.append(QUERY_TIMEOUT_S)
                        errors.append(f"query {index}: {exc}")
        finally:
            thread.join()
        end = time.perf_counter()
        with daemon.client() as client:
            telemetry = client.metrics(window=1)["snapshot"]
            stats = client.stats()
        rss = daemon.shutdown()
    finally:
        daemon.close()

    # The timed region is the bulk work: the interactive schedule has a
    # fixed length, which would otherwise set a floor under wall_s.
    wall = bulk["end"] - start
    histograms = telemetry["histograms"]
    queue_wait = histograms.get("serve.job_queue_wait_seconds", {})
    slab = histograms.get("serve.slab_seconds", {})
    tail_cut = _percentile(latencies, 90)
    tail = [
        (start + i / size.interactive_rate, start + i / size.interactive_rate + lat)
        for i, lat in enumerate(latencies)
        if lat >= tail_cut
    ]
    in_prep = sum(
        1 for due, done in tail
        if any(due < accepted and done > sent for sent, accepted in bulk["windows"])
    )
    layers = {
        "serve.queue_wait_p50_ms": queue_wait.get("p50", 0.0) * 1e3,
        "serve.queue_wait_p90_ms": queue_wait.get("p90", 0.0) * 1e3,
        "serve.slab_p50_ms": slab.get("p50", 0.0) * 1e3,
        "serve.coalesced_points": stats["counters"]["points_coalesced"],
        "serve.generator_late_ms": statistics.fmean(lateness) * 1e3 if lateness else 0.0,
        "interactive_p50_ms": _percentile(latencies, 50) * 1e3,
        "interactive_p90_ms": tail_cut * 1e3,
        "interactive_samples": len(latencies),
        "serve.tail_in_prep_pct": 100.0 * in_prep / len(tail) if tail else 0.0,
    }
    result = {
        "traced": traced,
        "wall": wall,
        "setup": daemon.ready - daemon.spawned,
        "rss": rss,
        "points": bulk["points"],
        "points_per_s": bulk["points"] / wall,
        "schedule_s": end - start,
        "attempted": sum(sweep_points.values()) + len(queries),
        "failed": bulk["failed"] + len(errors),
        "errors": bulk["errors"] + errors[:5],
        "bulk": bulk["tables"],
        "payloads": payloads,
        "bulk_submits_s": [round(sent - start, 3) for sent, _a in bulk["windows"]],
        "prep_windows_s": [round(a - s, 3) for s, a in bulk["windows"]],
    }
    if traced:
        recorded = spans.load(span_dir) + recorder.spans
        pid = daemon.proc.pid
        folded = spans.fold(
            recorded, lambda s: s[0] == pid and s[1].startswith("serve-dispatch")
        )
        # The daemon's spans cover the interactive schedule too, so the
        # fold's identity is over the whole pass, not just the bulk work.
        metrics = layer_metrics(folded, end - start, stats["engine"])
        metrics.update(layers)
        metrics["serve.prep_s"] = sum(
            seconds
            for span, seconds in spans.self_times(recorded)
            if span[4] == "engine.keys" and span[1].startswith("serve-prep")
        )
        result["layers"] = metrics
        result["spans"] = recorded
    return result


def serve_workload(run: Run) -> dict:
    from repro.core.study import DesignSpaceStudy
    from repro.workloads.spec import SPEC_ORDER

    size = run.size
    study = DesignSpaceStudy(seed=inputs.DAEMON_STUDY_SEED)
    designs = inputs.grid_designs(study, size)
    counts = range(1, size.grid_max_threads + 1)
    # Points per sweep job: the daemon evaluates each distinct mix once.
    sweep_points = {
        kind: len(designs) * len({tuple(m) for n in counts for m in study.mixes(kind, n)})
        for kind in inputs.WORKLOAD_KINDS
    }
    grid_mixes = {
        tuple(mix)
        for kind in inputs.WORKLOAD_KINDS
        for n in range(1, size.interactive_max_threads + 1)
        for mix in study.mixes(kind, n)
    }
    queries = inputs.interactive_queries(run.seed, size, designs, SPEC_ORDER, grid_mixes)
    setups, passes = probed(
        run,
        lambda: serve_setup(run),
        lambda: timed_passes(
            run, lambda traced: serve_pass(run, designs, sweep_points, queries, traced)
        ),
    )
    oracle = checks.serve_oracle(size, queries)
    problems = []
    for p in passes:
        problems += checks.check_serve(p["bulk"], p["payloads"], oracle)
        problems += p["errors"]
    return {
        "passes": passes,
        "setups": setups + [p["setup"] for p in passes],
        "problems": problems,
    }


# --------------------------------------------------------------------- #
# cycle-validate                                                        #
# --------------------------------------------------------------------- #


def accuracy(report: dict) -> dict:
    """Live-sampling and cross-tier IPC errors of one pass (deterministic)."""
    live = [
        abs(c["live"]["cycle_ipc"] - c["full"]["cycle_ipc"]) / c["full"]["cycle_ipc"]
        for c in report["chips"]
        if "error" not in c["full"] and "error" not in c["live"]
    ]
    full_detail = [c["full"] for c in report["chips"]] + report["singles"]
    xval = [
        abs(1.0 - r["cycle_ipc"] / r["interval_ipc"])
        for r in full_detail
        if "error" not in r
    ]
    return {
        "live_ipc_error_pct": 100.0 * max(live, default=0.0),
        "xval_ipc_error_pct": 100.0 * statistics.fmean(xval) if xval else 0.0,
    }


def cycle_pass(run: Run, traced: bool) -> dict:
    span_dir = run.fresh("spans") if traced else None
    spawned, report = run.child("cycle", span_dir=span_dir)
    wall = report["end"] - report["start"]
    runs = checks.cycle_runs(report)
    failed = sum(1 for _label, r in runs if "error" in r)
    result = {
        "traced": traced,
        "wall": wall,
        "setup": report["ready"] - spawned,
        "rss": report["peak_rss_mb"],
        "points": len(runs) - failed,
        "points_per_s": (len(runs) - failed) / wall,
        "attempted": len(runs),
        "failed": failed,
        "report": report,
    }
    if traced:
        pid = report["pid"]
        recorded = spans.load(span_dir)
        folded = spans.fold(recorded, lambda s: s[0] == pid and s[1] == "MainThread")
        metrics = layer_metrics(folded, wall)
        metrics.update(sim_metrics(folded))
        metrics.update(accuracy(report))
        result["layers"] = metrics
        result["spans"] = recorded
    return result


def sim_metrics(folded: dict) -> dict:
    """Host time of the cycle tier, split by sampling mode."""
    runs = folded["tags"]["sim.run"]
    full = [(span[7], s) for span, s in runs if span[7]["mode"] == "full"]
    live = [(span[7], s) for span, s in runs if span[7]["mode"] == "live"]
    full_s = sum(s for _t, s in full)
    live_s = sum(s for _t, s in live)
    live_designs = {t["design"] for t, _s in live}
    full_on_live_mixes = sum(s for t, s in full if t["design"] in live_designs)

    def kips(group, seconds):
        return sum(t.get("instructions", 0) for t, _s in group) / seconds / 1e3 if seconds else 0.0

    return {
        "sim.prepare_s": folded["self"]["sim.prepare"],
        "sim.full_s": full_s,
        "sim.live_s": live_s,
        "sim.full_kips": kips(full, full_s),
        "sim.live_kips": kips(live, live_s),
        "sim.live_speedup": full_on_live_mixes / live_s if live_s else 0.0,
        "sim.cycles": sum(t.get("cycles", 0) for t, _s in full + live),
        "memory.dram_requests": sum(t.get("dram_requests", 0) for t, _s in full + live),
    }


def cycle_setup(run: Run) -> float:
    spawned, report = run.child("cycle", "--setup-only")
    return report["ready"] - spawned


def cycle_workload(run: Run) -> dict:
    setups, passes = probed(
        run, lambda: cycle_setup(run), lambda: timed_passes(run, lambda t: cycle_pass(run, t))
    )
    problems = []
    for p in passes:
        problems += checks.check_cycle(p["report"])
    return {
        "passes": passes,
        "setups": setups + [p["setup"] for p in passes],
        "problems": problems,
    }


# --------------------------------------------------------------------- #
# the result                                                            #
# --------------------------------------------------------------------- #


def end_to_end(outcome: dict) -> dict:
    untraced = [p for p in outcome["passes"] if not p["traced"]]
    return {
        "wall_s": _median(p["wall"] for p in untraced),
        "setup_s": _median(outcome["setups"]),
        "peak_rss_mb": max(p["rss"] for p in untraced),
        "points_per_s": _median(p["points_per_s"] for p in untraced),
    }


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def run_record(run: Run, outcome: dict) -> dict:
    import numpy

    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "REPRO_SIM_KERNEL": os.environ.get("REPRO_SIM_KERNEL"),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "setups_s": outcome["setups"],
        "passes": [
            {
                k: v for k, v in p.items()
                if k not in ("report", "spans", "bulk", "payloads")
            }
            for p in outcome["passes"]
        ],
        "problems": outcome["problems"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, size=inputs.FULL) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program is missing ({SRC / 'repro'}); "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), size)
    try:
        if run.workload == "grid-cold":
            outcome = grid_workload(run, warm=False)
        elif run.workload == "grid-warm":
            outcome = grid_workload(run, warm=True)
        elif run.workload == "serve-mixed":
            outcome = serve_workload(run)
        else:
            outcome = cycle_workload(run)
        if run.trace:
            traced = [p for p in outcome["passes"] if p["traced"]]
            trace_path = ROOT / ".perfbench" / f"trace-{run.workload}-seed{run.seed}.json"
            spans.write_chrome_trace(traced[0]["spans"], trace_path)
            values, units = per_layer(outcome["passes"]), PER_LAYER
        else:
            values, units = end_to_end(outcome), END_TO_END
        record = run_record(run, outcome)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    passes = outcome["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for problem in outcome["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(
        json.dumps(
            {
                "correct": not outcome["problems"] and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
