"""Program-side processes of the benchmark.

``run.py`` starts each of these in a fresh interpreter, so every pass pays
the set-up a user pays and starts with cold worker pools:

* ``grid`` — one grid pass through ``Engine(jobs=2)`` into a result store;
  with ``--setup-only`` it stops once it is ready to submit the first unit;
* ``cycle`` — one cycle-tier validation pass;
* ``serve`` — the serve daemon: it installs the span wrappers when traced,
  then calls ``repro.cli.main(["serve", ...])``, and reports its peak
  memory once the daemon has drained.

A pass writes one JSON report: when it was ready, when its timed region
started and ended, its outputs and its peak memory.  With ``--spans DIR``
the layers are wrapped and every span lands in ``DIR``.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from perfbench import inputs, spans


def _recorder(args):
    if not args.spans:
        return None
    recorder = spans.Recorder(Path(args.spans))
    spans.install(recorder)
    return recorder


def _peak_rss_mb() -> float:
    """Peak resident memory of this process and of its waited-for children.

    This process's ``ru_maxrss`` would carry over the peak of the process
    that spawned it (it survives ``exec``), so its own peak is read from
    ``VmHWM``.  Workers forked from here start from this image, so their
    ``ru_maxrss``, reported through ``RUSAGE_CHILDREN``, is their own.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        own_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024.0


def _write(path: str, report: dict) -> None:
    Path(path).write_text(json.dumps(report), encoding="utf-8")


def grid(args) -> None:
    from repro.core.study import DesignSpaceStudy
    from repro.engine import Engine, ResultStore

    recorder = _recorder(args)
    size = inputs.TINY if args.tiny else inputs.FULL
    # The engine ``sweep``/``figure --jobs 2`` build: one retry, 32-point
    # slabs, a persistent worker pool and a directory store.
    engine = Engine(
        jobs=inputs.JOBS, store=ResultStore(args.store), retries=1, slab_size=32
    )
    study = DesignSpaceStudy(seed=args.seed, engine=engine)
    ready = time.perf_counter()
    if args.setup_only:
        _write(args.report, {"ready": ready})
        return
    start = time.perf_counter()
    results, table = inputs.evaluate_grid(study, size)
    end = time.perf_counter()
    engine.shutdown()
    if recorder is not None:
        recorder.spill()
    _write(
        args.report,
        {
            "pid": os.getpid(),
            "ready": ready,
            "start": start,
            "end": end,
            "results": [repr(r) for r in results],
            "table": table,
            "engine": engine.stats.as_dict(),
            "peak_rss_mb": _peak_rss_mb(),
        },
    )


def _sim_summary(result) -> dict:
    return {
        "threads": [
            [stats.instructions, stats.cycles, stats.ipc]
            for _core, stats in result.thread_stats
        ],
        "cycles": result.total_cycles,
        "dram_requests": result.dram_requests,
    }


def cycle(args) -> None:
    from repro.analysis.validation import cross_validate, cross_validate_chip
    from repro.core.designs import get_design
    from repro.microarch.config import BIG, MEDIUM, SMALL
    from repro.sim.multicore import MulticoreSimulator
    from repro.workloads.spec import SPEC_ORDER, SPEC_PROFILES

    recorder = _recorder(args)
    size = inputs.TINY if args.tiny else inputs.FULL
    cores = {core.name: core for core in (BIG, MEDIUM, SMALL)}
    plan = inputs.cycle_inputs(args.seed, size, SPEC_ORDER, list(cores))
    budget = size.cycle_instructions

    # The validation helpers return only IPCs; keep each run's full result
    # so the per-thread budgets can be checked.
    captured = []
    run = MulticoreSimulator.run

    def capture(self, *a, **k):
        result = run(self, *a, **k)
        captured.append(result)
        return result

    MulticoreSimulator.run = capture
    ready = time.perf_counter()
    if args.setup_only:
        _write(args.report, {"ready": ready})
        return
    start = time.perf_counter()
    chips = []
    for design_name, mix in plan["chips"]:
        entry = {"design": design_name, "mix": list(mix)}
        for mode, sampling in (("full", None), ("live", "live")):
            captured.clear()
            try:
                interval_ipc, cycle_ipc = cross_validate_chip(
                    get_design(design_name),
                    [SPEC_PROFILES[b] for b in mix],
                    instructions=budget,
                    sampling=sampling,
                )
            except Exception as exc:  # a failed run is counted, not fatal
                entry[mode] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            entry[mode] = {
                "interval_ipc": interval_ipc,
                "cycle_ipc": cycle_ipc,
                **_sim_summary(captured[-1]),
            }
        chips.append(entry)
    singles = []
    for core_name, names in plan["singles"].items():
        captured.clear()
        try:
            xval = cross_validate(
                [SPEC_PROFILES[b] for b in names], cores[core_name], instructions=budget
            )
        except Exception as exc:  # a failed run is counted, not fatal
            singles.extend(
                {"core": core_name, "benchmark": b, "error": f"{type(exc).__name__}: {exc}"}
                for b in names
            )
            continue
        for name, result in zip(names, captured):
            singles.append(
                {
                    "core": core_name,
                    "benchmark": name,
                    "interval_ipc": xval.interval_ipc[name],
                    "cycle_ipc": xval.cycle_ipc[name],
                    **_sim_summary(result),
                }
            )
    end = time.perf_counter()
    if recorder is not None:
        recorder.spill()
    _write(
        args.report,
        {
            "pid": os.getpid(),
            "ready": ready,
            "start": start,
            "end": end,
            "budget": budget,
            "chips": chips,
            "singles": singles,
            "peak_rss_mb": _peak_rss_mb(),
        },
    )


def serve(args) -> None:
    import repro.cli

    recorder = _recorder(args)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    try:
        code = repro.cli.main(["serve", *serve_args])
    finally:
        if recorder is not None:
            recorder.spill()
    _write(args.report, {"peak_rss_mb": _peak_rss_mb()})
    sys.exit(code)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("grid", "cycle"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--report", required=True)
        p.add_argument("--spans")
        p.add_argument("--tiny", action="store_true")
        p.add_argument("--setup-only", action="store_true")
        if name == "grid":
            p.add_argument("--store", required=True)
    p = sub.add_parser("serve")
    p.add_argument("--report", required=True)
    p.add_argument("--spans")
    p.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    {"grid": grid, "cycle": cycle, "serve": serve}[args.command](args)


if __name__ == "__main__":
    main()
