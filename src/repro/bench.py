"""In-process microbenchmarks for paths the end-to-end benchmark cannot isolate.

The repository benchmark (``perfbench/``) times whole runs and splits them
into per-layer self time; it is what a speed claim rests on.  ``python -m
repro bench`` keeps only what it cannot see: trace generation, the
cycle-tier stepping loop on fixed configurations (single-core OoO and
in-order, four SMT contexts sharing one core — a placement that no
``cycle-validate`` mix makes — and an 8-core shared LLC), the raw chip
solver, and three scenarios whose floors CI has long held
(``engine_dispatch``, ``live_sampling`` with its accuracy budget, and
``interval_point``).

Every scenario writes one entry to one report, ``BENCH_micro.json``: its
best-of-N wall time and throughput, the spread of its N repeats, and the
speedup against the recorded seed baseline
(``benchmarks/perf/baseline.json``).  CI fails when a scenario's
throughput falls more than 25 % below its baseline entry, or when it has
no entry.  These floors catch gross breakage only: with the spreads the
repeats show on a shared host, a best-of-N number cannot resolve a 25 %
change, so no speed claim rests on them.

The report keys are ``instructions``/``instructions_per_second`` for
every scenario (schema compatibility with the recorded baseline); for the
interval scenarios the counted unit is an evaluated grid *point* or a
chip *solve* rather than a simulated instruction — the ``unit`` field on
each entry names it.

Timing methodology: simulation scenarios time only the lockstep execute
loop (:meth:`MulticoreSimulator.execute`), not trace generation or cache
warming, so the number tracks the simulator hot path; ``tracegen`` times
the generator separately.
"""

import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import get_logger
from repro.util.io import atomic_write_json

_LOG = get_logger("bench")

#: Default location of the recorded seed baseline, relative to the cwd
#: (the repo checkout); override with ``--baseline``.
DEFAULT_BASELINE = os.path.join("benchmarks", "perf", "baseline.json")

#: Default report file, relative to the cwd (CI runs from the repo root).
REPORT_FILE = "BENCH_micro.json"

_SCHEMA_VERSION = 1

#: Budget for the live-sampling estimator's chip-CPI error against a full
#: run on the ``live_sampling`` scenario's mix (the accuracy side of the
#: speed/accuracy trade, gated in the same job as the throughput floors).
MAX_LIVE_SAMPLING_ERROR = 0.03


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one timed scenario.

    ``instructions`` is the generic work counter; ``unit`` names what it
    counts ("instr" for the cycle tier, "points"/"solves" for interval
    scenarios).  ``seconds`` is the best repeat's wall time and
    ``spread`` the interquartile range of all repeats over their median
    (None for a single repeat).  ``extras`` carries scenario-specific
    report fields (``live_sampling`` attaches its ``cpi_error``).
    """

    name: str
    instructions: int
    seconds: float
    repeats: int
    spread: Optional[float] = None
    unit: str = "instr"
    extras: Optional[Dict] = None

    @property
    def instructions_per_second(self) -> float:
        return self.instructions / self.seconds if self.seconds else 0.0


# --------------------------------------------------------------------- #
# scenario definitions                                                   #
# --------------------------------------------------------------------- #
#
# Each scenario factory does its setup up front and returns
# ``(instructions, run)`` where ``run`` is a zero-argument body that
# returns the measured wall seconds (the body decides what is timed, so
# simulation scenarios can rebuild cold state per repeat without charging
# setup to the clock).  Budgets are sized so the suite finishes fast.
# A factory may instead return ``(instructions, run, extras)`` where
# ``extras`` is a zero-argument callable run once after all repeats; its
# dict is merged into the scenario's report entry (``live_sampling``'s
# accuracy check rides along this way).


def _scenario_tracegen() -> Tuple[int, Callable[[], float]]:
    """Synthetic trace generation throughput (the workload generator)."""
    from repro.workloads.spec import get_profile
    from repro.workloads.tracegen import TraceGenerator

    profile = get_profile("mcf")
    n = 150_000

    def run() -> float:
        start = time.perf_counter()
        TraceGenerator(profile, seed=13).generate(n)
        return time.perf_counter() - start

    return n, run


def _sim_scenario(
    design, threads, instructions_per_thread: int
) -> Tuple[int, Callable[[], float]]:
    """Time the lockstep execute loop of one prepared simulation.

    Trace generation and cache warming happen outside the clock (they are
    tracked by the ``tracegen`` scenario); each repeat re-prepares so the
    timed loop always starts from identical cold simulator state.
    """
    from repro.sim.multicore import MulticoreSimulator

    sim = MulticoreSimulator(design)
    warmup = instructions_per_thread // 2
    # Every dispatched instruction (warmup prefix included) is simulator
    # work, so the throughput metric counts them all.
    total = len(threads) * (instructions_per_thread + warmup)

    def run() -> float:
        hierarchy, cores = sim.prepare(
            threads, instructions_per_thread, warmup_instructions=warmup
        )
        start = time.perf_counter()
        sim.execute(hierarchy, cores)
        return time.perf_counter() - start

    return total, run


def _scenario_ooo_single() -> Tuple[int, Callable[[], None]]:
    """One big out-of-order core running a mixed compute/memory profile."""
    from repro.core.designs import ChipDesign
    from repro.microarch.config import BIG
    from repro.sim.multicore import ThreadSim
    from repro.workloads.spec import get_profile

    design = ChipDesign(name="bench-1B", cores=(BIG,))
    threads = [ThreadSim(get_profile("tonto"), core_index=0)]
    return _sim_scenario(design, threads, 20_000)


def _scenario_inorder_single() -> Tuple[int, Callable[[], None]]:
    """One small in-order core on a memory-bound profile (stall-heavy)."""
    from repro.core.designs import ChipDesign
    from repro.microarch.config import SMALL
    from repro.sim.multicore import ThreadSim
    from repro.workloads.spec import get_profile

    design = ChipDesign(name="bench-1s", cores=(SMALL,))
    threads = [ThreadSim(get_profile("mcf"), core_index=0)]
    return _sim_scenario(design, threads, 20_000)


def _scenario_smt4() -> Tuple[int, Callable[[], None]]:
    """Four SMT contexts sharing one big core (fetch/ROB contention)."""
    from repro.core.designs import ChipDesign
    from repro.microarch.config import BIG
    from repro.sim.multicore import ThreadSim
    from repro.workloads.spec import get_profile

    design = ChipDesign(name="bench-1B", cores=(BIG,))
    threads = [
        ThreadSim(get_profile(name), core_index=0)
        for name in ("mcf", "libquantum", "tonto", "hmmer")
    ]
    return _sim_scenario(design, threads, 10_000)


def _scenario_8core_llc() -> Tuple[int, Callable[[], None]]:
    """Eight medium cores contending for the shared LLC, DRAM and bus."""
    from repro.core.designs import get_design
    from repro.sim.multicore import ThreadSim
    from repro.workloads.spec import get_profile

    design = get_design("8m")
    mix = ("mcf", "libquantum", "milc", "lbm", "omnetpp", "astar", "mcf", "hmmer")
    threads = [
        ThreadSim(get_profile(name), core_index=i) for i, name in enumerate(mix)
    ]
    return _sim_scenario(design, threads, 8_000)


def _scenario_live_sampling() -> Tuple[int, Callable[[], float], Callable]:
    """Adaptive live-sampled chip run, timed against its accuracy.

    Runs the most sampling-hostile validation mix (four memory-bound
    workloads on 3B2m — shared-LLC and bus contention everywhere the
    estimator has to extrapolate) in live mode.  Throughput counts every
    *virtual* instruction covered, detailed or skipped, so the number
    reflects what sampling buys; the ``cpi_error`` extra re-runs the mix
    in full detail once and reports the chip-CPI disagreement, which
    :func:`check_regressions` holds under
    :data:`MAX_LIVE_SAMPLING_ERROR` in the same job that gates
    throughput — a speedup bought with accuracy fails the gate.
    """
    from repro.core.designs import get_design
    from repro.core.scheduler import Scheduler
    from repro.sim.multicore import MulticoreSimulator, ThreadSim
    from repro.sim.sampling import execute_sampled_live
    from repro.workloads.spec import get_profile

    design = get_design("3B2m")
    mix = ("mcf", "libquantum", "milc", "lbm")
    placement = Scheduler(design, smt=True).place(
        [get_profile(name) for name in mix]
    )

    def threads():
        return [
            ThreadSim(spec.profile, core_index=core_index, seed=11 + slot)
            for core_index, specs in enumerate(placement.core_threads)
            for slot, spec in enumerate(specs)
        ]

    instructions = 10_000
    warmup = instructions // 2
    sim = MulticoreSimulator(design)
    total = len(threads()) * (instructions + warmup)

    def run() -> float:
        hierarchy, cores = sim.prepare(
            threads(), instructions, warmup_instructions=warmup
        )
        start = time.perf_counter()
        execute_sampled_live(hierarchy, cores)
        return time.perf_counter() - start

    def extras() -> Dict:
        full = MulticoreSimulator(design).run(
            threads(), instructions, warmup_instructions=warmup
        )
        live = MulticoreSimulator(design).run(
            threads(),
            instructions,
            warmup_instructions=warmup,
            sampling="live",
        )
        error = abs(live.total_ipc - full.total_ipc) / full.total_ipc
        return {"cpi_error": error}

    return total, run, extras


# --------------------------------------------------------------------- #
# interval-tier scenarios                                                 #
# --------------------------------------------------------------------- #
#
# These time the analytical tier end to end: the same code paths the
# figure grids run.  Warm-start hints are cleared and the study rebuilt
# per repeat, so every repeat measures a cold evaluation.


def _fresh_interval_study():
    from repro.core.study import DesignSpaceStudy, clear_latency_hint_cache

    clear_latency_hint_cache()
    return DesignSpaceStudy()


def _scenario_interval_point() -> Tuple[int, Callable[[], float]]:
    """Per-point evaluation latency: four 24-thread mixes on design 4B."""
    from repro.workloads.multiprogram import heterogeneous_mixes

    mixes = [list(m) for m in heterogeneous_mixes(24)[:4]]
    _fresh_interval_study().evaluate_mix("4B", mixes[0])  # warm module caches

    def run() -> float:
        study = _fresh_interval_study()
        start = time.perf_counter()
        for mix in mixes:
            study.evaluate_mix("4B", mix)
        return time.perf_counter() - start

    return len(mixes), run


def _scenario_interval_solver() -> Tuple[int, Callable[[], float]]:
    """Raw chip-solver throughput: fresh 24-thread solves, no memoization."""
    from repro.core.designs import get_design
    from repro.core.scheduler import Scheduler
    from repro.interval.contention import ChipModel
    from repro.workloads.multiprogram import heterogeneous_mixes, profiles_for

    design = get_design("4B")
    mix = list(heterogeneous_mixes(24)[0])
    placement = Scheduler(design, smt=True).place(profiles_for(mix))
    ChipModel(design).evaluate(placement)  # warm module caches
    solves = 16

    def run() -> float:
        start = time.perf_counter()
        for _ in range(solves):
            ChipModel(design).evaluate(placement)
        return time.perf_counter() - start

    return solves, run


def _scenario_engine_dispatch() -> Tuple[int, Callable[[], float], Callable]:
    """End-to-end engine dispatch: points/s through the full warm-pool path.

    Every other interval scenario times the model kernels directly; this
    one times the orchestration around them — slab dispatch, IPC,
    completion-order streaming — by pushing cache-miss sweeps through a
    persistent 4-worker :class:`~repro.engine.Engine` with no store.  The
    pool is warmed once up front, then each repeat evaluates a *disjoint*
    (design, thread-count) slice of the grid so warm worker-side memos
    never shortcut the compute: every repeat is a genuinely cold slice
    through a genuinely warm pool.  The CI perf gate holds its points/s
    against the committed baseline like every other scenario.

    Parent-side model caches are cleared up front: forked workers inherit
    whatever earlier scenarios warmed in this process, so without the
    reset the number would depend on suite order.
    """
    import gc

    from repro.core.designs import all_designs
    from repro.core.scheduler import clear_isolated_ips_cache
    from repro.core.study import DesignSpaceStudy, clear_latency_hint_cache
    from repro.engine import Engine

    clear_latency_hint_cache()
    clear_isolated_ips_cache()
    gc.collect()
    jobs = 4
    # Rotate over designs whose per-point model cost is within ~15% of
    # each other (the many-core designs are 2-3x costlier per point), so
    # the best-of-N repeat number does not depend on which design a given
    # repeat count happens to land on.
    names = {d.name for d in all_designs()}
    designs = [n for n in ("4B", "3B2m", "2B4m", "1B6m") if n in names]
    # Disjoint (design, two-thread-count) slices; counts start at 3
    # (counts 1-2 have duplicate mixes that dedup away), so every slice
    # is the same 24 unique cache-miss points.
    slices = [
        (name, [2 * pair + 3, 2 * pair + 4])
        for pair in range(8)
        for name in designs
    ]
    points_per_slice = 24
    engine = Engine(jobs=jobs, store=None, slab_size=8)
    # Warm one slice per design so every worker has built every design's
    # interval model before measurement; measured slices then differ only
    # by thread counts, and repeats have uniform cost.
    for _ in designs:
        warm = slices.pop(0)
        n = DesignSpaceStudy(engine=engine).prefetch(
            [warm[0]], "heterogeneous", warm[1]
        )
        assert n == points_per_slice, f"expected 24-point slices, got {n}"

    def run() -> float:
        name, counts = slices.pop(0)
        study = DesignSpaceStudy(engine=engine)
        start = time.perf_counter()
        study.prefetch([name], "heterogeneous", counts)
        return time.perf_counter() - start

    def shutdown() -> Dict:
        engine.shutdown()
        return {}

    return points_per_slice, run, shutdown


SCENARIOS: Dict[str, Callable[[], Tuple[int, Callable[[], None]]]] = {
    "tracegen": _scenario_tracegen,
    "ooo_single": _scenario_ooo_single,
    "inorder_single": _scenario_inorder_single,
    "smt4": _scenario_smt4,
    "8core_llc": _scenario_8core_llc,
    "live_sampling": _scenario_live_sampling,
    "interval_point": _scenario_interval_point,
    "interval_solver": _scenario_interval_solver,
    "engine_dispatch": _scenario_engine_dispatch,
}

#: What each non-cycle scenario counts (cycle scenarios count instructions).
_SCENARIO_UNITS: Dict[str, str] = {
    "interval_point": "points",
    "interval_solver": "solves",
    "engine_dispatch": "points",
}


# --------------------------------------------------------------------- #
# running                                                                #
# --------------------------------------------------------------------- #


def run_scenario(name: str, repeats: int = 5) -> ScenarioResult:
    """Time one scenario; best-of-``repeats`` wall time plus its spread."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}"
        )
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    parts = SCENARIOS[name]()
    instructions, body = parts[0], parts[1]
    extras_fn = parts[2] if len(parts) > 2 else None
    samples = [body() for _ in range(repeats)]
    extras = extras_fn() if extras_fn is not None else None
    return ScenarioResult(
        name=name,
        instructions=instructions,
        seconds=min(samples),
        repeats=repeats,
        spread=_spread(samples),
        unit=_SCENARIO_UNITS.get(name, "instr"),
        extras=extras or None,
    )


def _spread(samples: Sequence[float]) -> Optional[float]:
    """Interquartile range of ``samples`` over their median."""
    if len(samples) < 2:
        return None
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / median


def load_baseline(path: Optional[str] = None) -> Optional[Dict]:
    """Read the recorded baseline, or None if there is none to compare to."""
    path = path or DEFAULT_BASELINE
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or "scenarios" not in data:
        return None
    data.setdefault("path", path)
    return data


def run_suite(
    scenarios: Optional[Sequence[str]] = None,
    repeats: int = 5,
    baseline_path: Optional[str] = None,
) -> Dict:
    """Run the selected scenarios and assemble the ``BENCH_micro`` report."""
    selected = list(scenarios) if scenarios else list(SCENARIOS)
    baseline = load_baseline(baseline_path)
    results: List[ScenarioResult] = []
    for name in selected:
        _LOG.info(f"bench: running {name} (repeats={repeats})")
        results.append(run_scenario(name, repeats=repeats))
    report: Dict = {
        "schema_version": _SCHEMA_VERSION,
        "baseline": None,
        "scenarios": {},
    }
    if baseline is not None:
        report["baseline"] = {
            "path": baseline.get("path"),
            "label": baseline.get("label", "seed"),
        }
    for r in results:
        entry = {
            "instructions": r.instructions,
            "seconds": round(r.seconds, 6),
            "instructions_per_second": round(r.instructions_per_second, 1),
            "repeats": r.repeats,
            "spread": round(r.spread, 3) if r.spread is not None else None,
            "unit": r.unit,
            "speedup_vs_baseline": None,
        }
        if r.extras:
            entry.update(r.extras)
        if baseline is not None:
            base = baseline["scenarios"].get(r.name)
            if isinstance(base, dict) and base.get("instructions_per_second"):
                entry["speedup_vs_baseline"] = round(
                    r.instructions_per_second / base["instructions_per_second"],
                    3,
                )
        report["scenarios"][r.name] = entry
    return report


def format_report(report: Dict) -> str:
    """Human-readable table for stdout."""
    lines = [
        f"{'scenario':16s}{'work':>14s}{'seconds':>10s}"
        f"{'rate':>12s} {'unit':8s}{'spread':>8s}{'vs seed':>9s}"
    ]
    for name, entry in report["scenarios"].items():
        speedup = entry["speedup_vs_baseline"]
        spread = entry["spread"]
        unit = entry.get("unit", "instr")
        lines.append(
            f"{name:16s}{entry['instructions']:>14,d}"
            f"{entry['seconds']:>10.3f}"
            f"{entry['instructions_per_second']:>12,.0f}"
            f" {unit + '/s':8s}"
            f"{f'{spread:.0%}' if spread is not None else '-':>8s}"
            f"{f'{speedup:.2f}x' if speedup is not None else '-':>9s}"
        )
    if report["baseline"] is None:
        lines.append(
            "(no baseline recorded; run with --save-baseline to create one)"
        )
    return "\n".join(lines)


def write_report(report: Dict, path: str) -> None:
    atomic_write_json(path, report)


def check_regressions(
    report: Dict, max_regression: float = 0.25
) -> List[str]:
    """Compare a report against its baseline; return failure messages.

    A scenario fails when its throughput falls more than ``max_regression``
    below the recorded baseline (speedup < 1 - max_regression); the
    failure message names the offending scenario and quotes the exact
    throughput delta so the CI log alone identifies the culprit.  A
    scenario without a baseline entry fails too: a timing with nothing to
    compare against gates nothing.  Independent of any baseline, a
    ``cpi_error`` above :data:`MAX_LIVE_SAMPLING_ERROR` fails (the
    live-sampling scenario's accuracy contract — a throughput win bought
    with estimator error is still a failure).  Returns an empty list when
    everything is within bounds.
    """
    if not 0.0 < max_regression < 1.0:
        raise ValueError(
            f"max_regression must be in (0, 1), got {max_regression}"
        )
    failures: List[str] = []
    floor = 1.0 - max_regression
    for name, entry in report["scenarios"].items():
        speedup = entry.get("speedup_vs_baseline")
        if speedup is None:
            failures.append(f"{name}: no baseline entry to compare against")
        elif speedup < floor:
            unit = entry.get("unit", "instr")
            current = entry["instructions_per_second"]
            recorded = current / speedup if speedup > 0 else 0.0
            failures.append(
                f"{name}: throughput regressed {1.0 - speedup:.1%} vs the "
                f"recorded baseline — {current:,.0f} {unit}/s against "
                f"{recorded:,.0f} {unit}/s ({speedup:.2f}x, allowed floor "
                f"{floor:.2f}x)"
            )
        cpi_error = entry.get("cpi_error")
        if cpi_error is not None and cpi_error > MAX_LIVE_SAMPLING_ERROR:
            failures.append(
                f"{name}: live-sampled chip CPI is {cpi_error:.1%} off the "
                f"full run (budget: {MAX_LIVE_SAMPLING_ERROR:.0%})"
            )
    return failures


def save_baseline(report: Dict, path: str) -> None:
    """Persist the current numbers as the comparison baseline."""
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "label": "seed",
        "scenarios": {
            name: {
                "instructions": entry["instructions"],
                "instructions_per_second": entry["instructions_per_second"],
            }
            for name, entry in report["scenarios"].items()
        },
    }
    atomic_write_json(path, payload)
