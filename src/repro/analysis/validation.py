"""Cross-validation of the interval (fast) tier against the cycle-level tier.

The design-space study runs on the interval model, as the paper ran Sniper.
To trust it, this module runs the same single-thread points through the
cycle-level simulator and reports per-benchmark IPC ratios and the Spearman
rank correlation between the two tiers — the repository's tests require the
rankings to agree and the ratios to stay within a band.
"""

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.designs import ChipDesign
from repro.interval.contention import isolated_ips
from repro.microarch.config import BIG, CoreConfig
from repro.sim.multicore import MulticoreSimulator, ThreadSim
from repro.workloads.profiles import BenchmarkProfile


@dataclass(frozen=True)
class CrossValidation:
    """Interval-vs-cycle agreement for a set of benchmarks on one core."""

    core_name: str
    interval_ipc: Dict[str, float]
    cycle_ipc: Dict[str, float]

    @property
    def ratios(self) -> Dict[str, float]:
        """cycle / interval IPC per benchmark (1.0 = perfect agreement)."""
        return {
            name: self.cycle_ipc[name] / self.interval_ipc[name]
            for name in self.interval_ipc
        }

    @property
    def rank_correlation(self) -> float:
        """Spearman rank correlation between the two tiers' IPC rankings."""
        names = sorted(self.interval_ipc)
        r1 = _ranks([self.interval_ipc[n] for n in names])
        r2 = _ranks([self.cycle_ipc[n] for n in names])
        n = len(names)
        if n < 2:
            return 1.0
        d2 = sum((a - b) ** 2 for a, b in zip(r1, r2))
        return 1.0 - 6.0 * d2 / (n * (n**2 - 1))


def _ranks(values: Sequence[float]) -> List[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    for rank, idx in enumerate(order):
        ranks[idx] = float(rank)
    return ranks


def cross_validate(
    profiles: Sequence[BenchmarkProfile],
    core: CoreConfig = BIG,
    instructions: int = 20_000,
    sampling=None,
) -> CrossValidation:
    """Run each profile alone on ``core`` through both tiers.

    ``sampling="live"`` switches the cycle-level runs to live sampled
    simulation (see :mod:`repro.sim.sampling`), exactly as
    :meth:`~repro.sim.multicore.MulticoreSimulator.run` does.
    """
    design = ChipDesign(name=f"xval-{core.name}", cores=(core,))
    sim = MulticoreSimulator(design)
    interval = {}
    cycle = {}
    for p in profiles:
        interval[p.name] = isolated_ips(p, core) / (core.frequency_ghz * 1e9)
        result = sim.run([ThreadSim(p, core_index=0)], instructions, sampling=sampling)
        cycle[p.name] = result.ipc_of(0)
    return CrossValidation(
        core_name=core.name, interval_ipc=interval, cycle_ipc=cycle
    )


def cross_validate_chip(
    design: ChipDesign,
    mix: Sequence[BenchmarkProfile],
    instructions: int = 10_000,
    sampling=None,
) -> Tuple[float, float]:
    """Total chip IPC for one scheduled mix, from both tiers.

    Uses the study scheduler to place the mix, then evaluates the same
    placement in the interval solver and executes it in the cycle-level
    simulator.  Returns ``(interval_total_ipc, cycle_total_ipc)`` — the
    chip-level agreement check that includes SMT sharing, LLC contention,
    and bus/bank pressure rather than isolated threads.
    """
    from repro.core.scheduler import Scheduler
    from repro.interval.contention import ChipModel

    placement = Scheduler(design, smt=True).place(list(mix))
    interval_result = ChipModel(design).evaluate(placement)
    interval_total = sum(t.ipc for t in interval_result.threads)

    threads = []
    for core_index, specs in enumerate(placement.core_threads):
        for slot, spec in enumerate(specs):
            threads.append(
                ThreadSim(spec.profile, core_index=core_index, seed=11 + slot)
            )
    cycle_result = MulticoreSimulator(design).run(
        threads, instructions, sampling=sampling
    )
    return interval_total, cycle_result.total_ipc
