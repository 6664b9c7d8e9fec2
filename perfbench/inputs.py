"""The workloads' seeded inputs and the size of one pass of each.

Every input is a pure function of the workload seed: the same seed gives
the same heterogeneous grid mixes, the same interactive queries and the
same cycle-tier mixes.  The program receives only these generated inputs.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Mix kinds of the paper's grid, in the order a pass evaluates them.
WORKLOAD_KINDS = ("homogeneous", "heterogeneous")

#: The serve daemon's own study draws its heterogeneous mixes with this
#: seed (``DesignSpaceStudy()``'s default), whatever the workload seed.
DAEMON_STUDY_SEED = 42

#: Worker processes for every engine the benchmark starts: the machine
#: this benchmark was sized on has two cores.
JOBS = 2


@dataclass(frozen=True)
class Size:
    """How much work one pass of each workload does."""

    #: Grid designs; ``None`` is the study's nine designs.
    grid_designs: Optional[Tuple[str, ...]]
    grid_max_threads: int
    interactive_queries: int
    #: Scheduled interactive sends per second (open loop).
    interactive_rate: float
    interactive_max_threads: int
    cycle_designs: Tuple[str, ...]
    cycle_threads: int
    cycle_instructions: int
    #: Benchmarks run alone on each core type by ``cross_validate``.
    xval_benchmarks: int


#: The benchmark's workloads: the paper's full grid.
FULL = Size(
    grid_designs=None,
    grid_max_threads=24,
    interactive_queries=130,
    interactive_rate=10.0,
    interactive_max_threads=8,
    cycle_designs=("4B", "3B2m", "2B10s"),
    cycle_threads=4,
    cycle_instructions=6000,
    xval_benchmarks=2,
)

#: A pass small enough for the benchmark's self-test.
TINY = Size(
    grid_designs=("4B", "2B10s"),
    grid_max_threads=2,
    interactive_queries=6,
    interactive_rate=50.0,
    interactive_max_threads=3,
    cycle_designs=("3B2m",),
    cycle_threads=2,
    cycle_instructions=400,
    xval_benchmarks=1,
)


def grid_designs(study, size: Size) -> List[str]:
    return list(size.grid_designs or study.designs)


def evaluate_grid(study, size: Size):
    """Evaluate the grid the way ``sweep``/``figure`` do.

    Each kind is prefetched as one batch, then the per-count harmonic-mean
    STP table is read.  Returns every :class:`MixResult` in grid order and
    the mean-STP table ``{kind: {design: [stp per thread count]}}``.
    """
    designs = grid_designs(study, size)
    counts = range(1, size.grid_max_threads + 1)
    for kind in WORKLOAD_KINDS:
        study.prefetch(designs, kind, counts)
    table = {
        kind: {d: [study.mean_stp(d, kind, n) for n in counts] for d in designs}
        for kind in WORKLOAD_KINDS
    }
    results = [
        result
        for kind in WORKLOAD_KINDS
        for d in designs
        for n in counts
        for result in study.evaluate_mixes(d, study.mixes(kind, n))
    ]
    return results, table


def interactive_queries(
    seed: int,
    size: Size,
    designs: Sequence[str],
    benchmarks: Sequence[str],
    grid_mixes: Set[Tuple[str, ...]],
) -> List[Tuple[str, Tuple[str, ...]]]:
    """Distinct single-point queries whose mixes are not in the bulk grid.

    Keeping them off the grid means the daemon cannot coalesce them onto a
    bulk sweep's points, so every query waits for its own evaluation.
    """
    rng = random.Random(f"interactive-{seed}")
    queries: List[Tuple[str, Tuple[str, ...]]] = []
    seen = set()
    while len(queries) < size.interactive_queries:
        design = rng.choice(list(designs))
        n = rng.randint(2, size.interactive_max_threads)
        mix = tuple(rng.choice(list(benchmarks)) for _ in range(n))
        if len(set(mix)) < 2 or mix in grid_mixes or (design, mix) in seen:
            continue
        seen.add((design, mix))
        queries.append((design, mix))
    return queries


def cycle_inputs(
    seed: int, size: Size, benchmarks: Sequence[str], cores: Sequence[str]
) -> Dict[str, object]:
    """Chip mixes per design and single-thread benchmarks per core type."""
    rng = random.Random(f"cycle-{seed}")
    chips = [
        (design, tuple(rng.choice(list(benchmarks)) for _ in range(size.cycle_threads)))
        for design in size.cycle_designs
    ]
    singles = {
        core: tuple(rng.sample(list(benchmarks), size.xval_benchmarks))
        for core in cores
    }
    return {"chips": chips, "singles": singles}
