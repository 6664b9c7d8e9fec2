"""Design-space study orchestration.

:class:`DesignSpaceStudy` evaluates (design x workload x thread count x SMT)
points with the interval chip model and aggregates them the way the paper's
figures do:

* per-thread-count average performance: **harmonic mean STP** (a rate) and
  arithmetic-mean ANTT across the workload mixes at that count;
* distribution-weighted averages: the expectation of per-count mean STP
  under a thread-count distribution (Figures 6-10);
* per-benchmark averages for Figure 9;
* power and energy per point for Figures 14-15.

All evaluations are memoized in-process; pass an
:class:`~repro.engine.executor.Engine` to add parallel evaluation and a
persistent, content-addressed result store shared across processes and runs
(see :mod:`repro.engine`).
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.designs import ChipDesign, all_designs
from repro.core.distributions import ThreadCountDistribution
from repro.core.metrics import antt, arithmetic_mean, harmonic_mean, stp
from repro.core.scheduler import Scheduler
from repro.engine.store import KeyedCache
from repro.interval.contention import ChipModel, ChipResult, evaluate_batch
from repro.obs import METRICS, TRACER
from repro.microarch.config import BIG
from repro.microarch.uncore import DEFAULT_UNCORE, UncoreConfig
from repro.power.mcpat import ChipPowerModel
from repro.workloads.multiprogram import (
    Mix,
    heterogeneous_mixes,
    homogeneous_mixes,
    profiles_for,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.executor import Engine

#: Workload-mix kinds, matching the paper's terminology.
WORKLOAD_KINDS = ("homogeneous", "heterogeneous")


@dataclass(frozen=True)
class MixResult:
    """Outcome of one (design, mix, SMT) evaluation."""

    design_name: str
    mix: Tuple[str, ...]
    smt: bool
    stp: float
    antt: float
    power_gated_w: float
    power_ungated_w: float
    bus_utilization: float
    mem_latency_inflation: float


class DesignSpaceStudy:
    """Runs and caches the paper's design-space grid.

    Parameters
    ----------
    designs:
        Chip designs under study (default: the nine of Figure 2).
    uncore:
        Optional uncore override applied to every design (e.g. the 16 GB/s
        bus of Section 8.2).
    benchmarks:
        Benchmark names for mix construction (default: the 12 SPEC-like
        profiles).
    seed:
        Seed for balanced random heterogeneous mixes.
    mixes_per_count:
        Number of heterogeneous mixes per thread count (the paper uses 12).
    engine:
        Optional :class:`repro.engine.executor.Engine`: batch evaluations
        are then looked up in its persistent result store and misses are
        computed in parallel across worker processes.  Without an engine,
        everything runs serially in-process exactly as before.
    reference_uncore:
        Uncore for the isolated-on-big reference runs that normalize STP
        and ANTT; defaults to the first design's uncore.
    """

    def __init__(
        self,
        designs: Optional[Sequence[ChipDesign]] = None,
        uncore: Optional[UncoreConfig] = None,
        benchmarks: Optional[Sequence[str]] = None,
        seed: int = 42,
        mixes_per_count: int = 12,
        engine: Optional["Engine"] = None,
        reference_uncore: Optional[UncoreConfig] = None,
    ):
        base = list(designs) if designs is not None else all_designs()
        if uncore is not None:
            base = [d.with_uncore(uncore) for d in base]
        self.designs: Dict[str, ChipDesign] = {d.name: d for d in base}
        self.benchmarks = list(benchmarks) if benchmarks is not None else None
        self.seed = seed
        self.mixes_per_count = mixes_per_count
        self.engine = engine
        if reference_uncore is not None:
            self.reference_uncore = reference_uncore
        elif base:
            self.reference_uncore = base[0].uncore
        else:
            self.reference_uncore = DEFAULT_UNCORE
        self._chip_models: Dict[str, ChipModel] = {}
        self._power_models: Dict[str, ChipPowerModel] = {}
        self._mix_cache: Dict[Tuple[str, Tuple[str, ...], bool], MixResult] = {}
        # Per-study reference-IPS memo in front of the keyed cache: the
        # reference uncore is fixed per study, so the key reduces to the
        # profile (pinned so its id stays unique while the entry lives).
        self._ref_ips_memo: Dict[int, Tuple[object, float]] = {}

    # ------------------------------------------------------------------ #
    # single points                                                       #
    # ------------------------------------------------------------------ #

    def design(self, name: str) -> ChipDesign:
        try:
            return self.designs[name]
        except KeyError:
            raise KeyError(
                f"design {name!r} not in this study; have {sorted(self.designs)}"
            ) from None

    def add_design(self, design: ChipDesign) -> None:
        """Register an extra candidate design after construction.

        Used by the adaptive explorer's GA refinement to evaluate
        compositions outside the initial design list through the same
        memo/engine path.  Idempotent for an identical design; a name
        clash with a *different* design raises.
        """
        existing = self.designs.get(design.name)
        if existing is not None:
            if existing != design:
                raise ValueError(
                    f"design {design.name!r} already registered "
                    "with a different configuration"
                )
            return
        self.designs[design.name] = design

    @property
    def evaluated_points(self) -> int:
        """Unique (design, mix, SMT) points materialized in this study.

        Counts store hits and in-process computations alike — it is the
        number of grid points this study has *requested*, which is the
        quantity the adaptive explorer budgets against the full grid.
        """
        return len(self._mix_cache)

    def _chip_model(self, design_name: str) -> ChipModel:
        if design_name not in self._chip_models:
            self._chip_models[design_name] = ChipModel(self.design(design_name))
        return self._chip_models[design_name]

    def _power_model(self, design_name: str) -> ChipPowerModel:
        if design_name not in self._power_models:
            self._power_models[design_name] = ChipPowerModel(self.design(design_name))
        return self._power_models[design_name]

    def evaluate_mix(self, design_name: str, mix: Mix, smt: bool = True) -> MixResult:
        """Evaluate one workload mix on one design (memoized)."""
        key = (design_name, tuple(mix), smt)
        if key in self._mix_cache:
            return self._mix_cache[key]
        return self.evaluate_mixes(design_name, [mix], smt)[0]

    def evaluate_mixes(
        self, design_name: str, mixes: Sequence[Mix], smt: bool = True
    ) -> List[MixResult]:
        """Evaluate a batch of mixes on one design (memoized).

        With an engine attached, uncached points are looked up in the
        persistent store and misses are computed in parallel; otherwise the
        batch runs serially through the same code path as before.
        """
        keys = [(design_name, tuple(mix), smt) for mix in mixes]
        pending: List[Tuple[str, Tuple[str, ...], bool]] = []
        seen = set()
        for key in keys:
            if key not in self._mix_cache and key not in seen:
                pending.append(key)
                seen.add(key)
        if pending:
            with TRACER.span(
                "study.evaluate-batch",
                cat="study",
                design=design_name,
                pending=len(pending),
                smt=smt,
            ):
                if self.engine is not None:
                    from repro.engine.tasks import WorkUnit

                    design = self.design(design_name)
                    units = [
                        WorkUnit(
                            design=design,
                            mix=key[1],
                            smt=smt,
                            reference_uncore=self.reference_uncore,
                        )
                        for key in pending
                    ]
                    computed = self.engine.evaluate(units, on_failure="return")
                else:
                    computed = self._compute_mix_batch(pending)
                for key, result in zip(pending, computed):
                    self._mix_cache[key] = self._resolve_engine_result(key, result)
        return [self._mix_cache[key] for key in keys]

    def prefetch(
        self,
        design_names: Sequence[str],
        kind: str,
        thread_counts: Iterable[int],
        smt: bool = True,
    ) -> int:
        """Warm the memo for a (designs x thread counts) slab of the grid.

        All uncached points across every design go to the engine as one
        batch, maximizing worker occupancy; without an engine this is a
        plain serial warm-up.  Returns the number of points evaluated.
        """
        thread_counts = list(thread_counts)
        per_design_mixes = {n: self.mixes(kind, n) for n in thread_counts}
        pending: List[Tuple[str, Tuple[str, ...], bool]] = []
        seen = set()
        for name in design_names:
            self.design(name)  # fail fast on unknown designs
            for n in thread_counts:
                for mix in per_design_mixes[n]:
                    key = (name, tuple(mix), smt)
                    if key not in self._mix_cache and key not in seen:
                        pending.append(key)
                        seen.add(key)
        if not pending:
            return 0
        with TRACER.span(
            "study.prefetch",
            cat="study",
            designs=list(design_names),
            kind=kind,
            pending=len(pending),
        ):
            if self.engine is not None:
                from repro.engine.tasks import WorkUnit

                units = [
                    WorkUnit(
                        design=self.design(name),
                        mix=mix,
                        smt=point_smt,
                        reference_uncore=self.reference_uncore,
                    )
                    for name, mix, point_smt in pending
                ]
                computed = self.engine.evaluate(units, on_failure="return")
            else:
                computed = self._compute_mix_batch(pending)
            for key, result in zip(pending, computed):
                self._mix_cache[key] = self._resolve_engine_result(key, result)
        return len(pending)

    def _resolve_engine_result(
        self, key: Tuple[str, Tuple[str, ...], bool], result
    ) -> MixResult:
        """Unwrap one engine result, healing structured failures in-process.

        The engine isolates a crashing unit into a
        :class:`~repro.engine.tasks.UnitFailure` rather than aborting the
        batch; every other point's result (and its store write-back) has
        already survived.  For the failed point the study falls back to the
        plain serial evaluation path — the exact code that runs with no
        engine attached — so an engine-environment failure self-heals and a
        genuinely broken configuration raises the same error it would have
        raised before the engine existed.
        """
        from repro.engine.tasks import UnitFailure

        name, mix, smt = key
        if not isinstance(result, UnitFailure):
            # Seed the latency-hint cache from engine/store results too, so a
            # warm store also warm-starts the solver for nearby cold points.
            # Inflation is loaded/unloaded latency, so this reconstructs the
            # converged latency up to rounding; hints are advisory (the
            # solver certifies every warm bracket), so that is enough.
            hints = _latency_hints(self.design(name), smt)
            hints.setdefault(
                len(mix),
                result.mem_latency_inflation
                * self._chip_model(name).unloaded_mem_latency_ns,
            )
            return result
        return self._compute_mix(name, list(mix), smt)

    def _compute_mix(self, design_name: str, mix: Mix, smt: bool) -> MixResult:
        """The actual single-point evaluation (no memo, no engine)."""
        if METRICS.enabled:
            METRICS.inc("study.mix_computations")
        with TRACER.span(
            "study.compute-mix", cat="study", design=design_name, smt=smt
        ):
            design = self.design(design_name)
            profiles = profiles_for(mix)
            placement = Scheduler(design, smt=smt).place(profiles)
            hints = _latency_hints(design, smt)
            result = self._chip_model(design_name).evaluate(
                placement,
                smt=smt,
                mem_latency_hint_ns=_nearest_hint(hints, placement.num_threads),
            )
            hints[placement.num_threads] = result.mem_latency_ns
            mix_result = self._mix_result(design_name, mix, smt, placement, result)
        return mix_result

    def _compute_mix_batch(
        self, pending: Sequence[Tuple[str, Tuple[str, ...], bool]]
    ) -> List[MixResult]:
        """Serial batch evaluation: one lockstep solver call for all points.

        Bit-identical to mapping :meth:`_compute_mix` over ``pending`` —
        per-point placements, references and power are unchanged, and the
        lockstep bisection preserves every point's exact result — but the
        DRAM fixed points of the whole slab are solved together through the
        shared batch kernel, which is where the serial speedup comes from.

        The batch runs in chunks of :data:`_BATCH_CHUNK` points: warm-start
        hints recorded by an earlier chunk tighten the bisection brackets of
        every later chunk, which a single whole-slab call could not exploit.
        """
        out: List[MixResult] = []
        for start in range(0, len(pending), _BATCH_CHUNK):
            chunk = pending[start : start + _BATCH_CHUNK]
            requests = []
            placements = []
            hint_maps = []
            for design_name, mix, smt in chunk:
                if METRICS.enabled:
                    METRICS.inc("study.mix_computations")
                with TRACER.span(
                    "study.compute-mix", cat="study", design=design_name, smt=smt
                ):
                    design = self.design(design_name)
                    placement = Scheduler(design, smt=smt).place(
                        profiles_for(list(mix))
                    )
                hints = _latency_hints(design, smt)
                requests.append(
                    (
                        self._chip_model(design_name),
                        placement,
                        smt,
                        _nearest_hint(hints, placement.num_threads),
                    )
                )
                placements.append(placement)
                hint_maps.append(hints)
            chip_results = evaluate_batch(requests)
            for key, placement, hints, result in zip(
                chunk, placements, hint_maps, chip_results
            ):
                design_name, mix, smt = key
                hints[placement.num_threads] = result.mem_latency_ns
                out.append(
                    self._mix_result(design_name, mix, smt, placement, result)
                )
        return out

    def _mix_result(
        self,
        design_name: str,
        mix: Mix,
        smt: bool,
        placement,
        result: ChipResult,
    ) -> MixResult:
        """Fold one chip solve into the study-level per-mix record."""
        specs = [spec for threads in placement.core_threads for spec in threads]
        refs = [self._reference_ips(spec.profile) for spec in specs]
        shared = [t.ips for t in result.threads]
        power_model = self._power_model(design_name)
        return MixResult(
            design_name=design_name,
            mix=tuple(mix),
            smt=smt,
            stp=stp(shared, refs),
            antt=antt(shared, refs),
            power_gated_w=power_model.power(result, power_gate_idle=True),
            power_ungated_w=power_model.power(result, power_gate_idle=False),
            bus_utilization=result.bus_utilization,
            mem_latency_inflation=result.mem_latency_inflation,
        )

    def _reference_ips(self, profile) -> float:
        """Isolated-on-big reference, using the (possibly overridden) uncore.

        References use the same uncore as the study designs, so the
        Section 8.2 experiment normalizes against a 16 GB/s baseline just as
        the paper does.
        """
        hit = self._ref_ips_memo.get(id(profile))
        if hit is not None and hit[0] is profile:
            return hit[1]
        ref = _study_reference(profile, self.reference_uncore)
        self._ref_ips_memo[id(profile)] = (profile, ref)
        return ref

    # ------------------------------------------------------------------ #
    # mixes                                                               #
    # ------------------------------------------------------------------ #

    def mixes(self, kind: str, n_threads: int) -> List[Mix]:
        """The workload mixes for one thread count (homogeneous or heterogeneous)."""
        if kind not in WORKLOAD_KINDS:
            raise ValueError(f"kind must be one of {WORKLOAD_KINDS}, got {kind!r}")
        if kind == "homogeneous":
            return homogeneous_mixes(n_threads, self.benchmarks)
        return heterogeneous_mixes(
            n_threads, self.mixes_per_count, self.seed, self.benchmarks
        )

    # ------------------------------------------------------------------ #
    # aggregates                                                          #
    # ------------------------------------------------------------------ #

    def mean_stp(self, design_name: str, kind: str, n_threads: int, smt: bool = True) -> float:
        """Harmonic-mean STP across the mixes at one thread count."""
        results = self.evaluate_mixes(design_name, self.mixes(kind, n_threads), smt)
        return harmonic_mean([r.stp for r in results])

    def mean_antt(self, design_name: str, kind: str, n_threads: int, smt: bool = True) -> float:
        """Arithmetic-mean ANTT across the mixes at one thread count."""
        results = self.evaluate_mixes(design_name, self.mixes(kind, n_threads), smt)
        return arithmetic_mean([r.antt for r in results])

    def mean_power(
        self,
        design_name: str,
        kind: str,
        n_threads: int,
        smt: bool = True,
        power_gate_idle: bool = True,
    ) -> float:
        """Arithmetic-mean chip power across the mixes at one thread count."""
        results = self.evaluate_mixes(design_name, self.mixes(kind, n_threads), smt)
        values = [
            r.power_gated_w if power_gate_idle else r.power_ungated_w
            for r in results
        ]
        return arithmetic_mean(values)

    def throughput_curve(
        self,
        design_name: str,
        kind: str,
        thread_counts: Iterable[int] = range(1, 25),
        smt: bool = True,
    ) -> Dict[int, float]:
        """Mean STP as a function of thread count (Figure 3)."""
        thread_counts = list(thread_counts)
        self.prefetch([design_name], kind, thread_counts, smt)
        return {
            n: self.mean_stp(design_name, kind, n, smt) for n in thread_counts
        }

    def antt_curve(
        self,
        design_name: str,
        kind: str,
        thread_counts: Iterable[int] = range(1, 25),
        smt: bool = True,
    ) -> Dict[int, float]:
        """Mean ANTT as a function of thread count (Figure 5)."""
        thread_counts = list(thread_counts)
        self.prefetch([design_name], kind, thread_counts, smt)
        return {
            n: self.mean_antt(design_name, kind, n, smt) for n in thread_counts
        }

    def aggregate_stp(
        self,
        design_name: str,
        kind: str,
        distribution: ThreadCountDistribution,
        smt: bool = True,
    ) -> float:
        """Distribution-weighted average STP (Figures 6-10).

        Only thread counts with nonzero probability are evaluated — for
        timeline-derived distributions with gaps in their support this
        skips grid points that cannot affect the expectation.
        """
        curve = self.throughput_curve(design_name, kind, distribution.support, smt)
        return distribution.expectation(curve)

    def aggregate_power(
        self,
        design_name: str,
        kind: str,
        distribution: ThreadCountDistribution,
        smt: bool = True,
        power_gate_idle: bool = True,
    ) -> float:
        """Distribution-weighted average chip power (Figure 15)."""
        counts = distribution.support
        self.prefetch([design_name], kind, counts, smt)
        values = {
            n: self.mean_power(design_name, kind, n, smt, power_gate_idle)
            for n in counts
        }
        return distribution.expectation(values)

    def per_benchmark_aggregate(
        self,
        design_name: str,
        benchmark: str,
        distribution: ThreadCountDistribution,
        smt: bool = True,
    ) -> float:
        """Distribution-weighted STP for homogeneous mixes of one benchmark (Figure 9)."""
        counts = distribution.support
        results = self.evaluate_mixes(
            design_name, [[benchmark] * n for n in counts], smt
        )
        values = {n: r.stp for n, r in zip(counts, results)}
        return distribution.expectation(values)

    def best_design(
        self,
        kind: str,
        distribution: ThreadCountDistribution,
        smt: bool = True,
        exclude: Sequence[str] = (),
    ) -> Tuple[str, float]:
        """The design with the highest distribution-weighted STP."""
        candidates = [n for n in self.designs if n not in set(exclude)]
        scored = {
            name: self.aggregate_stp(name, kind, distribution, smt)
            for name in candidates
        }
        best = max(scored, key=scored.get)
        return best, scored[best]


#: Keyed memo of isolated-on-big references; values depend only on
#: (profile, uncore), so sharing it process-wide is sound.  Cleared by
#: :func:`clear_reference_cache` (tests that tweak model globals).
_REFERENCE_CACHE = KeyedCache("study-reference-ips")


def _study_reference(profile, uncore) -> float:
    """Isolated-on-big instructions/second under a given uncore (memoized)."""
    from repro.interval.contention import isolated_ips

    return _REFERENCE_CACHE.get_or_compute(
        (profile, uncore), lambda: isolated_ips(profile, BIG, uncore)
    )


def clear_reference_cache() -> None:
    """Drop the memoized isolated-on-big references."""
    _REFERENCE_CACHE.clear()


#: Converged loaded DRAM latencies by (design, smt) -> {n_threads: ns}, used
#: to warm-start the chip solver's bisection bracket from the nearest
#: already-solved grid point (same design, adjacent thread count).  Hints are
#: purely advisory: the solver certifies every warm bracket and falls back to
#: the cold bracket, so stale or wrong entries cost at most two evaluations.
# Points per lockstep solver call in :meth:`DesignSpaceStudy._compute_mix_batch`.
# Small enough that early chunks seed warm-start hints for later ones, large
# enough that the batch kernel amortizes its setup cost per call.
_BATCH_CHUNK = 32

_LATENCY_HINT_CACHE = KeyedCache("study-latency-hints")


def _latency_hints(design: ChipDesign, smt: bool) -> Dict[int, float]:
    """The mutable hint map for one (design, SMT mode) slice of the grid."""
    return _LATENCY_HINT_CACHE.get_or_compute((design, smt), dict)


def _nearest_hint(hints: Dict[int, float], n_threads: int) -> Optional[float]:
    """Hint from the nearest thread count (ties break toward fewer threads)."""
    if not hints:
        return None
    nearest = min(hints, key=lambda k: (abs(k - n_threads), k))
    return hints[nearest]


def clear_latency_hint_cache() -> None:
    """Drop the solver warm-start hints (tests that tweak model globals)."""
    _LATENCY_HINT_CACHE.clear()
