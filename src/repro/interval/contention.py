"""Chip-level model: shared caches, off-chip bus and DRAM-bank contention.

:class:`ChipModel` evaluates a full chip design with a given placement of
threads on cores.  It combines the per-core interval models
(:mod:`repro.interval.model`) with three shared-resource effects the paper
identifies as decisive at high thread counts (Section 4.1):

* **shared-cache capacity** — co-resident threads partition each cache level
  in proportion to their demand (miss pressure at that capacity), so a
  memory-intensive program co-scheduled with compute-intensive programs on
  an SMT core occupies most of the private L2 — the effect that lets the 4B
  design use cache "more efficiently through intelligent scheduling";
* **off-chip bus queueing** — an M/D/1-style queue on the 8 GB/s (or
  16 GB/s) bus inflates memory latency as utilization grows, which is what
  flattens the design space for bandwidth-bound workloads (libquantum's
  4x memory-latency inflation at 24 threads);
* **DRAM bank pressure** — eight banks bound the service rate behind the bus.

Because per-thread IPC determines traffic and traffic determines latency,
the solver iterates to a fixed point with damping.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.designs import ChipDesign
from repro.interval.model import (
    CoreBatchStatics,
    CoreEnvironment,
    CoreResult,
    IntervalCoreModel,
)
from repro.microarch.config import BIG, CoreConfig
from repro.microarch.uncore import DEFAULT_UNCORE, UncoreConfig
from repro.obs import METRICS, TRACER
from repro.util import MB, check_fraction
from repro.workloads.profiles import BenchmarkProfile

#: Dirty-line writebacks add traffic on top of demand fills.
WRITEBACK_TRAFFIC_FACTOR = 1.3

#: Utilization cap that keeps the queueing model finite.
MAX_UTILIZATION = 0.98

#: Bisection controls for the latency fixed point.
BISECTION_STEPS = 40
CONVERGENCE_NS = 0.01

@dataclass(frozen=True)
class ThreadSpec:
    """One software thread to be placed on a hardware context.

    ``duty_cycle`` < 1 models time-sharing: in no-SMT mode with more active
    threads than cores, each thread on a core runs a fraction of the time.
    """

    profile: BenchmarkProfile
    duty_cycle: float = 1.0

    def __post_init__(self) -> None:
        check_fraction("duty_cycle", self.duty_cycle)
        if self.duty_cycle == 0.0:
            raise ValueError("duty_cycle must be > 0")


@dataclass(frozen=True)
class Placement:
    """Threads assigned to each core of a design (index-aligned with cores)."""

    core_threads: Tuple[Tuple[ThreadSpec, ...], ...]

    @classmethod
    def from_lists(cls, core_threads: Sequence[Sequence[ThreadSpec]]) -> "Placement":
        return cls(tuple(tuple(ts) for ts in core_threads))

    @property
    def num_threads(self) -> int:
        return sum(len(ts) for ts in self.core_threads)

    def validate_against(self, design: ChipDesign, smt: bool) -> None:
        """Raise if the placement is infeasible on ``design``.

        Without SMT a core still holds multiple *time-shared* threads, so the
        per-core bound is only checked in SMT mode (contexts are a hardware
        limit; time-sharing is not).
        """
        if len(self.core_threads) != design.num_cores:
            raise ValueError(
                f"placement has {len(self.core_threads)} core slots, design "
                f"{design.name} has {design.num_cores} cores"
            )
        if smt:
            for core, threads in zip(design.cores, self.core_threads):
                if len(threads) > core.max_smt_contexts:
                    raise ValueError(
                        f"{core.name} core supports {core.max_smt_contexts} "
                        f"SMT contexts, placement assigns {len(threads)}"
                    )


@dataclass(frozen=True)
class ThreadOutcome:
    """Chip-level performance of one thread."""

    core_index: int
    benchmark: str
    ipc: float  # instructions per core cycle, duty-scaled
    ips: float  # instructions per second, duty-scaled
    duty_cycle: float


@dataclass(frozen=True)
class ChipResult:
    """Outcome of a chip evaluation at the solved fixed point."""

    design_name: str
    threads: Tuple[ThreadOutcome, ...]
    core_results: Tuple[CoreResult, ...]
    core_utilizations: Tuple[float, ...]
    mem_latency_ns: float
    unloaded_mem_latency_ns: float
    bus_utilization: float
    iterations: int

    @property
    def total_ips(self) -> float:
        return sum(t.ips for t in self.threads)

    @property
    def mem_latency_inflation(self) -> float:
        """Loaded over unloaded memory latency (libquantum hits ~4x)."""
        return self.mem_latency_ns / self.unloaded_mem_latency_ns


def _demand_shares(
    capacity: float, weights: Sequence[float], duties: Sequence[float]
) -> List[float]:
    """Demand-proportional capacity shares with residency weighting.

    When all duty cycles are 1 this is plain proportional sharing
    ``capacity * w_i / sum(w)``.  A time-shared thread (duty < 1) is absent
    most of the time, so its co-residents see more capacity and it sees
    nearly the whole cache while it runs (minus a cold-footprint effect
    captured by the residual term).
    """
    if not weights:
        return []
    pressure = sum(w * d for w, d in zip(weights, duties))
    shares = []
    for w, d in zip(weights, duties):
        co_resident_pressure = pressure - w * d + w
        shares.append(capacity * w / co_resident_pressure)
    return shares


class ChipModel:
    """Evaluates thread placements on a chip design at a solved fixed point.

    ``llc_sharing`` selects the shared-cache capacity model:
    ``"demand"`` (default) partitions the LLC in proportion to each
    thread's miss pressure — what an LRU-managed shared cache converges to;
    ``"even"`` splits it equally regardless of demand, an ablation that
    removes the cache-usage advantage the paper attributes to intelligent
    SMT co-scheduling.  ``rob_partitioning`` is forwarded to the per-core
    interval models (see :class:`~repro.interval.model.IntervalCoreModel`).
    """

    def __init__(
        self,
        design: ChipDesign,
        llc_sharing: str = "demand",
        rob_partitioning: str = "static",
        fetch_policy: str = "roundrobin",
    ):
        if llc_sharing not in ("demand", "even"):
            raise ValueError(
                f"llc_sharing must be 'demand' or 'even', got {llc_sharing!r}"
            )
        self.design = design
        self.uncore: UncoreConfig = design.uncore
        self.llc_sharing = llc_sharing
        self._core_models = [
            IntervalCoreModel(core, rob_partitioning, fetch_policy)
            for core in design.cores
        ]
        # Uncore-derived latency constants, computed once: the queueing
        # helpers below run in the solver's innermost loop, and the uncore
        # is immutable.  The expressions (and so the float values) are
        # exactly what the former on-the-fly properties produced.
        unc = self.uncore
        cycles = unc.llc.latency_cycles + 2 * unc.interconnect.hop_latency_cycles
        self._llc_lat_const = cycles / unc.interconnect.frequency_ghz
        self._line_transfer_const = (
            unc.llc.line_bytes / unc.dram.bus_bandwidth_bytes_per_s * 1e9
        )
        self._unloaded_const = (
            self._llc_lat_const
            + unc.dram.access_latency_ns
            + self._line_transfer_const
        )
        self._half_line_transfer = self._line_transfer_const / 2.0
        self._half_bank_service = unc.dram.access_latency_ns / 2.0
        self._bus_bw = unc.dram.bus_bandwidth_bytes_per_s
        self._line_wb_bytes = unc.llc.line_bytes * WRITEBACK_TRAFFIC_FACTOR
        self._bank_service_ns = unc.dram.access_latency_ns
        self._num_banks = unc.dram.num_banks

    # ------------------------------------------------------------------ #
    # latency building blocks (all in nanoseconds; converted per core)    #
    # ------------------------------------------------------------------ #

    @property
    def _llc_latency_ns(self) -> float:
        return self._llc_lat_const

    @property
    def _line_transfer_ns(self) -> float:
        return self._line_transfer_const

    @property
    def unloaded_mem_latency_ns(self) -> float:
        """DRAM access latency with an idle bus and idle banks."""
        return self._unloaded_const

    def sustainable_traffic_bytes_per_s(self) -> float:
        """Hard ceiling on off-chip traffic: bus bandwidth or bank service.

        Eight banks at 45 ns can source at most ``banks / access_latency``
        line fills per second; the bus moves at most its bandwidth.  The
        queueing model inflates latency as these are approached, but a
        latency cap keeps it finite, so a saturated system needs this
        explicit ceiling as well.
        """
        dram = self.uncore.dram
        bank_fills_per_s = dram.num_banks / (dram.access_latency_ns * 1e-9)
        bank_bytes = bank_fills_per_s * self.uncore.llc.line_bytes * WRITEBACK_TRAFFIC_FACTOR
        return MAX_UTILIZATION * min(dram.bus_bandwidth_bytes_per_s, bank_bytes)

    def _loaded_mem_latency_ns(self, traffic_bytes_per_s: float) -> float:
        """Memory latency at a given off-chip traffic level (M/D/1 queues).

        Runs once per bisection round per chip; every uncore-derived term is
        a constant prebound in ``__init__`` with the op order preserved, so
        the returned floats are bit-identical to the inline expressions.
        """
        rho_bus = min(MAX_UTILIZATION, traffic_bytes_per_s / self._bus_bw)
        bus_wait = self._half_line_transfer * rho_bus / (1.0 - rho_bus)

        accesses_per_s = traffic_bytes_per_s / self._line_wb_bytes
        rho_bank = min(
            MAX_UTILIZATION,
            accesses_per_s * self._bank_service_ns * 1e-9 / self._num_banks,
        )
        bank_wait = self._half_bank_service * rho_bank / (1.0 - rho_bank)

        return self._unloaded_const + bus_wait + bank_wait

    # ------------------------------------------------------------------ #
    # cache partitioning                                                  #
    # ------------------------------------------------------------------ #

    def _private_cache_shares(
        self, core: CoreConfig, threads: Sequence[ThreadSpec]
    ) -> Tuple[List[float], List[float], List[float]]:
        """(l1i, l1d, l2) per-thread byte shares on one core."""
        duties = [t.duty_cycle for t in threads]
        l1i_w = [t.profile.icurve.mpki(core.l1i.size_bytes) + 1e-3 for t in threads]
        l1d_w = [t.profile.dcurve.mpki(core.l1d.size_bytes) + 1e-3 for t in threads]
        l2_w = [t.profile.dcurve.mpki(core.l2.size_bytes) + 1e-3 for t in threads]
        return (
            _demand_shares(core.l1i.size_bytes, l1i_w, duties),
            _demand_shares(core.l1d.size_bytes, l1d_w, duties),
            _demand_shares(core.l2.size_bytes, l2_w, duties),
        )

    def _llc_shares(self, placement: Placement) -> List[List[float]]:
        """Per-core lists of per-thread LLC byte shares (chip-wide sharing)."""
        all_weights: List[float] = []
        all_duties: List[float] = []
        for threads in placement.core_threads:
            for t in threads:
                if self.llc_sharing == "demand":
                    all_weights.append(t.profile.cache_pressure(1 * MB))
                else:
                    all_weights.append(1.0)
                all_duties.append(t.duty_cycle)
        flat = _demand_shares(self.uncore.llc.size_bytes, all_weights, all_duties)
        shares: List[List[float]] = []
        pos = 0
        for threads in placement.core_threads:
            shares.append(flat[pos : pos + len(threads)])
            pos += len(threads)
        return shares

    # ------------------------------------------------------------------ #
    # fixed-point evaluation                                              #
    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        placement: Placement,
        smt: bool = True,
        mem_latency_hint_ns: Optional[float] = None,
    ) -> ChipResult:
        """Solve the chip for ``placement`` and return per-thread performance.

        ``smt`` only controls placement validation (hardware context bounds);
        the duty cycles inside the placement already encode time-sharing.

        ``mem_latency_hint_ns`` optionally warm-starts the latency bisection
        from a nearby already-solved operating point (same design, adjacent
        thread count).  The descended bracket is *certified* before use, so
        a hint — right, wrong or stale — can only save evaluations, never
        change the converged result: warm and cold solves are bit-identical.

        When observability is off (the default) this delegates straight to
        the solver; the instrumented path adds an ``interval.model`` span
        (with cache-share and DRAM-contention sub-spans from the solver)
        plus solver counters and per-component CPI histograms.
        """
        if not TRACER.enabled and not METRICS.enabled:
            return self._solve_vectorized(placement, smt, mem_latency_hint_ns)
        with TRACER.span(
            "interval.model",
            cat="interval",
            design=self.design.name,
            threads=placement.num_threads,
            smt=smt,
        ) as span:
            result = self._solve_vectorized(placement, smt, mem_latency_hint_ns)
            span.set(
                iterations=result.iterations,
                mem_latency_ns=round(result.mem_latency_ns, 3),
                bus_utilization=round(result.bus_utilization, 4),
            )
        if METRICS.enabled:
            self._record_metrics(result)
        return result

    def _record_metrics(self, result: ChipResult) -> None:
        """Solver counters and CPI-component histograms for one solve.

        CPI components are observed once per solve from the *final* core
        results, not per bisection step — the distribution reflects solved
        operating points, and the volume stays bounded.
        """
        METRICS.inc("interval.solves")
        METRICS.inc("interval.solve_iterations", result.iterations)
        METRICS.observe("interval.solver.iterations", float(result.iterations))
        METRICS.observe("interval.mem_latency_inflation", result.mem_latency_inflation)
        METRICS.observe("interval.bus_utilization", result.bus_utilization)
        for core_result in result.core_results:
            for perf in core_result.threads:
                for component, value in perf.cpi_breakdown.items():
                    METRICS.observe(f"interval.cpi.{component}", value)

    def _solve(self, placement: Placement, smt: bool = True) -> ChipResult:
        """Scalar reference solver (pure-Python fixed point).

        Production runs :meth:`_solve_vectorized`, which is bit-identical to
        this by construction.  This path stays as the test oracle:
        ``tests/test_interval_vectorized.py`` compares the vectorized solver
        against it on the figure grid and on hypothesis-drawn placements.
        """
        placement.validate_against(self.design, smt)
        llc_lat_ns = self._llc_latency_ns
        with TRACER.span("interval.cache-shares", cat="interval"):
            llc_shares, private_shares = self._cache_share_lists(placement)
        run_cores = self._run_cores_fn(
            placement, llc_shares, private_shares, llc_lat_ns
        )

        # The loaded latency induced by the traffic generated at latency L is
        # strictly decreasing in L (more latency -> less traffic -> less
        # queueing), so g(L) = loaded(traffic(L)) - L has a unique root:
        # bisect between the unloaded latency and the queueing-model maximum.
        with TRACER.span("interval.dram-contention", cat="interval") as dram_span:
            lo = self.unloaded_mem_latency_ns
            hi = self._loaded_mem_latency_ns(float("inf"))
            core_results, traffic = run_cores(lo)
            iterations = 1
            if self._loaded_mem_latency_ns(traffic) <= lo + CONVERGENCE_NS:
                mem_lat_ns = lo  # bus effectively unloaded: no contention
            else:
                core_results, traffic, mem_lat_ns, iterations = (
                    self._bisect_scalar(run_cores, lo, hi)
                )
            dram_span.set(iterations=iterations)
        return self._finalize(placement, core_results, mem_lat_ns, iterations)

    def _cache_share_lists(
        self, placement: Placement
    ) -> Tuple[List[List[float]], List[Tuple[List[float], List[float], List[float]]]]:
        """(llc, private) per-core share lists for ``placement``."""
        llc_shares = self._llc_shares(placement)
        private_shares = [
            self._private_cache_shares(core, threads)
            for core, threads in zip(self.design.cores, placement.core_threads)
        ]
        return llc_shares, private_shares

    def _run_cores_fn(
        self,
        placement: Placement,
        llc_shares: List[List[float]],
        private_shares: List[Tuple[List[float], List[float], List[float]]],
        llc_lat_ns: float,
    ):
        design = self.design

        def run_cores(mem_lat_ns: float) -> Tuple[List[CoreResult], float]:
            """Evaluate every core at a trial memory latency; return traffic."""
            results: List[CoreResult] = []
            traffic = 0.0
            for idx, (core, threads) in enumerate(
                zip(design.cores, placement.core_threads)
            ):
                if not threads:
                    results.append(CoreResult(threads=(), utilization=0.0))
                    continue
                l1i_s, l1d_s, l2_s = private_shares[idx]
                env = CoreEnvironment(
                    l1i_share_bytes=tuple(l1i_s),
                    l1d_share_bytes=tuple(l1d_s),
                    l2_share_bytes=tuple(l2_s),
                    llc_share_bytes=tuple(llc_shares[idx]),
                    llc_latency_cycles=llc_lat_ns * core.frequency_ghz,
                    mem_latency_cycles=mem_lat_ns * core.frequency_ghz,
                )
                result = self._core_models[idx].evaluate(
                    [t.profile for t in threads],
                    env,
                    duty_cycles=[t.duty_cycle for t in threads],
                )
                results.append(result)
                cycles_per_s = core.frequency_ghz * 1e9
                for perf in result.threads:
                    traffic += (
                        perf.ipc
                        * cycles_per_s
                        * perf.mem_misses_per_instr
                        * self.uncore.llc.line_bytes
                        * WRITEBACK_TRAFFIC_FACTOR
                    )
            return results, traffic

        return run_cores

    def _bisect_scalar(
        self, run_cores, lo: float, hi: float
    ) -> Tuple[List[CoreResult], float, float, int]:
        """The reference bisection loop (every step through ``run_cores``)."""
        for iterations in range(2, BISECTION_STEPS + 2):
            mid = 0.5 * (lo + hi)
            core_results, traffic = run_cores(mid)
            induced = self._loaded_mem_latency_ns(traffic)
            if (
                abs(induced - mid) < CONVERGENCE_NS
                or hi - lo < CONVERGENCE_NS
            ):
                break
            if induced > mid:
                lo = mid
            else:
                hi = mid
        mem_lat_ns = 0.5 * (lo + hi)
        core_results, traffic = run_cores(mem_lat_ns)
        return core_results, traffic, mem_lat_ns, iterations

    def _finalize(
        self,
        placement: Placement,
        core_results: List[CoreResult],
        mem_lat_ns: float,
        iterations: int,
    ) -> ChipResult:
        """Materialize a :class:`ChipResult` from solved core results."""
        design = self.design
        # The queueing model's latency cap cannot throttle a deeply
        # overloaded memory system (many high-MLP threads tolerate the
        # capped latency), so enforce the physical throughput ceiling:
        # sustained traffic cannot exceed what the bus and banks can move.
        # The overload manifests as extra queueing delay per miss, solved so
        # that traffic meets the ceiling — threads that rarely miss are
        # (correctly) unaffected.
        rates: List[float] = []  # instructions/second per thread
        miss_rates: List[float] = []  # misses/instruction per thread
        for core, result in zip(design.cores, core_results):
            cycles_per_s = core.frequency_ghz * 1e9
            for perf in result.threads:
                rates.append(perf.ipc * cycles_per_s)
                miss_rates.append(perf.mem_misses_per_instr)
        bytes_per_miss = self.uncore.llc.line_bytes * WRITEBACK_TRAFFIC_FACTOR

        def traffic_with_delay(extra_s_per_miss: float) -> float:
            total = 0.0
            for rate, mpi in zip(rates, miss_rates):
                throttled = rate / (1.0 + rate * mpi * extra_s_per_miss)
                total += throttled * mpi * bytes_per_miss
            return total

        ceiling = self.sustainable_traffic_bytes_per_s()
        delay_s = 0.0
        if traffic_with_delay(0.0) > ceiling:
            lo_d, hi_d = 0.0, 1e-3  # up to 1 ms of queueing per miss
            for _ in range(50):
                mid_d = 0.5 * (lo_d + hi_d)
                if traffic_with_delay(mid_d) > ceiling:
                    lo_d = mid_d
                else:
                    hi_d = mid_d
            delay_s = hi_d

        outcomes: List[ThreadOutcome] = []
        final_traffic = 0.0
        flat = 0
        for idx, (core, threads, result) in enumerate(
            zip(design.cores, placement.core_threads, core_results)
        ):
            cycles_per_s = core.frequency_ghz * 1e9
            for spec, perf in zip(threads, result.threads):
                rate = rates[flat] / (
                    1.0 + rates[flat] * miss_rates[flat] * delay_s
                )
                flat += 1
                outcomes.append(
                    ThreadOutcome(
                        core_index=idx,
                        benchmark=spec.profile.name,
                        ipc=rate / cycles_per_s,
                        ips=rate,
                        duty_cycle=spec.duty_cycle,
                    )
                )
                final_traffic += rate * perf.mem_misses_per_instr * bytes_per_miss
        bus_util = min(
            1.0, final_traffic / self.uncore.dram.bus_bandwidth_bytes_per_s
        )
        return ChipResult(
            design_name=design.name,
            threads=tuple(outcomes),
            core_results=tuple(core_results),
            core_utilizations=tuple(r.utilization for r in core_results),
            mem_latency_ns=mem_lat_ns,
            unloaded_mem_latency_ns=self.unloaded_mem_latency_ns,
            bus_utilization=bus_util,
            iterations=iterations,
        )

    # ------------------------------------------------------------------ #
    # vectorized solver                                                   #
    # ------------------------------------------------------------------ #

    def _solve_vectorized(
        self,
        placement: Placement,
        smt: bool = True,
        mem_latency_hint_ns: Optional[float] = None,
    ) -> ChipResult:
        """NumPy batch solver: one scalar evaluation, vectorized bisection.

        The entire fixed point — the unloaded-shortcut test at the lower
        endpoint and every bisection midpoint — runs through the flat batch
        kernel, which computes chip traffic for all threads at once from
        latency-independent statics.  Only the *converged* latency gets a
        scalar model evaluation, to materialize the per-thread results.
        Identical inputs and identical elementwise arithmetic make the
        result bit-identical to :meth:`_solve`.
        """
        solve = self._prepare_solve(placement, smt, mem_latency_hint_ns)
        with TRACER.span("interval.dram-contention", cat="interval") as dram_span:
            self._finish_bisection(solve)
            dram_span.set(iterations=solve.iterations)
        return self._finalize(
            placement, solve.core_results, solve.mem_lat_ns, solve.iterations
        )

    def _prepare_solve(
        self, placement: Placement, smt: bool, hint: Optional[float]
    ) -> "_ActiveSolve":
        """Validate, partition caches and build the batch statics.

        Kernel-capable solves do *no* scalar model evaluation here: the
        latency-independent statics come straight from
        :meth:`IntervalCoreModel.batch_statics` (same arithmetic, same
        validation as the scalar path), and the unloaded-shortcut test runs
        through the batch kernel as the first lockstep round.  Placements
        that need the scalar loop (ICOUNT with SMT) fall back to the
        scalar lower-endpoint evaluation and shortcut test instead
        (``statics=None``).
        """
        placement.validate_against(self.design, smt)
        llc_lat_ns = self._llc_latency_ns
        with TRACER.span("interval.cache-shares", cat="interval"):
            llc_shares, private_shares = self._cache_share_lists(placement)
        run_cores = self._run_cores_fn(
            placement, llc_shares, private_shares, llc_lat_ns
        )
        lo = self.unloaded_mem_latency_ns
        hi = self._loaded_mem_latency_ns(float("inf"))
        solve = _ActiveSolve(self, run_cores, lo, hi, hint)
        statics = self._solve_statics(
            placement, llc_shares, private_shares, llc_lat_ns, lo
        )
        if statics is None:  # ICOUNT SMT: scalar endpoint + shortcut test
            core_results, traffic = run_cores(lo)
            solve.core_results = core_results
            solve.evals = 1
            if self._loaded_mem_latency_ns(traffic) <= lo + CONVERGENCE_NS:
                solve.mem_lat_ns = lo  # bus effectively unloaded
        else:
            solve.statics = statics
        return solve

    def _finish_bisection(self, solve: "_ActiveSolve") -> None:
        """Run the bisection for one prepared solve (kernel or scalar)."""
        if solve.statics is not None:
            _bisect_many([solve])  # includes the unloaded-shortcut round
            solve.core_results, _ = solve.run_cores(solve.mem_lat_ns)
        elif solve.mem_lat_ns is None:  # ICOUNT SMT: scalar loop
            solve.core_results, _, solve.mem_lat_ns, solve.iterations = (
                self._bisect_scalar(solve.run_cores, solve.lo, solve.hi)
            )

    def _solve_statics(
        self,
        placement: Placement,
        llc_shares: List[List[float]],
        private_shares: List[Tuple[List[float], List[float], List[float]]],
        llc_lat_ns: float,
        lo: float,
    ) -> Optional[List[CoreBatchStatics]]:
        """Per-core batch statics for the kernel, or None when unsupported.

        Builds each core's environment exactly as ``run_cores`` does (the
        memory latency passed is irrelevant to the statics — every lifted
        component is latency-independent) and derives the statics through
        the same `_thread_static_terms` helper the scalar path uses, so no
        scalar core evaluation is needed.
        """
        statics: List[CoreBatchStatics] = []
        for idx, (core, threads) in enumerate(
            zip(self.design.cores, placement.core_threads)
        ):
            if not threads:
                continue
            l1i_s, l1d_s, l2_s = private_shares[idx]
            env = CoreEnvironment(
                l1i_share_bytes=tuple(l1i_s),
                l1d_share_bytes=tuple(l1d_s),
                l2_share_bytes=tuple(l2_s),
                llc_share_bytes=tuple(llc_shares[idx]),
                llc_latency_cycles=llc_lat_ns * core.frequency_ghz,
                mem_latency_cycles=lo * core.frequency_ghz,
            )
            st = self._core_models[idx].batch_statics(
                [t.profile for t in threads],
                env,
                [t.duty_cycle for t in threads],
            )
            if st is None:
                return None
            statics.append(st)
        return statics


def isolated_ips(
    profile: BenchmarkProfile,
    core: CoreConfig = BIG,
    uncore: UncoreConfig = DEFAULT_UNCORE,
) -> float:
    """Instructions per second of ``profile`` running alone on one ``core``.

    The single thread owns all private caches and the whole LLC; bus and
    bank queueing still apply (a lone bandwidth-bound thread does load the
    bus).  This is the reference the paper normalizes STP and ANTT against
    (isolated execution on the big core).
    """
    if METRICS.enabled:
        METRICS.inc("interval.isolated_ips_evals")
    design = ChipDesign(name=f"iso-{core.name}", cores=(core,), uncore=uncore)
    placement = Placement.from_lists([[ThreadSpec(profile)]])
    result = ChipModel(design).evaluate(placement)
    return result.threads[0].ips


# ---------------------------------------------------------------------- #
# batch solver machinery                                                  #
# ---------------------------------------------------------------------- #


class _ActiveSolve:
    """Per-solve bookkeeping for the lockstep batch bisection."""

    __slots__ = (
        "model", "run_cores", "core_results", "statics", "lo", "hi", "hint",
        "mem_lat_ns", "iterations", "it", "mid", "warm_depth",
        "warm_rejected", "evals",
    )

    def __init__(self, model, run_cores, lo, hi, hint):
        self.model = model
        self.run_cores = run_cores
        self.core_results: Optional[List[CoreResult]] = None
        self.statics: Optional[List[CoreBatchStatics]] = None
        self.lo = lo
        self.hi = hi
        self.hint = hint
        self.mem_lat_ns: Optional[float] = None
        self.iterations = 1
        self.it = 2  # the scalar loop counter this solve resumes from
        self.mid = lo
        self.warm_depth = 0
        self.warm_rejected = False
        self.evals = 0  # full-chip traffic evaluations (kernel or scalar)


def _warm_bracket(lo: float, hi: float, hint: float) -> Tuple[float, float, int]:
    """Descend the cold-bisection midpoint lattice toward ``hint``.

    Replicates the exact float arithmetic (``mid = 0.5 * (lo + hi)``) and
    halving structure cold bisection would produce, always choosing the
    half that contains the hint.  Descent stops while the cell is still
    wide (>= 8x the convergence tolerance, so a certified cell keeps every
    skipped ancestor midpoint at least 8 tolerances away from the root,
    where cold bisection can neither early-exit nor branch differently)
    and while the hint keeps a safety margin from both walls (a hint close
    to a wall suggests the root may sit on the other side, which the
    certification step would then reject).  The depth cap stays far below
    BISECTION_STEPS, so a resumed loop always has iterations left.
    """
    depth = 0
    while depth < 30:
        mid = 0.5 * (lo + hi)
        if hint > mid:
            new_lo, new_hi = mid, hi
        else:
            new_lo, new_hi = lo, mid
        width = new_hi - new_lo
        if width < 8.0 * CONVERGENCE_NS:
            break
        margin = max(4.0 * CONVERGENCE_NS, 0.25 * width)
        if hint - new_lo < margin or new_hi - hint < margin:
            break
        lo, hi = new_lo, new_hi
        depth += 1
    return lo, hi, depth


class _BatchTrafficKernel:
    """Flat elementwise kernel: chip traffic at a trial latency, per solve.

    One instance concatenates the threads of many chip solves (same or
    different designs) into flat NumPy vectors; ``traffic_many`` then
    reproduces what each solve's ``run_cores(L)`` would return as traffic —
    bit-for-bit.  Two rules make that exact: every *elementwise* float64
    operation maps one-to-one onto the scalar expression (IEEE-identical),
    and every *reduction* (per-core demand sums, the chip traffic chain)
    runs as a sequential Python loop in scalar flat order, because NumPy's
    pairwise summation and ``np.power`` are not bit-identical to Python's
    ``sum`` and ``**``.
    """

    __slots__ = (
        "_n", "_counts", "_freq", "_mpi", "_mlp", "_static", "_duty",
        "_memfrac", "_nonmemfrac", "_busy", "_has_inorder", "_blocks",
        "_mpi_list", "_k1_idx", "_k1_ooo", "_k1_pipe_den", "_k1_ldst_den",
        "_k1_alu_den", "_k1_cps", "_k1_line",
    )

    def __init__(self, solves: Sequence[_ActiveSolve]):
        blocks = []
        counts = []
        # Flat Python lists first, one np.array per field at the end:
        # array construction is paid once per batch, not once per core.
        freq_l: List[float] = []
        mpi_l: List[float] = []
        mlp_l: List[float] = []
        static_l: List[float] = []
        duty_l: List[float] = []
        memfrac_l: List[float] = []
        nonmemfrac_l: List[float] = []
        busy_l: List[float] = []
        # Single-thread cores dominate real placements (threads spread
        # across cores before they stack); their demand "sums" are the lone
        # element, so the whole block reduces to elementwise arithmetic.
        # Collect them once and the kernel evaluates every such core with a
        # handful of NumPy ops instead of four Python loops per block.
        k1_idx: List[int] = []
        k1_ooo: List[bool] = []
        k1_pipe_den: List[float] = []
        k1_ldst_den: List[float] = []
        k1_alu_den: List[float] = []
        k1_cps: List[float] = []
        k1_line: List[float] = []
        pos = 0
        for sidx, solve in enumerate(solves):
            line_bytes = solve.model.uncore.llc.line_bytes
            total = 0
            for st in solve.statics:
                k = st.n_threads
                if k == 1:
                    k1_slot = len(k1_idx)
                    k1_idx.append(pos)
                    k1_ooo.append(st.is_out_of_order)
                    k1_pipe_den.append(st.pipe_denominator)
                    k1_ldst_den.append(st.ldst_denominator)
                    k1_alu_den.append(st.alu_denominator)
                    k1_cps.append(st.frequency_ghz * 1e9)
                    k1_line.append(line_bytes)
                else:
                    k1_slot = -1
                blocks.append((
                    pos, pos + k, st.is_out_of_order, st.pipe_denominator,
                    st.ldst_denominator, st.alu_denominator,
                    st.frequency_ghz * 1e9, sidx, line_bytes, k1_slot,
                ))
                freq_l.extend([st.frequency_ghz] * k)
                mpi_l.extend(st.dram_mpi)
                mlp_l.extend(st.mlp)
                static_l.extend(st.static_cpi)
                duty_l.extend(st.duty_cycle)
                memfrac_l.extend(st.mem_frac)
                nonmemfrac_l.extend(st.nonmem_frac)
                busy_l.extend(st.busy_cpi)
                pos += k
                total += k
            counts.append(total)
        self._n = len(solves)
        self._counts = np.array(counts)
        self._blocks = blocks
        as_array = lambda xs: np.array(xs, dtype=np.float64)  # noqa: E731
        self._freq = as_array(freq_l)
        self._mpi = as_array(mpi_l)
        self._mlp = as_array(mlp_l)
        self._static = as_array(static_l)
        self._duty = as_array(duty_l)
        self._memfrac = as_array(memfrac_l)
        self._nonmemfrac = as_array(nonmemfrac_l)
        self._busy = as_array(busy_l)
        self._has_inorder = any(not b[2] for b in blocks)
        self._mpi_list = mpi_l
        self._k1_idx = np.array(k1_idx, dtype=np.intp)
        self._k1_ooo = np.array(k1_ooo, dtype=bool)
        self._k1_pipe_den = as_array(k1_pipe_den)
        self._k1_ldst_den = as_array(k1_ldst_den)
        self._k1_alu_den = as_array(k1_alu_den)
        self._k1_cps = as_array(k1_cps)
        self._k1_line = as_array(k1_line)

    def traffic_many(
        self,
        mem_lat_ns: Sequence[float],
        active: Optional[set] = None,
    ) -> List[float]:
        """Per-solve chip traffic at per-solve trial latencies.

        ``active`` optionally restricts the per-core reduction loops to the
        given solve indices (converged solves keep a stale latency in
        ``mem_lat_ns`` and their totals are unused, so skipping their
        blocks changes nothing but the wall time).
        """
        if self._n == 1:
            lat = mem_lat_ns[0] * self._freq
        else:
            lat = np.repeat(mem_lat_ns, self._counts) * self._freq
        # cpi(L) = static + mpi*L/mlp; rate = (1/cpi) * duty  [elementwise]
        cpi = self._static + (self._mpi * lat) / self._mlp
        rates = (1.0 / cpi) * self._duty
        ld_arr = rates * self._memfrac
        al_arr = rates * self._nonmemfrac
        bz_arr = rates * self._busy if self._has_inorder else rates
        rl = rates.tolist()
        ldl = ld_arr.tolist()
        al = al_arr.tolist()
        bzl = bz_arr.tolist() if self._has_inorder else rl
        # Single-thread blocks, all at once: every scalar expression below
        # maps onto one elementwise op (gathers only move values), so each
        # element is the float the per-block loops would have produced.
        if len(self._k1_idx):
            idx = self._k1_idx
            r1 = rates[idx]
            pipe = np.where(self._k1_ooo, r1, bz_arr[idx]) / self._k1_pipe_den
            ldst = ld_arr[idx] / self._k1_ldst_den
            alu = al_arr[idx] / self._k1_alu_den
            worst = np.maximum(np.maximum(pipe, ldst), alu)
            base = np.where(worst <= 1.0, r1, r1 * (1.0 / worst))
            k1_contrib = (
                ((base * self._k1_cps) * self._mpi[idx]) * self._k1_line
            ) * WRITEBACK_TRAFFIC_FACTOR
            k1l = k1_contrib.tolist()
        totals = [0.0] * self._n
        mpi_l = self._mpi_list
        wb = WRITEBACK_TRAFFIC_FACTOR
        for start, stop, is_ooo, pipe_den, ldst_den, alu_den, cps, sidx, line, k1 in (
            self._blocks
        ):
            if active is not None and sidx not in active:
                continue
            if k1 >= 0:
                totals[sidx] = totals[sidx] + k1l[k1]
                continue
            span = range(start, stop)
            acc = 0.0
            if is_ooo:
                for i in span:
                    acc += rl[i]
            else:
                for i in span:
                    acc += bzl[i]
            pipe = acc / pipe_den
            acc = 0.0
            for i in span:
                acc += ldl[i]
            ldst = acc / ldst_den
            acc = 0.0
            for i in span:
                acc += al[i]
            alu = acc / alu_den
            worst = max(pipe, ldst, alu)
            total = totals[sidx]
            if worst <= 1.0:  # scale 1.0: r * 1.0 == r bitwise
                for i in span:
                    total += rl[i] * cps * mpi_l[i] * line * wb
            else:
                scale = 1.0 / worst
                for i in span:
                    total += (rl[i] * scale) * cps * mpi_l[i] * line * wb
            totals[sidx] = total
        return totals


def _bisect_many(all_solves: Sequence[_ActiveSolve]) -> None:
    """Advance kernel-capable solves to their converged latency in lockstep.

    The first round evaluates every solve's traffic at its unloaded lower
    endpoint and applies the scalar path's shortcut test (bus effectively
    unloaded -> converged at ``lo`` with ``iterations == 1``).  One combined
    kernel then evaluates each remaining round's midpoints for all solves
    at once; the per-solve control flow replicates the scalar loop exactly
    (same float midpoints, same break conditions, same iteration-counter
    semantics), so converged latencies *and* reported iteration counts are
    bit-identical to cold scalar bisection — with or without warm-start
    hints.
    """
    kernel = _BatchTrafficKernel(all_solves)
    totals = kernel.traffic_many([s.lo for s in all_solves])
    solves: List[_ActiveSolve] = []
    for i, s in enumerate(all_solves):
        s.evals += 1
        if s.model._loaded_mem_latency_ns(totals[i]) <= s.lo + CONVERGENCE_NS:
            s.mem_lat_ns = s.lo  # bus effectively unloaded: no contention
        else:
            solves.append(s)
    if not solves:
        _observe_bisection_metrics(all_solves)
        return
    if len(solves) != len(all_solves):
        kernel = _BatchTrafficKernel(solves)  # drop finished solves' threads
    n = len(solves)

    # Warm start: dyadic descent toward each hint costs no evaluations;
    # two batched evaluations then certify the descended endpoints
    # (g(lo) >= tol and g(hi) <= -tol bracket the root and rule out any
    # behavioural difference from cold bisection at skipped midpoints).
    # Endpoints equal to the original bracket walls need no certification:
    # the failed shortcut already proved g > tol at the unloaded latency,
    # and the latency cap guarantees g <= 0 at the loaded maximum.
    descended: List[Optional[Tuple[float, float, int]]] = [None] * n
    for i, s in enumerate(solves):
        if s.hint is not None and s.lo < s.hint < s.hi:
            lo_w, hi_w, depth = _warm_bracket(s.lo, s.hi, s.hint)
            if depth:
                descended[i] = (lo_w, hi_w, depth)
    if any(descended):
        lo_ok = [d is not None for d in descended]
        lats = [d[0] if d else s.lo for d, s in zip(descended, solves)]
        totals = kernel.traffic_many(lats)
        for i, (d, s) in enumerate(zip(descended, solves)):
            if d and d[0] != s.lo:
                s.evals += 1
                g_lo = s.model._loaded_mem_latency_ns(totals[i]) - d[0]
                lo_ok[i] = g_lo >= CONVERGENCE_NS
        lats = [
            d[1] if (d and lo_ok[i]) else s.lo
            for i, (d, s) in enumerate(zip(descended, solves))
        ]
        totals = kernel.traffic_many(lats)
        for i, (d, s) in enumerate(zip(descended, solves)):
            if not d:
                continue
            certified = lo_ok[i]
            if certified and d[1] != s.hi:
                s.evals += 1
                g_hi = s.model._loaded_mem_latency_ns(totals[i]) - d[1]
                certified = g_hi <= -CONVERGENCE_NS
            s.warm_depth = d[2]
            if certified:
                s.lo, s.hi = d[0], d[1]
                s.it = d[2] + 2  # resume the loop counter past the descent
            else:
                s.warm_rejected = True  # cold bracket: results unaffected

    active = list(range(n))
    lats = [s.lo for s in solves]
    while active:
        for i in active:
            s = solves[i]
            s.mid = 0.5 * (s.lo + s.hi)
            lats[i] = s.mid
        totals = kernel.traffic_many(
            lats, set(active) if len(active) < n else None
        )
        nxt = []
        for i in active:
            s = solves[i]
            s.evals += 1
            induced = s.model._loaded_mem_latency_ns(totals[i])
            mid = s.mid
            s.iterations = s.it
            if (
                abs(induced - mid) < CONVERGENCE_NS
                or s.hi - s.lo < CONVERGENCE_NS
            ):
                s.mem_lat_ns = 0.5 * (s.lo + s.hi)  # == mid, bitwise
            else:
                if induced > mid:
                    s.lo = mid
                else:
                    s.hi = mid
                if s.it == BISECTION_STEPS + 1:  # scalar loop exhausted
                    s.mem_lat_ns = 0.5 * (s.lo + s.hi)
                else:
                    s.it += 1
                    nxt.append(i)
        active = nxt

    _observe_bisection_metrics(all_solves)


def _observe_bisection_metrics(solves: Sequence[_ActiveSolve]) -> None:
    if not METRICS.enabled:
        return
    for s in solves:
        if s.warm_depth and not s.warm_rejected:
            METRICS.inc("interval.solver.warm_hits")
        elif s.warm_rejected:
            METRICS.inc("interval.solver.warm_rejected")
        METRICS.observe("interval.solver.evals", float(s.evals))


def evaluate_batch(
    requests: Sequence[
        Tuple[ChipModel, Placement, bool, Optional[float]]
    ],
) -> List[ChipResult]:
    """Solve many placements in lockstep through one shared batch kernel.

    Each request is ``(model, placement, smt, mem_latency_hint_ns)``; models
    may belong to different designs.  Results are index-aligned with the
    requests and bit-identical to calling ``model.evaluate(...)`` per point
    — per-point spans (``interval.model``, ``interval.cache-shares``) and
    metrics are preserved; the lockstep bisection itself runs under a
    single shared ``interval.dram-contention`` span.
    """
    instrumented = TRACER.enabled or METRICS.enabled
    solves: List[_ActiveSolve] = []
    for model, placement, smt, hint in requests:
        if instrumented:
            with TRACER.span(
                "interval.model",
                cat="interval",
                design=model.design.name,
                threads=placement.num_threads,
                smt=smt,
                batched=True,
            ):
                solves.append(model._prepare_solve(placement, smt, hint))
        else:
            solves.append(model._prepare_solve(placement, smt, hint))
    lockstep = [
        s for s in solves if s.mem_lat_ns is None and s.statics is not None
    ]
    if lockstep:
        with TRACER.span(
            "interval.dram-contention", cat="interval", points=len(lockstep)
        ) as dram_span:
            _bisect_many(lockstep)
            dram_span.set(
                iterations=max(s.iterations for s in lockstep)
            )
        for s in lockstep:
            s.core_results, _ = s.run_cores(s.mem_lat_ns)
    results: List[ChipResult] = []
    for (model, placement, smt, _hint), s in zip(requests, solves):
        if s.mem_lat_ns is None:  # ICOUNT SMT fallback: scalar loop
            s.core_results, _, s.mem_lat_ns, s.iterations = (
                model._bisect_scalar(s.run_cores, s.lo, s.hi)
            )
        result = model._finalize(
            placement, s.core_results, s.mem_lat_ns, s.iterations
        )
        if METRICS.enabled:
            model._record_metrics(result)
        results.append(result)
    return results
