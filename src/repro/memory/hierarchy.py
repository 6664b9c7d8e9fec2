"""Per-core cache hierarchy plus the chip-shared LLC and DRAM.

:class:`MemoryHierarchy` composes the stateful pieces of
:mod:`repro.memory.cache` and :mod:`repro.memory.dram` into the paper's
memory system: private L1I/L1D/L2 per core, one shared LLC, a full crossbar
(fixed hop latency, contention-free by design — Section 3.1), and banked
DRAM behind the off-chip bus.

The hierarchy returns *latencies in nanoseconds* for each access so cores
running at different frequencies (the ``_hf`` variants) convert correctly.

This module sits on the cycle-level simulator's hot path, so the demand
access chain is flattened (no per-level helper calls on hits), hit
latencies for the fixed-latency levels (L1, L2, and — on the contention-free
crossbar — the LLC) are served from per-core *interned*
:class:`AccessResult` instances instead of allocating one per access, and
per-level demand counters accumulate in plain attributes that
:meth:`MemoryHierarchy.publish_metrics` flushes to
:data:`repro.obs.METRICS` in one batch after a run.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.memory.cache import Cache
from repro.memory.dram import DramModel
from repro.microarch.config import CoreConfig
from repro.microarch.uncore import UncoreConfig
from repro.obs import METRICS


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory access."""

    latency_ns: float
    level: str  # "l1", "l2", "llc", "dram"


class CoreCaches:
    """The private cache levels of one core."""

    def __init__(self, core: CoreConfig, core_index: int):
        self.core = core
        self.l1i = Cache(core.l1i, name=f"core{core_index}.l1i")
        self.l1d = Cache(core.l1d, name=f"core{core_index}.l1d")
        self.l2 = Cache(core.l2, name=f"core{core_index}.l2")


class MemoryHierarchy:
    """Shared memory system for a multi-core chip."""

    def __init__(
        self,
        cores: Tuple[CoreConfig, ...],
        uncore: UncoreConfig,
        prefetcher: Optional[str] = None,
    ):
        """``prefetcher`` installs a per-core data prefetcher: ``None``
        (the paper's configuration), ``"nextline"`` or ``"stride"``.
        Prefetch fills land in L2 and the LLC off the demand path, but
        occupy DRAM banks and the off-chip bus like real traffic."""
        if prefetcher not in (None, "nextline", "stride"):
            raise ValueError(
                f"prefetcher must be None, 'nextline' or 'stride', "
                f"got {prefetcher!r}"
            )
        self.uncore = uncore
        self.core_caches: List[CoreCaches] = [
            CoreCaches(core, i) for i, core in enumerate(cores)
        ]
        from repro.memory.prefetch import NextLinePrefetcher, StridePrefetcher

        self.prefetchers = [
            NextLinePrefetcher()
            if prefetcher == "nextline"
            else StridePrefetcher()
            if prefetcher == "stride"
            else None
            for _ in cores
        ]
        self._has_prefetchers = prefetcher is not None
        self.llc = Cache(uncore.llc, name="llc")
        self.dram = DramModel(uncore.dram, line_bytes=uncore.llc.line_bytes)
        self._cores = cores
        # A shared-bus interconnect (ablation; the paper's baseline is a
        # contention-free crossbar) serializes core<->LLC transactions: each
        # occupies the bus for one hop time.
        self._llc_bus_free_ns = 0.0
        self._is_bus = uncore.interconnect.kind == "bus"
        # Interned fixed-latency results and precomputed level latencies,
        # one entry per core (L1/L2 always; LLC only on the crossbar, where
        # no queueing term varies per access).
        self._d_l1: List[AccessResult] = []
        self._d_l2: List[AccessResult] = []
        self._d_llc: List[Optional[AccessResult]] = []
        self._i_l1: List[AccessResult] = []
        self._i_l2: List[AccessResult] = []
        self._i_llc: List[Optional[AccessResult]] = []
        llc_hit_ns = self._llc_hit_ns()
        for core in cores:
            ghz = core.frequency_ghz
            d_l1 = core.l1d.latency_cycles / ghz
            i_l1 = core.l1i.latency_cycles / ghz
            l2 = core.l2.latency_cycles / ghz
            self._d_l1.append(AccessResult(d_l1, "l1"))
            self._d_l2.append(AccessResult(d_l1 + l2, "l2"))
            self._i_l1.append(AccessResult(i_l1, "l1"))
            self._i_l2.append(AccessResult(i_l1 + l2, "l2"))
            if self._is_bus:
                self._d_llc.append(None)
                self._i_llc.append(None)
            else:
                self._d_llc.append(AccessResult(d_l1 + l2 + llc_hit_ns, "llc"))
                self._i_llc.append(AccessResult(i_l1 + l2 + llc_hit_ns, "llc"))
        # Demand counters per (stream, level), flushed by publish_metrics.
        self.demand_counts = {
            "data.l1": 0,
            "data.l2": 0,
            "data.llc": 0,
            "data.dram": 0,
            "inst.l1": 0,
            "inst.l2": 0,
            "inst.llc": 0,
            "inst.dram": 0,
            "prefetch_fills": 0,
        }
        self._published_counts = dict(self.demand_counts)

    # ------------------------------------------------------------------ #
    # latency building blocks (nanoseconds)                               #
    # ------------------------------------------------------------------ #

    def _cycles_to_ns(self, cycles: float, frequency_ghz: float) -> float:
        return cycles / frequency_ghz

    def _hop_ns(self) -> float:
        ic = self.uncore.interconnect
        return ic.hop_latency_cycles / ic.frequency_ghz

    def _llc_hit_ns(self) -> float:
        ic = self.uncore.interconnect
        return (
            2 * self._hop_ns() + self.uncore.llc.latency_cycles / ic.frequency_ghz
        )

    def _interconnect_delay_ns(self, now_ns: float) -> float:
        """Extra queueing before reaching the LLC (zero on the crossbar)."""
        if not self._is_bus:
            return 0.0
        start = max(now_ns, self._llc_bus_free_ns)
        self._llc_bus_free_ns = start + self._hop_ns()
        return start - now_ns

    def warm(self, core_index: int, addresses: List[int]) -> None:
        """Pre-load caches with a working set (LRU-to-MRU order), statless.

        Every level is warmed; set-associativity naturally keeps only the
        most recently warmed lines at each level.
        """
        caches = self.core_caches[core_index]
        l1d_warm = caches.l1d.warm
        l1i_warm = caches.l1i.warm
        l2_warm = caches.l2.warm
        llc_warm = self.llc.warm
        for address in addresses:
            l1d_warm(address)
            l1i_warm(address)
            l2_warm(address)
            llc_warm(address)

    # ------------------------------------------------------------------ #
    # accesses                                                            #
    # ------------------------------------------------------------------ #

    def data_access(
        self,
        core_index: int,
        address: int,
        now_ns: float,
        is_write: bool = False,
        pc: int = 0,
    ) -> AccessResult:
        """A load/store from core ``core_index``; returns total latency."""
        caches = self.core_caches[core_index]
        if caches.l1d.access(address, is_write):
            self.demand_counts["data.l1"] += 1
            result = self._d_l1[core_index]
        else:
            result = self.data_l1_miss(core_index, address, now_ns, is_write)
        if self._has_prefetchers:
            prefetcher = self.prefetchers[core_index]
            if prefetcher is not None:
                for target in prefetcher.observe(
                    pc, address, result.level != "l1"
                ):
                    self._prefetch_fill(core_index, target, now_ns)
        return result

    def data_l1_miss(
        self, core_index: int, address: int, now_ns: float, is_write: bool
    ) -> AccessResult:
        """The L2-and-beyond data path, after the caller has already probed
        (and allocated the line into) the core's L1D.

        Split out of :meth:`data_access` so the cycle tier's stepping loop
        can inline the L1D lookup against precomputed set/tag arrays
        (:mod:`repro.sim.kernel`) and fall through here only on a miss.
        """
        caches = self.core_caches[core_index]
        if caches.l2.access(address, is_write):
            self.demand_counts["data.l2"] += 1
            return self._d_l2[core_index]
        return self._shared_data_access(core_index, address, now_ns, is_write)

    def _shared_data_access(
        self, core_index: int, address: int, now_ns: float, is_write: bool
    ) -> AccessResult:
        """The L2-miss path: LLC, then DRAM (shared, stateful timing)."""
        counts = self.demand_counts
        interned = self._d_llc[core_index]
        if interned is not None:  # crossbar: fixed LLC hit latency
            if self.llc.access(address, is_write):
                counts["data.llc"] += 1
                return interned
            llc_ns = interned.latency_ns
        else:
            core = self._cores[core_index]
            ghz = core.frequency_ghz
            l2_ns = (
                core.l1d.latency_cycles / ghz + core.l2.latency_cycles / ghz
            )
            l2_ns += self._interconnect_delay_ns(now_ns + l2_ns)
            llc_ns = l2_ns + self._llc_hit_ns()
            if self.llc.access(address, is_write):
                counts["data.llc"] += 1
                return AccessResult(llc_ns, "llc")
        counts["data.dram"] += 1
        self._drain_llc_writeback(now_ns + llc_ns)
        done = self.dram.access(address, now_ns + llc_ns)
        return AccessResult(done - now_ns, "dram")

    def _prefetch_fill(self, core_index: int, address: int, now_ns: float) -> None:
        """Bring a predicted line into L2/LLC without charging a consumer."""
        caches = self.core_caches[core_index]
        if caches.l2.probe(address):
            return
        self.demand_counts["prefetch_fills"] += 1
        if not self.llc.probe(address):
            self.dram.access(address, now_ns)  # occupies bank + bus
            self.llc.warm(address)
        caches.l2.warm(address)

    def _drain_llc_writeback(self, now_ns: float) -> None:
        """Send a dirty LLC victim to DRAM (occupies a bank and the bus).

        Writebacks are off the load's critical path, but they do consume
        memory bandwidth — the cycle-level analogue of the interval tier's
        writeback traffic factor.
        """
        victim = self.llc.last_writeback_address
        if victim is not None:
            self.dram.access(victim, now_ns)

    def instruction_access(
        self, core_index: int, address: int, now_ns: float
    ) -> AccessResult:
        """An instruction fetch from core ``core_index``."""
        caches = self.core_caches[core_index]
        counts = self.demand_counts
        if caches.l1i.access(address):
            counts["inst.l1"] += 1
            return self._i_l1[core_index]
        if caches.l2.access(address):
            counts["inst.l2"] += 1
            return self._i_l2[core_index]
        interned = self._i_llc[core_index]
        if interned is not None:
            if self.llc.access(address):
                counts["inst.llc"] += 1
                return interned
            llc_ns = interned.latency_ns
        else:
            core = self._cores[core_index]
            ghz = core.frequency_ghz
            l2_ns = (
                core.l1i.latency_cycles / ghz + core.l2.latency_cycles / ghz
            )
            l2_ns += self._interconnect_delay_ns(now_ns + l2_ns)
            llc_ns = l2_ns + self._llc_hit_ns()
            if self.llc.access(address):
                counts["inst.llc"] += 1
                return AccessResult(llc_ns, "llc")
        counts["inst.dram"] += 1
        self._drain_llc_writeback(now_ns + llc_ns)
        done = self.dram.access(address, now_ns + llc_ns)
        return AccessResult(done - now_ns, "dram")

    # ------------------------------------------------------------------ #
    # observability                                                       #
    # ------------------------------------------------------------------ #

    def publish_metrics(self) -> None:
        """Flush batched demand/cache counters to METRICS.

        Called by the simulator once per run; totals equal what per-access
        increments would have produced (``sim.mem.*`` and
        ``sim.cache.<level>.*``), without any hot-path METRICS traffic.
        """
        if not METRICS.enabled:
            return
        for key, value in self.demand_counts.items():
            delta = value - self._published_counts[key]
            if delta:
                name = (
                    "sim.mem.prefetch_fills"
                    if key == "prefetch_fills"
                    else f"sim.mem.{key}"
                )
                METRICS.inc(name, delta)
                self._published_counts[key] = value
        for caches in self.core_caches:
            caches.l1i.publish_metrics()
            caches.l1d.publish_metrics()
            caches.l2.publish_metrics()
        self.llc.publish_metrics()
