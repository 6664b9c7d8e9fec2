"""Fast-path correctness: full and live runs reproduce committed
fingerprints, finished runs are freed by reference counting, and the
fetch/issue micro-optimizations preserve the modelled semantics."""

import gc
import json
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.designs import ChipDesign, get_design
from repro.memory.hierarchy import MemoryHierarchy
from repro.microarch.config import BIG, MEDIUM, SMALL, CacheConfig
from repro.microarch.uncore import DEFAULT_UNCORE, InterconnectConfig
from repro.sim.core import PipelineCore
from repro.sim.kernel import FU_CLASSES
from repro.sim.multicore import MulticoreSimulator, ThreadSim
from repro.workloads.spec import get_profile
from repro.workloads.tracegen import TraceGenerator


def _fingerprint(result):
    """Every reported statistic of a run, for exact comparison."""
    return {
        "total_cycles": result.total_cycles,
        "dram_mean_latency_ns": result.dram_mean_latency_ns,
        "dram_requests": result.dram_requests,
        "threads": [
            (
                core_index,
                stats.instructions,
                stats.cycles,
                stats.branch_mispredicts,
                dict(stats.level_hits),
            )
            for core_index, stats in result.thread_stats
        ],
    }


GOLDEN_CONFIGS = [
    # (id, design, thread specs [(profile, core_index)], fetch_policy)
    ("ooo-single", ChipDesign(name="g-1B", cores=(BIG,)), [("tonto", 0)], "roundrobin"),
    (
        "ooo-smt3-rr",
        ChipDesign(name="g-1B", cores=(BIG,)),
        [("mcf", 0), ("libquantum", 0), ("hmmer", 0)],
        "roundrobin",
    ),
    (
        "ooo-smt3-icount",
        ChipDesign(name="g-1B", cores=(BIG,)),
        [("mcf", 0), ("libquantum", 0), ("hmmer", 0)],
        "icount",
    ),
    (
        "inorder-smt2-rr",
        ChipDesign(name="g-1s", cores=(SMALL,)),
        [("mcf", 0), ("tonto", 0)],
        "roundrobin",
    ),
    (
        "inorder-smt2-icount",
        ChipDesign(name="g-1s", cores=(SMALL,)),
        [("milc", 0), ("gobmk", 0)],
        "icount",
    ),
    (
        "multicore-mixed",
        ChipDesign(name="g-2m", cores=(MEDIUM, MEDIUM)),
        [("mcf", 0), ("lbm", 1)],
        "roundrobin",
    ),
    (
        "bus-interconnect",
        ChipDesign(
            name="g-2m-bus",
            cores=(MEDIUM, MEDIUM),
            uncore=replace(
                DEFAULT_UNCORE, interconnect=InterconnectConfig(kind="bus")
            ),
        ),
        [("mcf", 0), ("milc", 1)],
        "roundrobin",
    ),
]


#: Fingerprints recorded from a known-good build (floats kept exact by JSON).
FROZEN = json.loads(
    (Path(__file__).parent / "data" / "sim_fingerprints.json").read_text()
)

#: 4-thread chip mixes at 6,000 instructions, run full and live-sampled.
CHIP_MIXES = [
    ("4B", [("lbm", 0), ("milc", 1), ("tonto", 2), ("hmmer", 3)]),
    ("3B2m", [("mcf", 0), ("gobmk", 0), ("libquantum", 1), ("gamess", 3)]),
    ("2B10s", [("mcf", 0), ("lbm", 1), ("tonto", 2), ("astar", 2)]),
]


def _threads(specs):
    return [ThreadSim(get_profile(name), core_index=idx) for name, idx in specs]


def _frozen(result):
    """``_fingerprint`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(_fingerprint(result)))


class TestFrozenFingerprints:
    """Runs must reproduce the committed fingerprints exactly."""

    @pytest.mark.parametrize(
        "name,design,specs,policy", GOLDEN_CONFIGS, ids=[c[0] for c in GOLDEN_CONFIGS]
    )
    def test_golden_config(self, name, design, specs, policy):
        sim = MulticoreSimulator(design, fetch_policy=policy)
        hierarchy, cores = sim.prepare(_threads(specs), instructions_per_thread=2500)
        assert _frozen(sim.execute(hierarchy, cores)) == FROZEN["golden"][name]

    def test_shared_llc_design(self):
        sim = MulticoreSimulator(get_design("8m"))
        specs = [("mcf", 0), ("libquantum", 1), ("milc", 2), ("lbm", 3)]
        hierarchy, cores = sim.prepare(_threads(specs), instructions_per_thread=1500)
        frozen = FROZEN["golden"]["shared-llc-8m"]
        assert _frozen(sim.execute(hierarchy, cores)) == frozen

    @pytest.mark.parametrize("mode", ["full", "live"])
    @pytest.mark.parametrize("design,specs", CHIP_MIXES, ids=[c[0] for c in CHIP_MIXES])
    def test_chip_mix(self, design, specs, mode):
        result = MulticoreSimulator(get_design(design)).run(
            _threads(specs), 6000, sampling="live" if mode == "live" else None
        )
        assert _frozen(result) == FROZEN["chips"][f"{design}-{mode}"]

    @pytest.mark.parametrize("prefetcher", ["stride", "nextline"])
    def test_prefetcher(self, prefetcher):
        """With a prefetcher installed every data access takes the full
        hierarchy path (no inlined L1D probe) so the prefetcher sees it."""
        sim = MulticoreSimulator(get_design("2B4m"), prefetcher=prefetcher)
        hierarchy, cores = sim.prepare(
            _threads([("mcf", 0), ("milc", 2)]), instructions_per_thread=2000
        )
        frozen = FROZEN["golden"][f"prefetch-{prefetcher}-2B4m"]
        assert _frozen(sim.execute(hierarchy, cores)) == frozen

    def test_pipeline_run(self):
        """A single core driven through :meth:`PipelineCore.run`."""
        hierarchy = MemoryHierarchy((SMALL,), DEFAULT_UNCORE)
        gen = TraceGenerator(get_profile("mcf"), seed=11)
        hierarchy.warm(0, gen.warm_addresses())
        core = PipelineCore(SMALL, 0, hierarchy, [gen.generate(3000)])
        core.run()
        stats = core.threads[0].stats
        assert {
            "cycle": core.cycle,
            "instructions": stats.instructions,
            "cycles": stats.cycles,
            "branch_mispredicts": stats.branch_mispredicts,
            "level_hits": dict(stats.level_hits),
        } == FROZEN["pipeline"]["small-mcf-run"]


class TestIdleSkipGolden:
    """Skipping idle cycles must not skip past the cycle cap."""

    def test_max_cycles_still_enforced_when_skipping(self):
        hierarchy = MemoryHierarchy((BIG,), DEFAULT_UNCORE)
        gen = TraceGenerator(get_profile("mcf"), seed=3)
        core = PipelineCore(BIG, 0, hierarchy, [gen.generate(5000)])
        with pytest.raises(RuntimeError, match="cycles"):
            core.run(max_cycles=10)


class TestFinishedRunIsFreed:
    def test_no_reference_cycles(self):
        """Dropping a finished run frees its cores and hierarchy without
        the cyclic garbage collector."""
        sim = MulticoreSimulator(get_design("4B"))
        hierarchy, cores = sim.prepare(
            _threads([("mcf", 0), ("tonto", 0), ("lbm", 1)]), 500
        )
        sim.execute(hierarchy, cores)
        refs = [weakref.ref(hierarchy)] + [weakref.ref(c) for c in cores]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del hierarchy, cores
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()


class TestFetchLineGranularity:
    """Regression: i-fetch dedup must use the core's own L1I line size."""

    def _count_ifetches(self, l1i_line, llc_line):
        core = replace(
            BIG,
            l1i=CacheConfig(
                size_bytes=32 * 1024,
                associativity=4,
                latency_cycles=2,
                line_bytes=l1i_line,
            ),
        )
        uncore = replace(
            DEFAULT_UNCORE,
            llc=replace(DEFAULT_UNCORE.llc, line_bytes=llc_line),
        )
        hierarchy = MemoryHierarchy((core,), uncore)
        gen = TraceGenerator(get_profile("gamess"), seed=5)
        hierarchy.warm(0, gen.warm_addresses())
        pipeline = PipelineCore(core, 0, hierarchy, [gen.generate(2000)])
        pipeline.run()
        counts = hierarchy.demand_counts
        return sum(counts[k] for k in ("inst.l1", "inst.l2", "inst.llc", "inst.dram"))

    def test_smaller_l1i_lines_fetch_more_often_than_llc_lines(self):
        # With 32-byte L1I lines and 128-byte LLC lines, dedup at LLC
        # granularity (the old bug) would roughly quarter the fetch count;
        # dedup at L1I granularity must *increase* it vs 128-byte L1I lines.
        small_lines = self._count_ifetches(l1i_line=32, llc_line=128)
        large_lines = self._count_ifetches(l1i_line=128, llc_line=128)
        assert small_lines > large_lines * 2


class TestFunctionalUnitSkipList:
    """The next-free-cycle skip list must behave like the linear probe."""

    INT, LDST, MULDIV = (FU_CLASSES.index(c) for c in ("int", "ldst", "muldiv"))

    def _core(self):
        hierarchy = MemoryHierarchy((BIG,), DEFAULT_UNCORE)
        gen = TraceGenerator(get_profile("tonto"), seed=9)
        return PipelineCore(BIG, 0, hierarchy, [gen.generate(10)])

    def test_saturated_cycles_spill_forward(self):
        core = self._core()
        units = core._fu_units[self.LDST]
        got = [core._acquire_fu(self.LDST, 100, 0) for _ in range(3 * units)]
        assert got == [100] * units + [101] * units + [102] * units

    def test_hole_filling_before_reserved_cycles(self):
        core = self._core()
        units = core._fu_units[self.INT]
        for _ in range(units):
            core._acquire_fu(self.INT, 200, 0)
        # An earlier-ready instruction must still issue earlier.
        assert core._acquire_fu(self.INT, 150, 0) == 150

    def test_prune_preserves_future_reservations(self):
        core = self._core()
        units = core._fu_units[self.MULDIV]
        for _ in range(units):
            core._acquire_fu(self.MULDIV, 5000, 0)  # future reservation
        busy = core._fu_busy[self.MULDIV]
        for c in range(3000):  # stale past-cycle entries
            busy[c] = units
        core._prune_fu_state(4000)
        assert all(c >= 4000 for c in busy)
        assert busy[5000] == units
        # The surviving reservation still forces a spill to the next cycle.
        assert core._acquire_fu(self.MULDIV, 5000, 4000) == 5001
