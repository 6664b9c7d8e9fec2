"""Cycle-level pipeline models: out-of-order and in-order cores with SMT.

One :class:`PipelineCore` advances cycle by cycle:

* **fetch/dispatch** — up to ``width`` instructions per cycle enter the
  back-end, shared round-robin among the resident hardware threads (the
  paper's SMT fetch policy [24]); a thread stalls on branch mispredictions
  (front-end redirect) and instruction-cache misses;
* **out-of-order back-end** — each thread owns a statically partitioned ROB
  slice; a dispatched instruction issues once its register producer has
  completed and a functional unit of its class is free, so independent
  instructions (including loads) overlap — memory-level parallelism emerges
  naturally from the window;
* **in-order back-end** (small cores) — dispatch blocks until the
  instruction's producer has completed (stall-on-use) and miss latencies
  serialize; with two hardware threads the core switches to the other
  thread's instructions while one is stalled (fine-grained MT);
* **commit** — in order per thread, bounded by width.

Memory latencies come from the shared :class:`~repro.memory.hierarchy.
MemoryHierarchy`, so co-running threads and other cores contend for L2/LLC
capacity, DRAM banks and the off-chip bus with real state.

Two fast paths keep this tier usable for cross-validation sweeps without
changing a single reported number:

* the per-cycle work loops bind hot attributes to locals, the functional-
  unit issue probe hops a path-compressed next-free-cycle skip list instead
  of scanning cycle by cycle, and producer completion times live in a flat
  ring buffer;
* **idle-cycle skipping** (:meth:`PipelineCore.next_event_cycle`): when no
  thread can commit, dispatch or finish before some cycle T, the clock
  advances straight to T.  The skip is *exact* — between the current cycle
  and T the naive loop would not change any architectural or statistical
  state — so fast-forwarded runs are bit-identical to naive ones (a golden
  test asserts this across core types and fetch policies).
"""

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.memory.hierarchy import MemoryHierarchy
from repro.microarch.branch import predictor_for_core
from repro.microarch.config import CoreConfig
from repro.sim.kernel import FU_CLASSES, TraceArrays, active_kernel, build_trace_arrays
from repro.sim.results import CoreSimStats
from repro.workloads.tracegen import EXEC_LATENCY, TraceInstruction

#: Ring size for producer completion-time tracking (max dependence distance).
_DEP_WINDOW = 64
_DEP_MASK = _DEP_WINDOW - 1

#: Functional-unit class per instruction kind (int ops and branches share
#: the integer ALUs).
_FU_CLASS = {
    "int": "int",
    "branch": "int",
    "load": "ldst",
    "store": "ldst",
    "muldiv": "muldiv",
    "fp": "fp",
}

#: Issue-slot tables are pruned once they hold this many distinct cycles.
_FU_PRUNE_LIMIT = 4096

#: Sentinel for "no event will ever happen" (all threads drained).
_NEVER = (1 << 63) - 1


class SimThread:
    """Architectural state of one hardware thread on a core."""

    def __init__(
        self,
        thread_id: int,
        trace: Sequence[TraceInstruction],
        warmup_instructions: int = 0,
    ):
        self.thread_id = thread_id
        self.trace = trace
        self.trace_len = len(trace)
        self.cursor = 0
        self.warmup_instructions = min(warmup_instructions, max(0, len(trace) - 1))
        self.stats = CoreSimStats()
        #: Per-thread branch predictor (SMT threads keep private history;
        #: table sharing/aliasing between contexts is not modelled).
        self.predictor = None  # installed by the owning PipelineCore
        self._warm_snapshot: Optional[Tuple[int, int, int, Dict[str, int]]] = None
        #: Completion cycles of the last _DEP_WINDOW dispatched instructions,
        #: as a flat ring buffer (O(1) lookup at any dependence distance).
        self._comp_ring: List[int] = [0] * _DEP_WINDOW
        self._comp_count = 0
        #: In-flight (program-ordered) completion times awaiting commit.
        self.rob: Deque[int] = deque()
        self.fetch_stalled_until = 0
        self.last_fetch_line = -1
        self.done_cycle: Optional[int] = None
        #: Batched per-field trace arrays, installed by the owning core when
        #: the numpy kernel is active (see :mod:`repro.sim.kernel`).
        self._k: Optional[TraceArrays] = None

    @property
    def finished(self) -> bool:
        return self.cursor >= self.trace_len and not self.rob

    def maybe_snapshot(self, now: int) -> None:
        """Record the warm-up boundary so cold misses are excluded."""
        if self._warm_snapshot is None and self.cursor >= self.warmup_instructions:
            self.stats.cycles = now  # temporary marker; finalized at drain
            self._warm_snapshot = (
                self.stats.instructions,
                now,
                self.stats.branch_mispredicts,
                dict(self.stats.level_hits),
            )

    def finalize_stats(self, done_cycle: int) -> None:
        """Convert cumulative counters into measured-region statistics."""
        if self._warm_snapshot is None:
            self.stats.cycles = done_cycle
            return
        instr0, cycle0, mispred0, levels0 = self._warm_snapshot
        self.stats.instructions -= instr0
        self.stats.cycles = max(1, done_cycle - cycle0)
        self.stats.branch_mispredicts -= mispred0
        for level, count in levels0.items():
            self.stats.level_hits[level] = self.stats.level_hits[level] - count

    def producer_completion(self, dep_distance: int, now: int) -> int:
        """Cycle at which this instruction's register input becomes ready."""
        if (
            dep_distance <= 0
            or dep_distance > self._comp_count
            or dep_distance > _DEP_WINDOW
        ):
            return now
        c = self._comp_ring[(self._comp_count - dep_distance) & _DEP_MASK]
        return c if c > now else now

    def record_completion(self, completion: int) -> None:
        """Append one dispatched instruction's completion cycle."""
        count = self._comp_count
        self._comp_ring[count & _DEP_MASK] = completion
        self._comp_count = count + 1


class PipelineCore:
    """One core (out-of-order or in-order) executing up to N SMT threads."""

    def __init__(
        self,
        core: CoreConfig,
        core_index: int,
        hierarchy: MemoryHierarchy,
        traces: Sequence[Sequence[TraceInstruction]],
        warmup_instructions: int = 0,
        fetch_policy: str = "roundrobin",
        kernel: Optional[str] = None,
    ):
        if fetch_policy not in ("roundrobin", "icount"):
            raise ValueError(
                f"fetch_policy must be 'roundrobin' or 'icount', "
                f"got {fetch_policy!r}"
            )
        self.fetch_policy = fetch_policy
        if not traces:
            raise ValueError("need at least one thread trace")
        if len(traces) > core.max_smt_contexts:
            raise ValueError(
                f"{core.name} core supports {core.max_smt_contexts} hardware "
                f"threads, got {len(traces)}"
            )
        self.core = core
        self.core_index = core_index
        self.hierarchy = hierarchy
        self.threads = [
            SimThread(i, t, warmup_instructions) for i, t in enumerate(traces)
        ]
        for thread in self.threads:
            thread.predictor = predictor_for_core(core.is_out_of_order)
        self.cycle = 0
        self._n_threads = len(self.threads)
        self._is_ooo = core.is_out_of_order
        self._width = core.width
        self._freq = core.frequency_ghz
        #: Instruction fetches dedup at the core's own L1I line granularity.
        self._l1i_line_bytes = core.l1i.line_bytes
        self._rob_share = (
            core.rob_size // len(self.threads) if core.is_out_of_order else core.width * 2
        )
        fu = core.functional_units
        #: Per-cycle issue-slot usage per functional-unit class.  Issue picks
        #: the first cycle >= ready with a free slot (hole-filling, so an
        #: instruction that becomes ready early is not blocked behind
        #: reservations made for later-ready instructions — proper
        #: out-of-order issue).
        self._fu_units: Dict[str, int] = {
            "int": fu.int_alu,
            "ldst": fu.load_store,
            "muldiv": fu.mul_div,
            "fp": fu.fp,
        }
        self._fu_busy: Dict[str, Dict[int, int]] = {k: {} for k in self._fu_units}
        #: Next-free-cycle skip list per class: for a saturated cycle ``c``,
        #: ``_fu_next[cls][c]`` points at the next cycle that might still
        #: have a free slot (path-compressed as probes walk it).
        self._fu_next: Dict[str, Dict[int, int]] = {k: {} for k in self._fu_units}
        #: Which stepping kernel this core runs ("numpy" or "scalar"); both
        #: are bit-identical (golden-tested).  See :mod:`repro.sim.kernel`.
        self.kernel = active_kernel(kernel)
        if self.kernel == "numpy":
            self._install_numpy_kernel()

    def _install_numpy_kernel(self) -> None:
        """Precompute batched trace arrays and bind the fused step loop.

        The string-keyed ``_fu_units``/``_fu_busy``/``_fu_next`` dicts stay
        canonical (unit tests and :meth:`_prune_fu_state` use them); the
        code-indexed lists below alias the *same* dict objects, so both
        kernels share one set of issue-slot tables and pruning keeps
        working in place.
        """
        caches = self.hierarchy.core_caches[self.core_index]
        l1d = caches.l1d
        self._l1d = l1d
        for thread in self.threads:
            k = build_trace_arrays(
                thread.trace, self._l1i_line_bytes, l1d._line_bytes, l1d._num_sets
            )
            thread._k = k
            # Per-thread hot bindings for the fused loops, packed into one
            # tuple (single unpack per thread entry).  Every object here
            # keeps its identity for the thread's lifetime — including the
            # completion ring, which reset_pipeline_state clears in place.
            thread._kctx = (
                k.exec_lat,
                k.fu_code,
                k.mem_code,
                k.pc,
                k.fetch_line,
                k.address,
                k.l1d_set,
                k.l1d_tag,
                k.dep,
                k.taken,
                thread.stats,
                thread.stats.level_hits,
                thread._comp_ring,
                thread.rob.append,
                thread.predictor.update,
                thread.warmup_instructions,
            )
        self._fu_units_by_code = [self._fu_units[c] for c in FU_CLASSES]
        self._fu_busy_by_code = [self._fu_busy[c] for c in FU_CLASSES]
        self._fu_next_by_code = [self._fu_next[c] for c in FU_CLASSES]
        #: With prefetchers installed every data access (hits included) must
        #: flow through the hierarchy so the prefetcher observes it; without
        #: them the L1D lookup is inlined against precomputed set/tag.
        self._inline_l1 = not self.hierarchy._has_prefetchers
        #: Same expression the scalar path evaluates per L1 load hit
        #: (``int(result.latency_ns * freq)``), computed once.
        self._l1_load_cycles = int(
            self.hierarchy._d_l1[self.core_index].latency_ns * self._freq
        )
        #: Hot bindings for :meth:`_step_numpy`, packed into one tuple so
        #: each step pays a single attribute load + unpack instead of ~16
        #: attribute chains.  Everything here is stable for the core's
        #: lifetime (the FU tables are compacted in place, never replaced).
        hierarchy = self.hierarchy
        self._step_ctx = (
            hierarchy.instruction_access,
            hierarchy.data_access,
            hierarchy.data_l1_miss,
            hierarchy.demand_counts,
            self._inline_l1,
            l1d,
            l1d._sets,
            l1d.stats,
            l1d._assoc,
            l1d._num_sets,
            l1d._line_bytes,
            self._l1_load_cycles,
            self._fu_units_by_code,
            self._fu_busy_by_code,
            self._fu_next_by_code,
            self.core.frontend_depth,
        )
        self.step = self._step_numpy  # type: ignore[method-assign]

    # ------------------------------------------------------------------ #
    # helpers                                                             #
    # ------------------------------------------------------------------ #

    def _now_ns(self) -> float:
        return self.cycle / self._freq

    def _fu_class(self, kind: str) -> str:
        return _FU_CLASS.get(kind, "int")

    def _acquire_fu(self, kind: str, ready: int) -> int:
        """Earliest cycle >= ``ready`` with a free unit of this class."""
        cls = _FU_CLASS[kind]
        units = self._fu_units[cls]
        busy = self._fu_busy[cls]
        if len(busy) > _FU_PRUNE_LIMIT:
            self._prune_fu_state()
        t = ready
        used = busy.get(t, 0)
        if used >= units:
            # Saturated: hop the next-free skip list (union-find style with
            # path compression) instead of probing one cycle at a time.
            nxt = self._fu_next[cls]
            path = []
            while used >= units:
                path.append(t)
                t = nxt.get(t, t + 1)
                used = busy.get(t, 0)
            for c in path:
                nxt[c] = t
        busy[t] = used + 1
        return t

    def _prune_fu_state(self) -> None:
        """Drop issue-slot bookkeeping for cycles already in the past.

        Triggered by table *size* (not a wall-cycle stride), so long memory
        stalls cannot accumulate unbounded state; the tables are compacted
        in place.  Reservations at cycles < ``self.cycle`` can never be
        probed again (issue ready times are always >= the current cycle),
        so dropping them never changes an issue decision.
        """
        now = self.cycle
        for cls, busy in self._fu_busy.items():
            if len(busy) <= _FU_PRUNE_LIMIT // 2:
                continue
            kept = {c: n for c, n in busy.items() if c >= now}
            busy.clear()
            busy.update(kept)
            nxt = self._fu_next[cls]
            kept_next = {c: t for c, t in nxt.items() if c >= now}
            nxt.clear()
            nxt.update(kept_next)

    def _fetch_line(self, thread: SimThread, instr: TraceInstruction) -> None:
        """Model instruction-cache behaviour at cache-line granularity."""
        line = instr.pc // self._l1i_line_bytes
        if line == thread.last_fetch_line:
            return
        thread.last_fetch_line = line
        self._fetch_miss(thread, instr.pc)

    def _fetch_miss(self, thread: SimThread, pc: int) -> None:
        """Charge the i-cache for a new fetch line (slow path)."""
        result = self.hierarchy.instruction_access(
            self.core_index, pc, self.cycle / self._freq
        )
        if result.level != "l1":
            # The front end runs ahead and next-line-prefetches sequential
            # code, hiding most of an i-miss behind the fetch buffer; only a
            # fraction of the latency reaches dispatch.
            delay = int(result.latency_ns * self._freq * 0.4) + 1
            stalled = self.cycle + delay
            if stalled > thread.fetch_stalled_until:
                thread.fetch_stalled_until = stalled

    # ------------------------------------------------------------------ #
    # one cycle                                                           #
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Advance the core by one cycle (commit, then dispatch)."""
        now = self.cycle
        width = self._width
        threads = self.threads

        # Commit: in order per thread, up to `width` per thread; a thread
        # whose trace and ROB both drained records its finish cycle.
        for thread in threads:
            rob = thread.rob
            if rob:
                retired = 0
                while retired < width and rob and rob[0] <= now:
                    rob.popleft()
                    retired += 1
            if (
                not rob
                and thread.done_cycle is None
                and thread.cursor >= thread.trace_len
            ):
                thread.done_cycle = now
                thread.finalize_stats(now)

        # Dispatch: share the core width across threads.  Round-robin
        # rotates priority cycle by cycle [24]; ICOUNT [31] gives the
        # thread with the fewest in-flight instructions first pick, which
        # keeps fast-moving threads moving.
        budget = width
        n = self._n_threads
        if n == 1:
            order = threads
        elif self.fetch_policy == "icount":
            order = sorted(threads, key=_rob_depth)
        else:
            start = now % n
            order = threads[start:] + threads[:start]
        rob_share = self._rob_share
        is_ooo = self._is_ooo
        dispatch = self._dispatch
        for thread in order:
            if budget <= 0:
                break
            rob = thread.rob
            trace = thread.trace
            tlen = thread.trace_len
            while (
                budget > 0
                and thread.cursor < tlen
                and now >= thread.fetch_stalled_until
                and len(rob) < rob_share
            ):
                if (
                    not is_ooo
                    and thread.producer_completion(
                        trace[thread.cursor].dep_distance, now
                    )
                    > now
                ):
                    # Stall-on-use: the next instruction's input is not ready.
                    break
                dispatch(thread, now)
                budget -= 1
        self.cycle = now + 1

    def _can_dispatch(self, thread: SimThread, now: int) -> bool:
        if thread.cursor >= thread.trace_len:
            return False
        if now < thread.fetch_stalled_until:
            return False
        if len(thread.rob) >= self._rob_share:
            return False
        if not self._is_ooo:
            # Stall-on-use: the next instruction must have its input ready.
            instr = thread.trace[thread.cursor]
            if thread.producer_completion(instr.dep_distance, now) > now:
                return False
        return True

    def _dispatch(self, thread: SimThread, now: int) -> None:
        cursor = thread.cursor
        instr = thread.trace[cursor]
        thread.cursor = cursor + 1
        line = instr.pc // self._l1i_line_bytes
        if line != thread.last_fetch_line:
            thread.last_fetch_line = line
            self._fetch_miss(thread, instr.pc)

        kind = instr.kind
        ready = thread.producer_completion(instr.dep_distance, now)
        issue = self._acquire_fu(kind, ready)
        latency = EXEC_LATENCY[kind]
        stats = thread.stats
        if kind == "load" or kind == "store":
            freq = self._freq
            result = self.hierarchy.data_access(
                self.core_index,
                instr.address,
                issue / freq,
                is_write=(kind == "store"),
                pc=instr.pc,
            )
            level = result.level
            stats.level_hits[level] = stats.level_hits.get(level, 0) + 1
            mem_cycles = (
                int(result.latency_ns * freq)
                if kind == "load"
                else 1  # stores retire through the write buffer
            )
            total = latency + mem_cycles
            completion = issue + (total if total > 1 else 1)
        else:
            completion = issue + latency

        if kind == "branch":
            # A real predictor resolves the trace's concrete outcome; the
            # front end redirects once the branch executes.
            if thread.predictor.update(instr.pc, instr.taken):
                stats.branch_mispredicts += 1
                redirect = completion + self.core.frontend_depth
                if redirect > thread.fetch_stalled_until:
                    thread.fetch_stalled_until = redirect

        thread.record_completion(completion)
        thread.rob.append(completion)
        stats.instructions += 1
        if thread._warm_snapshot is None:
            thread.maybe_snapshot(now)

    # ------------------------------------------------------------------ #
    # batched stepping kernel                                             #
    # ------------------------------------------------------------------ #

    def _step_numpy(self) -> None:
        """One cycle via the batched kernel — bit-identical to :meth:`step`.

        Same commit-then-dispatch structure, but the dispatch loop reads
        the precomputed per-field arrays (:class:`~repro.sim.kernel.
        TraceArrays`) instead of trace objects, inlines producer lookup,
        functional-unit issue and (without prefetchers) the L1D probe, and
        keeps per-thread state in locals, written back once per thread.
        Every state mutation happens in the same order as the scalar path,
        so shared-hierarchy interleavings are preserved exactly.
        """
        now = self.cycle
        width = self._width
        threads = self.threads

        for thread in threads:
            rob = thread.rob
            if rob:
                retired = 0
                while retired < width and rob and rob[0] <= now:
                    rob.popleft()
                    retired += 1
            if (
                not rob
                and thread.done_cycle is None
                and thread.cursor >= thread.trace_len
            ):
                thread.done_cycle = now
                thread.finalize_stats(now)

        budget = width
        n = self._n_threads
        if n == 1:
            order = threads
        elif self.fetch_policy == "icount":
            order = sorted(threads, key=_rob_depth)
        else:
            start = now % n
            order = threads[start:] + threads[:start]
        rob_share = self._rob_share
        is_ooo = self._is_ooo

        core_index = self.core_index
        freq = self._freq
        (
            instruction_access,
            data_access,
            data_l1_miss,
            counts,
            inline_l1,
            l1d,
            l1d_sets,
            l1d_stats,
            l1d_assoc,
            l1d_num_sets,
            l1d_line_bytes,
            l1_load_cycles,
            fu_units,
            fu_busy_tables,
            fu_next_tables,
            frontend_depth,
        ) = self._step_ctx

        for thread in order:
            if budget <= 0:
                break
            cursor = thread.cursor
            tlen = thread.trace_len
            if cursor >= tlen:
                continue
            rob = thread.rob
            rob_len = len(rob)
            fetch_stall = thread.fetch_stalled_until
            if now < fetch_stall or rob_len >= rob_share:
                continue
            (
                k_lat,
                k_fu,
                k_mem,
                k_pc,
                k_fline,
                k_addr,
                k_set,
                k_tag,
                k_dep,
                k_taken,
                stats,
                level_hits,
                comp_ring,
                rob_append,
                predictor_update,
                warmup,
            ) = thread._kctx
            instructions = stats.instructions
            comp_count = thread._comp_count
            last_line = thread.last_fetch_line
            snap_pending = thread._warm_snapshot is None

            while (
                budget > 0
                and cursor < tlen
                and now >= fetch_stall
                and rob_len < rob_share
            ):
                dep = k_dep[cursor]
                if 0 < dep <= comp_count and dep <= _DEP_WINDOW:
                    c = comp_ring[(comp_count - dep) & _DEP_MASK]
                    ready = c if c > now else now
                else:
                    ready = now
                if not is_ooo and ready > now:
                    break  # stall-on-use: input not ready

                line = k_fline[cursor]
                if line != last_line:
                    last_line = line
                    result = instruction_access(core_index, k_pc[cursor], now / freq)
                    if result.level != "l1":
                        stalled = now + int(result.latency_ns * freq * 0.4) + 1
                        if stalled > fetch_stall:
                            fetch_stall = stalled

                fu = k_fu[cursor]
                busy = fu_busy_tables[fu]
                if len(busy) > _FU_PRUNE_LIMIT:
                    self._prune_fu_state()
                units = fu_units[fu]
                t = ready
                used = busy.get(t, 0)
                if used >= units:
                    nxt = fu_next_tables[fu]
                    path = []
                    while used >= units:
                        path.append(t)
                        t = nxt.get(t, t + 1)
                        used = busy.get(t, 0)
                    for c in path:
                        nxt[c] = t
                busy[t] = used + 1
                issue = t

                mem = k_mem[cursor]
                if mem == 0:
                    completion = issue + k_lat[cursor]
                elif mem == 3:  # branch
                    completion = issue + k_lat[cursor]
                    if predictor_update(k_pc[cursor], k_taken[cursor]):
                        stats.branch_mispredicts += 1
                        redirect = completion + frontend_depth
                        if redirect > fetch_stall:
                            fetch_stall = redirect
                else:  # load (1) or store (2)
                    address = k_addr[cursor]
                    is_write = mem == 2
                    if inline_l1:
                        l1d_stats.accesses += 1
                        l1d.last_writeback_address = None
                        set_idx = k_set[cursor]
                        ways = l1d_sets[set_idx]
                        tag = k_tag[cursor]
                        dirty = ways.get(tag)
                        if dirty is not None:
                            l1d_stats.hits += 1
                            if is_write and not dirty:
                                ways[tag] = True
                            ways.move_to_end(tag)
                            counts["data.l1"] += 1
                            level = "l1"
                            mem_cycles = l1_load_cycles if mem == 1 else 1
                        else:
                            if len(ways) >= l1d_assoc:
                                victim_tag, victim_dirty = ways.popitem(last=False)
                                l1d_stats.evictions += 1
                                if victim_dirty:
                                    l1d_stats.writebacks += 1
                                    l1d.last_writeback_address = (
                                        victim_tag * l1d_num_sets + set_idx
                                    ) * l1d_line_bytes
                            ways[tag] = is_write
                            result = data_l1_miss(
                                core_index, address, issue / freq, is_write
                            )
                            level = result.level
                            mem_cycles = (
                                int(result.latency_ns * freq) if mem == 1 else 1
                            )
                    else:
                        result = data_access(
                            core_index, address, issue / freq, is_write, k_pc[cursor]
                        )
                        level = result.level
                        mem_cycles = int(result.latency_ns * freq) if mem == 1 else 1
                    level_hits[level] = level_hits.get(level, 0) + 1
                    total = k_lat[cursor] + mem_cycles
                    completion = issue + (total if total > 1 else 1)

                comp_ring[comp_count & _DEP_MASK] = completion
                comp_count += 1
                rob_append(completion)
                rob_len += 1
                instructions += 1
                cursor += 1
                budget -= 1
                if snap_pending and cursor >= warmup:
                    stats.instructions = instructions
                    thread.cursor = cursor
                    thread.maybe_snapshot(now)
                    snap_pending = False

            thread.cursor = cursor
            thread._comp_count = comp_count
            thread.last_fetch_line = last_line
            thread.fetch_stalled_until = fetch_stall
            stats.instructions = instructions
        self.cycle = now + 1

    # ------------------------------------------------------------------ #
    # idle-cycle skipping                                                 #
    # ------------------------------------------------------------------ #

    def next_event_cycle(self) -> int:
        """Earliest cycle >= ``self.cycle`` at which :meth:`step` can act.

        "Act" means: retire at least one ROB entry, record a thread finish,
        or dispatch at least one instruction.  Between the current cycle
        and the returned cycle the naive per-cycle loop provably does
        nothing — per-thread gating values (ROB head completion, fetch
        stall deadline, producer completion for stall-on-use) only change
        when a commit or dispatch happens — so advancing the clock straight
        to the returned cycle is bit-identical to stepping through.

        Returns a huge sentinel when every thread has drained.
        """
        now = self.cycle
        best = _NEVER
        rob_share = self._rob_share
        is_ooo = self._is_ooo
        for thread in self.threads:
            rob = thread.rob
            if rob:
                head = rob[0]
                if head <= now:
                    return now
                if head < best:
                    best = head
                if len(rob) >= rob_share:
                    # Dispatch gated on commit; the head event covers it.
                    continue
            if thread.cursor < thread.trace_len:
                ready = thread.fetch_stalled_until
                if not is_ooo:
                    pr = thread.producer_completion(
                        thread.trace[thread.cursor].dep_distance, now
                    )
                    if pr > ready:
                        ready = pr
                if ready <= now:
                    return now
                if ready < best:
                    best = ready
        return best

    def run_until(self, limit: int) -> int:
        """Step from ``self.cycle`` (skipping idle gaps) until the core's
        next event is >= ``limit`` or every thread drains.

        Returns the next event cycle (the drain sentinel when finished).
        The caller must guarantee that no other core acts in
        ``[self.cycle, limit)`` — the lockstep driver uses this to batch a
        solo-due core's whole span into one call, which is exactly the
        naive interleaving because every other core's step would be a
        no-op over that span.
        """
        if self._n_threads == 1 and self.kernel == "numpy":
            return self._run_span_1t(limit)
        step = self.step
        next_event = self.next_event_cycle
        while True:
            step()
            nxt = next_event()
            if nxt >= limit:
                return nxt
            self.cycle = nxt

    def _run_span_1t(self, limit: int) -> int:
        """:meth:`run_until` fused for a single-thread numpy-kernel core.

        One call runs the whole span — commit, dispatch, and an inlined
        single-thread :meth:`next_event_cycle` per cycle — with every hot
        binding hoisted out of the cycle loop (the per-step prologue is
        the dominant cost once a core runs alone).  The dispatch body is
        the same as :meth:`_step_numpy`'s, mutation for mutation, and the
        golden fingerprint suite pins the equivalence.
        """
        thread = self.threads[0]
        core_index = self.core_index
        freq = self._freq
        (
            instruction_access,
            data_access,
            data_l1_miss,
            counts,
            inline_l1,
            l1d,
            l1d_sets,
            l1d_stats,
            l1d_assoc,
            l1d_num_sets,
            l1d_line_bytes,
            l1_load_cycles,
            fu_units,
            fu_busy_tables,
            fu_next_tables,
            frontend_depth,
        ) = self._step_ctx
        width = self._width
        rob_share = self._rob_share
        is_ooo = self._is_ooo
        (
            k_lat,
            k_fu,
            k_mem,
            k_pc,
            k_fline,
            k_addr,
            k_set,
            k_tag,
            k_dep,
            k_taken,
            stats,
            level_hits,
            comp_ring,
            rob_append,
            predictor_update,
            warmup,
        ) = thread._kctx
        instructions = stats.instructions
        comp_count = thread._comp_count
        last_line = thread.last_fetch_line
        fetch_stall = thread.fetch_stalled_until
        rob = thread.rob
        rob_popleft = rob.popleft
        rob_len = len(rob)
        cursor = thread.cursor
        tlen = thread.trace_len
        snap_pending = thread._warm_snapshot is None
        now = self.cycle

        while True:
            # --- commit (identical to _step_numpy's commit phase) ---
            if rob_len:
                retired = 0
                while retired < width and rob_len and rob[0] <= now:
                    rob_popleft()
                    rob_len -= 1
                    retired += 1
            if not rob_len and cursor >= tlen:
                if thread.done_cycle is None:
                    thread.cursor = cursor
                    thread._comp_count = comp_count
                    thread.last_fetch_line = last_line
                    thread.fetch_stalled_until = fetch_stall
                    stats.instructions = instructions
                    thread.done_cycle = now
                    thread.finalize_stats(now)
                self.cycle = now + 1
                return _NEVER

            # --- dispatch (same body as _step_numpy) ---
            budget = width
            while (
                budget > 0
                and cursor < tlen
                and now >= fetch_stall
                and rob_len < rob_share
            ):
                dep = k_dep[cursor]
                if 0 < dep <= comp_count and dep <= _DEP_WINDOW:
                    c = comp_ring[(comp_count - dep) & _DEP_MASK]
                    ready = c if c > now else now
                else:
                    ready = now
                if not is_ooo and ready > now:
                    break  # stall-on-use: input not ready

                line = k_fline[cursor]
                if line != last_line:
                    last_line = line
                    result = instruction_access(core_index, k_pc[cursor], now / freq)
                    if result.level != "l1":
                        stalled = now + int(result.latency_ns * freq * 0.4) + 1
                        if stalled > fetch_stall:
                            fetch_stall = stalled

                fu = k_fu[cursor]
                busy = fu_busy_tables[fu]
                if len(busy) > _FU_PRUNE_LIMIT:
                    # _prune_fu_state keys off self.cycle, which this fused
                    # span only writes back on exit — sync it first so the
                    # prune actually drops past cycles.
                    self.cycle = now
                    self._prune_fu_state()
                units = fu_units[fu]
                t = ready
                used = busy.get(t, 0)
                if used >= units:
                    nxt_table = fu_next_tables[fu]
                    path = []
                    while used >= units:
                        path.append(t)
                        t = nxt_table.get(t, t + 1)
                        used = busy.get(t, 0)
                    for c in path:
                        nxt_table[c] = t
                busy[t] = used + 1
                issue = t

                mem = k_mem[cursor]
                if mem == 0:
                    completion = issue + k_lat[cursor]
                elif mem == 3:  # branch
                    completion = issue + k_lat[cursor]
                    if predictor_update(k_pc[cursor], k_taken[cursor]):
                        stats.branch_mispredicts += 1
                        redirect = completion + frontend_depth
                        if redirect > fetch_stall:
                            fetch_stall = redirect
                else:  # load (1) or store (2)
                    address = k_addr[cursor]
                    is_write = mem == 2
                    if inline_l1:
                        l1d_stats.accesses += 1
                        l1d.last_writeback_address = None
                        set_idx = k_set[cursor]
                        ways = l1d_sets[set_idx]
                        tag = k_tag[cursor]
                        dirty = ways.get(tag)
                        if dirty is not None:
                            l1d_stats.hits += 1
                            if is_write and not dirty:
                                ways[tag] = True
                            ways.move_to_end(tag)
                            counts["data.l1"] += 1
                            level = "l1"
                            mem_cycles = l1_load_cycles if mem == 1 else 1
                        else:
                            if len(ways) >= l1d_assoc:
                                victim_tag, victim_dirty = ways.popitem(last=False)
                                l1d_stats.evictions += 1
                                if victim_dirty:
                                    l1d_stats.writebacks += 1
                                    l1d.last_writeback_address = (
                                        victim_tag * l1d_num_sets + set_idx
                                    ) * l1d_line_bytes
                            ways[tag] = is_write
                            result = data_l1_miss(
                                core_index, address, issue / freq, is_write
                            )
                            level = result.level
                            mem_cycles = (
                                int(result.latency_ns * freq) if mem == 1 else 1
                            )
                    else:
                        result = data_access(
                            core_index, address, issue / freq, is_write, k_pc[cursor]
                        )
                        level = result.level
                        mem_cycles = int(result.latency_ns * freq) if mem == 1 else 1
                    level_hits[level] = level_hits.get(level, 0) + 1
                    total = k_lat[cursor] + mem_cycles
                    completion = issue + (total if total > 1 else 1)

                comp_ring[comp_count & _DEP_MASK] = completion
                comp_count += 1
                rob_append(completion)
                rob_len += 1
                instructions += 1
                cursor += 1
                budget -= 1
                if snap_pending and cursor >= warmup:
                    stats.instructions = instructions
                    thread.cursor = cursor
                    thread.maybe_snapshot(now)
                    snap_pending = False

            # --- next event (next_event_cycle inlined for one thread) ---
            now1 = now + 1
            nxt = _NEVER
            if rob_len:
                nxt = rob[0]
                if rob_len < rob_share and cursor < tlen:
                    ready = fetch_stall
                    if not is_ooo:
                        dep = k_dep[cursor]
                        if 0 < dep <= comp_count and dep <= _DEP_WINDOW:
                            c = comp_ring[(comp_count - dep) & _DEP_MASK]
                            if c > ready:
                                ready = c
                    if ready < nxt:
                        nxt = ready
            elif cursor < tlen:
                nxt = fetch_stall
                if not is_ooo:
                    dep = k_dep[cursor]
                    if 0 < dep <= comp_count and dep <= _DEP_WINDOW:
                        c = comp_ring[(comp_count - dep) & _DEP_MASK]
                        if c > nxt:
                            nxt = c
            else:
                # Drained; loop once more so the commit phase records it.
                nxt = now1
            if nxt < now1:
                nxt = now1
            if nxt >= limit:
                thread.cursor = cursor
                thread._comp_count = comp_count
                thread.last_fetch_line = last_line
                thread.fetch_stalled_until = fetch_stall
                stats.instructions = instructions
                self.cycle = now1
                return nxt
            now = nxt

    # ------------------------------------------------------------------ #
    # functional warming (live sampled simulation)                        #
    # ------------------------------------------------------------------ #

    def functional_warm(
        self, per_thread: Sequence[int]
    ) -> List[Tuple[int, int, int, int, int]]:
        """Advance each thread up to its ``per_thread`` count of
        instructions with functional warming only.

        ``per_thread`` holds one count per thread in slot order — live
        sampling warms SMT siblings by *different* amounts so their
        relative rates of progress match the CPIs it measured
        (equal-instruction warming would keep a fast thread artificially
        co-resident with a slow sibling for the whole run).

        Caches see every reference (contents, LRU and dirty state update
        through the real access path) and branch predictors train on every
        outcome, but no cycles pass, no timing state (DRAM banks, off-chip
        bus) is touched, and no statistics are recorded — the Pac-Sim-style
        fast-forward between detailed windows.  Returns, per thread,
        ``(instructions_warmed, l2_hits, llc_hits, dram_accesses,
        branch_mispredicts)`` for the data stream — the stall events the
        sampled tier's extrapolation model prices (matching the levels a
        detailed window records in ``stats.level_hits``).
        """
        caches = self.hierarchy.core_caches[self.core_index]
        l1i, l1d, l2 = caches.l1i, caches.l1d, caches.l2
        llc = self.hierarchy.llc
        line_bytes = self._l1i_line_bytes
        counts = list(per_thread)
        if len(counts) != len(self.threads):
            raise ValueError(
                f"functional_warm got {len(counts)} counts for "
                f"{len(self.threads)} threads"
            )
        out: List[Tuple[int, int, int, int, int]] = []
        l1i_access = l1i.access
        l1d_access = l1d.access
        l2_access = l2.access
        llc_access = llc.access
        for thread, quota in zip(self.threads, counts):
            trace = thread.trace
            end = min(thread.trace_len, thread.cursor + quota)
            predictor_update = thread.predictor.update
            last_line = thread.last_fetch_line
            l2_hits = 0
            llc_hits = 0
            dram = 0
            mispredicts = 0
            k = thread._k
            if k is not None:
                # Batched-kernel variant of the loop below: identical access
                # sequence, driven by the precomputed per-field arrays.
                k_mem = k.mem_code
                k_pc = k.pc
                k_fline = k.fetch_line
                k_addr = k.address
                k_taken = k.taken
                for cursor in range(thread.cursor, end):
                    line = k_fline[cursor]
                    if line != last_line:
                        last_line = line
                        pc = k_pc[cursor]
                        if not l1i_access(pc) and not l2_access(pc):
                            llc_access(pc)
                    mem = k_mem[cursor]
                    if mem == 1 or mem == 2:
                        is_write = mem == 2
                        address = k_addr[cursor]
                        if not l1d_access(address, is_write):
                            if l2_access(address, is_write):
                                l2_hits += 1
                            elif llc_access(address, is_write):
                                llc_hits += 1
                            else:
                                dram += 1
                    elif mem == 3:
                        if predictor_update(k_pc[cursor], k_taken[cursor]):
                            mispredicts += 1
            else:
                for cursor in range(thread.cursor, end):
                    instr = trace[cursor]
                    line = instr.pc // line_bytes
                    if line != last_line:
                        last_line = line
                        if not l1i_access(instr.pc) and not l2_access(instr.pc):
                            llc_access(instr.pc)
                    kind = instr.kind
                    if kind == "load" or kind == "store":
                        is_write = kind == "store"
                        if not l1d_access(instr.address, is_write):
                            if l2_access(instr.address, is_write):
                                l2_hits += 1
                            elif llc_access(instr.address, is_write):
                                llc_hits += 1
                            else:
                                dram += 1
                    elif kind == "branch":
                        if predictor_update(instr.pc, instr.taken):
                            mispredicts += 1
            out.append((end - thread.cursor, l2_hits, llc_hits, dram, mispredicts))
            thread.cursor = end
            thread.last_fetch_line = last_line
        return out

    # ------------------------------------------------------------------ #
    # run loop                                                            #
    # ------------------------------------------------------------------ #

    @property
    def finished(self) -> bool:
        return all(t.finished for t in self.threads)

    def run(self, max_cycles: int = 50_000_000, fast_forward: bool = True) -> None:
        """Run until every thread has drained its trace.

        ``fast_forward`` enables exact idle-cycle skipping (see
        :meth:`next_event_cycle`); disabling it steps the naive per-cycle
        loop — results are bit-identical either way.
        """
        threads = self.threads
        while any(t.done_cycle is None for t in threads):
            if self.cycle >= max_cycles:
                raise RuntimeError(
                    f"core {self.core_index} exceeded {max_cycles} cycles; "
                    "deadlocked or trace too long"
                )
            if fast_forward:
                target = self.next_event_cycle()
                if target > self.cycle:
                    if target >= max_cycles:
                        self.cycle = max_cycles
                        continue  # raises on the next loop check
                    self.cycle = target
            self.step()
        for thread in threads:
            if thread.done_cycle is None:
                thread.done_cycle = self.cycle
                thread.finalize_stats(self.cycle)
        self.hierarchy.publish_metrics()


def _rob_depth(thread: SimThread) -> int:
    """ICOUNT sort key: in-flight instruction count."""
    return len(thread.rob)
