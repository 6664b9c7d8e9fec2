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

Two fast paths keep this tier usable for cross-validation sweeps:

* the per-cycle work loop reads each thread's trace as precomputed flat
  per-field arrays (:mod:`repro.sim.kernel`), binds hot attributes to
  locals, hops a path-compressed next-free-cycle skip list to find a free
  functional unit, and keeps producer completion times in a flat ring
  buffer;
* **idle-cycle skipping** (:meth:`PipelineCore.next_event_cycle`): when no
  thread can commit, dispatch or finish before some cycle T, the clock
  advances straight to T.  The skip is *exact*: between the current cycle
  and T a step would change no architectural or statistical state.

:func:`run_lockstep` is the one driver: full runs, :meth:`PipelineCore.run`
and the detailed windows of live sampling all step cores through it.  The
committed fingerprints in ``tests/data/sim_fingerprints.json`` pin what it
produces.
"""

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.memory.hierarchy import MemoryHierarchy
from repro.microarch.branch import predictor_for_core
from repro.microarch.config import CoreConfig
from repro.sim.kernel import FU_CLASSES, TraceArrays, build_trace_arrays
from repro.sim.results import CoreSimStats
from repro.workloads.tracegen import TraceInstruction

#: Ring size for producer completion-time tracking (max dependence distance).
_DEP_WINDOW = 64
_DEP_MASK = _DEP_WINDOW - 1

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
        #: Batched per-field trace arrays, installed by the owning core
        #: (see :mod:`repro.sim.kernel`).
        self._k: Optional[TraceArrays] = None

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
        self._rob_share = (
            core.rob_size // len(self.threads) if core.is_out_of_order else core.width * 2
        )
        fu = core.functional_units
        units = {
            "int": fu.int_alu,
            "ldst": fu.load_store,
            "muldiv": fu.mul_div,
            "fp": fu.fp,
        }
        #: Units per functional-unit class, indexed by the class codes of
        #: :data:`~repro.sim.kernel.FU_CLASSES`.
        self._fu_units: List[int] = [units[c] for c in FU_CLASSES]
        #: Per-cycle issue-slot usage per class.  Issue picks the first
        #: cycle >= ready with a free slot (hole-filling, so an instruction
        #: that becomes ready early is not blocked behind reservations made
        #: for later-ready instructions — proper out-of-order issue).
        self._fu_busy: List[Dict[int, int]] = [{} for _ in FU_CLASSES]
        #: Next-free-cycle skip list per class: for a saturated cycle ``c``,
        #: ``_fu_next[code][c]`` points at the next cycle that might still
        #: have a free slot (path-compressed as probes walk it).
        self._fu_next: List[Dict[int, int]] = [{} for _ in FU_CLASSES]

        l1d = hierarchy.core_caches[core_index].l1d
        for thread in self.threads:
            # Instruction fetches dedup at the core's own L1I line size.
            k = build_trace_arrays(
                thread.trace, core.l1i.line_bytes, l1d._line_bytes, l1d._num_sets
            )
            thread._k = k
            # Per-thread hot bindings for the fused loops, packed into one
            # tuple (single unpack per thread entry).  Every object here
            # keeps its identity for the thread's lifetime.
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
        #: Hot bindings for :meth:`step`, packed into one tuple so each step
        #: pays a single attribute load + unpack instead of ~13 attribute
        #: chains.  Everything here is stable for the core's lifetime.  With
        #: prefetchers installed every data access (hits included) must flow
        #: through the hierarchy so the prefetcher observes it; without them
        #: the L1D lookup is inlined against precomputed set/tag.  No entry
        #: may refer back to the core: a cycle would keep every finished
        #: core, and the hierarchy and traces it holds, alive until the
        #: cyclic garbage collector runs.
        self._step_ctx = (
            hierarchy.instruction_access,
            hierarchy.data_access,
            hierarchy.data_l1_miss,
            hierarchy.demand_counts,
            not hierarchy._has_prefetchers,
            l1d,
            l1d._sets,
            l1d.stats,
            l1d._assoc,
            l1d._num_sets,
            l1d._line_bytes,
            int(hierarchy._d_l1[core_index].latency_ns * self._freq),
            core.frontend_depth,
        )

    # ------------------------------------------------------------------ #
    # functional-unit issue                                               #
    # ------------------------------------------------------------------ #

    def _acquire_fu(self, fu: int, ready: int, now: int) -> int:
        """Reserve the earliest cycle >= ``ready`` with a free unit of class
        ``fu`` (an index into :data:`~repro.sim.kernel.FU_CLASSES`);
        ``now`` is the current cycle, below which tables may be pruned."""
        busy = self._fu_busy[fu]
        if len(busy) > _FU_PRUNE_LIMIT:
            self._prune_fu_state(now)
        units = self._fu_units[fu]
        t = ready
        used = busy.get(t, 0)
        if used >= units:
            # Saturated: hop the next-free skip list (union-find style with
            # path compression) instead of probing one cycle at a time.
            nxt = self._fu_next[fu]
            path = []
            while used >= units:
                path.append(t)
                t = nxt.get(t, t + 1)
                used = busy.get(t, 0)
            for c in path:
                nxt[c] = t
        busy[t] = used + 1
        return t

    def _prune_fu_state(self, now: int) -> None:
        """Drop issue-slot bookkeeping for cycles before ``now``.

        Triggered by table *size* (not a wall-cycle stride), so long memory
        stalls cannot accumulate unbounded state; the tables are compacted
        in place.  Reservations at cycles < ``now`` can never be probed
        again (issue ready times are always >= the current cycle), so
        dropping them never changes an issue decision.
        """
        for busy, nxt in zip(self._fu_busy, self._fu_next):
            if len(busy) <= _FU_PRUNE_LIMIT // 2:
                continue
            kept = {c: n for c, n in busy.items() if c >= now}
            busy.clear()
            busy.update(kept)
            kept_next = {c: t for c, t in nxt.items() if c >= now}
            nxt.clear()
            nxt.update(kept_next)

    # ------------------------------------------------------------------ #
    # one cycle                                                           #
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Advance the core by one cycle (commit, then dispatch).

        The dispatch loop reads the precomputed per-field arrays
        (:class:`~repro.sim.kernel.TraceArrays`) instead of trace objects,
        inlines producer lookup and (without prefetchers) the L1D probe,
        and keeps per-thread state in locals, written back once per thread.
        """
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

        core_index = self.core_index
        freq = self._freq
        acquire_fu = self._acquire_fu
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
                    # The front end runs ahead and next-line-prefetches
                    # sequential code, hiding most of an i-miss behind the
                    # fetch buffer; only a fraction reaches dispatch.
                    last_line = line
                    result = instruction_access(core_index, k_pc[cursor], now / freq)
                    if result.level != "l1":
                        stalled = now + int(result.latency_ns * freq * 0.4) + 1
                        if stalled > fetch_stall:
                            fetch_stall = stalled

                issue = acquire_fu(k_fu[cursor], ready, now)

                mem = k_mem[cursor]
                if mem == 0:
                    completion = issue + k_lat[cursor]
                elif mem == 3:  # branch
                    # A real predictor resolves the trace's concrete
                    # outcome; the front end redirects once it executes.
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
                    # Stores retire through the write buffer (one cycle).
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
        and the returned cycle stepping cycle by cycle provably does
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
        ``[self.cycle, limit)`` — :func:`run_lockstep` uses this to batch a
        solo-due core's whole span into one call, which is exactly the
        cycle-by-cycle interleaving because every other core's step would
        be a no-op over that span.
        """
        if self._n_threads == 1:
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
        """:meth:`run_until` fused for a single-thread core.

        One call runs the whole span — commit, dispatch, and an inlined
        single-thread :meth:`next_event_cycle` per cycle — with every hot
        binding hoisted out of the cycle loop (the per-step prologue is
        the dominant cost once a core runs alone).  The dispatch body is
        the same as :meth:`step`'s, mutation for mutation, and the frozen
        fingerprints pin the equivalence.
        """
        thread = self.threads[0]
        core_index = self.core_index
        freq = self._freq
        acquire_fu = self._acquire_fu
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
            # --- commit (identical to step's commit phase) ---
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

            # --- dispatch (same body as step) ---
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

                issue = acquire_fu(k_fu[cursor], ready, now)

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
            end = min(thread.trace_len, thread.cursor + quota)
            predictor_update = thread.predictor.update
            last_line = thread.last_fetch_line
            l2_hits = 0
            llc_hits = 0
            dram = 0
            mispredicts = 0
            k = thread._k
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
            out.append((end - thread.cursor, l2_hits, llc_hits, dram, mispredicts))
            thread.cursor = end
            thread.last_fetch_line = last_line
        return out

    # ------------------------------------------------------------------ #
    # run loop                                                            #
    # ------------------------------------------------------------------ #

    def run(self, max_cycles: int = 50_000_000) -> None:
        """Run until every thread has drained its trace."""
        run_lockstep([self], max_cycles)
        self.hierarchy.publish_metrics()


def run_lockstep(
    cores: Sequence[PipelineCore], max_cycles: int, stop: int = _NEVER
) -> None:
    """Step ``cores`` in lockstep until each drains or the clock reaches
    ``stop``; raise once an event would fall at or beyond ``max_cycles``.

    The clock jumps between per-core events.  Each core's next event
    depends only on its own state (ROB heads, fetch-stall deadlines,
    producer readiness), and that state only changes when the core itself
    steps — so events stay valid while a core waits, and stepping the due
    cores in list order gives every shared-hierarchy access the order a
    cycle-by-cycle loop over all cores would.  When a *single* core is due
    before every other core's event, it runs its whole span up to that
    event in one :meth:`PipelineCore.run_until` call, since no other core
    would act in between.  A drained core is recognised by its event
    reaching the drain sentinel, so the loop never scans thread states.

    Cores that start drained are skipped; live sampling's detailed windows
    have them, full runs never do.  Cores still running when the clock
    reaches ``stop`` are paused there, with their work in flight.
    """
    active: List[PipelineCore] = []
    events: List[int] = []
    for core in cores:
        ev = core.next_event_cycle()
        if ev != _NEVER:
            active.append(core)
            events.append(ev)
    while active:
        # Earliest event, second-earliest, and whether the earliest is
        # unique (one scan; core counts are small).
        target = _NEVER
        second = _NEVER
        for ev in events:
            if ev < target:
                second = target
                target = ev
            elif ev < second:
                second = ev
        if target >= max_cycles:
            raise RuntimeError(
                f"simulation exceeded {max_cycles} cycles without draining"
            )
        if target >= stop:
            break
        if second > target:
            # Exactly one core due: batch its whole span up to the next
            # other-core event into one call.
            i = events.index(target)
            core = active[i]
            core.cycle = target
            ev = core.run_until(min(second, stop, max_cycles))
            if ev == _NEVER:
                del active[i]
                del events[i]
            else:
                events[i] = ev
            continue
        # Several cores due at `target`: step them in list order.
        i = 0
        while i < len(active):
            if events[i] <= target:
                core = active[i]
                core.cycle = target
                core.step()
                ev = core.next_event_cycle()
                if ev == _NEVER:
                    del active[i]
                    del events[i]
                    continue
                events[i] = ev
            i += 1
    for core in active:
        core.cycle = stop


def _rob_depth(thread: SimThread) -> int:
    """ICOUNT sort key: in-flight instruction count."""
    return len(thread.rob)
