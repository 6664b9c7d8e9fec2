"""Parallel execution of work units and the engine facade.

:class:`ParallelExecutor` maps work units over a lazily started, persistent
:class:`WorkerPool`; ``jobs=1`` short-circuits to a plain loop in the
calling process — no pickling, no pool — which is bit-identical to the
pre-engine serial path.  The pool outlives ``map`` calls: workers keep
imports, per-process study caches and solver warm-start state across calls
and across serve-daemon jobs.  Units dispatch one-at-a-time per worker and
results stream back in completion order; a dying worker is respawned alone
and its unit healed in the parent.

Failures are isolated per unit: every evaluation runs inside a guard that
retries with exponential backoff (``retries``/``backoff``), enforces an
optional per-unit wall-clock ``unit_timeout``, and on exhaustion returns a
structured :class:`~repro.engine.tasks.UnitFailure` in the unit's result
slot instead of poisoning its batch.

:class:`Engine` composes the executor with the persistent
:class:`~repro.engine.store.ResultStore`: look every unit up by content
key in one batched ``get_many``, compute only the misses (in parallel),
stream the results back to the store in deterministic submission order as
they complete (batched ``write_many`` flushes), and account for
everything — including failures, retries and pool lifecycle — in
:class:`~repro.engine.stats.EngineStats`.
"""

import dataclasses
import datetime
import functools
import multiprocessing
import multiprocessing.connection
import signal
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence

from repro.engine import faults
from repro.engine.stats import EngineStats
from repro.engine.store import ResultStore
from repro.obs import METRICS, TRACER, get_logger, observation_flags
from repro.engine.tasks import (
    SlabUnit,
    UnitFailure,
    WorkUnit,
    evaluate_work_unit,
    payload_from_result,
    result_from_payload,
)

#: Ceiling on a single backoff sleep, whatever the retry count.
_MAX_BACKOFF_SECONDS = 2.0


class UnitTimeoutError(Exception):
    """A unit exceeded the per-unit wall-clock budget."""


_LOG = get_logger("engine")

#: Process-wide once-flag: the timeout-fallback warning fires at most once
#: per process, however many units evaluate without an armable timeout.
_TIMEOUT_FALLBACK_WARNED = False


def _warn_timeout_fallback(seconds: float, reason: str) -> None:
    """Record (once) that a requested per-unit timeout cannot be enforced.

    ``SIGALRM`` only arms in the main thread of a process that has it; the
    serve daemon runs the engine inside a dispatcher thread, where
    ``signal.signal`` would raise ``ValueError``.  Rather than crash (or
    silently drop the budget), the unit runs without a timeout and the
    degradation is surfaced as a structured warning plus an
    ``engine.timeout_fallbacks`` counter and trace marker.
    """
    global _TIMEOUT_FALLBACK_WARNED
    METRICS.inc("engine.timeout_fallbacks")
    if _TIMEOUT_FALLBACK_WARNED:
        return
    _TIMEOUT_FALLBACK_WARNED = True
    TRACER.instant("unit.timeout-fallback", cat="unit", reason=reason)
    _LOG.warning(
        f"per-unit timeout ({seconds}s) cannot be enforced here ({reason}); "
        f"units will run without a wall-clock budget",
        reason=reason,
        timeout_seconds=seconds,
    )


class EngineFailureError(RuntimeError):
    """One or more units failed after every retry; carries the details."""

    def __init__(self, failures: Sequence[UnitFailure]):
        self.failures = list(failures)
        lines = "\n".join(f"  {f.describe()}" for f in self.failures[:10])
        if len(self.failures) > 10:
            lines += f"\n  ... and {len(self.failures) - 10} more"
        super().__init__(
            f"{len(self.failures)} work unit(s) failed after retries:\n{lines}"
        )


class UnitOutcome(NamedTuple):
    """One unit's guarded evaluation: result (or failure), cost, attempts.

    When observability is live, ``spans`` carries the trace events and
    ``metrics`` the drained metrics recorded while evaluating this unit —
    collected in the worker process and marshalled back to the parent.
    """

    value: object  # MixResult on success, UnitFailure on exhaustion
    seconds: float
    attempts: int
    spans: tuple = ()
    metrics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not isinstance(self.value, UnitFailure)


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`UnitTimeoutError` if the block outlives ``seconds``.

    SIGALRM-based, so it only arms on platforms that have it and in the
    main thread (always true in pool workers).  Elsewhere — notably the
    serve daemon's dispatcher thread — a requested timeout degrades to
    no-timeout with a one-time structured warning rather than a crash.
    """
    if not seconds:
        yield
        return
    if not hasattr(signal, "SIGALRM"):
        _warn_timeout_fallback(seconds, "platform has no SIGALRM")
        yield
        return
    if threading.current_thread() is not threading.main_thread():
        _warn_timeout_fallback(seconds, "not in the main thread")
        yield
        return

    def _on_alarm(signum, frame):
        raise UnitTimeoutError(f"unit exceeded the {seconds}s per-unit timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _guarded_evaluate(
    unit: WorkUnit,
    retries: int = 0,
    backoff: float = 0.05,
    timeout: Optional[float] = None,
    observe: tuple = (),
) -> UnitOutcome:
    """Worker entry point: evaluate one unit inside the failure guard.

    Never raises (short of ``KeyboardInterrupt``/``SystemExit``): after
    ``retries`` extra attempts with exponential backoff the exception is
    folded into a :class:`UnitFailure` carried in the outcome's value slot.

    ``observe`` names the collectors to run ("trace"/"metrics"); it is what
    makes observability work across processes — the parent pickles the
    flags into the guard, the worker enables its own (fresh) collectors,
    and everything recorded while evaluating the unit is drained into the
    outcome and marshalled back.  In the serial path the parent's own
    collectors are drained and re-absorbed, which is net-zero.
    """
    if timeout is not None:
        # A slab carries many points; its wall-clock budget scales with them.
        timeout = timeout * getattr(unit, "timeout_scale", 1)
    collect_trace = "trace" in observe
    collect_metrics = "metrics" in observe
    if collect_trace and not TRACER.enabled:
        TRACER.enable()
    if collect_metrics and not METRICS.enabled:
        METRICS.enable()
    mark = TRACER.mark() if collect_trace else 0

    def _finish(value, attempts_used) -> UnitOutcome:
        return UnitOutcome(
            value,
            time.perf_counter() - start,
            attempts_used,
            TRACER.drain(mark) if collect_trace else (),
            METRICS.drain_raw() if collect_metrics else None,
        )

    start = time.perf_counter()
    attempts = retries + 1
    error: Optional[BaseException] = None
    for attempt in range(1, attempts + 1):
        try:
            with _deadline(timeout):
                with TRACER.span(
                    "unit.evaluate",
                    cat="unit",
                    design=unit.design.name,
                    mix=list(unit.mix),
                    smt=unit.smt,
                    attempt=attempt,
                ):
                    faults.inject_unit_faults(unit)
                    result = evaluate_work_unit(unit)
            return _finish(result, attempt)
        except Exception as exc:  # per-unit isolation boundary
            error = exc
            if attempt < attempts:
                TRACER.instant(
                    "unit.retry",
                    cat="unit",
                    design=unit.design.name,
                    error=type(exc).__name__,
                    attempt=attempt,
                )
                METRICS.inc("engine.unit_retries")
                if backoff > 0:
                    time.sleep(
                        min(backoff * 2 ** (attempt - 1), _MAX_BACKOFF_SECONDS)
                    )
    failure = UnitFailure(
        content_key=unit.content_key,
        design_name=unit.design.name,
        mix=unit.mix,
        smt=unit.smt,
        error_type=type(error).__name__,
        message=str(error),
        attempts=attempts,
    )
    return _finish(failure, attempts)


def _pool_worker_main(conn) -> None:
    """Persistent pool worker: evaluate shipped units until told to stop.

    Each message is ``(task_id, unit, options, fault_spec)``; the reply is
    ``(task_id, outcome)``.  The fault spec rides along with every task
    because a persistent worker may have forked *before* the parent
    installed ``$REPRO_FAULT_SPEC`` (see :func:`faults.sync_spec`).  The
    loop runs in the worker's main thread, so SIGALRM unit timeouts arm.
    A ``None`` message (or a closed pipe) is the shutdown signal.
    """
    faults.mark_worker_process()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        task_id, unit, options, fault_spec = message
        faults.sync_spec(fault_spec)
        outcome = _guarded_evaluate(unit, **options)
        try:
            conn.send((task_id, outcome))
        except OSError:
            break
    try:
        conn.close()
    except OSError:
        pass


class _PoolWorker:
    """One persistent worker process, its pipe, and its in-flight task."""

    __slots__ = ("process", "conn", "task")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        #: Index of the unit this worker is evaluating, or None when idle.
        self.task: Optional[int] = None


class WorkerPool:
    """Persistent worker processes with completion-order dispatch.

    The pool outlives ``run`` calls: workers keep their imports, their
    per-process study cache (:mod:`repro.engine.tasks`) and the solver
    warm-start hints inside each study, so the second sweep — or the next
    serve-daemon job — skips interpreter startup and model construction
    entirely.

    Dispatch is one in-flight unit per worker over a dedicated duplex
    pipe; results surface in **completion order** through the caller's
    ``on_outcome`` callback, which is what lets store write-back, progress
    reporting and serve-side preemption overlap computation.  The ordered
    outcome list is still returned at the end.

    Health is checked per wait: a worker that dies mid-unit (a ``kill``
    fault, an OOM kill) is **respawned alone** — sibling workers and their
    in-flight units are untouched — and the lost unit re-runs in the
    parent via ``parent_guard`` (kill-type faults are worker-only, so the
    parent survives the very unit that killed the worker).
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._workers: List[_PoolWorker] = []
        #: Cold pool starts, runs served by a warm pool, single-worker
        #: respawns (mirrored into :class:`EngineStats` by the engine).
        self.starts = 0
        self.reuses = 0
        self.respawns = 0

    # -- lifecycle ------------------------------------------------------ #

    def _spawn(self) -> _PoolWorker:
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_pool_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return _PoolWorker(process, parent_conn)

    def _ensure(self, wanted: int) -> None:
        wanted = min(wanted, self.jobs)
        if not self._workers:
            self.starts += 1
            TRACER.instant("pool.start", cat="engine", workers=wanted)
            METRICS.inc("engine.pool_starts")
        while len(self._workers) < wanted:
            self._workers.append(self._spawn())

    def _respawn(self, worker: _PoolWorker) -> None:
        self.respawns += 1
        TRACER.instant("pool.worker-respawn", cat="engine", pid=worker.process.pid)
        METRICS.inc("engine.worker_respawns")
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():
            worker.process.terminate()
        self._workers[self._workers.index(worker)] = self._spawn()

    def pids(self) -> List[int]:
        """Live worker pids (stable across runs unless a worker died)."""
        return [w.process.pid for w in self._workers]

    def shutdown(self) -> None:
        """Stop every worker; the pool restarts lazily on the next run."""
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []

    # -- dispatch -------------------------------------------------------- #

    def run(
        self,
        units: Sequence,
        options: dict,
        parent_guard: Callable,
        on_outcome: Optional[Callable] = None,
    ) -> List["UnitOutcome"]:
        """Evaluate ``units``; outcomes align with input, callbacks stream.

        ``options`` are the keyword arguments shipped into the worker-side
        :func:`_guarded_evaluate`; ``parent_guard`` evaluates one unit in
        this process (used to heal the unit a dying worker dropped);
        ``on_outcome(index, outcome)`` fires once per unit in completion
        order.
        """
        n = len(units)
        outcomes: List[Optional[UnitOutcome]] = [None] * n
        if self._workers:
            self.reuses += 1
            METRICS.inc("engine.pool_reuses")
        self._ensure(n)
        spec = faults.current_spec()
        state = {"done": 0, "next": 0}

        def finish(index: int, outcome: UnitOutcome) -> None:
            outcomes[index] = outcome
            state["done"] += 1
            if on_outcome is not None:
                on_outcome(index, outcome)

        def handle_death(worker: _PoolWorker) -> None:
            index = worker.task
            worker.task = None
            self._respawn(worker)
            if index is not None:
                finish(index, parent_guard(units[index]))

        while state["done"] < n:
            for worker in list(self._workers):
                if worker.task is None and state["next"] < n:
                    index = state["next"]
                    state["next"] += 1
                    worker.task = index
                    try:
                        worker.conn.send((index, units[index], options, spec))
                    except OSError:
                        handle_death(worker)
            busy = [w for w in self._workers if w.task is not None]
            if not busy:
                continue
            ready = set(
                multiprocessing.connection.wait(
                    [w.conn for w in busy] + [w.process.sentinel for w in busy]
                )
            )
            for worker in busy:
                died = worker.process.sentinel in ready
                # A worker may die *after* sending its result: drain the
                # pipe first, and only treat an unreadable pipe as a death.
                if worker.conn in ready or (died and worker.conn.poll()):
                    try:
                        task_id, outcome = worker.conn.recv()
                    except (EOFError, OSError):
                        handle_death(worker)
                        continue
                    worker.task = None
                    finish(task_id, outcome)
                elif died:
                    handle_death(worker)
        return outcomes


class ParallelExecutor:
    """Maps work units to outcomes, preserving submission order."""

    def __init__(
        self,
        jobs: int = 1,
        retries: int = 0,
        backoff: float = 0.05,
        unit_timeout: Optional[float] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        if unit_timeout is not None and unit_timeout <= 0:
            raise ValueError(f"unit_timeout must be > 0, got {unit_timeout}")
        self.jobs = jobs
        self.retries = retries
        self.backoff = backoff
        self.unit_timeout = unit_timeout
        self._pool: Optional[WorkerPool] = None

    # -- persistent-pool surface ---------------------------------------- #

    @property
    def pool_starts(self) -> int:
        return self._pool.starts if self._pool is not None else 0

    @property
    def pool_reuses(self) -> int:
        return self._pool.reuses if self._pool is not None else 0

    @property
    def worker_respawns(self) -> int:
        return self._pool.respawns if self._pool is not None else 0

    def pool_pids(self) -> List[int]:
        """Live persistent-worker pids ([] when no pool is warm)."""
        return self._pool.pids() if self._pool is not None else []

    def shutdown(self) -> None:
        """Tear down the persistent pool; the executor stays usable (a
        later map lazily starts a fresh pool)."""
        if self._pool is not None:
            self._pool.shutdown()

    def map(
        self,
        units: Sequence[WorkUnit],
        observe: tuple = (),
        progress=None,
        on_result=None,
    ) -> List[UnitOutcome]:
        """One :class:`UnitOutcome` per unit, in submission order.

        Never raises for a unit-level failure (the outcome carries a
        :class:`UnitFailure` instead), and survives worker deaths: the pool
        respawns the dead worker alone and heals its unit in the parent.

        ``observe`` is forwarded into the worker guard (see
        :func:`_guarded_evaluate`).  ``on_result(index, outcome)``, when
        given, fires once per unit as its outcome arrives — in submission
        order on the serial path, in **completion order** on the pool —
        always before ``progress(done_count)`` for the same unit.  The
        returned list is in submission order either way.
        """
        units = list(units)
        options = dict(
            retries=self.retries,
            backoff=self.backoff,
            timeout=self.unit_timeout,
            observe=observe,
        )
        guard = functools.partial(_guarded_evaluate, **options)
        if self.jobs == 1 or len(units) <= 1:
            # Serial fallback: same process, same code path as before the
            # engine existed — bit-identical by construction.
            outcomes = []
            for index, unit in enumerate(units):
                outcome = guard(unit)
                outcomes.append(outcome)
                if on_result is not None:
                    on_result(index, outcome)
                if progress is not None:
                    progress(len(outcomes))
            return outcomes
        if self._pool is None:
            self._pool = WorkerPool(self.jobs)
        done = [0]

        def deliver(index: int, outcome: UnitOutcome) -> None:
            if on_result is not None:
                on_result(index, outcome)
            done[0] += 1
            if progress is not None:
                progress(done[0])

        return self._pool.run(units, options, guard, deliver)


class _WritebackStream:
    """Reorders completion-order outcomes into deterministic store writes.

    Outcomes stream in as workers finish — possibly out of submission
    order — but stored bytes must stay bit-identical to the serial path,
    so writes are buffered per miss position and flushed as contiguous
    runs (one :meth:`ResultStore.write_many` batch each) whenever the
    submission-order cursor advances.  Failures advance the cursor without
    writing; healed units are written by the engine's final write-back
    pass.  Flush time spent inside the compute phase is tracked so the
    engine can re-attribute it to the write-back phase.
    """

    #: Records accumulated before a streamed flush; leftovers below the
    #: threshold when compute ends are written by the engine's tail pass.
    FLUSH_RECORDS = 16

    def __init__(self, store: Optional[ResultStore], stats: EngineStats):
        self.store = store
        self.stats = stats
        self._pending: dict = {}
        self._cursor = 0
        self._batch: list = []
        self._batch_positions: list = []
        #: Miss positions whose results have already been persisted.
        self.written = set()
        #: Seconds spent flushing while the compute phase was open.
        self.inline_seconds = 0.0

    def offer(self, pos: int, key: str, outcome: UnitOutcome) -> None:
        if self.store is None:
            return
        start = time.perf_counter()
        if outcome.ok:
            self._pending[pos] = (key, payload_from_result(outcome.value))
        else:
            self._pending[pos] = None
        while self._cursor in self._pending:
            item = self._pending.pop(self._cursor)
            if item is not None:
                self._batch.append(item)
                self._batch_positions.append(self._cursor)
            self._cursor += 1
        if len(self._batch) >= self.FLUSH_RECORDS:
            self.store.write_many(self._batch)
            self.stats.writeback_batches.observe(len(self._batch))
            self.written.update(self._batch_positions)
            self._batch = []
            self._batch_positions = []
        self.inline_seconds += time.perf_counter() - start


class Engine:
    """Store-backed, parallel, fault-tolerant evaluator of work units."""

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        retries: int = 0,
        backoff: float = 0.05,
        unit_timeout: Optional[float] = None,
        slab_size: Optional[int] = None,
    ):
        if slab_size is not None and slab_size < 1:
            raise ValueError(f"slab_size must be >= 1, got {slab_size}")
        #: Points per :class:`~repro.engine.tasks.SlabUnit` when dispatching
        #: store misses to workers; ``None`` keeps per-point dispatch.
        self.slab_size = slab_size
        self.executor = ParallelExecutor(
            jobs=jobs, retries=retries, backoff=backoff, unit_timeout=unit_timeout
        )
        self.store = store
        self.stats = EngineStats(jobs=jobs)
        #: Optional :class:`repro.obs.ProgressLine` driven during compute.
        self.progress = None
        self._last_recovered = 0

    @property
    def jobs(self) -> int:
        return self.executor.jobs

    def shutdown(self) -> None:
        """Stop the persistent worker pool (if warm); the engine stays
        usable and restarts the pool lazily on the next evaluate."""
        self.executor.shutdown()

    def evaluate(
        self, units: Sequence[WorkUnit], on_failure: str = "raise"
    ) -> List[object]:
        """Evaluate ``units``; results align index-for-index with input.

        Store hits skip computation entirely; misses are computed through
        the executor and written back.  A corrupt or malformed record is
        deleted on detection and recomputed.

        A unit that keeps failing after the executor's retries gets one
        last serial attempt in this process (workers can die or be
        environmentally broken in ways the parent is not); if that fails
        too, behaviour follows ``on_failure``:

        * ``"raise"`` (default) — raise :class:`EngineFailureError` *after*
          writing every successful result back to the store, so completed
          work is never lost;
        * ``"return"`` — put the :class:`UnitFailure` in the unit's result
          slot and let the caller decide.
        """
        if on_failure not in ("raise", "return"):
            raise ValueError(
                f"on_failure must be 'raise' or 'return', got {on_failure!r}"
            )
        units = list(units)
        results: List[Optional[object]] = [None] * len(units)
        misses: List[int] = []

        with self.stats.phase("lookup"):
            if self.store is not None and units:
                payloads = self.store.get_many([u.content_key for u in units])
            else:
                payloads = [None] * len(units)
            for i, (unit, payload) in enumerate(zip(units, payloads)):
                if payload is not None:
                    try:
                        results[i] = result_from_payload(payload)
                        continue
                    except (KeyError, TypeError, ValueError):
                        # Bad payload inside a well-formed record: delete it
                        # now so the "deleted and recomputed" contract holds
                        # even if the recompute below fails.
                        self.store.stats.corrupt += 1
                        self.store.delete(unit.content_key)
                misses.append(i)

        busy = 0.0
        retried = 0
        retry_attempts = 0
        failures: List[UnitFailure] = []
        observe = observation_flags()
        if misses:
            reporter = self.progress
            if reporter is not None:
                reporter.begin(len(misses))
            miss_units = [units[i] for i in misses]
            # Write-back streams alongside computation: each outcome is
            # offered as it completes and flushed in submission order, so
            # store I/O overlaps compute without perturbing stored bytes.
            stream = _WritebackStream(self.store, self.stats)

            def absorb(pos: int, outcome: UnitOutcome) -> None:
                stream.offer(pos, miss_units[pos].content_key, outcome)

            try:
                with self.stats.phase("compute"):
                    progress = None if reporter is None else reporter.update
                    if self.slab_size and len(miss_units) > 1:
                        outcomes = self._map_slabs(
                            miss_units,
                            observe=observe,
                            progress=progress,
                            on_result=absorb,
                        )
                    else:
                        outcomes = self.executor.map(
                            miss_units,
                            observe=observe,
                            progress=progress,
                            on_result=absorb,
                        )
            finally:
                if reporter is not None:
                    reporter.finish()
            if stream.inline_seconds:
                # Store flushes ran inside the compute wall clock; bill
                # them to write-back so utilization stays honest.
                self.stats.phase_seconds["compute"] = (
                    self.stats.phase_seconds.get("compute", 0.0)
                    - stream.inline_seconds
                )
                self.stats.phase_seconds["write-back"] = (
                    self.stats.phase_seconds.get("write-back", 0.0)
                    + stream.inline_seconds
                )
            if self.executor.jobs > 1 and not all(o.ok for o in outcomes):
                outcomes = self._recover_serially(miss_units, outcomes, observe)
            with self.stats.phase("write-back"):
                tail = []
                for pos, (i, outcome) in enumerate(zip(misses, outcomes)):
                    if outcome.spans:
                        TRACER.absorb(outcome.spans)
                    if outcome.metrics:
                        METRICS.merge_raw(outcome.metrics)
                    self.stats.unit_seconds.observe(outcome.seconds)
                    results[i] = outcome.value
                    busy += outcome.seconds
                    if not outcome.ok:
                        failures.append(outcome.value)
                        continue
                    if outcome.attempts > 1:
                        retried += 1
                        retry_attempts += outcome.attempts - 1
                    if self.store is not None and pos not in stream.written:
                        # Healed (or never-streamed) results land here.
                        tail.append(
                            (units[i].content_key, payload_from_result(outcome.value))
                        )
                if tail:
                    self.store.write_many(tail)
                    self.stats.writeback_batches.observe(len(tail))

        recovered = self._last_recovered
        self._last_recovered = 0
        self.stats.record_batch(
            total=len(units),
            hits=len(units) - len(misses),
            computed=len(misses) - len(failures),
            busy=busy,
            failed=len(failures),
            retried=retried,
            retry_attempts=retry_attempts,
            recovered=recovered,
        )
        self.stats.record_failures(failures)
        # Pool lifecycle counters are lifetime totals on the executor;
        # mirror them rather than accumulate deltas.
        self.stats.pool_starts = self.executor.pool_starts
        self.stats.pool_reuses = self.executor.pool_reuses
        self.stats.worker_respawns = self.executor.worker_respawns
        if METRICS.enabled:
            METRICS.inc("engine.units_total", len(units))
            METRICS.inc("engine.store_hits", len(units) - len(misses))
            METRICS.inc("engine.units_computed", len(misses) - len(failures))
            if failures:
                METRICS.inc("engine.units_failed", len(failures))
            if recovered:
                METRICS.inc("engine.units_recovered", recovered)
        if failures and on_failure == "raise":
            raise EngineFailureError(failures)
        return results

    def _map_slabs(
        self,
        units: Sequence[WorkUnit],
        observe: tuple = (),
        progress=None,
        on_result=None,
    ) -> List[UnitOutcome]:
        """Dispatch units as slabs, flattened back to per-unit outcomes.

        Units are grouped by (design, SMT, reference uncore) — a slab must
        share a chip model — and cut into :attr:`slab_size` pieces.  Each
        slab evaluates through the vectorized batch solver in one worker
        call, so the ~5 ms grid points stop being dominated by pickling and
        IPC.  A slab that fails after retries fans out into one
        :class:`UnitFailure` per member point, which keeps the engine's
        serial recovery and ``on_failure`` semantics exactly as in
        per-point dispatch.

        For batches smaller than ``slab_size x jobs`` the configured size
        would leave workers idle (an adaptive explorer's low-fidelity rung
        is a few dozen points; at ``slab_size=32`` they all land in one
        slab on one worker), so the effective size shrinks to spread the
        batch across the pool.  Slab partitioning never affects values —
        the batch solver is bit-identical piecewise — so this is purely a
        latency choice.
        """
        slab_size = self.slab_size
        jobs = self.executor.jobs
        if jobs > 1:
            spread = -(-len(units) // jobs)  # ceil division
            slab_size = max(1, min(slab_size, spread))
        groups: dict = {}
        for idx, unit in enumerate(units):
            key = (unit.design, unit.smt, unit.reference_uncore)
            groups.setdefault(key, []).append(idx)
        slabs: List[SlabUnit] = []
        members: List[List[int]] = []
        for idxs in groups.values():
            for start in range(0, len(idxs), slab_size):
                piece = idxs[start : start + slab_size]
                first = units[piece[0]]
                slabs.append(
                    SlabUnit(
                        design=first.design,
                        mixes=tuple(units[i].mix for i in piece),
                        smt=first.smt,
                        reference_uncore=first.reference_uncore,
                    )
                )
                members.append(piece)
        TRACER.instant(
            "engine.slab-dispatch", cat="engine", slabs=len(slabs), units=len(units)
        )
        if METRICS.enabled:
            METRICS.inc("engine.slabs_dispatched", len(slabs))

        outcomes: List[Optional[UnitOutcome]] = [None] * len(units)
        done_units = [0]

        def flatten(slab_index: int, outcome: UnitOutcome) -> None:
            """Fan one slab outcome out into its members' result slots.

            Runs as each slab completes (possibly out of submission order
            on the persistent pool), so per-unit streaming write-back and
            progress see units the moment their slab lands.
            """
            piece = members[slab_index]
            per_point = outcome.seconds / len(piece)
            for j, i in enumerate(piece):
                spans = outcome.spans if j == 0 else ()
                metrics = outcome.metrics if j == 0 else None
                if outcome.ok:
                    value = outcome.value[j]
                else:
                    unit = units[i]
                    value = UnitFailure(
                        content_key=unit.content_key,
                        design_name=unit.design.name,
                        mix=unit.mix,
                        smt=unit.smt,
                        error_type=outcome.value.error_type,
                        message=outcome.value.message,
                        attempts=outcome.value.attempts,
                    )
                unit_outcome = UnitOutcome(
                    value, per_point, outcome.attempts, spans, metrics
                )
                outcomes[i] = unit_outcome
                if on_result is not None:
                    on_result(i, unit_outcome)
            done_units[0] += len(piece)

        def slab_progress(_completed_slabs: int) -> None:
            # flatten has already run for this slab (on_result fires
            # before progress), so the unit tally is correct even when
            # slabs complete out of submission order.
            if progress is not None:
                progress(done_units[0])

        self.executor.map(
            slabs, observe=observe, progress=slab_progress, on_result=flatten
        )
        return outcomes

    def _recover_serially(
        self,
        units: Sequence[WorkUnit],
        outcomes: List[UnitOutcome],
        observe: tuple = (),
    ) -> List[UnitOutcome]:
        """One last in-parent attempt for units that failed in the pool.

        Worker-environment failures (a dead process, an injected
        worker-only fault, a transient resource error) often do not
        reproduce in the parent; a genuinely broken unit fails again and
        keeps its :class:`UnitFailure` with the attempt count accumulated.
        """
        recovered = 0
        with self.stats.phase("recover"):  # in-parent healing pass
            healed: List[UnitOutcome] = []
            for unit, outcome in zip(units, outcomes):
                if outcome.ok:
                    healed.append(outcome)
                    continue
                # Keep what the failed worker attempt recorded, then retry
                # here; the healed outcome carries only the retry's events.
                if outcome.spans:
                    TRACER.absorb(outcome.spans)
                if outcome.metrics:
                    METRICS.merge_raw(outcome.metrics)
                TRACER.instant(
                    "unit.recovery", cat="engine", design=unit.design.name
                )
                retry = _guarded_evaluate(
                    unit, timeout=self.executor.unit_timeout, observe=observe
                )
                attempts = outcome.attempts + retry.attempts
                seconds = outcome.seconds + retry.seconds
                if retry.ok:
                    recovered += 1
                    healed.append(
                        UnitOutcome(
                            retry.value, seconds, attempts, retry.spans, retry.metrics
                        )
                    )
                else:
                    failure = dataclasses.replace(retry.value, attempts=attempts)
                    healed.append(
                        UnitOutcome(
                            failure, seconds, attempts, retry.spans, retry.metrics
                        )
                    )
        self._last_recovered += recovered
        return healed

    def run_summary(self) -> dict:
        """This engine's lifetime stats plus store accounting."""
        summary = {
            "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            **self.stats.as_dict(),
        }
        if self.store is not None:
            summary["store"] = self.store.status_dict()
        if METRICS.enabled:
            summary["metrics"] = METRICS.snapshot()
        return summary

    def write_summary(self) -> None:
        """Persist the run summary next to the store (``cache stats`` reads it)."""
        if self.store is not None:
            self.store.write_run_summary(self.run_summary())
