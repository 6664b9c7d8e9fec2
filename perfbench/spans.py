"""Span recording from outside the program, and the self-time fold.

:class:`Recorder` wraps public functions of ``repro`` modules with timing
wrappers.  Each call becomes one span: name, start, end, parent span and an
optional tag (a count or a query id).  Spans stay in memory and are written
out at the end.

Pool workers are forked after the wrappers are installed, so their calls
are timed too.  A forked process cannot hand its memory back, so a worker
appends its spans to ``spans-<pid>.jsonl`` in the span directory each time
its outermost span closes — before the worker replies to its parent, so
the file is complete when the parent's call returns.

Timestamps are ``time.perf_counter()``, which is the system-wide monotonic
clock on Linux, so spans from different processes share one time axis.
"""

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional


class Recorder:
    """In-memory span store with per-thread parent tracking."""

    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.span_dir.mkdir(parents=True, exist_ok=True)
        self.owner_pid = os.getpid()
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child starts with a copy of the parent's spans and of the
        # forking thread's open-span stack; neither belongs to it.
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        return stack, parent, span_id, time.perf_counter()

    def _close(self, opened: tuple, name: str, tag) -> None:
        stack, parent, span_id, start = opened
        end = time.perf_counter()
        stack.pop()
        self.spans.append(
            [os.getpid(), threading.current_thread().name, span_id, parent,
             name, start, end, tag]
        )
        if not stack and os.getpid() != self.owner_pid:
            self.spill()

    @contextmanager
    def span(self, name: str, tag=None):
        """Record the enclosed block as one span."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(opened, name, tag)

    def timed(self, name: str, fn: Callable, tag: Optional[Callable] = None):
        """``fn`` wrapped so that each call records a span.

        ``tag(args, kwargs, result)``, when given, computes the span's tag
        from the call (for example the number of points it solved).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(
                    opened, name, tag(args, kwargs, result) if tag is not None else None
                )

        return wrapper

    def spill(self) -> None:
        """Append this process's spans to its per-pid file and forget them."""
        if not self.spans:
            return
        spans, self.spans = self.spans, []
        path = self.span_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in spans:
                handle.write(json.dumps(record) + "\n")


def load(span_dir: Path) -> List[list]:
    """Every span written to ``span_dir`` by any process."""
    spans: List[list] = []
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


# --------------------------------------------------------------------- #
# the program's layers                                                  #
# --------------------------------------------------------------------- #


def _count_requests(args, kwargs, result):
    return len(args[0])


def _count_slabs(args, kwargs, result):
    return sum(1 for unit in args[1] if type(unit).__name__ == "SlabUnit")


def _sim_tag(args, kwargs, result):
    tag = {
        "mode": "live" if kwargs.get("sampling") == "live" else "full",
        "design": args[0].design.name,
    }
    if result is None:
        return tag
    return {
        **tag,
        "instructions": sum(s.instructions for _c, s in result.thread_stats),
        "cycles": result.total_cycles,
        "dram_requests": result.dram_requests,
    }


def install(recorder: Recorder) -> None:
    """Wrap the public calls that stand for each layer of the program.

    Module-level functions are rebound in every loaded ``repro`` module
    that imported them by name, so callers that bound the name at import
    time are timed too.
    """
    from functools import cached_property

    from repro.core.scheduler import Scheduler
    from repro.core.study import DesignSpaceStudy
    from repro.engine.executor import ParallelExecutor
    from repro.engine.store import ResultStore
    from repro.engine.tasks import WorkUnit
    from repro.interval import contention
    from repro.power.mcpat import ChipPowerModel
    from repro.sim.multicore import MulticoreSimulator

    key = WorkUnit.__dict__["content_key"]
    timed_key = cached_property(recorder.timed("engine.keys", key.func))
    timed_key.__set_name__(WorkUnit, "content_key")
    WorkUnit.content_key = timed_key

    methods = [
        (ResultStore, "get_many", "engine.store_read", None),
        (ResultStore, "write_many", "engine.store_write", None),
        (ParallelExecutor, "map", "engine.dispatch", _count_slabs),
        (Scheduler, "place", "core.scheduler", None),
        (DesignSpaceStudy, "prefetch", "core.study", None),
        (DesignSpaceStudy, "evaluate_mixes", "core.study", None),
        (DesignSpaceStudy, "mean_stp", "core.study", None),
        (ChipPowerModel, "power", "power.model", None),
        (MulticoreSimulator, "prepare", "sim.prepare", None),
        (MulticoreSimulator, "run", "sim.run", _sim_tag),
    ]
    for owner, attr, name, tag in methods:
        setattr(owner, attr, recorder.timed(name, getattr(owner, attr), tag))

    original = contention.evaluate_batch
    timed_batch = recorder.timed("interval.solve", original, _count_requests)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "repro" and module is not None:
            if getattr(module, "evaluate_batch", None) is original:
                module.evaluate_batch = timed_batch


# --------------------------------------------------------------------- #
# the fold                                                              #
# --------------------------------------------------------------------- #


def self_times(spans: Iterable[list]) -> List[tuple]:
    """``(span, self seconds)`` for every span.

    Self time is a span's duration minus the part its child spans cover.
    Children run on their parent's thread, nested inside it and one after
    another, so the covered part is the sum of their durations.
    """
    spans = list(spans)
    covered: Dict[tuple, float] = defaultdict(float)
    for pid, _thread, _id, parent, _name, start, end, _tag in spans:
        if parent:
            covered[(pid, parent)] += end - start
    return [
        (span, (span[6] - span[5]) - covered[(span[0], span[2])])
        for span in spans
    ]


def fold(spans: Iterable[list], is_main: Callable[[list], bool]) -> dict:
    """Per-layer self time, call counts and tags, plus the main-track sum.

    ``is_main`` selects the spans of the thread that drives the timed
    region; their self times plus the unattributed remainder make up the
    region's wall time.  Spans on other threads and in worker processes
    run alongside it and are reported as busy time of their layer.
    """
    layers: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    tags: Dict[str, list] = defaultdict(list)
    main_self = 0.0
    for span, seconds in self_times(spans):
        name = span[4]
        layers[name] += seconds
        calls[name] += 1
        if span[7] is not None:
            tags[name].append((span, seconds))
        if is_main(span):
            main_self += seconds
    return {"self": layers, "calls": calls, "tags": tags, "main_self": main_self}


def write_chrome_trace(spans: Iterable[list], path: Path) -> None:
    """Write spans as Chrome trace events (loadable in Perfetto)."""
    events = []
    for pid, thread, span_id, parent, name, start, end, tag in spans:
        events.append(
            {
                "name": name,
                "ph": "X",
                "pid": pid,
                "tid": thread,
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent, "tag": tag},
            }
        )
    events.sort(key=lambda e: e["ts"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
