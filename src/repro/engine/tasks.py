"""Work units: the engine's unit of evaluation.

A :class:`WorkUnit` is one (design, mix, SMT) grid point, self-contained
enough to evaluate in another process: it carries the full
:class:`~repro.core.designs.ChipDesign` (not just a name, so custom designs
work) and the uncore used for isolated-on-big reference runs.  Benchmark
names resolve to profiles at key-derivation and evaluation time, so a
profile edit changes the key.

:func:`evaluate_work_unit` is the worker entry point.  It funnels into the
exact same :meth:`DesignSpaceStudy.evaluate_mix` code path the serial tier
uses — per-process studies are memoized so a worker pays model construction
once — which is what makes ``jobs=N`` bit-identical to ``jobs=1``.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

from repro.core.designs import ChipDesign
from repro.engine.keys import content_key
from repro.microarch.uncore import UncoreConfig
from repro.workloads.multiprogram import profiles_for


@dataclass(frozen=True)
class WorkUnit:
    """One (design, mix, thread count, SMT) evaluation point.

    ``reference_uncore`` is the uncore the owning study normalizes against
    (isolated-on-big runs); it defaults to the design's own uncore and is
    part of the content key because it changes STP/ANTT.
    """

    design: ChipDesign
    mix: Tuple[str, ...]
    smt: bool = True
    reference_uncore: Optional[UncoreConfig] = None

    def __post_init__(self) -> None:
        if not self.mix:
            raise ValueError("a work unit needs at least one benchmark")
        object.__setattr__(self, "mix", tuple(self.mix))
        if self.reference_uncore is None:
            object.__setattr__(self, "reference_uncore", self.design.uncore)

    @property
    def n_threads(self) -> int:
        return len(self.mix)

    @cached_property
    def content_key(self) -> str:
        """Deterministic key over the full configuration behind this point."""
        return content_key(
            {
                "kind": "mix-result",
                "design": self.design,
                "reference_uncore": self.reference_uncore,
                "mix": list(self.mix),
                "profiles": list(profiles_for(list(self.mix))),
                "smt": self.smt,
            }
        )


@dataclass(frozen=True)
class SlabUnit:
    """Many mixes of one (design, SMT) shipped to a worker as one unit.

    A single grid point solves in ~5 ms, so per-unit process dispatch is
    dominated by pickling and IPC.  A slab carries a whole batch of mixes
    and evaluates them through
    :meth:`DesignSpaceStudy.evaluate_mixes` — the vectorized lockstep
    solver — inside one worker call.  Results come back as a list aligned
    with ``mixes``; the engine flattens them into the per-point result
    slots, so slab dispatch is invisible (and bit-identical) to callers.
    """

    design: ChipDesign
    mixes: Tuple[Tuple[str, ...], ...]
    smt: bool = True
    reference_uncore: Optional[UncoreConfig] = None

    def __post_init__(self) -> None:
        if not self.mixes or any(not m for m in self.mixes):
            raise ValueError("a slab needs at least one non-empty mix")
        object.__setattr__(self, "mixes", tuple(tuple(m) for m in self.mixes))
        if self.reference_uncore is None:
            object.__setattr__(self, "reference_uncore", self.design.uncore)

    @property
    def mix(self) -> Tuple[str, ...]:
        """Flattened benchmark names (for fault matching and trace labels)."""
        seen = []
        for m in self.mixes:
            for b in m:
                if b not in seen:
                    seen.append(b)
        return tuple(seen)

    @property
    def n_threads(self) -> int:
        return max(len(m) for m in self.mixes)

    @property
    def timeout_scale(self) -> int:
        """Per-unit timeouts scale with the number of points in the slab."""
        return len(self.mixes)

    @cached_property
    def content_key(self) -> str:
        return content_key(
            {
                "kind": "slab-result",
                "design": self.design,
                "reference_uncore": self.reference_uncore,
                "mixes": [list(m) for m in self.mixes],
                "profiles": list(profiles_for(list(self.mix))),
                "smt": self.smt,
            }
        )


@dataclass(frozen=True)
class UnitFailure:
    """Structured outcome of a work unit whose evaluation kept failing.

    The executor returns one of these *in the unit's result slot* instead
    of letting the exception poison the whole batch: every other unit's
    result survives, aligned index-for-index with the input.
    """

    content_key: str
    design_name: str
    mix: Tuple[str, ...]
    smt: bool
    error_type: str
    message: str
    attempts: int

    def describe(self) -> str:
        smt_note = "" if self.smt else " (no SMT)"
        return (
            f"{self.design_name}/{'+'.join(self.mix)}{smt_note}: "
            f"{self.error_type}: {self.message} "
            f"(after {self.attempts} attempt(s))"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "content_key": self.content_key,
            "design": self.design_name,
            "mix": list(self.mix),
            "smt": self.smt,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }


def payload_from_result(result) -> Dict[str, object]:
    """JSON-serializable record payload for a :class:`MixResult`."""
    return {
        "design_name": result.design_name,
        "mix": list(result.mix),
        "smt": result.smt,
        "stp": result.stp,
        "antt": result.antt,
        "power_gated_w": result.power_gated_w,
        "power_ungated_w": result.power_ungated_w,
        "bus_utilization": result.bus_utilization,
        "mem_latency_inflation": result.mem_latency_inflation,
    }


def result_from_payload(payload: Dict[str, object]):
    """Rebuild a :class:`MixResult` from a store payload.

    Raises ``KeyError``/``TypeError`` on malformed payloads; callers treat
    that as a cache miss, not an error.
    """
    from repro.core.study import MixResult

    return MixResult(
        design_name=str(payload["design_name"]),
        mix=tuple(str(b) for b in payload["mix"]),
        smt=bool(payload["smt"]),
        stp=float(payload["stp"]),
        antt=float(payload["antt"]),
        power_gated_w=float(payload["power_gated_w"]),
        power_ungated_w=float(payload["power_ungated_w"]),
        bus_utilization=float(payload["bus_utilization"]),
        mem_latency_inflation=float(payload["mem_latency_inflation"]),
    )


def _worker_studies():
    """Per-process study cache so pool workers build each chip model once.

    A :class:`~repro.engine.store.KeyedCache` rather than a bare dict: the
    hit/miss counters make warm-state reuse observable (persistent pool
    workers keep this cache — and the solver state inside each study —
    across tasks, slabs and serve-daemon jobs), and the identity memo keeps
    repeat lookups of the same design object at dict speed.  Imported
    lazily to keep the module import-light for worker startup.
    """
    global _WORKER_STUDIES
    if _WORKER_STUDIES is None:
        from repro.engine.store import KeyedCache

        _WORKER_STUDIES = KeyedCache("worker-studies")
    return _WORKER_STUDIES


_WORKER_STUDIES = None


def evaluate_work_unit(unit):
    """Evaluate one work unit (in this or a worker process).

    A :class:`WorkUnit` returns the same :class:`MixResult` the serial
    :meth:`DesignSpaceStudy.evaluate_mix` path produces, bit for bit.  A
    :class:`SlabUnit` returns a list of :class:`MixResult` aligned with its
    ``mixes``, computed through the vectorized batch path — also
    bit-identical to evaluating each point alone.
    """
    from repro.core.study import DesignSpaceStudy

    study = _worker_studies().get_or_compute(
        (unit.design, unit.reference_uncore),
        lambda: DesignSpaceStudy(
            designs=[unit.design], reference_uncore=unit.reference_uncore
        ),
    )
    if isinstance(unit, SlabUnit):
        return study.evaluate_mixes(
            unit.design.name, [list(m) for m in unit.mixes], unit.smt
        )
    return study.evaluate_mix(unit.design.name, list(unit.mix), unit.smt)


def clear_worker_studies() -> None:
    """Drop per-process worker studies (tests and long-lived servers)."""
    if _WORKER_STUDIES is not None:
        _WORKER_STUDIES.clear()
