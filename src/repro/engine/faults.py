"""Deterministic fault injection for the evaluation engine.

The engine's failure paths — a raising work unit, a killed worker, a unit
that hangs, a store that cannot read or write — are impossible to exercise
reliably with real hardware faults, so this module injects them on demand.
A *fault spec* is a semicolon-separated list of faults::

    raise:benchmark=mcf:times=1; kill:design=8m; slow:benchmark=tonto:seconds=5

activated through the :data:`FAULT_SPEC_ENV` environment variable (which
worker processes inherit) or programmatically via :func:`install` in tests.

Fault kinds:

``raise``
    the matching unit's evaluation raises :class:`InjectedFault`;
``kill``
    the worker process evaluating the matching unit dies with
    ``os._exit`` — but **only inside a pool worker** (see
    :func:`mark_worker_process`), so the executor's re-execution of a
    dead worker's unit in the parent is not itself killed;
``slow``
    evaluation of the matching unit is delayed by ``seconds`` (for
    per-unit timeout tests);
``store-read`` / ``store-write``
    the next store lookup / write raises :class:`InjectedStoreError`
    (an ``OSError``), driving the store's degraded in-memory mode.

Matching fields (all optional; a fault with none matches every unit):
``benchmark=<name>`` (name appears in the unit's mix), ``design=<name>``,
``smt=<true|false>``.  ``times=N`` caps how often a fault fires *per
process* (omitted = every time), which is what makes retry-then-succeed
scenarios deterministic: the first attempt consumes the budget, the retry
runs clean.
"""

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Environment variable carrying the active fault spec (inherited by
#: pool worker processes, so injection works across the process boundary).
FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"

#: Recognized fault kinds.
FAULT_KINDS = ("raise", "kill", "slow", "store-read", "store-write")


class InjectedFault(RuntimeError):
    """Raised by a ``raise`` fault during unit evaluation."""


class InjectedStoreError(OSError):
    """Raised by a ``store-read``/``store-write`` fault during store I/O."""


@dataclass(frozen=True)
class Fault:
    """One parsed fault clause of a spec."""

    kind: str
    benchmark: Optional[str] = None
    design: Optional[str] = None
    smt: Optional[bool] = None
    times: Optional[int] = None  # None = fire every time
    seconds: float = 5.0  # slow faults only
    exit_code: int = 17  # kill faults only

    def matches_unit(self, unit) -> bool:
        if self.benchmark is not None and self.benchmark not in unit.mix:
            return False
        if self.design is not None and unit.design.name != self.design:
            return False
        if self.smt is not None and unit.smt != self.smt:
            return False
        return True


def parse_spec(spec: str) -> List[Fault]:
    """Parse a fault spec string into :class:`Fault` clauses.

    Raises ``ValueError`` with a precise message on unknown kinds/fields,
    so a typo in ``$REPRO_FAULT_SPEC`` fails loudly, not silently.
    """
    faults: List[Fault] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, rest = clause.partition(":")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} in {clause!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        fields: Dict[str, object] = {}
        for part in filter(None, (p.strip() for p in rest.split(":"))):
            name, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"malformed fault field {part!r} in {clause!r}")
            name = name.strip()
            value = value.strip()
            if name in ("benchmark", "design"):
                fields[name] = value
            elif name == "smt":
                fields[name] = value.lower() in ("1", "true", "yes", "on")
            elif name == "times":
                fields[name] = int(value)
            elif name == "seconds":
                fields[name] = float(value)
            elif name == "exit_code":
                fields[name] = int(value)
            else:
                raise ValueError(f"unknown fault field {name!r} in {clause!r}")
        faults.append(Fault(kind=kind, **fields))
    return faults


# --------------------------------------------------------------------- #
# module state: active spec, per-process fire counters, worker marker    #
# --------------------------------------------------------------------- #

_spec_cache: Optional[str] = None
_faults: List[Fault] = []
_fire_counts: Dict[int, int] = {}
_IN_WORKER = False


def _active() -> List[Fault]:
    """The faults for the current ``$REPRO_FAULT_SPEC`` (re-parsed, and
    counters reset, whenever the env value changes)."""
    global _spec_cache, _faults
    spec = os.environ.get(FAULT_SPEC_ENV, "")
    if spec != _spec_cache:
        _faults = parse_spec(spec)
        _spec_cache = spec
        _fire_counts.clear()
    return _faults


def _should_fire(index: int, fault: Fault) -> bool:
    if fault.times is not None:
        fired = _fire_counts.get(index, 0)
        if fired >= fault.times:
            return False
        _fire_counts[index] = fired + 1
    return True


def mark_worker_process() -> None:
    """Called first in every pool worker: arm worker-only faults (``kill``)."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker_process() -> bool:
    return _IN_WORKER


def install(spec: str) -> List[Fault]:
    """Activate ``spec`` (validating it first) for this and child processes."""
    faults = parse_spec(spec)  # fail before touching the environment
    os.environ[FAULT_SPEC_ENV] = spec
    _active()
    return faults


def reset() -> None:
    """Deactivate injection and forget all per-process fire counters."""
    global _spec_cache, _faults, _IN_WORKER
    os.environ.pop(FAULT_SPEC_ENV, None)
    _spec_cache = None
    _faults = []
    _fire_counts.clear()
    _IN_WORKER = False


def current_spec() -> str:
    """The active spec string ("" when injection is off), for shipping to
    persistent pool workers alongside each task."""
    return os.environ.get(FAULT_SPEC_ENV, "")


def sync_spec(spec: str) -> None:
    """Adopt the parent's fault spec inside a persistent pool worker.

    A persistent worker may have forked *before* a test or CLI run
    installed its spec — so the executor ships the parent's current spec with every
    task and the worker applies it here.  :func:`_active` re-parses (and
    re-arms ``times=`` budgets) only when the spec string actually
    changed, so an unchanged spec keeps its per-process fire counters and
    retry-then-succeed scenarios stay deterministic.
    """
    if spec:
        os.environ[FAULT_SPEC_ENV] = spec
    else:
        os.environ.pop(FAULT_SPEC_ENV, None)
    _active()


# --------------------------------------------------------------------- #
# injection points                                                       #
# --------------------------------------------------------------------- #


def inject_unit_faults(unit) -> None:
    """Called once per evaluation *attempt*, before the unit runs."""
    for index, fault in enumerate(_active()):
        if fault.kind not in ("raise", "kill", "slow"):
            continue
        if not fault.matches_unit(unit):
            continue
        if fault.kind == "kill" and not _IN_WORKER:
            # Never kill the parent: the executor's re-execution of a dead
            # worker's unit must survive the very unit that killed it.
            continue
        if not _should_fire(index, fault):
            continue
        if fault.kind == "slow":
            time.sleep(fault.seconds)
        elif fault.kind == "kill":
            os._exit(fault.exit_code)
        else:
            raise InjectedFault(
                f"injected fault for unit {unit.design.name}/{'+'.join(unit.mix)}"
            )


def inject_store_fault(op: str) -> None:
    """Called by the store at the top of ``get`` (op='read') / ``put`` (op='write')."""
    kind = f"store-{op}"
    for index, fault in enumerate(_active()):
        if fault.kind != kind:
            continue
        if not _should_fire(index, fault):
            continue
        raise InjectedStoreError(f"injected store {op} error")
