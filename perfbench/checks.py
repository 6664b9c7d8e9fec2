"""Output checks: every workload's outputs against the program's own oracles.

Each check holds for any seed on a correct program.  None compares against
a digest fixed for one seed, and none gates on model quality (a live
sampling error or a cross-tier IPC ratio that a new seed may legitimately
push past a threshold); accuracy is reported as metrics instead.

Each ``check_*`` function returns a list of problems; empty means correct.
"""

import math
from typing import Dict, List, Sequence, Tuple

from perfbench import inputs

#: Mismatches quoted in a problem message before the rest are counted.
_QUOTED = 3


def grid_oracle(seed: int, size: inputs.Size):
    """The grid from the serial in-process study, with no engine."""
    from repro.core.study import DesignSpaceStudy

    results, table = inputs.evaluate_grid(DesignSpaceStudy(seed=seed), size)
    return [repr(r) for r in results], table


def check_grid(report: dict, oracle) -> List[str]:
    """Every ``MixResult`` field and mean STP equals the serial study's."""
    expected, expected_table = oracle
    got = report["results"]
    problems = []
    if len(got) != len(expected):
        problems.append(f"grid pass returned {len(got)} results, expected {len(expected)}")
    diffs = [(g, e) for g, e in zip(got, expected) if g != e]
    if diffs:
        quoted = "; ".join(f"{g} != {e}" for g, e in diffs[:_QUOTED])
        problems.append(
            f"{len(diffs)} MixResult(s) differ from the serial study: {quoted}"
        )
    if report["table"] != expected_table:
        problems.append("mean-STP table differs from the serial study")
    failed = report["engine"]["units_failed"]
    if failed:
        problems.append(f"engine reported {failed} failed unit(s)")
    return problems


def serve_oracle(size: inputs.Size, queries: Sequence[Tuple[str, Tuple[str, ...]]]):
    """Local evaluation of the daemon's bulk table and interactive points.

    The daemon's study draws its own heterogeneous mixes, so the bulk
    oracle uses the daemon's seed, not the workload seed.
    """
    from repro.core.study import DesignSpaceStudy
    from repro.engine.tasks import payload_from_result

    study = DesignSpaceStudy(seed=inputs.DAEMON_STUDY_SEED)
    _results, table = inputs.evaluate_grid(study, size)
    bulk = {
        kind: {
            design: {str(n + 1): stp for n, stp in enumerate(per_count)}
            for design, per_count in by_design.items()
        }
        for kind, by_design in table.items()
    }
    points = [
        payload_from_result(study.evaluate_mix(design, list(mix)))
        for design, mix in queries
    ]
    return bulk, points


def check_serve(bulk: Dict[str, dict], payloads: List, oracle) -> List[str]:
    """The bulk mean-STP tables and every interactive payload equal local
    evaluation of the same points (``None`` marks a failed query, which is
    counted as a failure, not checked here)."""
    expected_bulk, expected_points = oracle
    problems = []
    for kind, table in expected_bulk.items():
        if bulk.get(kind) != table:
            problems.append(f"bulk {kind} sweep mean-STP table differs from local evaluation")
    diffs = [
        (i, got, want)
        for i, (got, want) in enumerate(zip(payloads, expected_points))
        if got is not None and got != want
    ]
    if diffs:
        quoted = "; ".join(f"query {i}: {g} != {w}" for i, g, w in diffs[:_QUOTED])
        problems.append(
            f"{len(diffs)} interactive payload(s) differ from local evaluation: {quoted}"
        )
    if len(payloads) != len(expected_points):
        problems.append(
            f"{len(payloads)} interactive payloads for {len(expected_points)} queries"
        )
    return problems


def _positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def cycle_runs(report: dict) -> List[Tuple[str, dict]]:
    """``(label, run)`` for every cycle-tier run of a pass."""
    runs = []
    for chip in report["chips"]:
        for mode in ("full", "live"):
            runs.append((f"{chip['design']} {'+'.join(chip['mix'])} {mode}", chip[mode]))
    for single in report["singles"]:
        runs.append((f"{single['benchmark']} alone on {single['core']}", single))
    return runs


def check_cycle(report: dict) -> List[str]:
    """Every thread retires its full budget; every IPC is finite and positive.

    A run that raised is a failure, counted by the caller, not a problem.
    """
    budget = report["budget"]
    problems = []
    for label, run in cycle_runs(report):
        if "error" in run:
            continue
        for index, (instructions, _cycles, ipc) in enumerate(run["threads"]):
            if instructions != budget:
                problems.append(
                    f"{label}: thread {index} retired {instructions} of {budget} instructions"
                )
            if not _positive(ipc):
                problems.append(f"{label}: thread {index} IPC {ipc!r}")
        for field in ("cycle_ipc", "interval_ipc"):
            if not _positive(run[field]):
                problems.append(f"{label}: {field} {run[field]!r}")
    return problems
