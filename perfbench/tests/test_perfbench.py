"""Self-test of the benchmark at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

It checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit on every workload, that each output check rejects a deliberately
perturbed result, and that two seeds pass every check.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import checks, inputs, run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Layers each workload must load (> 0) and bypass (== 0) in a traced run.
LOADED = {
    "grid-cold": ["engine.keys_s", "engine.dispatch_s", "engine.store_write_s",
                  "interval.solve_s", "engine.worker_busy_s"],
    "grid-warm": ["engine.keys_s", "engine.store_read_s", "engine.store_hits"],
    "serve-mixed": ["serve.prep_s", "engine.keys_s", "engine.dispatch_s",
                    "interactive_p50_ms"],
    "cycle-validate": ["sim.prepare_s", "sim.full_s", "sim.live_s", "sim.cycles",
                       "memory.dram_requests"],
}
BYPASSED = {
    "grid-cold": ["sim.full_s", "serve.prep_s"],
    "grid-warm": ["engine.store_write_s", "engine.dispatch_s", "interval.solve_s",
                  "engine.worker_busy_s"],
    "serve-mixed": ["sim.full_s"],
    "cycle-validate": ["engine.keys_s", "engine.store_read_s", "engine.dispatch_s",
                       "interval.solve_s", "serve.prep_s"],
}


def _bench(workload: str, seed: int, trace: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
             "--trace", str(trace)],
            size=inputs.TINY,
        )
    assert code == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["run_record"]


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


# Untraced runs use one seed and traced runs another, so every workload's
# checks pass on two seeds.
@pytest.mark.parametrize("trace,seed", [(0, 3), (1, 11)])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, seed):
    result, record = _bench(workload, seed, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _declared("per_layer" if trace else "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    assert record["seed"] == seed and record["python"] and record["numpy"]
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    for name in LOADED[workload]:
        assert values[name] > 0, name
    for name in BYPASSED[workload]:
        assert values[name] == 0, name
    assert values["unattributed_s"] >= 0


def _child(tmp_path, command, *extra):
    report = tmp_path / f"{command}.json"
    subprocess.run(
        [sys.executable, "-m", "perfbench.child", command, "--seed", "5",
         "--report", str(report), "--tiny", *extra],
        cwd=ROOT, check=True,
        env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}"},
    )
    return json.loads(report.read_text(encoding="utf-8"))


def test_grid_check_rejects_one_ulp(tmp_path):
    from repro.core.study import DesignSpaceStudy

    report = _child(tmp_path, "grid", "--store", str(tmp_path / "store"))
    oracle = checks.grid_oracle(5, inputs.TINY)
    assert checks.check_grid(report, oracle) == []

    results, _table = inputs.evaluate_grid(DesignSpaceStudy(seed=5), inputs.TINY)
    bumped = dict(report, results=list(report["results"]))
    victim = results[7]
    bumped["results"][7] = repr(
        dataclasses.replace(victim, stp=math.nextafter(victim.stp, math.inf))
    )
    assert checks.check_grid(bumped, oracle)

    table = json.loads(json.dumps(report["table"]))
    per_count = table["heterogeneous"]["4B"]
    per_count[1] = math.nextafter(per_count[1], -math.inf)
    assert checks.check_grid(dict(report, table=table), oracle)


def test_serve_check_rejects_a_swapped_payload():
    queries = [("4B", ("mcf", "gamess")), ("2B10s", ("lbm", "astar", "tonto"))]
    oracle = checks.serve_oracle(inputs.TINY, queries)
    bulk, payloads = json.loads(json.dumps(oracle))
    assert checks.check_serve(bulk, payloads, oracle) == []
    assert checks.check_serve(bulk, payloads[::-1], oracle)
    # A failed query is counted as a failure, not as a wrong answer.
    assert checks.check_serve(bulk, [payloads[0], None], oracle) == []

    stp = bulk["homogeneous"]["2B10s"]["2"]
    bulk["homogeneous"]["2B10s"]["2"] = math.nextafter(stp, math.inf)
    assert checks.check_serve(bulk, payloads, oracle)


def test_cycle_check_rejects_a_short_thread_and_a_bad_ipc(tmp_path):
    report = _child(tmp_path, "cycle")
    assert checks.check_cycle(report) == []

    short = json.loads(json.dumps(report))
    short["chips"][0]["live"]["threads"][0][0] -= 1
    assert checks.check_cycle(short)

    bad = json.loads(json.dumps(report))
    bad["singles"][0]["cycle_ipc"] = float("nan")
    assert checks.check_cycle(bad)
