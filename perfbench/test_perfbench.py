"""Self-tests of the benchmark: determinism, metric lists, defect classes, tracing.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import run  # first: it puts src/ on the path and pins the BLAS threads
import tracing
import workloads

import kinkfactor
from kinkfactor import presets, verify

ROOT = Path(__file__).resolve().parent.parent


def _plan(workload, seed, passes=3):
    ops, rng = workloads.build_workload(workload, seed)
    order = [[op.key for op in workloads.pass_order(ops, rng)] for _ in range(passes)]
    counts = run.run_level(ops, [workloads.Outcome(op, 1.0, True, True) for op in ops])
    return order, counts


def test_same_seed_same_operations_and_counts():
    for workload in workloads.WORKLOADS:
        assert _plan(workload, 7) == _plan(workload, 7)


def test_seed_draws_presets_and_order():
    assert _plan("catalogue", 1)[0] != _plan("catalogue", 2)[0]
    first, second = _plan("fronts", 1)[0][0], _plan("fronts", 2)[0][0]
    assert sorted(first) == sorted(second) and first != second


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.LAYER_METRICS + run.RUN_LEVEL)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _known(workload):
    ops, _ = workloads.build_workload(workload, 0)
    return {op.key for op in ops if op.core and workloads.known_failure(op)}


def test_documented_seed_failures_on_the_standard_set():
    assert _known("catalogue") == set()
    assert _known("fronts") == {"front fisher(1) partner"}
    assert _known("oracles") == {
        "rk4_flow fisher(1) partner",
        "rk4_second_order fisher(1) partner",
        "rk4_flow fisher(2) partner",
        "rk4_flow mt6 partner",
        "rk4_flow dto(2/9,4) partner",
        "rk4_flow newell_whitehead partner",
    }


def test_tracer_patches_every_binding_and_restores_it():
    original = verify.residual_max
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verify.residual_max is not original
        assert presets.residual_max is verify.residual_max
        assert kinkfactor.residual_max is verify.residual_max
        presets.run_pipeline(presets.parse_preset("mt6"))
    finally:
        tracer.uninstall()
    assert verify.residual_max is original and presets.residual_max is original
    assert kinkfactor.residual_max is original
    scans = [s for s in tracer.spans if s["name"] == "verify.residual_scan"]
    assert [s["work"] for s in scans] == [2001, 2001]
    (pipeline,) = [s for s in tracer.spans if s["name"] == "presets.run_pipeline"]
    assert all(s["parent"] == pipeline["id"] for s in scans)
    assert tracer.stats["kinks.eval"].calls == 2 * 2001


def test_known_defects_are_split_off_the_timed_passes():
    for workload in workloads.WORKLOADS:
        ops, _ = workloads.build_workload(workload, 3)
        timed, known = workloads.split_known(ops)
        assert sorted(op.key for op in timed + known) == sorted(op.key for op in ops)
        assert not any(workloads.known_failure(op) for op in timed)
        assert all(workloads.known_failure(op) for op in known)
