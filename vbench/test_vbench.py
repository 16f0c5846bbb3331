"""Tests of the benchmark itself: python3 -m pytest -q vbench

Traced runs use shortened step counts; the exact counts do not depend on
how many steps are taken.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.bootstrap()
import tracing  # noqa: E402
import workloads  # noqa: E402
from vibroniq import soft  # noqa: E402

COUNTS = (
    "soft.fft_calls_per_step",
    "kernels.calls_per_step.matrix",
    "kernels.calls_per_step.phase",
    "kernels.calls_per_step.swap",
    "kernels.bytes_per_step_computed",
    "signals.sample_autocorr_calls",
)
SHORT = {
    "soft-4d": {"soft_steps": 16},
    "circuit-4d": {"circuit_steps": 2, "readout_steps": 2},
    "small-2mode": {"soft_steps": 8, "circuit_steps": 8, "readout_steps": 8},
}


def short(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **SHORT[name])


def traced_pass(w, seed):
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        ctx = workloads.setup(w)
        _, out = workloads.job(w, ctx, seed)
    workloads.prepare_checks(w, ctx)
    metrics = tracing.layer_metrics(tracer.spans)
    counts = {k: metrics[k] for k in COUNTS}
    if ctx.step_circuit is not None:
        counts["circuits.gates_per_step"] = ctx.step_circuit.gate_count()
        counts["circuits.depth"] = ctx.step_circuit.depth()
    return counts, workloads.check(w, ctx, out)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly_and_checks_pass(name):
    w = short(name)
    first, checks = traced_pass(w, seed=1)
    second, _ = traced_pass(w, seed=2)
    assert first == second
    assert checks and all(ok for _, ok, _ in checks), checks


def test_4d_step_counts():
    counts, _ = traced_pass(short("circuit-4d"), seed=1)
    assert counts["circuits.gates_per_step"] == 370
    assert counts["circuits.depth"] == 90
    assert (counts["kernels.calls_per_step.matrix"] + counts["kernels.calls_per_step.phase"]
            + counts["kernels.calls_per_step.swap"]) == 370


def test_patching_is_undone():
    originals = (soft.step, soft.PropagatorPlan.__post_init__, soft.np.fft.fftn)
    with tracing.patched(tracing.Tracer()):
        assert soft.step is not originals[0]
    assert (soft.step, soft.PropagatorPlan.__post_init__, soft.np.fft.fftn) == originals


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_sources(tmp_path):
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "vbench")
    proc = subprocess.run(
        [sys.executable, "vbench/run.py", "--workload", "soft-4d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_untraced_run_is_calibrated():
    res = run.run(short("small-2mode"), seed=1, seconds=0.5, trace=False)
    assert res["failed"] == 0
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in res["metrics"].values())
    assert all(p["calibration"] > 0 for p in res["passes"])
