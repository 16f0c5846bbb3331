"""Regenerate vbench/reference_soft4d.json, the stored soft-4d reference.

The soft-4d check compares each run's autocorrelation, populations and
spectrum with these values (tolerance 1e-9). Regenerate only when the
physics is meant to change, never to make a failing check pass:

    python3 vbench/make_reference.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "vbench"))

from vibroniq import signals, soft  # noqa: E402
from vibroniq.model import GridSpec, get_model, initial_state  # noqa: E402

import workloads  # noqa: E402
from run import source_provenance  # noqa: E402


def main() -> None:
    w = workloads.WORKLOADS["soft-4d"]
    model = get_model(w.model)
    grid = GridSpec(n=workloads.GRID_N, q_min=workloads.GRID_RANGE[0],
                    q_max=workloads.GRID_RANGE[1], convention="periodic")
    plan = soft.PropagatorPlan(model, grid, workloads.DT, split_order=w.split_order)
    tg = w.time_grid(w.soft_steps)
    out = soft.propagate(plan, initial_state(model, grid), tg, observers=w.soft_observers)
    acf = out["autocorr"]
    data = {
        "config": {"model": w.model, "split_order": w.split_order, "dt_fs": workloads.DT,
                   "n_steps": w.soft_steps, "stride": w.stride, "n": workloads.GRID_N,
                   "range": list(workloads.GRID_RANGE)},
        "source": source_provenance(),
        "times_fs": acf.times.tolist(),
        "autocorr_re": acf.values.real.tolist(),
        "autocorr_im": acf.values.imag.tolist(),
        "p_s1": out["population"].p_s1.tolist(),
        "p_s2": out["population"].p_s2.tolist(),
        "spectrum": signals.spectrum(acf).intensities.tolist(),
    }
    workloads.REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
