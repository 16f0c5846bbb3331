"""The benchmark's workloads: set-up, the timed job, and the physics checks.

Every workload uses dt = 264/2048 fs on the periodic [-5, 5] grid at n = 4
qubits per mode. The physics inputs are fixed; the workload seed feeds only
the shot-sampling seeds (shots_scan and hadamard_series).
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vibroniq import circuits, resources, signals, soft
from vibroniq import model as vmodel

DT = 264.0 / 2048.0
GRID_N = 4
GRID_RANGE = (-5.0, 5.0)
REFERENCE = Path(__file__).with_name("reference_soft4d.json")

NORM_TOL = 1e-10
REFERENCE_TOL = 1e-9
FIDELITY_TOL = 1e-8
HADAMARD_TOL = 1e-8
SCAN_SEEDS = 10
VERIFY_ROWS = (("4D-linear", (2, 3, 4, 5)), ("24D-quadratic", (4, 5)))


@dataclass(frozen=True)
class Workload:
    """One benchmark input set; a step count of 0 leaves that engine idle."""

    name: str
    model: str
    split_order: str
    stride: int
    calibration: str  # the calibrate.py kernel that uses the machine as the job does
    soft_steps: int = 0
    soft_observers: tuple[str, ...] = ()
    circuit_steps: int = 0
    circuit_observers: tuple[str, ...] = ()
    readout_steps: int = 0
    shots: int = 1000
    signals: bool = False
    verify: bool = False
    reference: bool = False

    def time_grid(self, steps: int) -> vmodel.TimeGrid:
        return vmodel.TimeGrid(dt=DT, n_steps=steps, sample_stride=min(self.stride, steps))


# Each optimisation direction gets a workload where its mechanism does the
# work and one where it is bypassed (README.md has the full rationale).
WORKLOADS = {
    w.name: w
    for w in (
        # production soft run: soft.step dominates, circuits and kernels idle
        Workload(
            name="soft-4d",
            model="pyrazine-4d",
            split_order="potential-first",
            stride=16,
            calibration="fft",
            soft_steps=16,
            soft_observers=("autocorr", "population", "boundary"),
            signals=True,
            reference=True,
        ),
        # 17/18-qubit states: gate kernels dominate, soft does no timed work
        Workload(
            name="circuit-4d",
            model="pyrazine-4d",
            split_order="potential-first",
            stride=16,
            calibration="gates",
            circuit_steps=2,
            circuit_observers=("autocorr", "population"),
            readout_steps=2,
        ),
        # 9-qubit state: dispatch-bound gates, observers every step, no steps
        # to merge, and the kinetic-first split in both engines
        Workload(
            name="small-2mode",
            model="pyrazine-2mode",
            split_order="kinetic-first",
            stride=1,
            calibration="dispatch",
            soft_steps=32,
            soft_observers=("autocorr", "population", "boundary", "energy"),
            circuit_steps=32,
            circuit_observers=("autocorr", "population", "boundary"),
            readout_steps=32,
            verify=True,
        ),
    )
}


@dataclass
class Context:
    """What set-up built; the job reads it and never mutates it."""

    model: object
    grid: vmodel.GridSpec
    psi0: object
    plan: object = None
    step_circuit: object = None
    reference: dict | None = None
    soft_final: np.ndarray | None = field(default=None, repr=False)


def setup(w: Workload) -> Context:
    """Model, grid, initial state, propagator plan, step circuits, reference
    data, and one warm-up step of each engine the job runs."""
    model = vmodel.get_model(w.model)
    grid = vmodel.GridSpec(n=GRID_N, q_min=GRID_RANGE[0], q_max=GRID_RANGE[1],
                           convention="periodic")
    psi0 = vmodel.initial_state(model, grid)
    ctx = Context(model, grid, psi0)
    if w.soft_steps:
        ctx.plan = soft.PropagatorPlan(model, grid, DT, split_order=w.split_order)
        soft.step(ctx.plan, psi0)
    if w.circuit_steps or w.readout_steps:
        ctx.step_circuit = circuits.build_timestep(model, grid, DT, split_order=w.split_order)
        circuits.apply(ctx.step_circuit, circuits.wavepacket_to_state(psi0))
    if w.readout_steps:
        layout = circuits.QubitLayout(model.d, grid.n, ancilla=True)
        controlled = ctx.step_circuit.controlled(layout.ancilla_qubit)
        circuits.apply(controlled, circuits.wavepacket_to_state(psi0, n_extra=1))
    if w.reference:
        ctx.reference = json.loads(REFERENCE.read_text())
    return ctx


def prepare_checks(w: Workload, ctx: Context) -> None:
    """Untimed reference work the checks need beyond what the job produces:
    the soft engine's state after the circuit engine's steps, when the job
    itself does not run the soft engine over them."""
    if w.circuit_steps and w.soft_steps != w.circuit_steps:
        plan = soft.PropagatorPlan(ctx.model, ctx.grid, DT, split_order=w.split_order)
        out = soft.propagate(plan, ctx.psi0, w.time_grid(w.circuit_steps), observers=())
        ctx.soft_final = out["state"].amplitudes


def job(w: Workload, ctx: Context, seed: int) -> tuple[dict, dict]:
    """The timed job: returns (seconds per stage, outputs to check)."""
    clock = time.perf_counter
    t: dict[str, float] = {}
    out: dict = {}
    scan_seeds = range(SCAN_SEEDS * seed, SCAN_SEEDS * (seed + 1))
    start = clock()
    if w.soft_steps:
        t0 = clock()
        out["soft"] = soft.propagate(ctx.plan, ctx.psi0, w.time_grid(w.soft_steps),
                                     observers=w.soft_observers)
        t["soft"] = clock() - t0
    if w.signals:
        t0 = clock()
        acf = out["soft"]["autocorr"]
        out["spectrum"] = signals.spectrum(acf)
        out["scans"] = [signals.shots_scan(acf, method, seeds=scan_seeds)
                        for method in ("autocorr", "direct")]
        t["signals"] = clock() - t0
    if w.circuit_steps:
        t0 = clock()
        out["circuit"] = circuits.circuit_propagate(
            ctx.model, ctx.grid, w.time_grid(w.circuit_steps),
            split_order=w.split_order, observers=w.circuit_observers)
        t["circuit"] = clock() - t0
    if w.readout_steps:
        t0 = clock()
        out["readout"] = circuits.hadamard_series(
            ctx.model, ctx.grid, w.time_grid(w.readout_steps),
            split_order=w.split_order, shots=w.shots, seed=seed)
        t["readout"] = clock() - t0
    if w.verify:
        t0 = clock()
        out["verify"] = [resources.verify_against_builder(mc, n)
                         for mc, ns in VERIFY_ROWS for n in ns]
        t["verify"] = clock() - t0
    t["run"] = clock() - start
    return t, out


def _max_diff(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[0] > b.shape[0]:
        return math.inf
    return float(np.max(np.abs(a - b[: a.shape[0]])))


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a.ravel(), b.ravel())) ** 2)


def check(w: Workload, ctx: Context, out: dict) -> list[tuple[str, bool, float]]:
    """Physics checks of one job's outputs: (name, passed, measured value)."""
    res = []
    for engine in ("soft", "circuit"):
        if engine in out:
            drift = abs(out[engine]["state"].norm() - 1.0)
            res.append((f"{engine}.norm_drift", drift <= NORM_TOL, drift))
    if w.reference:
        ref = ctx.reference
        acf = out["soft"]["autocorr"].values
        pop = out["soft"]["population"]
        ref_acf = np.asarray(ref["autocorr_re"]) + 1j * np.asarray(ref["autocorr_im"])
        for name, got, want in (
            ("autocorr", acf, ref_acf),
            ("p_s1", pop.p_s1, ref["p_s1"]),
            ("p_s2", pop.p_s2, ref["p_s2"]),
        ):
            d = _max_diff(got, want)
            res.append((f"reference.{name}", d <= REFERENCE_TOL, d))
        if len(acf) == len(ref_acf):
            d = _max_diff(out["spectrum"].intensities, ref["spectrum"])
            res.append(("reference.spectrum", d <= REFERENCE_TOL, d))
    if "scans" in out:
        curves = np.concatenate([s["curves"].ravel() for s in out["scans"]])
        ok = bool(np.all(np.isfinite(curves)) and np.all((curves >= 0) & (curves <= 1)))
        res.append(("signals.tvd_in_range", ok, float(np.max(curves))))
    if "circuit" in out:
        circ = out["circuit"]["state"].amplitudes
        ref = out["soft"]["state"].amplitudes if ctx.soft_final is None else ctx.soft_final
        infid = 1.0 - _fidelity(ref, circ)
        res.append(("engines.infidelity", infid <= FIDELITY_TOL, infid))
    if "readout" in out:
        acf = out["circuit"]["autocorr"]
        _, ia, ib = np.intersect1d(out["readout"]["times"], acf.times, return_indices=True)
        d = _max_diff(out["readout"]["exact"][ia], acf.values[ib]) if len(ia) > 1 else math.inf
        res.append(("readout.exact_vs_autocorr", d <= HADAMARD_TOL, d))
        sampled = out["readout"]["sampled"]
        worst = float(max(np.max(np.abs(sampled.real)), np.max(np.abs(sampled.imag))))
        res.append(("readout.sampled_in_range", worst <= 1.0, worst))
    if "verify" in out:
        bad = sum(not row["agree"] for row in out["verify"])
        res.append(("resources.depth_rows_agree", bad == 0, float(bad)))
    return res


def block_ms(w: Workload, ctx: Context, repeats: int = 5) -> dict[str, float]:
    """circuits.apply on each block the public builders make, on the step's
    register (median of `repeats`); zeros when the circuit engine is idle."""
    names = [f"circuits.block_ms.{b}" for b in ("udiag_pair", "uc", "qft", "uk")]
    if ctx.step_circuit is None:
        return dict.fromkeys(names, 0.0)
    model, grid = ctx.model, ctx.grid
    layout = circuits.QubitLayout(model.d, grid.n)
    qft = circuits.Circuit(layout.total)
    for r in range(model.d):
        qft.append_circuit(circuits.build_qft(grid.n), qubit_map=layout.mode_qubits(r))
    blocks = (
        circuits.build_Udiag_pair(model, grid, DT),
        circuits.build_Uc(model, grid, DT),
        qft,
        circuits.build_UK(model, grid, DT),
    )
    state = circuits.wavepacket_to_state(ctx.psi0)
    out = {}
    for name, block in zip(names, blocks):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            circuits.apply(block, state)
            times.append(time.perf_counter() - t0)
        out[name] = 1e3 * float(np.median(times))
    return out
