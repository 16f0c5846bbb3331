"""Batch front end: reproducible CSV-emitting experiment runner.

Every run is deterministic for a given (config, seed): floats are written
with repr so reruns are byte-identical. Plotting lives outside the core; a
separate script can read these CSVs.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import circuits, kernels, resources, signals, soft
from .model import (
    GridSpec,
    ModelError,
    TimeGrid,
    get_model,
    ground_gaussian,
    initial_state,
)

ZPE_FIXED_RANGE_COUNTS = (4, 8, 16, 32, 64)
ZPE_FIXED_RESOLUTION = ((8, 2.5), (16, 5.0), (32, 10.0), (64, 20.0))


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: str, header: list[str], rows) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _grid_from_args(args) -> GridSpec:
    lo, hi = args.range
    return GridSpec(n=args.n, q_min=lo, q_max=hi, convention=args.convention)


def _dt_from_args(args) -> float:
    if args.nt < 1:
        raise ModelError(f"--nt must be at least 1, got {args.nt}")
    return args.total_fs / args.nt


def cmd_zpe_scan(args) -> int:
    """Two convergence tables: point count at fixed range, and range at
    matched resolution. Columns: scan, n_points, dq, zpe_eV."""
    model = get_model(args.model)
    rows = []
    lo, hi = args.range
    for count in ZPE_FIXED_RANGE_COUNTS:
        n = int(np.log2(count))
        grid = GridSpec(n=n, q_min=lo, q_max=hi, convention=args.convention)
        rows.append(("fixed-range", count, grid.dq, soft.zpe(model, grid)))
    for count, half in ZPE_FIXED_RESOLUTION:
        n = int(np.log2(count))
        grid = GridSpec(n=n, q_min=-half, q_max=half, convention=args.convention)
        rows.append(("fixed-resolution", count, grid.dq, soft.zpe(model, grid)))
    path = os.path.join(args.out, "zpe_scan.csv")
    _write_csv(path, ["scan", "n_points", "dq", "zpe_eV"], rows)
    print(f"wrote {path}")
    return 0


def _run_engine(args, model, engine, observers=soft.DEFAULT_OBSERVERS) -> dict:
    """soft.propagate of the engine's plan; a run that observes only the
    autocorrelation reads it from soft.autocorrelation (half the steps for a
    potential-first split)."""
    grid = _grid_from_args(args)
    tg = TimeGrid(dt=_dt_from_args(args), n_steps=args.nt, sample_stride=args.stride)
    make = soft.PropagatorPlan if engine == "soft" else circuits.CircuitPlan
    plan = make(model, grid, tg.dt, args.split_order)
    if tuple(observers) == ("autocorr",):
        return {"autocorr": soft.autocorrelation(plan, initial_state(model, grid), tg)}
    return soft.propagate(plan, initial_state(model, grid), tg, observers=observers)


def cmd_propagate(args) -> int:
    """Autocorrelation, population, and boundary-probe series for one run."""
    model = get_model(args.model)
    result = _run_engine(args, model, args.engine)
    ac = result["autocorr"]
    _write_csv(
        os.path.join(args.out, "autocorr.csv"),
        ["t_fs", "re_a", "im_a"],
        zip(ac.times, ac.values.real, ac.values.imag),
    )
    pop = result["population"]
    _write_csv(
        os.path.join(args.out, "population.csv"),
        ["t_fs", "p_s1", "p_s2"],
        zip(pop.times, pop.p_s1, pop.p_s2),
    )
    bnd = result["boundary"]
    _write_csv(
        os.path.join(args.out, "boundary.csv"),
        ["t_fs"] + [f"p_edge_{m.label}" for m in model.modes],
        (tuple(row) for row in np.column_stack([bnd.times, bnd.per_mode])),
    )
    print(f"wrote autocorr.csv population.csv boundary.csv in {args.out}")
    return 0


def cmd_spectrum(args) -> int:
    """Damped energy-weighted spectrum of the engine's autocorrelation."""
    model = get_model(args.model)
    signals.check_damping(args.tau_fs)  # before the propagation
    result = _run_engine(args, model, args.engine, observers=("autocorr",))
    spec = signals.spectrum(result["autocorr"], tau_fs=args.tau_fs, damp_d=args.damp_d, hbar=model.hbar)
    path = os.path.join(args.out, "spectrum.csv")
    _write_csv(path, ["e_eV", "intensity"], zip(spec.energies, spec.intensities))
    print(f"wrote {path} ({len(spec.energies)} bins, spacing {spec.spacing:.6f} eV)")
    return 0


def cmd_shots_scan(args) -> int:
    """Shot-budget scan: TVD between sampled and exact spectra.

    Thresholds that are never sustained are reported as unmet, not fatal; a
    median on the grid's first point is printed as an upper bound ("≤1000").
    """
    seeds = range(args.seed, args.seed + args.n_seeds)
    signals.check_scan(args.mode, seeds, tau_fs=args.tau_fs)  # before the long propagation
    result = _run_engine(args, get_model(args.model), args.engine, observers=("autocorr",))
    scan = signals.shots_scan(
        result["autocorr"],
        method=args.mode,
        seeds=seeds,
        tau_fs=args.tau_fs,
        damp_d=args.damp_d,
    )
    rows = []
    for i, seed in enumerate(seeds):
        for j, shots in enumerate(scan["shot_grid"]):
            rows.append((args.mode, seed, int(shots), scan["curves"][i, j]))
    path = os.path.join(args.out, "shots_scan.csv")
    _write_csv(path, ["method", "seed", "shots", "tvd"], rows)
    first = int(scan["shot_grid"][0])
    for thr, med in scan["medians"].items():
        if np.isnan(med):
            tag = "unmet"
        elif med == first:
            tag = f"≤{first}"
        else:
            tag = f"{med:.0f}"
        print(f"threshold {thr:.2%}: median shots {tag}")
    print(f"wrote {path}")
    return 0


def cmd_resources(args) -> int:
    """Closed-form budget for one configuration (or the standard table)."""
    header = [
        "model_class", "n", "n_t", "variant", "n_init", "per_step",
        "n_evolution", "n_measure", "total", "qubits_state", "qubits_total",
    ]
    if args.table:
        reports = resources.standard_table()
    else:
        model_class = "24D-quadratic" if args.model_class == "24d" else "4D-linear"
        reports = [resources.assay(resources.AssayInput(model_class, args.n, args.nt, args.variant))]
    rows = [
        (
            r.inp.model_class, r.inp.n, r.inp.n_t, r.inp.variant, r.n_init,
            r.per_step, r.n_evolution, r.n_measure, r.total, r.qubits_state,
            r.qubits_total,
        )
        for r in reports
    ]
    path = os.path.join(args.out, "resources.csv")
    _write_csv(path, header, rows)
    for row in rows:
        print(" ".join(str(x) for x in row))
    return 0


def cmd_qpe_demo(args) -> int:
    """Single-mode uncoupled phase-estimation readout of the step energy."""
    from .model import ModeParams, VibronicModel

    signals.check_seed(args.seed)  # before the step is built and diagonalised
    signals.check_shots(args.shots)
    model = VibronicModel(modes=(ModeParams("nu", 0.0936, "B1g"),), lam=0.0, delta=0.0)
    grid = _grid_from_args(args)
    dt = TimeGrid(dt=_dt_from_args(args), n_steps=args.nt).dt
    # the peak is unitary_of's (2.0-2.1 step matrices by RSS, 9- to 10-qubit
    # steps), charged before the step is built as unitary_of charges it; the
    # S2 block's copy and eigendecomposition, about 5 block matrices, come
    # once the step is freed
    q, size = grid.n + 1, grid.size
    kernels.charge(kernels.apply_bytes(2 * q), f"a dense {q}-qubit step and the eigendecomposition of its S2 block")
    step_circ = circuits.build_timestep(model, grid, dt)
    qpe_circ = circuits.build_qpe(step_circ, args.m_bits)
    u = kernels.unitary_of(step_circ)
    # with lam = delta = 0 the step is two equal blocks, one per surface
    if np.any(u[:size, size:]) or np.any(u[size:, :size]):
        raise circuits.CircuitError("the single-mode step couples S1 and S2")
    block = u[size:, size:].copy()
    del u
    _, v = np.linalg.eig(block)
    # pick the S2 eigenstate closest to the grid ground state
    best = int(np.argmax(np.abs(v.conj().T @ ground_gaussian(grid))))
    eigenstate = np.zeros(1 << q, dtype=np.complex128)
    eigenstate[size:] = v[:, best]
    probs = circuits.run_qpe(qpe_circ, eigenstate, shots=args.shots, seed=args.seed)["probs"]
    rows = [(k, circuits.qpe_phase_to_energy(k / (1 << args.m_bits), dt, model.hbar), probs[k])
            for k in range(1 << args.m_bits)]
    top = int(np.argmax(probs))
    path = os.path.join(args.out, "qpe_demo.csv")
    _write_csv(path, ["bin", "e_eV", "probability"], rows)
    print(f"top bin {top}: p={probs[top]:.4f}, E={rows[top][1]:.6f} eV "
          f"(bin width {2*np.pi*model.hbar/dt/(1 << args.m_bits):.6f} eV)")
    print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    """Builder-vs-formula depths plus a circuit-vs-grid fidelity oracle."""
    failures = 0
    for model_class, ns in (("4D-linear", (2, 3, 4, 5)), ("24D-quadratic", (4, 5))):
        for n in ns:
            row = resources.verify_against_builder(model_class, n)
            status = "ok" if row["agree"] else "MISMATCH"
            if not row["agree"]:
                failures += 1
            print(f"{model_class} n={n}: {row['rows']} {status}")
    model = get_model(args.model)
    fs, fc = (_run_engine(args, model, engine, observers=())["state"].amplitudes.ravel()
              for engine in ("soft", "circuit"))
    fidelity = float(abs(np.vdot(fs, fc)) ** 2)
    print(f"engine fidelity over {args.nt} steps ({model.d} modes, n={args.n}): {fidelity!r}")
    if fidelity < 1.0 - 1e-8:
        failures += 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vibroniq", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, run=True, engine=True, out=True):
        p.add_argument("--model", default="pyrazine-4d", help="preset name or model JSON path")
        p.add_argument("--range", type=float, nargs=2, default=(-5.0, 5.0), metavar=("QMIN", "QMAX"))
        p.add_argument("--convention", choices=("periodic", "endpoint"), default="periodic")
        if run:
            p.add_argument("--n", type=int, default=4, help="qubits per mode register")
            p.add_argument("--nt", type=int, default=2048, help="number of time steps")
            p.add_argument("--total-fs", type=float, default=264.0, help="total propagation time")
            p.add_argument("--stride", type=int, default=16, help="sample stride in steps")
            p.add_argument("--split-order", choices=soft.SPLIT_ORDERS, default="potential-first")
        if engine:
            p.add_argument("--engine", choices=("soft", "circuit"), default="soft")
        if out:
            p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("zpe-scan", help="grid-convergence tables of the uncoupled ground energy")
    common(p, run=False, engine=False)
    p.set_defaults(func=cmd_zpe_scan)

    p = sub.add_parser("propagate", help="time series from either engine")
    common(p)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("spectrum", help="damped autocorrelation spectrum")
    common(p)
    p.add_argument("--tau-fs", type=float, default=30.0)
    p.add_argument("--damp-d", action="store_true", help="extra half-cosine window")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("shots-scan", help="shot budget vs spectrum accuracy")
    common(p)
    p.add_argument("--tau-fs", type=float, default=30.0)
    p.add_argument("--damp-d", action="store_true")
    p.add_argument("--mode", choices=("autocorr", "direct"), default="autocorr")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-seeds", type=int, default=10)
    p.set_defaults(func=cmd_shots_scan)

    p = sub.add_parser("resources", help="closed-form gate/qubit budgets")
    p.add_argument("--model-class", choices=("4d", "24d"), default="4d")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--nt", type=int, default=512)
    p.add_argument("--variant", choices=resources.VARIANTS, default="A")
    p.add_argument("--table", action="store_true", help="emit all standard configurations")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_resources)

    p = sub.add_parser("qpe-demo", help="phase estimation on a single-mode step")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--nt", type=int, default=1,
                   help="time steps in --total-fs (dt = total-fs / nt); each controlled application is one step")
    p.add_argument("--total-fs", type=float, default=1.0)
    p.add_argument("--range", type=float, nargs=2, default=(-6.0, 6.0), metavar=("QMIN", "QMAX"))
    p.add_argument("--convention", choices=("periodic", "endpoint"), default="periodic")
    p.add_argument("--m-bits", type=int, default=6)
    p.add_argument("--shots", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_qpe_demo)

    p = sub.add_parser("verify", help="builder-vs-formula and engine-vs-engine checks")
    common(p, engine=False, out=False)
    p.set_defaults(func=cmd_verify, model="pyrazine-2mode")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, circuits.CircuitError, signals.SignalError,
            resources.ResourceError, kernels.MemoryBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
