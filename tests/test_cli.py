import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from vibroniq import circuits, kernels
from vibroniq.cli import main
from vibroniq.model import (
    HBAR_EV_FS,
    GridSpec,
    ModeParams,
    VibronicModel,
    ground_gaussian,
    pyrazine_2mode,
    serialize,
)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_zpe_scan_values(tmp_path):
    assert main(["zpe-scan", "--convention", "endpoint", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "zpe_scan.csv")
    assert header == ["scan", "n_points", "dq", "zpe_eV"]
    assert len(rows) == 9
    by_key = {(r[0], int(r[1])): float(r[3]) for r in rows}
    assert by_key[("fixed-range", 4)] == pytest.approx(0.6524371769, abs=1e-8)
    assert by_key[("fixed-range", 16)] == pytest.approx(0.2258500005, abs=1e-8)
    assert by_key[("fixed-resolution", 8)] == pytest.approx(0.2254839449, abs=1e-8)


def test_out_directory_is_created(tmp_path):
    out = tmp_path / "new" / "nested"
    assert main(["zpe-scan", "--out", str(out)]) == 0
    assert (out / "zpe_scan.csv").exists()


def test_zpe_scan_byte_identity(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    main(["zpe-scan", "--convention", "endpoint", "--out", str(a)])
    main(["zpe-scan", "--convention", "endpoint", "--out", str(b)])
    assert (a / "zpe_scan.csv").read_bytes() == (b / "zpe_scan.csv").read_bytes()


SMALL = ["--model", "pyrazine-2mode", "--n", "2", "--nt", "8",
         "--total-fs", "2.0", "--stride", "2"]


def test_propagate_outputs(tmp_path):
    assert main(["propagate", *SMALL, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "autocorr.csv")
    assert header == ["t_fs", "re_a", "im_a"]
    assert len(rows) == 5
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-12)

    header, rows = read_csv(tmp_path / "population.csv")
    assert header == ["t_fs", "p_s1", "p_s2"]
    for r in rows:
        assert float(r[1]) + float(r[2]) == pytest.approx(1.0, abs=1e-10)

    header, rows = read_csv(tmp_path / "boundary.csv")
    assert header == ["t_fs", "p_edge_nu6a", "p_edge_nu10a"]
    assert len(rows) == 5


def test_propagate_engines_agree(tmp_path):
    soft_dir = tmp_path / "soft"
    circ_dir = tmp_path / "circuit"
    soft_dir.mkdir()
    circ_dir.mkdir()
    main(["propagate", *SMALL, "--engine", "soft", "--out", str(soft_dir)])
    main(["propagate", *SMALL, "--engine", "circuit", "--out", str(circ_dir)])
    _, soft_rows = read_csv(soft_dir / "autocorr.csv")
    _, circ_rows = read_csv(circ_dir / "autocorr.csv")
    for rs, rc in zip(soft_rows, circ_rows):
        assert float(rs[1]) == pytest.approx(float(rc[1]), abs=1e-8)
        assert float(rs[2]) == pytest.approx(float(rc[2]), abs=1e-8)


def test_spectrum_output(tmp_path):
    args = ["spectrum", "--model", "pyrazine-2mode", "--n", "3", "--nt", "128",
            "--total-fs", "32.0", "--stride", "4", "--out", str(tmp_path)]
    assert main(args) == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["e_eV", "intensity"]
    intensities = np.array([float(r[1]) for r in rows])
    energies = np.array([float(r[0]) for r in rows])
    assert np.all(intensities >= 0)
    assert intensities.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(energies) > 0)
    assert energies[0] > 0


def test_spectrum_energy_axis_follows_model_hbar(tmp_path):
    doubled = dataclasses.replace(pyrazine_2mode(), hbar=2.0 * HBAR_EV_FS)
    path = tmp_path / "doubled_hbar.json"
    path.write_text(serialize(doubled))
    args = ["spectrum", "--n", "3", "--nt", "128", "--total-fs", "32.0", "--stride", "4"]
    energies = []
    for model, out in (("pyrazine-2mode", "a"), (str(path), "b")):
        assert main([*args, "--model", model, "--out", str(tmp_path / out)]) == 0
        _, rows = read_csv(tmp_path / out / "spectrum.csv")
        energies.append(np.array([float(r[0]) for r in rows]))
    assert np.allclose(energies[1], 2.0 * energies[0], rtol=1e-12, atol=0.0)


def test_shots_scan_output(tmp_path, capsys):
    args = ["shots-scan", "--model", "pyrazine-2mode", "--n", "3", "--nt", "64",
            "--total-fs", "16.0", "--stride", "4", "--mode", "direct",
            "--n-seeds", "2", "--out", str(tmp_path)]
    assert main(args) == 0
    header, rows = read_csv(tmp_path / "shots_scan.csv")
    assert header == ["method", "seed", "shots", "tvd"]
    assert len(rows) == 2 * 61
    assert {r[0] for r in rows} == {"direct"}
    assert {r[1] for r in rows} == {"0", "1"}
    out = capsys.readouterr().out
    assert out.count("median shots") == 4


def test_shots_scan_prints_a_budget_below_the_grid_as_a_bound(tmp_path, capsys):
    # so few samples give so few spectral bins that 1000 shots already meet 4% and 3%
    args = ["shots-scan", "--model", "pyrazine-2mode", "--n", "3", "--nt", "16",
            "--total-fs", "16.0", "--stride", "8", "--mode", "direct",
            "--n-seeds", "2", "--out", str(tmp_path)]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "threshold 4.00%: median shots ≤1000" in lines
    assert "threshold 3.00%: median shots ≤1000" in lines
    assert not any(line.endswith("median shots 1000") for line in lines)


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--n-seeds", "0"], ["--tau-fs", "0"],
                                   ["--tau-fs", "nan"]])
def test_shots_scan_rejects_bad_scan_inputs_before_the_engine_runs(flags, tmp_path, capsys,
                                                                     monkeypatch):
    def no_engine(*args, **kwargs):
        pytest.fail("the engine ran before the scan inputs were checked")

    monkeypatch.setattr("vibroniq.cli._run_engine", no_engine)
    assert main(["shots-scan", *flags, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "shots_scan.csv").exists()


# (command and flags, memory budget or None for the default, the start of the
# error line; one that ends in a newline is the whole line): each is refused
# before the engine runs and before the step's unitary is built, and all but
# the readout register's charge, which counts the built step's gates, before
# the step is built
REFUSALS = [
    (["spectrum", "--tau-fs", "nan"], None, "damping time must be positive, got nan\n"),
    (["spectrum", "--tau-fs", "0"], None, "damping time must be positive, got 0.0\n"),
    (["shots-scan", "--seed", "-1"], None, "seeds must be non-negative integers, got -1\n"),
    (["shots-scan", "--n-seeds", "0"], None, "need at least one seed\n"),
    (["shots-scan", "--tau-fs", "0"], None, "damping time must be positive, got 0.0\n"),
    (["shots-scan", "--tau-fs", "nan"], None, "damping time must be positive, got nan\n"),
    (["qpe-demo", "--seed", "-1"], None,
     "seed must be None, a non-negative integer or a Generator, got -1\n"),
    (["qpe-demo", "--shots", "-5"], None, "shots must be positive, got -5\n"),
    (["qpe-demo", "--m-bits", "40"], None, "40-bit phase estimation: its 2^40 - 1 controlled steps"),
    # a 7-qubit step: unitary_of's charge of it, 0.75 MiB, over half a MiB
    (["qpe-demo", "--n", "6", "--m-bits", "2"], 2**19, "a dense 7-qubit step and the eigendecomposition"),
]
STEP_BUILT = {"qpe-demo --m-bits 40"}


@pytest.mark.parametrize("flags, budget, message", REFUSALS, ids=[" ".join(f) for f, _, _ in REFUSALS])
def test_every_refusal_comes_before_any_work(flags, budget, message, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        pytest.fail("work started before the inputs were refused")

    names = ["vibroniq.cli._run_engine", "vibroniq.kernels.unitary_of",
             "vibroniq.circuits.unitary_of", "numpy.linalg.eig"]
    if " ".join(flags) not in STEP_BUILT:
        names.append("vibroniq.circuits.build_timestep")
    for name in names:
        monkeypatch.setattr(name, no_work)
    if budget is not None:
        monkeypatch.setattr("vibroniq.kernels.DEFAULT_MEMORY_BUDGET", budget)
    assert main([*flags, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not list(tmp_path.iterdir())


def test_resources_single_row(tmp_path):
    args = ["resources", "--model-class", "4d", "--n", "4", "--nt", "512",
            "--variant", "A", "--out", str(tmp_path)]
    assert main(args) == 0
    header, rows = read_csv(tmp_path / "resources.csv")
    assert header == ["model_class", "n", "n_t", "variant", "n_init", "per_step",
                      "n_evolution", "n_measure", "total", "qubits_state", "qubits_total"]
    assert len(rows) == 1
    row = rows[0]
    assert row[0] == "4D-linear"
    assert int(row[4]) == 29
    assert int(row[5]) == 90
    assert int(row[6]) == 45_990
    assert int(row[8]) == 46_021
    assert int(row[9]) == 17


def test_resources_table(tmp_path):
    assert main(["resources", "--table", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "resources.csv")
    assert len(rows) == 8
    totals = {(r[0], r[1], r[3]): int(r[8]) for r in rows}
    assert totals[("4D-linear", "5", "B")] == 132_088
    assert totals[("24D-quadratic", "4", "A")] == 1_276_022


def test_qpe_demo(tmp_path, capsys):
    assert main(["qpe-demo", "--shots", "512", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "qpe_demo.csv")
    assert header == ["bin", "e_eV", "probability"]
    assert len(rows) == 64
    probs = np.array([float(r[2]) for r in rows])
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    top = int(np.argmax(probs))
    assert probs[top] >= 4 / math.pi**2
    assert "top bin" in capsys.readouterr().out


@pytest.mark.parametrize("n", [3, 4])
def test_qpe_demo_reads_one_block_as_the_full_step(n, tmp_path):
    # the full-matrix path: eig of the whole two-surface step, the eigenvector
    # closest to the S2 ground packet
    model = VibronicModel(modes=(ModeParams("nu", 0.0936, "B1g"),), lam=0.0, delta=0.0)
    grid = GridSpec(n=n, q_min=-6.0, q_max=6.0)
    step = circuits.build_timestep(model, grid, 1.0)
    _, v = np.linalg.eig(kernels.unitary_of(step))
    target = np.zeros(2 * grid.size)
    target[grid.size:] = ground_gaussian(grid)
    best = v[:, int(np.argmax(np.abs(v.conj().T @ target)))]
    want = circuits.run_qpe(circuits.build_qpe(step, 6), best)["probs"]
    assert main(["qpe-demo", "--n", str(n), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "qpe_demo.csv")
    assert np.max(np.abs(np.array([float(r[2]) for r in rows]) - want)) < 1e-12


def test_qpe_demo_charges_before_the_build_what_unitary_of_then_charges(tmp_path, monkeypatch):
    events, inside = [], []
    charge, build, unitary_of = kernels.charge, circuits.build_timestep, kernels.unitary_of

    def spy_charge(nbytes, what):
        events.append(("unitary_of" if inside else "charge", nbytes))
        charge(nbytes, what)

    def spy_unitary_of(circuit):
        inside.append(circuit)
        try:
            return unitary_of(circuit)
        finally:
            inside.pop()

    monkeypatch.setattr(kernels, "charge", spy_charge)
    monkeypatch.setattr(kernels, "unitary_of", spy_unitary_of)
    monkeypatch.setattr(circuits, "build_timestep", lambda *a: events.append(("build",)) or build(*a))
    assert main(["qpe-demo", "--n", "4", "--out", str(tmp_path)]) == 0
    step = [nbytes for kind, *nbytes in events if kind == "unitary_of"]
    assert events[0][0] == "charge" and events[1] == ("build",)
    assert step == [[events[0][1]]]


def test_qpe_demo_refuses_a_step_that_couples_the_surfaces(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("vibroniq.kernels.unitary_of", lambda circ: np.ones((16, 16), dtype=complex))
    assert main(["qpe-demo", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: the single-mode step couples S1 and S2\n"
    assert not list(tmp_path.iterdir())


def test_verify_small(capsys):
    args = ["verify", "--n", "3", "--nt", "64", "--total-fs", "16.0", "--stride", "8"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "engine fidelity" in out
    assert "(2 modes, n=3)" in out
    assert "MISMATCH" not in out


def test_verify_takes_the_model(capsys):
    assert main(["verify", "--model", "pyrazine-4d", "--n", "2", "--nt", "8", "--stride", "8"]) == 0
    out = capsys.readouterr().out
    assert "(4 modes, n=2)" in out
    assert "MISMATCH" not in out


def test_unknown_model_is_a_clean_error(tmp_path, capsys):
    assert main(["propagate", "--model", "nope", "--out", str(tmp_path)]) == 1
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["propagate", "--engine", "soft"],
                                     ["propagate", "--engine", "circuit"], ["verify"]])
def test_a_grid_over_the_memory_budget_is_a_clean_error(command, tmp_path, capsys):
    args = [*command, "--model", "pyrazine-24d-placeholder", "--split-order", "kinetic-first",
            "--n", "2"]
    if command[0] == "propagate":
        args += ["--out", str(tmp_path)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: a 49-qubit statevector needs")


@pytest.mark.parametrize("command", ["propagate", "spectrum", "shots-scan", "verify", "qpe-demo"])
@pytest.mark.parametrize("nt", [0, -4])
def test_a_step_count_below_one_is_a_clean_error(command, nt, tmp_path, capsys):
    out = [] if command == "verify" else ["--out", str(tmp_path)]
    assert main([command, "--nt", str(nt), *out]) == 1
    assert capsys.readouterr().err == f"error: --nt must be at least 1, got {nt}\n"


@pytest.mark.parametrize("command, flag", [
    ("zpe-scan", ["--seed", "1"]), ("zpe-scan", ["--n", "3"]), ("zpe-scan", ["--nt", "8"]),
    ("zpe-scan", ["--total-fs", "2.0"]), ("zpe-scan", ["--stride", "2"]),
    ("zpe-scan", ["--split-order", "kinetic-first"]), ("propagate", ["--seed", "1"]),
    ("spectrum", ["--seed", "1"]), ("verify", ["--seed", "1"]), ("verify", ["--out", "x"]),
])
def test_a_flag_the_command_does_not_read_is_an_argparse_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_a_non_finite_total_time_is_a_clean_error(tmp_path, capsys):
    args = ["propagate", "--total-fs", "nan", "--nt", "4", "--n", "2", "--stride", "2"]
    assert main([*args, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: dt must be positive and finite, got nan\n"


@pytest.mark.parametrize("total_fs", ["-1", "nan"])
def test_qpe_demo_checks_dt(total_fs, tmp_path, capsys):
    assert main(["qpe-demo", "--total-fs", total_fs, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: dt must be positive and finite")
    assert not (tmp_path / "qpe_demo.csv").exists()


def test_qpe_demo_refuses_a_readout_register_over_budget(tmp_path, capsys):
    assert main(["qpe-demo", "--m-bits", "40", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: 40-bit phase estimation: its 2^40 - 1 controlled steps")
    assert not (tmp_path / "qpe_demo.csv").exists()


def test_a_nan_damping_time_is_a_clean_error(tmp_path, capsys):
    args = ["spectrum", "--model", "pyrazine-2mode", "--nt", "32", "--stride", "1", "--n", "2"]
    assert main([*args, "--tau-fs", "nan", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: damping time must be positive, got nan\n"
    assert not (tmp_path / "spectrum.csv").exists()


def test_a_model_file_with_zero_hbar_is_a_clean_error(tmp_path, capsys):
    data = json.loads(serialize(pyrazine_2mode()))
    data["hbar"] = 0
    path = tmp_path / "zero_hbar.json"
    path.write_text(json.dumps(data))
    args = ["propagate", "--model", str(path), "--nt", "4", "--n", "2", "--stride", "2"]
    assert main([*args, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: hbar must be positive and finite, got 0.0\n"


def test_a_model_file_with_a_non_numeric_frequency_is_a_clean_error(tmp_path, capsys):
    data = json.loads(serialize(pyrazine_2mode()))
    data["modes"][0]["omega"] = "fast"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["propagate", "--model", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: mode nu6a: omega must be a number, got 'fast'\n"


def test_negative_qpe_shots_are_a_clean_error(tmp_path, capsys):
    assert main(["qpe-demo", "--shots", "-5", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: shots must be positive, got -5\n"


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_a_bad_qpe_seed_is_a_clean_error_before_anything_is_built(seed, tmp_path, capsys,
                                                                  monkeypatch):
    def not_run(*args):
        pytest.fail("the step was built before the seed was checked")

    monkeypatch.setattr("vibroniq.circuits.build_timestep", not_run)
    assert main(["qpe-demo", "--seed", seed, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: seed must be None, a non-negative integer or a Generator, got {seed}\n"
    assert not (tmp_path / "qpe_demo.csv").exists()


def test_float_formatting_round_trips(tmp_path):
    main(["zpe-scan", "--out", str(tmp_path)])
    _, rows = read_csv(tmp_path / "zpe_scan.csv")
    # repr formatting: the parsed value reproduces the double exactly
    for r in rows:
        assert repr(float(r[3])) == r[3]
