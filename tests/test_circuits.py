import hashlib
import itertools
import math
import re
import time
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibroniq import circuits, kernels, soft
from vibroniq.circuits import (
    KINDS,
    Circuit,
    CircuitError,
    CircuitPlan,
    Gate,
    QubitLayout,
    apply,
    build_Udiag_pair,
    build_UK,
    build_Uc,
    build_hadamard_test,
    build_qft,
    build_qpe,
    build_state_prep,
    build_timestep,
    circuit_propagate,
    compile,
    decompose_ccrx,
    export_gates,
    hadamard_series,
    prep_angles,
    prepare_wavepacket,
    qpe_phase_to_energy,
    run_qpe,
    schedule_bilinear_diag,
    unitary_of,
    wavepacket_to_state,
)
from vibroniq.model import (
    BilinearDiag,
    BilinearOff,
    GridSpec,
    ModeParams,
    TimeGrid,
    VibronicModel,
    Wavepacket,
    get_model,
    grid_points,
    initial_state,
    momentum_points,
    pyrazine_2mode,
)
from vibroniq.resources import qft_depth
from vibroniq.signals import SignalError
from vibroniq.soft import (
    OBSERVERS,
    SPLIT_ORDERS,
    PropagatorPlan,
    boundary_maxima,
    energy,
    populations,
    propagate,
)


def two_mode_tiny():
    return VibronicModel(
        modes=(
            ModeParams("a", 0.0740, "Ag", kappa1=-0.0964, kappa2=0.1194),
            ModeParams("c", 0.0936, "B1g"),
        ),
        lam=0.1825,
        delta=0.4617,
    )


def bilinear_tiny(split_gamma=False):
    g2 = 0.009 if split_gamma else 0.006
    return VibronicModel(
        modes=(
            ModeParams("a", 0.0740, "Ag", kappa1=-0.0964, kappa2=0.1194),
            ModeParams("b", 0.1273, "Ag", kappa1=0.0470, kappa2=0.2012),
            ModeParams("c", 0.0936, "B1g"),
        ),
        lam=0.1825,
        delta=0.4617,
        bilinear_diag=(BilinearDiag(0, 1, 0.006, g2),),
        bilinear_off=(BilinearOff(1, 2, 0.004),),
    )


# ---------------------------------------------------------------------------
# Gate and Circuit mechanics
# ---------------------------------------------------------------------------


# one case per check in Gate.__new__: (Gate/add arguments, message)
CONSTRUCTION_ERRORS = [
    (("CZ", (0,)), "unknown gate kind 'CZ'"),
    (("SWAP", (0,)), "SWAP needs 2 distinct target(s), got (0,)"),
    (("H", (0, 1)), "H needs 1 distinct target(s), got (0, 1)"),
    (("SWAP", (1, 1)), "SWAP needs 2 distinct target(s), got (1, 1)"),
    (("U1", (0,)), "U1 needs a finite angle, got None"),
    (("RX", (0,), (), float("nan")), "RX needs a finite angle, got nan"),
    (("RY", (0,), (), float("inf")), "RY needs a finite angle, got inf"),
    (("H", (0,), (), 0.5), "H takes no angle"),
    (("H", (0,), ((0, 1),)), "controls ((0, 1),) must be distinct and disjoint from targets"),
    (("SWAP", (0, 2), ((1, 1), (2, 0))), "must be distinct and disjoint from targets"),
    (("H", (0,), ((1, 1), (1, 0))), "controls ((1, 1), (1, 0)) must be distinct"),
    (("H", (0,), ((1, 2),)), "control polarity must be 0 or 1, got 2"),
    (("X", (0,), ((1, 1), (2, -1))), "control polarity must be 0 or 1, got -1"),
    (("H", (0,), ((1.5, 1),)), "control qubits and polarities must be integers, got ((1.5, 1),)"),
    (("H", (0,), ((1, 1.0),)), "control qubits and polarities must be integers, got ((1, 1.0),)"),
    (("H", (0,), (1,)), "qubits must be integers and controls (qubit, polarity) pairs, got targets (0,)"),
    (("H", (0,), ((1, 1, 0),)), "controls (qubit, polarity) pairs, got targets (0,) and controls ((1, 1, 0),)"),
    (("H", (0,), ((1,),)), "controls (qubit, polarity) pairs, got targets (0,) and controls ((1,),)"),
]


def test_gate_validation():
    # the same check, message and exception through Gate and Circuit.add
    for args, message in CONSTRUCTION_ERRORS:
        with pytest.raises(CircuitError, match=re.escape(message)):
            Gate(*args)
        c = Circuit(4)
        with pytest.raises(CircuitError, match=re.escape(message)):
            c.add(*args)
        assert c.gates == []


# each was let through once and failed later with a bare TypeError: a float
# qubit in apply, a list of targets when a copy hashed it, a string angle in
# math.isfinite
@pytest.mark.parametrize("make, message", [
    (lambda: Circuit(2).add("H", (0.5,)), "got targets (0.5,) and controls ()"),
    (lambda: Gate("H", [0], [[1, 1]]), None),
    (lambda: Circuit(2).add("RX", (0,), theta="0.3"), "RX needs a finite angle, got '0.3'"),
], ids=["float-qubit", "list-qubits", "string-angle"])
def test_malformed_gates_are_caught_or_mended_at_construction(make, message):
    if message is not None:
        with pytest.raises(CircuitError, match=re.escape(message)):
            make()
        return
    src = Circuit(2)
    src.gates.append(make())
    assert type(src.gates[0].targets) is tuple and type(src.gates[0].controls[0]) is tuple
    dst = Circuit(2)
    dst.append_circuit(src, qubit_map=[1, 0])
    assert dst.gates == [Gate("H", (1,), ((0, 1),))]


@pytest.mark.parametrize("args, message", [
    (("H", (0,), (), None, 0.5), "layer must be a non-negative integer, got 0.5"),
    (("H", (0,), (), None, -1), "layer must be a non-negative integer, got -1"),
    (("H", (0,), (), None, "2"), "layer must be a non-negative integer, got '2'"),
    (("H", (0,), (), None, True), "layer must be a non-negative integer, got True"),
    (("U1", (0,), (), True), "U1 needs a finite angle, got True"),
    (("RX", (0,), (), np.False_), "RX needs a finite angle, got np.False_"),
    (("H", (5,), (), None, 7), "qubit 5 outside the 4-qubit circuit"),
    (("X", (0,), ((4, 1),)), "qubit 4 outside the 4-qubit circuit"),
], ids=["float-layer", "negative-layer", "string-layer", "bool-layer", "bool-angle", "numpy-bool-angle",
        "range-with-layer", "range-next-layer"])
def test_a_refused_gate_leaves_the_circuit_as_it_was(args, message):
    c = Circuit(4)
    c.add("X", (1,), layer=2)
    with pytest.raises(CircuitError, match=re.escape(message)):
        c.add(*args)
    assert c.gates == [Gate("X", (1,), (), None, 2)] and c._layer == 2
    assert c.add("H", (0,)).layer == 3
    if "outside" not in message:
        with pytest.raises(CircuitError, match=re.escape(message)):
            Gate(*args)


def test_make_and_replace_check_too():
    # the NamedTuple constructors a caller can reach go through the same checks
    base = Gate("X", (0,))
    for args, message in CONSTRUCTION_ERRORS:
        with pytest.raises(CircuitError, match=re.escape(message)):
            Gate._make(args)
        with pytest.raises(CircuitError, match=re.escape(message)):
            base._replace(**dict(zip(Gate._fields, args)))
    assert base._replace(layer=3) == Gate("X", (0,), layer=3)
    assert Gate._make(("RX", (1,), ((0, 0),), 0.5, 2)) == Gate("RX", (1,), ((0, 0),), 0.5, 2)


def test_add_stores_tuples():
    c = Circuit(3)
    g = c.add("X", [2], [[0, 1], (1, 0)])
    assert g == Gate("X", (2,), ((0, 1), (1, 0)), None, 0)
    assert type(g.targets) is tuple
    assert all(type(ctl) is tuple for ctl in g.controls)
    assert not hasattr(g, "__dict__")
    with pytest.raises(AttributeError):
        g.layer = 3


def test_append_circuit_checks_the_qubit_map():
    src = Circuit(2)
    src.add("H", (0,))
    src.add("X", (1,), ((0, 1),))
    # not one-to-one, out of range either way, too short, too long
    for qmap in ([2, 2], [0, 4], [-1, 0], [3], [2, 3, 0, 1]):
        dst = Circuit(4)
        with pytest.raises(CircuitError, match=re.escape("one-to-one into the 4-qubit circuit")):
            dst.append_circuit(src, qubit_map=qmap)
        assert dst.gates == []
    # without a map, the other circuit must fit
    with pytest.raises(CircuitError, match="qubit map"):
        Circuit(1).append_circuit(src)
    # a valid map moves every qubit and offsets every layer
    dst = Circuit(4)
    dst.add("H", (0,))
    dst.append_circuit(src, qubit_map=(3, 1))
    assert dst.gates[1:] == [Gate("H", (3,), (), None, 1), Gate("X", (1,), ((3, 1),), None, 2)]


def test_a_scaled_copy_checks_each_new_angle():
    src = Circuit(2)
    src.add("H", (0,))
    src.add("U1", (1,), ((0, 1),), 1e300)
    src.add("RX", (0,), (), -2.0)
    dst = Circuit(4)
    dst.add("X", (3,))
    # a scale that overflows an angle raises Gate's message for its kind and
    # appends nothing, whether the scale is one factor or one per gate
    for scale, message in ((1e10, "U1 needs a finite angle, got inf"),
                           (math.nan, "U1 needs a finite angle, got nan"),
                           ([1.0, 1.0, 1e308], "RX needs a finite angle, got -inf")):
        with pytest.raises(CircuitError, match=re.escape(message)):
            dst._extend(src, (2, 1), 1, scale)
        assert dst.gates == [Gate("X", (3,), (), None, 0)] and dst._layer == 0
    # a good scale multiplies every angle, once per gate with a list
    dst._extend(src, (2, 1), 1, [1.0, 0.5, 3.0])
    assert dst.gates[1:] == [Gate("H", (2,), (), None, 1), Gate("U1", (1,), ((2, 1),), 5e299, 2),
                             Gate("RX", (2,), (), -6.0, 3)]
    # through a builder: a finite prefactor whose network angle overflows
    # raises what adding the gate would
    model, grid = pyrazine_2mode(), GridSpec(4, -5.0, 5.0)
    base = 2.0 * math.pi / (grid.size * grid.dq)
    dt = 1e307 * model.hbar / (0.5 * min(mode.omega for mode in model.modes) * base * base)
    with pytest.raises(CircuitError, match=re.escape("U1 needs a finite angle, got -inf")):
        build_UK(model, grid, dt)


def test_circuit_layers_and_depth():
    c = Circuit(3)
    c.add("H", (0,))
    c.add("H", (1,), layer=0)
    c.add("X", (2,))
    assert c.depth() == 2
    assert c.gate_count() == 3
    assert [g.layer for g in c.gates] == [0, 0, 1]
    for targets, controls, bad in (((5,), (), 5), ((-1,), (), -1), ((0,), ((3, 1),), 3),
                                   ((0,), ((1, 1), (-2, 0)), -2)):
        with pytest.raises(CircuitError, match=re.escape(f"qubit {bad} outside the 3-qubit circuit")):
            c.add("H", targets, controls)
    assert c.gate_count() == 3
    for n_qubits in (0, 2.5, 2.0, True):
        with pytest.raises(CircuitError):
            Circuit(n_qubits)


def test_append_circuit_offsets_layers():
    a = Circuit(2)
    a.add("H", (0,))
    a.add("X", (1,))
    b = Circuit(2)
    b.add("H", (1,))
    a.append_circuit(b)
    assert a.depth() == 3
    assert a.gates[-1].layer == 2
    # remapping qubits
    big = Circuit(4)
    big.append_circuit(a, qubit_map=[2, 3])
    assert {q for g in big.gates for q in g.targets} == {2, 3}


def test_controlled_circuit():
    base = Circuit(1)
    base.add("RX", (0,), theta=0.7)
    ctl = base.controlled(1)
    u = unitary_of(ctl, 2)
    # the controlled version acts as the base circuit on the control-set
    # subspace and as the identity elsewhere
    direct = unitary_of(base, 1)
    expect = np.eye(4, dtype=complex)
    idx = [2, 3]  # indices with qubit 1 (the control) set
    expect[np.ix_(idx, idx)] = direct
    assert np.allclose(u, expect, atol=1e-12)

    with pytest.raises(CircuitError):
        base.controlled(0)
    with pytest.raises(CircuitError, match=re.escape("qubit -1 outside the 1-qubit circuit")):
        base.controlled(-1)
    # a control already used as a target or as a control
    two = Circuit(3)
    two.add("X", (0,), ((1, 1),))
    for q in (0, 1):
        with pytest.raises(CircuitError, match=f"control qubit {q} already used"):
            two.controlled(q)
    assert two.controlled(2).gates == [Gate("X", (0,), ((1, 1), (2, 1)), None, 0)]


def _qft_wall(model, grid, inverse=False):
    """build_qft on every mode register, as the step lays its walls."""
    layout = QubitLayout(model.d, grid.n)
    wall = Circuit(layout.total)
    circuits._copy_to_registers(wall, build_qft(grid.n, inverse), layout)
    return wall


def test_inverse_circuit(rng):
    # the inverse transform is built directly, not by reversing a circuit;
    # the register-parallel pair must undo itself on a random state
    model = pyrazine_2mode()
    grid = GridSpec(n=3, q_min=-5.0, q_max=5.0)
    fwd = _qft_wall(model, grid, inverse=False)
    inv = _qft_wall(model, grid, inverse=True)
    assert inv.depth() == fwd.depth() == qft_depth(grid.n)
    v = rng.normal(size=1 << fwd.n_qubits) + 1j * rng.normal(size=1 << fwd.n_qubits)
    s = apply(inv, apply(fwd, v.copy()))
    assert np.max(np.abs(s - v)) < 1e-12


def test_apply_rejects_bad_states():
    c = Circuit(2)
    c.add("H", (0,))
    with pytest.raises(CircuitError):
        apply(c, np.ones(3, dtype=np.complex128))
    with pytest.raises(CircuitError):
        apply(c, np.ones(2, dtype=np.complex128))


def test_program_rejects_the_states_apply_rejects():
    c = Circuit(3)
    c.add("H", (0,))
    c.add("X", (2,), ((0, 1),))
    program = compile(c, QubitLayout(1, 2))
    for state, message in (
        (np.ones(4, dtype=np.complex128), "state has 2 qubits, circuit needs 3"),
        (np.ones(1, dtype=np.complex128), "state has 0 qubits, circuit needs 3"),
        (np.ones(12, dtype=np.complex128), "state length 12 is not a power of two"),
        (np.ones(0, dtype=np.complex128), "state length 0 is not a power of two"),
        (np.ones((2, 8), dtype=np.complex128), "state length 16 is not a power of two"),
    ):
        for run in (lambda s: apply(c, s), program.run):
            with pytest.raises(CircuitError, match=re.escape(message)):
                run(state.copy())


def test_apply_controlled_circuit():
    c = Circuit(1)
    c.add("X", (0,))
    state = np.zeros(4, dtype=np.complex128)
    state[0b00] = 0.6
    state[0b10] = 0.8
    apply(c.controlled(1), state)
    # only the half with qubit 1 set was flipped
    assert state[0b00] == pytest.approx(0.6)
    assert state[0b11] == pytest.approx(0.8)
    assert state[0b10] == 0.0


def test_gate_matrices():
    cases = {
        "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
        "X": np.array([[0, 1], [1, 0]]),
        "S": np.array([[1, 0], [0, 1j]]),
    }
    for kind, mat in cases.items():
        c = Circuit(1)
        c.add(kind, (0,))
        assert np.allclose(unitary_of(c), mat, atol=1e-15)
    th = 0.83
    c = Circuit(1)
    c.add("RX", (0,), theta=th)
    rx = np.array(
        [[math.cos(th / 2), -1j * math.sin(th / 2)], [-1j * math.sin(th / 2), math.cos(th / 2)]]
    )
    assert np.allclose(unitary_of(c), rx, atol=1e-15)
    c = Circuit(1)
    c.add("U1", (0,), theta=th)
    assert np.allclose(unitary_of(c), np.diag([1, np.exp(1j * th)]), atol=1e-15)
    c = Circuit(2)
    c.add("SWAP", (0, 1))
    perm = np.zeros((4, 4))
    perm[[0, 1, 2, 3], [0, 2, 1, 3]] = 1
    assert np.allclose(unitary_of(c), perm, atol=1e-15)


def test_unitary_of_matches_column_by_column():
    rng = np.random.default_rng(7)
    c = Circuit(4)
    for _ in range(40):
        kind = str(rng.choice(["H", "X", "S", "RX", "RY", "U1", "SWAP"]))
        qubits = [int(q) for q in rng.permutation(4)]
        n_targets = 2 if kind == "SWAP" else 1
        n_controls = int(rng.integers(0, 4 - n_targets))
        targets = tuple(qubits[:n_targets])
        controls = tuple((q, int(rng.integers(0, 2))) for q in qubits[n_targets : n_targets + n_controls])
        theta = float(rng.uniform(-math.pi, math.pi)) if kind in ("RX", "RY", "U1") else None
        c.add(kind, targets, controls=controls, theta=theta)
    assert {p for g in c.gates for _, p in g.controls} == {0, 1}
    for n in (4, 5):
        dim = 1 << n
        expect = np.zeros((dim, dim), dtype=np.complex128)
        for col in range(dim):
            vec = np.zeros(dim, dtype=np.complex128)
            vec[col] = 1.0
            expect[:, col] = apply(c, vec)
        assert np.array_equal(unitary_of(c, None if n == 4 else n), expect)


def test_unitary_of_refuses_large_circuits():
    # the 15-qubit identity alone is 16 GiB: refused before any of it is allocated
    tracemalloc.start()
    try:
        with pytest.raises(kernels.MemoryBudgetError, match="a 30-qubit statevector and the gates run over it"):
            unitary_of(Circuit(15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _spy_charges(monkeypatch) -> list:
    """The bytes of every kernels.charge call from here on, in order."""
    charged, charge = [], kernels.charge

    def spy(nbytes, what):
        charged.append(nbytes)
        charge(nbytes, what)

    monkeypatch.setattr(kernels, "charge", spy)
    return charged


def _qpe_demo_step(n: int) -> Circuit:
    """The step qpe-demo diagonalises: one uncoupled mode on n qubits and the electronic qubit."""
    model = VibronicModel(modes=(ModeParams("nu", 0.0936, "B1g"),), lam=0.0, delta=0.0)
    return build_timestep(model, GridSpec(n=n, q_min=-6.0, q_max=6.0), 1.0)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_unitary_of_peaks_within_its_charge(n, monkeypatch):
    step = _qpe_demo_step(n)
    charged = _spy_charges(monkeypatch)
    tracemalloc.start()
    try:
        u = unitary_of(step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.shape == (2 << n, 2 << n) and len(charged) == 1
    assert peak <= charged[0], peak / u.nbytes
    # refused, with the budget one byte short, before the identity is allocated
    monkeypatch.setattr(kernels, "DEFAULT_MEMORY_BUDGET", charged[0] - 1)
    tracemalloc.start()
    try:
        with pytest.raises(kernels.MemoryBudgetError, match=f"a {2 * n + 2}-qubit statevector"):
            unitary_of(step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(u.nbytes, 2**20)


def test_run_qpe_peaks_within_its_charge(monkeypatch):
    qpe = build_qpe(_qpe_demo_step(3), 6)
    system = np.zeros(16, dtype=np.complex128)
    system[1] = 1.0
    run_qpe(qpe, system, shots=64, seed=3)  # first-call imports and caches are not the run's
    charged = _spy_charges(monkeypatch)
    tracemalloc.start()
    try:
        run_qpe(qpe, system, shots=64, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert charged == [16 * (kernels.APPLY_STATEVECTORS << 10) + kernels._APPLY_BYTES]
    assert peak <= charged[0], peak / (16 << 10)


def test_unitary_of_refuses_a_width_below_the_circuit():
    c = Circuit(3)
    c.add("X", (2,))
    with pytest.raises(CircuitError, match="3-qubit circuit has no 2-qubit unitary"):
        unitary_of(c, 2)
    # a wider unitary leaves the qubits above the circuit alone
    assert np.array_equal(unitary_of(c, 4), np.kron(np.eye(2), unitary_of(c)))


def test_qubit_layout():
    lay = QubitLayout(d=2, n=3, ancilla=True)
    assert lay.mode_qubits(0) == (0, 1, 2)
    assert lay.mode_qubits(1) == (3, 4, 5)
    assert lay.electronic == 6
    assert lay.ancilla_qubit == 7
    assert lay.total == 8
    assert QubitLayout(d=2, n=3).total == 7
    with pytest.raises(CircuitError):
        QubitLayout(d=2, n=3).ancilla_qubit


# ---------------------------------------------------------------------------
# QFT
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_qft_matrix(n):
    size = 1 << n
    f = np.exp(2j * np.pi * np.outer(np.arange(size), np.arange(size)) / size) / math.sqrt(size)
    u = unitary_of(build_qft(n))
    assert np.max(np.abs(u - f)) < 1e-12
    v = unitary_of(build_qft(n, inverse=True))
    assert np.max(np.abs(v - f.conj().T)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_qft_depth_formula(n):
    assert build_qft(n).depth() == qft_depth(n)
    assert build_qft(n, inverse=True).depth() == qft_depth(n)


# ---------------------------------------------------------------------------
# State preparation
# ---------------------------------------------------------------------------


def test_prep_angles_uniform():
    blocks = prep_angles(np.full(4, 0.5))
    assert blocks[0][0] == 1
    assert np.allclose(blocks[0][1], [math.pi / 2])
    assert blocks[1][0] == 0
    assert np.allclose(blocks[1][1], [math.pi / 2, 0.0])


def test_state_prep_validation():
    with pytest.raises(CircuitError):
        build_state_prep(2, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(CircuitError):
        build_state_prep(2, np.array([-0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(CircuitError):
        build_state_prep(2, np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(CircuitError, match="amplitudes must be finite"):
        build_state_prep(2, np.array([math.nan, 0.5, 0.5, 0.5]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_state_prep_depth(n):
    q = np.linspace(-2, 2, 1 << n)
    amps = np.exp(-(q**2) / 2)
    amps /= np.linalg.norm(amps)
    circ = build_state_prep(n, amps)
    assert circ.depth() == 2 ** (n + 1) - 3
    assert circ.gate_count() == 2 ** (n + 1) - 3


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_state_prep_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.0, 1.0, size=1 << n)
    # keep a few exact zeros in play to hit the degenerate-denominator path
    amps[rng.integers(0, 1 << n)] = 0.0
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        amps[0] = 1.0
        norm = 1.0
    amps = amps / norm
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    apply(build_state_prep(n, amps), state)
    assert np.max(np.abs(state - amps)) < 1e-10


def test_prepare_wavepacket_matches_initial_state():
    model = pyrazine_2mode()
    grid = GridSpec(n=3, q_min=-5.0, q_max=5.0)
    circ = prepare_wavepacket(model, grid)
    lay = QubitLayout(2, 3)
    assert circ.n_qubits == lay.total
    assert circ.depth() == 2**4 - 3
    state = np.zeros(1 << lay.total, dtype=np.complex128)
    state[0] = 1.0
    apply(circ, state)
    target = wavepacket_to_state(initial_state(model, grid))
    assert np.max(np.abs(state - target)) < 1e-10


# ---------------------------------------------------------------------------
# Wavepacket/state layout
# ---------------------------------------------------------------------------


def test_wavepacket_state_round_trip():
    model = pyrazine_2mode()
    grid = GridSpec(n=3, q_min=-5.0, q_max=5.0)
    psi = initial_state(model, grid)
    flat = wavepacket_to_state(psi)
    assert flat.shape == (1 << 7,)
    assert np.array_equal(QubitLayout(2, 3).position(flat).amplitudes, psi.amplitudes)
    # electronic qubit is the top bit: S2 occupies the upper half
    assert np.all(flat[: flat.size // 2] == 0.0)


@pytest.mark.parametrize("name, n", [("pyrazine-4d", 3), ("pyrazine-2mode", 5)])
@pytest.mark.parametrize("split", SPLIT_ORDERS)
def test_both_plans_share_one_flat_basis(name, n, split):
    model, grid = get_model(name), GridSpec(n=n, q_min=-5.0, q_max=5.0)
    shape = (2,) + (grid.size,) * model.d
    psi = Wavepacket(random_state(model.d * n + 1, seed=3).reshape(shape))
    soft_plan, circuit_plan = (make(model, grid, 0.13, split) for make in (PropagatorPlan, CircuitPlan))
    flat = soft_plan.layout.flat(psi)
    assert np.array_equal(circuit_plan.layout.flat(psi), flat)
    assert not np.shares_memory(flat, psi.amplitudes)
    back = circuit_plan.layout.position(flat)
    assert np.shares_memory(back.amplitudes, flat)
    assert np.array_equal(back.amplitudes, psi.amplitudes)
    padded = wavepacket_to_state(psi, n_extra=2)
    assert padded.size == 4 * flat.size
    assert np.array_equal(padded[: flat.size], flat) and not padded[flat.size :].any()


def test_wavepacket_state_index_order():
    # amplitude at (s, i_0, i_1) must land at index s*2^(2n) + i_1*2^n + i_0:
    # register 0 is the least significant block
    model = pyrazine_2mode()
    grid = GridSpec(n=2, q_min=-5.0, q_max=5.0)
    psi = initial_state(model, grid)
    psi.amplitudes[:] = 0.0
    psi.amplitudes[1, 3, 1] = 1.0
    flat = wavepacket_to_state(psi)
    assert flat[(1 << 4) + (1 << 2) + 3] == 1.0


# ---------------------------------------------------------------------------
# Phase blocks against the grid tables
# ---------------------------------------------------------------------------


def diag_of(circ):
    u = unitary_of(circ)
    off = u - np.diag(np.diag(u))
    assert np.max(np.abs(off)) < 1e-12
    return np.diag(u)


@pytest.mark.parametrize("branch", ["S1", "S2"])
def test_udiag_matches_potential_table(branch):
    model = two_mode_tiny()
    grid = GridSpec(n=2, q_min=-5.0, q_max=5.0)
    dt = 0.7
    plan = PropagatorPlan(model, grid, dt)
    pair = build_Udiag_pair(model, grid, dt)
    assert pair.depth() == grid.n**2 + 5
    # the electronic qubit is the top one: S1 is the lower half of the
    # diagonal, S2 the upper; vtab is in the flat order, indexed (s, i_1, i_0)
    # for the flat register index i_1*4 + i_0
    s = 0 if branch == "S1" else 1
    half = 1 << (model.d * grid.n)
    got = diag_of(pair)[s * half : (s + 1) * half]
    expected = np.exp(-1j * plan.vtab[s].reshape(-1) * dt / (2 * model.hbar))
    assert np.max(np.abs(got - expected)) < 1e-12


def test_uc_matches_coupling_rotation():
    model = two_mode_tiny()
    grid = GridSpec(n=2, q_min=-5.0, q_max=5.0)
    dt = 0.7
    circ = build_Uc(model, grid, dt)
    assert circ.depth() == grid.n
    u = unitary_of(circ)
    q = grid_points(grid)
    n_pts = grid.size
    size = 2 * n_pts * n_pts
    expected = np.zeros((size, size), dtype=complex)
    for i1 in range(n_pts):
        for i0 in range(n_pts):
            theta = model.lam * q[i1] * dt / (2 * model.hbar)
            idx0 = i1 * n_pts + i0
            idx1 = idx0 + n_pts * n_pts
            expected[idx0, idx0] = math.cos(theta)
            expected[idx1, idx1] = math.cos(theta)
            expected[idx0, idx1] = -1j * math.sin(theta)
            expected[idx1, idx0] = -1j * math.sin(theta)
    assert np.max(np.abs(u - expected)) < 1e-12


def test_uc_empty_without_coupling():
    model = VibronicModel(
        modes=(ModeParams("a", 0.1, "Ag", kappa1=0.0, kappa2=0.0),), lam=0.0, delta=0.1
    )
    grid = GridSpec(n=2, q_min=-5.0, q_max=5.0)
    assert build_Uc(model, grid, 0.5).gate_count() == 0


def test_uk_matches_kinetic_phases():
    model = two_mode_tiny()
    grid = GridSpec(n=2, q_min=-5.0, q_max=5.0)
    dt = 0.7
    circ = build_UK(model, grid, dt)
    assert circ.depth() == grid.n**2
    got = diag_of(circ)
    p = momentum_points(grid)
    n_pts = grid.size
    expected = np.empty(n_pts * n_pts, dtype=complex)
    for i1 in range(n_pts):
        for i0 in range(n_pts):
            kin = 0.5 * model.modes[0].omega * p[i0] ** 2 + 0.5 * model.modes[1].omega * p[i1] ** 2
            expected[i1 * n_pts + i0] = np.exp(-1j * kin * dt / model.hbar)
    assert np.max(np.abs(got - expected)) < 1e-12


# ---------------------------------------------------------------------------
# Bilinear blocks
# ---------------------------------------------------------------------------


def test_ccrx_decomposition_is_exact(rng):
    for _ in range(5):
        th = float(rng.normal())
        base = Circuit(3)
        gate = base.add("RX", (0,), controls=((1, 1), (2, 1)), theta=th)
        direct = unitary_of(base)
        expanded = Circuit(3)
        for g in decompose_ccrx(gate):
            expanded.add(g.kind, g.targets, g.controls, g.theta, layer=g.layer)
        assert expanded.gate_count() == 5
        assert np.max(np.abs(unitary_of(expanded) - direct)) < 1e-12


def test_ccrx_rejects_other_gates():
    base = Circuit(3)
    g = base.add("RX", (0,), controls=((1, 1),), theta=0.3)
    with pytest.raises(CircuitError):
        decompose_ccrx(g)


def test_bilinear_schedule_for_the_placeholder():
    model = get_model("pyrazine-24d-placeholder")
    groups = schedule_bilinear_diag(model)
    assert len(groups) == 6
    assert sorted(len(g) for g in groups) == sorted([8, 8, 8, 2, 2, 3])
    seen = [idx for group in groups for idx in group]
    assert sorted(seen) == list(range(len(model.bilinear_diag)))
    for group in groups:
        touched = set()
        for idx in group:
            pair = model.bilinear_diag[idx]
            assert pair.l not in touched and pair.m not in touched
            touched.update((pair.l, pair.m))


# ---------------------------------------------------------------------------
# Full step assembly
# ---------------------------------------------------------------------------


def test_timestep_unitary_matches_soft_step():
    # potential-first holds position; kinetic-first holds the transformed
    # basis, so its step is conjugated by the per-register QFT pair, which
    # the plan's step carries as its walls
    cases = [(two_mode_tiny(), GridSpec(n=2, q_min=-5.0, q_max=5.0), "potential-first")]
    for split_gamma in (False, True):
        cases.append((bilinear_tiny(split_gamma), GridSpec(n=2, q_min=-4.0, q_max=4.0), "kinetic-first"))
    dt = 0.5
    for model, grid, split in cases:
        u = unitary_of(build_timestep(model, grid, dt, split))
        if split == "kinetic-first":
            u = unitary_of(_qft_wall(model, grid, inverse=True)) @ u @ unitary_of(
                _qft_wall(model, grid, inverse=False))
        # run the split-operator plan's program and the circuit plan's
        # program, both over the one flat basis, on every basis vector
        plan = PropagatorPlan(model, grid, dt, split_order=split)
        circuit_plan = CircuitPlan(model, grid, dt, split)
        ref, emulated = (np.eye(u.shape[0], dtype=np.complex128) for _ in range(2))
        for col in range(u.shape[0]):
            ref[:, col] = plan.program.run(ref[:, col].copy())
            emulated[:, col] = circuit_plan.program.run(emulated[:, col].copy())
        assert np.max(np.abs(u - ref)) < 1e-12, (model.d, split)
        assert np.max(np.abs(unitary_of(circuit_plan.step) - ref)) < 1e-12, (model.d, split)
        assert np.max(np.abs(emulated - ref)) < 1e-12, (model.d, split)


def test_timestep_rejects_bilinear_potential_first():
    model = bilinear_tiny()
    grid = GridSpec(n=2, q_min=-4.0, q_max=4.0)
    with pytest.raises(CircuitError):
        build_timestep(model, grid, 0.5, split_order="potential-first")
    with pytest.raises(CircuitError):
        build_timestep(model, grid, 0.5, split_order="diagonal-first")


@pytest.mark.parametrize("split_gamma", [False, True])
def test_kinetic_first_step_matches_soft(split_gamma):
    model = bilinear_tiny(split_gamma)
    grid = GridSpec(n=2, q_min=-4.0, q_max=4.0)
    tg = TimeGrid(dt=0.4, n_steps=12, sample_stride=4)
    plan = PropagatorPlan(model, grid, tg.dt, split_order="kinetic-first")
    r_soft = propagate(plan, initial_state(model, grid), tg, observers=("autocorr",))
    r_circ = circuit_propagate(model, grid, tg, split_order="kinetic-first",
                               observers=("autocorr",))
    fs = r_soft["state"].amplitudes.ravel()
    fc = r_circ["state"].amplitudes.ravel()
    fidelity = abs(np.vdot(fs, fc)) ** 2
    assert fidelity > 1.0 - 1e-10
    assert np.max(np.abs(r_soft["autocorr"].values - r_circ["autocorr"].values)) < 1e-8


@pytest.mark.parametrize("split", SPLIT_ORDERS)
def test_both_engines_charge_a_run_more_than_one_statevector(split, monkeypatch):
    model = pyrazine_2mode()
    one = 16 << (model.d * BOX3.n + 1)
    # one statevector, with the gates run over it, fits
    monkeypatch.setattr(kernels, "DEFAULT_MEMORY_BUDGET", kernels.APPLY_STATEVECTORS * one + kernels._APPLY_BYTES)
    kernels.allocate_state(model.d * BOX3.n + 1)
    tg = TimeGrid(dt=0.13, n_steps=4, sample_stride=2)
    message = f"a 7-qubit statevector needs {one} bytes and a run holds"
    with pytest.raises(kernels.MemoryBudgetError, match=message):
        PropagatorPlan(model, BOX3, tg.dt, split)
    with pytest.raises(kernels.MemoryBudgetError, match=message):
        circuit_propagate(model, BOX3, tg, split)


def test_circuit_propagate_matches_soft_observers():
    cases = (
        (two_mode_tiny(), GridSpec(n=2, q_min=-5.0, q_max=5.0), "potential-first"),
        (pyrazine_2mode(), GridSpec(n=3, q_min=-5.0, q_max=5.0), "kinetic-first"),
        (pyrazine_2mode(), GridSpec(n=5, q_min=-5.0, q_max=5.0), "kinetic-first"),
    )
    tg = TimeGrid(dt=0.5, n_steps=16, sample_stride=4)
    for model, grid, split in cases:
        plan = PropagatorPlan(model, grid, tg.dt, split_order=split)
        r_soft = propagate(plan, initial_state(model, grid), tg, observers=OBSERVERS)
        r_circ = circuit_propagate(model, grid, tg, split_order=split, observers=OBSERVERS)
        assert set(r_circ) == set(r_soft) == set(OBSERVERS) | {"state"}
        assert np.max(np.abs(r_soft["autocorr"].values - r_circ["autocorr"].values)) < 1e-10
        assert np.max(np.abs(r_soft["population"].p_s2 - r_circ["population"].p_s2)) < 1e-10
        assert np.max(np.abs(r_soft["boundary"].per_mode - r_circ["boundary"].per_mode)) < 1e-10
        assert np.max(np.abs(r_soft["energy"].values - r_circ["energy"].values)) < 1e-10
    # with their default observers the two engines return the same keys
    r_soft = propagate(plan, initial_state(model, grid), tg)
    r_circ = circuit_propagate(model, grid, tg, split_order=split)
    assert set(r_circ) == set(r_soft)


# ---------------------------------------------------------------------------
# Compiled programs against gate-by-gate apply
# ---------------------------------------------------------------------------


def random_circuit(n_qubits, n_gates, seed):
    """Every gate kind, both control polarities, one gate wider than a fused
    run may grow, and a closing diagonal run."""
    rng = np.random.default_rng(seed)
    c = Circuit(n_qubits)
    for k in range(n_gates):
        kind = KINDS[k % len(KINDS)]
        qubits = [int(q) for q in rng.permutation(n_qubits)]
        n_targets = 2 if kind == "SWAP" else 1
        n_controls = int(rng.integers(0, 3))
        targets = tuple(qubits[:n_targets])
        controls = tuple((q, int(rng.integers(0, 2))) for q in qubits[n_targets : n_targets + n_controls])
        theta = float(rng.uniform(-math.pi, math.pi)) if kind in ("RX", "RY", "U1") else None
        c.add(kind, targets, controls=controls, theta=theta)
    c.add("RY", (0,), controls=tuple((q, q % 2) for q in range(1, 6)), theta=0.3)
    c.add("S", (0,))
    c.add("U1", (1,), controls=((2, 0),), theta=0.2)
    assert {p for g in c.gates for _, p in g.controls} == {0, 1}
    return c


def diagonal_heavy_circuit(n_qubits, n_gates, seed):
    """Mostly U1 and S gates with 0-2 controls of both polarities on any
    qubits, so their supports straddle registers, and some H, RX and SWAP."""
    rng = np.random.default_rng(seed)
    c = Circuit(n_qubits)
    for _ in range(n_gates):
        kind = "U1" if rng.random() < 0.6 else "S" if rng.random() < 0.6 else str(rng.choice(["H", "RX", "SWAP"]))
        qubits = [int(q) for q in rng.permutation(n_qubits)]
        n_targets = 2 if kind == "SWAP" else 1
        n_controls = int(rng.integers(0, 3))
        controls = tuple((q, int(rng.integers(0, 2))) for q in qubits[n_targets : n_targets + n_controls])
        theta = float(rng.uniform(-math.pi, math.pi)) if kind in ("U1", "RX") else None
        c.add(kind, tuple(qubits[:n_targets]), controls=controls, theta=theta)
    return c


def narrow_circuit():
    """Five qubits on the 3-qubit registers of QubitLayout(2, 3): register 0
    whole, then qubits 3 and 4 of register 1."""
    c = Circuit(5)
    c.add("H", (0,))
    c.add("RY", (1,), controls=((0, 1),), theta=0.3)
    c.add("U1", (2,), theta=0.2)
    c.add("RX", (4,), theta=0.5)
    c.add("SWAP", (3, 4))
    c.add("U1", (3,), controls=((4, 0),), theta=-0.7)
    return c


def gather_circuit():
    """Gates that each straddle the 2-qubit registers of QubitLayout(2, 2)
    and together fit on qubits 0, 2 and 4: one run of the greedy fuser."""
    c = Circuit(5)
    c.add("RY", (0,), controls=((2, 1),), theta=0.7)
    c.add("X", (4,), controls=((2, 0),))
    c.add("H", (2,), controls=((4, 1),))
    c.add("S", (4,), controls=((0, 0),))
    c.add("RX", (0,), controls=((4, 0),), theta=-1.1)
    return c


def _add_block_gates(c, theta):
    """Gates on register 1 (qubits 2 and 3) and the electronic qubit 4 of
    QubitLayout(2, 2), each touching qubit 4, so none joins a register run."""
    c.add("RY", (4,), controls=((2, 1),), theta=theta)
    c.add("RX", (3,), controls=((4, 0),), theta=-0.5 * theta)
    c.add("H", (2,), controls=((4, 1),))
    c.add("SWAP", (3, 4))


def fold_circuit(before=True, after=True):
    """A register run dense on both 2-qubit registers of QubitLayout(2, 2),
    bordered by block gates on register 1 and the electronic qubit on the
    sides asked for."""
    c = Circuit(5)
    if before:
        _add_block_gates(c, 0.7)
    c.add("H", (0,))
    c.add("RY", (1,), controls=((0, 1),), theta=0.4)
    c.add("RX", (2,), theta=-1.3)
    c.add("H", (3,), controls=((2, 0),))
    c.add("U1", (0,), theta=0.9)
    if after:
        _add_block_gates(c, -1.1)
    return c


def repeated_block_circuit():
    """One block on each 2-qubit register of QubitLayout(4, 2): H, a
    controlled U1, then H and an RX, then a U1. Registers 0-2 repeat it with
    their own U1 angles; register 3's differs from theirs only in the RX."""
    c = Circuit(9)
    for r in range(4):
        c.add("H", (2 * r,))
        c.add("U1", (2 * r + 1,), controls=((2 * r, 1),), theta=0.3 + 0.2 * r)
        c.add("H", (2 * r + 1,))
        c.add("RX", (2 * r,), theta=0.61 if r == 3 else 0.6)
        c.add("U1", (2 * r,), theta=-0.4 * r)
        c.add("S", (2 * r + 1,))
    return c


ONE_MODE = VibronicModel(modes=(ModeParams("c", 0.0936, "B1g"),), lam=0.1825, delta=0.4617)
BOX4 = GridSpec(n=4, q_min=-5.0, q_max=5.0, convention="periodic")
BOX3 = GridSpec(n=3, q_min=-4.0, q_max=4.0)


def plan_step(model, grid, dt, split="potential-first"):
    """The circuit a CircuitPlan compiles, and its qubit layout."""
    return CircuitPlan(model, grid, dt, split).step, QubitLayout(model.d, grid.n)


COMPILED_CASES = {
    "pyrazine-4d-potential-first": lambda: plan_step(get_model("pyrazine-4d"), BOX4, 0.13),
    "pyrazine-4d-kinetic-first": lambda: plan_step(get_model("pyrazine-4d"), BOX4, 0.13,
                                                   "kinetic-first"),
    "pyrazine-2mode-kinetic-first": lambda: plan_step(pyrazine_2mode(), BOX4, 0.13,
                                                      "kinetic-first"),
    "bilinear": lambda: plan_step(bilinear_tiny(False), BOX3, 0.4, "kinetic-first"),
    "bilinear-split": lambda: plan_step(bilinear_tiny(True), BOX3, 0.4, "kinetic-first"),
    # any circuit may be compiled on a layout its qubits fit
    "random": lambda: (random_circuit(7, 60, seed=11), QubitLayout(2, 3)),
    "diagonal-heavy": lambda: (diagonal_heavy_circuit(10, 60, seed=3), QubitLayout(3, 3)),
    "one-register": lambda: plan_step(ONE_MODE, BOX3, 0.4),
    "narrow": lambda: (narrow_circuit(), QubitLayout(2, 3)),
    "gather": lambda: (gather_circuit(), QubitLayout(2, 2)),
    "fold": lambda: (fold_circuit(), QubitLayout(2, 2)),
    "fold-one-side": lambda: (fold_circuit(after=False), QubitLayout(2, 2)),
    "repeated-blocks": lambda: (repeated_block_circuit(), QubitLayout(4, 2)),
}

# the operation kinds of the cases that pin one path each
COMPILED_KINDS = {
    # the potential runs fill the one block, ending at qubit 0; the register
    # run is turn_ops's plain register_op
    "one-register": ["right", "right", "right"],
    # only register 0 is whole: its run is one register's turn_ops, and the
    # gates on qubits 3 and 4 take the greedy fuser
    "narrow": ["right", "left"],
    # qubits 0, 2 and 4: three blocks
    "gather": ["gather"],
    # the block operations on both sides of the chain fold into its last turn
    "pyrazine-4d-potential-first": ["phase", "turn", "turn", "turn", "turn", "phase"],
    "fold": ["turn", "turn"],
    # a block operation on one side folds too, the identity on the other
    "fold-one-side": ["turn", "turn"],
    # every register holds a dense operation: one chain
    "repeated-blocks": ["turn"] * 4,
}


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("case", list(COMPILED_CASES))
def test_compiled_program_matches_apply(case):
    circ, layout = COMPILED_CASES[case]()
    text = export_gates(circ)
    program = compile(circ, layout)
    assert export_gates(circ) == text
    if case == "pyrazine-4d-potential-first":
        assert (circ.gate_count(), circ.depth(), len(program.ops)) == (370, 90, 6)
    if case == "random":
        # gates straddling registers take the greedy fuser, which alone
        # gathers blocks; every way of applying an operation is used
        assert {how for _, how, _ in program.ops} == {"phase", "left", "right", "gather", "turn"}
    if case in COMPILED_KINDS:
        assert [how for _, how, _ in program.ops] == COMPILED_KINDS[case]
    if case == "gather":
        assert program.ops[0][0] == [-1, 2, 2, 2, 2, 2]
    if case.startswith("fold"):  # the chain's last turn is 2 dim wide where it folds
        assert [len(m) for _, how, m in program.ops if how == "turn"] == [4, 8]
    # one qubit more than the circuit, as in the Hadamard test
    n_state = circ.n_qubits + (1 if case in ("random", "gather") else 0)
    plain = random_state(n_state, seed=5)
    fused = plain.copy()
    for _ in range(8):
        apply(circ, plain)
        assert program.run(fused) is fused
        assert np.max(np.abs(fused - plain)) < 1e-12


@st.composite
def compiled_cases(draw):
    """A layout (d 1-3, n 1-4, at most 12 qubits); a circuit on all of its
    qubits or on its lowest few, of seeded gates of every kind, U1 and S
    about half of them, with 0-2 controls of either polarity; and a random
    state on 0 or 1 qubits more than the circuit."""
    d = draw(st.integers(1, 3))
    layout = QubitLayout(d, draw(st.integers(1, min(4, 11 // d))))
    width = draw(st.one_of(st.just(layout.total), st.integers(1, layout.total)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["U1", "S"] * 2 + [k for k in KINDS if width > 1 or k != "SWAP"]
    circ = Circuit(width)
    for _ in range(draw(st.integers(1, 24))):
        kind = str(rng.choice(kinds))
        n_targets = 2 if kind == "SWAP" else 1
        qubits = [int(q) for q in rng.permutation(width)[:n_targets + rng.integers(0, 3)]]
        controls = [(q, int(rng.integers(0, 2))) for q in qubits[n_targets:]]
        theta = float(rng.uniform(-7.0, 7.0)) if kind in ("U1", "RX", "RY") else None
        circ.add(kind, qubits[:n_targets], controls, theta)
    return circ, layout, random_state(width + draw(st.integers(0, 1)), int(rng.integers(2**32)))


@settings(max_examples=100, deadline=None)
@given(compiled_cases())
def test_compile_matches_apply_on_any_circuit(case):
    circ, layout, state = case
    assert np.max(np.abs(compile(circ, layout).run(state.copy()) - apply(circ, state))) < 1e-12


@st.composite
def mirrored_runs(draw):
    """A layout (d 1-3, n 1-3); the specs of 1-12 seeded gates of the
    symmetric kinds (every kind but RY), each on at most n + 1 qubits, one of
    them the electronic qubit, so that all of them form one potential run;
    an RY on the electronic qubit and where it goes in the run; and a random
    state."""
    d = draw(st.integers(1, 3))
    layout = QubitLayout(d, draw(st.integers(1, 3)))
    elec = layout.electronic
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs = []
    for _ in range(draw(st.integers(1, 12))):
        kind = str(rng.choice(["U1", "S", "H", "X", "RX", "SWAP"]))
        n_targets = 2 if kind == "SWAP" else 1
        width = int(rng.integers(n_targets, min(n_targets + 2, layout.n + 1) + 1))
        qubits = [int(q) for q in rng.permutation([elec, *rng.permutation(elec)[:width - 1]])]
        controls = tuple((q, int(rng.integers(0, 2))) for q in qubits[n_targets:])
        theta = float(rng.uniform(-7.0, 7.0)) if kind in ("U1", "RX") else None
        specs.append((kind, tuple(qubits[:n_targets]), controls, theta))
    ry = ("RY", (elec,), (), float(rng.uniform(-7.0, 7.0)))
    at = int(rng.integers(0, len(specs) + 1))
    return layout, specs, (at, ry), random_state(layout.total, int(rng.integers(2**32)))


def _mirrored_circuit(layout, specs) -> Circuit:
    """The run of `specs`, a register run (H on qubit 0) and the run mirrored."""
    head, circ = Circuit(layout.total), Circuit(layout.total)
    for spec in specs:
        head.add(*spec)
    circ.append_circuit(head)
    circ.add("H", (0,))
    circ.append_circuit(head.mirrored())
    return circ


@settings(max_examples=100, deadline=None)
@given(mirrored_runs())
def test_a_mirrored_potential_run_is_lowered_from_the_first(case):
    layout, specs, (at, ry), state = case
    circ = _mirrored_circuit(layout, specs)
    with unittest.mock.patch.object(kernels, "_fuse_greedy", wraps=kernels._fuse_greedy) as greedy:
        ops = compile(circ, layout).ops
    # the run is fused once, the mirror its operations reversed and transposed
    assert greedy.call_count == 1
    k = len(ops) // 2
    for (shape, how, m), (t_shape, t_how, t) in zip(ops[:k], reversed(ops[k + 1:]), strict=True):
        assert (t_shape, t_how) == (shape, how)
        if how == "phase":
            assert t is m
        elif how == "gather":
            assert np.array_equal(t[0], m[0].T) and t[1] == m[1]
        else:
            assert np.array_equal(t, m.T)
    got = kernels.Program(layout.total, ops).run(state.copy())
    assert np.max(np.abs(got - apply(circ, state.copy()))) < 1e-12
    # an RY is no symmetric gate: a run holding one takes no mirror
    circ = _mirrored_circuit(layout, [*specs[:at], ry, *specs[at:]])
    with unittest.mock.patch.object(kernels, "_fuse_greedy", wraps=kernels._fuse_greedy) as greedy:
        program = compile(circ, layout)
    assert greedy.call_count == 2
    assert np.max(np.abs(program.run(state.copy()) - apply(circ, state.copy()))) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_a_mirrored_register_run_is_lowered_on_its_own(d, monkeypatch):
    # a QFT wall and its mirror: the transpose of the wall, but a turn chain
    # run backwards is no chain, so the mirror is fused again, not reversed
    layout = QubitLayout(d, 2)
    wall = Circuit(layout.total)
    circuits._copy_to_registers(wall, build_qft(layout.n), layout)
    circ = Circuit(layout.total)
    circ.append_circuit(wall)
    circ.add("RX", (layout.electronic,), theta=0.7)
    circ.append_circuit(wall.mirrored())
    fused, real = [], kernels._fuse
    monkeypatch.setattr(kernels, "_fuse", lambda runs: fused.append(runs) or real(runs))
    ops = compile(circ, layout).ops
    assert [how for _, how, _ in ops] == ["turn"] * d + ["left"] + ["turn"] * d
    assert len(fused) == 3
    state = random_state(layout.total, seed=5)
    assert np.max(np.abs(kernels.Program(layout.total, ops).run(state.copy()) - apply(circ, state))) < 1e-12


@pytest.mark.parametrize("name", ["pyrazine-4d", "pyrazine-2mode"])
def test_a_potential_first_plan_shares_one_phase_table(name):
    plan = CircuitPlan(get_model(name), BOX4, 0.13)
    ops = plan.program.ops
    assert ops[0][1] == ops[-1][1] == "phase" and ops[0][2] is ops[-1][2]
    state = random_state(plan.step.n_qubits, seed=7)
    assert np.max(np.abs(plan.program.run(state.copy()) - apply(plan.step, state.copy()))) < 1e-12


def test_compile_holds_no_second_full_state_temporary():
    # the step's one merged phase table takes 2 MiB, the tail sharing the
    # head's; a merge that holds a second full-state temporary, or a tail
    # lowered on its own, peaks a table higher
    circ, layout = COMPILED_CASES["pyrazine-4d-potential-first"]()
    tracemalloc.start()
    try:
        compile(circ, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (16 << circ.n_qubits) + (1 << 19)


def test_diagonal_heavy_case_takes_every_path_of_the_fuser(monkeypatch):
    fused, stretches = [], []
    fuse, merge = kernels._fuse, kernels.merge_phases

    def spy_fuse(runs):
        fused.extend(gates for _, gates in runs)
        return fuse(runs)

    def spy_merge(parts, n_qubits):
        for diagonal, stretch in itertools.groupby(parts, lambda part: part[1]):
            stretch = [set(support) for support, _, _ in stretch]
            if diagonal and len(stretch) > 1:
                stretches.append(stretch)
        return merge(parts, n_qubits)

    monkeypatch.setattr(kernels, "_fuse", spy_fuse)
    monkeypatch.setattr(kernels, "merge_phases", spy_merge)
    circ, layout = COMPILED_CASES["diagonal-heavy"]()
    compile(circ, layout)
    diagonal = [[g.kind in ("U1", "S") for g in gates] for gates in fused]
    assert sum(all(d) for d in diagonal) >= 10
    assert sum(any(d) and not all(d) for d in diagonal) >= 3
    # a long stretch of phases on supports that straddle the 3-qubit registers
    longest = max(stretches, key=len)
    assert len(longest) >= 10
    assert sum(len({q // 3 for q in support}) > 1 for support in longest) >= 8


def _spy_apply(monkeypatch) -> list:
    """The sizes of the states kernels.apply runs over, as it is called."""
    sizes, real = [], kernels.apply
    monkeypatch.setattr(kernels, "apply", lambda circ, state: sizes.append(state.size) or real(circ, state))
    return sizes


def test_runs_of_one_shape_are_fused_once_over_a_stack(monkeypatch):
    sizes = _spy_apply(monkeypatch)
    circ, layout = COMPILED_CASES["repeated-blocks"]()
    compile(circ, layout)
    # registers 0-2 share a shape: their two non-diagonal stretches run once
    # each over a stack of 4 two-qubit identities (16 amplitudes each); the
    # RX angle gives register 3 a shape of its own, fused on one identity
    assert sorted(sizes) == [16, 16, 64, 64]


# kernels.apply calls per compile of the preset steps at n = 4: one per
# non-diagonal stretch of each shape of run, not one per register copy; the
# two walled K/2 runs of a kinetic-first step are one shape, lowered once,
# and a potential-first tail, the head mirrored, is lowered from the head
PRESET_APPLY_CALLS = [("pyrazine-4d", "potential-first", 11), ("pyrazine-4d", "kinetic-first", 11),
                      ("pyrazine-2mode", "kinetic-first", 11), ("pyrazine-2mode", "potential-first", 11)]


@pytest.mark.parametrize("name, split, calls", PRESET_APPLY_CALLS)
def test_compile_runs_each_repeated_block_once(name, split, calls, monkeypatch):
    circ, layout = plan_step(get_model(name), BOX4, 0.13, split)
    sizes = _spy_apply(monkeypatch)
    compile(circ, layout)
    assert len(sizes) == calls


@pytest.mark.parametrize("name", ["pyrazine-4d", "pyrazine-2mode"])
def test_a_kinetic_first_compile_lowers_its_two_k_half_runs_once(name, monkeypatch):
    circ, layout = plan_step(get_model(name), BOX4, 0.13, "kinetic-first")
    calls, real = [], kernels._fuse
    monkeypatch.setattr(kernels, "_fuse", lambda runs: calls.append(runs) or real(runs))
    ops = compile(circ, layout).ops
    d, dim = layout.d, 2 << layout.n
    # the second walled K/2 run reads as the first: one _fuse of the
    # registers, and both chains hold its turns, the same arrays but the
    # last, which fold widens in the head and folds C into in the tail
    registers = [layout.mode_qubits(r) for r in range(d)]
    assert sum([tuple(support) for support, _ in runs] == registers for runs in calls) == 1
    assert [how for _, how, _ in ops] == ["turn"] * d + ["phase"] + ["turn"] * d
    head, tail = ops[:d], ops[d + 1:]
    for (_, _, h), (_, _, t) in zip(head[:-1], tail[:-1], strict=True):
        assert h is t
    wide = head[-1][2]
    assert wide.shape == tail[-1][2].shape == (dim, dim)
    assert np.array_equal(wide[:dim // 2, :dim // 2], wide[dim // 2:, dim // 2:])
    assert not wide[:dim // 2, dim // 2:].any() and not wide[dim // 2:, :dim // 2].any()


# every preset width and split, and a bilinear step (kinetic-first only)
STACK_PLANS = [(name, n, split) for name in ("pyrazine-4d", "pyrazine-2mode") for n in (3, 4, 5)
               for split in ("potential-first", "kinetic-first")] + [("bilinear", 3, "kinetic-first")]


@pytest.mark.parametrize("name, n, split", STACK_PLANS)
def test_compile_stacks_fit_the_run_charge(name, n, split, monkeypatch):
    # run_bytes charges RUN_OPERATORS (d + 1) dense operators on n + 1
    # qubits, half of them for compile's working copies: the largest stack
    # of identities compile runs gates over must fit that half
    model = bilinear_tiny(True) if name == "bilinear" else get_model(name)
    sizes = _spy_apply(monkeypatch)
    CircuitPlan(model, GridSpec(n=n, q_min=-5.0, q_max=5.0), 0.13, split)
    assert max(sizes) <= kernels.RUN_OPERATORS // 2 * (model.d + 1) << 2 * (n + 1)


def _box(n):
    return GridSpec(n=n, q_min=-5.0, q_max=5.0)


def _soft_program(model, n, split):
    return PropagatorPlan(get_model(model), _box(n), 0.13, split).program


def _circuit_program(model, n, split):
    return CircuitPlan(get_model(model), _box(n), 0.13, split).program


# the kinds are the same at every register width n
ENGINE_PROGRAMS = {
    # mode k's kinetic matrix acts on register k, as in the circuit: the d
    # matrices are one turn_ops chain, register 0 first; potential-first, the
    # coupling on the last register folds into the chain's last turn, between
    # two full-state phase tables; kinetic-first, the phase table lies between
    # two chains, the coupling rotation on the last register's block folded
    # into the tail chain and the head chain widened with the identity
    "soft-4d-potential-first": (lambda n: _soft_program("pyrazine-4d", n, "potential-first"),
                                ["phase", "turn", "turn", "turn", "turn", "phase"]),
    "soft-4d-kinetic-first": (lambda n: _soft_program("pyrazine-4d", n, "kinetic-first"),
                              ["turn", "turn", "turn", "turn", "phase", "turn", "turn", "turn", "turn"]),
    "soft-2mode-potential-first": (lambda n: _soft_program("pyrazine-2mode", n, "potential-first"),
                                   ["phase", "turn", "turn", "phase"]),
    "soft-2mode-kinetic-first": (lambda n: _soft_program("pyrazine-2mode", n, "kinetic-first"),
                                 ["turn", "turn", "phase", "turn", "turn"]),
    # potential run: merged phases, then Uc fused with the last register's
    # quadratic network, which folds into the register run's chain
    "circuit-4d-potential-first": (lambda n: _circuit_program("pyrazine-4d", n, "potential-first"),
                                   ["phase", "turn", "turn", "turn", "turn", "phase"]),
    # each QFT wall joins the register run next to it
    "circuit-4d-kinetic-first": (lambda n: _circuit_program("pyrazine-4d", n, "kinetic-first"),
                                 ["turn", "turn", "turn", "turn", "phase", "turn", "turn", "turn", "turn"]),
    "circuit-2mode-potential-first": (lambda n: _circuit_program("pyrazine-2mode", n, "potential-first"),
                                      ["phase", "turn", "turn", "phase"]),
    "circuit-2mode-kinetic-first": (lambda n: _circuit_program("pyrazine-2mode", n, "kinetic-first"),
                                    ["turn", "turn", "phase", "turn", "turn"]),
}


# the production width n = 4 keeps the plain program name as its id
@pytest.mark.parametrize("name, n", [pytest.param(name, n, id=name if n == 4 else f"{name}-n{n}")
                                     for name in ENGINE_PROGRAMS for n in (3, 4, 5)])
def test_engine_program_census(name, n):
    make, kinds = ENGINE_PROGRAMS[name]
    program = make(n)
    # no engine operation gathers blocks of several registers
    assert [how for _, how, _ in program.ops] == kinds
    for _, how, operand in program.ops:
        if how == "phase":
            assert operand.size == 1 << program.n_qubits
        elif how in ("left", "right"):
            assert operand.shape in ((1 << n, 1 << n), (2 << n, 2 << n))
    # every chain's last turn takes in the electronic qubit
    turns = [operand.shape for _, how, operand in program.ops if how == "turn"]
    d = program.n_qubits // n
    assert turns == ([(1 << n, 1 << n)] * (d - 1) + [(2 << n, 2 << n)]) * (len(turns) // d)
    if name.startswith("soft-"):  # the soft plan builds the form the circuit compiles to
        circuit = ENGINE_PROGRAMS[name.replace("soft", "circuit")][0](n)
        assert [(shape, how, m.shape) for shape, how, m in program.ops] == [
            (shape, how, m.shape) for shape, how, m in circuit.ops]


@pytest.fixture
def compiled(monkeypatch):
    """The circuits that circuits.compile is called on from here on."""
    calls = []

    def counting_compile(circuit, layout):
        calls.append(circuit)
        return compile(circuit, layout)

    monkeypatch.setattr(circuits, "compile", counting_compile)
    return calls


@pytest.mark.parametrize("split", SPLIT_ORDERS)
def test_circuit_propagate_compiles_one_program(split, compiled):
    model = pyrazine_2mode()
    step = export_gates(CircuitPlan(model, BOX3, 0.13, split).step)
    compiled.clear()
    tg = TimeGrid(dt=0.13, n_steps=4, sample_stride=2)
    circuit_propagate(model, BOX3, tg, split, observers=OBSERVERS)
    assert len(compiled) == 1
    assert export_gates(compiled[0]) == step


@pytest.mark.parametrize("split", SPLIT_ORDERS)
def test_one_circuit_plan_serves_every_run(split, compiled):
    model, grid = pyrazine_2mode(), BOX3
    plan = CircuitPlan(model, grid, 0.13, split)
    tg = TimeGrid(dt=0.13, n_steps=9, sample_stride=4)
    psi0 = initial_state(model, grid)
    first, second = (propagate(plan, psi0, tg, observers=OBSERVERS) for _ in range(2))
    stepped = soft.step(plan, psi0)
    assert len(compiled) == 1
    for name in OBSERVERS:
        for a, b in zip(vars(first[name]).values(), vars(second[name]).values()):
            assert np.array_equal(a, b), name
    assert np.array_equal(first["state"].amplitudes, second["state"].amplitudes)
    # one step of the same plan is its first step in a run of one step
    one = propagate(plan, psi0, TimeGrid(dt=0.13, n_steps=1), observers=())["state"]
    assert np.array_equal(stepped.amplitudes, one.amplitudes)
    assert len(compiled) == 1


# ---------------------------------------------------------------------------
# The k-step advance against single steps
# ---------------------------------------------------------------------------


PLANS = {"soft": PropagatorPlan, "circuit": CircuitPlan}


def flat_prob(layout, psi):
    """|a|^2 of psi in the layout's flat order, as soft.propagate's buffer holds it."""
    return np.abs(layout.flat_order(psi)) ** 2


def _single_step_series(plan, psi0, tg):
    """Every observer at every sample of a loop of single runs of the plan's
    program over its flat copy of psi0."""
    program, position, state = plan.program, plan.layout.position, plan.layout.flat(psi0)
    ref = state.copy()
    rows = {name: [] for name in OBSERVERS}

    def record():
        psi = position(state)
        prob = flat_prob(plan.layout, psi)
        rows["autocorr"].append(np.vdot(ref, state))
        rows["population"].append(populations(prob))
        rows["boundary"].append(boundary_maxima(prob))
        rows["energy"].append(energy(plan, psi, prob))

    record()
    for s in range(1, tg.n_steps + 1):
        program.run(state)
        if s % tg.sample_stride == 0:
            record()
    return rows, position(state).amplitudes


@pytest.mark.parametrize("engine", ["soft", "circuit"])
@pytest.mark.parametrize("split", SPLIT_ORDERS)
@pytest.mark.parametrize("n_steps, stride", [(37, 8), (5, 1)])
def test_k_step_advance_matches_single_steps(engine, split, n_steps, stride, monkeypatch):
    model, grid, tg = get_model("pyrazine-4d"), _box(3), TimeGrid(0.13, n_steps, stride)
    bridges = []
    real_bridge = kernels._bridge
    monkeypatch.setattr(kernels, "_bridge", lambda t, h: bridges.append(t) or real_bridge(t, h))
    plan = PLANS[engine](model, grid, tg.dt, split)
    out = propagate(plan, initial_state(model, grid), tg, observers=OBSERVERS)
    # a block of one step merges nothing, so stride 1 builds no bridge
    assert len(bridges) == (plan.halves if stride > 1 else 0)
    rows, final = _single_step_series(plan, initial_state(model, grid), tg)
    got = {"autocorr": out["autocorr"].values,
           "population": np.column_stack([out["population"].p_s1, out["population"].p_s2]),
           "boundary": out["boundary"].per_mode, "energy": out["energy"].values}
    for name, values in got.items():
        assert np.max(np.abs(values - np.array(rows[name]))) < 1e-12, name
    assert np.max(np.abs(out["state"].amplitudes - final)) < 1e-12


# every bridge pairs tail op i with head op i, on the same view: for
# kinetic-first, position i of two turn chains, on register i
BRIDGE_KINDS = {
    "soft-4d-potential-first": ["phase"],
    "circuit-4d-potential-first": ["phase"],
    "soft-4d-kinetic-first": ["turn", "turn", "turn", "turn"],
    "circuit-4d-kinetic-first": ["turn", "turn", "turn", "turn"],
}


@pytest.mark.parametrize("name", list(BRIDGE_KINDS))
def test_bridge_census(name, monkeypatch):
    made = []
    real_bridge = kernels._bridge
    monkeypatch.setattr(kernels, "_bridge", lambda t, h: made.append(real_bridge(t, h)) or made[-1])
    kind, _, split = name.split("-", 2)
    plan = PLANS[kind](get_model("pyrazine-4d"), _box(4), 0.13, split)
    program, halves = plan.program, plan.halves
    advance = program.stepper(halves)
    state = random_state(program.n_qubits, seed=7)
    advance(state, 1)
    assert made == []
    advance(state, 2)
    advance(state, 3)  # the bridge is built once
    assert [how for _, how, _ in made] == BRIDGE_KINDS[name]
    for (shape, how, operand), head, tail in zip(made, program.ops, program.ops[-halves:]):
        assert shape == head[0] == tail[0]
        if how == "phase":
            assert operand.size == 1 << program.n_qubits
    if split == "kinetic-first":  # two wide last turns meet: the tail's with C, the head's widened
        assert [len(operand) for _, _, operand in made] == [16, 16, 16, 32]


@pytest.mark.parametrize("model, split", [("pyrazine-4d", "potential-first"),
                                          ("pyrazine-2mode", "kinetic-first")])
def test_half_state_run_is_the_controlled_step(model, split):
    # the ancilla is the top qubit: the controlled step acts on the upper half
    plan = CircuitPlan(get_model(model), BOX4, 0.13, split)
    anc = plan.step.n_qubits
    controlled = plan.step.controlled(anc)
    program = plan.program
    plain = random_state(anc + 1, seed=6)
    fused = plain.copy()
    half = fused.size // 2
    for _ in range(8):
        apply(controlled, plain)
        program.run(fused[half:])
        assert np.max(np.abs(fused - plain)) < 1e-12


# ---------------------------------------------------------------------------
# Hadamard test and QPE
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("split", SPLIT_ORDERS)
def test_hadamard_test_probabilities(split):
    model = two_mode_tiny()
    grid = GridSpec(n=2, q_min=-5.0, q_max=5.0)
    tg = TimeGrid(dt=0.5, n_steps=8, sample_stride=2)
    plan = PropagatorPlan(model, grid, tg.dt, split)
    reference = propagate(plan, initial_state(model, grid), tg,
                          observers=("autocorr",))["autocorr"]
    series = hadamard_series(model, grid, tg, split)
    assert np.allclose(series["times"], reference.times)
    assert np.max(np.abs(series["exact"] - reference.values)) < 1e-10
    # the series is soft.autocorrelation's: potential-first half the steps,
    # kinetic-first circuit_propagate's autocorrelation
    if split == "potential-first":
        circuit = soft.autocorrelation(CircuitPlan(model, grid, tg.dt, split), initial_state(model, grid), tg)
    else:
        circuit = circuit_propagate(model, grid, tg, split, observers=("autocorr",))["autocorr"]
    assert np.array_equal(series["exact"], circuit.values)


def test_hadamard_sampled_converges():
    model = two_mode_tiny()
    grid = GridSpec(n=2, q_min=-5.0, q_max=5.0)
    tg = TimeGrid(dt=0.5, n_steps=4, sample_stride=2)
    series = hadamard_series(model, grid, tg, shots=200_000, seed=7)
    assert np.max(np.abs(series["sampled"] - series["exact"])) < 0.02


def test_hadamard_series_rejects_a_bad_seed_before_propagating(monkeypatch):
    def not_run(*args, **kwargs):
        raise AssertionError("the series was propagated before the seed was checked")

    monkeypatch.setattr(circuits, "CircuitPlan", not_run)
    tg = TimeGrid(dt=0.5, n_steps=4, sample_stride=2)
    for seed in (-1, 1.5):
        with pytest.raises(SignalError, match=f"a Generator, got {seed}"):
            hadamard_series(two_mode_tiny(), GridSpec(n=2, q_min=-5.0, q_max=5.0), tg,
                            shots=100, seed=seed)


BAD_SHOTS = [(2.7, "shots must be whole numbers, got 2.7"),
             (1.5, "shots must be whole numbers, got 1.5"),
             (True, "shots must be whole numbers, got True"),
             (-5, "shots must be positive, got -5")]


@pytest.mark.parametrize("shots, message", BAD_SHOTS)
def test_hadamard_series_rejects_a_bad_shot_count_before_propagating(shots, message, monkeypatch):
    def not_built(*args, **kwargs):
        raise AssertionError("the step was built before the shots were checked")

    monkeypatch.setattr(circuits, "CircuitPlan", not_built)
    tg = TimeGrid(dt=0.5, n_steps=4, sample_stride=2)
    with pytest.raises(SignalError, match=message):
        hadamard_series(two_mode_tiny(), GridSpec(n=2, q_min=-5.0, q_max=5.0), tg, shots=shots, seed=1)


def test_hadamard_series_samples_nothing_without_shots():
    tg = TimeGrid(dt=0.5, n_steps=4, sample_stride=2)
    grid = GridSpec(n=2, q_min=-5.0, q_max=5.0)
    for shots in (None, 0):
        assert "sampled" not in hadamard_series(two_mode_tiny(), grid, tg, shots=shots)
    whole = hadamard_series(two_mode_tiny(), grid, tg, shots=100.0, seed=2)["sampled"]
    assert np.array_equal(whole, hadamard_series(two_mode_tiny(), grid, tg, shots=100, seed=2)["sampled"])


def test_hadamard_circuits_differ_by_one_s_gate():
    ev = Circuit(2)
    ev.add("H", (0,))
    ev.add("U1", (1,), controls=((0, 1),), theta=0.3)
    real = build_hadamard_test(ev, "real")
    imag = build_hadamard_test(ev, "imag")
    assert imag.gate_count() == real.gate_count() + 1
    extra = [g for g in imag.gates if g.kind == "S" and g.targets == (2,)]
    assert len(extra) == 1
    stripped = [g for g in imag.gates if g is not extra[0]]
    assert [(g.kind, g.targets, g.controls, g.theta) for g in stripped] == [
        (g.kind, g.targets, g.controls, g.theta) for g in real.gates
    ]
    with pytest.raises(CircuitError):
        build_hadamard_test(ev, "abs")


def test_hadamard_test_against_dense_overlap():
    ev = Circuit(2)
    ev.add("RY", (0,), theta=0.9)
    ev.add("U1", (1,), controls=((0, 1),), theta=1.3)
    ev.add("RX", (1,), theta=0.4)
    u = unitary_of(ev)
    a = u[0, 0]  # <00|U|00>
    for part, expected in (("real", 0.5 * (1 + a.real)), ("imag", 0.5 * (1 - a.imag))):
        circ = build_hadamard_test(ev, part)
        state = np.zeros(8, dtype=np.complex128)
        state[0] = 1.0
        apply(circ, state)
        probs = np.abs(state) ** 2
        p0 = probs[: 4].sum()  # ancilla (qubit 2) clear
        assert p0 == pytest.approx(expected, abs=1e-12)


def test_qpe_on_a_phase_gate():
    # U = diag(1, e^{i 2 pi (5/16)}) on one qubit: phase readout of |1> is exact
    m = 4
    ev = Circuit(1)
    ev.add("U1", (0,), theta=2 * math.pi * 5 / 16)
    circ = build_qpe(ev, m)
    assert circ.n_qubits == 1 + m
    system = np.array([0.0, 1.0], dtype=np.complex128)
    out = run_qpe(circ, system, shots=0)
    probs = out["probs"]
    assert probs.shape == (1 << m,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    # the readout register resolves the eigenphase phi as phi/2pi exactly
    assert int(np.argmax(probs)) == 5
    assert probs.max() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m", [0, -1, 2.5, "3", True, None])
def test_build_qpe_refuses_a_readout_count_that_is_no_positive_integer(m):
    ev = Circuit(1)
    ev.add("U1", (0,), theta=0.7)
    with pytest.raises(CircuitError, match=re.escape(f"at least one readout qubit, got {m!r}")):
        build_qpe(ev, m)


def test_build_qpe_refuses_a_register_over_budget(monkeypatch):
    ev = Circuit(1)
    ev.add("U1", (0,), theta=0.7)
    # 2^40 - 1 controlled copies of even a one-gate step: refused before the first is built
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(kernels.MemoryBudgetError, match="40-bit phase estimation"):
            build_qpe(ev, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0 and peak < 2**20
    # the charge is the controlled copies at _GATE_BYTES each
    monkeypatch.setattr(kernels, "DEFAULT_MEMORY_BUDGET", 7 * kernels._GATE_BYTES)
    assert build_qpe(ev, 3).readout_qubits == 3
    with pytest.raises(kernels.MemoryBudgetError, match="4-bit"):
        build_qpe(ev, 4)


@pytest.mark.parametrize("size, message", [(12, "state length 12 is not a power of two"),
                                           (64, "state has 6 qubits, circuit has 5"),
                                           (2, "state has 1 qubits, circuit has 5: 3 readout and 2 system")])
def test_run_qpe_rejects_a_system_state_it_cannot_hold(size, message, monkeypatch):
    ev = Circuit(2)
    ev.add("U1", (0,), theta=0.7)
    circ = build_qpe(ev, 3)
    assert circ.n_qubits == 5

    def not_run(*args):
        raise AssertionError("the circuit ran before the state was checked")

    monkeypatch.setattr(circuits, "apply", not_run)
    with pytest.raises(CircuitError, match=re.escape(message)):
        run_qpe(circ, np.ones(size, dtype=np.complex128) / math.sqrt(size))


def test_run_qpe_needs_a_phase_estimation_circuit():
    ev = Circuit(1)
    ev.add("U1", (0,), theta=0.7)
    with pytest.raises(CircuitError, match="build_qpe"):
        run_qpe(ev, np.array([0.0, 1.0], dtype=np.complex128))


def test_qpe_counts_are_reproducible():
    ev = Circuit(1)
    ev.add("U1", (0,), theta=0.7)
    circ = build_qpe(ev, 3)
    system = np.array([0.0, 1.0], dtype=np.complex128)
    a = run_qpe(circ, system, shots=512, seed=11)
    b = run_qpe(circ, system, shots=512, seed=11)
    assert a["counts"] == b["counts"]
    assert sum(a["counts"].values()) == 512


def test_run_qpe_rejects_a_bad_seed_before_running(monkeypatch):
    ev = Circuit(1)
    ev.add("U1", (0,), theta=0.7)
    circ = build_qpe(ev, 3)

    def not_run(*args):
        raise AssertionError("the circuit ran before the seed was checked")

    monkeypatch.setattr(circuits, "apply", not_run)
    for seed in (-1, 1.5):
        with pytest.raises(SignalError, match=f"a Generator, got {seed}"):
            run_qpe(circ, np.array([0.0, 1.0], dtype=np.complex128), shots=512, seed=seed)


def test_qpe_counts_are_the_signals_multinomial_draw():
    # the draw run_qpe made with its own generator before it used signals'
    ev = Circuit(2)
    ev.add("H", (0,))
    ev.add("U1", (1,), controls=((0, 1),), theta=0.9)
    circ = build_qpe(ev, 6)
    system = np.array([0.5, 0.5, 0.5, 0.5], dtype=np.complex128)
    for shots in (512, 4096):
        out = run_qpe(circ, system, shots=shots, seed=3)
        probs = out["probs"]
        counts = np.random.default_rng(3).multinomial(shots, probs / probs.sum())
        assert out["counts"] == {k: int(c) for k, c in enumerate(counts) if c}


def test_run_qpe_rejects_negative_shots():
    ev = Circuit(1)
    ev.add("U1", (0,), theta=0.7)
    circ = build_qpe(ev, 3)
    system = np.array([0.0, 1.0], dtype=np.complex128)
    with pytest.raises(SignalError, match="shots must be positive, got -5"):
        run_qpe(circ, system, shots=-5)


@pytest.mark.parametrize("shots, message", BAD_SHOTS)
def test_run_qpe_rejects_a_bad_shot_count_before_running(shots, message, monkeypatch):
    ev = Circuit(1)
    ev.add("U1", (0,), theta=0.7)
    circ = build_qpe(ev, 3)

    def not_run(*args):
        raise AssertionError("the circuit ran before the shots were checked")

    monkeypatch.setattr(circuits, "apply", not_run)
    with pytest.raises(SignalError, match=message):
        run_qpe(circ, np.array([0.0, 1.0], dtype=np.complex128), shots=shots, seed=3)


def test_qpe_phase_to_energy_window():
    hbar = 0.6582119569
    dt = 1.0
    window = 2 * math.pi * hbar / dt
    assert qpe_phase_to_energy(0.0, dt, hbar) == 0.0
    e = qpe_phase_to_energy(0.25, dt, hbar)
    assert e == pytest.approx(0.75 * window)


# ---------------------------------------------------------------------------
# Gate export
# ---------------------------------------------------------------------------


def test_export_gates_format():
    c = Circuit(3)
    c.add("H", (0,))
    c.add("U1", (1,), controls=((0, 1), (2, 0)), theta=0.5)
    c.add("SWAP", (0, 2))
    text = export_gates(c)
    lines = text.strip().split("\n")
    assert lines[0] == "# qubits=3 gates=3 depth=3"
    assert lines[1] == "H t=0 layer=0"
    assert lines[2] == "U1 t=1 c=0:1,2:0 theta=0.5 layer=1"
    assert lines[3] == "SWAP t=0,2 layer=2"


# sha256 of export_gates for three standard steps on the periodic [-5, 5]
# grid at n = 4 with dt = 264/2048 fs: (model, split, gates, depth, digest)
PINNED_STEPS = [
    ("pyrazine-4d", "potential-first", 370, 90,
     "8ded79399f59cfce4c33cf3a43193b3fe36deac4b821cec6e6dd9a2ca047e3e9"),
    ("pyrazine-2mode", "kinetic-first", 169, 81,
     "f1a2f52101d22a145fed21555b6609a2626f9f65db476edbed449439d54a8ff5"),
    ("pyrazine-24d-placeholder", "kinetic-first", 5006, 2497,
     "c76f584451beff717fd68f4a42feae9414625a022c340c84981a781ed0966445"),
]


@pytest.mark.parametrize("name, split, gates, depth, digest", PINNED_STEPS)
def test_export_gates_of_the_standard_steps_is_pinned(name, split, gates, depth, digest):
    step = build_timestep(get_model(name), GridSpec(4, -5.0, 5.0), 264.0 / 2048, split)
    assert (step.gate_count(), step.depth()) == (gates, depth)
    assert hashlib.sha256(export_gates(step).encode()).hexdigest() == digest


def _emitted_circuits(name, split):
    """The step at n = 2-5 and its controlled form, and the wavepacket
    preparation; for "qpe-demo", the qpe-demo command's phase estimation."""
    if name == "qpe-demo":
        model = VibronicModel(modes=(ModeParams("nu", 0.0936, "B1g"),), lam=0.0, delta=0.0)
        yield build_qpe(build_timestep(model, GridSpec(3, -6.0, 6.0), 1.0), 6)
        return
    model = get_model(name)
    for n in (2, 3, 4, 5):
        step = build_timestep(model, GridSpec(n, -5.0, 5.0), 264.0 / 2048, split)
        yield step
        yield step.controlled(step.n_qubits)
    yield prepare_wavepacket(model, GridSpec(4, -5.0, 5.0))


@pytest.mark.parametrize("name, split", [("pyrazine-4d", "potential-first"), ("pyrazine-4d", "kinetic-first"),
                                         ("pyrazine-24d-placeholder", "kinetic-first"), ("qpe-demo", None)])
def test_every_emitted_gate_passes_the_checks(name, split):
    # derived gates skip the checks a caller's gates get; each must pass them
    for circ in _emitted_circuits(name, split):
        for g in circ.gates:
            assert type(g) is Gate and Gate(*g) == g


def _pinned_circuits(name, split):
    """_emitted_circuits for the three standard steps; pyrazine-2mode's step
    at n = 2-5; bilinear_tiny's step with and without split gammas at n = 2,
    3, where every bilinear angle is nonzero and dq is no power of two."""
    if name in ("bilinear", "bilinear-split"):
        for n in (2, 3):
            yield build_timestep(bilinear_tiny(name == "bilinear-split"), GridSpec(n, -5.0, 5.0), 264.0 / 2048, split)
    elif name == "pyrazine-2mode":
        for n in (2, 3, 4, 5):
            yield build_timestep(get_model(name), GridSpec(n, -5.0, 5.0), 264.0 / 2048, split)
    else:
        yield from _emitted_circuits(name, split)


# sha256 of export_gates of each _pinned_circuits circuit, in its order
GATE_LIST_DIGESTS = {
    ("pyrazine-4d", "potential-first"): [
        "a2efe3f3b265e7e63d464660da030b7cd8237c016dba9c4d1e4b2ce693a22908",
        "f3a341f90a468eeb51de6910f4df54c0fc0b4331b07182e5b8f06480e9ca8a6d",
        "679dc31b0b8d400f6825856831d80b8e2c1ab759fe0b32d3462211c6d4a29480",
        "c762f518a58eb68c4de95a48fad75391cac8af0742cdd4fb9261641c77441f64",
        "8ded79399f59cfce4c33cf3a43193b3fe36deac4b821cec6e6dd9a2ca047e3e9",
        "8f2610bf38c87739e86fcece87a5a4a822099a381fc83309dc530ede083b3e1c",
        "e1b65a62fceba1f03168bdbc89cfb26bcd029d54ed1f7e80e599b140683366ea",
        "ab413ef74aaf7ee80db645593d23f8383e9dcefda7deb5b93a65c6f7562af029",
        "27ae78b5b7ee73509a816ea20ea490acbba5fcc36408f2118a217f7b2b4d7474",
    ],
    ("pyrazine-4d", "kinetic-first"): [
        "ce240b6d0687560f49094422493c32c6b08f6012ce25856fc21928ee6c549a17",
        "867efe259635e568ea636d9d55ec829c1f598518a0b9383e208c31516aac657d",
        "b9475a3ad770338757b080a22ce9dece2c834655af345be7446fbf7a01d3d506",
        "921156512e0840b0082f94340c3f0cf867505ffc9a15622bda742347f360143f",
        "e9f1831fb62a9c63b068ec90aee03b0080dbef33be38e92a62886f6644ae700f",
        "16af94ef85c252d15360d736978c7704ef990931dfc1c5afb7cb6ca8bff62b84",
        "626e175c4ed609c82672262d797c958ab28fd4410954e5bf2ce9594db67e5254",
        "077382a0d1832229998a1b5f0e46ab712473618b3d33497eb82f95c179495241",
        "27ae78b5b7ee73509a816ea20ea490acbba5fcc36408f2118a217f7b2b4d7474",
    ],
    ("pyrazine-24d-placeholder", "kinetic-first"): [
        "dfc0daf4472e8af29e6d320875eff077838420b21b085c03d8cb0c14dcd2d692",
        "c70648cf4b2f2b805b72813240911e14c63d2eb0a9f3b447cd6b141931a8ad33",
        "ba1050bbcc20c8e52e4db31d861db38e7ab5b3d13e93a669302a793ada5c144d",
        "00c85d09974dab0c5bc487964b458e8dcd0aa493c33abbf87ec8c84161f2fbdc",
        "c76f584451beff717fd68f4a42feae9414625a022c340c84981a781ed0966445",
        "54d1296b35265ce2b9b80d369ab084d884cb86dabfe515d15072c6e95be64bb0",
        "d74db1af42bfdda10a0ba4c08642636093d64877ef814b3980864ac4bef312de",
        "6a3e6af34213ecc7783ac9124785a5a4e0d3c161eb6f82d946b28823e090feb8",
        "c8bc06c56bb93f9ad90230c5fa8a41388ce9df91bb41b03c5fc833ce13af0a7c",
    ],
    ("pyrazine-2mode", "kinetic-first"): [
        "3b36277e4c78e1f47386b3477f0990071bc146fda4699a617c755549c82f2500",
        "e2941dc5e37243e078cd79421810e1a9194669aa5682d520c72caffb30ba61c8",
        "f1a2f52101d22a145fed21555b6609a2626f9f65db476edbed449439d54a8ff5",
        "fabcca2e9ed9688f85ea7d2b1bc854713571936cd69a23013ef8b7738ab5e519",
    ],
    ("bilinear", "kinetic-first"): [
        "0af71995eea008edf6d4acf8d6d54765778e57a7ffb1b807fd8e0eb671760c7f",
        "77d870a8de3837213c1a0ea6a06f71a1959f21e1ba1a042c62db8e658917fc64",
    ],
    ("bilinear-split", "kinetic-first"): [
        "11cda373240604aaeccb1832431b4c0fd2212a354eb56506958191cac4988b45",
        "7fd71e8aab5d7306c3b74052598d21f06e44aa00966e75b668c8df01356a6fd2",
    ],
}


@pytest.mark.parametrize("name, split", sorted(GATE_LIST_DIGESTS))
def test_every_emitted_gate_list_is_pinned(name, split):
    # the builders copy one checked block per register or pair; any change
    # to an angle, a qubit, a layer or the gate order shows here
    digests = [hashlib.sha256(export_gates(c).encode()).hexdigest() for c in _pinned_circuits(name, split)]
    assert digests == GATE_LIST_DIGESTS[name, split]


@pytest.mark.parametrize("name, split", [("pyrazine-4d", "potential-first"), ("pyrazine-4d", "kinetic-first"),
                                         ("pyrazine-2mode", "kinetic-first")])
def test_public_blocks_compose_the_step(name, split):
    # the step appends every block where it lays it; the public blocks,
    # concatenated in the order build_timestep's docstring gives, are the
    # same gate list, the potential-first tail the head's blocks mirrored
    model, dt = get_model(name), 264.0 / 2048
    for n in (2, 3, 4, 5):
        grid = GridSpec(n, -5.0, 5.0)
        if split == "potential-first":
            udiag, uc = build_Udiag_pair(model, grid, dt), build_Uc(model, grid, dt)
            blocks = [udiag, uc, _qft_wall(model, grid), build_UK(model, grid, dt),
                      _qft_wall(model, grid, inverse=True), uc.mirrored(), udiag.mirrored()]
        else:
            uk_half = build_UK(model, grid, dt / 2.0)
            blocks = [uk_half, _qft_wall(model, grid, inverse=True), build_Udiag_pair(model, grid, 2.0 * dt),
                      build_Uc(model, grid, 2.0 * dt), _qft_wall(model, grid), uk_half]
        composed = Circuit(QubitLayout(model.d, n).total)
        for block in blocks:
            composed.append_circuit(block)
        assert export_gates(composed) == export_gates(build_timestep(model, grid, dt, split)), n


def test_the_mirrored_tail_is_the_block_order_tail():
    # every gate of Udiag and Uc is symmetric, Udiag is diagonal and Uc's
    # rotations commute, so the mirrored tail is Uc Udiag in block order
    model, dt, grid = get_model("pyrazine-4d"), 264.0 / 2048, GridSpec(2, -5.0, 5.0)
    udiag, uc = build_Udiag_pair(model, grid, dt), build_Uc(model, grid, dt)
    block_order = Circuit(QubitLayout(model.d, 2).total)
    for block in (udiag, uc, _qft_wall(model, grid), build_UK(model, grid, dt),
                  _qft_wall(model, grid, inverse=True), uc, udiag):
        block_order.append_circuit(block)
    step = build_timestep(model, grid, dt)
    assert export_gates(step) != export_gates(block_order)
    assert np.max(np.abs(unitary_of(step) - unitary_of(block_order))) < 1e-13


# (gates, depth) of the potential-first steps at n = 2-5, as the cost tables count them
POTENTIAL_FIRST_COUNTS = {"pyrazine-4d": [(126, 34), (228, 57), (370, 90), (536, 129)],
                          "pyrazine-2mode": [(70, 34), (122, 57), (194, 90), (278, 129)]}


@pytest.mark.parametrize("name", sorted(POTENTIAL_FIRST_COUNTS))
def test_the_mirrored_tail_keeps_gate_count_and_depth(name):
    steps = [build_timestep(get_model(name), GridSpec(n, -5.0, 5.0), 264.0 / 2048) for n in (2, 3, 4, 5)]
    assert [(s.gate_count(), s.depth()) for s in steps] == POTENTIAL_FIRST_COUNTS[name]


# sha256 of export_gates of a kinetic-first CircuitPlan's step, the step
# between its QFT walls, on the periodic [-5, 5] grid with dt = 264/2048 fs:
# (model, n, gates, depth, digest)
WALLED_STEPS = [
    ("pyrazine-2mode", 4, 217, 105, "d006dd942d625bc750d5747e8ec1bf950e65afe25c94d9b9fde7012df25f05a4"),
    ("bilinear", 3, 252, 117, "a0440accbb7322eef7364467e24239ab2ed3d3541c677cbfa8b597df1662cf03"),
    ("bilinear-split", 3, 261, 117, "226ee78b5cb17b5e485c5e50326cc5ac97faf0f3120568368c9d61d8ef2e84cb"),
]


@pytest.mark.parametrize("name, n, gates, depth, digest", WALLED_STEPS)
def test_walled_steps_are_pinned(name, n, gates, depth, digest):
    model = bilinear_tiny(name == "bilinear-split") if name.startswith("bilinear") else get_model(name)
    step = CircuitPlan(model, GridSpec(n, -5.0, 5.0), 264.0 / 2048, "kinetic-first").step
    assert (step.gate_count(), step.depth()) == (gates, depth)
    assert hashlib.sha256(export_gates(step).encode()).hexdigest() == digest
