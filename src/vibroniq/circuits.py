"""The paper's circuits: state preparation, the Udiag, Uc, UK and QFT blocks,
the bilinear pair blocks, one Trotter step (build_timestep), the circuit
engine's plan (CircuitPlan) and the Hadamard-test and phase-estimation
readouts. They are built on kernels.Circuit, which this module re-exports
with the names that run a circuit (apply, unitary_of, compile).

Depth accounting: builders declare layers the way the cost tables count
them (register-parallel blocks share ids, phase networks are sequential).

Qubit layout: model.QubitLayout, re-exported here, the one basis of both
engines.

Building: a time step is one circuit that each block appends into. Each
repeated block (a register's QFT, quadratic network and branch-controlled
linear phases, a bilinear pair's network and its CCRx expansion) is built
once through Circuit.add on abstract qubits with unit prefactors and copied
onto every register or pair through Circuit._extend, scaled by its own
prefactor: the network angles are ±2^i·2^j, so the scaling is exact and the
gates are those a gate-by-gate build would add. A block that a step lays
twice with the same angles (the potential-first Udiag pair and Uc, the
kinetic-first UK/2) is built once and appended twice.

Running: a CircuitPlan is a soft.Plan whose program is kernels.compile of
the step, so soft.propagate, soft.step and soft.energy run it as they run
the soft engine's plan. Where the coupling lives on the last mode register,
compile folds the matrices on that register's block that border a kinetic
chain into its last turn (kernels.fold_turns): potential-first, the body's
two, so the step is a phase table, the chain and a phase table. A
kinetic-first step is compiled between its QFT walls, each joining the
register run next to it, so the state stays in the position basis; its two
walled K/2 runs are lowered once, the coupling rotation folds into the tail
chain and the head chain widens with the identity, so the step is the
chain, a phase table and the chain, and the stepper merges the walled
register matrices of two steps position by position. The interferometer
readout (hadamard_series) runs no state of its own: its ancilla-controlled
step acts as the plain step on the ancilla-set half, so it reads A(t) from
soft.autocorrelation of the CircuitPlan, which propagates half the steps
for a potential-first (symmetric) step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, signals
from .kernels import KINDS, Circuit, CircuitError, Gate, _derived_gate, apply, compile, unitary_of
from .model import GridSpec, QubitLayout, TimeGrid, VibronicModel, Wavepacket, ground_gaussian, initial_state
from . import soft as _soft


# ---------------------------------------------------------------------------
# State preparation from nonnegative amplitudes (uniformly controlled Ry tree)
# ---------------------------------------------------------------------------


def prep_angles(amplitudes: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Ry angle blocks ((target bit, angles)), from most significant bit down.

    Block angles are the Gray-code mix of the conditional half-split angles
    alpha_w = 2*arcsin of the square root of the upper-half probability share.
    """
    probs = np.asarray(amplitudes, dtype=float) ** 2
    n = probs.size.bit_length() - 1
    if probs.size != 1 << n:
        raise CircuitError(f"amplitude count {probs.size} is not a power of two")
    blocks = []
    for j in range(n):
        t = n - 1 - j
        alphas = np.empty(1 << j)
        for w in range(1 << j):
            den = probs[w << (t + 1) : (w + 1) << (t + 1)].sum()
            num = probs[(2 * w + 1) << t : (2 * w + 2) << t].sum()
            alphas[w] = 0.0 if den <= 0.0 else 2.0 * math.asin(math.sqrt(min(1.0, num / den)))
        if j == 0:
            thetas = alphas
        else:
            m = np.empty((1 << j, 1 << j))
            for k in range(1 << j):
                gray = k ^ (k >> 1)
                for w in range(1 << j):
                    sign = -1.0 if bin(w & gray).count("1") % 2 else 1.0
                    m[k, w] = sign / (1 << j)
            thetas = m @ alphas
        blocks.append((t, thetas))
    return blocks


def _gray_cnot_controls(j: int) -> list[int]:
    """Control-bit index (within the j control bits) after each Ry of a block."""
    return [(k & -k).bit_length() - 1 for k in range(1, 1 << j)] + [j - 1]


def build_state_prep(n: int, amplitudes: np.ndarray) -> Circuit:
    """Circuit taking |0..0> to the given real nonnegative amplitude vector.

    Gate depth is exactly 2^(n+1) - 3; every gate sits in its own layer.
    """
    amps = np.asarray(amplitudes, dtype=float)
    if amps.size != 1 << n:
        raise CircuitError(f"expected {1 << n} amplitudes, got {amps.size}")
    if not np.all(np.isfinite(amps)):
        raise CircuitError("amplitudes must be finite")
    if np.any(amps < 0):
        raise CircuitError("amplitudes must be nonnegative")
    if abs(np.sum(amps**2) - 1.0) > 1e-9:
        raise CircuitError(f"amplitudes must be normalized, norm^2 = {np.sum(amps**2)!r}")
    circ = Circuit(n)
    for t, thetas in prep_angles(amps):
        j = n - 1 - t
        if j == 0:
            circ.add("RY", (t,), theta=float(thetas[0]))
            continue
        ctrl_bits = _gray_cnot_controls(j)
        for k in range(1 << j):
            circ.add("RY", (t,), theta=float(thetas[k]))
            circ.add("X", (t,), controls=((t + 1 + ctrl_bits[k], 1),))
    return circ


def prepare_wavepacket(model: VibronicModel, grid: GridSpec) -> Circuit:
    """Full-register preparation: parallel per-mode Gaussian cascades plus the
    electronic flip onto S2. Depth equals the single-register prep depth."""
    layout = QubitLayout(model.d, grid.n)
    circ = Circuit(layout.total)
    circ.add("X", (layout.electronic,), layer=0)
    _copy_to_registers(circ, build_state_prep(grid.n, ground_gaussian(grid)), layout, offset=0)
    return circ


def _copy_to_registers(circ: Circuit, base: Circuit, layout: QubitLayout, scales=None,
                       offset: int | None = None) -> None:
    """Append `base` (one register's gates, its qubit n the electronic one)
    on every mode register r, its angles times scales[r] (Circuit._extend's
    scale) and its layer ids shifted by offset (None: the circuit's next
    layer) alike, so the copies run in parallel."""
    if offset is None:
        offset = circ._layer + 1
    for r in range(layout.d):
        circ._extend(base, layout.block_qubits(r)[:base.n_qubits], offset, 1.0 if scales is None else scales[r])


# ---------------------------------------------------------------------------
# Diagonal potential, coupling, and kinetic phase circuits
# ---------------------------------------------------------------------------


def _branch_coeffs(model: VibronicModel, grid: GridSpec) -> dict:
    """Index-polynomial coefficients of V_s(Q(idx)) per mode and branch.

    Returns quad[k] (branch free), lin[s][k], const[s]; bilinear gamma terms
    contribute their affine corrections to lin/const so the pair circuits
    stay purely quadratic in the register indices.
    """
    q0 = grid.q_min
    dq = grid.dq
    quad = []
    lin = [[], []]
    const = [-model.delta, model.delta]
    for mode in model.modes:
        quad.append(0.5 * mode.omega * dq * dq)
        for s in range(2):
            kappa = 0.0
            if mode.kappa1 is not None:
                kappa = mode.kappa1 if s == 0 else mode.kappa2
            lin[s].append(mode.omega * q0 * dq + kappa * dq)
            const[s] += 0.5 * mode.omega * q0 * q0 + kappa * q0
    for pair in model.bilinear_diag:
        for s, gamma in ((0, pair.gamma1), (1, pair.gamma2)):
            lin[s][pair.l] += gamma * q0 * dq
            lin[s][pair.m] += gamma * q0 * dq
            const[s] += gamma * q0 * q0
    return {"quad": quad, "lin": lin, "const": const}


def _quadratic_network(n: int, signed: bool = False) -> Circuit:
    """U1/CU1 phase network for idx^2 over one n-qubit register, n singles
    then n(n-1) pairs, one layer each; signed=True uses the two's-complement
    index with a negative top bit. Its angles are ±2^i·2^j, so a copy scaled
    by theta gives theta·2^i·2^j exactly."""
    coeff = [float(1 << i) for i in range(n)]
    if signed:
        coeff[n - 1] = -coeff[n - 1]
    circ = Circuit(n)
    for i in range(n):
        circ.add("U1", (i,), (), coeff[i] * coeff[i])
    for i in range(n):
        for j in range(n):
            if i != j:
                circ.add("U1", (j,), ((i, 1),), coeff[i] * coeff[j])
    return circ


def build_Udiag_pair(model: VibronicModel, grid: GridSpec, dt: float) -> Circuit:
    """Both-branch diagonal potential phases for half a step, n^2 + 5 layers.

    Constant layer pattern U1-X-U1-X on the electronic qubit (4 layers), one
    shared layer of branch-controlled linear phases, and the branch-free
    quadratic network (n^2 layers shared across mode registers).
    """
    co = _branch_coeffs(model, grid)
    pref = -dt / (2.0 * model.hbar)
    n = grid.n
    layout = QubitLayout(model.d, n)
    elec = layout.electronic
    circ = Circuit(layout.total)
    circ.add("U1", (elec,), theta=pref * co["const"][1])
    circ.add("X", (elec,))
    circ.add("U1", (elec,), theta=pref * co["const"][0])
    circ.add("X", (elec,))
    lin = Circuit(n + 1)
    for i in range(n):
        for pol in (0, 1):
            lin.add("U1", (i,), ((n, pol),), float(1 << i), 0)
    _copy_to_registers(circ, lin, layout, [[pref * lin0, pref * lin1] * n for lin0, lin1 in zip(*co["lin"])])
    _copy_to_registers(circ, _quadratic_network(n), layout, [pref * q for q in co["quad"]])
    return circ


def build_Uc(model: VibronicModel, grid: GridSpec, dt: float) -> Circuit:
    """Linear interstate coupling exp(-i lam Q_c X dt / (2 hbar)), depth n.

    Rx gates on the electronic qubit controlled by the coupling-mode register
    bits; the grid-offset rotation shares the first layer (same axis, same
    target, commuting).
    """
    layout = QubitLayout(model.d, grid.n)
    circ = Circuit(layout.total)
    if model.lam == 0.0:
        return circ
    qubits = layout.mode_qubits(model.coupling_mode)
    scale = model.lam * dt / model.hbar
    for i in range(grid.n):
        circ.add("RX", (layout.electronic,), controls=((qubits[i], 1),), theta=scale * grid.dq * (1 << i))
    if grid.q_min != 0.0:
        circ.add("RX", (layout.electronic,), theta=scale * grid.q_min, layer=0)
    return circ


def build_UK(model: VibronicModel, grid: GridSpec, dt: float) -> Circuit:
    """Kinetic phases exp(-i K dt / hbar) in the transformed (momentum) basis.

    The quadratic network runs over the signed two's-complement index, n^2
    layers shared across mode registers; no electronic involvement.
    """
    circ = Circuit(model.d * grid.n)
    base = 2.0 * math.pi / (grid.size * grid.dq)
    _copy_to_registers(circ, _quadratic_network(grid.n, signed=True), QubitLayout(model.d, grid.n),
                       [-0.5 * mode.omega * base * base * dt / model.hbar for mode in model.modes])
    return circ


def build_qft(n: int, inverse: bool = False) -> Circuit:
    """Quantum Fourier transform on one n-qubit register, F|j> = sum_k e^{2 pi i jk/N}|k>/sqrt(N).

    n Hadamards, n(n-1)/2 controlled phases, floor(n/2) swaps, one layer each.
    """
    circ = Circuit(n)
    sign = -1.0 if inverse else 1.0
    if inverse:
        for i in range(n // 2):
            circ.add("SWAP", (i, n - 1 - i))
        for t in range(n):
            for c in reversed(range(t)):
                circ.add("U1", (t,), controls=((c, 1),), theta=sign * math.pi / (1 << (t - c)))
            circ.add("H", (t,))
    else:
        for t in reversed(range(n)):
            circ.add("H", (t,))
            for c in reversed(range(t)):
                circ.add("U1", (t,), controls=((c, 1),), theta=sign * math.pi / (1 << (t - c)))
        for i in range(n // 2):
            circ.add("SWAP", (i, n - 1 - i))
    return circ


# ---------------------------------------------------------------------------
# Bilinear pair circuits (second-order models)
# ---------------------------------------------------------------------------


def decompose_ccrx(gate: Gate) -> list[Gate]:
    """Expand a doubly controlled Rx into 5 derived two-qubit gates (exact)."""
    if gate.kind != "RX" or len(gate.controls) != 2:
        raise CircuitError(f"expected a doubly controlled RX, got {gate}")
    (a, pa), (b, pb) = gate.controls
    if pa != 1 or pb != 1:
        raise CircuitError("decomposition assumes on-|1> controls")
    t = gate.targets[0]
    half = gate.theta / 2.0
    lay = gate.layer
    return [
        _derived_gate("RX", (t,), ((b, 1),), half, lay),
        _derived_gate("X", (b,), ((a, 1),), None, lay + 1),
        _derived_gate("RX", (t,), ((b, 1),), -half, lay + 2),
        _derived_gate("X", (b,), ((a, 1),), None, lay + 3),
        _derived_gate("RX", (t,), ((a, 1),), half, lay + 4),
    ]


def schedule_bilinear_diag(model: VibronicModel) -> list[list[int]]:
    """Partition the on-diagonal bilinear pairs into mode-disjoint groups.

    Within each symmetry clique the pairs follow the round-robin tournament
    coloring; cliques with several rounds share the leading group slots
    (their modes never clash across symmetries), while single-round cliques
    are gathered into one trailing group. This reproduces the six-group
    schedule the cost table assumes for the full second-order mode set.
    """
    by_sym: dict[str, list[int]] = {}
    for idx, pair in enumerate(model.bilinear_diag):
        by_sym.setdefault(model.modes[pair.l].symmetry, []).append(idx)
    multi: list[list[list[int]]] = []
    single: list[list[int]] = []
    for _sym, indices in sorted(by_sym.items()):
        rounds = _round_robin_rounds(model, indices)
        if len(rounds) > 1:
            multi.append(rounds)
        else:
            single.extend(rounds)
    n_groups = max((len(r) for r in multi), default=0)
    groups: list[list[int]] = [[] for _ in range(n_groups)]
    for rounds in multi:
        for g, rnd in enumerate(rounds):
            groups[g].extend(rnd)
    if single:
        groups.append([idx for rnd in single for idx in rnd])
    return groups


def _round_robin_rounds(model: VibronicModel, pair_indices: list[int]) -> list[list[int]]:
    """Tournament rounds (mode-disjoint matchings) for one clique of pairs."""
    verts = sorted({v for idx in pair_indices for v in (model.bilinear_diag[idx].l, model.bilinear_diag[idx].m)})
    v = len(verts)
    pos = {m: i for i, m in enumerate(verts)}
    lookup = {}
    for idx in pair_indices:
        p = model.bilinear_diag[idx]
        lookup[frozenset((pos[p.l], pos[p.m]))] = idx
    rounds: list[list[int]] = []
    if v % 2 == 1:
        for r in range(v):
            rnd = []
            for a in range(v):
                for b in range(a + 1, v):
                    if (a + b) % v == r and frozenset((a, b)) in lookup:
                        rnd.append(lookup[frozenset((a, b))])
            if rnd:
                rounds.append(rnd)
    else:
        hub = v - 1
        for r in range(v - 1):
            rnd = []
            key = frozenset((hub, r))
            if key in lookup:
                rnd.append(lookup[key])
            for i in range(1, (v - 1) // 2 + 1):
                a = (r + i) % (v - 1)
                b = (r - i) % (v - 1)
                key = frozenset((a, b))
                if a != b and key in lookup:
                    rnd.append(lookup[key])
            if rnd:
                rounds.append(rnd)
    return rounds


# ---------------------------------------------------------------------------
# One Trotter step
# ---------------------------------------------------------------------------


def build_timestep(
    model: VibronicModel,
    grid: GridSpec,
    dt: float,
    split_order: str = "potential-first",
) -> Circuit:
    """One dt step as counted by the cost tables.

    potential-first holds the state in the position basis and is the
    palindrome Udiag Uc QFT UK QFT' Uc Udiag. kinetic-first holds the state
    in the transformed basis (an outer QFT pair belongs to the caller) and
    runs UK/2 QFT' V QFT UK/2 with the full-step potential applied once,
    bilinear groups included and every doubly controlled Rx expanded.
    """
    circ = Circuit(QubitLayout(model.d, grid.n).total)
    _add_timestep(circ, model, grid, dt, split_order, (build_qft(grid.n), build_qft(grid.n, inverse=True)))
    return circ


def _add_timestep(circ: Circuit, model: VibronicModel, grid: GridSpec, dt: float, split_order: str,
                  walls: tuple[Circuit, Circuit]) -> None:
    """build_timestep's blocks, each appended from the circuit's next layer
    on, a block laid twice built once; the QFT walls are the forward and
    inverse build_qft of `walls` copied onto every mode register."""
    if split_order not in _soft.SPLIT_ORDERS:
        raise CircuitError(f"unknown split order {split_order!r}")
    layout = QubitLayout(model.d, grid.n)
    qft, iqft = walls
    if split_order == "potential-first":
        if model.bilinear_diag or model.bilinear_off:
            raise CircuitError("bilinear terms use the kinetic-first split")
        half = [build_Udiag_pair(model, grid, dt), build_Uc(model, grid, dt)]
        for block in half:
            circ.append_circuit(block)
        _copy_to_registers(circ, qft, layout)
        circ.append_circuit(build_UK(model, grid, dt))
        _copy_to_registers(circ, iqft, layout)
        for block in reversed(half):
            circ.append_circuit(block)
        return
    uk = build_UK(model, grid, dt / 2.0)
    circ.append_circuit(uk)
    _copy_to_registers(circ, iqft, layout)
    circ.append_circuit(build_Udiag_pair(model, grid, 2.0 * dt))
    _append_bilinear_diag_groups(circ, model, grid, dt)
    circ.append_circuit(build_Uc(model, grid, 2.0 * dt))
    _append_bilinear_offdiag(circ, model, grid, dt)
    _copy_to_registers(circ, qft, layout)
    circ.append_circuit(uk)


def _append_bilinear_diag_groups(circ: Circuit, model: VibronicModel, grid: GridSpec, dt: float) -> None:
    """Grouped on-diagonal bilinear phases; n^2 shared layers per group.

    Affine corrections already live in the Udiag coefficients, so each pair
    contributes the pure cross-register quadratic. Branch-split gammas ride
    the same layers as an open/closed controlled pair. One pair network is
    built per kind (split or not) and copied onto each pair, scaled by gamma.
    """
    n = grid.n
    layout = QubitLayout(model.d, n)
    theta = -dt / model.hbar * grid.dq * grid.dq
    networks = {split: _pair_network(n, theta, split)
                for split in {pair.gamma1 != pair.gamma2 for pair in model.bilinear_diag}}
    for group in schedule_bilinear_diag(model):
        offset = circ._layer + 1
        for idx in group:
            pair = model.bilinear_diag[idx]
            split = pair.gamma1 != pair.gamma2
            scale = [pair.gamma1, pair.gamma2] * n * n if split else pair.gamma1
            circ._extend(networks[split], layout.block_qubits(pair.l, pair.m), offset, scale)


def _pair_network(n: int, theta: float, split: bool) -> Circuit:
    """theta * idx_l * idx_m on registers l (qubits 0..n-1) and m (n..2n-1),
    one layer per bit pair; split=True gives each bit pair a gate per
    electronic branch (qubit 2n, open then closed)."""
    circ = Circuit(2 * n + 1)
    for i in range(n):
        for j in range(n):
            layer = circ.new_layer()
            for branch in ([(2 * n, 0)], [(2 * n, 1)]) if split else ([],):
                circ.add("U1", (n + j,), [(i, 1), *branch], theta * (1 << i) * (1 << j), layer)
    return circ


def _append_bilinear_offdiag(circ: Circuit, model: VibronicModel, grid: GridSpec, dt: float) -> None:
    """Off-diagonal bilinear couplings, each CCRx expanded to 5 gates.

    Affine idx->Q corrections are same-axis rotations on the electronic
    qubit, so they ride the last layer of the coupling block appended just
    before when lam != 0; otherwise they claim a single fresh layer. Each
    block is built once on a pair's 2n + 1 qubits (QubitLayout.block_qubits),
    with angles 2^i (1 on the uncontrolled rotation) and 2^i·2^j, and copied
    onto each pair scaled by 2 mu dt / hbar times q0·dq (q0·q0) or dq·dq.
    """
    if not model.bilinear_off:
        return
    n, q0, dq = grid.n, grid.q_min, grid.dq
    elec = 2 * n  # a pair block's electronic qubit
    layout = QubitLayout(model.d, n)
    pairs = [(layout.block_qubits(p.l, p.m), 2.0 * p.mu * dt / model.hbar) for p in model.bilinear_off]
    if q0 != 0.0:
        shift = Circuit(elec + 1)
        for i in range(elec):
            shift.add("RX", (elec,), ((i, 1),), float(1 << (i % n)), 0)
        shift.add("RX", (elec,), (), 1.0, 0)
        extra = circ._layer if model.lam != 0.0 else circ.new_layer()
        for qubits, s in pairs:
            circ._extend(shift, qubits, extra, [s * q0 * dq] * elec + [s * q0 * q0])
    # each expansion claims the 5 layers after the previous one
    ccrx = Circuit(elec + 1)
    for i in range(n):
        for j in range(n):
            ccrx.gates += decompose_ccrx(Gate("RX", (elec,), ((i, 1), (n + j, 1)), float((1 << i) * (1 << j)),
                                              5 * (i * n + j)))
    for qubits, s in pairs:
        circ._extend(ccrx, qubits, circ._layer + 1, s * dq * dq)


# ---------------------------------------------------------------------------
# Statevector <-> wavepacket and the circuit-engine propagator
# ---------------------------------------------------------------------------


def wavepacket_to_state(psi: Wavepacket, n_extra: int = 0) -> np.ndarray:
    """psi's flat state (QubitLayout.flat) with n_extra |0> bookkeeping
    qubits above the electronic one."""
    layout = QubitLayout(psi.amplitudes.ndim - 1, psi.amplitudes.shape[1].bit_length() - 1)
    state = kernels.allocate_state(layout.total + n_extra)
    state[: 2 << layout.electronic] = layout.flat(psi)
    return state


@dataclass
class CircuitPlan(_soft.Plan):
    """The circuit engine's step: `program` is kernels.compile of `step`,
    the one circuit, for kinetic-first the step between its QFT walls, so
    the state stays in the position basis."""

    step: Circuit = field(init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.step = Circuit(self.layout.total)
        walled = self.split_order == "kinetic-first"
        qft, iqft = walls = build_qft(self.grid.n), build_qft(self.grid.n, inverse=True)
        if walled:
            _copy_to_registers(self.step, qft, self.layout)
        _add_timestep(self.step, self.model, self.grid, self.dt, self.split_order, walls)
        if walled:
            _copy_to_registers(self.step, iqft, self.layout)
        self.program = compile(self.step, self.layout)


def circuit_propagate(
    model: VibronicModel,
    grid: GridSpec,
    time_grid: TimeGrid,
    split_order: str = "potential-first",
    observers: tuple = _soft.DEFAULT_OBSERVERS,
) -> dict:
    """soft.propagate of a CircuitPlan from the model's initial state."""
    plan = CircuitPlan(model, grid, time_grid.dt, split_order)
    return _soft.propagate(plan, initial_state(model, grid), time_grid, observers)


# ---------------------------------------------------------------------------
# Hadamard-test readout of the autocorrelation
# ---------------------------------------------------------------------------


def build_hadamard_test(evolution: Circuit, part: str = "real") -> Circuit:
    """Ancilla-interferometer circuit whose P(0) encodes Re or Im of <psi0|U|psi0>.

    The ancilla is the qubit just above the evolution register. part="imag"
    differs from part="real" by exactly one S gate before the closing H.
    """
    if part not in ("real", "imag"):
        raise CircuitError(f"part must be 'real' or 'imag', got {part!r}")
    anc = evolution.n_qubits
    circ = Circuit(anc + 1)
    circ.add("H", (anc,))
    circ._extend(evolution, None, circ._layer + 1, control=anc)
    if part == "imag":
        circ.add("S", (anc,))
    circ.add("H", (anc,))
    return circ

def hadamard_series(
    model: VibronicModel,
    grid: GridSpec,
    time_grid: TimeGrid,
    split_order: str = "potential-first",
    shots: int | None = None,
    seed: int | None = None,
) -> dict:
    """Autocorrelation A(t) = <psi0|U^t|psi0> as build_hadamard_test reads it.

    After H, controlled U^t and H on an ancilla over |psi0>, the ancilla
    reads 0 with P(0) = (1 + Re A)/2, and with one S gate before the last H,
    P(0) = (1 - Im A)/2. With the ancilla on the top qubit, the controlled
    step is the plain step on the half of the state where the ancilla is set,
    so the interferometer's A(t) is the CircuitPlan's autocorrelation, the
    "exact" series here, read by soft.autocorrelation: half the steps for
    potential-first, whose step is symmetric, and circuit_propagate's series
    for kinetic-first. That plan runs the step between its QFT walls, which
    is conjugate to the held step, so A(t) is the same. With shots,
    "sampled" adds the binomial shot noise of signals.sample_autocorr to it.
    """
    signals.check_seed(seed)
    signals.check_shots(shots)
    plan = CircuitPlan(model, grid, time_grid.dt, split_order)
    ac = _soft.autocorrelation(plan, initial_state(model, grid), time_grid)
    out = {"times": ac.times, "exact": ac.values}
    if shots:
        out["sampled"] = signals.sample_autocorr(ac, shots, seed).values
    return out


# ---------------------------------------------------------------------------
# Phase estimation on the step unitary
# ---------------------------------------------------------------------------


def build_qpe(evolution_step: Circuit, m: int) -> Circuit:
    """Phase-estimation circuit: m-bit readout register over the step unitary.

    Readout qubit j (weight 2^j) controls 2^j applications of the step;
    the register is closed with an inverse QFT. The circuit records m as
    readout_qubits. Its gates are charged against the memory budget first.
    """
    if m < 1:
        raise CircuitError(f"need at least one readout qubit, got {m}")
    kernels.charge(((1 << m) - 1) * len(evolution_step.gates) * kernels._GATE_BYTES,
                   f"{m}-bit phase estimation: its 2^{m} - 1 controlled steps of {len(evolution_step.gates)} gates")
    base = evolution_step.n_qubits
    circ = Circuit(base + m)
    for j in range(m):
        circ.add("H", (base + j,))
    for j in range(m):
        for _ in range(1 << j):
            circ._extend(evolution_step, None, circ._layer + 1, control=base + j)
    iqft = build_qft(m, inverse=True)
    circ.append_circuit(iqft, qubit_map=[base + j for j in range(m)])
    circ.readout_qubits = m
    return circ

def run_qpe(circuit: Circuit, system_state: np.ndarray, shots: int = 0, seed: int | None = None) -> dict:
    """Emulate a phase-estimation circuit over `system_state`.

    Returns the exact readout distribution over 2^m bins plus, when shots>0,
    multinomial counts. The system register is the low-order block and
    `system_state` must fill it exactly.
    """
    m = getattr(circuit, "readout_qubits", None)
    if m is None:
        raise CircuitError("not a phase-estimation circuit; build it with build_qpe")
    signals.check_shots(shots)
    signals.check_seed(seed)
    n_total = circuit.n_qubits
    n_sys = kernels._state_qubits(np.asarray(system_state), 0)
    if n_sys != n_total - m:
        raise CircuitError(f"state has {n_sys} qubits, circuit has {n_total}: "
                           f"{m} readout and {n_total - m} system")
    state = kernels.allocate_state(n_total)
    state[:1 << n_sys] = system_state
    apply(circuit, state)
    probs = np.sum(np.abs(state.reshape(1 << m, -1)) ** 2, axis=1)
    out = {"probs": probs, "m": m}
    if shots:
        counts = signals.sample_counts(probs, shots, seed)
        out["counts"] = {k: int(c) for k, c in enumerate(counts) if c}
    return out

def qpe_phase_to_energy(theta: float, dt: float, hbar: float) -> float:
    """Energy in the principal window [0, 2 pi hbar / dt) for a phase in [0, 1)."""
    window = 2.0 * math.pi * hbar / dt
    return (-theta * window) % window


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def export_gates(circuit: Circuit) -> str:
    """One line per gate: kind, targets, controls with polarity, angle, layer."""
    lines = [f"# qubits={circuit.n_qubits} gates={circuit.gate_count()} depth={circuit.depth()}"]
    for g in circuit.gates:
        parts = [g.kind, "t=" + ",".join(str(q) for q in g.targets)]
        if g.controls:
            parts.append("c=" + ",".join(f"{q}:{p}" for q, p in g.controls))
        if g.theta is not None:
            parts.append(f"theta={g.theta!r}")
        parts.append(f"layer={g.layer}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
