"""Second-order split-operator propagator: the ground-truth dynamics engine.

One step advances psi by dt through the potential, the diagonal phases of
both surfaces as one full-state phase table and then the coupling rotation
exp(-i c(Q) X dt/hbar), and the kinetic phases. Where the coupling field
lives on the last mode alone (both pyrazine models), the rotation is one
dense operation on the last mode register and the electronic qubit, which
folds into the last turn of the kinetic chain beside it, in both split
orders: PropagatorPlan lays the plain Strang step and hands it to
kernels.fold, the pass kernels.compile runs on the circuit engine's step,
so the program has the circuit engine's operation kinds and shapes. Any
other rotation is a full-state phase table between two Hadamards on the
electronic qubit. The kinetic step applies,
along each mode axis, that mode's DFT-conjugated phase matrix
F^dagger diag(exp(-i K_k dt/hbar)) F: the same operator as an FFT, phases
and inverse FFT over the whole grid, in its DVR form. The d matrices run as
one chain of transposing matmuls (kernels.turn_ops): each multiplies the
lowest mode axis as one GEMM and turns it to the top, and the last one
turns the grid back into its own order, batched over the electronic index
or, folded, acting on it too. The default "potential-first" splitting is
the palindrome V/2 . K . V/2 with the coupling rotation applied innermost
(diag, coupling, K, coupling, diag), so the scheme stays second order;
"kinetic-first" is K/2 . V . K/2 with the potential (diag, then coupling)
applied once per step, the layout used by the second-order (bilinear)
model.

The potential is a list of terms per surface (_terms) at any mode
coordinates that broadcast; a plan passes the grid axes. Summed they give
the grid tables, and exp(-i V_s t/hbar) is the product of one exponential
per mode (N points), per bilinear pair (N^2) and of the constant.

Plan, the base of PropagatorPlan and circuits.CircuitPlan, holds only what
both engines read: the checked split order, the memory charge, the layout
(model.QubitLayout, the flat-state basis of both engines), the compiled
step with its outer half-step and symmetry, and the grid terms of H, whose
tables energy builds on its first read; each engine builds its own step,
and both fold it through kernels.fold. A non-finite dt is refused first.
propagate advances k steps between two samples as one block, each step's
closing half-step and the next step's opening half-step applied as one
merged operation (Strang merging), so a block of k steps costs k - 1
half-steps fewer than k steps. A run holds what its observers
read: one |a|^2 buffer, filled once per sample, and for autocorr the
reference state.

autocorrelation is the one entry for a readout that needs only A(t) (the
spectrum, the shot scans, the Hadamard test). A potential-first step is
symmetric (Plan.symmetric), so for a real psi0 it propagates half the steps,
A(2 tau) = psi(tau)^T psi(tau), and keeps no reference state; any other run
is propagate's.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .model import (
    GridSpec,
    ModelError,
    QubitLayout,
    TimeGrid,
    VibronicModel,
    Wavepacket,
    grid_points,
    ground_gaussian,
    momentum_points,
)

SPLIT_ORDERS = ("potential-first", "kinetic-first")
OBSERVERS = ("autocorr", "population", "boundary", "energy")
DEFAULT_OBSERVERS = ("autocorr", "population", "boundary")


def _on_axis(q: np.ndarray, k: int, d: int) -> np.ndarray:
    """The grid points q along mode k's axis of a d-mode grid in the flat
    state's axis order (QubitLayout: mode d-1 first), for broadcasting."""
    return q.reshape((1,) * (d - 1 - k) + (-1,) + (1,) * k)


def _terms(model: VibronicModel, coords: list) -> tuple[list, list, list]:
    """The terms of V_0(Q) (S1), V_1(Q) (S2) and the coupling field c(Q) at
    the coordinates coords[k] of mode k, arrays that broadcast against each
    other. Each list holds its terms in the order they add up: for V_s each
    mode's quadratic and then its linear term on that mode's coordinates,
    each bilinear pair's term on its two, then the constant offset; for c
    the linear coupling and then each off-diagonal pair's term."""
    surfaces = []
    for s, offset in ((0, -model.delta), (1, model.delta)):
        terms = []
        for mode, qk in zip(model.modes, coords):
            terms.append(0.5 * mode.omega * qk**2)
            if mode.kappa1 is not None:
                terms.append((mode.kappa1, mode.kappa2)[s] * qk)
        terms += [(pair.gamma1, pair.gamma2)[s] * coords[pair.l] * coords[pair.m]
                  for pair in model.bilinear_diag]
        surfaces.append(terms + [offset])
    coupling = [model.lam * coords[model.coupling_mode]] if model.lam != 0.0 else []
    coupling += [pair.mu * coords[pair.l] * coords[pair.m] for pair in model.bilinear_off]
    return surfaces[0], surfaces[1], coupling


def _combine(ufunc: np.ufunc, start: float, parts: list, out: np.ndarray) -> np.ndarray:
    """out = start (op) parts[0] (op) parts[1] ..., left to right by
    broadcasting: each step runs on the union of its operands' axes, and
    those that span out's shape run in place in out."""
    acc = start
    for part in parts:
        full = np.broadcast(acc, part).shape == out.shape
        acc = ufunc(acc, part, out=out if full else None)
    if acc is not out:
        out[...] = acc
    return out


def _phases(terms: list, tau: float, out: np.ndarray) -> np.ndarray:
    """exp(-i tau V) into out, V the sum of terms: one exp per group of
    terms on the same axes (N points per mode, N^2 per pair, one for the
    constant), and the product of the groups, smallest first, by _combine:
    no full-grid temporary."""
    groups: dict = {}
    for term in terms:
        groups[np.shape(term)] = groups.get(np.shape(term), 0.0) + term
    factors = sorted((np.exp(-1j * tau * g) for g in groups.values()), key=np.size)
    return _combine(np.multiply, 1.0, factors, out)


@dataclass
class Plan:
    """A subclass compiles one step dt into `program`, a kernels.Program
    over the flat state of `layout`. The `halves` operations at each end of
    the program form its outer half-step: the potential for potential-first,
    the kinetic chain (one matrix per mode register, in register order) for
    kinetic-first. energy's tables are built on its first read: vtab holds
    V_s(Q), ctab the coupling field c(Q), each the sum of its _terms at the
    grid axes, added in the order of the list and over the full grid only
    once the partial sum spans it; p2[k] applies the kinetic energy per unit
    omega, F^dagger diag(p^2/2) F, on mode k's register."""

    model: VibronicModel
    grid: GridSpec
    dt: float
    split_order: str = "potential-first"
    layout: QubitLayout = field(init=False, repr=False)
    program: kernels.Program = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.split_order not in SPLIT_ORDERS:
            raise kernels.CircuitError(f"unknown split order {self.split_order!r}")
        if not math.isfinite(self.dt):
            raise ModelError(f"dt must be finite, got {self.dt!r}")
        d, n = self.model.d, self.grid.n
        kernels.charge(kernels.run_bytes(d, n), f"a {d * n + 1}-qubit statevector needs {16 << d * n + 1} bytes and a "
                       f"run holds {kernels.RUN_STATEVECTORS} of them and {kernels.RUN_OPERATORS * (d + 1)} "
                       f"dense {n + 1}-qubit operators")
        self.layout = QubitLayout(d, n)

    @property
    def halves(self) -> int:
        return 1 if self.split_order == "potential-first" else self.model.d

    @property
    def symmetric(self) -> bool:
        """Whether the step U is symmetric, U^T = U in the flat basis:
        potential-first, whose step in both engines is the palindrome
        D . C . K . C . D of symmetric factors (diagonal phases, a rotation
        exp(-i theta X) per grid point, and kinetic propagators
        F^dagger diag(exp(-i K_k t/hbar)) F with p^2 even in p). It follows
        from the structure; a test pins it, nothing checks it at run time."""
        return self.split_order == "potential-first"

    @functools.cached_property
    def _grid_terms(self) -> tuple[list, list, list]:
        """_terms at the grid points of each mode, on its axis of the flat order."""
        d, q = self.model.d, grid_points(self.grid)
        return _terms(self.model, [_on_axis(q, k, d) for k in range(d)])

    @functools.cached_property
    def vtab(self) -> np.ndarray:
        vtab = np.empty((2,) + (self.grid.size,) * self.model.d)
        for terms, out in zip(self._grid_terms, vtab):
            _combine(np.add, 0.0, terms, out)
        return vtab

    @functools.cached_property
    def ctab(self) -> np.ndarray:
        return _combine(np.add, 0.0, self._grid_terms[2], np.empty((self.grid.size,) * self.model.d))

    @functools.cached_property
    def p2(self) -> list:
        # F^dagger (diag(p^2/2) F) as an inverse FFT along axis 0: two N x N matrices at once
        p2 = np.fft.ifft(self._dft() * (0.5 * momentum_points(self.grid) ** 2)[:, None], axis=0, norm="ortho")
        return [kernels.register_op(self.layout.mode_qubits(k), p2) for k in range(self.model.d)]

    def _dft(self) -> np.ndarray:
        """F, the unitary DFT matrix of one mode register."""
        return np.fft.fft(np.eye(self.grid.size), axis=0, norm="ortho")


class PropagatorPlan(Plan):
    """The soft engine's step: mode k's kinetic propagator
    F^dagger diag(exp(-i K_k t/hbar)) F acts on its register, and the
    potential as the diagonal phases D, one full-state phase table, and the
    coupling rotation C = exp(-i c(Q) X t/hbar): potential-first D, C, the
    chain, C, D, kinetic-first the chain, D, C, the chain, as the circuit
    engine compiles them. Where c(Q) lives on mode d-1 alone (local),
    C is one 2x2 per grid point of register d-1, a dense operation on that
    register and the electronic qubit. The plan lays these operations as
    they stand and kernels.fold folds each C into the last turn of the chain
    beside it: potential-first both C into the one chain, kinetic-first C
    into the tail chain, whose partner in the bridge, the head chain, widens
    its last turn with the identity; with one mode there is no chain, and
    nothing folds; no coupling, no C. Any other C is h, Z, h, as
    exp(-i theta X) = H exp(-i theta Z) H (Nielsen and Chuang, sec. 4.2): h
    the Hadamard on the electronic qubit, Z a phase table exp(-+i c(Q) t/hbar)
    on S1 and S2. D (each surface's half in place) and Z are _phases of the
    _grid_terms, the local C reads the coupling term on mode d-1's axis, and
    one DFT matrix conjugates the kinetic propagators.
    """

    @property
    def local(self) -> bool:
        """Whether the coupling field c(Q) lives on mode d-1 alone: no
        off-diagonal bilinear term, and no linear coupling or one on mode d-1."""
        m = self.model
        return not m.bilinear_off and (m.lam == 0.0 or m.coupling_mode == m.d - 1)

    def __post_init__(self) -> None:
        super().__post_init__()
        hbar, d, layout = self.model.hbar, self.model.d, self.layout
        pot_first = self.split_order == "potential-first"
        pot_frac, kin_frac = (0.5, 1.0) if pot_first else (1.0, 0.5)
        kin_phase = -0.5j * momentum_points(self.grid) ** 2 * (kin_frac * self.dt / hbar)
        dft = self._dft()
        dft_h = dft.conj().T
        kin = kernels.turn_ops([dft_h @ (np.exp(m.omega * kin_phase)[:, None] * dft) for m in self.model.modes])
        pot_t = pot_frac * self.dt / hbar
        # exp(-i V_s t/hbar) of S1 and S2: the halves of the phase table
        pot = np.empty((2,) + (self.grid.size,) * d, dtype=np.complex128)
        for terms, out in zip(self._grid_terms, pot):
            _phases(terms, pot_t, out)
        phases = kernels.phase_op(range(layout.total), pot.reshape(-1))
        coupling, rot = self._grid_terms[2], []
        if not self.local:
            zrot = np.empty_like(pot)
            _phases(coupling, pot_t, zrot[0])
            np.conjugate(zrot[0], out=zrot[1])
            h = kernels.register_op([layout.electronic], np.array(kernels._MATS["H"]))
            rot = [h, kernels.phase_op(range(layout.total), zrot.reshape(-1)), h]
        elif coupling:
            # c(q_j) = lam q_j, the one term, on mode d-1's axis
            theta, j = pot_t * coupling[0].reshape(-1), np.arange(self.grid.size)
            # [[cos, -i sin], [-i sin, cos]] of diagonal blocks, placed entry by entry
            c = np.zeros((2, self.grid.size, 2, self.grid.size), dtype=np.complex128)
            c[0, j, 0, j] = c[1, j, 1, j] = np.cos(theta)
            c[0, j, 1, j] = c[1, j, 0, j] = -1j * np.sin(theta)
            rot = [kernels.register_op(layout.block_qubits(d - 1), c.reshape(2 * self.grid.size, -1))]
        # potential-first, the two h of h, Z, h that border the chain cancel
        ops = [*kin, phases, *rot, *kin] if not pot_first else [phases, *rot[:2], *kin, *rot[-2:], phases]
        self.program = kernels.Program(layout.total, kernels.fold(ops, d))


def step(plan: Plan, psi: Wavepacket) -> Wavepacket:
    """Advance psi by one dt under either engine's plan; returns a new Wavepacket."""
    return plan.layout.position(plan.program.run(plan.layout.flat(psi)))


@dataclass
class AutocorrSeries:
    times: np.ndarray
    values: np.ndarray


@dataclass
class PopulationSeries:
    times: np.ndarray
    p_s1: np.ndarray
    p_s2: np.ndarray


@dataclass
class BoundarySeries:
    """Per-mode maxima of the two extreme-slice marginal probabilities."""

    times: np.ndarray
    per_mode: np.ndarray  # shape (n_samples, d)


@dataclass
class EnergySeries:
    times: np.ndarray
    values: np.ndarray


def populations(prob: np.ndarray) -> tuple[float, float]:
    """The population of each surface from |a|^2 in the flat order: one
    reduction, each surface's the pairwise sum np.sum takes."""
    lower, upper = np.add.reduce(prob.reshape(2, -1), axis=1)
    return float(lower), float(upper)


def boundary_maxima(prob: np.ndarray) -> np.ndarray:
    """For each mode, mode 0 first, the larger of its first and last grid-slice
    marginals: the sums of two edge slices of |a|^2 in the flat order."""
    d = prob.ndim - 1
    out = np.empty(d)
    for k in range(d):
        edge = (slice(None),) * (d - k)
        out[k] = max(np.add.reduce(prob[edge + (0,)], axis=None), np.add.reduce(prob[edge + (-1,)], axis=None))
    return out


def energy(plan: Plan, psi: Wavepacket, prob: np.ndarray) -> float:
    """<H> = <V_diag> + <c(Q) X> + <K>, with <K> = sum_k omega_k <a|p2_k a>,
    from the grid terms of either engine's plan, psi and its |a|^2 prob, both
    read in the flat order (for plan.layout.position's view, the flat state
    itself); all products go to the plan's program scratch."""
    vtab, ctab, p2 = plan.vtab, plan.ctab, plan.p2  # built before the scratch, on a first call
    flat = plan.layout.flat_order(psi).reshape(-1)
    spare = plan.program.scratch(flat)
    ev = np.vdot(vtab, prob)
    # Re(conj(a_0) a_1) = re_0 re_1 + im_0 im_1 on float views: float times complex casts c
    re_im = flat.view(np.float64).reshape(2, -1, 2)
    products = np.multiply(*re_im, out=spare.view(np.float64).reshape(2, -1, 2)[0])
    ec = 2.0 * np.sum(ctab.reshape(-1) @ products)
    # each p2 operation is dense on one register: it writes only the scratch
    ek = sum(mode.omega * np.vdot(flat, kernels._apply_op(op, flat, spare)[0]).real
             for op, mode in zip(p2, plan.model.modes))
    return float(ev + ec + ek)


def propagate(
    plan: Plan,
    psi0: Wavepacket,
    time_grid: TimeGrid,
    observers: tuple[str, ...] = DEFAULT_OBSERVERS,
) -> dict:
    """Run n_steps steps of either engine's plan, recording the named
    observers at step 0 and after every sample_stride-th step.

    psi0 is copied once into the flat state of plan.layout, and the copy is
    advanced in place, k steps at a time as one block between two samples
    (kernels.Program.stepper); autocorr alone keeps a reference copy. The
    layout's position views the state for energy and the final "state".
    Returns the series keyed by observer name, plus "state".
    """
    unknown = set(observers) - set(OBSERVERS)
    if unknown:
        raise kernels.CircuitError(f"unknown observers {sorted(unknown)}; pick from {list(OBSERVERS)}")
    state = plan.layout.flat(psi0)
    del psi0  # a caller's temporary psi0 is freed: the run reads only the copy
    return _propagate_flat(plan, state, time_grid, observers)


def _propagate_flat(plan: Plan, state: np.ndarray, time_grid: TimeGrid, observers: tuple[str, ...]) -> dict:
    """propagate's run from the flat state, which it advances in place."""
    advance = plan.program.stepper(plan.halves)
    rows: dict = {name: [] for name in OBSERVERS if name in observers}
    ref = state.copy() if "autocorr" in rows else None
    # |a|^2 in the flat order, filled once per sample for the observers that read it
    prob = np.empty((2,) + (plan.grid.size,) * plan.model.d) if rows.keys() - {"autocorr"} else None

    def record() -> None:
        if "autocorr" in rows:
            rows["autocorr"].append(np.vdot(ref, state))
        if prob is not None:
            np.square(np.abs(state.reshape(prob.shape), out=prob), out=prob)
        if "population" in rows:
            rows["population"].append(populations(prob))
        if "boundary" in rows:
            rows["boundary"].append(boundary_maxima(prob))
        if "energy" in rows:
            rows["energy"].append(energy(plan, plan.layout.position(state), prob))

    stride = time_grid.sample_stride
    record()
    for _ in range(time_grid.n_steps // stride):
        advance(state, stride)
        record()
    advance(state, time_grid.n_steps % stride)
    times = time_grid.sample_times()
    series = {"autocorr": lambda r: AutocorrSeries(times, np.array(r, dtype=np.complex128)),
              "population": lambda r: PopulationSeries(times, *np.array(r).T),
              "boundary": lambda r: BoundarySeries(times, np.array(r)),
              "energy": lambda r: EnergySeries(times, np.array(r))}
    out = {name: series[name](r) for name, r in rows.items()}
    out["state"] = plan.layout.position(state)
    return out


def autocorrelation(plan: Plan, psi0: Wavepacket, time_grid: TimeGrid) -> AutocorrSeries:
    """A(t) = <psi0|U^t|psi0> at the sample steps of time_grid, as
    propagate(plan, psi0, time_grid, ("autocorr",)) records it.

    For a real psi0 and a symmetric step (Plan.symmetric),
    A(2 tau) = psi(tau)^T psi(tau) and A(2 tau + 1) = psi(tau)^T psi(tau + 1),
    psi(tau) = U^tau psi0 (Engel, Chem. Phys. Lett. 189, 76 (1992); Beck et
    al., Phys. Rep. 324, 1 (2000)), so half the steps are enough: one state
    advances to floor(t/2) for each sample t, an odd t advances a copy in
    one spare buffer one step further, and the two swap roles. No reference
    copy is kept. Any other plan or psi0 takes propagate's path.
    """
    state = plan.layout.flat(psi0)
    del psi0  # as in propagate: a caller's temporary psi0 is freed
    if not plan.symmetric or np.any(state.imag):
        return _propagate_flat(plan, state, time_grid, ("autocorr",))["autocorr"]
    advance = plan.program.stepper(plan.halves)
    at, values, spare = 0, [], None
    for t in time_grid.sample_steps():
        advance(state, t // 2 - at)
        at = t // 2
        if t % 2:
            if spare is None:  # on the first odd sample: an even series holds one state
                spare = np.empty_like(state)
            spare[...] = state
            values.append(state @ advance(spare, 1))
            state, spare, at = spare, state, at + 1
        else:
            values.append(state @ state)
    return AutocorrSeries(time_grid.sample_times(), np.array(values, dtype=np.complex128))


def zpe(model: VibronicModel, grid: GridSpec) -> float:
    """Grid estimate of the vibrational zero-point energy of the mode Gaussians.

    Sums, mode by mode, <K> evaluated in the FFT dual basis and the harmonic
    <(omega/2) Q^2> on the position grid; converges to sum(omega)/2. Constant
    electronic offsets and linear shifts play no part in this check.
    """
    q = grid_points(grid)
    p = momentum_points(grid)
    psi = ground_gaussian(grid)
    psit = np.fft.fft(psi, norm="ortho")
    total = 0.0
    for mode in model.modes:
        kin = 0.5 * mode.omega * float(np.sum(p**2 * np.abs(psit) ** 2))
        pot = 0.5 * mode.omega * float(np.sum(q**2 * np.abs(psi) ** 2))
        total += kin + pot
    return total
