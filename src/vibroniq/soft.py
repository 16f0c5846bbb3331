"""Second-order split-operator propagator: the ground-truth dynamics engine.

One step advances psi by dt through diagonal potential phases, an exact
pointwise rotation for every off-diagonal (electronic X) coupling term, and
kinetic phases. The diagonal phases and the rotation are fused into one
pointwise 2x2 electronic operator. The kinetic step applies, along each mode
axis, that mode's DFT-conjugated phase matrix F^dagger diag(exp(-i K_k dt/hbar)) F:
the same operator as an FFT, phases and inverse FFT over the whole grid, in
its DVR form. The default "potential-first" splitting is the palindrome
V/2 . K . V/2 with the coupling rotation applied innermost (diag, coupling,
K, coupling, diag), so the scheme stays second order; "kinetic-first" is
K/2 . V . K/2 with the potential applied once per step, the layout used by
the second-order (bilinear) model.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    GridSpec,
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


def _diagonal_potentials(model: VibronicModel, grid: GridSpec) -> np.ndarray:
    """V_s(Q) on the full grid, shape (2,) + (N,)*d. s=0 is S1, s=1 is S2."""
    d = model.d
    shape = (grid.size,) * d
    q = grid_points(grid)
    v1 = np.zeros(shape)
    v2 = np.zeros(shape)
    for k, mode in enumerate(model.modes):
        qk = q.reshape((1,) * k + (-1,) + (1,) * (d - k - 1))
        harm = 0.5 * mode.omega * qk**2
        v1 = v1 + harm
        v2 = v2 + harm
        if mode.kappa1 is not None:
            v1 = v1 + mode.kappa1 * qk
            v2 = v2 + mode.kappa2 * qk
    for pair in model.bilinear_diag:
        ql = q.reshape((1,) * pair.l + (-1,) + (1,) * (d - pair.l - 1))
        qm = q.reshape((1,) * pair.m + (-1,) + (1,) * (d - pair.m - 1))
        v1 = v1 + pair.gamma1 * ql * qm
        v2 = v2 + pair.gamma2 * ql * qm
    v1 = v1 - model.delta
    v2 = v2 + model.delta
    return np.stack([v1, v2])


def _coupling_field(model: VibronicModel, grid: GridSpec) -> np.ndarray:
    """Coefficient c(Q) of the electronic X operator, shape (N,)*d."""
    d = model.d
    q = grid_points(grid)
    c = np.zeros((grid.size,) * d)
    if model.lam != 0.0:
        axis = model.coupling_mode
        c = c + model.lam * q.reshape((1,) * axis + (-1,) + (1,) * (d - axis - 1))
    for pair in model.bilinear_off:
        ql = q.reshape((1,) * pair.l + (-1,) + (1,) * (d - pair.l - 1))
        qm = q.reshape((1,) * pair.m + (-1,) + (1,) * (d - pair.m - 1))
        c = c + pair.mu * ql * qm
    return c


def _dft_conjugate(grid: GridSpec, diag: np.ndarray) -> np.ndarray:
    """F^dagger diag(diag) F, F the unitary DFT matrix: a momentum-diagonal
    operator on one mode axis in the position basis."""
    dft = np.fft.fft(np.eye(grid.size), axis=0, norm="ortho")
    return dft.conj().T @ (diag[:, None] * dft)


@dataclass
class PropagatorPlan:
    """Precomputed operators for repeated application of one time step.

    kin[k] is mode k's kinetic propagator in the position basis, p2 the
    kinetic energy per unit omega on one mode axis, F^dagger diag(p^2/2) F,
    and pot holds the four entries (00, 01, 10, 11) of the pointwise 2x2
    electronic operator C.D: the diagonal potential phases D followed by the
    coupling rotation C.
    """

    model: VibronicModel
    grid: GridSpec
    dt: float
    split_order: str = "potential-first"
    vtab: np.ndarray = field(init=False, repr=False)
    ctab: np.ndarray = field(init=False, repr=False)
    kin: np.ndarray = field(init=False, repr=False)
    p2: np.ndarray = field(init=False, repr=False)
    pot: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.split_order not in SPLIT_ORDERS:
            raise ValueError(f"unknown split order {self.split_order!r}")
        hbar = self.model.hbar
        self.vtab = _diagonal_potentials(self.model, self.grid)
        self.ctab = _coupling_field(self.model, self.grid)
        if self.split_order == "potential-first":
            pot_frac, kin_frac = 0.5, 1.0
        else:
            pot_frac, kin_frac = 1.0, 0.5
        p_sq = momentum_points(self.grid) ** 2
        kin_phase = -0.5j * p_sq * (kin_frac * self.dt / hbar)
        self.kin = np.stack([_dft_conjugate(self.grid, np.exp(mode.omega * kin_phase))
                             for mode in self.model.modes])
        self.p2 = _dft_conjugate(self.grid, 0.5 * p_sq)
        # in place, phases first into the diagonal slots, to keep peak memory low
        pot_t = pot_frac * self.dt / hbar
        self.pot = np.empty((4,) + self.ctab.shape, dtype=np.complex128)
        np.exp(-1j * pot_t * self.vtab[0], out=self.pot[0])
        np.exp(-1j * pot_t * self.vtab[1], out=self.pot[3])
        sin_t = np.sin(self.ctab * pot_t)
        np.multiply(sin_t, self.pot[3], out=self.pot[1])
        np.multiply(sin_t, self.pot[0], out=self.pot[2])
        self.pot[1:3] *= -1j
        self.pot[::3] *= np.cos(self.ctab * pot_t)


def _amplitudes(plan: PropagatorPlan, psi: Wavepacket) -> np.ndarray:
    """psi's amplitudes; a ValueError when their shape is not the plan's."""
    shape = (2,) + plan.ctab.shape
    if psi.amplitudes.shape != shape:
        raise ValueError(f"amplitudes of shape {psi.amplitudes.shape} do not match "
                         f"the plan's shape {shape}")
    return psi.amplitudes


def _along(m: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    """The N x N matrix m applied along mode axis k of (2, N, ..., N)
    amplitudes, as one matmul on a reshaped view."""
    shape, n, d = a.shape, a.shape[-1], a.ndim - 1
    if k == d - 1:
        return (a.reshape(-1, n) @ m.T).reshape(shape)
    return (m @ a.reshape(2 * n**k, n, n ** (d - 1 - k))).reshape(shape)


def _apply_kinetic(kin: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Apply each mode's N x N kinetic matrix along its axis."""
    for k, m in enumerate(kin):
        a = _along(m, a, k)
    return a


def _apply_pot(pot: np.ndarray, a: np.ndarray, transpose: bool = False) -> np.ndarray:
    """The pointwise 2x2 operator C.D, or its transpose D.C."""
    p00, p01, p10, p11 = pot
    if transpose:
        p01, p10 = p10, p01
    out = np.empty(a.shape, dtype=np.complex128)
    np.multiply(p00, a[0], out=out[0])
    out[0] += p01 * a[1]
    np.multiply(p10, a[0], out=out[1])
    out[1] += p11 * a[1]
    return out


def step(plan: PropagatorPlan, psi: Wavepacket) -> Wavepacket:
    """Advance psi (position basis) by one dt; returns a new Wavepacket."""
    a = _amplitudes(plan, psi)
    if plan.split_order == "potential-first":
        a = _apply_pot(plan.pot, a)
        a = _apply_kinetic(plan.kin, a)
        a = _apply_pot(plan.pot, a, transpose=True)
    else:
        a = _apply_kinetic(plan.kin, a)
        a = _apply_pot(plan.pot, a)
        a = _apply_kinetic(plan.kin, a)
    return Wavepacket(a)


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


def populations(psi: Wavepacket) -> tuple[float, float]:
    a = psi.amplitudes
    p1 = float(np.sum(np.abs(a[0]) ** 2))
    p2 = float(np.sum(np.abs(a[1]) ** 2))
    return p1, p2


def boundary_maxima(psi: Wavepacket) -> np.ndarray:
    """For each mode, the larger of the first/last grid-slice marginals."""
    prob = np.abs(psi.amplitudes) ** 2
    d = prob.ndim - 1
    out = np.empty(d)
    for k in range(d):
        axis = k + 1
        other = tuple(i for i in range(prob.ndim) if i != axis)
        marg = prob.sum(axis=other)
        out[k] = max(marg[0], marg[-1])
    return out


def energy(plan: PropagatorPlan, psi: Wavepacket) -> float:
    """<H> = <V_diag> + <c(Q) X> + <K>, with <K> = sum_k omega_k <a|p2_k a>."""
    a = _amplitudes(plan, psi)
    prob = np.abs(a) ** 2
    ev = float(np.sum(plan.vtab * prob))
    ec = float(np.sum(plan.ctab * 2.0 * np.real(np.conj(a[0]) * a[1])))
    ek = sum(mode.omega * np.vdot(a, _along(plan.p2, a, k)).real
             for k, mode in enumerate(plan.model.modes))
    return ev + ec + float(ek)


def _sample_loop(state, advance, time_grid: TimeGrid, record):
    """The sampling loop of both engines.

    Calls record(state) at step 0 and after every sample_stride-th step,
    with state = advance(state) between; returns the final state.
    """
    record(state)
    for s in range(1, time_grid.n_steps + 1):
        state = advance(state)
        if s % time_grid.sample_stride == 0:
            record(state)
    return state


def _observe(state, advance, held, position, time_grid: TimeGrid, observers, plan=None):
    """Run the sampling loop recording the named observers.

    held(state) returns the engine's amplitudes with the electronic index
    first, in any unitary basis (autocorrelation and populations do not
    depend on it); position(state) returns a position-basis Wavepacket for
    boundary and energy, whose tables come from `plan`. Returns the series
    keyed by observer name and the final state.
    """
    unknown = set(observers) - set(OBSERVERS)
    if unknown:
        raise ValueError(f"unknown observers {sorted(unknown)}; pick from {list(OBSERVERS)}")
    rows: dict = {name: [] for name in OBSERVERS if name in observers}
    ref = held(state).copy()

    def record(s) -> None:
        amps = held(s)
        if "autocorr" in rows:
            rows["autocorr"].append(np.vdot(ref, amps))
        if "population" in rows:
            rows["population"].append(populations(Wavepacket(amps)))
        if "boundary" in rows or "energy" in rows:
            psi = position(s)
            if "boundary" in rows:
                rows["boundary"].append(boundary_maxima(psi))
            if "energy" in rows:
                rows["energy"].append(energy(plan, psi))

    state = _sample_loop(state, advance, time_grid, record)
    times = time_grid.sample_times()
    out: dict = {}
    if "autocorr" in rows:
        out["autocorr"] = AutocorrSeries(times, np.array(rows["autocorr"], dtype=np.complex128))
    if "population" in rows:
        pops = np.array(rows["population"])
        out["population"] = PopulationSeries(times, pops[:, 0], pops[:, 1])
    if "boundary" in rows:
        out["boundary"] = BoundarySeries(times, np.array(rows["boundary"]))
    if "energy" in rows:
        out["energy"] = EnergySeries(times, np.array(rows["energy"]))
    return out, state


def propagate(
    plan: PropagatorPlan,
    psi0: Wavepacket,
    time_grid: TimeGrid,
    observers: tuple[str, ...] = DEFAULT_OBSERVERS,
) -> dict:
    """Run n_steps steps, recording observables every sample_stride steps.

    Returns a dict keyed by observer name; "state" (the final Wavepacket) is
    always included.
    """
    out, psi = _observe(
        psi0, lambda p: step(plan, p), lambda p: p.amplitudes, lambda p: p,
        time_grid, observers, plan,
    )
    out["state"] = psi
    return out


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
