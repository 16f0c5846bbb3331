import dataclasses
import functools
import re
import tracemalloc

import numpy as np
import pytest
from test_circuits import PLANS, bilinear_tiny, flat_prob

from vibroniq import kernels, soft
from vibroniq.circuits import apply, circuit_propagate
from vibroniq.kernels import CircuitError, MemoryBudgetError
from vibroniq.model import (
    GridSpec,
    ModelError,
    ModeParams,
    QubitLayout,
    TimeGrid,
    VibronicModel,
    Wavepacket,
    get_model,
    grid_points,
    initial_state,
    momentum_points,
    pyrazine_2mode,
    pyrazine_4d,
)
from vibroniq.soft import (
    OBSERVERS,
    SPLIT_ORDERS,
    PropagatorPlan,
    boundary_maxima,
    energy,
    populations,
    propagate,
    step,
    zpe,
)


def dense_hamiltonian(model: VibronicModel, grid: GridSpec) -> np.ndarray:
    """Exact matrix of the model on the product grid, electronic block first."""
    q = grid_points(grid)
    p = momentum_points(grid)
    npts = grid.size
    d = model.d
    shape = (npts,) * d
    size = npts**d

    def field(fn):
        out = np.zeros(shape)
        for axis in range(d):
            vec = fn(axis)
            out = out + vec.reshape((1,) * axis + (npts,) + (1,) * (d - axis - 1))
        return out.reshape(size)

    quad = field(lambda ax: 0.5 * model.modes[ax].omega * q**2)
    lin1 = field(lambda ax: (model.modes[ax].kappa1 or 0.0) * q)
    lin2 = field(lambda ax: (model.modes[ax].kappa2 or 0.0) * q)
    v1 = np.diag(-model.delta + quad + lin1)
    v2 = np.diag(model.delta + quad + lin2)
    coupling = np.zeros((size, size))
    if model.lam:
        cfield = field(lambda ax: model.lam * q if ax == model.coupling_mode else 0.0 * q)
        coupling = np.diag(cfield)
    dft = np.exp(2j * np.pi * np.outer(np.arange(npts), np.arange(npts)) / npts) / np.sqrt(npts)
    kin1 = dft @ np.diag(0.5 * model.modes[0].omega * p**2) @ dft.conj().T
    kin = np.zeros((size, size), dtype=complex)
    for axis in range(d):
        kmode = dft @ np.diag(0.5 * model.modes[axis].omega * p**2) @ dft.conj().T
        ops = [np.eye(npts)] * d
        ops[axis] = kmode
        full = ops[0]
        for op in ops[1:]:
            full = np.kron(full, op)
        kin = kin + full
    del kin1
    h = np.zeros((2 * size, 2 * size), dtype=complex)
    h[:size, :size] = v1 + kin
    h[size:, size:] = v2 + kin
    h[:size, size:] = coupling
    h[size:, :size] = coupling
    return h


def exact_propagator(h: np.ndarray, dt: float, hbar: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt / hbar)) @ v.conj().T


def kinetic_field(model: VibronicModel, grid: GridSpec) -> np.ndarray:
    """K(p) = sum_k (omega_k/2) p_k^2 in DFT output order, shape (N,)*d."""
    d = model.d
    p = momentum_points(grid)
    k = np.zeros((grid.size,) * d)
    for i, mode in enumerate(model.modes):
        k = k + 0.5 * mode.omega * p.reshape((1,) * i + (-1,) + (1,) * (d - i - 1)) ** 2
    return k


def position_tables(plan: PropagatorPlan) -> tuple[np.ndarray, np.ndarray]:
    """The plan's vtab and ctab, kept in the flat order (mode d-1 first),
    with their mode axes reversed into psi's order (mode 0 first)."""
    return plan.vtab.transpose(0, *range(plan.model.d, 0, -1)), plan.ctab.T


def fft_energy(plan: PropagatorPlan, a: np.ndarray) -> float:
    """<H> with the kinetic part as sum K(p) |fftn(a)|^2 over the mode axes."""
    axes = tuple(range(1, a.ndim))
    vtab, ctab = position_tables(plan)
    ev = np.sum(vtab * np.abs(a) ** 2)
    ec = np.sum(ctab * 2.0 * np.real(np.conj(a[0]) * a[1]))
    at = np.fft.fftn(a, axes=axes, norm="ortho")
    return float(ev + ec + np.sum(kinetic_field(plan.model, plan.grid) * np.abs(at) ** 2))


def fft_step(plan: PropagatorPlan, a: np.ndarray) -> np.ndarray:
    """The plain split-operator step: fftn/ifftn kinetic phases, diagonal
    potential phases and the coupling rotation as separate passes."""
    hbar, axes = plan.model.hbar, tuple(range(1, a.ndim))
    pot_frac, kin_frac = (0.5, 1.0) if plan.split_order == "potential-first" else (1.0, 0.5)
    vtab, ctab = position_tables(plan)
    exp_pot = np.exp(-1j * vtab * (pot_frac * plan.dt / hbar))
    theta = ctab * (pot_frac * plan.dt / hbar)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    exp_kin = np.exp(-1j * kinetic_field(plan.model, plan.grid) * (kin_frac * plan.dt / hbar))

    def coupling(x):
        return np.stack([cos_t * x[0] - 1j * sin_t * x[1], -1j * sin_t * x[0] + cos_t * x[1]])

    def kinetic(x):
        return np.fft.ifftn(np.fft.fftn(x, axes=axes, norm="ortho") * exp_kin, axes=axes, norm="ortho")

    if plan.split_order == "potential-first":
        return exp_pot * coupling(kinetic(coupling(a * exp_pot)))
    return kinetic(coupling(exp_pot * kinetic(a)))


def grid_loop_tables(model: VibronicModel, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """vtab and ctab summed over the full grid one term at a time, each mode's
    quadratic then linear term, then the pairs, then the offset."""
    d, q = model.d, grid_points(grid)

    def on_axis(k):
        return q.reshape((1,) * (d - 1 - k) + (-1,) + (1,) * k)

    surfaces = []
    for s, offset in ((0, -model.delta), (1, model.delta)):
        v = np.zeros((grid.size,) * d)
        for k, mode in enumerate(model.modes):
            v = v + 0.5 * mode.omega * on_axis(k) ** 2
            if mode.kappa1 is not None:
                v = v + (mode.kappa1, mode.kappa2)[s] * on_axis(k)
        for pair in model.bilinear_diag:
            v = v + (pair.gamma1, pair.gamma2)[s] * on_axis(pair.l) * on_axis(pair.m)
        surfaces.append(v + offset)
    c = np.zeros((grid.size,) * d)
    if model.lam != 0.0:
        c = c + model.lam * on_axis(model.coupling_mode)
    for pair in model.bilinear_off:
        c = c + pair.mu * on_axis(pair.l) * on_axis(pair.m)
    return np.stack(surfaces), c


def assert_potential_tables(plan: PropagatorPlan) -> None:
    """vtab and ctab equal the full-grid loop's bit for bit, and the step's
    phase tables are within 1e-14 of np.exp of them: the diagonal phases D
    and, where the coupling is not local, the Z rotation's exp(-+i tau c) on
    S1 and S2, in step order (potential-first: D, Z, Z, D)."""
    vtab, ctab = grid_loop_tables(plan.model, plan.grid)
    assert np.array_equal(plan.vtab, vtab) and np.array_equal(plan.ctab, ctab)
    pot_first = plan.split_order == "potential-first"
    tau = (0.5 if pot_first else 1.0) * plan.dt / plan.model.hbar
    want = [np.exp(-1j * tau * vtab)] + ([] if plan.local else [np.exp([-1j * tau * ctab, 1j * tau * ctab])])
    got = [table for _, how, table in plan.program.ops if how == "phase"]
    for table, exact in zip(got, want + want[::-1] if pot_first else want, strict=True):
        assert np.max(np.abs(table.reshape(-1) - exact.reshape(-1))) < 1e-14


def random_packet(model: VibronicModel, grid: GridSpec, rng: np.random.Generator) -> Wavepacket:
    shape = (2,) + (grid.size,) * model.d
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return Wavepacket(a / np.linalg.norm(a))


def tiny_model() -> VibronicModel:
    return VibronicModel(
        modes=(
            ModeParams("a", 0.0740, "Ag", kappa1=-0.0964, kappa2=0.1194),
            ModeParams("c", 0.0936, "B1g"),
        ),
        lam=0.1825,
        delta=0.4617,
    )


def test_norm_conservation_per_step():
    model = pyrazine_2mode()
    grid = GridSpec(n=4, q_min=-5.0, q_max=5.0)
    plan = PropagatorPlan(model, grid, dt=0.2)
    psi = initial_state(model, grid)
    for _ in range(200):
        psi = step(plan, psi)
        assert abs(psi.norm() - 1.0) < 1e-12


def test_step_against_dense_propagator():
    model = tiny_model()
    grid = GridSpec(n=2, q_min=-5.0, q_max=5.0)
    h = dense_hamiltonian(model, grid)
    psi = initial_state(model, grid)
    vec = psi.amplitudes.reshape(-1).copy()
    dt = 0.05
    u = exact_propagator(h, dt, model.hbar)
    plan = PropagatorPlan(model, grid, dt)
    for _ in range(40):
        psi = step(plan, psi)
        vec = u @ vec
    err = np.linalg.norm(psi.amplitudes.reshape(-1) - vec)
    assert err < 2e-4


def test_second_order_convergence():
    model = tiny_model()
    grid = GridSpec(n=2, q_min=-5.0, q_max=5.0)
    h = dense_hamiltonian(model, grid)
    total = 4.0
    errors = []
    for n_steps in (16, 32):
        dt = total / n_steps
        u = exact_propagator(h, dt, model.hbar)
        plan = PropagatorPlan(model, grid, dt)
        psi = initial_state(model, grid)
        vec = psi.amplitudes.reshape(-1).copy()
        for _ in range(n_steps):
            psi = step(plan, psi)
            vec = u @ vec
        errors.append(np.linalg.norm(psi.amplitudes.reshape(-1) - vec))
    ratio = errors[0] / errors[1]
    assert 3.0 < ratio < 5.0


def test_kinetic_first_is_first_order_in_the_coupling():
    # the reversed ordering has no palindromic cancellation, so halving dt
    # should shrink the error by about 2, not 4
    model = tiny_model()
    grid = GridSpec(n=2, q_min=-5.0, q_max=5.0)
    h = dense_hamiltonian(model, grid)
    total = 4.0
    errors = []
    for n_steps in (16, 32):
        dt = total / n_steps
        u = exact_propagator(h, dt, model.hbar)
        plan = PropagatorPlan(model, grid, dt, split_order="kinetic-first")
        psi = initial_state(model, grid)
        vec = psi.amplitudes.reshape(-1).copy()
        for _ in range(n_steps):
            psi = step(plan, psi)
            vec = u @ vec
        errors.append(np.linalg.norm(psi.amplitudes.reshape(-1) - vec))
    ratio = errors[0] / errors[1]
    assert 1.5 < ratio < 3.0


def test_observer_series_shapes():
    model = pyrazine_2mode()
    grid = GridSpec(n=3, q_min=-5.0, q_max=5.0)
    tg = TimeGrid(dt=0.25, n_steps=32, sample_stride=4)
    plan = PropagatorPlan(model, grid, tg.dt)
    out = propagate(plan, initial_state(model, grid), tg)
    acf = out["autocorr"]
    pops = out["population"]
    bnd = out["boundary"]
    assert len(acf.times) == 9
    assert acf.values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(acf.values) <= 1.0 + 1e-10)
    assert np.allclose(pops.p_s1 + pops.p_s2, 1.0, atol=1e-12)
    assert bnd.per_mode.shape == (9, 2)
    assert out["state"].norm() == pytest.approx(1.0, abs=1e-10)


def test_energy_observer_drift_is_second_order():
    model = pyrazine_2mode()
    grid = GridSpec(n=4, q_min=-6.0, q_max=6.0)

    def max_drift(dt, n_steps):
        tg = TimeGrid(dt=dt, n_steps=n_steps)
        plan = PropagatorPlan(model, grid, dt)
        e = propagate(plan, initial_state(model, grid), tg, observers=("energy",))["energy"].values
        return np.max(np.abs(e - e[0]))

    # the splitting conserves a shadow energy; the true <H> wobbles at O(dt^2)
    coarse = max_drift(0.1, 50)
    fine = max_drift(0.05, 100)
    assert coarse < 1e-4, coarse
    assert 3.0 < coarse / fine < 5.5, (coarse, fine)


def test_unknown_observer_rejected():
    model = pyrazine_2mode()
    grid = GridSpec(n=3, q_min=-5.0, q_max=5.0)
    tg = TimeGrid(dt=0.25, n_steps=4)
    plan = PropagatorPlan(model, grid, tg.dt)
    # CircuitError, the type of the plan's split-order check
    with pytest.raises(ValueError, match="entropy") as err:
        propagate(plan, initial_state(model, grid), tg, observers=("entropy",))
    assert type(err.value) is CircuitError
    with pytest.raises(ValueError, match="entropy") as err:
        circuit_propagate(model, grid, tg, observers=("entropy",))
    assert type(err.value) is CircuitError


def test_no_observers_still_returns_state():
    model = pyrazine_2mode()
    grid = GridSpec(n=3, q_min=-5.0, q_max=5.0)
    tg = TimeGrid(dt=0.25, n_steps=4)
    plan = PropagatorPlan(model, grid, tg.dt)
    out = propagate(plan, initial_state(model, grid), tg, observers=())
    assert set(out) == {"state"}


@pytest.mark.parametrize("split", SPLIT_ORDERS)
def test_propagate_steps_a_copy_like_a_loop_of_steps(split):
    model = pyrazine_2mode()
    grid = GridSpec(n=3, q_min=-5.0, q_max=5.0)
    tg = TimeGrid(dt=0.25, n_steps=8, sample_stride=2)
    plan = PropagatorPlan(model, grid, tg.dt, split_order=split)
    psi0 = initial_state(model, grid)
    before = psi0.amplitudes.copy()
    out = propagate(plan, psi0, tg, observers=("autocorr",))
    np.testing.assert_array_equal(psi0.amplitudes, before)
    psi, values = psi0, [np.vdot(before, before)]
    for s in range(1, tg.n_steps + 1):
        psi = step(plan, psi)
        if s % tg.sample_stride == 0:
            values.append(np.vdot(before, psi.amplitudes))
    np.testing.assert_allclose(out["state"].amplitudes, psi.amplitudes, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out["autocorr"].values, values, rtol=0, atol=1e-12)


def test_uncoupled_model_keeps_the_upper_population():
    model = dataclasses.replace(pyrazine_4d(), lam=0.0)
    grid = GridSpec(n=3, q_min=-5.0, q_max=5.0)
    tg = TimeGrid(dt=0.5, n_steps=64, sample_stride=8)
    plan = PropagatorPlan(model, grid, tg.dt)
    out = propagate(plan, initial_state(model, grid), tg)
    assert np.max(np.abs(out["population"].p_s2 - 1.0)) < 1e-12


def test_coupled_model_transfers_population():
    model = pyrazine_2mode()
    grid = GridSpec(n=4, q_min=-6.0, q_max=6.0)
    tg = TimeGrid(dt=0.25, n_steps=120, sample_stride=10)
    plan = PropagatorPlan(model, grid, tg.dt)
    out = propagate(plan, initial_state(model, grid), tg)
    assert out["population"].p_s1[-1] > 0.1


def test_populations_and_boundary_helpers():
    model = pyrazine_2mode()
    grid = GridSpec(n=4, q_min=-5.0, q_max=5.0)
    layout = QubitLayout(model.d, grid.n)
    psi = initial_state(model, grid)
    p1, p2 = populations(flat_prob(layout, psi))
    assert p1 == pytest.approx(0.0, abs=1e-14)
    assert p2 == pytest.approx(1.0, abs=1e-12)
    edges = boundary_maxima(flat_prob(layout, psi))
    assert edges.shape == (2,)
    assert np.all(edges >= 0.0)
    assert np.all(edges < 1e-4)

    # a packet displaced toward the wall shows up in the monitor
    q = grid_points(grid)
    shifted = Wavepacket(psi.amplitudes.copy())
    gauss = np.exp(-((q - 3.5) ** 2) / 2.0)
    outer = np.einsum("i,j->ij", gauss, gauss)
    shifted.amplitudes[1] = outer / np.linalg.norm(outer)
    assert boundary_maxima(flat_prob(layout, shifted)).max() > edges.max()


def full_marginals(a: np.ndarray) -> list:
    """Each mode's full marginal of |a|^2, mode 0 first, from amplitudes in
    psi's order (mode 0 on axis 1)."""
    prob = np.abs(a) ** 2
    return [prob.sum(axis=tuple(i for i in range(prob.ndim) if i != k + 1)) for k in range(a.ndim - 1)]


@pytest.mark.parametrize("wall", [0, -1])
def test_boundary_maxima_finds_a_packet_at_each_wall(wall, rng):
    model, grid = pyrazine_4d(), GridSpec(n=3, q_min=-5.0, q_max=5.0)
    layout, q = QubitLayout(model.d, grid.n), grid_points(grid)
    for k in range(model.d):
        # a Gaussian on S2, mode k's factor centred on its wall slice, over faint noise
        centres = [q[wall] if j == k else 0.0 for j in range(model.d)]
        a = 1e-3 * random_packet(model, grid, rng).amplitudes
        a[1] += functools.reduce(np.multiply.outer, [np.exp(-((q - c) ** 2)) for c in centres])
        a /= np.linalg.norm(a)
        got = boundary_maxima(flat_prob(layout, Wavepacket(a)))
        marg = full_marginals(a)
        assert np.max(np.abs(got - [max(m[0], m[-1]) for m in marg])) < 1e-15
        # mode k reports the largest edge, the one on this wall
        assert np.argmax(got) == k and marg[k][wall] > marg[k][-1 - wall]


@pytest.mark.parametrize("d", [2, 4])
def test_observers_reduce_as_np_sum_does(d):
    # one reduction per surface and per edge slice gives np.sum's own values
    prob = np.abs(np.random.default_rng(40 + d).normal(size=(2,) + (16,) * d)) ** 2
    assert populations(prob) == (float(np.sum(prob[0])), float(np.sum(prob[1])))
    edges = [(slice(None),) * (d - k) for k in range(d)]
    want = [max(np.sum(prob[e + (0,)]), np.sum(prob[e + (-1,)])) for e in edges]
    assert boundary_maxima(prob).tolist() == want


def test_every_observer_reads_one_probability_buffer(monkeypatch):
    seen = []
    for name in ("populations", "boundary_maxima", "energy"):
        monkeypatch.setattr(soft, name, lambda *args, real=getattr(soft, name): seen.append(args[-1]) or real(*args))
    model, grid = pyrazine_2mode(), GridSpec(n=3, q_min=-5.0, q_max=5.0)
    plan = PropagatorPlan(model, grid, 0.25)
    out = propagate(plan, initial_state(model, grid), TimeGrid(0.25, 4, 2), observers=OBSERVERS)
    # three samples, three observers, one buffer: |a|^2 of the state at the last sample
    assert len(seen) == 9 and all(prob is seen[0] for prob in seen)
    assert np.array_equal(seen[0], np.abs(plan.layout.flat_order(out["state"])) ** 2)


def test_observers_make_no_state_sized_temporary():
    model, grid = pyrazine_4d(), GridSpec(n=4, q_min=-5.0, q_max=5.0)
    # energy reads the flat-state view and the |a|^2 buffer that propagate
    # passes, and builds its tables on the first call
    plan = PropagatorPlan(model, grid, 0.5)
    psi = plan.layout.position(plan.layout.flat(initial_state(model, grid)))
    prob = flat_prob(plan.layout, psi)
    observers = {"populations": populations, "boundary_maxima": boundary_maxima,
                 "energy": functools.partial(energy, plan, psi)}
    for name, observe in observers.items():
        observe(prob)
        tracemalloc.start()
        try:
            observe(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # below 1/16 of a statevector
        assert peak < 1 << (model.d * grid.n + 1), (name, peak)


def test_energy_matches_dense_expectation():
    model = tiny_model()
    grid = GridSpec(n=2, q_min=-5.0, q_max=5.0)
    plan = PropagatorPlan(model, grid, dt=0.1)
    psi = initial_state(model, grid)
    h = dense_hamiltonian(model, grid)
    vec = psi.amplitudes.reshape(-1)
    expected = float(np.real(np.vdot(vec, h @ vec)))
    assert energy(plan, psi, flat_prob(plan.layout, psi)) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("case", ["pyrazine-4d", "pyrazine-2mode", "one-mode"])
def test_energy_matches_the_fft_formula(case, rng):
    model = {
        "pyrazine-4d": pyrazine_4d(),
        "pyrazine-2mode": pyrazine_2mode(),
        # the qpe-demo model: its only axis takes the last-axis branch
        "one-mode": VibronicModel(modes=(ModeParams("nu", 0.0936, "B1g"),), lam=0.0, delta=0.0),
    }[case]
    grid = GridSpec(n=4, q_min=-5.0, q_max=5.0)
    plan = PropagatorPlan(model, grid, dt=0.5)
    for psi in (initial_state(model, grid), random_packet(model, grid, rng)):
        expected = fft_energy(plan, psi.amplitudes)
        assert energy(plan, psi, flat_prob(plan.layout, psi)) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_zpe_table_values():
    model = pyrazine_4d()
    end16 = GridSpec(n=4, q_min=-5.0, q_max=5.0, convention="endpoint")
    assert zpe(model, end16) == pytest.approx(0.2258500005, abs=1e-8)
    end4 = GridSpec(n=2, q_min=-5.0, q_max=5.0, convention="endpoint")
    assert zpe(model, end4) == pytest.approx(0.6524371769, abs=1e-8)
    # converged value is half the frequency sum
    target = 0.5 * sum(m.omega for m in model.modes)
    wide = GridSpec(n=6, q_min=-20.0, q_max=20.0, convention="endpoint")
    assert zpe(model, wide) == pytest.approx(target, abs=1e-6)


def test_split_orders_registry():
    assert SPLIT_ORDERS == ("potential-first", "kinetic-first")
    model = pyrazine_2mode()
    grid = GridSpec(n=3, q_min=-5.0, q_max=5.0)
    with pytest.raises(ValueError):
        PropagatorPlan(model, grid, dt=0.1, split_order="sideways")


@pytest.mark.parametrize("case", ["pyrazine-4d", "pyrazine-4d-kinetic-first", "pyrazine-2mode",
                                  "bilinear", "bilinear-split", "b1g-first-kinetic-first", "one-mode"])
def test_step_matches_the_fft_step(case, rng):
    box = GridSpec(n=4, q_min=-5.0, q_max=5.0)
    model, grid, split = {
        "pyrazine-4d": (pyrazine_4d(), box, "potential-first"),
        # nine of the ten operations write the scratch: a run ends there and copies back
        "pyrazine-4d-kinetic-first": (pyrazine_4d(), box, "kinetic-first"),
        "pyrazine-2mode": (pyrazine_2mode(), box, "kinetic-first"),
        "bilinear": (bilinear_tiny(False), GridSpec(n=3, q_min=-4.0, q_max=4.0, convention="endpoint"),
                     "kinetic-first"),
        "bilinear-split": (bilinear_tiny(True), GridSpec(n=3, q_min=-4.0, q_max=4.0,
                                                         convention="endpoint"), "kinetic-first"),
        # the coupling on mode 0: a Z rotation between two Hadamards
        "b1g-first-kinetic-first": (B1G_FIRST, box, "kinetic-first"),
        # the qpe-demo model: its only axis takes the last-axis branch
        "one-mode": (VibronicModel(modes=(ModeParams("nu", 0.0936, "B1g"),), lam=0.0, delta=0.0),
                     box, "potential-first"),
    }[case]
    plan = PropagatorPlan(model, grid, dt=0.5, split_order=split)
    assert_potential_tables(plan)
    psi = random_packet(model, grid, rng)
    for _ in range(8):
        before = psi.amplitudes.copy()
        nxt = step(plan, psi)
        assert np.array_equal(psi.amplitudes, before)
        assert np.max(np.abs(nxt.amplitudes - fft_step(plan, psi.amplitudes))) < 1e-12
        psi = nxt


# potential-first steps: where c(Q) lives on the last mode alone, the
# coupling rotation folds into the kinetic chain's last turn, 2^(n+1) wide;
# with an off-diagonal bilinear term or a coupling on another mode the soft
# engine's rotation is a Z phase table between two 2x2 Hadamards ("left" on
# the electronic qubit), the pair beside the chain cancelled, and the
# circuit engine gathers; with no coupling there is nothing to fold, and
# with one mode there is no chain: neither engine folds (kernels.fold).
# Per case: the model, then per engine the operation kinds and how many
# dense operations are 2^(n+1) wide (None: the engine refuses the model)
ONE_MODE = VibronicModel(modes=(ModeParams("nu", 0.0936, "B1g"),), lam=0.0, delta=0.0)


B1G_FIRST = VibronicModel(modes=(ModeParams("nu10a", 0.0936, "B1g"),
                                 ModeParams("nu6a", 0.0740, "Ag", kappa1=-0.0964, kappa2=0.1194)),
                          lam=0.1825, delta=0.4617)
FOLD_CASES = {
    "pyrazine-2mode": (pyrazine_2mode(), (["phase", "turn", "turn", "phase"], 1),
                       (["phase", "turn", "turn", "phase"], 1)),
    "bilinear": (bilinear_tiny(False), (["phase", "left", "phase", "turn", "turn", "turn",
                                         "phase", "left", "phase"], 0), None),
    "b1g-first": (B1G_FIRST, (["phase", "left", "phase", "turn", "turn", "phase", "left", "phase"], 0),
                  (["phase", "gather", "turn", "turn", "gather", "phase"], 2)),
    "one-mode": (ONE_MODE, (["phase", "right", "phase"], 0), (["phase", "right", "phase"], 0)),
    "one-mode-coupled": (dataclasses.replace(ONE_MODE, lam=0.1825, delta=0.4617),
                         (["phase", "right", "right", "right", "phase"], 2), (["right", "right", "right"], 2)),
}


@pytest.mark.parametrize("case, engine", [(case, engine) for case, (_, *kinds) in FOLD_CASES.items()
                                          for engine, k in zip(PLANS, kinds) if k is not None])
def test_potential_first_step_folds_where_the_coupling_lives(case, engine, rng):
    model, grid = FOLD_CASES[case][0], GridSpec(n=3, q_min=-4.0, q_max=4.0)
    kinds, wide = FOLD_CASES[case][1 + list(PLANS).index(engine)]
    plan = PLANS[engine](model, grid, 0.5, "potential-first")
    ops = plan.program.ops
    assert [how for _, how, _ in ops] == kinds
    assert sum(how != "phase" and len(m[0] if how == "gather" else m) == 2 << grid.n
               for _, how, m in ops) == wide
    if engine == "soft":
        assert_potential_tables(plan)
    psi = random_packet(model, grid, rng)
    state = plan.layout.flat(psi)
    for _ in range(8):
        if engine == "soft":
            want = fft_step(plan, psi.amplitudes)
            psi = step(plan, psi)
            assert np.max(np.abs(psi.amplitudes - want)) < 1e-12
        else:
            want = apply(plan.step, state.copy())
            plan.program.run(state)
            assert np.max(np.abs(state - want)) < 1e-12


def test_plan_over_the_memory_budget_fails_before_allocating():
    # 24 modes at n=2: a 49-qubit state, petabytes for the potential tables
    model = get_model("pyrazine-24d-placeholder")
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError, match="49-qubit"):
            PropagatorPlan(model, GridSpec(n=2, q_min=-5.0, q_max=5.0), dt=0.5,
                           split_order="kinetic-first")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# neither plan builds the tables that only energy reads (vtab, ctab, p2)
# until energy first reads them, whatever the coupling: local, bilinear or
# on another mode
@pytest.mark.parametrize("kind", list(PLANS))
@pytest.mark.parametrize("split", SPLIT_ORDERS)
def test_both_plans_keep_the_plan_contract(kind, split):
    # the split order is checked first: this 49-qubit model is over budget
    model = get_model("pyrazine-24d-placeholder")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="unknown split order 'bogus'") as err:
            PLANS[kind](model, GridSpec(n=2, q_min=-5.0, q_max=5.0), dt=0.5, split_order="bogus")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(err.value) is CircuitError and peak < 2**20
    grid, terms = GridSpec(n=3, q_min=-5.0, q_max=5.0), ["vtab", "ctab", "p2"]
    # the circuit engine takes bilinear terms kinetic-first only
    bilinear = [bilinear_tiny()] if kind == "soft" or split == "kinetic-first" else []
    for model in (pyrazine_2mode(), B1G_FIRST, *bilinear):
        plan = PLANS[kind](model, grid, 0.25, split)
        assert plan.halves == (1 if split == "potential-first" else model.d)
        assert [t for t in terms if t in vars(plan)] == []
        psi = initial_state(model, grid)
        energy(plan, psi, flat_prob(plan.layout, psi))
        assert [t for t in terms if t in vars(plan)] == terms


# a non-finite dt would make every table NaN: both plans refuse it with one
# message before the memory charge (this 49-qubit model is over budget)
@pytest.mark.parametrize("kind", list(PLANS))
@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf")])
def test_both_plans_refuse_a_non_finite_dt_first(kind, dt):
    model = get_model("pyrazine-24d-placeholder")
    with pytest.raises(ModelError, match=re.escape(f"dt must be finite, got {dt!r}")):
        PLANS[kind](model, GridSpec(n=2, q_min=-5.0, q_max=5.0), dt)
    # zero and negative steps stay accepted
    for ok in (0.0, -0.25):
        assert np.all(np.isfinite(PLANS[kind](pyrazine_2mode(), GridSpec(n=2, q_min=-5.0, q_max=5.0), ok)
                                  .program.run(np.ones(32, dtype=np.complex128))))


# the soft plan keeps the bare split order as its id
@pytest.mark.parametrize("kind, split", [
    pytest.param(kind, split, id=split if kind == "soft" else f"{kind}-{split}")
    for kind in PLANS for split in SPLIT_ORDERS])
def test_step_rejects_amplitudes_of_another_shape(kind, split):
    model, grid = pyrazine_2mode(), GridSpec(n=3, q_min=-5.0, q_max=5.0)
    plan = PLANS[kind](model, grid, 0.25, split)
    tg = TimeGrid(dt=0.25, n_steps=4)
    # the same number of amplitudes, laid out for another grid
    for shape in ((2, 4, 16), (2, 64), (2, 8, 8, 1)):
        psi = Wavepacket(np.ones(shape, dtype=np.complex128))
        both = re.escape(str(shape)) + r".*\(2, 8, 8\)"
        # ModelError, from QubitLayout.flat_order
        for run in (lambda: step(plan, psi), lambda: energy(plan, psi, np.abs(psi.amplitudes) ** 2),
                    lambda: propagate(plan, psi, tg, observers=())):
            with pytest.raises(ValueError, match=both) as err:
                run()
            assert type(err.value) is ModelError


# a run's charge covers its full-state arrays and the dense operators on one
# register and the electronic qubit: 2 statevectors each at d = 2, and at
# d = 1 the operators outweigh the state
@pytest.mark.parametrize("name, n", [("pyrazine-2mode", 8), ("pyrazine-4d", 4), ("one-mode", 8)])
@pytest.mark.parametrize("kind", list(PLANS))
@pytest.mark.parametrize("split", SPLIT_ORDERS)
def test_a_run_peaks_within_its_memory_charge(name, n, kind, split):
    model = ONE_MODE if name == "one-mode" else get_model(name)
    grid = GridSpec(n=n, q_min=-5.0, q_max=5.0)
    tg = TimeGrid(dt=0.13, n_steps=6, sample_stride=2)
    tracemalloc.start()
    try:
        plan = PLANS[kind](model, grid, tg.dt, split)
        propagate(plan, initial_state(model, grid), tg, observers=OBSERVERS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kernels.run_bytes(model.d, n), peak / (16 << (model.d * n + 1))


# measured in statevectors: an observer-free run holds the state, the
# program scratch and the bridge's merged operands (one statevector at this
# size) and peaks at 3.0; every observer adds the reference copy, the |a|^2
# buffer and the energy tables that both plans build on energy's first read
# (vtab half a statevector, ctab a quarter, p2's one register matrix half),
# and the run peaks at 5.75 (soft) and 5.76 (circuit). Kinetic-first, the
# bridge's last turn carries the coupling rotation: (2^(n+1))^2 entries, two
# statevectors at n = 8 (d = 2), where a narrow turn holds 4^n, half of one.
# That run peaks at 4.5 and, with every observer, at 7.25 (soft) and 7.26
# (circuit), the fold's deliberate trade of memory for a pass per step
PEAK_PINS = {  # (split, engine): the pin with every observer, and with none
    ("potential-first", "soft"): (6.5, 3.1), ("potential-first", "circuit"): (7.5, 3.1),
    ("kinetic-first", "soft"): (7.35, 4.6), ("kinetic-first", "circuit"): (7.4, 4.6)}


@pytest.mark.parametrize("split, kind, statevectors, observers", [
    pytest.param(split, kind, pin, observers, id=f"{split}-{kind}{'' if observers else '-no-observers'}-{pin}")
    for (split, kind), pins in PEAK_PINS.items() for pin, observers in zip(pins, (OBSERVERS, ()))])
def test_a_run_with_energy_peaks_at_its_measured_size(split, kind, statevectors, observers):
    model, grid = pyrazine_2mode(), GridSpec(n=8, q_min=-5.0, q_max=5.0)
    tg = TimeGrid(dt=0.13, n_steps=4, sample_stride=2)
    plan, psi0 = PLANS[kind](model, grid, tg.dt, split), initial_state(model, grid)
    tracemalloc.start()
    try:
        propagate(plan, psi0, tg, observers=observers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = 16 << (model.d * grid.n + 1)
    assert peak <= statevectors * one, peak / one


# the half path: A(2 tau) = psi(tau)^T psi(tau) and A(2 tau + 1) =
# psi(tau)^T psi(tau + 1) for a real psi0 and a symmetric step, over even and
# odd step counts and strides that do not divide them
@pytest.mark.parametrize("kind", list(PLANS))
@pytest.mark.parametrize("name", ["pyrazine-2mode", "pyrazine-4d"])
def test_autocorrelation_takes_half_the_steps_within_rounding(kind, name, monkeypatch):
    model, grid = get_model(name), GridSpec(n=3, q_min=-5.0, q_max=5.0)
    plan, psi0 = PLANS[kind](model, grid, 0.13), initial_state(model, grid)
    assert plan.symmetric
    steps = []
    stepper = plan.program.stepper

    def counted(halves):
        advance = stepper(halves)
        return lambda state, k: steps.append(k) or advance(state, k)

    for n_steps, stride in ((40, 1), (41, 1), (40, 2), (37, 2), (36, 3), (35, 3), (64, 16), (61, 16)):
        tg = TimeGrid(dt=plan.dt, n_steps=n_steps, sample_stride=stride)
        want = propagate(plan, psi0, tg, observers=("autocorr",))["autocorr"]
        steps.clear()
        monkeypatch.setattr(plan.program, "stepper", counted)
        got = soft.autocorrelation(plan, psi0, tg)
        monkeypatch.undo()
        assert np.array_equal(got.times, want.times)
        assert np.max(np.abs(got.values - want.values)) < 1e-12
        last = tg.sample_steps()[-1]
        assert sum(steps) == (last + 1) // 2


# every odd sample advances a copy one step further: the half path copies
# into one spare buffer, which then swaps roles with the state, so a stride-1
# series advances two buffers however many odd samples it has
@pytest.mark.parametrize("kind", list(PLANS))
def test_the_half_path_advances_one_spare_buffer(kind, monkeypatch):
    model, grid = pyrazine_2mode(), GridSpec(n=3, q_min=-5.0, q_max=5.0)
    tg = TimeGrid(dt=0.13, n_steps=41, sample_stride=1)
    plan = PLANS[kind](model, grid, tg.dt)
    buffers = []  # every buffer advanced, held so that no id is reused
    stepper = plan.program.stepper

    def spied(halves):
        advance = stepper(halves)
        return lambda state, k: buffers.append(state) or advance(state, k)

    monkeypatch.setattr(plan.program, "stepper", spied)
    soft.autocorrelation(plan, initial_state(model, grid), tg)
    assert len(buffers) > 21 and len({id(b) for b in buffers}) <= 2


@pytest.mark.parametrize("kind", list(PLANS))
def test_an_asymmetric_step_or_a_complex_state_takes_the_direct_path(kind, rng):
    model, grid = pyrazine_2mode(), GridSpec(n=3, q_min=-5.0, q_max=5.0)
    tg = TimeGrid(dt=0.13, n_steps=37, sample_stride=3)
    for split, psi0 in (("kinetic-first", initial_state(model, grid)),
                        ("potential-first", random_packet(model, grid, rng))):
        plan = PLANS[kind](model, grid, tg.dt, split)
        want = propagate(plan, psi0, tg, observers=("autocorr",))["autocorr"]
        got = soft.autocorrelation(plan, psi0, tg)
        assert np.array_equal(got.values, want.values) and np.array_equal(got.times, want.times)


def asymmetry(plan, rng) -> float:
    """max |y^T U x - x^T U y| / (|x| |y|) over seeded real vectors x, y."""
    worst = 0.0
    for _ in range(3):
        x, y = rng.normal(size=(2, 2 << plan.layout.total - 1)).astype(np.complex128)
        ux, uy = plan.program.run(x.copy()), plan.program.run(y.copy())
        worst = max(worst, abs(y @ ux - x @ uy) / (np.linalg.norm(x) * np.linalg.norm(y)))
    return worst


# Plan.symmetric is read off the split order, not checked at run time: the
# step it names symmetric is, in both engines, for every potential-first
# preset and fold case, and kinetic-first is far from it
@pytest.mark.parametrize("kind", list(PLANS))
def test_a_symmetric_plan_has_a_symmetric_step(kind, rng):
    grid = GridSpec(n=3, q_min=-4.0, q_max=4.0)
    models = [pyrazine_2mode(), pyrazine_4d()]
    models += [model for model, *kinds in FOLD_CASES.values() if kinds[list(PLANS).index(kind)] is not None]
    for model in models:
        plan = PLANS[kind](model, grid, 0.5)
        assert plan.symmetric and asymmetry(plan, rng) <= 1e-14
    for model in (pyrazine_2mode(), pyrazine_4d()):
        plan = PLANS[kind](model, grid, 0.5, "kinetic-first")
        assert not plan.symmetric and asymmetry(plan, rng) > 1e-8


# after a first run has made the program scratch and the bridge, the half
# path peaks a statevector below propagate, which keeps a reference copy,
# and the direct path no higher than propagate: neither holds the caller's
# psi0 while it runs
@pytest.mark.parametrize("kind", list(PLANS))
@pytest.mark.parametrize("split, stride", [("potential-first", 2), ("potential-first", 3), ("kinetic-first", 2)])
def test_an_autocorrelation_readout_holds_no_extra_state(kind, split, stride):
    model, grid = pyrazine_4d(), GridSpec(n=4, q_min=-5.0, q_max=5.0)
    tg = TimeGrid(dt=0.13, n_steps=7, sample_stride=stride)
    plan = PLANS[kind](model, grid, tg.dt, split)
    peaks = []
    for run in (lambda: propagate(plan, initial_state(model, grid), tg, observers=("autocorr",))["autocorr"],
                lambda: soft.autocorrelation(plan, initial_state(model, grid), tg)):
        run()
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] / (16 << (model.d * grid.n + 1)))
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] - (0.99 if split == "potential-first" else -0.01), peaks
