"""Vibronic model parameters, coordinate grids, time grids, and initial wavepackets.

Energies are in eV, times in fs, and normal coordinates are dimensionless.
Phase angles therefore divide an energy times a time by the model's
``hbar`` (``VibronicModel.hbar``); ``HBAR_EV_FS`` is only its default.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from importlib import resources as importlib_resources
from pathlib import Path

import numpy as np

from .kernels import CircuitError, is_integer

HBAR_EV_FS = 0.6582119569

SYMMETRIES = ("Ag", "B1g", "B2g", "B3g", "Au", "B1u", "B2u", "B3u")

_LETTER_CODE = {"A": 0, "B1": 1, "B2": 2, "B3": 3}
_CODE_LETTER = {v: k for k, v in _LETTER_CODE.items()}


class ModelError(ValueError):
    """Raised when a model description is malformed or inconsistent."""


def symmetry_product(a: str, b: str) -> str:
    """Product of two D2h irrep labels (letters compose by XOR, parity by XOR)."""
    for s in (a, b):
        if s not in SYMMETRIES:
            raise ModelError(f"unknown symmetry label {s!r}")
    la, pa = a[:-1], a[-1]
    lb, pb = b[:-1], b[-1]
    letter = _CODE_LETTER[_LETTER_CODE[la] ^ _LETTER_CODE[lb]]
    parity = "g" if pa == pb else "u"
    return f"{letter}{parity}"


@dataclass(frozen=True)
class ModeParams:
    """One vibrational mode: frequency, optional linear couplings, symmetry."""

    label: str
    omega: float
    symmetry: str
    kappa1: float | None = None
    kappa2: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ModelError(f"mode {self.label}: omega must be positive and finite, got {self.omega}")
        if self.symmetry not in SYMMETRIES:
            raise ModelError(f"mode {self.label}: unknown symmetry {self.symmetry!r}")
        if (self.kappa1 is None) != (self.kappa2 is None):
            raise ModelError(f"mode {self.label}: kappa1 and kappa2 must be given together")
        has_kappa = self.kappa1 is not None
        if has_kappa and not (math.isfinite(self.kappa1) and math.isfinite(self.kappa2)):
            raise ModelError(f"mode {self.label}: kappas must be finite, got {self.kappa1}, {self.kappa2}")
        if has_kappa != (self.symmetry == "Ag"):
            raise ModelError(
                f"mode {self.label}: linear couplings are carried by Ag modes only "
                f"(symmetry {self.symmetry}, kappas {'present' if has_kappa else 'absent'})"
            )


@dataclass(frozen=True)
class BilinearDiag:
    """On-diagonal bilinear term gamma_b * Q_l * Q_m on each electronic surface."""

    l: int
    m: int
    gamma1: float
    gamma2: float


@dataclass(frozen=True)
class BilinearOff:
    """Off-diagonal bilinear term mu * Q_l * Q_m coupling the two surfaces."""

    l: int
    m: int
    mu: float


@dataclass(frozen=True)
class VibronicModel:
    """Two-surface vibronic Hamiltonian over d dimensionless normal modes.

    The diagonal potentials are V_s = -/+ delta + sum_j kappa_j^(s) Q_j
    + sum_k (omega_k/2) Q_k^2 (minus for S1, plus for S2) plus any bilinear
    gamma terms; the off-diagonal coupling is lam * Q_c (on the unique B1g
    mode) plus any bilinear mu terms.
    """

    modes: tuple[ModeParams, ...]
    lam: float
    delta: float
    bilinear_diag: tuple[BilinearDiag, ...] = ()
    bilinear_off: tuple[BilinearOff, ...] = ()
    hbar: float = HBAR_EV_FS

    def __post_init__(self) -> None:
        if not self.modes:
            raise ModelError("a model needs at least one mode")
        labels = [m.label for m in self.modes]
        if len(set(labels)) != len(labels):
            raise ModelError(f"duplicate mode labels: {labels}")
        numbers = [("lam", self.lam), ("delta", self.delta)]
        numbers += [(f"gamma of pair ({p.l},{p.m})", g)
                    for p in self.bilinear_diag for g in (p.gamma1, p.gamma2)]
        numbers += [(f"mu of pair ({p.l},{p.m})", p.mu) for p in self.bilinear_off]
        for name, value in numbers:
            if not math.isfinite(value):
                raise ModelError(f"{name} must be finite, got {value}")
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ModelError(f"hbar must be positive and finite, got {self.hbar}")
        d = len(self.modes)
        for pair in self.bilinear_diag + self.bilinear_off:
            if not (0 <= pair.l < d and 0 <= pair.m < d):
                raise ModelError(f"bilinear pair ({pair.l},{pair.m}) indexes outside the mode list")
            if pair.l == pair.m:
                raise ModelError(f"bilinear pair ({pair.l},{pair.m}) must couple distinct modes")
        for pair in self.bilinear_diag:
            sl = self.modes[pair.l].symmetry
            sm = self.modes[pair.m].symmetry
            if sl != sm:
                raise ModelError(
                    f"on-diagonal bilinear pair ({labels[pair.l]},{labels[pair.m]}) mixes "
                    f"symmetries {sl} and {sm}; both modes must transform identically"
                )
        for pair in self.bilinear_off:
            sl = self.modes[pair.l].symmetry
            sm = self.modes[pair.m].symmetry
            prod = symmetry_product(sl, sm)
            if prod != "B1g":
                raise ModelError(
                    f"off-diagonal bilinear pair ({labels[pair.l]},{labels[pair.m]}) has "
                    f"product symmetry {prod}; it must be B1g"
                )
        if self.lam != 0.0 and len(self.b1g_indices()) != 1:
            raise ModelError(
                "a nonzero inter-state coupling needs exactly one B1g mode to act on, "
                f"found {len(self.b1g_indices())}"
            )

    @property
    def d(self) -> int:
        return len(self.modes)

    def b1g_indices(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.modes) if m.symmetry == "B1g")

    @property
    def coupling_mode(self) -> int | None:
        """Index of the mode carrying the linear inter-state coupling, if any."""
        idx = self.b1g_indices()
        return idx[0] if len(idx) == 1 else None


def pyrazine_4d() -> VibronicModel:
    """Built-in four-mode pyrazine S1/S2 model."""
    return VibronicModel(
        modes=(
            ModeParams("nu6a", 0.0740, "Ag", kappa1=-0.0964, kappa2=0.1194),
            ModeParams("nu1", 0.1273, "Ag", kappa1=0.0470, kappa2=0.2012),
            ModeParams("nu9a", 0.1568, "Ag", kappa1=0.1594, kappa2=0.0484),
            ModeParams("nu10a", 0.0936, "B1g"),
        ),
        lam=0.1825,
        delta=0.4617,
    )


def pyrazine_2mode() -> VibronicModel:
    """Reduced two-mode model (one tuning mode plus the coupling mode):
    pyrazine_4d's nu6a and nu10a, with its lambda and delta."""
    full = pyrazine_4d()
    modes = {mode.label: mode for mode in full.modes}
    return VibronicModel(modes=(modes["nu6a"], modes["nu10a"]), lam=full.lam, delta=full.delta)


def _number(value, what: str) -> float:
    """float(value), a ModelError when value is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ModelError(f"{what} must be a number, got {value!r}") from None


def _entries(entries, what: str) -> list:
    """entries, a ModelError when they are not a list of JSON objects."""
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ModelError(f"{what} must be a list of objects")
    return entries


def _model_from_dict(data: dict) -> VibronicModel:
    try:
        raw_modes = _entries(data["modes"], "'modes'")
        lam = _number(data["lambda"], "'lambda'")
        delta = _number(data["delta"], "'delta'")
    except KeyError as exc:
        raise ModelError(f"missing required key {exc.args[0]!r}") from None
    if not raw_modes:
        raise ModelError("'modes' must be a non-empty list")
    modes = []
    for entry in raw_modes:
        try:
            label = str(entry["label"])
            kappas = [None if entry.get(k) is None else _number(entry[k], f"mode {label}: {k}")
                      for k in ("kappa1", "kappa2")]
            modes.append(ModeParams(label, _number(entry["omega"], f"mode {label}: omega"),
                                    str(entry["symmetry"]), *kappas))
        except KeyError as exc:
            raise ModelError(f"mode entry missing key {exc.args[0]!r}") from None
    labels = [m.label for m in modes]

    def resolve(ref) -> int:
        if isinstance(ref, str):
            if ref not in labels:
                raise ModelError(f"bilinear pair references unknown mode {ref!r}")
            return labels.index(ref)
        if isinstance(ref, bool) or not isinstance(ref, int):
            raise ModelError(f"bilinear pair index {ref!r} must be a mode label or an integer")
        return ref

    try:
        bdiag = tuple(BilinearDiag(resolve(e["l"]), resolve(e["m"]), _number(e["gamma1"], "gamma1"),
                                   _number(e["gamma2"], "gamma2"))
                      for e in _entries(data.get("bilinear_diag", []), "'bilinear_diag'"))
        boff = tuple(BilinearOff(resolve(e["l"]), resolve(e["m"]), _number(e["mu"], "mu"))
                     for e in _entries(data.get("bilinear_off", []), "'bilinear_off'"))
    except KeyError as exc:
        raise ModelError(f"bilinear entry missing key {exc.args[0]!r}") from None
    hbar = _number(data.get("hbar", HBAR_EV_FS), "'hbar'")
    return VibronicModel(tuple(modes), lam, delta, bdiag, boff, hbar)


def load_model(config_text: str) -> VibronicModel:
    """Parse a JSON model description; raises ModelError on any problem."""
    try:
        data = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"model config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ModelError("model config must be a JSON object")
    return _model_from_dict(data)


def serialize(model: VibronicModel) -> str:
    """Canonical JSON form; load_model(serialize(m)) reproduces m."""
    labels = [m.label for m in model.modes]
    data = {
        "modes": [
            {k: v for k, v in asdict(m).items() if v is not None} for m in model.modes
        ],
        "lambda": model.lam,
        "delta": model.delta,
        "bilinear_diag": [
            {"l": labels[p.l], "m": labels[p.m], "gamma1": p.gamma1, "gamma2": p.gamma2}
            for p in model.bilinear_diag
        ],
        "bilinear_off": [
            {"l": labels[p.l], "m": labels[p.m], "mu": p.mu} for p in model.bilinear_off
        ],
        "hbar": model.hbar,
    }
    return json.dumps(data, indent=2, sort_keys=True)


def _load_packaged(name: str) -> VibronicModel:
    text = importlib_resources.files("vibroniq.data").joinpath(name).read_text()
    return load_model(text)


PRESETS = {
    "pyrazine-4d": pyrazine_4d,
    "pyrazine-2mode": pyrazine_2mode,
    "pyrazine-24d-placeholder": lambda: _load_packaged("pyrazine_24d_placeholder.json"),
}


def get_model(source: str) -> VibronicModel:
    """Resolve a preset name or a path to a JSON model file."""
    if source in PRESETS:
        return PRESETS[source]()
    path = Path(source)
    if path.exists():
        return load_model(path.read_text())
    raise ModelError(f"{source!r} is neither a preset ({', '.join(sorted(PRESETS))}) nor a file")


@dataclass(frozen=True)
class GridSpec:
    """Per-mode position grid with 2**n points between q_min and q_max.

    convention "periodic" spaces points by (q_max-q_min)/N (q_max excluded);
    "endpoint" uses (q_max-q_min)/(N-1) (q_max included).
    """

    n: int
    q_min: float
    q_max: float
    convention: str = "periodic"

    def __post_init__(self) -> None:
        if not is_integer(self.n) or self.n < 2:
            raise ModelError(f"need an integer of at least 2 qubits per mode, got {self.n!r}")
        if not (math.isfinite(self.q_min) and math.isfinite(self.q_max)):
            raise ModelError(f"coordinate range [{self.q_min}, {self.q_max}] must be finite")
        if not self.q_min < self.q_max:
            raise ModelError(f"empty coordinate range [{self.q_min}, {self.q_max}]")
        if self.convention not in ("periodic", "endpoint"):
            raise ModelError(f"unknown grid convention {self.convention!r}")

    @property
    def size(self) -> int:
        return 2**self.n

    @property
    def dq(self) -> float:
        span = self.q_max - self.q_min
        return span / self.size if self.convention == "periodic" else span / (self.size - 1)


def grid_points(grid: GridSpec) -> np.ndarray:
    """Position values Q_k = q_min + k*dq for k = 0..N-1."""
    return grid.q_min + grid.dq * np.arange(grid.size)


def momentum_points(grid: GridSpec) -> np.ndarray:
    """Conjugate momenta in DFT output order, p = 2*pi*k_signed/(N*dq).

    k_signed runs over [-N/2, N/2) mapped the standard DFT way (0, 1, ...,
    N/2-1, -N/2, ..., -1), so for even N the values sum to -pi/dq rather
    than zero; the negative Nyquist point has no positive partner.
    """
    k_signed = np.fft.fftfreq(grid.size) * grid.size
    return 2.0 * np.pi * k_signed / (grid.size * grid.dq)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform Trotter stepping: n_steps steps of dt, sampled every sample_stride."""

    dt: float
    n_steps: int
    sample_stride: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ModelError(f"dt must be positive and finite, got {self.dt}")
        if not is_integer(self.n_steps) or self.n_steps < 1:
            raise ModelError(f"need an integer count of at least one step, got {self.n_steps!r}")
        if not is_integer(self.sample_stride) or not 1 <= self.sample_stride <= self.n_steps:
            raise ModelError(f"sample_stride {self.sample_stride!r} is not an integer in [1, {self.n_steps}]")

    @property
    def total_time(self) -> float:
        return self.dt * self.n_steps

    def sample_steps(self) -> np.ndarray:
        """Step indices at which observables are recorded, always including 0."""
        return np.arange(0, self.n_steps + 1, self.sample_stride)

    def sample_times(self) -> np.ndarray:
        return self.sample_steps() * self.dt


@dataclass
class Wavepacket:
    """Complex amplitudes over (electronic, mode grids); single-writer mutable."""

    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class QubitLayout:
    """The one qubit basis of both engines: d mode registers of n qubits
    plus bookkeeping qubits.

    Mode register r occupies qubits [r*n, (r+1)*n) with qubit r*n+i carrying
    weight 2^i, the electronic qubit sits at d*n (|0> is S1, |1> is S2), an
    optional Hadamard-test ancilla at d*n+1, and any phase-readout register
    above that. Read in C order as a (2, N, ..., N) array, the flat state of
    the d*n + 1 system qubits has the electronic index first and the mode
    axes reversed, mode d-1 first; flat and position convert a Wavepacket,
    mode 0 first, to it and back.
    """

    d: int
    n: int
    ancilla: bool = False

    def mode_qubits(self, r: int) -> tuple[int, ...]:
        return tuple(range(r * self.n, (r + 1) * self.n))

    def block_qubits(self, *registers: int) -> tuple[int, ...]:
        """The qubits of the given mode registers, in order, then the
        electronic qubit: where a register or pair block is copied."""
        return sum(map(self.mode_qubits, registers), ()) + (self.electronic,)

    @property
    def electronic(self) -> int:
        return self.d * self.n

    @property
    def ancilla_qubit(self) -> int:
        if not self.ancilla:
            raise CircuitError("layout has no ancilla")
        return self.d * self.n + 1

    @property
    def total(self) -> int:
        return self.d * self.n + 1 + (1 if self.ancilla else 0)

    def flat_order(self, psi: Wavepacket) -> np.ndarray:
        """psi's amplitudes as a view in the flat state's axis order; a
        ModelError when their shape is not the layout's."""
        shape = (2,) + (1 << self.n,) * self.d
        if psi.amplitudes.shape != shape:
            raise ModelError(f"amplitudes of shape {psi.amplitudes.shape} do not match "
                             f"the plan's shape {shape}")
        return psi.amplitudes.transpose(0, *range(self.d, 0, -1))

    def flat(self, psi: Wavepacket) -> np.ndarray:
        """A copy of psi's amplitudes as the flat state."""
        return np.array(self.flat_order(psi), dtype=np.complex128, order="C").reshape(-1)

    def position(self, state: np.ndarray) -> Wavepacket:
        """The flat state as a Wavepacket over the same memory, mode 0 on the
        first grid axis."""
        block = state.reshape((2,) + (1 << self.n,) * self.d)
        return Wavepacket(block.transpose(0, *range(self.d, 0, -1)))


def ground_gaussian(grid: GridSpec) -> np.ndarray:
    """One mode's ground packet exp(-Q^2/2) on the grid points, unit 2-norm."""
    packet = np.exp(-grid_points(grid) ** 2 / 2.0)
    return packet / np.linalg.norm(packet)


def initial_state(model: VibronicModel, grid: GridSpec) -> Wavepacket:
    """Product of per-mode ground Gaussians exp(-Q^2/2), placed entirely on S2;
    each factor has unit norm, so the product does too."""
    shape = (2,) + (grid.size,) * model.d
    amps = np.zeros(shape, dtype=np.complex128)
    packet = ground_gaussian(grid)
    prod = packet
    for _ in range(model.d - 1):
        prod = np.multiply.outer(prod, packet)
    amps[1] = prod
    return Wavepacket(amps)
