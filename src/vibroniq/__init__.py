"""Grid-based vibronic dynamics on two coupled surfaces, split-operator and
gate-level engines side by side."""

from .model import (
    HBAR_EV_FS,
    GridSpec,
    ModeParams,
    ModelError,
    QubitLayout,
    TimeGrid,
    VibronicModel,
    Wavepacket,
    get_model,
    grid_points,
    initial_state,
    load_model,
    momentum_points,
    pyrazine_2mode,
    pyrazine_4d,
    serialize,
)
from .soft import PropagatorPlan, propagate, step, zpe
from .circuits import (
    Circuit,
    CircuitError,
    CircuitPlan,
    Gate,
    apply,
    build_qft,
    build_state_prep,
    build_timestep,
    circuit_propagate,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR_EV_FS",
    "Circuit",
    "CircuitError",
    "CircuitPlan",
    "Gate",
    "GridSpec",
    "ModeParams",
    "ModelError",
    "PropagatorPlan",
    "QubitLayout",
    "TimeGrid",
    "VibronicModel",
    "Wavepacket",
    "apply",
    "build_qft",
    "build_state_prep",
    "build_timestep",
    "circuit_propagate",
    "get_model",
    "grid_points",
    "initial_state",
    "load_model",
    "momentum_points",
    "propagate",
    "pyrazine_2mode",
    "pyrazine_4d",
    "serialize",
    "step",
    "zpe",
]
