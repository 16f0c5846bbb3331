"""Closed-form gate and qubit budgets for the two model classes, with a
cross-check against the actual circuit builders."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .kernels import is_integer
from .model import GridSpec, VibronicModel, get_model, ground_gaussian, pyrazine_4d


MODEL_CLASSES = ("4D-linear", "24D-quadratic")
VARIANTS = ("A", "B")


class ResourceError(ValueError):
    pass


@dataclass(frozen=True)
class AssayInput:
    model_class: str
    n: int
    n_t: int
    variant: str = "A"

    def __post_init__(self) -> None:
        if self.model_class not in MODEL_CLASSES:
            raise ResourceError(f"unknown model class {self.model_class!r}")
        if self.variant not in VARIANTS:
            raise ResourceError(f"variant must be A or B, got {self.variant!r}")
        if not is_integer(self.n) or self.n < 2:
            raise ResourceError(f"need an integer of at least 2 qubits per mode, got {self.n!r}")
        if not is_integer(self.n_t) or self.n_t < 2 or self.n_t & (self.n_t - 1):
            raise ResourceError(f"step count must be an integer power of two >= 2, got {self.n_t!r}")


@dataclass(frozen=True)
class AssayReport:
    inp: AssayInput
    n_init: int
    per_step: int
    n_evolution: int
    n_measure: int
    total: int
    qubits_state: int
    qubits_total: int
    breakdown: dict = field(default_factory=dict)


def qft_depth(n: int) -> int:
    """n Hadamards + n(n-1)/2 controlled phases + floor(n/2) swaps."""
    return n + n * (n - 1) // 2 + n // 2


def prep_depth(n: int) -> int:
    """Amplitude-cascade depth on one register: 2^(n+1) - 3."""
    return (1 << (n + 1)) - 3


def step_depth(model_class: str, n: int) -> int:
    """Per-step circuit depth.

    4D-linear (position-held palindrome): two diagonal-potential blocks
    (n^2+5 each), two coupling blocks (n each), one kinetic network (n^2)
    and a transform pair, 4n^2 + 4n + 10 (n even) or +9 (n odd).

    24D-quadratic (transform-held): two half-kinetic networks, one full
    potential with six on-diagonal bilinear groups and 29 expanded
    doubly-controlled pairs, and a transform pair,
    155n^2 + 3n + 5 (n even) or +4 (n odd).
    """
    if model_class == "4D-linear":
        return 4 * n * n + 4 * n + (10 if n % 2 == 0 else 9)
    return 155 * n * n + 3 * n + (5 if n % 2 == 0 else 4)


def _d_of(model_class: str) -> int:
    return 4 if model_class == "4D-linear" else 24


def assay(inp: AssayInput) -> AssayReport:
    """Gate and qubit budget for one configuration.

    Evolution counts n_t - 1 steps; the transform-held class adds the outer
    transform pair once. Variant A closes with the two interferometer
    Hadamards, variant B with a transform on the log2(n_t)-bit readout
    register.
    """
    n, n_t = inp.n, inp.n_t
    d = _d_of(inp.model_class)
    n_init = prep_depth(n)
    per = step_depth(inp.model_class, n)
    n_evolution = per * (n_t - 1)
    if inp.model_class == "24D-quadratic":
        n_evolution += 2 * qft_depth(n)
    m = int(math.log2(n_t))
    if inp.variant == "A":
        n_measure = 2
        qubits_total = d * n + 2
    else:
        n_measure = qft_depth(m)
        qubits_total = d * n + 1 + m
    total = n_init + n_evolution + n_measure
    breakdown = {
        "d": d,
        "per_step": per,
        "steps": n_t - 1,
        "qft_depth": qft_depth(n),
        "readout_bits": m if inp.variant == "B" else 0,
        "bilinear_diag_groups": 6 if inp.model_class == "24D-quadratic" else 0,
        "bilinear_off_pairs": 29 if inp.model_class == "24D-quadratic" else 0,
    }
    return AssayReport(
        inp=inp,
        n_init=n_init,
        per_step=per,
        n_evolution=n_evolution,
        n_measure=n_measure,
        total=total,
        qubits_state=d * n + 1,
        qubits_total=qubits_total,
        breakdown=breakdown,
    )


def _builder_model(model_class: str) -> tuple[VibronicModel, str]:
    if model_class == "4D-linear":
        return pyrazine_4d(), "potential-first"
    return get_model("pyrazine-24d-placeholder"), "kinetic-first"


def verify_against_builder(model_class: str, n: int) -> dict:
    """Compare the closed-form depths with actually constructed circuits.

    Builds the per-step circuit, one register transform, and the state
    preparation cascade on the fixed [-5, 5] box, and reports formula vs
    builder depth for each.
    """
    from . import circuits

    model, split_order = _builder_model(model_class)
    grid = GridSpec(n=n, q_min=-5.0, q_max=5.0)
    dt = 0.129
    step_circ = circuits.build_timestep(model, grid, dt, split_order=split_order)
    qft_circ = circuits.build_qft(n)
    prep_circ = circuits.build_state_prep(n, ground_gaussian(grid))
    rows = {
        "per_step": (step_depth(model_class, n), step_circ.depth()),
        "qft": (qft_depth(n), qft_circ.depth()),
        "prep": (prep_depth(n), prep_circ.depth()),
    }
    return {
        "model_class": model_class,
        "n": n,
        "rows": rows,
        "agree": all(a == b for a, b in rows.values()),
    }


def standard_table() -> list[AssayReport]:
    """The four standard configurations times both variants."""
    out = []
    for model_class, n, n_t in (
        ("4D-linear", 4, 512),
        ("4D-linear", 5, 1024),
        ("24D-quadratic", 4, 512),
        ("24D-quadratic", 5, 1024),
    ):
        for variant in VARIANTS:
            out.append(assay(AssayInput(model_class, n, n_t, variant)))
    return out
