"""Statevector update kernels on numpy strided views.

Each kernel reshapes the 2**n state into an n-axis (2, ..., 2) tensor, pins
the fixed/control qubits with length-1 slices and updates the resulting view
in place, so no amplitude outside the addressed subspace is touched.
"""
from __future__ import annotations

import numpy as np

DEFAULT_MEMORY_BUDGET = 4 * 2**30


class MemoryBudgetError(MemoryError):
    """Raised instead of silently attempting an oversized state allocation."""


def backend() -> str:
    """Name of the kernel implementation, recorded in run provenance."""
    return "numpy"


def allocate_state(n_qubits: int, budget: int | None = None) -> np.ndarray:
    """Zeroed 2**n_qubits complex statevector, refused when over budget."""
    budget = DEFAULT_MEMORY_BUDGET if budget is None else budget
    required = 16 * (1 << n_qubits)
    if required > budget:
        raise MemoryBudgetError(
            f"a {n_qubits}-qubit statevector needs {required} bytes, "
            f"over the {budget}-byte budget"
        )
    return np.zeros(1 << n_qubits, dtype=np.complex128)


def _np_view(state: np.ndarray, n_qubits: int, fixed) -> np.ndarray:
    t = state.reshape((2,) * n_qubits)
    idx = [slice(None)] * n_qubits
    for qubit, bit in fixed:
        # length-1 slice, not an integer, so the result is always a view
        idx[n_qubits - 1 - qubit] = slice(bit, bit + 1)
    return t[tuple(idx)]


def apply_matrix(state, n_qubits, target, controls, mat) -> None:
    """In-place controlled 2x2 update on `target`; controls are (qubit, bit)."""
    m00, m01, m10, m11 = complex(mat[0, 0]), complex(mat[0, 1]), complex(mat[1, 0]), complex(mat[1, 1])
    v0 = _np_view(state, n_qubits, list(controls) + [(target, 0)])
    v1 = _np_view(state, n_qubits, list(controls) + [(target, 1)])
    t0 = v0.copy()
    v0 *= m00
    v0 += m01 * v1
    v1 *= m11
    v1 += m10 * t0


def apply_phase(state, n_qubits, fixed, phase) -> None:
    """Multiply amplitudes whose bits match every (qubit, bit) in `fixed`."""
    _np_view(state, n_qubits, fixed)[...] *= phase


def apply_swap(state, n_qubits, t1, t2, controls) -> None:
    """In-place (controlled) SWAP of qubits t1 and t2."""
    va = _np_view(state, n_qubits, list(controls) + [(t1, 1), (t2, 0)])
    vb = _np_view(state, n_qubits, list(controls) + [(t1, 0), (t2, 1)])
    tmp = va.copy()
    va[...] = vb
    vb[...] = tmp
