"""Statevector kernels, the circuit type, and the one operation executor,
Program, that both engines run.

Each per-gate kernel views the flat state with one axis per stretch of free
qubits, picks the fixed (control and target) bits with integer indices and
updates the view in place, so no amplitude outside the addressed subspace is
touched. When the lowest free stretch fits in one 64-byte cache line, the
longest is swapped innermost and the ufuncs run in that order, so each pass
streams long rows. A 2x2 gate takes six passes, an H-like one (m00 == m01,
m10 == -m11) a butterfly of four, rounding apart from the general update.

Operations: a Program runs (shape, how, operand) tuples, `shape` a view of
the flat state and the operand exactly what its kind applies: a "phase"
table, or a dense u from the "left", from the "right" (v u.T, on a block
ending at qubit 0), as a "turn" or, on several blocks, as a "gather" of
(u, order). phase_op and register_op build them, and turn_ops the chain of
transposing matmuls that applies one dense matrix per mode register, each
as one GEMM; fold_turns widens the chain's last turn to take in the dense
operations on register d-1 and the electronic qubit that border the chain,
so a coupling rotation there costs no pass of its own, or, with none, with
the identity, so it meets a folded chain in a Strang bridge; fold, the one
pass both engines' programs go through, finds each chain of a program and
the operations beside it and widens every chain once one folds.
phase_tables computes the diagonals of controlled phases from their (mask,
bits) integers and merge_phases multiplies phase tables into one. Both
engines' preset programs use phase, left and turn; "right" serves energy's
p2 on register 0, one-register layouts and arbitrary circuits, and "gather"
the circuit engine's bilinear steps, its coupling off the last mode and
arbitrary circuits.

Circuits: a Circuit is a gate list over a fixed qubit count. Each gate has
a layer id its builder declares, and depth(circuit) is the number of
distinct layers; gates sharing a layer commute, so replaying layer by layer
equals replaying the gate list. A gate is an immutable tuple of its fields,
checked when a caller makes it (Gate(...) or Circuit.add, which also
range-checks its qubits): integer and distinct qubits, as many targets as
its kind takes, controls as (qubit, polarity) pairs with integer 0/1
polarities, a non-negative int layer and a finite real, non-bool angle
where the kind takes one, else CircuitError. A
gate derived from checked ones (a Circuit._extend copy, a mirrored one, the
CCRx expansion, the runs compile fuses) is not checked again; a copy checks once that its
qubit map sends the source qubits one-to-one into range and that its
control (controlled(), the Hadamard test, phase estimation) is free in each
gate, and a scaled copy checks each new angle once, as Gate would.

Running: apply replays the gate list gate by gate and is the reference.
compile turns a circuit into a few operations, each the unitary of its gates
up to rounding: a stretch of diagonal gates (U1, S) sums its angles into one
table, exponentiated once, and only the other gates run as kernels over the
identity, as unitary_of runs them, once per shape of run: runs that repeat
one block, as the d register copies of a QFT wall, whatever their diagonal
angles, run its gates once over a stack of their identities (_fuse). It
follows the commuting blocks of a time step on its qubit layout: one matrix
per mode register for each run of register gates (QFT, UK, QFT'), run as
one chain of transposing matmuls (turn_ops) when every register has one,
and in each potential run, fused greedily on at most n + 1 qubits (a mode
register and the electronic qubit), one phase table per stretch of diagonal
operations, multiplied smallest support first into the full-state table,
the coupling rotation staying a matrix on the electronic qubit and its
register. Gates that straddle registers take the greedy fuser too. Each
run is lowered where it stands, keyed by its gates: a run equal to an
earlier one, as the second walled K/2 run of a kinetic-first step, takes
that run's operations, and a potential run that reads as an earlier one
backwards and holds no RY, as the mirrored tail of a potential-first step,
takes them reversed and each transposed, its phase tables the same arrays.
The operations then go through fold, as the soft engine's do, so the
coupling rotations of either split order fold into the chain beside them.

Memory: every refusal comes from charge, the one comparison with the budget,
which each code path calls with its measured peak before it allocates.
"""
from __future__ import annotations

import cmath
import itertools
import math
import operator
from typing import NamedTuple

import numpy as np

DEFAULT_MEMORY_BUDGET = 4 * 2**30
# a propagation run's peak: RUN_STATEVECTORS full-state arrays (the state,
# the Program scratch, the sampling loop's reference copy, full-state
# tables and temporaries) and RUN_OPERATORS dense operators on n + 1 qubits
# (a mode register and the electronic qubit) per mode register, which a plan
# and its bridges hold, plus as many again for the working copies of
# compile: the stack of identities that one group of same-shaped runs runs
# its gates over (_fuse), for a register run at most 2d - 1 identities on
# n qubits (its d registers, rounded up to a power of two), and in every
# preset step no more than one (n + 1)-qubit operator. A folded
# kinetic-first plan and its bridge hold three wide last turns and a
# quarter operator per narrow turn: past their half at d = 2 (3.75 of 3),
# within the whole charge with compile's copies
RUN_STATEVECTORS = 12
RUN_OPERATORS = 2
# gates run over a state peak at APPLY_STATEVECTORS statevectors (the state and a 2x2
# update's two temporaries) and _APPLY_BYTES of views (tracemalloc, 6- to 18-qubit states)
APPLY_STATEVECTORS = 3
_APPLY_BYTES = 4096
# one gate of a built circuit: its Gate, target and control tuples and list
# slot (143 bytes by tracemalloc, over phase-estimation circuits of 62k-250k gates)
_GATE_BYTES = 144
# complex128 amplitudes in one 64-byte cache line
_LINE = 4
# a turn's transpose of its view, by the view's rank: the first axis moves last
_TURN_AXES = {k: (*range(1, k), 0) for k in (2, 3)}


class MemoryBudgetError(MemoryError):
    """Raised instead of silently attempting an oversized state allocation."""


class CircuitError(ValueError):
    """A malformed gate, circuit or statevector."""


def is_integer(value) -> bool:
    """Whether value is an integer, as operator.index takes it, and no bool."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, (bool, np.bool_))


def backend() -> str:
    """Name of the kernel implementation, recorded in run provenance."""
    return "numpy"


def run_bytes(d: int, n: int) -> int:
    """The bytes a propagation run on d mode registers of n qubits is
    charged: RUN_STATEVECTORS statevectors of d n + 1 qubits and
    RUN_OPERATORS (d + 1) dense (n + 1)-qubit operators."""
    return 16 * (RUN_STATEVECTORS << (d * n + 1)) + 16 * (RUN_OPERATORS * (d + 1) << 2 * (n + 1))


def charge(nbytes: int, what: str) -> None:
    """Raise MemoryBudgetError when nbytes, what `what` needs, is over the
    budget: the one place a request meets it, called before any allocation."""
    if nbytes > DEFAULT_MEMORY_BUDGET:
        raise MemoryBudgetError(f"{what}: {nbytes} bytes, over the {DEFAULT_MEMORY_BUDGET}-byte budget")


def apply_bytes(n_qubits: int) -> int:
    """The bytes gates running over an n_qubits state are charged:
    APPLY_STATEVECTORS statevectors and _APPLY_BYTES."""
    return 16 * (APPLY_STATEVECTORS << n_qubits) + _APPLY_BYTES


def allocate_state(n_qubits: int) -> np.ndarray:
    """Zeroed 2**n_qubits complex statevector, charged apply_bytes as gates run over it."""
    charge(apply_bytes(n_qubits), f"a {n_qubits}-qubit statevector and the gates run over it")
    return np.zeros(1 << n_qubits, dtype=np.complex128)


def _state_qubits(state: np.ndarray, n_qubits: int) -> int:
    """Qubit count of a 1-D power-of-two state with room for n_qubits."""
    n_state = max(state.size.bit_length() - 1, 0)
    if state.size != 1 << n_state or state.ndim != 1:
        raise CircuitError(f"state length {state.size} is not a power of two")
    if n_state < n_qubits:
        raise CircuitError(f"state has {n_state} qubits, circuit needs {n_qubits}")
    return n_state


def _np_view(state: np.ndarray, n_qubits: int, fixed) -> np.ndarray:
    """The amplitudes whose bits match every (qubit, bit) in `fixed`: a view
    of the flat state with one axis per stretch of free qubits, top first.
    When the lowest stretch fits in one cache line, the longest stretch is
    swapped innermost, so a ufunc run with order="C" streams long rows."""
    shape, idx, top = [], [], n_qubits
    for q, b in sorted(fixed, key=operator.itemgetter(0), reverse=True):
        shape += [1 << (top - q - 1), 2]
        idx += [slice(None), b]
        top = q
    v = state.reshape([*shape, 1 << top])[tuple(idx)].squeeze()  # a view, 0-d when all are fixed
    if v.ndim > 1 and v.shape[-1] <= _LINE:
        v = v.swapaxes(v.shape.index(max(v.shape)), -1)
    return v


def apply_matrix(state, n_qubits, target, controls, mat) -> None:
    """In-place controlled 2x2 update on `target`; controls are (qubit, bit).
    A matrix with m00 == m01 and m10 == -m11 (H) runs as a butterfly."""
    (m00, m01), (m10, m11) = mat
    m00, m01, m10, m11 = complex(m00), complex(m01), complex(m10), complex(m11)
    v0 = _np_view(state, n_qubits, (*controls, (target, 0)))
    v1 = _np_view(state, n_qubits, (*controls, (target, 1)))
    if m00 == m01 and m10 == -m11:
        t = np.add(v0, v1, order="C")
        np.subtract(v0, v1, out=v1, order="C")
        np.multiply(m00, t, out=v0, order="C")
        np.multiply(m10, v1, out=v1, order="C")
        return
    t = np.multiply(m10, v0, order="C")
    np.multiply(v0, m00, out=v0, order="C")
    np.add(v0, np.multiply(m01, v1, order="C"), out=v0, order="C")
    np.multiply(v1, m11, out=v1, order="C")
    np.add(v1, t, out=v1, order="C")


def apply_phase(state, n_qubits, fixed, phase) -> None:
    """Multiply amplitudes whose bits match every (qubit, bit) in `fixed`."""
    v = _np_view(state, n_qubits, fixed)
    np.multiply(v, phase, out=v, order="C")


def apply_swap(state, n_qubits, t1, t2, controls) -> None:
    """In-place (controlled) SWAP of qubits t1 and t2."""
    va = _np_view(state, n_qubits, (*controls, (t1, 1), (t2, 0)))
    vb = _np_view(state, n_qubits, (*controls, (t1, 0), (t2, 1)))
    tmp = va.copy()
    va[...] = vb
    vb[...] = tmp


def _support_shape(support) -> tuple[list, list]:
    """View of the flat state, top first, as the qubits above the ascending
    support, then its contiguous blocks and the gaps between and below them;
    and the axes of the blocks."""
    shape, axes = [-1], []
    for q in reversed(support):
        if axes and q == prev - 1:
            shape[-1] *= 2
        else:
            if axes:
                shape.append(1 << (prev - q - 1))
            axes.append(len(shape))
            shape.append(2)
        prev = q
    if prev:
        shape.append(1 << prev)
    return shape, axes


def phase_op(support, table: np.ndarray) -> tuple:
    """A diagonal on the ascending qubit support, bit j of the table's index
    on qubit support[j]."""
    shape, axes = _support_shape(support)
    return shape, "phase", table.reshape([s if a in axes else 1 for a, s in enumerate(shape)])


def register_op(support, u: np.ndarray) -> tuple:
    """(shape, how, operand): the dense u on the ascending qubit support, bit
    j of u's index on qubit support[j], `shape` as _support_shape views the
    flat state. One block takes u from the left, or by u.T from the right
    when it ends at qubit 0; several are a "gather" of (u, order), `order`
    the view's axes with the blocks last."""
    shape, axes = _support_shape(support)
    if len(axes) == 1:
        return shape, "left" if axes[0] < len(shape) - 1 else "right", u
    return shape, "gather", (u, [a for a in range(len(shape)) if a not in axes] + axes)


def turn_ops(us) -> list[tuple]:
    """The dense u_k of mode registers 0, ..., d-1, ascending from qubit 0,
    as a chain of d "turn" operations, one GEMM each (Van Loan, J. Comput.
    Appl. Math. 123, 85 (2000)). Each but the last multiplies the lowest
    register's axis, read off the transposed flat state, and writes that
    register on top, every other qubit moving down by n. The last multiplies
    register d-1 batched over the qubits above the registers, and its
    transposed view puts the turned registers back below it, so the chain
    ends in the original qubit order; fold_turns widens it to take in the
    electronic qubit. One register is a plain register_op. Matrices of
    unequal size raise CircuitError."""
    dim, d = len(us[0]), len(us)
    if any(np.shape(u) != (dim, dim) for u in us):
        raise CircuitError(f"register matrices of shapes {[np.shape(u) for u in us]}, not all {dim}x{dim}")
    if d == 1:
        return [register_op(range(dim.bit_length() - 1), us[0])]
    return [([-1, dim], "turn", u) for u in us[:-1]] + [([dim ** (d - 1), -1, dim], "turn", us[-1])]


def fold_turns(before: tuple | None, chain: list[tuple], after: tuple | None) -> list[tuple]:
    """The turn_ops chain with the dense operations before and after it on
    the last register's block (register d-1's qubits, then the qubit above
    the registers: the electronic one) folded into its last turn, which
    becomes after . (1 (x) u_{d-1}) . before on 2 dim indices, batched over
    any qubits above the block. They commute with the turns before, which
    touch neither register d-1 nor the electronic qubit. A side given as
    None is the identity and costs no product: with neither, 1 (x) u_{d-1}
    is u_{d-1} placed twice on the diagonal, the widened turn of a chain
    whose partner folds. One register gives a plain register_op on its
    block. An operation on other qubits, or an operand that is not
    (2 dim)^2, raises CircuitError."""
    d, u = len(chain), chain[-1][2]
    dim = len(u)
    n = dim.bit_length() - 1
    block = range((d - 1) * n, d * n + 1)
    shape = _support_shape(block)[0]
    mats = [None, None]
    for i, op in enumerate((before, after)):
        if op is None:
            continue
        op_shape, how, m = op
        if op_shape != shape:
            raise CircuitError(f"a {how} operation on {op_shape} is not on qubits {block[0]}..{block[-1]}")
        if how == "phase":
            m = np.diag(m.reshape(-1))
        if m.shape != (2 * dim, 2 * dim):
            raise CircuitError(f"a {m.shape} operand on a {2 * dim}-dimensional block")
        mats[i] = m
    if mats[0] is None:
        m = np.zeros((2 * dim, 2 * dim), dtype=u.dtype)
        m[:dim, :dim] = m[dim:, dim:] = u
    else:  # (1 (x) u) b multiplies each of b's two row blocks by u
        m = (u @ mats[0].reshape(2, dim, -1)).reshape(2 * dim, -1)
    if mats[1] is not None:
        m = mats[1] @ m
    if d == 1:
        return [register_op(block, m)]
    return chain[:-1] + [([dim ** (d - 1), -1, 2 * dim], "turn", m)]


def fold(ops: list[tuple], d: int) -> list[tuple]:
    """ops, each turn_ops chain of d turns taking into its last turn the
    operations beside it on register d-1's block (fold_turns), on either
    side: the view [-1, 2 dim, dim^(d-1)] of register d-1 and the qubit
    above it, the electronic one, which each chain's last turn
    [dim^(d-1), -1, dim] gives. One between two chains goes to the first.
    Once one chain folds, every chain widens its last turn, with the
    identity where nothing borders it, so a Strang bridge meets two wide
    turns. Without a chain (one register makes no turn) ops come back as
    they are."""
    ops, folds, taken = list(ops), [], -1
    for i, (shape, how, _) in enumerate(ops):
        if how == "turn" and len(shape) == 3:
            view = [-1, 2 * shape[2], shape[0]]
            before = ops[i - d] if i - d > taken and ops[i - d][0] == view else None
            after = ops[i + 1] if i + 1 < len(ops) and ops[i + 1][0] == view else None
            folds.append((i, before, after))
            taken = i + (after is not None)
    if any(before or after for _, before, after in folds):
        for i, before, after in reversed(folds):
            chain = fold_turns(before, ops[i + 1 - d:i + 1], after)
            ops[i + 1 - d - (before is not None):i + 1 + (after is not None)] = chain
    return ops


def phase_tables(masks, angles, starts, n_qubits: int) -> np.ndarray:
    """exp(i times the summed angles) over the 2**n_qubits indices, one row
    per stretch of (mask, bits) and angle pairs, the stretches beginning at
    `starts`: a pair adds its angle where the index's bits under the integer
    mask equal `bits`. One vectorised match serves every row."""
    masks = np.array(masks)
    match = (np.arange(1 << n_qubits) & masks[:, :1]) == masks[:, 1:]
    return np.exp(1j * np.add.reduceat(np.array(angles)[:, None] * match, starts))


def merge_phases(parts, n_qubits: int) -> list[tuple]:
    """The operations of (ascending support, diagonal, table or matrix)
    parts, as _fuse returns them, each stretch of consecutive diagonal parts
    multiplied into one phase_op over n_qubits.

    A stretch's tables are broadcast over one axis per qubit (numpy joins
    the axes the tables hold alike) and multiplied pair by pair, the pair
    with the smallest joint support first, so the products stay small; the
    last product is written straight into the one full table."""
    out = []
    for diagonal, stretch in itertools.groupby(parts, operator.itemgetter(1)):
        stretch = list(stretch)
        if not diagonal or len(stretch) == 1:
            out += [phase_op(sup, m) if diagonal else register_op(sup, m) for sup, _, m in stretch]
            continue
        factors = []
        for support, _, table in stretch:
            shape = [1] * n_qubits
            for q in support:
                shape[-1 - q] = 2
            factors.append((sum(1 << q for q in support), table.reshape(shape)))
        while len(factors) > 2:
            i, j = min(itertools.combinations(range(len(factors)), 2),
                       key=lambda ij: (factors[ij[0]][0] | factors[ij[1]][0]).bit_count())
            (mi, ti), (mj, tj) = factors[i], factors.pop(j)
            factors[i] = (mi | mj, ti * tj)
        table = np.empty(1 << n_qubits, dtype=np.complex128)
        np.multiply(factors[0][1], factors[1][1], out=table.reshape((2,) * n_qubits))
        out.append(phase_op(range(n_qubits), table))
    return out


def _apply_op(op: tuple, cur: np.ndarray, spare: np.ndarray) -> tuple:
    """Apply one operation to the flat state `cur`; returns (result, free
    buffer) of cur and the same-shaped `spare`. A phase works in place;
    "left" (u v), "right" (v u.T) and "turn" write `spare`, leaving `cur` as
    it was, and "gather" uses both."""
    shape, how, m = op
    v = cur.reshape(shape)
    if how == "phase":
        v *= m
        return cur, spare
    if how == "turn":  # the view's first axis moves last: the multiplied register goes on
        # top, and in a chain's last view the registers turned before return to the bottom
        src = v.transpose(_TURN_AXES[v.ndim])
        np.matmul(m, src, out=spare.reshape(src.shape))
        return spare, cur
    out = spare.reshape(shape)
    if how == "left":
        np.matmul(m, v, out=out)
    elif how == "right":
        np.matmul(v, m.T, out=out)
    else:  # gather the blocks in the spare, multiply into cur, scatter back
        u, order = m
        gathered = [shape[a] for a in order]
        spare.reshape(gathered)[...] = v.transpose(order)
        np.matmul(spare.reshape(-1, len(u)), u.T, out=cur.reshape(-1, len(u)))
        out[...] = cur.reshape(gathered).transpose(np.argsort(order))
    return spare, cur


def _bridge(tail: tuple, head: tuple) -> tuple:
    """The one operation that applies `tail` and then `head`, two operations
    of the same kind on the same view: the product of the phase tables or,
    for the dense kinds, H @ T."""
    shape, how, t = tail
    if "gather" in (how, head[1]):
        raise CircuitError("cannot merge a gathering operation")
    if (how, shape) != (head[1], head[0]):
        raise CircuitError(f"cannot merge a {how} operation on {shape} "
                           f"with a {head[1]} operation on {head[0]}")
    h = head[2]
    return shape, how, h * t if how == "phase" else h @ t


class Program:
    """Operations run in order: run(state) applies them in place and returns
    the state, which may live on more qubits than n_qubits. A phase works
    in place; every other operation writes to one reused scratch buffer,
    which then swaps roles with the state, and a run that ends in the
    scratch costs one copy back.

    stepper(halves) runs the program k times as one block. The `halves`
    operations at each end form the step's outer half-step: operations on
    disjoint qubits, or the positions of a turn_ops chain, a full cycle of
    the qubit order. Either way, across the boundary of two steps tail op i
    meets head op i on the same view, and the bridge applies each such pair
    as one operation; a bridge may pair two wide last turns (fold),
    the tail's with a folded operation, the head's widened with the
    identity. Every block copies back at most once, not once per step."""

    def __init__(self, n_qubits: int, ops: list[tuple]):
        self.n_qubits = n_qubits
        self.ops = ops
        self._scratch = None

    def scratch(self, state: np.ndarray) -> np.ndarray:
        """The reused complex buffer of the flat state's shape."""
        if self._scratch is None or self._scratch.shape != state.shape:
            self._scratch = np.empty(state.shape, dtype=np.complex128)
        return self._scratch

    def run(self, state: np.ndarray) -> np.ndarray:
        return self._run(state, self.ops)

    def stepper(self, halves: int):
        """advance(state, k): the program run k times over the state in
        place, as the opening half, the body, k - 1 times the bridge and the
        body, and the closing half, with at most one copy back per block.
        The bridge is built on the first call with k >= 2 and lives as long
        as advance; a pair of head and tail operations that cannot merge
        raises CircuitError then."""
        if not 1 <= halves <= len(self.ops) // 2:
            raise CircuitError(f"{halves} operations at each end of a {len(self.ops)}-operation program")
        head, body, tail = self.ops[:halves], self.ops[halves:-halves], self.ops[-halves:]
        bridge: list[tuple] = []

        def advance(state: np.ndarray, k: int) -> np.ndarray:
            if k < 1:
                return state
            if k > 1 and not bridge:
                bridge[:] = [_bridge(t, h) for t, h in zip(tail, head)]
            return self._run(state, head + body + (bridge + body) * (k - 1) + tail)

        return advance

    def _run(self, state: np.ndarray, ops) -> np.ndarray:
        _state_qubits(state, self.n_qubits)
        cur, spare = state, self.scratch(state)
        for op in ops:
            cur, spare = _apply_op(op, cur, spare)
        if cur is not state:
            state[...] = cur
        return state


PARAM_KINDS = ("U1", "RY", "RX")
FIXED_KINDS = ("H", "X", "S", "SWAP")
KINDS = PARAM_KINDS + FIXED_KINDS
_N_TARGETS = {kind: 2 if kind == "SWAP" else 1 for kind in KINDS}

# the fixed 2x2s as Python scalars; apply builds RX and RY from math.cos and math.sin
_MATS = {"H": ((1 / math.sqrt(2), 1 / math.sqrt(2)), (1 / math.sqrt(2), -1 / math.sqrt(2))),
         "X": ((0, 1), (1, 0))}


class _GateFields(NamedTuple):
    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    theta: float | None = None
    layer: int = 0


class Gate(_GateFields):
    """One gate: base kind, target qubit(s), control (qubit, polarity) list.

    An immutable tuple of its fields, checked when a caller makes it: its
    targets and controls become tuples, each control a (qubit, polarity)
    pair, its qubits must be integers and its layer a non-negative int."""

    __slots__ = ()

    def __new__(cls, kind, targets, controls=(), theta=None, layer=0):
        if kind not in KINDS:
            raise CircuitError(f"unknown gate kind {kind!r}")
        try:
            targets, controls = tuple(map(operator.index, targets)), tuple((q, pol) for q, pol in controls)
        except (TypeError, ValueError):
            raise CircuitError(f"qubits must be integers and controls (qubit, polarity) pairs, "
                               f"got targets {targets!r} and controls {controls!r}") from None
        want_targets = _N_TARGETS[kind]
        if len(targets) != want_targets or (want_targets == 2 and targets[0] == targets[1]):
            raise CircuitError(f"{kind} needs {want_targets} distinct target(s), got {targets}")
        if isinstance(layer, bool) or not isinstance(layer, int) or layer < 0:
            raise CircuitError(f"layer must be a non-negative integer, got {layer!r}")
        if kind in PARAM_KINDS:
            try:
                finite = not isinstance(theta, (bool, np.bool_)) and math.isfinite(theta)
            except TypeError:  # None, a string or a complex number
                finite = False
            if not finite:
                raise CircuitError(f"{kind} needs a finite angle, got {theta!r}")
        elif theta is not None:
            raise CircuitError(f"{kind} takes no angle")
        if controls:
            seen = set(targets)
            try:
                for q, pol in controls:
                    if operator.index(q) in seen:
                        raise CircuitError(f"controls {controls} must be distinct and disjoint from targets")
                    if operator.index(pol) not in (0, 1):
                        raise CircuitError(f"control polarity must be 0 or 1, got {pol}")
                    seen.add(q)
            except TypeError:
                raise CircuitError(f"control qubits and polarities must be integers, got {controls}") from None
        return tuple.__new__(cls, (kind, targets, controls, theta, layer))

    @classmethod
    def _make(cls, iterable) -> "Gate":
        """A checked Gate from its fields; _replace goes through it too."""
        return cls(*iterable)


def _derived_gate(*fields) -> Gate:
    """A Gate made without the checks, for gates derived from checked ones."""
    return tuple.__new__(Gate, fields)


class Circuit:
    """Gate list over a fixed qubit count, with declared layers and no global
    phase: builders make constant phases with gates, which controlled() keeps."""

    def __init__(self, n_qubits: int):
        if not is_integer(n_qubits) or n_qubits < 1:
            raise CircuitError(f"need an integer count of at least one qubit, got {n_qubits!r}")
        self.n_qubits = n_qubits
        self.gates: list[Gate] = []
        self._layer = -1

    def new_layer(self) -> int:
        self._layer += 1
        return self._layer

    def add(self, kind, targets, controls=(), theta=None, layer=None) -> Gate:
        """Append a checked gate, on the next layer when `layer` is None; the
        circuit's layer count moves only once the gate passes its checks."""
        gate = Gate(kind, targets, controls, theta, self._layer + 1 if layer is None else layer)
        n = self.n_qubits
        for q in (*gate.targets, *(q for q, _ in gate.controls)):
            if not 0 <= q < n:
                raise CircuitError(f"qubit {q} outside the {n}-qubit circuit")
        self._layer = max(self._layer, gate.layer)
        self.gates.append(gate)
        return gate

    def depth(self) -> int:
        return len({g.layer for g in self.gates})

    def gate_count(self) -> int:
        return len(self.gates)

    def _extend(self, other: "Circuit", qubit_map, offset: int, scale=1.0, control: int | None = None) -> None:
        """Append unchecked copies of other's checked gates, qubit q moved to
        qubit_map[q] (None: the identity), layers shifted by offset, angles
        times scale (a list: one factor per gate) and, given a control, each
        gate controlled on that qubit's |1>. The map is checked once, the
        control against each gate's qubits, and each angle a factor other than
        1.0 makes once, as Gate checks it; on a failed check nothing is appended."""
        gates, n = other.gates, other.n_qubits
        qmap = tuple(range(n)) if qubit_map is None else tuple(qubit_map)
        if len(qmap) != n or len(set(qmap)) != n or min(qmap) < 0 or max(qmap) >= self.n_qubits:
            raise CircuitError(f"qubit map {qmap} does not send {n} qubits one-to-one "
                               f"into the {self.n_qubits}-qubit circuit")
        if control is not None and not 0 <= control < self.n_qubits:
            raise CircuitError(f"qubit {control} outside the {self.n_qubits}-qubit circuit")
        # each distinct target or control tuple is remapped and checked once
        extra = () if control is None else ((control, 1),)
        moved = None if qubit_map is None and control is None else {(): extra}
        scales = scale if isinstance(scale, list) else [scale] * len(gates)
        top, new = self._layer, []
        for g, s in zip(gates, scales, strict=True):
            kind, targets, controls, theta, layer = g
            if moved is not None:
                t, c = moved.get(targets), moved.get(controls)
                if t is None:
                    t = moved[targets] = tuple([qmap[q] for q in targets])
                    if control in t:
                        raise CircuitError(f"control qubit {control} already used by {g}")
                if c is None:
                    c = tuple([(qmap[q], p) for q, p in controls])
                    if control in [q for q, _ in c]:
                        raise CircuitError(f"control qubit {control} already used by {g}")
                    c = moved[controls] = c + extra
                targets, controls = t, c
            if theta is not None and s != 1.0:
                theta *= s
                if not math.isfinite(theta):
                    raise CircuitError(f"{kind} needs a finite angle, got {theta}")
            layer += offset
            if layer > top:
                top = layer
            # _derived_gate inlined: its call costs a tenth of this loop
            new.append(tuple.__new__(Gate, (kind, targets, controls, theta, layer)))
        self.gates += new
        self._layer = top

    def append_circuit(self, other: "Circuit", qubit_map=None) -> None:
        """Concatenate another circuit; its layers land after the current ones."""
        self._extend(other, qubit_map, self._layer + 1)

    def mirrored(self) -> "Circuit":
        """The gates in reverse order, layer l on the last layer minus l, so
        the layer count is the same: the transpose of this circuit's unitary
        when no gate is an RY, every other kind being a symmetric matrix."""
        out = Circuit(self.n_qubits)
        top = out._layer = self._layer
        out.gates = [_derived_gate(*g[:4], top - g.layer) for g in reversed(self.gates)]
        return out

    def controlled(self, control: int) -> "Circuit":
        """Every gate gains `control`, which fires on |1>."""
        out = Circuit(max(self.n_qubits, control + 1))
        out._extend(self, None, 0, control=control)
        return out


def apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Run the circuit over `state` in place (and return it), gate by gate.

    `state` may live on more qubits than the circuit uses.
    """
    n_state = _state_qubits(state, circuit.n_qubits)
    for kind, targets, controls, theta, _ in circuit.gates:
        if kind == "U1" or kind == "S":
            apply_phase(state, n_state, controls + ((targets[0], 1),), 1j if kind == "S" else cmath.exp(1j * theta))
        elif kind == "SWAP":
            apply_swap(state, n_state, targets[0], targets[1], controls)
        else:
            mat = _MATS.get(kind)
            if mat is None:
                c, s = math.cos(theta / 2), math.sin(theta / 2)
                mat = ((c, -1j * s), (-1j * s, c)) if kind == "RX" else ((c, -s), (s, c))
            apply_matrix(state, n_state, targets[0], controls, mat)
    return state


def unitary_of(circuit: Circuit, n_qubits: int | None = None) -> np.ndarray:
    """Dense matrix of a small circuit from one apply over the flattened
    identity, a 2n-qubit allocate_state whose top n qubits hold the column index."""
    n = circuit.n_qubits if n_qubits is None else n_qubits
    if n < circuit.n_qubits:
        raise CircuitError(f"a {circuit.n_qubits}-qubit circuit has no {n}-qubit unitary")
    dim = 1 << n
    state = allocate_state(2 * n)
    state[:: dim + 1] = 1.0
    return apply(circuit, state).reshape(dim, dim).T


def compile(circuit: Circuit, layout) -> Program:
    """The circuit as a Program of operations, each the unitary of its gates
    as unitary_of computes it, up to rounding (_fuse).

    The mode registers of the layout (a model.QubitLayout) that the circuit
    holds whole split the gates into register runs and potential runs. A
    register run is a maximal run of gates that each stay inside one mode
    register, not all of them diagonal (the QFT, UK and QFT'); gates on
    different registers commute, so it becomes one operation per register,
    that register's gates in order, and a run with a dense operation on
    every register the chain of turn_ops. A potential run is the rest
    (Udiag, Uc, the bilinear phases and the CCRx expansion, or any gates
    that straddle registers): it is fused greedily, each run of consecutive
    gates whose joint support fits in layout.n + 1 qubits (one mode register
    and the electronic qubit) one operation on that support, gates never
    reordered and a wider gate an operation of its own. Each stretch of
    consecutive phase operations this yields is multiplied into one phase
    table over the whole state (merge_phases).

    Each run is lowered where it stands, keyed by its gates (kind, targets,
    controls, angle; not the layer). A run equal to an earlier one, as the
    second walled K/2 run of a kinetic-first step, takes that run's
    operations, the same arrays. A potential run that reads as an earlier
    one backwards, as the tail of a potential-first step reads its head
    (Circuit.mirrored), is the transpose of that run's unitary when every
    gate is a symmetric matrix, which all kinds but RY are: it takes the
    earlier run's operations in reverse order, each transposed
    (_transposed), so its phase tables are the earlier run's arrays. A
    register run is never read backwards (a turn chain has no reverse), and
    any other run, or one holding an RY, calls _fuse on its own gates: one
    call per distinct register run.

    Then the operations go through fold, which folds each operation beside
    a chain on register d-1's block (register d-1 and the electronic qubit)
    into its last turn, as the soft engine's plan folds its own."""
    n = layout.n
    d = min(layout.d, circuit.n_qubits // n)  # the registers the circuit holds whole
    owner = [q // n if q < n * d else None for q in range(circuit.n_qubits)]

    def register(g: Gate) -> int | None:
        r = owner[g.targets[0]]
        for q in g.targets[1:]:
            if owner[q] != r:
                return None
        for q, _ in g.controls:
            if owner[q] != r:
                return None
        return r

    def in_registers(run: list) -> bool:
        return run[0][0] is not None and not all(_diagonal(g) for _, g in run)

    tagged = [(register(g), g) for g in circuit.gates]
    runs = [list(run) for _, run in itertools.groupby(tagged, lambda rg: rg[0] is None)]
    ops, lowered = [], {}
    for by_register, group in itertools.groupby(runs, in_registers):
        run = [rg for part in group for rg in part]
        key = tuple([g[:4] for _, g in run])
        piece = lowered.setdefault(key, [])  # filled in place: the key is hashed once
        if not piece:
            mirror = None if by_register else lowered.get(key[::-1])
            if mirror and all(g.kind != "RY" for _, g in run):
                piece += [_transposed(op) for op in reversed(mirror)]
            elif by_register:
                gates: dict[int, list[Gate]] = {}
                for r, g in run:
                    gates.setdefault(r, []).append(g)
                parts = _fuse([(layout.mode_qubits(r), gates[r]) for r in sorted(gates)])
                dense = [m for _, diagonal, m in parts if not diagonal]
                piece += turn_ops(dense) if len(dense) == d else [
                    phase_op(sup, m) if diagonal else register_op(sup, m) for sup, diagonal, m in parts]
            else:
                piece += merge_phases(_fuse(_fuse_greedy([g for _, g in run], n + 1)), circuit.n_qubits)
        ops += piece
    return Program(circuit.n_qubits, fold(ops, d))


def _transposed(op: tuple) -> tuple:
    """The operation that applies the transpose of op's matrix: a phase is
    its own, a dense operand is transposed, a gather's (u, order) becomes
    (u.T, order)."""
    shape, how, m = op
    if how == "phase":
        return op
    return shape, how, (m[0].T, m[1]) if how == "gather" else m.T


def _fuse_greedy(gates: list[Gate], width: int) -> list[tuple]:
    """(ascending support, gates) of each run of consecutive gates within
    `width` qubits: a run grows by its gates' qubit masks while the union's
    int.bit_count stays within `width`."""
    masks: list[int] = []
    runs: list[list] = []
    for g in gates:
        mask = 0
        for q in g.targets:
            mask |= 1 << q
        for q, _ in g.controls:
            mask |= 1 << q
        if runs and (masks[-1] | mask).bit_count() <= width:
            masks[-1] |= mask
            runs[-1].append(g)
        else:
            masks.append(mask)
            runs.append([g])
    return [([q for q in range(m.bit_length()) if m >> q & 1], gs) for m, gs in zip(masks, runs)]


def _fuse(runs: list[tuple]) -> list[tuple]:
    """(support, diagonal, table or matrix) of each (ascending support,
    gates) run: its unitary, as its diagonal when it has no other nonzero.

    Each stretch of consecutive diagonal gates (U1, S) is one table of
    summed angles over the support's indices, exponentiated once, each gate
    matching its (mask, bits) integers; phase_tables computes the tables of
    all the runs at once. A run of one stretch is its phase table. The other
    runs are fused once per shape: the support's width, the sequence of
    stretches, and for each non-diagonal stretch its gates in local
    coordinates (kind, targets, controls, angle; not the layer). A group of
    runs of one shape starts from a stack of the 2k-qubit identities that
    unitary_of runs a circuit over, as many as the group rounded up to a
    power of two, so the stack is one state: each diagonal stretch
    multiplies each run's identity by that run's own table, and each other
    stretch runs once over the whole stack through apply. The same gates
    act on the same numbers as they would on one identity, so each run's
    operand, a copy of its slice of the stack, is the same to the bit."""
    masks, angles, starts, rows, shapes = [], [], [], [], {}
    for i, (support, gates) in enumerate(runs):
        local = {q: j for j, q in enumerate(support)}
        shape, own = [len(support)], []
        for diagonal, stretch in itertools.groupby(gates, _diagonal):
            if diagonal:
                own.append(len(starts))
                starts.append(len(angles))
                for g in stretch:
                    j = local[g.targets[0]]
                    mask, bits = 1 << j, 1 << j
                    for q, b in g.controls:
                        j = local[q]
                        mask |= 1 << j
                        bits |= b << j
                    masks.append((mask, bits))
                    angles.append(math.pi / 2 if g.kind == "S" else g.theta)
                shape.append(None)
            else:
                shape.append(tuple(_derived_gate(g.kind, tuple(local[t] for t in g.targets),
                                                 tuple((local[c], p) for c, p in g.controls), g.theta, 0)
                                   for g in stretch))
        rows.append(own)
        shapes.setdefault(tuple(shape), []).append(i)
    if starts:
        tables = phase_tables(masks, angles, starts, max(len(s) for s, _ in runs))
    out: list = [None] * len(runs)
    for (k, *stretches), group in shapes.items():
        dim = 1 << k
        if stretches == [None]:
            for i in group:
                out[i] = (runs[i][0], True, tables[rows[i][0], :dim])
            continue
        stack = np.zeros((1 << (len(group) - 1).bit_length(), dim, dim), dtype=np.complex128)
        stack.reshape(len(stack), -1)[:, :: dim + 1] = 1.0
        sub, r = Circuit(k), 0
        for stretch in stretches:
            if stretch is None:
                stack[: len(group)] *= tables[[rows[i][r] for i in group], None, :dim]
                r += 1
            else:
                sub.gates = list(stretch)
                apply(sub, stack.reshape(-1))
        for i, slot in zip(group, stack):
            u = slot.copy().T
            # a diagonal unitary, as U1, S and X pairs leave, has exact zeros elsewhere
            diagonal = np.count_nonzero(u) == np.count_nonzero(np.diagonal(u))
            out[i] = (runs[i][0], diagonal, np.diagonal(u) if diagonal else u)
    return out


def _diagonal(g: Gate) -> bool:
    return g.kind == "U1" or g.kind == "S"
