import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vibroniq import kernels
from vibroniq.kernels import (
    KINDS,
    Circuit,
    CircuitError,
    MemoryBudgetError,
    Program,
    allocate_state,
    apply,
    apply_matrix,
    apply_phase,
    apply_swap,
    fold,
    fold_turns,
    merge_phases,
    phase_op,
    register_op,
    turn_ops,
)


def random_state(n, rng):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return (v / np.linalg.norm(v)).astype(np.complex128)


def test_allocate_state():
    s = allocate_state(3)
    assert s.shape == (8,)
    assert s.dtype == np.complex128
    assert np.all(s == 0)
    with pytest.raises(MemoryBudgetError):
        allocate_state(40)


def test_charge_refuses_only_a_request_over_the_budget(monkeypatch):
    monkeypatch.setattr(kernels, "DEFAULT_MEMORY_BUDGET", 1000)
    kernels.charge(1000, "a request at the budget")
    with pytest.raises(MemoryBudgetError, match="^a request: 1001 bytes, over the 1000-byte budget$"):
        kernels.charge(1001, "a request")


def test_a_state_just_over_the_budget_is_refused_before_it_is_allocated(monkeypatch):
    # a 16-qubit state is 1 MiB; its charge adds the temporaries of the gates run over it
    need = 16 * (kernels.APPLY_STATEVECTORS << 16) + kernels._APPLY_BYTES
    monkeypatch.setattr(kernels, "DEFAULT_MEMORY_BUDGET", need)
    assert allocate_state(16).size == 1 << 16
    monkeypatch.setattr(kernels, "DEFAULT_MEMORY_BUDGET", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError, match="a 16-qubit statevector and the gates run over it"):
            allocate_state(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_x_gate_flips_the_low_bit():
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    s = np.zeros(4, dtype=np.complex128)
    s[0] = 1.0
    apply_matrix(s, 2, 0, (), x)
    assert np.allclose(s, [0, 1, 0, 0])
    apply_matrix(s, 2, 1, (), x)
    assert np.allclose(s, [0, 0, 0, 1])


def test_controlled_gate_acts_only_on_matching_states():
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    s = np.zeros(4, dtype=np.complex128)
    s[1] = 1.0  # qubit 0 set, qubit 1 clear
    apply_matrix(s, 2, 1, ((0, 1),), x)
    assert np.allclose(s, [0, 0, 0, 1])
    # open control (polarity 0) fires on the cleared qubit instead
    s = np.zeros(4, dtype=np.complex128)
    s[0] = 1.0
    apply_matrix(s, 2, 1, ((0, 0),), x)
    assert np.allclose(s, [0, 0, 1, 0])


def test_phase_touches_only_the_fixed_subspace():
    s = np.ones(8, dtype=np.complex128)
    apply_phase(s, 3, ((0, 1), (2, 1)), 1j)
    expected = np.ones(8, dtype=np.complex128)
    for idx in range(8):
        if idx & 1 and idx & 4:
            expected[idx] = 1j
    assert np.allclose(s, expected)


def test_phase_with_every_qubit_fixed():
    # fully specified index: the kernel must update exactly one amplitude
    s = np.ones(8, dtype=np.complex128)
    apply_phase(s, 3, ((0, 1), (1, 0), (2, 1)), -1.0)
    expected = np.ones(8, dtype=np.complex128)
    expected[0b101] = -1.0
    assert np.allclose(s, expected)


def test_global_phase_shortcut():
    s = np.ones(4, dtype=np.complex128)
    apply_phase(s, 2, (), 1j)
    assert np.allclose(s, 1j * np.ones(4))


def test_swap_permutes_indices():
    s = np.arange(8, dtype=np.complex128)
    apply_swap(s, 3, 0, 2, ())
    expected = np.arange(8, dtype=np.complex128)
    expected[[1, 4]] = expected[[4, 1]]
    expected[[3, 6]] = expected[[6, 3]]
    assert np.allclose(s, expected)


def test_controlled_swap():
    s = np.arange(16, dtype=np.complex128)
    apply_swap(s, 4, 0, 1, ((3, 1),))
    expected = np.arange(16, dtype=np.complex128)
    expected[[9, 10]] = expected[[10, 9]]
    expected[[13, 14]] = expected[[14, 13]]
    assert np.allclose(s, expected)


def _bit(idx, q):
    return (idx >> q) & 1


def _matches(idx, pins):
    return all(_bit(idx, q) == b for q, b in pins)


def _reference_apply(state, op):
    """One operation applied amplitude by amplitude, by bit tests on the index."""
    out = state.copy()
    for idx in range(state.size):
        if op[0] == "mat":
            _, t, ctrl, mat = op
            if _matches(idx, ctrl):
                i0, i1 = idx & ~(1 << t), idx | (1 << t)
                out[idx] = mat[_bit(idx, t), 0] * state[i0] + mat[_bit(idx, t), 1] * state[i1]
        elif op[0] == "phase":
            if _matches(idx, op[1]):
                out[idx] = state[idx] * op[2]
        else:
            _, t1, t2, ctrl = op
            if _matches(idx, ctrl) and _bit(idx, t1) != _bit(idx, t2):
                out[idx] = state[idx ^ (1 << t1) ^ (1 << t2)]
    return out


def test_kernels_match_index_reference_on_random_circuits(rng):
    n = 6
    ops = []
    for _ in range(60):
        kind = rng.integers(0, 3)
        qubits = rng.permutation(n)
        if kind == 0:
            mat, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            ctrl = tuple((int(q), int(rng.integers(0, 2))) for q in qubits[1 : 1 + rng.integers(0, 3)])
            ops.append(("mat", int(qubits[0]), ctrl, mat))
        elif kind == 1:
            fixed = tuple((int(q), int(rng.integers(0, 2))) for q in qubits[: rng.integers(0, n + 1)])
            ops.append(("phase", fixed, np.exp(1j * rng.normal())))
        else:
            ctrl = tuple((int(q), int(rng.integers(0, 2))) for q in qubits[2 : 2 + rng.integers(0, 2)])
            ops.append(("swap", int(qubits[0]), int(qubits[1]), ctrl))
    controls = [c for op in ops if op[0] == "mat" for c in op[2]]
    controls += [c for op in ops if op[0] == "swap" for c in op[3]]
    assert {b for _, b in controls} == {0, 1}

    s = random_state(n, rng)
    ref = s.copy()
    for op in ops:
        if op[0] == "mat":
            apply_matrix(s, n, op[1], op[2], op[3])
        elif op[0] == "phase":
            apply_phase(s, n, op[1], op[2])
        else:
            apply_swap(s, n, op[1], op[2], op[3])
        ref = _reference_apply(ref, op)
    assert np.max(np.abs(s - ref)) < 1e-12


def _reference_op(g):
    """A gate as a _reference_apply operation, its matrix written out here."""
    kind, targets, controls, theta, _ = g
    if kind in ("U1", "S"):
        return "phase", controls + ((targets[0], 1),), 1j if kind == "S" else np.exp(1j * theta)
    if kind == "SWAP":
        return "swap", targets[0], targets[1], controls
    c, s = (math.cos(theta / 2), math.sin(theta / 2)) if theta is not None else (0.0, 0.0)
    mat = {"H": np.array([[1, 1], [1, -1]]) / math.sqrt(2), "X": np.array([[0, 1], [1, 0]]),
           "RX": np.array([[c, -1j * s], [-1j * s, c]]), "RY": np.array([[c, -s], [s, c]])}[kind]
    return "mat", targets[0], controls, mat


def _addressed(size, g):
    """The indices a gate may change: its controls match and, for a phase,
    its target is set; for a SWAP, its targets differ."""
    idx = np.arange(size)
    hit = np.ones(size, dtype=bool)
    for q, b in g.controls:
        hit &= (idx >> q & 1) == b
    if g.kind in ("U1", "S"):
        hit &= (idx >> g.targets[0] & 1) == 1
    elif g.kind == "SWAP":
        hit &= (idx >> g.targets[0] & 1) != (idx >> g.targets[1] & 1)
    return hit


@pytest.mark.parametrize("extra", [0, 2])
def test_every_gate_kind_through_apply_matches_the_index_reference(extra, rng):
    # targets and controls on qubits 0 and 1 (the lowest stretch one or two
    # amplitudes long, so the longest is moved innermost), n - 2 and the top
    # qubit; open and closed controls; two qubits above the circuit or none
    n = 6
    edge = (0, 1, n - 2, n - 1)
    gates = []
    for kind in KINDS:
        for i, t in enumerate(edge):
            targets = (t, edge[i - 1]) if kind == "SWAP" else (t,)
            for n_controls in (0, 1, 2):
                free = [q for q in edge if q not in targets]
                controls = tuple((int(q), int(rng.integers(2))) for q in rng.permutation(free)[:n_controls])
                theta = float(rng.normal() * 3) if kind in ("U1", "RX", "RY") else None
                gates.append(kernels.Gate(kind, targets, controls, theta))
    assert {b for g in gates for _, b in g.controls} == {0, 1}
    for g in gates:
        before = random_state(n + extra, rng)
        circuit = Circuit(n)
        circuit.gates = [g]
        out = apply(circuit, before.copy())
        hit = _addressed(before.size, g)
        assert np.array_equal(out[~hit], before[~hit]), g
        assert np.max(np.abs(out - _reference_apply(before, _reference_op(g)))) < 1e-15, g


def test_apply_of_every_kind_allocates_no_scratch_state():
    # each kernel's temporaries are at most two half views, so a circuit of
    # every kind, controlled and not, peaks near one statevector of scratch
    n = 16
    circuit = Circuit(n)
    for kind in KINDS:
        targets = (1, n - 1) if kind == "SWAP" else (1,)
        theta = 0.3 if kind in ("U1", "RX", "RY") else None
        circuit.add(kind, targets, (), theta)
        circuit.add(kind, targets, ((0, 1),), theta)
    state = np.ones(1 << n, dtype=np.complex128)
    tracemalloc.start()
    try:
        apply(circuit, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.26 * state.nbytes, peak / state.nbytes


def test_apply_runs_each_gate_through_the_traced_kernel_signatures(monkeypatch):
    # vbench/tracing.py wraps the kernels at their module attributes and tags
    # their spans by position: a[1] the qubit count, a[3] (matrix), a[2]
    # (phase) and a[4] (swap) the pinned (qubit, bit) pairs
    params = {"apply_matrix": ["state", "n_qubits", "target", "controls", "mat"],
              "apply_phase": ["state", "n_qubits", "fixed", "phase"],
              "apply_swap": ["state", "n_qubits", "t1", "t2", "controls"]}
    for name, names in params.items():
        assert list(inspect.signature(getattr(kernels, name)).parameters) == names
    calls = {name: [] for name in params}
    for name in params:
        def counted(*a, _name=name, _fn=getattr(kernels, name)):
            calls[_name].append(a)
            return _fn(*a)
        monkeypatch.setattr(kernels, name, counted)
    circuit = Circuit(4)
    for kind in KINDS:
        circuit.add(kind, (0, 2) if kind == "SWAP" else (0,), ((3, 1),), 0.3 if kind in ("U1", "RX", "RY") else None)
    apply(circuit, np.ones(1 << 5, dtype=np.complex128))
    assert {name: len(a) for name, a in calls.items()} == {"apply_matrix": 4, "apply_phase": 2, "apply_swap": 1}
    assert all(a[1] == 5 for a in sum(calls.values(), []))
    assert [len(a[3]) for a in calls["apply_matrix"]] == [1] * 4
    assert [len(a[2]) for a in calls["apply_phase"]] == [2] * 2
    assert [len(a[4]) for a in calls["apply_swap"]] == [1]


def test_matrix_preserves_norm(rng):
    th = 0.7
    ry = np.array(
        [[np.cos(th / 2), -np.sin(th / 2)], [np.sin(th / 2), np.cos(th / 2)]],
        dtype=np.complex128,
    )
    s = random_state(5, rng)
    apply_matrix(s, 5, 2, ((4, 1), (0, 0)), ry)
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)


def random_unitary(dim, rng):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def on_support(n, support, u):
    """u on the qubit support of an n-qubit state, bit j of u's index on
    support[j]: kron(identity on the other qubits, u), its basis relabelled."""
    rest = [q for q in range(n) if q not in support]
    order = list(support) + rest  # bit b of the Kronecker index sits on qubit order[b]
    idx = np.arange(1 << n)
    natural = sum(((idx >> b) & 1) << q for b, q in enumerate(order))
    dense = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    dense[np.ix_(natural, natural)] = np.kron(np.eye(1 << len(rest)), u)
    return dense


def _operation_cases(rng, n=7):
    phase = np.exp(1j * rng.normal(size=8))
    cases = {"phase": (phase_op([1, 3, 4], phase), on_support(n, [1, 3, 4], np.diag(phase)))}
    for name, support, u in (("left", [2, 3, 4], random_unitary(8, rng)),
                             ("right", [0, 1, 2], random_unitary(8, rng)),
                             ("gather", [0, 2, 5], random_unitary(8, rng))):
        cases[name] = (register_op(support, u), on_support(n, support, u))
    return cases


def test_every_operation_kind_matches_its_dense_operator(rng):
    n = 7
    cases = _operation_cases(rng, n)
    assert {name: op[1] for name, (op, _) in cases.items()} == {name: name for name in cases}
    for name, (op, dense) in cases.items():
        for extra in (0, 1):  # one more top qubit than the program acts on
            full = np.kron(np.eye(1 << extra), dense)
            state = random_state(n + extra, rng)
            want = full @ state
            program = Program(n, [op])
            assert program.run(state) is state, name
            assert np.max(np.abs(state - want)) < 1e-12, name


@pytest.mark.parametrize("kind", ["phase", "left", "right"])
def test_k_step_advance_matches_k_runs(kind, rng):
    # head and tail of one kind on one view, different operators, around a body
    n = 7
    first, last = _operation_cases(rng, n)[kind][0], _operation_cases(rng, n)[kind][0]
    body = _operation_cases(rng, n)["gather"][0]
    program = Program(n, [first, body, last])
    advance = program.stepper(1)
    for k in range(5):
        plain = random_state(n, rng)
        merged = plain.copy()
        for _ in range(k):
            program.run(plain)
        assert advance(merged, k) is merged
        assert np.max(np.abs(merged - plain)) < 1e-12 * np.max(np.abs(plain)), (kind, k)


def test_a_mismatched_head_and_tail_cannot_merge(rng):
    n = 7
    cases = _operation_cases(rng, n)
    state = random_state(n, rng)
    for head, tail, message in (("phase", "left", "cannot merge a left operation"),
                                ("left", "right", "cannot merge a right operation"),
                                ("gather", "gather", "cannot merge a gathering operation")):
        advance = Program(n, [cases[head][0], cases["phase"][0], cases[tail][0]]).stepper(1)
        advance(state, 1)  # one step merges nothing
        with pytest.raises(CircuitError, match=message):
            advance(state, 2)
    # the same kind on another block
    other = register_op([3, 4, 5], random_unitary(8, rng))
    with pytest.raises(CircuitError, match="on \\[-1, 8, 8\\] with a left operation on \\[-1, 8, 4\\]"):
        Program(n, [cases["left"][0], other]).stepper(1)(state, 2)
    for halves in (0, 2):
        with pytest.raises(CircuitError, match=f"{halves} operations at each end of a 3-operation"):
            Program(n, [cases["left"][0]] * 3).stepper(halves)


def _register_ops(us):
    """One plain register_op per mode register, register r on qubits
    [r n, (r + 1) n)."""
    n = len(us[0]).bit_length() - 1
    return [register_op(range(r * n, (r + 1) * n), u) for r, u in enumerate(us)]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_turn_chain_matches_one_register_op_per_register(d, n, rng):
    us = [random_unitary(1 << n, rng) for _ in range(d)]
    chain = turn_ops(us)
    assert [how for _, how, _ in chain] == ["turn"] * d
    for extra in (0, 1, 2):  # qubits above the registers, as the electronic one
        plain = random_state(d * n + extra, rng)
        turned = plain.copy()
        Program(d * n, _register_ops(us)).run(plain)
        assert Program(d * n, chain).run(turned) is turned
        assert np.max(np.abs(turned - plain)) < 1e-12, extra


@pytest.mark.parametrize("d", [2, 4])
def test_bridged_chains_match_chain_runs(d, rng):
    # a body between two chains, phase tables around a 2x2 on the top qubit
    # as in a kinetic-first step; across a step boundary position i of the
    # tail chain meets position i of the head chain
    n, extra = 2, 1
    head, tail = (turn_ops([random_unitary(1 << n, rng) for _ in range(d)]) for _ in range(2))
    tables = [rng.normal(size=2 << d * n) + 1j * rng.normal(size=2 << d * n) for _ in range(2)]
    body = [phase_op(range(d * n + 1), tables[0]), register_op([d * n], random_unitary(2, rng)),
            phase_op(range(d * n + 1), tables[1])]
    program = Program(d * n + 1, [*head, *body, *tail])
    advance = program.stepper(d)
    for k in range(4):
        plain = random_state(d * n + 1 + extra, rng)
        merged = plain.copy()
        for _ in range(k):
            program.run(plain)
        assert advance(merged, k) is merged
        assert np.max(np.abs(merged - plain)) < 1e-12 * np.max(np.abs(plain)), k


def test_one_register_turns_as_a_plain_right_operation(rng):
    u = random_unitary(8, rng)
    (op,) = turn_ops([u])
    assert op == register_op(range(3), u)
    assert op[:2] == ([-1, 8], "right") and op[2] is u


def test_turn_ops_rejects_register_matrices_of_unequal_size():
    with pytest.raises(CircuitError, match="not all 4x4"):
        turn_ops([np.eye(4), np.eye(8)])
    with pytest.raises(CircuitError, match="not all 4x4"):
        turn_ops([np.eye(4), np.eye(4)[:, :2]])


def _block(d, n):
    """Register d-1's qubits, then the electronic one, as QubitLayout.block_qubits."""
    return range((d - 1) * n, d * n + 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_folded_chain_matches_the_unfolded_run(d, n, rng):
    us = [random_unitary(1 << n, rng) for _ in range(d)]
    before, after = (register_op(_block(d, n), random_unitary(2 << n, rng)) for _ in range(2))
    chain = turn_ops(us)
    folded = fold_turns(before, chain, after)
    assert folded[:-1] == chain[:-1]
    shape, how, operand = folded[-1]
    if d == 1:  # a plain register_op on the block
        assert (shape, how) == ([-1, 2 << n], "right")
    else:
        assert (shape, how, operand.shape) == ([1 << n * (d - 1), -1, 2 << n], "turn", (2 << n, 2 << n))
    for extra in (0, 1, 2):  # qubits above the electronic one
        plain = random_state(d * n + 1 + extra, rng)
        turned = plain.copy()
        Program(d * n + 1, [before, *chain, after]).run(plain)
        Program(d * n + 1, folded).run(turned)
        assert np.max(np.abs(turned - plain)) < 1e-12, extra


def test_fold_takes_a_phase_on_the_block(rng):
    d, n = 2, 2
    chain = turn_ops([random_unitary(4, rng) for _ in range(d)])
    table = np.exp(1j * rng.normal(size=8))
    phase, dense = phase_op(_block(d, n), table), register_op(_block(d, n), random_unitary(8, rng))
    folded = fold_turns(phase, chain, dense)
    plain = random_state(d * n + 1, rng)
    turned = plain.copy()
    Program(d * n + 1, [phase, *chain, dense]).run(plain)
    Program(d * n + 1, folded).run(turned)
    assert np.max(np.abs(turned - plain)) < 1e-12


def test_an_identity_end_folds_by_placement(rng):
    # None on both sides: 1 (x) u_{d-1}, u placed twice to the bit, no product;
    # with one side the other's identity costs nothing either
    d, n = 2, 2
    chain = turn_ops([random_unitary(4, rng) for _ in range(d)])
    u = chain[-1][2]
    wide = fold_turns(None, chain, None)[-1][2]
    assert np.array_equal(wide[:4, :4], u) and np.array_equal(wide[4:, 4:], u)
    assert not wide[:4, 4:].any() and not wide[4:, :4].any()
    c = register_op(_block(d, n), random_unitary(8, rng))
    assert np.array_equal(fold_turns(c, chain, None)[-1][2], (u @ c[2].reshape(2, 4, 8)).reshape(8, 8))
    assert np.array_equal(fold_turns(None, chain, c)[-1][2], c[2] @ wide)


@pytest.mark.parametrize("d", [1, 3])
def test_fold_rejects_operations_off_the_last_block(d, rng):
    n = 2
    chain = turn_ops([random_unitary(1 << n, rng) for _ in range(d)])
    good = register_op(_block(d, n), random_unitary(2 << n, rng))
    # the block without its electronic qubit, and a block one qubit lower
    for support in (range((d - 1) * n, d * n), range((d - 1) * n - 1, d * n)):
        if support.start < 0:
            continue
        bad = register_op(support, random_unitary(1 << len(support), rng))
        with pytest.raises(CircuitError, match="is not on qubits"):
            fold_turns(bad, chain, good)
        with pytest.raises(CircuitError, match="is not on qubits"):
            fold_turns(good, chain, bad)
    # the block's view with an operand of one register's size
    small = (good[0], good[1], random_unitary(1 << n, rng))
    with pytest.raises(CircuitError, match="operand"):
        fold_turns(good, chain, small)


# Properties of the executor, over generated operations. Each example draws a
# seed for its operands and states; the shapes come from the strategies.


def _seeded(draw) -> np.random.Generator:
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _operation(kind: str, support, rng) -> tuple:
    """A phase table or a dense unitary on the ascending support, with random operands."""
    if kind == "phase":
        return phase_op(support, np.exp(1j * rng.normal(size=1 << len(support))))
    return register_op(support, random_unitary(1 << len(support), rng))


@st.composite
def _supports(draw, n_qubits: int, contiguous: bool = False):
    """An ascending support of 1-3 qubits out of n_qubits; one block if contiguous."""
    size = draw(st.integers(1, min(3, n_qubits)))
    if contiguous:
        low = draw(st.integers(0, n_qubits - size))
        return list(range(low, low + size))
    return sorted(draw(st.lists(st.integers(0, n_qubits - 1), min_size=size, max_size=size, unique=True)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_merge_phases_equals_the_plain_product_of_its_tables(data):
    n = data.draw(st.integers(1, 7))
    rng = _seeded(data.draw)
    parts = []
    for support in data.draw(st.lists(_supports(n), min_size=1, max_size=6)):
        parts.append((support, True, np.exp(1j * rng.normal(size=1 << len(support)))))
    ops = merge_phases(parts, n)
    assert len(ops) == 1 and ops[0][1] == "phase"
    index = np.arange(1 << n)
    plain = np.ones(1 << n, dtype=np.complex128)
    for support, _, table in parts:  # bit j of a table's index is qubit support[j]
        plain *= table[sum(((index >> q) & 1) << j for j, q in enumerate(support))]
    state = random_state(n, rng)
    want = plain * state
    assert np.max(np.abs(Program(n, ops).run(state) - want)) < 1e-12


# an end drawn as "identity" is None to fold_turns and no operation of the plain run
END_KINDS = st.sampled_from(["phase", "dense", "identity"])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), END_KINDS, END_KINDS, st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_fold_turns_equals_the_unfolded_run(d, n, before, after, extra, seed):
    rng = np.random.default_rng(seed)
    chain = turn_ops([random_unitary(1 << n, rng) for _ in range(d)])
    ends = [None if kind == "identity" else _operation(kind, list(_block(d, n)), rng) for kind in (before, after)]
    plain = random_state(d * n + 1 + extra, rng)
    folded = plain.copy()
    Program(d * n + 1, [op for op in (ends[0], *chain, ends[1]) if op is not None]).run(plain)
    program = Program(d * n + 1, fold_turns(ends[0], chain, ends[1]))
    assert len(program.ops) == d and len(program.ops[-1][2]) == 2 << n
    program.run(folded)
    assert np.max(np.abs(folded - plain)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fold_equals_the_unfolded_run(data):
    # one or two chains, each end a phase, a dense or no operation on the
    # block, and between two chains a full-state phase table or nothing
    d, n, extra = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
    rng = _seeded(data.draw)
    chains = [turn_ops([random_unitary(1 << n, rng) for _ in range(d)])
              for _ in range(data.draw(st.integers(1, 2)))]
    ends = [[None if kind == "identity" else _operation(kind, list(_block(d, n)), rng)
             for kind in (data.draw(END_KINDS), data.draw(END_KINDS))] for _ in chains]
    between = []
    if len(chains) == 2 and data.draw(st.booleans()):
        between.append(_operation("phase", list(range(d * n + 1)), rng))
    runs = [[op for op in (before, *chain, after) if op is not None] for chain, (before, after) in zip(chains, ends)]
    ops = runs[0] + between + (runs[1] if len(chains) == 2 else [])
    folded = fold(ops, d)
    plain = random_state(d * n + 1 + extra, rng)
    want = Program(d * n + 1, ops).run(plain.copy())
    assert np.max(np.abs(Program(d * n + 1, folded).run(plain) - want)) < 1e-12
    if all(op is None for pair in ends for op in pair):
        assert folded == ops
        return
    # a block operation alone between two chains goes to the first
    if len(chains) == 2 and not between and ends[0][1] is None:
        ends[0][1], ends[1][0] = ends[1][0], None
    expect = [fold_turns(before, chain, after) for chain, (before, after) in zip(chains, ends)]
    expect = expect[0] + between + expect[1] if len(chains) == 2 else expect[0]
    assert [(shape, how) for shape, how, _ in folded] == [(shape, how) for shape, how, _ in expect]
    for (_, _, got), (_, _, m) in zip(folded, expect, strict=True):
        assert np.array_equal(got, m)
    # every chain's last turn is wide once one folds
    assert [len(m) for shape, how, m in folded if len(shape) == 3] == [2 << n] * len(chains)


@st.composite
def _stepped_programs(draw):
    """(n_qubits, program ops, halves, rng): head and tail share kinds and
    views, with different operands. Either end is one phase or one-block
    dense operation, two such on disjoint blocks, or a turn_ops chain over
    d registers; or, as a kinetic-first step folds, the head is a chain
    widened with the identity and the tail a chain with a random block
    operation folded in on one side. The body is 0-3 operations of any kind
    on any support."""
    rng = _seeded(draw)
    form = draw(st.sampled_from(["one", "two", "chain", "wide"]))
    if form in ("chain", "wide"):
        d, n = draw(st.integers(2, 3)), draw(st.integers(1, 2))
        n_qubits = d * n + 1
        head, tail = (turn_ops([random_unitary(1 << n, rng) for _ in range(d)]) for _ in range(2))
        if form == "wide":
            ends = [_operation(draw(st.sampled_from(["phase", "dense"])), list(_block(d, n)), rng), None]
            if draw(st.booleans()):
                ends.reverse()
            head, tail = fold_turns(None, head, None), fold_turns(ends[0], tail, ends[1])
    else:
        n_qubits = draw(st.integers(2, 7))
        cut = draw(st.integers(1, n_qubits - 1))
        blocks = [range(draw(st.integers(0, cut - 1)), cut), range(cut, draw(st.integers(cut + 1, n_qubits)))]
        if form == "one":
            blocks = [draw(st.sampled_from(blocks))]
        kinds = [draw(st.sampled_from(["phase", "dense"])) for _ in blocks]
        head, tail = ([_operation(k, list(b), rng) for k, b in zip(kinds, blocks)] for _ in range(2))
    body = [_operation(draw(st.sampled_from(["phase", "dense"])), draw(_supports(n_qubits)), rng)
            for _ in range(draw(st.integers(0, 3)))]
    return n_qubits, head + body + tail, len(head), rng


@settings(max_examples=40, deadline=None)
@given(_stepped_programs(), st.integers(0, 1))
def test_stepper_over_k_steps_equals_k_runs(case, extra):
    n_qubits, ops, halves, rng = case
    program = Program(n_qubits, ops)
    advance = program.stepper(halves)
    for k in range(5):
        plain = random_state(n_qubits + extra, rng)
        merged = plain.copy()
        for _ in range(k):
            program.run(plain)
        assert advance(merged, k) is merged
        assert np.max(np.abs(merged - plain)) <= 1e-12 * max(k, 1), k


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_head_and_tail_that_cannot_merge_raise_on_the_first_bridged_call(data):
    n = data.draw(st.integers(2, 6))
    rng = _seeded(data.draw)
    ends = [_operation(data.draw(st.sampled_from(["phase", "dense"])), data.draw(_supports(n)), rng)
            for _ in range(2)]
    assume("gather" in (ends[0][1], ends[1][1]) or ends[0][:2] != ends[1][:2])
    body = _operation("dense", data.draw(_supports(n)), rng)
    program = Program(n, [ends[0], body, ends[1]])
    advance = program.stepper(1)
    state = random_state(n, rng)
    plain = state.copy()
    for k in (0, 1):  # no bridge yet
        advance(state, k)
        for _ in range(k):
            program.run(plain)
    assert np.max(np.abs(state - plain)) < 1e-12
    with pytest.raises(CircuitError, match="cannot merge"):
        advance(state, data.draw(st.integers(2, 4)))
