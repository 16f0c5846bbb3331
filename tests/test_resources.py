import pytest

from vibroniq.circuits import build_timestep
from vibroniq.model import GridSpec
from vibroniq.resources import (
    MODEL_CLASSES,
    VARIANTS,
    AssayInput,
    ResourceError,
    _builder_model,
    assay,
    prep_depth,
    qft_depth,
    standard_table,
    step_depth,
    verify_against_builder,
)


def test_registries():
    assert MODEL_CLASSES == ("4D-linear", "24D-quadratic")
    assert VARIANTS == ("A", "B")


def test_assay_input_validation():
    with pytest.raises(ResourceError):
        AssayInput("3D-linear", 4, 512)
    with pytest.raises(ResourceError):
        AssayInput("4D-linear", 1, 512)
    with pytest.raises(ResourceError):
        AssayInput("4D-linear", 4, 500)
    with pytest.raises(ResourceError):
        AssayInput("4D-linear", 4, 1)
    with pytest.raises(ResourceError):
        AssayInput("4D-linear", 4, 512, variant="C")
    for n, n_t in ((4.0, 512), (True, 512), (4, 512.0), (4, True)):
        with pytest.raises(ResourceError, match="integer"):
            AssayInput("4D-linear", n, n_t)


def test_depth_formulas():
    assert [qft_depth(n) for n in (2, 3, 4, 5, 6)] == [4, 7, 12, 17, 24]
    assert [prep_depth(n) for n in (2, 3, 4, 5)] == [5, 13, 29, 61]
    assert [step_depth("4D-linear", n) for n in (2, 3, 4, 5)] == [34, 57, 90, 129]
    assert step_depth("24D-quadratic", 4) == 155 * 16 + 12 + 5
    assert step_depth("24D-quadratic", 5) == 155 * 25 + 15 + 4


PINNED = {
    # (model_class, n, n_t): (n_init, per_step, evolution, measure_B,
    #                         qubits_state, total_A, total_B, qubits_total_B)
    ("4D-linear", 4, 512): (29, 90, 45_990, 49, 17, 46_021, 46_068, 26),
    ("4D-linear", 5, 1024): (61, 129, 131_967, 60, 21, 132_030, 132_088, 31),
    ("24D-quadratic", 4, 512): (29, 2497, 1_275_991, 49, 97, 1_276_022, 1_276_069, 106),
    ("24D-quadratic", 5, 1024): (61, 3894, 3_983_596, 60, 121, 3_983_659, 3_983_717, 131),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_assay_totals(key):
    model_class, n, n_t = key
    n_init, per_step, evo, n_meas_b, q_state, total_a, total_b, q_total_b = PINNED[key]
    a = assay(AssayInput(model_class, n, n_t, variant="A"))
    b = assay(AssayInput(model_class, n, n_t, variant="B"))
    assert a.n_init == b.n_init == n_init
    assert a.per_step == per_step
    assert a.n_evolution == b.n_evolution == evo
    assert a.n_measure == 2
    assert b.n_measure == n_meas_b
    assert a.total == total_a
    assert b.total == total_b
    assert a.qubits_state == b.qubits_state == q_state
    assert a.qubits_total == q_state + 1
    assert b.qubits_total == q_total_b


def test_totals_add_up():
    for model_class in MODEL_CLASSES:
        for variant in VARIANTS:
            r = assay(AssayInput(model_class, 4, 1024, variant=variant))
            assert r.total == r.n_init + r.n_evolution + r.n_measure
            assert r.breakdown["steps"] == 1023
            assert r.breakdown["readout_bits"] == (10 if variant == "B" else 0)


def test_24d_breakdown_constants():
    r = assay(AssayInput("24D-quadratic", 4, 512))
    assert r.breakdown["d"] == 24
    assert r.breakdown["bilinear_diag_groups"] == 6
    assert r.breakdown["bilinear_off_pairs"] == 29
    # the evolution column carries the outer transform pair
    assert r.n_evolution == 2 * qft_depth(4) + r.per_step * 511


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_builder_agreement_4d(n):
    row = verify_against_builder("4D-linear", n)
    assert row["agree"], row["rows"]


def test_builder_agreement_24d():
    row = verify_against_builder("24D-quadratic", 4)
    assert row["agree"], row["rows"]


# gate counts of the step circuits behind the six rows of `vibroniq verify`;
# the depth alone would miss a gate dropped or duplicated inside a layer
STEP_GATES = {
    ("4D-linear", 2): 126,
    ("4D-linear", 3): 228,
    ("4D-linear", 4): 370,
    ("4D-linear", 5): 536,
    ("24D-quadratic", 4): 5006,
    ("24D-quadratic", 5): 7585,
}


@pytest.mark.parametrize("key", sorted(STEP_GATES))
def test_verify_row_step_gate_counts(key):
    model_class, n = key
    model, split_order = _builder_model(model_class)
    step = build_timestep(model, GridSpec(n=n, q_min=-5.0, q_max=5.0), 0.129, split_order=split_order)
    assert step.gate_count() == STEP_GATES[key]
    assert step.depth() == step_depth(model_class, n)


def test_standard_table():
    table = standard_table()
    assert len(table) == 8
    keys = {(r.inp.model_class, r.inp.n, r.inp.variant) for r in table}
    assert ("4D-linear", 4, "A") in keys
    assert ("24D-quadratic", 5, "B") in keys
    totals = {(r.inp.model_class, r.inp.n, r.inp.variant): r.total for r in table}
    assert totals[("4D-linear", 4, "A")] == 46_021
    assert totals[("24D-quadratic", 5, "B")] == 3_983_717
