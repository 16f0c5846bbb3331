import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vibroniq.model import (
    HBAR_EV_FS,
    BilinearDiag,
    BilinearOff,
    GridSpec,
    ModeParams,
    ModelError,
    TimeGrid,
    VibronicModel,
    get_model,
    grid_points,
    initial_state,
    load_model,
    momentum_points,
    pyrazine_2mode,
    pyrazine_4d,
    serialize,
    symmetry_product,
)


def test_hbar_constant():
    assert HBAR_EV_FS == 0.6582119569


def test_four_mode_parameters():
    model = pyrazine_4d()
    assert model.d == 4
    assert model.lam == 0.1825
    assert model.delta == 0.4617
    by_label = {m.label: m for m in model.modes}
    assert by_label["nu6a"].omega == 0.0740
    assert by_label["nu6a"].kappa1 == -0.0964
    assert by_label["nu6a"].kappa2 == 0.1194
    assert by_label["nu1"].omega == 0.1273
    assert by_label["nu1"].kappa1 == 0.0470
    assert by_label["nu1"].kappa2 == 0.2012
    assert by_label["nu9a"].omega == 0.1568
    assert by_label["nu9a"].kappa1 == 0.1594
    assert by_label["nu9a"].kappa2 == 0.0484
    assert by_label["nu10a"].omega == 0.0936
    assert by_label["nu10a"].symmetry == "B1g"
    assert model.coupling_mode == 3


def test_two_mode_is_a_subset_of_the_four_mode_model():
    full = {m.label: m for m in pyrazine_4d().modes}
    small = pyrazine_2mode()
    assert [m.label for m in small.modes] == ["nu6a", "nu10a"]
    for m in small.modes:
        assert m == full[m.label]
    assert small.coupling_mode == 1


def test_symmetry_product_algebra():
    assert symmetry_product("Ag", "B1g") == "B1g"
    assert symmetry_product("B1g", "B1g") == "Ag"
    assert symmetry_product("B2g", "B3g") == "B1g"
    assert symmetry_product("Au", "B1u") == "B1g"
    assert symmetry_product("B2u", "B3u") == "B1g"
    with pytest.raises(ModelError):
        symmetry_product("Ag", "E2g")


def test_mode_params_validation():
    with pytest.raises(ModelError):
        ModeParams("x", -1.0, "Ag", kappa1=0.0, kappa2=0.0)
    with pytest.raises(ModelError):
        ModeParams("x", 1.0, "Zz")
    # kappas come in pairs
    with pytest.raises(ModelError):
        ModeParams("x", 1.0, "Ag", kappa1=0.1)
    # only totally symmetric modes carry linear couplings
    with pytest.raises(ModelError):
        ModeParams("x", 1.0, "B1g", kappa1=0.1, kappa2=0.2)
    with pytest.raises(ModelError):
        ModeParams("x", 1.0, "Ag")


def test_model_validation():
    ag = ModeParams("a", 0.1, "Ag", kappa1=0.0, kappa2=0.0)
    b1g = ModeParams("c", 0.1, "B1g")
    b2g = ModeParams("d", 0.1, "B2g")
    with pytest.raises(ModelError):
        VibronicModel(modes=(), lam=0.0, delta=0.0)
    with pytest.raises(ModelError):
        VibronicModel(modes=(ag, dataclasses.replace(ag)), lam=0.0, delta=0.0)
    # coupling needs exactly one B1g mode
    with pytest.raises(ModelError):
        VibronicModel(modes=(ag,), lam=0.5, delta=0.0)
    # bilinear indices must name two distinct in-range modes
    with pytest.raises(ModelError):
        VibronicModel(modes=(ag, b1g), lam=0.0, delta=0.0,
                      bilinear_diag=(BilinearDiag(0, 2, 0.1, 0.1),))
    with pytest.raises(ModelError):
        VibronicModel(modes=(ag, b1g), lam=0.0, delta=0.0,
                      bilinear_diag=(BilinearDiag(1, 1, 0.1, 0.1),))
    # on-diagonal pairs need matching symmetry
    with pytest.raises(ModelError):
        VibronicModel(modes=(ag, b1g), lam=0.0, delta=0.0,
                      bilinear_diag=(BilinearDiag(0, 1, 0.1, 0.1),))
    # off-diagonal pairs need product symmetry B1g
    with pytest.raises(ModelError):
        VibronicModel(modes=(ag, b2g), lam=0.0, delta=0.0,
                      bilinear_off=(BilinearOff(0, 1, 0.1),))
    ok = VibronicModel(modes=(ag, b1g), lam=0.0, delta=0.0,
                       bilinear_off=(BilinearOff(0, 1, 0.1),))
    assert ok.d == 2


def test_grid_spec_validation():
    with pytest.raises(ModelError):
        GridSpec(n=1, q_min=-1.0, q_max=1.0)
    for n in (3.0, True, "3"):  # sizes are integers, and no bool
        with pytest.raises(ModelError, match="an integer of at least 2 qubits"):
            GridSpec(n=n, q_min=-1.0, q_max=1.0)
    assert GridSpec(n=np.int64(3), q_min=-1.0, q_max=1.0).size == 8
    with pytest.raises(ModelError):
        GridSpec(n=3, q_min=1.0, q_max=1.0)
    with pytest.raises(ModelError):
        GridSpec(n=3, q_min=-1.0, q_max=1.0, convention="wrapped")


NON_FINITE = [
    (lambda: TimeGrid(dt=math.nan, n_steps=4), "dt must be positive and finite, got nan"),
    (lambda: TimeGrid(dt=math.inf, n_steps=4), "dt must be positive and finite, got inf"),
    (lambda: GridSpec(4, -math.inf, 1.0), "coordinate range [-inf, 1.0] must be finite"),
    (lambda: GridSpec(4, -1.0, math.nan), "coordinate range [-1.0, nan] must be finite"),
    (lambda: ModeParams("x", math.nan, "B1g"), "mode x: omega must be positive and finite, got nan"),
    (lambda: ModeParams("x", math.inf, "B1g"), "mode x: omega must be positive and finite, got inf"),
    (lambda: ModeParams("x", 0.1, "Ag", kappa1=math.nan, kappa2=0.0),
     "mode x: kappas must be finite, got nan, 0.0"),
    (lambda: ModeParams("x", 0.1, "Ag", kappa1=0.0, kappa2=-math.inf),
     "mode x: kappas must be finite, got 0.0, -inf"),
    (lambda: dataclasses.replace(pyrazine_2mode(), lam=math.nan), "lam must be finite, got nan"),
    (lambda: dataclasses.replace(pyrazine_2mode(), delta=math.inf), "delta must be finite, got inf"),
    (lambda: dataclasses.replace(pyrazine_2mode(), hbar=0.0), "hbar must be positive and finite, got 0.0"),
    (lambda: dataclasses.replace(pyrazine_2mode(), hbar=-1.0), "hbar must be positive and finite, got -1.0"),
    (lambda: dataclasses.replace(pyrazine_2mode(), hbar=math.inf), "hbar must be positive and finite, got inf"),
    (lambda: VibronicModel(modes=(ModeParams("a", 0.1, "Ag", kappa1=0.0, kappa2=0.0),
                                  ModeParams("b", 0.1, "Ag", kappa1=0.0, kappa2=0.0)),
                           lam=0.0, delta=0.0, bilinear_diag=(BilinearDiag(0, 1, 0.1, math.nan),)),
     "gamma of pair (0,1) must be finite, got nan"),
    (lambda: VibronicModel(modes=(ModeParams("a", 0.1, "Ag", kappa1=0.0, kappa2=0.0),
                                  ModeParams("c", 0.1, "B1g")),
                           lam=0.0, delta=0.0, bilinear_off=(BilinearOff(0, 1, math.inf),)),
     "mu of pair (0,1) must be finite, got inf"),
]


@pytest.mark.parametrize("make, message", NON_FINITE)
def test_non_finite_numbers_are_model_errors(make, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        make()


def test_grid_points_conventions():
    per = GridSpec(n=3, q_min=-4.0, q_max=4.0, convention="periodic")
    q = grid_points(per)
    assert per.dq == 1.0
    assert q[0] == -4.0 and q[-1] == 3.0
    assert np.allclose(np.diff(q), 1.0)

    end = GridSpec(n=3, q_min=-4.0, q_max=4.0, convention="endpoint")
    q = grid_points(end)
    assert end.dq == pytest.approx(8.0 / 7.0)
    assert q[0] == -4.0 and q[-1] == pytest.approx(4.0)


def test_momentum_points_signed_map():
    grid = GridSpec(n=3, q_min=-4.0, q_max=4.0, convention="periodic")
    p = momentum_points(grid)
    k = np.fft.fftfreq(8) * 8
    assert np.allclose(p, 2.0 * np.pi * k / (8 * grid.dq))
    # even N leaves the negative Nyquist point unpaired
    assert np.sum(p) == pytest.approx(-np.pi / grid.dq)
    assert p.min() == pytest.approx(-np.pi / grid.dq)
    assert p.max() == pytest.approx(np.pi / grid.dq - 2 * np.pi / (8 * grid.dq))


@given(n=st.integers(min_value=2, max_value=6),
       lo=st.floats(min_value=-20.0, max_value=-0.5),
       span=st.floats(min_value=1.0, max_value=40.0))
def test_grid_points_property(n, lo, span):
    grid = GridSpec(n=n, q_min=lo, q_max=lo + span, convention="periodic")
    q = grid_points(grid)
    assert q.shape == (2**n,)
    assert np.all(np.diff(q) > 0)
    assert np.allclose(np.diff(q), grid.dq)


def test_time_grid():
    tg = TimeGrid(dt=0.5, n_steps=8, sample_stride=2)
    assert tg.total_time == 4.0
    assert list(tg.sample_steps()) == [0, 2, 4, 6, 8]
    assert np.allclose(tg.sample_times(), [0.0, 1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ModelError):
        TimeGrid(dt=0.0, n_steps=4)
    with pytest.raises(ModelError):
        TimeGrid(dt=0.1, n_steps=0)
    with pytest.raises(ModelError):
        TimeGrid(dt=0.1, n_steps=4, sample_stride=5)
    for steps, stride in ((2.5, 1), (4.0, 1), (True, 1), (4, 2.0), (4, True)):
        with pytest.raises(ModelError):
            TimeGrid(dt=0.1, n_steps=steps, sample_stride=stride)


def test_initial_state_is_an_s2_gaussian():
    model = pyrazine_2mode()
    grid = GridSpec(n=4, q_min=-5.0, q_max=5.0)
    psi = initial_state(model, grid)
    assert psi.amplitudes.shape == (2, 16, 16)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    # vertical excitation: nothing on the lower surface
    assert np.all(psi.amplitudes[0] == 0.0)
    q = grid_points(grid)
    gauss = np.exp(-(q**2) / 2.0)
    target = np.einsum("i,j->ij", gauss, gauss)
    target = target / np.linalg.norm(target)
    assert np.allclose(psi.amplitudes[1], target, atol=1e-12)


def test_serialize_round_trip():
    model = pyrazine_4d()
    text = serialize(model)
    back = load_model(text)
    assert back == model

    synth = VibronicModel(
        modes=(
            ModeParams("a", 0.2, "Ag", kappa1=0.01, kappa2=-0.02),
            ModeParams("b", 0.3, "Ag", kappa1=0.0, kappa2=0.0),
            ModeParams("c", 0.25, "B1g"),
        ),
        lam=0.05,
        delta=0.1,
        bilinear_diag=(BilinearDiag(0, 1, 0.004, 0.006),),
        bilinear_off=(BilinearOff(1, 2, 0.003),),
    )
    assert load_model(serialize(synth)) == synth


def _bilinear_config() -> dict:
    """A valid model file with one pair of each kind, as JSON data."""
    return json.loads(serialize(VibronicModel(
        modes=(ModeParams("a", 0.2, "Ag", kappa1=0.01, kappa2=-0.02),
               ModeParams("b", 0.3, "Ag", kappa1=0.0, kappa2=0.0),
               ModeParams("c", 0.25, "B1g")),
        lam=0.05, delta=0.1,
        bilinear_diag=(BilinearDiag(0, 1, 0.004, 0.006),),
        bilinear_off=(BilinearOff(1, 2, 0.003),))))


def _edit(change):
    data = _bilinear_config()
    change(data)
    return data


# one malformed entry each: (edit of a valid file, message)
MALFORMED = [
    (lambda d: d["modes"].__setitem__(0, 7), "'modes' must be a list of objects"),
    (lambda d: d["modes"][1].__setitem__("omega", "fast"), "mode b: omega must be a number, got 'fast'"),
    (lambda d: d["modes"][0].__setitem__("kappa2", []), "mode a: kappa2 must be a number, got []"),
    (lambda d: d.__setitem__("lambda", "strong"), "'lambda' must be a number, got 'strong'"),
    (lambda d: d.__setitem__("hbar", None), "'hbar' must be a number, got None"),
    (lambda d: d["bilinear_diag"][0].pop("gamma1"), "bilinear entry missing key 'gamma1'"),
    (lambda d: d["bilinear_off"][0].__setitem__("mu", {}), "mu must be a number, got {}"),
    (lambda d: d.__setitem__("bilinear_off", [3]), "'bilinear_off' must be a list of objects"),
    (lambda d: d["bilinear_diag"][0].__setitem__("l", 0.5),
     "bilinear pair index 0.5 must be a mode label or an integer"),
    (lambda d: d["bilinear_diag"][0].__setitem__("m", True),
     "bilinear pair index True must be a mode label or an integer"),
]


@pytest.mark.parametrize("change, message", MALFORMED)
def test_malformed_model_files_are_model_errors(change, message):
    assert load_model(json.dumps(_bilinear_config())) is not None
    with pytest.raises(ModelError, match=re.escape(message)):
        load_model(json.dumps(_edit(change)))


def test_integer_pair_indices_still_load():
    data = _edit(lambda d: d["bilinear_diag"][0].update(l=0, m=1))
    assert load_model(json.dumps(data)).bilinear_diag == (BilinearDiag(0, 1, 0.004, 0.006),)


def test_get_model_presets():
    assert get_model("pyrazine-4d") == pyrazine_4d()
    assert get_model("pyrazine-2mode") == pyrazine_2mode()
    with pytest.raises(ModelError):
        get_model("no-such-model")


def test_24d_placeholder_structure():
    model = get_model("pyrazine-24d-placeholder")
    assert model.d == 24
    # linear couplings sit on the totally symmetric modes and nowhere else
    for m in model.modes:
        assert (m.kappa1 is not None) == (m.symmetry == "Ag")
    assert len(model.b1g_indices()) == 1
    assert len(model.bilinear_diag) == 31
    assert len(model.bilinear_off) == 29
    for pair in model.bilinear_diag:
        assert model.modes[pair.l].symmetry == model.modes[pair.m].symmetry
    for pair in model.bilinear_off:
        prod = symmetry_product(model.modes[pair.l].symmetry, model.modes[pair.m].symmetry)
        assert prod == "B1g"

