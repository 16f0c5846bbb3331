import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import AUTOCORR_TARGETS, DIRECT_TARGETS

from vibroniq.model import HBAR_EV_FS
from vibroniq.signals import (
    DEFAULT_THRESHOLDS,
    SignalError,
    SpectrumSeries,
    _first_sustained,
    default_shot_grid,
    sample_autocorr,
    sample_counts,
    sample_spectrum_direct,
    shots_scan,
    spectrum,
    tvd,
)
from vibroniq.soft import AutocorrSeries


def damped_cosine_series(n=129, dt=2.0625, e0=0.5, tau=80.0):
    """Synthetic single-line autocorrelation: A(t) = e^{-iE0 t/hbar} e^{-t/tau}."""
    t = np.arange(n) * dt
    values = np.exp(-1j * e0 * t / HBAR_EV_FS) * np.exp(-t / tau)
    return AutocorrSeries(times=t, values=values)


def test_spectrum_is_a_distribution():
    spec = spectrum(damped_cosine_series())
    assert np.all(spec.intensities >= 0.0)
    assert spec.intensities.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(spec.energies) > 0)
    assert np.allclose(np.diff(spec.energies), spec.spacing)
    # positive-window default
    assert spec.energies.min() > 0.0


def test_spectrum_peaks_at_the_line():
    e0 = 0.5
    spec = spectrum(damped_cosine_series(e0=e0))
    top = spec.energies[np.argmax(spec.intensities)]
    assert abs(top - e0) < 2 * spec.spacing


def test_spectrum_windows_and_normalization():
    # the half-cosine window reshapes the spectrum on the same bins, normalized
    series = damped_cosine_series()
    plain = spectrum(series)
    damped = spectrum(series, damp_d=True)
    assert damped.intensities.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(damped.energies, plain.energies)
    assert not np.allclose(damped.intensities, plain.intensities)


def test_spectrum_rejects_bad_series():
    t = np.array([0.0, 1.0, 3.0])
    values = np.ones(3, dtype=complex)
    with pytest.raises(SignalError):
        spectrum(AutocorrSeries(times=t, values=values))
    with pytest.raises(SignalError):
        spectrum(AutocorrSeries(times=np.array([0.0]), values=np.array([1.0 + 0j])))


@pytest.mark.parametrize("tau_fs", [0.0, -30.0, math.nan])
def test_spectrum_rejects_a_damping_time_that_is_not_positive(tau_fs):
    with pytest.raises(SignalError, match="damping time must be positive"):
        spectrum(damped_cosine_series(), tau_fs=tau_fs)


def test_spectrum_series_validation():
    with pytest.raises(SignalError):
        SpectrumSeries(np.arange(3.0), np.arange(4.0), 1.0)


def test_tvd_basics():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.0, 0.0, 1.0])
    assert tvd(p, p) == 0.0
    assert tvd(p, q) == pytest.approx(1.0)
    assert tvd(p, q) == tvd(q, p)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31 - 1))
def test_tvd_properties(size, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0, 1, size)
    q = rng.uniform(0, 1, size)
    p /= p.sum()
    q /= q.sum()
    d = tvd(p, q)
    assert 0.0 <= d <= 1.0
    assert d == pytest.approx(tvd(q, p))
    r = rng.uniform(0, 1, size)
    r /= r.sum()
    assert tvd(p, q) <= tvd(p, r) + tvd(r, q) + 1e-12


def test_sample_autocorr_is_consistent():
    series = damped_cosine_series(n=17)
    exact = series.values
    sampled = sample_autocorr(series, shots=400_000, seed=3)
    assert np.allclose(sampled.times, series.times)
    assert np.max(np.abs(sampled.values - exact)) < 0.02
    # quadratures are bounded by the binomial support
    assert np.all(np.abs(sampled.values.real) <= 1.0)
    assert np.all(np.abs(sampled.values.imag) <= 1.0)
    # Re A(0) = 1 is a certain outcome; the imag quadrature stays noisy
    assert sampled.values[0].real == pytest.approx(1.0, abs=1e-12)
    assert abs(sampled.values[0].imag) < 0.02


def test_sample_autocorr_reproducible():
    series = damped_cosine_series(n=17)
    a = sample_autocorr(series, shots=1000, seed=5)
    b = sample_autocorr(series, shots=1000, seed=5)
    assert np.array_equal(a.values, b.values)


def test_sample_spectrum_direct():
    spec = spectrum(damped_cosine_series())
    est = sample_spectrum_direct(spec, shots=50_000, seed=2)
    assert est.intensities.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(est.intensities >= 0)
    assert tvd(est.intensities, spec.intensities) < 0.05


def test_default_shot_grid():
    grid = default_shot_grid()
    assert len(grid) == 61
    assert grid[0] == 1000
    assert grid[-1] == 1_000_000
    assert np.all(np.diff(grid) > 0)


def test_first_sustained():
    grid = np.array([10, 20, 30, 40, 50, 60])
    curve = np.array([0.9, 0.4, 0.05, 0.04, 0.03, 0.02])
    assert _first_sustained(grid, curve, threshold=0.1, sustain=3) == 30
    assert _first_sustained(grid, curve, threshold=0.1, sustain=4) == 30
    # a late rebound pushes the sustained crossing later
    bumpy = np.array([0.05, 0.5, 0.05, 0.04, 0.03, 0.02])
    assert _first_sustained(grid, bumpy, threshold=0.1, sustain=2) == 30
    assert np.isnan(_first_sustained(grid, curve, threshold=0.001, sustain=2))
    # sustain window longer than the tail that stays below
    short = np.array([0.9, 0.9, 0.9, 0.9, 0.9, 0.05])
    assert np.isnan(_first_sustained(grid, short, threshold=0.1, sustain=2))


def test_shots_scan_structure():
    series = damped_cosine_series()
    grid = np.array([500, 1000, 2000, 4000, 8000, 16000, 32000])
    out = shots_scan(series, method="direct", thresholds=(0.2, 0.1), seeds=range(3),
                     shot_grid=grid, sustain=2)
    assert out["method"] == "direct"
    assert np.array_equal(out["shot_grid"], grid)
    assert len(out["curves"]) == 3
    assert set(out["per_seed"]) == {0.2, 0.1}
    assert all(len(v) == 3 for v in out["per_seed"].values())
    assert set(out["medians"]) == {0.2, 0.1}
    # a tighter threshold can never be cheaper on the same draws
    assert out["medians"][0.1] >= out["medians"][0.2]


def test_shots_scan_autocorr_method_runs():
    series = damped_cosine_series(n=33)
    grid = np.array([1000, 2000, 4000, 8000])
    out = shots_scan(series, method="autocorr", thresholds=(0.2,), seeds=range(2),
                     shot_grid=grid, sustain=2)
    assert np.isfinite(out["medians"][0.2])


def test_shots_scan_nan_when_never_reached():
    series = damped_cosine_series()
    grid = np.array([1000, 2000])
    out = shots_scan(series, method="direct", thresholds=(1e-6,), seeds=range(2),
                     shot_grid=grid, sustain=2)
    assert np.isnan(out["medians"][1e-6])


def test_shots_scan_counts_censored_seeds():
    series = damped_cosine_series()
    grid = np.array([1000, 2000, 4000])
    # TVD never exceeds 1, so 1.5 holds from the first grid point; 1e-6 never holds
    out = shots_scan(series, method="direct", thresholds=(1.5, 1e-6), seeds=range(3),
                     shot_grid=grid, sustain=2)
    assert out["medians"][1.5] == 1000.0
    assert out["left_censored"] == {1.5: 3, 1e-6: 0}
    assert out["right_censored"] == {1.5: 0, 1e-6: 3}
    assert np.isnan(out["medians"][1e-6])


def per_count_scan(autocorr, method, thresholds, seeds, shot_grid, sustain, damp_d):
    """Reference scan: one shot count at a time, each through the one-count
    samplers on the seed's generator. Returns (curves, per_seed)."""
    grid = np.asarray(shot_grid, dtype=int)
    exact = spectrum(autocorr, damp_d=damp_d)
    curves = np.empty((len(seeds), len(grid)))
    for curve, seed in zip(curves, seeds):
        rng = np.random.default_rng(seed)
        for i, shots in enumerate(grid):
            if method == "autocorr":
                noisy = sample_autocorr(autocorr, int(shots), rng)
                sampled = spectrum(noisy, damp_d=damp_d)
            else:
                sampled = sample_spectrum_direct(exact, int(shots), rng)
            curve[i] = tvd(sampled.intensities, exact.intensities)
    per_seed = {thr: np.array([_first_sustained(grid, c, thr, sustain) for c in curves])
                for thr in thresholds}
    return curves, per_seed


@pytest.mark.parametrize("damp_d", [False, True])
@pytest.mark.parametrize("method", ["autocorr", "direct"])
@pytest.mark.parametrize("samples", [2, 129])
def test_batched_scan_matches_the_per_count_loop(samples, method, damp_d):
    series = damped_cosine_series(n=samples)
    grid = default_shot_grid()
    out = shots_scan(series, method=method, seeds=range(10), damp_d=damp_d)
    curves, per_seed = per_count_scan(series, method, DEFAULT_THRESHOLDS, range(10), grid,
                                      sustain=5, damp_d=damp_d)
    assert np.array_equal(out["curves"], curves)
    assert out["per_seed"].keys() == per_seed.keys()
    for thr, budgets in per_seed.items():
        assert np.array_equal(out["per_seed"][thr], budgets, equal_nan=True)


def test_one_count_samplers_are_pinned():
    # counts drawn by numpy's Generator for these seeds; any change of draw
    # order or of the shot-noise model moves them
    sampled = sample_autocorr(damped_cosine_series(n=5), shots=1000, seed=7).values
    re = 2.0 * np.array([1000, 501, 31, 468, 942]) / 1000 - 1.0
    im = 2.0 * np.array([505, 10, 500, 955, 519]) / 1000 - 1.0
    assert np.array_equal(sampled, re + 1j * im)
    spec = spectrum(damped_cosine_series(n=9))
    direct = sample_spectrum_direct(spec, shots=1000, seed=7).intensities
    assert np.array_equal(direct, np.array([0, 27, 0, 572, 312, 0, 89, 0]) / 1000)


@pytest.mark.parametrize("seed", [-1, 1.5, "7", np.float64(3.0)])
def test_one_count_samplers_reject_a_bad_seed_before_drawing(seed, monkeypatch):
    series = damped_cosine_series(n=5)
    spec = spectrum(damped_cosine_series(n=9))

    def no_draws(*args, **kwargs):
        pytest.fail("a bad seed reached the random generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    message = f"seed must be None, a non-negative integer or a Generator, got {re.escape(repr(seed))}$"
    with pytest.raises(SignalError, match=message):
        sample_autocorr(series, shots=1000, seed=seed)
    with pytest.raises(SignalError, match=message):
        sample_spectrum_direct(spec, shots=1000, seed=seed)
    with pytest.raises(SignalError, match=message):
        sample_counts(spec.intensities, shots=1000, seed=seed)


def test_sample_counts_is_the_one_count_multinomial_draw():
    # numpy draws the same stream for n shots and for the one-count grid [n]
    q = np.random.default_rng(0).random(64)
    for shots in (512, 4096):
        counts = sample_counts(q, shots, seed=11)
        assert np.array_equal(counts, np.random.default_rng(11).multinomial(shots, q / q.sum()))


@pytest.mark.parametrize("hbar", [math.nan, math.inf, -math.inf, -1.0, 0.0])
def test_spectrum_rejects_an_hbar_that_is_not_positive_and_finite(hbar):
    with pytest.raises(SignalError, match=f"hbar must be positive and finite, got {hbar}"):
        spectrum(damped_cosine_series(), hbar=hbar)


def test_a_sampled_spectrum_with_no_positive_weight_is_a_typed_error():
    # one shot per quadrature on a slowly decaying real series: a row that
    # draws Re A = Im A = 1 at the second sample has no positive spectral weight
    series = damped_cosine_series(n=2, e0=0.0)
    for seed in range(20):
        with pytest.raises(SignalError, match="spectrum has no positive weight to normalize"):
            shots_scan(series, shot_grid=[1] * 6, sustain=1, seeds=[seed])


def test_shots_scan_validation(monkeypatch):
    series = damped_cosine_series()

    def no_draws(*args, **kwargs):
        pytest.fail("a bad scan input reached the random generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for kwargs, message in (
        ({"method": "indirect"}, "unknown method"),
        ({"seeds": ()}, "need at least one seed"),
        ({"seeds": [0, -1]}, "seeds must be non-negative integers, got -1"),
        ({"seeds": [0.5]}, "seeds must be non-negative integers"),
        ({"sustain": 0}, "sustain must be at least 1, got 0"),
        ({"sustain": -3}, "sustain must be at least 1"),
        ({"shot_grid": []}, "need a non-empty 1-D shot grid"),
        ({"shot_grid": [[1000, 2000]]}, "need a non-empty 1-D shot grid"),
        ({"shot_grid": [1000, 0, 2000]}, "shots must be positive, got 0"),
        ({"shot_grid": [1000, -5]}, "shots must be positive, got -5"),
        ({"shot_grid": [1000, 1500.5]}, "shots must be whole numbers, got 1500.5"),
        ({"shot_grid": [1000, 2.7]}, "shots must be whole numbers, got 2.7"),
        ({"shot_grid": [1000, 1.5]}, "shots must be whole numbers, got 1.5"),
        ({"shot_grid": [1000, True]}, "shots must be whole numbers, got True"),
        ({"tau_fs": 0.0}, "damping time must be positive"),
    ):
        for method in ("autocorr", "direct"):
            with pytest.raises(SignalError, match=message):
                shots_scan(series, **{"method": method, **kwargs})


BAD_SHOTS = [(2.7, "shots must be whole numbers, got 2.7"),
             (1.5, "shots must be whole numbers, got 1.5"),
             (True, "shots must be whole numbers, got True"),
             (-5, "shots must be positive, got -5")]


@pytest.mark.parametrize("shots, message", BAD_SHOTS)
def test_samplers_reject_a_bad_shot_count_before_drawing(shots, message, monkeypatch):
    # a count is refused, never truncated to a whole number of shots
    series = damped_cosine_series(n=5)
    spec = spectrum(damped_cosine_series(n=9))

    def no_draws(*args, **kwargs):
        pytest.fail("a bad shot count reached the random generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(SignalError, match=message):
        sample_autocorr(series, shots, seed=3)
    with pytest.raises(SignalError, match=message):
        sample_counts(spec.intensities, shots, seed=3)
    with pytest.raises(SignalError, match=message):
        sample_spectrum_direct(spec, shots, seed=3)


def test_whole_valued_shot_counts_are_counts():
    series = damped_cosine_series(n=5)
    q = np.random.default_rng(0).random(16)
    for whole in (1000.0, np.float64(1000), np.int64(1000)):
        assert np.array_equal(sample_autocorr(series, whole, seed=3).values,
                              sample_autocorr(series, 1000, seed=3).values)
        assert np.array_equal(sample_counts(q, whole, seed=3), sample_counts(q, 1000, seed=3))
    a = shots_scan(series, shot_grid=[1000.0, 2000.0], seeds=[1], sustain=1)
    b = shots_scan(series, shot_grid=[1000, 2000], seeds=[1], sustain=1)
    assert a["shot_grid"].dtype == b["shot_grid"].dtype
    assert np.array_equal(a["curves"], b["curves"])


def test_default_thresholds_pinned():
    assert DEFAULT_THRESHOLDS == (0.04, 0.03, 0.02, 0.01)


def test_an_undamped_scan_counted_over_both_quadratures_meets_the_criterion_9_targets(prod_run):
    """Criterion 9's diagnosis, pinned (its failure stays as written): on
    the production run, with no damping (tau_fs = inf) and the autocorr
    budget counted per time sample over both quadratures (2N, N shots per
    Hadamard-test circuit), every median of the default scan lies inside
    its target band."""
    ac = prod_run["autocorr"]
    scans = {method: shots_scan(ac, method=method, tau_fs=math.inf) for method in ("autocorr", "direct")}
    for scan in scans.values():
        assert not any(scan["left_censored"].values()) and not any(scan["right_censored"].values())
    med_a, med_d = scans["autocorr"]["medians"], scans["direct"]["medians"]
    for thr in DEFAULT_THRESHOLDS:
        both = 2 * med_a[thr]
        assert 0.5 * AUTOCORR_TARGETS[thr] <= both <= 1.5 * AUTOCORR_TARGETS[thr], (thr, med_a)
        assert 0.5 * DIRECT_TARGETS[thr] <= med_d[thr] <= 1.5 * DIRECT_TARGETS[thr], (thr, med_d)
        assert both >= med_d[thr], (thr, med_a, med_d)
