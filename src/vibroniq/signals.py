"""Autocorrelation post-processing: damped Fourier spectra, shot-noise
sampling models, and the shots-vs-accuracy scan."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import HBAR_EV_FS
from .soft import AutocorrSeries


class SignalError(ValueError):
    pass


@dataclass
class SpectrumSeries:
    """Discrete spectrum over an energy window; intensities sum to 1 when normalized."""

    energies: np.ndarray
    intensities: np.ndarray
    spacing: float

    def __post_init__(self) -> None:
        if self.energies.shape != self.intensities.shape:
            raise SignalError("energies and intensities must align")


def check_damping(tau_fs: float) -> None:
    """Raise SignalError unless the damping time tau_fs is positive."""
    if not tau_fs > 0.0:  # NaN fails too
        raise SignalError(f"damping time must be positive, got {tau_fs}")


def _is_seed(seed) -> bool:
    return isinstance(seed, numbers.Integral) and seed >= 0


def check_seed(seed) -> None:
    """Raise SignalError unless seed is None, a non-negative integer or a
    numpy Generator, which a one-count sampler draws from as it stands."""
    if not (seed is None or isinstance(seed, np.random.Generator) or _is_seed(seed)):
        raise SignalError(f"seed must be None, a non-negative integer or a Generator, got {seed!r}")


def spectrum(
    autocorr: AutocorrSeries,
    tau_fs: float = 30.0,
    damp_d: bool = False,
    hbar: float = HBAR_EV_FS,
) -> SpectrumSeries:
    """Energy-weighted Fourier transform of a damped autocorrelation.

    The series A(t_j), j = 0..M-1 on a uniform grid is extended to negative
    times through A(-t) = conj(A(t)) (length L = 2M-1), damped by
    exp(-|t|/tau) and optionally by the half-cosine window cos(pi t / 2T),
    then transformed with S(E_k) = dt * sum_j c_j exp(i E_k t_j / hbar).
    Intensities are E * S(E) with negative values clamped to zero, kept at
    positive energies and normalized to sum to 1.
    """
    t = autocorr.times
    if len(t) < 2:
        raise SignalError("need at least two autocorrelation samples")
    dt = float(t[1] - t[0])
    if not np.allclose(np.diff(t), dt, rtol=0.0, atol=1e-9 * max(dt, 1.0)):
        raise SignalError("autocorrelation samples must be uniformly spaced")
    check_damping(tau_fs)
    if not 0.0 < hbar < math.inf:  # NaN fails too
        raise SignalError(f"hbar must be positive and finite, got {hbar}")
    energies, intensities, spacing = _spectra(t, autocorr.values[None], tau_fs, damp_d, hbar)
    return SpectrumSeries(energies, intensities[0], spacing)


def _spectra(t, values, tau_fs, damp_d, hbar):
    """`spectrum` of each row of `values` (G, M) on the checked times `t`:
    the energies, the (G, M-1) normalized intensities and the bin spacing."""
    m = len(t)
    dt = float(t[1] - t[0])
    weight = np.exp(-np.abs(t) / tau_fs)
    if damp_d:
        weight = weight * np.cos(0.5 * math.pi * t / float(t[-1]))
    damped = values * weight
    L = 2 * m - 1
    c = np.empty((len(values), L), dtype=np.complex128)
    c[:, :m] = damped
    c[:, m:] = np.conj(damped[:, :0:-1])
    s = L * dt * np.fft.ifft(c)
    # for odd L, fftfreq's positive frequencies are entries 1..m-1, ascending
    energies = 2.0 * math.pi * hbar * np.fft.fftfreq(L, d=dt)[1:m]
    intensities = np.clip(energies * s.real[:, 1:m], 0.0, None)
    total = intensities.sum(axis=1, keepdims=True)
    if np.any(total <= 0.0):
        raise SignalError("spectrum has no positive weight to normalize")
    return energies, intensities / total, 2.0 * math.pi * hbar / (L * dt)


def _shot_counts(shots) -> np.ndarray:
    """A non-empty 1-D int array of positive shot counts; a bool or a count
    with a fractional part is refused, not truncated."""
    grid = np.asarray(shots)
    if grid.ndim != 1 or len(grid) == 0:
        raise SignalError(f"need a non-empty 1-D shot grid, got shape {grid.shape}")
    for s in shots:
        if isinstance(s, (bool, np.bool_)) or not (isinstance(s, numbers.Real) and float(s).is_integer()):
            raise SignalError(f"shots must be whole numbers, got {s!r}")
    grid = grid.astype(int)
    if np.any(grid < 1):
        raise SignalError(f"shots must be positive, got {grid[grid < 1][0]}")
    return grid


def check_shots(shots) -> None:
    """Raise SignalError unless shots is None or 0, which mean no sampling,
    or a positive whole count."""
    if shots is None or (shots == 0 and not isinstance(shots, bool)):
        return
    _shot_counts([shots])


def _quadratures(values: np.ndarray, shots: np.ndarray, rng) -> np.ndarray:
    """Sampled A(t), one (M,) row per shot count, from one binomial draw.

    Re A(t) is read from P(0) = (1 + Re A)/2 and Im A(t) from
    P(1) = (1 + Im A)/2, with `shots[g]` repetitions per quadrature in row g.
    numpy draws in C order, so a row's M real-part draws come before its M
    imaginary-part draws, and a row's draws before the next row's.
    """
    p = np.clip(0.5 * (1.0 + np.stack([values.real, values.imag])), 0.0, 1.0)
    n = shots[:, None, None]
    x = 2.0 * rng.binomial(n, p) / n - 1.0
    return x[:, 0] + 1j * x[:, 1]


def sample_autocorr(series: AutocorrSeries, shots: int, seed=None) -> AutocorrSeries:
    """Interferometer shot noise on each quadrature of each sample.

    Re A(t) is read from P(0) = (1 + Re A)/2 and Im A(t) from
    P(1) = (1 + Im A)/2, with `shots` repetitions per quadrature.
    """
    check_seed(seed)
    counts = _shot_counts([shots])
    values = _quadratures(series.values, counts, np.random.default_rng(seed))[0]
    return AutocorrSeries(series.times.copy(), values)


def sample_counts(weights: np.ndarray, shots: int, seed=None) -> np.ndarray:
    """Bin counts of `shots` multinomial draws on the normalized weights."""
    check_seed(seed)
    counts = _shot_counts([shots])
    total = weights.sum()
    if total <= 0.0:
        raise SignalError("cannot sample from an empty distribution")
    return np.random.default_rng(seed).multinomial(counts, weights / total)[0]


def sample_spectrum_direct(spec: SpectrumSeries, shots: int, seed=None) -> SpectrumSeries:
    """Empirical bin distribution from multinomial draws on the exact one."""
    freqs = sample_counts(spec.intensities, shots, seed) / shots
    return SpectrumSeries(spec.energies.copy(), freqs, spec.spacing)


def _tvd_rows(p, q):
    return 0.5 * np.abs(p - q).sum(axis=-1)


def tvd(p, q) -> float:
    """Total variation distance between two distributions on the same bins."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise SignalError(f"distributions differ in shape: {p.shape} vs {q.shape}")
    return float(_tvd_rows(p.ravel(), q.ravel()))


DEFAULT_THRESHOLDS = (0.04, 0.03, 0.02, 0.01)


def default_shot_grid() -> np.ndarray:
    """Log-spaced shot counts, 20 per decade from 1e3 to 1e6."""
    return np.unique(np.round(np.logspace(3.0, 6.0, 61)).astype(int))


def _first_sustained(shot_grid, curve, threshold: float, sustain: int) -> float:
    """Smallest shot count where the curve stays below threshold for
    `sustain` consecutive grid points (nan when never sustained)."""
    below = curve < threshold
    run = 0
    for i in range(len(shot_grid)):
        run = run + 1 if below[i] else 0
        if run >= sustain:
            return float(shot_grid[i - sustain + 1])
    return float("nan")


def check_scan(method: str, seeds, shot_grid=None, sustain: int = 5,
               tau_fs: float = 30.0) -> tuple[list, np.ndarray]:
    """The checks `shots_scan` makes before it draws anything; returns the
    seeds as a list and the shot grid as a 1-D int array."""
    if method not in ("autocorr", "direct"):
        raise SignalError(f"unknown method {method!r}")
    seeds = list(seeds)
    if not seeds:
        raise SignalError("need at least one seed")
    for seed in seeds:
        if not _is_seed(seed):
            raise SignalError(f"seeds must be non-negative integers, got {seed!r}")
    if sustain < 1:
        raise SignalError(f"sustain must be at least 1, got {sustain}")
    check_damping(tau_fs)
    return seeds, _shot_counts(default_shot_grid() if shot_grid is None else shot_grid)


def shots_scan(
    autocorr: AutocorrSeries,
    method: str = "autocorr",
    thresholds=DEFAULT_THRESHOLDS,
    seeds=range(10),
    shot_grid=None,
    sustain: int = 5,
    tau_fs: float = 30.0,
    damp_d: bool = False,
) -> dict:
    """Median shot budget to reach each TVD threshold against the exact spectrum.

    method="autocorr" resamples the time series and rebuilds the spectrum;
    method="direct" draws bins from the exact spectrum itself. Each seed's
    generator makes one draw for the whole shot grid, in the order that
    calling `sample_autocorr` or `sample_spectrum_direct` once per grid point
    on it would. Per seed the crossing must hold for `sustain` consecutive
    grid points; the reported budget is the median over seeds (nan when any
    seed never sustains it). Per threshold, "left_censored" counts the seeds
    already sustained at the grid's first point, whose true budget may lie
    below the grid, and "right_censored" the seeds that never sustain it.
    """
    seeds, grid = check_scan(method, seeds, shot_grid, sustain, tau_fs)
    exact = spectrum(autocorr, tau_fs=tau_fs, damp_d=damp_d).intensities
    q = exact / exact.sum()
    per_seed = {thr: [] for thr in thresholds}
    curves = np.empty((len(seeds), len(grid)))
    for curve, seed in zip(curves, seeds):
        rng = np.random.default_rng(seed)
        if method == "autocorr":
            noisy = _quadratures(autocorr.values, grid, rng)
            sampled = _spectra(autocorr.times, noisy, tau_fs, damp_d, HBAR_EV_FS)[1]
        else:
            sampled = rng.multinomial(grid, q) / grid[:, None]
        curve[:] = _tvd_rows(sampled, exact)
        for thr in thresholds:
            per_seed[thr].append(_first_sustained(grid, curve, thr, sustain))
    per_seed = {thr: np.asarray(v) for thr, v in per_seed.items()}
    medians = {}
    for thr, vals in per_seed.items():
        medians[thr] = float(np.nan) if np.isnan(vals).any() else float(np.median(vals))
    return {
        "method": method,
        "shot_grid": grid,
        "curves": curves,
        "per_seed": per_seed,
        "medians": medians,
        "left_censored": {thr: int(np.sum(v == grid[0])) for thr, v in per_seed.items()},
        "right_censored": {thr: int(np.sum(np.isnan(v))) for thr, v in per_seed.items()},
    }
