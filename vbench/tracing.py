"""In-memory span tracer for the benchmark's traced runs.

`patched(tracer)` replaces every public function of the vibroniq layers
(model, soft, circuits, kernels, signals, resources) at each module attribute
that binds it, plus `Circuit.controlled`, the `PropagatorPlan` constructor
and numpy's `fftn`/`ifftn`, with a wrapper that records one span per call:
[name, start, end, parent index, tag]. The library looks these names up at
call time, so calls it makes internally (soft.propagate -> soft.step ->
numpy.fft.fftn, circuits.apply -> kernels.apply_matrix, ...) nest under the
caller. Everything is restored on exit. No file under src/ is changed.
"""
from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, TAG = range(5)

LAYERS = ("model", "soft", "circuits", "kernels", "signals", "resources")


class Tracer:
    """Collects spans; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, tag=None, result_tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   tag(args, kwargs) if tag is not None else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if result_tag is not None:
                rec[TAG] = result_tag(out)
            return out

        traced.__wrapped__ = fn
        return traced


# Tags: kernels record log2 of the amplitudes a call addresses (read and
# written once each), apply records which circuit object it ran, builders
# record which circuit object they returned, and the propagation drivers
# their TimeGrid.
def _matrix_tag(a, k):
    return a[1] - len(a[3])


def _phase_tag(a, k):
    return a[1] - len(a[2])


def _swap_tag(a, k):
    return a[1] - len(a[4]) - 1


def _first_arg_id(a, k):
    return id(a[0])


def _time_grid(a, k):
    return a[2]


def _scan_method(a, k):
    return a[1] if len(a) > 1 else k.get("method", "autocorr")


_TAGS = {
    "kernels.apply_matrix": {"tag": _matrix_tag},
    "kernels.apply_phase": {"tag": _phase_tag},
    "kernels.apply_swap": {"tag": _swap_tag},
    "circuits.apply": {"tag": _first_arg_id},
    "circuits.build_timestep": {"result_tag": id},
    "circuits.Circuit.controlled": {"result_tag": id},
    "soft.propagate": {"tag": _time_grid},
    "circuits.circuit_propagate": {"tag": _time_grid},
    "signals.shots_scan": {"tag": _scan_method},
}


@contextmanager
def patched(tracer: Tracer):
    """Install the tracing wrappers for the duration of the block."""
    import vibroniq
    from vibroniq import circuits, soft

    modules = [vibroniq] + [importlib.import_module(f"vibroniq.{name}") for name in LAYERS]
    wrappers = {}
    saved = []

    def install(owner, attr, name, fn):
        if fn not in wrappers:
            wrappers[fn] = tracer.wrap(name, fn, **_TAGS.get(name, {}))
        saved.append((owner, attr, fn))
        setattr(owner, attr, wrappers[fn])

    try:
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                package, _, layer = obj.__module__.partition(".")
                if package == "vibroniq" and layer in LAYERS:
                    install(module, attr, f"{layer}.{obj.__name__}", obj)
        install(circuits.Circuit, "controlled", "circuits.Circuit.controlled",
                circuits.Circuit.controlled)
        install(soft.PropagatorPlan, "__post_init__", "soft.PropagatorPlan",
                soft.PropagatorPlan.__post_init__)
        install(np.fft, "fftn", "numpy.fft.fftn", np.fft.fftn)
        install(np.fft, "ifftn", "numpy.fft.ifftn", np.fft.ifftn)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

KERNEL_KINDS = ("matrix", "phase", "swap")
BLOCKS = ("udiag_pair", "uc", "qft", "uk")
AMPLITUDE_BYTES = 16  # complex128


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


class SpanIndex:
    """Spans grouped by name and by parent, with self times."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.by_name: dict[str, list[int]] = {}
        self.children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[NAME], []).append(i)
            self.children.setdefault(s[PARENT], []).append(i)

    def dur(self, i: int) -> float:
        s = self.spans[i]
        return s[END] - s[START]

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children.get(i, ()))

    def named(self, name: str, parent: int | None = None) -> list[int]:
        idx = self.by_name.get(name, [])
        if parent is None:
            return idx
        return [i for i in idx if self.spans[i][PARENT] == parent]

    def parent_name(self, i: int) -> str | None:
        p = self.spans[i][PARENT]
        return self.spans[p][NAME] if p >= 0 else None

    def kids(self, i: int, name: str) -> list[int]:
        return [c for c in self.children.get(i, ()) if self.spans[c][NAME] == name]


def _gap_per_sample(ix: SpanIndex, prop: int, steps: list[int]) -> tuple[float, int]:
    """Time between consecutive step spans inside one propagation call.

    Both drivers record a sample right after the step that reaches it, so the
    gaps hold every observer record except the first (step 0) and the last
    (step n_steps), plus the loop's own per-step cost.
    """
    tg = ix.spans[prop][TAG]
    steps = sorted(steps, key=lambda i: ix.spans[i][START])
    gap = sum(ix.spans[b][START] - ix.spans[a][END] for a, b in zip(steps, steps[1:]))
    inner = sum(1 for s in tg.sample_steps() if 0 < s < tg.n_steps)
    return gap, inner


def _step_applies(ix: SpanIndex, prop: int, builder: str) -> list[int]:
    """apply spans inside `prop` that ran the circuit `builder` returned there."""
    built = {ix.spans[b][TAG] for b in ix.kids(prop, builder)}
    return [a for a in ix.kids(prop, "circuits.apply") if ix.spans[a][TAG] in built]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every per-layer metric of one traced pass (set-up plus job).

    A layer that the workload does not exercise reports 0.
    """
    ix = SpanIndex(spans)
    ms = 1e3
    m: dict[str, float] = {}

    m["model.initial_state_ms"] = ms * _mean([ix.dur(i) for i in ix.named("model.initial_state")])

    # soft
    m["soft.plan_ms"] = ms * _mean([ix.dur(i) for i in ix.named("soft.PropagatorPlan")])
    steps = ix.named("soft.step")
    ffts = [c for i in steps for n in ("numpy.fft.fftn", "numpy.fft.ifftn") for c in ix.kids(i, n)]
    n_steps = max(len(steps), 1)
    m["soft.step_ms"] = ms * _mean([ix.dur(i) for i in steps])
    m["soft.step_self_ms"] = ms * _mean([ix.self_time(i) for i in steps])
    m["soft.fft_ms_per_step"] = ms * sum(ix.dur(i) for i in ffts) / n_steps
    m["soft.fft_calls_per_step"] = len(ffts) / n_steps
    gap = inner = 0
    for p in ix.named("soft.propagate"):
        g, k = _gap_per_sample(ix, p, ix.kids(p, "soft.step"))
        gap, inner = gap + g, inner + k
    m["soft.observer_ms_per_sample"] = ms * gap / inner if inner else 0.0
    m["soft.energy_ms"] = ms * _mean([ix.dur(i) for i in ix.named("soft.energy")])
    m["soft.boundary_ms"] = ms * _mean([ix.dur(i) for i in ix.named("soft.boundary_maxima")])
    m["soft.populations_ms"] = ms * _mean([ix.dur(i) for i in ix.named("soft.populations")])

    # circuits and kernels: the time-step applies inside circuit_propagate
    builds = [i for i in ix.named("circuits.build_timestep")
              if ix.parent_name(i) != "resources.verify_against_builder"]
    m["circuits.build_ms"] = ms * _mean([ix.dur(i) for i in builds])
    m["circuits.controlled_ms"] = ms * _mean(
        [ix.dur(i) for i in ix.named("circuits.Circuit.controlled")])
    applies, gap, inner = [], 0.0, 0
    for p in ix.named("circuits.circuit_propagate"):
        step_applies = _step_applies(ix, p, "circuits.build_timestep")
        g, k = _gap_per_sample(ix, p, step_applies)
        applies += step_applies
        gap, inner = gap + g, inner + k
    n_applies = max(len(applies), 1)
    m["circuits.apply_ms_per_step"] = ms * _mean([ix.dur(i) for i in applies])
    m["circuits.observer_ms_per_sample"] = ms * gap / inner if inner else 0.0
    amplitudes = 0
    for kind in KERNEL_KINDS:
        calls = [c for a in applies for c in ix.kids(a, f"kernels.apply_{kind}")]
        m[f"kernels.calls_per_step.{kind}"] = len(calls) / n_applies
        m[f"kernels.us_per_call.{kind}"] = 1e6 * _mean([ix.dur(c) for c in calls])
        amplitudes += sum(1 << spans[c][TAG] for c in calls)
    m["kernels.bytes_per_step_computed"] = 2 * AMPLITUDE_BYTES * amplitudes / n_applies

    # signals: top-level calls made by the job, not the ones inside shots_scan
    m["signals.spectrum_ms"] = ms * _mean([ix.dur(i) for i in ix.named("signals.spectrum", -1)])
    for method in ("autocorr", "direct"):
        scans = [i for i in ix.named("signals.shots_scan") if spans[i][TAG] == method]
        m[f"signals.shots_scan_ms.{method}"] = ms * _mean([ix.dur(i) for i in scans])
    m["signals.sample_autocorr_calls"] = float(len(ix.named("signals.sample_autocorr")))

    m["resources.verify_ms"] = ms * sum(
        ix.dur(i) for i in ix.named("resources.verify_against_builder"))
    return m
