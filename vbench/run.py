"""vibroniq benchmark: three workloads across both engines, checked physics.

    python3 vbench/run.py --workload soft-4d --seed 1 --seconds 20 --trace 0
    python3 vbench/run.py --workload all --seconds 10

One run imports vibroniq from this checkout's src/, sets the workload up once
untimed (warm-up, and the state the checks compare against), then repeats
passes until --seconds have passed (at least MIN_PASSES). A pass sets the
workload up again (timed: setup_s) and runs its job (timed: run_s and the
engine stages); metrics are medians over passes, so set-up is sampled across
the whole run like the job. Every job's outputs are checked; a pass whose
checks fail is counted in `failed` and left out of the timings. `attempted`
and `failed` count checks, so their ratio is the fail ratio.

With --trace 0 the end-to-end metrics are reported. With --trace 1 untraced
and traced passes alternate: each traced pass wraps the library's public
functions (see tracing.py), sets up once more and runs the job, and the
per-layer metrics are medians over traced passes. The engine-level per-step
figures and the trace overhead come from the untraced passes of the same run.

Wall times on a shared host drift with its load, so the end-to-end times
are calibrated: every untraced pass of a --trace 0 run is bracketed by calls
of the workload's calibration kernel (calibrate.py: fixed numpy work that
never calls vibroniq), each time is divided by the mean of the two calls
around its pass, and the median of these ratios over passes is scaled by the
kernel's reference seconds. Raw times and calibration times of every pass go
to the record.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full record (provenance, every pass, every
check, and the spans of the last traced pass) goes to .bench_out/ in the
checkout. `--workload all` runs each workload in its own process and prints
every end-to-end metric by name and unit with its fail ratio.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "propagate_ms_per_step": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "soft_ms_per_step": "ms",
    "circuit_ms_per_step": "ms",
    "readout_ms_per_step": "ms",
    "model.initial_state_ms": "ms",
    "soft.plan_ms": "ms",
    "soft.step_ms": "ms",
    "soft.step_self_ms": "ms",
    "soft.fft_ms_per_step": "ms",
    "soft.fft_calls_per_step": "count",
    "soft.observer_ms_per_sample": "ms",
    "soft.energy_ms": "ms",
    "soft.boundary_ms": "ms",
    "soft.populations_ms": "ms",
    "circuits.build_ms": "ms",
    "circuits.controlled_ms": "ms",
    "circuits.gates_per_step": "count",
    "circuits.depth": "count",
    "circuits.apply_ms_per_step": "ms",
    "circuits.block_ms.udiag_pair": "ms",
    "circuits.block_ms.uc": "ms",
    "circuits.block_ms.qft": "ms",
    "circuits.block_ms.uk": "ms",
    "circuits.observer_ms_per_sample": "ms",
    "kernels.calls_per_step.matrix": "count",
    "kernels.calls_per_step.phase": "count",
    "kernels.calls_per_step.swap": "count",
    "kernels.us_per_call.matrix": "us",
    "kernels.us_per_call.phase": "us",
    "kernels.us_per_call.swap": "us",
    "kernels.bytes_per_step_computed": "B",
    "signals.spectrum_ms": "ms",
    "signals.shots_scan_ms.autocorr": "ms",
    "signals.shots_scan_ms.direct": "ms",
    "signals.sample_autocorr_calls": "count",
    "resources.verify_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def bootstrap() -> None:
    """Cap library threads at nproc and import vibroniq from this checkout."""
    if not (SRC / "vibroniq" / "__init__.py").is_file():
        sys.exit(f"error: no vibroniq sources under {SRC}; run from a full checkout")
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc()))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import vibroniq

    if Path(vibroniq.__file__).resolve().parent != (SRC / "vibroniq").resolve():
        sys.exit(f"error: imported vibroniq from {vibroniq.__file__}, not {SRC}")


def source_provenance() -> dict:
    """Git revision when the checkout is a repository, and a digest of src/."""
    rev = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            rev = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(p for p in (SRC / "vibroniq").rglob("*") if p.is_file()
                       and p.suffix in (".py", ".json")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_revision": rev, "src_sha256": digest.hexdigest()}


def provenance(w, args) -> dict:
    import numpy as np
    from vibroniq import kernels

    try:
        numba = metadata.version("numba")
    except metadata.PackageNotFoundError:
        numba = "absent"
    return {
        **source_provenance(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba,
        "backend": kernels.backend(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("VIBRONIQ_DISABLE_NUMBA",)},
        "repeat_policy": (f"every pass sets up and runs the job; passes repeat for "
                          f"{args.seconds} s (at least {MIN_PASSES}, or one untraced and one "
                          "traced with --trace 1); metrics are medians over passes; "
                          f"end-to-end times are calibrated by the {w.calibration!r} kernel "
                          "called before and after every pass"),
        "workload": w.__dict__,
        "seed": args.seed,
        "trace": args.trace,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _save_spans(path: Path, spans) -> None:
    import numpy as np

    from tracing import END, NAME, PARENT, START

    names = sorted({s[NAME] for s in spans})
    code = {n: i for i, n in enumerate(names)}
    np.savez_compressed(
        path,
        names=np.array(names),
        name=np.array([code[s[NAME]] for s in spans], dtype=np.int32),
        start=np.array([s[START] for s in spans]),
        end=np.array([s[END] for s in spans]),
        parent=np.array([s[PARENT] for s in spans], dtype=np.int64),
    )


def run(w, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, repeat the job for `seconds`, check every pass; see module doc."""
    import calibrate
    import tracing as tr
    import workloads as wl

    clock = time.perf_counter
    ctx = wl.setup(w)  # untimed: warms up and holds what the checks compare against
    wl.prepare_checks(w, ctx)
    calibrate.timed(w.calibration)  # warm-up
    cal = calibrate.timed(w.calibration)  # the call before the first pass

    passes, traced, checks, spans = [], [], [], None
    deadline = clock() + seconds
    while True:
        this_traced = trace and len(traced) < len(passes)
        gc.collect()  # untimed, so no pass pays for garbage an earlier one left
        if this_traced:
            tracer = tr.Tracer()
            with tr.patched(tracer):
                timings, out = wl.job(w, wl.setup(w), seed)
        else:
            t0 = clock()
            pass_ctx = wl.setup(w)
            setup_s = clock() - t0
            timings, out = wl.job(w, pass_ctx, seed)
            timings["setup"] = setup_s
            if not trace:
                after = calibrate.timed(w.calibration)
                timings["calibration"] = (cal + after) / 2
                cal = after
        results = wl.check(w, ctx, out)
        checks.append(results)
        if all(ok for _, ok, _ in results):
            if this_traced:
                spans = tracer.spans
                traced.append((timings, tr.layer_metrics(spans)))
            else:
                passes.append(timings)
        enough = bool(passes and traced) if trace else len(passes) >= MIN_PASSES
        if clock() >= deadline and (enough or len(checks) >= 4 * MIN_PASSES):
            break

    attempted = sum(len(r) for r in checks)
    failed = sum(not ok for r in checks for _, ok, _ in r)
    metrics: dict[str, float] = {}
    if passes and (traced or not trace):
        if trace:
            metrics = _layer_report(w, ctx, passes, traced)
        else:
            ref = calibrate.REFERENCE_S[w.calibration]

            def calibrated(seconds_of) -> float:
                return ref * _median([seconds_of(p) / p["calibration"] for p in passes])

            steps = w.soft_steps + w.circuit_steps + w.readout_steps
            metrics = {
                "setup_s": calibrated(lambda p: p["setup"]),
                "run_s": calibrated(lambda p: p["run"]),
                "propagate_ms_per_step": 1e3 / steps * calibrated(
                    lambda p: sum(p.get(k, 0.0) for k in ("soft", "circuit", "readout"))),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "traced_passes": [{"timings": t, "layers": m} for t, m in traced],
        "checks": [[list(c) for c in r] for r in checks],
        "spans": spans,
    }


def _layer_report(w, ctx, passes, traced) -> dict[str, float]:
    import workloads as wl

    def per_step(stage: str, steps: int) -> float:
        return 1e3 * _median([p[stage] for p in passes]) / steps if steps else 0.0

    layers = {k: _median([m[k] for _, m in traced]) for k in traced[0][1]}
    circ = ctx.step_circuit
    metrics = {
        "soft_ms_per_step": per_step("soft", w.soft_steps),
        "circuit_ms_per_step": per_step("circuit", w.circuit_steps),
        "readout_ms_per_step": per_step("readout", w.readout_steps),
        **layers,
        "circuits.gates_per_step": float(circ.gate_count()) if circ else 0.0,
        "circuits.depth": float(circ.depth()) if circ else 0.0,
        **wl.block_ms(w, ctx),
        "trace.overhead_ratio": _median([t["run"] for t, _ in traced])
        / _median([p["run"] for p in passes]),
    }
    return {k: metrics[k] for k in PER_LAYER}


def run_all(args) -> int:
    """Every workload in its own process; a table of end-to-end metrics."""
    import workloads as wl

    summary, status = {}, 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        summary[name] = result
        print(f"{name}: fail_ratio {result['failed'] / result['attempted']:.3g} "
              f"({result['failed']}/{result['attempted']} checks)")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<24} {v['value']:12.6g} {v['unit']}")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bootstrap()
    import workloads as wl

    if args.workload == "all":
        return run_all(args)
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; pick from all, {', '.join(wl.WORKLOADS)}")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    w = wl.WORKLOADS[args.workload]
    info = provenance(w, args)
    print(json.dumps(info, sort_keys=True))
    res = run(w, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": res["failed"] == 0 and bool(res["metrics"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if res["spans"]:
        _save_spans(OUT_DIR / f"spans-{stem}.npz", res["spans"])
    record = {"provenance": info, "result": result,
              **{k: v for k, v in res.items() if k not in ("metrics", "spans")}}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    for c in (c for r in res["checks"] for c in r if not c[1]):
        print(f"check failed: {c[0]} = {c[2]!r}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
