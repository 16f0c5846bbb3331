"""Compare the answers of two revisions, item by item.

    python tools/answers.py --parent REV [--change REV]

Each side runs from its own `git archive` copy of the revision's `src` in a
temporary directory, in a child process with that copy on its path; without
--change the change side is the work tree's `src`. Each side dumps:

- the operands of the engine programs of pyrazine-4d and pyrazine-2mode at
  n = 3, 4, 5, both split orders and both engines;
- the same runs' state after 64 steps of dt = 0.13 and the series of all
  four observers at stride 16;
- soft.autocorrelation of the same plans over the 64 steps at stride 1,
  which takes the half path (and its odd-sample swap) potential-first;
- the sha256 of export_gates of each split's step circuit at each n, and
  serialize of both presets.

For each item it prints "bit-identical" or its largest |Δ|. Where two
programs differ in kinds or shapes, it prints those instead of a Δ.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import os
import pathlib
import pickle
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

PRESETS = ("pyrazine-4d", "pyrazine-2mode")
NS = (3, 4, 5)
DT, STEPS, STRIDE = 0.13, 64, 16
ROOT = pathlib.Path(__file__).resolve().parents[1]


def _operands(m) -> list:
    """An operation's operand as a list of arrays: a gather's (u, order) and
    any other tuple of tables item by item."""
    return [np.asarray(x) for x in m] if isinstance(m, (tuple, list)) else [np.asarray(m)]


def dump(presets=PRESETS, ns=NS) -> dict:
    """The answer items of the vibroniq package on the path, by name, in a
    fixed order: strings, arrays, and programs as (kind, shape, operands)
    lists."""
    from vibroniq import circuits, soft
    from vibroniq.model import GridSpec, TimeGrid, get_model, initial_state, serialize

    tg = TimeGrid(dt=DT, n_steps=STEPS, sample_stride=STRIDE)
    readout = TimeGrid(dt=DT, n_steps=STEPS, sample_stride=1)
    items: dict = {}
    for name in presets:
        model = get_model(name)
        items[f"{name} serialize"] = serialize(model)
        for n in ns:
            grid = GridSpec(n=n, q_min=-5.0, q_max=5.0)
            for split in soft.SPLIT_ORDERS:
                text = circuits.export_gates(circuits.build_timestep(model, grid, DT, split))
                items[f"{name} n={n} {split} export"] = hashlib.sha256(text.encode()).hexdigest()
                for engine, make in (("soft", soft.PropagatorPlan), ("circuit", circuits.CircuitPlan)):
                    key = f"{name} n={n} {split} {engine}"
                    plan = make(model, grid, DT, split)
                    items[f"{key} program"] = [(how, list(shape), _operands(m)) for shape, how, m in plan.program.ops]
                    run = soft.propagate(plan, initial_state(model, grid), tg, observers=soft.OBSERVERS)
                    items[f"{key} state"] = run["state"].amplitudes
                    items[f"{key} autocorr"] = run["autocorr"].values
                    items[f"{key} population"] = np.stack([run["population"].p_s1, run["population"].p_s2])
                    items[f"{key} boundary"] = run["boundary"].per_mode
                    items[f"{key} energy"] = run["energy"].values
                    items[f"{key} readout"] = soft.autocorrelation(plan, initial_state(model, grid), readout).values
    return items


def _delta(a, b) -> float | None:
    """The largest |a - b| of two arrays, 0.0 when they are bit-identical
    and None when their shapes differ."""
    if a.shape != b.shape:
        return None
    return 0.0 if np.array_equal(a, b) else float(np.max(np.abs(a - b)))


def _layout(program: list) -> list:
    return [(how, shape, [x.shape for x in operands]) for how, shape, operands in program]


def compare(parent: dict, change: dict) -> list[tuple[str, str]]:
    """(item, verdict) for every item of either side, the parent's order
    first: "bit-identical", "largest |Δ| x", or what differs."""
    out = []
    for key in [*parent, *(k for k in change if k not in parent)]:
        if key not in parent or key not in change:
            out.append((key, f"only in the {'parent' if key in parent else 'change'}"))
            continue
        a, b = parent[key], change[key]
        if isinstance(a, str):
            out.append((key, "bit-identical" if a == b else "differs"))
            continue
        if isinstance(a, list):
            if _layout(a) != _layout(b):
                out.append((key, f"kinds or shapes differ: {_layout(a)} -> {_layout(b)}"))
                continue
            deltas = [_delta(x, y) for (_, _, xs), (_, _, ys) in zip(a, b) for x, y in zip(xs, ys)]
        else:
            deltas = [_delta(np.asarray(a), np.asarray(b))]
        if None in deltas:
            out.append((key, f"shapes differ: {np.shape(a)} -> {np.shape(b)}"))
        else:
            out.append((key, "bit-identical" if max(deltas) == 0.0 else f"largest |Δ| {max(deltas):.3g}"))
    return out


def _side(rev: str | None, workdir: pathlib.Path, label: str) -> dict:
    """The dump of one revision's src, or the work tree's for None, made in
    a child process with that src first on its path."""
    src = ROOT / "src"
    if rev is not None:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(workdir / label, filter="data")
        src = workdir / label / "src"
    out = workdir / f"{label}.pickle"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, __file__, "--dump", str(out)], check=True, env=env)
    with open(out, "rb") as fh:
        return pickle.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="the revision to compare against")
    parser.add_argument("--change", help="the revision to compare (default: the work tree)")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:  # the child: dump the package its PYTHONPATH holds
        with open(args.dump, "wb") as fh:
            pickle.dump(dump(), fh)
        return 0
    if not args.parent:
        parser.error("--parent is required")
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = (_side(rev, pathlib.Path(tmp), label)
                          for rev, label in ((args.parent, "parent"), (args.change, "change")))
    verdicts = compare(parent, change)
    for key, verdict in verdicts:
        print(f"{key}: {verdict}")
    same = sum(verdict == "bit-identical" for _, verdict in verdicts)
    print(f"{same} of {len(verdicts)} items bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
