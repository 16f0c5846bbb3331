"""Alternating parent/change pairs of one benchmark workload, as one record.

    python tools/pairs.py --parent REV [--change REV] --runs K --seconds S --workload W --label L

Each side runs from its own `git archive` copy in a temporary directory: the
parent's revision, and as the change the revision given by --change, or
without it HEAD when the work tree is clean, or else a snapshot of the work
tree (its tracked and untracked files, less what .gitignore names). With
--parent R --change R both sides archive the same tree: a control series,
whose spread is the benchmark's own. Pair i (from 1) runs the parent first when i is odd and
the change first when it is even, both on seed SEED_BASE + i. A run is
`python3 vbench/run.py --workload W --seed s --seconds S --trace 0` in its
copy, as that file stands there; the last line it prints is its result, and
its first line its provenance.

The record goes to BENCH_<label>.json at the repository root, in the format
of BENCH_gate-kernels.json: per side and metric the median over runs
("value"), its quartiles q1 and q3 and the runs; per metric the pairs in
which the change is lower, and the relative change of the medians; both
revisions and each side's src_sha256. A record that already holds other
workloads of the same two sources (the parent's revision and src_sha256 and
the change's src_sha256) keeps them, so one label can gather workloads run
with different counts.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED_BASE = 3300
SIDES = ("parent", "change")


def pair_order(i: int) -> tuple[str, str]:
    """The sides of pair i (from 1) in the order they run."""
    return SIDES if i % 2 else SIDES[::-1]


def summary(values: list[float], unit: str) -> dict:
    """The median of values with its quartiles (linear interpolation) and the values."""
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"value": float(med), "q1": float(q1), "q3": float(q3), "unit": unit, "runs": list(values)}


def side_result(runs: list[dict]) -> dict:
    """One side's entry from its runs' result lines."""
    names = list(runs[0]["metrics"])
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "runs": len(runs),
        "metrics": {m: summary([r["metrics"][m]["value"] for r in runs], runs[0]["metrics"][m]["unit"])
                    for m in names},
    }


def compare(parent: dict, change: dict) -> dict:
    """Per metric of two side entries over the same pairs: how many pairs the
    change is lower in, the relative change of the medians, and whether the
    medians differ by more than the parent's interquartile range."""
    out: dict = {"change_lower_in_pairs": {}, "relative_change_of_medians": {}, "beyond_parent_iqr": {}}
    for m, p in parent["metrics"].items():
        c = change["metrics"][m]
        lower = sum(b < a for a, b in zip(p["runs"], c["runs"]))
        out["change_lower_in_pairs"][m] = f"{lower}/{len(p['runs'])}"
        out["relative_change_of_medians"][m] = round(c["value"] / p["value"] - 1.0, 5) if p["value"] else None
        out["beyond_parent_iqr"][m] = abs(c["value"] - p["value"]) > p["q3"] - p["q1"]
    return out


def record(old: dict | None, workload: str, info: dict, parent_runs: list[dict], change_runs: list[dict],
           policy: str) -> dict:
    """The record with this workload's pairs put in: a new one, or old when
    it holds the same two sources (its other workloads kept)."""
    rec = {**info, "repeat_policy": {}, "result": {}, "parent_result": {},
           "change_lower_in_pairs": {}, "relative_change_of_medians": {}, "beyond_parent_iqr": {}}
    if old is not None:
        if (old["src_sha256"], old["parent"]) != (info["src_sha256"], info["parent"]):
            raise SystemExit("error: the record holds other sources; pick another --label")
        rec = {**old, **info}
    rec["repeat_policy"][workload] = policy
    rec["result"][workload] = change = side_result(change_runs)
    rec["parent_result"][workload] = parent = side_result(parent_runs)
    for key, value in compare(parent, change).items():
        rec[key][workload] = value
    return rec


def _git(*args: str, env=None) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True,
                          env=env).stdout.strip()


def change_tree(rev: str | None = None) -> tuple[str, str]:
    """(tree-ish, description) of the change side: the revision rev when one
    is given, else HEAD when the work tree is clean, else a tree of the work
    tree written through a scratch index."""
    if rev is not None:
        commit = _git("rev-parse", rev)
        return commit, commit
    head = _git("rev-parse", "HEAD")
    if not _git("status", "--porcelain"):
        return head, head
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(pathlib.Path(tmp) / "index")}
        _git("read-tree", "HEAD", env=env)
        _git("add", "-A", env=env)
        tree = _git("write-tree", env=env)
    return tree, f"uncommitted change on {head} (tree {tree})"


def checkout(tree: str, where: pathlib.Path) -> pathlib.Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", tree],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(where, filter="data")
    return where


def run_once(copy: pathlib.Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(provenance, result) of one benchmark run in copy."""
    cmd = ["python3", "vbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {copy} printed nothing (exit {proc.returncode})\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["metrics"]:
        raise SystemExit(f"error: {' '.join(cmd)} in {copy} measured nothing\n{proc.stderr}")
    return json.loads(lines[0]), result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--change", help="the change side's revision (default: HEAD or the work tree)")
    parser.add_argument("--runs", type=int, default=10, help="pairs of runs")
    parser.add_argument("--seconds", type=float, default=30.0, help="seconds of each run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--label", required=True, help="the record is BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    parent_rev = _git("rev-parse", args.parent)
    tree, described = change_tree(args.change)
    runs: dict = {side: [] for side in SIDES}
    provenance: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {"parent": checkout(parent_rev, pathlib.Path(tmp) / "parent"),
                  "change": checkout(tree, pathlib.Path(tmp) / "change")}
        for i in range(1, args.runs + 1):
            for side in pair_order(i):
                provenance[side], result = run_once(copies[side], args.workload, SEED_BASE + i, args.seconds)
                runs[side].append(result)
                print(f"pair {i} {side}: " + ", ".join(f"{m} {v['value']:.6g}" for m, v in result["metrics"].items()),
                      flush=True)
    change = provenance["change"]
    info = {
        "git_revision": described,
        "parent": f"{parent_rev}, src_sha256 {provenance['parent']['src_sha256']}",
        "command": (f"tools/pairs.py --parent {args.parent}{f' --change {args.change}' if args.change else ''} "
                    f"--runs {args.runs} --seconds {args.seconds:g} "
                    f"--workload <w> --label {args.label}: python3 vbench/run.py --workload <w> --seed <s> "
                    f"--seconds {args.seconds:g} --trace 0, pair i on seed {SEED_BASE} + i on both sides, "
                    "PYTHONDONTWRITEBYTECODE=1, each side in its own git archive copy"),
        **{k: change[k] for k in ("src_sha256", "nproc", "python", "numpy", "backend", "threads")},
    }
    policy = (f"{args.runs} runs of {args.seconds:g} s, each alternating with a run of the other side "
              "(odd pairs run the parent first, even pairs the change); value = median over runs of each "
              "run's median, q1/q3 the quartiles over runs")
    path = ROOT / f"BENCH_{args.label}.json"
    old = json.loads(path.read_text()) if path.exists() else None
    rec = record(old, args.workload, info, runs["parent"], runs["change"], policy)
    path.write_text(json.dumps(rec, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
