"""The production answers, pinned.

answers.json holds, as repr floats, the series of the two session runs that
conftest.production_run makes: for the 2048-step run A(t) at its 129
samples, P_S1, the per-mode edge maxima and the spectrum; for the 1024-step
run the spectrum. The test reads the session fixtures, so it adds no
propagation, and holds every series within 1e-10 of the file.

Regenerate the file from the tree this runs in with

    PYTHONPATH=src python tests/test_answers.py

and state in the change's record the largest move it reports.
"""

import importlib.util
import json
import time
from pathlib import Path

import numpy as np
from conftest import production_run

from vibroniq import signals

ANSWERS = Path(__file__).with_name("answers.json")
TOLERANCE = 1e-10


def answers(run: dict, spectrum_only: bool = False) -> dict:
    """The pinned series of one production run, by name, as nested lists."""
    spec = signals.spectrum(run["autocorr"])
    out = {"spectrum.energies": spec.energies, "spectrum.intensities": spec.intensities}
    if not spectrum_only:
        a = run["autocorr"].values
        out = {"autocorr.real": a.real, "autocorr.imag": a.imag, "population.p_s1": run["population"].p_s1,
               "boundary.per_mode": run["boundary"].per_mode, **out}
    return {name: np.asarray(values).tolist() for name, values in out.items()}


def largest_moves(got: dict, pinned: dict) -> dict:
    """The largest absolute move of each pinned series, keyed 'run series'."""
    assert got.keys() == pinned.keys() and all(got[r].keys() == pinned[r].keys() for r in got)
    return {f"{run} {name}": float(np.max(np.abs(np.subtract(got[run][name], values))))
            for run, series in pinned.items() for name, values in series.items()}


def test_the_production_answers_stay_where_they_are_pinned(prod_run, prod_run_1024):
    got = {"prod_run": answers(prod_run), "prod_run_1024": answers(prod_run_1024, spectrum_only=True)}
    moves = largest_moves(got, json.loads(ANSWERS.read_text()))
    print("largest move per series: " + ", ".join(f"{k} {v:.3g}" for k, v in moves.items()))
    assert max(moves.values()) <= TOLERANCE, moves


def _answers_tool():
    """tools/answers.py, the comparison of two revisions' answers, as a module."""
    spec = importlib.util.spec_from_file_location("answers_tool", ANSWERS.parents[1] / "tools" / "answers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_answer_dump_runs_in_process_and_compares_item_by_item():
    tool = _answers_tool()
    start = time.perf_counter()
    items = tool.dump(presets=("pyrazine-2mode",), ns=(3,))
    assert time.perf_counter() - start < 1.0
    # serialize; per split the export digest and, per engine, the program,
    # the state, four series and the stride-1 readout
    assert len(items) == 1 + 2 * (1 + 2 * 7)
    assert {verdict for _, verdict in tool.compare(items, items)} == {"bit-identical"}
    key = "pyrazine-2mode n=3 kinetic-first soft"
    changed = dict(items)
    changed[f"{key} energy"] = items[f"{key} energy"] + 1e-9
    changed[f"{key} program"] = [("phase", *op[1:]) for op in items[f"{key} program"]]
    changed["pyrazine-2mode serialize"] += " "
    del changed[f"{key} state"]
    verdicts = dict(tool.compare(items, changed))
    assert verdicts[f"{key} energy"].startswith("largest |Δ| 1e-09")
    assert verdicts[f"{key} program"].startswith("kinds or shapes differ: [('turn'")
    assert verdicts["pyrazine-2mode serialize"] == "differs"
    assert verdicts[f"{key} state"] == "only in the parent"
    assert verdicts[f"{key} autocorr"] == "bit-identical"
    # an item the parent lacks, as a readout item at a parent without it
    parent = {k: v for k, v in items.items() if k != f"{key} readout"}
    assert dict(tool.compare(parent, items))[f"{key} readout"] == "only in the change"


if __name__ == "__main__":
    new = {"prod_run": answers(production_run(2048, 16)),
           "prod_run_1024": answers(production_run(1024, 8), spectrum_only=True)}
    if ANSWERS.exists():
        moves = largest_moves(new, json.loads(ANSWERS.read_text()))
        print(f"largest move against the old file: {max(moves.values())!r}")
    ANSWERS.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {ANSWERS}")
