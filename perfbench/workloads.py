"""Workload configurations and the output checks run on every report.

A workload is a list of operations; an operation is one `coorbit.cli.run`
of one generated configuration.  Every configuration is derived from a
shipped file in `configs/` and the workload seed, so the same seed gives
the same inputs.  Only the standard library is imported here, so that the
child process can time `import coorbit.cli` before numpy is loaded.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

WORKLOADS = ("ladder", "reconstruct", "catalog")

# shipped configurations run back to back by the `catalog` workload
CATALOG = ("alpha_modulation", "cwt_reproducing", "determinism",
           "gabor_localization", "gabor_reference", "sequence_spaces",
           "sinc_shannon")

# work each workload must do for its timings to mean what the rationale in
# README.md says; a run that does other work is not a valid measurement
LADDER_LEVEL = 2                      # 81 -> 324 -> 1296 cells
LADDER_CELLS = [81, 324, 1296]
RECONSTRUCT_CELLS = 5041              # the level-3 covering, built directly


def config_seed(seed: int) -> int:
    """The seed written into every generated configuration."""
    return seed % 2 ** 32


def _shipped(configs_dir: Path, name: str) -> dict:
    return json.loads((configs_dir / f"{name}.json").read_text())


def operations(workload: str, seed: int, configs_dir: Path) -> list:
    """[(operation name, config dict)] for one pass of a workload."""
    s = config_seed(seed)
    if workload == "ladder":
        cfg = _shipped(configs_dir, "gabor_refinement")
        cfg["tasks"] = ["property-d"]
        cfg["covering"]["refine"]["target"] = "banach"
        cfg["seed"] = s
        return [("ladder", cfg)]
    if workload == "reconstruct":
        cfg = _shipped(configs_dir, "gabor_refinement")
        cfg["tasks"] = ["discretize", "reconstruct"]
        cfg["covering"] = {"cell_size": 0.1125, "overlap": 0.0}
        cfg["index_domain"]["resolution"] = [142, 142]
        cfg["battery_size"] = 10
        cfg["seed"] = s
        return [("reconstruct", cfg)]
    if workload == "catalog":
        ops = []
        for name in CATALOG:
            cfg = _shipped(configs_dir, name)
            cfg["seed"] = s
            ops.append((name, cfg))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------
def _non_finite(node, path="tasks"):
    """Paths of every non-finite number in a parsed report."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _non_finite(v, f"{path}.{k}")
    elif isinstance(node, list):
        for k, v in enumerate(node):
            yield from _non_finite(v, f"{path}[{k}]")
    elif isinstance(node, float) and not math.isfinite(node):
        yield path


def _bounds(tasks: dict):
    """(label, c1, c2) for every pair of frame bounds in a report."""
    fi = tasks.get("frame-info", {}).get("frame_bounds")
    if fi is not None:
        yield "frame-info.frame_bounds", fi["c1"], fi["c2"]
    hb = tasks.get("discretize", {}).get("hilbert_bounds")
    if hb is not None:
        yield "discretize.hilbert_bounds", hb["c1"], hb["c2"]


def _criterion_checks(name: str, tasks: dict):
    """(ok, description) for the acceptance bound matching each operation.

    The bounds are those of tests/test_acceptance.py for the criterion the
    configuration realizes.
    """
    if name == "ladder":
        traj = tasks["property-d"]["refinement"]["trajectory"]
        deltas = [row[2] for row in traj]
        yield (all(a > b for a, b in zip(deltas, deltas[1:])),
               f"delta strictly decreasing {deltas}")
        yield (tasks["property-d"]["osc_report"]["banach_only"] is True,
               "banach flag set at the passing level")
    elif name in ("reconstruct", "sinc_shannon"):
        # criterion 6/7 on the Gabor box; criterion 9's truth bound on sinc
        tol = 1e-3 if name == "reconstruct" else 1e-6
        rec = tasks["reconstruct"]
        for key in ("atomic_max_relative_error", "banach_max_relative_error"):
            yield rec[key] <= tol, f"{key} {rec[key]!r} <= {tol:g}"
        if name == "reconstruct":
            hb = tasks["discretize"]["hilbert_bounds"]
            yield (0.5 <= hb["c1"] and hb["c2"] <= 2.0,
                   f"0.5 <= c1 {hb['c1']!r}, c2 {hb['c2']!r} <= 2")
    elif name == "gabor_reference":
        fb = tasks["frame-info"]["frame_bounds"]
        yield (0.98 <= fb["c1"] and fb["c2"] <= 1.02,
               f"0.98 <= C1 {fb['c1']!r}, C2 {fb['c2']!r} <= 1.02")
    elif name == "alpha_modulation":
        smin = tasks["frame-info"]["alpha_admissibility"]["sigma_min"]
        yield smin > 0, f"sigma_min {smin!r} > 0"
    elif name == "gabor_localization":
        loc = tasks["localize"]
        viol = loc["gab_domination_violation"]
        yield loc["a_flat"]["finite"] is True, "a_flat norm finite"
        yield viol <= 1e-10, f"domination violation {viol!r} <= 1e-10"
    elif name == "sequence_spaces":
        sq = tasks["sequence-spaces"]
        dev, ratio = sq["closed_form_max_deviation"], sq["plus_operator_max_ratio"]
        yield dev <= 1e-12, f"closed-form deviation {dev!r} <= 1e-12"
        yield (ratio <= sq["plus_operator_bound"],
               f"plus ratio {ratio!r} <= bound {sq['plus_operator_bound']!r}")
    # cwt_reproducing and determinism: criteria 2 and 13 have no bound on a
    # report value; the generic checks (finite, c1 <= c2, bit-identical
    # repeats) cover them


def check_report(name: str, report_bytes: bytes) -> list:
    """Descriptions of every check the report fails; empty when it passes."""
    try:
        tasks = json.loads(report_bytes)["tasks"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable report: {exc}"]
    failures = [f"non-finite value at {p}" for p in _non_finite(tasks)]
    try:
        failures += [f"{label}: c1 {c1!r} > c2 {c2!r}"
                     for label, c1, c2 in _bounds(tasks) if not c1 <= c2]
        failures += [desc for ok, desc in _criterion_checks(name, tasks)
                     if not ok]
    except (KeyError, IndexError, TypeError) as exc:
        failures.append(f"report lacks a checked value: {exc!r}")
    return failures


def work_done(name: str, report_bytes: bytes) -> str | None:
    """Why an operation did other work than its workload intends, or None."""
    try:
        tasks = json.loads(report_bytes)["tasks"]
        if name == "ladder":
            ref = tasks["property-d"]["refinement"]
            level, cells = ref["passing_level"], [row[1] for row in ref["trajectory"]]
            if level != LADDER_LEVEL or cells != LADDER_CELLS:
                return (f"ladder stopped at level {level} with cells {cells}, "
                        f"expected level {LADDER_LEVEL} {LADDER_CELLS}")
        elif name == "reconstruct":
            cells = tasks["discretize"]["cells"]
            if cells != RECONSTRUCT_CELLS:
                return f"reconstruct built {cells} cells, expected {RECONSTRUCT_CELLS}"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"report lacks the work record: {exc!r}"
    return None
