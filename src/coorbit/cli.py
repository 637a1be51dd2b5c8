"""Configuration-driven pipeline runner.

`coorbit run config.json [--out DIR] [--seed N] [--threads N]` executes the
configured tasks in order and writes a machine-readable report.json plus
per-task CSV files.  `coorbit validate config.json` checks the configuration
without computing anything.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
Determinism: all randomness flows from the single seed recorded in the
report; reductions are fixed-order, so identical configurations and seeds
give bit-identical reports.  The thread count (by default the cores the
process may use) sizes the pool that runs the units of the property-D
oscillation, the row blocks of `am_norm` and those of every Hermitian Gram
(S, S_d, U_Phi's K, the probe Grams): each thread claims the next block as
soon as it is free, and the calling thread folds the results in block
order.  It is recorded in timings.json and never changes a report.  `run`
holds numpy's bundled OpenBLAS at one thread while the tasks run, so the
BLAS thread count of the environment does not change a report either.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._linalg import SolverError
from .measure_space import SignalGrid, polynomial_weight, trivial_weight, \
    trivial_admissible_weight, weight_from_w
from .frame_families import _BUILDERS, FamilyError, default_index_grid, \
    export_atoms_csv, frame_bounds_continuous, gram_kernel, leakage_report, \
    make_battery, make_family
from .kernel_algebra import _usable_cores, am_norm
from .coverings import CoveringError, build_covering, build_pu, verify_moderate
from .oscillation import OscillationError, property_D_check, refine_until
from .discretization import DiscretizationError, atomic_coefficients, \
    banach_frame_reconstruct, build_uphi, hilbert_frame_bounds
from .localization import a_flat_norm, cross_gramian, gab_domination_check

KNOWN_TASKS = ("frame-info", "property-d", "discretize", "reconstruct",
               "localize", "norms", "sequence-spaces")
KNOWN_FAMILIES = tuple(_BUILDERS)
COVERING_TASKS = ("property-d", "discretize", "reconstruct", "localize",
                  "sequence-spaces")
INTERIOR_TASKS = ("frame-info", "discretize", "reconstruct")   # read the interior
REFINE_TARGETS = ("full", "atomic", "banach")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
def validate_config(cfg: dict) -> list[str]:
    """Schema and cross-field diagnostics; empty list means valid."""
    if not isinstance(cfg, dict):
        return ["the configuration must be an object"]
    diags = []
    fam = cfg.get("family")
    if not isinstance(fam, dict) or "tag" not in fam:
        diags.append("family.tag missing")
        return diags
    tag = fam["tag"]
    if tag not in KNOWN_FAMILIES:
        diags.append(f"unknown family tag {tag!r}")
    dim = 1 if tag == "sinc_rkhs" else 2
    params = _object(fam, "params", "family.params", diags)
    sgc = _object(cfg, "signal_grid", "signal_grid", diags)
    dom = _object(cfg, "index_domain", "index_domain", diags)
    T = sgc.get("T", 10.0)
    n = sgc.get("n", 512)
    n_ok = isinstance(n, int) and n >= 8 and (n & (n - 1)) == 0
    if not n_ok:
        diags.append(f"signal_grid.n must be a power of two >= 8, got {n!r}")
    T_ok = _is_number(T) and T > 0
    if not T_ok:
        diags.append(f"signal_grid.T must be a positive number, got {T!r}")
    if tag == "sinc_rkhs" and n_ok and T_ok:
        omega = params.get("bandlimit")
        if omega is not None and not _is_number(omega):
            diags.append(f"family.params.bandlimit must be a number, got {omega!r}")
        elif omega is not None and omega >= np.pi * n / (2 * T):
            diags.append(f"bandlimit {omega} at or above grid Nyquist "
                         f"{np.pi * n / (2 * T):.4f}")
    diags += _domain_diags(tag, dom, dim)
    bounds = dom.get("bounds")
    if tag in ("cwt", "inhom_wavelet"):
        order = params.get("order", 6)
        if params.get("wavelet") != "mexican_hat" and not _is_int(order, 1):
            diags.append(f"family.params.order must be an integer >= 1, got {order!r}")
        elif bounds is not None and not (_is_box(bounds, 2) and bounds[0][0] > 0):
            diags.append(f"index_domain.bounds must be [[a_lo, a_hi], [b_lo, b_hi]] "
                         f"with 0 < a_lo < a_hi and b_lo < b_hi, got {bounds!r}")
    if tag == "alpha_mod":
        alpha = params.get("alpha", 0.5)
        if not (_is_number(alpha) and 0.0 <= alpha < 1.0):
            diags.append(f"family.params.alpha must be a number in [0, 1), "
                         f"got {alpha!r}")
    tasks = cfg.get("tasks")
    if not diags:
        # the family's refusals, and an empty interior of `bounds` or the
        # default box if a task reads it; builds no grid or atom matrix
        try:
            family = make_family(tag, params, SignalGrid(float(T), n))
            if isinstance(tasks, list) and any(t in INTERIOR_TASKS for t in tasks):
                family.interior_box(
                    family.index_domain.bounds if bounds is None else bounds)
        except FamilyError as exc:
            diags.append(str(exc))
    if not tasks or not isinstance(tasks, list):
        diags.append("tasks must be a nonempty list")
    else:
        for t in tasks:
            if t not in KNOWN_TASKS:
                diags.append(f"unknown task {t!r}")
    wc = _object(cfg, "weight", "weight", diags, {"type": "trivial"})
    if wc.get("type") not in ("trivial", "polynomial"):
        diags.append(f"unknown weight type {wc.get('type')!r}")
    elif wc["type"] == "polynomial" and not _is_number(wc.get("s", 1.0)):
        diags.append(f"weight.s must be a number, got {wc['s']!r}")
    diags += _covering_diags(cfg, tasks if isinstance(tasks, list) else [], dim)
    cut = cfg.get("stable_cut", 1e-10)
    if not (_is_number(cut) and 0.0 <= cut < 1.0):
        diags.append(f"stable_cut must be a number in [0,1), got {cut!r}")
    for key, default, least in (("z_per_cell", 4, 1), ("battery_size", 5, 1),
                                ("seed", 0, 0)):
        val = cfg.get(key, default)
        if not _is_int(val, least):
            diags.append(f"{key} must be an integer >= {least}, got {val!r}")
    output = cfg.get("output", "coorbit_out")
    if not isinstance(output, str) or not output:
        # Path("") is the working directory
        diags.append(f"output must be a nonempty string, got {output!r}")
    if cfg.get("pu_flavor", "indicator") not in ("indicator", "tent"):
        diags.append(f"unknown pu_flavor {cfg['pu_flavor']!r}")
    return diags


def _domain_diags(tag: str, dom: dict, dim: int) -> list[str]:
    """Diagnostics of the `index_domain` keys that the family's grid reads
    on its `dim` axes (a wavelet family's bounds are checked apart);
    null bounds or resolution read as the default."""
    if tag in ("cwt", "inhom_wavelet"):
        rules = {"band_spacing": (lambda v: _is_number(v) and 0 < v < np.inf,
                                  "a positive number"),
                 "scales_per_octave": (lambda v: _is_int(v, 1), "an integer >= 1")}
    else:
        dom = {k: v for k, v in dom.items() if v is not None}
        rules = {"bounds": (lambda v: _is_box(v, dim),
                            f"{dim} [lo, hi] pair(s) with lo < hi"),
                 "resolution": (lambda v: _is_int(v, 1) or (
                     isinstance(v, list) and len(v) == dim and
                     all(_is_int(r, 1) for r in v)),
                     f"an integer >= 1 or a list of {dim} such integers")}
    return [f"index_domain.{key} must be {what}, got {dom[key]!r}"
            for key, (ok, what) in rules.items() if key in dom and not ok(dom[key])]


def _object(block: dict, key: str, name: str, diags: list,
            default=None) -> dict:
    """block[key], `default` ({} unless given) when absent; a value that is
    not an object adds a diagnostic and reads as the default."""
    default = {} if default is None else default
    val = block.get(key, default)
    if isinstance(val, dict):
        return val
    diags.append(f"{name} must be an object, got {val!r}")
    return default


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _is_int(val, least: int) -> bool:
    return isinstance(val, int) and not isinstance(val, bool) and val >= least


def _is_box(bounds, dim: int) -> bool:
    """`dim` [lo, hi] pairs of finite numbers with lo < hi."""
    return isinstance(bounds, list) and len(bounds) == dim and all(
        isinstance(b, list) and len(b) == 2 and all(map(_is_number, b))
        and -np.inf < b[0] < b[1] < np.inf for b in bounds)


def _covering_diags(cfg: dict, tasks: list, dim: int) -> list[str]:
    """Diagnostics of the `covering` block against the tasks that use it."""
    cc = cfg.get("covering")
    if cc is None:
        return [f"task {t!r} requires a 'covering' block"
                for t in tasks if t in COVERING_TASKS]
    if not isinstance(cc, dict):
        return ["covering must be an object"]
    diags = []
    ov = cc.get("overlap", 0.0)
    if not (_is_number(ov) and 0.0 <= ov < 1.0):
        diags.append(f"covering.overlap must be in [0,1), got {ov!r}")
    refine = cc.get("refine")
    if refine is not None:
        if not isinstance(refine, dict):
            diags.append("covering.refine must be an object")
        else:
            if refine.get("target", "full") not in REFINE_TARGETS:
                diags.append(f"covering.refine.target must be one of "
                             f"{', '.join(REFINE_TARGETS)}, got {refine['target']!r}")
            levels = refine.get("max_levels", 8)
            if not _is_int(levels, 1):
                diags.append(f"covering.refine.max_levels must be an integer >= 1, "
                             f"got {levels!r}")
    cell = cc.get("cell_size")
    if cell is None:
        if not refine:
            diags.append("covering.cell_size is required unless covering.refine is set")
        elif "sequence-spaces" in tasks:
            diags.append("covering.cell_size is required by task 'sequence-spaces'")
        return diags
    entries = cell if isinstance(cell, list) else [cell]
    if (isinstance(cell, list) and len(cell) != dim) or \
            not all(_is_number(c) and c > 0 for c in entries):
        diags.append(f"covering.cell_size must be a positive number or a list of "
                     f"{dim} positive numbers, got {cell!r}")
    return diags


def _load(config_path: str):
    raw = Path(config_path).read_text()
    return raw, json.loads(raw)


# ---------------------------------------------------------------------------
# task implementations
# ---------------------------------------------------------------------------
class _Context:
    def __init__(self, cfg: dict, seed: int, out: Path, threads: int = 1):
        self.cfg = cfg
        self.seed = seed
        self.out = out
        self.threads = threads
        sgc = cfg.get("signal_grid", {})
        self.sg = SignalGrid(float(sgc.get("T", 10.0)), int(sgc.get("n", 512)))
        famc = cfg["family"]
        self.family = make_family(famc["tag"], famc.get("params", {}), self.sg)
        dom = cfg.get("index_domain", {})
        self.grid = default_index_grid(
            self.family, bounds=dom.get("bounds"),
            resolution=dom.get("resolution"),
            **{k: dom[k] for k in ("band_spacing", "scales_per_octave") if k in dom})
        wc = cfg.get("weight", {"type": "trivial"})
        if wc.get("type") == "polynomial":
            self.w = polynomial_weight(float(wc.get("s", 1.0)))
            self.m = weight_from_w(self.w)
        else:
            self.w = trivial_weight()
            self.m = trivial_admissible_weight()
        self.rel_cut = float(cfg.get("stable_cut", 1e-10))
        self.z_per_cell = int(cfg.get("z_per_cell", 4))
        self._covering = None
        self._osc_report = None
        self._trajectory = None
        self._uphi = None

    def covering(self):
        if self._covering is None:
            cc = self.cfg.get("covering")
            if cc is None:
                raise CoveringError("task requires a 'covering' configuration block")
            refine = cc.get("refine")
            if refine:
                cov, rep, traj = refine_until(
                    self.family, self.grid.bounds.tolist(), self.m,
                    target=refine.get("target", "full"),
                    max_levels=int(refine.get("max_levels", 8)),
                    initial_cell=cc.get("cell_size"),
                    overlap=float(cc.get("overlap", 0.0)),
                    z_per_cell=self.z_per_cell, seed=self.seed,
                    rel_cut=self.rel_cut, threads=self.threads)
                self._covering = cov
                self._osc_report = rep
                self._trajectory = traj
                self.grid = cov.grid
            else:
                self._covering = build_covering(
                    self.grid, cc.get("cell_size"),
                    overlap_fraction=float(cc.get("overlap", 0.0)))
        return self._covering

    def uphi(self):
        """(partition of unity, U_Phi) on the covering, built once per run and
        shared by the discretize and reconstruct tasks."""
        if self._uphi is None:
            cov = self.covering()
            pu = build_pu(cov, self.cfg.get("pu_flavor", "indicator"))
            op = build_uphi(gram_kernel(self.family, self.grid, rel_cut=self.rel_cut,
                                        threads=self.threads),
                            cov, pu, self.grid, threads=self.threads)
            self._uphi = (pu, op)
        return self._uphi


def task_frame_info(ctx: _Context) -> dict:
    bounds = frame_bounds_continuous(ctx.family, ctx.grid, threads=ctx.threads)
    out = {"frame_bounds": bounds.as_dict(),
           "leakage": leakage_report(ctx.family, ctx.grid, seed=ctx.seed)}
    box = ctx.grid.bounds
    center = box.mean(axis=1)
    quarter = center + 0.25 * (box[:, 1] - box[:, 0])
    export_atoms_csv(ctx.family, np.vstack([center, quarter]),
                     ctx.out / "atoms.csv")
    return {**out, **ctx.family.frame_info()}


def task_property_d(ctx: _Context) -> dict:
    cov = ctx.covering()
    if ctx._osc_report is None:
        ctx._osc_report = property_D_check(
            ctx.family, cov, ctx.m, ctx.grid, z_per_cell=ctx.z_per_cell,
            seed=ctx.seed, rel_cut=ctx.rel_cut, threads=ctx.threads)
    rep = ctx._osc_report
    out = {"osc_report": rep.as_dict(),
           "moderation": verify_moderate(cov, ctx.m).as_dict()}
    if ctx._trajectory:
        rows = [(s.level, s.cells, s.report.delta_est, s.report.sigma,
                 s.report.cond_value) for s in ctx._trajectory]
        out["refinement"] = {"passing_level": rows[-1][0],
                             "trajectory": [list(r) for r in rows]}
        with open(ctx.out / "refinement.csv", "w", newline="") as fh:
            wtr = csv.writer(fh)
            wtr.writerow(["level", "cells", "delta_est", "sigma", "cond_value"])
            wtr.writerows(rows)
    return out


def task_discretize(ctx: _Context) -> dict:
    _, op = ctx.uphi()
    # the defect first: it builds the Gramian factors, whose peak memory
    # should not overlap the sampled atoms
    defect = op.defect
    c1, c2, sub = hilbert_frame_bounds(op)
    return {"cells": op.covering.size, "defect_estimate": defect,
            "hilbert_bounds": {"c1": c1, "c2": c2, "subspace": sub}}


def task_reconstruct(ctx: _Context) -> dict:
    _, op = ctx.uphi()
    battery = np.stack(make_battery(ctx.family, ctx.grid,
                                    int(ctx.cfg.get("battery_size", 5)),
                                    seed=ctx.seed), axis=1)
    # the whole battery is one block of columns: one pass of block products
    lam, rep = atomic_coefficients(battery, op)
    # V f at the sample nodes, h conj(Psi_X^T conj(f)): no conjugate copy
    # of the sampled atoms
    samples = ctx.sg.h * np.conj(op.atoms.T @ np.conj(battery))
    _, brep = banach_frame_reconstruct(samples, op, f_true=battery)
    ratios = brep.norm_ratios["flat_l2_over_f"]
    last = lam[:, -1]                           # the last signal's
    rows = zip(last.real.tolist(), last.imag.tolist())
    with open(ctx.out / "coefficients.csv", "w", newline="") as fh:
        fh.write("index,re,im\r\n" + "".join(
            f"{k},{x!r},{y!r}\r\n" for k, (x, y) in enumerate(rows)))
    return {"battery_size": battery.shape[1],
            "atomic_max_relative_error": float(np.max(rep.relative_error)),
            "banach_max_relative_error": float(np.max(brep.relative_error)),
            "flat_norm_ratio_bracket": [float(np.min(ratios)), float(np.max(ratios))],
            "defect_estimate": op.defect}


def task_localize(ctx: _Context) -> dict:
    cov = ctx.covering()
    pts = cov.grid.points[cov.sample_node_index]
    gram = cross_gramian(ctx.family, ctx.family, pts, pts)
    rep = a_flat_norm(gram, cov, ctx.m)
    with open(ctx.out / "decay_profile.csv", "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["bucket_lo", "bucket_hi", "max_modulus", "weighted_sum"])
        for k in range(len(rep.decay_bucket_max)):
            wtr.writerow([repr(float(rep.decay_bucket_edges[k])),
                          repr(float(rep.decay_bucket_edges[k + 1])),
                          repr(float(rep.decay_bucket_max[k])),
                          repr(float(rep.decay_bucket_mass[k]))])
    out = {"a_flat": rep.as_dict()}
    if cov.size <= 64:
        out["gab_domination_violation"] = gab_domination_check(
            ctx.family, ctx.family, cov, ctx.grid, z_per_cell=ctx.z_per_cell,
            seed=ctx.seed, rel_cut=ctx.rel_cut)
    return out


def task_norms(ctx: _Context) -> dict:
    # the atoms, S and the Gramian factors that am_norm resolves first run
    # on the pool (cached when frame-info built them)
    R = gram_kernel(ctx.family, ctx.grid, rel_cut=ctx.rel_cut,
                    threads=ctx.threads)
    return {"gramian": am_norm(R, ctx.m, ctx.grid, threads=ctx.threads).as_dict()}


def task_sequence_spaces(ctx: _Context) -> dict:
    """Closed-form check of the covering sequence norms plus the
    neighbor-sum bound, on seeded random sequences."""
    from .sequence_spaces import (SeqSpaceSpec, closed_form_norm, flat_norm,
                                  plus_bound_ratio, plus_theoretical_bound)
    cov = ctx.covering()
    # closed forms are exact on partitions; check them on the partition
    # version of the configured lattice, the neighbor-sum bound on the
    # configured (possibly overlapping) covering
    cc = ctx.cfg.get("covering", {})
    part = build_covering(ctx.grid, cc.get("cell_size"), overlap_fraction=0.0)
    rng = np.random.default_rng(np.random.PCG64(ctx.seed))
    worst_dev = 0.0
    for p in (1, 2, np.inf):
        spec = SeqSpaceSpec(p=p, weight=ctx.w, covering=part, flavor="flat")
        for _ in range(20):
            lam = rng.standard_normal(part.size)
            worst_dev = max(worst_dev, abs(flat_norm(lam, spec) -
                                           closed_form_norm(lam, spec)))
    spec_n = SeqSpaceSpec(p=2, weight=ctx.w, covering=cov, flavor="natural")
    bound = plus_theoretical_bound(spec_n)
    worst_ratio = max(plus_bound_ratio(rng.standard_normal(cov.size), spec_n)
                      for _ in range(100))
    return {"closed_form_max_deviation": worst_dev,
            "plus_operator_max_ratio": worst_ratio,
            "plus_operator_bound": bound}


_TASKS = {
    "frame-info": task_frame_info,
    "property-d": task_property_d,
    "discretize": task_discretize,
    "reconstruct": task_reconstruct,
    "localize": task_localize,
    "norms": task_norms,
    "sequence-spaces": task_sequence_spaces,
}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def run(config_path: str, out_dir: str | None = None, seed: int | None = None,
        threads: int = 1) -> int:
    try:
        raw, cfg = _load(config_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    diags = validate_config(cfg)
    if threads < 1:
        diags.append(f"threads must be >= 1, got {threads}")
    if seed is not None and seed < 0:
        diags.append(f"seed must be >= 0, got {seed}")
    if diags:
        for d in diags:
            print(f"invalid config: {d}", file=sys.stderr)
        return 2
    out = Path(out_dir or cfg.get("output", "coorbit_out"))
    out.mkdir(parents=True, exist_ok=True)
    seed = int(cfg.get("seed", 0) if seed is None else seed)

    report = {
        "tool": {"name": "coorbit", "version": __version__},
        "config_echo": raw,
        "seed": seed,
        "tasks": {},
    }
    # wall times and the thread count are not load-bearing and live in a
    # sibling file, keeping report.json bit-identical across reruns and
    # across thread counts
    timings = {"threads": int(threads)}
    try:
        with _one_blas_thread():
            ctx = _Context(cfg, seed, out, threads)
            for name in cfg["tasks"]:
                t0 = time.perf_counter()
                report["tasks"][name] = _TASKS[name](ctx)
                timings[name] = time.perf_counter() - t0
        _assert_finite(report["tasks"])
    except (FamilyError, CoveringError, OscillationError, DiscretizationError,
            SolverError, ValueError) as exc:
        print(f"numerical failure in task pipeline: {exc}", file=sys.stderr)
        return 3

    (out / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=1, default=_json_default))
    (out / "timings.json").write_text(
        json.dumps(timings, sort_keys=True, indent=1))
    return 0


def _bundled_openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS
    (scipy-openblas), or None for a numpy built on another BLAS."""
    import ctypes

    libs = (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob(
        "*openblas*")
    for path in sorted(libs):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread, and
    restore its thread count after.  A GEMM's rounding depends on how many
    BLAS threads split it, so one thread keeps report bytes independent of
    the environment (`OPENBLAS_NUM_THREADS`); the engine's parallelism is
    `threads` alone.  Another BLAS (`_bundled_openblas` is None) is left
    alone."""
    blas = _bundled_openblas()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _assert_finite(node):
    if isinstance(node, dict):
        for v in node.values():
            _assert_finite(v)
    elif isinstance(node, (list, tuple)):
        for v in node:
            _assert_finite(v)
    elif isinstance(node, (float, np.floating)):
        if not np.isfinite(node):
            raise SolverError("non-finite value in report")


def validate(config_path: str) -> int:
    try:
        _, cfg = _load(config_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    diags = validate_config(cfg)
    for d in diags:
        print(d)
    return 2 if diags else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="coorbit",
                                     description="continuous-frame discretization engine")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a pipeline configuration")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--threads", type=int, default=_usable_cores())
    p_val = sub.add_parser("validate", help="check a configuration file")
    p_val.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, out_dir=args.out, seed=args.seed,
                   threads=args.threads)
    return validate(args.config)


if __name__ == "__main__":
    raise SystemExit(main())
