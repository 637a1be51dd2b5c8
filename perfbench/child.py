"""One pass of one workload in a fresh interpreter.

Run by perfbench/run.py with PYTHONPATH pointing at the checkout's `src`:

    python3 perfbench/child.py --workload NAME --seed N --out DIR
                               --threads N --trace 0|1

Times `import coorbit.cli` (nothing heavy is imported before it), runs every
operation of the workload through `coorbit.cli.run`, checks each report and
prints one JSON object as its last stdout line.
"""
import argparse
import time

_t0 = time.perf_counter()
import coorbit.cli as cli  # noqa: E402  (the import is what setup_s times)
SETUP_S = time.perf_counter() - _t0

import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_operation(name, cfg, out, threads):
    """Run one configuration; returns its operation record and timings.json."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / "config.json"
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
    rec = {"name": name, "failures": []}
    t0 = time.perf_counter()
    try:
        rc = cli.run(str(path), out_dir=str(out), threads=threads)
    except Exception as exc:  # an escaped error is a failed operation
        rc = f"raised {type(exc).__name__}: {exc}"
    rec["wall_s"] = time.perf_counter() - t0
    rec["rc"] = rc
    if rc != 0:
        rec["failures"].append(f"exit code {rc}")
        return rec, {}
    blob = (out / "report.json").read_bytes()
    rec["sha256"] = hashlib.sha256(blob).hexdigest()
    rec["failures"] += workloads.check_report(name, blob)
    rec["work"] = workloads.work_done(name, blob)
    return rec, json.loads((out / "timings.json").read_text())


def layer_metrics(rec: spans.Recorder, wall: float, task_s: dict) -> dict:
    agg = spans.aggregate(rec.spans)
    incl, self_t, calls = agg["incl"], agg["self"], agg["calls"]
    c = rec.counters
    out = {f"cli.task.{t}_s": task_s.get(t, 0.0) for t in cli.KNOWN_TASKS}
    for name in ("oscillation.refine_until", "oscillation.property_D_check",
                 "oscillation.osc_norm_streaming", "kernel_algebra.block",
                 "kernel_algebra.am_norm", "coverings.build_covering",
                 "coverings.build_pu", "coverings.verify_moderate",
                 "frame_families.atoms", "frame_families.analyze_V",
                 "frame_families.frame_bounds_continuous",
                 "frame_families.leakage_report", "discretization.sample_frame",
                 "discretization.uphi_defect_norm",
                 "discretization.atomic_coefficients",
                 "discretization.banach_frame_reconstruct",
                 "discretization.hilbert_frame_bounds", "linalg.psd_factorize",
                 "linalg.power_iteration", "localization.cross_gramian",
                 "localization.a_flat_norm", "localization.gab_domination_check"):
        out[f"{name}_s"] = incl[name]
    for name in ("oscillation.osc_norm_streaming", "kernel_algebra.am_norm"):
        out[f"{name}_self_s"] = self_t[name]
    out["kernel_algebra.block_calls"] = calls["kernel_algebra.block"]
    out["frame_families.u_factor_calls"] = calls["frame_families.u_factor"]
    out["frame_families.gram_kernel_calls"] = calls["frame_families.gram_kernel"]
    out["discretization.build_uphi_calls"] = calls["discretization.build_uphi"]
    out["linalg.psd_factorize_calls"] = calls["linalg.psd_factorize"]
    for name in ("oscillation.levels", "oscillation.cells",
                 "kernel_algebra.block_entries", "kernel_algebra.block_gflop",
                 "coverings.build_covering_cells", "frame_families.atoms_count",
                 "frame_families.u_factor_misses", "discretization.neumann_iters",
                 "linalg.power_iteration_steps"):
        out[name] = c[name]
    out["sequence_spaces.total_s"] = spans.layer_total(rec.spans, "sequence_spaces")
    covered = spans.root_time(rec.spans)
    out["trace.unattributed_s"] = wall - covered
    out["trace.unattributed_frac"] = (wall - covered) / wall
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
    out = Path(args.out)
    configs = Path("configs")
    ops, wall, task_s = [], 0.0, {}
    for k, (name, cfg) in enumerate(workloads.operations(args.workload, args.seed,
                                                         configs)):
        # operations are independent `coorbit run`s: free the reference cycles
        # of the previous one first, so that the peak RSS is that of the
        # largest operation, as in separate processes, and not a matter of
        # when the cyclic collector happens to run
        gc.collect()
        op, timings = run_operation(name, cfg, out / f"{k}_{name}", args.threads)
        ops.append(op)
        wall += op["wall_s"]
        for t in cli.KNOWN_TASKS:
            task_s[t] = task_s.get(t, 0.0) + timings.get(t, 0.0)
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy
    result = {"setup_s": SETUP_S, "wall_s": wall, "peak_rss_mb": maxrss_mb,
              "ops": ops,
              "provenance": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                             "blas": numpy.show_config(mode="dicts")
                             ["Build Dependencies"]["blas"].get("name"),
                             "blas_threads": blas_threads()}}
    if rec is not None:
        result["layers"] = layer_metrics(rec, wall, task_s)
        (out / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"], "spans": rec.spans}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
