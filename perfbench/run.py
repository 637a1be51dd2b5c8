"""coorbit benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload {ladder,reconstruct,catalog}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each pass of the workload is one fresh
child process (perfbench/child.py), and only one child runs at a time.
Passes repeat until `--seconds` have elapsed (at least two, so repeated
same-seed reports can be compared byte for byte), and every metric is the
median over the passes.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` the
per-layer metrics of a separate traced run, the `-X importtime` probe and
the tracing overhead against untraced passes made in the same run.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `failed` counts operations (one
`cli.run` of one configuration) that exited nonzero or failed an output
check.  `correct` is false when the run is not a valid measurement: a child
crashed, a workload did other work than it is defined to do, or the traced
report bytes differ from the untraced ones.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

RUN_DEADLINE_S = 170         # a whole run must end within 180 s
MIN_PASSES = 2
SETUP_PROBES = 2             # import-only children per run, besides the passes
# One BLAS thread: on a shared 2-core machine it spreads wall_s across runs
# less than nproc threads, and BLAS threads x `--threads` stays <= nproc.
BLAS_THREADS = 1

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(root: Path, args: list, deadline: float) -> dict | None:
    """One child pass; its JSON result, or None if it crashed or timed out."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"child timed out after {timeout:.0f} s: {args}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"child exited {proc.returncode}: {args}\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_time(root: Path) -> float:
    """Seconds `import coorbit.cli` takes in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import coorbit.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=child_env(root), capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout)


def import_probe(root: Path) -> dict:
    """Cumulative import times from `python -X importtime -c 'import coorbit.cli'`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import coorbit.cli"], cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=60, check=True)
    cum, total = {}, 0
    pat = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")
    for line in proc.stderr.splitlines():
        m = pat.match(line)
        if not m:
            continue
        us, indent, mod = int(m.group(2)), len(m.group(3)), m.group(4)
        cum[mod] = us
        if indent == 1:                  # top-level entries of the statement
            total += us
    return {"cli.import_s": total / 1e6,
            "frame_families.import_s": cum["coorbit.frame_families"] / 1e6}


def provenance(root: Path, seed: int, threads: int, child: dict | None) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    # outside a git checkout the digest of the sources identifies the code
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    prov = {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": nproc(), "cpu_model": cpu or
            platform.processor(), "python": platform.python_version(),
            "workload_seed": seed, "config_seed": workloads.config_seed(seed),
            "cli_threads": threads}
    if child is not None:
        prov.update(child["provenance"])
    return prov


def median_of(values: list) -> float:
    return float(statistics.median(values))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # on SIGTERM, unwind like an exception so that subprocess.run kills and
    # waits for the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "coorbit" / "cli.py").is_file() or \
            not (root / "configs").is_dir():
        print("run from the root of a coorbit checkout (src/coorbit, configs/)",
              file=sys.stderr)
        return 2
    threads = nproc()
    work = root / ".perfbench_out"
    scratch = work / f"run-{os.getpid()}"
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    try:
        return measure(root, scratch, work, args, threads, start, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(root, scratch, work, args, threads, start, deadline) -> int:
    def child_args(k: int, traced: int) -> list:
        return ["--workload", args.workload, "--seed", str(args.seed),
                "--out", str(scratch / f"pass{k}"), "--threads", str(threads),
                "--trace", str(traced)]

    # the first import compiles bytecode and fills the file cache, which users
    # do not pay on every run: not measured.  Import-only children add
    # set-up samples to those of the passes.
    import_time(root)
    setup = [] if args.trace else [import_time(root) for _ in range(SETUP_PROBES)]
    layers = import_probe(root) if args.trace else {}

    # untraced passes, alternating with traced ones when tracing
    passes, traced = [], []
    crashed = False
    while not crashed:
        enough = len(passes) >= MIN_PASSES and (traced or not args.trace)
        if enough and time.monotonic() - start >= args.seconds:
            break
        k = len(passes) + len(traced)
        tr = int(bool(args.trace) and len(passes) > len(traced))
        res = run_child(root, child_args(k, tr), deadline)
        crashed = res is None
        if res is not None:
            (traced if tr else passes).append(res)
        if res is not None and tr:
            # spans of the latest traced pass stay in .perfbench_out
            shutil.copyfile(scratch / f"pass{k}" / "spans.json",
                            work / f"spans-{args.workload}-seed{args.seed}.json")

    # operations: attempted, failed (output checks, repeat bytes), work done
    attempted = failed = 0
    invalid = []
    first = {}
    for res in passes + traced:
        for op in res["ops"]:
            attempted += 1
            fails = list(op["failures"])
            sha = op.get("sha256")
            if sha is not None and first.setdefault(op["name"], sha) != sha:
                fails.append("report.json differs from the first pass")
            if op.get("work"):
                invalid.append(op["work"])
            if fails:
                failed += 1
                print(f"FAILED {op['name']}: {'; '.join(fails)}")
    if crashed:
        lost = len(workloads.operations(args.workload, args.seed, root / "configs"))
        attempted += lost
        failed += lost
    for why in invalid:
        print(f"INVALID {why}", file=sys.stderr)
    correct = not crashed and not invalid and bool(passes)

    # metric names and units as BENCHMARK.json declares them
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics, samples = {}, {}
    if passes and not args.trace:
        setup += [p["setup_s"] for p in passes]
        for m in spec["end_to_end"]:
            name = m["name"]
            values = setup if name == "setup_s" else [p[name] for p in passes]
            metrics[name] = {"value": median_of(values), "unit": m["unit"]}
            samples[name] = len(values)
    if passes and traced:
        for name in traced[0]["layers"]:
            layers[name] = median_of([t["layers"][name] for t in traced])
        layers["trace.overhead_s"] = (median_of([t["wall_s"] for t in traced]) -
                                      median_of([p["wall_s"] for p in passes]))
        match = all(op.get("sha256") == first.get(op["name"])
                    for t in traced for op in t["ops"])
        layers["cli.report_bytes_match"] = int(match)
        correct = correct and match
        for m in spec["per_layer"]:
            name = m["name"]
            metrics[name] = {"value": layers[name], "unit": m["unit"]}
            samples[name] = 1 if name.endswith("import_s") else len(traced)

    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:45s} {m['value']:.6g} {m['unit']} "
              f"(n={samples[name]})")
    print(json.dumps({"provenance": provenance(root, args.seed, threads,
                                               passes[0] if passes else None),
                      "passes": len(passes), "traced_passes": len(traced),
                      "samples": samples,
                      "fail_frac": failed / attempted}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
