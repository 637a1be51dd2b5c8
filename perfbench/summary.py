"""Print every end-to-end metric of every workload, with unit and sample count.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Run from the root of a checkout.  Runs perfbench/run.py once per workload,
one after the other, and prints one row per metric: the median over the
run's passes with the number of passes, and `fail_frac`, the failed share of
the attempted operations, with the number of operations.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int,
                    default=json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args()
    run_py = Path(__file__).resolve().parent / "run.py"
    print(f"{'workload':12s} {'metric':12s} {'value':>12s} {'unit':9s} samples")
    status = 0
    for wl in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(run_py), "--workload", wl,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"], capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{wl}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        res, info = json.loads(lines[-1]), json.loads(lines[-2])
        for name, m in res["metrics"].items():
            print(f"{wl:12s} {name:12s} {m['value']:12.4f} {m['unit']:9s} "
                  f"{info['samples'][name]} samples")
        print(f"{wl:12s} {'fail_frac':12s} {res['failed'] / res['attempted']:12.4f} "
              f"{'fraction':9s} {res['attempted']} operations"
              f"{'' if res['correct'] else '  (run not valid: correct=false)'}")
        for line in dict.fromkeys(ln for ln in lines if ln.startswith("FAILED")):
            print(f"{'':12s} {line}")
    return status


if __name__ == "__main__":
    sys.exit(main())
