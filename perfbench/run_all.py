"""Run every workload, each in a fresh process, and print one table.

    python3 perfbench/run_all.py --seed 1 --seconds 25 [--trace 0|1]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("memory-curve", "memory-deep", "xeb")
XEB_SAMPLES = 625  # workloads.Xeb.samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"{name}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        metrics["failed_frac"] = (result["failed"] / result["attempted"], "fraction")
        if name == "xeb" and "shots_per_s" in metrics:
            # xeb's shots are noisy samples, XEB_SAMPLES to a trajectory
            metrics["trajectories_per_s"] = (metrics["shots_per_s"][0] / XEB_SAMPLES, "1/s")
        rows.append((name, result["attempted"], metrics))
    for name, attempted, metrics in rows:
        print(f"{name}  ({attempted} operations)")
        for k, (v, unit) in metrics.items():
            print(f"  {k:26s} {v:14.6g} {unit}")
    return 0 if all(m["failed_frac"][0] == 0 for _, _, m in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
