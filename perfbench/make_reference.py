"""Record the reference values that the benchmark's statistical checks use.

    python3 perfbench/make_reference.py            # writes perfbench/reference.json

Each workload runs many passes of its own pipeline on a seed that the timed
runs do not use, and the pooled results become the centre of each check's
band.  This takes several minutes.  Run it again only when the physics is
meant to change, not to make a failing check pass.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import surflab as sl  # noqa: E402
from tracing import NULL  # noqa: E402
from workloads import MemoryCurve, MemoryDeep, Xeb, build_points, cluster_sizes, derive_seed  # noqa: E402

REF_SEED = 20261017
PASSES = {"memory-curve": 32, "memory-deep": 8, "xeb": 32}
CLUSTER_SHOTS = 32 * 4096  # shots sampled to fix memory-deep's cluster-size mix


def run_passes(w, n: int) -> list:
    w.setup(NULL)
    ops = []
    for i in range(n):
        inp = w.inputs(i)
        pass_ops = w.digest(inp, w.run_pass(inp, NULL))
        for op in pass_ops:
            if op.error or w.verify(op):
                raise RuntimeError(f"{w.name} pass {i} {op.label}: {op.error or w.verify(op)}")
        ops.extend(pass_ops)
    bad = w.verify_run(ops)
    if bad:
        raise RuntimeError(f"{w.name}: {bad}")
    return ops


def memory_ref(ops) -> dict:
    points = {}
    for op in ops:
        pt = points.setdefault(op.label, {"n": 0, "raw": 0, "dec": 0})
        pt["n"] += op.check["n"]
        pt["raw"] += op.check["raw_errors"]
        pt["dec"] += op.check["dec_errors"]
    return {lab: {k: {"p": pt[k] / pt["n"], "n": pt["n"]} for k in ("raw", "dec")} for lab, pt in points.items()}


def cluster_hist(seed: int) -> dict:
    (p,) = build_points(MemoryDeep.specs, NULL)
    counts: dict[int, int] = {}
    for k in range(CLUSTER_SHOTS // MemoryDeep.chunk):
        rec = sl.run(p.noisy, MemoryDeep.chunk, seed=derive_seed(seed, 1_000_000 + k)).records
        for c, n in zip(*np.unique(cluster_sizes(sl.detection_events(rec, p.graph.dset), p.graph),
                                   return_counts=True)):
            counts[int(c)] = counts.get(int(c), 0) + int(n)
    return {str(c): counts[c] for c in sorted(counts)}


def main() -> int:
    t0 = time.perf_counter()
    ref = {}
    ref["memory-curve"] = {"points": memory_ref(run_passes(MemoryCurve(REF_SEED, None), PASSES["memory-curve"]))}
    print(f"memory-curve done, {time.perf_counter() - t0:.0f} s", flush=True)

    hist = cluster_hist(REF_SEED)
    deep = run_passes(MemoryDeep(REF_SEED, None, cluster_hist=hist), PASSES["memory-deep"])
    stats = [op.check["stats"] for op in deep]
    ref["memory-deep"] = {
        "cluster_hist": hist,
        "points": memory_ref(deep),
        "mid": {"value": float(np.mean([c["mid"] for c in stats])),
                "var": sum(c["mid_var"] for c in stats) / len(stats) ** 2},
    }
    print(f"memory-deep done, {time.perf_counter() - t0:.0f} s", flush=True)

    ops = run_passes(Xeb(REF_SEED, None), PASSES["xeb"])
    f = np.array([v for op in ops for v in op.check["f_norm_traj"]])
    pred = ops[0].check["pred"]
    ratio = float(f.mean()) / pred
    if not 0.5 <= ratio <= 2.0:
        raise RuntimeError(f"noisy/predicted XEB fidelity {ratio:.2f} outside C10's [0.5, 2]")
    ref["xeb"] = {"noisy": {"f": float(f.mean()), "traj_var": float(f.var(ddof=1)), "trajectories": len(f)},
                  "predicted": pred, "ratio": ratio, "layers": Xeb.layers}
    print(f"xeb done, ratio {ratio:.2f}, {time.perf_counter() - t0:.0f} s", flush=True)

    for name in ref:
        ref[name]["seed"] = REF_SEED
        ref[name]["passes"] = PASSES[name]
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
