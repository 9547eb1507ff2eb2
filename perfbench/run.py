"""Run one surflab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload memory-curve --seed 1 --seconds 25 --trace 0

The workload runs in this process alone, single-threaded, with the library
imported from ``src/`` of the checkout.  Passes repeat until their measured
time reaches ``--seconds``.  Set-up runs ``SETUP_REPEATS`` times, spread
evenly over that time, so that set-up and passes see the same machine
conditions.  Each pass's outputs are checked after its timed region.
Human-readable lines come first; the last line of standard output is the
result as one JSON object.  A fuller record goes to ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics (see ``BENCHMARK.json``):

* ``setup_s``: the median time of ``import surflab`` (in this process and
  in ``SETUP_REPEATS - 1`` fresh ones) plus the median set-up (circuits,
  noise, detector error models and decoding graphs);
* ``wall_s``: ``setup_s`` plus the median pass, the time a fresh process
  takes to one pass's answer;
* ``shots_per_s``: shots per median pass (for ``xeb``, noisy samples);
* ``peak_rss_mb``: peak resident memory of the process.

The timed values above are scaled to a fixed machine speed.  On the
2-vCPU VM the benchmark was written on, each vCPU's speed swings by up to
~1.6x, independently of the other, over seconds to minutes, in CPU time as
much as in wall time; medians within one run cannot average that out.  So
the process pins itself to one CPU, and a fixed probe that uses no surflab
code (``probe``: Python loops and numpy array work of the kinds the
workloads do) is timed before and after every set-up and every pass, and
between a pass's steps wherever the pass calls ``pause``.  Each timed
stretch is multiplied by ``PROBE_REF_S`` over the mean of the probes just
before and after it: a stretch during which the CPU ran slow is scaled
down by as much as the probe slowed.  The unscaled values and every probe
time are kept in the full record.

``--trace 1`` runs every set-up and pass twice, once plain and once inside
spans, and reports per-layer self times and counters.  ``trace.overhead_s``
is the traced ``wall_s`` minus the plain one.  Per-layer times are not
scaled.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

from tracing import NULL, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

PROBE_REF_S = 0.032  # median probe time on the machine the benchmark was written on

IMPORT_S = None  # this process's own import of surflab, timed by import_library
IMPORT_CODE = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import surflab; " \
    "print(time.perf_counter() - t)"

# span name -> per-layer metric; set-up layers are reported per set-up, the others per pass
SETUP_LAYERS = {"build": "build.s", "dem": "dem.s", "graph": "graph.s"}
PASS_LAYERS = {"sample": "sample.s", "detect": "detect.s", "stats": "stats.s", "decode": "decode.s",
               "analysis": "analysis.s", "xeb.ideal": "xeb.ideal_s", "xeb.traj": "xeb.traj_s",
               "xeb.fidelity": "xeb.fidelity_s"}
CONTAINERS = ("setup", "pass", "point", "seed")  # the benchmark's own spans, counted in other.s
PER_LAYER = {
    "import.s": "s", "build.s": "s", "build.instructions": "count", "build.noise_channels": "count",
    "dem.s": "s", "graph.s": "s", "dem.components": "count", "dem.edges": "count",
    "dem.logical_conflicts": "count", "dem.dropped_wide": "count",
    "sample.s": "s", "sample.kshot_per_s": "kshot/s", "sample.measurements": "bit",
    "detect.s": "s", "detect.fired_mean": "count", "stats.s": "s",
    "decode.s": "s", "decode.kshot_per_s": "kshot/s", "decode.tail_share": "fraction",
    "decode.unique_share": "fraction", "decode.fired_max": "count",
    "decode.fired_hist.0": "fraction", "decode.fired_hist.1-4": "fraction", "decode.fired_hist.5-8": "fraction",
    "decode.fired_hist.9-12": "fraction", "decode.fired_hist.13-16": "fraction",
    "decode.fired_hist.17-20": "fraction", "decode.fired_hist.21up": "fraction",
    "analysis.s": "s", "xeb.ideal_s": "s", "xeb.traj_s": "s", "xeb.traj_per_s": "1/s", "xeb.fidelity_s": "s",
    "xeb.ops": "count", "other.s": "s", "trace.overhead_s": "s",
}


def median(xs):
    return statistics.median(xs)


def mean(xs):
    return sum(xs) / len(xs)


@lru_cache(maxsize=None)
def probe_data():
    import numpy as np  # after import_library has capped the threads

    rng = np.random.default_rng(0)
    table = np.zeros(1 << 19)  # 4 MB, as the decoder's subset-DP table for 19 detectors
    keys = [int(k) for k in rng.integers(0, 1 << 19, 24_000)]
    state = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
    gate = np.array([[0, 1], [1, 0]], dtype=complex)
    big = rng.random(1 << 20)  # 8 MB, beyond the per-core cache
    gather = rng.integers(0, 1 << 20, 1 << 18)
    return np, table, keys, state, gate, big, gather


def probe() -> float:
    """Time of a fixed piece of work that uses no surflab code.

    Four parts of about equal time, one for each kind of work the
    workloads do: a pure-Python integer loop, numpy scalar reads from a
    large table in a Python loop (the decoder's subset DP), 2x2 gates on a
    complex vector (the statevector kernel), and a gather from an array
    larger than the cache (the samplers and the batched DP).  The arrays
    are read once before the clock starts, so that the probe does not time
    how much of them the work before it left in the cache.
    """
    np, table, keys, state, gate, big, gather = probe_data()
    table.sum(), state.sum(), big.sum(), gather.sum()
    t = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i & 7
    x = 0.0
    for k in keys:
        x += table[k] + table[k ^ 1]
    psi = state
    for q in range(1, 16, 2):
        psi = np.matmul(gate, psi.reshape(1 << q, 2, -1)).reshape(-1)
    for _ in range(6):
        big[gather].sum()
    return time.perf_counter() - t


def time_import() -> float:
    """``import surflab`` timed in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")], capture_output=True,
                         text=True, check=True)
    return float(out.stdout)


def measure(w, seconds: float, trace: bool, tamper=None) -> dict:
    """Set up ``w`` and run passes for ``seconds`` of measured time.

    ``tamper(inputs, outputs)``, if given, alters each pass's outputs before
    they are checked; the benchmark's own test uses it.
    """
    tr = Tracer() if trace else None
    # a traced run does every set-up and pass twice, plain and traced, in
    # alternating order so that neither side always runs on warm caches;
    # each side is (tracer, set-up times, pass times)
    sides = [(NULL, [], []), (tr, [], [])] if trace else [(NULL, [], [])]
    imports = [IMPORT_S]
    probes = [probe()]
    # plain set-up and import times, each scaled by the probes just before and after it
    scaled_setups, scaled_imports = [], []

    def setup(r: int) -> None:
        before = probes[-1]
        for side, setups, _ in (sides if r % 2 == 0 else sides[::-1]):
            with side.span("setup"):
                t = time.perf_counter()
                w.setup(side)
                setups.append(time.perf_counter() - t)
        if r:
            imports.append(time_import())
        probes.append(probe())
        k = 2 * PROBE_REF_S / (before + probes[-1])
        scaled_setups.append(sides[0][1][-1] * k)
        scaled_imports.append(imports[-1] * k)

    setup(0)
    # each plain pass as its segments between probes: (time, index of the probe before it)
    segments: list[list[tuple[float, int]]] = []
    seg_start = [0.0]
    no_pause = lambda: None  # noqa: E731

    def pause() -> None:
        segments[-1].append((time.perf_counter() - seg_start[0], len(probes) - 1))
        probes.append(probe())
        seg_start[0] = time.perf_counter()

    # every counter starts at 0, so a layer the workload does not reach reports 0
    counters = {k: 0 for k, u in PER_LAYER.items() if u != "s" and "per_s" not in k}
    counters.update(w.setup_counters())
    ops = []
    measured, i, n_setup = 0.0, 0, 1
    while i == 0 or measured < seconds:
        if n_setup < SETUP_REPEATS and measured >= seconds * n_setup / SETUP_REPEATS:
            setup(n_setup)
            n_setup += 1
        inp = w.inputs(i)
        for side, _, passes in (sides if i % 2 == 0 else sides[::-1]):
            outs = None
            plain = side is NULL
            if plain:
                segments.append([])
            with side.span("pass", index=i):
                t = seg_start[0] = time.perf_counter()
                # only the plain side probes, so that probes stay out of the spans
                outs = w.run_pass(inp, side, pause if plain else no_pause)
                end = time.perf_counter()
            if plain:
                segments[-1].append((end - seg_start[0], len(probes) - 1))
                passes.append(sum(d for d, _ in segments[-1]))
            else:
                passes.append(end - t)
            measured += passes[-1]
        probes.append(probe())
        if tamper is not None:
            tamper(inp, outs)
        pass_ops = w.digest(inp, outs)
        del outs
        for op in pass_ops:
            op.failures = [op.error] if op.error else w.verify(op)
        if i == 0 and all(op.count for op in pass_ops):
            counters.update(w.pass_counters(pass_ops))
        ops.extend(pass_ops)
        i += 1
    for why in w.verify_run(ops):
        for op in ops:
            op.failures.append(why)
    _, setups, passes = sides[0]
    res = {
        "import_s": imports,
        "setups": setups,
        "passes": passes,
        "probes": probes,
        "segments": segments,
        "speed_scale": PROBE_REF_S / median(probes),
        # each segment scaled by the mean of the probes just before and after it
        "passes_scaled": [sum(d * 2 * PROBE_REF_S / (probes[k] + probes[k + 1]) for d, k in segs)
                          for segs in segments],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [{"label": op.label, "failures": op.failures, "check": op.check} for op in ops],
        "counters": counters,
    }
    res["setup_s"] = median(imports) + median(setups)
    res["wall_s"] = res["setup_s"] + median(passes)
    res["scaled"] = {"setup_s": median(scaled_imports) + median(scaled_setups), "pass_s": median(res["passes_scaled"])}
    if trace:
        res.update(layer_metrics(*sides[1], median(imports), res))
    return res


def layer_metrics(tr, setups_tr, passes_tr, import_s: float, plain: dict) -> dict:
    """Per-layer self times (per set-up or per pass) and the derived rates."""
    in_setup = tr.self_times("setup")
    in_pass = tr.self_times("pass")
    n_set, n_pass = len(setups_tr), len(passes_tr)
    lay = {m: in_setup.get(k, 0.0) / n_set for k, m in SETUP_LAYERS.items()}
    lay.update({m: in_pass.get(k, 0.0) / n_pass for k, m in PASS_LAYERS.items()})
    c = plain["counters"]

    def rate(count, secs):
        return count / secs if secs > 0 else 0.0

    traced_wall = import_s + median(setups_tr) + median(passes_tr)
    return {
        "layers": {
            "import.s": import_s,
            **lay,
            "sample.kshot_per_s": rate(c.get("sample.shots", 0) / 1000, lay["sample.s"]),
            "decode.kshot_per_s": rate(c.get("decode.shots", 0) / 1000, lay["decode.s"]),
            "xeb.traj_per_s": rate(c.get("xeb.trajectories", 0), lay["xeb.traj_s"]),
            "other.s": sum(in_setup.get(k, 0.0) for k in CONTAINERS) / n_set
            + sum(in_pass.get(k, 0.0) for k in CONTAINERS) / n_pass,
            "trace.overhead_s": traced_wall - plain["wall_s"],
        },
        "spans": tr.spans,
        "breakdown": breakdown(tr.spans),
    }


def breakdown(spans) -> dict:
    """Mean duration of each memory point or XEB seed span, by its label."""
    groups: dict[str, list[float]] = {}
    for s in spans:
        if s["name"] in ("point", "seed"):
            key = s["attrs"].get("point", f"circuit{s['attrs'].get('circuit')}")
            groups.setdefault(key, []).append(s["end"] - s["start"])
    return {k: mean(v) for k, v in groups.items()}


def machine() -> dict:
    import networkx
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "commit": commit,
    }


def end_to_end(w, res: dict) -> dict:
    """End-to-end metrics, with times scaled to the probe's reference speed."""
    sc = res["scaled"]
    return {
        "wall_s": (sc["setup_s"] + sc["pass_s"], "s"),
        "setup_s": (sc["setup_s"], "s"),
        "shots_per_s": (w.shots_per_pass / sc["pass_s"], "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def import_library() -> None:
    """Pin to one CPU, cap threads, then import surflab from this checkout's ``src/``, timed.

    The two vCPUs of the machine the benchmark was written on swing in
    speed independently of each other.  Pinned, the speed probe and the
    work run on the same CPU, so that the probe sees the speed the work
    saw.
    """
    global IMPORT_S
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "surflab" / "__init__.py").is_file():
        raise SystemExit(f"error: no surflab package under {src}")
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import surflab

    IMPORT_S = time.perf_counter() - t
    if Path(surflab.__file__).resolve().parent != (src / "surflab").resolve():
        raise SystemExit(f"error: surflab imported from {surflab.__file__}, not from {src}")


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("memory-curve", "memory-deep", "xeb"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed, load_reference()[args.workload])
    res = measure(w, args.seconds, bool(args.trace))
    failed = sum(1 for op in res["ops"] if op["failures"])
    attempted = len(res["ops"])
    if args.trace:
        values = {**res["counters"], **res["layers"]}
        metrics = {k: (values[k], u) for k, u in PER_LAYER.items()}
    else:
        metrics = end_to_end(w, res)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **{k: v for k, v in res.items() if k not in ("layers",)},
    }
    if args.workload == "xeb":
        record["trajectories_per_s"] = w.trajectories / res["scaled"]["pass_s"]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(res['passes'])}  "
          f"ops {attempted}  failed {failed}  failed_frac {failed / attempted:.4f}")
    for op in res["ops"]:
        for why in op["failures"]:
            print(f"  FAILED {op['label']}: {why}")
    for k, (v, u) in metrics.items():
        print(f"  {k:26s} {v:14.6g} {u}")
    if "trajectories_per_s" in record:
        print(f"  {'trajectories_per_s':26s} {record['trajectories_per_s']:14.6g} 1/s")
    print(f"  unscaled: wall_s {res['wall_s']:.6g} s, setup_s {res['setup_s']:.6g} s; "
          f"probe median {median(res['probes']):.6g} s, scale {res['speed_scale']:.4f}")
    for k, v in res.get("breakdown", {}).items():
        print(f"  point {k:20s} {v:14.6g} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
