"""The three surflab benchmark workloads.

Every workload runs through the public library API.  ``setup`` builds the
circuits (and, for memory circuits, the detector error model and decoding
graph) once.  The run then repeats fixed-size *passes* until its time is up.
A pass goes through four steps, and only ``run_pass`` is timed:

* ``inputs(i)`` makes pass ``i``'s inputs from the run seed;
* ``run_pass`` is the end-user pipeline, with a span around each library call;
  it may call ``pause()`` between steps, and the time spent in ``pause``
  is not counted as the pass's;
* ``digest`` reduces the pass output to the small records the checks need,
  so that memory use does not grow with the number of passes;
* ``verify`` checks one operation and returns its failure reasons.

An operation is one memory point (basis, cycles) or one XEB seed.  An
operation fails if it raises or if any of its checks fails.  The statistical
checks compare against ``reference.json``, which ``make_reference.py``
records with many more shots.  They use bands, not digests, so that a sampler
that draws a different random stream still passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import surflab as sl
from surflab import matching
from surflab.decoder import build_decoding_graph

Z_MAX = 5.0  # statistical checks accept |z| <= 5
ORACLE_PER_COUNT = 2  # decode is checked against match_single on this many shots per fired count 1..DP_CAP
C5_BAND = (0.25, 0.50)  # mid-round detection fraction, acceptance criterion C5
C10_RATIO_MIN = 0.5  # lower edge of C10's noisy/predicted XEB fidelity band [0.5, 2]
FIRED_BUCKETS = (("0", 0, 0), ("1-4", 1, 4), ("5-8", 5, 8), ("9-12", 9, 12),
                 ("13-16", 13, 16), ("17-20", 17, 20), ("21up", 21, 10**9))


def derive_seed(*key: int) -> int:
    """Seed of one input stream, fixed by the run seed and the stream's position."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0] >> np.uint64(1))


@dataclass
class Op:
    label: str
    error: str | None = None
    check: dict = field(default_factory=dict)  # what verify reads
    count: dict = field(default_factory=dict)  # deterministic counters
    failures: list[str] = field(default_factory=list)


def z_score(x: float, ref: float, var: float) -> float:
    return abs(x - ref) / math.sqrt(var) if var > 0 else (0.0 if x == ref else math.inf)


def binomial_z(errors: int, n: int, ref: dict) -> float:
    """z of an error count against a reference rate measured on ref['n'] shots."""
    p = ref["p"]
    return z_score(errors / n, p, p * (1 - p) * (1 / n + 1 / ref["n"]))


# ---------------------------------------------------------------------------
# memory circuits


@dataclass
class Point:
    basis: str
    cycles: int
    noisy: sl.Circuit
    meta: sl.MemoryMeta
    graph: sl.DecodingGraph

    @property
    def label(self) -> str:
        return f"{self.basis}{self.cycles}"


def build_points(specs, tr) -> list[Point]:
    with tr.span("build"):
        layout = sl.Layout.build(3)
        cal = sl.Calibration.load()
        built = []
        for basis, cycles in specs:
            circ, meta = sl.memory_circuit(layout, basis, cycles)
            built.append((basis, cycles, sl.attach_noise(circ, cal), meta))
    points = []
    for basis, cycles, noisy, meta in built:
        with tr.span("dem", point=f"{basis}{cycles}"):
            dem, dset = sl.build_dem(noisy, meta)
        with tr.span("graph", point=f"{basis}{cycles}"):
            graph = build_decoding_graph(dem, dset)
        points.append(Point(basis, cycles, noisy, meta, graph))
    return points


def circuit_counters(circuits) -> dict:
    return {
        "build.instructions": sum(len(c.instructions) for c in circuits),
        "build.noise_channels": sum(ins.is_noise for c in circuits for ins in c.instructions),
    }


def dem_counters(points: list[Point]) -> dict:
    dems = [p.graph.dem for p in points]
    return {
        "dem.components": sum(d.diagnostics["n_components"] for d in dems),
        "dem.edges": sum(len(d.edges) for d in dems),
        "dem.logical_conflicts": sum(len(d.diagnostics["logical_conflicts"]) for d in dems),
        "dem.dropped_wide": sum(len(d.diagnostics["dropped_wide_signatures"]) for d in dems),
    }


def no_pause() -> None:
    pass


def decode_point(p: Point, rec: np.ndarray, tr, cuts=(), pause=no_pause) -> dict:
    """detection events -> decode -> logical errors and post-selection.

    The shots are decoded in consecutive batches that start at the rows
    ``cuts``, with ``pause()`` called between batches.
    """
    with tr.span("detect"):
        events = sl.detection_events(rec, p.graph.dset)
    parts = []
    for b, part in enumerate(np.split(events, cuts)):
        if b:
            pause()
        with tr.span("decode"):
            parts.append(sl.decode(p.graph, part))
    corr = np.concatenate(parts)
    with tr.span("analysis"):
        raw = sl.logical_errors(rec, p.meta)
        dec = sl.logical_errors(rec, p.meta, corr)
        masks = sl.post_selection_masks(events, p.graph.dset)
    return {"events": events, "corr": corr, "raw": raw, "dec": dec, "masks": masks}


def oracle_rows(events: np.ndarray, fired: np.ndarray, graph: sl.DecodingGraph,
                tail_top: int, tail_spread: int) -> tuple[np.ndarray, np.ndarray]:
    """Shots whose decode the checks recompute with an exact matcher.

    Small syndromes (the decoder's batched DP): the first ``ORACLE_PER_COUNT``
    shots of each fired count 1..DP_CAP.  Tail syndromes (more than DP_CAP
    fired, the decoder's cluster path): the ``tail_top`` shots with the
    largest clusters, then ``tail_spread`` spaced evenly over the rest.
    """
    small = np.array([r for m in range(1, matching.DP_CAP + 1)
                      for r in np.nonzero(fired == m)[0][:ORACLE_PER_COUNT]], dtype=np.int64)
    tail = np.nonzero(fired > matching.DP_CAP)[0]
    if len(tail):
        by_size = tail[np.argsort(-cluster_sizes(events[tail], graph), kind="stable")]
        rest = np.sort(by_size[tail_top:])
        spread = rest[np.unique(np.linspace(0, len(rest) - 1, tail_spread).astype(int))] if len(rest) else rest
        tail = np.concatenate([by_size[:tail_top], spread])
    return small, tail


def digest_point(p: Point, out: dict, tail_top: int, tail_spread: int) -> Op:
    events, corr = out["events"], out["corr"]
    fired = events.sum(axis=1)
    n = len(events)
    g = p.graph
    small, tail = oracle_rows(events, fired, g, tail_top, tail_spread)
    # (fired, decode's correction, exact matcher's parity): match_single is the
    # subset DP; the blossom matching on the whole syndrome shares no code
    # with the decoder's cluster split
    oracle = []
    for rows, exact in ((small, matching.match_single), (tail, matching._match_blossom)):
        for r in rows:
            f = np.nonzero(events[r])[0]
            _, parity = exact(g.w[np.ix_(f, f)], g.wb[f], g.parity[np.ix_(f, f)], g.parity_b[f])
            oracle.append((int(fired[r]), int(corr[r]), parity))
    masks = out["masks"]
    diag = g.dem.diagnostics
    hist = np.bincount(fired)
    return Op(
        label=p.label,
        check={
            "n": n,
            "raw_errors": int(out["raw"].sum()),
            "dec_errors": int(out["dec"].sum()),
            "masks_ok": bool(masks["none"].all()
                             and (masks["both"] == (masks["data_only"] & masks["ancilla_only"])).all()),
            "oracle": oracle,
            "oracle_tail": len(tail),
            "tail": int((fired > matching.DP_CAP).sum()),
            "logical_conflicts": len(diag["logical_conflicts"]),
            "dropped_wide": len(diag["dropped_wide_signatures"]),
            "eps": out.get("eps"),
        },
        count={
            "shots": n,
            "measurements": n * p.meta.n_measurements,
            "fired_hist": hist.tolist(),
            "tail": int((fired > matching.DP_CAP).sum()),
            "unique": len(np.unique(np.packbits(events, axis=1), axis=0)),
        },
    )


def verify_point(op: Op, ref: dict | None) -> list[str]:
    c = op.check
    bad = []
    if c["logical_conflicts"] or c["dropped_wide"]:
        bad.append(f"DEM has {c['logical_conflicts']} logical conflicts, {c['dropped_wide']} dropped wide signatures")
    mism = [(m, got, want) for m, got, want in c["oracle"] if got != want]
    if mism:
        bad.append(f"decode differs from an exact matching on {len(mism)}/{len(c['oracle'])} shots "
                   f"(fired, got, want): {mism[:3]}")
    if not c["oracle"]:
        bad.append("no shot for the exact-matching comparison")
    if c["tail"] and not c["oracle_tail"]:
        bad.append(f"{c['tail']} tail shots but none compared with an exact matching")
    if not c["masks_ok"]:
        bad.append("post-selection 'both' is not 'data_only' and 'ancilla_only'")
    if "eps" in c and c["eps"] is not None and not math.isfinite(c["eps"]):
        bad.append(f"fit eps {c['eps']} is not finite")
    if ref is not None:
        for key in ("raw", "dec"):
            z = binomial_z(c[f"{key}_errors"], c["n"], ref[key])
            if z > Z_MAX:
                bad.append(f"{key} logical error {c[key + '_errors'] / c['n']:.4f} vs reference "
                           f"{ref[key]['p']:.4f}: z = {z:.1f}")
    return bad


def memory_pass_counters(ops: list[Op], sampled: bool) -> dict:
    shots = sum(op.count["shots"] for op in ops)
    width = max(len(op.count["fired_hist"]) for op in ops)
    hist = np.zeros(width, dtype=np.int64)
    for op in ops:
        hist[: len(op.count["fired_hist"])] += op.count["fired_hist"]
    m = np.arange(width)
    out = {
        "detect.fired_mean": float((hist * m).sum() / shots),
        "decode.tail_share": sum(op.count["tail"] for op in ops) / shots,
        "decode.unique_share": sum(op.count["unique"] for op in ops) / shots,
        "decode.fired_max": int(m[hist > 0].max()),
        "fired_hist": hist.tolist(),
        "decode.shots": shots,
        "sample.shots": shots if sampled else 0,
        "sample.measurements": sum(op.count["measurements"] for op in ops) if sampled else 0,
    }
    for name, lo, hi in FIRED_BUCKETS:
        out[f"decode.fired_hist.{name}"] = float(hist[lo : hi + 1].sum() / shots)
    return out


class MemoryWorkload:
    """Set-up and checks shared by the workloads on memory circuits."""

    specs: list[tuple[str, int]]
    # tail shots per point compared with an exact matching: those with the
    # largest clusters, then ones spread evenly over the rest of the tail
    oracle_tail = (8, 8)

    def setup(self, tr) -> None:
        self.points = build_points(self.specs, tr)

    def setup_counters(self) -> dict:
        return {**circuit_counters([p.noisy for p in self.points]), **dem_counters(self.points)}

    def verify(self, op: Op) -> list[str]:
        return verify_point(op, self.ref["points"][op.label] if self.ref else None)

    def verify_run(self, ops: list[Op]) -> list[str]:
        return []


class MemoryCurve(MemoryWorkload):
    """Z and X memory at 1-5 cycles, full decode, then the decay fit per basis."""

    name = "memory-curve"
    specs = [(b, k) for b in "ZX" for k in range(1, 6)]

    def __init__(self, seed: int, ref: dict | None, shots: int = 2048):
        self.seed, self.ref, self.shots = seed, ref, shots
        self.shots_per_pass = shots * len(self.specs)

    def inputs(self, i: int):
        return [derive_seed(self.seed, i, j) for j in range(len(self.specs))]

    def run_pass(self, seeds, tr, pause=no_pause) -> list:
        outs = []
        for j, (p, s) in enumerate(zip(self.points, seeds)):
            if j:
                pause()
            with tr.span("point", point=p.label):
                try:
                    with tr.span("sample"):
                        rec = sl.run(p.noisy, self.shots, seed=s).records
                    outs.append(decode_point(p, rec, tr))
                except Exception as exc:  # one failed point must not stop the run
                    outs.append(exc)
        for basis in "ZX":
            idx = [j for j, p in enumerate(self.points) if p.basis == basis]
            try:
                with tr.span("analysis"):
                    ks = [self.points[j].cycles for j in idx]
                    fids = [1.0 - float(outs[j]["dec"].mean()) for j in idx]
                    fit = sl.fit_memory_curve(ks, fids)
                    sl.lifetime_us(fit.eps)
                for j in idx:
                    outs[j]["eps"] = fit.eps
            except Exception as exc:
                for j in idx:
                    if not isinstance(outs[j], Exception):
                        outs[j] = exc
        return outs

    def digest(self, seeds, outs) -> list[Op]:
        return [Op(p.label, error=repr(o)) if isinstance(o, Exception) else digest_point(p, o, *self.oracle_tail)
                for p, o in zip(self.points, outs)]

    def pass_counters(self, ops: list[Op]) -> dict:
        return memory_pass_counters(ops, sampled=True)


# ---------------------------------------------------------------------------
# memory-deep: a fixed mix of easy and hard syndromes


def cluster_sizes(events: np.ndarray, graph: sl.DecodingGraph) -> np.ndarray:
    """Largest independent matching subproblem of each shot.

    Two fired detectors can be paired in a minimum-weight matching only if
    pairing them is cheaper than sending both to the boundary.  The fired
    detectors linked by such pairs form independent subproblems; the largest
    one sets how hard a syndrome is to match exactly.
    """
    events = np.asarray(events, dtype=bool)
    shots, d = events.shape
    link = graph.w < graph.wb[:, None] + graph.wb[None, :]
    a, b = np.nonzero(np.triu(link, 1))
    s, e = np.nonzero(events[:, a] & events[:, b])
    u, v = s * d + a[e], s * d + b[e]
    adj = coo_matrix((np.ones(len(u), dtype=np.int8), (u, v)), shape=(shots * d, shots * d))
    _, label = connected_components(adj, directed=False)
    size = np.bincount(label)
    per_node = np.where(events.reshape(-1), size[label], 0).reshape(shots, d)
    return per_node.max(axis=1)


def class_quotas(hist: dict[str, int], shots: int) -> dict[int, int]:
    """Shots per cluster size in a batch of ``shots``, by largest remainder."""
    total = sum(hist.values())
    want = {int(c): shots * n / total for c, n in hist.items()}
    quota = {c: int(w) for c, w in want.items()}
    for c in sorted(want, key=lambda c: (quota[c] - want[c], c))[: shots - sum(quota.values())]:
        quota[c] += 1
    return {c: q for c, q in quota.items() if q}


def stats_check(p: Point, events: np.ndarray, frac: dict, corr: np.ndarray) -> dict:
    """What the detection-statistics checks read (acceptance criterion C5)."""
    dset, meta = p.graph.dset, p.meta
    mid_rounds = range(2, meta.rounds + 1)
    rounds = dset.rounds_of()
    per_det = frac["per_detector"]
    first_below = all(
        per_det[dset.positions[(1, a)]] < np.mean([per_det[dset.positions[(k, a)]] for k in mid_rounds])
        for a in meta.consistent_ancillas()
    )
    per_shot_mid = events[:, (rounds >= 2) & (rounds <= meta.rounds)].mean(axis=1)
    return {
        "mid": float(np.mean([frac["per_round"][k] for k in mid_rounds])),
        "mid_var": float(per_shot_mid.var(ddof=1) / len(per_shot_mid)),
        "first_below": bool(first_below),
        "corr_ok": bool(np.isfinite(corr).all() and np.allclose(corr, corr.T)
                        and not np.diag(corr).any() and np.abs(corr).max() <= 1 + 1e-9),
    }


def verify_stats(c: dict, ref: dict | None) -> list[str]:
    bad = []
    if not C5_BAND[0] <= c["mid"] <= C5_BAND[1]:
        bad.append(f"mid-round detection fraction {c['mid']:.4f} outside {C5_BAND}")
    if not c["first_below"]:
        bad.append("round-1 fraction not below mid-round for every check")
    if not c["corr_ok"]:
        bad.append("correlation matrix is not finite, symmetric, zero-diagonal and within [-1, 1]")
    if ref is not None:
        z = z_score(c["mid"], ref["value"], c["mid_var"] + ref["var"])
        if z > Z_MAX:
            bad.append(f"mid-round fraction {c['mid']:.4f} vs reference {ref['value']:.4f}: z = {z:.1f}")
    return bad


class MemoryDeep(MemoryWorkload):
    """Z memory at 11 cycles on batches with a fixed hardness mix: full decode
    plus the detection-event statistics (detection fraction, correlations).

    Decode time per shot grows as 2**c with the shot's largest cluster size
    c, and a few shots with c = 17..20 take most of the time.  Drawn plainly,
    the number of such shots in a run swings so much that run times spread
    by ~45%.  Each pass therefore takes, from the seed's sample stream, the
    number of shots of each cluster size that a batch of this size has in
    expectation (``cluster_hist`` in the reference), rounded to whole shots.
    Sampling is input generation here and is not timed.

    A pass decodes its shots in batches: first the shots with at most
    ``DP_CAP`` detectors fired, which go to the decoder's batched DP, then
    the others in ``tail_batches`` batches, each holding every
    ``tail_batches``-th of them in order of cluster size.  The tail shots
    are decoded one by one, so splitting them costs nothing, while
    splitting the DP shots would repeat the DP's per-call overhead.  The
    run measures the machine's speed between batches (see ``run.py``).
    """

    name = "memory-deep"
    specs = [("Z", 11)]
    oracle_tail = (32, 32)
    tail_batches = 7
    chunk = 4096
    max_chunks = 64

    def __init__(self, seed: int, ref: dict | None, shots: int = 2048, cluster_hist: dict | None = None):
        self.seed, self.ref, self.shots = seed, ref, shots
        self.quotas = class_quotas(cluster_hist or ref["cluster_hist"], shots)
        self.shots_per_pass = shots

    def inputs(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The pass's records, in decode-batch order, and the rows where batches start."""
        (p,) = self.points
        need = dict(self.quotas)
        picked, sizes = [], []
        for k in range(self.max_chunks):
            rec = sl.run(p.noisy, self.chunk, seed=derive_seed(self.seed, i, k)).records
            size = cluster_sizes(sl.detection_events(rec, p.graph.dset), p.graph)
            for c in list(need):
                rows = np.nonzero(size == c)[0][: need[c]]
                picked.append(rec[rows])
                sizes.append(size[rows])
                need[c] -= len(rows)
                if not need[c]:
                    del need[c]
            if not need:
                rec, size = np.concatenate(picked), np.concatenate(sizes)
                fired = sl.detection_events(rec, p.graph.dset).sum(axis=1)
                tail = np.nonzero(fired > matching.DP_CAP)[0]
                tail = tail[np.argsort(-size[tail], kind="stable")]
                parts = [np.nonzero(fired <= matching.DP_CAP)[0]]
                parts += [tail[b :: self.tail_batches] for b in range(self.tail_batches)]
                return rec[np.concatenate(parts)], np.cumsum([len(x) for x in parts])[:-1]
        raise RuntimeError(f"cluster quotas {need} unfilled after {self.max_chunks * self.chunk} shots")

    def run_pass(self, inp, tr, pause=no_pause) -> list:
        (p,) = self.points
        rec, cuts = inp
        with tr.span("point", point=p.label):
            try:
                out = decode_point(p, rec, tr, cuts, pause)
                with tr.span("stats"):
                    out["frac"] = sl.detection_fraction(out["events"], p.graph.dset)
                    out["corr_matrix"] = sl.correlation_matrix(out["events"])
                return [out]
            except Exception as exc:
                return [exc]

    def digest(self, inp, outs) -> list[Op]:
        (p,), (o,) = self.points, outs
        if isinstance(o, Exception):
            return [Op(p.label, error=repr(o))]
        op = digest_point(p, o, *self.oracle_tail)
        op.check["stats"] = stats_check(p, o["events"], o["frac"], o["corr_matrix"])
        return [op]

    def verify(self, op: Op) -> list[str]:
        return super().verify(op) + verify_stats(op.check["stats"], self.ref["mid"] if self.ref else None)

    def pass_counters(self, ops: list[Op]) -> dict:
        return memory_pass_counters(ops, sampled=False)


# ---------------------------------------------------------------------------
# cross-entropy benchmarking


def xeb_ops(noisy: sl.Circuit) -> int:
    """State updates of one trajectory: gate applications plus quantum noise channels."""
    n = 0
    for ins in noisy.instructions:
        if ins.name in ("IDLE", "MZ", "FLIP"):
            continue
        n += len(ins.qubits) // 2 if ins.name == "CZ" else (1 if ins.is_noise else len(ins.qubits))
    return n


class Xeb:
    """Per seed: ideal probabilities, noisy trajectories, XEB fidelity, prediction.

    The random circuits have ``layers`` single-qubit layers rather than the
    paper's 21.  At 21 layers the noisy fidelity is about 0.04, and the
    trajectories a run can afford cannot tell it from 0.  At 11 layers the
    circuits already scramble (perfect sampling gives F close to 1) and the
    noisy fidelity is about 0.15.  The circuits come from a pool built in
    set-up; pass ``i`` uses circuit ``i % pool`` with its own trajectory
    stream.
    """

    name = "xeb"
    pool = 8
    layers = 11
    samples = 625  # per trajectory
    # trajectories per sample_trajectories call, the library's own batch size,
    # so that splitting a seed's trajectories over calls costs nothing; the
    # run measures the machine's speed between calls (see run.py)
    traj_per_call = 8

    def __init__(self, seed: int, ref: dict | None, trajectories: int = 24, samples: int | None = None,
                 noiseless_samples: int = 20000):
        self.seed, self.ref = seed, ref
        self.trajectories, self.noiseless_samples = trajectories, noiseless_samples
        self.samples = samples or self.samples
        self.shots_per_pass = trajectories * self.samples

    def setup(self, tr) -> None:
        with tr.span("build"):
            layout = sl.Layout.build(3)
            cal = sl.Calibration.load()
            self.circuits = [sl.xeb_circuit(layout, seed=derive_seed(self.seed, 1_000_000, j), n_1q_layers=self.layers)
                             for j in range(self.pool)]
            self.noisy = [sl.attach_noise(sl.with_measurement(c), cal) for c in self.circuits]

    def setup_counters(self) -> dict:
        return circuit_counters(self.noisy)

    def inputs(self, i: int) -> tuple[int, int]:
        return i % self.pool, derive_seed(self.seed, i)

    def run_pass(self, inp, tr, pause=no_pause) -> list:
        j, entropy = inp
        with tr.span("seed", circuit=j):
            try:
                with tr.span("xeb.ideal"):
                    ideal = sl.ideal_probabilities(self.circuits[j])
                parts = []
                for k in range(0, self.trajectories, self.traj_per_call):
                    pause()
                    with tr.span("xeb.traj"):
                        parts.append(sl.sample_trajectories(
                            self.noisy[j], entropy, min(self.traj_per_call, self.trajectories - k), self.samples,
                            key_prefix=(k,)))
                idx = np.concatenate(parts)
                with tr.span("xeb.fidelity"):
                    f, se = sl.xeb_fidelity(ideal, idx)
                    pred = sl.predicted_fidelity(self.noisy[j])
                return [{"ideal": ideal, "idx": idx, "f": f, "pred": pred}]
            except Exception as exc:
                return [exc]

    def digest(self, inp, outs) -> list[Op]:
        j, entropy = inp
        (o,) = outs
        label = f"circuit{j}"
        if isinstance(o, Exception):
            return [Op(label, error=repr(o))]
        ideal = o["ideal"]
        dim = len(ideal)
        # F of perfect sampling; 1 for a fully scrambling circuit
        f_perfect = float(dim * (ideal**2).sum() - 1.0)
        # the trajectory kernel without noise must sample the ideal distribution
        clean = sl.sample_trajectories(sl.with_measurement(self.circuits[j]), entropy, 1, self.noiseless_samples)
        v0 = dim * ideal[clean] - 1.0
        per_traj = (dim * ideal[o["idx"]] - 1.0).reshape(self.trajectories, self.samples).mean(axis=1)
        return [Op(
            label,
            check={
                "f0": float(v0.mean()), "se0": float(v0.std(ddof=1) / math.sqrt(len(v0))), "f_perfect": f_perfect,
                "f": float(per_traj.mean()), "f_reported": o["f"], "pred": o["pred"],
                "f_norm_traj": (per_traj / f_perfect).tolist(),
            },
            count={"xeb.ops": xeb_ops(self.noisy[j])},
        )]

    def verify(self, op: Op) -> list[str]:
        c = op.check
        bad = []
        if z_score(c["f0"], c["f_perfect"], c["se0"] ** 2) > Z_MAX:
            bad.append(f"noiseless fidelity {c['f0']:.4f} +- {c['se0']:.4f} is not that of perfect "
                       f"sampling, {c['f_perfect']:.4f}")
        if not math.isclose(c["f"], c["f_reported"], rel_tol=1e-9, abs_tol=1e-12):
            bad.append(f"xeb_fidelity {c['f_reported']:.6f} differs from the samples' fidelity {c['f']:.6f}")
        if self.ref is not None and not math.isclose(c["pred"], self.ref["predicted"], rel_tol=1e-9):
            bad.append(f"predicted fidelity {c['pred']:.6f} differs from the reference {self.ref['predicted']:.6f}")
        return bad

    def verify_run(self, ops: list[Op]) -> list[str]:
        """Checks on the noisy fidelity pooled over every trajectory of the run.

        One seed's trajectories are too few to resolve it, so it is checked
        once per run; a failure here fails every seed of the run.
        """
        done = [op for op in ops if not op.error]
        vals = np.array([v for op in done for v in op.check["f_norm_traj"]])
        if len(vals) < 2:
            return []
        f = float(vals.mean())
        pred = done[0].check["pred"]
        bad = []
        if f < C10_RATIO_MIN * pred:
            bad.append(f"pooled noisy fidelity {f:.4f} is below {C10_RATIO_MIN} x predicted {pred:.4f} (C10)")
        if self.ref is not None:
            r = self.ref["noisy"]
            z = z_score(f, r["f"], vals.var(ddof=1) / len(vals) + r["traj_var"] / r["trajectories"])
            if z > Z_MAX:
                bad.append(f"pooled noisy fidelity {f:.4f} vs reference {r['f']:.4f}: z = {z:.1f}")
        return bad

    def pass_counters(self, ops: list[Op]) -> dict:
        return {"xeb.ops": sum(op.count["xeb.ops"] for op in ops), "xeb.trajectories": self.trajectories * len(ops)}


WORKLOADS = {w.name: w for w in (MemoryCurve, MemoryDeep, Xeb)}
