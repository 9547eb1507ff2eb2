"""Detector-error-model construction and the matching-based decoder.

The error model is derived from the noisy circuit itself, not from a
hand-written graph: every stochastic channel is expanded into its Pauli (or
record-flip) components, each component is propagated through the circuit
as a sign-free Pauli frame, and the detection pipeline — which is linear
over GF(2) — converts the resulting record flips into a detector signature
plus a logical flip.  Components with identical signatures merge by
exclusive-or of probabilities, ``p = p1(1-p2) + p2(1-p1)``; signatures
touching more than two detectors are split into known one- and two-detector
edges (most-probable split, consistent logical parity).

Decoding is minimum-weight perfect matching on the complete graph over
fired detectors, with a boundary option per detector; edge weights are
shortest-path distances under ``w = ln((1-p)/p)`` and each path carries the
parity of logical flips along it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .circuit import Circuit
from .detection import DetectorSet, build_detectors, detection_events, logical_readout
from .engines import run
from .surface import MemoryMeta
from . import matching

_P_CLAMP = 0.499999


@dataclass
class DemEdge:
    detectors: tuple[int, ...]  # 1 (boundary) or 2 detector indices
    p: float
    logical: bool

    @property
    def weight(self) -> float:
        p = min(self.p, _P_CLAMP)
        return math.log((1.0 - p) / p)


@dataclass
class DetectorErrorModel:
    n_detectors: int
    edges: list[DemEdge]
    diagnostics: dict = field(default_factory=dict)


@dataclass
class DecodingGraph:
    """All-pairs matching inputs derived from a detector error model."""

    dem: DetectorErrorModel
    dset: DetectorSet
    w: np.ndarray  # (D, D) detector-to-detector path weight
    wb: np.ndarray  # (D,) detector-to-boundary path weight
    parity: np.ndarray  # (D, D) uint8, logical parity along the path
    parity_b: np.ndarray  # (D,) uint8

    @cached_property
    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """Detector pairs a minimum-weight matching may pair."""
        return matching.link_pairs(self.w, self.wb)


# ---------------------------------------------------------------------------
# fault enumeration

_TWO_QUBIT_PAULIS = [
    (pa, pb) for pa in ("I", "X", "Y", "Z") for pb in ("I", "X", "Y", "Z")
][1:]

_PAULI_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def _enumerate_components(circuit: Circuit, ref) -> list[dict]:
    """One entry per elementary fault: where it strikes and how likely."""
    comps: list[dict] = []
    meas_pos: dict[int, int] = {}
    rec_col = 0
    for pos, ins in enumerate(circuit.instructions):
        if ins.name == "MZ":
            for q in ins.qubits:
                meas_pos[q] = rec_col
                rec_col += 1
        elif ins.name == "DEP1":
            for pn in ("X", "Y", "Z"):
                comps.append(
                    {"pos": pos, "p": ins.params[0] / 3, "paulis": [(ins.qubits[0], pn)], "label": f"DEP1:{pn}"}
                )
        elif ins.name == "PAULI":
            for pr, pn in zip(ins.params, ("X", "Y", "Z")):
                if pr > 0.0:
                    comps.append(
                        {"pos": pos, "p": pr, "paulis": [(ins.qubits[0], pn)], "label": f"PAULI:{pn}"}
                    )
        elif ins.name == "DEP2":
            a, b = ins.qubits
            for pa, pb in _TWO_QUBIT_PAULIS:
                paulis = [(a, pa)] if pa != "I" else []
                paulis += [(b, pb)] if pb != "I" else []
                comps.append(
                    {"pos": pos, "p": ins.params[0] / 15, "paulis": paulis, "label": f"DEP2:{pa}{pb}"}
                )
        elif ins.name == "FLIP":
            (q,) = ins.qubits
            p01, p10 = ins.params
            col = meas_pos[q]
            if ref.deterministic[col]:
                p = p01 if ref.records[0, col] == 0 else p10
            else:
                p = 0.5 * (p01 + p10)
            if p > 0.0:
                comps.append({"pos": pos, "p": p, "flip_col": col, "label": "FLIP"})
    return comps


def _propagate_frames(circuit: Circuit, comps: list[dict]) -> np.ndarray:
    """Record flips (n_faults, n_measurements) of each fault component."""
    n = circuit.n_qubits
    nf = len(comps)
    fx = np.zeros((nf, n), dtype=bool)
    fz = np.zeros((nf, n), dtype=bool)
    rec = np.zeros((nf, circuit.n_measurements), dtype=np.uint8)
    by_pos: dict[int, list[int]] = {}
    for i, cmp_ in enumerate(comps):
        by_pos.setdefault(cmp_["pos"], []).append(i)
    col = 0
    for pos, ins in enumerate(circuit.instructions):
        for i in by_pos.get(pos, ()):
            cmp_ = comps[i]
            if "flip_col" in cmp_:
                rec[i, cmp_["flip_col"]] ^= 1
            else:
                for q, pn in cmp_["paulis"]:
                    bx, bz = _PAULI_BITS[pn]
                    fx[i, q] ^= bool(bx)
                    fz[i, q] ^= bool(bz)
        name = ins.name
        if name in ("RY+", "RY-", "H"):
            q = ins.qubits[0]
            fx[:, q], fz[:, q] = fz[:, q].copy(), fx[:, q].copy()
        elif name in ("RX+", "RX-"):
            q = ins.qubits[0]
            fx[:, q] ^= fz[:, q]
        elif name == "CZ":
            a, b = ins.qubits
            fz[:, a] ^= fx[:, b]
            fz[:, b] ^= fx[:, a]
        elif name == "MZ":
            for q in ins.qubits:
                rec[:, col] ^= fx[:, q]
                fz[:, q] = False
                col += 1
        elif name == "RXY":
            raise ValueError("cannot propagate Pauli frames through non-Clifford gates")
        # Pauli gates, IDLE and noise channels leave the frame unchanged
    return rec


# ---------------------------------------------------------------------------
# model assembly


def _xor_p(p1: float, p2: float) -> float:
    return p1 * (1.0 - p2) + p2 * (1.0 - p1)


def build_dem(noisy_circuit: Circuit, meta: MemoryMeta, include: str = "consistent") -> tuple[DetectorErrorModel, DetectorSet]:
    """Derive the detector error model of a noisy memory circuit."""
    dset = build_detectors(meta, include)
    ref = run(noisy_circuit.without_noise(), shots=1, seed=0)
    comps = _enumerate_components(noisy_circuit, ref)
    rec_flips = _propagate_frames(noisy_circuit, comps)
    det_flips = detection_events(rec_flips, dset)
    log_flips = logical_readout(rec_flips, meta)

    # mechanisms merge only when they agree on both detectors and logical
    # action; equal-detector signatures with opposite logical flags are
    # logical conflicts, which build_decoding_graph refuses.
    merged: dict[tuple[tuple[int, ...], bool], float] = {}
    silent_logical = 0.0
    big: list[tuple[tuple[int, ...], float, bool]] = []
    for i in range(len(comps)):
        sig = tuple(np.nonzero(det_flips[i])[0].tolist())
        p = comps[i]["p"]
        lg = bool(log_flips[i])
        if len(sig) == 0:
            if lg:
                silent_logical = _xor_p(silent_logical, p)
            continue
        if len(sig) > 2:
            big.append((sig, p, lg))
            continue
        key = (sig, lg)
        merged[key] = _xor_p(merged.get(key, 0.0), p)
    conflicts = sorted({sig for sig, lg in merged if (sig, not lg) in merged})

    # split wide signatures into known edges
    dropped: list[tuple[tuple[int, ...], float]] = []
    for sig, p, lg in big:
        best_split = None
        best_weight = math.inf
        for split in _partitions(sig):
            options = []
            for block in split:
                opts = [
                    (blg, merged[(block, blg)])
                    for blg in (False, True)
                    if (block, blg) in merged
                ]
                if not opts:
                    break
                options.append(opts)
            else:
                for chosen in itertools.product(*options):
                    split_lg = False
                    weight = 0.0
                    for blg, pb in chosen:
                        split_lg ^= blg
                        pc = min(pb, _P_CLAMP)
                        weight += math.log((1.0 - pc) / pc)
                    if split_lg != lg:
                        continue
                    if weight < best_weight:
                        best_weight = weight
                        best_split = (split, tuple(c[0] for c in chosen))
        if best_split is None:
            dropped.append((sig, p))
            continue
        for block, blg in zip(*best_split):
            key = (block, blg)
            merged[key] = _xor_p(merged[key], p)

    edges = [DemEdge(sig, p, lg) for (sig, lg), p in sorted(merged.items())]
    dem = DetectorErrorModel(
        n_detectors=dset.n_detectors,
        edges=edges,
        diagnostics={
            "n_components": len(comps),
            "logical_conflicts": conflicts,
            "dropped_wide_signatures": dropped,
            "silent_logical_probability": silent_logical,
        },
    )
    return dem, dset


def _partitions(sig: tuple[int, ...]):
    """All partitions of a detector set into blocks of size one or two."""
    if not sig:
        yield ()
        return
    first, rest = sig[0], sig[1:]
    for tail in _partitions(rest):
        yield ((first,),) + tail
    for j, other in enumerate(rest):
        reduced = rest[:j] + rest[j + 1 :]
        for tail in _partitions(reduced):
            yield (tuple(sorted((first, other))),) + tail


# ---------------------------------------------------------------------------
# decoding graph and batch decoding


def _check_dem(dem: DetectorErrorModel) -> None:
    """Refuse a model that a matching graph would misrepresent, naming the
    first offending detector signature."""
    logical: dict[tuple[int, ...], bool] = {}
    for e in dem.edges:
        if logical.setdefault(e.detectors, e.logical) != e.logical:
            raise ValueError(f"detector signature {e.detectors} has mechanisms with both logical actions")
    dropped = dem.diagnostics.get("dropped_wide_signatures")
    if dropped:
        sig, p = dropped[0]
        raise ValueError(f"wide detector signature {sig} (p={p:.3g}) splits into no known edges")
    silent = dem.diagnostics.get("silent_logical_probability", 0.0)
    if silent > 0.0:
        raise ValueError(f"detector signature () flips the logical with probability {silent:.3g}")


def build_decoding_graph(dem: DetectorErrorModel, dset: DetectorSet) -> DecodingGraph:
    _check_dem(dem)
    d = dem.n_detectors
    boundary = d  # virtual node
    rows, cols, vals = [], [], []
    edge_logical: dict[tuple[int, int], bool] = {}
    edge_weight: dict[tuple[int, int], float] = {}
    for e in dem.edges:
        if len(e.detectors) == 1:
            u, v = e.detectors[0], boundary
        else:
            u, v = e.detectors
        key = (min(u, v), max(u, v))
        w = e.weight
        if key not in edge_weight or w < edge_weight[key]:
            edge_weight[key] = w
            edge_logical[key] = e.logical
    for (u, v), w in edge_weight.items():
        rows.append(u)
        cols.append(v)
        vals.append(w)
    graph = coo_matrix((vals, (rows, cols)), shape=(d + 1, d + 1)).tocsr()
    dist, pred = dijkstra(graph, directed=False, return_predecessors=True)
    if not np.isfinite(dist[:d, boundary]).all():
        bad = np.nonzero(~np.isfinite(dist[:d, boundary]))[0]
        raise RuntimeError(f"detectors {bad.tolist()} cannot reach the boundary")

    parity_full = np.zeros((d + 1, d + 1), dtype=np.uint8)
    for i in range(d + 1):
        for j in range(d + 1):
            if i == j or not np.isfinite(dist[i, j]):
                continue
            par = 0
            v = j
            while v != i:
                u = pred[i, v]
                par ^= edge_logical[(min(u, v), max(u, v))]
                v = u
            parity_full[i, j] = par
    return DecodingGraph(
        dem=dem,
        dset=dset,
        w=dist[:d, :d],
        wb=dist[:d, boundary],
        parity=parity_full[:d, :d],
        parity_b=parity_full[:d, boundary],
    )


def build_decoder(noisy_circuit: Circuit, meta: MemoryMeta, include: str = "consistent") -> DecodingGraph:
    """Convenience: detector error model + matching graph in one call."""
    dem, dset = build_dem(noisy_circuit, meta, include)
    return build_decoding_graph(dem, dset)


def decode(graph: DecodingGraph, events: np.ndarray) -> np.ndarray:
    """Logical correction bit for each shot of detection events."""
    return matching.decode_batched(graph.w, graph.wb, graph.parity, graph.parity_b, events, graph.links)
