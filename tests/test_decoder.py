"""Error-model extraction and the matching graph built from it."""

import math

import numpy as np
import pytest

from surflab import build_detectors, decode, detection_events, memory_circuit
from surflab.decoder import DemEdge, DetectorErrorModel, _xor_p, build_decoder, build_dem, build_decoding_graph

from helpers import run_single_shot, single_fault_variants


@pytest.fixture(scope="module")
def z2(noisy_memory):
    circ, meta = noisy_memory(basis="Z", rounds=2)
    dem, dset = build_dem(circ, meta)
    return circ, meta, dem, dset


def test_edge_weight_is_log_odds():
    e = DemEdge(detectors=(0,), p=0.01, logical=False)
    assert e.weight == pytest.approx(math.log(99.0))
    heavy = DemEdge(detectors=(0,), p=0.5, logical=False)
    assert heavy.weight >= 0.0  # clamped away from zero-probability blowups


def test_xor_p_combines_disjoint_odds():
    assert _xor_p(0.01, 0.01) == pytest.approx(0.0198)
    assert _xor_p(0.0, 0.3) == pytest.approx(0.3)
    # XOR-combining keeps probabilities below one half
    assert _xor_p(0.4, 0.4) < 0.5


def test_dem_edges_are_local_and_conflict_free(z2):
    _, _, dem, dset = z2
    assert dem.n_detectors == dset.n_detectors
    assert len(dem.edges) > 0
    for e in dem.edges:
        assert 1 <= len(e.detectors) <= 2
        assert all(0 <= d < dem.n_detectors for d in e.detectors)
        assert 0.0 < e.p < 0.5
    assert dem.diagnostics["logical_conflicts"] == []
    assert dem.diagnostics["dropped_wide_signatures"] == []
    assert dem.diagnostics["silent_logical_probability"] == 0.0
    assert dem.diagnostics["n_components"] > 1000


def test_dem_covers_every_single_fault(z2):
    """Each enumerated fault's syndrome appears in the model (merged)."""
    circ, meta, dem, dset = z2
    known = {e.detectors for e in dem.edges}
    seen = 0
    for label, variant, col in single_fault_variants(circ):
        rec = run_single_shot(variant, flip_column=col)
        ev = detection_events(rec, dset)[0]
        sig = tuple(np.flatnonzero(ev).tolist())
        if not sig:
            continue
        seen += 1
        assert len(sig) <= 2, f"fault {label} fired {sig}"
        assert sig in known, f"fault {label} missing from model: {sig}"
    assert seen > 100


def test_bulk_data_fault_fires_matching_round_pair(z2, layout):
    """An X flip on bulk data between rounds fires its two Z checks once each."""
    circ, meta, dem, dset = z2
    for label, variant, col in single_fault_variants(circ):
        parts = label.split()
        if not (parts[0].startswith("PAULI@") and parts[1] == "X" and parts[2] == "q4"):
            continue
        if not 9 <= int(parts[3][1:]) <= 21:  # the idle window after round 1
            continue
        rec = run_single_shot(variant, flip_column=col)
        ev = detection_events(rec, dset)[0]
        sig = {dset.index[i] for i in np.flatnonzero(ev)}
        assert sig == {(2, "Z2"), (2, "Z3")}, label
        return
    pytest.skip("no window fault found on the central data qubit")


def test_graph_boundary_reachable_everywhere(z2):
    _, _, dem, dset = z2
    g = build_decoding_graph(dem, dset)
    assert g.w.shape == (dset.n_detectors, dset.n_detectors)
    assert np.all(np.isfinite(g.w))
    assert np.all(np.isfinite(g.wb))
    assert np.all(np.diag(g.w) == 0.0)
    assert np.allclose(g.w, g.w.T)
    # triangle inequality through the graph metric
    d = g.w
    for _ in range(4):
        i, j, k = np.random.default_rng(_).integers(0, dset.n_detectors, 3)
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_decode_trivial_and_single_event(z2):
    circ, meta, dem, dset = z2
    g = build_decoding_graph(dem, dset)
    quiet = np.zeros((3, dset.n_detectors), dtype=np.uint8)
    assert np.array_equal(decode(g, quiet), np.zeros(3, dtype=np.uint8))
    one = quiet.copy()
    one[1, 2] = 1
    out = decode(g, one)
    assert out.shape == (3,)
    assert out[0] == out[2] == 0
    assert out[1] == g.parity_b[2]


def test_build_decoder_convenience_matches_two_step(noisy_memory):
    circ, meta = noisy_memory(basis="X", rounds=2)
    g1 = build_decoder(circ, meta)
    dem, dset = build_dem(circ, meta)
    g2 = build_decoding_graph(dem, dset)
    assert np.array_equal(g1.w, g2.w)
    assert np.array_equal(g1.wb, g2.wb)
    assert np.array_equal(g1.parity, g2.parity)
    assert np.array_equal(g1.parity_b, g2.parity_b)


def test_noiseless_input_yields_empty_model(layout):
    circ, meta = memory_circuit(layout, basis="Z", rounds=2)
    dem, dset = build_dem(circ, meta)
    assert dem.edges == []
    # and the matching graph refuses to build without boundary connectivity
    with pytest.raises(RuntimeError):
        build_decoding_graph(dem, dset)


@pytest.mark.parametrize(
    "edges,diagnostics,named",
    [
        # the same detector pair with both logical actions
        ([DemEdge((1, 2), 0.01, False), DemEdge((1, 2), 0.002, True)], {}, r"\(1, 2\)"),
        # a wide signature that splits into no known edges
        ([], {"dropped_wide_signatures": [((0, 1, 2), 0.003)]}, r"\(0, 1, 2\)"),
        # a logical flip that fires no detector
        ([], {"silent_logical_probability": 1e-4}, r"\(\)"),
    ],
)
def test_bad_dem_is_refused(z2, edges, diagnostics, named):
    _, _, _, dset = z2
    boundary = [DemEdge((d,), 0.01, False) for d in range(dset.n_detectors)]
    dem = DetectorErrorModel(dset.n_detectors, boundary + edges, diagnostics)
    with pytest.raises(ValueError, match=named):
        build_decoding_graph(dem, dset)
    build_decoding_graph(DetectorErrorModel(dset.n_detectors, boundary), dset)
