"""Minimum-weight matching routes agree with brute-force enumeration."""

import numpy as np
import pytest

import surflab.matching as matching
from surflab import detection_events, run
from surflab.decoder import build_decoder
from surflab.matching import (
    CLUSTER_CAP,
    DP_CAP,
    _match_blossom,
    _match_layers,
    decode_batched,
    match_brute,
    match_single,
)


def random_instance(rng, m):
    """Self-consistent random matching instance over m fired detectors."""
    w = rng.uniform(0.5, 4.0, size=(m, m))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    wb = rng.uniform(0.5, 4.0, size=m)
    par = rng.integers(0, 2, size=(m, m)).astype(np.uint8)
    par = par ^ par.T  # symmetric with zero diagonal
    par_b = rng.integers(0, 2, size=m).astype(np.uint8)
    return w, wb, par, par_b


def test_empty_and_single():
    assert match_single(np.zeros((0, 0)), np.zeros(0), np.zeros((0, 0), dtype=np.uint8), np.zeros(0, dtype=np.uint8)) == (0.0, 0)
    w, wb = np.zeros((1, 1)), np.array([2.5])
    par, par_b = np.zeros((1, 1), dtype=np.uint8), np.array([1], dtype=np.uint8)
    assert match_single(w, wb, par, par_b) == (2.5, 1)


def test_pair_hand_case():
    # edge cheaper than two boundary exits
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    wb = np.array([3.0, 3.0])
    par = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    par_b = np.array([0, 0], dtype=np.uint8)
    assert match_single(w, wb, par, par_b) == (1.0, 1)
    # now make the boundary exits cheaper
    wb2 = np.array([0.25, 0.25])
    assert match_single(w, wb2, par, par_b) == (0.5, 0)


def test_dp_matches_brute_on_random_instances(rng):
    for m in range(2, 7):
        for _ in range(30):
            w, wb, par, par_b = random_instance(rng, m)
            bw, bp, unique = match_brute(w, wb, par, par_b)
            sw, sp = match_single(w, wb, par, par_b)
            assert sw == pytest.approx(bw)
            if unique:
                assert sp == bp


def test_blossom_matches_brute_on_random_instances(rng):
    for m in range(1, 7):
        for _ in range(20):
            w, wb, par, par_b = random_instance(rng, m)
            bw, bp, unique = match_brute(w, wb, par, par_b)
            gw, gp = _match_blossom(w, wb, par, par_b)
            assert gw == pytest.approx(bw)
            if unique:
                assert gp == bp


@pytest.fixture(scope="module")
def real_graph(noisy_memory):
    circ, meta = noisy_memory(basis="Z", rounds=3)
    return build_decoder(circ, meta)


def test_batched_agrees_with_per_shot_reference(real_graph, rng):
    g = real_graph
    d = g.w.shape[0]
    shots = 300
    events = (rng.random((shots, d)) < 0.22).astype(np.uint8)
    # a few dense shots, with large clusters
    events[:5] = (rng.random((5, d)) < 0.9).astype(np.uint8)
    sizes = events.sum(axis=1)
    assert sizes.max() > DP_CAP, "test should include large syndromes"
    assert (sizes == 0).any() and (sizes == 1).any()
    out = decode_batched(g.w, g.wb, g.parity, g.parity_b, events)
    for s in range(shots):
        fired = np.flatnonzero(events[s])
        ix = np.ix_(fired, fired)
        ref_w, ref_p = match_single(g.w[ix], g.wb[fired], g.parity[ix], g.parity_b[fired])
        assert out[s] == ref_p, f"shot {s} fired {fired.tolist()}"


def test_batched_deterministic(real_graph, rng):
    g = real_graph
    events = (rng.random((64, g.w.shape[0])) < 0.3).astype(np.uint8)
    a = decode_batched(g.w, g.wb, g.parity, g.parity_b, events)
    b = decode_batched(g.w, g.wb, g.parity, g.parity_b, events.copy())
    assert np.array_equal(a, b)


def integer_instance(rng, m):
    """Random instance with small integer weights, so that exact ties abound."""
    w = rng.integers(1, 5, size=(m, m)).astype(float)
    w = np.triu(w, 1) + np.triu(w, 1).T
    wb = rng.integers(1, 5, size=m).astype(float)
    par = rng.integers(0, 2, size=(m, m)).astype(np.uint8)
    par = np.triu(par, 1) ^ np.triu(par, 1).T
    par_b = rng.integers(0, 2, size=m).astype(np.uint8)
    return w, wb, par, par_b


@pytest.mark.parametrize("make", [random_instance, integer_instance])
def test_layered_dp_equals_match_single(make, rng):
    # weight and parity bit for bit, tie-break included, for m = 1..14
    for m in range(1, 15):
        n = 12 if m <= 8 else (3 if m <= 11 else 1)
        inst = [make(rng, m) for _ in range(n)]
        weights, parities = _match_layers(*(np.stack(x) for x in zip(*inst)))
        for k, args in enumerate(inst):
            assert (weights[k], parities[k]) == match_single(*args), (m, k)


@pytest.mark.parametrize("basis,shots", [("Z", 1024), ("X", 256)])
def test_decode_equals_whole_syndrome_matching_on_real_shots(noisy_memory, basis, shots):
    circ, meta = noisy_memory(basis=basis, rounds=5)
    g = build_decoder(circ, meta)
    events = detection_events(run(circ, shots, seed=7).records, g.dset)
    out = decode_batched(g.w, g.wb, g.parity, g.parity_b, events)
    fired = events.sum(axis=1)
    tail = np.flatnonzero((fired > DP_CAP) & (fired <= 16))
    assert len(tail), "sample should include tail shots"
    # every shot up to 16 fired against the subset DP on the whole syndrome,
    # larger ones against a blossom matching on it
    for s in range(shots):
        f = np.flatnonzero(events[s])
        ix = np.ix_(f, f)
        exact = match_single if len(f) <= 16 else _match_blossom
        assert out[s] == exact(g.w[ix], g.wb[f], g.parity[ix], g.parity_b[f])[1], f"shot {s}, {len(f)} fired"


def test_batch_equals_rows_alone(real_graph, rng):
    # clusters never join detectors of different shots
    g = real_graph
    events = (rng.random((40, g.w.shape[0])) < 0.35).astype(np.uint8)
    batch = decode_batched(g.w, g.wb, g.parity, g.parity_b, events)
    rows = [decode_batched(g.w, g.wb, g.parity, g.parity_b, events[s : s + 1])[0] for s in range(len(events))]
    assert batch.tolist() == rows


def test_cluster_over_cap_goes_to_blossom(noisy_memory, rng, monkeypatch):
    circ, meta = noisy_memory(basis="Z", rounds=11)
    g = build_decoder(circ, meta)
    events = (rng.random((4, g.w.shape[0])) < 0.8).astype(np.uint8)
    sizes = []

    def counted(w, wb, par, par_b):
        sizes.append(len(wb))
        return _match_blossom(w, wb, par, par_b)

    monkeypatch.setattr(matching, "_match_blossom", counted)
    out = decode_batched(g.w, g.wb, g.parity, g.parity_b, events)
    assert sizes and min(sizes) > CLUSTER_CAP
    for s in range(len(events)):
        f = np.flatnonzero(events[s])
        ix = np.ix_(f, f)
        assert out[s] == _match_blossom(g.w[ix], g.wb[f], g.parity[ix], g.parity_b[f])[1]
