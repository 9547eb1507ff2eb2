"""The benchmark's own test: reduced runs of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs one small pass (plain and traced).  Its operations must
pass their checks, the traced run must report every per-layer metric, two
runs with one seed must give identical counters, and deliberately corrupted
outputs must each fail.
"""

import numpy as np
import pytest

import run
import run_all

run.import_library()

import surflab as sl  # noqa: E402
from surflab import matching  # noqa: E402
from workloads import MemoryCurve, MemoryDeep, Xeb  # noqa: E402

REF = run.load_reference()
SEED = 99


def reduced(name: str, seed: int = SEED):
    ref = REF[name]
    return {
        "memory-curve": lambda: MemoryCurve(seed, ref, shots=256),
        "memory-deep": lambda: MemoryDeep(seed, ref, shots=256),
        "xeb": lambda: Xeb(seed, ref, trajectories=64, samples=100, noiseless_samples=4000),
    }[name]()


NAMES = ("memory-curve", "memory-deep", "xeb")


@pytest.mark.parametrize("name", NAMES)
def test_reduced_traced_run_passes_and_reports_every_layer(name):
    res = run.measure(reduced(name), 0.0, trace=True)
    assert res["ops"]
    assert [op["failures"] for op in res["ops"]] == [[] for _ in res["ops"]]
    values = {**res["counters"], **res["layers"]}
    assert set(run.PER_LAYER) <= set(values)
    assert res["wall_s"] > res["setup_s"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_counters_repeat_for_a_seed(name):
    first = run.measure(reduced(name), 0.0, trace=False)["counters"]
    second = run.measure(reduced(name), 0.0, trace=False)["counters"]
    assert first == second


def test_run_all_knows_the_xeb_sample_count():
    assert run_all.XEB_SAMPLES == Xeb.samples


def flip_corrections(inp, outs):
    for o in outs:
        o["corr"] ^= 1
        o["dec"] ^= 1


def flip_tail_corrections(inp, outs):
    """Corrupt only the shots that the decoder's cluster path decodes."""
    for o in outs:
        tail = o["events"].sum(axis=1) > matching.DP_CAP
        o["corr"][tail] ^= 1
        o["dec"][tail] ^= 1


def shuffle_samples(inp, outs):
    (o,) = outs
    o["idx"] = np.random.default_rng(0).permutation(len(o["ideal"]))[o["idx"]]


def uniform_samples(inp, outs):
    """Samples that carry no trace of the circuit, with a consistent reported fidelity."""
    (o,) = outs
    o["idx"] = np.random.default_rng(0).integers(0, len(o["ideal"]), size=len(o["idx"]))
    o["f"], _ = sl.xeb_fidelity(o["ideal"], o["idx"])


def shuffle_ideal(inp, outs):
    (o,) = outs
    np.random.default_rng(0).shuffle(o["ideal"])


def shift_detection_fraction(inp, outs):
    (o,) = outs
    o["frac"]["per_detector"] = o["frac"]["per_detector"] + 0.3
    o["frac"]["per_round"] = {k: v + 0.3 for k, v in o["frac"]["per_round"].items()}


@pytest.mark.parametrize("name, tamper, reason", [
    ("memory-curve", flip_corrections, "exact matching"),
    ("memory-deep", flip_corrections, "exact matching"),
    ("memory-deep", flip_tail_corrections, "exact matching"),
    ("xeb", shuffle_samples, ""),
    ("xeb", uniform_samples, "pooled noisy fidelity"),
    ("xeb", shuffle_ideal, ""),
    ("memory-deep", shift_detection_fraction, "detection fraction"),
])
def test_corrupted_outputs_fail(name, tamper, reason):
    res = run.measure(reduced(name), 0.0, trace=False, tamper=tamper)
    assert res["ops"]
    assert all(any(reason in why for why in op["failures"]) for op in res["ops"])
