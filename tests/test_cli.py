"""End-to-end command pipeline on deliberately tiny workloads."""

import csv
import json
import os

import numpy as np
import pytest

from surflab import (
    Calibration,
    Layout,
    attach_noise,
    build_decoder,
    decode,
    detection_events,
    logical_errors,
    memory_circuit,
)
from surflab.cli import _csv_bytes, main
from surflab.engines import read_qshot


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> detect -> decode -> analyze -> fit, all in one tree."""
    root = tmp_path_factory.mktemp("pipeline")
    shots = {}
    for cycles in (1, 2):
        out = root / f"mem_{cycles}.qshot"
        rc = run_cli(
            "simulate",
            "--cycles", str(cycles),
            "--shots", "400",
            "--seed", "5",
            "--out", str(out),
            "--out-dir", str(root),
        )
        assert rc == 0
        shots[cycles] = out
    return root, shots


def test_layout_text_and_json(capsys):
    assert run_cli("layout") == 0
    text = capsys.readouterr().out
    assert "D5" in text and "logical Z" in text
    assert run_cli("layout", "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["qubits"]) == 17
    assert doc["logical_z"] == ["D1", "D2", "D3"]
    assert set(doc["cz_layers"]) == set("ABCD")


def test_simulate_writes_shots_and_manifest(pipeline):
    root, shots = pipeline
    path = shots[2]
    assert path.exists()
    manifest = json.loads((root / "mem_2.qshot.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["cycles"] == 2
    assert manifest["config"]["shots"] == 400
    assert os.path.basename(str(path)) in manifest["outputs"]


def test_simulate_is_reproducible(pipeline, tmp_path):
    root, shots = pipeline
    out2 = tmp_path / "again.qshot"
    rc = run_cli(
        "simulate", "--cycles", "2", "--shots", "400", "--seed", "5",
        "--out", str(out2), "--out-dir", str(tmp_path),
    )
    assert rc == 0
    assert out2.read_bytes() == shots[2].read_bytes()


def test_detect_outputs(pipeline, capsys):
    root, shots = pipeline
    out = root / "detect"
    rc = run_cli("detect", "--shots", str(shots[2]), "--out-dir", str(out))
    assert rc == 0
    assert "overall detection fraction" in capsys.readouterr().out
    with open(out / "def.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4 * 3  # four consistent checks, cycles+1 rounds
    for row in rows:
        assert 0.0 <= float(row["fraction"]) <= 1.0
    with open(out / "correlation.csv", newline="") as f:
        crows = list(csv.DictReader(f))
    assert len(crows) == 12
    labels = [r["detector"] for r in crows]
    assert labels[0] == "1:Z1"
    for r in crows:
        assert float(r[r["detector"]]) == 0.0  # diagonal


def test_decode_outputs(pipeline):
    root, shots = pipeline
    out = root / "decode"
    rc = run_cli("decode", "--shots", str(shots[2]), "--out-dir", str(out))
    assert rc == 0
    with open(out / "decode.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 400
    for row in rows[:20]:
        assert int(row["decoded_error"]) == int(row["raw_error"]) ^ int(row["correction"])


def test_decode_csv_equals_row_writer(pipeline, tmp_path):
    # decode.csv is written column-wise; it must equal one csv row per shot
    root, shots = pipeline
    out = tmp_path / "decode.csv"
    assert run_cli("decode", "--shots", str(shots[2]), "--out", str(out), "--out-dir", str(tmp_path)) == 0
    records, _ = read_qshot(str(shots[2]))
    circ, meta = memory_circuit(Layout.build(3), "Z", 2)
    graph = build_decoder(attach_noise(circ, Calibration.load()), meta)
    raw = logical_errors(records, meta)
    corr = decode(graph, detection_events(records, graph.dset))
    rows = [[i, int(raw[i]), int(corr[i]), int(raw[i] ^ corr[i])] for i in range(len(raw))]
    assert out.read_bytes() == _csv_bytes(["shot", "raw_error", "correction", "decoded_error"], rows)


def test_analyze_and_fit(pipeline, capsys):
    root, shots = pipeline
    out = root / "analyze"
    rc = run_cli(
        "analyze", "--shots", str(shots[1]), str(shots[2]), "--out-dir", str(out)
    )
    assert rc == 0
    assert "eps_per_cycle=" in capsys.readouterr().out
    doc = json.loads((out / "analyze.json").read_text())
    assert doc["cycles"] == [1, 2]
    assert doc["cycle_ns"] == 4153.0
    assert "decoded/none" in doc["fits"] and "raw/none" in doc["fits"]
    with open(out / "curves.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    # 2 variants x 4 schemes x 2 cycle counts
    assert len(rows) == 16
    schemes = {r["scheme"] for r in rows}
    assert schemes == {"none", "data_only", "ancilla_only", "both"}
    none_rows = [r for r in rows if r["scheme"] == "none"]
    assert all(float(r["retained"]) == 1.0 for r in none_rows)

    rc = run_cli("fit", "--curve", str(out / "curves.csv"), "--out-dir", str(out))
    assert rc == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["points"] == 2
    assert 0.0 < fit["eps_per_cycle"] < 0.5
    assert fit["lifetime_us"] > 0


def test_xeb_smoke(tmp_path, capsys):
    rc = run_cli(
        "xeb", "--seeds", "1", "--trajectories", "2", "--samples", "20",
        "--out-dir", str(tmp_path),
    )
    assert rc == 0
    assert "mean F_XEB" in capsys.readouterr().out
    doc = json.loads((tmp_path / "xeb.json").read_text())
    assert doc["n_seeds"] == 1
    assert doc["samples_per_seed"] == 40
    assert 0.0 < doc["predicted"] < 1.0
    with open(tmp_path / "xeb.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1


def test_config_file_merge_and_precedence(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"shots": 123, "cycles": 1}))
    out = tmp_path / "a.qshot"
    rc = run_cli(
        "simulate", "--config", str(cfg), "--seed", "2",
        "--shots", "77",  # flag beats config file
        "--out", str(out), "--out-dir", str(tmp_path),
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "a.qshot.manifest.json").read_text())
    assert manifest["config"]["shots"] == 77
    assert manifest["config"]["cycles"] == 1


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"shotz": 5}))
    assert run_cli("simulate", "--config", str(bad), "--out-dir", str(tmp_path)) == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert run_cli("detect", "--out-dir", str(tmp_path)) == 2  # missing --shots
    capsys.readouterr()
    assert run_cli("simulate", "--shots", "0", "--out-dir", str(tmp_path)) == 2
    assert "invalid value for shots" in capsys.readouterr().err


def test_data_errors_exit_3(pipeline, tmp_path, capsys):
    root, shots = pipeline
    # tampering with a produced file breaks its manifest digest check
    tampered = tmp_path / "mem_2.qshot"
    data = bytearray(shots[2].read_bytes())
    data[-1] ^= 1
    tampered.write_bytes(bytes(data))
    manifest = json.loads((root / "mem_2.qshot.manifest.json").read_text())
    (tmp_path / "mem_2.qshot.manifest.json").write_text(json.dumps(manifest))
    assert run_cli("decode", "--shots", str(tampered), "--out-dir", str(tmp_path)) == 3
    assert "digest mismatch" in capsys.readouterr().err

    garbage = tmp_path / "garbage.qshot"
    garbage.write_bytes(b"not a shot file at all")
    assert run_cli("detect", "--shots", str(garbage), "--out-dir", str(tmp_path)) == 3

    junk_curve = tmp_path / "c.csv"
    junk_curve.write_text("cycles,fidelity\n1,0.9\n")
    assert run_cli("fit", "--curve", str(junk_curve), "--out-dir", str(tmp_path)) == 3
    assert "usable points" in capsys.readouterr().err
