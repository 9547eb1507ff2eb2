"""Command-line pipeline: simulate, detect, decode, analyze, benchmark, fit.

Every command is a pure function of its inputs, configuration, and seed;
re-running with the same arguments reproduces every output file byte for
byte.  Alongside its primary output each command writes a manifest
(`<output>.manifest.json`) echoing the merged configuration, input and
output digests, library versions, and wall-clock timings; consumers verify
input digests against a producer's manifest when one is present.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import (
    POST_SELECTIONS,
    ErrorEstimate,
    fit_memory_curve,
    lifetime_us,
    logical_errors,
    post_selection_masks,
)
from .calibration import Calibration
from .decoder import build_decoder, decode as decode_events
from .detection import build_detectors, correlation_matrix, detection_events, detection_fraction
from .engines import read_qshot, run, write_qshot
from .noise import NoiseConfig, attach_noise
from .surface import CYCLE_NS, Layout, memory_circuit
from .xeb import run_xeb_study


class ConfigError(Exception):
    """Invalid flags, config file, or calibration (exit code 2)."""


class DataError(Exception):
    """Missing, corrupt, or digest-mismatched input data (exit code 3)."""


# ---------------------------------------------------------------------------
# plumbing


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _check_input(path: str) -> str:
    """Validate an input file exists and matches its producer's digest."""
    if not os.path.isfile(path):
        raise DataError(f"input file not found: {path}")
    digest = _sha256(path)
    manifest_path = path + ".manifest.json"
    if os.path.isfile(manifest_path):
        try:
            with open(manifest_path) as f:
                recorded = json.load(f).get("outputs", {}).get(os.path.basename(path))
        except (OSError, json.JSONDecodeError) as e:
            raise DataError(f"unreadable manifest {manifest_path}: {e}") from e
        if recorded is not None and recorded != digest:
            raise DataError(f"digest mismatch for {path}: manifest records {recorded[:12]}..., file is {digest[:12]}...")
    return digest


def _write_manifest(primary_out: str, command: str, config: dict, inputs: dict, outputs: list[str], t0: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
        "timings": {"total_s": round(time.monotonic() - t0, 3)},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "surflab": __version__,
        },
    }
    _atomic_write(primary_out + ".manifest.json", _json_bytes(manifest))


def _load_cal(path: str | None) -> tuple[Calibration, dict]:
    try:
        cal = Calibration.load(path)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot load calibration: {e}") from e
    inputs = {}
    if path:
        inputs[os.path.basename(path)] = _sha256(path)
    return cal, inputs


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < --config file < explicit flags."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        if not os.path.isfile(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        try:
            with open(args.config) as f:
                loaded = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(loaded)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _validate(cfg: dict) -> None:
    checks = {
        "distance": lambda v: isinstance(v, int) and v >= 3 and v % 2 == 1,
        "basis": lambda v: v in ("Z", "X"),
        "cycles": lambda v: isinstance(v, int) and v >= 1,
        "shots": lambda v: isinstance(v, int) and v >= 1,
        "seed": lambda v: isinstance(v, int) and v >= 0,
        "engine": lambda v: v in ("auto", "tableau", "statevector"),
        "noise": lambda v: v in ("on", "off"),
        "conversion": lambda v: v in ("average", "direct"),
        "workers": lambda v: isinstance(v, int) and v >= 1,
        "include": lambda v: v in ("consistent", "all"),
        "seeds": lambda v: isinstance(v, int) and v >= 1,
        "trajectories": lambda v: isinstance(v, int) and v >= 1,
        "samples": lambda v: isinstance(v, int) and v >= 1,
        "decode": lambda v: v in ("on", "off"),
        "scheme": lambda v: v in POST_SELECTIONS,
        "corrected": lambda v: v in ("raw", "decoded"),
    }
    for key, ok in checks.items():
        if key in cfg and not ok(cfg[key]):
            raise ConfigError(f"invalid value for {key}: {cfg[key]!r}")


def _noise_config(cfg: dict) -> NoiseConfig:
    return NoiseConfig(conversion=cfg.get("conversion", "average"))


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


def _decode_csv(raw: np.ndarray, correction: np.ndarray, decoded: np.ndarray) -> bytes:
    """decode.csv, byte for byte what ``_csv_bytes`` writes for one row per shot."""
    # every row is "<shot>,<raw>,<correction>,<decoded>" over 0/1 bits: look up
    # the tail after the shot number by the three bits
    tails = np.array([f",{r},{c},{d}\n" for r in (0, 1) for c in (0, 1) for d in (0, 1)])
    code = (np.asarray(raw, dtype=np.intp) << 2) | (np.asarray(correction, dtype=np.intp) << 1) | decoded
    lines = np.char.add(np.arange(len(code)).astype(str), tails[code])
    return ("shot,raw_error,correction,decoded_error\n" + "".join(lines.tolist())).encode()


def _infer_cycles(n_meas: int, layout: Layout) -> int:
    n_anc = len(layout.ancillas)
    n_data = len(layout.data)
    k, rem = divmod(n_meas - n_data, n_anc)
    if rem or k < 1:
        raise DataError(f"record width {n_meas} does not match a d={layout.d} memory run")
    return k


def _read_shots(path: str, layout: Layout) -> tuple[np.ndarray, dict, int]:
    digest = _check_input(path)
    try:
        records, header = read_qshot(path)
    except ValueError as e:
        raise DataError(f"corrupt shot file {path}: {e}") from e
    if header["n_qubits"] != layout.n_qubits:
        raise DataError(f"{path} was produced for {header['n_qubits']} qubits, layout has {layout.n_qubits}")
    header["sha256"] = digest
    return records, header, _infer_cycles(header["n_measurements"], layout)


# ---------------------------------------------------------------------------
# subcommands


def cmd_layout(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, {"distance": 3, "format": "text"})
    if cfg["format"] not in ("text", "json"):
        raise ConfigError(f"invalid value for format: {cfg['format']!r}")
    _validate(cfg)
    layout = Layout.build(cfg["distance"])
    if cfg["format"] == "json":
        doc = {
            "distance": layout.d,
            "qubits": [
                {"name": q.name, "kind": q.kind, "x": q.x, "y": q.y, "index": q.index}
                for q in layout.qubits
            ],
            "stabilizers": {a.name: list(layout.support[a.name]) for a in layout.ancillas},
            "logical_z": list(layout.logical_support("Z")),
            "logical_x": list(layout.logical_support("X")),
            "cz_layers": {p: [list(pair) for pair in layout.pattern_pairs(p)] for p in "ABCD"},
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(layout.ascii_diagram())
        print()
        for a in layout.ancillas:
            kind = "X" if a.kind == "X" else "Z"
            members = ", ".join(layout.support[a.name])
            print(f"{a.name}: {kind}-type parity of {members}")
        print(f"logical Z: {', '.join(layout.logical_support('Z'))}")
        print(f"logical X: {', '.join(layout.logical_support('X'))}")
    return 0


_SIM_DEFAULTS = {
    "distance": 3,
    "basis": "Z",
    "cycles": 3,
    "shots": 10000,
    "seed": 1,
    "engine": "auto",
    "noise": "on",
    "conversion": "average",
    "workers": 1,
    "calibration": None,
    "out": None,
}


def cmd_simulate(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    cfg = _merge_config(args, _SIM_DEFAULTS)
    _validate(cfg)
    layout = Layout.build(cfg["distance"])
    circ, _meta = memory_circuit(layout, cfg["basis"], cfg["cycles"])
    inputs: dict = {}
    if cfg["noise"] == "on":
        cal, inputs = _load_cal(cfg["calibration"])
        try:
            cal.require(list(layout.qubit_names), [(a, d) for p in "ABCD" for a, d in layout.pattern_pairs(p)])
        except KeyError as e:
            raise ConfigError(str(e)) from e
        circ = attach_noise(circ, cal, _noise_config(cfg))
    out = cfg["out"] or os.path.join(args.out_dir, f"memory_{cfg['basis']}_{cfg['cycles']}.qshot")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    try:
        result = run(circ, shots=cfg["shots"], seed=cfg["seed"], engine=cfg["engine"], workers=cfg["workers"])
    except ValueError as e:
        raise ConfigError(str(e)) from e
    write_qshot(out, result.records, n_qubits=layout.n_qubits, seed=cfg["seed"])
    _write_manifest(out, "simulate", cfg, inputs, [out], t0)
    print(f"wrote {result.records.shape[0]} shots x {result.records.shape[1]} bits to {out} ({result.engine} engine)")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    cfg = _merge_config(args, {"distance": 3, "basis": "Z", "include": "consistent", "shots_file": None})
    _validate(cfg)
    if not cfg["shots_file"]:
        raise ConfigError("detect needs --shots FILE")
    layout = Layout.build(cfg["distance"])
    records, header, cycles = _read_shots(cfg["shots_file"], layout)
    _circ, meta = memory_circuit(layout, cfg["basis"], cycles)
    dset = build_detectors(meta, include=cfg["include"])
    events = detection_events(records, dset)
    frac = detection_fraction(events, dset)
    rounds = dset.rounds_of()
    def_rows = [
        [int(rounds[i]), anc, float(frac["per_detector"][i])]
        for i, (_k, anc) in enumerate(dset.index)
    ]
    corr = correlation_matrix(events)
    labels = [f"{k}:{anc}" for k, anc in dset.index]
    corr_rows = [[labels[i]] + [float(v) for v in corr[i]] for i in range(len(labels))]
    def_path = os.path.join(args.out_dir, "def.csv")
    corr_path = os.path.join(args.out_dir, "correlation.csv")
    os.makedirs(args.out_dir, exist_ok=True)
    _atomic_write(def_path, _csv_bytes(["round", "ancilla", "fraction"], def_rows))
    _atomic_write(corr_path, _csv_bytes(["detector"] + labels, corr_rows))
    cfg["cycles"] = cycles
    _write_manifest(def_path, "detect", cfg, {os.path.basename(cfg["shots_file"]): header["sha256"]}, [def_path, corr_path], t0)
    print(f"overall detection fraction {frac['overall']:.4f} over {events.shape[0]} shots, {events.shape[1]} detectors")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    cfg = _merge_config(
        args,
        {
            "distance": 3,
            "basis": "Z",
            "include": "consistent",
            "conversion": "average",
            "calibration": None,
            "shots_file": None,
            "out": None,
        },
    )
    _validate(cfg)
    if not cfg["shots_file"]:
        raise ConfigError("decode needs --shots FILE")
    layout = Layout.build(cfg["distance"])
    records, header, cycles = _read_shots(cfg["shots_file"], layout)
    circ, meta = memory_circuit(layout, cfg["basis"], cycles)
    cal, inputs = _load_cal(cfg["calibration"])
    noisy = attach_noise(circ, cal, _noise_config(cfg))
    graph = build_decoder(noisy, meta, include=cfg["include"])
    events = detection_events(records, graph.dset)
    correction = decode_events(graph, events)
    raw = logical_errors(records, meta)
    decoded = raw ^ correction
    out = cfg["out"] or os.path.join(args.out_dir, "decode.csv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    _atomic_write(out, _decode_csv(raw, correction, decoded))
    inputs[os.path.basename(cfg["shots_file"])] = header["sha256"]
    cfg["cycles"] = cycles
    _write_manifest(out, "decode", cfg, inputs, [out], t0)
    print(
        f"raw logical error {raw.mean():.5f}, decoded {decoded.mean():.5f} over {len(raw)} shots ({cycles} cycles)"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    cfg = _merge_config(
        args,
        {
            "distance": 3,
            "basis": "Z",
            "include": "consistent",
            "conversion": "average",
            "calibration": None,
            "decode": "on",
        },
    )
    _validate(cfg)
    if not args.shots:
        raise ConfigError("analyze needs --shots FILE [FILE ...]")
    layout = Layout.build(cfg["distance"])
    cal, inputs = _load_cal(cfg["calibration"])
    curves: dict[tuple[str, str], dict[int, ErrorEstimate]] = {}
    retained: dict[int, dict[str, float]] = {}
    per_k: list[tuple[int, str]] = []
    for path in args.shots:
        records, header, cycles = _read_shots(path, layout)
        if any(k == cycles for k, _ in per_k):
            raise DataError(f"two shot files for cycles={cycles}")
        per_k.append((cycles, path))
        inputs[os.path.basename(path)] = header["sha256"]
        circ, meta = memory_circuit(layout, cfg["basis"], cycles)
        noisy = attach_noise(circ, cal, _noise_config(cfg))
        graph = build_decoder(noisy, meta, include=cfg["include"])
        events = detection_events(records, graph.dset)
        raw = logical_errors(records, meta)
        variants = {"raw": raw}
        if cfg["decode"] == "on":
            variants["decoded"] = raw ^ decode_events(graph, events)
        masks = post_selection_masks(events, graph.dset)
        retained[cycles] = {s: float(m.mean()) for s, m in masks.items()}
        for variant, err in variants.items():
            for scheme, mask in masks.items():
                curves.setdefault((variant, scheme), {})[cycles] = ErrorEstimate.from_indicator(err, mask)
    ks = sorted(k for k, _ in per_k)
    curve_rows = []
    for (variant, scheme), by_k in sorted(curves.items()):
        for k in ks:
            est = by_k[k]
            curve_rows.append([k, scheme, variant, 1.0 - est.p, est.se, est.n, retained[k][scheme]])
    fits = {}
    for (variant, scheme), by_k in sorted(curves.items()):
        usable = [k for k in ks if by_k[k].n > 0]
        if len(usable) < 2:
            continue
        fit = fit_memory_curve(usable, [1.0 - by_k[k].p for k in usable])
        fits[f"{variant}/{scheme}"] = {
            "eps": fit.eps,
            "k0": fit.k0,
            "method": fit.method,
            "lifetime_us": lifetime_us(fit.eps),
        }
    os.makedirs(args.out_dir, exist_ok=True)
    curves_path = os.path.join(args.out_dir, "curves.csv")
    analyze_path = os.path.join(args.out_dir, "analyze.json")
    _atomic_write(
        curves_path,
        _csv_bytes(["cycles", "scheme", "variant", "fidelity", "stderr", "n_kept", "retained"], curve_rows),
    )
    doc = {
        "basis": cfg["basis"],
        "cycle_ns": CYCLE_NS,
        "cycles": ks,
        "fits": fits,
        "physical_best_t1_us": cal.best_t1_us(),
    }
    _atomic_write(analyze_path, _json_bytes(doc))
    _write_manifest(analyze_path, "analyze", cfg, inputs, [analyze_path, curves_path], t0)
    for name, fit in sorted(fits.items()):
        print(f"{name}: eps_per_cycle={fit['eps']:.5f}  lifetime={fit['lifetime_us']:.1f} us")
    return 0


def cmd_xeb(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    cfg = _merge_config(
        args,
        {
            "distance": 3,
            "seeds": 9,
            "trajectories": 160,
            "samples": 625,
            "seed": 2026,
            "conversion": "average",
            "calibration": None,
            "workers": 1,
        },
    )
    _validate(cfg)
    layout = Layout.build(cfg["distance"])
    cal, inputs = _load_cal(cfg["calibration"])
    study = run_xeb_study(
        layout,
        cal,
        n_seeds=cfg["seeds"],
        noise=_noise_config(cfg),
        trajectories=cfg["trajectories"],
        samples_per_trajectory=cfg["samples"],
        base_seed=cfg["seed"],
        workers=cfg["workers"],
    )
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "xeb.csv")
    json_path = os.path.join(args.out_dir, "xeb.json")
    rows = [
        [r.seed, r.fidelity_noisy, r.se_noisy, r.fidelity_noiseless, r.se_noiseless, r.n_samples]
        for r in study.results
    ]
    _atomic_write(csv_path, _csv_bytes(["seed", "f_xeb", "stderr", "f_noiseless", "stderr_noiseless", "n_samples"], rows))
    doc = {
        "predicted": study.predicted,
        "mean_noisy": study.mean_noisy,
        "mean_noiseless": study.mean_noiseless,
        "ratio_measured_to_predicted": study.ratio,
        "n_seeds": cfg["seeds"],
        "samples_per_seed": cfg["trajectories"] * cfg["samples"],
    }
    _atomic_write(json_path, _json_bytes(doc))
    _write_manifest(csv_path, "xeb", cfg, inputs, [csv_path, json_path], t0)
    print(
        f"mean F_XEB {study.mean_noisy:.4f} over {cfg['seeds']} seeds; predicted {study.predicted:.4f}; ratio {study.ratio:.2f}"
    )
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    cfg = _merge_config(args, {"scheme": "none", "corrected": "decoded", "curve": None, "out": None})
    _validate(cfg)
    if not cfg["curve"]:
        raise ConfigError("fit needs --curve FILE")
    digest = _check_input(cfg["curve"])
    ks, fids = [], []
    with open(cfg["curve"], newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or "fidelity" not in reader.fieldnames:
            raise DataError(f"{cfg['curve']} has no 'fidelity' column")
        kcol = "cycles" if "cycles" in reader.fieldnames else "k"
        if kcol not in reader.fieldnames:
            raise DataError(f"{cfg['curve']} has no 'cycles' or 'k' column")
        for row in reader:
            if "scheme" in row and row["scheme"] != cfg["scheme"]:
                continue
            if "variant" in row and row["variant"] != ("decoded" if cfg["corrected"] == "decoded" else "raw"):
                continue
            try:
                ks.append(int(row[kcol]))
                fids.append(float(row["fidelity"]))
            except ValueError as e:
                raise DataError(f"bad row in {cfg['curve']}: {e}") from e
    if len(ks) < 2:
        raise DataError(f"{cfg['curve']} holds {len(ks)} usable points; need at least 2")
    try:
        fit = fit_memory_curve(ks, fids)
    except ValueError as e:
        raise DataError(str(e)) from e
    out = cfg["out"] or os.path.join(args.out_dir, "fit.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    doc = {
        "eps_per_cycle": fit.eps,
        "k0": fit.k0,
        "method": fit.method,
        "sse": fit.sse,
        "cycle_ns": CYCLE_NS,
        "lifetime_us": lifetime_us(fit.eps),
        "points": len(ks),
    }
    _atomic_write(out, _json_bytes(doc))
    _write_manifest(out, "fit", cfg, {os.path.basename(cfg["curve"]): digest}, [out], t0)
    print(f"eps_per_cycle={fit.eps:.5f}  k0={fit.k0:.3f}  lifetime={lifetime_us(fit.eps):.1f} us ({fit.method} fit)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with defaults for this command's options")
    p.add_argument("--out-dir", default=".", help="directory for output artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surflab",
        description="distance-3 surface-code memory laboratory: simulate, decode, analyze, benchmark",
    )
    parser.add_argument("--version", action="version", version=f"surflab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("layout", help="print the code layout, stabilizers, and CZ layers")
    p.add_argument("--distance", type=int)
    p.add_argument("--format", choices=("text", "json"))
    _add_common(p)
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("simulate", help="run the noisy memory experiment, write a QSHOT1 shot file")
    p.add_argument("--distance", type=int)
    p.add_argument("--basis", choices=("Z", "X"))
    p.add_argument("--cycles", type=int)
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--engine", choices=("auto", "tableau", "statevector"))
    p.add_argument("--noise", choices=("on", "off"))
    p.add_argument("--conversion", choices=("average", "direct"))
    p.add_argument("--workers", type=int)
    p.add_argument("--calibration", help="calibration JSON (default: $SURFLAB_CALIBRATION or bundled)")
    p.add_argument("--out", help="output shot file path")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="extract detection events; write DEF and correlation CSVs")
    p.add_argument("--shots", dest="shots_file", help="QSHOT1 input file")
    p.add_argument("--distance", type=int)
    p.add_argument("--basis", choices=("Z", "X"))
    p.add_argument("--include", choices=("consistent", "all"))
    _add_common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("decode", help="MWPM-decode a shot file; write per-shot corrections CSV")
    p.add_argument("--shots", dest="shots_file", help="QSHOT1 input file")
    p.add_argument("--distance", type=int)
    p.add_argument("--basis", choices=("Z", "X"))
    p.add_argument("--include", choices=("consistent", "all"))
    p.add_argument("--conversion", choices=("average", "direct"))
    p.add_argument("--calibration")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser(
        "analyze",
        help="fidelity curves and decay fits across cycle counts, all post-selection schemes",
    )
    p.add_argument("--shots", nargs="+", help="QSHOT1 files, one per cycle count")
    p.add_argument("--distance", type=int)
    p.add_argument("--basis", choices=("Z", "X"))
    p.add_argument("--include", choices=("consistent", "all"))
    p.add_argument("--conversion", choices=("average", "direct"))
    p.add_argument("--calibration")
    p.add_argument("--decode", choices=("on", "off"))
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("xeb", help="cross-entropy benchmark of the full device circuit")
    p.add_argument("--distance", type=int)
    p.add_argument("--seeds", type=int, help="number of random circuits")
    p.add_argument("--trajectories", type=int)
    p.add_argument("--samples", type=int, help="samples per trajectory")
    p.add_argument("--seed", type=int, help="base seed for circuits and sampling")
    p.add_argument("--conversion", choices=("average", "direct"))
    p.add_argument("--calibration")
    p.add_argument("--workers", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_xeb)

    p = sub.add_parser("fit", help="fit the decay model to a fidelity-curve CSV")
    p.add_argument("--curve", help="CSV with cycles/k and fidelity columns")
    p.add_argument("--scheme", choices=POST_SELECTIONS, help="post-selection scheme to select from curves.csv")
    p.add_argument("--corrected", choices=("raw", "decoded"), help="which variant to fit from curves.csv")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
