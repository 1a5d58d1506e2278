"""Command-line entry point.

Subcommands: generate, simulate, analyze, sweep, hierarchy.  Config files
are JSON; flags override file values.  Exit codes: 0 success (including
partial sweep failures), 1 config error, 2 I/O error, 3 total numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import struct
import sys
import tempfile
import warnings
import zlib
from typing import Optional, Sequence

import numpy as np

from . import __version__, config as cfgmod
from .analysis import energy, entropy
from .errors import ConfigError, DataError, NumericalError, ParameterError, RsnError
from .harness import (AGGREGATE_FIELDS, SweepConfig, SweepRecord, aggregate,
                      run_sweep)
from .solver import SimulationTrace, simulate, sine_waveform
from .topology import BetaShape, Grid, NetworkTopology, generate_network

log = logging.getLogger("rsnsim")


def _fmt(x) -> str:
    return f"{x:.9g}" if isinstance(x, float) else str(x)  # NaN prints as nan


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file + rename so failures never leave partial output.
    The file gets the mode ``open(path, "w")`` would give, not mkstemp's
    0600."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            f.write(text)
        umask = os.umask(0o077)  # the umask is read only by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def records_csv(rows: Sequence, fields: Sequence[str] = tuple(
        f.name for f in dataclasses.fields(SweepRecord))) -> str:
    """CSV text of SweepRecords, or of dicts such as aggregate's rows."""
    lines = [",".join(fields)]
    for row in rows:
        row = row if isinstance(row, dict) else vars(row)
        lines.append(",".join(_fmt(row[k]) for k in fields))
    return "\n".join(lines) + "\n"


def _manifest(command: str, cfg_doc: dict, seeds, workers: int) -> str:
    return json.dumps({
        "tool": "rsnsim",
        "version": __version__,
        "command": command,
        "config": cfg_doc,
        "workers": workers,
        "seeds": seeds,
    }, indent=1, sort_keys=True) + "\n"


# viridis sampled at 0, 1/8, ..., 1; colour runs from a map's minimum to its maximum
_VIRIDIS = np.array([(68, 1, 84), (71, 44, 122), (59, 82, 139), (44, 114, 142),
                     (33, 145, 140), (40, 174, 128), (94, 201, 98), (173, 220, 48),
                     (253, 231, 37)], dtype=float)
_NAN_RGB = (160, 160, 160)   # cells whose every trial failed
_DOT_RGB = (31, 119, 180)
_CELL_PX = 32


def _png_bytes(rgb: np.ndarray) -> bytes:
    """Encode an (height, width, 3) uint8 array, top row first, as an RGB PNG."""
    h, w, _ = rgb.shape
    raw = np.zeros((h, 1 + 3 * w), dtype=np.uint8)   # column 0: filter type 0
    raw[:, 1:] = rgb.reshape(h, 3 * w)

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data)))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw.tobytes(), 9))
            + chunk(b"IEND", b""))


def _colorize(m: np.ndarray) -> np.ndarray:
    """Viridis RGB from the finite minimum to the maximum of `m`; NaN is grey."""
    rgb = np.full(m.shape + (3,), _NAN_RGB, dtype=np.uint8)
    ok = np.isfinite(m)
    if ok.any():
        lo, hi = m[ok].min(), m[ok].max()
        t = (m[ok] - lo) / (hi - lo) if hi > lo else np.zeros(int(ok.sum()))
        stops = np.linspace(0.0, 1.0, len(_VIRIDIS))
        for c in range(3):
            rgb[ok, c] = np.rint(np.interp(t, stops, _VIRIDIS[:, c]))
    return rgb


def _scatter(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dots on a white framed canvas, x to the right and y upward."""
    w, h, pad = 320, 240, 12
    img = np.full((h, w, 3), 255, dtype=np.uint8)
    img[[pad - 4, h - pad + 3], pad - 4:w - pad + 4] = 0
    img[pad - 4:h - pad + 4, [pad - 4, w - pad + 3]] = 0

    def px(v: np.ndarray, n: int) -> np.ndarray:
        lo, hi = v.min(), v.max()
        t = (v - lo) / (hi - lo) if hi > lo else np.full(v.shape, 0.5)
        return np.rint(pad + t * (n - 1 - 2 * pad)).astype(int)

    cols, rows = px(x, w), h - 1 - px(y, h)
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            if dx * dx + dy * dy <= 5:
                img[rows + dy, cols + dx] = _DOT_RGB
    return img


def _write_heatmaps(cfg: SweepConfig, agg_rows: Sequence[dict], outdir: str) -> None:
    """Mean-entropy heatmaps per (xi, v) plus an energy-entropy scatter.

    Each map has one block of pixels per (alpha, beta) cell, alpha rising to
    the right and beta rising upward. The images carry no text. Rendering
    problems are warnings; CSV output is the contract.
    """
    def save(name: str, rgb: np.ndarray) -> None:
        with open(os.path.join(outdir, name), "wb") as f:
            f.write(_png_bytes(rgb))

    try:
        by_cell = {(r["alpha"], r["beta"], r["xi"], r["v"]): r for r in agg_rows}
        for xi in cfg.xis:
            for v in cfg.amplitudes:
                m = np.full((len(cfg.betas), len(cfg.alphas)), np.nan)
                for ia, alpha in enumerate(cfg.alphas):
                    for ib, beta in enumerate(cfg.betas):
                        row = by_cell.get((alpha, beta, xi, v))
                        if row is not None:
                            m[ib, ia] = row["mean_entropy"]
                img = _colorize(m)[::-1].repeat(_CELL_PX, 0).repeat(_CELL_PX, 1)
                save(f"entropy_xi{xi}_v{_fmt(v)}.png", img)

        pts = [(math.log10(r["mean_energy"]), r["mean_entropy"])
               for r in agg_rows if r["mean_energy"] > 0]
        if pts:
            save("energy_vs_entropy.png", _scatter(*np.array(pts).T))
    except Exception as exc:
        warnings.warn(f"heatmap rendering failed: {exc}")


def cmd_generate(args) -> int:
    doc = cfgmod.load_config_file(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    g = cfgmod.parse_generate(doc)
    grid = Grid(g["interface_dim"], g["subdivision"])
    shape = BetaShape(g["alpha"], g["beta"])
    topo = generate_network(grid, shape, g["xi"], g["ranges"], g["seed"],
                            input_node=g["input_node"],
                            ground_node=g["ground_node"],
                            edge_count=g["edge_count"])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "topology.json")
    write_text_atomic(path, topo.to_json() + "\n")
    # the values generation accepted, as integers and floats
    edge_count = None if g["edge_count"] is None else int(g["edge_count"])
    cfg_echo = dict(grid.to_dict(), alpha=shape.alpha, beta=shape.beta,
                    xi=int(g["xi"]), edge_count=edge_count,
                    ranges=g["ranges"].to_dict(), seed=topo.seed,
                    input_node=topo.input_node, ground_node=topo.ground_node)
    write_text_atomic(os.path.join(args.out, "manifest.json"),
                      _manifest("generate", cfg_echo, [topo.seed], 1))
    print(f"wrote {path}")
    print(f"edges: {topo.edge_count} ({topo.n_augmented} added for connectivity)")
    print(f"interface nodes: {topo.grid.n_interface} of {topo.grid.n_nodes}")
    return 0


def cmd_simulate(args) -> int:
    s = cfgmod.parse_simulate(cfgmod.load_config_file(args.config))
    with open(args.topology) as f:
        text = f.read()
    try:
        topo = NetworkTopology.from_json(text)
    except Exception as exc:
        raise DataError(f"topology file {args.topology} is not usable: {exc}") from None
    trace = simulate(topo, sine_waveform(s["amplitude"], s["frequency"]),
                     s["dt"], s["duration"], decay_mode=s["decay_mode"],
                     decimation=s["decimation"])
    # the values simulate accepted, as floats and an integer
    s = dict(s, decimation=int(s["decimation"]), **{
        k: float(s[k]) for k in ("amplitude", "frequency", "dt", "duration")})
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.csv")
    write_text_atomic(trace_path, trace.to_csv())
    en = energy(trace)
    summary = {
        "energy_joules": en.energy_joules,
        "mean_power_watts": en.mean_power,
        "duration_seconds": en.duration,
        "switching_events": trace.switching_events,
        "steps": int(trace.n_steps),
        "amplitude": s["amplitude"],
        "frequency": s["frequency"],
    }
    write_text_atomic(os.path.join(args.out, "summary.json"),
                      json.dumps(summary, indent=1, sort_keys=True) + "\n")
    write_text_atomic(os.path.join(args.out, "manifest.json"),
                      _manifest("simulate", dict(s, topology=args.topology),
                                [int(topo.seed)], 1))
    print(f"wrote {trace_path} ({trace.n_steps} rows)")
    print(f"energy: {_fmt(en.energy_joules)} J, switching events: {trace.switching_events}")
    return 0


def cmd_analyze(args) -> int:
    trace = SimulationTrace.read_csv(args.trace)
    ent = entropy(trace.interface_voltages, center=not args.no_center)
    en = energy(trace)
    out = {
        "entropy_bits": ent.entropy_bits,
        "n_signals": ent.n_signals,
        "degenerate": ent.degenerate,
        "spectrum": [float(x) for x in ent.spectrum],
        "energy_joules": en.energy_joules,
        "mean_power_watts": en.mean_power,
        "centered": not args.no_center,
    }
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text_atomic(os.path.join(args.out, "analysis.json"), text)
    print(text, end="")
    return 0


def cmd_sweep(args) -> int:
    """The sweep and hierarchy commands; ``args.hierarchy`` tells them apart."""
    doc = cfgmod.load_config_file(args.config)
    if args.seed is not None:
        doc["base_seed"] = args.seed
    if args.no_center:
        doc["center"] = False
    if args.hierarchy:
        cfg, hier = cfgmod.parse_hierarchy(doc)
    else:
        cfg, hier = cfgmod.parse_sweep(doc), None

    records = run_sweep(cfg, workers=args.workers, hierarchy=hier)
    agg = aggregate(records)
    os.makedirs(args.out, exist_ok=True)
    write_text_atomic(os.path.join(args.out, "records.csv"), records_csv(records))
    write_text_atomic(os.path.join(args.out, "aggregate.csv"),
                      records_csv(agg, AGGREGATE_FIELDS))

    cfg_doc = cfgmod.sweep_config_to_dict(cfg, hier)
    seeds = [r.seed for r in records]
    write_text_atomic(os.path.join(args.out, "manifest.json"),
                      _manifest(args.command, cfg_doc, seeds, args.workers))
    if args.heatmap:
        _write_heatmaps(cfg, agg, args.out)

    failed = sum(1 for r in records if r.error)
    print(f"records: {len(records)} ({failed} failed)")
    print(f"wrote {args.out}/records.csv, aggregate.csv, manifest.json")
    if failed == len(records):
        log.error("every cell failed")
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rsnsim",
        description="Random resistive-switch network simulator")
    p.add_argument("--version", action="version", version=f"rsnsim {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, workers=False):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--out", default=".", help="output directory")
        if workers:
            sp.add_argument("--workers", type=int, default=1,
                            help="parallel worker processes")
            sp.add_argument("--heatmap", action="store_true",
                            help="also render heatmap/scatter images")
            sp.add_argument("--no-center", action="store_true",
                            help="entropy on the literal uncentered Gram matrix")

    sp = sub.add_parser("generate", help="generate a network topology file")
    common(sp)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("simulate", help="time-step a topology file")
    common(sp)
    sp.add_argument("--topology", required=True, help="topology JSON file")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("analyze", help="entropy/energy of a trace CSV")
    sp.add_argument("--trace", required=True, help="trace CSV file")
    sp.add_argument("--out", default=None, help="optional output directory")
    sp.add_argument("--no-center", action="store_true",
                    help="entropy on the literal uncentered Gram matrix")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("sweep", help="run the (alpha, beta, xi, v) grid")
    common(sp, workers=True)
    sp.set_defaults(func=cmd_sweep, hierarchy=False)

    sp = sub.add_parser("hierarchy", help="sweep with K independent networks per cell")
    common(sp, workers=True)
    sp.set_defaults(func=cmd_sweep, hierarchy=True)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        log.error("config error: %s", exc)
        return 1
    except (OSError, DataError) as exc:
        log.error("i/o error: %s", exc)
        return 2
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        return 3
    except RsnError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
