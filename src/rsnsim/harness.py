"""Experiment orchestration: single runs, parameter sweeps, hierarchies.

A sweep walks the Cartesian grid (alpha, beta, xi, v) x trials; every
cell-trial derives its own seed from the base seed and the cell
coordinates, so records are reproducible and independent of scheduling.
The hierarchy mode drives K independently generated networks with the
same waveform and measures entropy over their differential readouts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .analysis import check_readout, differential_readout, energy, entropy
from .device import ParamRanges, default_ranges
from .errors import ConfigError, ParameterError, RsnError, _finite, _integral
from .solver import (DEFAULT_DT, DEFAULT_DURATION, DEFAULT_FREQUENCY,
                     check_settings, simulate, sine_waveform)
from .topology import BetaShape, Grid, edge_total, generate_network


@dataclass(frozen=True)
class SweepConfig:
    """The experiment grid plus everything a single run needs."""

    alphas: Tuple[float, ...] = (1.0, 2.0, 3.0, 5.0, 7.0, 10.0)
    betas: Tuple[float, ...] = (1.0, 2.0, 3.0, 5.0, 7.0, 10.0)
    xis: Tuple[int, ...] = (2, 4, 6, 8)
    amplitudes: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    trials: int = 10
    base_seed: int = 0
    interface_dim: int = 4
    subdivision: int = 1
    ranges: ParamRanges = field(default_factory=default_ranges)
    dt: float = DEFAULT_DT
    duration: float = DEFAULT_DURATION
    frequency: float = DEFAULT_FREQUENCY
    center: bool = True
    decay_mode: str = "state_dependent"
    edge_count: Optional[int] = None

    def __post_init__(self):
        """Apply the number rules of config files to every field and reject,
        before any run, a value that would fail every record: a rule's owner
        raises ParameterError, raised again here as ConfigError."""
        def put(name, value):
            object.__setattr__(self, name, value)

        for name in ("alphas", "betas", "amplitudes"):
            put(name, tuple(_finite(x, name, ConfigError) for x in getattr(self, name)))
        put("xis", tuple(_integral(x, "xis", ConfigError) for x in self.xis))
        for name in ("trials", "base_seed", "interface_dim", "subdivision"):
            put(name, _integral(getattr(self, name), name, ConfigError))
        put("frequency", _finite(self.frequency, "frequency", ConfigError))
        if self.edge_count is not None:
            put("edge_count", _integral(self.edge_count, "edge_count", ConfigError))
        for name in ("alphas", "betas", "xis", "amplitudes"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"{name} must be non-empty")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials!r}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed!r}")
        if not isinstance(self.center, bool):
            raise ConfigError(f"'center' must be true or false, got {self.center!r}")
        where = ""
        try:
            dt, duration, _, n_steps = check_settings(self.dt, self.duration, 1,
                                                      self.decay_mode)
            grid = Grid(self.interface_dim, self.subdivision)
            for xi in self.xis:
                where = f"xis x edge_count cell ({xi!r}, {self.edge_count!r}): "
                edge_total(grid, xi, self.edge_count)
            for alpha, beta in itertools.product(self.alphas, self.betas):
                where = f"alphas x betas cell ({alpha!r}, {beta!r}): "
                BetaShape(alpha, beta)
        except ParameterError as exc:
            raise ConfigError(where + str(exc)) from None
        if n_steps < 2:
            raise ConfigError(f"duration / dt gives {n_steps} step, too few for entropy")
        put("dt", dt)
        put("duration", duration)


@dataclass(frozen=True)
class HierarchyConfig:
    """K independent networks sharing one input waveform.

    Readout labels are 1-based interface node numbers (trace CSV naming).
    """

    k: int = 16
    readout_a: int = 2
    readout_b: int = 9

    def __post_init__(self):
        for name in ("k", "readout_a", "readout_b"):
            object.__setattr__(self, name,
                               _integral(getattr(self, name), name, ConfigError))
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k!r}")


@dataclass
class SweepRecord:
    """One (cell, trial) outcome; ``error`` is empty on success."""

    alpha: float
    beta: float
    xi: int
    v: float
    trial: int
    seed: int
    entropy_bits: float
    energy_joules: float
    switching_events: int
    edge_count: int
    error: str = ""


def derive_seed(base_seed: int, *coords: int) -> int:
    """Stable per-cell seed from the base seed and cell coordinates."""
    ss = np.random.SeedSequence([int(base_seed), *[int(c) for c in coords]])
    return int(ss.generate_state(1)[0])


def _make_topology(cfg: SweepConfig, alpha: float, beta: float, xi: int, seed: int):
    return generate_network(Grid(cfg.interface_dim, cfg.subdivision),
                            BetaShape(alpha, beta), xi, cfg.ranges, seed,
                            edge_count=cfg.edge_count)


def run_single(cfg: SweepConfig, alpha: float, beta: float, xi: int, v: float,
               seed: int, trial: int = 0) -> SweepRecord:
    """Generate one network, simulate it, and measure entropy and energy.

    Entropy is taken over all interface-node columns of the trace.
    """
    topo = _make_topology(cfg, alpha, beta, xi, seed)
    trace = simulate(topo, sine_waveform(v, cfg.frequency), cfg.dt, cfg.duration,
                     decay_mode=cfg.decay_mode)
    ent = entropy(trace.interface_voltages, center=cfg.center)
    en = energy(trace)
    return SweepRecord(alpha=alpha, beta=beta, xi=xi, v=v, trial=trial,
                       seed=seed, entropy_bits=ent.entropy_bits,
                       energy_joules=en.energy_joules,
                       switching_events=trace.switching_events,
                       edge_count=topo.edge_count)


def run_hierarchy(cfg: SweepConfig, hier: HierarchyConfig, alpha: float,
                  beta: float, xi: int, v: float, seed: int,
                  trial: int = 0) -> SweepRecord:
    """Simulate K independent networks in lockstep under the same waveform.

    Entropy is measured over the K differential readouts; energies add
    (the member circuits are disjoint).  Each member's trace records only
    its two readout posts.  A failing cell names its
    lowest-index failing member with that member's own error, exactly as
    if the members ran one after another.  An error of every member at
    once, such as a bad setting, is raised as it is.
    """
    check_readout(cfg.interface_dim ** 2, hier.readout_a, hier.readout_b)
    seeds = [derive_seed(seed, k) for k in range(hier.k)]
    topos, failure = [], None
    for k, mseed in enumerate(seeds):
        try:
            topos.append(_make_topology(cfg, alpha, beta, xi, mseed))
        except Exception as exc:
            failure = (k, exc)
            break
    if topos:
        try:  # a batch raises its lowest-index failing member's error
            traces = simulate(topos, sine_waveform(v, cfg.frequency), cfg.dt,
                              cfg.duration, decay_mode=cfg.decay_mode,
                              interface=(hier.readout_a, hier.readout_b))
        except Exception as exc:
            if not hasattr(exc, "member"):
                raise
            failure = (exc.member, exc)
    if failure:
        k, exc = failure
        raise RsnError(f"hierarchy member {k} (seed {seeds[k]}) failed: "
                       f"{exc}") from exc
    readouts = [differential_readout(trace, 1, 2) for trace in traces]
    total_energy = 0.0
    for trace in traces:  # left to right; sum() compensates on Python >= 3.12
        total_energy += energy(trace).energy_joules
    ent = entropy(np.column_stack(readouts), center=cfg.center)
    return SweepRecord(alpha=alpha, beta=beta, xi=xi, v=v, trial=trial,
                       seed=seed, entropy_bits=ent.entropy_bits,
                       energy_joules=total_energy,
                       switching_events=traces.switching_events,
                       edge_count=sum(t.edge_count for t in topos))


def _cells(cfg: SweepConfig):
    """Canonical record order: cell coordinates, then trial."""
    for ia, alpha in enumerate(cfg.alphas):
        for ib, beta in enumerate(cfg.betas):
            for ix, xi in enumerate(cfg.xis):
                for iv, v in enumerate(cfg.amplitudes):
                    for trial in range(cfg.trials):
                        seed = derive_seed(cfg.base_seed, ia, ib, ix, iv, trial)
                        yield (alpha, beta, xi, v, trial, seed)


def _run_item(args) -> SweepRecord:
    cfg, hier, (alpha, beta, xi, v, trial, seed) = args
    try:
        if hier is None:
            return run_single(cfg, alpha, beta, xi, v, seed, trial)
        return run_hierarchy(cfg, hier, alpha, beta, xi, v, seed, trial)
    except Exception as exc:  # record-and-continue policy
        msg = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
        return SweepRecord(alpha=alpha, beta=beta, xi=xi, v=v, trial=trial,
                           seed=seed, entropy_bits=float("nan"),
                           energy_joules=float("nan"), switching_events=0,
                           edge_count=0, error=msg)


def run_sweep(cfg: SweepConfig, workers: int = 1,
              hierarchy: Optional[HierarchyConfig] = None) -> List[SweepRecord]:
    """Run every (cell, trial) of the grid; failures are recorded, not raised.

    Results are returned in canonical cell order regardless of worker
    count, so identical configs always produce identical record lists.
    A worker count below 1 or readout labels that ``check_readout`` rejects
    raise ConfigError before any run.  No more workers start than records.
    """
    workers = _integral(workers, "workers", ConfigError)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers!r}")
    if hierarchy is not None:
        try:
            check_readout(cfg.interface_dim ** 2, hierarchy.readout_a,
                          hierarchy.readout_b)
        except ParameterError as exc:
            raise ConfigError(f"readout_a, readout_b: {exc}") from None
    items = [(cfg, hierarchy, cell) for cell in _cells(cfg)]
    workers = min(workers, len(items))
    if workers == 1:
        return [_run_item(it) for it in items]
    # imported here: it loads multiprocessing, which a one-worker run never needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_item, items, chunksize=max(1, len(items) // (4 * workers))))


def aggregate(records: Sequence[SweepRecord]) -> List[dict]:
    """Per-cell mean/std of entropy and energy over successful trials."""
    cells = {}
    for r in records:
        cells.setdefault((r.alpha, r.beta, r.xi, r.v), []).append(r)
    rows = []
    for (alpha, beta, xi, v), recs in sorted(cells.items()):
        ok = [r for r in recs if not r.error]
        h = np.array([r.entropy_bits for r in ok])
        e = np.array([r.energy_joules for r in ok])
        s = np.array([r.switching_events for r in ok])
        rows.append({
            "alpha": alpha, "beta": beta, "xi": xi, "v": v,
            "n_trials": len(recs), "n_failed": len(recs) - len(ok),
            "mean_entropy": float(h.mean()) if ok else math.nan,
            "std_entropy": float(h.std(ddof=1)) if len(ok) > 1 else 0.0 if ok else math.nan,
            "mean_energy": float(e.mean()) if ok else math.nan,
            "std_energy": float(e.std(ddof=1)) if len(ok) > 1 else 0.0 if ok else math.nan,
            "mean_switching": float(s.mean()) if ok else math.nan,
        })
    return rows


AGGREGATE_FIELDS = ("alpha", "beta", "xi", "v", "n_trials", "n_failed",
                    "mean_entropy", "std_entropy", "mean_energy", "std_energy",
                    "mean_switching")
