"""The four benchmark workloads.

Each workload is built from the seed by its constructor in ``WORKLOADS``
(that is the set-up the benchmark times).  It exposes one *round* as a
fixed list of items, runs one item through the public rsnsim API in
``call`` (the timed part) and turns the raw result into an ``Outcome`` in
``outcome`` (untimed: file parsing and clean-up for the CLI pipeline).  A
record is one item.

Importing this module imports rsnsim and numpy, so the benchmark imports it
inside the timed set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass

from rsnsim import cli, harness
from rsnsim.harness import HierarchyConfig, SweepConfig, derive_seed


@dataclass(frozen=True)
class Outcome:
    """The values of one record that the output check compares."""

    entropy_bits: float
    energy_joules: float
    switching_events: int
    edge_count: int

    def as_list(self) -> list:
        return [self.entropy_bits, self.energy_joules, self.switching_events,
                self.edge_count]


def _canonical_items(cfg: SweepConfig) -> list:
    """(alpha, beta, xi, v, trial, seed) in ``run_sweep``'s record order."""
    return [(alpha, beta, xi, v, trial,
             derive_seed(cfg.base_seed, ia, ib, ix, iv, trial))
            for ia, alpha in enumerate(cfg.alphas)
            for ib, beta in enumerate(cfg.betas)
            for ix, xi in enumerate(cfg.xis)
            for iv, v in enumerate(cfg.amplitudes)
            for trial in range(cfg.trials)]


class HarnessWorkload:
    """Records that call ``run_hierarchy`` when ``hier`` is set, else
    ``run_single``, over ``cfg``'s grid in ``run_sweep``'s record order."""

    def __init__(self, name: str, cfg: SweepConfig, steps: int,
                 hier: HierarchyConfig | None = None):
        self.name = name
        self.cfg = cfg
        self.hier = hier
        self.steps = steps
        self.networks_per_record = hier.k if hier else 1
        # a hierarchy cell has one differential readout per member
        self.n_signals = hier.k if hier else cfg.interface_dim ** 2
        self.items = _canonical_items(cfg)

    def call(self, item):
        alpha, beta, xi, v, trial, seed = item
        if self.hier:
            return harness.run_hierarchy(self.cfg, self.hier, alpha, beta, xi,
                                         v, seed, trial)
        return harness.run_single(self.cfg, alpha, beta, xi, v, seed, trial)

    def outcome(self, item, raw) -> Outcome:
        if raw.error:
            raise RuntimeError(raw.error)
        return Outcome(raw.entropy_bits, raw.energy_joules,
                       raw.switching_events, raw.edge_count)


def sweep49(seed: int, workdir: str) -> HarnessWorkload:
    """A 16-cell slice of the paper grid, 2 trials each, on the 49-node lattice.

    The drives are 1 V and 4 V, not 1 V and 8 V: at 8 V about one xi=8
    network in 250 fails the solver's residual check, and the benchmark
    needs workloads on which nothing fails.
    """
    return HarnessWorkload("sweep49", SweepConfig(
        alphas=(1.0, 10.0), betas=(1.0, 10.0), xis=(2, 8),
        amplitudes=(1.0, 4.0), trials=2, base_seed=seed), steps=1000)


def hier49_k16(seed: int, workdir: str) -> HarnessWorkload:
    """Two K=16 hierarchy cells that differ only in drive amplitude."""
    return HarnessWorkload("hier49_k16", SweepConfig(
        alphas=(1.0,), betas=(5.0,), xis=(4,), amplitudes=(2.0, 8.0),
        trials=1, base_seed=seed), steps=1000,
        hier=HierarchyConfig(k=16, readout_a=2, readout_b=9))


def large841(seed: int, workdir: str) -> HarnessWorkload:
    """Short runs on the 841-node lattice, where the dense solve dominates.

    The drive is 4 V, not 8 V: at 8 V about one 841-node network in 28
    fails the solver's residual check near the waveform peak, and the
    benchmark needs workloads on which nothing fails.
    """
    return HarnessWorkload("large841", SweepConfig(
        alphas=(1.0,), betas=(1.0,), xis=(4,), amplitudes=(4.0,), trials=2,
        base_seed=seed, interface_dim=8, subdivision=3, duration=0.1),
        steps=100)


# The README's example configs; the network seed comes from --seed.
GENERATE_CONFIG = {"interface_dim": 4, "subdivision": 1, "alpha": 10,
                   "beta": 1, "xi": 4, "seed": 7}
SIMULATE_CONFIG = {"amplitude": 8.0, "frequency": 5.0, "dt": 0.001,
                   "duration": 1.0}


class Cli49:
    """In-process ``rsnsim generate -> simulate -> analyze``, one network each."""

    name = "cli49"
    networks_per_record = 1
    steps = 1000
    n_signals = 16
    pipelines_per_round = 16

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.gen_config = os.path.join(workdir, "gen.json")
        self.sim_config = os.path.join(workdir, "sim.json")
        for path, doc in ((self.gen_config, GENERATE_CONFIG),
                          (self.sim_config, SIMULATE_CONFIG)):
            with open(path, "w") as f:
                json.dump(doc, f)
        self.items = [derive_seed(seed, i) for i in range(self.pipelines_per_round)]

    def call(self, item):
        out = tempfile.mkdtemp(dir=self.workdir, prefix="pipeline-")
        for argv in self.argvs(item, out):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"rsnsim {argv[0]} exited with {code}")
        return out

    def argvs(self, seed: int, out: str) -> list:
        return [["generate", "--config", self.gen_config, "--seed", str(seed),
                 "--out", out],
                ["simulate", "--topology", os.path.join(out, "topology.json"),
                 "--config", self.sim_config, "--out", out],
                ["analyze", "--trace", os.path.join(out, "trace.csv"),
                 "--out", out]]

    def outcome(self, item, raw) -> Outcome:
        try:
            docs = {}
            for name in ("topology", "summary", "analysis"):
                with open(os.path.join(raw, name + ".json")) as f:
                    docs[name] = json.load(f)
        finally:
            shutil.rmtree(raw, ignore_errors=True)
        return Outcome(docs["analysis"]["entropy_bits"],
                       docs["analysis"]["energy_joules"],
                       docs["summary"]["switching_events"],
                       len(docs["topology"]["edges"]))


# workload name -> constructor taking (seed, workdir)
WORKLOADS = {"sweep49": sweep49, "hier49_k16": hier49_k16,
             "large841": large841, "cli49": Cli49}


def invariant_errors(wl, o: Outcome) -> list:
    """Checks that hold for every seed."""
    errors = []
    if not all(math.isfinite(x) for x in (o.entropy_bits, o.energy_joules)):
        errors.append("non-finite value")
    elif not 0.0 <= o.entropy_bits <= math.log2(wl.n_signals) + 1e-9:
        errors.append(f"entropy {o.entropy_bits!r} outside [0, log2 {wl.n_signals}]")
    elif not o.energy_joules > 0.0:
        errors.append(f"energy {o.energy_joules!r} not > 0")
    if o.switching_events < 0 or o.edge_count < 1:
        errors.append("negative switching or empty network")
    return errors
