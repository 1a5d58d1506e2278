"""In-memory span tracer that wraps rsnsim functions from outside the package.

Each wrapper replaces a function on the module (or class) where its caller
looks it up, records a span (name, start, end, parent span, record id) in
CPU seconds, and bumps exact counters from the call's arguments or result.
Spans stay in flat arrays until ``save`` writes them out.  A layer's self
time is its span time minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

from rsnsim import cli, device, harness, solver, topology
from rsnsim.solver import SimulationTrace
from rsnsim.topology import NetworkTopology


def _count_kernel(c, args, result):
    c["device.calls"] += 1
    c["device.edge_evals"] += len(result)


def _count_solve(c, args, result):
    dim = int(args[0].matrix.shape[0])
    c["solver.solves"] += 1
    c["solver.dim_sum"] += dim
    c["solver.flop"] += 2 * dim ** 3 // 3
    c["solver.matrix_bytes"] += dim * dim * 8


def _count_simulate(c, args, result):
    c["device.switching_events"] += result.switching_events


def _count_generate(c, args, result):
    c["topology.edges"] += result.edge_count
    c["topology.augmented_edges"] += result.n_augmented


def _count_csv(c, args, result):
    c["solver.trace_bytes"] += len(result)


# (owner, attribute, span name, counter): every call site the benchmark
# workloads reach, patched where the caller resolves the name.
PATCHES = (
    (harness, "generate_network", "topology.generate", _count_generate),
    (cli, "generate_network", "topology.generate", _count_generate),
    (topology, "distance_map", "topology.distance_map", None),
    (topology, "ensure_connected", "topology.connect", None),
    (NetworkTopology, "to_json", "topology.json_write", None),
    (NetworkTopology, "from_json", "topology.json_read", None),
    (device, "conductance_batch", "device.conductance", _count_kernel),
    (device, "advance_state_batch", "device.advance", _count_kernel),
    (device, "hysteresis_batch", "device.hysteresis", _count_kernel),
    (harness, "simulate", "solver.simulate", _count_simulate),
    (cli, "simulate", "solver.simulate", _count_simulate),
    (solver, "solve_step", "solver.solve", _count_solve),
    (SimulationTrace, "to_csv", "solver.csv_write", _count_csv),
    (SimulationTrace, "read_csv", "solver.csv_read", None),
    (harness, "entropy", "analysis.entropy", None),
    (harness, "energy", "analysis.energy", None),
    (harness, "differential_readout", "analysis.readout", None),
    (cli, "entropy", "analysis.entropy", None),
    (cli, "energy", "analysis.energy", None),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.record = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.record_id = -1
        self.counts: Counter = Counter()
        self._saved: list = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.record.append(self.record_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.process_time())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.process_time()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def _wrap_cli_main(self, fn):
        nids = {cmd: self.intern(f"cli.{cmd}")
                for cmd in ("generate", "simulate", "analyze")}

        @functools.wraps(fn)
        def traced(argv):
            idx = self.open(nids[argv[0]])
            try:
                return fn(argv)
            finally:
                self.close(idx)
        return traced

    def install(self) -> None:
        self._saved.append((cli, "main", cli.main))
        cli.main = self._wrap_cli_main(cli.main)
        for owner, attr, name, count in PATCHES:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                new = staticmethod(self.wrap(name, getattr(owner, attr), count))
            else:
                new = self.wrap(name, original, count)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take_counts(self) -> Counter:
        counts, self.counts = self.counts, Counter()
        return counts

    def layer_times(self) -> tuple:
        """(total, self) CPU seconds per span name over every recorded span."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parents >= 0
        children = np.bincount(parents[child], weights=dur[child],
                               minlength=dur.size)
        k = len(self.names)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - children, minlength=k)
        return ({n: float(total[i]) for i, n in enumerate(self.names)},
                {n: float(own[i]) for i, n in enumerate(self.names)})

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            record=np.frombuffer(self.record, dtype=np.int32),
                            start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end))
