"""The benchmark's span tracer patches rsnsim functions by name.

A renamed or moved function would drop out of the per-layer split without
an error, so every patch target must resolve where the tracer looks it up,
and the traced counts must agree with the records.
"""

import tracemalloc

import numpy as np
import pytest

from perfbench.tracer import PATCHES, Tracer
from rsnsim import harness, solver
from rsnsim.device import default_ranges
from rsnsim.harness import HierarchyConfig, SweepConfig
from rsnsim.topology import BetaShape, Grid, generate_network


@pytest.mark.parametrize("owner,attr", [(o, a) for o, a, _, _ in PATCHES],
                         ids=[f"{o.__name__}.{a}" for o, a, _, _ in PATCHES])
def test_patch_target_resolves(owner, attr):
    assert attr in vars(owner)
    target = vars(owner)[attr]
    assert callable(target) or isinstance(target, classmethod)


def test_traced_counts_match_records():
    """The counts ``perfbench/run.py --trace 1`` checks against the records."""
    cfg = SweepConfig(duration=0.05)
    steps = 50
    tracer = Tracer()
    tracer.install()
    try:
        for hier in (HierarchyConfig(k=3), None):
            if hier:
                rec = harness.run_hierarchy(cfg, hier, 1.0, 2.0, 2, 8.0, seed=5)
            else:
                rec = harness.run_single(cfg, 1.0, 2.0, 2, 8.0, seed=5)
            c = tracer.take_counts()
            networks = hier.k if hier else 1
            assert rec.error == "" and rec.switching_events > 0
            assert c["solver.solves"] == steps * networks
            assert c["device.edge_evals"] == 3 * steps * rec.edge_count
            assert c["device.switching_events"] == rec.switching_events
            assert c["topology.edges"] == rec.edge_count
    finally:
        tracer.uninstall()


def test_every_lu_runs_inside_a_solve_span(monkeypatch):
    """A K=3 lockstep step solves its members as one stack, inside the
    first member's ``solver.solve`` span: ``solver.solve_s`` holds every LU,
    and ``solver.solves`` and ``solver.dim`` stay one per member per step."""
    cfg, hier = SweepConfig(duration=0.05), HierarchyConfig(k=3)
    tracer = Tracer()
    real, spans, rows = np.linalg.solve, [], []

    def lu(a, b):
        spans.append((tracer.names[tracer.name[tracer._stack[-1]]], a.ndim))
        rows.append(a.shape[-1] * (a.shape[0] if a.ndim == 3 else 1))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", lu)
    tracer.install()
    try:
        rec = harness.run_hierarchy(cfg, hier, 1.0, 2.0, 2, 8.0, seed=5)
        c = tracer.take_counts()
    finally:
        tracer.uninstall()
    assert rec.error == ""
    # at this seed two members share a size and are solved as one stack
    assert set(spans) == {("solver.solve", 2), ("solver.solve", 3)}
    assert c["solver.solves"] == 50 * hier.k
    assert c["solver.dim_sum"] == sum(rows)  # the rows the LU calls solved


def test_traced_counts_of_a_cg_size_run():
    """A member of ``_CG_MIN_DIM`` rows or more stores no dense matrix: its
    ``matrix`` is sparse, with the dense ``shape`` the tracer reads.  So on
    a 256-node network the solve counts stay exact, and the traced run
    never holds a dense matrix's d x d x 8 bytes (measured: 419 KB against
    524 KB, and 838 KB where each read of ``matrix`` built one)."""
    t = generate_network(Grid(6, 2), BetaShape(1, 5), 4, default_ranges(), 0)
    labels = t.check()
    dim = int(np.count_nonzero(labels == labels[t.ground_node]))  # unknowns + 1
    assert dim >= solver._CG_MIN_DIM
    tracer = Tracer()
    tracer.install()
    tracemalloc.start()
    try:
        solver.simulate(t, solver.sine_waveform(4.0), dt=1e-3, duration=0.05)
        peak = tracemalloc.get_traced_memory()[1]
        c = tracer.take_counts()
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    assert peak < dim * dim * 8
    assert c["solver.solves"] == 50
    assert c["solver.dim_sum"] == 50 * dim
