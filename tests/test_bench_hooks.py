"""The benchmark's span tracer patches rsnsim functions by name.

A renamed or moved function would drop out of the per-layer split without
an error, so every patch target must resolve where the tracer looks it up,
and the traced counts must agree with the records.
"""

import pytest

from perfbench.tracer import PATCHES, Tracer
from rsnsim import harness
from rsnsim.harness import HierarchyConfig, SweepConfig


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
