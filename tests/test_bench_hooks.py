"""The benchmark's span tracer patches rsnsim functions by name.

A renamed or moved function would drop out of the per-layer split without
an error, so every patch target must resolve where the tracer looks it up.
"""

import pytest

from perfbench.tracer import PATCHES


@pytest.mark.parametrize("owner,attr", [(o, a) for o, a, _, _ in PATCHES],
                         ids=[f"{o.__name__}.{a}" for o, a, _, _ in PATCHES])
def test_patch_target_resolves(owner, attr):
    assert attr in vars(owner)
    target = vars(owner)[attr]
    assert callable(target) or isinstance(target, classmethod)
