"""The per-level stacks of a coordinate tuple and the self-commutators built on them."""

import numpy as np
import pytest

import gradmod as gm
from normality_oracle import self_commutator_block


@pytest.fixture
def module():
    return gm.StandardModule(gm.make_weights("hardy", 6, d=2), d=2)


def test_commutator_matches_direct_construction(module):
    # [T_j*, T_k] for every pair on every stored level, against the dense
    # multi-level product
    comms = gm.self_commutators(module.coordinate_tuple())
    assert sorted(comms) == list(range(6))
    for n, stack in comms.items():
        assert stack.shape == (2, 2) + (module.level_dim(n),) * 2
        for j in (1, 2):
            for k in (1, 2):
                np.testing.assert_allclose(
                    stack[j - 1, k - 1], self_commutator_block(module, j, k, n),
                    rtol=0, atol=1e-14)


def test_missing_block_raises(module):
    # the tuple stores the levels 0..N-1 that have a block above them
    ops = module.coordinate_tuple()
    assert sorted(ops) == list(range(6))
    with pytest.raises(KeyError):
        ops[module.top_level]
