"""The graded block container and the self-commutator blocks built on it."""

import numpy as np
import pytest

import gradmod as gm
from normality_oracle import self_commutator_block


@pytest.fixture
def module():
    return gm.StandardModule(gm.make_weights("hardy", 6, d=2), d=2)


def test_commutator_matches_direct_construction(module):
    # [T_j*, T_k] on every stored level, against the dense multi-level product
    ops = module.coordinate_tuple()
    for j in (1, 2):
        for k in (1, 2):
            comm = gm.self_commutator(ops, j, k)
            assert comm.levels() == list(range(6))
            for n in comm.levels():
                np.testing.assert_allclose(
                    comm.block(n), self_commutator_block(module, j, k, n),
                    rtol=0, atol=1e-14)


def test_missing_block_raises(module):
    t1, _ = module.coordinate_tuple()
    with pytest.raises(KeyError):
        t1.block(17)
