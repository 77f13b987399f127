import numpy as np
import pytest

from mobench.harness import ALGORITHMS, ENGINES
from mobench.problems import decode
from mobench.suite import coil_spring


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_stored_genotype_is_decoded(algorithm):
    # the population holds decoded vectors, which SBX and mutation then
    # perturb; every stored row is already a legal decision vector
    engine_cls, config_cls = ENGINES[algorithm]
    problem = coil_spring()
    engine = engine_cls(config_cls(n_pop=16, seed=2), problem)
    engine.initialize()
    for _ in range(3):
        engine.step()
    for row in engine.X:
        assert np.array_equal(row, decode(row, problem))
