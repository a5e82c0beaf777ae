import numpy as np
import pytest


def _weights_equal(a, b) -> bool:
    """Same architecture, same parameter names and bit-equal arrays."""
    return (a.arch == b.arch and a.params.keys() == b.params.keys()
            and all(np.array_equal(a.params[k], b.params[k])
                    for k in a.params))


@pytest.fixture
def weights_equal():
    """The equality test for two ``model.ModelWeights``."""
    return _weights_equal
