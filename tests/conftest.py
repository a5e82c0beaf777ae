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


def _datasets_equal(a, b) -> bool:
    """Same class count, and bit-equal inputs and labels."""
    return (a.n_classes == b.n_classes
            and a.inputs.shape == b.inputs.shape
            and np.array_equal(a.inputs, b.inputs)
            and np.array_equal(a.labels, b.labels))


@pytest.fixture
def datasets_equal():
    """The equality test for two ``data.Dataset``s."""
    return _datasets_equal
