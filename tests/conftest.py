import numpy as np
import pytest

from pararp.algebra import Polynomial
from pararp.representation import build_generators

_CACHE = {}


def rep_for(n, L):
    key = (n, L)
    if key not in _CACHE:
        _CACHE[key] = build_generators(n, L)
    return _CACHE[key]


@pytest.fixture
def rep():
    return rep_for


def stack_polynomials(stack):
    """The Polynomial of each block of an rp.RowStack."""
    ends = np.cumsum(stack.sizes).tolist()
    return [Polynomial._from_arrays(stack.exponents[i:j], stack.coeffs[i:j],
                                    stack.order, stack.exponents.shape[1])
            for i, j in zip([0, *ends], ends)]
