import random
from contextlib import contextmanager

import pytest

from matsing import set_step_limit


@pytest.fixture
def rng():
    return random.Random(20240817)


@contextmanager
def budget(n):
    """Run the block under a step limit of n, then restore the old limit."""
    old = set_step_limit(n)
    try:
        yield
    finally:
        set_step_limit(old)
