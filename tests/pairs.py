"""Helpers shared by the test modules: a segment pair tested as its own
one-boundary partition, and readers of a BoundaryTests' columns."""

import numpy as np

from arcpd.ar import DegenerateFitError
from arcpd.sdtest import discrimination_test


def pair_test(x, y, mode=None):
    """Test x against y as the one-boundary partition and return its
    BoundaryTests; an untestable boundary's warning is raised as a
    DegenerateFitError."""
    tests = discrimination_test(np.concatenate([x, y]), [len(x)], mode)
    if not tests.tested[0]:
        raise DegenerateFitError(tests.warnings[0])
    return tests


def fit_orders(tests, i=0):
    """Boundary i's (first, second, pooled) fit orders, off the orders column."""
    return tuple(tests.orders[:, i].tolist())


def assert_same_tests(a, b):
    """a and b hold the same boundary tests: every column and every warning."""
    for name in ("bounds", "p_values", "statistics", "df", "orders", "sigma2", "tested"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert a.warnings == b.warnings
