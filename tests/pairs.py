"""A segment pair tested as its own one-boundary partition (shared by the test modules)."""

import numpy as np

from arcpd.ar import DegenerateFitError
from arcpd.sdtest import discrimination_test


def pair_test(x, y, mode=None):
    """Test x against y as the one-boundary partition and return its record;
    an untestable boundary's warning is raised as a DegenerateFitError."""
    (bt,) = discrimination_test(np.concatenate([x, y]), [len(x)], mode)
    if bt.result is None:
        raise DegenerateFitError(bt.warning)
    return bt
