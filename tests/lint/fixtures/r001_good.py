"""R001 fixture: every stream derives from the run seed."""

import numpy as np


def make_stream(seed):
    return np.random.default_rng(seed)


def make_side_stream(seed):
    return np.random.default_rng((seed, 0x5E51))
