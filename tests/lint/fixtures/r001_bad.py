"""R001 fixture: an RNG seeded from OS entropy, and a salted key whose seed is a constant."""

import numpy as np


def make_stream():
    rng = np.random.default_rng()
    return rng


def make_side_stream():
    return np.random.default_rng((0, 0x5E51))
