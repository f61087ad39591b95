"""Reflection kernel for the random-walk path simulator."""

import numpy as np

# the one backend; kept as a name because benchmark results stamp it
BACKEND = "numpy"


def reflected_terminal(inc, at_sup):
    """Terminal reflected values from an (n_paths, n_steps) increment array.

    at_sup True : S_1 - Z_1 (reflect at running supremum)
    at_sup False: Z_1 - I_1 (reflect at running infimum)
    The walk starts at 0 and the extrema include the starting point.
    """
    z = np.cumsum(inc, axis=1)
    if at_sup:
        s = np.maximum(np.maximum.accumulate(z, axis=1)[:, -1], 0.0)
        return s - z[:, -1]
    i = np.minimum(np.minimum.accumulate(z, axis=1)[:, -1], 0.0)
    return z[:, -1] - i
