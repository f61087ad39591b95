import numpy as np

from fracstable._kernels import BACKEND, reflected_terminal


def _reflected_terminal_loop(inc, at_sup):
    # one path at a time: running sum, sup and inf, all starting at 0
    out = np.empty(inc.shape[0])
    for p, row in enumerate(inc):
        z = s = i = 0.0
        for step in row:
            z += step
            s = max(s, z)
            i = min(i, z)
        out[p] = (s - z) if at_sup else (z - i)
    return out


def test_active_backend_exported():
    assert BACKEND == "numpy"


def test_reflection_matches_reference_implementation():
    rng = np.random.default_rng(0)
    inc = rng.standard_normal((50, 33))
    for at_sup in (True, False):
        np.testing.assert_array_equal(reflected_terminal(inc, at_sup),
                                      _reflected_terminal_loop(inc, at_sup))


def test_reflected_values_nonnegative_and_correct_on_tiny_case():
    # hand-checked walk: increments 1, -3, 1 -> z = 1, -2, -1
    inc = np.array([[1.0, -3.0, 1.0]])
    # sup = max(0, 1) = 1, terminal = -1 -> reflected at sup: 1 - (-1) = 2
    assert reflected_terminal(inc, True)[0] == 2.0
    # inf = min(0, -2) = -2 -> reflected at inf: -1 - (-2) = 1
    assert reflected_terminal(inc, False)[0] == 1.0
