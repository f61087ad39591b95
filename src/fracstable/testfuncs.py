"""Built-in smooth test functions with analytic derivatives.

All three pass the operator-domain gate for every alpha in (1,2).  cauchy2
decays only quadratically, so its certificate uses gamma = 1 (any exponent
strictly below the true decay rate is admissible; 1 > 2 - alpha for all
alpha in (1,2)).

Each callable takes a float or an ndarray.  Floats go through math.exp and
arrays through numpy: np.exp differs from math.exp in the last bit for
some inputs, and scalar values stay those of math.exp.  The choice is made
inline, since adaptive_quad's integrands call these a float at a time.
"""

import math

import numpy as np

from .fracops import SmoothTestFunction

gauss = SmoothTestFunction(
    eval_f=lambda x: (
        math.exp(-x * x) if isinstance(x, float) else np.exp(-x * x)),
    eval_f1=lambda x: -2.0 * x * (
        math.exp(-x * x) if isinstance(x, float) else np.exp(-x * x)),
    eval_f2=lambda x: (4.0 * x * x - 2.0) * (
        math.exp(-x * x) if isinstance(x, float) else np.exp(-x * x)),
    decay_gamma=6.0,
    fprime0_is_zero=True,
    name="gauss",
)

cauchy2 = SmoothTestFunction(
    eval_f=lambda x: 1.0 / (1.0 + x * x),
    eval_f1=lambda x: -2.0 * x / (1.0 + x * x) ** 2,
    eval_f2=lambda x: (6.0 * x * x - 2.0) / (1.0 + x * x) ** 3,
    decay_gamma=1.0,
    fprime0_is_zero=True,
    name="cauchy2",
)

x2exp = SmoothTestFunction(
    eval_f=lambda x: x * x * (
        math.exp(-x) if isinstance(x, float) else np.exp(-x)),
    eval_f1=lambda x: (2.0 * x - x * x) * (
        math.exp(-x) if isinstance(x, float) else np.exp(-x)),
    eval_f2=lambda x: (2.0 - 4.0 * x + x * x) * (
        math.exp(-x) if isinstance(x, float) else np.exp(-x)),
    decay_gamma=6.0,
    fprime0_is_zero=True,
    name="x2exp",
)

REGISTRY = {"gauss": gauss, "cauchy2": cauchy2, "x2exp": x2exp}
