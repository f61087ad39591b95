"""Fractional operators, stable-process distributions, and reflected-path
simulation for spectrally one-sided stable processes with index in (1, 2),
with executable verification certificates for the identities tying them
together."""

from ._kernels import BACKEND
from .errors import (DomainError, EvaluationError, FracstableError,
                     RootNotFoundError, SamplerError)
from .quadrature import adaptive_quad
from .specfun import (F_family, F_remainders, GeneralIndex, mittag_leffler,
                      psi, psi_general, psi_integral, theta_root)
from .fracops import (SmoothTestFunction, caputo, delta_plus, is_in_domain_D,
                      reflected_generator_general, rl_left_alpha,
                      rl_left_alpha_minus1, rl_right)
from .testfuncs import REGISTRY as TEST_FUNCTIONS
from .dist import (c_alpha, iminus_laplace, iminus_moment, iminus_pdf,
                   iminus_tail_integral, kernel_apply, kernel_apply_d2, mom_V,
                   mom_X, mom_Xhat, mom_Y, positive_stable_sample,
                   stable_increment_sample, valpha_moment_quad, valpha_pdf,
                   valpha_sample, xhat_sample, yalpha_pdf, zbeta_pdf)
from .pathsim import PathConfig, Reflect, bias_calibration, simulate_reflected
from .resolvent import (rep_pointwise, u1_apply, u1_density, u1_mass,
                        u1_resolvent_function, uhat1_apply, uhat1_density,
                        uhat1_mass, uhat1_resolvent_function)
from .verify import (VerificationReport, check_cm, check_factorization,
                     check_identity_law, check_intertwining, check_lamperti,
                     check_laplace_normalization, check_rep,
                     check_resolvent_generator, ks_two_sample)

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "DomainError", "EvaluationError", "F_family", "F_remainders",
    "FracstableError", "GeneralIndex", "PathConfig", "Reflect",
    "RootNotFoundError", "SamplerError",
    "SmoothTestFunction", "TEST_FUNCTIONS", "VerificationReport",
    "adaptive_quad", "bias_calibration", "c_alpha", "caputo", "check_cm",
    "check_factorization", "check_identity_law", "check_intertwining",
    "check_lamperti", "check_laplace_normalization", "check_rep",
    "check_resolvent_generator", "delta_plus", "iminus_laplace",
    "iminus_moment", "iminus_pdf", "iminus_tail_integral", "is_in_domain_D",
    "kernel_apply", "kernel_apply_d2", "ks_two_sample", "mittag_leffler",
    "mom_V", "mom_X", "mom_Xhat", "mom_Y", "positive_stable_sample", "psi",
    "psi_general", "psi_integral", "reflected_generator_general",
    "rep_pointwise", "rl_left_alpha", "rl_left_alpha_minus1", "rl_right",
    "simulate_reflected", "stable_increment_sample", "theta_root", "u1_apply",
    "u1_density", "u1_mass", "u1_resolvent_function", "uhat1_apply",
    "uhat1_density", "uhat1_mass", "uhat1_resolvent_function",
    "valpha_moment_quad", "valpha_pdf", "valpha_sample", "xhat_sample",
    "yalpha_pdf", "zbeta_pdf",
]
