"""fracsphere: two-stage time-fractional stochastic diffusion on the unit
sphere -- exact Gaussian coefficient sampling, field synthesis, and
convergence experiments."""

__version__ = "0.1.0"

from .errors import AccuracyError, DomainError
from .specfun import (SphPoint, assoc_legendre_norm, gamma, legendre_p, ml_neg,
                      spherical_harmonic)
from .spectra import (AlgebraicSpectrum, bound_q_combined, bound_qh, bound_qi,
                      gamma_alpha_kappa, holder_envelope, increment_bound, m_alpha,
                      measured_increment_c, psi_h, psi_i, tail_constant)
from .stochastic import (CoefficientSet, FractionalModel, RngStream,
                         chi_square_power, coefficient_variance, covariance_function,
                         cross_sigma, sample_combined, sample_combined_pair,
                         sample_combined_times, sigma_squared,
                         sigma_squared_bound)
from .synthesis import FieldMap, GridSpec, synthesize, write_map_csv, write_map_image
from .experiments import (ErrorCurve, SlopeFit, evolution_snapshots,
                          fit_loglog_slope, increment_curve,
                          truncation_error_curve)
