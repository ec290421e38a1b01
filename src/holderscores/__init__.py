"""Holder composite scores: divergences, affine invariance, robust estimation."""

from .errors import (ConfigError, DegenerateInputError, DomainError,
                     HolderError, SingularHessianError, StructuralError,
                     UnsupportedFamilyError)
from .grids import (GridDensity, cross_moment, default_tol, holder_cross_bound,
                    integrate, l1_distance, power_moment, read_grid, write_grid)
from .models import (ParametricModel, Sample, contaminate,
                     draw_contaminated_sample, draw_sample, make_parametric,
                     read_samples, render_density, write_samples)
from .scores import (BregmanHolder, CompositeScore, DensityPower, GammaScore,
                     HolderScore, KL, PhiFunction, Pseudospherical, ScoreValue,
                     bregman_to_holder_value, check_equivalence_in_probability,
                     divergence, empirical_score, expected_score,
                     phi_cubic_tail, phi_from_config, phi_gamma_score,
                     phi_kappa, phi_linear, score_from_config, validate_phi)
from .affine import (AffineMap, EquivarianceReport, ScaleFitReport,
                     fit_scale_exponent, scale_function, transform_density,
                     verify_estimator_equivariance, verify_invariance)
from .estimators import (ConditionalModel, FitConfig, FitResult,
                         averaged_score, averaged_score_with_hessian, fit,
                         fit_regression, make_conditional, population_fit)
from .robustness import (InfluenceResult, RedescendReport,
                         VarianceSamenessReport, asymptotic_variance_sameness,
                         gross_error_sensitivity, influence_curve,
                         influence_function, objective_hessian, redescend_check)
from .rng import rng_for

__version__ = "0.1.0"
