"""Influence functions, objective curvature and redescending diagnostics.

The sensitivity of an optimum-score estimate to contamination at a point z is
captured by the influence function

    IF(z) = -I^-1 d/dtheta [ phi'(u(theta)) * ( p_theta(z)^gamma
                             - <p_star p_theta^gamma> ) ] at theta = theta_star,

where u(theta) = <p_star p_theta^gamma> / <p_theta^(1+gamma)> and I is the
Hessian of the population objective phi(u(theta)) <p_theta^(1+gamma)> at the
generating parameter.  The point-mass terms enter only through pointwise
values p_theta(z)^gamma (and p_theta(z)^gamma s_theta(z) in the analysis), so
they are evaluated exactly at z.

Each analysis renders p_star = model(theta_star) once and evaluates
``HolderScore(phi)`` against that render once: the moments, their gradients
and I, that score's exact theta-Hessian, all come from its ``_moments`` and
``_chain``.  The premises phi(1) = -1 and phi'(1) = -(1+gamma), checked first,
make theta_star stationary and cancel every derivative of the score s in I,
which leaves, with m = <p^(1+gamma) s>,

    I = gamma (1 + gamma) <p^(1+gamma) s s^T> + phi''(1) m m^T / <p^(1+gamma)>.

As ||z|| grows the bracket converges, and the influence limit is

    -(phi''(1) + gamma (1 + gamma)) I^-1 <p_star^(1+gamma) s_star>,

hence the estimator is redescending exactly when phi''(1) = -gamma(1+gamma);
the diagnostics below evaluate that criterion analytically and check it
against the empirical tail of ||IF||.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularHessianError, StructuralError
from .estimators import FitConfig, fit
from .models import check_points, draw_sample, render_density
from .rng import rng_for
from .scores import HolderScore

logger = logging.getLogger(__name__)

# The Hessian is the score's exact one at theta_star, so no step size enters:
# its floor is the rounding of the weighted sums, ~1e-16 of its largest
# entry.  The collapsed mixture of the singular-curvature test reads a
# condition number of ~7e17.  The limit stays at 1e6, far above that floor:
# O(1) curvature with a larger condition number is treated as singular.
_COND_LIMIT = 1e6


@dataclass(frozen=True)
class InfluenceResult:
    """Influence of a point mass at z on the fitted parameter."""

    z: np.ndarray
    if_vector: np.ndarray
    hessian: np.ndarray
    gradient_term: np.ndarray
    norm: float


@dataclass(frozen=True)
class RedescendReport:
    """Curvature criterion against the empirical influence tail.

    ``condition_met`` states phi''(1) = -gamma(1+gamma) to 1e-8;
    ``tail_norms`` lists (||z||, ||IF||) pairs out to the largest probe;
    ``limit_estimate`` is the norm of the analytic influence limit, and
    ``model_informative`` records whether <p^(1+gamma) s> is nonzero at
    theta_star (when it vanishes the criterion has no power).
    """

    gamma: float
    phi_d2_at_1: float
    condition_met: bool
    tail_norms: tuple
    limit_estimate: float
    model_informative: bool

    @property
    def max_tail(self):
        return max(n for _, n in self.tail_norms)

    @property
    def tail_decays(self):
        return self.tail_norms[-1][1] < 1e-3 * self.max_tail

    @property
    def verdict(self):
        if not self.model_informative:
            return "INCONCLUSIVE"
        return "PASS" if self.condition_met == self.tail_decays else "FAIL"

    def __str__(self):
        lines = [self.verdict,
                 f"gamma={self.gamma:g} phi''(1)={self.phi_d2_at_1:.10g} "
                 f"condition_met={self.condition_met}",
                 f"limit_estimate={self.limit_estimate:.6g} "
                 f"max_tail={self.max_tail:.6g} last_tail={self.tail_norms[-1][1]:.6g}"]
        return "\n".join(lines)


def _check_premises(phi, gamma):
    """``gamma`` is ``phi.gamma`` (every analysis reads it from both), and
    phi(1) = -1 and phi'(1) = -(1+gamma) to 1e-8: together they make
    theta_star the objective's stationary point and reduce its Hessian to the
    closed form.  Raises :class:`DomainError` naming the failed condition."""
    if phi.gamma != gamma:
        raise DomainError(f"{phi.label} has gamma={phi.gamma!r}, which disagrees "
                          f"with the analysis's gamma={gamma!r}")
    value = float(phi(1.0))
    if abs(value + 1.0) > 1e-8:
        raise DomainError(f"{phi.label}: phi(1) = {value:.8g} violates the premise "
                          f"phi(1) = -1")
    d1 = float(phi.d1(1.0))
    if abs(d1 + (1.0 + gamma)) > 1e-8:
        raise DomainError(f"{phi.label}: phi'(1) = {d1:.8g} violates the premise "
                          f"phi'(1) = -(1+gamma) = {-(1.0 + gamma):.8g}")


def _frozen_grid(model, theta_star):
    """model(theta_star) on its default render, the quadrature of every analysis."""
    return render_density(model, theta_star)


def _frozen(phi, model, theta_star, hessian=None):
    """``((c, P, dc, dP), I)`` from one evaluation of ``HolderScore(phi)``
    against the render of p = model(theta_star): c = <p_star p^gamma>,
    P = <p^(1+gamma)> and their theta-gradients, and the objective's
    theta-Hessian I, unless ``hessian`` is given, checked: a shape other
    than (k, k) raises :class:`StructuralError`, and a non-finite or
    numerically singular one :class:`SingularHessianError`.  A model without
    ``log_quadratic`` is scored once at the render's nodes, and its
    ``curvature`` is called there only for I."""
    score, g = HolderScore(phi), (model, theta_star)
    c, power, moments = score._moments(_frozen_grid(model, theta_star), g)
    d_c, d_p, second = moments()
    if hessian is None:
        hessian = score._chain(c, power, d_c, d_p, second)[1]
    hessian, k = np.asarray(hessian, dtype=float), theta_star.size
    if hessian.shape != (k, k):
        raise StructuralError(f"the objective Hessian must have shape ({k}, {k}), "
                              f"got {hessian.shape}")
    cond = float(np.linalg.cond(hessian)) if np.all(np.isfinite(hessian)) else np.inf
    logger.debug("objective hessian condition number: %.3e", cond)
    if not cond <= _COND_LIMIT:
        raise SingularHessianError(
            f"objective Hessian at theta_star is numerically singular "
            f"(condition number {cond:.3e}); influence analysis requires "
            f"invertible curvature")
    return (c, power, d_c, d_p), hessian


def objective_hessian(phi, gamma, model, theta_star):
    """Hessian I of the population objective at theta_star: the exact one of
    ``HolderScore(phi)`` against the render of model(theta_star), which the
    premises reduce to the closed form of the module docstring.  ``gamma``
    must be ``phi.gamma``, a phi that fails a premise raises
    :class:`DomainError`, and a numerically singular I raises
    :class:`SingularHessianError` (the influence solve needs invertible
    curvature)."""
    _check_premises(phi, gamma)
    return _frozen(phi, model, np.asarray(theta_star, dtype=float))[1]


def _influence_rows(phi, gamma, model, theta_star, z_rows, moments, hessian):
    """:class:`InfluenceResult` for each row of ``z_rows``.

    The bracket B(theta) = phi'(r) (p_theta(z)^gamma - c), with c and P the
    frozen-grid moments and r = c / P, has the exact gradient

        phi''(r) r_theta (p(z)^gamma - c) + phi'(r) (gamma p(z)^gamma s(z) - c_theta),
        r_theta = (c_theta - r P_theta) / P,

    with c_theta = gamma <p_star p^gamma s> and P_theta = (1+gamma) <p^(1+gamma) s>
    given in ``moments``, ``(c, P, c_theta, P_theta)``.  Everything but p(z)
    and s(z) is formed once, and those come from one ``log_density`` and one
    ``score`` call at all rows.
    """
    c, power, d_cross, d_power = moments
    r = c / power
    d_r = (d_cross - r * d_power) / power
    pz_gamma = np.exp(gamma * model.log_density(theta_star, z_rows))
    s_z = model.score(theta_star, z_rows)
    grad_terms = (float(phi.d2(r)) * np.outer(pz_gamma - c, d_r)
                  + float(phi.d1(r)) * (gamma * pz_gamma[:, None] * s_z - d_cross))
    if_vecs = -np.linalg.solve(hessian, grad_terms[:, :, None])[:, :, 0]
    residuals = np.linalg.norm(if_vecs @ hessian.T + grad_terms, axis=1)
    tols = 1e-8 * np.maximum(1.0, np.linalg.norm(grad_terms, axis=1))
    bad = np.flatnonzero(~(residuals <= tols))  # NaN fails the guard
    if bad.size:
        raise SingularHessianError(f"linear solve residual {residuals[bad[0]]:.3e} "
                                   f"exceeds tolerance {tols[bad[0]]:.3e}")
    return tuple(InfluenceResult(z=z, if_vector=if_vec, hessian=hessian,
                                 gradient_term=grad_term, norm=float(np.linalg.norm(if_vec)))
                 for z, if_vec, grad_term in zip(z_rows, if_vecs, grad_terms))


def influence_function(phi, gamma, model, theta_star, z, hessian=None):
    """Influence vector at a contamination point z (exact point-mass terms)."""
    _check_premises(phi, gamma)
    theta_star = np.asarray(theta_star, dtype=float)
    z_rows = check_points(model, np.atleast_1d(np.asarray(z, dtype=float)).reshape(1, -1))
    return _influence_rows(phi, gamma, model, theta_star, z_rows,
                           *_frozen(phi, model, theta_star, hessian))[0]


def _default_z_ray(model, theta_star, n_z=25, max_sd=12.0):
    if n_z < 1:
        raise DomainError("influence curve needs at least one contamination point")
    if not (np.isfinite(max_sd) and max_sd > 0.5):
        raise DomainError(f"the default ray runs out from 0.5 standard deviations; its "
                          f"max_sd must be finite and above 0.5, got {max_sd!r}")
    lo, hi = model.support(np.asarray(theta_star, dtype=float))
    center, sd = (lo + hi) / 2.0, (hi - lo) / 16.0
    ts = np.linspace(0.5, max_sd, int(n_z))
    direction = np.zeros(model.dim)
    direction[0] = 1.0
    return center + ts[:, None] * sd * direction


def _z_rows(model, theta_star, z_grid, n_z, max_sd):
    """The contamination points as checked (m, d) rows: ``z_grid``, or else
    the default ray of ``n_z`` points out to ``max_sd``."""
    if z_grid is None:
        z_grid = _default_z_ray(model, theta_star, n_z=n_z, max_sd=max_sd)
    z_rows = np.atleast_2d(np.asarray(z_grid, dtype=float))
    if len(z_rows) == 0:
        raise DomainError("influence curve needs at least one contamination point")
    return check_points(model, z_rows)


def influence_curve(phi, gamma, model, theta_star, z_grid=None, n_z=25, max_sd=12.0):
    """Influence at every point of ``z_grid``, sharing one quadrature and Hessian.

    ``z_grid`` holds one contamination point per row; by default it is a ray of
    ``n_z`` points along the first axis, from 0.5 to ``max_sd`` model standard
    deviations off the centre of the model's box.  The points are checked
    before the frozen grid is rendered.  Returns a tuple of
    :class:`InfluenceResult`, one per row, in order.
    """
    _check_premises(phi, gamma)
    theta_star = np.asarray(theta_star, dtype=float)
    z_rows = _z_rows(model, theta_star, z_grid, n_z, max_sd)
    return _influence_rows(phi, gamma, model, theta_star, z_rows,
                           *_frozen(phi, model, theta_star))


def redescend_check(phi, gamma, model, theta_star, z_grid=None, n_z=25, max_sd=12.0):
    """Evaluate the curvature criterion and compare with the influence tail.

    The criterion phi''(1) = -gamma(1+gamma) is checked analytically; the
    empirical side sweeps ||IF|| along a ray of contamination points out to
    ``max_sd`` model standard deviations.  When <p^(1+gamma) s> vanishes at
    theta_star (a mean-only symmetric model, for instance) the test has no
    power and the report is marked inconclusive.
    """
    _check_premises(phi, gamma)
    theta_star = np.asarray(theta_star, dtype=float)
    if (n_z if z_grid is None else len(np.atleast_2d(z_grid))) < 2:
        raise DomainError("the redescending check needs at least 2 contamination points")
    z_rows = _z_rows(model, theta_star, z_grid, n_z, max_sd)
    moments, hessian = _frozen(phi, model, theta_star)
    power, m = moments[1], moments[3] / (1.0 + gamma)
    phi_d2 = float(phi.d2(1.0))
    gg = gamma * (1.0 + gamma)
    # m_i = <p^(1+gamma) s_i> against its Cauchy-Schwarz bound
    # sqrt(P <p^(1+gamma) s_i^2>), whose second factor is
    # (I_ii - phi''(1) m_i^2 / P) / (gamma (1+gamma)) by the closed form of I
    bound = np.sqrt((power * np.diag(hessian) - phi_d2 * m * m) / gg)
    informative = bool(np.any(np.abs(m) > 1e-6 * np.maximum(bound, 1e-300)))
    curve = _influence_rows(phi, gamma, model, theta_star, z_rows, moments, hessian)

    condition_met = bool(abs(phi_d2 + gg) < 1e-8)
    tail = tuple((float(np.linalg.norm(res.z)), res.norm) for res in curve)
    limit_vec = np.linalg.solve(hessian, (phi_d2 + gg) * m)
    return RedescendReport(gamma=float(gamma), phi_d2_at_1=phi_d2,
                           condition_met=condition_met, tail_norms=tail,
                           limit_estimate=float(np.linalg.norm(limit_vec)),
                           model_informative=informative)


def gross_error_sensitivity(phi, gamma, model, theta_star, z_grid):
    """sup over the z-grid of ||IF(z)||; finite for redescending scores."""
    return max(res.norm for res in influence_curve(phi, gamma, model, theta_star, z_grid))


@dataclass(frozen=True)
class VarianceSamenessReport:
    """Monte-Carlo spread of sqrt(n)(theta_hat - theta_star) per shape function."""

    labels: tuple
    variances: np.ndarray      # (n_phi, k)
    ratio_min: float
    ratio_max: float
    n_mc: int
    replicates: int

    def __str__(self):
        return (f"variance ratios across {len(self.labels)} shape functions in "
                f"[{self.ratio_min:.4f}, {self.ratio_max:.4f}] "
                f"({self.replicates} replicates of n={self.n_mc})")


def asymptotic_variance_sameness(gamma, model, theta_star, phi_list, n_mc, seed,
                                 replicates=200, cfg=None):
    """Do matched shape functions share the estimator's sampling variance?

    Every phi must have gamma as its own, meet the premises phi(1) = -1 and
    phi'(1) = -(1+gamma), and have phi''(1) = -gamma(1+gamma) (the conditions
    under which the influence functions coincide); violators are rejected up
    front with the failed condition named.  Each replicate reuses one
    simulated data set across all shape functions, which sharpens the
    variance-ratio comparison considerably.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    for phi in phi_list:
        _check_premises(phi, gamma)
        d2 = float(phi.d2(1.0))
        if abs(d2 + gamma * (1.0 + gamma)) > 1e-8:
            raise DomainError(
                f"{phi.label}: phi''(1) = {d2:.8g} violates the premise "
                f"phi''(1) = -gamma(1+gamma) = {-gamma * (1.0 + gamma):.8g}")
    if cfg is None:
        cfg = FitConfig(init_theta=theta_star, step_tol=1e-7, grad_tol=1e-2)
    estimates = np.empty((len(phi_list), int(replicates), theta_star.size))
    for r in range(int(replicates)):
        data = draw_sample(model, theta_star, int(n_mc), rng_for(seed, r))
        for j, phi in enumerate(phi_list):
            res = fit(HolderScore(phi), model, data, cfg)
            estimates[j, r] = res.theta_hat
    scaled = np.sqrt(n_mc) * (estimates - theta_star)
    variances = scaled.var(axis=1, ddof=1)
    ratios = []
    for a in range(len(phi_list)):
        for b in range(len(phi_list)):
            if a != b:
                ratios.extend(variances[a] / variances[b])
    if not ratios:
        ratios = [1.0]
    return VarianceSamenessReport(
        labels=tuple(p.label for p in phi_list),
        variances=variances,
        ratio_min=float(np.min(ratios)), ratio_max=float(np.max(ratios)),
        n_mc=int(n_mc), replicates=int(replicates))
