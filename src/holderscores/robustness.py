"""Influence functions, objective curvature and redescending diagnostics.

The sensitivity of an optimum-score estimate to contamination at a point z is
captured by the influence function

    IF(z) = -I^-1 d/dtheta [ phi'(u(theta)) * ( p_theta(z)^gamma
                             - <p_star p_theta^gamma> ) ] at theta = theta_star,

where u(theta) = <p_star p_theta^gamma> / <p_theta^(1+gamma)> and I is the
Hessian of the population objective phi(u(theta)) <p_theta^(1+gamma)> at the
generating parameter.  The point-mass terms enter only through pointwise
values p_theta(z)^gamma (and p_theta(z)^gamma s_theta(z) in the analysis), so
they are evaluated exactly rather than through a smoothing bump.

As ||z|| grows the bracket converges, and the influence limit is

    -(phi''(1) + gamma (1 + gamma)) I^-1 <p_star^(1+gamma) s_star>,

hence the estimator is redescending exactly when phi''(1) = -gamma(1+gamma);
the diagnostics below evaluate that criterion analytically and check it
against the empirical tail of ||IF||.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularHessianError
from .estimators import FitConfig, _gradient_hessian, fit
from .grids import log_moments
from .models import draw_sample, render_density
from .rng import rng_for
from .scores import HolderScore

logger = logging.getLogger(__name__)

# The Hessian is a relative-step 1e-5 central difference of the exact gradient.
# Measured: an off-diagonal that vanishes by symmetry (gaussian-mean-scale at
# (0, 1)) reads 3e-13, against 5.6e-9 for the former second differences of
# the value, and the truncation error is ~9e-11 (2-D gaussian-full, steps
# 1e-5 against 1e-6).  Eigenvalues below ~1e-9 are therefore unresolved; the
# collapsed mixture of the singular-curvature test reads 1.4e-12 and 1.6e-11
# next to O(0.1) curvature (cond 1.2e11).  The limit stays at 1e6: O(1)
# curvature with a larger condition number is treated as singular.
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
    ``model_informative`` records whether <p^(1+gamma) s> is nonzero anywhere
    nearby (when it vanishes identically the criterion has no power).
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


def _frozen_grid(model, theta_star):
    """model(theta_star) rendered on its box padded by a factor 1.25.

    The padding never crosses a hard support edge (e.g. x >= 0).  Pinning the
    quadrature at theta_star keeps the objective smooth in theta, which the
    difference quotients below rely on.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    box_lo, box_hi = model.support(theta_star)
    center, half = (box_lo + box_hi) / 2.0, (box_hi - box_lo) / 2.0
    lo = center - 1.25 * half
    hi = center + 1.25 * half
    if not bool(np.all(model.in_support(lo.reshape(1, -1)))):
        lo = box_lo
    if not bool(np.all(model.in_support(hi.reshape(1, -1)))):
        hi = box_hi
    return render_density(model, theta_star, lo=lo, hi=hi)


class _GridMoments(NamedTuple):
    """The frozen-grid moments at one theta, and their score-weighted forms."""

    cross: float              # <p_star p^gamma>
    power: float              # <p^(1+gamma)>
    cross_s: np.ndarray       # <p_star p^gamma s>
    power_s: np.ndarray       # <p^(1+gamma) s>
    power_abs_s: np.ndarray   # <p^(1+gamma) |s|>, a positive scale for zero tests


def _grid_moments(quad, model, theta, gamma):
    """:class:`_GridMoments` of model(theta) over the nodes of the frozen grid
    ``quad``, from one ``log_density`` and one ``score`` call.

    The |s| rows come from a second ``log_moments`` call over s made absolute
    in place.  One call over a stacked [s; |s|] would hold a (2k, N) copy
    next to s: at 66,049 nodes (2-D) its peak allocation measured 10.0 MB
    (13.2 MB through ``np.vstack``) against 6.3 MB for the two calls.
    """
    nodes = quad.flat.nodes
    theta = np.asarray(theta, dtype=float)
    s = model.score(theta, nodes).T
    log_p = model.log_density(theta, nodes)
    cross, power, (cross_s, power_s) = log_moments(quad, log_p, gamma, columns=s)
    power_abs_s = log_moments(quad, log_p, gamma, columns=np.abs(s, out=s))[2][1]
    return _GridMoments(cross, power, cross_s, power_s, power_abs_s)


def objective_hessian(phi, gamma, model, theta_star, quad=None):
    """Hessian of the population objective from its exact gradient.

    The objective phi(u) <p_theta^(1+gamma)> on the frozen quadrature grid
    ``quad`` (by default model(theta_star) on its padded box) is
    ``HolderScore(phi).expected(quad, (model, theta))``; its exact gradient
    is differenced centrally with relative step 1e-5 (2k calls) and
    symmetrized.  The condition number is logged and a numerically singular
    matrix raises :class:`SingularHessianError` because the influence solve
    requires invertible curvature at theta_star.  A non-vanishing exact
    gradient triggers a warning: the formulas below assume theta_star is the
    objective's stationary point.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    if quad is None:
        quad = _frozen_grid(model, theta_star)
    score = HolderScore(replace(phi, gamma=gamma))

    def gradient(theta):
        return score.expected_with_gradient(quad, (model, theta))[1]

    grad = gradient(theta_star)
    hess = _gradient_hessian(gradient, theta_star)
    scale = max(float(np.max(np.abs(hess))), 1e-12)
    if float(np.linalg.norm(grad)) > 1e-2 * scale:
        warnings.warn("objective gradient is not negligible at theta_star; "
                      "influence formulas assume a stationary point",
                      stacklevel=2)
    cond = float(np.linalg.cond(hess))
    logger.debug("objective hessian condition number: %.3e", cond)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularHessianError(
            f"objective Hessian at theta_star is numerically singular "
            f"(condition number {cond:.3e}); influence analysis requires "
            f"invertible curvature")
    return hess


def _check_z(model, z_rows):
    if z_rows.shape[1] != model.dim:
        raise DomainError("contamination point has wrong dimension")
    if not bool(np.all(model.in_support(z_rows))):
        raise DomainError("contamination point lies outside the model support; "
                          "the density cannot be evaluated there")


def _influence_rows(phi, gamma, model, theta_star, z_rows, hessian, moments):
    """:class:`InfluenceResult` for each row of ``z_rows``.

    The bracket B(theta) = phi'(r) (p_theta(z)^gamma - c), with c and P the
    frozen-grid moments and r = c / P, has the exact gradient

        phi''(r) r_theta (p(z)^gamma - c) + phi'(r) (gamma p(z)^gamma s(z) - c_theta),
        r_theta = (c_theta - r P_theta) / P,

    with c_theta = gamma <p_star p^gamma s> and P_theta = (1+gamma) <p^(1+gamma) s>.
    Everything but p(z) and s(z) is formed once, and those come from one
    ``log_density`` and one ``score`` call at all rows.
    """
    c, power = moments.cross, moments.power
    r = c / power
    d_cross = gamma * moments.cross_s
    d_r = (d_cross - r * (1.0 + gamma) * moments.power_s) / power
    pz_gamma = np.exp(gamma * model.log_density(theta_star, z_rows))
    s_z = model.score(theta_star, z_rows)
    grad_terms = (float(phi.d2(r)) * np.outer(pz_gamma - c, d_r)
                  + float(phi.d1(r)) * (gamma * pz_gamma[:, None] * s_z - d_cross))
    results = []
    for z, grad_term in zip(z_rows, grad_terms):
        if_vec = -np.linalg.solve(hessian, grad_term)
        residual = float(np.linalg.norm(hessian @ if_vec + grad_term))
        tol = 1e-8 * max(1.0, float(np.linalg.norm(grad_term)))
        if residual > tol:
            raise SingularHessianError(
                f"linear solve residual {residual:.3e} exceeds tolerance {tol:.3e}")
        results.append(InfluenceResult(z=z, if_vector=if_vec, hessian=hessian,
                                       gradient_term=grad_term,
                                       norm=float(np.linalg.norm(if_vec))))
    return tuple(results)


def influence_function(phi, gamma, model, theta_star, z, hessian=None):
    """Influence vector at a contamination point z (exact point-mass terms)."""
    theta_star = np.asarray(theta_star, dtype=float)
    z_rows = np.atleast_1d(np.asarray(z, dtype=float)).reshape(1, -1)
    _check_z(model, z_rows)
    quad = _frozen_grid(model, theta_star)
    if hessian is None:
        hessian = objective_hessian(phi, gamma, model, theta_star, quad=quad)
    return _influence_rows(phi, gamma, model, theta_star, z_rows, hessian,
                           _grid_moments(quad, model, theta_star, gamma))[0]


def _default_z_ray(model, theta_star, n_z=25, max_sd=12.0):
    if n_z < 1:
        raise DomainError("influence curve needs at least one contamination point")
    lo, hi = model.support(np.asarray(theta_star, dtype=float))
    center, sd = (lo + hi) / 2.0, (hi - lo) / 16.0
    ts = np.linspace(0.5, max_sd, int(n_z))
    direction = np.zeros(model.dim)
    direction[0] = 1.0
    return center + ts[:, None] * sd * direction


def influence_curve(phi, gamma, model, theta_star, z_grid=None, n_z=25, max_sd=12.0):
    """Influence at every point of ``z_grid``, sharing one quadrature and Hessian.

    ``z_grid`` holds one contamination point per row; by default it is a ray of
    ``n_z`` points along the first axis, from 0.5 to ``max_sd`` model standard
    deviations off the centre of the model's box.  Returns a tuple of
    :class:`InfluenceResult`, one per row, in order.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    quad = _frozen_grid(model, theta_star)
    return _curve(phi, gamma, model, theta_star, z_grid, n_z, max_sd, quad,
                  _grid_moments(quad, model, theta_star, gamma))


def _curve(phi, gamma, model, theta_star, z_grid, n_z, max_sd, quad, moments):
    """:func:`influence_curve` with the frozen-grid moments at theta_star given."""
    hessian = objective_hessian(phi, gamma, model, theta_star, quad=quad)
    if z_grid is None:
        z_grid = _default_z_ray(model, theta_star, n_z=n_z, max_sd=max_sd)
    z_grid = np.atleast_2d(np.asarray(z_grid, dtype=float))
    if len(z_grid) == 0:
        raise DomainError("influence curve needs at least one contamination point")
    _check_z(model, z_grid)
    return _influence_rows(phi, gamma, model, theta_star, z_grid, hessian, moments)


def redescend_check(phi, gamma, model, theta_star, z_grid=None, n_z=25, max_sd=12.0):
    """Evaluate the curvature criterion and compare with the influence tail.

    The criterion phi''(1) = -gamma(1+gamma) is checked analytically; the
    empirical side sweeps ||IF|| along a ray of contamination points out to
    ``max_sd`` model standard deviations.  When <p^(1+gamma) s> vanishes for
    every probed parameter (a mean-only symmetric model, for instance) the
    test has no power and the report is marked inconclusive.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    quad = _frozen_grid(model, theta_star)
    moments = _grid_moments(quad, model, theta_star, gamma)
    curve = _curve(phi, gamma, model, theta_star, z_grid, n_z, max_sd, quad, moments)

    phi_d2 = float(phi.d2(1.0))
    condition_met = bool(abs(phi_d2 + gamma * (1.0 + gamma)) < 1e-8)

    b = moments.power_s
    informative = bool(np.any(np.abs(b) > 1e-6 * np.maximum(moments.power_abs_s, 1e-300)))
    if not informative:
        # the criterion needs one nearby parameter with a nonzero moment
        for i in range(5):
            jitter = theta_star * (1.0 + 0.02 * (i + 1)) + 0.01 * (i + 1)
            try:
                q2 = _frozen_grid(model, jitter)
            except DomainError:
                continue
            m2 = _grid_moments(q2, model, jitter, gamma)
            if np.any(np.abs(m2.power_s) > 1e-6 * np.maximum(m2.power_abs_s, 1e-300)):
                informative = True
                break
    if not informative:
        warnings.warn("the model's <p^(1+gamma) s> moment vanishes at every probed "
                      "parameter; the redescending criterion has no power here",
                      stacklevel=2)

    tail = tuple((float(np.linalg.norm(res.z)), res.norm) for res in curve)
    limit_vec = np.linalg.solve(curve[0].hessian, (phi_d2 + gamma * (1.0 + gamma)) * b)
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

    Every phi must satisfy phi'(1) = -(1+gamma) and phi''(1) = -gamma(1+gamma)
    (the conditions under which the influence functions coincide); violators
    are rejected up front with the failed condition named.  Each replicate
    reuses one simulated data set across all shape functions, which sharpens
    the variance-ratio comparison considerably.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    for phi in phi_list:
        d1 = float(phi.d1(1.0))
        if abs(d1 + (1.0 + gamma)) > 1e-8:
            raise DomainError(
                f"{phi.label}: phi'(1) = {d1:.8g} violates the premise "
                f"phi'(1) = -(1+gamma) = {-(1.0 + gamma):.8g}")
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
