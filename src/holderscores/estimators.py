"""Optimum-score estimation for densities and conditional densities.

Fitting minimizes an empirical composite score over a parametric family.
Every objective has a triple form giving its value, exact theta-gradient and
exact theta-Hessian from one model evaluation (the score's
``empirical_with_hessian``/``expected_with_hessian``; a regression's outcomes
are one such model), so a fit runs a damped Newton method,
and only that: the direction solves with the Hessian, its eigenvalues
replaced by their absolute values floored at 1e-12 of the largest, and a
backtracking line search (Armijo, halving from the full step; Nocedal and
Wright, *Numerical Optimization*, 2nd ed., section 3.4) takes the step.
Newton's method on the exact Hessian is equivariant under affine changes of
theta, as the Holder-score estimators are under affine maps of the data.
The start must lie in the parameter domain with a finite value, gradient and
Hessian, or the fit raises :class:`DomainError` before it runs.  A later
trial step out of the domain, or to a point where any of the three is not
finite, is rejected by the line search like any step that does not lower the
value enough.  A line search that fails (for instance near a kink of a shape
function, or at the objective's rounding floor) stops the fit at the best
point evaluated, converged only if the exact gradient there is small.  The
polish (on by default) then takes up to three more Newton steps that may
raise the value by rounding noise, and ``converged`` tests the exact
gradient.  The triple is the only objective a fit evaluates, and every point
evaluated is remembered, so each distinct theta costs one model evaluation.
Population-level fits replace the sample average by quadrature against a
grid density, which is also how Fisher consistency is verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigError, DegenerateInputError, DomainError, StructuralError,
                     UnsupportedFamilyError)
from .grids import GridDensity
from .models import ParametricModel, _as_points, _gaussian_power, _theta
from .scores import BregmanHolder, KL

# Armijo's sufficient-decrease constant
_ARMIJO = 1e-4
# the rounding floor: a step below this much of max |theta|, or a predicted
# decrease below this much of |f|, is rounding noise the value cannot resolve
_ROUNDING = 4.0 * np.finfo(float).eps
_POLISH_STEPS = 3


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings for one fit.

    Newton's method starts at ``init_theta``, which must be finite, and
    stops once the largest gradient component is at most ``step_tol``, once
    its line search fails, or after ``max_iters`` iterations, which is
    reported as non-convergence.  ``polish`` (on by default) then takes up to
    three more Newton steps, each kept while the value rises by no more than
    1e-13 of itself, its rounding noise: it tightens smooth objectives to
    near machine accuracy.  A fit has ``converged`` when it stopped on its
    tolerance (or on a failed line search) and the exact gradient norm is
    below ``grad_tol``.
    """

    init_theta: np.ndarray
    max_iters: int = 2000
    grad_tol: float = 1e-4
    step_tol: float = 1e-8
    polish: bool = True

    def __post_init__(self):
        object.__setattr__(self, "init_theta",
                           np.atleast_1d(np.asarray(self.init_theta, dtype=float)))
        if not np.all(np.isfinite(self.init_theta)):
            raise ConfigError(f"the start theta={self.init_theta.tolist()!r} must be finite")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not (0 < self.grad_tol < math.inf and 0 < self.step_tol < math.inf):
            raise ConfigError("tolerances must be finite and positive")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit; ``converged`` additionally requires a small
    exact gradient at the reported optimum.  ``iterations`` counts the Newton
    steps taken before the polish; ``n_evals`` counts the (value, gradient,
    Hessian) evaluations paid for; memo hits are not counted."""

    theta_hat: np.ndarray
    objective_value: float
    iterations: int
    converged: bool
    n_evals: int = 0

    def csv_row(self):
        cells = [repr(float(v)) for v in self.theta_hat]
        cells += [repr(float(self.objective_value)), str(int(self.iterations)),
                  str(bool(self.converged)).lower()]
        return ",".join(cells)


# -- optimizer machinery -----------------------------------------------------------

def _guarded(objective):
    """``objective`` -> (value, gradient, Hessian), (+inf, NaN, NaN) where theta
    leaves the parameter domain, the score is undefined, or any of the three
    is not finite: a fit steps back from all of them alike.  Any other error,
    such as a sample of the wrong dimension, propagates."""
    def wrapped(theta):
        try:
            val, grad, hess = objective(theta)
        except (DomainError, DegenerateInputError):
            val = grad = hess = np.inf
        if not (np.isfinite(val) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            k = np.size(theta)
            return np.inf, np.full(k, np.nan), np.full((k, k), np.nan)
        return float(val), grad, hess
    return wrapped


class _Objective:
    """The guarded value-gradient-Hessian triple of one fit, the only
    objective it evaluates.  Every point the fit has evaluated is looked up
    first; ``evals`` counts the evaluations paid for, and ``best`` is the
    best finite point evaluated, ``(theta, value, gradient, Hessian)``."""

    def __init__(self, triple):
        self._triple = _guarded(triple)
        self.evals = 0
        self.seen = {}                        # theta bytes -> (value, gradient, Hessian)
        self.best = None

    def triple(self, theta):
        theta = np.array(theta, dtype=float)
        key = theta.tobytes()
        seen = self.seen.get(key)
        if seen is None:
            self.evals += 1
            seen = self.seen[key] = self._triple(theta)
        if np.isfinite(seen[0]) and (self.best is None or seen[0] < self.best[1]):
            self.best = (theta,) + seen
        return seen


def _newton_step(grad, hess):
    """-H^-1 g, with the eigenvalues of H replaced by max(|lambda|, 1e-12
    max |lambda|): a descent direction wherever H is indefinite or nearly
    singular, and Newton's own step where it is safely positive."""
    lam, vec = np.linalg.eigh(hess)
    lam = np.abs(lam)
    with np.errstate(divide="ignore", invalid="ignore"):   # H = 0: a NaN step, which fails
        return -vec @ ((vec.T @ grad) / np.maximum(lam, 1e-12 * np.max(lam)))


def _line_search(objective, x, fx, gx, step):
    """Armijo backtracking from the full ``step``, halving: the first trial
    with f <= fx + 1e-4 t g.step, as ``(theta, value, gradient, Hessian)``, or
    None once t step is below the rounding floor of theta or its predicted
    decrease below that of the value.  A trial at +inf is rejected."""
    slope = float(gx @ step)
    size, floor = np.max(np.abs(step)), _ROUNDING * np.max(np.abs(x))
    t = 1.0
    # written so that a NaN step fails at once
    while t * size > floor and -t * slope > _ROUNDING * abs(fx):
        trial = x + t * step
        ft, gt, ht = objective.triple(trial)
        if ft <= fx + _ARMIJO * t * slope:
            return trial, ft, gt, ht
        t *= 0.5
    return None


def _polish(objective, x, fx, gx, hx):
    """Up to three Newton steps from ``x`` on the exact Hessian, each kept
    while the value stays finite and rises by at most 1e-13 |fx|, its
    rounding noise in any units; a step below the rounding floor of theta is
    not taken.  Returns the last point kept, ``(x, fx, gx)``."""
    for _ in range(_POLISH_STEPS):
        step = _newton_step(gx, hx)
        if not np.max(np.abs(step)) > _ROUNDING * np.max(np.abs(x)):
            break
        x_new = x + step
        f_new, g_new, h_new = objective.triple(x_new)
        if not f_new - fx <= 1e-13 * abs(fx):
            break
        x, fx, gx, hx = x_new, f_new, g_new, h_new
    return x, fx, gx


def _minimize(triple, cfg):
    objective = _Objective(triple)
    x = cfg.init_theta.copy()
    fx, gx, hx = objective.triple(x)
    if np.isinf(fx):
        raise DomainError(f"the start theta={cfg.init_theta.tolist()!r} is outside the "
                          "parameter domain, or the score or its derivatives are not finite "
                          "there")
    iters, ok = 0, True
    while np.max(np.abs(gx)) > cfg.step_tol:
        if iters == cfg.max_iters:
            ok = False
            break
        trial = _line_search(objective, x, fx, gx, _newton_step(gx, hx))
        if trial is None:
            # stopped at the rounding floor: converged if the gradient says so
            x, fx, gx, hx = objective.best
            break
        x, fx, gx, hx = trial
        iters += 1
    if cfg.polish:
        x, fx, gx = _polish(objective, x, fx, gx, hx)
    return FitResult(theta_hat=x, objective_value=fx, iterations=iters,
                     converged=bool(ok and np.linalg.norm(gx) < cfg.grad_tol),
                     n_evals=objective.evals)


# -- density fitting ---------------------------------------------------------------

def fit(score, model, sample, cfg):
    """Minimize the empirical score of model(theta) against a sample.

    Deterministic for a fixed config.  An infinite score value (for
    example a KL objective meeting a zero density at a sample point) simply
    signals +inf to the optimizer, which retreats.
    """
    if sample.dim != model.dim:
        raise StructuralError(f"the sample is {sample.dim}-dimensional, {model.name} "
                              f"is {model.dim}-dimensional")

    return _minimize(lambda theta: score.empirical_with_hessian(sample, (model, theta)), cfg)


def population_fit(score, model, p_true, cfg):
    """Minimize the population score S(p_true, model(theta)) over theta.

    With p_true = model(theta*) this recovers theta* (Fisher consistency);
    with a contaminated p_true it yields the population-level bias of the
    family under that contamination.
    """
    if not isinstance(p_true, GridDensity):
        raise StructuralError("p_true must be a GridDensity")
    if p_true.dim != model.dim:
        raise StructuralError(f"p_true is {p_true.dim}-dimensional, {model.name} "
                              f"is {model.dim}-dimensional")

    return _minimize(lambda theta: score.expected_with_hessian(p_true, (model, theta)), cfg)


# -- conditional models ---------------------------------------------------------------

@dataclass(frozen=True)
class ConditionalModel:
    """theta-indexed family of conditional densities q(y | x), scalar y.

    ``at(x)`` is the :class:`ParametricModel` of n outcomes at the (n,
    x_dim) covariate rows x: at its i-th point its log-density, score and
    curvature are q(.|x_i)'s, and its ``power_moment`` is the y-integral
    <q(.|x)^a> over all of R in closed form with its theta-gradient and
    theta-Hessian, the same for every x in a location-scale family.  Only
    the points' order ties each outcome to its covariates.
    """

    name: str
    x_dim: int
    theta_names: tuple
    at: Callable

    @property
    def param_dim(self):
        return len(self.theta_names)


def make_conditional(kind, x_dim=1, noise=None):
    """Built-in conditional families.

    ``linear-gaussian``: y | x ~ N(a . x + b, s^2) with theta = (a_1..a_m, b)
    and, when ``noise`` is None, a trailing scale parameter s to be fitted;
    passing a positive float fixes s.
    """
    if kind != "linear-gaussian":
        raise ConfigError(f"unknown conditional model kind {kind!r}")
    m = int(x_dim)
    if m < 1:
        raise ConfigError("x_dim must be at least 1")
    fixed_noise = None if noise is None else float(noise)
    if fixed_noise is not None and not 0 < fixed_noise < math.inf:
        raise ConfigError("fixed noise scale must be finite and positive")
    names = tuple(f"a{j + 1}" for j in range(m)) + ("b",)
    names += ("s",) if fixed_noise is None else ()
    k = len(names)

    def unpack(theta):
        th = _theta(theta, k, "linear-gaussian")
        s = fixed_noise if fixed_noise is not None else th[m + 1]
        if s <= 0 or not np.isfinite(s):
            raise DomainError("noise scale must be positive")
        return th[:m], th[m], s

    def power(theta, a):
        # M = (2 pi s^2)^(-(a-1)/2) a^(-1/2), whatever x and the mean
        s = unpack(theta)[2]
        p = _gaussian_power(1, math.log(s), a)
        grad, hess = np.zeros(k), np.zeros((k, k))
        if fixed_noise is None:
            grad[m + 1] = -(a - 1.0) / s * p
            hess[m + 1, m + 1] = a * (a - 1.0) / (s * s) * p
        return p, grad, hess

    def at(x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != m:
            raise StructuralError(f"covariates of shape {x.shape}: linear-gaussian "
                                  f"expects x_dim={m} columns")
        phi = np.column_stack([x, np.ones(x.shape[0])])     # d mu / d(a, b)

        def residual(theta, y):
            # e = y - mu at each outcome, and s
            a, b, s = unpack(theta)
            y = _as_points(y, 1)[:, 0]
            if y.size != x.shape[0]:
                raise StructuralError(f"{y.size} outcomes against {x.shape[0]} covariate rows")
            return y - (x @ a + b), s

        def logpdf(theta, y):
            e, s = residual(theta, y)
            u = e / s
            return -0.5 * u * u - 0.5 * np.log(2 * np.pi) - np.log(s)

        def score(theta, y):
            e, s = residual(theta, y)
            u = e / (s * s)                     # d/db; phi u is d/d(a, b)
            if fixed_noise is not None:
                return phi * u[:, None]
            # d/ds = (y - mu)^2 / s^3 - 1 / s
            return np.column_stack([phi * u[:, None], u * u * s - 1.0 / s])

        def curvature(theta, y, h):
            # -phi phi^T / s^2, -2 e phi / s^3 against s, and
            # (1 - 3 e^2 / s^2) / s^2 in s
            e, s = residual(theta, y)
            h = np.asarray(h, dtype=float)
            out = np.zeros((k, k))
            out[:m + 1, :m + 1] = -((h[:, None] * phi).T @ phi) / (s * s)
            if fixed_noise is None:
                out[:m + 1, m + 1] = out[m + 1, :m + 1] = -2.0 / s ** 3 * ((h * e) @ phi)
                out[m + 1, m + 1] = np.sum(h * (1.0 - 3.0 * (e / s) ** 2)) / (s * s)
            return out

        return ParametricModel(
            name="linear-gaussian", dim=1, theta_names=names, log_density=logpdf,
            score=score, curvature=curvature, power_moment=power, sampler=None,
            support=None, in_support=None)

    return ConditionalModel(name="linear-gaussian", x_dim=m, theta_names=names, at=at)


def _outcome_model(score, cmodel, sample):
    """The sample's outcomes as one :class:`ParametricModel`,
    ``cmodel.at(covariates)``, which checks the covariates' x_dim.  Its
    dimension is 1, so a sample whose outcomes have more columns is rejected
    before any evaluation, as any sample of another dimension is."""
    if sample.covariates is None:
        raise StructuralError("averaged scores need covariates in the sample")
    if not isinstance(score, (KL, BregmanHolder)):
        raise UnsupportedFamilyError(
            f"{score.name} cannot be averaged over covariates: only Bregman-representable "
            "families (kl, bregman-holder) admit an empirical per-observation sum")
    return cmodel.at(sample.covariates)


def averaged_score(score, cmodel, theta, sample):
    """Covariate-averaged empirical score of a conditional family.

    Only the Bregman-representable members average into a plain sum over the
    observations: KL and the (gamma, kappa) family.  Both are linear in the
    cross term C, and the power term M, the y-integral of q(.|x)^(1+gamma)
    in closed form (the outcome model's ``power_moment``), does not depend on
    x; so the mean over observations of S(q(y_i|x_i)^gamma, M) is
    S(mean_i q(y_i|x_i)^gamma, M), the empirical score of the outcomes
    against the conditional family at their covariates.  The cross term is
    formed from the log-density, so an observation far in the tail keeps a
    finite value.  A general shape-function family has no such empirical
    form and is rejected, as is a sample whose outcomes are not scalar.
    """
    return score.empirical(sample, (_outcome_model(score, cmodel, sample), theta))


def averaged_score_with_hessian(score, cmodel, theta, sample):
    """``(averaged_score(...), its theta-gradient, its theta-Hessian)`` from
    one call each of the outcome model's log_density, score, curvature and
    power_moment; the value is :func:`averaged_score`'s bit for bit."""
    return score.empirical_with_hessian(sample, (_outcome_model(score, cmodel, sample), theta))


def fit_regression(gamma, kappa, cmodel, sample, cfg):
    """Fit a conditional family by the averaged (gamma, kappa) score.

    kappa = 1 + gamma matches density-power behavior, kappa = 1 the
    gamma-score; the latter is the robust choice under y-outliers.
    """
    score = BregmanHolder(gamma, kappa)
    return fit(score, _outcome_model(score, cmodel, sample), sample, cfg)
