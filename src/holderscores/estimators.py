"""Optimum-score estimation for densities and conditional densities.

Fitting minimizes an empirical composite score over a parametric family.
Every objective has a pair form giving its value and exact theta-gradient
from one model evaluation (the score's ``empirical_with_gradient``/
``expected_with_gradient``, or :func:`averaged_score_with_gradient`), so a
fit runs L-BFGS-B.  A trial step out of the parameter domain (a +inf value)
is rejected by the line search like any step that raises the value.  Where
L-BFGS-B stops abnormally (a failed line search, for instance near a kink of
a shape function), starts at +inf or meets a gradient that is not finite,
Nelder-Mead takes over from the best point it reached, reading the pair's
value.  A Newton polish (on by default) builds one Hessian from forward
differences of the exact gradient (k pair evaluations for k parameters) and
takes up to three guarded steps with it, and ``converged`` tests the exact
gradient.  The pair is the only objective a fit evaluates, and every point
evaluated is remembered, so each distinct theta costs one model evaluation.
Population-level fits replace the sample average by quadrature against a
grid density, which is also how Fisher consistency is verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .errors import (ConfigError, DegenerateInputError, DomainError, StructuralError,
                     UnsupportedFamilyError)
from .grids import GridDensity
from .models import _gaussian_power
from .scores import BregmanHolder, KL

# L-BFGS-B also stops once a step lowers f by less than this relative amount,
# a few ulps: past that the line search would only fail on rounding noise
_LBFGSB_FTOL = 1e-15
_POLISH_STEPS = 3


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings for one fit.

    L-BFGS-B stops once the largest gradient component is at most
    ``step_tol``; the Nelder-Mead that takes over after an abnormal stop
    uses ``step_tol`` as its simplex size tolerance, and both stop after
    ``max_iters`` iterations, which is reported as non-convergence.
    ``polish`` (on by default) runs up to three guarded Newton steps on one
    Hessian from forward differences of the exact gradient (k pair
    evaluations); it is cheap and tightens smooth objectives to near machine
    accuracy.  A fit has ``converged`` when its optimizer stopped on its
    tolerance and the exact gradient norm is below ``grad_tol``.
    """

    init_theta: np.ndarray
    max_iters: int = 2000
    grad_tol: float = 1e-4
    step_tol: float = 1e-8
    polish: bool = True

    def __post_init__(self):
        object.__setattr__(self, "init_theta",
                           np.atleast_1d(np.asarray(self.init_theta, dtype=float)))
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not (0 < self.grad_tol < math.inf and 0 < self.step_tol < math.inf):
            raise ConfigError("tolerances must be finite and positive")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit; ``converged`` additionally requires a small
    exact gradient at the reported optimum.  ``n_evals`` counts the pair
    evaluations paid for; memo hits are not counted."""

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

class _AbnormalStop(Exception):
    """L-BFGS-B started at +inf or met a gradient that is not finite."""


def _newton_polish(pair, x, fx, gx):
    """Up to three guarded Newton steps from ``x``, of value ``fx`` and
    gradient ``gx``, on one Hessian from forward differences of the exact
    gradient (k calls), symmetrized.  Every difference step is
    1e-6 max_j |x_j| (1e-6 at x = 0), with no absolute floor, so a change of
    units scales it with x.  A step is kept only while the value stays finite
    and rises by at most 1e-13 |fx|, its rounding noise in any units.
    Returns the last point kept, ``(x, fx, gx)``."""
    h = 1e-6 * (float(np.max(np.abs(x))) or 1.0)
    hess = np.array([(pair(x + h * e)[1] - gx) / h for e in np.eye(x.size)])
    hess = 0.5 * (hess + hess.T)
    if not np.all(np.isfinite(hess)) or np.min(np.linalg.eigvalsh(hess)) <= 0:
        return x, fx, gx
    for _ in range(_POLISH_STEPS):
        if not np.all(np.isfinite(gx)):
            break
        step = np.linalg.solve(hess, gx)
        x_new = x - step
        f_new, g_new = pair(x_new)
        if not np.isfinite(f_new) or f_new - fx > 1e-13 * abs(fx):
            break
        x, fx, gx = x_new, f_new, g_new
        if np.max(np.abs(step)) < 1e-12:
            break
    return x, fx, gx


def _guarded(objective):
    """``objective`` -> (value, gradient), (+inf, NaN) where theta leaves the
    parameter domain, the score is undefined or the value is not finite.  Any
    other error, such as a sample of the wrong dimension, propagates."""
    def wrapped(theta):
        try:
            val, grad = objective(theta)
        except (DomainError, DegenerateInputError):
            val = np.inf
        if not np.isfinite(val):
            return np.inf, np.full(np.size(theta), np.nan)
        return float(val), grad
    return wrapped


class _Objective:
    """The guarded value-and-gradient pair of one fit, the only objective it
    evaluates: Nelder-Mead reads ``value``, the pair's first entry, and
    L-BFGS-B, the polish and the gradient check read ``pair``.  Every point
    the fit has evaluated is looked up first; ``evals`` counts the
    evaluations paid for, and ``best`` is the best finite point evaluated,
    ``(theta, value, gradient)``."""

    def __init__(self, pair):
        self._pair = _guarded(pair)
        self.evals = 0
        self.seen = {}                        # theta bytes -> (value, gradient)
        self.best = None

    def value(self, theta):
        return self.pair(theta)[0]

    def pair(self, theta):
        theta = np.array(theta, dtype=float)
        key = theta.tobytes()
        seen = self.seen.get(key)
        if seen is None:
            self.evals += 1
            seen = self.seen[key] = self._pair(theta)
        if np.isfinite(seen[0]) and (self.best is None or seen[0] < self.best[1]):
            self.best = (theta,) + seen
        return seen


def _iteration_log():
    """A scipy callback counting iterations, and the count it fills."""
    count = [0]

    def callback(intermediate_result):
        count[0] += 1
    return callback, count


def _initial_simplex(x0):
    """scipy's default Nelder-Mead simplex, each coordinate in turn scaled by
    1.05 or, at 0, set to 0.00025, except that a coordinate whose 5% step is
    shorter than 0.00025 moves by 0.00025: from a start such as -5e-16 (an
    L-BFGS-B best point one rounding step off 0) the default is degenerate."""
    x0 = np.asarray(x0, dtype=float)
    sim = np.tile(x0, (x0.size + 1, 1))
    for k in range(x0.size):
        big = 0.05 * abs(x0[k]) >= 0.00025
        sim[k + 1, k] = 1.05 * x0[k] if big else x0[k] + 0.00025
    return sim


def _run_nelder_mead(fun, x0, cfg):
    """Nelder-Mead on an :class:`_Objective`'s ``value``; the start value
    sets fatol, and scipy's evaluation of the start is a memo hit."""
    f0 = fun(x0)
    fatol = max(1e-13, 1e-11 * (1.0 + (abs(f0) if np.isfinite(f0) else 0.0)))
    with np.errstate(invalid="ignore"):  # simplex may hold +inf sentinels
        res = minimize(fun, x0, method="Nelder-Mead",
                       options={"maxiter": cfg.max_iters,
                                "xatol": cfg.step_tol,
                                "fatol": fatol,
                                "maxfev": 50 * cfg.max_iters,
                                "initial_simplex": _initial_simplex(x0)})
    return np.asarray(res.x, dtype=float), float(res.fun), int(res.nit), bool(res.success)


def _run_lbfgsb(objective, cfg):
    """L-BFGS-B from ``cfg.init_theta`` on the value-and-gradient pair of an
    :class:`_Objective`; Nelder-Mead from its best point when it stops
    abnormally, starts at +inf or meets a gradient that is not finite."""
    callback, count = _iteration_log()
    ceiling = []

    def pair(x):
        fx, gx = objective.pair(x)
        if ceiling and np.isinf(fx):
            # a trial step left the parameter domain.  scipy's line search
            # cannot step back from +inf (it reports convergence where it
            # stands), so it gets a finite value above the start instead,
            # which it never accepts
            return ceiling[0], np.zeros(np.size(x))
        if not np.all(np.isfinite(gx)):  # also a start at +inf, whose gradient is NaN
            raise _AbnormalStop
        if not ceiling:
            ceiling.append(fx + abs(fx) + 1.0)
        return fx, gx

    try:
        res = minimize(pair, cfg.init_theta, jac=True, method="L-BFGS-B", callback=callback,
                       options={"maxiter": cfg.max_iters, "ftol": _LBFGSB_FTOL,
                                "gtol": cfg.step_tol})
        if res.status != 2:  # 0 converged, 1 out of iterations
            return np.asarray(res.x, dtype=float), float(res.fun), count[0], res.status == 0
        # a line search that failed at the objective's rounding floor has
        # converged if the exact gradient at the best point says so
        x, fx, gx = objective.best
        if np.all(np.isfinite(gx)) and np.linalg.norm(gx) < cfg.grad_tol:
            return x, fx, count[0], True
    except _AbnormalStop:
        pass
    # from the best point, already evaluated, or from the start if it is +inf
    x0 = objective.best[0] if objective.best else cfg.init_theta
    x, fx, iters, ok = _run_nelder_mead(objective.value, x0, cfg)
    return x, fx, count[0] + iters, ok


def _minimize(pair, cfg):
    objective = _Objective(pair)
    x, fx, iters, ok = _run_lbfgsb(objective, cfg)
    gx = objective.pair(x)[1]
    if cfg.polish and np.isfinite(fx):
        x, fx, gx = _newton_polish(objective.pair, x, fx, gx)
    grad_ok = bool(np.all(np.isfinite(gx)) and np.linalg.norm(gx) < cfg.grad_tol)
    return FitResult(theta_hat=x, objective_value=fx, iterations=iters,
                     converged=bool(ok and grad_ok), n_evals=objective.evals)


# -- density fitting ---------------------------------------------------------------

def fit(score, model, sample, cfg):
    """Minimize the empirical score of model(theta) against a sample.

    Deterministic for a fixed config.  An infinite score value (for
    example a KL objective meeting a zero density at a sample point) simply
    signals +inf to the optimizer, which retreats.
    """
    if sample.n < 1:
        raise DomainError("sample is empty")
    if sample.dim != model.dim:
        raise StructuralError(f"the sample is {sample.dim}-dimensional, {model.name} "
                              f"is {model.dim}-dimensional")

    return _minimize(lambda theta: score.empirical_with_gradient(sample, (model, theta)), cfg)


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

    return _minimize(lambda theta: score.expected_with_gradient(p_true, (model, theta)), cfg)


# -- conditional models ---------------------------------------------------------------

@dataclass(frozen=True)
class ConditionalModel:
    """theta-indexed family of conditional densities q(y | x), scalar y.

    ``cond_log_density(theta, y, x)`` broadcasts y against the mean produced
    from the (n, m) covariate array, so both per-observation values (y of
    shape (n,)) and quadrature grids (y of shape (1, ny)) work.
    ``cond_score(theta, y, x)`` gives the (n, k) theta-gradient of the
    log-density at the observations.
    ``power_moment(theta, a)`` is the y-integral <q(.|x)^a> over all of R in
    closed form with its theta-gradient; for the location-scale family it is
    the same for every x.
    """

    name: str
    param_dim: int
    x_dim: int
    theta_names: tuple
    cond_log_density: Callable
    cond_score: Callable
    power_moment: Callable


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
    k = m + 1 + (0 if fixed_noise is not None else 1)

    def unpack(theta):
        th = np.asarray(theta, dtype=float).ravel()
        if th.size != k:
            raise StructuralError(f"linear-gaussian expects {k} parameters")
        a, b = th[:m], th[m]
        s = fixed_noise if fixed_noise is not None else th[m + 1]
        if s <= 0 or not np.isfinite(s):
            raise DomainError("noise scale must be positive")
        return a, b, s

    def mean(theta, x):
        a, b, _ = unpack(theta)
        return np.atleast_2d(np.asarray(x, dtype=float)) @ a + b

    def logpdf(theta, y, x):
        a, b, s = unpack(theta)
        mu = mean(theta, x)
        y = np.asarray(y, dtype=float)
        if y.ndim == 2:
            mu = mu[:, None]
        u = (y - mu) / s
        return -0.5 * u * u - 0.5 * np.log(2 * np.pi) - np.log(s)

    def score_fn(theta, y, x):
        a, b, s = unpack(theta)
        xm = np.atleast_2d(np.asarray(x, dtype=float))
        u = (np.asarray(y, dtype=float) - (xm @ a + b)) / (s * s)   # d/db
        cols = [xm[:, j] * u for j in range(m)] + [u]
        if fixed_noise is None:
            cols.append(u * u * s - 1.0 / s)    # (y - mu)^2 / s^3 - 1 / s
        return np.stack(cols, axis=-1)

    def power(theta, a):
        # M = (2 pi s^2)^(-(a-1)/2) a^(-1/2), whatever x and the mean
        s = unpack(theta)[2]
        p = _gaussian_power(1, math.log(s), a)
        grad = np.zeros(k)
        if fixed_noise is None:
            grad[m + 1] = -(a - 1.0) / s * p
        return p, grad

    names = tuple(f"a{j + 1}" for j in range(m)) + ("b",)
    if fixed_noise is None:
        names += ("s",)
    return ConditionalModel(
        name="linear-gaussian", param_dim=k, x_dim=m, theta_names=names,
        cond_log_density=logpdf, cond_score=score_fn,
        power_moment=power)


def _averaged_inputs(score, cmodel, sample):
    """Observations and covariates of an averaged score."""
    if sample.covariates is None:
        raise StructuralError("averaged scores need covariates in the sample")
    if not isinstance(score, (KL, BregmanHolder)):
        raise UnsupportedFamilyError(
            f"{score.name} cannot be averaged over covariates: only Bregman-representable "
            "families (kl, bregman-holder) admit an empirical per-observation sum")
    if sample.covariates.shape[1] != cmodel.x_dim:
        raise StructuralError(f"the sample has {sample.covariates.shape[1]} covariate "
                              f"columns, {cmodel.name} expects x_dim={cmodel.x_dim}")
    return sample.points[:, 0], sample.covariates


def averaged_score(score, cmodel, theta, sample):
    """Covariate-averaged empirical score of a conditional family.

    Only the Bregman-representable members average into a plain sum over the
    observations: KL and the (gamma, kappa) family.  For the latter the value
    is the mean over observations of ``score._combine(q(y_i|x_i)^gamma, M_i)``,
    with M_i the y-integral of q(.|x_i)^(1+gamma) in the model's closed form
    (``cmodel.power_moment``).  The cross term is formed from the
    log-density, so an observation far in the tail keeps a finite value.  A
    general shape-function family has no such empirical form and is rejected.
    """
    return averaged_score_with_gradient(score, cmodel, theta, sample)[0]


def averaged_score_with_gradient(score, cmodel, theta, sample):
    """``(averaged_score(...), its theta-gradient)`` from one call each of
    ``cmodel``'s cond_log_density, cond_score and power_moment."""
    y, x = _averaged_inputs(score, cmodel, sample)
    theta = np.asarray(theta, dtype=float)
    m_int, dm_int = cmodel.power_moment(theta, 1.0 + score.gamma)
    log_qi = cmodel.cond_log_density(theta, y, x)
    s_i = cmodel.cond_score(theta, y, x).T                            # (k, n)
    if isinstance(score, KL):
        return float(np.mean(-log_qi) + m_int), dm_int - np.mean(s_i, axis=1)
    if not 0.0 < m_int < math.inf:
        return math.inf, np.full(theta.size, np.nan)
    q_gamma = np.exp(score.gamma * log_qi)
    d_cross, d_power = score._partials(q_gamma, m_int)
    return float(np.mean(score._combine(q_gamma, m_int))), \
        (s_i @ (score.gamma * q_gamma * d_cross) + dm_int * np.sum(d_power)) / y.size


def fit_regression(gamma, kappa, cmodel, sample, cfg):
    """Fit a conditional family by the averaged (gamma, kappa) score.

    kappa = 1 + gamma matches density-power behavior, kappa = 1 the
    gamma-score; the latter is the robust choice under y-outliers.
    """
    score = BregmanHolder(gamma, kappa)
    _averaged_inputs(score, cmodel, sample)
    return _minimize(lambda theta: averaged_score_with_gradient(score, cmodel, theta, sample),
                     cfg)
