"""Optimum-score estimation for densities and conditional densities.

Fitting minimizes an empirical composite score over a parametric family.  The
default optimizer is derivative-free Nelder-Mead (score objectives built from
generic shape functions can be non-smooth at isolated points); a
finite-difference gradient descent and jittered multi-start are available,
and a Newton polish (on by default) sharpens smooth objectives to near machine
accuracy.  Population-level fits replace the sample average by quadrature
against a grid density, which is also how Fisher consistency is verified.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize

from .errors import (ConfigError, DomainError, HolderError, StructuralError,
                     UnsupportedFamilyError)
from .grids import GridDensity, _box_quadrature, _power_sum
from .scores import BregmanHolder, KL, empirical_score, expected_score
from .rng import rng_for

_MULTISTART_RE = re.compile(r"^multi-start\((\d+)\)$")


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings for one fit.

    ``optimizer`` is ``nelder-mead``, ``gradient-descent-with-fd`` or
    ``multi-start(k)`` (k jittered Nelder-Mead starts).  ``polish`` (on by
    default) runs a few guarded Newton steps with finite-difference
    derivatives after the main optimizer; it is cheap and tightens smooth
    objectives well past the simplex tolerance.
    """

    init_theta: np.ndarray
    max_iters: int = 2000
    grad_tol: float = 1e-4
    step_tol: float = 1e-8
    optimizer: str = "nelder-mead"
    seed: int = 0
    polish: bool = True
    record_trace: bool = False

    def __post_init__(self):
        object.__setattr__(self, "init_theta",
                           np.atleast_1d(np.asarray(self.init_theta, dtype=float)))
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if self.grad_tol <= 0 or self.step_tol <= 0:
            raise ConfigError("tolerances must be positive")
        if self.optimizer not in ("nelder-mead", "gradient-descent-with-fd") \
                and not _MULTISTART_RE.match(self.optimizer):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")

    def replace(self, **kw):
        return replace(self, **kw)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit; ``converged`` additionally requires a small
    finite-difference gradient at the reported optimum."""

    theta_hat: np.ndarray
    objective_value: float
    iterations: int
    converged: bool
    trace: Optional[tuple] = None

    def csv_row(self):
        cells = [repr(float(v)) for v in self.theta_hat]
        cells += [repr(float(self.objective_value)), str(int(self.iterations)),
                  str(bool(self.converged)).lower()]
        return ",".join(cells)


# -- finite-difference machinery -------------------------------------------------

def _fd_gradient(fun, x, rel_step=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def _fd_hessian(fun, x, rel_step=1e-4):
    x = np.asarray(x, dtype=float)
    k = x.size
    steps = np.array([rel_step * max(1.0, abs(x[i])) for i in range(k)])
    hess = np.empty((k, k))
    f0 = fun(x)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = steps[i]
        hess[i, i] = (fun(x + ei) - 2.0 * f0 + fun(x - ei)) / steps[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = steps[j]
            val = (fun(x + ei + ej) - fun(x + ei - ej)
                   - fun(x - ei + ej) + fun(x - ei - ej)) / (4.0 * steps[i] * steps[j])
            hess[i, j] = hess[j, i] = val
    return 0.5 * (hess + hess.T)


def _newton_polish(fun, x, max_steps=3):
    """Guarded Newton steps; accepted only while finite and descending."""
    x = np.asarray(x, dtype=float)
    fx = fun(x)
    for _ in range(max_steps):
        g = _fd_gradient(fun, x)
        if not np.all(np.isfinite(g)):
            break
        hess = _fd_hessian(fun, x)
        if not np.all(np.isfinite(hess)):
            break
        try:
            if np.min(np.linalg.eigvalsh(hess)) <= 0:
                break
            step = np.linalg.solve(hess, g)
        except np.linalg.LinAlgError:
            break
        x_new = x - step
        f_new = fun(x_new)
        if not np.isfinite(f_new) or f_new > fx + 1e-15:
            break
        x, fx = x_new, f_new
        if np.max(np.abs(step)) < 1e-12:
            break
    return x, fx


def _guarded(objective):
    def wrapped(theta):
        try:
            val = objective(theta)
        except HolderError:
            return np.inf
        if not np.isfinite(val):
            return np.inf
        return float(val)
    return wrapped


def _run_nelder_mead(fun, x0, cfg):
    trace = [] if cfg.record_trace else None
    callback = (lambda xk: trace.append(float(fun(xk)))) if cfg.record_trace else None
    f0 = fun(x0)
    fatol = max(1e-13, 1e-11 * (1.0 + (abs(f0) if np.isfinite(f0) else 0.0)))
    with np.errstate(invalid="ignore"):  # simplex may hold +inf sentinels
        res = minimize(fun, x0, method="Nelder-Mead",
                       options={"maxiter": cfg.max_iters,
                                "xatol": cfg.step_tol,
                                "fatol": fatol,
                                "maxfev": 50 * cfg.max_iters},
                       callback=callback)
    return np.asarray(res.x, dtype=float), float(res.fun), int(res.nit), bool(res.success), trace


def _run_gradient_descent(fun, x0, cfg):
    x = np.asarray(x0, dtype=float)
    fx = fun(x)
    trace = [] if cfg.record_trace else None
    iters = 0
    hit_tol = False
    for iters in range(1, cfg.max_iters + 1):
        g = _fd_gradient(fun, x)
        if not np.all(np.isfinite(g)):
            break
        gnorm = float(np.linalg.norm(g))
        if gnorm < cfg.grad_tol:
            hit_tol = True
            break
        step = 1.0
        improved = False
        while step * gnorm > cfg.step_tol * 1e-3:
            x_new = x - step * g
            f_new = fun(x_new)
            if np.isfinite(f_new) and f_new < fx - 1e-4 * step * gnorm ** 2:
                x, fx = x_new, f_new
                improved = True
                break
            step *= 0.5
        if cfg.record_trace:
            trace.append(fx)
        if not improved:
            hit_tol = step * gnorm <= cfg.step_tol
            break
    return x, fx, iters, hit_tol, trace


def _minimize(objective, cfg):
    fun = _guarded(objective)
    match = _MULTISTART_RE.match(cfg.optimizer)
    if cfg.optimizer == "gradient-descent-with-fd":
        x, fx, iters, ok, trace = _run_gradient_descent(fun, cfg.init_theta, cfg)
    elif match:
        k = int(match.group(1))
        best = None
        total_iters = 0
        for i in range(k):
            if i == 0:
                x0 = np.array(cfg.init_theta, dtype=float)
            else:
                rng = rng_for(cfg.seed, i)
                scale = 0.5 * (1.0 + np.abs(cfg.init_theta))
                x0 = cfg.init_theta + scale * rng.standard_normal(cfg.init_theta.size)
            x, fx, iters, ok, trace = _run_nelder_mead(fun, x0, cfg)
            total_iters += iters
            # ties within step_tol keep the earliest start for determinism
            if best is None or fx < best[1] - cfg.step_tol:
                best = (x, fx, total_iters, ok, trace)
        x, fx, iters, ok, trace = best
    else:
        x, fx, iters, ok, trace = _run_nelder_mead(fun, cfg.init_theta, cfg)

    if cfg.polish:
        x, fx = _newton_polish(fun, x)

    grad = _fd_gradient(fun, x)
    grad_ok = bool(np.all(np.isfinite(grad)) and np.linalg.norm(grad) < cfg.grad_tol)
    return FitResult(theta_hat=x, objective_value=fx, iterations=iters,
                     converged=bool(ok and grad_ok),
                     trace=tuple(trace) if trace is not None else None)


# -- density fitting ---------------------------------------------------------------

def fit(score, model, sample, cfg):
    """Minimize the empirical score of model(theta) against a sample.

    Deterministic for a fixed config and seed.  An infinite score value (for
    example a KL objective meeting a zero density at a sample point) simply
    signals +inf to the optimizer, which retreats.
    """
    if sample.n < 1:
        raise DomainError("sample is empty")

    def objective(theta):
        return empirical_score(score, sample, (model, theta))

    return _minimize(objective, cfg)


def population_fit(score, model, p_true, cfg):
    """Minimize the population score S(p_true, model(theta)) over theta.

    With p_true = model(theta*) this recovers theta* (Fisher consistency);
    with a contaminated p_true it yields the population-level bias of the
    family under that contamination.
    """
    if not isinstance(p_true, GridDensity):
        raise StructuralError("p_true must be a GridDensity")

    def objective(theta):
        return expected_score(score, p_true, (model, theta))

    return _minimize(objective, cfg)


# -- conditional models ---------------------------------------------------------------

@dataclass(frozen=True)
class ConditionalModel:
    """theta-indexed family of conditional densities q(y | x), scalar y.

    ``cond_density(theta, y, x)`` broadcasts y against the mean produced from
    the (n, m) covariate array, so both per-observation values (y of shape
    (n,)) and quadrature grids (y of shape (1, ny)) work.
    """

    name: str
    param_dim: int
    x_dim: int
    theta_names: tuple
    cond_density: Callable
    cond_log_density: Callable
    cond_score: Callable
    y_domain: tuple
    y_quad_points: int = 513

    def y_grid(self):
        lo, hi = self.y_domain
        (ygrid,), wy = _box_quadrature((lo,), (hi,), (self.y_quad_points,))
        return ygrid, wy


def make_conditional(kind, x_dim=1, noise=None, y_lo=-30.0, y_hi=30.0):
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
    if fixed_noise is not None and fixed_noise <= 0:
        raise ConfigError("fixed noise scale must be positive")
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

    def pdf(theta, y, x):
        return np.exp(logpdf(theta, y, x))

    def score_fn(theta, y, x):
        a, b, s = unpack(theta)
        xm = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.asarray(y, dtype=float) - mean(theta, x)
        cols = [xm[:, j] * r / s ** 2 for j in range(m)]
        cols.append(r / s ** 2)
        if fixed_noise is None:
            cols.append(r * r / s ** 3 - 1.0 / s)
        return np.stack(cols, axis=1)

    names = tuple(f"a{j + 1}" for j in range(m)) + ("b",)
    if fixed_noise is None:
        names += ("s",)
    return ConditionalModel(
        name="linear-gaussian", param_dim=k, x_dim=m, theta_names=names,
        cond_density=pdf, cond_log_density=logpdf, cond_score=score_fn,
        y_domain=(float(y_lo), float(y_hi)))


def averaged_score(score, cmodel, theta, sample):
    """Covariate-averaged empirical score of a conditional family.

    Only the Bregman-representable members average into a plain sum over the
    observations: KL and the (gamma, kappa) family.  For the latter the value
    is the mean over observations of ``score._combine(q(y_i|x_i)^gamma, M_i)``,
    with M_i the y-integral of q(.|x_i)^(1+gamma) computed by quadrature on
    the declared y-domain.  Both powers are formed from the log-density, so
    an observation far in the tail keeps a finite value.  A general
    shape-function family has no such empirical form and is rejected.
    """
    if sample.covariates is None:
        raise StructuralError("averaged scores need covariates in the sample")
    theta = np.asarray(theta, dtype=float)
    y = sample.points[:, 0]
    x = sample.covariates
    ygrid, wy = cmodel.y_grid()

    if isinstance(score, (KL, BregmanHolder)):
        log_grid = cmodel.cond_log_density(theta, ygrid[None, :], x)
        m_int = _power_sum(wy, log_grid, 1.0 + score.gamma)
        log_qi = cmodel.cond_log_density(theta, y, x)
        if isinstance(score, KL):
            return float(np.mean(-log_qi) + np.mean(m_int))
        if np.any(m_int <= 0.0):
            return np.inf
        return float(np.mean(score._combine(np.exp(score.gamma * log_qi), m_int)))
    raise UnsupportedFamilyError(
        f"{score.name} cannot be averaged over covariates: only Bregman-representable "
        "families (kl, bregman-holder) admit an empirical per-observation sum")


def fit_regression(gamma, kappa, cmodel, sample, cfg):
    """Fit a conditional family by the averaged (gamma, kappa) score.

    kappa = 1 + gamma matches density-power behavior, kappa = 1 the
    gamma-score; the latter is the robust choice under y-outliers.
    """
    if gamma <= 0:
        raise DomainError("fit_regression requires gamma > 0")
    if kappa < 1:
        raise DomainError("fit_regression requires kappa >= 1")
    if sample.covariates is None:
        raise StructuralError("fit_regression needs covariates")
    score = BregmanHolder(gamma, kappa)

    def objective(theta):
        return averaged_score(score, cmodel, theta, sample)

    return _minimize(objective, cfg)
