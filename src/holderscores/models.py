"""Parametric density families with analytic score functions and samplers.

The built-in families are the work horses of the estimation and robustness
suites: Gaussians in one and several dimensions, a fixed-weight Gaussian
mixture and the exponential distribution.  Each family carries an analytic
score function (gradient of the log-density in the parameter), a seeded
sampler and a quadrature box wide enough that truncated mass is negligible
against the integration tolerance; all but the mixture also carry their
power integral <g^a> in closed form.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ConfigError, DomainError, StructuralError
from .grids import GridDensity
from .rng import rng_for

_LOG_2PI = float(np.log(2.0 * np.pi))

# Gaussian boxes span +-8 standard deviations: the clipped mass, ~1.2e-15,
# sits far below every integration tolerance in use.
_GAUSS_HALF_WIDTH = 8.0
# Exponential tails are cut where exp(-rate*x) < 1e-15.
_EXPON_CUTOFF = 35.0


@dataclass(frozen=True)
class ParametricModel:
    """A theta-indexed density family on R^d.

    Attributes
    ----------
    density, log_density : callable(theta, x) -> (n,)
        Evaluated at an (n, d) array of points (1-d models also accept (n,)).
    score : callable(theta, x) -> (n, k)
        Gradient of the log-density with respect to theta; the built-in
        families return it Fortran-ordered, so ``score(...).T`` is a
        contiguous (k, n) array of columns.
    sampler : callable(theta, n, rng) -> (n, d)
    support : callable(theta) -> (lo, hi)
        Quadrature box; the mathematical support may be larger.
    in_support : callable(x) -> bool mask
        Where the density is positive in principle (e.g. x >= 0 for the
        exponential family); points outside make score evaluation invalid.
    push_params : callable(theta, sigma, mu) -> theta', optional
        Parameter pushforward for data mapped through x -> sigma^-1 (x - mu);
        None when the family is not closed under affine maps.
    power_moment : callable(theta, a) -> (<g^a>, d<g^a>/dtheta), optional
        The power integral over all of R^d in closed form, formed from logs;
        None when the family has none, and the quadrature box is summed.
    """

    name: str
    dim: int
    param_dim: int
    theta_names: tuple
    density: Callable
    log_density: Callable
    score: Callable
    sampler: Callable
    support: Callable
    in_support: Callable
    push_params: Optional[Callable] = None
    power_moment: Optional[Callable] = None
    quad_points: int = 2001


@dataclass(frozen=True)
class Sample:
    """Observed outcomes, optionally paired with regression covariates."""

    points: np.ndarray
    covariates: Optional[np.ndarray] = None
    domain: Optional[tuple] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise StructuralError("points must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise DomainError("sample points must be finite")
        object.__setattr__(self, "points", pts)
        if self.covariates is not None:
            cov = np.asarray(self.covariates, dtype=float)
            if cov.ndim == 1:
                cov = cov.reshape(-1, 1)
            if cov.shape[0] != pts.shape[0]:
                raise StructuralError("covariates and points disagree on n")
            object.__setattr__(self, "covariates", cov)
        if self.domain is not None:
            lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in self.domain)
            if np.any(pts < lo) or np.any(pts > hi):
                raise DomainError("sample points fall outside the declared domain")
            object.__setattr__(self, "domain", (lo, hi))

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        x = x.reshape(-1, 1) if dim == 1 else x.reshape(1, -1)
    if x.shape[1] != dim:
        raise StructuralError(f"points have dimension {x.shape[1]}, model expects {dim}")
    return x


def _gaussian_power(d, log_det_chol, a):
    """<N^a> of a d-dimensional Gaussian whose Cholesky factor has log-determinant
    ``log_det_chol`` (sum of log L_ii):

        log <N^a> = -(a-1)/2 (d log 2pi + 2 log_det_chol) - d/2 log a.

    Its derivative in each L_ii is -(a-1)/L_ii <N^a>, and it does not depend
    on the mean or the off-diagonal entries.
    """
    return float(np.exp(-0.5 * (a - 1.0) * (d * _LOG_2PI + 2.0 * log_det_chol)
                        - 0.5 * d * math.log(a)))


# -- 1-d Gaussian families ----------------------------------------------------

def _gaussian_mean(scale=1.0):
    s = float(scale)
    if s <= 0:
        raise ConfigError("gaussian-mean requires scale > 0")

    def logpdf(theta, x):
        m = float(np.asarray(theta).ravel()[0])
        u = (_as_points(x, 1)[:, 0] - m) / s
        return -0.5 * u * u - 0.5 * _LOG_2PI - np.log(s)

    def score(theta, x):
        m = float(np.asarray(theta).ravel()[0])
        return ((_as_points(x, 1)[:, 0] - m) / (s * s)).reshape(-1, 1)

    def power(theta, a):
        return _gaussian_power(1, math.log(s), a), np.zeros(1)

    return ParametricModel(
        name="gaussian-mean", dim=1, param_dim=1, theta_names=("mean",),
        density=lambda th, x: np.exp(logpdf(th, x)),
        log_density=logpdf,
        score=score,
        sampler=lambda th, n, rng: (float(np.asarray(th).ravel()[0])
                                    + s * rng.standard_normal(n)).reshape(-1, 1),
        support=lambda th: (np.array([float(np.asarray(th).ravel()[0]) - _GAUSS_HALF_WIDTH * s]),
                            np.array([float(np.asarray(th).ravel()[0]) + _GAUSS_HALF_WIDTH * s])),
        in_support=lambda x: np.ones(_as_points(x, 1).shape[0], dtype=bool),
        push_params=lambda th, sigma, mu: np.array(
            [(float(np.asarray(th).ravel()[0]) - float(np.ravel(mu)[0]))
             / float(np.ravel(sigma)[0])]),
        power_moment=power,
    )


def _gaussian_mean_scale():
    def unpack(theta):
        m, s = np.asarray(theta, dtype=float).ravel()
        if s <= 0 or not np.isfinite(s):
            raise DomainError("gaussian scale parameter must be positive")
        return m, s

    def logpdf(theta, x):
        m, s = unpack(theta)
        u = (_as_points(x, 1)[:, 0] - m) / s
        return -0.5 * u * u - 0.5 * _LOG_2PI - np.log(s)

    def score(theta, x):
        m, s = unpack(theta)
        r = _as_points(x, 1)[:, 0] - m
        return np.stack([r / (s * s), r * r / s ** 3 - 1.0 / s]).T

    def power(theta, a):
        _, s = unpack(theta)
        p = _gaussian_power(1, math.log(s), a)
        return p, np.array([0.0, -(a - 1.0) / s * p])

    def push(theta, sigma, mu):
        m, s = unpack(theta)
        sig = float(np.ravel(sigma)[0])
        return np.array([(m - float(np.ravel(mu)[0])) / sig, s / abs(sig)])

    return ParametricModel(
        name="gaussian-mean-scale", dim=1, param_dim=2, theta_names=("mean", "scale"),
        density=lambda th, x: np.exp(logpdf(th, x)),
        log_density=logpdf,
        score=score,
        sampler=lambda th, n, rng: (unpack(th)[0]
                                    + unpack(th)[1] * rng.standard_normal(n)).reshape(-1, 1),
        support=lambda th: (np.array([unpack(th)[0] - _GAUSS_HALF_WIDTH * unpack(th)[1]]),
                            np.array([unpack(th)[0] + _GAUSS_HALF_WIDTH * unpack(th)[1]])),
        in_support=lambda x: np.ones(_as_points(x, 1).shape[0], dtype=bool),
        push_params=push,
        power_moment=power,
    )


# -- full multivariate Gaussian ------------------------------------------------

def _tril_indices(d):
    return np.tril_indices(d)


def _gaussian_full(dim=2):
    d = int(dim)
    if d < 1 or d > 3:
        raise ConfigError("gaussian-full supports dimensions 1..3")
    rows, cols = _tril_indices(d)
    k = d + rows.size

    def unpack(theta):
        th = np.asarray(theta, dtype=float).ravel()
        if th.size != k:
            raise StructuralError(f"gaussian-full d={d} expects {k} parameters")
        m = th[:d]
        L = np.zeros((d, d))
        L[rows, cols] = th[d:]
        if np.any(np.diag(L) <= 0) or not np.all(np.isfinite(L)):
            raise DomainError("Cholesky diagonal must be positive")
        return m, L

    def whiten(theta, x):
        """L, L^-1 and the coordinate columns of y = L^-1 (x - m)."""
        m, L = unpack(theta)
        pts = _as_points(x, d)
        Linv = solve_triangular(L, np.eye(d), lower=True)
        # one coordinate row at a time, each row overwriting r[i] in place;
        # going from the last row up, the rows still to come only read the
        # untouched r[0..i-1]
        r = [pts[:, j] - m[j] for j in range(d)]
        tmp = np.empty_like(r[0])
        for i in reversed(range(d)):
            r[i] *= Linv[i, i]
            for j in range(i):
                r[i] += np.multiply(r[j], Linv[i, j], out=tmp)
        return L, Linv, r

    def logpdf(theta, x):
        L, _, y = whiten(theta, x)
        out = y[0]
        out *= out
        for y_i in y[1:]:
            y_i *= y_i
            out += y_i
        out *= -0.5
        out -= 0.5 * d * _LOG_2PI + np.sum(np.log(np.diag(L)))
        return out

    def pdf(theta, x):
        out = logpdf(theta, x)
        return np.exp(out, out=out)

    def score(theta, x):
        # column-wise, like logpdf: the mean gradient Sigma^-1 (x - m) = L^-T y,
        # and d log p / d L = L^-T (y y^T - I), whose lower-triangle entry
        # (i, j) is g_mean[i] y[j] - [i == j] / L[i, i]
        _, Linv, y = whiten(theta, x)
        out = np.empty((y[0].size, k), order="F")
        tmp = np.empty_like(y[0])
        for i in range(d):
            g_mean = np.multiply(y[i], Linv[i, i], out=out[:, i])
            for j in range(i + 1, d):
                g_mean += np.multiply(y[j], Linv[j, i], out=tmp)
        for c, (i, j) in enumerate(zip(rows, cols)):
            g_chol = np.multiply(out[:, i], y[j], out=out[:, d + c])
            if i == j:
                g_chol -= Linv[i, i]
        return out

    diag = rows == cols

    def power(theta, a):
        _, L = unpack(theta)
        chol = np.diag(L)
        p = _gaussian_power(d, float(np.sum(np.log(chol))), a)
        grad = np.zeros(k)
        grad[d:][diag] = -(a - 1.0) / chol * p
        return p, grad

    def push(theta, sigma, mu):
        m, L = unpack(theta)
        sig = np.asarray(sigma, dtype=float).reshape(d, d)
        mu = np.asarray(mu, dtype=float).ravel()
        m2 = np.linalg.solve(sig, m - mu)
        cov2 = np.linalg.solve(sig, (L @ L.T)) @ np.linalg.inv(sig).T
        L2 = np.linalg.cholesky(0.5 * (cov2 + cov2.T))
        return np.concatenate([m2, L2[rows, cols]])

    def box(theta):
        m, L = unpack(theta)
        sd = np.sqrt(np.diag(L @ L.T))
        return m - _GAUSS_HALF_WIDTH * sd, m + _GAUSS_HALF_WIDTH * sd

    return ParametricModel(
        name="gaussian-full", dim=d, param_dim=k,
        theta_names=tuple(f"mean{i}" for i in range(d))
        + tuple(f"chol{r}{c}" for r, c in zip(rows, cols)),
        density=pdf,
        log_density=logpdf,
        score=score,
        sampler=lambda th, n, rng: unpack(th)[0] + rng.standard_normal((n, d)) @ unpack(th)[1].T,
        support=box,
        in_support=lambda x: np.ones(_as_points(x, d).shape[0], dtype=bool),
        push_params=push,
        power_moment=power,
        quad_points=257 if d == 2 else (2001 if d == 1 else 81),
    )


# -- fixed-weight Gaussian mixture ---------------------------------------------

def _gaussian_mixture(weights=(0.5, 0.5)):
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 2 or np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ConfigError("mixture weights must be positive and sum to 1")
    ncomp = w.size
    k = 2 * ncomp

    def unpack(theta):
        th = np.asarray(theta, dtype=float).ravel()
        if th.size != k:
            raise StructuralError(f"mixture expects {k} parameters (mean, scale per component)")
        m, s = th[0::2], th[1::2]
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise DomainError("mixture scales must be positive")
        return m, s

    def components(theta, x):
        m, s = unpack(theta)
        u = (_as_points(x, 1)[:, 0][:, None] - m) / s
        return np.exp(-0.5 * u * u) / (np.sqrt(2 * np.pi) * s), m, s

    def pdf(theta, x):
        comp, _, _ = components(theta, x)
        return comp @ w

    def logpdf(theta, x):
        # log-sum-exp over components: finite wherever any component is
        m, s = unpack(theta)
        pts = _as_points(x, 1)[:, 0]
        log_c = np.log(w / (np.sqrt(2 * np.pi) * s))
        return reduce(np.logaddexp, (log_c[i] - 0.5 * ((pts - m[i]) / s[i]) ** 2
                                     for i in range(ncomp)))

    def score(theta, x):
        # responsibilities as a softmax of the log-components, finite where
        # the density itself underflows
        m, s = unpack(theta)
        pts = _as_points(x, 1)[:, 0]
        r = pts[:, None] - m
        log_c = np.log(w / (np.sqrt(2 * np.pi) * s)) - 0.5 * (r / s) ** 2
        resp = np.exp(log_c - logpdf(theta, pts)[:, None])
        out = np.empty((pts.size, k), order="F")
        out[:, 0::2] = resp * r / (s * s)
        out[:, 1::2] = resp * (r * r / s ** 3 - 1.0 / s)
        return out

    def sampler(theta, n, rng):
        m, s = unpack(theta)
        comp = rng.choice(ncomp, size=n, p=w)
        return (m[comp] + s[comp] * rng.standard_normal(n)).reshape(-1, 1)

    def box(theta):
        m, s = unpack(theta)
        return (np.array([np.min(m - _GAUSS_HALF_WIDTH * s)]),
                np.array([np.max(m + _GAUSS_HALF_WIDTH * s)]))

    def push(theta, sigma, mu):
        m, s = unpack(theta)
        sig = float(np.ravel(sigma)[0])
        out = np.empty(k)
        out[0::2] = (m - float(np.ravel(mu)[0])) / sig
        out[1::2] = s / abs(sig)
        return out

    return ParametricModel(
        name="gaussian-mixture-fixed-weights", dim=1, param_dim=k,
        theta_names=tuple(x for i in range(ncomp) for x in (f"mean{i}", f"scale{i}")),
        density=pdf,
        log_density=logpdf,
        score=score,
        sampler=sampler,
        support=box,
        in_support=lambda x: np.ones(_as_points(x, 1).shape[0], dtype=bool),
        push_params=push,
        quad_points=3001,
    )


# -- exponential ---------------------------------------------------------------

def _exponential_rate():
    def rate(theta):
        lam = float(np.asarray(theta).ravel()[0])
        if lam <= 0 or not np.isfinite(lam):
            raise DomainError("exponential rate must be positive")
        return lam

    def pdf(theta, x):
        lam = rate(theta)
        pts = _as_points(x, 1)[:, 0]
        out = np.where(pts >= 0, lam * np.exp(-lam * np.clip(pts, 0, None)), 0.0)
        return out

    def logpdf(theta, x):
        lam = rate(theta)
        pts = _as_points(x, 1)[:, 0]
        with np.errstate(divide="ignore"):
            return np.where(pts >= 0, np.log(lam) - lam * pts, -np.inf)

    def score(theta, x):
        lam = rate(theta)
        pts = _as_points(x, 1)[:, 0]
        if np.any(pts < 0):
            raise DomainError("score undefined outside the support x >= 0")
        return (1.0 / lam - pts).reshape(-1, 1)

    def power(theta, a):
        lam = rate(theta)
        p = float(np.exp((a - 1.0) * math.log(lam) - math.log(a)))
        return p, np.array([(a - 1.0) / lam * p])

    return ParametricModel(
        name="exponential-rate", dim=1, param_dim=1, theta_names=("rate",),
        density=pdf,
        log_density=logpdf,
        score=score,
        sampler=lambda th, n, rng: rng.exponential(1.0 / rate(th), size=n).reshape(-1, 1),
        support=lambda th: (np.array([0.0]), np.array([_EXPON_CUTOFF / rate(th)])),
        in_support=lambda x: _as_points(x, 1)[:, 0] >= 0,
        push_params=None,
        power_moment=power,
        # the trapezoid rule is only O(h^2) here (the integrand's derivative
        # does not vanish at x = 0), so the default grid is much denser
        quad_points=150001,
    )


_FACTORIES = {
    "gaussian-mean": _gaussian_mean,
    "gaussian-mean-scale": _gaussian_mean_scale,
    "gaussian-full-d": _gaussian_full,
    "gaussian-mixture-fixed-weights": _gaussian_mixture,
    "exponential-rate": _exponential_rate,
}


def make_parametric(kind, **hyper):
    """Build a built-in parametric family.

    Parameters
    ----------
    kind : str
        One of ``gaussian-mean``, ``gaussian-mean-scale``, ``gaussian-full-d``,
        ``gaussian-mixture-fixed-weights``, ``exponential-rate``.
    **hyper
        Family hyper-parameters (``scale``, ``dim``, ``weights``).
    """
    try:
        factory = _FACTORIES[kind]
    except KeyError:
        raise ConfigError(f"unknown model kind {kind!r}; choose from "
                          f"{sorted(_FACTORIES)}") from None
    unknown = sorted(set(hyper) - set(inspect.signature(factory).parameters))
    if unknown:
        raise ConfigError(f"model kind {kind!r} does not take "
                          f"{', '.join(map(repr, unknown))}")
    return factory(**hyper)


def draw_sample(model, theta, n, seed):
    """n i.i.d. points from model(theta), reproducible under the seed."""
    if n < 1:
        raise DomainError("need n >= 1 samples")
    rng = seed if isinstance(seed, np.random.Generator) else rng_for(seed)
    return Sample(points=model.sampler(np.asarray(theta, dtype=float), int(n), rng))


def draw_contaminated_sample(model, theta, eps, z, n, seed):
    """Sample from (1 - eps) * model(theta) + eps * delta_z."""
    if not 0.0 <= eps < 1.0:
        raise DomainError("contamination level must satisfy 0 <= eps < 1")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.size != model.dim:
        raise StructuralError("contamination point has wrong dimension")
    rng = seed if isinstance(seed, np.random.Generator) else rng_for(seed)
    pts = model.sampler(np.asarray(theta, dtype=float), int(n), rng)
    mask = rng.random(int(n)) < eps
    pts = np.array(pts)
    pts[mask] = z
    return Sample(points=pts)


def render_density(model, theta, lo=None, hi=None, points_per_axis=None):
    """Evaluate model(theta) on a tensor grid covering its quadrature box."""
    theta = np.asarray(theta, dtype=float)
    blo, bhi = model.support(theta)
    lo = blo if lo is None else np.atleast_1d(np.asarray(lo, dtype=float))
    hi = bhi if hi is None else np.atleast_1d(np.asarray(hi, dtype=float))
    n = model.quad_points if points_per_axis is None else points_per_axis
    return GridDensity.from_callable(lambda pts: model.density(theta, pts), lo, hi, n)


def contaminate(model, theta, eps, z, points_per_axis=None):
    """Grid density of (1 - eps) * p_theta + eps * delta_z.

    The point mass is realized as a normalized triangular bump spanning three
    grid cells, centered on the node nearest to z; the quadrature box is
    extended when z falls outside the model's own box.  The result integrates
    to <p_theta> within quadrature tolerance for any eps in [0, 1).
    """
    theta = np.asarray(theta, dtype=float)
    if not 0.0 <= eps < 1.0:
        raise DomainError("contamination level must satisfy 0 <= eps < 1")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.size != model.dim:
        raise StructuralError("contamination point has wrong dimension")
    if not bool(np.all(model.in_support(z.reshape(1, -1)))):
        raise DomainError("contamination point lies outside the model support")

    blo, bhi = model.support(theta)
    margin = (bhi - blo) / 16.0
    lo = np.minimum(blo, z - margin)
    hi = np.maximum(bhi, z + margin)
    if points_per_axis is None:
        # keep the cell width of the model's default box
        h = (bhi - blo) / (model.quad_points - 1)
        points_per_axis = tuple(int(np.ceil((hi[i] - lo[i]) / h[i])) + 1
                                for i in range(model.dim))
    base = GridDensity.from_callable(lambda pts: model.density(theta, pts),
                                     lo, hi, points_per_axis)
    if eps == 0.0:
        return base

    axes = base.axes()
    cell = base.cell_widths()
    tents = []
    for i, ax in enumerate(axes):
        center = ax[int(np.argmin(np.abs(ax - z[i])))]
        tents.append(np.clip(1.0 - np.abs(ax - center) / (1.5 * cell[i]), 0.0, None))
    bump = reduce(np.multiply.outer, tents)
    mass = float(np.sum(bump * base.weights))
    vals = (1.0 - eps) * base.values + eps * bump / mass
    return base.with_values(vals)


# -- sample CSV format ---------------------------------------------------------

def write_samples(sample, path):
    """CSV with header ``y`` (plain samples) or ``x1..xm,y`` (regression)."""
    if sample.dim != 1:
        raise StructuralError("the CSV sample format covers scalar outcomes only")
    with open(path, "w") as fh:
        if sample.covariates is None:
            fh.write("y\n")
            for v in sample.points[:, 0]:
                fh.write(repr(float(v)) + "\n")
        else:
            m = sample.covariates.shape[1]
            fh.write(",".join(f"x{j + 1}" for j in range(m)) + ",y\n")
            for row, v in zip(sample.covariates, sample.points[:, 0]):
                fh.write(",".join(repr(float(c)) for c in row)
                         + "," + repr(float(v)) + "\n")


def read_samples(path):
    """Read a sample written by :func:`write_samples`."""
    with open(path) as fh:
        header = fh.readline().strip()
        cols = [c.strip() for c in header.split(",")]
        if cols[-1] != "y":
            raise StructuralError(f"sample file must end with a 'y' column, got {cols!r}")
        try:
            rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
        except ValueError as exc:
            raise StructuralError(f"sample file: {exc}") from None
    if not rows or any(len(row) != len(cols) for row in rows):
        raise StructuralError("sample rows disagree with the header")
    data = np.asarray(rows, dtype=float)
    if len(cols) == 1:
        return Sample(points=data[:, 0])
    return Sample(points=data[:, -1], covariates=data[:, :-1])
