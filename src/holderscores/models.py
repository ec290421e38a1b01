"""Parametric density families with analytic score functions and samplers.

The built-in families are the work horses of the estimation and robustness
suites: Gaussians in one and several dimensions, a fixed-weight Gaussian
mixture and the exponential distribution.  There is one Gaussian
implementation, ``gaussian-full-d``, parameterized by the mean and the
Cholesky factor L of the covariance; ``gaussian-mean-scale`` is that family at
d = 1, and ``gaussian-mean`` is ``gaussian-mean-scale`` with the scale held
fixed.  Each family is named by its ``make_parametric`` kind and carries an
analytic score function (gradient of the log-density in the parameter), its
second derivatives summed over weighted points (``curvature``), a seeded
sampler and a quadrature box wide enough that truncated mass is negligible
against the integration tolerance; all but the mixture also carry their power
integral <g^a> in closed form with its gradient and Hessian, and the
Gaussians their log-density as a quadratic polynomial in x
(``log_quadratic``), whose second theta-derivatives are in closed form too.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Optional

import numpy as np

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
    """A theta-indexed density family on R^d, with ``param_dim =
    len(theta_names)`` parameters.

    Attributes
    ----------
    log_density : callable(theta, x) -> (n,)
        Evaluated at an (n, d) array of points (1-d models also accept (n,));
        -inf where the density vanishes.
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
    power_moment : callable(theta, a) -> (<g^a>, gradient, Hessian), optional
        The power integral over all of R^d in closed form, formed from logs,
        with its theta-gradient (k,) and theta-Hessian (k, k); None when the
        family has none, and the quadrature box is summed.
    density : callable(theta, x) -> (n,), optional
        ``exp(log_density)``, derived on construction unless given; only
        :func:`render_density` calls it.
    log_quadratic : callable(theta, center) -> (eta, jac, curv), optional
        For a family whose log-density is a quadratic polynomial in x (the
        Gaussians): with u = x - center and the monomials
        q(u) = [1, u_1..u_d, u_i u_j (i >= j, row-major lower triangle)],
        ``log_density(theta, x) = eta @ q(u)`` and ``score(theta, x) =
        jac @ q(u)``, jac = d eta / dtheta of shape (param_dim, len(q)).
        ``curv(v)`` maps monomial sums v = <h q(u)>, shape (len(q),), to
        sum_r v_r d^2 eta_r / dtheta^2 = <h d s / dtheta>, shape (k, k), in
        closed form.  Population moments on a grid then need only the grid's
        cached per-axis rows (:attr:`GridDensity.axis_monomials`), no
        whitening and no per-node score.  None where log p is no such
        polynomial, e.g. -inf off a support; dropped by
        ``replace(model, log_density=...)`` unless replaced with it.
    curvature : callable(theta, x, h) -> (k, k), optional
        sum_i h_i d^2 log g(x_i) / dtheta^2 for an (n, d) array of points and
        n weights h: with the score, the second derivatives of every moment
        of g.  A fit needs it (or ``log_quadratic`` on a data grid) for its
        Newton steps; like ``score``, it is not dropped with a replaced
        ``log_density``.
    """

    name: str
    dim: int
    theta_names: tuple
    log_density: Callable
    score: Callable
    sampler: Callable
    support: Callable
    in_support: Callable
    push_params: Optional[Callable] = None
    power_moment: Optional[Callable] = None
    quad_points: int = 2001
    density: Optional[Callable] = None
    log_quadratic: Optional[Callable] = None
    curvature: Optional[Callable] = None

    def __post_init__(self):
        # derived afresh, so replace(model, log_density=...) keeps the two in step
        if self.density is None or getattr(self.density, "derived", False):
            log_density = self.log_density

            def density(theta, x):
                return np.exp(log_density(theta, x))
            density.derived = True
            object.__setattr__(self, "density", density)
        # a factory's polynomial names the log_density it expands, and a
        # replaced log_density leaves it behind
        if getattr(self.log_quadratic, "expands", self.log_density) is not self.log_density:
            object.__setattr__(self, "log_quadratic", None)

    @property
    def param_dim(self):
        return len(self.theta_names)


@dataclass(frozen=True)
class Sample:
    """Observed outcomes, optionally paired with regression covariates."""

    points: np.ndarray
    covariates: Optional[np.ndarray] = None

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
            if not np.all(np.isfinite(cov)):
                raise DomainError("sample covariates must be finite")
            object.__setattr__(self, "covariates", cov)

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


def _theta(theta, k, name):
    """theta as a flat float vector; a length other than k raises."""
    th = np.asarray(theta, dtype=float).ravel()
    if th.size != k:
        raise StructuralError(f"{name} expects {k} parameters, got {th.size}")
    return th


def _gaussian_power(d, log_det_chol, a):
    """<N^a> of a d-dimensional Gaussian whose Cholesky factor has log-determinant
    ``log_det_chol`` (sum of log L_ii):

        log <N^a> = -(a-1)/2 (d log 2pi + 2 log_det_chol) - d/2 log a.

    Its derivative in each L_ii is -(a-1)/L_ii <N^a>, and it does not depend
    on the mean or the off-diagonal entries.
    """
    return float(np.exp(-0.5 * (a - 1.0) * (d * _LOG_2PI + 2.0 * log_det_chol)
                        - 0.5 * d * math.log(a)))


# -- Gaussians: gaussian-full-d and its 1-d views -------------------------------

def _quadratic_1d(u, chol):
    (u0,), (s,) = u, chol
    b = 1.0 / s
    p = b * b
    pm, kk = p * u0, p * b
    return [-0.5 * u0 * pm - 0.5 * _LOG_2PI - math.log(s), pm, -0.5 * p,
            -pm, p, 0.0,
            kk * u0 * u0 - b, -2.0 * kk * u0, kk]


def _quadratic_2d(u, chol):
    u0, u1 = u
    l00, l10, l11 = chol
    b0, b1 = 1.0 / l00, 1.0 / l11
    b10 = -l10 * b0 * b1
    p00, p10, p11 = b0 * b0 + b10 * b10, b10 * b1, b1 * b1
    pm0, pm1 = p00 * u0 + p10 * u1, p10 * u0 + p11 * u1
    bu0, bu1 = b0 * u0, b10 * u0 + b1 * u1
    return [-0.5 * (u0 * pm0 + u1 * pm1) - (_LOG_2PI + (math.log(l00) + math.log(l11))),
            pm0, pm1, -0.5 * p00, -p10, -0.5 * p11,
            -pm0, p00, p10, 0.0, 0.0, 0.0,
            -pm1, p10, p11, 0.0, 0.0, 0.0,
            pm0 * bu0 - b0, -(p00 * bu0 + b0 * pm0), -p10 * bu0, p00 * b0, p10 * b0, 0.0,
            pm1 * bu0, -(p10 * bu0 + b0 * pm1), -p11 * bu0, p10 * b0, p11 * b0, 0.0,
            pm1 * bu1 - b1, -(p10 * bu1 + b10 * pm1), -(p11 * bu1 + b1 * pm1),
            p10 * b10, p11 * b10 + b1 * p10, p11 * b1]


def _quadratic_3d(u, chol):
    u0, u1, u2 = u
    l00, l10, l11, l20, l21, l22 = chol
    b0, b1, b2 = 1.0 / l00, 1.0 / l11, 1.0 / l22
    b10, b21 = -l10 * b0 * b1, -l21 * b1 * b2
    b20 = -(l20 * b0 + l21 * b10) * b2
    p00, p10, p20 = b0 * b0 + b10 * b10 + b20 * b20, b10 * b1 + b20 * b21, b20 * b2
    p11, p21, p22 = b1 * b1 + b21 * b21, b21 * b2, b2 * b2
    P = (p00, p10, p20), (p10, p11, p21), (p20, p21, p22)
    B = (b0, 0.0, 0.0), (b10, b1, 0.0), (b20, b21, b2)
    pm = [x0 * u0 + x1 * u1 + x2 * u2 for x0, x1, x2 in P]
    bu = [x0 * u0 + x1 * u1 + x2 * u2 for x0, x1, x2 in B]

    def row(a, b):
        (x0, x1, x2), (y0, y1, y2), pa, ub = P[a], B[b], pm[a], bu[b]
        return [pa * ub - (B[a][a] if a == b else 0.0), -(x0 * ub + y0 * pa),
                -(x1 * ub + y1 * pa), -(x2 * ub + y2 * pa), x0 * y0, x1 * y0 + y1 * x0,
                x1 * y1, x2 * y0 + y2 * x0, x2 * y1 + y2 * x1, x2 * y2]
    zero = (0.0,) * 6
    return [-0.5 * (u0 * pm[0] + u1 * pm[1] + u2 * pm[2])
            - (1.5 * _LOG_2PI + (math.log(l00) + math.log(l11) + math.log(l22))),
            *pm, -0.5 * p00, -p10, -0.5 * p11, -p20, -p21, -0.5 * p22,
            -pm[0], *P[0], *zero, -pm[1], *P[1], *zero, -pm[2], *P[2], *zero,
            *row(0, 0), *row(1, 0), *row(1, 1), *row(2, 0), *row(2, 1), *row(2, 2)]


def _gaussian_full(dim=2):
    d = int(dim)
    if d < 1 or d > 3:
        raise ConfigError("gaussian-full-d supports dimensions 1..3")
    rows, cols = np.tril_indices(d)
    k = d + rows.size
    label = f"Gaussian d={d}"
    # theta = (mean, L row by row): L[i][j] is chol[at[i, j]]
    at = {(i, j): c for c, (i, j) in enumerate(zip(rows.tolist(), cols.tolist()))}
    diag_at = [at[i, i] for i in range(d)]
    # second_sum's (i, j) of each L entry, and where it finds u_i u_j in q
    pairs = list(at)
    quad_at = [[d + 1 + at[max(i, j), min(i, j)] for j in range(d)] for i in range(d)]

    def unpack(theta):
        """The mean, the entries of L in theta's order and the diagonal of L,
        as Python lists."""
        th = _theta(theta, k, label).tolist()
        chol = th[d:]
        diag = list(map(chol.__getitem__, diag_at))
        if not (all(map(math.isfinite, chol)) and min(diag) > 0):
            raise DomainError("the Cholesky factor must be finite with a positive diagonal")
        return th[:d], chol, diag

    def dense(theta):
        """The mean and L as arrays."""
        m, chol, _ = unpack(theta)
        L = np.zeros((d, d))
        L[rows, cols] = chol
        return np.array(m), L

    def whiten(theta, x):
        """L's entries, its diagonal and the coordinate columns of
        y = L^-1 (x - m), by forward substitution in place."""
        m, chol, diag = unpack(theta)
        pts = _as_points(x, d)
        y = [pts[:, i] - m[i] for i in range(d)]
        tmp = np.empty(pts.shape[0]) if d > 1 else None
        for i in range(d):
            for j in range(i):
                y[i] -= np.multiply(y[j], chol[at[i, j]], out=tmp)
            y[i] /= diag[i]
        return chol, diag, y

    def log_det(diag):
        # the sum of logs, not the log of the product: the two round
        # differently, and the optimizer's path follows the last bit
        return sum(map(math.log, diag))

    def logpdf(theta, x):
        _, diag, y = whiten(theta, x)
        out = y[0]
        out *= out
        for y_i in y[1:]:
            y_i *= y_i
            out += y_i
        out *= -0.5
        out -= 0.5 * d * _LOG_2PI + log_det(diag)
        return out

    def score(theta, x):
        # column-wise, like logpdf: the mean gradient g = Sigma^-1 (x - m)
        # = L^-T y by back substitution, and d log p / d L = L^-T (y y^T - I),
        # whose lower-triangle entry (i, j) is g[i] y[j] - [i == j] / L[i][i]
        chol, diag, y = whiten(theta, x)
        out = np.empty((y[0].size, k), order="F")
        tmp = np.empty(y[0].size) if d > 1 else None
        for i in reversed(range(d)):
            g_i = np.divide(y[i], diag[i], out=out[:, i])
            for j in range(i + 1, d):
                g_i -= np.multiply(out[:, j], chol[at[j, i]] / diag[i], out=tmp)
        for (i, j), c in at.items():
            g_chol = np.multiply(out[:, i], y[j], out=out[:, d + c])
            if i == j:
                g_chol -= 1.0 / diag[i]
        return out

    coefficients = (_quadratic_1d, _quadratic_2d, _quadratic_3d)[d - 1]

    def log_quadratic(theta, center):
        # with u = m - center, B = L^-1 by forward substitution, P = B^T B,
        # pm = P u and bu = B u: eta = [-u^T pm / 2 - d/2 log 2pi - sum log
        # L_ii, pm, -half_ij P_ij], where half_ij = 1/2 if i = j, since the
        # monomials u_i u_j, i >= j, weigh P_ij twice in u^T P u unless i = j;
        # the mean rows of jac are [-pm_a, P_a, 0], and with z = x - m,
        # d log p / d L_ab = (P_a . z)(B_b . z) - [a = b] B_aa, whose row is
        # [pm_a bu_b - [a = b] B_aa, -(P_a bu_b + B_b pm_a),
        #  half_ij (P_ai B_bj + B_bi P_aj)].  Written out per dimension in
        # Python floats (_quadratic_1d/2d/3d): numpy's per-call cost on arrays
        # of a few entries, and a loop's over d, exceed the arithmetic
        m, chol, diag = unpack(theta)
        u = [a - c for a, c in zip(m, np.asarray(center, dtype=float).tolist())]
        out = np.array(coefficients(u, chol)).reshape(k + 1, -1)
        return out[0], out[1:], lambda v: second_sum(u, chol, diag, v)
    log_quadratic.expands = logpdf

    def second_sum(u, chol, diag, v):
        # sum_r v_r d^2 eta_r / dtheta^2 = d^2/dtheta^2 of <h log p> for the
        # monomial sums v = <h q(x - center)>: with u = m - center, w and V the
        # linear and (symmetric) quadratic sums, <h (x - m)(x - m)^T> =
        # M = v0 u u^T - (u w^T + w u^T) + V, and <h log p> = -tr(P M) / 2
        # - v0 sum log L_ii + const.  With B = L^-1 (forward substitution),
        # z = v0 u - w, F = P M B^T and G = B M B^T the blocks are -v0 P
        # (mean, mean), P_ia (B z)_j + (P z)_i B_ja (mean a, L_ij) and
        # -(B_bi F_aj + P_ia G_bj + F_ib B_ja) + [i = j = a = b] v0 / L_ii^2
        # (L_ij, L_ab).  In Python floats, like _quadratic_1d/2d/3d
        v = np.asarray(v, dtype=float).tolist()
        v0, w, R = v[0], v[1:d + 1], range(d)
        B = [[0.0] * d for _ in R]
        for i in R:
            for j in range(i + 1):
                B[i][j] = ((i == j) - sum(chol[at[i, c]] * B[c][j] for c in range(j, i))) / diag[i]
        P = [[sum(B[c][i] * B[c][j] for c in R) for j in R] for i in R]
        z = [v0 * u[i] - w[i] for i in R]
        M = [[v0 * u[i] * u[j] - (u[i] * w[j] + w[i] * u[j]) + v[quad_at[i][j]] for j in R]
             for i in R]
        MB = [[sum(M[i][c] * B[j][c] for c in R) for j in R] for i in R]
        F = [[sum(P[i][c] * MB[c][j] for c in R) for j in R] for i in R]
        G = [[sum(B[i][c] * MB[c][j] for c in R) for j in R] for i in R]
        bz = [sum(B[i][c] * z[c] for c in R) for i in R]
        pz = [sum(P[i][c] * z[c] for c in R) for i in R]
        out = [[0.0] * k for _ in range(k)]
        for a in R:
            out[a][:d] = [-v0 * x for x in P[a]]
            for c, (i, j) in enumerate(pairs):
                out[a][d + c] = out[d + c][a] = P[i][a] * bz[j] + pz[i] * B[j][a]
        for c, (i, j) in enumerate(pairs):
            out[d + c][d:] = [-(B[b][i] * F[a][j] + P[i][a] * G[b][j] + F[i][b] * B[j][a])
                              for a, b in pairs]
            if i == j:
                out[d + c][d + c] += v0 / (diag[i] * diag[i])
        return np.array(out)

    def curvature(theta, x, h):
        # second_sum on the monomial sums of the points about their mean
        pts = _as_points(x, d)
        center = pts.mean(axis=0)
        y = pts - center
        h = np.asarray(h, dtype=float)
        v = [np.sum(h), *(h @ y)] + [(h * y[:, i]) @ y[:, j] for i, j in zip(rows, cols)]
        m, chol, diag = unpack(theta)
        return second_sum([a - c for a, c in zip(m, center.tolist())], chol, diag, v)

    def power(theta, a):
        # the Hessian is g g^T / p - diag(g / L_ii) over the diagonal entries
        # of L, (a - 1)^2 p / (L_ii L_jj) and a (a - 1) p / L_ii^2 on them
        _, _, diag = unpack(theta)
        p = _gaussian_power(d, log_det(diag), a)
        grad, hess = np.zeros(k), np.zeros((k, k))
        for c, v in zip(diag_at, diag):
            grad[d + c] = -(a - 1.0) / v * p
            for c2, v2 in zip(diag_at, diag):
                hess[d + c, d + c2] = (a - 1.0) * (a if c == c2 else a - 1.0) / v / v2 * p
        return p, grad, hess

    def push(theta, sigma, mu):
        m, L = dense(theta)
        sig = np.asarray(sigma, dtype=float).reshape(d, d)
        mu = np.asarray(mu, dtype=float).ravel()
        m2 = np.linalg.solve(sig, m - mu)
        cov2 = np.linalg.solve(sig, (L @ L.T)) @ np.linalg.inv(sig).T
        L2 = np.linalg.cholesky(0.5 * (cov2 + cov2.T))
        return np.concatenate([m2, L2[rows, cols]])

    def box(theta):
        m, L = dense(theta)
        sd = np.sqrt(np.diag(L @ L.T))
        return m - _GAUSS_HALF_WIDTH * sd, m + _GAUSS_HALF_WIDTH * sd

    def sampler(theta, n, rng):
        m, L = dense(theta)
        return m + rng.standard_normal((n, d)) @ L.T

    return ParametricModel(
        name="gaussian-full-d", dim=d,
        theta_names=tuple(f"mean{i}" for i in range(d))
        + tuple(f"chol{r}{c}" for r, c in zip(rows, cols)),
        log_density=logpdf,
        score=score,
        sampler=sampler,
        support=box,
        in_support=lambda x: np.ones(_as_points(x, d).shape[0], dtype=bool),
        push_params=push,
        power_moment=power,
        # set by the accuracy rule of tests/test_quadrature_oracle.py
        quad_points=(65, 129, 81)[d - 1],
        log_quadratic=log_quadratic,
        curvature=curvature,
    )


def _gaussian_mean_scale():
    """``gaussian-full-d`` at d = 1: theta = (mean, chol00) is (mean, scale)."""
    return replace(_gaussian_full(1), name="gaussian-mean-scale",
                   theta_names=("mean", "scale"))


def _gaussian_mean(scale=1.0):
    """``gaussian-mean-scale`` with the scale held fixed: theta = (mean,)."""
    s = float(scale)
    if not 0.0 < s < math.inf:
        raise ConfigError("gaussian-mean requires a finite scale > 0")
    base = _gaussian_mean_scale()

    def full(theta):
        return [float(_theta(theta, 1, "gaussian-mean")[0]), s]

    def log_density(theta, x):
        return base.log_density(full(theta), x)

    def log_quadratic(theta, center):
        eta, jac, curv = base.log_quadratic(full(theta), center)
        return eta, jac[:1], lambda v: curv(v)[:1, :1]
    log_quadratic.expands = log_density

    def push(theta, sigma, mu):
        # a map with |sigma| != 1 rescales the data, and the fixed scale with it
        if abs(float(np.ravel(sigma)[0])) != 1.0:
            raise DomainError("gaussian-mean holds its scale fixed, so it is closed "
                              "only under maps with |sigma| = 1")
        return base.push_params(full(theta), sigma, mu)[:1]

    return replace(
        base, name="gaussian-mean", theta_names=("mean",),
        log_density=log_density,
        log_quadratic=log_quadratic,
        score=lambda th, x: base.score(full(th), x)[:, :1],
        sampler=lambda th, n, rng: base.sampler(full(th), n, rng),
        support=lambda th: base.support(full(th)),
        push_params=push,
        power_moment=lambda th, a: (base.power_moment(full(th), a)[0], np.zeros(1),
                                    np.zeros((1, 1))),
        curvature=lambda th, x, h: base.curvature(full(th), x, h)[:1, :1],
    )


# -- fixed-weight Gaussian mixture ---------------------------------------------

def _gaussian_mixture(weights=(0.5, 0.5)):
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 2 or np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ConfigError("mixture weights must be positive and sum to 1")
    ncomp = w.size
    k = 2 * ncomp

    def unpack(theta):
        th = _theta(theta, k, "mixture (mean, scale per component)")
        m, s = th[0::2], th[1::2]
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise DomainError("mixture scales must be positive")
        return m, s

    def log_components(theta, x):
        # log(w_i N(x; m_i, s_i)) as (n, ncomp) columns, with x - m_i and s
        m, s = unpack(theta)
        r = _as_points(x, 1)[:, 0][:, None] - m
        return np.log(w / (np.sqrt(2 * np.pi) * s)) - 0.5 * (r / s) ** 2, r, s

    def logpdf(theta, x):
        # log-sum-exp over components: finite wherever any component is
        return reduce(np.logaddexp, log_components(theta, x)[0].T)

    def parts(theta, x):
        # the score, with the responsibilities (a softmax of the
        # log-components, finite where the density itself underflows), x - m_i
        # and s
        log_c, r, s = log_components(theta, x)
        resp = np.exp(log_c - reduce(np.logaddexp, log_c.T)[:, None])
        out = np.empty((r.shape[0], k), order="F")
        out[:, 0::2] = resp * r / (s * s)
        out[:, 1::2] = resp * (r * r / s ** 3 - 1.0 / s)
        return out, resp, r, s

    def score(theta, x):
        return parts(theta, x)[0]

    def curvature(theta, x, h):
        # sum_i h_i [sum_c resp_ic (d^2 log phi_c + s_c s_c^T) - s_i s_i^T],
        # s_c component c's own score in its (mean, scale) and s_i the
        # mixture's: one 2 x 2 block per component, less a weighted Gram matrix
        sc, resp, r, s = parts(theta, x)
        h = np.asarray(h, dtype=float)
        hr = h[:, None] * resp
        d_mean, d_scale = r / (s * s), r * r / s ** 3 - 1.0 / s
        out = np.zeros((k, k))
        at = np.arange(0, k, 2)
        out[at, at] = np.sum(hr * (d_mean * d_mean - 1.0 / (s * s)), axis=0)
        out[at, at + 1] = out[at + 1, at] = np.sum(hr * (d_mean * d_scale - 2.0 * r / s ** 3),
                                                   axis=0)
        out[at + 1, at + 1] = np.sum(hr * (d_scale * d_scale
                                           + (1.0 - 3.0 * r * r / (s * s)) / (s * s)), axis=0)
        return out - (h[:, None] * sc).T @ sc

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
        name="gaussian-mixture-fixed-weights", dim=1,
        theta_names=tuple(x for i in range(ncomp) for x in (f"mean{i}", f"scale{i}")),
        log_density=logpdf,
        score=score,
        sampler=sampler,
        support=box,
        in_support=lambda x: np.ones(_as_points(x, 1).shape[0], dtype=bool),
        push_params=push,
        quad_points=3001,
        curvature=curvature,
    )


# -- exponential ---------------------------------------------------------------

def _exponential_rate():
    def rate(theta):
        lam = float(_theta(theta, 1, "exponential-rate")[0])
        if lam <= 0 or not np.isfinite(lam):
            raise DomainError("exponential rate must be positive")
        return lam

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
        return (p, np.array([(a - 1.0) / lam * p]),
                np.array([[(a - 1.0) * (a - 2.0) / lam ** 2 * p]]))

    return ParametricModel(
        name="exponential-rate", dim=1, theta_names=("rate",),
        log_density=logpdf,
        score=score,
        sampler=lambda th, n, rng: rng.exponential(1.0 / rate(th), size=n).reshape(-1, 1),
        support=lambda th: (np.array([0.0]), np.array([_EXPON_CUTOFF / rate(th)])),
        in_support=lambda x: _as_points(x, 1)[:, 0] >= 0,
        push_params=None,
        power_moment=power,
        # d^2 log g / dlambda^2 = -1 / lambda^2 at every x
        curvature=lambda th, x, h: np.array([[-np.sum(h) / rate(th) ** 2]]),
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
    z = check_contamination(model, eps, z)
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


def check_points(model, z_rows):
    """``z_rows``, contamination points as (m, d) rows, once d is the model's
    dimension and every row is finite and lies in its support; raises
    otherwise."""
    if z_rows.shape[1] != model.dim:
        raise StructuralError("contamination point has wrong dimension")
    if not np.all(np.isfinite(z_rows)):
        raise DomainError("contamination point must be finite")
    if not bool(np.all(model.in_support(z_rows))):
        raise DomainError("contamination point lies outside the model support")
    return z_rows


def check_contamination(model, eps, z):
    """z as a point of the model's dimension, once eps lies in [0, 1) and z
    is finite and in the model's support; raises otherwise."""
    if not 0.0 <= eps < 1.0:
        raise DomainError("contamination level must satisfy 0 <= eps < 1")
    return check_points(model, np.atleast_1d(np.asarray(z, dtype=float)).reshape(1, -1))[0]


def contaminate(model, theta, eps, z):
    """Grid density of (1 - eps) * p_theta + eps * delta_z, exact on its grid.

    The box is the model's own joined with z +- (box width)/16.  Along each
    axis the lattice steps from the box's low end to z in cells no wider
    than the model's own, so z is a node, and the mass eps sits on that
    node's quadrature weight: every moment <f h> of the result is
    (1 - eps) <p_theta h> + eps h(z) on the grid.
    """
    theta = np.asarray(theta, dtype=float)
    z = check_contamination(model, eps, z)
    blo, bhi = model.support(theta)
    margin = (bhi - blo) / 16.0
    lo = np.minimum(blo, z - margin)
    hi = np.maximum(bhi, z + margin)
    k = np.ceil((z - lo) * (model.quad_points - 1) / (bhi - blo)).astype(int)
    h = (z - lo) / k
    n = np.ceil((hi - lo) / h).astype(int) + 1
    base = render_density(model, theta, lo, lo + (n - 1) * h, tuple(n))
    vals = (1.0 - eps) * base.values
    vals[tuple(k)] += eps / base.weights[tuple(k)]
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
