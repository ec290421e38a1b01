"""Composite score families, their divergences and empirical forms.

A composite score S(f, g) compares a data density f with a candidate g and is
minimized over g at g = f.  The families implemented here are all built from
two quadrature moments, the cross term ``<f g^gamma>`` and the power term
``<g^(1+gamma)>`` (the Kullback-Leibler score uses ``<-f log g>`` and ``<g>``
instead):

========================  =====================================================
KL                         <-f log g + g>
DensityPower(gamma)        <g^(1+gamma)> - (1+gamma)/gamma * <f g^gamma>
Pseudospherical(gamma)     -<f g^gamma> / <g^(1+gamma)>^(gamma/(1+gamma))
GammaScore(gamma)          -(1/gamma) * log(-Pseudospherical)
HolderScore(phi)           phi(<f g^gamma> / <g^(1+gamma)>) * <g^(1+gamma)>
BregmanHolder(gamma,kappa) <g^(1+gamma)>^(kappa/(1+gamma))
                               * (1 - 1/kappa - <f g^gamma>/<g^(1+gamma)>)
========================  =====================================================

The Holder family is parameterized by a shape function phi with phi(1) = -1
and phi(z) >= -z^(1+gamma); Holder's inequality then makes the associated
divergence D(f, g) = S(f, g) - S(f, f) nonnegative.  Because the quadrature
moments are weighted sums, the inequality (hence nonnegativity) holds for the
discrete values as well, not merely in the continuum limit.

Empirical forms replace the cross term with a sample average, which is what
the optimum-score estimators in :mod:`holderscores.estimators` minimize.

For a candidate ``(model, theta)`` the theta-gradient and theta-Hessian are
exact: each family gives its partials ``(dS/dcross, dS/dpower)`` and its
second partials ``(S_CC, S_CP, S_PP)``, and the moments differentiate through
the model score s = d log g / dtheta,

    d<f g^gamma>/dtheta = gamma <f g^gamma s>,
    d<g^(1+gamma)>/dtheta = (1+gamma) <g^(1+gamma) s>,
    d^2<f g^gamma>/dtheta^2 = gamma^2 <f g^gamma s s^T> + gamma <f g^gamma ds>,

and likewise for the power term (KL: gradient ``-<f s> + <g s>``, Hessian
``<g s s^T> + <(g - f) ds>``).  The Hessian of S(C, P) is then
a d2C + b d2P + [dC dP] S2 [dC dP]^T.  A moment and its derivatives share
their weighted terms, so each family has one private ``_evaluate(data, g)``
against a data grid or a ``Sample``: it returns the value and a function that
forms the gradient, or the gradient and the Hessian, and the six entry points
(``expected``, ``empirical``, their ``*_with_gradient`` pairs and their
``*_with_hessian`` triples) all call it, so every value is that of
``expected`` or ``empirical`` bit for bit, a triple's gradient is the pair's,
and only derivatives ever call the model's ``score`` or ``curvature``.  On a
data grid, a model with ``log_quadratic`` (every Gaussian) needs neither:
log g = eta @ q and s = jac @ q in the quadratic monomials q, so
<h s> = jac @ <h q>, <h s s^T> = jac <h q q^T> jac^T and <h ds> is
``curv(<h q>)``; on the tensor lattice, log g comes from the grid's cached
per-axis rows [1, w_k, w_k^2] and every moment from one contraction with
[1, w_k, .., w_k^4].  Other models, and every model at sample points, take
``log_density`` there and sum ``score`` columns and ``curvature``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DegenerateInputError, DomainError, StructuralError
from .grids import (MAX_DIM, GridDensity, _box_quadrature, _power_sum,
                    _require_same_grid, _tensor_nodes, log_moments, power_moment)
from .models import Sample, make_parametric, render_density
from .rng import rng_for

_FD_STEP = 1e-3


# -- shape functions -----------------------------------------------------------

@dataclass(frozen=True)
class PhiFunction:
    """Shape function phi: R+ -> R with its first two derivatives.

    ``value`` must satisfy phi(1) = -1 and phi(z) >= -z^(1+gamma) on z >= 0.
    ``d1``/``d2`` may be omitted: 5-point central differences of ``value``
    (step 1e-3 min(z, 1)) stand in, within 1.2e-9 of the builtin shapes' at
    z = 1; a shape whose third derivative jumps at 1, like
    :func:`phi_cubic_tail`, must supply ``d2``.
    """

    gamma: float
    value: Callable
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None
    label: str = "phi"

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise DomainError("phi requires a finite gamma > 0")
        v = self.value

        def difference(z, order):
            # the step is relative below 1, so that z - 2h stays inside z > 0
            z = np.asarray(z, dtype=float)
            h = _FD_STEP * np.where(z > 0, np.minimum(z, 1.0), 1.0)
            if order == 1:
                return (8.0 * (v(z + h) - v(z - h)) - (v(z + 2 * h) - v(z - 2 * h))) / (12.0 * h)
            return (16.0 * (v(z + h) + v(z - h)) - (v(z + 2 * h) + v(z - 2 * h))
                    - 30.0 * v(z)) / (12.0 * h * h)
        if self.d1 is None:
            object.__setattr__(self, "d1", lambda z: difference(z, 1))
        if self.d2 is None:
            object.__setattr__(self, "d2", lambda z: difference(z, 2))

    def __call__(self, z):
        return self.value(z)


def phi_kappa(gamma, kappa):
    """The kappa-indexed shape function of the Bregman-compatible subfamily.

    phi(z) = -kappa^((1+gamma)/kappa) |z - 1 + 1/kappa|^((1+gamma)/kappa)
             * sign(z - 1 + 1/kappa)

    kappa = 1 gives phi(z) = -z^(1+gamma) (the gamma-score shape, the lower
    bound itself); kappa = 1 + gamma matches the density power score.  The
    curvature at the anchor is phi''(1) = -gamma(1+gamma) + (kappa-1)(1+gamma),
    so only kappa = 1 meets the redescending condition.
    """
    if not 0 < gamma < math.inf:
        raise DomainError("phi_kappa requires a finite gamma > 0")
    if not 1 <= kappa < math.inf:
        raise DomainError("phi_kappa requires a finite kappa >= 1")
    a = (1.0 + gamma) / kappa
    c = kappa ** a
    shift = 1.0 - 1.0 / kappa

    def value(z):
        w = np.asarray(z, dtype=float) - shift
        return -c * np.abs(w) ** a * np.sign(w)

    def d1(z):
        w = np.asarray(z, dtype=float) - shift
        with np.errstate(divide="ignore"):
            return -c * a * np.abs(w) ** (a - 1.0)

    def d2(z):
        w = np.asarray(z, dtype=float) - shift
        with np.errstate(divide="ignore", invalid="ignore"):
            return -c * a * (a - 1.0) * np.abs(w) ** (a - 2.0) * np.sign(w)

    return PhiFunction(gamma=gamma, value=value, d1=d1, d2=d2,
                       label=f"kappa({gamma:g},{kappa:g})")


def phi_linear(gamma):
    """phi(z) = gamma - (1+gamma) z; the density-power-equivalent shape."""
    if not 0 < gamma < math.inf:
        raise DomainError("phi_linear requires a finite gamma > 0")
    return PhiFunction(
        gamma=gamma,
        value=lambda z: gamma - (1.0 + gamma) * np.asarray(z, dtype=float),
        d1=lambda z: np.full_like(np.asarray(z, dtype=float), -(1.0 + gamma)),
        d2=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        label=f"linear({gamma:g})")


def phi_gamma_score(gamma):
    """phi(z) = -z^(1+gamma); equivalent to the gamma-score."""
    return phi_kappa(gamma, 1.0)


def phi_cubic_tail(gamma, c=0.5):
    """Gamma-score shape plus a one-sided cubic bump c * max(z-1, 0)^3.

    For c >= 0 the lower bound is preserved, and the perturbation leaves
    phi(1), phi'(1) and phi''(1) untouched, so the resulting estimator is
    still redescending with the same limiting influence behavior.
    """
    if not 0 <= c < math.inf:
        raise DomainError("cubic tail coefficient must be finite and nonnegative")
    base = phi_kappa(gamma, 1.0)

    def relu(z):
        return np.clip(np.asarray(z, dtype=float) - 1.0, 0.0, None)

    return PhiFunction(
        gamma=gamma,
        value=lambda z: base.value(z) + c * relu(z) ** 3,
        d1=lambda z: base.d1(z) + 3.0 * c * relu(z) ** 2,
        d2=lambda z: base.d2(z) + 6.0 * c * relu(z),
        label=f"cubic-tail({gamma:g},{c:g})")


# shape name -> (constructor, the config keys it takes besides gamma)
_PHI_BUILTINS = {
    "kappa": (lambda gamma, kappa=1.0: phi_kappa(gamma, kappa), ("kappa",)),
    "gamma-score": (phi_gamma_score, ()),
    "linear": (phi_linear, ()),
    "cubic-tail": (phi_cubic_tail, ("c",)),
}


# -- score families --------------------------------------------------------------

@dataclass(frozen=True)
class ScoreValue:
    """One score comparison: S(f,g), the entropy S(f,f) and their gap."""

    s_fg: float
    s_ff: float
    divergence: float


class CompositeScore:
    """Base class for the score families.

    Subclasses provide ``_combine(cross, g_power)`` mapping the two moments
    of the target to the score value, ``_partials(cross, g_power)``, its two
    partial derivatives, and ``_second_partials(cross, g_power)``, its three
    second partials (S_CC, S_CP, S_PP); the KL family overrides
    ``_evaluate`` because it uses logarithmic moments.
    """

    name = "composite"
    #: exponent e with h(sigma, mu) = |det sigma|^-e for the families whose
    #: divergence-scale law is exact; None means "estimate empirically".
    affine_scale_exponent = None

    def __init__(self, gamma):
        if not 0 < gamma < math.inf:
            raise DomainError(f"{self.name} requires a finite gamma > 0")
        self.gamma = float(gamma)

    def __repr__(self):
        return f"{self.__class__.__name__}(gamma={self.gamma:g})"

    def _combine(self, cross, g_power):
        raise NotImplementedError

    def _partials(self, cross, g_power):
        raise NotImplementedError

    def _second_partials(self, cross, g_power):
        raise NotImplementedError

    # entry points ---------------------------------------------------------------

    def expected(self, f, g):
        """Population score S(f, g).

        ``g`` is a grid density on f's grid, or a ``(model, theta)`` pair whose
        log-density is evaluated once at f's own nodes.
        """
        return self._evaluate(f, g)[0]

    def empirical(self, sample, g):
        """Empirical score with the cross term replaced by a sample mean."""
        return self._evaluate(sample, g)[0]

    def expected_with_gradient(self, f, g):
        """``(expected(f, g), its theta-gradient)`` for a ``(model, theta)`` target."""
        value, gradient = self._evaluate(f, g)
        return value, gradient()

    def empirical_with_gradient(self, sample, g):
        """``(empirical(sample, g), its theta-gradient)`` for a ``(model, theta)`` target."""
        value, gradient = self._evaluate(sample, g)
        return value, gradient()

    def expected_with_hessian(self, f, g):
        """``(expected(f, g), its theta-gradient, its theta-Hessian)`` for a
        ``(model, theta)`` target; value and gradient are the pair's bit for bit."""
        value, derivatives = self._evaluate(f, g)
        return (value, *derivatives(True))

    def empirical_with_hessian(self, sample, g):
        """``(empirical(sample, g), its theta-gradient, its theta-Hessian)`` for a
        ``(model, theta)`` target; value and gradient are the pair's bit for bit."""
        value, derivatives = self._evaluate(sample, g)
        return (value, *derivatives(True))

    def _evaluate(self, data, g):
        """``(S, derivatives)`` against a data grid or a ``Sample``;
        ``derivatives(hessian=False)`` forms the theta-gradient, or with
        ``hessian`` the gradient and the theta-Hessian, and is the only caller
        of the model's ``score`` and ``curvature``."""
        gamma = self.gamma
        log_g, rows = _log_and_gradient_rows(data, g)
        if isinstance(data, Sample):
            power, power_moments = _candidate_power(g, 1.0 + gamma)
            q = np.exp(gamma * log_g)
            cross = float(np.mean(q))

            def moments():
                # C = <q> / n: dC = c <q s>, d2C = c (gamma <q s s^T> + <q ds>), c = gamma / n
                (d_q, second_q), (d_power, second_power) = rows(q, None), power_moments()
                c = gamma / data.n
                return c * d_q, d_power, \
                    lambda a, b: second_q(a * c * gamma, a * c) + second_power(b)
        else:
            cross, power, t = log_moments(data, log_g, gamma)
            power = _positive_power(power, 1.0 + gamma)

            def moments():
                # dC = gamma <h0 s>, d2C = gamma (gamma <h0 s s^T> + <h0 ds>),
                # and likewise for P with h1 and 1 + gamma
                (d_cross, d_power), second = rows(t, (cross, power))
                g0, g1 = gamma, 1.0 + gamma
                return g0 * d_cross, g1 * d_power, \
                    lambda a, b: second((a * g0 * g0, b * g1 * g1), (a * g0, b * g1))

        def derivatives(hessian=False):
            # second(a, b) = a d2C + b d2P
            d_c, d_p, second = moments()
            a, b = self._partials(cross, power)
            grad = a * d_c + b * d_p
            if not hessian:
                return grad
            s_cc, s_cp, s_pp = self._second_partials(cross, power)
            dc, dp = d_c[:, None], d_p[:, None]
            cp = dc * d_p
            return grad, second(a, b) + s_cc * (dc * d_c) + s_cp * (cp + cp.T) + s_pp * (dp * d_p)
        return self._combine(cross, power), derivatives


class KL(CompositeScore):
    """Kullback-Leibler score <-f log g + g>; the gamma -> 0 member."""

    name = "kl"
    affine_scale_exponent = 0.0

    def __init__(self):
        self.gamma = 0.0

    def __repr__(self):
        return "KL()"

    def _evaluate(self, data, g):
        # the Hessian is <g s s^T> + <g ds> - <f ds>, or at sample points the
        # power term's less the mean of ds
        log_g, rows = _log_and_gradient_rows(data, g)
        if isinstance(data, Sample):
            power, power_moments = _candidate_power(g, 1.0)

            def derivatives(hessian=False):
                (d_power, second_power), (d_log, second) = \
                    power_moments(), rows(np.full(data.n, 1.0 / data.n), None)
                grad = d_power - d_log
                return (grad, second_power(1.0) - second(0.0, 1.0)) if hessian else grad
            return -float(np.mean(log_g)) + power, derivatives
        weights, values = data.weights.ravel(), data.values.ravel()
        t = np.empty((2, log_g.size))
        np.multiply(values, weights, out=t[0])
        power = float(_power_sum(weights, log_g, 1.0, out=t[1]))

        def derivatives(hessian=False):
            (d_cross, d_power), second = rows(t, (float(np.sum(t[0])), power))
            if not hessian:
                return d_power - d_cross
            return d_power - d_cross, second((0.0, 1.0), (-1.0, 1.0))
        return _kl_cross(t[0], values, log_g) + power, derivatives


def _kl_cross(fw, values, log_g):
    """<-f log g> from the weighted values ``fw``: +inf where g = 0 < f, and 0
    where f = g = 0, which the plain product reads as 0 * -inf = NaN."""
    with np.errstate(invalid="ignore"):
        cross = float(fw @ log_g)
    return -(float(fw @ np.where(values > 0, log_g, 0.0)) if math.isnan(cross) else cross)


def _monomial_at(d):
    """Where each quadratic monomial q_m(u) = prod_k u_k^a_k sits in a (3,)*d
    array indexed by the exponents a, and where it and each product
    q_m q_n sit in a (5,)*d array, as flat indices (base-3 or base-5 digits
    a): ``(at3, at5, pairs5)``, the last of shape (r, r)."""
    eye = np.eye(d, dtype=int)
    low, high = np.tril_indices(d)
    exponents = np.vstack([np.zeros(d, dtype=int), eye, eye[low] + eye[high]])
    place3, place5 = 3 ** np.arange(d - 1, -1, -1), 5 ** np.arange(d - 1, -1, -1)
    return (exponents @ place3, exponents @ place5,
            (exponents[:, None] + exponents[None]) @ place5)


_MONOMIAL_AT = {d: _monomial_at(d) for d in range(1, MAX_DIM + 1)}


def _no_gradient(*_):
    raise StructuralError("theta-gradients need a (model, theta) target")


def _second_moments(model, theta, nodes, s, h_ss, h_cv):
    """<h_ss s s^T> + <h_cv ds> at the nodes, from the score columns s (N, k)
    and the model's ``curvature``."""
    if model.curvature is None:
        raise StructuralError(f"{model.name} has no curvature: its Hessian needs one")
    return (h_ss[:, None] * s).T @ s + model.curvature(theta, nodes, h_cv)


def _log_and_gradient_rows(data, g):
    """``(log g, moments)`` at the nodes of the data grid, or at the points
    of a ``Sample``; -inf marks g = 0.  For node weights h, ``moments(t,
    totals)`` maps the terms t of such weightings, shape (2, N) on a grid,
    and their totals <h>, (2,), to ``(gradients, second)``: the
    theta-gradients <h s>, (2, k), of s = d log g / dtheta, and
    ``second(w_ss, w_cv)``, the (k, k) sum over the weightings of
    w_ss <h s s^T> + w_cv <h ds/dtheta>, so that one ``curvature`` call serves
    every weighting; at sample points t may be one row (n,), totals are
    unused, the gradient is (k,) and the w are scalars.

    ``g`` is a grid density, on the data grid or interpolated at the sample
    points, whose ``moments`` raises, or a ``(model, theta)`` pair of the
    data's dimension.  On a grid, a model with ``log_quadratic`` sums the
    monomials q(w) of the lattice coordinates w = v - midpoint and lifts them
    through its Jacobian, eta and Jacobian taken into w by the grid's
    ``monomial_lift``: log g = eta @ q, contracted one axis at a time with
    the first three of the grid's per-axis rows [1, w_k, .., w_k^4] through
    the (3,)*d array of the coefficients of prod_k w_k^a_k, and the sums
    <h prod_k w_k^a_k>, a_k <= 4, are one contraction with all five, from
    which <h q> and <h q q^T> are read; no (r, N) array is formed.  Any other
    model, and every model at sample points, sums its score columns and its
    ``curvature``, and calls them only when ``moments`` and ``second`` are.
    """
    sample = isinstance(data, Sample)
    if isinstance(g, GridDensity):
        if sample:
            values = g.evaluate(data.points)
        else:
            _require_same_grid(data, g)
            values = g.values.ravel()
        with np.errstate(divide="ignore"):
            return np.log(values), _no_gradient
    model, theta = g
    if model.dim != data.dim:
        raise StructuralError(f"points have dimension {data.dim}, model expects {model.dim}")
    theta = np.asarray(theta, dtype=float)
    if sample or model.log_quadratic is None:
        nodes = data.points if sample else data.points()

        def score_moments(t, totals):
            s = model.score(theta, nodes)
            return t @ s, lambda w_ss, w_cv: _second_moments(model, theta, nodes, s,
                                                             np.dot(w_ss, t), np.dot(w_cv, t))
        return model.log_density(theta, nodes), score_moments
    center, lift = data.monomial_lift
    eta, jac, curv = model.log_quadratic(theta, center)
    eta, jac = eta @ lift, jac @ lift
    rows, d = data.axis_monomials, data.dim
    at3, at5, pairs5 = _MONOMIAL_AT[d]
    coef = np.zeros(3 ** d)
    coef[at3] = eta
    # each product trades the leading exponent axis for one grid axis, put
    # last, so that after d products the array is log g in grid order
    for v in rows:
        coef = coef.reshape(3, -1).T @ v[:, :3].T

    def monomial_moments(t, totals):
        # grid axes last to first, each replaced by its exponent axis in place
        x = t.reshape(-1, rows[-1].shape[0]) @ rows[-1]
        for k in reversed(range(d - 1)):
            x = np.matmul(rows[k].T, x.reshape(-1, rows[k].shape[0], 5 ** (d - 1 - k)))
        x = x.reshape(2, -1)
        # <h s s^T> = jac <h q q^T> jac^T, and curv reads <h q(u)> = lift <h q(w)>
        return (np.outer(totals, jac[:, 0]) + x[:, at5[1:]] @ jac[:, 1:].T,
                lambda w_ss, w_cv: (jac @ (np.dot(w_ss, x)[pairs5] @ jac.T)
                                    + curv(lift @ np.dot(w_cv, x)[at5])))
    return coef.ravel(), monomial_moments


def _candidate_power(g, a):
    """``(<g^a>, moments)``: over g's own grid, or for a ``(model, theta)``
    pair its closed form or, where it has none, the sum over its quadrature
    box without rendering it; anything but a finite positive value raises.
    The zero-argument ``moments`` gives ``(d<g^a>/dtheta, second)``, and
    ``second(w)`` the Hessian w d^2<g^a>/dtheta^2."""
    if isinstance(g, GridDensity):
        return _positive_power(power_moment(g, a), a), _no_gradient
    model, theta = g
    theta = np.asarray(theta, dtype=float)
    if model.power_moment is not None:
        power, d_power, h_power = model.power_moment(theta, a)
        return _positive_power(power, a), lambda: (d_power, lambda w: w * h_power)
    axes, weights = _box_quadrature(*model.support(theta), (model.quad_points,) * model.dim)
    log_box, rows = _log_and_gradient_rows(Sample(_tensor_nodes(axes)), g)
    t = np.empty(log_box.size)
    power = _power_sum(weights.ravel(), log_box, a, out=t)

    def moments():
        # a <t s> and a^2 <t s s^T> + a <t ds> for t = weights g^a
        d_t, second = rows(t, None)
        return a * d_t, lambda w: second(w * a * a, w * a)
    return _positive_power(power, a), moments


def _positive_power(power, a):
    power = float(power)
    if not (np.isfinite(power) and power > 0.0):
        raise DegenerateInputError(f"<g^{a:g}> = {power}; target carries no finite mass")
    return power


class DensityPower(CompositeScore):
    """Density power score, the separable Bregman member of the family."""

    name = "density-power"

    def _combine(self, cross, g_power):
        return g_power - (1.0 + self.gamma) / self.gamma * cross

    def _partials(self, cross, g_power):
        return -(1.0 + self.gamma) / self.gamma, 1.0

    def _second_partials(self, cross, g_power):
        return 0.0, 0.0, 0.0


class Pseudospherical(CompositeScore):
    """Pseudospherical score -<f g^gamma> / <g^(1+gamma)>^(gamma/(1+gamma))."""

    name = "pseudospherical"

    def _combine(self, cross, g_power):
        return -cross / g_power ** (self.gamma / (1.0 + self.gamma))

    def _partials(self, cross, g_power):
        b = self.gamma / (1.0 + self.gamma)
        return -g_power ** -b, b * cross * g_power ** (-b - 1.0)

    def _second_partials(self, cross, g_power):
        b = self.gamma / (1.0 + self.gamma)
        return 0.0, b * g_power ** (-b - 1.0), -b * (b + 1.0) * cross * g_power ** (-b - 2.0)


class GammaScore(CompositeScore):
    """Gamma-score -(1/gamma) log(-pseudospherical score).

    When the pseudospherical value is not negative (disjoint supports), the
    logarithm is undefined and the score signals +inf rather than raising:
    probability densities with common support never reach that branch.
    """

    name = "gamma"

    def _combine(self, cross, g_power):
        ps = -cross / g_power ** (self.gamma / (1.0 + self.gamma))
        if ps >= 0.0:
            return math.inf
        return -math.log(-ps) / self.gamma

    def _partials(self, cross, g_power):
        if cross <= 0.0:  # where the value is +inf
            return math.nan, math.nan
        return -1.0 / (self.gamma * cross), 1.0 / ((1.0 + self.gamma) * g_power)

    def _second_partials(self, cross, g_power):
        if cross <= 0.0:
            return math.nan, math.nan, math.nan
        return 1.0 / (self.gamma * cross * cross), 0.0, -1.0 / ((1.0 + self.gamma) * g_power ** 2)


class HolderScore(CompositeScore):
    """Holder score phi(<f g^gamma>/<g^(1+gamma)>) * <g^(1+gamma)>."""

    name = "holder"

    def __init__(self, phi):
        if not isinstance(phi, PhiFunction):
            raise ConfigError("HolderScore expects a PhiFunction")
        super().__init__(phi.gamma)
        self.phi = phi

    @property
    def affine_scale_exponent(self):
        return self.gamma

    def __repr__(self):
        return f"HolderScore(gamma={self.gamma:g}, phi={self.phi.label})"

    def _combine(self, cross, g_power):
        return float(self.phi.value(cross / g_power)) * g_power

    def _partials(self, cross, g_power):
        r = cross / g_power
        d1 = self.phi.d1(r)
        return d1, self.phi.value(r) - r * d1

    def _second_partials(self, cross, g_power):
        r = cross / g_power
        d2 = self.phi.d2(r) / g_power
        return d2, -r * d2, r * r * d2


class BregmanHolder(CompositeScore):
    """The Bregman-form member with potential <f^(1+gamma)>^(kappa/(1+gamma)).

    Equivalent in probability to ``HolderScore(phi_kappa(gamma, kappa))``
    through the strictly increasing map given by
    :func:`bregman_to_holder_value`; kappa = 1 reproduces the pseudospherical
    score exactly and kappa = 1 + gamma the density power score up to scale.
    """

    name = "bregman-holder"

    def __init__(self, gamma, kappa):
        super().__init__(gamma)
        if not 1 <= kappa < math.inf:
            raise DomainError("bregman-holder requires a finite kappa >= 1")
        self.kappa = float(kappa)

    def __repr__(self):
        return f"BregmanHolder(gamma={self.gamma:g}, kappa={self.kappa:g})"

    def _combine(self, cross, g_power):
        return g_power ** (self.kappa / (1.0 + self.gamma)) * \
            (1.0 - 1.0 / self.kappa - cross / g_power)

    def _partials(self, cross, g_power):
        # elementwise, for the per-observation moments of averaged_score
        e = self.kappa / (1.0 + self.gamma)
        scale = g_power ** (e - 1.0)
        return -scale, scale * (e * (1.0 - 1.0 / self.kappa) - (e - 1.0) * cross / g_power)

    def _second_partials(self, cross, g_power):
        e = self.kappa / (1.0 + self.gamma)
        scale = (e - 1.0) * g_power ** (e - 2.0)
        return 0.0, -scale, scale * (e * (1.0 - 1.0 / self.kappa) - (e - 2.0) * cross / g_power)


def bregman_to_holder_value(value, gamma, kappa):
    """Map a BregmanHolder score value onto the matching Holder score value.

    xi(x) = kappa^((1+gamma)/kappa) |x|^((1+gamma)/kappa) sign(x) is strictly
    increasing, and xi(BregmanHolder(gamma, kappa)) equals
    HolderScore(phi_kappa(gamma, kappa)) identically; the two code paths are
    cross-checked in the test suite at 1e-10 relative tolerance.
    """
    a = (1.0 + gamma) / kappa
    x = np.asarray(value, dtype=float)
    return kappa ** a * np.abs(x) ** a * np.sign(x)


# -- free-function API -----------------------------------------------------------

def expected_score(score, f, g):
    """Population score S(f, g); see the family table in the module docstring."""
    return score.expected(f, g)


def divergence(score, f, g):
    """D(f, g) = S(f, g) - S(f, f) together with both score values.

    Nonnegative for every family; zero at g = f.  For normalized inputs a
    positive gap certifies that f and g differ.
    """
    s_fg = score.expected(f, g)
    s_ff = score.expected(f, f)
    return ScoreValue(s_fg=s_fg, s_ff=s_ff, divergence=s_fg - s_ff)


def empirical_score(score, sample, g):
    """Empirical score of a target g against observed points.

    ``g`` is either a :class:`GridDensity` or a ``(model, theta)`` pair; in
    the latter case the power integral is the model's closed form
    (``power_moment``), or a sum over its quadrature box where it has none,
    and the sample values use the analytic log-density.
    """
    return score.empirical(sample, g)


# -- phi validation ----------------------------------------------------------------

@dataclass(frozen=True)
class PhiValidationReport:
    """Outcome of the lattice scan of a shape function."""

    passed: bool
    anchor_error: float
    violations: tuple
    z_max: float
    n_test: int

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"{verdict}: anchor |phi(1)+1| = {self.anchor_error:.3e}, "
                 f"{len(self.violations)} bound violations on [0, {self.z_max:g}]"]
        for z, gap in self.violations[:10]:
            lines.append(f"  phi({z:.6g}) below -z^(1+gamma) by {gap:.3e}")
        return "\n".join(lines)


def validate_phi(phi, z_max=10.0, n_test=10000, tol=1e-12):
    """Scan a shape function for the anchor and lower-bound conditions.

    Checks phi(1) = -1 and phi(z) >= -z^(1+gamma) on a lattice of ``n_test``
    points covering [0, z_max]; any violation beyond ``tol`` is reported.
    """
    if z_max <= 1.0:
        raise DomainError("z_max must exceed 1 so the lattice crosses the anchor")
    z = np.linspace(0.0, z_max, int(n_test))
    vals = np.asarray(phi.value(z), dtype=float)
    bound = -z ** (1.0 + phi.gamma)
    deficit = bound - vals
    bad = np.nonzero(deficit > tol)[0]
    violations = tuple((float(z[i]), float(deficit[i])) for i in bad)
    anchor_error = abs(float(phi.value(1.0)) + 1.0)
    passed = anchor_error <= tol and not violations
    return PhiValidationReport(passed=passed, anchor_error=anchor_error,
                               violations=violations, z_max=float(z_max),
                               n_test=int(n_test))


# -- equivalence-in-probability check ------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    """Order-agreement outcome over sampled (p, q, q') triples."""

    trials: int
    violations: int
    passed: bool
    examples: tuple

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict}: {self.violations} order disagreements "
                f"in {self.trials} sampled triples")


def _random_grid_density(rng, lo=-10.0, hi=10.0, n=1201):
    """A random normalized density: Gaussian or two-bump mixture on [lo, hi]."""
    m = rng.uniform(-2.0, 2.0)
    s = rng.uniform(0.6, 2.0)
    if rng.random() < 0.5:
        m2 = rng.uniform(-3.0, 3.0)
        s2 = rng.uniform(0.6, 2.0)
        w = rng.uniform(0.2, 0.8)
        model = make_parametric("gaussian-mixture-fixed-weights", weights=(w, 1 - w))
        theta = [m, s, m2, s2]
    else:
        model, theta = make_parametric("gaussian-mean-scale"), [m, s]
    return render_density(model, theta, [lo], [hi], n).normalize()


def check_equivalence_in_probability(score_a, score_b, trials=200, seed=0):
    """Monotone-relabel test: do two families rank candidate fits identically?

    Equivalence in probability only demands a strictly increasing map between
    the two scores on probability densities; its testable consequence is that
    for random triples (p, q, q') the orderings of S(p, q) versus S(p, q')
    agree.  Ties below 1e-12 relative are treated as order-neutral.
    """
    rng = rng_for(seed)
    violations = []
    for _ in range(int(trials)):
        p = _random_grid_density(rng)
        q = _random_grid_density(rng)
        q2 = _random_grid_density(rng)
        a, a2 = score_a.expected(p, q), score_a.expected(p, q2)
        b, b2 = score_b.expected(p, q), score_b.expected(p, q2)
        da, db = a - a2, b - b2
        scale_a, scale_b = abs(a) + abs(a2), abs(b) + abs(b2)
        sa = 0 if abs(da) <= 1e-12 * max(scale_a, 1.0) else int(np.sign(da))
        sb = 0 if abs(db) <= 1e-12 * max(scale_b, 1.0) else int(np.sign(db))
        if sa != 0 and sb != 0 and sa != sb:
            violations.append((da, db))
    return EquivalenceReport(trials=int(trials), violations=len(violations),
                             passed=not violations, examples=tuple(violations[:5]))


# -- config mapping ----------------------------------------------------------------

def number_from_config(cfg, key, default=None):
    """The number under ``key`` of a flat config, or ``default`` when the key
    is absent; a missing key with no default, or a value that is not a
    number, raises :class:`ConfigError`."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return float(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} must be a number, got {cfg[key]!r}") from None


def phi_from_config(cfg, gamma):
    """Build a builtin shape function from flat config keys: phi, kappa, c.

    ``phi`` names the shape (kappa, gamma-score, linear, cubic-tail; default
    kappa); ``kappa`` and ``c`` are passed on when present.  A ``kappa`` or
    ``c`` key that the named shape does not take raises :class:`ConfigError`.
    """
    name = str(cfg.get("phi", "kappa")).strip().lower()
    if name not in _PHI_BUILTINS:
        raise ConfigError(f"unknown phi builtin {name!r}; choose from "
                          f"{sorted(_PHI_BUILTINS)}")
    build, takes = _PHI_BUILTINS[name]
    for key in ("kappa", "c"):
        if key in cfg and key not in takes:
            raise ConfigError(f"phi {name!r} takes no {key!r} key")
    return build(gamma, **{key: number_from_config(cfg, key) for key in takes if key in cfg})


def score_from_config(cfg):
    """Build a score from flat config keys: family, gamma, kappa, phi, c.

    ``family`` is one of kl, density-power, pseudospherical, gamma, holder,
    bregman-holder; the holder family takes its shape from
    :func:`phi_from_config`.  A missing or non-numeric value raises
    :class:`ConfigError`.
    """
    family = str(cfg.get("family", "")).strip().lower()
    if not family:
        raise ConfigError("score config needs a 'family' key")
    if family == "kl":
        return KL()
    gamma = number_from_config(cfg, "gamma")
    if family == "density-power":
        return DensityPower(gamma)
    if family == "pseudospherical":
        return Pseudospherical(gamma)
    if family == "gamma":
        return GammaScore(gamma)
    if family == "bregman-holder":
        return BregmanHolder(gamma, number_from_config(cfg, "kappa"))
    if family == "holder":
        return HolderScore(phi_from_config(cfg, gamma))
    raise ConfigError(f"unknown score family {family!r}")
