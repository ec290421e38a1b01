"""The quadrature against closed forms.

Every population pair sums over the data density's own grid: the data f is
rendered on its quadrature box, and the candidate g enters through log g at
f's nodes.  For Gaussian, exponential and mixture pairs the moments those
sums approximate have closed forms, so each family's default ``quad_points``
is checked here against an absolute reference, not against a finer grid:

- Gaussian cross term: <N1 N2^g> = (2 pi)^(d(1-g)/2) |S2|^((1-g)/2) g^(-d/2)
  N(m1; m2, S1 + S2/g);
- KL cross term: <-N1 log N2> = 1/2 [d log 2 pi + log|S2| + tr(S2^-1 S1)
  + (m1 - m2)^T S2^-1 (m1 - m2)];
- exponential: <E1 E2^g> = l1 l2^g / (l1 + g l2), <-E1 log E2> = l2/l1 - log l2;
- mixture at g = 1: <f g> is a sum of pairwise Gaussian products.

The Gaussian defaults are set by this module's rule.  Over the theta set
below, take the smallest n of the form 2^k + 1 at which the mass of f, the
KL cross term and <f g^gamma>, <g^(1+gamma)> for gamma in {0.5, 1} match the
closed forms to 1e-12 relative; then halve the node spacing, n -> 2n - 1,
which keeps every node.  So the grid with half the nodes, (n - 1)/2 + 1,
still meets 1e-12 and the one with a quarter does not.  That gives 65 nodes
in 1-D and 129^2 in 2-D.  3-D keeps 81^3, which meets 1e-12 (4.5e-13 at
worst, from a pair whose correlation matrix has smallest eigenvalue 0.011)
but without the margin: 65^3 reaches 1.3e-8, and the rule's 129^3 would
cost 4x the nodes.

The candidate's mass <g> over f's box is not checked: g's mean and scale
differ from f's, so its tail beyond f's +-8 sd box holds ~1e-12 of its mass
whatever h is.
"""

import math

import numpy as np
import pytest

from holderscores import (KL, DensityPower, GammaScore, integrate, make_parametric,
                          render_density)
from holderscores.grids import log_moments
from holderscores.scores import _log_and_gradient_rows

RTOL = 1e-12
GAMMAS = (0.5, 1.0)
N_PAIRS = 20
LOG_2PI = math.log(2.0 * math.pi)


# -- the theta set -----------------------------------------------------------------

def gaussian_pairs(d):
    """20 (p, q) pairs of (mean, covariance): scales in [0.5, 2], correlations
    |r| <= 0.9, q's mean shifted by up to 0.3 per axis and its covariance
    scaled by a factor in [0.8, 1.25]."""
    rng = np.random.default_rng(2600 + d)
    low = np.tril_indices(d, -1)
    pairs = []
    while len(pairs) < N_PAIRS:
        corr = np.eye(d)
        corr[low] = rng.uniform(-0.9, 0.9, low[0].size)
        corr = corr + np.tril(corr, -1).T
        scales = rng.uniform(0.5, 2.0, d)
        if np.linalg.eigvalsh(corr)[0] <= 0.0:
            continue
        m1 = rng.uniform(-1.0, 1.0, d)
        cov1 = corr * np.outer(scales, scales)
        pairs.append(((m1, cov1),
                      (m1 + rng.uniform(-0.3, 0.3, d), cov1 * rng.uniform(0.8, 1.25))))
    return pairs


class Gaussian:
    """A Gaussian model with the map between its theta and (mean, covariance)."""

    def __init__(self, kind, d=1):
        self.model = make_parametric(kind, dim=d) if kind == "gaussian-full-d" \
            else make_parametric(kind)
        self.d = d
        self.rows, self.cols = np.tril_indices(d)
        self.fixed_scale = kind == "gaussian-mean"
        self.pairs = [tuple(self.theta(*p) for p in pair) for pair in gaussian_pairs(d)]

    def theta(self, m, cov):
        if self.fixed_scale:
            return np.array(m)
        return np.concatenate([m, np.linalg.cholesky(cov)[self.rows, self.cols]])

    def params(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.fixed_scale:
            return theta, np.eye(1)
        L = np.zeros((self.d, self.d))
        L[self.rows, self.cols] = theta[self.d:]
        return theta[:self.d], L @ L.T


def gaussian_cross(p, q, gamma):
    """<N(p) N(q)^gamma>."""
    (m1, c1), (m2, c2) = p, q
    d = m1.size
    c = c1 + c2 / gamma
    r = m1 - m2
    log_n = -0.5 * (d * LOG_2PI + np.linalg.slogdet(c)[1] + r @ np.linalg.solve(c, r))
    return math.exp(0.5 * d * (1.0 - gamma) * LOG_2PI
                    + 0.5 * (1.0 - gamma) * np.linalg.slogdet(c2)[1]
                    - 0.5 * d * math.log(gamma) + log_n)


def gaussian_kl_cross(p, q):
    """<-N(p) log N(q)>."""
    (m1, c1), (m2, c2) = p, q
    r = m1 - m2
    return 0.5 * (m1.size * LOG_2PI + np.linalg.slogdet(c2)[1]
                  + np.trace(np.linalg.solve(c2, c1)) + r @ np.linalg.solve(c2, r))


GAUSSIANS = {
    "gaussian-mean": Gaussian("gaussian-mean"),
    "gaussian-mean-scale": Gaussian("gaussian-mean-scale"),
    "gaussian-full-d-1": Gaussian("gaussian-full-d", 1),
    "gaussian-full-d-2": Gaussian("gaussian-full-d", 2),
    "gaussian-full-d-3": Gaussian("gaussian-full-d", 3),
}


# -- grid moments against the closed forms ---------------------------------------------

def pair_moments(model, theta_p, theta_q, n):
    """The population pair's sums on p's grid at n nodes per axis: the mass
    of f, <-f log g> and, per gamma, (<f g^gamma>, <g^(1+gamma)>)."""
    f = render_density(model, theta_p, points_per_axis=n)
    log_g = _log_and_gradient_rows(f, (model, theta_q))[0]
    kl_cross = -float((f.values.ravel() * f.weights.ravel()) @ log_g)
    moments = {gamma: log_moments(f, log_g, gamma)[:2] for gamma in GAMMAS}
    return integrate(f), kl_cross, moments


def worst(checks):
    """Per check name, the largest relative error over (name, got, want) rows."""
    out = {}
    for name, got, want in checks:
        out[name] = max(out.get(name, 0.0), abs(got - want) / abs(want))
    return out


def gaussian_checks(case, n):
    model = case.model
    for theta_p, theta_q in case.pairs:
        p, q = case.params(theta_p), case.params(theta_q)
        mass, kl_cross, moments = pair_moments(model, theta_p, theta_q, n)
        yield "mass", mass, 1.0
        yield "kl cross", kl_cross, gaussian_kl_cross(p, q)
        for gamma, (cross, power) in moments.items():
            yield f"cross {gamma:g}", cross, gaussian_cross(p, q, gamma)
            yield f"power {gamma:g}", power, model.power_moment(theta_q, 1.0 + gamma)[0]


def assert_within(errors, rtol, where):
    bad = {k: v for k, v in errors.items() if not v <= rtol}
    assert not bad, f"{where}: relative errors above {rtol:g}: {bad}"


class TestGaussianDefaults:
    @pytest.mark.parametrize("name", GAUSSIANS)
    def test_default_grid_matches_the_closed_forms(self, name):
        case = GAUSSIANS[name]
        assert_within(worst(gaussian_checks(case, case.model.quad_points)), RTOL,
                      f"{name} at {case.model.quad_points} nodes")

    @pytest.mark.parametrize("name", [k for k in GAUSSIANS if GAUSSIANS[k].d < 3])
    def test_the_default_is_the_rules(self, name):
        # its smallest n, (n - 1)/2 + 1, meets 1e-12 and the next grid down
        # does not; the default halves that n's spacing, a 2x margin in h
        case = GAUSSIANS[name]
        half = (case.model.quad_points - 1) // 2 + 1
        assert_within(worst(gaussian_checks(case, half)), RTOL, f"{name} at {half} nodes")
        quarter = (half - 1) // 2 + 1
        assert max(worst(gaussian_checks(case, quarter)).values()) > RTOL

    @pytest.mark.parametrize("r,covered", [(0.98, True), (-0.98, True),
                                           (0.99, False), (-0.99, False)])
    def test_2d_correlation_coverage(self, r, covered):
        # unit scales, p = q: at the default 129^2 the gamma = 0.5 cross
        # moment is exact to |r| = 0.98 (5e-15) and 9.7e-8 off at 0.99
        case = GAUSSIANS["gaussian-full-d-2"]
        m, cov = np.zeros(2), np.array([[1.0, r], [r, 1.0]])
        theta = case.theta(m, cov)
        cross = pair_moments(case.model, theta, theta, case.model.quad_points)[2][0.5][0]
        want = gaussian_cross((m, cov), (m, cov), 0.5)
        assert (abs(cross - want) <= 1e-14 * want) == covered

    def test_defaults(self):
        assert [GAUSSIANS[k].model.quad_points for k in GAUSSIANS] == [65, 65, 65, 129, 81]


# -- theta-gradients against central differences of the closed form ------------------

def closed_form_score(score, p, q):
    if isinstance(score, KL):
        return gaussian_kl_cross(p, q) + 1.0
    gamma = score.gamma
    cross, power = gaussian_cross(p, q, gamma), gaussian_cross(q, q, gamma)
    return score._combine(cross, power)


@pytest.mark.parametrize("score", [KL(), DensityPower(0.5), GammaScore(1.0)],
                         ids=repr)
@pytest.mark.parametrize("name", GAUSSIANS)
def test_theta_gradient_matches_the_closed_form(name, score):
    case = GAUSSIANS[name]
    model = case.model
    step = 1e-5
    for theta_p, theta_q in case.pairs[:4]:
        f = render_density(model, theta_p)
        p = case.params(theta_p)
        value, grad = score.expected_with_hessian(f, (model, theta_q))[:2]
        assert value == pytest.approx(closed_form_score(score, p, case.params(theta_q)),
                                      rel=RTOL)
        want = np.empty(theta_q.size)
        for i in range(theta_q.size):
            e = np.zeros(theta_q.size)
            e[i] = step
            want[i] = (closed_form_score(score, p, case.params(theta_q + e))
                       - closed_form_score(score, p, case.params(theta_q - e))) / (2 * step)
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-8 * max(1.0, np.abs(want).max()))


# -- the exponential and the mixture at their own defaults -------------------------------

def rate_pairs():
    rng = np.random.default_rng(2610)
    rates = rng.uniform(0.5, 2.0, N_PAIRS)
    return list(zip(rates, rates * rng.uniform(0.8, 1.25, N_PAIRS)))


def exponential_checks(n):
    model = make_parametric("exponential-rate")
    for l1, l2 in rate_pairs():
        mass, kl_cross, moments = pair_moments(model, [l1], [l2], n)
        yield "mass", mass, 1.0
        yield "kl cross", kl_cross, l2 / l1 - math.log(l2)
        for gamma, (cross, power) in moments.items():
            yield f"cross {gamma:g}", cross, l1 * l2 ** gamma / (l1 + gamma * l2)
            yield f"power {gamma:g}", power, model.power_moment([l2], 1.0 + gamma)[0]


def mixture_pairs():
    """(mean, scale) per component: means in [-2, 2], scales in [0.5, 2]; q's
    means shifted by up to 0.3 and its variances scaled by [0.8, 1.25]."""
    rng = np.random.default_rng(2620)
    pairs = []
    for _ in range(N_PAIRS):
        m, s = rng.uniform(-2.0, 2.0, 2), rng.uniform(0.5, 2.0, 2)
        pairs.append(((m, s), (m + rng.uniform(-0.3, 0.3, 2),
                               s * np.sqrt(rng.uniform(0.8, 1.25, 2)))))
    return pairs


def mixture_product(p, q, w):
    """<f g> of two mixtures with weights w: sum_ij w_i w_j N(m_i; m_j, s_i^2 + s_j^2)."""
    (m1, s1), (m2, s2) = p, q
    var = s1[:, None] ** 2 + s2[None, :] ** 2
    r = m1[:, None] - m2[None, :]
    return float(w @ (np.exp(-0.5 * r * r / var) / np.sqrt(2 * np.pi * var)) @ w)


def mixture_checks(n):
    w = np.array([0.5, 0.5])
    model = make_parametric("gaussian-mixture-fixed-weights", weights=tuple(w))
    for p, q in mixture_pairs():
        theta_p, theta_q = np.ravel(np.column_stack(p)), np.ravel(np.column_stack(q))
        mass, _, moments = pair_moments(model, theta_p, theta_q, n)
        cross, power = moments[1.0]
        yield "mass", mass, 1.0
        yield "cross 1", cross, mixture_product(p, q, w)
        yield "power 1", power, mixture_product(q, q, w)


def test_exponential_default_within_its_measured_bound():
    # the trapezoid rule is O(h^2) at the density's jump at x = 0: 2.8e-8 at
    # worst over the rate pairs at the default 150001 nodes
    assert make_parametric("exponential-rate").quad_points == 150001
    assert_within(worst(exponential_checks(150001)), 3e-8, "exponential-rate at 150001 nodes")


def test_mixture_default_matches_the_closed_forms():
    assert make_parametric("gaussian-mixture-fixed-weights").quad_points == 3001
    assert_within(worst(mixture_checks(3001)), RTOL, "mixture at 3001 nodes")
