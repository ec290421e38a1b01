import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from holderscores import (DomainError, FitConfig, HolderScore, PhiFunction,
                          SingularHessianError, StructuralError,
                          asymptotic_variance_sameness, contaminate, expected_score,
                          gross_error_sensitivity, influence_curve, influence_function,
                          make_parametric, objective_hessian, phi_cubic_tail, phi_kappa,
                          phi_linear, population_fit, redescend_check, render_density)
from holderscores.grids import log_moments
from holderscores import robustness
from holderscores.robustness import _default_z_ray, _frozen_grid

GAUSS_MS = make_parametric("gaussian-mean-scale")
GAUSS_M = make_parametric("gaussian-mean")


def holder_objective(phi, gamma, model, theta_star, n=4001):
    """Independent objective path for oracles: population score on a fixed grid."""
    lo, hi = model.support(np.asarray(theta_star, dtype=float))
    center, half = (lo + hi) / 2, (hi - lo) / 2
    p_star = render_density(model, theta_star, lo=center - 1.25 * half,
                            hi=center + 1.25 * half, points_per_axis=n)
    score = HolderScore(phi)

    def fun(theta):
        return expected_score(score, p_star, (model, theta))
    return fun


def fourth_order_hessian(fun, x, h=5e-5):
    """High-order finite-difference oracle (half the production step)."""
    x = np.asarray(x, dtype=float)
    k = x.size
    out = np.empty((k, k))
    for i in range(k):
        hi = h * max(1.0, abs(x[i]))
        e = np.zeros(k)
        e[i] = hi
        out[i, i] = (-fun(x + 2 * e) + 16 * fun(x + e) - 30 * fun(x)
                     + 16 * fun(x - e) - fun(x - 2 * e)) / (12 * hi ** 2)
        for j in range(i + 1, k):
            hj = h * max(1.0, abs(x[j]))
            ej = np.zeros(k)
            ej[j] = hj
            val = (fun(x + e + ej) - fun(x + e - ej)
                   - fun(x - e + ej) + fun(x - e - ej)) / (4 * hi * hj)
            out[i, j] = out[j, i] = val
    return out


class TestFrozenGrid:
    def test_3d_power_moment_meets_the_closed_form(self):
        # on the former 1.25x-padded box (81 nodes per axis, h = 0.25 sd)
        # <p^2> of this theta was off by 6.7e-9; the default render meets it
        model = make_parametric("gaussian-full-d", dim=3)
        theta = np.array([0.081, 0.261, 0.453, 1.373, 1.027, 0.943, -0.191, 0.722, 0.178])
        quad = _frozen_grid(model, theta)
        power = log_moments(quad, model.log_density(theta, quad.points()), 1.0)[1]
        assert power == pytest.approx(model.power_moment(theta, 2.0)[0], rel=1e-12)


class TestObjectiveHessian:
    def test_gaussian_mean_gamma_score_positive(self):
        phi = phi_kappa(0.5, 1.0)
        hess = objective_hessian(phi, 0.5, GAUSS_M, [0.0])
        assert hess.shape == (1, 1)
        assert hess[0, 0] > 0
        oracle = fourth_order_hessian(holder_objective(phi, 0.5, GAUSS_M, [0.0]),
                                      [0.0])
        assert hess[0, 0] == pytest.approx(oracle[0, 0], rel=1e-5)

    def test_mean_scale_symmetric_and_matches_oracle(self):
        phi = phi_kappa(0.5, 1.0)
        theta = [0.2, 1.1]
        hess = objective_hessian(phi, 0.5, GAUSS_MS, theta)
        assert np.max(np.abs(hess - hess.T)) < 1e-6
        oracle = fourth_order_hessian(holder_objective(phi, 0.5, GAUSS_MS, theta),
                                      theta)
        assert np.max(np.abs(hess - oracle)) < 1e-4 * max(1.0, np.max(np.abs(oracle)))

    # cubic-tail is left out: its third derivative jumps at z = 1, inside
    # the difference stencil, whose error then reads up to ~2e-6
    @pytest.mark.parametrize("kind,hyper,theta_star", [
        ("gaussian-full-d", {"dim": 1}, [0.2, 1.1]),
        ("gaussian-full-d", {"dim": 2}, [0.2, -0.1, 1.1, 0.3, 0.8]),
        ("gaussian-full-d", {"dim": 3}, [0.1, -0.2, 0.3, 1.2, 0.2, 0.9, -0.1, 0.3, 1.1]),
        ("gaussian-mixture-fixed-weights", {}, [-1.0, 0.8, 1.5, 1.2]),
        ("exponential-rate", {}, [1.3]),
    ], ids=["full-1", "full-2", "full-3", "mixture", "exponential"])
    @pytest.mark.parametrize("phi", [phi_kappa(0.5, 1.0), phi_kappa(0.5, 2.0),
                                     phi_linear(0.5)], ids=["kappa1", "kappa2", "linear"])
    def test_closed_form_matches_differences_of_the_gradient(self, kind, hyper,
                                                             theta_star, phi):
        model = make_parametric(kind, **hyper)
        theta_star = np.asarray(theta_star, dtype=float)
        quad = _frozen_grid(model, theta_star)
        score = HolderScore(phi)

        def gradient(theta):
            return score.expected_with_hessian(quad, (model, theta))[1]

        numeric = np.empty((theta_star.size, theta_star.size))
        for i in range(theta_star.size):
            e = np.zeros(theta_star.size)
            e[i] = 1e-5 * max(1.0, abs(theta_star[i]))
            numeric[i] = (gradient(theta_star + e) - gradient(theta_star - e)) / (2 * e[i])
        hess = objective_hessian(phi, phi.gamma, model, theta_star)
        assert np.max(np.abs(hess - numeric)) <= 1e-8 * np.max(np.abs(numeric))

    @pytest.mark.parametrize("kind,hyper,theta_star", [
        ("gaussian-full-d", {"dim": 1}, [0.2, 1.1]),
        ("gaussian-full-d", {"dim": 2}, [0.2, -0.1, 1.1, 0.3, 0.8]),
        ("gaussian-full-d", {"dim": 3}, [0.1, -0.2, 0.3, 1.2, 0.2, 0.9, -0.1, 0.3, 1.1]),
        ("gaussian-mixture-fixed-weights", {}, [-1.0, 0.8, 1.5, 1.2]),
        ("exponential-rate", {}, [1.3]),
    ], ids=["full-1", "full-2", "full-3", "mixture", "exponential"])
    @pytest.mark.parametrize("phi", [phi_kappa(0.5, 1.0), phi_kappa(0.5, 2.0),
                                     phi_linear(0.5)], ids=["kappa1", "kappa2", "linear"])
    def test_meets_the_closed_form_at_theta_star(self, kind, hyper, theta_star, phi):
        # the module docstring's I from score columns at the render's nodes
        model = make_parametric(kind, **hyper)
        theta_star = np.asarray(theta_star, dtype=float)
        gamma = phi.gamma
        quad = _frozen_grid(model, theta_star)
        h = log_moments(quad, model.log_density(theta_star, quad.points()), gamma)[2][1]
        s = model.score(theta_star, quad.points())
        m = h @ s
        oracle = (gamma * (1 + gamma) * (h[:, None] * s).T @ s
                  + float(phi.d2(1.0)) * np.outer(m, m) / np.sum(h))
        hess = objective_hessian(phi, gamma, model, theta_star)
        assert np.max(np.abs(hess - oracle)) <= 1e-12 * np.max(np.abs(oracle))


class TestPremises:
    """phi(1) = -1 and phi'(1) = -(1+gamma) make theta_star stationary and
    the Hessian's closed form exact; a phi that fails either raises before
    any quadrature or fit."""

    @staticmethod
    def _shifted(value_shift, slope_shift):
        # -z^1.5 + a + b (z - 1): phi(1) = -1 + a, phi'(1) = -1.5 + b
        return PhiFunction(
            gamma=0.5,
            value=lambda z: -np.asarray(z, dtype=float) ** 1.5 + value_shift
            + slope_shift * (np.asarray(z, dtype=float) - 1.0),
            d1=lambda z: -1.5 * np.asarray(z, dtype=float) ** 0.5 + slope_shift,
            d2=lambda z: -0.75 * np.asarray(z, dtype=float) ** -0.5,
            label="shifted")

    @pytest.mark.parametrize("shifts,match", [((0.1, 0.0), r"phi\(1\) = -0.9 "),
                                              ((0.0, 0.1), r"phi'\(1\) = -1.4 ")],
                             ids=["value", "slope"])
    @pytest.mark.parametrize("call", [
        lambda phi: objective_hessian(phi, 0.5, GAUSS_MS, [0.0, 1.0]),
        lambda phi: influence_function(phi, 0.5, GAUSS_MS, [0.0, 1.0], 2.0),
        lambda phi: influence_curve(phi, 0.5, GAUSS_MS, [0.0, 1.0]),
        lambda phi: redescend_check(phi, 0.5, GAUSS_MS, [0.0, 1.0]),
        lambda phi: gross_error_sensitivity(phi, 0.5, GAUSS_MS, [0.0, 1.0], [[2.0], [5.0]]),
        lambda phi: asymptotic_variance_sameness(0.5, GAUSS_MS, [0.0, 1.0], [phi], 50, 0,
                                                 replicates=2),
    ], ids=["hessian", "influence-function", "influence-curve", "redescend",
            "gross-error-sensitivity", "variance-sameness"])
    def test_violation_raises_before_any_work(self, monkeypatch, call, shifts, match):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the premise check")
        for name in ("_frozen_grid", "draw_sample", "fit"):
            monkeypatch.setattr(robustness, name, refuse)
        with pytest.raises(DomainError, match=match):
            call(self._shifted(*shifts))


class TestInfluenceFunction:
    def test_small_gamma_approaches_mle_influence(self):
        # for the mean of a unit Gaussian the MLE influence is IF(z) = z - m
        gamma = 1e-3
        phi = phi_kappa(gamma, 1.0)
        for z in (0.8, 1.5, -2.0):
            res = influence_function(phi, gamma, GAUSS_M, [0.0], z)
            assert res.if_vector[0] == pytest.approx(z, rel=2e-2)

    def test_center_point_finite(self):
        phi = phi_kappa(0.5, 1.0)
        res = influence_function(phi, 0.5, GAUSS_MS, [0.0, 1.0], 0.0)
        assert np.all(np.isfinite(res.if_vector))
        assert res.norm > 0

    def test_identity_residual_reasserted(self):
        phi = phi_kappa(0.5, 1.0)
        res = influence_function(phi, 0.5, GAUSS_MS, [0.0, 1.0], 2.0)
        lhs = res.hessian @ res.if_vector + res.gradient_term
        assert np.linalg.norm(lhs) < 1e-8 * max(1.0, np.linalg.norm(res.gradient_term))

    def test_epsilon_refit_oracle_agreement(self):
        # refit the population objective at eps and 2*eps, Richardson-extrapolate
        gamma = 0.5
        theta_star = np.array([0.0, 1.0])
        for kappa, z in ((1.0, 1.2), (1.0, 2.4), (1.5, 1.2)):
            phi = phi_kappa(gamma, kappa)
            res = influence_function(phi, gamma, GAUSS_MS, theta_star, z)
            score = HolderScore(phi)
            eps = 1e-3
            thetas = {}
            for e in (eps, 2 * eps):
                p_eps = contaminate(GAUSS_MS, theta_star, e, z=z)
                fitted = population_fit(score, GAUSS_MS, p_eps,
                                        FitConfig(init_theta=theta_star,
                                                  step_tol=1e-10, grad_tol=1e-2,
                                                  polish=True))
                thetas[e] = fitted.theta_hat
            oracle = (4 * thetas[eps] - thetas[2 * eps] - 3 * theta_star) / (2 * eps)
            assert np.max(np.abs(res.if_vector - oracle)
                          / np.maximum(np.abs(oracle), 0.05)) < 0.02

    def test_outside_support_rejected(self):
        expo = make_parametric("exponential-rate")
        phi = phi_kappa(0.5, 1.0)
        with pytest.raises(DomainError):
            influence_function(phi, 0.5, expo, [1.0], -0.5)

    @pytest.mark.parametrize("call, error", [
        (lambda phi: influence_function(phi, 0.5, GAUSS_MS, [0.0, 1.0], [1.0, 2.0]),
         StructuralError),
        (lambda phi: influence_curve(phi, 0.5, GAUSS_MS, [0.0, 1.0], [[1.0, 2.0]]),
         StructuralError),
        (lambda phi: influence_curve(phi, 0.5, make_parametric("exponential-rate"), [1.0],
                                     [[2.0], [-0.5]]), DomainError),
        (lambda phi: influence_curve(phi, 0.5, GAUSS_MS, [0.0, 1.0], n_z=0), DomainError),
    ], ids=["function-dim", "curve-dim", "curve-support", "curve-empty-ray"])
    def test_bad_z_raises_before_the_frozen_grid(self, monkeypatch, call, error):
        rendered = []
        monkeypatch.setattr(robustness, "_frozen_grid", lambda *args: rendered.append(args))
        with pytest.raises(error):
            call(phi_kappa(0.5, 1.0))
        assert rendered == []

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind, hyper, theta", [
        ("gaussian-mean-scale", {}, [0.0, 1.0]), ("exponential-rate", {}, [1.0])])
    def test_non_finite_z_rejected(self, monkeypatch, z, kind, hyper, theta):
        # nan read as a linear-solve failure, inf also warned
        rendered = []
        monkeypatch.setattr(robustness, "_frozen_grid", lambda *args: rendered.append(args))
        model = make_parametric(kind, **hyper)
        phi = phi_kappa(0.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: influence_function(phi, 0.5, model, theta, z),
                         lambda: influence_curve(phi, 0.5, model, theta, [[1.0], [z]]),
                         lambda: redescend_check(phi, 0.5, model, theta, [[1.0], [z]])):
                with pytest.raises(DomainError, match="must be finite"):
                    call()
        assert rendered == []


class TestGammaAgreement:
    """An analysis given a gamma other than phi's own reads two objectives
    at once: the score of phi and the moments of gamma.  It raises before
    any quadrature or fit (redescend_check at gamma 1 with a phi of gamma 0.5
    returned PASS with condition_met=False)."""

    PHI = phi_kappa(0.5, 1.0)

    @pytest.mark.parametrize("call", [
        lambda phi: objective_hessian(phi, 1.0, GAUSS_MS, [0.0, 1.0]),
        lambda phi: influence_function(phi, 1.0, GAUSS_MS, [0.0, 1.0], 2.0),
        lambda phi: influence_curve(phi, 1.0, GAUSS_MS, [0.0, 1.0]),
        lambda phi: redescend_check(phi, 1.0, GAUSS_MS, [0.0, 1.0]),
        lambda phi: gross_error_sensitivity(phi, 1.0, GAUSS_MS, [0.0, 1.0], [[2.0], [5.0]]),
        # phi's derivatives at 1 meet the premises for gamma 0.5; its own gamma does not
        lambda phi: asymptotic_variance_sameness(0.5, GAUSS_MS, [0.0, 1.0],
                                                 [phi, replace(phi, gamma=0.6)], 50, 0,
                                                 replicates=2),
    ], ids=["hessian", "influence-function", "influence-curve", "redescend",
            "gross-error-sensitivity", "variance-sameness"])
    def test_mismatch_raises_before_any_work(self, monkeypatch, call):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the gamma check")
        for name in ("_frozen_grid", "draw_sample", "fit"):
            monkeypatch.setattr(robustness, name, refuse)
        with pytest.raises(DomainError, match="disagrees"):
            call(self.PHI)


class TestRedescendCheck:
    def test_gamma_score_redescends(self):
        report = redescend_check(phi_kappa(0.5, 1.0), 0.5, GAUSS_MS, [0.0, 1.0])
        assert report.condition_met
        assert report.tail_decays
        assert report.verdict == "PASS"
        assert report.model_informative

    def test_density_power_does_not_redescend(self):
        # kappa = 1 + gamma gives phi''(1) = 0: condition fails, tail plateaus
        gamma = 0.5
        report = redescend_check(phi_kappa(gamma, 1 + gamma), gamma,
                                 GAUSS_MS, [0.0, 1.0])
        assert not report.condition_met
        assert not report.tail_decays
        assert report.verdict == "PASS"  # analytic and empirical sides agree
        # the tail approaches the analytic nonzero limit
        assert report.tail_norms[-1][1] == pytest.approx(report.limit_estimate,
                                                         rel=0.05)

    def test_mean_only_model_is_inconclusive(self):
        # <p^(1+gamma) s> = 0 by symmetry for the pure location family
        report = redescend_check(phi_kappa(0.5, 1.0), 0.5, GAUSS_M, [0.0])
        assert not report.model_informative
        assert report.verdict == "INCONCLUSIVE"

    def test_mean_only_model_renders_one_frozen_grid(self, monkeypatch):
        # informativeness is judged at theta_star alone: b = <p^(1+gamma) s>
        # of a location parameter is zero at every theta
        rendered = []

        def frozen_grid(model, theta_star):
            rendered.append(theta_star)
            return _frozen_grid(model, theta_star)
        monkeypatch.setattr(robustness, "_frozen_grid", frozen_grid)
        report = redescend_check(phi_kappa(0.5, 1.0), 0.5, GAUSS_M, [0.0])
        assert len(rendered) == 1
        assert report.verdict == "INCONCLUSIVE"

    def test_value_only_phi_redescends(self):
        # the difference fallback must read phi''(1) within the criterion's
        # 1e-8; 3-point differences at step 1e-5 read it 2.3e-6 off (FAIL)
        phi = PhiFunction(gamma=0.5, value=lambda z: -np.asarray(z, dtype=float) ** 1.5)
        report = redescend_check(phi, 0.5, GAUSS_MS, [0.0, 1.0])
        assert report.condition_met
        assert report.verdict == "PASS"

    def test_limit_estimate_for_redescending_family_is_zero(self):
        report = redescend_check(phi_kappa(0.5, 1.0), 0.5, GAUSS_MS, [0.0, 1.0])
        assert report.limit_estimate < 1e-10

    def test_phi_battery_condition_tracks_tail(self):
        # kappa members plus hand-built shapes with tuned curvature at 1:
        # -z^(1+g) + c (z-1)^2 keeps the bound and shifts phi''(1) by 2c
        from holderscores import PhiFunction
        gamma = 0.5

        def quad_bump(c):
            return PhiFunction(
                gamma=gamma,
                value=lambda z: -np.asarray(z, dtype=float) ** (1 + gamma)
                + c * (np.asarray(z, dtype=float) - 1) ** 2,
                d1=lambda z: -(1 + gamma) * np.asarray(z, dtype=float) ** gamma
                + 2 * c * (np.asarray(z, dtype=float) - 1),
                d2=lambda z: -(1 + gamma) * gamma
                * np.asarray(z, dtype=float) ** (gamma - 1) + 2 * c,
                label=f"quad-bump({c:g})")

        battery = [phi_kappa(gamma, 1.0), phi_kappa(gamma, 1.25),
                   phi_kappa(gamma, 1 + gamma), phi_kappa(gamma, 2.0),
                   phi_cubic_tail(gamma, 0.4), quad_bump(0.3)]
        for phi in battery:
            report = redescend_check(phi, gamma, GAUSS_MS, [0.0, 1.0])
            assert report.model_informative
            assert report.condition_met == report.tail_decays, phi.label
            assert report.verdict == "PASS"
            if not report.condition_met:
                # plateau level matches the analytic limit within 5%
                assert report.tail_norms[-1][1] == pytest.approx(
                    report.limit_estimate, rel=0.05)


class TestGrossErrorSensitivity:
    def test_finite_supremum_attained_at_moderate_z(self):
        phi = phi_kappa(0.5, 1.0)
        grid = np.linspace(-12, 12, 97).reshape(-1, 1)
        sup = gross_error_sensitivity(phi, 0.5, GAUSS_MS, [0.0, 1.0], grid)
        assert np.isfinite(sup)
        # refinement oracle: doubling the grid density moves the sup by < 1%
        fine = np.linspace(-12, 12, 193).reshape(-1, 1)
        sup_fine = gross_error_sensitivity(phi, 0.5, GAUSS_MS, [0.0, 1.0], fine)
        assert abs(sup - sup_fine) / sup_fine < 0.01

    def test_mle_limit_grows_with_grid_extension(self):
        gamma = 1e-3
        phi = phi_kappa(gamma, 1.0)
        near = np.linspace(-4, 4, 33).reshape(-1, 1)
        far = np.linspace(-8, 8, 65).reshape(-1, 1)
        sup_near = gross_error_sensitivity(phi, gamma, GAUSS_M, [0.0], near)
        sup_far = gross_error_sensitivity(phi, gamma, GAUSS_M, [0.0], far)
        assert sup_far > 1.5 * sup_near  # unbounded influence z - m

    def test_symmetric_model_attains_supremum_symmetrically(self):
        phi = phi_kappa(0.5, 1.0)
        zs = np.linspace(0.25, 10, 40)
        norms = np.array([influence_function(phi, 0.5, GAUSS_MS, [0.0, 1.0], z).norm
                          for z in zs])
        mirrored = np.array([influence_function(phi, 0.5, GAUSS_MS, [0.0, 1.0], -z).norm
                             for z in zs])
        assert np.max(np.abs(norms - mirrored)) < 1e-6 * norms.max()


def influence_covariance(phi, gamma):
    """V = sum over the nodes of the render of p* = N(0, 1) of p* w IF IF^T:
    the estimator's asymptotic covariance <p* IF IF^T> (Hampel et al., *Robust
    Statistics*, 1986, section 2.1) on the quadrature of every analysis."""
    render = render_density(GAUSS_MS, [0.0, 1.0])
    rows = influence_curve(phi, gamma, GAUSS_MS, [0.0, 1.0], z_grid=render.points())
    infl = np.array([row.if_vector for row in rows])
    return ((render.values * render.weights).ravel()[:, None] * infl).T @ infl


class TestAsymptoticCovariance:
    """The deterministic counterpart of the Monte-Carlo variance sameness."""

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
    def test_gamma_score_covariance_meets_closed_form(self, gamma):
        # the gamma-score estimating function p^gamma (s - <p^(1+gamma) s> /
        # <p^(1+gamma)>) on N(0, 1): Gaussian moments give the mean entry
        # (1+g)^3 / (1+2g)^(3/2) and the scale entry
        # (1+g)^3 (2 + 4g + 3g^2) / (4 (1+2g)^(5/2)); g = 0 is the MLE's (1, 1/2)
        v = influence_covariance(phi_kappa(gamma, 1.0), gamma)
        mean = (1 + gamma) ** 3 / (1 + 2 * gamma) ** 1.5
        scale = (1 + gamma) ** 3 * (2 + 4 * gamma + 3 * gamma ** 2) / (4 * (1 + 2 * gamma) ** 2.5)
        assert v[0, 0] == pytest.approx(mean, rel=1e-12, abs=0)
        assert v[1, 1] == pytest.approx(scale, rel=1e-12, abs=0)
        assert abs(v[0, 1]) < 1e-12 and abs(v[1, 0]) < 1e-12

    def test_matched_pair_shares_the_covariance(self):
        # phi''(1) = -gamma(1+gamma) for both: V = diag(1.19324269, 0.70848785)
        matched = influence_covariance(phi_kappa(0.5, 1.0), 0.5)
        cubic = influence_covariance(phi_cubic_tail(0.5, 0.5), 0.5)
        assert np.max(np.abs(cubic - matched)) <= 1e-14 * np.max(np.abs(matched))
        assert np.diag(matched) == pytest.approx([1.19324269, 0.70848785], rel=1e-8)

    def test_unmatched_shape_moves_the_scale_entry(self):
        # phi_kappa(0.5, 1.5) meets phi(1) = -1 and phi'(1) = -1.5 but not phi''(1):
        # its scale entry reads 0.68438402, 3.4% below the matched one, which a
        # 200-replicate Monte Carlo (~10% standard error) cannot resolve
        matched = influence_covariance(phi_kappa(0.5, 1.0), 0.5)
        unmatched = influence_covariance(phi_kappa(0.5, 1.5), 0.5)
        assert abs(unmatched[1, 1] / matched[1, 1] - 1.0) > 0.01
        assert unmatched[0, 0] == pytest.approx(matched[0, 0], rel=1e-12)


class TestVarianceSameness:
    def test_premise_violation_rejected_before_simulation(self):
        gamma = 0.5
        with pytest.raises(DomainError, match="phi''"):
            asymptotic_variance_sameness(gamma, GAUSS_M, [0.0],
                                         [phi_kappa(gamma, 1 + gamma)],
                                         n_mc=100, seed=0, replicates=2)

    @pytest.mark.parametrize("phis,replicates", [
        ((), 8), ((phi_kappa(0.5, 1.0),), 8),
        ((phi_kappa(0.5, 1.0), phi_cubic_tail(0.5, 0.5)), 1),
        ((phi_kappa(0.5, 1.0), phi_cubic_tail(0.5, 0.5)), 0),
    ], ids=["no-shape", "one-shape", "one-replicate", "no-replicate"])
    def test_nothing_to_compare_rejected_before_simulation(self, monkeypatch, phis,
                                                           replicates):
        # one shape has no ratio and one replicate no variance (ddof = 1)
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the count check")
        for name in ("draw_sample", "fit"):
            monkeypatch.setattr(robustness, name, refuse)
        with pytest.raises(DomainError, match="at least 2 shape functions and 2 replicates"):
            asymptotic_variance_sameness(0.5, GAUSS_M, [0.0], list(phis), n_mc=200, seed=1,
                                         replicates=replicates)

    def test_matched_pair_small_run(self):
        gamma = 0.5
        report = asymptotic_variance_sameness(
            gamma, GAUSS_M, [0.0],
            [phi_kappa(gamma, 1.0), phi_cubic_tail(gamma, 0.5)],
            n_mc=400, seed=2, replicates=40)
        assert 0.7 < report.ratio_min <= report.ratio_max < 1.4


class TestSingularHessian:
    def test_singular_curvature_raises(self):
        # a two-component mixture collapsed onto one component has a flat
        # direction (swapping the identical components), so the curvature
        # matrix is singular
        mix = make_parametric("gaussian-mixture-fixed-weights")
        phi = phi_kappa(0.5, 1.0)
        with pytest.raises(SingularHessianError):
            objective_hessian(phi, 0.5, mix, [0.0, 1.0, 0.0, 1.0])


class TestGivenHessian:
    """A Hessian passed to influence_function is checked as a computed one is."""

    def test_wrong_shape_raises(self):
        with pytest.raises(StructuralError, match=r"shape \(2, 2\)"):
            influence_function(phi_kappa(0.5, 1.0), 0.5, GAUSS_MS, [0.0, 1.0], [1.0],
                               hessian=np.eye(3))

    def test_non_finite_raises(self):
        # it once returned if_vector = [nan, nan]
        with pytest.raises(SingularHessianError):
            influence_function(phi_kappa(0.5, 1.0), 0.5, GAUSS_MS, [0.0, 1.0], [1.0],
                               hessian=np.full((2, 2), np.nan))

    def test_singular_raises(self):
        with pytest.raises(SingularHessianError):
            influence_function(phi_kappa(0.5, 1.0), 0.5, GAUSS_MS, [0.0, 1.0], [1.0],
                               hessian=np.zeros((2, 2)))


class TestInfluenceCurve:
    def test_each_point_matches_influence_function_with_shared_hessian(self):
        phi = phi_kappa(0.5, 1.0)
        zs = np.array([[0.3], [1.7], [4.0]])
        curve = influence_curve(phi, 0.5, GAUSS_MS, [0.0, 1.0], zs)
        hess = objective_hessian(phi, 0.5, GAUSS_MS, [0.0, 1.0])
        assert len(curve) == len(zs)
        for z, res in zip(zs, curve):
            ref = influence_function(phi, 0.5, GAUSS_MS, [0.0, 1.0], z, hessian=hess)
            assert np.array_equal(res.hessian, hess)
            assert np.array_equal(res.z, ref.z)
            assert np.array_equal(res.if_vector, ref.if_vector)
            assert res.norm == ref.norm

    def test_scores_the_nodes_once_and_the_contamination_points_once(self):
        # log_quadratic's monomial rows give the Hessian and the
        # score-weighted moments with no score call at the render's nodes;
        # one call at the rows gives s(z)
        calls = []

        def score(theta, x):
            calls.append(len(x))
            return GAUSS_MS.score(theta, x)
        model = replace(GAUSS_MS, score=score)
        zs = np.array([[0.3], [1.7], [4.0]])
        curve = influence_curve(phi_kappa(0.5, 1.0), 0.5, model, [0.0, 1.0], zs)
        assert calls == [len(zs)]
        assert [res.norm for res in curve] == \
            [res.norm for res in influence_curve(phi_kappa(0.5, 1.0), 0.5, GAUSS_MS,
                                                 [0.0, 1.0], zs)]

    @pytest.mark.parametrize("analysis", ["influence_curve", "redescend_check"])
    def test_scores_a_model_without_log_quadratic_once_at_the_nodes(self, analysis):
        # the moments, the Hessian and the Cauchy-Schwarz scale share one
        # evaluation of the score: one score and one curvature call at the
        # render's nodes, and one score call at the contamination points
        base = make_parametric("gaussian-mixture-fixed-weights", weights=(0.3, 0.7))
        theta_star = [-1.0, 0.8, 1.5, 1.2]
        scored, curved = [], []

        def score(theta, x):
            scored.append(len(x))
            return base.score(theta, x)

        def curvature(theta, x, h):
            curved.append(len(x))
            return base.curvature(theta, x, h)
        model = replace(base, score=score, curvature=curvature)
        zs = np.array([[0.5], [3.0], [9.0]])
        getattr(robustness, analysis)(phi_kappa(0.5, 1.0), 0.5, model, theta_star, zs)
        nodes = _frozen_grid(base, np.array(theta_star)).values.size
        assert scored == [nodes, len(zs)]
        assert curved == [nodes]

    def test_gross_error_sensitivity_is_largest_norm(self):
        phi = phi_kappa(0.5, 1.0)
        grid = np.linspace(-6, 6, 13).reshape(-1, 1)
        curve = influence_curve(phi, 0.5, GAUSS_MS, [0.0, 1.0], grid)
        assert gross_error_sensitivity(phi, 0.5, GAUSS_MS, [0.0, 1.0], grid) \
            == max(res.norm for res in curve)

    def test_default_ray(self):
        phi = phi_kappa(0.5, 1.0)
        curve = influence_curve(phi, 0.5, GAUSS_MS, [0.0, 1.0], n_z=7, max_sd=9.0)
        ray = _default_z_ray(GAUSS_MS, [0.0, 1.0], n_z=7, max_sd=9.0)
        assert np.array_equal(np.stack([res.z for res in curve]), ray)
        # N(0, 1) lives on [-8, 8]: centre 0, one standard deviation per unit
        assert np.allclose(ray[:, 0], np.linspace(0.5, 9.0, 7), rtol=0, atol=1e-15)

    def test_redescend_tail_is_the_curve(self):
        phi = phi_kappa(0.5, 1.0)
        report = redescend_check(phi, 0.5, GAUSS_MS, [0.0, 1.0], n_z=6)
        curve = influence_curve(phi, 0.5, GAUSS_MS, [0.0, 1.0], n_z=6)
        assert report.tail_norms == tuple((float(np.linalg.norm(res.z)), res.norm)
                                          for res in curve)

    def test_empty_ray_rejected(self):
        with pytest.raises(DomainError):
            influence_curve(phi_kappa(0.5, 1.0), 0.5, GAUSS_MS, [0.0, 1.0], n_z=0)

    @pytest.mark.parametrize("ray", [{"n_z": 1}, {"max_sd": 0.5}, {"max_sd": -1.0},
                                     {"max_sd": np.nan}, {"max_sd": np.inf}])
    def test_degenerate_ray_rejected_before_the_hessian(self, monkeypatch, ray):
        # each read FAIL: one probe cannot decay, and a ray ending at or below
        # its 0.5 sd start stands still or runs backwards
        def no_work(*args, **kwargs):
            raise AssertionError("a grid or Hessian was computed for a degenerate ray")

        monkeypatch.setattr(robustness, "objective_hessian", no_work)
        monkeypatch.setattr(robustness, "_frozen_grid", no_work)
        with pytest.raises(DomainError):
            redescend_check(phi_kappa(0.5, 1.0), 0.5, GAUSS_MS, [0.0, 1.0], **ray)


class TestBracketGradient:
    """The exact influence-bracket gradient against central differences of
    the bracket phi'(r(theta)) (p_theta(z)^gamma - c(theta)) on the frozen grid."""

    @pytest.mark.parametrize("kind,hyper,theta_star,zs", [
        ("gaussian-mean-scale", {}, [0.1, 1.2], [[-2.0], [0.4], [3.5], [9.0]]),
        ("gaussian-full-d", {"dim": 2}, [0.2, -0.1, 1.1, 0.3, 0.8],
         [[0.2, -0.1], [1.5, -0.5], [-3.0, 2.0]]),
    ], ids=["mean-scale", "full-2"])
    # kappa = 1.5 would make phi linear at gamma = 0.5, with no phi'' term
    @pytest.mark.parametrize("phi", [phi_kappa(0.5, 1.0), phi_kappa(0.5, 2.0)],
                             ids=["kappa1", "kappa2"])
    def test_matches_central_differences(self, kind, hyper, theta_star, zs, phi):
        model = make_parametric(kind, **hyper)
        theta_star = np.asarray(theta_star, dtype=float)
        gamma = phi.gamma
        quad = _frozen_grid(model, theta_star)

        def bracket(theta, z):
            cross, power, _ = log_moments(quad, model.log_density(theta, quad.points()), gamma)
            pz_gamma = np.exp(gamma * model.log_density(theta, z.reshape(1, -1))[0])
            return float(phi.d1(cross / power)) * (pz_gamma - cross)

        curve = influence_curve(phi, gamma, model, theta_star, zs)
        exact = np.stack([res.gradient_term for res in curve])
        numeric = np.empty_like(exact)
        for i in range(theta_star.size):
            e = np.zeros(theta_star.size)
            e[i] = 1e-5 * max(1.0, abs(theta_star[i]))
            for row, res in enumerate(curve):
                numeric[row, i] = (bracket(theta_star + e, res.z)
                                   - bracket(theta_star - e, res.z)) / (2 * e[i])
        # far out the bracket gradient redescends towards its limit, so the
        # differences are measured against the largest entry on the ray
        assert np.max(np.abs(exact - numeric)) <= 1e-7 * np.max(np.abs(numeric))
