import math
from dataclasses import replace

import numpy as np
import pytest

from holderscores import (BregmanHolder, ConfigError, DomainError, FitConfig,
                          GammaScore, HolderScore, KL, Pseudospherical, Sample,
                          StructuralError, UnsupportedFamilyError, averaged_score,
                          averaged_score_with_hessian, contaminate,
                          draw_contaminated_sample, draw_sample, fit,
                          fit_regression, make_conditional, make_parametric,
                          phi_cubic_tail, phi_kappa, population_fit,
                          render_density, rng_for)
from holderscores import estimators

GAUSS_MS = make_parametric("gaussian-mean-scale")
GAUSS_M = make_parametric("gaussian-mean")


def y_grid():
    """The reference y-quadrature: the 513-node trapezoid rule on [-12, 12]."""
    ygrid = np.linspace(-12.0, 12.0, 513)
    wy = np.full(513, 24.0 / 512)
    wy[0] = wy[-1] = wy[0] / 2.0
    return ygrid, wy


def cfg_for(init, **kw):
    base = dict(init_theta=init, step_tol=1e-9, grad_tol=1e-3, polish=True)
    base.update(kw)
    return FitConfig(**base)


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FitConfig(init_theta=[0.0], max_iters=0)
        # NaN fails every comparison, so only 0 < tol < inf admits a tolerance
        for key in ("grad_tol", "step_tol"):
            for bad in (-1.0, 0.0, math.nan, math.inf):
                with pytest.raises(ConfigError):
                    FitConfig(init_theta=[0.0], **{key: bad})
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="must be finite"):
                FitConfig(init_theta=[bad, 1.0])

    def test_polish_on_by_default(self):
        assert FitConfig(init_theta=[0.0]).polish is True

    def test_csv_row(self):
        from holderscores import FitResult
        res = FitResult(theta_hat=np.array([0.5, 1.25]), objective_value=-1.5,
                        iterations=42, converged=True)
        assert res.csv_row() == "0.5,1.25,-1.5,42,true"


class TestFit:
    def test_kl_gaussian_mean_recovers_sample_mean(self):
        sample = draw_sample(GAUSS_M, [0.4], 800, seed=1)
        res = fit(KL(), GAUSS_M, sample, cfg_for([0.0]))
        assert res.converged
        assert res.theta_hat[0] == pytest.approx(sample.points.mean(), abs=1e-7)

    def test_kl_fit_survives_far_outlier(self):
        # one outlier cluster at z = 50 once made every nearby theta +inf
        sample = draw_contaminated_sample(GAUSS_MS, [0.0, 1.0], eps=0.01, z=50.0,
                                          n=2000, seed=0)
        res = fit(KL(), GAUSS_MS, sample, FitConfig(init_theta=[0.0, 1.0]))
        pts = sample.points[:, 0]
        assert res.converged
        assert np.max(np.abs(res.theta_hat - [pts.mean(), pts.std()])) < 1e-4

    def test_gradient_descent_optimizer(self):
        sample = draw_sample(GAUSS_M, [0.4], 500, seed=2)
        res = fit(KL(), GAUSS_M, sample, FitConfig(init_theta=[0.0],
                                                   grad_tol=1e-6, step_tol=1e-10))
        assert res.theta_hat[0] == pytest.approx(sample.points.mean(), abs=1e-5)

    def test_gradient_descent_two_parameters(self):
        sample = draw_sample(GAUSS_MS, [0.3, 1.2], 800, seed=12)
        res = fit(HolderScore(phi_kappa(0.5, 1.0)), GAUSS_MS, sample,
                  FitConfig(init_theta=[0.0, 1.0],
                            grad_tol=1e-5, step_tol=1e-10, max_iters=3000))
        nm = fit(HolderScore(phi_kappa(0.5, 1.0)), GAUSS_MS, sample,
                 cfg_for([0.0, 1.0], step_tol=1e-8))
        assert np.max(np.abs(res.theta_hat - nm.theta_hat)) < 1e-3

    def test_gamma_score_consistency_over_seeds(self):
        # Monte-Carlo oracle: at n = 5000 every fitted mean sits within 4/sqrt(n)
        n = 5000
        score = HolderScore(phi_kappa(0.5, 1.0))
        for seed in range(20):
            sample = draw_sample(GAUSS_MS, [0.0, 1.0], n, seed=seed)
            res = fit(score, GAUSS_MS, sample,
                      cfg_for([0.1, 0.9], step_tol=1e-7))
            assert abs(res.theta_hat[0]) < 4 / np.sqrt(n)

    def test_contaminated_fit_gamma_vs_kl(self):
        sample = draw_contaminated_sample(GAUSS_MS, [0.0, 1.0], 0.1, 10.0,
                                          4000, seed=7)
        gam = fit(HolderScore(phi_kappa(0.5, 1.0)), GAUSS_MS, sample,
                  cfg_for([0.0, 1.0], step_tol=1e-7))
        kl = fit(KL(), GAUSS_MS, sample, cfg_for([0.0, 1.0], step_tol=1e-7))
        assert abs(gam.theta_hat[0]) < 0.15
        assert kl.theta_hat[0] > 0.8  # pulled toward the outlier mass at 10

    def test_nonconvergence_reported_not_raised(self):
        sample = draw_sample(GAUSS_MS, [0.0, 1.0], 200, seed=3)
        res = fit(HolderScore(phi_kappa(0.5, 1.0)), GAUSS_MS, sample,
                  FitConfig(init_theta=[5.0, 5.0], max_iters=2))
        assert not res.converged

    def test_pseudospherical_and_gamma_share_argmin(self):
        sample = draw_sample(GAUSS_MS, [0.3, 1.2], 1500, seed=9)
        cfg = cfg_for([0.0, 1.0], step_tol=1e-8)
        a = fit(Pseudospherical(0.5), GAUSS_MS, sample, cfg)
        b = fit(GammaScore(0.5), GAUSS_MS, sample, cfg)
        assert np.max(np.abs(a.theta_hat - b.theta_hat)) < 1e-7

    def test_root_n_consistency_trend(self):
        score = HolderScore(phi_kappa(0.5, 1.0))
        rmse = {}
        for n in (500, 2000, 8000):
            errs = []
            for seed in range(20):
                sample = draw_sample(GAUSS_M, [0.0], n, seed=100 + seed)
                res = fit(score, GAUSS_M, sample, cfg_for([0.2], step_tol=1e-7))
                errs.append(res.theta_hat[0] ** 2)
            rmse[n] = np.sqrt(np.mean(errs))
        assert 1.4 < rmse[500] / rmse[2000] < 2.6
        assert 1.4 < rmse[2000] / rmse[8000] < 2.6


class CountingScore:
    """A score that counts its evaluations, of the value alone or of the
    value with its gradient and Hessian."""

    def __init__(self, score):
        self.score = score
        self.values = 0

    def __getattr__(self, name):
        return getattr(self.score, name)

    def expected(self, f, g):
        self.values += 1
        return self.score.expected(f, g)

    def empirical(self, sample, g):
        self.values += 1
        return self.score.empirical(sample, g)

    def expected_with_hessian(self, f, g):
        self.values += 1
        return self.score.expected_with_hessian(f, g)

    def empirical_with_hessian(self, sample, g):
        self.values += 1
        return self.score.empirical_with_hessian(sample, g)


class WrongSignGradient(CountingScore):
    """Gradients pointing uphill: every line search fails."""

    def empirical_with_hessian(self, sample, g):
        value, grad, hess = super().empirical_with_hessian(sample, g)
        return value, -grad, hess


class NanGradient(CountingScore):
    def empirical_with_hessian(self, sample, g):
        value, _, hess = super().empirical_with_hessian(sample, g)
        return value, np.full(np.size(g[1]), np.nan), hess


def recording_log_density(model):
    """``model`` with a log_density and a log_quadratic (where it has one)
    that record the theta of every call."""
    thetas = []

    def log_density(theta, x):
        thetas.append(np.array(theta, dtype=float).tobytes())
        return model.log_density(theta, x)

    def log_quadratic(theta, center):
        thetas.append(np.array(theta, dtype=float).tobytes())
        return model.log_quadratic(theta, center)
    return replace(model, log_density=log_density,
                   log_quadratic=log_quadratic if model.log_quadratic else None), thetas


class TestEvaluationCount:
    """Value, gradient and Hessian come from one log_density call, and a
    point asked for again (the best point after a failed line search, the
    polish start) is remembered: one call per distinct theta.  Newton's
    method on the exact Hessian takes the start, four iterations and one
    polish step on the 2-D population fit, where L-BFGS-B and the difference
    polish took 19-23 evaluations, and 5 on the empirical fit, where they
    took 11."""

    @pytest.mark.parametrize("score,distinct", [
        (GammaScore(0.5), 6), (HolderScore(phi_kappa(0.5, 1.5)), 6), (KL(), 6)],
        ids=["gamma", "holder", "kl"])
    def test_2d_population_fit(self, score, distinct):
        # criterion 5's gaussian-full-d case
        model = make_parametric("gaussian-full-d", dim=2)
        theta_star = np.array([0.2, -0.1, 1.1, 0.3, 0.8])
        recorded, thetas = recording_log_density(model)
        res = population_fit(score, recorded, render_density(model, theta_star),
                             FitConfig(init_theta=theta_star * 1.05 + 0.02,
                                       step_tol=1e-9, grad_tol=1e-2))
        assert res.converged
        assert len(thetas) == len(set(thetas)) == res.n_evals == distinct

    def test_a_small_gradient_alone_does_not_stop_a_fit(self):
        # L-BFGS-B's first trial here lands at L_11 = 4.6e-5, 0.78 from theta*,
        # where the density has all but vanished: the score is -1.1e-17 and
        # its exact gradient 5.1e-12, below step_tol; a fit that stopped at
        # any trial whose gradient met step_tol would report it as converged
        model = make_parametric("gaussian-full-d", dim=2)
        theta_star = np.array([0.19827231, -0.11286771, 1.10843754, 0.3107814, 0.779407])
        res = population_fit(HolderScore(phi_kappa(0.5, 1.5)), model,
                             render_density(model, theta_star),
                             FitConfig(init_theta=theta_star * 1.05 + 0.02,
                                       step_tol=1e-9, grad_tol=1e-2))
        assert res.converged
        assert np.max(np.abs(res.theta_hat - theta_star)) <= 1e-4

    @pytest.mark.parametrize("phi", [phi_kappa(0.5, 1.0), phi_cubic_tail(0.5, 0.5)],
                             ids=lambda phi: phi.label)
    def test_empirical_fit(self, phi):
        # the mc-empirical benchmark's fit
        recorded, thetas = recording_log_density(GAUSS_MS)
        sample = draw_sample(GAUSS_MS, [0.0, 1.0], 2000, seed=401)
        res = fit(HolderScore(phi), recorded, sample,
                  FitConfig(init_theta=[0.0, 1.0], step_tol=1e-7, grad_tol=1e-2))
        assert res.converged
        assert len(thetas) == len(set(thetas)) == res.n_evals == 5

    def test_failed_line_search_accepted_at_the_floor(self):
        # a gradient of the wrong sign fails the first line search; the exact
        # gradient at the best point is below grad_tol, so the fit has
        # converged there, and the check reads the pair already paid for
        recorded, thetas = recording_log_density(GAUSS_MS)
        sample = draw_sample(GAUSS_MS, [0.0, 1.0], 2000, seed=401)
        res = fit(WrongSignGradient(HolderScore(phi_kappa(0.5, 1.0))), recorded, sample,
                  FitConfig(init_theta=[0.0, 1.0], step_tol=1e-7, grad_tol=1e-2))
        assert res.converged
        assert len(thetas) == len(set(thetas)) == res.n_evals

    # lbfgsb: the evaluations that L-BFGS-B with a forward-difference Newton
    # polish, the optimizer Newton's method replaced, paid for on each fit
    # below; Newton's method may not take more
    MIXTURE = make_parametric("gaussian-mixture-fixed-weights", weights=(0.3, 0.7))
    THETA_MIXTURE = np.array([-1.0, 0.8, 1.5, 1.2])
    EXPONENTIAL = make_parametric("exponential-rate")

    @pytest.mark.parametrize("score,lbfgsb", [(KL(), 20), (GammaScore(0.5), 17),
                                              (HolderScore(phi_kappa(0.5, 1.5)), 17)],
                             ids=["kl", "gamma", "holder"])
    def test_mixture_population_fit(self, score, lbfgsb):
        theta = self.THETA_MIXTURE
        res = population_fit(score, self.MIXTURE, render_density(self.MIXTURE, theta),
                             FitConfig(init_theta=1.05 * theta + 0.02, step_tol=1e-9,
                                       grad_tol=1e-2))
        assert res.converged and np.max(np.abs(res.theta_hat - theta)) < 1e-8
        assert res.n_evals <= lbfgsb

    @pytest.mark.parametrize("score,lbfgsb", [(KL(), 19), (GammaScore(0.5), 17),
                                              (HolderScore(phi_kappa(0.5, 1.5)), 16)],
                             ids=["kl", "gamma", "holder"])
    def test_mixture_empirical_fit(self, score, lbfgsb):
        theta = self.THETA_MIXTURE
        res = fit(score, self.MIXTURE, draw_sample(self.MIXTURE, theta, 2000, seed=4),
                  FitConfig(init_theta=1.05 * theta + 0.02))
        assert res.converged
        assert res.n_evals <= lbfgsb

    @pytest.mark.parametrize("score", [KL(), GammaScore(0.5), HolderScore(phi_kappa(0.5, 1.5))],
                             ids=lambda s: s.name)
    def test_exponential_fits(self, score):
        model = self.EXPONENTIAL
        pop = population_fit(score, model, render_density(model, [1.3]),
                             FitConfig(init_theta=[1.1]))
        emp = fit(score, model, draw_sample(model, [1.3], 2000, seed=4),
                  FitConfig(init_theta=[1.0]))
        assert pop.converged and pop.theta_hat[0] == pytest.approx(1.3, rel=1e-10)
        assert emp.converged
        assert pop.n_evals <= 10 and emp.n_evals <= 10

    @pytest.mark.parametrize("kappa,lbfgsb", [(1.0, 18), (1.5, 20)])
    def test_regression_fit(self, kappa, lbfgsb):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        y = 1.2 * x - 0.3 + 0.5 * rng.standard_normal(500)
        y[:50] = 10.0
        res = fit_regression(0.5, kappa, make_conditional("linear-gaussian"),
                             Sample(points=y, covariates=x[:, None]),
                             FitConfig(init_theta=[1.0, 0.0, 1.0]))
        assert res.converged
        assert res.n_evals <= lbfgsb

    @pytest.mark.parametrize("wrapper", [WrongSignGradient], ids=["failed-line-search"])
    def test_n_evals_counts_every_evaluation_paid_for(self, wrapper):
        # the start, the failed line search, the polish and the gradient check
        sample = draw_sample(GAUSS_MS, [0.3, 1.2], 500, seed=4)
        score = wrapper(GammaScore(0.5))
        res = fit(score, GAUSS_MS, sample, FitConfig(init_theta=[0.0, 1.0]))
        assert not res.converged
        assert res.n_evals == score.values


class TestOptimizer:
    @pytest.mark.parametrize("score", [GammaScore(0.5), HolderScore(phi_kappa(0.5, 1.5)),
                                       KL()], ids=lambda s: s.name)
    def test_2d_population_fit_within_50_evaluations(self, score):
        # criterion 5's gaussian-full-d case
        model = make_parametric("gaussian-full-d", dim=2)
        theta_star = np.array([0.2, -0.1, 1.1, 0.3, 0.8])
        counted = CountingScore(score)
        res = population_fit(counted, model, render_density(model, theta_star),
                             FitConfig(init_theta=theta_star * 1.05 + 0.02,
                                       step_tol=1e-9, grad_tol=1e-2))
        assert res.converged
        assert np.max(np.abs(res.theta_hat - theta_star)) < 1e-8
        assert counted.values <= 50

    def test_failed_line_search_stops_at_the_best_point(self):
        # uphill gradients fail the first line search; the start is the best
        # point evaluated, and its gradient is far from zero
        sample = draw_sample(GAUSS_MS, [0.3, 1.2], 800, seed=5)
        score = WrongSignGradient(HolderScore(phi_kappa(0.5, 1.0)))
        res = fit(score, GAUSS_MS, sample,
                  FitConfig(init_theta=[0.0, 1.0], step_tol=1e-9, grad_tol=1e-3,
                            polish=False))
        assert not res.converged
        assert res.iterations == 0
        assert np.max(np.abs(res.theta_hat - [0.0, 1.0])) < 1e-12
        assert res.n_evals == score.values

    @pytest.mark.parametrize("wrapper, init", [(NanGradient, [0.0, 1.0]),
                                               (CountingScore, [0.0, 0.0]),
                                               (CountingScore, [0.0, -1.0])],
                             ids=["nan-gradient", "scale-zero", "scale-negative"])
    def test_start_outside_the_domain_raises(self, wrapper, init):
        # the start is the only point evaluated
        sample = draw_sample(GAUSS_MS, [0.3, 1.2], 200, seed=5)
        score = wrapper(GammaScore(0.5))
        with pytest.raises(DomainError, match=r"the start theta=\[0\.0, "):
            fit(score, GAUSS_MS, sample, FitConfig(init_theta=init))
        assert score.values == 1

    def test_non_finite_gradient_is_stepped_back_from(self):
        # a gradient that is not finite at scales up to 0.12 puts the data's
        # scale, 0.1, behind a wall: the trial steps past it are rejected,
        # and the fit stops short of it, unconverged
        sample = draw_sample(GAUSS_MS, [0.3, 0.1], 500, seed=5)
        walled = []

        class Walled(CountingScore):
            def empirical_with_hessian(self, sample, g):
                value, grad, hess = super().empirical_with_hessian(sample, g)
                if g[1][1] > 0.12:
                    return value, grad, hess
                walled.append(g[1][1])
                return value, np.full(2, np.nan), hess
        res = fit(Walled(KL()), GAUSS_MS, sample, FitConfig(init_theta=[0.3, 0.5]))
        assert walled
        assert not res.converged
        assert 0.12 < res.theta_hat[1] < 0.13
        assert np.isfinite(res.objective_value)

    def test_start_evaluated_once(self, monkeypatch):
        # the start check's evaluation is the Newton loop's first point
        points = []
        guarded = estimators._guarded

        def spy(objective):
            fun = guarded(objective)
            return lambda theta: points.append(np.array(theta)) or fun(theta)

        monkeypatch.setattr(estimators, "_guarded", spy)
        sample = draw_sample(GAUSS_MS, [0.3, 1.2], 800, seed=5)
        res = fit(HolderScore(phi_kappa(0.5, 1.0)), GAUSS_MS, sample,
                  FitConfig(init_theta=[0.0, 1.0], polish=False))
        assert res.converged
        assert sum(np.array_equal(x, [0.0, 1.0]) for x in points) == 1
        assert len(points) == res.n_evals

    def test_step_out_of_the_domain_is_stepped_back_from(self, monkeypatch):
        # from s = 0.5 on data with s = 0.1 the first full Newton step makes
        # the scale negative; the line search must step back rather than stop
        # where it stands
        sample = draw_sample(GAUSS_MS, [0.3, 0.1], 500, seed=5)
        values = []
        guarded = estimators._guarded

        def spy(objective):
            fun = guarded(objective)
            return lambda theta: values.append(fun(theta)) or values[-1]

        monkeypatch.setattr(estimators, "_guarded", spy)
        res = fit(KL(), GAUSS_MS, sample, FitConfig(init_theta=[0.3, 0.5]))
        pts = sample.points[:, 0]
        assert np.isinf([value for value, *_ in values]).any()
        assert res.converged
        assert np.max(np.abs(res.theta_hat - [pts.mean(), pts.std()])) < 1e-6

    def test_iteration_limit_is_not_retried(self):
        sample = draw_sample(GAUSS_MS, [0.0, 1.0], 200, seed=3)
        res = fit(HolderScore(phi_kappa(0.5, 1.0)), GAUSS_MS, sample,
                  FitConfig(init_theta=[5.0, 5.0], max_iters=2))
        assert res.iterations == 2
        assert not res.converged

    @pytest.mark.parametrize("score,seed", [(GammaScore(0.5), 19),
                                            (HolderScore(phi_kappa(0.5, 1.0)), 13)],
                             ids=["gamma", "holder"])
    def test_polish_is_equivariant_under_a_change_of_units(self, score, seed):
        # with an absolute slack of 1e-15 on the value, the polish rejected
        # its Newton step on the sample in units of 0.01 (the rise was
        # rounding noise) and kept L-BFGS-B's theta, 1e-8 off the unit fit
        unit = fit(score, GAUSS_MS, draw_sample(GAUSS_MS, [0.0, 1.0], 2000, seed=seed),
                   FitConfig(init_theta=[0.0, 1.0], step_tol=1e-9, grad_tol=1e-2))
        small = fit(score, GAUSS_MS, draw_sample(GAUSS_MS, [0.0, 0.01], 2000, seed=seed),
                    FitConfig(init_theta=[0.0, 0.01], step_tol=1e-11, grad_tol=1e-2))
        assert unit.converged and small.converged
        assert np.max(np.abs(small.theta_hat / 0.01 - unit.theta_hat)) \
            < 1e-12 * np.max(np.abs(unit.theta_hat))


    @pytest.mark.parametrize("scale", [1e-4, 1e-7])
    def test_polish_steps_scale_with_the_parameters(self, scale):
        # a difference step with an absolute floor of 1e-6 is larger than
        # the parameters themselves at scale 1e-7, and the polish then
        # left theta 3e-9 (relative) off the unit-scale fit
        worst = 0.0
        for seed in range(3):
            sample = draw_sample(GAUSS_MS, [0.0, 1.0], 2000, seed=seed)
            for score in (GammaScore(0.5), HolderScore(phi_kappa(0.5, 1.0))):
                unit = fit(score, GAUSS_MS, sample,
                           FitConfig(init_theta=[0.0, 1.0], step_tol=1e-9, grad_tol=1e-2))
                small = fit(score, GAUSS_MS, Sample(points=scale * sample.points),
                            FitConfig(init_theta=[0.0, scale], step_tol=1e-9 * scale,
                                      grad_tol=1e-2))
                assert unit.converged and small.converged
                worst = max(worst, np.max(np.abs(small.theta_hat / scale - unit.theta_hat))
                            / np.max(np.abs(unit.theta_hat)))
        assert worst < 1e-12


class TestPopulationFit:
    @pytest.mark.parametrize("score", [
        KL(), GammaScore(0.5), BregmanHolder(0.5, 2.0),
        HolderScore(phi_kappa(0.5, 1.5))])
    def test_fisher_consistency_mean_scale(self, score):
        theta_star = np.array([0.3, 1.1])
        p_true = render_density(GAUSS_MS, theta_star)
        res = population_fit(score, GAUSS_MS, p_true,
                             cfg_for([0.0, 1.0], step_tol=1e-9))
        assert np.max(np.abs(res.theta_hat - theta_star)) < 1e-5

    def test_ill_conditioned_2d_gaussian_to_1e_10(self):
        # correlation 1 - 1e-4: cond(L) ~ 140, and the polynomial form of
        # log g in u = x - midpoint loses accuracy as cond(L)^2; on 1025^2
        # nodes the grid's mass is 1 + 1.9e-7, and the fit measured 2.4e-11
        # relative to theta*
        r = 1.0 - 1e-4
        model = make_parametric("gaussian-full-d", dim=2)
        theta_star = np.array([0.2, -0.1, 1.0, r, np.sqrt(1.0 - r * r)])
        p_true = render_density(model, theta_star, points_per_axis=1025)
        res = population_fit(GammaScore(0.5), model, p_true,
                             cfg_for(theta_star * 1.02 + 0.01, grad_tol=1e-2))
        assert res.converged
        assert np.max(np.abs(res.theta_hat / theta_star - 1.0)) < 1e-10

    def test_contaminated_population_small_eps(self):
        theta_star = np.array([0.0, 1.0])
        p_eps = contaminate(GAUSS_MS, theta_star, 0.05, z=10.0)
        res = population_fit(GammaScore(0.5), GAUSS_MS, p_eps,
                             cfg_for([0.0, 1.0], step_tol=1e-9))
        # dense grid-search oracle over the mean component
        grid = np.linspace(-0.2, 0.4, 241)
        vals = []
        from holderscores import expected_score
        for m in grid:
            vals.append(expected_score(GammaScore(0.5), p_eps,
                                       (GAUSS_MS, [m, res.theta_hat[1]])))
        oracle_m = grid[int(np.argmin(vals))]
        assert abs(res.theta_hat[0] - oracle_m) < 5e-3
        assert abs(res.theta_hat[0]) < 0.05

    @pytest.mark.parametrize("z", [-12.0, 1.73, 10.0], ids=["left", "inside", "right"])
    def test_kl_mean_bias_is_exact_under_point_contamination(self, z):
        # the KL fit of a mean is the mixture's mean, m + eps (z - m); a
        # point mass spread over cells around the node nearest z missed it
        # by up to 3e-5
        m, eps = 0.3, 0.1
        p_eps = contaminate(GAUSS_M, [m], eps, z)
        res = population_fit(KL(), GAUSS_M, p_eps,
                             cfg_for([m], step_tol=1e-9, grad_tol=1e-2))
        assert res.theta_hat[0] - m == pytest.approx(eps * (z - m), rel=1e-12)


class TestAveragedScore:
    def setup_method(self):
        self.cmodel = make_conditional("linear-gaussian", noise=0.8)
        rng = rng_for(31)
        x = rng.uniform(-2, 2, size=(300, 1))
        y = 1.5 * x[:, 0] - 0.5 + 0.8 * rng.standard_normal(300)
        self.sample = Sample(points=y, covariates=x)
        self.theta = np.array([1.5, -0.5])

    def test_kappa_one_plus_gamma_matches_density_power_per_x(self):
        gamma = 0.5
        got = averaged_score(BregmanHolder(gamma, 1 + gamma), self.cmodel,
                             self.theta, self.sample)
        # per-observation density power terms, averaged
        ygrid, wy = y_grid()
        dens = np.exp(self.cmodel.cond_log_density(self.theta, ygrid[None, :],
                                                   self.sample.covariates))
        m_int = (dens ** (1 + gamma)) @ wy
        qi = np.exp(self.cmodel.cond_log_density(self.theta, self.sample.points[:, 0],
                                                 self.sample.covariates))
        dp_terms = m_int - (1 + gamma) / gamma * qi ** gamma
        assert got == pytest.approx(gamma / (1 + gamma) * dp_terms.mean(), rel=1e-12)

    def test_truth_beats_perturbations_on_grid(self):
        gamma, kappa = 0.5, 1.0
        base = averaged_score(BregmanHolder(gamma, kappa), self.cmodel,
                              self.theta, self.sample)
        for da in (-0.2, -0.1, 0.1, 0.2):
            for db in (-0.2, 0.2):
                other = averaged_score(BregmanHolder(gamma, kappa), self.cmodel,
                                       self.theta + np.array([da, db]), self.sample)
                assert base < other

    def test_single_observation_kappa_one(self):
        gamma = 0.5
        s1 = Sample(points=self.sample.points[:1], covariates=self.sample.covariates[:1])
        got = averaged_score(BregmanHolder(gamma, 1.0), self.cmodel, self.theta, s1)
        ygrid, wy = y_grid()
        dens = np.exp(self.cmodel.cond_log_density(self.theta, ygrid[None, :],
                                                   s1.covariates))
        m1 = ((dens ** (1 + gamma)) @ wy).item()
        q1 = float(np.exp(self.cmodel.cond_log_density(self.theta, s1.points[:, 0],
                                                       s1.covariates)[0]))
        assert got == pytest.approx(-m1 ** (1 / (1 + gamma)) * q1 ** gamma / m1, rel=1e-12)

    def test_non_bregman_family_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            averaged_score(Pseudospherical(0.5), self.cmodel, self.theta, self.sample)

    def test_kl_average(self):
        val = averaged_score(KL(), self.cmodel, self.theta, self.sample)
        assert np.isfinite(val)

    def test_kl_average_finite_where_outlier_densities_underflow(self):
        cmodel = make_conditional("linear-gaussian", noise=0.5)
        rng = rng_for(12)
        x = rng.uniform(-3, 3, size=(400, 1))
        y = 1.2 * x[:, 0] + 0.3 + 0.5 * rng.standard_normal(400)
        y[:4] = 25.0
        theta = np.array([1.2, 0.3])
        assert np.any(np.exp(cmodel.cond_log_density(theta, y, x)) == 0.0)
        got = averaged_score(KL(), cmodel, theta, Sample(points=y, covariates=x))
        # <q(.|x)> is 1 in closed form, so the score is the mean negative
        # log-likelihood plus one
        u = (y - x[:, 0] * 1.2 - 0.3) / 0.5
        want = np.mean(0.5 * u * u + np.log(0.5 * np.sqrt(2 * np.pi))) + 1.0
        assert got == pytest.approx(want, rel=1e-12)


class TestAveragedScoreGradient:
    @pytest.mark.parametrize("noise,theta", [(0.8, [1.4, -0.4]), (None, [1.4, -0.4, 0.9])],
                             ids=["fixed-noise", "fitted-noise"])
    @pytest.mark.parametrize("score", [KL(), BregmanHolder(0.5, 1.0), BregmanHolder(0.5, 1.5)],
                             ids=repr)
    def test_matches_central_differences(self, noise, theta, score):
        cmodel = make_conditional("linear-gaussian", noise=noise)
        rng = rng_for(31)
        x = rng.uniform(-2, 2, size=(300, 1))
        sample = Sample(points=1.5 * x[:, 0] - 0.5 + 0.8 * rng.standard_normal(300),
                        covariates=x)
        theta = np.array(theta)
        exact = averaged_score_with_hessian(score, cmodel, theta, sample)[1]
        numeric = np.empty(theta.size)
        for i in range(theta.size):
            e = np.zeros(theta.size)
            e[i] = 1e-6 * max(1.0, abs(theta[i]))
            numeric[i] = (averaged_score(score, cmodel, theta + e, sample)
                          - averaged_score(score, cmodel, theta - e, sample)) / (2 * e[i])
        assert np.max(np.abs(exact - numeric)) <= 1e-6 * np.max(np.abs(numeric))

    @pytest.mark.parametrize("noise,theta", [(0.8, [1.4, -0.4]), (None, [1.4, -0.4, 0.9])],
                             ids=["fixed-noise", "fitted-noise"])
    @pytest.mark.parametrize("score", [KL(), BregmanHolder(0.5, 1.0), BregmanHolder(0.5, 1.5)],
                             ids=repr)
    def test_pair_value_is_the_value_bit_for_bit(self, noise, theta, score):
        cmodel = make_conditional("linear-gaussian", noise=noise)
        rng = rng_for(31)
        x = rng.uniform(-2, 2, size=(300, 1))
        sample = Sample(points=1.5 * x[:, 0] - 0.5 + 0.8 * rng.standard_normal(300),
                        covariates=x)
        # the triple that fit_regression minimizes reads averaged_score's value
        value = averaged_score_with_hessian(score, cmodel, theta, sample)[0]
        assert value == averaged_score(score, cmodel, theta, sample)

    # fit_regression's data: y-outliers at 10 pull every Hessian term in
    @pytest.mark.parametrize("noise,theta", [(0.8, [1.4, -0.4]), (None, [1.4, -0.4, 0.9]),
                                             (None, [1.0, 0.1, 0.9])],
                             ids=["fixed-noise", "fitted-noise", "fitted-noise-off"])
    @pytest.mark.parametrize("score", [KL(), BregmanHolder(0.5, 1.0), BregmanHolder(0.5, 1.5)],
                             ids=repr)
    def test_hessian_matches_central_differences_of_the_gradient(self, noise, theta, score):
        cmodel = make_conditional("linear-gaussian", noise=noise)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        y = 1.2 * x - 0.3 + 0.5 * rng.standard_normal(500)
        y[:50] = 10.0
        sample = Sample(points=y, covariates=x[:, None])
        theta = np.array(theta)
        exact = averaged_score_with_hessian(score, cmodel, theta, sample)[2]
        numeric = np.empty((theta.size, theta.size))
        for i in range(theta.size):
            e = np.zeros(theta.size)
            e[i] = 1e-6 * max(1.0, abs(theta[i]))
            numeric[:, i] = (averaged_score_with_hessian(score, cmodel, theta + e, sample)[1]
                             - averaged_score_with_hessian(score, cmodel, theta - e, sample)[1]
                             ) / (2 * e[i])
        assert np.max(np.abs(exact - numeric)) <= 1e-8 * np.max(np.abs(numeric))


class TestStructuralMismatch:
    # each once ran a full fit in which every evaluation was +inf
    def test_parameter_vector_of_the_wrong_length(self):
        sample = draw_sample(GAUSS_MS, [0.0, 1.0], 100, seed=1)
        with pytest.raises(StructuralError):
            fit(GammaScore(0.5), GAUSS_MS, sample, FitConfig(init_theta=[0.0]))

    def test_sample_of_the_wrong_dimension(self):
        model = make_parametric("gaussian-full-d", dim=2)
        sample = draw_sample(GAUSS_M, [0.0], 100, seed=1)
        with pytest.raises(StructuralError, match="dimensional"):
            fit(GammaScore(0.5), model, sample, FitConfig(init_theta=[0, 0, 1, 0, 1]))

    def test_grid_of_the_wrong_dimension(self):
        model = make_parametric("gaussian-full-d", dim=2)
        grid = render_density(GAUSS_M, [0.0])
        with pytest.raises(StructuralError, match="dimensional"):
            population_fit(GammaScore(0.5), model, grid, FitConfig(init_theta=[0, 0, 1, 0, 1]))

    def test_covariate_columns_other_than_x_dim(self):
        # a crash with a numpy ValueError before
        rng = rng_for(3)
        x = rng.uniform(-2, 2, size=(50, 2))
        sample = Sample(points=x @ [1.0, -0.5] + 0.1 * rng.standard_normal(50), covariates=x)
        cmodel = make_conditional("linear-gaussian")
        with pytest.raises(StructuralError, match="x_dim=1"):
            fit_regression(0.5, 1.0, cmodel, sample, cfg_for([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("call", ["averaged_score", "fit_regression"])
    def test_outcomes_of_more_than_one_column(self, call):
        # column 1 alone was scored and fitted, and the fit reported converged
        rng = rng_for(3)
        x = rng.uniform(-2, 2, size=(50, 1))
        y = 1.2 * x + 0.3 + 0.5 * rng.standard_normal((50, 2))
        sample = Sample(points=y, covariates=x)
        base = make_conditional("linear-gaussian")
        calls = []

        def cond_log_density(*args):
            calls.append(args)
            return base.cond_log_density(*args)
        cmodel = replace(base, cond_log_density=cond_log_density)
        with pytest.raises(StructuralError, match="dimension 2|2-dimensional"):
            if call == "averaged_score":
                averaged_score(BregmanHolder(0.5, 1.0), cmodel, [1.2, 0.3, 0.5], sample)
            else:
                fit_regression(0.5, 1.0, cmodel, sample, cfg_for([1.0, 0.0, 1.0]))
        assert calls == []


class TestFitRegression:
    def make_data(self, n=400, a=1.2, b=-0.7, s=0.5, seed=5, out_eps=0.0, out_y=20.0):
        rng = rng_for(seed)
        x = rng.uniform(-3, 3, size=(n, 1))
        y = a * x[:, 0] + b + s * rng.standard_normal(n)
        if out_eps > 0:
            y = np.where(rng.random(n) < out_eps, out_y, y)
        return Sample(points=y, covariates=x)

    def test_small_gamma_tracks_least_squares(self):
        sample = self.make_data()
        cmodel = make_conditional("linear-gaussian", noise=0.5)
        res = fit_regression(1e-3, 1.0 + 1e-3, cmodel, sample,
                             cfg_for([1.0, 0.0], step_tol=1e-8))
        X = np.column_stack([sample.covariates[:, 0], np.ones(sample.n)])
        ab_ls = np.linalg.lstsq(X, sample.points[:, 0], rcond=None)[0]
        assert np.max(np.abs(res.theta_hat - ab_ls)) < 5e-3

    def test_gamma_score_resists_y_outliers(self):
        a_true = 1.2
        sample = self.make_data(n=1000, out_eps=0.1, out_y=20.0, seed=6)
        cmodel = make_conditional("linear-gaussian", noise=0.5)
        robust = fit_regression(0.5, 1.0, cmodel, sample,
                                cfg_for([1.0, 0.0], step_tol=1e-7))
        X = np.column_stack([sample.covariates[:, 0], np.ones(sample.n)])
        ab_ls = np.linalg.lstsq(X, sample.points[:, 0], rcond=None)[0]
        ls_bias = abs(ab_ls[0] - a_true)
        robust_bias = abs(robust.theta_hat[0] - a_true)
        assert robust_bias < ls_bias / 3

    def test_zero_noise_recovers_interpolant(self):
        sample = self.make_data(n=150, s=0.0, seed=8)
        cmodel = make_conditional("linear-gaussian", noise=0.05)
        res = fit_regression(0.7, 1.3, cmodel, sample,
                             cfg_for([0.8, 0.2], step_tol=1e-9))
        assert np.max(np.abs(res.theta_hat - np.array([1.2, -0.7]))) < 1e-6

    def test_regression_equivariance_under_y_map(self):
        # y -> sigma*y + mu sends (a, b, s) to (sigma*a, sigma*b + mu, sigma*s)
        sigma, mu = 2.5, 1.0
        sample = self.make_data(n=500, seed=9)
        cmodel = make_conditional("linear-gaussian")
        cfg = cfg_for([1.0, 0.0, 0.4], step_tol=1e-9)
        raw = fit_regression(0.5, 1.0, cmodel, sample, cfg)
        mapped_sample = Sample(points=sigma * sample.points[:, 0] + mu,
                               covariates=sample.covariates)
        cfg2 = replace(cfg, init_theta=[sigma * 1.0, sigma * 0.0 + mu, sigma * 0.4])
        mapped = fit_regression(0.5, 1.0, cmodel, mapped_sample, cfg2)
        pushed = np.array([sigma * raw.theta_hat[0],
                           sigma * raw.theta_hat[1] + mu,
                           sigma * raw.theta_hat[2]])
        assert np.max(np.abs(pushed - mapped.theta_hat)) < 10 * 1e-4

    def test_parameter_validation(self):
        sample = self.make_data(n=50)
        cmodel = make_conditional("linear-gaussian", noise=0.5)
        with pytest.raises(DomainError):
            fit_regression(-0.5, 1.0, cmodel, sample, cfg_for([1.0, 0.0]))
        with pytest.raises(DomainError):
            fit_regression(0.5, 0.5, cmodel, sample, cfg_for([1.0, 0.0]))

    @pytest.mark.parametrize("gamma,kappa", [(np.nan, 1.0), (np.inf, 1.0), (0.5, np.nan),
                                             (0.5, np.inf)])
    def test_non_finite_parameters_raise(self, gamma, kappa):
        sample = self.make_data(n=50)
        cmodel = make_conditional("linear-gaussian", noise=0.5)
        with pytest.raises(DomainError):
            fit_regression(gamma, kappa, cmodel, sample, cfg_for([1.0, 0.0]))


class TestConditionalModel:
    @pytest.mark.parametrize("noise", [math.nan, math.inf, 0.0, -0.5],
                             ids=["nan", "inf", "zero", "negative"])
    def test_fixed_noise_must_be_finite_and_positive(self, noise):
        # NaN fails every comparison, so only 0 < noise < inf admits a scale
        with pytest.raises(ConfigError):
            make_conditional("linear-gaussian", noise=noise)

    def test_conditional_density_normalized_in_y(self):
        cmodel = make_conditional("linear-gaussian", noise=0.7)
        ygrid, wy = y_grid()
        x = np.array([[0.5], [-1.0], [2.0]])
        dens = np.exp(cmodel.cond_log_density([1.0, 0.3], ygrid[None, :], x))
        masses = dens @ wy
        assert np.max(np.abs(masses - 1.0)) < 1e-8

    @pytest.mark.parametrize("a", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("noise,theta", [(0.7, [1.0, 0.3]), (None, [1.0, 0.3, 0.9])],
                             ids=["fixed-noise", "fitted-noise"])
    def test_power_moment_matches_the_y_grid(self, noise, theta, a):
        cmodel = make_conditional("linear-gaussian", noise=noise)
        power, grad, _ = cmodel.power_moment(theta, a)
        ygrid, wy = y_grid()
        for x in ([0.5], [-1.0], [2.0]):
            xs = np.tile(x, (ygrid.size, 1))
            t = wy * np.exp(a * cmodel.cond_log_density(theta, ygrid, xs))
            s = cmodel.cond_score(theta, ygrid, xs).T
            assert power == pytest.approx(t.sum(), rel=1e-12)
            assert np.all(np.abs(grad - a * (s @ t)) <= 1e-12 * a * (np.abs(s) @ t))

    def test_cond_score_matches_fd(self):
        cmodel = make_conditional("linear-gaussian")
        theta = np.array([1.1, -0.2, 0.9])
        x = np.array([[0.7], [-0.4]])
        y = np.array([1.0, -0.8])
        analytic = cmodel.cond_score(theta, y, x)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (cmodel.cond_log_density(theta + e, y, x)
                  - cmodel.cond_log_density(theta - e, y, x)) / (2 * h)
            assert np.max(np.abs(analytic[:, i] - fd)) < 1e-5
