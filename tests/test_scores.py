import gc
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holderscores import (AffineMap, BregmanHolder, ConfigError, DegenerateInputError,
                          DensityPower, DomainError, GammaScore, GridDensity,
                          HolderScore, KL, PhiFunction, Pseudospherical,
                          Sample, bregman_to_holder_value,
                          check_equivalence_in_probability, divergence,
                          draw_sample, empirical_score, expected_score,
                          integrate, l1_distance, make_parametric, phi_cubic_tail,
                          phi_gamma_score, phi_kappa, phi_linear, power_moment,
                          phi_from_config, render_density, score_from_config,
                          StructuralError, transform_density, validate_phi)

GAUSS = make_parametric("gaussian-mean-scale")


def gaussian_pair(theta_p, theta_q, lo=-10.0, hi=10.0, n=2001):
    p = render_density(GAUSS, theta_p, lo=[lo], hi=[hi], points_per_axis=n)
    q = render_density(GAUSS, theta_q, lo=[lo], hi=[hi], points_per_axis=n)
    return p.normalize(), q.normalize()


def uniform(n=1001):
    return GridDensity([0.0], [1.0], np.ones(n))


def all_families(gamma):
    return [KL(), DensityPower(gamma), Pseudospherical(gamma), GammaScore(gamma),
            HolderScore(phi_kappa(gamma, 1.5)), BregmanHolder(gamma, 2.0)]


class TestExpectedScore:
    def test_holder_linear_phi_at_uniform(self):
        u = uniform()
        score = HolderScore(phi_linear(0.5))
        assert expected_score(score, u, u) == pytest.approx(-1.0, abs=1e-12)

    def test_pseudospherical_disjoint_supports(self):
        x = np.linspace(0, 1, 401)
        f = GridDensity([0.0], [1.0], np.where(x < 0.5, 2.0, 0.0))
        g = GridDensity([0.0], [1.0], np.where(x >= 0.5, 2.0, 0.0))
        assert expected_score(Pseudospherical(0.5), f, g) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_score_disjoint_supports_signals_infinity(self):
        x = np.linspace(0, 1, 401)
        f = GridDensity([0.0], [1.0], np.where(x < 0.5, 2.0, 0.0))
        g = GridDensity([0.0], [1.0], np.where(x >= 0.5, 2.0, 0.0))
        assert expected_score(GammaScore(0.5), f, g) == np.inf

    def test_kl_gaussian_mean_shift(self):
        # closed form (m1 - m2)^2 / 2, cross-checked by brute-force quadrature
        p, q = gaussian_pair([0.0, 1.0], [1.0, 1.0])
        val = divergence(KL(), p, q)
        assert val.divergence == pytest.approx(0.5, abs=1e-9)

    def test_kl_vanishing_target_signals_infinity(self):
        x = np.linspace(0, 1, 401)
        f = uniform(401)
        g = GridDensity([0.0], [1.0], np.where(x < 0.5, 2.0, 0.0))
        assert expected_score(KL(), f, g) == np.inf

    def test_kl_nodes_where_data_and_target_vanish_add_nothing(self):
        # 0 log 0 counts as 0 there, with no warning; an exponential model
        # target has log g = -inf on the data grid's x < 0
        x = np.linspace(0, 1, 401)
        f = GridDensity([0.0], [1.0], np.where(x < 0.5, 2.0, 0.0))
        w, v = f.weights.ravel(), f.values.ravel()
        mass = float(np.sum(w * v))
        model = make_parametric("exponential-rate")
        data = render_density(model, [1.5], lo=[-1.0], hi=[8.0], points_per_axis=901)
        with np.errstate(all="raise"):
            assert expected_score(KL(), f, f) == pytest.approx(mass - math.log(2.0) * mass,
                                                               rel=1e-14)
            val = expected_score(KL(), data, (model, [1.3]))
        fw, pos = (data.values * data.weights).ravel(), data.values.ravel() > 0
        log_g = model.log_density(np.array([1.3]), data.points())
        assert not pos.all()
        assert val == pytest.approx(-np.sum(fw[pos] * log_g[pos])
                                    + np.sum(data.weights.ravel() * np.exp(log_g)), rel=1e-12)

    def test_kl_model_target_survives_underflow(self):
        # N(0, 0.1) underflows to zero on most of the +-8 box where N(0, 1)
        # has mass; its log-density does not
        f = render_density(GAUSS, [0.0, 1.0], lo=[-8.0], hi=[8.0], points_per_axis=2001)
        val = expected_score(KL(), f, (GAUSS, (0.0, 0.1)))
        closed = math.log(0.1) + 0.5 * math.log(2 * math.pi) + 50.0 + 1.0
        assert math.isfinite(val)
        assert val == pytest.approx(closed, rel=1e-8)

    def test_degenerate_power_integral_rejected(self):
        f = uniform(101)
        g = GridDensity([0.0], [1.0], np.full(101, 1e-300))
        with pytest.raises(DegenerateInputError):
            expected_score(DensityPower(2.0), f, g)


class TestFixedNodeExpected:
    """A (model, theta) target equals the same model rendered on f's grid."""

    @pytest.mark.parametrize("kind,hyper,theta", [
        ("gaussian-mean", {}, [0.3]),
        ("gaussian-mean-scale", {}, [0.3, 1.1]),
        ("gaussian-full-d", {"dim": 2}, [0.2, -0.1, 1.1, 0.3, 0.8]),
        ("gaussian-full-d", {"dim": 3}, [0.2, -0.1, 0.1, 1.1, 0.3, 0.8, -0.2, 0.1, 0.9]),
        ("gaussian-mixture-fixed-weights", {}, [-1.4, 0.8, 1.4, 1.0]),
        ("exponential-rate", {}, [1.3]),
    ])
    def test_matches_rendered_target(self, kind, hyper, theta):
        model = make_parametric(kind, **hyper)
        f = render_density(model, theta)
        cand = np.asarray(theta) * 1.01
        g = render_density(model, cand, lo=f.domain_lo, hi=f.domain_hi,
                           points_per_axis=f.points_per_axis)
        for score in all_families(0.5):
            assert expected_score(score, f, (model, cand)) == pytest.approx(
                expected_score(score, f, g), rel=1e-12), repr(score)


class TestDivergence:
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 2.0])
    def test_identity_all_families(self, gamma):
        p, _ = gaussian_pair([0.3, 1.2], [0.0, 1.0])
        for score in all_families(gamma):
            assert divergence(score, p, p).divergence == pytest.approx(0.0, abs=1e-10)

    def test_holder_gaussian_pair_frozen_oracle(self):
        # frozen from brute-force quadrature over (-30, 30)
        p, q = gaussian_pair([0.0, 1.0], [0.5, 1.0])
        score = HolderScore(phi_linear(0.5))
        val = divergence(score, p, q).divergence
        assert val == pytest.approx(0.0315698875194198, rel=1e-8)
        assert val > 0

    def test_bregman_holder_positive_and_matches_holder_route(self):
        p, q = gaussian_pair([0.0, 1.0], [0.0, 2.0], lo=-16, hi=16, n=3001)
        bh = BregmanHolder(1.0, 2.0)
        hl = HolderScore(phi_kappa(1.0, 2.0))
        assert divergence(bh, p, q).divergence > 0
        for f, g in [(p, q), (q, p), (p, p)]:
            via_bh = bregman_to_holder_value(expected_score(bh, f, g), 1.0, 2.0)
            direct = expected_score(hl, f, g)
            assert via_bh == pytest.approx(direct, rel=1e-12)

    def test_nonnegativity_battery(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            t_p = [rng.uniform(-2, 2), rng.uniform(0.5, 2.0)]
            t_q = [rng.uniform(-2, 2), rng.uniform(0.5, 2.0)]
            p, q = gaussian_pair(t_p, t_q, lo=-14, hi=14, n=1601)
            for gamma in (0.1, 0.5, 1.0, 2.0):
                for score in all_families(gamma):
                    assert divergence(score, p, q).divergence >= -1e-10

    def test_discrimination(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            t_p = [rng.uniform(-2, 2), rng.uniform(0.5, 2.0)]
            t_q = [rng.uniform(-2, 2), rng.uniform(0.5, 2.0)]
            p, q = gaussian_pair(t_p, t_q, lo=-14, hi=14, n=1601)
            if l1_distance(p, q) <= 0.05:
                continue
            for gamma in (0.1, 0.5, 1.0, 2.0):
                for score in all_families(gamma):
                    assert divergence(score, p, q).divergence > 1e-4

    def test_density_power_recovers_kl_at_small_gamma(self):
        p, q = gaussian_pair([0.0, 1.0], [0.7, 1.3])
        kl = divergence(KL(), p, q).divergence
        dp = divergence(DensityPower(1e-3), p, q).divergence
        assert dp == pytest.approx(kl, rel=0.02)

    def test_holder_entropy_is_negative_power_integral(self):
        p, _ = gaussian_pair([0.2, 0.9], [0.0, 1.0])
        for gamma in (0.1, 0.5, 1.0, 2.0):
            for phi in (phi_kappa(gamma, 1.0), phi_kappa(gamma, 1.7),
                        phi_linear(gamma), phi_cubic_tail(gamma, 0.3)):
                s_ff = expected_score(HolderScore(phi), p, p)
                assert s_ff == pytest.approx(-power_moment(p, 1 + gamma), rel=1e-10)

    @pytest.mark.parametrize("score", [GammaScore(0.5), HolderScore(phi_kappa(0.5, 1.0))],
                             ids=["gamma", "holder"])
    def test_overflowing_grid_target_raises(self, score):
        # <g^(1+gamma)> overflows to inf: expected read inf (gamma) or nan
        # (holder), where empirical against the same target already raised
        p = render_density(GAUSS, [0.0, 1.0])
        q = p.with_values(p.values * 1e300)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "overflow", RuntimeWarning)
            with pytest.raises(DegenerateInputError, match="finite mass"):
                score.expected(p, q)
            with pytest.raises(DegenerateInputError, match="finite mass"):
                divergence(score, p, q)
            with pytest.raises(DegenerateInputError, match="finite mass"):
                score.empirical(Sample(points=np.array([[0.3]])), q)


class TestEmpiricalScore:
    def test_single_observation_holder(self):
        model = GAUSS
        theta = np.array([0.0, 1.0])
        omega = np.array([[0.7]])
        gamma = 0.5
        phi = phi_kappa(gamma, 1.5)
        score = HolderScore(phi)
        got = empirical_score(score, Sample(points=omega), (model, theta))
        g_grid = render_density(model, theta)
        g_power = power_moment(g_grid, 1 + gamma)
        c = float(model.density(theta, omega)[0]) ** gamma
        assert got == pytest.approx(float(phi.value(c / g_power)) * g_power, rel=1e-10)

    def test_density_power_lln(self):
        model = GAUSS
        theta = np.array([0.0, 1.0])
        gamma = 0.5
        score = DensityPower(gamma)
        sample = draw_sample(model, theta, 100_000, seed=5)
        emp = empirical_score(score, sample, (model, theta))
        p = render_density(model, theta)
        exp = expected_score(score, p, (model, theta))
        vals = model.density(theta, sample.points) ** gamma
        se = (1 + gamma) / gamma * vals.std(ddof=1) / np.sqrt(sample.n)
        assert abs(emp - exp) < 3 * se

    def test_kl_lln_truth_against_itself(self):
        model = GAUSS
        theta = np.array([0.0, 1.0])
        sample = draw_sample(model, theta, 100_000, seed=6)
        emp = empirical_score(KL(), sample, (model, theta))
        p = render_density(model, theta)
        exp = expected_score(KL(), p, (model, theta))
        logs = -model.log_density(theta, sample.points)
        se = logs.std(ddof=1) / np.sqrt(sample.n)
        assert abs(emp - exp) < 3 * se

    def test_kl_zero_density_at_sample_point_signals_infinity(self):
        x = np.linspace(0, 1, 201)
        g = GridDensity([0.0], [1.0], np.where(x < 0.5, 2.0, 0.0))
        s = Sample(points=np.array([0.9]))
        assert empirical_score(KL(), s, g) == np.inf


class TestEmpiricalPowerFromLogDensity:
    """The empirical power term is the model's closed form, or for the
    mixture w * exp(a log g) summed over the nodes of its box; it agrees with
    the rendered grid wherever nothing underflows, and stays finite where the
    density itself does."""

    KINDS = [
        ("gaussian-mean", {}, [0.3]),
        ("gaussian-mean-scale", {}, [-0.4, 1.3]),
        ("gaussian-full-d", {"dim": 2}, [0.2, -0.1, 1.1, 0.3, 0.8]),
        ("gaussian-mixture-fixed-weights", {}, [-1.5, 0.8, 1.2, 1.1]),
        ("exponential-rate", {}, [1.4]),
    ]

    @pytest.mark.parametrize("kind,hyper,theta", KINDS, ids=[k[0] for k in KINDS])
    @pytest.mark.parametrize("score", [KL(), GammaScore(0.5), HolderScore(phi_kappa(0.5, 1.5))],
                             ids=["kl", "gamma", "holder"])
    def test_matches_the_rendered_grid(self, kind, hyper, theta, score):
        model = make_parametric(kind, **hyper)
        theta = np.asarray(theta)
        sample = draw_sample(model, theta, 50, seed=9)
        cand = 1.05 * theta
        grid = render_density(model, cand)
        if kind == "exponential-rate":
            # the rendered box is biased by the kink at x = 0 (4.5e-9 to 4.1e-8
            # relative), so the exact <g^a> = rate^(a-1) / a stands in for it
            def power(a):
                return cand[0] ** (a - 1) / a
        else:
            def power(a):
                return power_moment(grid, a)
        log_g = model.log_density(cand, sample.points)
        if isinstance(score, KL):
            want = -np.mean(log_g) + power(1.0)
        else:
            want = score._combine(np.mean(np.exp(log_g) ** score.gamma),
                                  power(1 + score.gamma))
        got = empirical_score(score, sample, (model, cand))
        assert got == pytest.approx(want, rel=1e-12)

    def test_gamma_score_finite_where_every_sample_density_underflows(self):
        gamma, scale = 0.5, 0.02
        theta = np.array([0.0, scale])
        sample = Sample(points=0.9 + 0.01 * np.random.default_rng(4).standard_normal(20))
        assert np.all(GAUSS.density(theta, sample.points) == 0.0)
        got = empirical_score(GammaScore(gamma), sample, (GAUSS, theta))
        cross = np.mean(np.exp(gamma * GAUSS.log_density(theta, sample.points)))
        # closed form of <N(0, s^2)^(1+gamma)>
        power = (2 * np.pi * scale ** 2) ** (-gamma / 2) / np.sqrt(1 + gamma)
        want = -np.log(cross / power ** (gamma / (1 + gamma))) / gamma
        assert got == pytest.approx(want, rel=1e-12)

    def test_power_term_without_finite_mass_raises(self):
        # the density at the mode, 1/(s sqrt(2 pi)), overflows, but the
        # closed-form <N^1.5> = (2 pi s^2)^(-1/4) / sqrt(1.5) ~ 5e154 is finite
        gamma, log_s = 0.5, math.log(1e-310)
        with np.errstate(over="ignore"):  # the scale gradient, ~1e464, is not finite
            got = empirical_score(GammaScore(gamma), Sample(points=[0.0]),
                                  (GAUSS, np.array([0.0, 1e-310])))
        log_power = -gamma / 2 * (math.log(2 * math.pi) + 2 * log_s) - 0.5 * math.log(1 + gamma)
        log_cross = gamma * (-0.5 * math.log(2 * math.pi) - log_s)
        want = -(log_cross - gamma / (1 + gamma) * log_power) / gamma
        assert math.exp(log_power) == pytest.approx(5.2e154, rel=0.01)
        assert got == pytest.approx(want, rel=1e-12)
        # the mixture's power term is still a box sum, which overflows
        mixture = make_parametric("gaussian-mixture-fixed-weights")
        with pytest.raises(DegenerateInputError), np.errstate(over="ignore"):
            empirical_score(GammaScore(gamma), Sample(points=[0.0]),
                            (mixture, np.array([0.0, 1e-310, 0.0, 1e-310])))


def central_fd(fun, theta, rel_step=1e-5):
    grad = np.empty(theta.size)
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = rel_step * max(1.0, abs(theta[i]))
        grad[i] = (fun(theta + e) - fun(theta - e)) / (2.0 * e[i])
    return grad


class TestExactGradient:
    """expected_with_gradient and empirical_with_gradient: their gradient
    against central differences of the value, and their value bit for bit
    against expected and empirical, for every model and family, away from
    the optimum."""

    KINDS = TestEmpiricalPowerFromLogDensity.KINDS

    @pytest.mark.parametrize("kind,hyper,theta", KINDS, ids=[k[0] for k in KINDS])
    @pytest.mark.parametrize("score", all_families(0.5),
                             ids=lambda s: s.name)
    def test_matches_central_differences(self, kind, hyper, theta, score):
        model = make_parametric(kind, **hyper)
        theta = np.asarray(theta, dtype=float)
        p_true = render_density(model, theta)
        sample = draw_sample(model, theta, 300, seed=1)
        cand = 1.05 * theta + 0.02
        for exact, value in (
                (score.expected_with_gradient(p_true, (model, cand))[1],
                 lambda t: score.expected(p_true, (model, t))),
                (score.empirical_with_gradient(sample, (model, cand))[1],
                 lambda t: score.empirical(sample, (model, t)))):
            numeric = central_fd(value, cand)
            assert np.max(np.abs(exact - numeric)) <= 1e-6 * np.max(np.abs(numeric))

    @pytest.mark.parametrize("kind,hyper,theta", KINDS, ids=[k[0] for k in KINDS])
    @pytest.mark.parametrize("score", all_families(0.5),
                             ids=lambda s: s.name)
    def test_pair_value_is_the_value_bit_for_bit(self, kind, hyper, theta, score):
        # a fit minimizes the pair's value; divergence and the value-only
        # entry points must read the same number
        model = make_parametric(kind, **hyper)
        theta = np.asarray(theta, dtype=float)
        p_true = render_density(model, theta)
        sample = draw_sample(model, theta, 300, seed=1)
        for cand in (theta, 1.05 * theta + 0.02):
            g = (model, cand)
            assert score.expected_with_gradient(p_true, g)[0] == score.expected(p_true, g)
            assert score.empirical_with_gradient(sample, g)[0] == score.empirical(sample, g)
            # the triples a fit minimizes: the pairs' value and gradient
            for triple, pair, data in (
                    (score.expected_with_hessian, score.expected_with_gradient, p_true),
                    (score.empirical_with_hessian, score.empirical_with_gradient, sample)):
                value, grad, _ = triple(data, g)
                ref_value, ref_grad = pair(data, g)
                assert value == ref_value and np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("kind,hyper,theta", [
        ("gaussian-mean", {}, [0.3]),
        ("gaussian-full-d", {"dim": 1}, [0.3, 1.1]),
        ("gaussian-full-d", {"dim": 2}, [0.2, -0.1, 1.1, 0.3, 0.8]),
        ("gaussian-full-d", {"dim": 3}, [0.2, -0.1, 0.1, 1.1, 0.3, 0.8, -0.2, 0.1, 0.9]),
    ], ids=["mean", "full-1", "full-2", "full-3"])
    @pytest.mark.parametrize("score", all_families(0.5), ids=lambda s: s.name)
    def test_quadratic_pair_matches_the_whitened_score_pair(self, kind, hyper, theta, score):
        # the monomial path against log_density and score at every node, on
        # the rendered grid and on its pushforward through a map with a
        # reflection (and a shear at d > 1), whose frame lifts eta and jac
        model = make_parametric(kind, **hyper)
        whitened = replace(model, log_quadratic=None)
        theta = np.asarray(theta, dtype=float)
        p_true = render_density(model, theta, points_per_axis=(2001, 257, 31)[model.dim - 1])
        cand = 1.05 * theta + 0.02
        amap = AffineMap(*map(np.array, {
            1: ([[-1.7]], [0.6]), 2: ([[1.2, 0.3], [-0.4, 0.9]], [0.2, -0.1]),
            3: ([[1.3, 0.4, -0.2], [0.1, -0.8, 0.3], [-0.3, 0.2, 1.1]], [0.3, -0.5, 0.2]),
        }[model.dim]))
        # the candidate follows the data; gaussian-mean has no push by |sigma| != 1
        pushed = amap.apply(cand)[0] if kind == "gaussian-mean" else \
            model.push_params(cand, amap.sigma, amap.mu)
        for f, g in ((p_true, cand), (transform_density(p_true, amap), pushed)):
            value, grad = score.expected_with_gradient(f, (model, g))
            ref_value, ref_grad = score.expected_with_gradient(f, (whitened, g))
            assert value == pytest.approx(ref_value, rel=1e-12)
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize("kind,hyper,theta", [
        ("gaussian-mean", {}, [0.3]),
        ("gaussian-full-d", {"dim": 1}, [0.3, 1.1]),
        ("gaussian-full-d", {"dim": 2}, [0.2, -0.1, 1.1, 0.3, 0.8]),
        ("gaussian-full-d", {"dim": 3}, [0.2, -0.1, 0.1, 1.1, 0.3, 0.8, -0.2, 0.1, 0.9]),
    ], ids=["mean", "full-1", "full-2", "full-3"])
    @pytest.mark.parametrize("score", [KL(), GammaScore(0.5), HolderScore(phi_kappa(0.5, 1.5))],
                             ids=lambda s: s.name)
    def test_quadratic_hessian_matches_the_whitened_score_hessian(self, kind, hyper, theta,
                                                                   score):
        # <h q q^T> from the per-axis rows up to w^4 and curv against score
        # columns and curvature at every node, on the rendered grid and on its
        # pushforward through a sheared frame
        model = make_parametric(kind, **hyper)
        whitened = replace(model, log_quadratic=None)
        theta = np.asarray(theta, dtype=float)
        p_true = render_density(model, theta, points_per_axis=(2001, 257, 31)[model.dim - 1])
        cand = 1.05 * theta + 0.02
        sigma = {1: [[-1.7]], 2: [[1.2, 0.3], [-0.4, 0.9]],
                 3: [[1.3, 0.4, -0.2], [0.1, -0.8, 0.3], [-0.3, 0.2, 1.1]]}[model.dim]
        amap = AffineMap(np.array(sigma), np.full(model.dim, 0.2))
        pushed = amap.apply(cand)[0] if kind == "gaussian-mean" else \
            model.push_params(cand, amap.sigma, amap.mu)
        for f, g in ((p_true, cand), (transform_density(p_true, amap), pushed)):
            hess = score.expected_with_hessian(f, (model, g))[2]
            ref = score.expected_with_hessian(f, (whitened, g))[2]
            assert np.max(np.abs(hess - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_grid_dies_with_its_last_reference(self):
        # the per-axis rows a pair caches on the data grid refer to nothing
        # that refers back to it, so no cycle collection is needed to free it
        model = make_parametric("gaussian-full-d", dim=2)
        theta = np.array([0.2, -0.1, 1.1, 0.3, 0.8])
        f = render_density(model, theta, points_per_axis=33)
        alive = weakref.ref(f)
        gc.disable()
        try:
            GammaScore(0.5).expected_with_gradient(f, (model, 1.05 * theta))
            assert f.axis_monomials
            del f
            assert alive() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("score", [GammaScore(0.5), KL()], ids=lambda s: s.name)
    def test_grid_target_has_no_gradient(self, score):
        p, q = gaussian_pair([0.0, 1.0], [0.2, 1.1])
        with pytest.raises(StructuralError):
            score.expected_with_gradient(p, q)
        # the value alone is fine: the grid density interpolated at the points
        sample = Sample(points=[-0.5, 0.1, 0.7])
        assert math.isfinite(score.empirical(sample, q))
        with pytest.raises(StructuralError):
            score.empirical_with_gradient(sample, q)


def central_hessian(gradient, theta, rel_step=1e-6):
    hess = np.empty((theta.size, theta.size))
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = rel_step * max(1.0, abs(theta[i]))
        hess[:, i] = (gradient(theta + e) - gradient(theta - e)) / (2.0 * e[i])
    return hess


class TestExactHessian:
    """expected_with_hessian and empirical_with_hessian: their Hessian
    against central differences of the exact gradient, for every model and
    family, on a grid and on a sample, away from the optimum."""

    KINDS = TestEmpiricalPowerFromLogDensity.KINDS + [
        ("gaussian-full-d", {"dim": 3}, [0.2, -0.1, 0.3, 1.1, 0.3, 0.8, -0.2, 0.1, 0.9])]

    @pytest.mark.parametrize("kind,hyper,theta", KINDS, ids=[f"{k[0]}-{len(k[2])}" for k in KINDS])
    @pytest.mark.parametrize("score", all_families(0.5) + [HolderScore(phi_cubic_tail(0.5, 0.5))],
                             ids=repr)
    def test_matches_central_differences_of_the_gradient(self, kind, hyper, theta, score):
        model = make_parametric(kind, **hyper)
        theta = np.asarray(theta, dtype=float)
        p_true = render_density(model, theta, points_per_axis=21 if model.dim == 3 else None)
        sample = draw_sample(model, theta, 300, seed=1)
        cand = 1.05 * theta + 0.02
        for data, triple, pair in (
                (p_true, score.expected_with_hessian, score.expected_with_gradient),
                (sample, score.empirical_with_hessian, score.empirical_with_gradient)):
            exact = triple(data, (model, cand))[2]
            numeric = central_hessian(lambda t: pair(data, (model, t))[1], cand)
            assert np.max(np.abs(exact - numeric)) <= 1e-8 * np.max(np.abs(numeric))
            assert np.array_equal(exact, exact.T) or \
                np.max(np.abs(exact - exact.T)) <= 1e-13 * np.max(np.abs(exact))

    def test_model_without_curvature_has_no_hessian(self):
        # the value and gradient need none; a fit's Newton steps do
        model = replace(make_parametric("gaussian-mixture-fixed-weights"), curvature=None)
        theta = np.array([-1.5, 0.8, 1.2, 1.1])
        sample = draw_sample(model, theta, 50, seed=9)
        GammaScore(0.5).empirical_with_gradient(sample, (model, theta))
        with pytest.raises(StructuralError, match="has no curvature"):
            GammaScore(0.5).empirical_with_hessian(sample, (model, theta))


class TestDimensionMismatch:
    """Data and a target of different dimensions raise StructuralError on
    every path; the grid paths raised a bare ValueError from numpy or scipy."""

    FULL2 = make_parametric("gaussian-full-d", dim=2)
    THETA2 = [0.0, 0.0, 1.0, 0.0, 1.0]

    @pytest.mark.parametrize("case", [
        "gamma-expected-2d-grid-1d-model", "gamma-pair-2d-grid-1d-model",
        "kl-expected-1d-grid-2d-model", "gamma-pair-2d-grid-1d-mixture",
        "gamma-empirical-2d-sample-1d-model"])
    def test_model_of_another_dimension(self, case):
        f1 = render_density(GAUSS, [0.0, 1.0])
        f2 = render_density(self.FULL2, self.THETA2, points_per_axis=33)
        data, target, call = {
            "gamma-expected-2d-grid-1d-model":
                (f2, (GAUSS, [0.0, 1.0]), GammaScore(0.5).expected),
            "gamma-pair-2d-grid-1d-model":
                (f2, (GAUSS, [0.0, 1.0]), GammaScore(0.5).expected_with_gradient),
            "kl-expected-1d-grid-2d-model":
                (f1, (self.FULL2, self.THETA2), KL().expected),
            "gamma-pair-2d-grid-1d-mixture":
                (f2, (make_parametric("gaussian-mixture-fixed-weights"), [-1.0, 1.0, 1.0, 1.0]),
                 GammaScore(0.5).expected_with_gradient),
            "gamma-empirical-2d-sample-1d-model":
                (Sample(points=np.zeros((5, 2))), (GAUSS, [0.0, 1.0]), GammaScore(0.5).empirical),
        }[case]
        with pytest.raises(StructuralError, match=f"points have dimension {data.dim}, "
                                                  f"model expects {target[0].dim}"):
            call(data, target)

    def test_grid_target_at_points_of_another_dimension(self):
        # scipy's interpolator raised "The requested sample points xi have dimension 2"
        with pytest.raises(StructuralError, match="points have dimension 2"):
            GammaScore(0.5).empirical(Sample(points=np.zeros((5, 2))),
                                      render_density(GAUSS, [0.0, 1.0]))


class TestValueWithoutScore:
    """A value alone (``expected``, ``divergence``, ``empirical``) never calls
    the model's ``score``: only a gradient does."""

    @pytest.mark.parametrize("kind,theta", [
        ("gaussian-mixture-fixed-weights", [-1.0, 1.0, 1.5, 0.7]),
        ("exponential-rate", [1.5])], ids=["mixture", "exponential"])
    @pytest.mark.parametrize("score", [KL(), GammaScore(0.5), HolderScore(phi_kappa(0.5, 1.5))],
                             ids=lambda s: s.name)
    def test_no_score_call(self, kind, theta, score):
        model = make_parametric(kind)
        calls = []

        def recording_score(th, x):
            calls.append(th)
            return model.score(th, x)
        theta = np.array(theta)
        target = (replace(model, score=recording_score), 1.05 * theta)
        f = render_density(model, theta)
        sample = draw_sample(model, theta, 200, seed=5)
        expected_score(score, f, target)
        divergence(score, f, target)
        empirical_score(score, sample, target)
        assert calls == []
        # the pairs do call it
        score.expected_with_gradient(f, target)
        score.empirical_with_gradient(sample, target)
        assert len(calls) >= 2


class TestNonFiniteParameters:
    """NaN fails every comparison, so each range check also rejects NaN and
    infinities explicitly."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("build", [
        GammaScore, DensityPower, Pseudospherical, phi_linear,
        lambda v: PhiFunction(gamma=v, value=lambda z: -np.asarray(z) ** 1.5),
        lambda v: phi_kappa(v, 1.0), lambda v: phi_kappa(0.5, v),
        lambda v: phi_cubic_tail(v, 0.5), lambda v: phi_cubic_tail(0.5, v),
        lambda v: BregmanHolder(v, 1.0), lambda v: BregmanHolder(0.5, v),
    ], ids=["gamma-score", "density-power", "pseudospherical", "phi-linear", "phi",
            "phi-kappa-gamma", "phi-kappa-kappa", "cubic-tail-gamma", "cubic-tail-c",
            "bregman-gamma", "bregman-kappa"])
    def test_raises_domain_error(self, build, bad):
        with pytest.raises(DomainError):
            build(bad)


def _positive_grid_pair():
    shapes = st.one_of(st.tuples(st.integers(2, 40)),
                       st.tuples(st.integers(2, 8), st.integers(2, 8)))
    values = st.floats(min_value=1e-3, max_value=1e3)
    return shapes.flatmap(lambda shape: st.tuples(arrays(float, shape, elements=values),
                                                  arrays(float, shape, elements=values)))


class TestDivergenceNonnegativeProperty:
    @settings(max_examples=60, deadline=None)
    @given(pair=_positive_grid_pair(), gamma=st.floats(0.1, 2.0), kappa=st.floats(1.0, 3.0),
           normalize=st.booleans())
    def test_every_family_on_positive_grid_pairs(self, pair, gamma, kappa, normalize):
        # Holder's inequality holds for the weighted sums themselves, so the
        # gap is nonnegative for unnormalized pairs too
        lo, hi = np.zeros(pair[0].ndim), np.ones(pair[0].ndim)
        f, g = (GridDensity(lo, hi, v) for v in pair)
        if normalize:
            f, g = f.normalize(), g.normalize()
        families = [KL(), DensityPower(gamma), Pseudospherical(gamma), GammaScore(gamma),
                    BregmanHolder(gamma, kappa),
                    HolderScore(phi_kappa(gamma, kappa)), HolderScore(phi_linear(gamma)),
                    HolderScore(phi_cubic_tail(gamma, 0.5))]
        for score in families:
            value = divergence(score, f, g)
            scale = max(abs(value.s_fg) + abs(value.s_ff), 1.0)
            assert value.divergence >= -1e-10 * scale, score


class TestPhiKappa:
    @pytest.mark.parametrize("gamma,kappa", [(0.5, 1.0), (0.5, 1.5), (1.0, 2.0),
                                             (2.0, 1.25), (0.1, 3.0)])
    def test_anchor_value(self, gamma, kappa):
        assert float(phi_kappa(gamma, kappa).value(1.0)) == pytest.approx(-1.0, abs=1e-14)

    def test_kappa_one_is_lower_bound(self):
        gamma = 0.7
        phi = phi_gamma_score(gamma)
        z = np.linspace(0, 5, 101)
        assert np.allclose(phi.value(z), -z ** (1 + gamma), rtol=1e-13)

    def test_zero_crossing(self):
        phi = phi_kappa(1.0, 2.0)
        assert float(phi.value(0.5)) == 0.0

    @pytest.mark.parametrize("gamma,kappa", [(0.5, 1.0), (0.5, 1.5), (1.0, 2.0)])
    def test_derivatives_match_finite_differences_away_from_kinks(self, gamma, kappa):
        phi = phi_kappa(gamma, kappa)
        h1, h2 = 1e-6, 1e-4  # second differences need the larger step
        kink = 1.0 - 1.0 / kappa  # phi is non-smooth there for kappa > 1
        for z in (0.4, 0.9, 1.0, 1.8, 3.0):
            if abs(z - kink) < 0.2:
                continue
            fd1 = (phi.value(z + h1) - phi.value(z - h1)) / (2 * h1)
            fd2 = (phi.value(z + h2) - 2 * phi.value(z) + phi.value(z - h2)) / h2 ** 2
            assert float(phi.d1(z)) == pytest.approx(fd1, rel=1e-5)
            assert float(phi.d2(z)) == pytest.approx(fd2, rel=1e-5, abs=1e-7)

    def test_curvature_at_anchor(self):
        # phi''(1) = -gamma(1+gamma) + (kappa-1)(1+gamma)
        for gamma, kappa in [(0.5, 1.0), (0.5, 1.25), (0.5, 1.5), (1.0, 2.0)]:
            expect = -gamma * (1 + gamma) + (kappa - 1) * (1 + gamma)
            assert float(phi_kappa(gamma, kappa).d2(1.0)) == pytest.approx(expect, rel=1e-10)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            phi_kappa(0.0, 1.0)
        with pytest.raises(DomainError):
            phi_kappa(0.5, 0.9)

    def test_fd_fallback_when_derivatives_omitted(self):
        gamma = 0.5
        phi = PhiFunction(gamma=gamma, value=lambda z: -np.asarray(z) ** (1 + gamma))
        assert float(phi.d1(2.0)) == pytest.approx(-(1 + gamma) * 2.0 ** gamma, rel=1e-6)
        assert float(phi.d2(2.0)) == pytest.approx(-(1 + gamma) * gamma * 2.0 ** (gamma - 1),
                                                   rel=1e-3)

    def test_fd_fallback_near_zero(self):
        # a fit reads phi' at u = <f g^gamma> / <g^(1+gamma)> far below 1; the
        # stencil shrinks with z there and never leaves phi's domain z > 0
        phi = PhiFunction(gamma=0.5, value=lambda z: -np.asarray(z, dtype=float) ** 1.5)
        for z in (3e-4, 1e-6):
            assert float(phi.d1(z)) == pytest.approx(-1.5 * z ** 0.5, rel=1e-10)
            assert float(phi.d2(z)) == pytest.approx(-0.75 * z ** -0.5, rel=1e-8)


class TestValidatePhi:
    def test_builtin_passes(self):
        report = validate_phi(phi_kappa(0.5, 1.5))
        assert report.passed
        assert report.anchor_error <= 1e-12
        assert not report.violations

    def test_wrong_anchor_fails(self):
        phi = PhiFunction(gamma=1.0, value=lambda z: -2.0 * np.asarray(z, dtype=float))
        report = validate_phi(phi)
        assert not report.passed
        assert report.anchor_error == pytest.approx(1.0)

    def test_bound_violation_at_zero_fails(self):
        gamma = 0.5
        phi = PhiFunction(gamma=gamma,
                          value=lambda z: -np.asarray(z, dtype=float) ** (1 + gamma) - 0.01)
        report = validate_phi(phi)
        assert not report.passed
        assert any(z == 0.0 for z, _ in report.violations)

    def test_z_max_must_cross_anchor(self):
        with pytest.raises(DomainError):
            validate_phi(phi_kappa(0.5, 1.0), z_max=0.5)


class TestEquivalence:
    def test_density_power_vs_linear_holder(self):
        gamma = 0.5
        report = check_equivalence_in_probability(
            DensityPower(gamma), HolderScore(phi_linear(gamma)), trials=100, seed=1)
        assert report.passed
        # and the stronger pointwise identity: Holder = gamma * DensityPower
        p, q = gaussian_pair([0.0, 1.0], [0.8, 1.4])
        s_dp = expected_score(DensityPower(gamma), p, q)
        s_h = expected_score(HolderScore(phi_linear(gamma)), p, q)
        assert s_h == pytest.approx(gamma * s_dp, rel=1e-12)

    def test_gamma_vs_pseudospherical(self):
        report = check_equivalence_in_probability(
            GammaScore(0.5), Pseudospherical(0.5), trials=100, seed=2)
        assert report.passed

    def test_gamma_vs_bregman_holder_kappa_one(self):
        report = check_equivalence_in_probability(
            GammaScore(0.5), BregmanHolder(0.5, 1.0), trials=100, seed=3)
        assert report.passed

    def test_each_expected_score_computed_once(self):
        calls = []

        class Counting(GammaScore):
            def expected(self, f, g):
                calls.append(self)
                return super().expected(f, g)

        a, b = Counting(0.5), Counting(0.5)
        assert check_equivalence_in_probability(a, b, trials=3, seed=4).passed
        # S(p, q) and S(p, q') once each, per score and trial
        assert calls.count(a) == calls.count(b) == 6

    def test_kappa_one_bregman_is_pseudospherical_exactly(self):
        p, q = gaussian_pair([0.0, 1.0], [0.5, 0.8])
        for f, g in [(p, q), (q, p)]:
            assert expected_score(BregmanHolder(0.5, 1.0), f, g) == pytest.approx(
                expected_score(Pseudospherical(0.5), f, g), rel=1e-13)


class TestKappaFamilyConsistency:
    def test_bridge_identity_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            gamma = rng.uniform(0.2, 2.0)
            kappa = rng.uniform(1.0, 3.0)
            t_p = [rng.uniform(-1.5, 1.5), rng.uniform(0.6, 1.8)]
            t_q = [rng.uniform(-1.5, 1.5), rng.uniform(0.6, 1.8)]
            p, q = gaussian_pair(t_p, t_q, lo=-14, hi=14, n=1601)
            via = bregman_to_holder_value(
                expected_score(BregmanHolder(gamma, kappa), p, q), gamma, kappa)
            direct = expected_score(HolderScore(phi_kappa(gamma, kappa)), p, q)
            assert abs(via - direct) <= 1e-10 * max(abs(direct), 1e-8)


class TestScoreConfig:
    def test_all_families_parse(self):
        assert isinstance(score_from_config({"family": "kl"}), KL)
        assert isinstance(score_from_config({"family": "density-power", "gamma": "0.5"}),
                          DensityPower)
        assert isinstance(score_from_config({"family": "pseudospherical", "gamma": "1"}),
                          Pseudospherical)
        assert isinstance(score_from_config({"family": "gamma", "gamma": "0.5"}), GammaScore)
        s = score_from_config({"family": "holder", "gamma": "0.5", "phi": "kappa",
                               "kappa": "1.5"})
        assert isinstance(s, HolderScore)
        b = score_from_config({"family": "bregman-holder", "gamma": "0.5", "kappa": "2"})
        assert isinstance(b, BregmanHolder)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            score_from_config({"family": "nope", "gamma": "1"})
        with pytest.raises(ConfigError):
            score_from_config({"family": "density-power"})
        with pytest.raises(DomainError):
            score_from_config({"family": "density-power", "gamma": "-1"})
        with pytest.raises(DomainError):
            score_from_config({"family": "bregman-holder", "gamma": "1", "kappa": "0.5"})
        with pytest.raises(ConfigError):
            score_from_config({"family": "holder", "gamma": "1", "phi": "unknown"})


class TestPhiFromConfig:
    def test_defaults_to_kappa_and_ignores_case(self):
        assert phi_from_config({}, 0.5).label == "kappa(0.5,1)"
        assert phi_from_config({"phi": " KAPPA ", "kappa": "1.5"}, 0.5).label \
            == "kappa(0.5,1.5)"
        assert phi_from_config({"phi": "cubic-tail", "c": "0.25"}, 0.5).label \
            == "cubic-tail(0.5,0.25)"
        assert score_from_config({"family": "holder", "gamma": "0.5"}).phi.label \
            == "kappa(0.5,1)"

    @pytest.mark.parametrize("cfg, key", [
        ({"family": "gamma", "gamma": "abc"}, "gamma"),
        ({"family": "bregman-holder", "gamma": "0.5", "kappa": "x"}, "kappa"),
        ({"family": "holder", "gamma": "0.5", "kappa": "x"}, "kappa"),
        ({"family": "holder", "gamma": "0.5", "phi": "cubic-tail", "c": "x"}, "c"),
    ])
    def test_non_numeric_value_raises_config_error(self, cfg, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            score_from_config(cfg)

    @pytest.mark.parametrize("name, key", [
        ("linear", "kappa"), ("gamma-score", "kappa"), ("cubic-tail", "kappa"),
        ("kappa", "c"), ("linear", "c"), ("gamma-score", "c"),
    ])
    def test_key_the_shape_does_not_take_raises(self, name, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            phi_from_config({"phi": name, key: "3"}, 0.5)
