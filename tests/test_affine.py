from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from holderscores import (AffineMap, DomainError, FitConfig, GammaScore,
                          GridDensity, HolderScore, KL, Pseudospherical,
                          BregmanHolder, StructuralError, UnsupportedFamilyError, divergence,
                          draw_sample, fit_scale_exponent, integrate,
                          make_parametric, phi_kappa, population_fit, read_grid,
                          render_density, scale_function, transform_density,
                          verify_estimator_equivariance, verify_invariance, write_grid)
from holderscores.affine import invariance_residual
from holderscores.scores import ScoreValue

GAUSS = make_parametric("gaussian-mean-scale")


def gauss_grid(mean, scale, lo=-12.0, hi=12.0, n=2401):
    return render_density(GAUSS, [mean, scale], lo=[lo], hi=[hi],
                          points_per_axis=n).normalize()


def gauss2_grid(mean, scales, lo=-12.0, hi=12.0, n=241):
    def pdf(pts):
        u = (pts - np.asarray(mean)) / np.asarray(scales)
        return np.exp(-0.5 * np.sum(u * u, axis=1)) \
            / np.prod(np.asarray(scales) * np.sqrt(2 * np.pi))
    return GridDensity.from_callable(pdf, [lo, lo], [hi, hi], n).normalize()


class TestAffineMap:
    def test_round_trip(self):
        amap = AffineMap(sigma=np.array([[2.0, 0.5], [0.0, 1.5]]),
                         mu=np.array([1.0, -2.0]))
        pts = np.random.default_rng(0).standard_normal((20, 2))
        back = amap.apply_inverse(amap.apply(pts))
        assert np.max(np.abs(back - pts)) < 1e-10

    def test_inverse_map(self):
        amap = AffineMap(sigma=np.array([[3.0]]), mu=np.array([-2.0]))
        pts = np.array([[0.5], [2.0]])
        assert np.allclose(amap.inverse().apply(amap.apply(pts)), pts, atol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(DomainError):
            AffineMap(sigma=np.zeros((2, 2)), mu=np.zeros(2))

    def test_compose_multiplies_determinants(self):
        a = AffineMap(sigma=np.array([[2.0, 0.0], [0.0, 3.0]]), mu=np.array([1.0, 0.0]))
        b = AffineMap(sigma=np.array([[0.0, -1.0], [1.0, 0.0]]), mu=np.array([0.0, 2.0]))
        c = a.compose(b)
        assert abs(c.det_sigma) == pytest.approx(abs(a.det_sigma * b.det_sigma), rel=1e-12)
        pts = np.random.default_rng(1).standard_normal((7, 2))
        assert np.allclose(c.apply(pts), a.apply(b.apply(pts)), atol=1e-12)

    @pytest.mark.parametrize("sigma, mu, name", [
        ([[np.nan]], [0.0], "sigma"), ([[np.inf]], [0.0], "sigma"),
        ([[1.0, np.nan], [0.0, 1.0]], [0.0, 0.0], "sigma"), ([[2.0]], [np.nan], "mu"),
        ([[2.0, 0.0], [0.0, 1.0]], [0.0, -np.inf], "mu"),
    ])
    def test_non_finite_rejected(self, sigma, mu, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            AffineMap(sigma=np.array(sigma), mu=np.array(mu))


class TestTransformDensity:
    def test_identity_map(self):
        p = gauss_grid(0.3, 1.1)
        ident = AffineMap(sigma=np.eye(1), mu=np.zeros(1))
        q = transform_density(p, ident)
        assert np.max(np.abs(q.values - p.values)) < 1e-9

    def test_scaling_gaussian_1d(self):
        # data map x -> x/2 sends N(0,1) to N(0, 1/4)
        p = gauss_grid(0.0, 1.0)
        amap = AffineMap(sigma=np.array([[2.0]]), mu=np.zeros(1))
        q = transform_density(p, amap)
        target = GAUSS.density([0.0, 0.5], q.points())
        assert np.max(np.abs(q.values.ravel() - target)) < 1e-6
        assert integrate(q) == pytest.approx(integrate(p), rel=1e-15)

    def test_2d_mass_and_peak(self):
        p = gauss2_grid([0.0, 0.0], [1.0, 1.0], lo=-10, hi=10, n=281)
        amap = AffineMap(sigma=np.diag([2.0, 3.0]), mu=np.array([1.0, 1.0]))
        q = transform_density(p, amap)
        assert integrate(q) == pytest.approx(1.0, abs=1e-6)
        assert q.values.max() == pytest.approx(6.0 / (2 * np.pi), rel=1e-4)

    # maps of d = 1..3 with a reflection (det < 0) and a shear among them
    MAPS = [
        AffineMap(sigma=np.array([[-1.3]]), mu=np.array([0.4])),
        AffineMap(sigma=np.array([[1.1, 0.6], [0.0, -0.8]]), mu=np.array([0.3, -0.5])),
        AffineMap(sigma=np.array([[0.9, -0.4], [0.3, 1.2]]), mu=np.array([-0.2, 0.1])),
        AffineMap(sigma=np.array([[1.3, 0.4, -0.2], [0.1, -0.8, 0.3], [-0.3, 0.2, 1.1]]),
                  mu=np.array([0.3, -0.5, 0.2])),
    ]

    # (model, theta) of d = 1..3 for the maps above, in order
    GAUSSIANS = [
        (GAUSS, [0.3, 1.1]),
        (make_parametric("gaussian-full-d", dim=2), [0.4, -0.7, 1.3, 0.5, 0.8]),
        (make_parametric("gaussian-full-d", dim=2), [0.4, -0.7, 1.3, 0.5, 0.8]),
        (make_parametric("gaussian-full-d", dim=3), [0.2, -0.3, 0.1, 1.0, 0.3, 1.1, -0.2, 0.1, 0.9]),
    ]

    @pytest.mark.parametrize("amap, gaussian", list(zip(MAPS, GAUSSIANS)),
                             ids=["1d-reflection", "2d-shear-reflection", "2d-general",
                                  "3d-reflection"])
    def test_gaussian_matches_the_pushed_parameters_at_every_node(self, amap, gaussian):
        # the pushforward is exact: every node of q, far tails and faces
        # included, holds the density of the pushed parameters there, to
        # 1e-13 relative; in tails below e^-40 the rounding of log p itself,
        # a few units in the last place of |log p|, is the larger (measured
        # 1.9e-13 at 4e-73, 2d-shear-reflection)
        model, theta = gaussian
        d = model.dim
        p = render_density(model, theta, lo=[-9.0] * d, hi=[9.0] * d,
                           points_per_axis={1: 301, 2: 61, 3: 17}[d])
        q = transform_density(p, amap)
        pushed = model.push_params(np.array(theta), amap.sigma, amap.mu)
        log_target = model.log_density(pushed, q.points())
        assert log_target.min() < np.log(1e-15)
        assert np.all(np.abs(q.values.ravel() / np.exp(log_target) - 1.0)
                      <= 1e-13 * np.maximum(1.0, np.abs(log_target) / 40.0))
        assert integrate(q) == pytest.approx(integrate(p), rel=1e-15)

    def test_keeps_zeros_and_mass(self, tmp_path):
        # a grid read from a file may hold zeros: they stay where they are,
        # and no mass is made or lost around them
        f = GridDensity.from_callable(
            lambda x: np.exp(-0.5 * np.sum((x - 0.3) ** 2, axis=1)) * (1.2 + np.sin(2 * x[:, 0])),
            [-4.0] * 2, [3.5] * 2, 61)
        values = np.where(f.values > 1e-3, f.values, 0.0)
        values[30, 30] = 0.0
        write_grid(f.with_values(values), tmp_path / "f.grid")
        f = read_grid(tmp_path / "f.grid")
        q = transform_density(f, self.MAPS[2])
        assert np.array_equal(q.values == 0.0, f.values == 0.0)
        assert integrate(q) == pytest.approx(integrate(f), rel=1e-15)

    @pytest.mark.parametrize("d, n", [(1, 1201), (2, 81), (3, 21)])
    def test_keeps_the_face_nodes_of_axis_aligned_maps(self, d, n):
        # every target node's source lies in the closed box, so a strictly
        # positive density stays positive everywhere; a mapped corner that
        # rounds one ulp outside the box must not zero a whole face
        f = GridDensity.from_callable(lambda x: 4.0 + np.sum(np.sin(x), axis=1),
                                      [-1.3] * d, [2.1] * d, n)
        for k, scale in enumerate(np.geomspace(0.23, 3.7, 9)):
            signs = (-1.0) ** (k + np.arange(d))
            for shift in (-0.7, 0.0, 1.9):
                amap = AffineMap(sigma=np.diag(scale * signs * (1 + 0.1 * np.arange(d))),
                                 mu=shift + 0.3 * np.arange(d))
                q = transform_density(f, amap)
                assert np.all(q.values > 0), (scale, shift)

    def test_evaluate_reads_every_node_of_a_sheared_grid(self):
        # one of the 128 face nodes pulled back one ulp outside the box and read 0
        model = make_parametric("gaussian-full-d", dim=2)
        p = render_density(model, [0.3, -0.5, 1.3, 0.4, 0.7], points_per_axis=33)
        q = transform_density(p, AffineMap(sigma=np.array([[1.2, 0.3], [-0.4, 0.9]]),
                                           mu=np.zeros(2)))
        assert np.max(np.abs(q.evaluate(q.points()) - q.values.ravel())) \
            <= 1e-15 * q.values.max()
        # a point truly outside still reads 0, here 1e-9 outward of the corner
        sigma, mu = q.frame
        assert q.evaluate(sigma @ (q.domain_hi + 1e-9) + mu)[0] == 0.0
        # in the identity frame the pull-back is exact and nothing moves
        pts = np.random.default_rng(3).uniform(p.domain_lo - 1.0, p.domain_hi + 1.0,
                                               size=(500, 2))
        pts[:4] = [p.domain_lo, p.domain_hi, [p.domain_lo[0], 0.0], [0.0, p.domain_hi[1]]]
        exact = RegularGridInterpolator(p.axes(), p.values, bounds_error=False,
                                        fill_value=0.0)(pts)
        assert np.array_equal(p.evaluate(pts), exact)

    def test_dimension_mismatch_is_structural(self):
        p = gauss2_grid([0.0, 0.0], [1.0, 1.0], n=41)
        for amap in (AffineMap(sigma=np.array([[2.0]]), mu=np.array([0.0])),
                     AffineMap(sigma=np.eye(3), mu=np.zeros(3))):
            with pytest.raises(StructuralError, match=f"{amap.dim}-dimensional map .* "
                                                      f"2-dimensional density"):
                transform_density(p, amap)
            with pytest.raises(StructuralError):
                verify_invariance(HolderScore(phi_kappa(0.5, 1.0)), p, p, amap)
        q = gauss2_grid([0.5, 0.0], [1.0, 1.2], n=41)
        # a map with |det sigma| = 1 carries no exponent but still has to fit
        for sigma in (2.0, -1.0):
            with pytest.raises(StructuralError):
                fit_scale_exponent(GammaScore(0.5), p, q,
                                   [AffineMap(sigma=np.array([[sigma]]), mu=np.array([0.0])),
                                    AffineMap(sigma=np.diag([2.0, 1.0]), mu=np.zeros(2))])

    def test_round_trip_through_inverse(self):
        p = gauss_grid(0.5, 1.2)
        amap = AffineMap(sigma=np.array([[1.7]]), mu=np.array([0.6]))
        back = transform_density(transform_density(p, amap), amap.inverse())
        pb = back.evaluate(p.points()[::7])
        pv = p.values.ravel()[::7]
        assert np.max(np.abs(pb - pv)) < 1e-6


class TestTransformDensity3d:
    # a 3-d Gaussian on 41^3 nodes over +-9 and a map that mixes all three axes
    MODEL = make_parametric("gaussian-full-d", dim=3)
    THETA_P = [0.2, -0.3, 0.1, 1.0, 0.3, 1.1, -0.2, 0.1, 0.9]
    THETA_Q = [-0.4, 0.5, 0.3, 1.2, -0.1, 0.9, 0.2, 0.3, 1.3]
    AMAP = AffineMap(sigma=np.array([[1.3, 0.4, -0.2], [0.1, 0.8, 0.3], [-0.3, 0.2, 1.1]]),
                     mu=np.array([0.3, -0.5, 0.2]))

    def grid(self, theta):
        return render_density(self.MODEL, theta, lo=[-9.0] * 3, hi=[9.0] * 3,
                              points_per_axis=41).normalize()

    def test_matches_the_pushed_parameters_and_keeps_mass(self):
        p = self.grid(self.THETA_P)
        q = transform_density(p, self.AMAP)
        pushed = self.MODEL.push_params(np.array(self.THETA_P), self.AMAP.sigma, self.AMAP.mu)
        log_target = self.MODEL.log_density(pushed, q.points())
        assert np.all(np.abs(q.values.ravel() / np.exp(log_target) - 1.0)
                      <= 1e-13 * np.maximum(1.0, np.abs(log_target) / 40.0))
        assert integrate(q) == pytest.approx(integrate(p), rel=1e-15)

    def test_holder_invariance_residual(self):
        p, q = self.grid(self.THETA_P), self.grid(self.THETA_Q)
        score = HolderScore(phi_kappa(0.5, 1.0))
        # rounding only: every moment sum scales exactly
        assert verify_invariance(score, p, q, self.AMAP) < 1e-13


class TestScaleFunction:
    def test_gamma_zero(self):
        amap = AffineMap(sigma=np.diag([2.0, 3.0]), mu=np.zeros(2))
        assert scale_function(0.0, amap) == 1.0

    def test_direct_value(self):
        amap = AffineMap(sigma=np.diag([2.0, 3.0]), mu=np.zeros(2))
        assert scale_function(0.5, amap) == pytest.approx(6.0 ** -0.5, rel=1e-12)
        assert scale_function(0.5, amap) == pytest.approx(0.4082482905, rel=1e-9)

    def test_rotation_has_unit_scale(self):
        th = 0.7
        rot = AffineMap(sigma=np.array([[np.cos(th), -np.sin(th)],
                                        [np.sin(th), np.cos(th)]]), mu=np.zeros(2))
        assert scale_function(1.0, rot) == pytest.approx(1.0, rel=1e-12)

    def test_composition_multiplies(self):
        a = AffineMap(sigma=np.diag([2.0, 0.5]), mu=np.array([1.0, 2.0]))
        b = AffineMap(sigma=np.array([[1.0, 0.3], [0.0, 3.0]]), mu=np.zeros(2))
        gamma = 0.8
        assert scale_function(gamma, a.compose(b)) == pytest.approx(
            scale_function(gamma, a) * scale_function(gamma, b), rel=1e-12)


class TestVerifyInvariance:
    def test_identity_map_zero_residual(self):
        p, q = gauss_grid(0.0, 1.0), gauss_grid(0.8, 1.3)
        ident = AffineMap(sigma=np.eye(1), mu=np.zeros(1))
        score = HolderScore(phi_kappa(0.7, 1.3))
        assert verify_invariance(score, p, q, ident) < 1e-9

    def test_holder_gamma_one_scaling(self):
        p, q = gauss_grid(0.0, 1.0), gauss_grid(0.6, 1.4)
        amap = AffineMap(sigma=np.array([[2.0]]), mu=np.zeros(1))
        score = HolderScore(phi_kappa(1.0, 1.0))
        assert verify_invariance(score, p, q, amap) < 1e-5

    def test_kl_invariance(self):
        p, q = gauss_grid(0.0, 1.0), gauss_grid(0.6, 1.4)
        amap = AffineMap(sigma=np.array([[0.5]]), mu=np.array([1.0]))
        assert verify_invariance(KL(), p, q, amap) < 1e-5

    def test_2d_rotation(self):
        p = gauss2_grid([0.0, 0.3], [1.0, 1.4])
        q = gauss2_grid([0.5, -0.2], [1.2, 0.9])
        th = 0.5
        rot = AffineMap(sigma=np.array([[np.cos(th), -np.sin(th)],
                                        [np.sin(th), np.cos(th)]]),
                        mu=np.array([0.4, -0.3]))
        score = HolderScore(phi_kappa(0.5, 1.0))
        assert verify_invariance(score, p, q, rot) < 1e-5

    @pytest.mark.parametrize("score", [KL(), HolderScore(phi_kappa(0.5, 1.0))],
                             ids=lambda s: s.name)
    def test_non_gaussian_density_through_a_shear(self, score):
        # log p bends, which the spline resampler missed by 8.7e-5 (KL, past
        # the CLI's default tolerance 1e-5) and 4.2e-5 (holder) at 41^2
        def grid(c):
            return GridDensity.from_callable(
                lambda x: np.exp(-0.5 * np.sum((x - c) ** 2, axis=1)) * (1.2 + np.sin(2 * x[:, 0])),
                [-6.0] * 2, [6.0] * 2, 41).normalize()
        amap = AffineMap(sigma=np.array([[1.2, 0.3], [-0.4, 0.9]]), mu=np.array([0.2, -0.1]))
        assert verify_invariance(score, grid(0.3), grid(-0.2), amap) <= 1e-13

    def test_rounding_floor(self):
        # s_fg - s_ff of two densities equal to rounding is noise of order
        # eps |s|: a gap below 4 eps (|s_fg| + |s_ff| + h (|s_fg'| + |s_ff'|))
        # reads 0, and a larger one loses just that floor
        eps = np.finfo(float).eps
        raw = ScoreValue(s_fg=6.0 + 8 * eps, s_ff=6.0, divergence=8 * eps)
        mapped = ScoreValue(s_fg=5.0, s_ff=5.0, divergence=0.0)
        assert invariance_residual(raw, mapped, 1.0) == 0.0
        mapped = ScoreValue(s_fg=5.0 + 0.5, s_ff=5.0, divergence=0.5)
        raw = ScoreValue(s_fg=6.0 + 1.0, s_ff=6.0, divergence=1.0)
        assert invariance_residual(raw, mapped, 2.0) == 0.0
        assert invariance_residual(raw, mapped, 1.0) == pytest.approx(0.5 - 4 * eps * 34.5,
                                                                       rel=1e-15)

    def test_family_without_exact_law_rejected(self):
        p, q = gauss_grid(0.0, 1.0), gauss_grid(0.6, 1.4)
        amap = AffineMap(sigma=np.array([[2.0]]), mu=np.zeros(1))
        with pytest.raises(UnsupportedFamilyError):
            verify_invariance(Pseudospherical(0.5), p, q, amap)


class TestFitScaleExponent:
    def make_maps(self):
        return [AffineMap(sigma=np.array([[s]]), mu=np.array([m]))
                for s, m in ((0.5, 0.0), (1.5, 1.0), (2.0, -0.5), (3.0, 0.3))]

    def test_pseudospherical_exponent(self):
        # the pseudospherical divergence scales with exponent gamma/(1+gamma)
        gamma = 0.5
        p, q = gauss_grid(0.0, 1.0), gauss_grid(0.7, 1.3)
        report = fit_scale_exponent(Pseudospherical(gamma), p, q, self.make_maps())
        assert report.exponent == pytest.approx(gamma / (1 + gamma), abs=2e-5)
        assert report.spread < 1e-4

    def test_gamma_score_is_strictly_invariant(self):
        p, q = gauss_grid(0.0, 1.0), gauss_grid(0.7, 1.3)
        report = fit_scale_exponent(GammaScore(0.5), p, q, self.make_maps())
        assert abs(report.exponent) < 2e-5

    def test_bregman_holder_exponent(self):
        gamma, kappa = 0.5, 2.0
        p, q = gauss_grid(0.0, 1.0), gauss_grid(0.7, 1.3)
        report = fit_scale_exponent(BregmanHolder(gamma, kappa), p, q, self.make_maps())
        assert report.exponent == pytest.approx(gamma * kappa / (1 + gamma), abs=2e-5)


class TestArgminInvariance:
    def test_candidate_ranking_preserved(self):
        rng = np.random.default_rng(11)
        p = gauss_grid(0.2, 1.0)
        candidates = [gauss_grid(rng.uniform(-1.5, 1.5), rng.uniform(0.6, 1.8))
                      for _ in range(20)]
        score = HolderScore(phi_kappa(0.5, 1.0))
        amap = AffineMap(sigma=np.array([[2.5]]), mu=np.array([-1.0]))
        raw = [divergence(score, p, q).divergence for q in candidates]
        p_a = transform_density(p, amap)
        mapped = [divergence(score, p_a, transform_density(q, amap)).divergence
                  for q in candidates]
        assert int(np.argmin(raw)) == int(np.argmin(mapped))


class TestPopulationFitEquivariance:
    """The paper's equivariance on grids: the population fit on the pushed
    density is the pushed fit on the density itself."""

    CASES = [
        (make_parametric("gaussian-full-d", dim=2), [0.2, -0.1, 1.1, 0.3, 0.8],
         AffineMap(sigma=np.array([[1.2, 0.3], [-0.4, 0.9]]), mu=np.array([0.2, -0.1]))),
        (GAUSS, [0.3, 1.2], AffineMap(sigma=np.array([[-1.7]]), mu=np.array([0.6]))),
    ]

    @pytest.mark.parametrize("model, theta, amap", CASES, ids=["2d-full", "1d-reflection"])
    @pytest.mark.parametrize("score", [KL(), GammaScore(0.5), HolderScore(phi_kappa(0.5, 1.0))],
                             ids=lambda s: s.name)
    def test_fit_on_the_pushed_density_is_the_pushed_fit(self, model, theta, amap, score):
        # p lies outside the family, so the fit lands away from theta; the
        # resampled 2-d density missed the pushed fit by 8.5e-6
        theta = np.array(theta)
        p = render_density(model, theta)
        tilt = 1.2 + np.sin(2.0 * p.points()[:, 0])
        p = p.with_values(p.values * tilt.reshape(p.values.shape)).normalize()
        fit_raw = population_fit(score, model, p, FitConfig(init_theta=theta))
        fit_mapped = population_fit(score, model, transform_density(p, amap), FitConfig(
            init_theta=model.push_params(theta, amap.sigma, amap.mu)))
        assert fit_raw.converged and fit_mapped.converged
        assert np.max(np.abs(fit_raw.theta_hat - theta)) > 0.1
        pushed = model.push_params(fit_raw.theta_hat, amap.sigma, amap.mu)
        assert np.max(np.abs(pushed - fit_mapped.theta_hat)) <= 1e-10


class TestEstimatorEquivariance:
    def test_identity_map_gives_zero_discrepancy(self):
        sample = draw_sample(GAUSS, [0.0, 1.0], 400, seed=3)
        ident = AffineMap(sigma=np.eye(1), mu=np.zeros(1))
        cfg = FitConfig(init_theta=[0.1, 0.9], step_tol=1e-9, polish=True)
        report = verify_estimator_equivariance(
            HolderScore(phi_kappa(0.5, 1.0)), GAUSS, sample, ident, cfg)
        assert report.passed
        assert report.discrepancy < 1e-12

    def test_gamma_score_affine_pair_of_fits(self):
        sample = draw_sample(GAUSS, [0.0, 1.0], 2000, seed=4)
        amap = AffineMap(sigma=np.array([[3.0]]), mu=np.array([-2.0]))
        cfg = FitConfig(init_theta=[0.1, 0.9], step_tol=1e-9, polish=True)
        report = verify_estimator_equivariance(
            HolderScore(phi_kappa(0.5, 1.0)), GAUSS, sample, amap, cfg)
        assert report.converged_raw and report.converged_transformed
        assert report.discrepancy < 1e-4

    def test_full_gaussian_2d_equivariance(self):
        model = make_parametric("gaussian-full-d", dim=2)
        theta_star = np.array([0.2, -0.1, 1.1, 0.3, 0.8])
        sample = draw_sample(model, theta_star, 600, seed=6)
        th = 0.4
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        amap = AffineMap(sigma=rot @ np.diag([1.8, 0.7]), mu=np.array([0.5, -0.5]))
        cfg = FitConfig(init_theta=theta_star, step_tol=1e-6, polish=True)
        report = verify_estimator_equivariance(
            HolderScore(phi_kappa(0.5, 1.0)), model, sample, amap, cfg)
        assert report.discrepancy < 1e-3

    def test_fixed_scale_family_rejects_a_rescaling(self):
        # gaussian-mean holds its scale fixed, so a map with |sigma| != 1 leads
        # out of the family; it raises rather than reporting a false FAIL
        model = make_parametric("gaussian-mean")
        sample = draw_sample(model, [0.3], 400, seed=3)
        cfg = FitConfig(init_theta=[0.1], step_tol=1e-9)
        score = HolderScore(phi_kappa(0.5, 1.0))
        with pytest.raises(DomainError, match=r"\|sigma\| = 1"):
            verify_estimator_equivariance(
                score, model, sample, AffineMap(sigma=np.array([[2.0]]), mu=np.array([0.5])), cfg)
        for sign in (1.0, -1.0):
            report = verify_estimator_equivariance(
                score, model, sample, AffineMap(sigma=np.array([[sign]]), mu=np.array([0.5])), cfg)
            assert report.passed
            assert report.discrepancy < 1e-12

    def test_report_prints_verdict_discrepancy_and_tolerance(self):
        model = make_parametric("gaussian-mean")
        sample = draw_sample(model, [0.3], 400, seed=3)
        cfg = FitConfig(init_theta=[0.1], step_tol=1e-9)
        report = verify_estimator_equivariance(
            HolderScore(phi_kappa(0.5, 1.0)), model, sample,
            AffineMap(sigma=np.array([[1.0]]), mu=np.array([0.5])), cfg)
        text = str(report)
        assert text.startswith("PASS: |push(theta_raw) - theta_transformed| = ")
        assert text.endswith(" (tolerance 1.0e-08)")
        assert str(replace(report, discrepancy=0.5, passed=False)) == \
            "FAIL: |push(theta_raw) - theta_transformed| = 5.000e-01 (tolerance 1.0e-08)"

    def test_mle_closed_form_equivariance_is_exact(self):
        # sample mean/sd transform exactly under x -> (x - mu)/sigma
        pts = draw_sample(GAUSS, [0.4, 1.3], 500, seed=5).points[:, 0]
        sigma, mu = 3.0, -2.0
        mapped = (pts - mu) / sigma
        mle_raw = np.array([pts.mean(), pts.std()])
        mle_mapped = np.array([mapped.mean(), mapped.std()])
        pushed = np.array([(mle_raw[0] - mu) / sigma, mle_raw[1] / sigma])
        assert np.max(np.abs(pushed - mle_mapped)) < 1e-12
