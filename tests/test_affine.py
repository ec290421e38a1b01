import numpy as np
import pytest

from holderscores import (AffineMap, DomainError, FitConfig, GammaScore,
                          GridDensity, HolderScore, KL, Pseudospherical,
                          BregmanHolder, UnsupportedFamilyError, divergence,
                          draw_sample, fit_scale_exponent, integrate,
                          make_parametric, phi_kappa,
                          render_density, scale_function, transform_density,
                          verify_estimator_equivariance, verify_invariance)

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

    def test_config_parsing(self):
        amap = AffineMap.from_config("sigma=2,0,0,3; mu=1,1")
        assert amap.det_sigma == pytest.approx(6.0)


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
        target = render_density(GAUSS, [0.0, 0.5], lo=q.domain_lo, hi=q.domain_hi,
                                points_per_axis=q.points_per_axis)
        assert np.max(np.abs(q.values - target.values)) < 1e-6
        assert integrate(q) == pytest.approx(integrate(p), abs=1e-8)

    def test_2d_mass_and_peak(self):
        p = gauss2_grid([0.0, 0.0], [1.0, 1.0], lo=-10, hi=10, n=281)
        amap = AffineMap(sigma=np.diag([2.0, 3.0]), mu=np.array([1.0, 1.0]))
        q = transform_density(p, amap)
        assert integrate(q) == pytest.approx(1.0, abs=1e-6)
        assert q.values.max() == pytest.approx(6.0 / (2 * np.pi), rel=1e-4)

    def test_round_trip_through_inverse(self):
        p = gauss_grid(0.5, 1.2)
        amap = AffineMap(sigma=np.array([[1.7]]), mu=np.array([0.6]))
        back = transform_density(transform_density(p, amap), amap.inverse())
        pb = back.evaluate(p.points()[::7])
        pv = p.values.ravel()[::7]
        assert np.max(np.abs(pb - pv)) < 1e-6


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

    def test_mle_closed_form_equivariance_is_exact(self):
        # sample mean/sd transform exactly under x -> (x - mu)/sigma
        pts = draw_sample(GAUSS, [0.4, 1.3], 500, seed=5).points[:, 0]
        sigma, mu = 3.0, -2.0
        mapped = (pts - mu) / sigma
        mle_raw = np.array([pts.mean(), pts.std()])
        mle_mapped = np.array([mapped.mean(), mapped.std()])
        pushed = np.array([(mle_raw[0] - mu) / sigma, mle_raw[1] / sigma])
        assert np.max(np.abs(pushed - mle_mapped)) < 1e-12
