import gc
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from holderscores import (KL, ConfigError, DomainError, FitConfig, GammaScore, HolderScore,
                          Sample, StructuralError, contaminate, draw_contaminated_sample,
                          draw_sample, fit, integrate, make_parametric, phi_cubic_tail,
                          phi_kappa, read_samples, render_density, rng_for, write_samples)
from holderscores import models
from holderscores.models import check_points
from holderscores.scores import _log_and_gradient_rows

ALL_KINDS = [
    ("gaussian-mean", {}, np.array([0.3])),
    ("gaussian-mean-scale", {}, np.array([-0.4, 1.3])),
    ("gaussian-full-d", {"dim": 2}, np.array([0.2, -0.1, 1.1, 0.3, 0.8])),
    ("gaussian-mixture-fixed-weights", {}, np.array([-1.5, 0.8, 1.2, 1.1])),
    ("exponential-rate", {}, np.array([1.4])),
]


def fd_score(model, theta, x, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    out = np.empty((np.atleast_2d(x).shape[0] if model.dim > 1 else np.atleast_1d(x).size,
                    model.param_dim))
    for i in range(model.param_dim):
        step = h * max(1.0, abs(theta[i]))
        e = np.zeros_like(theta)
        e[i] = step
        out[:, i] = (model.log_density(theta + e, x)
                     - model.log_density(theta - e, x)) / (2 * step)
    return out


@pytest.mark.parametrize("kind,hyper,theta", ALL_KINDS)
def test_score_matches_finite_differences(kind, hyper, theta):
    model = make_parametric(kind, **hyper)
    rng = np.random.default_rng(3)
    x = model.sampler(theta, 40, rng)
    analytic = model.score(theta, x)
    numeric = fd_score(model, theta, x)
    scale = np.maximum(np.abs(analytic), 1.0)
    assert np.max(np.abs(analytic - numeric) / scale) < 1e-5


@pytest.mark.parametrize("kind,hyper,theta", ALL_KINDS)
def test_density_integrates_to_one(kind, hyper, theta):
    model = make_parametric(kind, **hyper)
    g = render_density(model, theta)
    tol = 1e-8 if model.dim == 1 else 1e-6
    assert abs(integrate(g) - 1.0) < tol


@pytest.mark.parametrize("kind,hyper,theta", ALL_KINDS)
def test_sampler_reproducible(kind, hyper, theta):
    model = make_parametric(kind, **hyper)
    a = draw_sample(model, theta, 50, seed=11).points
    b = draw_sample(model, theta, 50, seed=11).points
    c = draw_sample(model, theta, 50, seed=12).points
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_full_log_density_matches_scipy(d):
    from scipy.stats import multivariate_normal
    rng = np.random.default_rng(40 + d)
    model = make_parametric("gaussian-full-d", dim=d)
    L = np.tril(0.4 * rng.standard_normal((d, d)))
    L[np.diag_indices(d)] = rng.uniform(0.5, 1.5, d)
    mean = rng.standard_normal(d)
    theta = np.concatenate([mean, L[np.tril_indices(d)]])
    x = 3.0 * rng.standard_normal((500, d))
    ref = multivariate_normal(mean, L @ L.T).logpdf(x).reshape(-1)
    for pts in (np.ascontiguousarray(x), np.asfortranarray(x)):
        got = model.log_density(theta, pts)
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-12


@pytest.mark.parametrize("kind,hyper,theta", ALL_KINDS)
def test_density_is_exp_of_log_density(kind, hyper, theta):
    model = make_parametric(kind, **hyper)
    x = np.concatenate([model.sampler(theta, 30, np.random.default_rng(5)),
                        np.full((1, model.dim), -60.0)])   # underflows to 0
    assert np.array_equal(model.density(theta, x), np.exp(model.log_density(theta, x)))


def test_density_follows_a_replaced_log_density():
    model = make_parametric("gaussian-mean")
    shifted = replace(model, log_density=lambda th, x: model.log_density(th, x) - 1.0)
    x = np.array([0.0, 1.0])
    assert np.array_equal(shifted.density([0.0], x), np.exp(model.log_density([0.0], x) - 1.0))


_THETA_CALLS = {
    "log_density": lambda model, th, x: model.log_density(th, x),
    "score": lambda model, th, x: model.score(th, x),
    "sampler": lambda model, th, x: model.sampler(th, 3, rng_for(1)),
    "power_moment": lambda model, th, x: model.power_moment(th, 1.5),
}


# every family but the mixture, which has no closed-form power moment
@pytest.mark.parametrize("kind,hyper,theta,method", [
    (kind, hyper, theta, method) for kind, hyper, theta in ALL_KINDS for method in _THETA_CALLS
    if not (method == "power_moment" and kind == "gaussian-mixture-fixed-weights")])
def test_wrong_parameter_length_raises(kind, hyper, theta, method):
    model = make_parametric(kind, **hyper)
    x = model.sampler(theta, 3, rng_for(1))
    call = lambda th: _THETA_CALLS[method](model, th, x)   # noqa: E731
    call(theta)
    for bad in (np.append(theta, 9.0), theta[:-1]):
        with pytest.raises(StructuralError):
            call(bad)


def test_mixture_log_density_finite_where_density_underflows():
    from scipy.stats import norm
    model = make_parametric("gaussian-mixture-fixed-weights")
    theta = np.array([-1.4, 0.8, 1.4, 1.0])
    x = np.array([-3.0, 0.5, 4.0])
    ref = np.log(0.5 * norm.pdf(x, -1.4, 0.8) + 0.5 * norm.pdf(x, 1.4, 1.0))
    assert np.allclose(model.log_density(theta, x), ref, rtol=1e-13, atol=0)
    # at x = 60 both components underflow; the far one is negligible in log space
    far = model.log_density(theta, np.array([60.0]))[0]
    assert model.density(theta, np.array([60.0]))[0] == 0.0
    expect = np.log(0.5 / np.sqrt(2 * np.pi)) - 0.5 * (60.0 - 1.4) ** 2
    assert far == pytest.approx(expect, rel=1e-14)


def test_mixture_score_finite_where_density_underflows():
    # at x = 40 the mixture density underflows; the responsibilities come
    # from the log-components, so the far component takes all of the score
    model = make_parametric("gaussian-mixture-fixed-weights")
    theta = np.array([-1.4, 0.8, 1.4, 1.0])
    assert model.density(theta, np.array([40.0]))[0] == 0.0
    got = model.score(theta, np.array([40.0]))[0]
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got[:2])) < 1e-200
    assert got[2] == pytest.approx(38.6, rel=1e-13)
    assert got[3] == pytest.approx(38.6 ** 2 - 1.0, rel=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_full_score_columns(d):
    # column-wise against the matrix formula: d/dm = Sigma^-1 (x - m),
    # d/dL = L^-T (y y^T - I) with y = L^-1 (x - m), in vech order
    rng = np.random.default_rng(50 + d)
    model = make_parametric("gaussian-full-d", dim=d)
    L = np.tril(0.4 * rng.standard_normal((d, d)))
    L[np.diag_indices(d)] = rng.uniform(0.5, 1.5, d)
    mean = rng.standard_normal(d)
    theta = np.concatenate([mean, L[np.tril_indices(d)]])
    x = 3.0 * rng.standard_normal((200, d))
    y = np.linalg.solve(L, (x - mean).T).T
    g_mean = np.linalg.solve(L @ L.T, (x - mean).T).T
    g_L = np.einsum("ik,nkj->nij", np.linalg.inv(L).T,
                    np.einsum("ni,nj->nij", y, y) - np.eye(d))
    want = np.concatenate([g_mean, g_L[(slice(None),) + np.tril_indices(d)]], axis=1)
    got = model.score(theta, x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def _box_power(model, theta, a):
    """<g^a> and its theta-gradient summed over the model's rendered box, with
    a scale for the gradient: a <g^a |s|>."""
    f = render_density(model, theta)
    t = f.weights.ravel() * np.exp(a * model.log_density(theta, f.points()))
    s = model.score(theta, f.points()).T
    return t.sum(), a * (s @ t), a * (np.abs(s) @ t)


def _random_chol_theta(d, seed):
    rng = np.random.default_rng(seed)
    L = np.tril(0.4 * rng.standard_normal((d, d)))
    L[np.diag_indices(d)] = rng.uniform(0.6, 1.4, d)
    return np.concatenate([rng.standard_normal(d), L[np.tril_indices(d)]])


GAUSSIAN_KINDS = [
    ("gaussian-mean", {}, np.array([0.3])),
    ("gaussian-mean", {"scale": 0.7}, np.array([-0.2])),
    ("gaussian-mean-scale", {}, np.array([-0.4, 1.3])),
    ("gaussian-full-d", {"dim": 1}, np.array([0.2, 0.9])),
    ("gaussian-full-d", {"dim": 2}, np.array([0.2, -0.1, 1.1, 0.3, 0.8])),
    ("gaussian-full-d", {"dim": 3}, _random_chol_theta(3, 8)),
]


class TestPowerMoment:
    @pytest.mark.parametrize("a", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("kind,hyper,theta", GAUSSIAN_KINDS,
                             ids=["mean", "mean-scale0.7", "mean-scale", "full-1",
                                  "full-2", "full-3"])
    def test_gaussian_closed_form_matches_quadrature(self, kind, hyper, theta, a):
        model = make_parametric(kind, **hyper)
        power, grad, _ = model.power_moment(theta, a)
        box_power, box_grad, scale = _box_power(model, theta, a)
        assert power == pytest.approx(box_power, rel=1e-12)
        assert grad.shape == (model.param_dim,)
        assert np.all(np.abs(grad - box_grad) <= 1e-12 * scale)

    @pytest.mark.parametrize("a", [1.0, 1.5, 3.0])
    def test_exponential_closed_form(self, a):
        model = make_parametric("exponential-rate")
        power, grad, hess = model.power_moment([1.4], a)
        assert power == pytest.approx(1.4 ** (a - 1) / a, rel=1e-14)
        assert grad[0] == pytest.approx((a - 1) * 1.4 ** (a - 2) / a, rel=1e-14, abs=0)
        assert hess[0, 0] == pytest.approx((a - 1) * (a - 2) * 1.4 ** (a - 3) / a,
                                           rel=1e-14, abs=0)

    def test_mixture_has_no_closed_form(self):
        assert make_parametric("gaussian-mixture-fixed-weights").power_moment is None


class TestFamilyFormulas:
    def test_gaussian_mean_scale_score(self):
        model = make_parametric("gaussian-mean-scale")
        m, s = 0.5, 2.0
        x = np.array([1.7])
        vec = model.score(np.array([m, s]), x)[0]
        assert vec[0] == pytest.approx((1.7 - m) / s ** 2, rel=1e-12)
        assert vec[1] == pytest.approx((1.7 - m) ** 2 / s ** 3 - 1 / s, rel=1e-12)

    def test_exponential_score(self):
        model = make_parametric("exponential-rate")
        lam = 0.7
        x = np.array([2.0])
        assert model.score(np.array([lam]), x)[0, 0] == pytest.approx(1 / lam - 2.0, rel=1e-12)
        with pytest.raises(DomainError):
            model.score(np.array([lam]), np.array([-1.0]))

    def test_gaussian_full_2d_has_five_parameters(self):
        model = make_parametric("gaussian-full-d", dim=2)
        assert model.param_dim == 5
        assert model.dim == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_parametric("lognormal")

    def test_full_push_params_round_trip(self):
        model = make_parametric("gaussian-full-d", dim=2)
        theta = np.array([0.2, -0.1, 1.1, 0.3, 0.8])
        sigma = np.array([[2.0, 0.3], [0.0, 1.5]])
        mu = np.array([1.0, -1.0])
        pushed = model.push_params(theta, sigma, mu)
        # push with the inverse map undoes the first push
        inv = np.linalg.inv(sigma)
        back = model.push_params(pushed, inv, -inv @ mu)
        assert np.allclose(back, theta, atol=1e-12)

    @pytest.mark.parametrize("sigma", [1.7, -0.6])
    def test_mixture_push_params_is_the_pushed_density(self, sigma):
        # y = (x - mu) / sigma has density p(x) |sigma| at y
        model = make_parametric("gaussian-mixture-fixed-weights")
        theta = np.array([-1.0, 0.8, 1.5, 1.2])
        mu = 0.4
        x = np.linspace(-5.0, 6.0, 23)
        pushed = model.push_params(theta, [[sigma]], [mu])
        assert np.allclose(model.log_density(pushed, (x - mu) / sigma),
                           model.log_density(theta, x) + np.log(abs(sigma)),
                           rtol=0, atol=1e-13)


class TestContaminate:
    def test_eps_zero_is_plain_rendering(self):
        model = make_parametric("gaussian-mean-scale")
        theta = np.array([0.0, 1.0])
        base = contaminate(model, theta, 0.0, z=1.0)
        direct = render_density(model, theta, lo=base.domain_lo,
                                hi=base.domain_hi,
                                points_per_axis=base.points_per_axis)
        assert np.array_equal(base.values, direct.values)

    @pytest.mark.parametrize("kind,hyper,theta,z", [
        ("gaussian-mean", {}, [0.3], -12.0),
        ("gaussian-mean", {}, [0.3], 1.7),
        ("gaussian-mean", {}, [0.3], 10.0),
        ("gaussian-mean-scale", {}, [0.1, 1.2], -11.0),
        ("gaussian-mean-scale", {}, [0.1, 1.2], -2.3),
        ("gaussian-mean-scale", {}, [0.1, 1.2], 12.5),
        ("gaussian-full-d", {"dim": 2}, [0.2, -0.1, 1.1, 0.3, 0.8], [6.0, -7.0])],
        ids=["mean-left", "mean-inside", "mean-right", "mean-scale-left",
             "mean-scale-inside", "mean-scale-right", "full-d-2"])
    def test_point_mass_on_a_node(self, kind, hyper, theta, z):
        # z is a lattice node whose quadrature weight carries exactly eps, on
        # a box holding the model's and z +- margin, in cells no wider than
        # the model's own
        model = make_parametric(kind, **hyper)
        theta, z, eps = np.asarray(theta), np.atleast_1d(z), 0.1
        f = contaminate(model, theta, eps, z)
        nodes = f.points()
        i = int(np.argmin(np.max(np.abs(nodes - z), axis=1)))
        scale = np.maximum(np.abs(f.domain_lo), np.abs(f.domain_hi))
        assert np.all(np.abs(nodes[i] - z) <= 4 * np.spacing(scale))
        w = f.weights.ravel()[i]
        p_z = model.density(theta, z.reshape(1, -1))[0]
        assert f.values.ravel()[i] * w - (1.0 - eps) * p_z * w == pytest.approx(eps, rel=1e-13)
        blo, bhi = model.support(theta)
        margin = (bhi - blo) / 16.0
        slack = 1e-12 * (f.domain_hi - f.domain_lo)
        assert np.all(f.domain_lo <= np.minimum(blo, z - margin) + slack)
        assert np.all(f.domain_hi >= np.maximum(bhi, z + margin) - slack)
        own = (bhi - blo) / (model.quad_points - 1)
        assert np.all(f.cell_widths() <= own * (1.0 + 1e-12))

    def test_mixture_mass_near_far_point(self):
        model = make_parametric("gaussian-mean-scale")
        theta = np.array([0.0, 1.0])
        eps = 0.1
        f = contaminate(model, theta, eps, z=10.0)
        assert abs(integrate(f) - 1.0) < 1e-7
        # the bump carries eps of the mass, concentrated next to z
        x = f.points()[:, 0]
        near = np.abs(x - 10.0) < 0.5
        mass_near = float(np.sum((f.values * f.weights)[near.reshape(f.values.shape)]))
        assert mass_near == pytest.approx(eps, abs=1e-6)

    def test_eps_range_validated(self):
        model = make_parametric("gaussian-mean-scale")
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                contaminate(model, np.array([0.0, 1.0]), bad, z=1.0)

    def test_z_outside_hard_support_rejected(self):
        model = make_parametric("exponential-rate")
        with pytest.raises(DomainError):
            contaminate(model, np.array([1.0]), 0.1, z=-2.0)

    def test_drawn_sample_checks_z_as_contaminate_does(self):
        # a point mass outside the support made every candidate +inf
        expo = make_parametric("exponential-rate")
        with pytest.raises(DomainError, match="outside the model support"):
            draw_contaminated_sample(expo, [1.0], 0.1, -1.0, 200, seed=0)
        with pytest.raises(StructuralError, match="wrong dimension"):
            draw_contaminated_sample(expo, [1.0], 0.1, [1.0, 2.0], 200, seed=0)
        with pytest.raises(DomainError, match="0 <= eps < 1"):
            draw_contaminated_sample(expo, [1.0], 1.0, 1.0, 200, seed=0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind, hyper, theta", [
        ("gaussian-mean-scale", {}, [0.0, 1.0]), ("gaussian-full-d", {"dim": 2}, [0, 0, 1, 0, 1]),
        ("exponential-rate", {}, [1.0])])
    def test_non_finite_z_rejected(self, z, kind, hyper, theta):
        # nan warned in a cast and then failed on the lattice's node count
        model = make_parametric(kind, **hyper)
        zs = np.full(model.dim, 1.0)
        zs[-1] = z
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: contaminate(model, theta, 0.1, zs),
                         lambda: draw_contaminated_sample(model, theta, 0.1, zs, 50, seed=0),
                         lambda: check_points(model, zs.reshape(1, -1))):
                with pytest.raises(DomainError, match="contamination point must be finite"):
                    call()


class TestSample:
    def test_requires_points(self):
        with pytest.raises(StructuralError):
            Sample(points=np.empty((0, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_covariates_must_be_finite(self, bad):
        # a regression on them blamed its start theta, and inf also warned
        with pytest.raises(DomainError, match="covariates must be finite"):
            Sample(points=np.zeros(3), covariates=np.array([[0.5, 1.0], [bad, 2.0], [0.0, 1.0]]))

    def test_csv_round_trip_plain(self, tmp_path):
        s = Sample(points=np.array([0.25, -1.5, 3.125]))
        path = tmp_path / "s.csv"
        write_samples(s, path)
        assert path.read_text().splitlines()[0] == "y"
        t = read_samples(path)
        assert np.array_equal(s.points, t.points)
        assert t.covariates is None

    def test_csv_round_trip_covariates(self, tmp_path):
        s = Sample(points=np.array([1.0, 2.0]),
                   covariates=np.array([[0.5, 1.5], [-0.25, 0.75]]))
        path = tmp_path / "sx.csv"
        write_samples(s, path)
        assert path.read_text().splitlines()[0] == "x1,x2,y"
        t = read_samples(path)
        assert np.array_equal(s.points, t.points)
        assert np.array_equal(s.covariates, t.covariates)

    @pytest.mark.parametrize("text", ["x1,y\n0.5,1.0\n0.25,abc\n", "x1,y\n0.5,1.0\n0.25\n",
                                      "y\n1.0\n2.0,3.0\n"],
                             ids=["not-a-number", "short-row", "long-row"])
    def test_csv_bad_rows_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(StructuralError):
            read_samples(path)


class TestSampleFrame:
    """The frame and monomials a Sample caches on first use, which the
    Gaussians' moments at sample points read."""

    FAMILIES = [KL(), GammaScore(0.5), HolderScore(phi_kappa(0.5, 1.5))]

    def test_monomials_are_those_of_the_whitened_points(self):
        model = make_parametric("gaussian-full-d", dim=3)
        theta = [0.081, 0.261, 0.453, 1.373, 1.027, 0.943, -0.191, 0.722, 0.178]
        sample = draw_sample(model, theta, 400, seed=5)
        center, lift = sample.monomial_lift
        rows = sample.monomials
        sigma, w = lift[1:4, 1:4], rows[1:4]
        low, high = np.tril_indices(3)
        assert np.max(np.abs(center - sample.points.mean(axis=0))) <= 1e-15
        # sigma is the Cholesky factor of the covariance, so w is white
        assert np.array_equal(sigma, np.tril(sigma))
        assert np.max(np.abs(w @ w.T / sample.n - np.eye(3))) <= 1e-12
        assert np.max(np.abs((sigma @ w).T + center - sample.points)) <= 1e-13
        assert np.array_equal(rows[0], np.ones(sample.n))
        assert np.array_equal(rows[4:], w[low] * w[high])
        # the lift carries q(w) to q(u), u = x - c = sigma w
        u = (sample.points - center).T
        q_u = np.vstack([np.ones(sample.n), u, u[low] * u[high]])
        assert np.max(np.abs(lift @ rows - q_u)) <= 1e-12 * np.max(np.abs(q_u))

    def test_cached_arrays_are_read_only(self):
        model = make_parametric("gaussian-full-d", dim=2)
        theta = np.array([0.2, -0.1, 1.1, 0.3, 0.8])
        sample = draw_sample(model, theta, 100, seed=2)
        GammaScore(0.5).empirical_with_hessian(sample, (model, theta))
        for arr in (sample.points, *sample.monomial_lift, sample.monomials):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_points_are_the_sample_own(self):
        # a write to the caller's array would leave the cached monomials stale
        pts = np.array([0.1, 0.5, -0.3])
        sample = Sample(points=pts)
        pts[0] = 9.0
        assert sample.points[0, 0] == 0.1 and pts.flags.writeable

    def test_sample_dies_with_its_last_reference(self):
        # the frame and rows it caches refer to nothing that refers back to
        # it, so no cycle collection is needed to free it
        model = make_parametric("gaussian-full-d", dim=2)
        theta = np.array([0.2, -0.1, 1.1, 0.3, 0.8])
        sample = draw_sample(model, theta, 100, seed=2)
        alive = weakref.ref(sample)
        gc.disable()
        try:
            GammaScore(0.5).empirical_with_hessian(sample, (model, 1.05 * theta))
            assert "monomials" in vars(sample)
            del sample
            assert alive() is None
        finally:
            gc.enable()

    def test_a_second_fit_builds_nothing_again(self, monkeypatch):
        # the mc-empirical benchmark fits both shape functions to one sample
        lifts = []

        def counted(sigma):
            lifts.append(sigma)
            return lift(sigma)
        lift = models._monomial_lift
        monkeypatch.setattr(models, "_monomial_lift", counted)
        model = make_parametric("gaussian-mean-scale")
        sample = draw_sample(model, [0.0, 1.0], 2000, seed=401)
        cfg = FitConfig(init_theta=[0.0, 1.0], step_tol=1e-7, grad_tol=1e-2)
        assert fit(HolderScore(phi_kappa(0.5, 1.0)), model, sample, cfg).converged
        rows = sample.monomials
        assert fit(HolderScore(phi_cubic_tail(0.5, 0.5)), model, sample, cfg).converged
        assert len(lifts) == 1 and vars(sample)["monomials"] is rows

    @pytest.mark.parametrize("kind,theta,points", [
        ("gaussian-mean-scale", [0.1, 1.2], [0.3]),
        ("gaussian-mean-scale", [0.1, 1.2], np.full(40, 0.7)),
        # equal points whose mean rounds off them
        ("gaussian-mean-scale", [0.1, 1.2], [0.1, 0.1, 0.1]),
        ("gaussian-full-d", [0.2, -0.1, 1.1, 0.3, 0.8], [[0.3, -0.2]]),
        ("gaussian-full-d", [0.2, -0.1, 1.1, 0.3, 0.8], np.full((30, 2), [0.5, -1.0])),
        # collinear: the Cholesky factorization fails, or its last pivot is
        # rounding noise
        ("gaussian-full-d", [0.2, -0.1, 1.1, 0.3, 0.8],
         np.column_stack([np.linspace(-1, 1, 20), 0.5 + 0.3 * np.linspace(-1, 1, 20)])),
        ("gaussian-full-d", [0.2, -0.1, 1.1, 0.3, 0.8],
         np.column_stack([np.linspace(-1, 1, 50), 0.5 - 0.3 * np.linspace(-1, 1, 50)])),
    ], ids=["one", "equal", "equal-rounded", "one-2d", "equal-2d", "collinear-2d",
            "collinear-2d-pivot"])
    def test_degenerate_samples_evaluate_as_the_score_columns(self, kind, theta, points):
        # without a Cholesky factor each axis is scaled by its largest
        # distance from the mean
        model = make_parametric(kind, **({"dim": 2} if kind == "gaussian-full-d" else {}))
        whitened = replace(model, log_quadratic=None)
        sample = Sample(points=points)
        for score in self.FAMILIES:
            got = score.empirical_with_hessian(sample, (model, theta))
            ref = score.empirical_with_hessian(sample, (whitened, theta))
            assert got[0] == pytest.approx(ref[0], rel=1e-12)
            for a, b in zip(got[1:], ref[1:]):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        assert np.all(np.isfinite(sample.monomials))

    @pytest.mark.parametrize("points", [
        [1e160, -1e160, 0.0],
        [[1e160, 0.0], [-1e160, 0.0], [0.0, 1e160], [0.0, -1e160], [0.0, 0.0]],
    ], ids=["1d", "2d"])
    def test_a_spread_that_overflows_the_covariance_keeps_a_finite_value(self, points):
        # the covariance of a spread near 1e160 overflows, and the lift of
        # its largest distances from the mean would; nothing warns
        sample = Sample(points=points)
        d = sample.dim
        model = make_parametric("gaussian-full-d", dim=d)
        whitened = replace(model, log_quadratic=None)
        theta = np.concatenate([np.zeros(d), 1e150 * np.eye(d)[np.tril_indices(d)]])
        assert np.all(np.isfinite(sample.monomial_lift[1]))
        for score in self.FAMILIES:
            value = score.empirical(sample, (model, theta))
            assert math.isfinite(value)
            assert value == pytest.approx(score.empirical(sample, (whitened, theta)), rel=1e-12)


class TestMakeParametric:
    def test_hyper_parameter_the_kind_does_not_take_rejected(self):
        with pytest.raises(ConfigError, match="'dim'"):
            make_parametric("gaussian-mean-scale", dim=2)
        with pytest.raises(ConfigError, match="'scale'"):
            make_parametric("gaussian-full-d", dim=2, scale=1.0)

    def test_undocumented_alias_removed(self):
        with pytest.raises(ConfigError):
            make_parametric("gaussian-full")


class TestOneGaussianFamily:
    """gaussian-mean-scale is gaussian-full-d at d = 1, and gaussian-mean is
    gaussian-mean-scale with the scale held fixed."""

    @pytest.mark.parametrize("kind,hyper,theta", ALL_KINDS)
    def test_model_is_named_by_its_kind(self, kind, hyper, theta):
        assert make_parametric(kind, **hyper).name == kind

    def test_shared_code_names_no_other_family(self):
        x = np.array([0.0, 1.0])
        with pytest.raises(StructuralError, match=r"^Gaussian d=1 expects 2 parameters, got 3$"):
            make_parametric("gaussian-mean-scale").log_density([0.0, 1.0, 2.0], x)
        with pytest.raises(StructuralError, match=r"^gaussian-mean expects 1 parameters, got 2$"):
            make_parametric("gaussian-mean").score([0.0, 1.0], x)

    def test_mean_scale_is_full_at_d1(self):
        ms, full = make_parametric("gaussian-mean-scale"), make_parametric("gaussian-full-d", dim=1)
        theta = np.array([-0.4, 1.3])
        x = 3.0 * np.random.default_rng(2).standard_normal(300)
        assert ms.theta_names == ("mean", "scale")
        assert np.array_equal(ms.log_density(theta, x), full.log_density(theta, x))
        assert np.array_equal(ms.score(theta, x), full.score(theta, x))
        for a in (1.0, 1.5, 3.0):
            (p_ms, g_ms, h_ms), (p_full, g_full, h_full) = \
                ms.power_moment(theta, a), full.power_moment(theta, a)
            assert p_ms == p_full and np.array_equal(g_ms, g_full)
            assert np.array_equal(h_ms, h_full)
        assert np.array_equal(ms.sampler(theta, 50, rng_for(4)), full.sampler(theta, 50, rng_for(4)))
        assert np.array_equal(np.concatenate(ms.support(theta)), np.concatenate(full.support(theta)))
        for sigma in (2.5, -0.5):
            assert np.array_equal(ms.push_params(theta, [[sigma]], [0.7]),
                                  full.push_params(theta, [[sigma]], [0.7]))

    @pytest.mark.parametrize("scale", [1.0, 0.7, 2.5])
    def test_mean_is_mean_scale_at_a_fixed_scale(self, scale):
        mean, ms = make_parametric("gaussian-mean", scale=scale), make_parametric("gaussian-mean-scale")
        m = 0.3
        x = 3.0 * np.random.default_rng(3).standard_normal(300)
        assert np.array_equal(mean.log_density([m], x), ms.log_density([m, scale], x))
        assert np.array_equal(mean.score([m], x), ms.score([m, scale], x)[:, :1])
        for a in (1.0, 1.5, 3.0):
            power, grad, hess = mean.power_moment([m], a)
            assert power == ms.power_moment([m, scale], a)[0]
            assert np.array_equal(grad, np.zeros(1)) and np.array_equal(hess, np.zeros((1, 1)))
        assert np.array_equal(mean.sampler([m], 20, rng_for(5)), ms.sampler([m, scale], 20, rng_for(5)))


@pytest.mark.parametrize("kind,hyper", [
    ("gaussian-mean-scale", {}), ("gaussian-full-d", {"dim": 1}),
    ("gaussian-full-d", {"dim": 2}), ("gaussian-full-d", {"dim": 3})])
def test_bad_cholesky_factor_raises(kind, hyper):
    # a zero, negative, inf or NaN diagonal entry of L (for gaussian-mean-scale
    # the scale), or a NaN or inf off-diagonal one
    model = make_parametric(kind, **hyper)
    d = model.dim
    good = _random_chol_theta(d, 20 + d)
    x = np.zeros((4, d))
    for c, (i, j) in enumerate(zip(*np.tril_indices(d))):
        for bad in (0.0, -0.5, np.inf, np.nan) if i == j else (np.nan, np.inf, -np.inf):
            theta = good.copy()
            theta[d + c] = bad
            for call in [*_THETA_CALLS.values(),
                         lambda model, th, x: model.log_quadratic(th, x[0])]:
                call(model, good, x)
                with pytest.raises(DomainError):
                    call(model, theta, x)


@pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
def test_gaussian_mean_rejects_a_bad_fixed_scale(scale):
    with pytest.raises(ConfigError):
        make_parametric("gaussian-mean", scale=scale)


# the Gaussians' log_quadratic against their whitened log_density and score:
# (kind, hyper-parameters, theta at unit scale about the origin)
QUADRATIC_KINDS = [
    ("gaussian-full-d", {"dim": 1}, [0.3, 1.2]),
    ("gaussian-full-d", {"dim": 2}, [0.2, -0.1, 1.1, 0.3, 0.8]),
    ("gaussian-full-d", {"dim": 3}, [0.2, -0.1, 0.3, 1.1, 0.3, 0.8, -0.2, 0.1, 0.9]),
    ("gaussian-mean-scale", {}, [0.3, 1.2]),
    ("gaussian-mean", {}, [0.3]),
]


@pytest.mark.parametrize("kind,hyper,theta", QUADRATIC_KINDS,
                         ids=["full-1", "full-2", "full-3", "mean-scale", "mean"])
@pytest.mark.parametrize("loc", [0.0, 1e4])
@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e2])
def test_log_quadratic_expands_log_density_and_score(kind, hyper, theta, loc, scale):
    # data grid of theta mapped to x -> loc + scale x, candidate a third of
    # a scale off in the mean and 5% wider
    if kind == "gaussian-mean":
        hyper = {"scale": 1.2 * scale}
    model = make_parametric(kind, **hyper)
    d = model.dim
    theta = np.asarray(theta, dtype=float)
    data = np.concatenate([loc + scale * theta[:d], scale * theta[d:]])
    cand = np.concatenate([data[:d] + scale / 3.0, 1.05 * data[d:]])
    f = render_density(model, data, points_per_axis=(201, 61, 21)[d - 1])
    eta, jac, _ = model.log_quadratic(cand, f.midpoint)
    nodes = f.points()
    u = nodes - f.midpoint
    rows, cols = np.tril_indices(d)
    q = np.vstack([np.ones(len(u))] + [u[:, i] for i in range(d)]
                  + [u[:, i] * u[:, j] for i, j in zip(rows, cols)])
    assert jac.shape == (model.param_dim, q.shape[0])
    log_p = model.log_density(cand, nodes)
    assert np.max(np.abs(eta @ q - log_p)) <= 1e-13
    score = model.score(cand, nodes)
    assert np.all(np.max(np.abs((jac @ q).T - score), axis=0)
                  <= 1e-12 * np.max(np.abs(score), axis=0))
    # the grid's path, from its per-axis rows: log p at the nodes, and the
    # lifted monomial sums of two weightings against their score sums
    log_g, gradient = _log_and_gradient_rows(f, (model, cand))
    assert np.max(np.abs(log_g - log_p)) <= 1e-13
    t = np.vstack([f.weights.ravel(), (f.weights * f.values).ravel()])
    assert np.all(np.abs(gradient(t, t.sum(axis=1))[0] - t @ score)
                  <= 1e-12 * (t @ np.abs(score)))


def _ridge_theta(d, case):
    """A seeded 2-D or 3-D theta and its per-axis scales, log-uniform on
    [1e-6, 1e2] with one of them at an end; the correlation of axes 0 and 1
    goes from +-0.9999 to 0.3 (negative off-diagonal entries of L included),
    and L's third row is a random unit vector times its scale."""
    rng = np.random.default_rng([d, case])
    r = (-0.9999, 0.9999, -0.999, 0.99, -0.9, 0.3)[case]
    V = np.eye(d)
    V[1, :2] = r, np.sqrt(1.0 - r * r)
    if d == 3:
        V[2] = rng.standard_normal(3)
        V[2, 2] = abs(V[2, 2])
        V[2] /= np.linalg.norm(V[2])
    scales = 10.0 ** rng.uniform(-6.0, 2.0, d)
    scales[case % d] = (1e-6, 1e2)[case % 2]
    L = scales[:, None] * V
    return np.concatenate([scales * rng.standard_normal(d), L[np.tril_indices(d)]]), scales


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("case", range(6))
def test_log_quadratic_on_ridges_and_mixed_scales(d, case):
    # the tolerances of the test above, relative to the largest |log p| on the
    # grid: at |r| = 0.9999 log p reaches ~-1e6 at the box corners, where one
    # ulp is above 1e-13
    model = make_parametric("gaussian-full-d", dim=d)
    data, scales = _ridge_theta(d, case)
    cand = np.concatenate([data[:d] + scales / 3.0, 1.05 * data[d:]])
    f = render_density(model, data, points_per_axis=(61, 21)[d - 2])
    eta, jac, _ = model.log_quadratic(cand, f.midpoint)
    u = f.points() - f.midpoint
    rows, cols = np.tril_indices(d)
    q = np.vstack([np.ones(len(u))] + [u[:, i] for i in range(d)]
                  + [u[:, i] * u[:, j] for i, j in zip(rows, cols)])
    log_p = model.log_density(cand, f.points())
    assert np.max(np.abs(eta @ q - log_p)) <= 1e-13 * np.max(np.abs(log_p))
    score = model.score(cand, f.points())
    assert np.all(np.max(np.abs((jac @ q).T - score), axis=0)
                  <= 1e-12 * np.max(np.abs(score), axis=0))


def _curv_against_jacobian_differences(model, cand, f):
    """Largest error of ``curv`` on <f q> against central differences of
    log_quadratic's Jacobian, in parameters scaled by |theta|, relative to
    the largest entry."""
    d, k = model.dim, cand.size
    u = f.points() - f.midpoint
    rows, cols = np.tril_indices(d)
    q = np.vstack([np.ones(len(u))] + [u[:, i] for i in range(d)]
                  + [u[:, i] * u[:, j] for i, j in zip(rows, cols)])
    v = q @ (f.weights * f.values).ravel()
    scale = np.abs(cand)
    numeric = np.empty((k, k))
    for i in range(k):
        e = np.zeros(k)
        e[i] = 1e-6 * scale[i]
        numeric[:, i] = (model.log_quadratic(cand + e, f.midpoint)[1]
                         - model.log_quadratic(cand - e, f.midpoint)[1]) @ v / (2 * e[i])
    exact = model.log_quadratic(cand, f.midpoint)[2](v)
    exact, numeric = scale[:, None] * exact * scale, scale[:, None] * numeric * scale
    return np.max(np.abs(exact - numeric)) / np.max(np.abs(numeric))


@pytest.mark.parametrize("kind,hyper,theta", QUADRATIC_KINDS,
                         ids=["full-1", "full-2", "full-3", "mean-scale", "mean"])
def test_log_quadratic_curv_matches_differences_of_the_jacobian(kind, hyper, theta):
    # sum_r v_r d^2 eta_r / dtheta^2 for the monomial sums of a rendered grid;
    # the differences themselves are good to ~1e-10
    model = make_parametric(kind, **hyper)
    theta = np.asarray(theta, dtype=float)
    f = render_density(model, theta, points_per_axis=(201, 61, 21)[model.dim - 1])
    assert _curv_against_jacobian_differences(model, 1.05 * theta + 0.02, f) <= 1e-9


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("case", range(6))
def test_log_quadratic_curv_on_ridges_and_mixed_scales(d, case):
    model = make_parametric("gaussian-full-d", dim=d)
    data, scales = _ridge_theta(d, case)
    cand = np.concatenate([data[:d] + scales / 3.0, 1.05 * data[d:]])
    f = render_density(model, data, points_per_axis=(61, 21)[d - 2])
    assert _curv_against_jacobian_differences(model, cand, f) <= 1e-9


@pytest.mark.parametrize("kind,hyper,theta", ALL_KINDS + [
    ("gaussian-full-d", {"dim": 3}, np.array([0.2, -0.1, 0.3, 1.1, 0.3, 0.8, -0.2, 0.1, 0.9]))],
    ids=[k[0] for k in ALL_KINDS] + ["gaussian-full-d-3"])
def test_curvature_matches_differences_of_the_score(kind, hyper, theta):
    # sum_i h_i d^2 log g(x_i) / dtheta^2 against central differences of the
    # weighted score sum, at points of the model and a candidate off theta
    model = make_parametric(kind, **hyper)
    x = model.sampler(theta, 60, rng_for(7))
    h = rng_for(8).uniform(0.0, 1.0, 60)
    cand = 1.05 * theta + 0.02
    numeric = np.empty((cand.size, cand.size))
    for i in range(cand.size):
        e = np.zeros(cand.size)
        e[i] = 1e-6 * max(1.0, abs(cand[i]))
        numeric[:, i] = h @ (model.score(cand + e, x) - model.score(cand - e, x)) / (2 * e[i])
    exact = model.curvature(cand, x, h)
    assert exact.shape == (model.param_dim, model.param_dim)
    assert np.max(np.abs(exact - numeric)) <= 1e-8 * np.max(np.abs(numeric))


@pytest.mark.parametrize("key", [(-1,), (0, -2), (3, 1, -1)])
def test_rng_for_rejects_negative_seeds(key):
    # numpy's SeedSequence would raise a bare ValueError
    with pytest.raises(DomainError):
        rng_for(*key)


def test_log_quadratic_only_where_log_density_is_a_polynomial():
    assert make_parametric("gaussian-mixture-fixed-weights").log_quadratic is None
    assert make_parametric("exponential-rate").log_quadratic is None
    # a replaced log_density leaves the polynomial of the old one behind
    model = make_parametric("gaussian-full-d", dim=2)
    shifted = replace(model, log_density=lambda th, x: model.log_density(th, x) - 1.0)
    assert shifted.log_quadratic is None
    assert replace(model, name="renamed").log_quadratic is model.log_quadratic
