"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import time

import numpy as np

from holderscores import (AffineMap, BregmanHolder, DensityPower, FitConfig,
                          GammaScore, GridDensity, HolderScore, KL,
                          Pseudospherical, bregman_to_holder_value,
                          check_equivalence_in_probability, contaminate,
                          divergence, draw_sample, expected_score,
                          fit_regression, l1_distance, make_conditional,
                          make_parametric, phi_cubic_tail, phi_kappa,
                          phi_linear, population_fit, redescend_check,
                          render_density, rng_for, transform_density,
                          verify_estimator_equivariance, Sample,
                          asymptotic_variance_sameness, influence_function)
from holderscores.cli import main as cli_main

GAMMAS = (0.1, 0.5, 1.0, 2.0)


def families_for(gamma, rng):
    kappa = float(rng.uniform(1.0, 2.5))
    return [KL(), DensityPower(gamma), Pseudospherical(gamma), GammaScore(gamma),
            HolderScore(phi_kappa(gamma, kappa)), BregmanHolder(gamma, kappa)]


def random_density(rng, x, lo, hi):
    m = rng.uniform(-2.0, 2.0)
    s = rng.uniform(0.6, 2.0)
    vals = np.exp(-0.5 * ((x - m) / s) ** 2) / (s * np.sqrt(2 * np.pi))
    if rng.random() < 0.4:
        m2 = rng.uniform(-3.0, 3.0)
        s2 = rng.uniform(0.6, 2.0)
        w = rng.uniform(0.25, 0.75)
        vals = w * vals + (1 - w) * np.exp(-0.5 * ((x - m2) / s2) ** 2) \
            / (s2 * np.sqrt(2 * np.pi))
    return GridDensity([lo], [hi], vals).normalize()


def report(number, text, started):
    print(f"[criterion {number}] PASS ({time.time() - started:.1f}s) - {text}")


def test_criterion_1_divergence_axioms():
    started = time.time()
    lo, hi, n = -14.0, 14.0, 1601
    x = np.linspace(lo, hi, n)
    rng = rng_for(101)
    checked_discrimination = 0
    for _ in range(200):
        p = random_density(rng, x, lo, hi)
        q = random_density(rng, x, lo, hi)
        separated = l1_distance(p, q) > 0.05
        for gamma in GAMMAS:
            for score in families_for(gamma, rng):
                d_pq = divergence(score, p, q).divergence
                d_pp = divergence(score, p, p).divergence
                assert d_pq >= -1e-7, f"{score!r} negative divergence {d_pq}"
                assert abs(d_pp) <= 1e-7, f"{score!r} nonzero self-divergence {d_pp}"
                if separated:
                    checked_discrimination += 1
                    assert d_pq > 1e-4, f"{score!r} failed to separate the pair"
    assert checked_discrimination > 1000
    assert time.time() - started < 120
    report(1, "divergence axioms on 200 random pairs x 6 families x 4 gammas", started)


def test_criterion_2_holder_inequality_backbone():
    from holderscores import cross_moment, holder_cross_bound
    started = time.time()
    lo, hi, n = -14.0, 14.0, 1601
    x = np.linspace(lo, hi, n)
    rng = rng_for(202)
    for _ in range(200):
        p = random_density(rng, x, lo, hi)
        q = random_density(rng, x, lo, hi)
        for gamma in GAMMAS:
            lhs = cross_moment(p, q, gamma)
            rhs = holder_cross_bound(p, q, gamma)
            assert lhs <= rhs + 1e-7
            # equality case: q proportional to p
            c = float(rng.uniform(0.5, 2.0))
            scaled = p.with_values(c * p.values)
            lhs_eq = cross_moment(p, scaled, gamma)
            rhs_eq = holder_cross_bound(p, scaled, gamma)
            assert abs(lhs_eq - rhs_eq) <= 1e-7 * max(1.0, rhs_eq)
    assert time.time() - started < 120
    report(2, "Holder inequality and equality case at 1e-7", started)


def _random_map(rng, dim):
    if dim == 1:
        return AffineMap(sigma=np.array([[rng.uniform(0.4, 3.0)
                                          * (1 if rng.random() < 0.7 else -1)]]),
                         mu=np.array([rng.uniform(-1.5, 1.5)]))
    th = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    stretch = np.diag(rng.uniform(0.6, 2.2, size=2))
    sigma = rot @ stretch if rng.random() < 0.5 else stretch @ rot
    return AffineMap(sigma=sigma, mu=rng.uniform(-1.0, 1.0, size=2))


def _random_density_nd(rng, dim, n):
    lo, hi = np.full(dim, -14.0), np.full(dim, 14.0)
    mean = rng.uniform(-1.5, 1.5, size=dim)
    scales = rng.uniform(0.7, 1.8, size=dim)

    def pdf(pts):
        u = (pts - mean) / scales
        return np.exp(-0.5 * np.sum(u * u, axis=1)) \
            / np.prod(scales * np.sqrt(2 * np.pi))
    return GridDensity.from_callable(pdf, lo, hi, n).normalize()


def test_criterion_3_affine_invariance():
    started = time.time()
    rng = rng_for(303)
    worst = 0.0
    for trial in range(50):
        dim = 1 if trial < 30 else 2
        n = 2401 if dim == 1 else 301
        gamma = float(rng.uniform(0.2, 1.5))
        kappa = float(rng.uniform(1.0, 2.0))
        score = HolderScore(phi_kappa(gamma, kappa))
        p = _random_density_nd(rng, dim, n)
        q = _random_density_nd(rng, dim, n)
        amap = _random_map(rng, dim)
        d_raw = divergence(score, p, q).divergence
        d_map = divergence(score, transform_density(p, amap),
                           transform_density(q, amap)).divergence
        h = abs(amap.det_sigma) ** (-gamma)
        residual = abs(h * d_map - d_raw) / max(abs(d_raw), 1e-12)
        worst = max(worst, residual)
        assert residual < 1e-5, f"trial {trial}: residual {residual}"
    # argmin over a fixed candidate set is exactly invariant
    score = HolderScore(phi_kappa(0.5, 1.0))
    x = np.linspace(-14, 14, 2401)
    p = random_density(rng_for(304), x, -14, 14)
    cand_rng = rng_for(305)
    candidates = [random_density(cand_rng, x, -14, 14) for _ in range(20)]
    amap = AffineMap(sigma=np.array([[2.2]]), mu=np.array([-0.7]))
    raw = [divergence(score, p, q).divergence for q in candidates]
    p_a = transform_density(p, amap)
    mapped = [divergence(score, p_a, transform_density(q, amap)).divergence
              for q in candidates]
    assert int(np.argmin(raw)) == int(np.argmin(mapped))
    assert time.time() - started < 180
    report(3, f"scale law on 50 triples (worst residual {worst:.2e}) "
              "and exact argmin invariance", started)


def test_criterion_4_family_equivalences():
    started = time.time()
    # (a) BregmanHolder matches Holder(phi_kappa) through the canonical
    # strictly increasing bridge, 1e-10 relative
    x = np.linspace(-14, 14, 1601)
    rng = rng_for(404)
    for _ in range(50):
        gamma = float(rng.uniform(0.1, 2.0))
        kappa = float(rng.uniform(1.0, 3.0))
        p = random_density(rng, x, -14, 14)
        q = random_density(rng, x, -14, 14)
        via = bregman_to_holder_value(
            expected_score(BregmanHolder(gamma, kappa), p, q), gamma, kappa)
        direct = expected_score(HolderScore(phi_kappa(gamma, kappa)), p, q)
        assert abs(via - direct) <= 1e-10 * max(abs(direct), 1e-12)
    # (b) Gamma and Pseudospherical rank candidates identically: 1000 triples
    rep = check_equivalence_in_probability(GammaScore(0.5), Pseudospherical(0.5),
                                           trials=1000, seed=405)
    assert rep.violations == 0
    # (c) the linear-phi member is exactly gamma times the density power score
    for _ in range(25):
        gamma = float(rng.uniform(0.1, 2.0))
        p = random_density(rng, x, -14, 14)
        q = random_density(rng, x, -14, 14)
        s_h = expected_score(HolderScore(phi_linear(gamma)), p, q)
        s_dp = expected_score(DensityPower(gamma), p, q)
        assert abs(s_h - gamma * s_dp) <= 1e-10 * max(abs(s_h), 1e-12)
    report(4, "kappa-family bridge 1e-10, gamma/pseudospherical order "
              "agreement 1000 triples, linear-phi identity", started)


MODELS = [
    ("gaussian-mean", {}, np.array([0.3])),
    ("gaussian-mean-scale", {}, np.array([0.3, 1.1])),
    ("gaussian-full-d", {"dim": 2}, np.array([0.2, -0.1, 1.1, 0.3, 0.8])),
    ("gaussian-mixture-fixed-weights", {}, np.array([-1.4, 0.8, 1.4, 1.0])),
    ("exponential-rate", {}, np.array([1.3])),
]


def score_battery(gamma=0.5):
    return [KL(), DensityPower(gamma), Pseudospherical(gamma), GammaScore(gamma),
            HolderScore(phi_kappa(gamma, 1.5)), BregmanHolder(gamma, 2.0)]


def test_criterion_5_fisher_consistency_and_equivariance():
    started = time.time()
    # (a) population fit recovers theta* for every model x score family
    for kind, hyper, theta_star in MODELS:
        model = make_parametric(kind, **hyper)
        p_true = render_density(model, theta_star)
        init = theta_star * 1.05 + 0.02
        for score in score_battery():
            res = population_fit(score, model, p_true,
                                 FitConfig(init_theta=init, step_tol=1e-9,
                                           grad_tol=1e-2, polish=True))
            err = np.max(np.abs(res.theta_hat - theta_star))
            assert err < 1e-4, f"{kind} x {score!r}: error {err:.2e}"
    # (b) estimator equivariance under (sigma, mu) = (3, -2)
    gauss = make_parametric("gaussian-mean-scale")
    sample = draw_sample(gauss, [0.0, 1.0], 2000, seed=501)
    amap = AffineMap(sigma=np.array([[3.0]]), mu=np.array([-2.0]))
    cfg = FitConfig(init_theta=[0.1, 0.9], step_tol=1e-9, grad_tol=1e-2,
                    polish=True)
    rep = verify_estimator_equivariance(HolderScore(phi_kappa(0.5, 1.0)),
                                        gauss, sample, amap, cfg)
    assert rep.discrepancy < 1e-4
    # KL closed form: sample mean / sd transform exactly
    pts = sample.points[:, 0]
    mapped = (pts - (-2.0)) / 3.0
    pushed = np.array([(pts.mean() + 2.0) / 3.0, pts.std() / 3.0])
    assert np.max(np.abs(pushed - np.array([mapped.mean(), mapped.std()]))) < 1e-12
    # (c) regression on zero-noise data recovers the coefficients
    rng = rng_for(502)
    xcov = rng.uniform(-3, 3, size=(150, 1))
    y = 1.2 * xcov[:, 0] - 0.7
    sample_r = Sample(points=y, covariates=xcov)
    cmodel = make_conditional("linear-gaussian", noise=0.05)
    res = fit_regression(0.7, 1.3, cmodel, sample_r,
                         FitConfig(init_theta=[0.8, 0.0], step_tol=1e-9,
                                   grad_tol=1e-2, polish=True))
    assert np.max(np.abs(res.theta_hat - np.array([1.2, -0.7]))) < 1e-6
    assert time.time() - started < 300
    report(5, "Fisher consistency (5 models x 6 families), equivariance at "
              "(3,-2), zero-noise regression recovery", started)


def test_criterion_6_redescending_iff():
    started = time.time()
    gamma = 0.5
    gauss = make_parametric("gaussian-mean-scale")
    theta_star = np.array([0.0, 1.0])
    reports = {}
    for kappa in (1.0, 1.25, 1.5, 1.0 + gamma):
        rep = redescend_check(phi_kappa(gamma, kappa), gamma, gauss, theta_star,
                              n_z=25, max_sd=12.0)
        reports[kappa] = rep
        assert rep.condition_met == (kappa == 1.0)
        assert rep.verdict == "PASS"
    tail_1 = reports[1.0]
    assert tail_1.tail_norms[-1][1] < 1e-3 * tail_1.max_tail
    tail_dp = reports[1.0 + gamma]
    assert tail_dp.tail_norms[-1][1] > 0.1 * tail_dp.max_tail
    # influence values agree with the eps-perturbation refit oracle to 2%
    for kappa, z in ((1.0, 1.2), (1.0, 2.4), (1.5, 1.6)):
        phi = phi_kappa(gamma, kappa)
        res = influence_function(phi, gamma, gauss, theta_star, z)
        eps = 1e-3
        fitted = {}
        for e in (eps, 2 * eps):
            p_eps = contaminate(gauss, theta_star, e, z=z)
            fitted[e] = population_fit(
                HolderScore(phi), gauss, p_eps,
                FitConfig(init_theta=theta_star, step_tol=1e-10, grad_tol=1e-2,
                          polish=True)).theta_hat
        oracle = (4 * fitted[eps] - fitted[2 * eps] - 3 * theta_star) / (2 * eps)
        rel = np.max(np.abs(res.if_vector - oracle) / np.maximum(np.abs(oracle), 0.05))
        assert rel < 0.02, f"kappa={kappa}, z={z}: oracle mismatch {rel:.3%}"
    assert time.time() - started < 300
    report(6, "redescending condition exactly at kappa=1, tails behave, "
              "IF matches refit oracle to 2%", started)


def test_criterion_7_robustness_headline():
    started = time.time()
    gauss_m = make_parametric("gaussian-mean")
    theta_star = np.array([0.0])
    p_eps = contaminate(gauss_m, theta_star, 0.10, z=10.0)
    cfg = FitConfig(init_theta=[0.0], step_tol=1e-9, grad_tol=1e-2, polish=True)
    fit_gamma = population_fit(GammaScore(0.5), gauss_m, p_eps, cfg)
    fit_kl = population_fit(KL(), gauss_m, p_eps, cfg)

    def oracle(score):
        grid = np.linspace(-0.5, 1.5, 2001)
        vals = [expected_score(score, p_eps, (gauss_m, [m])) for m in grid]
        return grid[int(np.argmin(vals))]

    m_gamma_oracle = oracle(GammaScore(0.5))
    m_kl_oracle = oracle(KL())
    assert abs(fit_gamma.theta_hat[0] - m_gamma_oracle) < 2e-3
    assert abs(fit_kl.theta_hat[0] - m_kl_oracle) < 2e-3
    assert abs(fit_gamma.theta_hat[0]) < 0.15
    assert fit_kl.theta_hat[0] > 0.9
    assert time.time() - started < 120
    report(7, f"gamma-score bias {fit_gamma.theta_hat[0]:+.4f} vs KL bias "
              f"{fit_kl.theta_hat[0]:+.4f}, both oracle-checked", started)


def test_criterion_8_asymptotic_variance_sameness():
    started = time.time()
    gamma = 0.5
    gauss = make_parametric("gaussian-mean-scale")
    rep = asymptotic_variance_sameness(
        gamma, gauss, [0.0, 1.0],
        [phi_kappa(gamma, 1.0), phi_cubic_tail(gamma, 0.5)],
        n_mc=2000, seed=801, replicates=200)
    assert 0.85 < rep.ratio_min <= rep.ratio_max < 1.18, str(rep)
    assert time.time() - started < 600
    report(8, str(rep), started)


def test_criterion_9_cli_reproducibility(tmp_path):
    started = time.time()
    fit_args = ["--set", "model=gaussian-mean-scale", "--set", "family=gamma",
                "--set", "gamma=0.5", "--set", "theta_true=0,1",
                "--set", "n=500", "--set", "eps=0.1", "--set", "z=8",
                "--seed", "17"]
    sweep_args = ["--set", "sweep.kind=influence-z", "--set", "gamma=0.5",
                  "--set", "phi=kappa", "--set", "kappa=1",
                  "--set", "model=gaussian-mean-scale",
                  "--set", "theta_star=0,1", "--set", "z.count=20",
                  "--seed", "17"]
    for name, args in (("fit", fit_args), ("sweep", sweep_args)):
        out1, out2 = tmp_path / f"{name}1", tmp_path / f"{name}2"
        assert cli_main([name, "--out", str(out1)] + args) == 0
        assert cli_main([name, "--out", str(out2)] + args) == 0
        for artifact in out1.iterdir():
            twin = out2 / artifact.name
            assert twin.exists()
            assert artifact.read_bytes() == twin.read_bytes(), artifact.name
    report(9, "fit and sweep artifacts byte-identical across reruns", started)
