"""Layer rows: public calls timed at fixed sizes, after a warm-up call.

Every row is the median of repeated calls.  Inputs are fixed (the
criterion-5 parameters), so the rows do not depend on the workload seed.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc

import numpy as np

from holderscores import (AffineMap, GammaScore, GridDensity, HolderScore, KL,
                          BregmanHolder, Sample, averaged_score, cross_moment,
                          draw_sample, influence_function, make_conditional,
                          make_parametric, objective_hessian, phi_kappa,
                          power_moment, render_density, rng_for, transform_density)

from tracing import Tracer, traced_model
from workloads import THETA_2D, rotation_shear

# (metric label, kind, hyper-parameters, theta*) as in acceptance criterion 5
MODELS = (
    ("gaussian-mean", "gaussian-mean", {}, np.array([0.3])),
    ("gaussian-mean-scale", "gaussian-mean-scale", {}, np.array([0.3, 1.1])),
    ("gaussian-full-d", "gaussian-full-d", {"dim": 2}, THETA_2D),
    ("gaussian-mixture", "gaussian-mixture-fixed-weights", {},
     np.array([-1.4, 0.8, 1.4, 1.0])),
    ("exponential-rate", "exponential-rate", {}, np.array([1.3])),
)

# Every family but KL evaluates the same two moments and differs only in a
# scalar combination, so one moment family and one phi family stand for them.
FAMILIES = (("kl", KL()), ("gamma", GammaScore(0.5)),
            ("holder", HolderScore(phi_kappa(0.5, 1.5))))

EMPIRICAL_N = 4000


def median_seconds(fn, min_reps=5, min_total=0.2, max_reps=200):
    """Median wall time in seconds of ``fn()`` over repeats, after one warm-up call."""
    fn()
    times = []
    while len(times) < max_reps and (len(times) < min_reps or sum(times) < min_total):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _us(fn, **kw):
    return 1e6 * median_seconds(fn, **kw), "us"


def _ms(fn, **kw):
    return 1e3 * median_seconds(fn, **kw), "ms"


def _gaussian_grid(dim, n, mean, scale):
    def values(pts):
        u = (pts - mean) / scale
        return np.exp(-0.5 * np.sum(u * u, axis=1)) / np.prod(scale * math.sqrt(2 * math.pi))
    return GridDensity.from_callable(values, np.full(dim, -14.0), np.full(dim, 14.0), n)


def hessian_density_calls():
    """Model density calls made by one 2-D ``objective_hessian``."""
    tracer = Tracer()
    model = traced_model(make_parametric("gaussian-full-d", dim=2), tracer)
    objective_hessian(phi_kappa(0.5, 1.0), 0.5, model, THETA_2D)
    return tracer.counts["density_calls"]


def layer_rows():
    """Metric name -> (value, unit) for every layer row."""
    rows = {}
    models = {label: (make_parametric(kind, **hyper), theta)
              for label, kind, hyper, theta in MODELS}
    m1, th1 = models["gaussian-mean-scale"]
    m2, th2 = models["gaussian-full-d"]
    me, the = models["exponential-rate"]

    # grids
    for label, (model, theta) in (("n2001", (m1, th1)), ("n257x257", (m2, th2)),
                                  ("n150001", (me, the))):
        rows[f"grids.render_us.{label}"] = _us(
            lambda: render_density(model, theta))
    f2 = render_density(m2, th2)
    g2 = render_density(m2, th2 * 1.01, lo=f2.domain_lo, hi=f2.domain_hi,
                        points_per_axis=f2.points_per_axis)
    rows["grids.power_moment_us.n66049"] = _us(lambda: power_moment(g2, 1.5))
    rows["grids.cross_moment_us.n66049"] = _us(
        lambda: cross_moment(f2, g2, 0.5))
    # computed from the sizes of the arrays one popfit evaluation allocates:
    # the tracemalloc peak above the level before the call
    score = GammaScore(0.5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        score.expected(f2, (m2, th2 * 1.01))
        rows["grids.bytes_per_eval.popfit"] = (tracemalloc.get_traced_memory()[1] - base, "B")
    finally:
        tracemalloc.stop()

    # models
    pts = f2.points()
    rows["models.density_us.gaussian-full-d.n66049"] = _us(
        lambda: m2.density(th2, pts))
    rows["models.score_us.gaussian-full-d.n66049"] = _us(
        lambda: m2.score(th2, pts), min_reps=3)

    # scores: one objective evaluation per model x family
    for label, (model, theta) in models.items():
        p_true = render_density(model, theta)
        sample = draw_sample(model, theta, EMPIRICAL_N, rng_for(0))
        cand = theta * 1.01
        for fam, score in FAMILIES:
            rows[f"scores.expected_us.{label}.{fam}"] = _us(
                lambda: score.expected(p_true, (model, cand)), min_reps=3, min_total=0.05)
            rows[f"scores.empirical_us.{label}.{fam}"] = _us(
                lambda: score.empirical(sample, (model, cand)), min_reps=3, min_total=0.05)

    # estimators: the conditional-model objective
    cmodel = make_conditional("linear-gaussian")
    rng = rng_for(0, 1)
    x = rng.uniform(-3, 3, size=(500, 1))
    reg = Sample(points=1.2 * x[:, 0] - 0.5 + 0.5 * rng.standard_normal(500), covariates=x)
    bh = BregmanHolder(0.5, 1.0)
    theta_reg = np.array([1.2, -0.5, 0.5])
    rows["estimators.averaged_score_us.n500"] = _us(
        lambda: averaged_score(bh, cmodel, theta_reg, reg))

    # robustness
    phi = phi_kappa(0.5, 1.0)
    hess = objective_hessian(phi, 0.5, m2, th2)
    rows["robustness.hessian_ms.gaussian-full-d"] = _ms(
        lambda: objective_hessian(phi, 0.5, m2, th2), min_reps=3, min_total=0.0)
    rows["robustness.hessian_ms.gaussian-mean-scale"] = _ms(
        lambda: objective_hessian(phi, 0.5, m1, np.array([0.0, 1.0])), min_reps=3)
    z = np.array([1.5, -0.5])
    rows["robustness.influence_ms.gaussian-full-d"] = _ms(
        lambda: influence_function(phi, 0.5, m2, th2, z, hessian=hess), min_reps=3)
    rows["robustness.hessian_density_calls"] = (hessian_density_calls(), "count")

    # affine
    amap2 = AffineMap(sigma=rotation_shear(0.7, 0.4), mu=np.array([0.3, -0.2]))
    p241 = _gaussian_grid(2, 241, np.array([0.4, -0.3]), np.array([1.2, 0.9]))
    rows["affine.transform_ms.n241x241"] = _ms(
        lambda: transform_density(p241, amap2), min_reps=3)
    amap1 = AffineMap(sigma=np.array([[1.7]]), mu=np.array([0.3]))
    p1201 = _gaussian_grid(1, 1201, np.array([0.4]), np.array([1.2]))
    rows["affine.transform_ms.n1201"] = _ms(
        lambda: transform_density(p1201, amap1), min_reps=3)
    return rows
