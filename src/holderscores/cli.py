"""Experiment command line: parse flat key=value configs, emit CSV + reports.

Usage:
    holder <command> [--config PATH] [--set key=value]... --out DIR
           [--seed N] [--jobs N]

Commands: divergence, fit, regress, invariance, influence, redescend, sweep.
Every run writes ``results.csv`` (always with a header row) and
``report.txt`` whose first line is a machine-readable verdict
(PASS | FAIL | INCONCLUSIVE); sweeps additionally write ``plotdata_*.csv``
curve files with ``#``-prefixed column documentation.

Exit status: 0 success, 2 validation failure, 3 numerical failure,
64 unknown command.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .affine import AffineMap, transform_density
from .errors import (ConfigError, DegenerateInputError, DomainError,
                     HolderError, SingularHessianError, StructuralError,
                     UnsupportedFamilyError)
from .grids import default_tol, integrate, read_grid
from .estimators import FitConfig, fit, fit_regression, make_conditional, population_fit
from .models import (Sample, draw_contaminated_sample, draw_sample,
                     make_parametric, read_samples, render_density)
from .robustness import influence_curve, redescend_check
from .scores import GammaScore, KL, divergence, phi_from_config, score_from_config
from .rng import rng_for

COMMANDS = ("divergence", "fit", "regress", "invariance", "influence",
            "redescend", "sweep")

_USAGE = __doc__


def _fmt(x):
    return repr(float(x))


# -- config handling -------------------------------------------------------------

def load_config(path=None, overrides=()):
    cfg = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                # one pair per line, or several separated by semicolons
                # (e.g. "family=holder; gamma=0.5; phi=kappa")
                for item in line.split(";"):
                    item = item.strip()
                    if not item:
                        continue
                    if "=" not in item:
                        raise ConfigError(f"config lines must be key=value, got {item!r}")
                    key, _, val = item.partition("=")
                    cfg[key.strip()] = val.strip()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        cfg[key.strip()] = val.strip()
    return cfg


def _get_float(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key!r} must be a number, got {cfg[key]!r}") from None


def _get_int(cfg, key, default=None):
    value = _get_float(cfg, key, default)
    if not float(value).is_integer():
        raise ConfigError(f"config key {key!r} must be an integer, "
                          f"got {cfg.get(key, value)!r}")
    return int(value)


def _get_floats(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return np.asarray(default, dtype=float)
    return _parse_floats(key, cfg[key])


def _get_vector(cfg, key, size, default=None):
    """A csv vector of exactly ``size`` numbers: a parameter vector, or ``a``."""
    vec = _get_floats(cfg, key, default)
    if vec.size != size:
        raise ConfigError(f"config key {key!r} needs {size} values, got {vec.size}")
    return vec


def _parse_floats(key, text):
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise ConfigError(f"config key {key!r} must be a csv of numbers") from None


def _get_bool(cfg, key, default=False):
    if key not in cfg:
        return default
    val = cfg[key].strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"config key {key!r} must be boolean-like, got {val!r}")


def _model_from_config(cfg, prefix="model"):
    kind = cfg.get(prefix, "gaussian-mean-scale")
    hyper = {}
    if f"{prefix}.scale" in cfg:
        hyper["scale"] = _get_float(cfg, f"{prefix}.scale")
    if f"{prefix}.dim" in cfg:
        hyper["dim"] = _get_int(cfg, f"{prefix}.dim")
    if f"{prefix}.weights" in cfg:
        hyper["weights"] = tuple(_get_floats(cfg, f"{prefix}.weights"))
    return make_parametric(kind, **hyper)


def _density_pair(cfg):
    """p and q on one shared grid (union box of their model supports).

    When either comes from a grid file, the other is rendered on that file's
    box and node counts.
    """
    files = {s: read_grid(cfg[f"{s}.file"]) for s in "pq" if f"{s}.file" in cfg}
    if files:
        like = next(iter(files.values()))
        for s in "pq":
            if s not in files:
                model = _model_from_config(cfg, f"{s}.model")
                theta = _get_vector(cfg, f"{s}.theta", model.param_dim)
                files[s] = render_density(model, theta,
                                          lo=like.domain_lo, hi=like.domain_hi,
                                          points_per_axis=like.points_per_axis)
                _check_mass(files[s], s)
        return files["p"], files["q"]
    mp = _model_from_config(cfg, "p.model")
    mq = _model_from_config(cfg, "q.model")
    tp = _get_vector(cfg, "p.theta", mp.param_dim)
    tq = _get_vector(cfg, "q.theta", mq.param_dim)
    lo_p, hi_p = mp.support(tp)
    lo_q, hi_q = mq.support(tq)
    lo, hi = np.minimum(lo_p, lo_q), np.maximum(hi_p, hi_q)
    n = _get_int(cfg, "grid.n", max(mp.quad_points, mq.quad_points))
    p = render_density(mp, tp, lo=lo, hi=hi, points_per_axis=n)
    q = render_density(mq, tq, lo=lo, hi=hi, points_per_axis=n)
    _check_mass(p, "p")
    _check_mass(q, "q")
    return p, q


def _check_mass(g, label):
    tol = default_tol(g.dim)
    mass = integrate(g)
    if abs(mass - 1.0) > 1e3 * tol:
        raise DegenerateInputError(
            f"{label} integrates to {mass!r}, outside 1 +- {1e3 * tol:g}")


def _fit_config(cfg, model_dim_k, seed, default_init):
    return FitConfig(init_theta=_get_vector(cfg, "init", model_dim_k, default_init),
                     max_iters=_get_int(cfg, "max_iters", 2000),
                     grad_tol=_get_float(cfg, "grad_tol", 1e-4),
                     step_tol=_get_float(cfg, "step_tol", 1e-8),
                     optimizer=cfg.get("optimizer", "l-bfgs-b"),
                     seed=seed,
                     polish=_get_bool(cfg, "polish", True))


# -- output helpers -----------------------------------------------------------------

def _write_results(outdir, header, rows):
    path = os.path.join(outdir, "results.csv")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return path


def _write_report(outdir, verdict, lines=()):
    path = os.path.join(outdir, "report.txt")
    with open(path, "w") as fh:
        fh.write(verdict + "\n")
        for line in lines:
            fh.write(line + "\n")
    return path


def emit_plotdata(outdir, name, columns, rows, comments=()):
    """One curve file per sweep quantity; '#' lines document the columns."""
    if len(rows) < 1:
        raise DegenerateInputError("sweep produced no rows; nothing to plot")
    path = os.path.join(outdir, f"plotdata_{name}.csv")
    with open(path, "w") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(f"# columns: {','.join(columns)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


# -- commands --------------------------------------------------------------------------

def _cmd_divergence(cfg, outdir, seed, jobs):
    score = score_from_config(cfg)
    p, q = _density_pair(cfg)
    value = divergence(score, p.normalize(), q.normalize())
    header = ["family", "gamma", "s_fg", "s_ff", "divergence"]
    row = [score.name, _fmt(score.gamma), _fmt(value.s_fg), _fmt(value.s_ff),
           _fmt(value.divergence)]
    _write_results(outdir, header, [row])
    _write_report(outdir, "PASS", [f"score {score.name} computed",
                                   f"divergence={value.divergence!r}"])
    return 0


def _cmd_fit(cfg, outdir, seed, jobs):
    score = score_from_config(cfg)
    model = _model_from_config(cfg)
    if "data" in cfg:
        sample = read_samples(cfg["data"])
        default_init = None
    else:
        theta_true = _get_vector(cfg, "theta_true", model.param_dim)
        n = _get_int(cfg, "n", 1000)
        eps = _get_float(cfg, "eps", 0.0)
        if eps > 0:
            sample = draw_contaminated_sample(model, theta_true, eps,
                                              _get_floats(cfg, "z"), n, seed)
        else:
            sample = draw_sample(model, theta_true, n, seed)
        default_init = theta_true
    fit_cfg = _fit_config(cfg, model.param_dim, seed, default_init)
    result = fit(score, model, sample, fit_cfg)
    header = [f"theta_{name}" for name in model.theta_names] \
        + ["objective", "iterations", "converged"]
    _write_results(outdir, header, [result.csv_row().split(",")])
    verdict = "PASS" if result.converged else "FAIL"
    _write_report(outdir, verdict,
                  [f"theta_hat={list(map(float, result.theta_hat))!r}",
                   f"objective={result.objective_value!r}",
                   f"iterations={result.iterations}"])
    return 0 if result.converged else 3


def _cmd_regress(cfg, outdir, seed, jobs):
    gamma = _get_float(cfg, "gamma")
    kappa = _get_float(cfg, "kappa")
    noise_val = None if cfg.get("noise", "fit") == "fit" else _get_float(cfg, "noise")
    x_dim = _get_int(cfg, "x_dim", 1)
    cmodel = make_conditional("linear-gaussian", x_dim=x_dim, noise=noise_val)
    if "data" in cfg:
        sample = read_samples(cfg["data"])
        if sample.covariates is None:
            raise ConfigError("regression data must carry x columns")
        default_init = None
    else:
        a = _get_vector(cfg, "a", x_dim)
        b = _get_float(cfg, "b")
        s = _get_float(cfg, "s", 1.0)
        n = _get_int(cfg, "n", 500)
        rng = rng_for(seed, 1)
        x = rng.uniform(_get_float(cfg, "x.lo", -3.0), _get_float(cfg, "x.hi", 3.0),
                        size=(n, x_dim))
        y = x @ a + b + s * rng.standard_normal(n)
        out_eps = _get_float(cfg, "outlier.eps", 0.0)
        if out_eps > 0:
            y = np.where(rng.random(n) < out_eps, _get_float(cfg, "outlier.y"), y)
        sample = Sample(points=y, covariates=x)
        default_init = np.concatenate([a, [b]] + ([] if noise_val else [[s]]))
    fit_cfg = _fit_config(cfg, cmodel.param_dim, seed, default_init)
    result = fit_regression(gamma, kappa, cmodel, sample, fit_cfg)
    header = [f"theta_{name}" for name in cmodel.theta_names] \
        + ["objective", "iterations", "converged"]
    _write_results(outdir, header, [result.csv_row().split(",")])
    verdict = "PASS" if result.converged else "FAIL"
    _write_report(outdir, verdict, [f"theta_hat={list(map(float, result.theta_hat))!r}"])
    return 0 if result.converged else 3


def _random_gaussian_pair(dim, n, rng):
    """Two random axis-aligned Gaussians, normalized on the box [-14, 14]^dim."""
    model = make_parametric("gaussian-full-d", dim=dim)
    means = rng.uniform(-1.5, 1.5, size=(2, dim))
    scales = rng.uniform(0.7, 1.6, size=(2, dim))
    lo, hi = np.full(dim, -14.0), np.full(dim, 14.0)
    chol = np.tril_indices(dim)
    return tuple(render_density(model, np.concatenate([m, np.diag(s)[chol]]), lo, hi, n)
                 .normalize() for m, s in zip(means, scales))


def _cmd_invariance(cfg, outdir, seed, jobs):
    score = score_from_config(cfg)
    if score.affine_scale_exponent is None:
        raise UnsupportedFamilyError(
            f"{score.name} has no exact scale law; use the holder or kl family")
    amap = AffineMap.from_config(
        f"sigma={cfg.get('sigma', '1')}; mu={cfg.get('mu', '0')}")
    pairs = _get_int(cfg, "pairs", 5)
    if pairs < 1:
        raise ConfigError(f"config key 'pairs' must be at least 1, got {pairs}")
    n = _get_int(cfg, "grid.n", 1201 if amap.dim == 1 else 81)
    tol = _get_float(cfg, "tol", 1e-5)
    h = abs(amap.det_sigma) ** (-score.affine_scale_exponent)
    rows = []
    worst = 0.0
    for i in range(pairs):
        rng = rng_for(seed, 7, i)
        p, q = _random_gaussian_pair(amap.dim, n, rng)
        d_raw = divergence(score, p, q).divergence
        d_mapped = divergence(score, transform_density(p, amap),
                              transform_density(q, amap)).divergence
        residual = abs(h * d_mapped - d_raw) / max(abs(d_raw), 1e-12)
        worst = max(worst, residual)
        rows.append([str(i), _fmt(amap.det_sigma), _fmt(h), _fmt(d_raw),
                     _fmt(d_mapped), _fmt(residual)])
    _write_results(outdir, ["pair", "det", "h", "d_raw", "d_mapped", "residual"], rows)
    verdict = "PASS" if worst < tol else "FAIL"
    _write_report(outdir, verdict, [f"max residual {worst!r} against tolerance {tol!r}"])
    return 0 if verdict == "PASS" else 3


def _influence_table(cfg):
    """IF(z) at the ';'-separated csv points of ``z``, or along the default ray.

    Returns the influence curve with the header and rows of its results.csv.
    """
    gamma = _get_float(cfg, "gamma")
    model = _model_from_config(cfg)
    theta_star = _get_vector(cfg, "theta_star", model.param_dim)
    phi = phi_from_config(cfg, gamma)
    z_grid = None
    if "z" in cfg:
        z_grid = [_parse_floats("z", part) for part in cfg["z"].split(";") if part.strip()]
        if not z_grid or any(z.size != model.dim for z in z_grid):
            raise ConfigError(f"config key 'z' must list ';'-separated points "
                              f"of {model.dim} coordinates")
    curve = influence_curve(phi, gamma, model, theta_star, z_grid=z_grid,
                            n_z=_get_int(cfg, "z.count", 50),
                            max_sd=_get_float(cfg, "z.max", 12.0))
    header = [f"z{i + 1}" for i in range(model.dim)] \
        + [f"if_{i + 1}" for i in range(curve[0].if_vector.size)] + ["if_norm"]
    table = [[_fmt(v) for v in np.concatenate([res.z, res.if_vector, [res.norm]])]
             for res in curve]
    return curve, header, table


def _cmd_influence(cfg, outdir, seed, jobs):
    curve, header, table = _influence_table(cfg)
    _write_results(outdir, header, table)
    _write_report(outdir, "PASS", [f"{len(curve)} influence evaluations"])
    return 0


def _cmd_redescend(cfg, outdir, seed, jobs):
    gamma = _get_float(cfg, "gamma")
    model = _model_from_config(cfg)
    theta_star = _get_vector(cfg, "theta_star", model.param_dim)
    phi = phi_from_config(cfg, gamma)
    report = redescend_check(phi, gamma, model, theta_star,
                             n_z=_get_int(cfg, "z.count", 25),
                             max_sd=_get_float(cfg, "z.max", 12.0))
    header = ["condition_met", "phi_d2_at_1", "limit_estimate", "max_tail", "last_tail"]
    row = [str(report.condition_met).lower(), _fmt(report.phi_d2_at_1),
           _fmt(report.limit_estimate), _fmt(report.max_tail),
           _fmt(report.tail_norms[-1][1])]
    _write_results(outdir, header, [row])
    _write_report(outdir, report.verdict, str(report).splitlines()[1:])
    if report.verdict == "FAIL":
        return 3
    return 0


# -- sweeps ------------------------------------------------------------------------------

def _contamination_bias(cfg, seed, eps, family):
    """Population mean-bias of one family under eps-contamination at z."""
    from .models import contaminate

    model = _model_from_config(cfg)
    theta_true = _get_vector(cfg, "theta_true", model.param_dim)
    z = _get_floats(cfg, "z", [10.0])
    p_eps = contaminate(model, theta_true, eps, z)
    if family == "kl":
        score = KL()
    else:
        score = GammaScore(_get_float(cfg, "gamma", 0.5))
    fit_cfg = FitConfig(init_theta=theta_true, step_tol=1e-9, grad_tol=1e-2, seed=seed)
    res = population_fit(score, model, p_eps, fit_cfg)
    return float(res.theta_hat[0] - theta_true[0])


def _cmd_sweep(cfg, outdir, seed, jobs):
    kind = cfg.get("sweep.kind")
    if kind == "influence-z":
        curve, header, table = _influence_table(cfg)
        if len(curve) < 2:
            raise DegenerateInputError("influence sweep needs at least 2 z-values")
        _write_results(outdir, header, table)
        emit_plotdata(outdir, "if_norm", ["z_norm", "if_norm"],
                      [(float(np.linalg.norm(res.z)), res.norm) for res in curve],
                      comments=["influence norm against contamination distance"])
        _write_report(outdir, "PASS", [f"{len(curve)} sweep rows"])
        return 0

    if kind == "divergence-gamma":
        gammas = _get_floats(cfg, "gammas")
        families = [f.strip() for f in cfg.get("families", "gamma").split(",")]
        if gammas.size < 2:
            raise DegenerateInputError("gamma sweep needs at least 2 values")
        p, q = _density_pair(cfg)
        p, q = p.normalize(), q.normalize()
        results = []
        for fam in families:
            rows = []
            for g in gammas:
                sub = dict(cfg)
                sub["family"] = fam
                sub["gamma"] = repr(float(g))
                score = score_from_config(sub)
                val = divergence(score, p, q).divergence
                rows.append((float(g), val))
                results.append([fam, _fmt(g), _fmt(val)])
            emit_plotdata(outdir, fam, ["gamma", "divergence"], rows,
                          comments=[f"{fam} divergence for the configured pair"])
        _write_results(outdir, ["family", "gamma", "divergence"], results)
        _write_report(outdir, "PASS", [f"{len(results)} sweep rows"])
        return 0

    if kind == "contamination":
        eps_values = _get_floats(cfg, "eps.values")
        if eps_values.size < 2:
            raise DegenerateInputError("contamination sweep needs at least 2 levels")
        families = ("gamma-score", "kl")
        tasks = [(float(eps), fam) for fam in families for eps in eps_values]
        args = ([cfg] * len(tasks), [seed] * len(tasks), *zip(*tasks))
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                biases = list(pool.map(_contamination_bias, *args))
        else:
            biases = list(map(_contamination_bias, *args))
        results = []
        for fam in families:
            rows = []
            for (eps, f), bias in zip(tasks, biases):
                if f == fam:
                    rows.append((eps, bias))
                    results.append([fam, _fmt(eps), _fmt(bias)])
            emit_plotdata(outdir, fam, ["eps", "mean_bias"], rows,
                          comments=["population mean bias under point contamination"])
        _write_results(outdir, ["family", "eps", "mean_bias"], results)
        _write_report(outdir, "PASS", [f"{len(results)} sweep rows"])
        return 0

    raise ConfigError(f"unknown sweep.kind {kind!r}; choose influence-z, "
                      f"divergence-gamma or contamination")


_RUNNERS = {
    "divergence": _cmd_divergence,
    "fit": _cmd_fit,
    "regress": _cmd_regress,
    "invariance": _cmd_invariance,
    "influence": _cmd_influence,
    "redescend": _cmd_redescend,
    "sweep": _cmd_sweep,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE)
        return 0 if argv else 64
    command = argv[0]
    if command not in COMMANDS:
        print(_USAGE)
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 64

    parser = argparse.ArgumentParser(prog=f"holder {command}", add_help=True)
    parser.add_argument("--config", default=None)
    parser.add_argument("--set", action="append", default=[], dest="sets",
                        metavar="key=value")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=1)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit:
        return 2

    try:
        cfg = load_config(args.config, args.sets)
        seed = args.seed if args.seed is not None else _get_int(cfg, "seed", 0)
        os.makedirs(args.out, exist_ok=True)
        return _RUNNERS[command](cfg, args.out, seed, max(1, args.jobs))
    except (ConfigError, StructuralError, DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateInputError, SingularHessianError, UnsupportedFamilyError,
            HolderError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
