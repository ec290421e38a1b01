"""Experiment command line: parse flat key=value configs, emit CSV + reports.

Usage:
    holder <command> [--config PATH] [--set key=value]... --out DIR
           [--seed N] [--jobs N]

Commands: divergence, fit, regress, invariance, influence, redescend, sweep.
Every run writes ``results.csv`` (always with a header row) and
``report.txt`` whose first line is a machine-readable verdict
(PASS | FAIL | INCONCLUSIVE); sweeps additionally write ``plotdata_*.csv``
curve files with ``#``-prefixed column documentation.

A command must read every config key it is given.  A key it never looks up
(a misspelling, or an input that another one overrides, such as ``p.theta``
beside ``p.file`` or ``seed`` beside ``--seed``) exits 2 with one line that
names the command and the key, and nothing is written: each command reads
all of its keys first, and the check runs before any render, fit or sweep.

Exit status: 0 success, 2 validation failure, 3 numerical failure,
64 unknown command.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import ChainMap
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from .affine import AffineMap, invariance_residual, transform_density
from .errors import (ConfigError, DegenerateInputError, DomainError,
                     HolderError, SingularHessianError, StructuralError,
                     UnsupportedFamilyError)
from .grids import default_tol, integrate, read_grid
from .estimators import FitConfig, fit, fit_regression, make_conditional, population_fit
from .models import (Sample, check_contamination, contaminate, draw_contaminated_sample,
                     draw_sample, make_parametric, read_samples, render_density)
from .robustness import influence_curve, redescend_check
from .scores import (GammaScore, KL, divergence, number_from_config, phi_from_config,
                     score_from_config)
from .rng import rng_for


def _fmt(x):
    return repr(float(x))


# -- config handling -------------------------------------------------------------

class Config(dict):
    """A flat config that records every key looked up through ``[]``, ``in``
    or ``get``, so that the keys a command never read can be named."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def load_config(path=None, overrides=()):
    """The ``key=value`` pairs of the config file, then of ``--set``, as a
    :class:`Config`; a later pair overrides an earlier one."""
    items = []
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            # one pair per line, or several separated by semicolons
            # (e.g. "family=holder; gamma=0.5; phi=kappa")
            items = [item for line in fh for item in line.split("#", 1)[0].split(";")
                     if item.strip()]
    cfg = Config()
    for item in [*items, *overrides]:
        key, eq, val = item.partition("=")
        if not eq:
            raise ConfigError(f"config pairs must be key=value, got {item.strip()!r}")
        cfg[key.strip()] = val.strip()
    return cfg


def _get_int(cfg, key, default=None):
    value = number_from_config(cfg, key, default)
    if not float(value).is_integer():
        raise ConfigError(f"config key {key!r} must be an integer, "
                          f"got {cfg.get(key, value)!r}")
    return int(value)


def _get_floats(cfg, key, default=None, size=None):
    """The csv of numbers under ``key``; exactly ``size`` of them when given."""
    if key in cfg:
        vec = _parse_floats(key, cfg[key])
    elif default is None:
        raise ConfigError(f"missing required config key {key!r}")
    else:
        vec = np.asarray(default, dtype=float)
    if size is not None and vec.size != size:
        raise ConfigError(f"config key {key!r} needs {size} values, got {vec.size}")
    return vec


def _parse_floats(key, text):
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise ConfigError(f"config key {key!r} must be a csv of numbers") from None


def _get_bool(cfg, key, default=False):
    val = cfg.get(key, str(default)).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"config key {key!r} must be boolean-like, got {val!r}")


def _model_maker(cfg, prefix="model"):
    """The configured model's maker: a ``make_parametric`` partial, which
    pickles where a model does not."""
    kind = cfg.get(prefix, "gaussian-mean-scale")
    hyper = {}
    if f"{prefix}.scale" in cfg:
        hyper["scale"] = number_from_config(cfg, f"{prefix}.scale")
    if f"{prefix}.dim" in cfg:
        hyper["dim"] = _get_int(cfg, f"{prefix}.dim")
    if f"{prefix}.weights" in cfg:
        hyper["weights"] = tuple(_get_floats(cfg, f"{prefix}.weights"))
    return partial(make_parametric, kind, **hyper)


# Without grid.n, a divergence lays at least these nodes per axis on the union
# box of p's and q's supports, which is wider than either density needs.
WIDE_BOX_POINTS = {1: 2001, 2: 257, 3: 81}


def _density_pair(cfg):
    """p and q on one shared grid (union box of their model supports).

    When either comes from a grid file, the other is rendered on that file's
    box and node counts.  Pauses once every key is read, before rendering.
    """
    files = {s: read_grid(cfg[f"{s}.file"]) for s in "pq" if f"{s}.file" in cfg}
    models = {s: _model_maker(cfg, f"{s}.model")() for s in "pq" if s not in files}
    thetas = {s: _get_floats(cfg, f"{s}.theta", size=m.param_dim)
              for s, m in models.items()}
    dim_p, dim_q = ((files[s] if s in files else models[s]).dim for s in "pq")
    if dim_p != dim_q:
        raise StructuralError(f"p has dimension {dim_p} and q has dimension {dim_q}")
    if files:
        like = next(iter(files.values()))
        lo, hi, n = like.domain_lo, like.domain_hi, like.points_per_axis
    else:
        lo, hi = zip(*(models[s].support(thetas[s]) for s in "pq"))
        lo, hi = np.minimum(*lo), np.maximum(*hi)
        n = _get_int(cfg, "grid.n", max(WIDE_BOX_POINTS[lo.size],
                                        *(m.quad_points for m in models.values())))
    yield
    for s, model in models.items():
        files[s] = render_density(model, thetas[s], lo=lo, hi=hi, points_per_axis=n)
        _check_mass(files[s], s)
    return files["p"], files["q"]


def _check_mass(g, label):
    tol = default_tol(g.dim)
    mass = integrate(g)
    if abs(mass - 1.0) > 1e3 * tol:
        raise DegenerateInputError(
            f"{label} integrates to {mass!r}, outside 1 +- {1e3 * tol:g}")


def _fit_config(cfg, model_dim_k, default_init):
    return FitConfig(init_theta=_get_floats(cfg, "init", default_init, model_dim_k),
                     max_iters=_get_int(cfg, "max_iters", 2000),
                     grad_tol=number_from_config(cfg, "grad_tol", 1e-4),
                     step_tol=number_from_config(cfg, "step_tol", 1e-8),
                     polish=_get_bool(cfg, "polish", True))


# -- output helpers -----------------------------------------------------------------

def _files(header, rows, verdict, lines=()):
    """``results.csv`` (a header row, then the rows of cells) and
    ``report.txt`` (the verdict, then the report lines)."""
    return {"results.csv": "".join(",".join(row) + "\n" for row in [header, *rows]),
            "report.txt": "".join(line + "\n" for line in [verdict, *lines])}


def _plotdata(columns, rows, comment):
    """One curve file per sweep quantity; '#' lines document the columns."""
    return "".join([f"# {comment}\n", f"# columns: {','.join(columns)}\n",
                    ",".join(columns) + "\n",
                    *(",".join(_fmt(v) for v in row) + "\n" for row in rows)])


def _fit_files(result, theta_names, *lines):
    """Exit code and files of a fit: the fitted row, PASS when it converged."""
    header = [f"theta_{name}" for name in theta_names] \
        + ["objective", "iterations", "converged"]
    verdict = "PASS" if result.converged else "FAIL"
    return 0 if result.converged else 3, _files(
        header, [result.csv_row().split(",")], verdict,
        [f"theta_hat={list(map(float, result.theta_hat))!r}", *lines])


# -- commands --------------------------------------------------------------------------
#
# Each command is a generator: it reads every config key it uses, builds its
# inputs and pauses at one bare ``yield`` (its own or a helper's) while main
# checks for unread keys; resumed, it works without the config and yields its
# exit code and its files, {file name: text}.

def _cmd_divergence(cfg, seed, jobs):
    score = score_from_config(cfg)
    p, q = yield from _density_pair(cfg)
    value = divergence(score, p.normalize(), q.normalize())
    header = ["family", "gamma", "s_fg", "s_ff", "divergence"]
    row = [score.name, _fmt(score.gamma), _fmt(value.s_fg), _fmt(value.s_ff),
           _fmt(value.divergence)]
    yield 0, _files(header, [row], "PASS", [f"score {score.name} computed",
                                            f"divergence={value.divergence!r}"])


def _cmd_fit(cfg, seed, jobs):
    score = score_from_config(cfg)
    model = _model_maker(cfg)()
    if "data" in cfg:
        sample = read_samples(cfg["data"])
        default_init = None
    else:
        theta_true = _get_floats(cfg, "theta_true", size=model.param_dim)
        n = _get_int(cfg, "n", 1000)
        eps = number_from_config(cfg, "eps", 0.0)
        if eps > 0:
            sample = draw_contaminated_sample(model, theta_true, eps,
                                              _get_floats(cfg, "z"), n, seed)
        else:
            sample = draw_sample(model, theta_true, n, seed)
        default_init = theta_true
    fit_cfg = _fit_config(cfg, model.param_dim, default_init)
    yield
    result = fit(score, model, sample, fit_cfg)
    yield _fit_files(result, model.theta_names, f"objective={result.objective_value!r}",
                     f"iterations={result.iterations}")


def _cmd_regress(cfg, seed, jobs):
    gamma = number_from_config(cfg, "gamma")
    kappa = number_from_config(cfg, "kappa")
    noise_val = None if cfg.get("noise", "fit") == "fit" else number_from_config(cfg, "noise")
    x_dim = _get_int(cfg, "x_dim", 1)
    cmodel = make_conditional("linear-gaussian", x_dim=x_dim, noise=noise_val)
    if "data" in cfg:
        sample = read_samples(cfg["data"])
        if sample.covariates is None:
            raise ConfigError("regression data must carry x columns")
        default_init = None
    else:
        a = _get_floats(cfg, "a", size=x_dim)
        b = number_from_config(cfg, "b")
        s = number_from_config(cfg, "s", 1.0)
        n = _get_int(cfg, "n", 500)
        rng = rng_for(seed, 1)
        x = rng.uniform(number_from_config(cfg, "x.lo", -3.0),
                        number_from_config(cfg, "x.hi", 3.0), size=(n, x_dim))
        y = x @ a + b + s * rng.standard_normal(n)
        out_eps = number_from_config(cfg, "outlier.eps", 0.0)
        if out_eps > 0:
            y = np.where(rng.random(n) < out_eps, number_from_config(cfg, "outlier.y"), y)
        sample = Sample(points=y, covariates=x)
        default_init = np.concatenate([a, [b]] + ([] if noise_val else [[s]]))
    fit_cfg = _fit_config(cfg, cmodel.param_dim, default_init)
    yield
    yield _fit_files(fit_regression(gamma, kappa, cmodel, sample, fit_cfg),
                     cmodel.theta_names)


def _random_gaussian_pair(dim, n, rng):
    """Two random axis-aligned Gaussians, normalized on the box [-14, 14]^dim."""
    model = make_parametric("gaussian-full-d", dim=dim)
    means = rng.uniform(-1.5, 1.5, size=(2, dim))
    scales = rng.uniform(0.7, 1.6, size=(2, dim))
    lo, hi = np.full(dim, -14.0), np.full(dim, 14.0)
    chol = np.tril_indices(dim)
    return tuple(render_density(model, np.concatenate([m, np.diag(s)[chol]]), lo, hi, n)
                 .normalize() for m, s in zip(means, scales))


def _cmd_invariance(cfg, seed, jobs):
    score = score_from_config(cfg)
    if score.affine_scale_exponent is None:
        raise UnsupportedFamilyError(
            f"{score.name} has no exact scale law; use the holder or kl family")
    # d is set by sigma's d*d row-major values, else by mu's size, else 1
    mu_size = _get_floats(cfg, "mu", []).size
    sigma = _get_floats(cfg, "sigma", np.eye(max(mu_size, 1)))
    d = math.isqrt(sigma.size)
    if d < 1 or d * d != sigma.size:
        raise ConfigError(f"config key 'sigma' needs d*d row-major values, got {sigma.size}")
    amap = AffineMap(sigma=sigma.reshape(d, d), mu=_get_floats(cfg, "mu", np.zeros(d), d))
    pairs = _get_int(cfg, "pairs", 5)
    if pairs < 1:
        raise ConfigError(f"config key 'pairs' must be at least 1, got {pairs}")
    n = _get_int(cfg, "grid.n", 1201 if d == 1 else 81)
    tol = number_from_config(cfg, "tol", 1e-5)
    if not 0 < tol < math.inf:
        raise ConfigError(f"config key 'tol' must be finite and positive, got {tol!r}")
    yield
    h = abs(amap.det_sigma) ** (-score.affine_scale_exponent)
    rows = []
    worst = 0.0
    for i in range(pairs):
        rng = rng_for(seed, 7, i)
        p, q = _random_gaussian_pair(d, n, rng)
        raw = divergence(score, p, q)
        mapped = divergence(score, transform_density(p, amap), transform_density(q, amap))
        residual = invariance_residual(raw, mapped, h)
        worst = max(worst, residual)
        rows.append([str(i), _fmt(amap.det_sigma), _fmt(h), _fmt(raw.divergence),
                     _fmt(mapped.divergence), _fmt(residual)])
    verdict = "PASS" if worst < tol else "FAIL"
    yield 0 if verdict == "PASS" else 3, _files(
        ["pair", "det", "h", "d_raw", "d_mapped", "residual"], rows, verdict,
        [f"max residual {worst!r} against tolerance {tol!r}"])


def _robustness_inputs(cfg):
    """``(gamma, model, theta_star, phi)``, read by influence and redescend."""
    gamma = number_from_config(cfg, "gamma")
    model = _model_maker(cfg)()
    theta_star = _get_floats(cfg, "theta_star", size=model.param_dim)
    return gamma, model, theta_star, phi_from_config(cfg, gamma)


def _influence_table(cfg, sweep=False):
    """IF(z) at the ';'-separated csv points of ``z``, or else along the
    default ray of ``z.count`` points out to ``z.max`` sixteenths of the box.
    Pauses once every key is read, and for a ``sweep`` once it has at least
    2 points; returns the influence curve with the header and rows of its
    results.csv."""
    gamma, model, theta_star, phi = _robustness_inputs(cfg)
    if "z" in cfg:
        z_grid = [_parse_floats("z", part) for part in cfg["z"].split(";") if part.strip()]
        if not z_grid or any(z.size != model.dim for z in z_grid):
            raise ConfigError(f"config key 'z' must list ';'-separated points "
                              f"of {model.dim} coordinates")
        ray = {}
    else:
        z_grid, ray = None, {"n_z": _get_int(cfg, "z.count", 50),
                             "max_sd": number_from_config(cfg, "z.max", 12.0)}
    if sweep and (ray["n_z"] if z_grid is None else len(z_grid)) < 2:
        raise DegenerateInputError("influence sweep needs at least 2 z-values")
    yield
    curve = influence_curve(phi, gamma, model, theta_star, z_grid=z_grid, **ray)
    header = [f"z{i + 1}" for i in range(model.dim)] \
        + [f"if_{i + 1}" for i in range(curve[0].if_vector.size)] + ["if_norm"]
    table = [[_fmt(v) for v in np.concatenate([res.z, res.if_vector, [res.norm]])]
             for res in curve]
    return curve, header, table


def _cmd_influence(cfg, seed, jobs):
    curve, header, table = yield from _influence_table(cfg)
    yield 0, _files(header, table, "PASS", [f"{len(curve)} influence evaluations"])


def _cmd_redescend(cfg, seed, jobs):
    gamma, model, theta_star, phi = _robustness_inputs(cfg)
    n_z, max_sd = _get_int(cfg, "z.count", 25), number_from_config(cfg, "z.max", 12.0)
    yield
    report = redescend_check(phi, gamma, model, theta_star, n_z=n_z, max_sd=max_sd)
    header = ["condition_met", "phi_d2_at_1", "limit_estimate", "max_tail", "last_tail"]
    row = [str(report.condition_met).lower(), _fmt(report.phi_d2_at_1),
           _fmt(report.limit_estimate), _fmt(report.max_tail),
           _fmt(report.tail_norms[-1][1])]
    yield 3 if report.verdict == "FAIL" else 0, _files(
        header, [row], report.verdict, str(report).splitlines()[1:])


# -- sweeps ------------------------------------------------------------------------------

def _contamination_bias(make_model, theta_true, z, gamma, eps, family):
    """Population mean-bias of one family under eps-contamination at z.  A
    model does not pickle, so a ``--jobs`` worker gets its maker instead."""
    model = make_model()
    p_eps = contaminate(model, theta_true, eps, z)
    score = KL() if family == "kl" else GammaScore(gamma)
    fit_cfg = FitConfig(init_theta=theta_true, step_tol=1e-9, grad_tol=1e-2)
    res = population_fit(score, model, p_eps, fit_cfg)
    return float(res.theta_hat[0] - theta_true[0])


def _sweep_files(columns, curves, comment):
    """Exit code and files of a sweep over families: one results.csv row per
    point of each ``(family, [(x, y), ...])`` curve, and one plotdata file per
    family, documented by ``comment`` with the family put in its ``{}``."""
    results = [[fam, _fmt(x), _fmt(y)] for fam, rows in curves for x, y in rows]
    files = _files(["family", *columns], results, "PASS", [f"{len(results)} sweep rows"])
    for fam, rows in curves:
        files[f"plotdata_{fam}.csv"] = _plotdata(columns, rows, comment.format(fam))
    return 0, files


def _cmd_sweep(cfg, seed, jobs):
    kind = cfg.get("sweep.kind")
    if kind == "influence-z":
        curve, header, table = yield from _influence_table(cfg, sweep=True)
        yield 0, {**_files(header, table, "PASS", [f"{len(curve)} sweep rows"]),
                  "plotdata_if_norm.csv": _plotdata(
                      ["z_norm", "if_norm"],
                      [(float(np.linalg.norm(res.z)), res.norm) for res in curve],
                      "influence norm against contamination distance")}
    elif kind == "divergence-gamma":
        gammas = _get_floats(cfg, "gammas")
        families = [f.strip() for f in cfg.get("families", "gamma").split(",")]
        if gammas.size < 2:
            raise DegenerateInputError("gamma sweep needs at least 2 values")
        # family and gamma come from the sweep; phi, kappa and c from cfg
        scores = [(fam, [score_from_config(ChainMap({"family": fam, "gamma": repr(float(g))},
                                                    cfg)) for g in gammas])
                  for fam in families]
        p, q = yield from _density_pair(cfg)
        p, q = p.normalize(), q.normalize()
        curves = [(fam, [(float(g), divergence(score, p, q).divergence)
                         for g, score in zip(gammas, row)]) for fam, row in scores]
        yield _sweep_files(["gamma", "divergence"], curves,
                           "{} divergence for the configured pair")
    elif kind == "contamination":
        eps_values = _get_floats(cfg, "eps.values")
        if eps_values.size < 2:
            raise DegenerateInputError("contamination sweep needs at least 2 levels")
        make_model = _model_maker(cfg)
        model = make_model()
        theta_true = _get_floats(cfg, "theta_true", size=model.param_dim)
        z = _get_floats(cfg, "z", [10.0])
        for eps in eps_values:
            check_contamination(model, eps, z)
        gamma = number_from_config(cfg, "gamma", 0.5)
        yield
        families = ("gamma-score", "kl")
        tasks = [(float(eps), fam) for fam in families for eps in eps_values]
        fixed = (make_model, theta_true, z, gamma)
        args = (*([v] * len(tasks) for v in fixed), *zip(*tasks))
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                biases = list(pool.map(_contamination_bias, *args))
        else:
            biases = list(map(_contamination_bias, *args))
        curves = [(fam, [(eps, bias) for (eps, f), bias in zip(tasks, biases) if f == fam])
                  for fam in families]
        yield _sweep_files(["eps", "mean_bias"], curves,
                           "population mean bias under point contamination")
    else:
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
        print(__doc__)
        return 0 if argv else 64
    command = argv[0]
    if command not in _RUNNERS:
        print(__doc__)
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
        run = _RUNNERS[command](cfg, seed, max(1, args.jobs))
        next(run)  # every key is read: check before any work is done
        unread = sorted(cfg.keys() - cfg.read)
        if unread:
            raise ConfigError(f"holder {command} never reads config key(s) "
                              f"{', '.join(map(repr, unread))}: misspelt, or "
                              f"overridden by another input")
        code, files = next(run)
        os.makedirs(args.out, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(args.out, name), "w") as fh:
                fh.write(text)
        return code
    except (ConfigError, StructuralError, DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateInputError, SingularHessianError, UnsupportedFamilyError,
            HolderError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
