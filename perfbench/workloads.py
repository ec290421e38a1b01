"""The three benchmark workloads: inputs drawn from a seed, one op, one check.

Each workload is a closed loop: the next op starts when the previous one has
returned.  ``prepare(i)`` builds the inputs of op ``i`` from the seed (op 0
is the untimed warm-up), ``op`` calls the library, and ``check`` says whether
the result is correct.  With a tracer, the workload wraps the objects it
builds so that spans record each call into a layer.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from holderscores import (FitConfig, GammaScore, HolderScore, KL, draw_sample,
                          fit, make_parametric, phi_cubic_tail, phi_kappa,
                          population_fit, render_density, rng_for)
from holderscores.cli import main as cli_main

from tracing import TracedScore, traced_model

# criterion-5 parameters of the 2-D full Gaussian; each op perturbs them
THETA_2D = np.array([0.2, -0.1, 1.1, 0.3, 0.8])
_THETA_2D_JITTER = np.array([0.05, 0.05, 0.025, 0.025, 0.025])


def rotation_shear(angle, shear):
    """Rotation by ``angle`` after a shear: a 2x2 matrix with determinant 1."""
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    return rot @ np.array([[1.0, shear], [0.0, 1.0]])


def _traced(model, families, tracer):
    if tracer is None:
        return model, families
    return traced_model(model, tracer), [TracedScore(s, tracer) for s in families]


class PopfitQuad:
    """Population fits of the 2-D full Gaussian on its 257 x 257 grid.

    Each fit is ~600 objective evaluations, each two quadrature moments at
    66,049 nodes, so the time goes to rendering, the model density and the
    moment sums.  Op = one fit; the score family cycles with the op index.
    """

    name = "popfit-quad"
    op_span = "estimators.population_fit"

    def __init__(self, seed, tracer=None):
        self.seed = seed
        self.truth = make_parametric("gaussian-full-d", dim=2)
        self.model, self.families = _traced(
            self.truth, [GammaScore(0.5), HolderScore(phi_kappa(0.5, 1.5)), KL()], tracer)

    def prepare(self, i):
        theta = THETA_2D + _THETA_2D_JITTER * rng_for(self.seed, i).uniform(-1, 1, 5)
        cfg = FitConfig(init_theta=theta * 1.05 + 0.02, step_tol=1e-9,
                        grad_tol=1e-2, polish=True)
        return self.families[i % 3], theta, render_density(self.truth, theta), cfg

    def op(self, inputs):
        score, _, p_true, cfg = inputs
        return population_fit(score, self.model, p_true, cfg)

    def check(self, inputs, result):
        # the criterion-5 tolerance
        return bool(result.converged
                    and np.max(np.abs(result.theta_hat - inputs[1])) < 1e-4)

    def digest(self, inputs):
        return _digest(inputs[1].tobytes())


class McEmpirical:
    """Criterion-8-style Monte Carlo: empirical fits on n = 2000 draws.

    Each evaluation costs ~0.15 ms: a 2001-node render, the density at the
    sample points and the optimizer's own Python overhead; there is no large
    grid.  Replicate r draws one sample and fits both shape functions to it,
    so op i is shape function i % 2 on replicate i // 2.
    """

    name = "mc-empirical"
    op_span = "estimators.fit"
    n = 2000

    def __init__(self, seed, tracer=None):
        self.seed = seed
        self.truth = make_parametric("gaussian-mean-scale")
        self.theta = np.array([0.0, 1.0])
        self.model, self.families = _traced(
            self.truth, [HolderScore(phi_kappa(0.5, 1.0)),
                         HolderScore(phi_cubic_tail(0.5, 0.5))], tracer)
        self.cfg = FitConfig(init_theta=self.theta, step_tol=1e-7, grad_tol=1e-2,
                             polish=True)
        self._replicate = (None, None)

    def prepare(self, i):
        r = i // 2
        if self._replicate[0] != r:
            self._replicate = (r, draw_sample(self.truth, self.theta, self.n,
                                              rng_for(self.seed, r)))
        return self.families[i % 2], self._replicate[1]

    def op(self, inputs):
        score, sample = inputs
        return fit(score, self.model, sample, self.cfg)

    def check(self, inputs, result):
        return bool(result.converged and np.all(np.isfinite(result.theta_hat)))

    def digest(self, inputs):
        return _digest(inputs[1].points.tobytes())


def cli_commands(seed):
    """The fixed command mix of one CLI round, with values drawn from the seed.

    Every command is expected to exit 0 with ``PASS`` on the first line of
    ``report.txt``.
    """
    rng = rng_for(seed, 1)
    u = rng.uniform

    def csv(*values):
        return ",".join(repr(float(v)) for v in values)

    sigma = rotation_shear(u(0.2, 1.2), u(0.2, 0.6)) * u(0.8, 1.5)
    m, s = u(-0.5, 0.5), u(0.8, 1.25)
    theta_2d = THETA_2D + _THETA_2D_JITTER * u(-1, 1, 5)
    commands = {
        "redescend": ["gamma=0.5", "phi=kappa", "kappa=1", "model=gaussian-full-d",
                      "model.dim=2", f"theta_star={csv(*theta_2d)}"],
        "regress": ["gamma=0.5", "kappa=1", f"a={csv(u(0.8, 1.6))}",
                    f"b={csv(u(-1, 1))}", "s=0.5", "n=500", "outlier.eps=0.1",
                    f"outlier.y={csv(u(8, 12))}"],
        "invariance": ["family=holder", "phi=kappa", "kappa=1", "gamma=0.5",
                       f"sigma={csv(*sigma.ravel())}", f"mu={csv(u(-1, 1), u(-1, 1))}"],
        "sweep": ["sweep.kind=contamination", "model=gaussian-mean",
                  f"theta_true={csv(m)}", f"z={csv(m + u(8, 12))}", "gamma=0.5",
                  "eps.values=0,0.1,0.2"],
        "influence": ["gamma=0.5", "phi=kappa", "kappa=1", "model=gaussian-mean-scale",
                      f"theta_star={csv(m, s)}", "z.count=50"],
        "fit": ["model=gaussian-mean-scale", "family=gamma", "gamma=0.5",
                f"theta_true={csv(m, s)}", "n=4000", "eps=0.1", f"z={csv(m + 8 * s)}"],
        "divergence": ["family=holder", "phi=kappa", "kappa=1.5", "gamma=0.5",
                       f"p.theta={csv(m, s)}",
                       f"q.theta={csv(m + u(0.2, 1), s * u(1.1, 1.5))}"],
    }
    argvs = {}
    for name, sets in commands.items():
        argv = [name]
        for item in sets:
            argv += ["--set", item]
        argvs[name] = argv + ["--seed", str(seed), "--jobs", "1"]
    return argvs


class CliDiagnostics:
    """In-process ``holderscores.cli.main`` over a fixed command mix.

    The only workload in which robustness (Hessian and influence solves),
    affine resampling and the conditional-model objective do most of the
    work.  Op = one round of every command, each writing to a fresh
    ``--out``; the outputs must match the warm-up round byte for byte.
    """

    name = "cli-diagnostics"
    op_span = "bench.round"

    def __init__(self, seed, workdir, tracer=None):
        self.seed = seed
        self.argvs = cli_commands(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tracer = tracer
        self.reference = None
        self.rounds = []          # per round: {command: (exit code, verdict, digest, bytes)}

    def prepare(self, i):
        return self.argvs

    def op(self, argvs):
        outs = {}
        for name, argv in argvs.items():
            out = tempfile.mkdtemp(prefix=f"{name}-", dir=self.workdir)
            with self.tracer.span(f"cli.{name}") if self.tracer else nullcontext():
                outs[name] = (cli_main(argv + ["--out", out]), out)
        return outs

    def check(self, argvs, outs):
        row = {}
        for name, (code, out) in outs.items():
            files = sorted(Path(out).iterdir())
            blobs = [(f.name, f.read_bytes()) for f in files]
            shutil.rmtree(out)
            report = dict(blobs).get("report.txt", b"")
            verdict = report.split(b"\n", 1)[0].decode()
            h = hashlib.sha256()
            for fname, data in blobs:
                h.update(fname.encode() + b"\0" + data + b"\0")
            row[name] = (code, verdict, h.hexdigest(), sum(len(d) for _, d in blobs))
        self.rounds.append(row)
        if self.reference is None:
            self.reference = {k: v[2] for k, v in row.items()}
        return all(code == 0 and verdict == "PASS" and digest == self.reference[name]
                   for name, (code, verdict, digest, _) in row.items())

    def digest(self, argvs):
        return _digest(repr(sorted(argvs.items())).encode())


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


WORKLOADS = {cls.name: cls for cls in (PopfitQuad, McEmpirical, CliDiagnostics)}
