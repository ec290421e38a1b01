"""Affine maps of outcomes and densities, scale functions, invariance checks.

The data map is x -> sigma^-1 (x - mu) for an invertible matrix sigma; it
pushes a density p forward to p_A(x) = |det sigma| p(sigma x + mu).  Holder
divergences react to this map by a pure rescaling,

    D(p_A, q_A) = |det sigma|^gamma D(p, q),

so multiplying by the scale function h = |det sigma|^-gamma restores the raw
value exactly; the KL divergence is invariant with h = 1.  Families outside
that exact law still scale by some power of |det sigma|, which
:func:`fit_scale_exponent` estimates empirically instead of assuming.

On a grid the pushforward is exact: :func:`transform_density` scales the
values by |det sigma| and composes the map with the grid's affine frame, so
the quadrature sums obey the same law to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, StructuralError, UnsupportedFamilyError
from .grids import GridDensity
from .scores import divergence

_MIN_DET = 1e-12


@dataclass(frozen=True)
class AffineMap:
    """Invertible affine data map x -> sigma^-1 (x - mu)."""

    sigma: np.ndarray
    mu: np.ndarray
    det_sigma: float = field(init=False)

    def __post_init__(self):
        sig = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        for name, arr in (("sigma", sig), ("mu", mu)):
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} must be finite")
        if sig.shape[0] != sig.shape[1]:
            raise DomainError("sigma must be square")
        if mu.size != sig.shape[0]:
            raise DomainError("mu length must match sigma")
        det = float(np.linalg.det(sig))
        if abs(det) <= _MIN_DET:
            raise DomainError(f"sigma is numerically singular (det = {det:.3e})")
        for arr in (sig, mu):
            arr.setflags(write=False)
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "det_sigma", det)

    @property
    def dim(self):
        return self.mu.size

    def apply(self, points):
        """Map data points: sigma^-1 (x - mu), rows of an (n, d) array."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.solve(self.sigma, (pts - self.mu).T).T

    def apply_inverse(self, points):
        """Undo the data map: sigma x + mu."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.sigma.T + self.mu

    def inverse(self):
        inv = np.linalg.inv(self.sigma)
        return AffineMap(sigma=inv, mu=-inv @ self.mu)

    def compose(self, inner):
        """The map applying ``inner`` first, then this map."""
        return AffineMap(sigma=inner.sigma @ self.sigma,
                         mu=inner.mu + inner.sigma @ self.mu)


def transform_density(f, amap):
    """Push a grid density through an affine data map, exactly.

    Returns |det sigma| times f's values on f's lattice, in the frame that
    applies f's frame and then the map: node v moves to sigma^-1 (sigma_f v
    + mu_f - mu), where p_A = |det sigma| p(sigma x + mu) takes f's value at
    v.  The weights shrink by |det sigma| as the values grow by it, so every
    moment sum scales exactly and nothing is resampled.
    """
    if amap.dim != f.dim:
        raise StructuralError(f"a {amap.dim}-dimensional map cannot move a "
                              f"{f.dim}-dimensional density")
    sigma, mu = f.frame
    frame = np.linalg.solve(amap.sigma, sigma), amap.apply(mu)[0]
    return GridDensity(f.domain_lo, f.domain_hi, f.values * abs(amap.det_sigma), frame)


def scale_function(gamma, amap):
    """h(sigma, mu) = |det sigma|^-gamma; equals 1 at gamma = 0 (KL case)."""
    if gamma < 0:
        raise DomainError("scale exponent gamma must be nonnegative")
    return abs(amap.det_sigma) ** (-gamma)


def verify_invariance(score, p, q, amap):
    """Relative residual of h * D(p_A, q_A) = D(p, q).

    Only the families with an exact scale law expose an
    ``affine_scale_exponent`` (the phi-shaped family and KL); for the others
    use :func:`fit_scale_exponent`.
    """
    exponent = score.affine_scale_exponent
    if exponent is None:
        raise UnsupportedFamilyError(
            f"{score.name} has no exact scale law; estimate one with fit_scale_exponent")
    raw = divergence(score, p, q)
    mapped = divergence(score, transform_density(p, amap), transform_density(q, amap))
    return invariance_residual(raw, mapped, abs(amap.det_sigma) ** (-exponent))


def invariance_residual(raw, mapped, h):
    """Relative residual |h D_mapped - D_raw| / |D_raw| of two
    :class:`~holderscores.scores.ScoreValue` comparisons, less the rounding
    of their two differences D = S(p, q) - S(p, p),
    4 eps (|s_fg| + |s_ff| + h (|s_fg'| + |s_ff'|)), and never below 0.

    Two densities that agree to rounding have a D that is rounding noise,
    which no scale law governs; the floor keeps that noise out of the
    residual.  |D_raw| below 1e-12 counts as 1e-12.
    """
    gap = abs(h * mapped.divergence - raw.divergence)
    noise = 4 * np.finfo(float).eps * (abs(raw.s_fg) + abs(raw.s_ff)
                                       + h * (abs(mapped.s_fg) + abs(mapped.s_ff)))
    return max(gap - noise, 0.0) / max(abs(raw.divergence), 1e-12)


@dataclass(frozen=True)
class ScaleFitReport:
    """Empirically fitted divergence-scale exponent e in h = |det sigma|^-e."""

    exponent: float
    per_map: tuple
    spread: float


def fit_scale_exponent(score, p, q, maps):
    """Regress log D(p_A, q_A) - log D(p, q) on log |det sigma|.

    The per-map implied exponents and their spread quantify how constant the
    scale law is; a small spread certifies invariance in the sense of a
    well-defined scale function for this family.
    """
    d_raw = divergence(score, p, q).divergence
    if d_raw <= 0:
        raise DomainError("need distinct densities with positive divergence")
    xs, ys, per_map = [], [], []
    for amap in maps:
        logdet = np.log(abs(amap.det_sigma))
        if abs(logdet) < 1e-6 and amap.dim == p.dim:
            continue  # |det| = 1 carries no information about the exponent
        p_a = transform_density(p, amap)
        q_a = transform_density(q, amap)
        d_mapped = divergence(score, p_a, q_a).divergence
        y = np.log(d_mapped) - np.log(d_raw)
        xs.append(logdet)
        ys.append(y)
        per_map.append(y / logdet)
    if not xs:
        raise DomainError("all maps have |det sigma| = 1; vary the determinant")
    xs, ys = np.asarray(xs), np.asarray(ys)
    exponent = float(xs @ ys / (xs @ xs))
    return ScaleFitReport(exponent=exponent, per_map=tuple(per_map),
                          spread=float(np.max(per_map) - np.min(per_map)))


@dataclass(frozen=True)
class EquivarianceReport:
    """Two fits, raw and transformed, compared after the parameter pushforward."""

    theta_raw: np.ndarray
    theta_transformed: np.ndarray
    theta_mapped: np.ndarray
    discrepancy: float
    tolerance: float
    passed: bool
    converged_raw: bool
    converged_transformed: bool

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict}: |push(theta_raw) - theta_transformed| = "
                f"{self.discrepancy:.3e} (tolerance {self.tolerance:.1e})")


def verify_estimator_equivariance(score, model, sample, amap, cfg):
    """Fit on raw and on transformed data; compare through the pushforward.

    The transformed fit uses the same family with the initial point mapped
    alongside the data.  Non-convergence is reported in the flags rather than
    raised.  Passes when the parameter-space discrepancy stays below ten times
    the optimizer step tolerance.
    """
    from .estimators import fit  # local import to avoid a cycle
    from .models import Sample

    if model.push_params is None:
        raise UnsupportedFamilyError(
            f"{model.name} is not closed under affine reparameterization")
    # the start is pushed first: a map the family is not closed under raises
    # before any fit
    cfg_mapped = replace(cfg, init_theta=model.push_params(
        np.asarray(cfg.init_theta, dtype=float), amap.sigma, amap.mu))
    fit_raw = fit(score, model, sample, cfg)
    fit_mapped = fit(score, model, Sample(points=amap.apply(sample.points)), cfg_mapped)
    pushed = model.push_params(fit_raw.theta_hat, amap.sigma, amap.mu)
    disc = float(np.max(np.abs(pushed - fit_mapped.theta_hat)))
    tol = 10.0 * cfg.step_tol
    return EquivarianceReport(
        theta_raw=fit_raw.theta_hat,
        theta_transformed=fit_mapped.theta_hat,
        theta_mapped=pushed,
        discrepancy=disc,
        tolerance=tol,
        passed=bool(disc <= tol and fit_raw.converged and fit_mapped.converged),
        converged_raw=fit_raw.converged,
        converged_transformed=fit_mapped.converged,
    )
