"""Affine maps of outcomes and densities, scale functions, invariance checks.

The data map is x -> sigma^-1 (x - mu) for an invertible matrix sigma; it
pushes a density p forward to p_A(x) = |det sigma| p(sigma x + mu).  Holder
divergences react to this map by a pure rescaling,

    D(p_A, q_A) = |det sigma|^gamma D(p, q),

so multiplying by the scale function h = |det sigma|^-gamma restores the raw
value exactly; the KL divergence is invariant with h = 1.  Families outside
that exact law still scale by some power of |det sigma|, which
:func:`fit_scale_exponent` estimates empirically instead of assuming.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, UnsupportedFamilyError
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

    @classmethod
    def from_config(cls, text):
        """Parse ``sigma=<row-major csv>; mu=<csv>``."""
        fields = {}
        for part in str(text).split(";"):
            key, _, val = part.strip().partition("=")
            if key:
                fields[key.strip()] = val.strip()
        try:
            mu = np.array([float(v) for v in fields["mu"].split(",")])
            raw = np.array([float(v) for v in fields["sigma"].split(",")])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"malformed affine spec {text!r}") from exc
        d = mu.size
        if raw.size != d * d:
            raise ConfigError(f"sigma needs {d * d} row-major entries for d={d}")
        return cls(sigma=raw.reshape(d, d), mu=mu)


def transform_density(f, amap):
    """Push a grid density through an affine data map.

    Returns |det sigma| f(sigma x + mu) resampled on the axis-aligned bounding
    box of the mapped support, with f's node counts.  Resampling interpolates
    the stored values (cubic splines where :meth:`GridDensity.interpolator`
    has them, multilinear otherwise) and clips the tiny negative undershoots
    interpolation can produce.  Mass is preserved up to interpolation error.
    """
    corners = np.stack(np.meshgrid(*zip(f.domain_lo, f.domain_hi), indexing="ij"),
                       axis=-1).reshape(-1, f.dim)
    mapped = amap.apply(corners)
    lo, hi = mapped.min(axis=0), mapped.max(axis=0)
    interp = f.interpolator("cubic")

    def values(pts):
        return np.clip(interp(amap.apply_inverse(pts)), 0.0, None) * abs(amap.det_sigma)

    return GridDensity.from_callable(values, lo, hi, f.points_per_axis)


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
    d_raw = divergence(score, p, q).divergence
    p_a = transform_density(p, amap)
    q_a = transform_density(q, amap)
    d_mapped = divergence(score, p_a, q_a).divergence
    h = abs(amap.det_sigma) ** (-exponent)
    return abs(h * d_mapped - d_raw) / max(abs(d_raw), 1e-12)


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
        if abs(logdet) < 1e-6:
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
    cfg_mapped = cfg.replace(init_theta=model.push_params(
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
