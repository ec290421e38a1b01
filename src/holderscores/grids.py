"""Densities on tensor-product grids and the quadrature behind every integral.

Every integral in this package is a Lebesgue integral over a rectangular box,
realized as tensor-product trapezoid quadrature on uniform per-axis grids.
A :class:`GridDensity` bundles the box, the sampled nonnegative values and the
matching quadrature weights; the free functions below compute the handful of
integral shapes the score families need: ``<f>``, ``<f^a>`` and ``<f g^a>``.

Grids are immutable after construction.  Operations return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline, RegularGridInterpolator

from .errors import DomainError, StructuralError

MAX_DIM = 3

_DEFAULT_TOL = {1: 1e-8, 2: 1e-6, 3: 1e-4}


def default_tol(dim):
    """Absolute integration tolerance used by validity checks at dimension d."""
    if dim not in _DEFAULT_TOL:
        raise DomainError(f"unsupported dimension {dim}; grids cover d <= {MAX_DIM}")
    return _DEFAULT_TOL[dim]


def _box_quadrature(lo, hi, shape):
    """The tensor trapezoid rule on the box [lo, hi] with ``shape`` nodes.

    Returns the per-axis node vectors and the weights as an array of
    ``shape``; every quadrature weight in the package comes from here.
    """
    if len(shape) != len(lo):
        raise StructuralError(f"{len(shape)} node counts for a {len(lo)}-dimensional box")
    if any(n < 2 for n in shape):
        raise StructuralError("need at least 2 points per axis")
    axes, per_axis = [], []
    for a, b, n in zip(lo, hi, shape):
        axes.append(np.linspace(a, b, n))
        w = np.full(n, (b - a) / (n - 1))
        w[0] = w[-1] = w[0] / 2.0
        per_axis.append(w)
    return axes, reduce(np.multiply.outer, per_axis)


def _tensor_nodes(axes):
    """All nodes of the tensor grid over ``axes`` as an (N, d) array.

    Rows run in row-major grid order; the array is Fortran-ordered so each
    coordinate column is contiguous.
    """
    shape = tuple(ax.size for ax in axes)
    nodes = np.empty((int(np.prod(shape)), len(axes)), order="F")
    for i, ax in enumerate(axes):
        bshape = [1] * len(axes)
        bshape[i] = ax.size
        nodes[:, i].reshape(shape)[...] = ax.reshape(bshape)
    return nodes


class FlatGrid(NamedTuple):
    """A grid's quadrature as flat arrays: ``<h> = sum(weights * h(nodes))``."""

    nodes: np.ndarray      # (N, d), Fortran order
    weights: np.ndarray    # (N,)
    values: np.ndarray     # (N,)


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative function sampled on a uniform tensor grid.

    Parameters
    ----------
    domain_lo, domain_hi : array_like, shape (d,)
        Per-axis bounds of the box, ``lo < hi`` elementwise.
    values : ndarray
        Nonnegative samples on the tensor grid, shape ``(n_1, ..., n_d)`` in
        row-major axis order.  At least one value must be positive and at
        least two points per axis are required.

    Notes
    -----
    Quadrature weights are derived on construction (per-axis trapezoid rule,
    combined by outer product) and always sum to the Lebesgue volume of the
    box.  Values and weights are frozen; callers receive views with the
    writeable flag cleared.
    """

    domain_lo: np.ndarray
    domain_hi: np.ndarray
    values: np.ndarray
    points_per_axis: tuple = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.domain_lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.domain_hi, dtype=float))
        vals = np.asarray(self.values, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise StructuralError("domain_lo and domain_hi must be 1-d vectors of equal length")
        d = lo.size
        if d < 1 or d > MAX_DIM:
            raise DomainError(f"dimension {d} outside supported range 1..{MAX_DIM}")
        if vals.ndim != d:
            raise StructuralError(f"values has {vals.ndim} axes but the domain is {d}-dimensional")
        if not np.all(hi > lo):
            raise DomainError("domain_hi must exceed domain_lo on every axis")
        if not np.all(np.isfinite(vals)):
            raise DomainError("values must be finite")
        if np.any(vals < 0):
            raise DomainError("values must be nonnegative")
        if not np.any(vals > 0):
            raise DomainError("at least one value must be positive (zero function excluded)")

        _, w = _box_quadrature(lo, hi, vals.shape)

        for arr in (lo, hi, vals, w):
            arr.setflags(write=False)
        object.__setattr__(self, "domain_lo", lo)
        object.__setattr__(self, "domain_hi", hi)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "points_per_axis", tuple(vals.shape))
        object.__setattr__(self, "weights", w)

    # -- geometry ---------------------------------------------------------

    @property
    def dim(self):
        return self.domain_lo.size

    def axes(self):
        """Per-axis coordinate vectors."""
        return tuple(np.linspace(self.domain_lo[i], self.domain_hi[i], n)
                     for i, n in enumerate(self.points_per_axis))

    def cell_widths(self):
        return (self.domain_hi - self.domain_lo) / (np.array(self.points_per_axis) - 1)

    @cached_property
    def flat(self):
        """Nodes, weights and values as a read-only :class:`FlatGrid`.

        Built on first use and cached, so a fit against a fixed data grid
        lays out its nodes once.
        """
        nodes = _tensor_nodes(self.axes())
        nodes.setflags(write=False)
        return FlatGrid(nodes, self.weights.ravel(), self.values.ravel())

    def points(self):
        """All grid nodes as a read-only (N, d) array in row-major grid order."""
        return self.flat.nodes

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_callable(cls, fn, lo, hi, points_per_axis):
        """Sample ``fn`` on the tensor grid of the box [lo, hi].

        ``fn`` receives an (N, d) array of points and must return N values.
        """
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if np.isscalar(points_per_axis) or np.ndim(points_per_axis) == 0:
            points_per_axis = (int(points_per_axis),) * lo.size
        shape = tuple(int(n) for n in points_per_axis)
        pts = _tensor_nodes(_box_quadrature(lo, hi, shape)[0])
        vals = np.asarray(fn(pts), dtype=float).reshape(shape)
        return cls(lo, hi, vals)

    def with_values(self, values):
        """New density on the same box with replaced values."""
        return GridDensity(self.domain_lo, self.domain_hi, values)

    def normalize(self):
        """Rescale so the quadrature integral is exactly 1."""
        total = integrate(self)
        if total <= 0:
            raise DomainError("cannot normalize a density with vanishing mass")
        return self.with_values(self.values / total)

    def interpolator(self, method="linear"):
        """Interpolant over the box, zero outside; callable on (N, d) points.

        ``cubic`` uses genuine interpolating splines (node-exact, O(h^4)
        error); it is available for d <= 2 and needs 4+ points per axis,
        falling back to multilinear otherwise.
        """
        axes = self.axes()
        if method == "cubic" and self.dim <= 2 and min(self.points_per_axis) >= 4:
            if self.dim == 1:
                spline = CubicSpline(axes[0], self.values, extrapolate=False)

                def evaluate(pts):
                    out = spline(np.asarray(pts, dtype=float)[:, 0])
                    return np.nan_to_num(out, nan=0.0, copy=False)
            else:
                spline = RectBivariateSpline(axes[0], axes[1], self.values,
                                             kx=3, ky=3, s=0)

                def evaluate(pts):
                    pts = np.asarray(pts, dtype=float)
                    out = spline.ev(pts[:, 0], pts[:, 1])
                    inside = np.all((pts >= self.domain_lo) & (pts <= self.domain_hi),
                                    axis=1)
                    return np.where(inside, out, 0.0)
            return evaluate
        return RegularGridInterpolator(axes, self.values, method="linear",
                                       bounds_error=False, fill_value=0.0)

    def evaluate(self, points):
        """Multilinearly interpolated values at an (N, d) array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1) if self.dim == 1 else pts.reshape(1, -1)
        return self.interpolator()(pts)


def _require_same_grid(f, g):
    if f.points_per_axis != g.points_per_axis or \
            not np.array_equal(f.domain_lo, g.domain_lo) or \
            not np.array_equal(f.domain_hi, g.domain_hi):
        raise StructuralError("densities live on different grids")


# -- quadrature operations --------------------------------------------------

def integrate(f):
    """Quadrature integral <f> = sum(values * weights).

    Deterministic for a fixed grid.
    """
    if f.values.shape != f.weights.shape:
        raise StructuralError("values and weights shapes differ")
    return float(np.sum(f.values * f.weights))


def power_moment(f, a):
    """Power integral <f^a> for an exponent a >= 1.

    Exponents below one are rejected: the only membership the score families
    need is f in L_{1+gamma} with gamma >= 0.
    """
    if a < 1:
        raise DomainError(f"power exponent a={a} < 1 is not supported")
    return float(np.sum(f.values ** a * f.weights))


def cross_moment(f, g, a):
    """Mixed integral <f * g^a> for densities on an identical grid, a >= 0."""
    if a < 0:
        raise DomainError(f"cross exponent a={a} < 0 is not supported")
    _require_same_grid(f, g)
    return float(np.sum(f.values * g.values ** a * f.weights))


def _power_sum(weights, log_g, a, out=None):
    """``sum(weights * exp(a * log_g))`` over the last axis; -inf marks g = 0.

    Formed from the logarithm, g never underflows before it is raised to a.
    ``weights`` broadcasts against ``log_g``; ``out``, optional space of the
    product's shape, is left holding the products.
    """
    t = np.multiply(log_g, a, out=out)
    np.exp(t, out=t)
    t = np.multiply(t, weights, out=out)
    return np.sum(t, axis=-1)


def log_moments(f, log_g, gamma, columns=None):
    """``(<f g^gamma>, <g^(1+gamma)>)`` from ``log g`` at the nodes of f.

    ``log_g`` holds log g at ``f.flat.nodes``; -inf marks g = 0.  No
    candidate grid is built.  With ``columns`` (k, N), such as the model score
    s there, the (2, k) array ``(<f g^gamma s>, <g^(1+gamma) s>)`` follows,
    one matrix product over the same two weighted rows.
    """
    view = f.flat
    t = np.empty((2, log_g.size))
    np.exp(np.multiply(log_g, gamma, out=t[0]), out=t[0])
    t[0] *= view.values
    t[0] *= view.weights
    cross = float(np.sum(t[0]))
    power = float(_power_sum(view.weights, log_g, 1.0 + gamma, out=t[1]))
    return (cross, power) if columns is None else (cross, power, t @ columns.T)


def l1_distance(f, g):
    """<|f - g|> on a shared grid."""
    _require_same_grid(f, g)
    return float(np.sum(np.abs(f.values - g.values) * f.weights))


def holder_cross_bound(f, g, gamma):
    """Upper bound <f^(1+gamma)>^(1/(1+gamma)) <g^(1+gamma)>^(gamma/(1+gamma)).

    By Holder's inequality ``cross_moment(f, g, gamma)`` never exceeds this
    value, with equality exactly when f and g are proportional.
    """
    a = 1.0 + gamma
    return power_moment(f, a) ** (1.0 / a) * power_moment(g, a) ** (gamma / a)


# -- file format --------------------------------------------------------------

_HEADER_PREFIX = "holder-grid v1"


def _fmt_floats(vec):
    return ",".join(repr(float(v)) for v in vec)


def write_grid(f, path):
    """Write a density in the ``holder-grid v1`` text format.

    Header line ``holder-grid v1; dim=<d>; lo=<csv>; hi=<csv>; n=<csv>``
    followed by one value per line in row-major order.  Finite values
    round-trip bit-exactly through :func:`read_grid`.
    """
    with open(path, "w") as fh:
        fh.write(f"{_HEADER_PREFIX}; dim={f.dim}; lo={_fmt_floats(f.domain_lo)}; "
                 f"hi={_fmt_floats(f.domain_hi)}; n={','.join(str(n) for n in f.points_per_axis)}\n")
        for v in f.values.ravel(order="C"):
            fh.write(repr(float(v)) + "\n")


def read_grid(path):
    """Read a density written by :func:`write_grid`."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith(_HEADER_PREFIX):
            raise StructuralError(f"unrecognized grid header: {header!r}")
        fields = {}
        for part in header.split(";")[1:]:
            key, _, val = part.strip().partition("=")
            fields[key] = val
        try:
            dim = int(fields["dim"])
            lo = np.array([float(v) for v in fields["lo"].split(",")])
            hi = np.array([float(v) for v in fields["hi"].split(",")])
            shape = tuple(int(v) for v in fields["n"].split(","))
        except (KeyError, ValueError) as exc:
            raise StructuralError(f"malformed grid header: {header!r}") from exc
        if len(shape) != dim or lo.size != dim or hi.size != dim:
            raise StructuralError("grid header fields disagree on dimension")
        if min(shape) < 2:
            raise StructuralError(f"grid header needs at least 2 points per axis: {header!r}")
        try:
            vals = np.array([float(line) for line in fh if line.strip()])
        except ValueError as exc:
            raise StructuralError(f"grid body: {exc}") from None
    if vals.size != np.prod(shape):
        raise StructuralError(f"grid header declares {int(np.prod(shape))} values, "
                              f"the body holds {vals.size}")
    return GridDensity(lo, hi, vals.reshape(shape))
