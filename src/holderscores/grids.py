"""Densities on tensor-product grids and the quadrature behind every integral.

Every integral in this package is a Lebesgue integral over a parallelepiped,
realized as tensor-product trapezoid quadrature on a uniform lattice in
coordinates v, carried into outcome space by an affine frame x = sigma v + mu.
A :class:`GridDensity` is its own quadrature rule: it bundles the lattice box,
its per-axis nodes, the frame, the sampled nonnegative values and the
matching weights; the free functions below compute the handful of integral
shapes the score families need: ``<f>``, ``<f^a>`` and ``<f g^a>``.

Grids are immutable after construction.  Operations return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import DomainError, StructuralError

MAX_DIM = 3

_DEFAULT_TOL = {1: 1e-8, 2: 1e-6, 3: 1e-4}

# the pairs (i, j), i >= j, of the quadratic monomials u_i u_j in row-major order
_LOWER_TRIANGLE = {d: np.tril_indices(d) for d in range(1, MAX_DIM + 1)}


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


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative function sampled on a uniform tensor lattice in an affine frame.

    Parameters
    ----------
    domain_lo, domain_hi : array_like, shape (d,)
        Per-axis bounds of the lattice box in v, ``lo < hi`` elementwise.
    values : ndarray
        Nonnegative samples at the nodes, shape ``(n_1, ..., n_d)`` in
        row-major axis order.  At least one value must be positive and at
        least two points per axis are required.
    frame : (sigma, mu), optional
        The affine frame x = sigma v + mu that carries the lattice into
        outcome space: an invertible (d, d) matrix and a (d,) shift.  The
        default is the identity, under which the box is axis-aligned in x.

    Notes
    -----
    Quadrature weights are derived on construction: the per-axis trapezoid
    rule, combined by outer product, times |det sigma|, summing to the
    volume of the box's image in x.  The trapezoid rule on a sheared lattice
    is still the trapezoid rule, so an affine map moves a density by its
    frame alone (:func:`~holderscores.affine.transform_density`).  The grid
    copies the bounds, frame and values it is given, so the caller's arrays
    stay writable and a later write to them leaves the grid as it was.  Its
    values, weights, frame and per-axis node vectors are frozen; callers
    receive them with the writeable flag cleared.
    """

    domain_lo: np.ndarray
    domain_hi: np.ndarray
    values: np.ndarray
    frame: tuple = None
    points_per_axis: tuple = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        # copies: the arrays frozen below are the grid's own, not the caller's
        lo = np.array(self.domain_lo, dtype=float, ndmin=1)
        hi = np.array(self.domain_hi, dtype=float, ndmin=1)
        vals = np.array(self.values, dtype=float, order="C")
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
        sigma, mu = (np.eye(d), np.zeros(d)) if self.frame is None else self.frame
        sigma = np.array(sigma, dtype=float, ndmin=2)
        mu = np.array(mu, dtype=float, ndmin=1)
        if sigma.shape != (d, d) or mu.shape != (d,):
            raise StructuralError(f"the frame of a {d}-dimensional grid is a ({d}, {d}) "
                                  f"matrix and a ({d},) shift")
        volume = abs(float(np.linalg.det(sigma))) if np.all(np.isfinite(sigma)) else 0.0
        if not (volume > 0.0 and np.all(np.isfinite(mu))):
            raise DomainError("the frame must be finite and invertible")

        axes, w = _box_quadrature(lo, hi, vals.shape)
        w *= volume

        for arr in (lo, hi, vals, w, sigma, mu, *axes):
            arr.setflags(write=False)
        object.__setattr__(self, "_axes", tuple(axes))
        object.__setattr__(self, "domain_lo", lo)
        object.__setattr__(self, "domain_hi", hi)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "frame", (sigma, mu))
        object.__setattr__(self, "points_per_axis", tuple(vals.shape))
        object.__setattr__(self, "weights", w)

    # -- geometry ---------------------------------------------------------

    @property
    def dim(self):
        return self.domain_lo.size

    def axes(self):
        """Per-axis node vectors of the lattice in v, read-only: those of the
        quadrature rule."""
        return self._axes

    def cell_widths(self):
        """The lattice spacing along each axis, in v."""
        return (self.domain_hi - self.domain_lo) / (np.array(self.points_per_axis) - 1)

    @cached_property
    def midpoint(self):
        """Centre of the lattice box in v, the origin of :attr:`axis_monomials`;
        read-only."""
        mid = (self.domain_lo + self.domain_hi) / 2.0
        mid.setflags(write=False)
        return mid

    @cached_property
    def axis_monomials(self):
        """Per axis k, the rows [1, w_k, w_k^2, w_k^3, w_k^4] of
        w_k = v_k - midpoint_k at the axis's nodes, as a tuple of read-only
        (n_k, 5) arrays.

        Built on first use and cached: on the tensor lattice a polynomial of
        degree up to 4 per axis in w is a product of these, one axis at a
        time; the first three columns carry a quadratic polynomial, and all
        five the products of two.
        """
        rows = []
        for ax, c in zip(self.axes(), self.midpoint):
            u = ax - c
            u2 = u * u
            v = np.stack([np.ones_like(u), u, u2, u2 * u, u2 * u2], axis=1)
            v.setflags(write=False)
            rows.append(v)
        return tuple(rows)

    @cached_property
    def monomial_lift(self):
        """``(c, M)``: c = sigma midpoint + mu, the midpoint's image in x, and
        the read-only (r, r) matrix M with q(sigma w) = M q(w) for the
        quadratic monomials q(u) = [1, u_1..u_d, u_i u_j (i >= j, row-major
        lower triangle)] of ``ParametricModel.log_quadratic``.

        At a node x - c = sigma w, so eta @ q(x - c) = (eta @ M) @ q(w), a
        polynomial in w that :attr:`axis_monomials` contracts: the linear
        part b becomes sigma^T b and the quadratic part A sigma^T A sigma.
        Cached on first use; the identity frame gives c = midpoint, M = I.
        """
        sigma, mu = self.frame
        d = self.dim
        rows, cols = _LOWER_TRIANGLE[d]
        # u_a u_b = sum_jl sigma_aj sigma_bl w_j w_l, folded onto j >= l
        s = sigma[rows][:, :, None] * sigma[cols][:, None, :]
        s = s + s.transpose(0, 2, 1)
        lift = np.zeros((1 + d + rows.size,) * 2)
        lift[0, 0] = 1.0
        lift[1:d + 1, 1:d + 1] = sigma
        lift[d + 1:, d + 1:] = np.where(rows == cols, 0.5, 1.0) * s[:, rows, cols]
        center = sigma @ self.midpoint + mu
        for arr in (center, lift):
            arr.setflags(write=False)
        return center, lift

    def points(self):
        """All grid nodes in x, sigma v + mu, as a read-only (N, d) array in
        row-major grid order, Fortran-ordered so each coordinate column is
        contiguous.

        Laid out on the first call and cached: sums over data and grid
        targets need the weights and values only, and a fit against a fixed
        data grid lays out its nodes once.
        """
        return self._nodes

    @cached_property
    def _nodes(self):
        sigma, mu = self.frame
        nodes = (sigma @ _tensor_nodes(self._axes).T + mu[:, None]).T
        nodes.setflags(write=False)
        return nodes

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_callable(cls, fn, lo, hi, points_per_axis):
        """Sample ``fn`` on the tensor grid of the box [lo, hi] in the identity frame.

        ``fn`` receives the grid's own nodes, the read-only (N, d) array that
        its ``points()`` returns and the grid keeps (d times the memory of
        its values, read or not), and must return N values.
        """
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if np.isscalar(points_per_axis) or np.ndim(points_per_axis) == 0:
            points_per_axis = (int(points_per_axis),) * lo.size
        shape = tuple(int(n) for n in points_per_axis)
        nodes = _tensor_nodes(_box_quadrature(lo, hi, shape)[0])
        nodes.setflags(write=False)
        grid = cls(lo, hi, np.asarray(fn(nodes), dtype=float).reshape(shape))
        object.__setattr__(grid, "_nodes", nodes)      # the cache that points() reads
        return grid

    def with_values(self, values):
        """New density on the same lattice and frame with replaced values."""
        return GridDensity(self.domain_lo, self.domain_hi, values, self.frame)

    def normalize(self):
        """Rescale so the quadrature integral is exactly 1."""
        total = integrate(self)
        if total <= 0:
            raise DomainError("cannot normalize a density with vanishing mass")
        return self.with_values(self.values / total)

    def evaluate(self, points):
        """Values at an (N, d) array of points x; 0 off the grid's image.

        Each point is pulled back to the lattice, v = sigma^-1 (x - mu), and
        read multilinearly from its cell's 2^d corners, summed in the order of
        scipy's ``RegularGridInterpolator`` so the two agree bit for bit.  The
        pull-back rounds: a coordinate within 32 eps |sigma^-1| (|sigma| |v|_max + |mu|)
        outside the box, as a node on a face of the image may land, is
        snapped onto the face; one farther out reads 0, and a NaN point NaN.
        Points of another dimension than the grid's raise :class:`StructuralError`.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim < 2:
            pts = pts.reshape(-1, 1) if self.dim == 1 else pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise StructuralError(f"points have dimension {pts.shape[-1]}, "
                                  f"the grid is {self.dim}-dimensional")
        sigma, mu = self.frame
        lattice = np.linalg.solve(sigma, (pts - mu).T).T
        lo, hi = self.domain_lo, self.domain_hi
        v_max = np.maximum(np.abs(lo), np.abs(hi))
        slack = 32 * np.finfo(float).eps * (np.abs(np.linalg.inv(sigma))
                                            @ (np.abs(sigma) @ v_max + np.abs(mu)))
        near = (lattice >= lo - slack) & (lattice <= hi + slack)
        inside = np.all(near | np.isnan(lattice), axis=1)
        cells = []
        for ax, v in zip(self._axes, np.clip(lattice, lo, hi).T):
            i = np.minimum(np.searchsorted(ax, v, side="right") - 1, ax.size - 2)
            y = (v - ax[i]) / (ax[i + 1] - ax[i])
            cells.append((i, (1 - y, y)))
        value = sum(self.values[tuple(i + k for (i, _), k in zip(cells, corner))]
                    * reduce(np.multiply, (w[k] for (_, w), k in zip(cells, corner)))
                    for corner in np.ndindex((2,) * self.dim))
        return np.where(inside, value, 0.0)


def _require_same_grid(f, g):
    if f.points_per_axis != g.points_per_axis or not all(
            map(np.array_equal, (f.domain_lo, f.domain_hi, *f.frame),
                (g.domain_lo, g.domain_hi, *g.frame))):
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


def log_moments(f, log_g, gamma):
    """``(<f g^gamma>, <g^(1+gamma)>, t)`` from ``log g`` at the nodes of f.

    ``log_g`` holds log g at the nodes of f in row-major grid order; -inf
    marks g = 0.  No candidate grid is built.  t, shape (2, N), holds the two
    weighted rows (w f g^gamma, w g^(1+gamma)) whose sums are the moments:
    ``t @ s.T`` for columns s (k, N), such as the model score, gives the
    (2, k) array ``(<f g^gamma s>, <g^(1+gamma) s>)``.
    """
    weights = f.weights.ravel()
    t = np.empty((2, log_g.size))
    np.exp(np.multiply(log_g, gamma, out=t[0]), out=t[0])
    t[0] *= f.values.ravel()
    t[0] *= weights
    cross = float(np.sum(t[0]))
    power = float(_power_sum(weights, log_g, 1.0 + gamma, out=t[1]))
    return cross, power, t


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
    round-trip bit-exactly through :func:`read_grid`.  The format has no
    frame: a grid whose frame is not the identity raises
    :class:`StructuralError`.
    """
    sigma, mu = f.frame
    if not np.array_equal(sigma, np.eye(f.dim)) or np.any(mu):
        raise StructuralError("the holder-grid v1 format stores axis-aligned grids only; "
                              "this grid carries an affine frame")
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
