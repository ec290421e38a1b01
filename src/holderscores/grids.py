"""Densities on tensor-product grids and the quadrature behind every integral.

Every integral in this package is a Lebesgue integral over a rectangular box,
realized as tensor-product trapezoid quadrature on uniform per-axis grids.
A :class:`GridDensity` is its own quadrature rule: it bundles the box, its
per-axis nodes, the sampled nonnegative values and the matching weights; the
free functions below compute the handful of integral shapes the score
families need: ``<f>``, ``<f^a>`` and ``<f g^a>``.

Grids are immutable after construction.  Operations return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import solve_banded

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
    box.  The grid copies the bounds and values it is given, so the caller's
    arrays stay writable and a later write to them leaves the grid as it was.
    Its values, weights and per-axis node vectors are frozen; callers receive
    them with the writeable flag cleared.
    """

    domain_lo: np.ndarray
    domain_hi: np.ndarray
    values: np.ndarray
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

        axes, w = _box_quadrature(lo, hi, vals.shape)

        for arr in (lo, hi, vals, w, *axes):
            arr.setflags(write=False)
        object.__setattr__(self, "_axes", tuple(axes))
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
        """Per-axis node vectors, read-only: those of the quadrature rule."""
        return self._axes

    def cell_widths(self):
        return (self.domain_hi - self.domain_lo) / (np.array(self.points_per_axis) - 1)

    @cached_property
    def midpoint(self):
        """Centre of the box, the origin of :attr:`axis_monomials`; read-only."""
        mid = (self.domain_lo + self.domain_hi) / 2.0
        mid.setflags(write=False)
        return mid

    @cached_property
    def axis_monomials(self):
        """Per axis k, the rows [1, u_k, u_k^2] of u_k = x_k - midpoint_k at
        the axis's nodes, as a tuple of read-only (n_k, 3) arrays.

        Built on first use and cached: on the tensor grid a polynomial of
        degree 2 per axis in u is a product of these, one axis at a time.
        """
        rows = []
        for ax, c in zip(self.axes(), self.midpoint):
            u = ax - c
            v = np.stack([np.ones_like(u), u, u * u], axis=1)
            v.setflags(write=False)
            rows.append(v)
        return tuple(rows)

    def points(self):
        """All grid nodes as a read-only (N, d) array in row-major grid order,
        Fortran-ordered so each coordinate column is contiguous.

        Laid out on the first call and cached: sums over data and grid
        targets need the weights and values only, and a fit against a fixed
        data grid lays out its nodes once.
        """
        return self._nodes

    @cached_property
    def _nodes(self):
        nodes = _tensor_nodes(self._axes)
        nodes.setflags(write=False)
        return nodes

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_callable(cls, fn, lo, hi, points_per_axis):
        """Sample ``fn`` on the tensor grid of the box [lo, hi].

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

        ``cubic`` is the not-a-knot cubic spline through the nodes (node-exact,
        O(h^4) error) at d = 1..3, as a uniform cubic B-spline: its
        coefficients come from one tridiagonal solve per axis
        (:func:`_spline_coefficients`) and :func:`_spline_at` evaluates it at
        the points inside the box only.  A point off the box by no more than
        the rounding of its coordinates counts as on the face.
        """
        if method != "cubic":
            return RegularGridInterpolator(self.axes(), self.values, method="linear",
                                           bounds_error=False, fill_value=0.0)
        coeffs = _spline_coefficients(self.values)
        lo, h = self.domain_lo, self.cell_widths()
        # index 1 + (x - lo) / h is formed from numbers of size |x| / h
        magnitude = np.maximum(np.abs(lo), np.abs(self.domain_hi)) / h \
            + np.array(self.points_per_axis)

        def evaluate(pts):
            index = ((np.asarray(pts, dtype=float) - lo) / h + 1.0).T
            return _spline_at(coeffs, index, magnitude)
        return evaluate

    def evaluate(self, points):
        """Multilinearly interpolated values at an (N, d) array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1) if self.dim == 1 else pts.reshape(1, -1)
        return self.interpolator()(pts)


def _spline_coefficients(values):
    """The uniform cubic B-spline coefficients, n_k + 2 along each axis, of
    the not-a-knot spline through the tensor grid ``values``.

    Along an axis, c_i-1 + 4 c_i + c_i+1 = 6 v_i at every node i.  Not-a-knot
    makes the first two cells one cubic, whose second difference is exact:
    c_1 = v_1 - (v_0 - 2 v_1 + v_2) / 6, and likewise at the far end.  That
    leaves one tridiagonal solve for c_1..c_n-2; the node equations then give
    c_0, c_-1 and their mirror images.  Below 4 nodes the spline is the line
    or parabola through them, and c_i = v_i - v''/6.  The axes are solved
    last to first, so the result, built along axis 0 last, is C-contiguous.
    """
    coeffs = values
    for axis, n in reversed(list(enumerate(values.shape))):
        v = np.moveaxis(coeffs, axis, 0)
        c = np.empty((n + 2,) + v.shape[1:])
        if n < 4:
            c[1:-1] = v - (v[0] - 2.0 * v[1] + v[2]) / 6.0 if n == 3 else v
        else:
            rhs = 6.0 * v[1:-1]
            rhs[0] = 8.0 * v[1] - v[0] - v[2]
            rhs[-1] = 8.0 * v[-2] - v[-3] - v[-1]
            band = np.ones((3, n - 2))
            band[1] = 4.0
            band[1, [0, -1]] = 6.0
            band[0, 1] = band[2, -2] = 0.0
            c[2:-2] = solve_banded((1, 1), band, rhs.reshape(n - 2, -1),
                                   check_finite=False).reshape(rhs.shape)
            c[1] = 6.0 * v[1] - 4.0 * c[2] - c[3]
            c[-2] = 6.0 * v[-2] - 4.0 * c[-3] - c[-4]
        c[0] = 6.0 * v[0] - 4.0 * c[1] - c[2]
        c[-1] = 6.0 * v[-1] - 4.0 * c[-2] - c[-3]
        coeffs = np.moveaxis(c, 0, axis)
    return coeffs


# indices past a face by at most this many units in the last place of the
# numbers they were formed from are rounding, and count as on the face
_ROUNDING_ULPS = 8.0


def _spline_at(coeffs, index, magnitude, fill=0.0):
    """The B-spline with coefficients ``coeffs`` at fractional node indices.

    ``index`` holds one array per axis, broadcastable together; on axis k
    the box's nodes sit at indices 1..n_k.  An index outside [1, n_k] by no
    more than ``_ROUNDING_ULPS`` units in the last place of ``magnitude[k]``,
    the size of the numbers it was formed from, is moved onto the face;
    further out the value is ``fill`` (0 for a spline of values, -inf for a
    spline of log values, so that exp gives 0).  Only the nodes inside are
    evaluated, in one pass.
    """
    from scipy import ndimage  # imported here: only resampling needs it
    shape = np.broadcast_shapes(*(np.shape(s) for s in index))
    slack = _ROUNDING_ULPS * np.finfo(float).eps * magnitude
    bounds = [(1.0, n - 2.0) for n in coeffs.shape]
    inside = np.ones(shape, dtype=bool)
    for s, (first, last), tol in zip(index, bounds, slack):
        inside &= (s >= first - tol) & (s <= last + tol)
    coords = np.empty((len(bounds), np.count_nonzero(inside)))
    for row, s, (first, last) in zip(coords, index, bounds):
        np.clip(np.broadcast_to(s, shape)[inside], first, last, out=row)
    out = np.full(shape, fill)
    out[inside] = ndimage.map_coordinates(coeffs, coords, order=3, mode="mirror",
                                          prefilter=False)
    return out


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
