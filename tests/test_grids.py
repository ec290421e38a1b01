import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from holderscores import (GridDensity, DomainError, KL, StructuralError,
                          cross_moment, divergence, holder_cross_bound, integrate,
                          l1_distance, make_parametric, power_moment, read_grid,
                          render_density, write_grid)
from holderscores import grids


def gaussian_1d(mean=0.0, scale=1.0, lo=-8.0, hi=8.0, n=2001):
    def pdf(pts):
        u = (pts[:, 0] - mean) / scale
        return np.exp(-0.5 * u * u) / (scale * np.sqrt(2 * np.pi))
    return GridDensity.from_callable(pdf, [lo], [hi], n)


class TestIntegrate:
    def test_uniform_density(self):
        u = GridDensity([0.0], [1.0], np.ones(1001))
        assert integrate(u) == pytest.approx(1.0, abs=1e-10)

    def test_truncated_gaussian_against_refined_quadrature(self):
        # oracle: the same integrand at double resolution
        coarse = gaussian_1d(n=2001)
        fine = gaussian_1d(n=4001)
        assert integrate(coarse) == pytest.approx(1.0, abs=1e-8)
        assert abs(integrate(coarse) - integrate(fine)) < 1e-10

    def test_single_spike(self):
        # a lone interior node of height h contributes h * cell_width
        vals = np.zeros(101)
        vals[50] = 3.0
        f = GridDensity([0.0], [1.0], vals)
        assert integrate(f) == pytest.approx(3.0 * 0.01, rel=1e-12)

    def test_weights_sum_to_volume(self):
        f = GridDensity([-1.0, 0.0], [2.0, 5.0], np.ones((31, 41)))
        assert f.weights.sum() == pytest.approx(15.0, rel=1e-12)
        assert integrate(f) == pytest.approx(15.0, rel=1e-12)


class TestFlatView:
    def test_cached_read_only_node_major(self):
        vals = np.arange(31 * 41, dtype=float).reshape(31, 41) + 1.0
        f = GridDensity([-1.0, 0.0], [2.0, 5.0], vals)
        nodes = f.points()
        assert f.points() is nodes
        assert nodes.shape == (31 * 41, 2)
        assert nodes.flags.f_contiguous
        assert not nodes.flags.writeable
        # rows follow the row-major grid order of values and weights
        ax0, ax1 = f.axes()
        k = 5 * 41 + 7
        weights, values = f.weights.ravel(), f.values.ravel()
        assert np.array_equal(nodes[k], [ax0[5], ax1[7]])
        assert values[k] == vals[5, 7]
        assert weights[k] == f.weights[5, 7]
        assert np.sum(weights * values) == pytest.approx(integrate(f), rel=1e-14)

    def test_axes_built_once_read_only(self):
        # the quadrature rule's own node vectors, not rebuilt per call; values
        # given in another memory order are stored C-contiguous, so the flat
        # views the sums read are never copies
        f = GridDensity([-1.0, 0.0], [2.0, 5.0], np.ones((41, 31)).T)
        axes = f.axes()
        assert f.axes() is axes
        for ax, lo, hi, n in zip(axes, f.domain_lo, f.domain_hi, f.points_per_axis):
            assert not ax.flags.writeable
            assert np.array_equal(ax, np.linspace(lo, hi, n))
        for arr in (f.values, f.weights):
            assert np.shares_memory(arr.ravel(), arr)

    def test_nodes_laid_out_only_when_read(self, monkeypatch):
        # a grid-against-grid divergence needs weights and values only
        f = GridDensity([-8.0], [8.0], gaussian_1d(n=401).values)
        g = GridDensity([-8.0], [8.0], gaussian_1d(mean=0.3, n=401).values)
        laid_out = []
        monkeypatch.setattr(grids, "_tensor_nodes",
                            lambda axes: laid_out.append(axes) or _tensor_nodes(axes))
        divergence(KL(), f, g)
        assert laid_out == []
        f.points()
        assert len(laid_out) == 1

    def test_render_lays_out_its_nodes_once(self, monkeypatch):
        # from_callable samples fn at the nodes that points() then returns
        laid_out = []
        monkeypatch.setattr(grids, "_tensor_nodes",
                            lambda axes: laid_out.append(axes) or _tensor_nodes(axes))
        f = render_density(make_parametric("gaussian-full-d", dim=2),
                           [0.2, -0.1, 1.1, 0.3, 0.8])
        nodes = f.points()
        assert len(laid_out) == 1
        assert f.points() is nodes and not nodes.flags.writeable
        assert np.array_equal(nodes, _tensor_nodes(f.axes()))

    @pytest.mark.parametrize("shape", [(7,), (6, 5), (4, 3, 5)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_axis_monomials_about_the_midpoint(self, shape):
        d = len(shape)
        f = GridDensity(np.arange(d) - 1.5, np.arange(d) + 2.0,
                        np.ones(shape))
        u = f.points() - f.midpoint
        rows = f.axis_monomials
        assert len(rows) == d and rows is f.axis_monomials
        for k, v in enumerate(rows):
            uk = np.unique(u[:, k])
            u2 = uk * uk
            assert np.array_equal(v, np.column_stack([np.ones(shape[k]), uk, u2, u2 * uk,
                                                      u2 * u2]))
            assert v.flags.c_contiguous and not v.flags.writeable


_tensor_nodes = grids._tensor_nodes


class TestPowerMoment:
    def test_uniform_any_gamma(self):
        u = GridDensity([0.0], [1.0], np.ones(501))
        for gamma in (0.1, 0.5, 1.0, 2.0):
            assert power_moment(u, 1 + gamma) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_closed_form(self):
        # closed form (2 pi s^2)^(-gamma/2) (1+gamma)^(-1/2), itself verified
        # against brute-force quadrature while freezing this test
        s, gamma = 0.7, 0.3
        f = gaussian_1d(scale=s, lo=-8 * s, hi=8 * s)
        expect = (2 * np.pi * s * s) ** (-gamma / 2) * (1 + gamma) ** (-0.5)
        assert power_moment(f, 1 + gamma) == pytest.approx(expect, rel=1e-10)
        assert expect == pytest.approx(0.7409210467088607, rel=1e-12)

    def test_scaled_uniform(self):
        vals = np.full(2001, 2.0)
        f = GridDensity([0.0], [0.5], vals)
        assert power_moment(f, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_exponent_below_one_rejected(self):
        u = GridDensity([0.0], [1.0], np.ones(11))
        with pytest.raises(DomainError):
            power_moment(u, 0.5)


class TestCrossMoment:
    def test_equal_uniforms(self):
        u = GridDensity([0.0], [1.0], np.ones(101))
        for a in (0.0, 0.5, 1.0, 2.0):
            assert cross_moment(u, u, a) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        left = np.where(np.linspace(0, 1, 201) < 0.5, 2.0, 0.0)
        right = np.where(np.linspace(0, 1, 201) >= 0.5, 2.0, 0.0)
        f = GridDensity([0.0], [1.0], left)
        g = GridDensity([0.0], [1.0], right)
        assert cross_moment(f, g, 0.7) == pytest.approx(0.0, abs=1e-15)

    def test_gaussian_pair_frozen_oracle(self):
        # frozen from brute-force quadrature at double resolution (and the
        # analytic value (2 pi)^(-3/4) e^(-1/6) sqrt(4 pi / 3))
        f = gaussian_1d(0.0, lo=-9, hi=10, n=4001)
        g = gaussian_1d(1.0, lo=-9, hi=10, n=4001)
        assert cross_moment(f, g, 0.5) == pytest.approx(0.4365429608635976, rel=1e-9)

    def test_mismatched_grids_rejected(self):
        f = GridDensity([0.0], [1.0], np.ones(101))
        g = GridDensity([0.0], [1.0], np.ones(102))
        with pytest.raises(StructuralError):
            cross_moment(f, g, 1.0)
        g2 = GridDensity([0.0], [1.1], np.ones(101))
        with pytest.raises(StructuralError):
            cross_moment(f, g2, 1.0)


class TestHolderInequality:
    def test_random_battery(self):
        rng = np.random.default_rng(42)
        x = np.linspace(-10, 10, 1201)
        for _ in range(40):
            m1, m2 = rng.uniform(-2, 2, size=2)
            s1, s2 = rng.uniform(0.5, 2.0, size=2)
            f = GridDensity([-10.0], [10.0], np.exp(-0.5 * ((x - m1) / s1) ** 2))
            g = GridDensity([-10.0], [10.0], np.exp(-0.5 * ((x - m2) / s2) ** 2))
            for gamma in (0.1, 0.5, 1.0, 2.0):
                lhs = cross_moment(f, g, gamma)
                rhs = holder_cross_bound(f, g, gamma)
                assert lhs <= rhs + 1e-12 * max(1.0, rhs)

    def test_equality_for_proportional_inputs(self):
        f = gaussian_1d()
        for c in (0.5, 1.0, 3.0):
            g = f.with_values(c * f.values)
            for gamma in (0.1, 0.5, 1.0, 2.0):
                lhs = cross_moment(f, g, gamma)
                rhs = holder_cross_bound(f, g, gamma)
                assert lhs == pytest.approx(rhs, rel=1e-12)


class TestQuadratureConvergence:
    def test_refinement_stays_within_declared_tolerance(self):
        # doubling the grid moves smooth built-in integrals by < 10x tolerance
        for n in (1001, 2001):
            a = gaussian_1d(n=n)
            b = gaussian_1d(n=2 * n - 1)
            assert abs(integrate(a) - integrate(b)) < 10 * 1e-8

    def test_refinement_across_builtin_families(self):
        cases = [
            ("gaussian-mean", {}, [0.3], 1e-8),
            ("gaussian-mean-scale", {}, [0.1, 1.2], 1e-8),
            ("gaussian-full-d", {"dim": 2}, [0.2, -0.1, 1.1, 0.3, 0.8], 1e-6),
            ("gaussian-mixture-fixed-weights", {}, [-1.2, 0.8, 1.2, 1.0], 1e-8),
            ("exponential-rate", {}, [1.3], 1e-8),
        ]
        for kind, hyper, theta, tol in cases:
            model = make_parametric(kind, **hyper)
            coarse = render_density(model, theta)
            fine = render_density(model, theta,
                                  points_per_axis=2 * model.quad_points - 1)
            assert abs(integrate(coarse) - integrate(fine)) < 10 * tol, kind


class TestCubicInterpolator:
    # the library runs on numpy alone: importing scipy would cost every
    # process most of its start-up time and memory
    NUMPY_ALONE = """
import sys
sys.modules["scipy"] = None
import numpy as np
from holderscores import GammaScore, Sample, cli, make_parametric, render_density
p = render_density(make_parametric("gaussian-mean-scale"), [0.0, 1.0],
                   points_per_axis=401)
read = p.evaluate([[-1.0], [0.0], [0.5], [99.0]])
assert read[-1] == 0.0 and np.all(read[:-1] > 0), read
assert np.isfinite(GammaScore(0.5).empirical(Sample(points=[[-0.3], [0.2], [1.1]]), p))
assert cli.main(["divergence", "--out", sys.argv[1], "--set", "family=gamma",
                 "--set", "gamma=0.5", "--set", "p.theta=0,1", "--set", "q.theta=0.5,1.2",
                 "--set", "grid.n=201"]) == 0
"""

    def probe(self, *args):
        src = str(Path(grids.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return run

    def test_package_import_leaves_ndimage_unloaded(self, tmp_path):
        loaded = self.probe("-c", "import sys, holderscores; print('scipy' in sys.modules)")
        assert loaded.stdout.strip() == "False"
        self.probe("-c", self.NUMPY_ALONE, str(tmp_path / "out"))
        assert (tmp_path / "out" / "results.csv").read_text().startswith("family,gamma,")


def quadratic_monomials(u):
    """q(u) = [1, u_1..u_d, u_i u_j (i >= j, row-major lower triangle)] per row."""
    rows, cols = np.tril_indices(u.shape[1])
    return np.column_stack([np.ones(len(u)), u, u[:, rows] * u[:, cols]])


class TestFrame:
    """A grid carries an affine frame x = sigma v + mu over its lattice in v."""

    # invertible frames of d = 1..3, a reflection (det < 0) and a shear among them
    FRAMES = [
        (np.array([[-1.3]]), np.array([0.4])),
        (np.array([[1.1, 0.6], [0.0, -0.8]]), np.array([0.3, -0.5])),
        (np.array([[1.3, 0.4, -0.2], [0.1, -0.8, 0.3], [-0.3, 0.2, 1.1]]),
         np.array([0.3, -0.5, 0.2])),
    ]

    def lattice(self, d, frame=None):
        shape = (7, 6, 5)[:d]
        vals = np.arange(1.0, np.prod(shape) + 1.0).reshape(shape)
        return GridDensity(np.arange(d) - 1.5, np.arange(d) + 2.0, vals, frame)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_identity_is_the_default_and_changes_no_bit(self, d):
        f = self.lattice(d)
        sigma, mu = f.frame
        assert np.array_equal(sigma, np.eye(d)) and np.array_equal(mu, np.zeros(d))
        assert not sigma.flags.writeable and not mu.flags.writeable
        axes, weights = grids._box_quadrature(f.domain_lo, f.domain_hi, f.points_per_axis)
        assert np.array_equal(f.weights, weights)
        assert np.array_equal(f.points(), _tensor_nodes(axes))
        center, lift = f.monomial_lift
        assert np.array_equal(center, f.midpoint) and np.array_equal(lift, np.eye(len(lift)))
        g = self.lattice(d, (np.eye(d), np.zeros(d)))
        assert np.array_equal(g.weights, f.weights) and np.array_equal(g.points(), f.points())

    @pytest.mark.parametrize("sigma, mu", FRAMES, ids=["1d", "2d", "3d"])
    def test_nodes_weights_and_lift_follow_the_frame(self, sigma, mu):
        d = mu.size
        f, flat = self.lattice(d, (sigma, mu)), self.lattice(d)
        nodes = f.points()
        assert nodes.flags.f_contiguous and not nodes.flags.writeable
        assert np.allclose(nodes, flat.points() @ sigma.T + mu, rtol=0, atol=1e-14)
        assert np.array_equal(f.weights, flat.weights * abs(np.linalg.det(sigma)))
        # q(x - c) = M q(w) at every node, w the lattice coordinates about the midpoint
        center, lift = f.monomial_lift
        assert np.allclose(center, sigma @ f.midpoint + mu, rtol=0, atol=1e-15)
        w = flat.points() - flat.midpoint
        assert np.allclose(quadratic_monomials(nodes - center),
                           quadratic_monomials(w) @ lift.T, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("sigma, mu", FRAMES, ids=["1d", "2d", "3d"])
    def test_evaluate_pulls_points_back_to_the_lattice(self, sigma, mu):
        d = mu.size
        f, flat = self.lattice(d, (sigma, mu)), self.lattice(d)
        v = np.random.default_rng(d).uniform(flat.domain_lo - 0.5, flat.domain_hi + 0.5,
                                             size=(200, d))
        got, ref = f.evaluate(v @ sigma.T + mu), flat.evaluate(v)
        assert np.count_nonzero(ref == 0.0) > 0  # some points fall off the grid
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("sheared", [False, True], ids=["identity", "sheared"])
    def test_evaluate_reads_scipy_bit_for_bit(self, d, sheared):
        rng = np.random.default_rng(10 + d)
        frame = self.FRAMES[d - 1] if sheared else (np.eye(d), np.zeros(d))
        f = self.lattice(d, frame)
        f = f.with_values(rng.uniform(0.0, 2.0, f.points_per_axis))
        lo, hi = f.domain_lo, f.domain_hi
        inside = rng.uniform(lo, hi, size=(300, d))
        rows, k = np.arange(100), np.arange(100) % d
        faces, outside = inside[:100].copy(), inside[100:200].copy()
        faces[rows, k] = np.where(rows % 2, hi[k], lo[k])
        outside[rows, k] = np.where(rows % 2, hi[k] + 0.3, lo[k] - 0.3)
        nan = inside[:1].copy()
        nan[0, -1] = np.nan
        v = np.vstack([inside, _tensor_nodes(f.axes()), faces, outside, nan])
        sigma, mu = f.frame
        x = v @ sigma.T + mu
        # the reference reads the same pull-back, snapped onto the box where
        # the point lies in it
        lattice = np.linalg.solve(sigma, (x - mu).T).T
        off = len(v) - len(outside) - 1
        lattice[:off] = np.clip(lattice[:off], lo, hi)
        exact = RegularGridInterpolator(f.axes(), f.values, bounds_error=False,
                                        fill_value=0.0)(lattice)
        got = f.evaluate(x)
        assert np.array_equal(got, exact, equal_nan=True)
        assert np.all(got[off:-1] == 0.0) and np.isnan(got[-1])

    def test_evaluate_rejects_points_of_another_dimension(self):
        # scipy's interpolator raised a bare ValueError
        f1, f2 = self.lattice(1), self.lattice(2)
        for f, pts in ((f1, np.zeros((4, 2))), (f2, np.zeros((4, 3))), (f2, np.zeros((4, 1)))):
            with pytest.raises(StructuralError, match="points have dimension"):
                f.evaluate(pts)

    def test_values_change_and_the_frame_stays(self):
        sigma, mu = self.FRAMES[1]
        f = self.lattice(2, (sigma, mu))
        for g in (f.with_values(2.0 * f.values), f.normalize()):
            assert all(map(np.array_equal, g.frame, f.frame))
        assert integrate(f.normalize()) == pytest.approx(1.0, rel=1e-15)

    def test_grids_differing_in_frame_only_are_different_grids(self):
        sigma, mu = self.FRAMES[1]
        f = self.lattice(2)
        for frame in ((sigma, mu), (np.eye(2), mu), (sigma, np.zeros(2))):
            g = self.lattice(2, frame)
            for op in (lambda: cross_moment(f, g, 0.5), lambda: l1_distance(g, f),
                       lambda: divergence(KL(), f, g)):
                with pytest.raises(StructuralError, match="different grids"):
                    op()

    def test_grid_file_refuses_a_framed_grid(self, tmp_path):
        # holder-grid v1 has no frame: writing one would lose it
        sigma, mu = self.FRAMES[1]
        for frame in ((sigma, mu), (np.eye(2), mu)):
            path = tmp_path / "framed.grid"
            with pytest.raises(StructuralError, match="affine frame"):
                write_grid(self.lattice(2, frame), path)
            assert not path.exists()

    @pytest.mark.parametrize("frame, error", [
        ((np.eye(3), np.zeros(2)), StructuralError),
        ((np.eye(2), np.zeros(3)), StructuralError),
        ((np.ones((2, 2)), np.zeros(2)), DomainError),
        ((np.array([[1.0, np.nan], [0.0, 1.0]]), np.zeros(2)), DomainError),
        ((np.eye(2), np.array([0.0, np.inf])), DomainError),
    ], ids=["sigma-shape", "mu-shape", "singular", "sigma-nan", "mu-inf"])
    def test_bad_frame_rejected(self, frame, error):
        with pytest.raises(error):
            self.lattice(2, frame)


class TestGridDensityValidation:
    def test_negative_values_rejected(self):
        with pytest.raises(DomainError):
            GridDensity([0.0], [1.0], np.linspace(-0.1, 1, 11))

    def test_zero_function_rejected(self):
        with pytest.raises(DomainError):
            GridDensity([0.0], [1.0], np.zeros(11))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            GridDensity([0.0, 0.0], [1.0, 1.0], np.ones(11))

    def test_values_are_immutable(self):
        f = GridDensity([0.0], [1.0], np.ones(11))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_caller_arrays_stay_the_callers(self):
        # the grid froze the caller's own C-contiguous float arrays, so a
        # write to them raised "assignment destination is read-only"
        lo, hi, vals = np.array([0.0]), np.array([1.0]), np.ones(5)
        f = GridDensity(lo, hi, vals)
        lo[0], hi[0], vals[0] = -1.0, 2.0, 2.0
        assert np.array_equal(f.values, np.ones(5))
        assert f.domain_lo[0] == 0.0 and f.domain_hi[0] == 1.0
        assert not f.values.flags.writeable

    def test_normalize(self):
        f = gaussian_1d().with_values(3.7 * gaussian_1d().values)
        assert integrate(f.normalize()) == pytest.approx(1.0, abs=1e-14)

    def test_l1_distance(self):
        u = GridDensity([0.0], [1.0], np.ones(101))
        v = GridDensity([0.0], [1.0], np.full(101, 2.0))
        assert l1_distance(u, v) == pytest.approx(1.0, rel=1e-12)


class TestGridFile:
    def test_round_trip_bit_exact(self, tmp_path):
        f = gaussian_1d(n=257)
        path = tmp_path / "g.grid"
        write_grid(f, path)
        g = read_grid(path)
        assert np.array_equal(f.values, g.values)
        assert np.array_equal(f.domain_lo, g.domain_lo)
        assert np.array_equal(f.domain_hi, g.domain_hi)
        assert f.points_per_axis == g.points_per_axis

    def test_round_trip_2d(self, tmp_path):
        vals = np.abs(np.random.default_rng(0).standard_normal((17, 23))) + 0.1
        f = GridDensity([-1.0, 2.0], [1.5, 3.0], vals)
        path = tmp_path / "g2.grid"
        write_grid(f, path)
        g = read_grid(path)
        assert np.array_equal(f.values, g.values)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=1e-300, max_value=1e300,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=40))
    def test_round_trip_arbitrary_finite_values(self, values):
        import tempfile
        f = GridDensity([0.0], [1.0], np.asarray(values))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/h.grid"
            write_grid(f, path)
            g = read_grid(path)
        assert np.array_equal(f.values, g.values)

    @pytest.mark.parametrize("body", ["0.5\n1.0\n2.0\n0.5\n", "0.5\n1.0\n", "0.5\n1.0\nabc\n"],
                             ids=["one-value-too-many", "one-value-too-few", "not-a-number"])
    def test_body_disagreeing_with_header_rejected(self, tmp_path, body):
        path = tmp_path / "body.grid"
        path.write_text("holder-grid v1; dim=1; lo=0.0; hi=1.0; n=3\n" + body)
        with pytest.raises(StructuralError):
            read_grid(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text("not a grid\n1.0\n")
        with pytest.raises(StructuralError):
            read_grid(path)
