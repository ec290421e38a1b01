import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderscores import (GammaScore, KL, divergence, make_parametric, read_grid,
                          render_density, write_grid)
from holderscores import cli, robustness
from holderscores.cli import load_config, main


def run(tmp_path, command, name, *sets, seed=None, config_text=None, jobs=None):
    out = tmp_path / name
    argv = [command, "--out", str(out)]
    if config_text is not None:
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(config_text)
        argv += ["--config", str(cfg_path)]
    for item in sets:
        argv += ["--set", item]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    code = main(argv)
    return code, out


class TestDispatch:
    @pytest.mark.parametrize("command", ["frobnicate", "score"])
    def test_unknown_command_exits_64(self, capsys, command):
        assert main([command, "--out", "/tmp/x"]) == 64
        assert "Usage" in capsys.readouterr().out

    def test_no_args_exits_64(self):
        assert main([]) == 64

    def test_missing_config_file_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "divergence", "d0", config_text=None,
                      *("p.theta=0,1", "q.theta=0,1", "family=kl"))
        # config text given inline via --set only: command still runs
        assert code == 0
        assert main(["divergence", "--config", "/nonexistent.cfg",
                     "--out", str(tmp_path / "x")]) == 2

    def test_bad_config_line_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "divergence", "bad",
                      config_text="this is not a key value line\n")
        assert code == 2


class TestDivergenceCommand:
    def test_equal_densities_give_zero(self, tmp_path):
        code, out = run(tmp_path, "divergence", "eq",
                        "family=gamma", "gamma=0.5",
                        "p.theta=0,1", "q.theta=0,1", "grid.n=1201")
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "family,gamma,s_fg,s_ff,divergence"
        div = float(lines[1].split(",")[-1])
        assert abs(div) < 1e-10
        assert (out / "report.txt").read_text().splitlines()[0] == "PASS"

    def test_semicolon_config_syntax(self, tmp_path):
        text = ("family=holder; gamma=0.5; kappa=1.5; phi=kappa\n"
                "p.theta=0,1   # data density\n"
                "q.theta=0.5,1.2\n"
                "grid.n=1201\n")
        code, out = run(tmp_path, "divergence", "semi", config_text=text)
        assert code == 0
        assert float((out / "results.csv").read_text()
                     .splitlines()[1].split(",")[-1]) > 0

    def test_distinct_densities_positive(self, tmp_path):
        code, out = run(tmp_path, "divergence", "ne",
                        "family=holder", "phi=kappa", "kappa=1.5", "gamma=0.5",
                        "p.theta=0,1", "q.theta=1,1.5", "grid.n=1201")
        assert code == 0
        div = float((out / "results.csv").read_text().splitlines()[1].split(",")[-1])
        assert div > 1e-4

    @pytest.mark.parametrize("pair,finer", [
        (["p.theta=0,1", "q.theta=0,4"], 20001),
        (["p.theta=0,1", "q.theta=0,10"], 20001),
        (["p.model=gaussian-full-d", "p.model.dim=2", "p.theta=0,0,1,0,1",
          "q.model=gaussian-full-d", "q.model.dim=2", "q.theta=0,0,4,0,4"], 513)],
        ids=["1d-scale-4", "1d-scale-10", "2d-scale-4"])
    def test_default_grid_keeps_the_narrower_density_resolved(self, tmp_path, pair, finer):
        # the union box spans q's +-8 sd; the default grid lays at least 2001
        # nodes in 1-D (257 per axis in 2-D) over it, so p stays resolved
        # where its own default count (65, 129) would give cells 1 to 2.5 sd
        # of p wide
        divs = []
        for sets in ([], [f"grid.n={finer}"]):
            code, out = run(tmp_path, "divergence", f"w{len(sets)}", "family=gamma",
                            "gamma=0.5", *pair, *sets)
            assert code == 0
            divs.append(float((out / "results.csv").read_text()
                              .splitlines()[1].split(",")[-1]))
        assert divs[0] == pytest.approx(divs[1], rel=1e-12)


class TestGridFileInput:
    GAUSS = make_parametric("gaussian-mean-scale")

    def grid_file(self, tmp_path, half_width):
        path = tmp_path / "p.grid"
        write_grid(render_density(self.GAUSS, [0.0, 1.0], lo=[-half_width],
                                  hi=[half_width], points_per_axis=801), path)
        return path

    @pytest.mark.parametrize("score, family_sets, file_side", [
        (GammaScore(0.5), ("family=gamma", "gamma=0.5"), "p"),
        (KL(), ("family=kl",), "q"),
    ])
    def test_model_side_rendered_on_the_file_grid(self, tmp_path, score, family_sets,
                                                  file_side):
        path = self.grid_file(tmp_path, 9.0)
        model_side = "q" if file_side == "p" else "p"
        code, out = run(tmp_path, "divergence", "mixed", *family_sets,
                        f"{file_side}.file={path}", f"{model_side}.theta=0.2,1.1")
        assert code == 0
        grid = read_grid(path)
        model = render_density(self.GAUSS, [0.2, 1.1], lo=grid.domain_lo,
                               hi=grid.domain_hi, points_per_axis=grid.points_per_axis)
        pair = (grid, model) if file_side == "p" else (model, grid)
        expected = divergence(score, *(g.normalize() for g in pair)).divergence
        assert float((out / "results.csv").read_text().splitlines()[1]
                     .split(",")[-1]) == expected

    def test_model_truncated_by_the_file_box_exits_3(self, tmp_path, capsys):
        path = self.grid_file(tmp_path, 2.0)
        code, _ = run(tmp_path, "divergence", "narrow", "family=kl",
                      f"p.file={path}", "q.theta=0,1")
        assert code == 3
        assert "q integrates to" in capsys.readouterr().err


class TestFitCommand:
    def test_fit_writes_result_row(self, tmp_path):
        code, out = run(tmp_path, "fit", "f1",
                        "model=gaussian-mean-scale", "family=gamma", "gamma=0.5",
                        "theta_true=0,1", "n=500", seed=3)
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "theta_mean,theta_scale,objective,iterations,converged"
        cells = lines[1].split(",")
        assert cells[-1] == "true"
        assert abs(float(cells[0])) < 0.2

    def test_non_integer_count_exits_2(self, tmp_path, capsys):
        code, _ = run(tmp_path, "fit", "n27",
                      "model=gaussian-mean-scale", "family=gamma", "gamma=0.5",
                      "theta_true=0,1", "n=2.7")
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert "'n'" in err and len(err.splitlines()) == 1

    def test_reproducibility_byte_identical(self, tmp_path):
        args = ("model=gaussian-mean-scale", "family=gamma", "gamma=0.5",
                "theta_true=0,1", "n=400", "eps=0.05", "z=8")
        code1, out1 = run(tmp_path, "fit", "r1", *args, seed=11)
        code2, out2 = run(tmp_path, "fit", "r2", *args, seed=11)
        assert code1 == code2 == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_data_file_input(self, tmp_path):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(5)
        rows = "\n".join(repr(float(v)) for v in rng.normal(0.5, 1.2, 300))
        data.write_text("y\n" + rows + "\n")
        code, out = run(tmp_path, "fit", "f2",
                        f"data={data}", "model=gaussian-mean-scale",
                        "family=kl", "init=0,1")
        assert code == 0

    def test_mixture_fit_recovers_the_means(self, tmp_path):
        code, out = run(tmp_path, "fit", "f3",
                        "model=gaussian-mixture-fixed-weights",
                        "family=gamma", "gamma=0.5",
                        "theta_true=-1.5,0.8,1.5,0.9", "n=600", "init=-0.5,1,0.5,1",
                        "step_tol=1e-7", seed=8)
        assert code == 0
        cells = (out / "results.csv").read_text().splitlines()[1].split(",")
        # component means recovered in some order
        means = sorted((float(cells[0]), float(cells[2])))
        assert abs(means[0] + 1.5) < 0.3 and abs(means[1] - 1.5) < 0.3


class TestRegressCommand:
    def test_synthetic_regression(self, tmp_path):
        code, out = run(tmp_path, "regress", "g1",
                        "gamma=0.5", "kappa=1", "a=1.2", "b=-0.5", "s=0.4",
                        "n=300", "noise=0.4", seed=2)
        assert code == 0
        cells = (out / "results.csv").read_text().splitlines()[1].split(",")
        assert abs(float(cells[0]) - 1.2) < 0.1
        assert abs(float(cells[1]) + 0.5) < 0.1

    def test_regression_from_csv(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, 200)
        y = 0.8 * x + 0.3 + 0.3 * rng.standard_normal(200)
        data = tmp_path / "xy.csv"
        data.write_text("x1,y\n" + "\n".join(
            f"{repr(float(a))},{repr(float(b))}" for a, b in zip(x, y)) + "\n")
        code, out = run(tmp_path, "regress", "g2",
                        f"data={data}", "gamma=0.5", "kappa=1", "noise=0.3",
                        "init=0.5,0")
        assert code == 0
        cells = (out / "results.csv").read_text().splitlines()[1].split(",")
        assert abs(float(cells[0]) - 0.8) < 0.1


    def test_far_y_outliers_fit(self, tmp_path):
        # y = 50 once fell outside a fixed y-domain and exited 2
        code, out = run(tmp_path, "regress", "g3",
                        "gamma=0.5", "kappa=1", "a=1.2", "b=-0.3", "s=0.5", "n=500",
                        "outlier.eps=0.1", "outlier.y=50")
        assert code == 0
        cells = (out / "results.csv").read_text().splitlines()[1].split(",")
        assert abs(float(cells[0]) - 1.2) < 0.05


class TestStructuralMismatchExits2:
    # the fit ran 2000 all-+inf iterations and exited 3; the regression crashed
    @pytest.mark.parametrize("command, header, row, sets, needle", [
        ("fit", "y", "0.5", ("model=gaussian-full-d", "model.dim=2", "family=gamma",
                             "gamma=0.5", "init=0,0,1,0,1"), "dimensional"),
        ("regress", "x1,x2,y", "0.5,-1.0,0.2", ("gamma=0.5", "kappa=1", "init=1,0,1"),
         "x_dim=1"),
    ], ids=["fit-1d-data-2d-model", "regress-two-x-columns"])
    def test_one_line_message(self, tmp_path, capsys, command, header, row, sets, needle):
        data = tmp_path / "data.csv"
        data.write_text(header + "\n" + "\n".join([row] * 20) + "\n")
        code, _ = run(tmp_path, command, "mismatch", f"data={data}", *sets)
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert needle in err and len(err.splitlines()) == 1


class TestInvarianceCommand:
    def test_diagonal_map_residuals(self, tmp_path):
        code, out = run(tmp_path, "invariance", "i1",
                        "family=holder", "phi=kappa", "kappa=1", "gamma=0.5",
                        "sigma=2,0,0,3", "mu=0,0", "pairs=3", "grid.n=241", seed=4)
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "pair,det,h,d_raw,d_mapped,residual"
        residuals = [float(l.split(",")[-1]) for l in lines[1:]]
        assert max(residuals) < 1e-5
        assert (out / "report.txt").read_text().splitlines()[0] == "PASS"

    def test_kl_is_finite_through_a_shear(self, tmp_path):
        # the spline through density values went negative in the far tails,
        # and the clip to 0 made KL infinite for pair 4
        code, out = run(tmp_path, "invariance", "kl", "family=kl",
                        "sigma=1.2,0.3,-0.4,0.9", "mu=0.2,-0.1", seed=0)
        assert code == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        assert all(np.isfinite(float(row.split(",")[4])) for row in rows)

    # the shear above and the maps of the benchmark's CLI rounds at seeds 0, 1
    MAPS = [("1.2,0.3,-0.4,0.9", "0.2,-0.1"),
            ("0.6523267087443897,-0.5247944930497136,0.7802187139793093,0.9578281614695845",
             "-0.9713047233200707,0.5381712716302278"),
            ("0.7678582053389333,-0.09886117943725752,0.3072180699559404,0.8512212550818432",
             "-0.8279872505381045,0.9747403984818903")]

    @pytest.mark.parametrize("family", [("family=kl",),
                                        ("family=holder", "phi=kappa", "kappa=1", "gamma=0.5")],
                             ids=["kl", "holder"])
    def test_default_grid_residuals_over_sixty_pairs(self, tmp_path, family):
        worst = 0.0
        for k, (sigma, mu) in enumerate(self.MAPS):
            for seed in range(4):
                code, out = run(tmp_path, "invariance", f"{k}-{seed}", *family,
                                f"sigma={sigma}", f"mu={mu}", seed=seed)
                assert code == 0
                rows = [list(map(float, row.split(",")))
                        for row in (out / "results.csv").read_text().splitlines()[1:]]
                assert len(rows) == 5 and all(np.isfinite(row[4]) for row in rows)
                worst = max([worst] + [row[5] for row in rows])
        # measured 4.8e-15 (kl) and 7.0e-15 (holder); 8.9e-15 through the
        # spline resampler
        assert worst < 1e-12

    @pytest.mark.parametrize("family", [("family=kl",),
                                        ("family=holder", "phi=kappa", "kappa=1", "gamma=0.5")],
                             ids=["kl", "holder"])
    def test_coarse_grid_through_a_shear(self, tmp_path, family):
        # the resampler lost what a shear moves off the box: at 9^2 and 17^2
        # this read FAIL with worst residuals 0.69 and 0.085 (kl), 0.92 and
        # 0.29 (holder); the pushforward is exact on any grid
        for n in (9, 17):
            code, out = run(tmp_path, "invariance", f"n{n}", *family,
                            "sigma=1.2,0.3,-0.4,0.9", f"grid.n={n}")
            assert code == 0
            assert (out / "report.txt").read_text().splitlines()[0] == "PASS"
            rows = (out / "results.csv").read_text().splitlines()[1:]
            assert max(float(row.split(",")[-1]) for row in rows) < 1e-13

    def test_rounding_noise_is_no_residual(self, tmp_path):
        # on 3^2 nodes every pair is one spike, D is rounding noise in
        # S(p, q) - S(p, p), and the verdict read FAIL at seeds 0, 2 and 5
        for seed in range(6):
            code, out = run(tmp_path, "invariance", f"s{seed}", "family=kl",
                            "sigma=2,0,0,1", "grid.n=3", seed=seed)
            assert code == 0
            assert (out / "report.txt").read_text().splitlines()[0] == "PASS"

    def test_sigma_alone_sets_the_dimension(self, tmp_path):
        # d came from mu (default 0, so d = 1), and this exited 2 with
        # "config key 'sigma' needs 1 values, got 4"
        args = ("family=kl", "sigma=2,0,0,3", "pairs=2", "grid.n=61")
        code, alone = run(tmp_path, "invariance", "alone", *args)
        assert code == 0
        code, with_mu = run(tmp_path, "invariance", "with-mu", *args, "mu=0,0")
        assert code == 0
        assert (alone / "results.csv").read_bytes() == (with_mu / "results.csv").read_bytes()

    @pytest.mark.parametrize("sets, message", [
        (("sigma=2,0,3",), "config key 'sigma' needs d*d row-major values, got 3"),
        (("sigma=2,0,0,3", "mu=0,0,0"), "config key 'mu' needs 2 values, got 3"),
        (("mu=",), "config key 'mu' needs 1 values, got 0"),
    ])
    def test_size_mismatch_names_the_key_at_fault(self, tmp_path, capsys, sets, message):
        code, _ = run(tmp_path, "invariance", "bad", "family=kl", *sets)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("setting, name", [("sigma=nan", "sigma"), ("sigma=inf", "sigma"),
                                               ("mu=nan", "mu")])
    def test_non_finite_map_exits_2_without_a_warning(self, tmp_path, capsys, setting, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, "invariance", "nan", "family=kl", setting)
        assert code == 2
        assert capsys.readouterr().err == f"error: {name} must be finite\n"


class TestInfluenceCommand:
    def test_explicit_z_rows(self, tmp_path):
        code, out = run(tmp_path, "influence", "z1",
                        "gamma=0.5", "phi=kappa", "kappa=1",
                        "model=gaussian-mean-scale", "theta_star=0,1",
                        "z=0.5;1.5;3.0")
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "z1,if_1,if_2,if_norm"
        assert len(lines) == 4


class TestRedescendCommand:
    def test_gamma_score_passes(self, tmp_path):
        code, out = run(tmp_path, "redescend", "rd1",
                        "gamma=0.5", "phi=kappa", "kappa=1",
                        "model=gaussian-mean-scale", "theta_star=0,1")
        assert code == 0
        assert (out / "report.txt").read_text().splitlines()[0] == "PASS"
        row = (out / "results.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "true"

    def test_density_power_condition_false_but_consistent(self, tmp_path):
        code, out = run(tmp_path, "redescend", "rd2",
                        "gamma=0.5", "phi=kappa", "kappa=1.5",
                        "model=gaussian-mean-scale", "theta_star=0,1")
        assert code == 0
        assert (out / "report.txt").read_text().splitlines()[0] == "PASS"
        row = (out / "results.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "false"

    def test_mean_only_model_is_inconclusive_and_quiet(self, tmp_path, capsys):
        # the report says the criterion has no power here; stderr stays empty
        code, out = run(tmp_path, "redescend", "rd3", "model=gaussian-mean",
                        "theta_star=0.3", "gamma=0.5", "phi=kappa", "kappa=1")
        assert code == 0
        assert (out / "report.txt").read_text().splitlines()[0] == "INCONCLUSIVE"
        assert capsys.readouterr().err == ""


class TestSweepCommand:
    def test_influence_sweep_row_count_and_plotdata(self, tmp_path):
        code, out = run(tmp_path, "sweep", "s1",
                        "sweep.kind=influence-z", "gamma=0.5", "phi=kappa",
                        "kappa=1", "model=gaussian-mean-scale",
                        "theta_star=0,1", "z.count=50")
        assert code == 0
        assert len((out / "results.csv").read_text().splitlines()) == 51
        plot = (out / "plotdata_if_norm.csv").read_text().splitlines()
        comments = [l for l in plot if l.startswith("#")]
        assert comments, "plotdata must document its columns"
        data_rows = [l for l in plot if l and not l.startswith("#")]
        assert len(data_rows) == 51  # header + 50 rows

    def test_gamma_sweep_produces_curve_files(self, tmp_path):
        code, out = run(tmp_path, "sweep", "s2",
                        "sweep.kind=divergence-gamma",
                        "families=density-power,gamma",
                        "gammas=0.1,0.5,1,2",
                        "p.theta=0,1", "q.theta=0.8,1.3", "grid.n=1201")
        assert code == 0
        assert (out / "plotdata_density-power.csv").exists()
        assert (out / "plotdata_gamma.csv").exists()

    def test_contamination_sweep_two_curves(self, tmp_path):
        code, out = run(tmp_path, "sweep", "s3",
                        "sweep.kind=contamination", "model=gaussian-mean",
                        "theta_true=0", "z=10", "gamma=0.5",
                        "eps.values=0,0.1,0.2", seed=6)
        assert code == 0
        assert (out / "plotdata_gamma-score.csv").exists()
        assert (out / "plotdata_kl.csv").exists()
        lines = [l for l in (out / "plotdata_kl.csv").read_text().splitlines()
                 if not l.startswith("#")][1:]
        biases = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines}
        assert abs(biases[0.0]) < 1e-6
        assert biases[0.1] == pytest.approx(1.0, abs=0.05)  # mean shifts to eps*z

    def test_contamination_sweep_in_2d(self, tmp_path):
        # the point mass far out in the tail leaves the gamma-score fit where it was
        code, out = run(tmp_path, "sweep", "s2d",
                        "sweep.kind=contamination", "model=gaussian-full-d", "model.dim=2",
                        "theta_true=0.2,-0.1,1.1,0.3,0.8", "z=6,-7", "eps.values=0,0.1",
                        seed=6)
        assert code == 0
        assert (out / "report.txt").read_text().splitlines()[0] == "PASS"
        rows = [l.split(",") for l in (out / "results.csv").read_text().splitlines()[1:]]
        gamma_rows = [r for r in rows if r[0] == "gamma-score"]
        assert len(gamma_rows) == 2
        assert all(abs(float(r[2])) < 1e-8 for r in gamma_rows)

    def test_sweep_reproducible(self, tmp_path):
        args = ("sweep.kind=influence-z", "gamma=0.5", "phi=kappa", "kappa=1",
                "model=gaussian-mean-scale", "theta_star=0,1", "z.count=11")
        _, out1 = run(tmp_path, "sweep", "p1", *args, seed=9)
        _, out2 = run(tmp_path, "sweep", "p2", *args, seed=9)
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "plotdata_if_norm.csv").read_bytes() == \
            (out2 / "plotdata_if_norm.csv").read_bytes()

    @pytest.mark.parametrize("jobs, cpus, workers", [(10_000, 64, 4), (10_000, 2, 2),
                                                     (3, 64, 3)])
    def test_jobs_bounded_by_tasks_and_cpus(self, tmp_path, monkeypatch, jobs, cpus, workers):
        # the pool forked all --jobs workers at once, however few the tasks;
        # a stand-in pool records the worker count and maps serially
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        args = ("sweep.kind=contamination", "model=gaussian-mean",
                "theta_true=0", "z=10", "gamma=0.5", "eps.values=0,0.1")
        _, serial = run(tmp_path, "sweep", "serial", *args, seed=6)
        code, pooled = run(tmp_path, "sweep", "pooled", *args, seed=6, jobs=jobs)
        assert code == 0 and seen == [workers]
        assert (serial / "results.csv").read_bytes() == (pooled / "results.csv").read_bytes()

    def test_parallel_jobs_match_serial_bytes(self, tmp_path):
        args = ("sweep.kind=contamination", "model=gaussian-mean",
                "theta_true=0", "z=10", "gamma=0.5", "eps.values=0,0.1")
        _, serial = run(tmp_path, "sweep", "j1", *args, seed=6)
        _, parallel = run(tmp_path, "sweep", "j2", *args, seed=6, jobs=2)
        assert (serial / "results.csv").read_bytes() == \
            (parallel / "results.csv").read_bytes()

    def test_empty_sweep_exits_3(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "s4",
                      "sweep.kind=divergence-gamma", "families=gamma",
                      "gammas=0.5", "p.theta=0,1", "q.theta=1,1")
        assert code == 3

    @pytest.mark.parametrize("sets, message", [
        (("sweep.kind=influence-z", "gamma=0.5", "theta_star=0,1", "z.count=1"),
         "influence sweep needs at least 2 z-values"),
        (("sweep.kind=influence-z", "gamma=0.5", "theta_star=0,1", "z=3"),
         "influence sweep needs at least 2 z-values"),
        (("sweep.kind=contamination", "model=gaussian-mean", "theta_true=0",
          "eps.values=0.1"), "contamination sweep needs at least 2 levels"),
    ])
    def test_too_few_points_exit_3_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                   sets, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the sweep size is checked before any work")
        monkeypatch.setattr(robustness, "objective_hessian", no_work)
        monkeypatch.setattr(cli, "population_fit", no_work)
        code, out = run(tmp_path, "sweep", "few", *sets)
        assert code == 3 and not out.exists()
        assert capsys.readouterr().err == f"numerical failure: {message}\n"

    def test_unknown_sweep_kind_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "s5", "sweep.kind=nope")
        assert code == 2


# a fast valid run of each command; the sweep has one per kind, since each
# kind reads its keys its own way
MINIMAL_RUNS = {
    "divergence": ("divergence", "family=kl", "p.theta=0,1", "q.theta=1,1"),
    "fit": ("fit", "family=gamma", "gamma=0.5", "theta_true=0,1", "n=200"),
    "regress": ("regress", "gamma=0.5", "kappa=1", "a=1", "b=0", "n=100"),
    "invariance": ("invariance", "family=kl", "pairs=1"),
    "influence": ("influence", "gamma=0.5", "theta_star=0,1", "z.count=3"),
    "redescend": ("redescend", "gamma=0.5", "theta_star=0,1", "z.count=6"),
    "sweep-influence-z": ("sweep", "sweep.kind=influence-z", "gamma=0.5",
                          "theta_star=0,1", "z.count=3"),
    "sweep-divergence-gamma": ("sweep", "sweep.kind=divergence-gamma", "families=holder",
                               "gammas=0.5,1", "phi=kappa", "kappa=2", "p.theta=0,1",
                               "q.theta=1,1"),
    "sweep-contamination": ("sweep", "sweep.kind=contamination", "model=gaussian-mean",
                            "theta_true=0", "z=10", "eps.values=0,0.1"),
}


class TestUnreadKeysExit2:
    """A config key the command never reads exits 2 with one line naming the
    command and the key, and --out is not created."""

    @staticmethod
    def assert_rejected(capsys, code, out, command, keys):
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"holder {command} " in err and ", ".join(map(repr, keys)) in err

    @pytest.mark.parametrize("name", MINIMAL_RUNS)
    def test_unknown_key(self, tmp_path, capsys, name):
        command, *sets = MINIMAL_RUNS[name]
        assert run(tmp_path, command, "valid", *sets)[0] == 0
        capsys.readouterr()
        code, out = run(tmp_path, command, "zzz", *sets, "zzz=1")
        self.assert_rejected(capsys, code, out, command, ["zzz"])

    @pytest.mark.parametrize("command, sets, keys", [
        # both exited 0 with PASS, the regression fitting with max_iters=2000
        ("divergence", ("family=gamma", "gamma=0.5", "gama=0.9", "p.theta=0,1",
                        "q.theta=1,1"), ["gama"]),
        ("regress", ("gamma=0.5", "kappa=1", "a=1", "b=0", "n=100", "max_iter=1",
                     "y.lo=5", "y.hi=-5"), ["max_iter", "y.hi", "y.lo"]),
        # a fit has one route: no key chooses another
        ("fit", ("family=gamma", "gamma=0.5", "theta_true=0,1", "n=200",
                 "optimizer=multi-start(3)"), ["optimizer"]),
        ("fit", ("family=gamma", "gamma=0.5", "theta_true=0,1", "n=200",
                 "optimizer=nelder-mead"), ["optimizer"]),
    ], ids=["misspelt-gamma", "misspelt-max-iters", "optimizer-multi-start",
            "optimizer-nelder-mead"])
    def test_misspelt_key(self, tmp_path, capsys, command, sets, keys):
        code, out = run(tmp_path, command, "typo", *sets)
        self.assert_rejected(capsys, code, out, command, keys)

    def test_theta_beside_a_grid_file(self, tmp_path, capsys):
        path = tmp_path / "p.grid"
        write_grid(render_density(make_parametric("gaussian-mean-scale"), [0.0, 1.0]), path)
        code, out = run(tmp_path, "divergence", "both", "family=kl", f"p.file={path}",
                        "p.theta=0,1", "q.theta=0,1")
        self.assert_rejected(capsys, code, out, "divergence", ["p.theta"])

    def test_theta_true_beside_data(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("y\n" + "\n".join(map(str, np.linspace(-2, 2, 50))) + "\n")
        code, out = run(tmp_path, "fit", "both", "family=kl", f"data={data}", "init=0,1",
                        "theta_true=0,1")
        self.assert_rejected(capsys, code, out, "fit", ["theta_true"])

    @pytest.mark.parametrize("command, sets", [
        ("influence", ()), ("sweep", ("sweep.kind=influence-z",))], ids=["influence", "sweep"])
    def test_ray_keys_beside_given_points(self, tmp_path, capsys, command, sets):
        # both exited 0: z.count and z.max were read, and ignored, beside z
        code, out = run(tmp_path, command, "both", *sets, "gamma=0.5", "theta_star=0,1",
                        "z=1;2;3", "z.count=7", "z.max=40")
        self.assert_rejected(capsys, code, out, command, ["z.count", "z.max"])

    def test_seed_key_beside_the_seed_flag(self, tmp_path, capsys):
        code, out = run(tmp_path, "fit", "both", "family=gamma", "gamma=0.5",
                        "theta_true=0,1", "n=200", "seed=3", seed=5)
        self.assert_rejected(capsys, code, out, "fit", ["seed"])


def _refuse(name):
    def called(*args, **kwargs):
        raise AssertionError(f"{name} called before the unread-key check")
    return called


class TestParseThenRun:
    """Each command reads all of its keys before its one bare yield, so the
    unread-key check runs before any render, fit or sweep."""

    @pytest.mark.parametrize("name", MINIMAL_RUNS)
    def test_no_key_is_read_after_the_check(self, name):
        command, *sets = MINIMAL_RUNS[name]
        cfg = load_config(None, sets)
        steps = cli._RUNNERS[command](cfg, 0, 1)
        assert next(steps) is None
        read_at_check = set(cfg.read)
        code, files = next(steps)
        assert code == 0 and "report.txt" in files
        assert cfg.read == read_at_check

    def test_misspelt_key_exits_before_any_render(self, tmp_path, capsys, monkeypatch):
        # the whole invariance run was computed before this exited 2
        monkeypatch.setattr(cli, "render_density", _refuse("render_density"))
        monkeypatch.setattr(cli, "divergence", _refuse("divergence"))
        code, out = run(tmp_path, "invariance", "tols", "family=kl", "sigma=2,0.3,0,3",
                        "mu=0,0", "grid.n=601", "tols=1e-6")
        TestUnreadKeysExit2.assert_rejected(capsys, code, out, "invariance", ["tols"])

    def test_every_sweep_score_is_built_before_any_divergence(self, tmp_path, capsys,
                                                               monkeypatch):
        # the gamma family's divergences were computed before 'bogus' was parsed
        monkeypatch.setattr(cli, "divergence", _refuse("divergence"))
        code, _ = run(tmp_path, "sweep", "bogus", "sweep.kind=divergence-gamma",
                      "families=gamma,bogus", "gammas=0.5,1", "p.theta=0,1", "q.theta=1,1")
        assert code == 2
        assert capsys.readouterr().err == "error: unknown score family 'bogus'\n"


class TestMismatchedDimensionsExit2:
    """p and q of different dimensions are refused before anything is
    rendered: exit 2, one line on stderr, nothing written."""

    P2 = ("p.model=gaussian-full-d", "p.model.dim=2", "p.theta=0,0,1,0,1")
    Q3 = ("q.model=gaussian-full-d", "q.model.dim=3", "q.theta=0,0,0,1,0,1,0,0,1")
    P3 = ("p.model=gaussian-full-d", "p.model.dim=3", "p.theta=0,0,0,1,0,1,0,0,1")
    Q2 = ("q.model=gaussian-full-d", "q.model.dim=2", "q.theta=0,0,1,0,1")
    GAMMA_SWEEP = ("sweep.kind=divergence-gamma", "families=gamma", "gammas=0.5,1")

    @staticmethod
    def assert_refused(capsys, code, out, dims):
        assert code == 2
        assert capsys.readouterr().err == \
            "error: p has dimension {} and q has dimension {}\n".format(*dims)
        assert not out.exists()

    @pytest.mark.parametrize("command, sets, dims", [
        ("divergence", ("family=kl", *P2, *Q3), (2, 3)),
        ("divergence", ("family=kl", *P3, *Q2), (3, 2)),
        ("sweep", (*GAMMA_SWEEP, *P2, *Q3), (2, 3)),
    ], ids=["2-3", "3-2", "sweep-2-3"])
    def test_two_models(self, tmp_path, capsys, monkeypatch, command, sets, dims):
        monkeypatch.setattr(cli, "render_density", _refuse("render_density"))
        code, out = run(tmp_path, command, "mismatch", *sets)
        self.assert_refused(capsys, code, out, dims)

    def test_grid_file_against_a_model(self, tmp_path, capsys):
        path = tmp_path / "p.grid"
        write_grid(render_density(make_parametric("gaussian-mean-scale"), [0.0, 1.0]), path)
        code, out = run(tmp_path, "divergence", "mismatch", "family=kl",
                        f"p.file={path}", *self.Q2)
        self.assert_refused(capsys, code, out, (1, 2))


class TestBadValuesExit2:
    @pytest.mark.parametrize("command, sets, needle", [
        ("divergence", ("family=gamma", "gamma=abc", "p.theta=0,1", "q.theta=0,1"), "'gamma'"),
        ("divergence", ("family=holder", "phi=kappa", "gamma=0.5", "kappa=x",
                        "p.theta=0,1", "q.theta=0,1"), "'kappa'"),
        ("divergence", ("family=bregman-holder", "gamma=0.5", "kappa=x",
                        "p.theta=0,1", "q.theta=0,1"), "'kappa'"),
        ("divergence", ("family=holder", "phi=cubic-tail", "gamma=0.5", "c=x",
                        "p.theta=0,1", "q.theta=0,1"), "'c'"),
        ("fit", ("model.dim=2", "family=gamma", "gamma=0.5", "theta_true=0,1",
                 "n=200"), "'dim'"),
        ("influence", ("gamma=0.5", "theta_star=0,1", "z=1;abc"), "'z'"),
        ("influence", ("gamma=0.5", "theta_star=0,1", "z=1;2,3"), "'z'"),
        ("redescend", ("gamma=0.5", "theta_star=0,1", "z.count=0"), "contamination point"),
        ("redescend", ("phi=linear", "kappa=3", "gamma=0.5", "theta_star=0,1"), "'kappa'"),
        ("regress", ("gamma=0.5", "kappa=1", "noise=abc", "a=1", "b=0"), "'noise'"),
        ("influence", ("gamma=0.5", "theta_star=0,1", "z.count=-3"), "contamination point"),
        ("divergence", ("family=kl", "p.theta=0,1", "q.theta=0,1", "grid.n=-5"), "2 points"),
        ("invariance", ("family=holder", "gamma=0.5", "pairs=0"), "'pairs'"),
        # each ran the whole check and exited 3 with FAIL
        ("invariance", ("family=kl", "sigma=4", "tol=nan"), "'tol'"),
        ("invariance", ("family=kl", "sigma=4", "tol=-1"), "'tol'"),
        ("invariance", ("family=kl", "sigma=4", "tol=0"), "'tol'"),
        ("invariance", ("family=kl", "sigma=4", "tol=inf"), "'tol'"),
        ("divergence", ("family=kl", "p.model=gaussian-mean", "p.theta=0,7",
                        "q.theta=0,1"), "'p.theta'"),
        ("divergence", ("family=kl", "p.theta=0,1", "q.theta=0"), "'q.theta'"),
        ("fit", ("family=gamma", "gamma=0.5", "theta_true=0,1,2"), "'theta_true'"),
        ("fit", ("family=gamma", "gamma=0.5", "theta_true=0,1", "init=0"), "'init'"),
        ("fit", ("family=gamma", "gamma=0.5", "theta_true=0,1", "eps=0.1", "z=1,2"),
         "contamination point"),
        ("redescend", ("gamma=0.5", "model=gaussian-mean", "theta_star=0,5"), "'theta_star'"),
        ("regress", ("gamma=0.5", "kappa=1", "a=1,2", "b=0"), "'a'"),
        # each exited 3 with FAIL and nothing on stderr: one probe cannot
        # decay, and a ray ending at or below 0.5 sd stands still or runs back
        ("redescend", ("gamma=0.5", "theta_star=0,1", "z.count=1"), "2 contamination points"),
        ("redescend", ("gamma=0.5", "theta_star=0,1", "z.max=0.5"), "max_sd"),
        ("redescend", ("gamma=0.5", "theta_star=0,1", "z.max=-1"), "max_sd"),
        ("redescend", ("gamma=0.5", "theta_star=0,1", "z.max=nan"), "max_sd"),
        # the eps rows ran one or more population fits before contaminate
        # refused; every row is now refused before the first
        ("sweep", ("sweep.kind=contamination", "model=gaussian-mean", "theta_true=0",
                   "eps.values=0,1"), "0 <= eps < 1"),
        ("sweep", ("sweep.kind=contamination", "model=gaussian-mean", "theta_true=0",
                   "eps.values=0.1,0.2,1.5"), "0 <= eps < 1"),
        ("sweep", ("sweep.kind=contamination", "model=gaussian-mean", "theta_true=0",
                   "eps.values=0,nan"), "0 <= eps < 1"),
        ("sweep", ("sweep.kind=contamination", "model=gaussian-mean", "theta_true=0",
                   "eps.values=0,0.1", "z=1,2"), "wrong dimension"),
        ("sweep", ("sweep.kind=contamination", "model=exponential-rate", "theta_true=1",
                   "eps.values=0,0.1", "z=-1"), "outside the model support"),
        # ran a fit at objective +inf and exited 3 with FAIL
        ("fit", ("model=exponential-rate", "family=gamma", "gamma=0.5", "theta_true=1",
                 "eps=0.1", "z=-1", "n=200"), "outside the model support"),
    ])
    def test_one_line_message(self, tmp_path, capsys, monkeypatch, command, sets, needle):
        def no_fit(*args, **kwargs):
            raise AssertionError("bad values are refused before any fit")
        monkeypatch.setattr(cli, "population_fit", no_fit)
        monkeypatch.setattr(cli, "fit", no_fit)
        code, _ = run(tmp_path, command, "bad", *sets)
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert needle in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("init, needle", [
        # nan and inf wrote FAIL and exited 3 (inf with a RuntimeWarning),
        # 0,-1 exited 3, and 0,0 (a scale on the boundary) exited 0 with PASS
        ("nan,1", "must be finite"), ("inf,1", "must be finite"),
        ("0,-1", "outside the parameter domain"), ("0,0", "outside the parameter domain"),
    ])
    def test_start_outside_the_domain(self, tmp_path, capsys, init, needle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "fit", "bad", "model=gaussian-mean-scale",
                            "family=gamma", "gamma=0.5", "theta_true=0,1", "n=500",
                            f"init={init}")
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err.strip()
        assert needle in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, sets", [
        ("influence", ("theta_star=0,1", "z.count=0")),
        ("influence", ("theta_star=0,1", "z.max=0.5")),
        ("influence", ("model=exponential-rate", "theta_star=1", "z=2;-1")),
        ("redescend", ("theta_star=0,1", "z.max=0.5")),
        ("redescend", ("theta_star=0,1", "z.max=nan")),
    ])
    def test_z_checked_before_the_frozen_grid(self, tmp_path, capsys, monkeypatch,
                                              command, sets):
        # each rendered one frozen grid before it exited 2
        rendered = []
        monkeypatch.setattr(robustness, "_frozen_grid",
                            lambda *args: rendered.append(args))
        code, _ = run(tmp_path, command, "bad", "gamma=0.5", *sets)
        assert code == 2 and rendered == []
        assert len(capsys.readouterr().err.splitlines()) == 1


class TestNonFiniteOrNegativeExit2:
    """NaN and infinite gamma, kappa, c, tolerances and noise, and a negative
    seed, are bad input: exit 2 with one line, not a failed fit or a
    traceback."""

    @pytest.mark.parametrize("command, sets, seed, needle", [
        ("fit", ("family=gamma", "gamma=nan", "theta_true=0,1"), None, "finite gamma"),
        ("divergence", ("family=holder", "gamma=inf", "p.theta=0,1", "q.theta=1,1"), None,
         "finite gamma"),
        ("divergence", ("family=bregman-holder", "gamma=0.5", "kappa=nan",
                        "p.theta=0,1", "q.theta=1,1"), None, "finite kappa"),
        ("divergence", ("family=holder", "phi=cubic-tail", "gamma=0.5", "c=inf",
                        "p.theta=0,1", "q.theta=1,1"), None, "finite"),
        ("regress", ("gamma=0.5", "kappa=inf", "a=1", "b=0"), None, "finite kappa"),
        ("fit", ("family=gamma", "gamma=0.5", "theta_true=0,1", "seed=-3"), None,
         "non-negative"),
        ("fit", ("family=gamma", "gamma=0.5", "theta_true=0,1"), -1, "non-negative"),
        ("fit", ("family=gamma", "gamma=0.5", "theta_true=0,1", "grad_tol=nan"), None,
         "tolerances"),
        ("fit", ("family=gamma", "gamma=0.5", "theta_true=0,1", "step_tol=inf"), None,
         "tolerances"),
        ("regress", ("gamma=0.5", "kappa=1", "a=1", "b=0", "noise=nan"), None, "noise"),
    ])
    def test_one_line_message(self, tmp_path, capsys, command, sets, seed, needle):
        code, _ = run(tmp_path, command, "bad", *sets, seed=seed)
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert needle in err and len(err.splitlines()) == 1


class TestOnePhiParser:
    def test_redescend_accepts_the_spelling_score_accepts(self, tmp_path):
        args = ("gamma=0.5", "kappa=1", "model=gaussian-mean-scale", "theta_star=0,1",
                "z.count=6")
        code_lower, lower = run(tmp_path, "redescend", "lower", "phi=kappa", *args)
        code_upper, upper = run(tmp_path, "redescend", "upper", "phi=KAPPA", *args)
        assert code_lower == code_upper == 0
        assert (lower / "results.csv").read_bytes() == (upper / "results.csv").read_bytes()

    def test_score_defaults_phi_to_kappa(self, tmp_path):
        args = ("family=holder", "gamma=0.5", "kappa=1.5", "p.theta=0,1",
                "q.theta=0.5,1.2", "grid.n=801")
        code_named, named = run(tmp_path, "divergence", "named", "phi=kappa", *args)
        code_default, default = run(tmp_path, "divergence", "default", *args)
        assert code_named == code_default == 0
        assert (named / "results.csv").read_bytes() == (default / "results.csv").read_bytes()


# the config file format reserves '#' (comment) and ';' (pair separator); a key
# holds no '=' either, and a pair stays on one line
_CONFIG_TEXT = st.text(st.characters(min_codepoint=9, max_codepoint=126,
                                     exclude_characters="\n\r#;"))


class TestLoadConfigProperty:
    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(_CONFIG_TEXT.filter(lambda k: "=" not in k), _CONFIG_TEXT),
                          max_size=8),
           separator=st.sampled_from(["\n", ";", " ; "]))
    def test_file_gives_the_dict_set_gives(self, pairs, separator):
        items = [f"{key}={value}" for key, value in pairs]
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/run.cfg"
            with open(path, "w") as fh:
                fh.write(separator.join(items) + "\n")
            from_file = load_config(path)
        assert from_file == load_config(None, items)
