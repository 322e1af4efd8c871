"""Tests for the command line interface: parsing, precedence, outputs, budget."""

import concurrent.futures
import os
import subprocess
import sys

import numpy as np
import pytest
from test_acceptance import REDUCED_SCOPE

from conelab import experiments, fourier, maximal, measures, operators, tangency
from conelab.cli import main, parse_config_file
from conelab.experiments import (BudgetExceededError, ExperimentConfig, check_budget,
                                 estimate_evals, run_experiment)
from conelab.measures import load_config, load_measure


class TestConfigFile:
    def test_parses_all_key_kinds(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            "# comment line\n"
            "\n"
            "R = 16, 32\n"
            "delta=0.03125\n"
            "kind=light_tube,wolff_radii\n"
            "seed=0,1,2\n"
            "n=24\n"
            "gamma=sqrt\n"
            "q=2\n"
            "workers=2\n"
            "out=runs/x\n"
            "force=true\n")
        values = parse_config_file(cfg)
        assert values["R"] == (16, 32)
        assert values["delta"] == (0.03125,)
        assert values["kind"] == ("light_tube", "wolff_radii")
        assert values["seed"] == (0, 1, 2)
        assert values["n"] == 24 and values["gamma"] == "sqrt"
        assert values["q"] == 2.0
        assert values["workers"] == 2 and values["out"] == "runs/x"
        assert values["force"] is True
        cfg.write_text("eps=0.1\n")
        with pytest.raises(ValueError, match="unknown key 'eps'"):
            parse_config_file(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("radius=5\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(cfg)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("just a line\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file(cfg)

    def test_config_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("kind=vertical_tube\n")
        code = main(["gen", "--R", "16", "--kind", "light_tube",
                     "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("vertical_tube_R16_s0.cubes")
        assert (tmp_path / "vertical_tube_R16_s0.cubes").exists()
        assert not (tmp_path / "light_tube_R16_s0.cubes").exists()


class TestGen:
    def test_cube_measure_file(self, tmp_path, capsys):
        code = main(["gen", "--R", "16", "--kind", "light_tube",
                     "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        path = tmp_path / "light_tube_R16_s3.cubes"
        assert str(path) in capsys.readouterr().out
        nu = load_measure(path)
        assert nu.R == 16 and nu.mass == 4

    def test_circle_config_file(self, tmp_path):
        code = main(["gen", "--delta", "0.03125", "--kind", "wolff_radii",
                     "--n", "16", "--out", str(tmp_path)])
        assert code == 0
        cfgs = list(tmp_path.glob("wolff_radii_d*.circles"))
        assert len(cfgs) == 1
        config = load_config(cfgs[0])
        assert config.delta == 0.03125 and len(config.circles) == 16

    def test_lists_write_every_file(self, tmp_path, capsys):
        code = main(["gen", "--R", "16", "--kind", "light_tube,vertical_tube",
                     "--seed", "0,1", "--out", str(tmp_path)])
        assert code == 0
        names = [f"{kind}_R16_s{seed}.cubes"
                 for kind in ("light_tube", "vertical_tube") for seed in (0, 1)]
        assert capsys.readouterr().out.split() == [str(tmp_path / name) for name in names]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert load_measure(tmp_path / names[1]).cubes.tolist() != \
            load_measure(tmp_path / names[0]).cubes.tolist()

    def test_integer_gamma_is_read(self, tmp_path):
        code = main(["gen", "--R", "16", "--kind", "light_tube", "--gamma", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        assert load_measure(tmp_path / "light_tube_R16_s0.cubes").mass == 3

    @pytest.mark.parametrize("flags,named", [
        (["--R", "16", "--delta", "0.0625", "--kind", "wolff_radii", "--gamma", "5", "--q", "3"],
         ["R", "gamma", "q"]),
        (["--R", "16", "--kind", "light_tube", "--q", "3", "--workers", "4", "--gamma", "sqrt"],
         ["gamma", "q", "workers"]),
        (["--R", "16", "--force"], ["force"]),
        (["--R", "16", "--kind", "vertical_tube", "--n", "5", "--gamma", "3"], ["gamma", "n"]),
        (["--R", "16", "--kind", "random_frostman,vertical_tube", "--gamma", "3"], ["gamma"]),
    ], ids=["delta-R-gamma-q", "R-q-workers-gamma", "force", "vertical_tube-n-gamma",
            "no-kind-reads-gamma"])
    def test_unread_settings_exit_2(self, tmp_path, capsys, flags, named):
        code = main(["gen", *flags, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"no written file reads {', '.join(named)} " in err
        assert not any(tmp_path.iterdir())

    def test_each_kind_gets_its_own_size(self, tmp_path):
        code = main(["gen", "--R", "16", "--kind", "light_tube,random_frostman",
                     "--n", "5", "--gamma", "3", "--out", str(tmp_path)])
        assert code == 0
        assert load_measure(tmp_path / "light_tube_R16_s0.cubes").mass == 3
        assert load_measure(tmp_path / "random_frostman_R16_s0.cubes").mass == 5

    def test_needs_scale_argument(self, tmp_path, capsys):
        code = main(["gen", "--out", str(tmp_path)])
        assert code == 2
        assert "--R" in capsys.readouterr().err

    def test_bad_kind_exits_2(self, tmp_path, capsys):
        code = main(["gen", "--R", "16", "--kind", "litetube", "--out", str(tmp_path)])
        assert code == 2
        assert "litetube" in capsys.readouterr().err


class TestPipelines:
    def run_pairs(self, out, seed="0"):
        return main(["pairs", "--delta", "0.03125", "--n", "16",
                     "--kind", "wolff_radii", "--seed", seed, "--out", str(out)])

    def test_pairs_outputs(self, tmp_path, capsys):
        code = self.run_pairs(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "pairs: wrote" in out
        d = tmp_path / "pairs"
        assert (d / "pair_counts.csv").exists()
        assert (d / "pair_counts.svg").exists()
        assert (d / "manifest.txt").exists()

    def test_manifest_keys(self, tmp_path):
        self.run_pairs(tmp_path)
        text = (tmp_path / "pairs" / "manifest.txt").read_text()
        lines = dict(l.split("=", 1) for l in text.splitlines() if "=" in l)
        assert lines["experiment"] == "pairs"
        assert lines["delta"] == "0.03125"
        assert lines["kinds"] == "wolff_radii"
        assert lines["seeds"] == "0"
        assert lines["n"] == "16"
        assert lines["force"] == "false"
        assert "python" in lines and "numpy" in lines and "scipy" not in lines
        assert "wall_seconds_pairs" in lines
        assert text.count("file=") == 2

    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_pairs(a) == 0
        assert self.run_pairs(b) == 0
        for name in ("pair_counts.csv", "pair_counts.svg"):
            assert (a / "pairs" / name).read_bytes() == (b / "pairs" / name).read_bytes()

    def test_workers_match_serial_run(self, tmp_path):
        for experiment, csv_name in (("decay", "decay_ratio.csv"), ("duality", "duality.csv")):
            sweep = [experiment, "--R", "16", "--kind", "light_tube,vertical_tube",
                     "--seed", "0,1"]
            for workers in ("1", "2"):
                out = tmp_path / experiment / workers
                assert main(sweep + ["--workers", workers, "--out", str(out)]) == 0
            serial, pooled = (tmp_path / experiment / w / experiment / csv_name
                              for w in ("1", "2"))
            assert serial.read_bytes() == pooled.read_bytes()

    def test_a_run_builds_each_measure_once(self, tmp_path, monkeypatch):
        # the budget's cost pass and the sweep points share each measure;
        # the next run builds its own
        built, generate = [], experiments.generate

        def counting_generate(kind, R, seed, **params):
            built.append((kind, R, seed))
            return generate(kind, R, seed, **params)

        monkeypatch.setattr(experiments, "generate", counting_generate)
        cfg = ExperimentConfig(experiment="duality", R=(16,), kinds=("light_tube", "vertical_tube"),
                               seeds=(0, 1), out=str(tmp_path))
        points = [(kind, 16, seed) for kind in cfg.kinds for seed in cfg.seeds]
        for runs in (1, 2):
            run_experiment(cfg)
            assert sorted(built) == sorted(runs * points)

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        code = main(["pairs", "--delta", "0.03125", "--kind", "nope",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("pipeline, flags, named", [
        pytest.param("decay", ["--kind", "wolff_radii"], "'wolff_radii'",
                     id="decay-wolff_radii"),
        pytest.param("maximal", ["--kind", "light_tube"], "'light_tube'",
                     id="maximal-light_tube"),
        pytest.param("sharpness", ["--kind", "light_tube"], "'light_tube'",
                     id="sharpness-light_tube"),
        pytest.param("sigma", ["--kind", "random_frostman"], "'random_frostman'",
                     id="sigma-random_frostman"),
        # settings no point of the pipeline reads
        pytest.param("decay", ["--delta", "0.0625", "--kind", "light_tube", "--q", "2"],
                     "reads delta (", id="decay-delta"),
        pytest.param("decay", ["--R", "16", "--delta", "0.03125"], "reads delta (",
                     id="decay-R-delta"),
        pytest.param("maximal", ["--R", "16"], "reads R (", id="maximal-R"),
        pytest.param("maximal", ["--delta", "0.03125", "--q", "3", "--gamma", "full"],
                     "reads gamma, q (", id="maximal-gamma-q"),
        pytest.param("sharpness", ["--R", "16", "--seed", "3", "--n", "7"],
                     "reads seeds, n (", id="sharpness-seed-n"),
        pytest.param("sigma", ["--R", "16", "--q", "2"], "reads R (", id="sigma-R"),
        pytest.param("sigma", ["--q", "2", "--workers", "4"], "reads workers (",
                     id="sigma-workers"),
        # n where no swept kind reads it
        pytest.param("decay", ["--R", "16", "--kind", "vertical_tube", "--n", "5", "--q", "2"],
                     "reads n (", id="decay-vertical_tube-n"),
        pytest.param("duality", ["--R", "16", "--kind", "light_tube", "--n", "7"],
                     "reads n (", id="duality-light_tube-n"),
    ])
    def test_kind_not_swept_exits_2(self, pipeline, flags, named, tmp_path, capsys):
        code = main([pipeline, *flags, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and f"{pipeline}:" in err
        assert not (tmp_path / pipeline).exists()

    def test_wolff_n_above_capacity_exits_2(self, tmp_path, capsys):
        # 1/(2 delta) = 16 radius intervals at delta = 2^-5
        code = main(["maximal", "--delta", "0.03125", "--kind", "wolff_radii", "--n", "100",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "n=100 exceeds the 16 delta-intervals" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("flags, named", [
        pytest.param(["--delta", "0.03125", "--kind", "wolff_radii", "--n", "100"],
                     "n=100 exceeds the 16 delta-intervals", id="wolff-capacity"),
        # at delta = 1/8 the Frostman sampler places only 11 circles
        pytest.param(["--delta", "0.125", "--kind", "random_frostman", "--n", "12"],
                     "placed only 11/12 circles", id="frostman-placement"),
    ])
    def test_refusal_inside_a_point_exits_2_and_writes_nothing(self, flags, named, tmp_path,
                                                               capsys):
        code = main(["maximal", *flags, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_all_skips_kinds_other_sweeps_own(self):
        shared = ExperimentConfig(experiment="all", kinds=("light_tube", "wolff_radii"))
        for name, own in (("decay", "light_tube"), ("pairs", "wolff_radii")):
            alone = ExperimentConfig(experiment=name, kinds=(own,))
            assert estimate_evals(name, shared) == estimate_evals(name, alone)

    def test_all_takes_R_and_delta_together(self):
        # each sweep reads only its own axis, so R and delta need not pair up
        cfg = ExperimentConfig(experiment="all", R=(16,), delta=(2.0 ** -5,))
        assert cfg.R == (16,) and cfg.delta == (2.0 ** -5,)

    def test_pool_capped_at_task_count(self, monkeypatch):
        started = []

        class FakePool:
            def __init__(self, max_workers, mp_context):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        assert experiments._run_tasks(abs, [-1, -2, -3], workers=64) == [1, 2, 3]
        assert experiments._run_tasks(abs, [-1, -2, -3], workers=2) == [1, 2, 3]
        assert experiments._run_tasks(abs, [-1], workers=64) == [1]
        assert started == [3, 2]

    def test_workers_run_one_blas_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        seen = experiments._run_tasks(os.getenv, ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"],
                                      workers=2)
        assert seen == ["1", "1"]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2" and "OMP_NUM_THREADS" not in os.environ

    def test_invalid_r_exits_2(self, tmp_path, capsys):
        code = main(["decay", "--R", "17", "--out", str(tmp_path)])
        assert code == 2
        assert "power of two" in capsys.readouterr().err

    def test_budget_refusal_exits_2(self, tmp_path, capsys):
        code = main(["pairs", "--delta", "0.000001", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "budget" in err and "force" in err
        assert not (tmp_path / "pairs").exists()

    def test_pairs_estimate_scales_with_kinds(self):
        both = estimate_evals("pairs", ExperimentConfig(experiment="pairs"))
        one = estimate_evals("pairs", ExperimentConfig(experiment="pairs",
                                                       kinds=("wolff_radii",)))
        assert one == pytest.approx(both / 2, rel=1e-12)

    def test_decay_budget_refuses_large_scope(self):
        # decay_mean's step tables and their products come to 1.41e9 terms here
        cfg = ExperimentConfig(experiment="decay", R=(32, 64, 128), seeds=(0, 1))
        with pytest.raises(BudgetExceededError):
            check_budget("decay", cfg)

    def test_duality_refuses_large_gram(self):
        # n = 64 * 128 = 8192 Gram rows: G alone is 1.07 GB
        big = ExperimentConfig(experiment="duality", R=(128,), kinds=("random_frostman",))
        with pytest.raises(BudgetExceededError, match="n = 8192"):
            check_budget("duality", big)
        # the default scope tops out at n = 2048
        check_budget("duality", ExperimentConfig(experiment="duality"))

    @pytest.mark.parametrize("experiment",
                             ["sigma", "duality", "decay", "sharpness", "maximal", "pairs"])
    def test_estimate_bounds_actual_work(self, experiment, tmp_path, monkeypatch):
        # counted: J0 and exponential table entries, n_rho per radius and
        # height, plus one entry per Gram matrix element; for decay, per phi
        # node and cube, the two step tables and their product, as sized by
        # the rho split decay_mean calls; for sharpness, the radial-table
        # lookups and, per rho node, each table's samples and the entries of
        # the two geometric tables that fill it; for
        # maximal, the two events of every annulus span; for pairs, the
        # pair-table entries plus the (2 * 2)^3 lattice keys the scan builds
        # per circle and scanned direction of every gamma_tau scan
        counted, phis, splits, frames = [], [], [], []
        e1_grid, build = fourier.e1_grid, operators.build_extension_operator
        make_quadrature, rho_split = fourier.make_quadrature, fourier.rho_split
        decay_mean = fourier.decay_mean
        lookup, table = fourier.RadialTable.__call__, fourier.radial_transform_table
        spans = maximal._annulus_spans
        classify, gamma_tau, frame = (tangency.classify_pairs, tangency.gamma_tau,
                                      measures.lightlike_frame)

        def counting_lookup(self, u):
            counted.append(np.size(u))
            return lookup(self, u)

        def counting_table(quad, u_max):
            out = table(quad, u_max)
            n_keep = len(out.values)
            counted.append((n_keep + sum(rho_split(n_keep))) * len(quad.rho))
            return out

        def counting_e1_grid(r, z, quad):
            counted.append(len(quad.rho) * (np.size(r) + np.size(z)))
            return e1_grid(r, z, quad)

        def counting_build(nu, **kwargs):
            op = build(nu, **kwargs)
            counted.append(len(op.gram) ** 2)
            return op

        def counting_quadrature(*args):
            quad = make_quadrature(*args)
            phis.append(len(quad.phi))
            return quad

        def counting_split(n_rho):
            splits.append(rho_split(n_rho))
            return splits[-1]

        def counting_decay_mean(nu, q):
            phis.clear()
            splits.clear()
            value = decay_mean(nu, q)
            counted.extend(n_phi * nu.mass * (nb * ng + nb + ng)
                           for n_phi, (nb, ng) in zip(phis, splits, strict=True))
            return value

        def counting_spans(circles, delta, grid, row0, row1):
            rows, starts, ends = spans(circles, delta, grid, row0, row1)
            counted.append(2 * len(starts))
            return rows, starts, ends

        def counting_classify(config):
            out = classify(config)
            counted.append(len(out.d))
            return out

        def counting_frame(c, s):
            frames.append(np.size(c))  # directions per call
            return frame(c, s)

        def counting_gamma_tau(config, tau):
            frames.clear()
            value = gamma_tau(config, tau)
            counted.append(config.count * 4 ** 3 * sum(frames))
            return value

        monkeypatch.setattr(fourier, "e1_grid", counting_e1_grid)
        monkeypatch.setattr(operators, "e1_grid", counting_e1_grid)
        monkeypatch.setattr(experiments, "build_extension_operator", counting_build)
        monkeypatch.setattr(fourier, "make_quadrature", counting_quadrature)
        monkeypatch.setattr(fourier, "rho_split", counting_split)
        monkeypatch.setattr(fourier, "decay_mean", counting_decay_mean)
        monkeypatch.setattr(fourier.RadialTable, "__call__", counting_lookup)
        monkeypatch.setattr(fourier, "radial_transform_table", counting_table)
        monkeypatch.setattr(maximal, "_annulus_spans", counting_spans)
        monkeypatch.setattr(experiments, "classify_pairs", counting_classify)
        monkeypatch.setattr(tangency, "gamma_tau", counting_gamma_tau)
        monkeypatch.setattr(measures, "lightlike_frame", counting_frame)
        for scope in ({}, REDUCED_SCOPE[experiment]):
            counted.clear()
            cfg = ExperimentConfig(experiment=experiment, out=str(tmp_path), **scope)
            run_experiment(cfg)
            estimate = estimate_evals(experiment, cfg)
            assert type(estimate) is float
            assert 0 < sum(counted) <= estimate, scope


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "conelab.cli", "gen", "--R", "16",
             "--kind", "light_tube", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "light_tube_R16_s0.cubes").exists()

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
