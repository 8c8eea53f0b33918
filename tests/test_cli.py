import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixlearn.cli as cli
import mixlearn.learner as learner
from mixlearn.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_LEARNING,
    EXIT_OK,
    ExperimentConfig,
    generate_source,
    main,
    run_learn,
)
from mixlearn.isotropize import MAX_NPRIME
from mixlearn.learner import DrawnInputs
from mixlearn.model import MixtureSource, mixture_transport, width_report
from mixlearn.sampling import RngStream

REPO = Path(__file__).resolve().parent.parent


class TestGenerate:
    def test_k1_trivial(self):
        src = generate_source(ExperimentConfig(n=6, k=1, seed=0))
        assert src.k == 1
        assert np.allclose(src.constituents[0], 1.0 / 6)

    def test_generated_source_is_isotropic_and_wide(self):
        cfg = ExperimentConfig(n=30, k=2, seed=4, zeta=0.6)
        src = generate_source(cfg)
        rep = width_report(src)
        assert rep.isotropic
        assert rep.zeta >= cfg.zeta

    def test_cli_generate_writes_model(self, tmp_path):
        out = tmp_path / "model.json"
        rc = main(["generate", "--n", "12", "--k", "2", "--seed", "5", "--zeta", "0.5",
                   "--out", str(out)])
        assert rc == EXIT_OK
        src = MixtureSource.from_json(out.read_text())
        assert src.n == 12 and src.k == 2


class TestLearnCommand:
    def _model(self, tmp_path, n=12, k=2, zeta=0.6, seed=5):
        out = tmp_path / "model.json"
        rc = main(["generate", "--n", str(n), "--k", str(k), "--seed", str(seed),
                   "--zeta", str(zeta), "--out", str(out)])
        assert rc == EXIT_OK
        return out

    def test_missing_model_exits_2(self, tmp_path):
        rc = main(["learn", "--model", str(tmp_path / "nope.json")])
        assert rc == EXIT_IO

    def test_noisy_statistics_exit_1(self, tmp_path, capsys):
        # at 100 snapshots per aperture this seed leaves the annihilator LP
        # infeasible: a failed run, not an invalid config
        model = self._model(tmp_path, n=16, seed=5, zeta=0.5)
        rc = main(["learn", "--model", str(model), "--seed", "11", "--samples1", "100",
                   "--samples2", "100", "--samples-hi", "100", "--zeta", "0.5"])
        assert rc == EXIT_LEARNING
        assert "learning failed: corrupt statistics" in capsys.readouterr().err

    def test_unbounded_annihilator_lp_exits_1(self, tmp_path):
        # on exact moments of this k = 6 source the dense simplex reports one
        # direction's annihilator LP unbounded: a failed run, not a traceback
        model = self._model(tmp_path, n=100, k=6, seed=9, zeta=0.1)
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        out = subprocess.run([sys.executable, "-m", "mixlearn", "learn", "--model", str(model),
                              "--mode", "oracle", "--seed", "38", "--zeta", "0.19619358296779385"],
                             env=env, timeout=60, capture_output=True, text=True)
        assert out.returncode == EXIT_LEARNING
        assert "error: learning failed: annihilator LP failed: objective unbounded below" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("varsigma", ["1.5", "1e-20"])
    def test_varsigma_out_of_range_exits_3(self, tmp_path, varsigma):
        # xi = varsigma^(8 k^2) exceeds 1 at 1.5 and underflows to 0 at 1e-20 (k = 2)
        model = self._model(tmp_path)
        assert main(["learn", "--model", str(model), "--varsigma", varsigma]) == EXIT_CONFIG

    def test_invalid_config_exits_3(self, tmp_path):
        model = self._model(tmp_path)
        rc = main(["learn", "--model", str(model), "--mode", "sampled", "--samples1", "-3"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("name", ["samples1", "samples2", "samples-hi"])
    def test_sampled_mode_needs_a_snapshot_of_each_kind(self, tmp_path, capsys, name):
        model = self._model(tmp_path)
        assert main(["learn", "--model", str(model), f"--{name}", "0"]) == EXIT_CONFIG
        assert "sample counts must be at least 1 in sampled mode" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["learn", "--delta", "1e-8"], ["learn", "--omega", "4"], ["learn", "--bogus", "1"],
        ["generate", "--n", "abc"], ["learn", "--mode", "exact"], ["frobnicate"]])
    def test_usage_error_exits_3(self, tmp_path, capsys, argv):
        # argparse's own exit code, 2, is the I/O one
        model = self._model(tmp_path)
        assert main([*argv, "--model", str(model)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: mixlearn") and "error: invalid config: " in err

    @pytest.mark.parametrize("argv", [["-h"], ["learn", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert "usage: mixlearn" in capsys.readouterr().out

    def test_empty_surviving_chunk_exits_1(self, tmp_path, capsys):
        # sigma = 0.49 keeps few items, and of 2 (2k-1)-snapshots none survives
        # at seed 4 (seed 2 keeps some): a failed draw, not an invalid config
        model = self._model(tmp_path, n=20, k=2, zeta=0.5, seed=3)
        argv = ["learn", "--model", str(model), "--isotropize", "--sigma", "0.49",
                "--samples1", "100000", "--samples2", "100000", "--samples-hi", "2"]
        assert main([*argv, "--seed", "4"]) == EXIT_LEARNING
        assert "learning failed: empty (2k-1)-snapshot chunk" in capsys.readouterr().err
        assert main([*argv, "--seed", "2"]) == EXIT_OK

    def test_no_poissonized_1_snapshot_exits_1(self, tmp_path, capsys):
        # Poisson(1) draws 0 at seed 1
        model = self._model(tmp_path)
        rc = main(["learn", "--model", str(model), "--poisson", "--samples1", "1", "--seed", "1"])
        assert rc == EXIT_LEARNING
        assert "learning failed: no 1-snapshot was drawn" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"n": "abc"}', '{"n": 20,', '[1, 2]', '{"n": true}',
                                      '{"n": 20.0}', '{"zeta": "0.5"}', '{"poisson": 1}'])
    def test_malformed_config_exits_3(self, tmp_path, text):
        model = self._model(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        rc = main(["learn", "--model", str(model), "--config", str(cfg_path)])
        assert rc == EXIT_CONFIG

    def test_unreadable_config_exits_2(self, tmp_path):
        model = self._model(tmp_path)
        rc = main(["learn", "--model", str(model), "--config", str(tmp_path)])
        assert rc == EXIT_IO

    @pytest.mark.parametrize("text", [
        "not json", '{"n": 2}', '{"weights": [1.0], "constituents": "x"}',
        '{"n": 2, "k": 2, "weights": [0.5, 0.5], "constituents": [[NaN, NaN], [0.5, 0.5]]}'])
    def test_malformed_model_exits_3(self, tmp_path, text):
        model = tmp_path / "model.json"
        model.write_text(text)
        rc = main(["learn", "--model", str(model), "--mode", "oracle"])
        assert rc == EXIT_CONFIG

    def test_oracle_learn_runs(self, tmp_path, capsys):
        model = self._model(tmp_path)
        rc = main(["learn", "--model", str(model), "--mode", "oracle",
                   "--zeta", "0.6", "--seed", "1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == CSV_HEADER
        row = dict(zip(CSV_HEADER.split(","), out[1].split(",")))
        assert float(row["tran_dist"]) < 1e-3

    def test_seed_repeat_bit_identical_csv(self, tmp_path):
        # wall_ms is timing and excluded from the determinism contract
        model = self._model(tmp_path)
        args = ["learn", "--model", str(model), "--mode", "sampled", "--seed", "9",
                "--samples1", "20000", "--samples2", "20000", "--samples-hi", "20000",
                "--zeta", "0.6"]
        rows = []
        for out in ("a.csv", "b.csv"):
            path = tmp_path / out
            rc = main(args + ["--out", str(path)])
            assert rc == EXIT_OK
            rows.append(path.read_text().splitlines()[1].split(","))
        head = CSV_HEADER.split(",")
        for name, va, vb in zip(head, rows[0], rows[1]):
            if name != "wall_ms":
                assert va == vb, name

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        model = self._model(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        # an int is a valid value for a float field (eps)
        cfg_path.write_text(json.dumps({"mode": "oracle", "zeta": 0.6, "eps": 1}))
        rc = main(["learn", "--model", str(model), "--mode", "sampled",
                   "--config", str(cfg_path), "--seed", "3"])
        assert rc == EXIT_OK  # oracle mode from the config file wins
        out = capsys.readouterr().out.splitlines()
        row = dict(zip(CSV_HEADER.split(","), out[1].split(",")))
        assert float(row["tran_dist"]) < 1e-3

    def test_unknown_config_key_exits_3(self, tmp_path):
        model = self._model(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        rc = main(["learn", "--model", str(model), "--config", str(cfg_path)])
        assert rc == EXIT_CONFIG

    def test_threads_key_exits_3(self, tmp_path):
        # the thread pool is gone; its key is unknown like any other
        model = self._model(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"threads": 2}))
        rc = main(["learn", "--model", str(model), "--config", str(cfg_path)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("overrides, statistics", [
        ({"mode": "oracle"}, "exact"),
        ({}, "drawn"),
        ({"poisson": True}, "drawn"),
        ({"isotropize": True, "sigma": 0.25}, "drawn"),
    ])
    def test_manifest_records_statistics(self, overrides, statistics):
        model = generate_source(ExperimentConfig(n=8, k=2, seed=11, zeta=0.5))
        cfg = ExperimentConfig(n=8, k=2, seed=2, samples1=50000, samples2=50000,
                               samples_hi=50000, zeta=0.5, **overrides)
        report, _ = run_learn(cfg, model)
        assert report["manifest"]["statistics"] == statistics
        assert report["manifest"]["mode"] == ("oracle" if statistics == "exact" else "sampled")

    @pytest.mark.parametrize("mode", ["oracle", "sampled"])
    def test_report_model_is_the_model_document(self, mode):
        model = generate_source(ExperimentConfig(n=8, k=2, seed=11, zeta=0.5))
        cfg = ExperimentConfig(n=8, k=2, seed=2, samples1=50000, samples2=50000,
                               samples_hi=50000, zeta=0.5, mode=mode)
        report, learned = run_learn(cfg, model)
        assert report["model"] == json.loads(learned.to_json())

    def test_poisson_mode_runs(self, tmp_path, capsys):
        model = self._model(tmp_path)
        rc = main(["learn", "--model", str(model), "--mode", "sampled", "--seed", "4",
                   "--samples1", "20000", "--samples2", "20000", "--samples-hi", "20000",
                   "--zeta", "0.6", "--poisson"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        row = dict(zip(CSV_HEADER.split(","), out[1].split(",")))
        assert float(row["tran_dist"]) < 0.5

    def test_poisson_row_reports_drawn_counts(self, monkeypatch):
        # the totals of the item counts, the pair counts and the one
        # direction's bit-sum histogram (k = 2) the statistics were drawn as
        drawn = []
        multinomial_counts = learner._multinomial_counts

        def recording_counts(*args):
            counts = multinomial_counts(*args)
            drawn.append(int(counts.sum()))
            return counts

        monkeypatch.setattr(learner, "_multinomial_counts", recording_counts)
        model = generate_source(ExperimentConfig(n=12, k=2, seed=5, zeta=0.6))
        cfg = ExperimentConfig(n=12, k=2, seed=4, samples1=20000, samples2=20000,
                               samples_hi=20000, zeta=0.6, poisson=True)
        report, _ = run_learn(cfg, model)
        row = report["row"]
        assert [row["N1"], row["N2"], row["Nhi"]] == drawn
        assert drawn != [20000, 20000, 20000]

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["zeta", "omega", "delta", "varsigma", "wmin", "eps", "sigma"])
    def test_nonfinite_float_exits_3(self, tmp_path, capsys, name, value, route):
        # omega and delta are no longer options: a value of theirs exits 3 as unknown
        model = tmp_path / "model.json"
        model.write_text(MixtureSource(np.ones(1), np.full((1, 4), 0.25)).to_json())
        argv = ["learn", "--model", str(model)]
        if route == "flag":
            argv.append(f"--{name}={value}")
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({name: float(value)}))  # NaN, Infinity, -Infinity
            argv += ["--config", str(cfg_path)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        if name not in ("omega", "delta"):
            assert f"{name} must be finite" in err
        elif route == "flag":
            assert f"unrecognized arguments: --{name}={value}" in err
        else:
            assert f"unknown config key {name!r}" in err

    def test_isotropize_default_sigma_runs(self, tmp_path):
        # the default sigma splits n = 20 items into about 25600 copies; the
        # learner keeps nprime-long vectors only, never an nprime^2 matrix
        model = self._model(tmp_path, n=20, k=2, zeta=0.5, seed=3)
        out = tmp_path / "res.csv"
        tracemalloc.start()
        try:
            rc = main(["learn", "--model", str(model), "--seed", "2", "--samples1", "100000",
                       "--samples2", "100000", "--samples-hi", "100000", "--isotropize",
                       "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "res.csv.json").read_text())
        assert report["survival"]["nprime"] > 4096
        assert peak <= 64 * 2**20

    def test_isotropize_draws_no_rows(self, tmp_path, monkeypatch):
        # as rows, 1e9 1-snapshots alone would take 8 GB
        def no_rows(*args, **kwargs):
            raise AssertionError("draw_snapshots was called")

        monkeypatch.setattr(cli, "draw_snapshots", no_rows)
        model = self._model(tmp_path, n=20, k=2, zeta=0.5, seed=3)
        out = tmp_path / "res.csv"
        tracemalloc.start()
        try:
            rc = main(["learn", "--model", str(model), "--seed", "2", "--samples1", "1000000000",
                       "--samples2", "1000000000", "--samples-hi", "1000000000", "--isotropize",
                       "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_OK
        assert peak <= 64 * 2**20
        survival = json.loads((tmp_path / "res.csv.json").read_text())["survival"]
        assert survival["drawn"] == [10**9] * 3
        assert all(0 < kept <= 10**9 for kept in survival["survived"])

    def test_isotropize_sigma_too_fine_exits_3(self, tmp_path, capsys):
        model = self._model(tmp_path, n=20, k=2, zeta=0.5, seed=3)
        src = MixtureSource.from_json(model.read_text())
        sigma = 1e-7
        # the run's item counts: its seed's stream 11, as run_learn draws them
        rt = DrawnInputs(src, 2000, 2000, 2000, RngStream(2).child(11)).mean_distribution()
        nprime = int(np.floor(src.n * rt[rt >= 2 * sigma / src.n] / sigma).sum())
        assert nprime > MAX_NPRIME
        rc = main(["learn", "--model", str(model), "--seed", "2", "--samples1", "2000",
                   "--samples2", "2000", "--samples-hi", "2000", "--isotropize",
                   "--sigma", str(sigma)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"sigma={sigma!r}" in err and f"nprime={nprime}" in err
        assert f"more than {MAX_NPRIME}" in err and "--sigma" in err

    def test_isotropize_sigma_overflowing_the_cast_exits_3(self, tmp_path, capsys):
        # floor(n rt / sigma) is about 1e300 copies, past int64: rejected before the cast
        model = self._model(tmp_path, n=20, k=2, zeta=0.5, seed=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["learn", "--model", str(model), "--seed", "2", "--samples1", "2000",
                       "--samples2", "2000", "--samples-hi", "2000", "--isotropize",
                       "--sigma", "1e-300"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sigma=1e-300" in err and f"more than {2**24}" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_isotropize_learns_every_seed(self):
        # sigma = 0.25 at n = 20 splits into about 70 copies; learning from
        # rows relabeled to random copies failed every one of these seeds
        model = generate_source(ExperimentConfig(n=20, k=2, seed=11, zeta=0.5))
        trivial = MixtureSource(np.full(2, 0.5), np.tile(model.mean(), (2, 1)))
        bound = mixture_transport(model, trivial).cost / 10.0
        for seed in range(20):
            cfg = ExperimentConfig(n=20, k=2, seed=seed, samples1=100000, samples2=100000,
                                   samples_hi=100000, zeta=0.5, isotropize=True,
                                   sigma=0.25)
            report, _ = run_learn(cfg, model)
            assert report["kprime"] == 1, seed
            assert report["row"]["tran_dist"] < bound, seed

    def test_isotropize_path_runs(self, tmp_path):
        model = self._model(tmp_path, n=8, k=2, zeta=0.5, seed=11)
        out = tmp_path / "res.csv"
        rc = main(["learn", "--model", str(model), "--mode", "sampled", "--seed", "2",
                   "--samples1", "50000", "--samples2", "50000", "--samples-hi", "50000",
                   "--zeta", "0.5", "--isotropize", "--sigma", "0.25",
                   "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "res.csv.json").read_text())
        assert report["row"]["tran_dist"] < 0.5


class TestLowerboundCommand:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "lb.csv"
        rc = main(["lowerbound", "--k", "2", "--b", "3", "--rho", "2", "--m", "2",
                   "--out", str(out)])
        assert rc == EXIT_OK
        text = out.read_text()
        rows = dict(line.split(",", 1) for line in text.strip().splitlines()[1:])
        assert float(rows["lp_value"]) <= float(rows["lp_bound"])
        assert abs(float(rows["tv_closed_form"]) - float(rows["tv_brute_force"])) < 1e-10
        assert float(rows["tv_aperture_2"]) <= 1e-6
        assert float(rows["tv_aperture_3"]) > 0
        assert float(rows["moment_1_first"]) == pytest.approx(float(rows["moment_1_second"]), abs=1e-9)

    def test_defaults(self, capsys):
        rc = main(["lowerbound", "--k", "1"])
        assert rc == EXIT_OK
        assert "lp_value" in capsys.readouterr().out

    def test_k11_completes(self, capsys):
        rc = main(["lowerbound", "--k", "11"])
        assert rc == EXIT_OK
        rows = dict(line.split(",", 1) for line in capsys.readouterr().out.strip().splitlines()[1:])
        assert float(rows["lp_value"]) <= float(rows["lp_bound"])

    def test_k40_completes(self, capsys):
        rc = main(["lowerbound", "--k", "40"])
        assert rc == EXIT_OK
        rows = dict(line.split(",", 1) for line in capsys.readouterr().out.strip().splitlines()[1:])
        assert float(rows["lp_value"]) <= float(rows["lp_bound"])
        assert rows["tv_aperture_78"] == "0.0"
        assert float(rows["tv_aperture_78"]) < float(rows["tv_aperture_79"])
        assert float(rows["tv_aperture_79"]) == pytest.approx(float(rows["tv_closed_form"]), rel=1e-12)

    @pytest.mark.parametrize("argv, limit", [
        (["--k", "2", "--b", "2000"], "645"),
        (["--k", "3", "--m", "2000"], "645"),
        (["--rho", "inf"], "finite"),
        (["--rho", "nan"], "finite"),
        (["--k", "3", "--rho", "1e300"], "largest double"),
    ])
    def test_out_of_range_exits_3(self, capsys, argv, limit):
        rc = main(["lowerbound", *argv])
        assert rc == EXIT_CONFIG
        assert limit in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(-2, 8) | st.sampled_from([400, 10**6, 2**70]),
           b=st.none() | st.integers(-3, 30) | st.sampled_from([646, 2000, 10**9]),
           rho=st.floats(0.0, 1e6) | st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 1e308]),
           m=st.none() | st.integers(-3, 30) | st.sampled_from([646, 2000, 10**9]))
    def test_exit_contract_property(self, k, b, rho, m):
        argv = ["lowerbound", f"--k={k}", f"--rho={rho!r}"]
        if b is not None:
            argv.append(f"--b={b}")
        if m is not None:
            argv.append(f"--m={m}")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (EXIT_OK, EXIT_CONFIG)
