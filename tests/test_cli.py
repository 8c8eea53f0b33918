import json

import numpy as np
import pytest

import mixlearn.cli as cli
from mixlearn.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    ExperimentConfig,
    generate_source,
    main,
    run_learn,
)
from mixlearn.model import MixtureSource, width_report
from mixlearn.sampling import draw_snapshots


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

    def test_invalid_config_exits_3(self, tmp_path):
        model = self._model(tmp_path)
        rc = main(["learn", "--model", str(model), "--mode", "sampled", "--samples1", "-3"])
        assert rc == EXIT_CONFIG

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
                   "--zeta", "0.6", "--delta", "1e-8", "--seed", "1"])
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
                "--zeta", "0.6", "--delta", "1e-8"]
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
        # an int is a valid value for a float field (omega)
        cfg_path.write_text(json.dumps({"mode": "oracle", "delta": 1e-8, "zeta": 0.6, "omega": 4}))
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

    def test_poisson_mode_runs(self, tmp_path, capsys):
        model = self._model(tmp_path)
        rc = main(["learn", "--model", str(model), "--mode", "sampled", "--seed", "4",
                   "--samples1", "20000", "--samples2", "20000", "--samples-hi", "20000",
                   "--zeta", "0.6", "--delta", "1e-8", "--poisson"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        row = dict(zip(CSV_HEADER.split(","), out[1].split(",")))
        assert float(row["tran_dist"]) < 0.5

    def test_poisson_row_reports_drawn_counts(self, monkeypatch):
        drawn = []

        def recording_draw(*args):
            batch = draw_snapshots(*args)
            drawn.append(len(batch))
            return batch

        monkeypatch.setattr(cli, "draw_snapshots", recording_draw)
        model = generate_source(ExperimentConfig(n=12, k=2, seed=5, zeta=0.6))
        cfg = ExperimentConfig(n=12, k=2, seed=4, samples1=20000, samples2=20000,
                               samples_hi=20000, zeta=0.6, delta=1e-8, poisson=True)
        report, _ = run_learn(cfg, model)
        row = report["row"]
        assert [row["N1"], row["N2"], row["Nhi"]] == drawn
        assert drawn != [20000, 20000, 20000]

    def test_isotropize_path_runs(self, tmp_path):
        model = self._model(tmp_path, n=8, k=2, zeta=0.5, seed=11)
        out = tmp_path / "res.csv"
        rc = main(["learn", "--model", str(model), "--mode", "sampled", "--seed", "2",
                   "--samples1", "50000", "--samples2", "50000", "--samples-hi", "50000",
                   "--zeta", "0.5", "--delta", "1e-8", "--isotropize", "--sigma", "0.25",
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
