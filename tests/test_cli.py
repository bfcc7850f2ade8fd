"""Command-line interface: every subcommand, exit codes, CSV formats."""

import csv
import io
import json

import numpy as np
import pytest

from spinfusion.blocks import (
    AggregationKind,
    FusionBlockConfig,
    block_to_json,
    uniform_mixing,
)
from spinfusion.cli import main
from spinfusion.diagrams import diagram_to_json, left_comb
from spinfusion.model import Model, ModelConfig


def _write_model_config(tmp_path, **overrides):
    base = dict(
        kind="gated",
        n_layers=1,
        tau=2,
        j_max=1,
        cutoff=3.0,
        radial_channels=4,
        hidden=8,
        n_species=2,
        seed=0,
    )
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(ModelConfig(**base).to_json())
    return str(path)


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


class TestCgTable:
    def test_half_half_to_one_rows(self, capsys):
        assert main(["cg-table", "--ja", "1/2", "--jb", "1/2", "--jc", "1"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert rows[0] == ["ma", "mb", "mc", "coefficient"]
        table = {(r[0], r[1], r[2]): float(r[3]) for r in rows[1:]}
        # the symmetric m=0 combinations carry 1/sqrt(2)
        assert table[("1/2", "-1/2", "0")] == pytest.approx(0.70710678118654757)
        assert table[("-1/2", "1/2", "0")] == pytest.approx(0.70710678118654757)
        assert table[("1/2", "1/2", "1")] == pytest.approx(1.0)

    def test_seventeen_digit_reals(self, capsys):
        main(["cg-table", "--ja", "1/2", "--jb", "1/2", "--jc", "1"])
        out = capsys.readouterr().out
        assert "0.70710678118654757" in out

    def test_decimal_spin_spelling(self, capsys):
        assert main(["cg-table", "--ja", "0.5", "--jb", "0.5", "--jc", "0"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert len(rows) == 3  # header + two nonzero entries

    def test_inadmissible_triple_fails(self, capsys):
        assert main(["cg-table", "--ja", "1/2", "--jb", "1/2", "--jc", "3"]) == 1
        assert "error" in capsys.readouterr().err.lower()


class TestDiagram:
    def test_validate_good_diagram(self, tmp_path, capsys):
        path = tmp_path / "good.json"
        path.write_text(diagram_to_json(left_comb([2, 2, 2], [2], 2)))
        assert main(["diagram", "validate", "--file", str(path)]) == 0
        assert "valid" in capsys.readouterr().out.lower()

    def test_validate_bad_diagram(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        payload = json.loads(diagram_to_json(left_comb([2, 2, 2], [2], 2)))
        payload["tree"]["left"]["two_k"] = 6  # spin-1 pair cannot fuse to 3
        path.write_text(json.dumps(payload))
        assert main(["diagram", "validate", "--file", str(path)]) == 1
        assert "cannot fuse" in capsys.readouterr().out

    def test_validate_missing_file(self, capsys):
        assert main(["diagram", "validate", "--file", "/no/such/file.json"]) == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_enumerate_rows(self, capsys):
        assert main(["diagram", "enumerate", "--leaves", "1,1,1", "--root", "1"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert rows[0] == ["k1"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]

    def test_enumerate_empty_result(self, capsys):
        assert main(["diagram", "enumerate", "--leaves", "0,0", "--root", "2"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert len(rows) == 1  # header only

    def test_enumerate_two_leaves_single_trivial_row(self, capsys):
        assert main(["diagram", "enumerate", "--leaves", "1,1", "--root", "0"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert len(rows) == 2  # one coupling with no internal spins


class TestBlockCheck:
    def test_equivariant_block_passes(self, tmp_path, capsys):
        diagrams = tuple(
            left_comb([2, 2, 2], [k], 2, slots=[0, 1, 2]) for k in (0, 2, 4)
        )
        config = FusionBlockConfig(
            diagrams, AggregationKind.SUM, uniform_mixing(6, 2, seed=4)
        )
        path = tmp_path / "block.json"
        path.write_text(block_to_json(config))
        assert main(["block", "check", "--config", str(path), "--trials", "5"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert rows[0] == ["check", "max_residual"]
        residuals = {r[0]: float(r[1]) for r in rows[1:]}
        assert residuals["equivariance"] <= 1e-12
        assert residuals["permutation"] <= 1e-12

    def test_bad_json_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["block", "check", "--config", str(path)]) == 1


class TestModelDescribe:
    def test_lists_groups_and_total(self, tmp_path, capsys):
        config = _write_model_config(tmp_path, kind="three_body")
        assert main(["model", "describe", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "total" in out.lower()
        assert "embed" in out

    def test_bad_config_key_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "gated", "bogus": 1}')
        assert main(["model", "describe", "--config", str(path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err


class TestGradcheck:
    @pytest.mark.parametrize("kind", ["gated", "fused", "three_body"])
    def test_passes_for_each_kind(self, tmp_path, capsys, kind):
        config = _write_model_config(tmp_path, kind=kind)
        assert main(["gradcheck", "--config", config, "--n-atoms", "4"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert all(row[2] == "True" for row in rows[1:])

    def test_reports_per_group_rows(self, tmp_path, capsys):
        config = _write_model_config(tmp_path)
        main(["gradcheck", "--config", config, "--n-atoms", "4"])
        rows = _rows(capsys.readouterr().out)
        assert rows[0] == ["parameter_group", "max_rel_error", "passed"]
        assert len(rows) > 2
        for row in rows[1:]:
            assert float(row[1]) <= 1e-6


class TestPipeline:
    def test_gen_train_evaluate_plot(self, tmp_path, capsys):
        data = tmp_path / "train.jsonl"
        assert (
            main(
                [
                    "gen-data",
                    "--out",
                    str(data),
                    "--n-samples",
                    "6",
                    "--n-atoms",
                    "4",
                    "--potential",
                    "morse",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        assert data.exists()
        first = json.loads(data.read_text().splitlines()[0])
        assert set(first) >= {"positions", "species", "energy", "forces", "units"}
        capsys.readouterr()

        config = _write_model_config(tmp_path)
        curve = tmp_path / "curve.csv"
        trained = tmp_path / "model.json"
        assert (
            main(
                [
                    "train",
                    "--config",
                    config,
                    "--data",
                    str(data),
                    "--epochs",
                    "2",
                    "--batch-size",
                    "3",
                    "--out-curve",
                    str(curve),
                    "--out-model",
                    str(trained),
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        train_out = capsys.readouterr().out
        assert train_out.startswith("run ")  # 16-hex run id + seed
        run_id = train_out.split()[1]
        assert len(run_id) == 16
        int(run_id, 16)
        rows = _rows(curve.read_text())
        assert rows[0] == ["epoch", "train_loss", "val_loss"]
        assert len(rows) == 3
        losses = [float(r[1]) for r in rows[1:]]
        assert all(np.isfinite(losses))

        assert main(["evaluate", "--model", str(trained), "--data", str(data)]) == 0
        rows = _rows(capsys.readouterr().out)
        assert rows[0] == ["metric", "value"]
        metrics = {r[0]: float(r[1]) for r in rows[1:]}
        assert "energy_mae" in metrics and "force_mae" in metrics

        out_csv = tmp_path / "plot.csv"
        assert main(["plot-data", "--curve", str(curve), "--out", str(out_csv)]) == 0
        replot = _rows(out_csv.read_text())
        assert replot[0] == rows_header(curve)
        assert len(replot) == 3

    def test_train_determinism_across_runs(self, tmp_path, capsys):
        data = tmp_path / "train.jsonl"
        main(["gen-data", "--out", str(data), "--n-samples", "4", "--n-atoms", "4"])
        config = _write_model_config(tmp_path)
        curves = []
        for name in ("a.csv", "b.csv"):
            curve = tmp_path / name
            main(
                [
                    "train",
                    "--config",
                    config,
                    "--data",
                    str(data),
                    "--epochs",
                    "2",
                    "--out-curve",
                    str(curve),
                    "--seed",
                    "7",
                ]
            )
            curves.append(curve.read_text())
        capsys.readouterr()
        assert curves[0] == curves[1]


def rows_header(curve_path):
    return _rows(curve_path.read_text())[0]


class TestModelFile:
    def _evaluate(self, tmp_path, capsys, edit):
        model = Model(ModelConfig(tau=2, radial_channels=4, hidden=8))
        parameters = {name: array.tolist() for name, array in model.parameters().items()}
        edit(parameters)
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"config": json.loads(model.config.to_json()), "parameters": parameters})
        )
        data = tmp_path / "data.jsonl"
        main(["gen-data", "--out", str(data), "--n-samples", "2", "--n-atoms", "3"])
        capsys.readouterr()
        code = main(["evaluate", "--model", str(path), "--data", str(data)])
        return code, capsys.readouterr().err

    def test_missing_parameter_is_rejected(self, tmp_path, capsys):
        # a partial file must not evaluate with the seeded initial weights
        code, err = self._evaluate(tmp_path, capsys, lambda p: p.pop("readout/w"))
        assert code == 1
        assert "missing parameters ['readout/w']" in err

    def test_unknown_parameter_is_rejected(self, tmp_path, capsys):
        code, err = self._evaluate(
            tmp_path, capsys, lambda p: p.update({"layer9/bogus": [0.0]})
        )
        assert code == 1
        assert "unknown parameters ['layer9/bogus']" in err


class TestArgumentErrors:
    def test_unknown_flag_is_exit_2(self, capsys):
        assert main(["cg-table", "--ja", "1", "--jb", "1", "--jc", "1", "--frob", "1"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_argument_is_exit_2(self, capsys):
        assert main(["cg-table", "--ja", "1"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_is_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_arguments_is_exit_2(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_data_file_is_exit_1(self, tmp_path, capsys):
        config = _write_model_config(tmp_path)
        code = main(
            [
                "train",
                "--config",
                config,
                "--data",
                "/no/such/data.jsonl",
                "--epochs",
                "1",
                "--out-curve",
                str(tmp_path / "c.csv"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--epochs", "0"], "--epochs must be at least 1, got 0"),
            (["--epochs", "1", "--batch-size", "0"], "batch_size must be at least 1, got 0"),
            (["--epochs", "1", "--batch-size", "-2"], "batch_size must be at least 1, got -2"),
        ],
    )
    def test_bad_epochs_or_batch_size_is_exit_1(self, tmp_path, capsys, flags, message):
        data = tmp_path / "train.jsonl"
        main(["gen-data", "--out", str(data), "--n-samples", "2", "--n-atoms", "3"])
        capsys.readouterr()
        curve, trained = tmp_path / "curve.csv", tmp_path / "model.json"
        code = main(
            ["train", "--config", _write_model_config(tmp_path), "--data", str(data),
             "--out-curve", str(curve), "--out-model", str(trained)] + flags
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.strip() == f"error: {message}"
        assert captured.out == ""
        assert not curve.exists() and not trained.exists()

    def test_every_subcommand_accepts_seed(self, capsys):
        # --seed parses everywhere; commands with missing required arguments
        # still exit 2, proving the flag itself was accepted
        assert main(["diagram", "enumerate", "--leaves", "1,1", "--root", "0", "--seed", "5"]) == 0
        capsys.readouterr()
