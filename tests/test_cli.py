"""Command-line interface: every subcommand, exit codes, CSV formats."""

import csv
import io
import json

import numpy as np
import pytest

from spinfusion import autodiff as ad
from spinfusion.cli import main
from spinfusion.diagrams import FuseNode, FusionDiagram, LeafNode, diagram_to_json, left_comb
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

    @pytest.mark.parametrize(
        "leaves, tree, two_J, message",
        [
            (
                [[0, 2], [1, 2], [2, 2]],
                {"left": {"slot": 0}, "right": {"slot": 1}},
                2,
                "tree leaf order does not match the leaves list",
            ),
            (
                [[0, 2]],
                {"left": {"slot": 0}, "right": {"slot": 1}},
                2,
                "tree leaf order does not match the leaves list",
            ),
            (
                [[1, 2], [0, 2]],
                {"left": {"slot": 0}, "right": {"slot": 1}},
                2,
                "tree leaf order does not match the leaves list",
            ),
            (
                [[0, 2], [1, 2]],
                {"left": {"slot": 0}, "right": {"slot": 1}, "two_k": 0},
                2,
                "root node spin 0 != diagram root spin 2",
            ),
            ([[0, 2]], {"slot": 0}, 4, "root node spin 2 != diagram root spin 4"),
        ],
        ids=["leaves_longer", "leaves_shorter", "other_slot_order", "root_two_k", "one_leaf"],
    )
    def test_leaves_that_disagree_with_the_tree_are_one_error_line(
        self, tmp_path, capsys, leaves, tree, two_J, message
    ):
        # the reader pairs the leaves list with the tree's leaves, in order,
        # and the tree's root spin with two_J, a lone leaf's 2j included
        payload = {
            "two_J": two_J,
            "leaves": [{"slot": slot, "two_j": two_j} for slot, two_j in leaves],
            "tree": tree,
        }
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(payload))
        assert main(["diagram", "validate", "--file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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

    def test_enumerate_one_leaf_is_one_error_line(self, capsys):
        assert main(["diagram", "enumerate", "--leaves", "1", "--root", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need at least two leaf spins (comma-separated)\n"


class TestBlockCheck:
    @pytest.mark.parametrize(
        "mixing", [{"cols": 2}, {"cols": 6, "init": "identity"}], ids=["uniform", "identity"]
    )
    def test_equivariant_block_passes(self, tmp_path, capsys, mixing):
        diagrams = tuple(
            left_comb([2, 2, 2], [k], 2, slots=[0, 1, 2]) for k in (0, 2, 4)
        )
        path = tmp_path / "block.json"
        path.write_text(_block_json(diagrams, rows=6, **mixing))
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

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_one_error_line(self, tmp_path, capsys, trials):
        # no trial checks nothing, so it must not report residuals of 0
        diagrams = (left_comb([2, 2], [], 2, slots=[0, 1]),)
        path = tmp_path / "block.json"
        path.write_text(_block_json(diagrams, rows=2, cols=2))
        assert main(["block", "check", "--config", str(path), f"--trials={trials}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --trials must be at least 1, got {trials}\n"

    @pytest.mark.parametrize(
        "mixing, field",
        [
            ({"rows": 0}, "rows"),
            ({"rows": -4}, "rows"),
            ({"cols": 0}, "cols"),
            ({"init": "identity", "rows": 0, "cols": 0}, "rows"),
        ],
        ids=["zero_rows", "negative_rows", "zero_cols", "identity_zero_rows"],
    )
    def test_non_positive_mixing_shape_is_one_error_line(self, tmp_path, capsys, mixing, field):
        diagrams = (left_comb([2, 2], [], 2, slots=[0, 1]),)
        path = tmp_path / "block.json"
        path.write_text(_block_json(diagrams, **{"rows": 2, "cols": 2, **mixing}))
        assert main(["block", "check", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: mixing {field} must be at least 1, got {mixing[field]}\n"
        )


    @pytest.mark.parametrize(
        "mixing, message",
        [
            ({"init": "identity", "rows": 2, "cols": 3}, "identity mixing must be square"),
            ({"init": "random"}, "unknown mixing init 'random'"),
        ],
        ids=["non_square_identity", "unknown_init"],
    )
    def test_bad_mixing_recipe_is_one_error_line(self, tmp_path, capsys, mixing, message):
        path = tmp_path / "block.json"
        path.write_text(_block_text(**mixing))
        assert main(["block", "check", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_unknown_mixing_key_is_one_error_line(self, tmp_path, capsys):
        # a mixing has no "trainable" flag: "false" must not read as true
        path = tmp_path / "block.json"
        path.write_text(_block_text(trainable="false", scale=2))
        assert main(["block", "check", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown mixing keys: ['scale', 'trainable']\n"

    @pytest.mark.parametrize(
        "missing, owner",
        [
            ("diagrams", "a block"),
            ("mixing", "a block"),
            ("init", "mixing"),
            ("rows", "mixing"),
            ("seed", "mixing"),
        ],
    )
    def test_missing_field_is_named(self, tmp_path, capsys, missing, owner):
        payload = json.loads(_block_text())
        (payload if owner == "a block" else payload["mixing"]).pop(missing)
        path = tmp_path / "block.json"
        path.write_text(json.dumps(payload))
        assert main(["block", "check", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {owner} has no '{missing}' field\n"

    @pytest.mark.parametrize("seed", ['"x"', "4.5", "null"])
    def test_identity_mixing_checks_a_given_seed(self, tmp_path, capsys, seed):
        # the identity never reads its seed, but a malformed one still fails
        path = tmp_path / "block.json"
        path.write_text(_block_text(init="identity").replace('"seed": 0', f'"seed": {seed}'))
        assert main(["block", "check", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: mixing seed must be a JSON integer")

    def test_identity_mixing_needs_no_seed(self, tmp_path, capsys):
        payload = json.loads(_block_text(init="identity"))
        del payload["mixing"]["seed"]
        path = tmp_path / "block.json"
        path.write_text(json.dumps(payload))
        assert main(["block", "check", "--config", str(path), "--trials", "2"]) == 0

    @pytest.mark.parametrize(
        "diagrams",
        [
            (left_comb([2, 2], [], 2, slots=[0, 1]), left_comb([2, 2, 2], [2], 2, slots=[0, 1, 2])),
            # the gated shape: slots (3, 1) and (3, (1, 2)), none of them slot 0
            (
                left_comb([0, 2], [], 2, slots=[3, 1]),
                FusionDiagram(
                    FuseNode(LeafNode(3, 0), FuseNode(LeafNode(1, 2), LeafNode(2, 2), 2), 2)
                ),
            ),
        ],
        ids=["fusion_shape", "gated_shape"],
    )
    def test_two_and_three_leaf_block_passes(self, tmp_path, capsys, diagrams):
        path = tmp_path / "block.json"
        path.write_text(_block_json(diagrams, rows=4, cols=2))
        assert main(["block", "check", "--config", str(path), "--trials", "3"]) == 0
        residuals = {r[0]: float(r[1]) for r in _rows(capsys.readouterr().out)[1:]}
        assert max(residuals.values()) <= 1e-12


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

    def test_seed_override(self, tmp_path, capsys):
        config = _write_model_config(tmp_path, seed=3)
        assert main(["model", "describe", "--config", config, "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "seed: 7" in out and "seed: 3" not in out
        # the override is validated like the file's fields
        assert main(["model", "describe", "--config", config, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: seed must be an integer >= 0")
        assert captured.err.count("\n") == 1

    def test_invalid_config_value_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"tau": 0}')
        assert main(["model", "describe", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tau must be")
        assert err.count("\n") == 1


class TestGradcheck:
    @pytest.mark.parametrize("kind", ["gated", "fused", "three_body"])
    def test_passes_for_each_kind(self, tmp_path, capsys, kind):
        config = _write_model_config(tmp_path, kind=kind)
        assert main(["gradcheck", "--config", config, "--n-atoms", "4"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert all(row[2] == "True" for row in rows[1:])

    def test_zero_step_is_one_error_line(self, tmp_path, capsys):
        config = _write_model_config(tmp_path)
        assert main(["gradcheck", "--config", config, "--n-atoms", "4", "--step", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no header-only table
        assert captured.err.startswith("error: gradcheck step must be finite and > 0")
        assert captured.err.count("\n") == 1

    def test_one_parameter_backward_per_run(self, tmp_path, monkeypatch):
        # the analytic gradients come from one training-step backward; the
        # central differences only record losses
        graph_free = []
        tape_init = ad.Tape.__init__

        def counting_tape_init(tape, *args, **kwargs):
            tape_init(tape, *args, **kwargs)
            if not tape.graph:
                graph_free.append(tape)

        monkeypatch.setattr(ad.Tape, "__init__", counting_tape_init)
        config = _write_model_config(tmp_path)
        assert main(["gradcheck", "--config", config, "--n-atoms", "3"]) == 0
        assert len(graph_free) == 1

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

    @pytest.mark.parametrize(
        "entries",
        [lambda rows: [["0.5"] * len(row) for row in rows],  # strings of the right shape
         lambda rows: [[None] * len(row) for row in rows],
         lambda rows: [[True] * len(row) for row in rows],
         lambda rows: [rows[0] + [0.0]] + rows[1:]],  # ragged
        ids=["strings", "nulls", "bools", "ragged"],
    )
    def test_non_numeric_parameter_is_one_error_line(self, tmp_path, capsys, entries):
        code, err = self._evaluate(
            tmp_path, capsys, lambda p: p.update({"readout/w": entries(p["readout/w"])})
        )
        assert code == 1
        assert err == "error: parameter readout/w must be a JSON array of numbers\n"

    def test_non_finite_parameter_is_rejected(self, tmp_path, capsys):
        def poison(parameters):
            parameters["readout/w"][0][0] = float("nan")

        code, err = self._evaluate(tmp_path, capsys, poison)
        assert code == 1
        assert "parameter readout/w has non-finite entries" in err


def _diagram_text(two_J=0, slot=0):
    return json.dumps({"two_J": two_J, "leaves": [{"slot": slot, "two_j": 0}],
                       "tree": {"slot": 0}})


def _block_json(diagrams, **mixing):
    """The block file of ``diagrams``: summed, mixed by a matrix with the
    recipe ``mixing`` (uniform, seed 4, unless it says otherwise)."""
    mixing = {"init": "uniform", "seed": 4, **mixing}
    payload = {
        "diagrams": [json.loads(diagram_to_json(d)) for d in diagrams],
        "aggregation": "sum",
        "mixing": mixing,
    }
    return json.dumps(payload, indent=2)


def _block_text(**mixing):
    mixing = {"rows": 1, "cols": 1, "init": "uniform", "seed": 0, **mixing}
    return json.dumps({"diagrams": [json.loads(_diagram_text())], "mixing": mixing})


def _record_text(**fields):
    zeros = [[0.0, 0.0, 0.0]] * 3
    record = {"positions": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
              "species": [0, 1, 0], "energy": 1.0, "forces": zeros, **fields}
    return json.dumps(record) + "\n"


_DIAGRAM = ["diagram", "validate", "--file"]
_BLOCK = ["block", "check", "--config"]
_TRAIN = ["train", "--config", "config.json", "--epochs", "1", "--out-curve", "curve.csv",
          "--data"]

# (file name, content, the command reading it, the field its one error line names)
MALFORMED_FILES = [
    ("config.json", '"gated"', ["model", "describe", "--config"], "a model config"),
    ("config.json", "[]", ["model", "describe", "--config"], "a model config"),
    ("config.json", '{"internal_spins": 1}', ["model", "describe", "--config"], "internal_spins"),
    ("config.json", '{"internal_spins": null}', ["model", "describe", "--config"],
     "internal_spins"),
    ("model.json", "[1]", ["evaluate", "--data", "data.jsonl", "--model"], "a model file"),
    ("model.json", '{"config": {}, "parameters": [1]}', ["evaluate", "--data", "data.jsonl",
                                                         "--model"], "model.json: parameters"),
    ("diagram.json", "[]", ["diagram", "validate", "--file"], "a diagram"),
    ("diagram.json", '{"two_J": 0, "leaves": 5, "tree": {"slot": 0}}',
     ["diagram", "validate", "--file"], "leaves"),
    ("diagram.json", '{"two_J": 0, "leaves": [5], "tree": {"slot": 0}}',
     ["diagram", "validate", "--file"], "a leaf"),
    ("diagram.json", '{"two_J": 0, "leaves": [{"slot": 0, "two_j": 0}], "tree": 5}',
     ["diagram", "validate", "--file"], "a tree node"),
    ("block.json", "[]", ["block", "check", "--config"], "a block"),
    ("block.json", '{"diagrams": 3}', ["block", "check", "--config"], "diagrams"),
    ("block.json", '{"diagrams": [], "mixing": 3}', ["block", "check", "--config"], "mixing"),
    ("data.jsonl", "[]\n", _TRAIN, "data.jsonl:1: a record"),
    # numbers of the wrong JSON type: neither a traceback nor a silent coercion
    ("diagram.json", _diagram_text(two_J=None), _DIAGRAM, "two_J"),
    ("diagram.json", _diagram_text(two_J=[2]), _DIAGRAM, "two_J"),
    ("diagram.json", _diagram_text(two_J=2.7), _DIAGRAM, "two_J"),
    ("diagram.json", _diagram_text(two_J="2"), _DIAGRAM, "two_J"),
    ("diagram.json", _diagram_text(slot=None), _DIAGRAM, "slot"),
    ("diagram.json", _diagram_text(slot="0"), _DIAGRAM, "slot"),
    ("block.json", _block_text(rows=None), _BLOCK, "mixing rows"),
    ("block.json", _block_text(rows=3.9), _BLOCK, "mixing rows"),
    ("block.json", _block_text(rows=True), _BLOCK, "mixing rows"),
    ("block.json", _block_text(cols="3"), _BLOCK, "mixing cols"),
    ("block.json", _block_text(seed=None), _BLOCK, "mixing seed"),
    ("block.json", _block_text(seed=4.5), _BLOCK, "mixing seed"),
    ("data.jsonl", _record_text(energy=None), _TRAIN, "data.jsonl:1: energy"),
    ("data.jsonl", _record_text(energy=[1.0]), _TRAIN, "data.jsonl:1: energy"),
    ("data.jsonl", _record_text(energy="1.5"), _TRAIN, "data.jsonl:1: energy"),
    ("data.jsonl", _record_text(energy=True), _TRAIN, "data.jsonl:1: energy"),
    ("data.jsonl", _record_text(species=[0.7, 1, 0]), _TRAIN, "data.jsonl:1: species[0]"),
    ("data.jsonl", _record_text(species=[True, 1, 0]), _TRAIN, "data.jsonl:1: species[0]"),
    ("config.json", '{"cutoff": true}', ["model", "describe", "--config"], "cutoff"),
    ("data.jsonl", _record_text(positions=None), _TRAIN, "data.jsonl:1: positions"),
    ("data.jsonl", _record_text(positions=[["0", 0.0, 0.0]] * 3), _TRAIN,
     "data.jsonl:1: positions[0][0]"),
    ("data.jsonl", _record_text(forces=[0.0, 0.0, 0.0]), _TRAIN, "data.jsonl:1: forces[0]"),
    ("data.jsonl", _record_text(forces=[[0.0, True, 0.0]] * 3), _TRAIN,
     "data.jsonl:1: forces[0][1]"),
]


@pytest.mark.parametrize(
    "name, content, command, field",
    MALFORMED_FILES,
    ids=["config_string", "config_list", "spins_number", "spins_null", "model_list",
         "parameters_list",
         "diagram_list", "leaves_number", "leaf_number", "tree_number", "block_list",
         "diagrams_number", "mixing_number", "jsonl_list", "two_J_null", "two_J_list",
         "two_J_float", "two_J_string", "slot_null", "slot_string", "rows_null", "rows_float",
         "rows_bool", "cols_string", "seed_null", "seed_float", "energy_null", "energy_list",
         "energy_string", "energy_bool", "species_float", "species_bool", "cutoff_bool",
         "positions_null", "positions_string", "forces_flat", "forces_bool"],
)
def test_malformed_json_file_is_one_error_line(
    tmp_path, capsys, monkeypatch, name, content, command, field
):
    monkeypatch.chdir(tmp_path)
    _write_model_config(tmp_path)
    main(["gen-data", "--out", "data.jsonl", "--n-samples", "2", "--n-atoms", "3"])
    (tmp_path / name).write_text(content)
    capsys.readouterr()
    assert main(command + [name]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and f"{field} must be a JSON" in line


def _without(text, *path):
    """The JSON ``text`` with the field at ``path`` (keys and indices) removed."""
    payload = json.loads(text)
    owner = payload
    for key in path[:-1]:
        owner = owner[key]
    del owner[path[-1]]
    return json.dumps(payload) + "\n"


_COMB = diagram_to_json(left_comb([2, 2, 2], [2], 2))
_EVALUATE = ["evaluate", "--data", "data.jsonl", "--model"]

# (file name, content, the command reading it, the owner its one error line names, field)
MISSING_FIELDS = [
    ("diagram.json", _without(_COMB, "two_J"), _DIAGRAM, "a diagram", "two_J"),
    ("diagram.json", _without(_COMB, "leaves"), _DIAGRAM, "a diagram", "leaves"),
    ("diagram.json", _without(_COMB, "tree"), _DIAGRAM, "a diagram", "tree"),
    ("diagram.json", _without(_COMB, "leaves", 0, "slot"), _DIAGRAM, "a leaf", "slot"),
    ("diagram.json", _without(_COMB, "leaves", 2, "two_j"), _DIAGRAM, "a leaf", "two_j"),
    ("diagram.json", _without(_COMB, "tree", "left", "left"), _DIAGRAM, "a tree node", "left"),
    ("diagram.json", _without(_COMB, "tree", "right"), _DIAGRAM, "a tree node", "right"),
    ("diagram.json", _without(_COMB, "tree", "left", "two_k"), _DIAGRAM, "a tree node",
     "two_k"),
    ("model.json", '{"parameters": {}}', _EVALUATE, "model.json: a model file", "config"),
    ("model.json", '{"config": {}}', _EVALUATE, "model.json: a model file", "parameters"),
    *(
        ("data.jsonl", _without(_record_text(), key), _TRAIN, "data.jsonl:1: a record", key)
        for key in ("positions", "species", "energy", "forces")
    ),
]


@pytest.mark.parametrize(
    "name, content, command, owner, field",
    MISSING_FIELDS,
    ids=["diagram_two_J", "diagram_leaves", "diagram_tree", "leaf_slot", "leaf_two_j",
         "node_left", "node_right", "node_two_k", "model_config", "model_parameters",
         "record_positions", "record_species", "record_energy", "record_forces"],
)
def test_missing_field_is_one_error_line(
    tmp_path, capsys, monkeypatch, name, content, command, owner, field
):
    # each file reader names the field it misses, not the bare KeyError text
    monkeypatch.chdir(tmp_path)
    _write_model_config(tmp_path)
    main(["gen-data", "--out", "data.jsonl", "--n-samples", "2", "--n-atoms", "3"])
    (tmp_path / name).write_text(content)
    capsys.readouterr()
    assert main(command + [name]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {owner} has no '{field}' field\n"


class TestPlotData:
    @pytest.mark.parametrize(
        "curve, message",
        [
            ("epoch,loss\n0,1.0\n", "curve file must be CSV with header epoch,train_loss,val_loss"),
            ("epoch,train_loss,val_loss\n0,1.0,1.0\n1,0.5\n", "line 3: expected 3 columns"),
            ("epoch,train_loss,val_loss\nx,1.0,1.0\n", "line 2: epoch must be an integer, got 'x'"),
            (
                "epoch,train_loss,val_loss\n0,1.0,1.0\n1,abc,1.0\n",
                "line 3: train_loss must be a number, got 'abc'",
            ),
        ],
        ids=["wrong_header", "short_row", "non_integer_epoch", "non_numeric_loss"],
    )
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out_file"])
    def test_bad_curve_is_one_error_line(self, tmp_path, capsys, curve, message, to_file):
        # no row is written, to stdout or to --out, before the file is read through
        path, out = tmp_path / "curve.csv", tmp_path / "plot.csv"
        path.write_text(curve)
        assert main(["plot-data", "--curve", str(path)] + ["--out", str(out)] * to_file) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()


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
