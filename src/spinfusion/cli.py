"""Command-line interface.

One executable with subcommands for the representation-theory tables, fusion
diagrams and blocks, model inspection, gradient checking, data generation,
training, and evaluation.  Exit codes: 0 success, 1 domain failure (invalid
diagram, residual above tolerance, bad input file), 2 usage error (unknown
flag, missing argument; argparse prints the synopsis to stderr).

``gradcheck`` runs the training step's own loss paths
(``training._batch_loss_and_gradients`` once for the analytic gradients,
``training.batch_loss`` at every central-difference point), so it checks
the gradients that ``train`` steps on.

All real numbers in CSV output are printed with 17 significant digits so
values round-trip exactly through text.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import autodiff as ad
from .blocks import apply as block_apply, block_from_json
from .cg import cg_tensor
from .data import generate_dataset, load_jsonl, save_jsonl
from .diagrams import diagram_from_json, enumerate_internal, validate
from .errors import SpinFusionError, check_json, json_field
from .irreps import Activation
from .model import Model, ModelConfig
from .potentials import POTENTIAL_KINDS
from .rotations import haar_rotation
from .spins import format_spin, parse_spin, twice_m_range
from .training import (
    LossConfig,
    _batch_loss_and_gradients,
    batch_loss,
    evaluate as run_evaluate,
    train as run_train,
)
from .wigner import wigner_D

__all__ = ["main"]


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_cg_table(args: argparse.Namespace) -> int:
    two_ja = parse_spin(args.ja)
    two_jb = parse_spin(args.jb)
    two_jc = parse_spin(args.jc)
    tensor = cg_tensor(two_ja, two_jb, two_jc)
    print("ma,mb,mc,coefficient")
    for ia, two_ma in enumerate(twice_m_range(two_ja)):
        for ib, two_mb in enumerate(twice_m_range(two_jb)):
            for ic, two_mc in enumerate(twice_m_range(two_jc)):
                value = tensor.coeffs[ia, ib, ic]
                if value != 0.0:
                    print(
                        f"{format_spin(two_ma)},{format_spin(two_mb)},"
                        f"{format_spin(two_mc)},{_fmt(value)}"
                    )
    return 0


def _cmd_diagram_validate(args: argparse.Namespace) -> int:
    diagram = diagram_from_json(_read_text(args.file))
    violations = validate(diagram)
    if violations:
        for message in violations:
            print(message)
        return 1
    print(f"valid: {diagram.arity} leaves fuse to spin {format_spin(diagram.two_J)}")
    return 0


def _cmd_diagram_enumerate(args: argparse.Namespace) -> int:
    leaf_spins = [parse_spin(text) for text in args.leaves.split(",") if text.strip()]
    if len(leaf_spins) < 2:
        raise SpinFusionError("need at least two leaf spins (comma-separated)")
    two_root = parse_spin(args.root)
    assignments = enumerate_internal(leaf_spins, two_root)
    n_internal = max(len(leaf_spins) - 2, 0)
    print(",".join(f"k{i + 1}" for i in range(n_internal)) or "k")
    for assignment in assignments:
        print(",".join(format_spin(two_k) for two_k in assignment) or "-")
    return 0


def _slot_inputs(block, rng):
    """Random per-slot Activations covering every spin the diagrams use."""
    spins_by_slot: dict[int, set[int]] = {}
    for diagram in block.diagrams:
        for slot, two_j in diagram.leaves:
            spins_by_slot.setdefault(slot, set()).add(two_j)
    channels = block.mixing.shape[0] // len(block.diagrams)
    inputs = {}
    for slot, spins in spins_by_slot.items():
        inputs[slot] = Activation(
            {
                two_j: rng.normal(size=(two_j + 1, channels))
                + 1j * rng.normal(size=(two_j + 1, channels))
                for two_j in sorted(spins)
            }
        )
    return inputs


def _cmd_block_check(args: argparse.Namespace) -> int:
    if args.trials < 1:  # zero trials would report residuals of 0 for nothing checked
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    block = block_from_json(_read_text(args.config))
    rng = np.random.default_rng(args.seed)
    slots = sorted({slot for d in block.diagrams for slot, _ in d.leaves})
    group_size = 3
    equivariance = 0.0
    permutation = 0.0
    for trial in range(args.trials):
        groups = [[_slot_inputs(block, rng) for _ in range(group_size)] for _ in slots]
        input_sets = {
            slot: [groups[i][g][slot] for g in range(group_size)] for i, slot in enumerate(slots)
        }
        out = block_apply(block, input_sets)
        rotation = haar_rotation(rng)
        rotated_sets = {
            slot: [act.rotate(rotation) for act in entry] for slot, entry in input_sets.items()
        }
        out_rotated = block_apply(block, rotated_sets)
        expected = wigner_D(block.two_J, rotation).matrix @ out.data
        equivariance = max(equivariance, float(np.abs(out_rotated.data - expected).max()))

        order = rng.permutation(group_size)
        permuted_sets = {slot: [entry[g] for g in order] for slot, entry in input_sets.items()}
        out_permuted = block_apply(block, permuted_sets)
        permutation = max(permutation, float(np.abs(out_permuted.data - out.data).max()))
    print("check,max_residual")
    print(f"equivariance,{_fmt(equivariance)}")
    print(f"permutation,{_fmt(permutation)}")
    return 0 if max(equivariance, permutation) <= args.tolerance else 1


def _cmd_model_describe(args: argparse.Namespace) -> int:
    config = ModelConfig.from_json(_read_text(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    print(Model(config).describe())
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    if not (np.isfinite(args.step) and args.step > 0):  # before the table header
        raise ValueError(f"gradcheck step must be finite and > 0, got {args.step}")
    config = ModelConfig.from_json(_read_text(args.config))
    model = Model(config)
    sample = generate_dataset(
        1, args.n_atoms, "morse", seed=args.seed, n_species=config.n_species
    )[0]
    loss_config = LossConfig()
    _, gradients = _batch_loss_and_gradients(model, [sample], loss_config)

    def loss_for(name: str):
        def f(values: np.ndarray) -> float:
            model.parameters()[name][...] = values
            return batch_loss(model, [sample], loss_config)

        return f

    print("parameter_group,max_rel_error,passed")
    all_passed = True
    for name, array in model.parameters().items():
        baseline = array.copy()
        report = ad.gradcheck(
            loss_for(name), baseline, gradients[name], step=args.step, tolerance=args.tolerance
        )
        model.parameters()[name][...] = baseline
        all_passed &= report.passed
        print(f"{name},{_fmt(report.max_rel_error)},{report.passed}")
    return 0 if all_passed else 1


def _cmd_gen_data(args: argparse.Namespace) -> int:
    samples = generate_dataset(
        args.n_samples,
        args.n_atoms,
        args.potential,
        seed=args.seed,
        n_species=args.n_species,
    )
    save_jsonl(samples, args.out)
    energies = [sample.energy for sample in samples]
    print(
        f"wrote {len(samples)} samples ({args.n_atoms} atoms, {args.potential}) to "
        f"{args.out}; energy range [{_fmt(min(energies))}, {_fmt(max(energies))}]"
    )
    return 0


def _save_model(model: Model, path: str) -> None:
    payload = {
        "config": json.loads(model.config.to_json()),
        "parameters": {
            name: array.tolist() for name, array in model.parameters().items()
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as handle:
        payload = check_json(json.load(handle), dict, f"{path}: a model file")
    config = json_field(payload, "config", f"{path}: a model file")
    model = Model(ModelConfig.from_json(json.dumps(config)))
    stored = json_field(payload, "parameters", f"{path}: a model file")
    stored, expected = check_json(stored, dict, f"{path}: parameters"), model.parameters()
    missing = [name for name in expected if name not in stored]
    unknown = [name for name in stored if name not in expected]
    if missing or unknown:
        raise SpinFusionError(
            f"{path} does not match its model config: missing parameters {missing}, "
            f"unknown parameters {unknown}"
        )
    model.set_parameters({name: _numbers(values, name) for name, values in stored.items()})
    return model


def _numbers(values, name: str) -> np.ndarray:
    """A stored parameter as a float array, if it parsed from JSON as
    nested arrays of numbers, else ValueError naming it."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting
        array = None
    if array is None or array.dtype.kind not in "iuf":
        raise ValueError(f"parameter {name} must be a JSON array of numbers")
    return array.astype(float)


def _cmd_train(args: argparse.Namespace) -> int:
    if args.epochs < 1:  # the run reports its last epoch's loss
        raise ValueError(f"--epochs must be at least 1, got {args.epochs}")
    config = ModelConfig.from_json(_read_text(args.config))
    model = Model(config)
    train_samples = load_jsonl(args.data)
    val_samples = load_jsonl(args.val_data) if args.val_data else None
    record = run_train(
        model,
        train_samples,
        n_epochs=args.epochs,
        batch_size=args.batch_size,
        loss_config=LossConfig(args.energy_weight, args.force_weight),
        learning_rate=args.learning_rate,
        seed=args.seed,
        val_samples=val_samples,
    )
    with open(args.out_curve, "w", encoding="utf-8") as handle:
        handle.write("epoch,train_loss,val_loss\n")
        for epoch, (train_loss, val_loss) in enumerate(
            zip(record.train_losses, record.val_losses)
        ):
            handle.write(f"{epoch},{_fmt(train_loss)},{_fmt(val_loss)}\n")
    if args.out_model:
        _save_model(model, args.out_model)
    print(f"run {record.config_hash} seed {record.seed}")
    print(f"final train loss {_fmt(record.train_losses[-1])}")
    print(f"energy_mae {_fmt(record.final_energy_mae)}")
    print(f"force_mae {_fmt(record.final_force_mae)}")
    print(f"wall_clock_seconds {_fmt(record.wall_clock_seconds)}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    samples = load_jsonl(args.data)
    energy_mae, force_mae = run_evaluate(model, samples)
    print("metric,value")
    print(f"energy_mae,{_fmt(energy_mae)}")
    print(f"force_mae,{_fmt(force_mae)}")
    return 0


def _cmd_plot_data(args: argparse.Namespace) -> int:
    lines = _read_text(args.curve).strip().splitlines()
    if not lines or lines[0].split(",") != ["epoch", "train_loss", "val_loss"]:
        raise SpinFusionError(
            "curve file must be CSV with header epoch,train_loss,val_loss"
        )
    rows = [lines[0]]  # every row is read before any is written
    for line_number, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        if len(fields) != 3:
            raise SpinFusionError(f"line {line_number}: expected 3 columns")
        rows.append(f"{int(fields[0])},{_fmt(float(fields[1]))},{_fmt(float(fields[2]))}")
    if args.out is None:
        print("\n".join(rows))
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(rows) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfusion",
        description="Rotation-equivariant fusion blocks: tables, diagrams, models, training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        return p

    p = add("cg-table", _cmd_cg_table, "print nonzero coupling coefficients as CSV")
    p.add_argument("--ja", required=True, help="first spin (e.g. 1, 0.5, 1/2)")
    p.add_argument("--jb", required=True, help="second spin")
    p.add_argument("--jc", required=True, help="output spin")

    diagram = sub.add_parser("diagram", help="fusion-diagram tools")
    diagram_sub = diagram.add_subparsers(dest="diagram_command", required=True)
    p = diagram_sub.add_parser("validate", help="check a diagram JSON file")
    p.set_defaults(func=_cmd_diagram_validate)
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--file", required=True, help="diagram JSON path ('-' for stdin)")
    p = diagram_sub.add_parser("enumerate", help="list admissible internal spins")
    p.set_defaults(func=_cmd_diagram_enumerate)
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--leaves", required=True, help="comma-separated leaf spins")
    p.add_argument("--root", required=True, help="root spin")

    block = sub.add_parser("block", help="fusion-block tools")
    block_sub = block.add_subparsers(dest="block_command", required=True)
    p = block_sub.add_parser("check", help="equivariance/permutation residuals")
    p.set_defaults(func=_cmd_block_check)
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--config", required=True, help="block JSON path ('-' for stdin)")
    p.add_argument("--trials", type=int, default=20, help="random trials (default 20)")
    p.add_argument("--tolerance", type=float, default=1e-10)

    model = sub.add_parser("model", help="model tools")
    model_sub = model.add_subparsers(dest="model_command", required=True)
    p = model_sub.add_parser("describe", help="print architecture and parameter groups")
    p.set_defaults(func=_cmd_model_describe)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--config", required=True, help="model config JSON ('-' for stdin)")

    p = add("gradcheck", _cmd_gradcheck, "compare analytic and numeric gradients")
    p.add_argument("--config", required=True, help="model config JSON ('-' for stdin)")
    p.add_argument("--n-atoms", type=int, default=4)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument(
        "--step",
        type=float,
        default=1e-4,
        help="finite-difference step; the default suits the force-weighted "
        "loss, whose magnitude makes smaller steps roundoff-limited",
    )

    p = add("gen-data", _cmd_gen_data, "generate a labelled dataset (JSONL)")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--n-atoms", type=int, required=True)
    p.add_argument("--potential", choices=POTENTIAL_KINDS, default="morse")
    p.add_argument("--n-species", type=int, default=2)

    p = add("train", _cmd_train, "train a model; writes a learning-curve CSV")
    p.add_argument("--config", required=True, help="model config JSON ('-' for stdin)")
    p.add_argument("--data", required=True, help="training JSONL")
    p.add_argument("--val-data", default=None, help="held-out JSONL (optional)")
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--energy-weight", type=float, default=1.0)
    p.add_argument("--force-weight", type=float, default=1000.0)
    p.add_argument("--out-curve", required=True, help="learning-curve CSV path")
    p.add_argument("--out-model", default=None, help="trained-model JSON path")

    p = add("evaluate", _cmd_evaluate, "mean absolute errors on a dataset")
    p.add_argument("--model", required=True, help="trained-model JSON path")
    p.add_argument("--data", required=True, help="dataset JSONL")

    p = add("plot-data", _cmd_plot_data, "re-emit a learning curve as plot-ready CSV")
    p.add_argument("--curve", required=True, help="learning-curve CSV ('-' for stdin)")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        # argparse exits on bad arguments (2) and on --help (0); surface the
        # code as a return value so callers of main() see plain integers
        return int(exit_request.code or 0)
    try:
        return args.func(args)
    except SpinFusionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
