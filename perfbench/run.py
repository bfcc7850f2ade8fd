"""spinfusion benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; spinfusion is imported from its ``src``.
``NAME`` is train_wide, forces_large, or ``all`` (each in turn, each in
its own process).  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` repeats one fixed pass, alternately untraced
and traced, and reports the per-layer metrics.  Each run writes its details (the
environment, raw timings, problems found) and, when traced, its spans to
``perfbench/out/``, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/NOTES.md for what each workload and metric means.
"""

from __future__ import annotations

import os

# Before NumPy loads: one BLAS thread per process keeps the single-caller
# workloads within the two cores and steadier from run to run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import measure  # noqa: E402
from spans import PRIMITIVES  # noqa: E402
from workloads import TOY, WORKLOADS, Train, cloud_sets, training_seeds  # noqa: E402

SETUP_REPEATS = 7  # set-up probes per run

END_TO_END = {
    "setup_s": "s",
    "norm_op_ms.p90": "ms",
    "norm_edges_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"autodiff.{p}.{kind}": unit for p in PRIMITIVES + ("other",)
       for kind, unit in (("calls", "count"), ("self_ms", "ms"))},
    "autodiff.einsum3.flops": "flop",
    "autodiff.einsum3.bytes": "B",
    "autodiff.backward.calls": "count",
    "autodiff.backward.self_ms": "ms",
    "autodiff.backward.scanned_nodes": "count",
    "autodiff.nodes.forward": "count",
    "autodiff.nodes.force_backward": "count",
    "autodiff.nodes.param_backward": "count",
    "autodiff.tape_mb": "MB",
    "phase.forward_ms": "ms",
    "phase.force_backward_ms": "ms",
    "phase.param_backward_ms": "ms",
    "training.adam_ms": "ms",
    "model.taped_forward.self_ms": "ms",
    "model.parameter_nodes.self_ms": "ms",
    "layers.interaction.self_ms": "ms",
    "layers.interaction.nodes": "count",
    "layers.three_body.self_ms": "ms",
    "layers.three_body.nodes": "count",
    "features.edge_ms": "ms",
    "harmonics.sph_values_ms": "ms",
    "harmonics.sph_jacobian_ms": "ms",
    "geometry.neighbors_ms": "ms",
    "geometry.edges": "count",
    "cg.tensor_calls": "count",
    "cg.cache_misses": "count",
    "cg.miss_ms": "ms",
    "cg.warm_misses": "count",
    "trace.op_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
    "trace.ops": "count",
}


def environment(seed: int, seconds: float, trace: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def _probe_inputs(workload, seed: int) -> dict:
    """The first operation's inputs, as plain arrays."""
    if isinstance(workload, Train):
        from spinfusion.data import generate_dataset

        data_seed, _, _ = training_seeds(seed)
        batch = generate_dataset(workload.n_samples, workload.n_atoms, "morse", seed=data_seed)
        batch = batch[: workload.batch_size]
        return {
            "positions": np.stack([s.positions for s in batch]),
            "species": np.stack([s.species for s in batch]),
            "energy": np.array([s.energy for s in batch]),
            "forces": np.stack([s.forces for s in batch]),
        }
    positions, species = cloud_sets(workload, seed)[0][0]
    return {"positions": positions[None], "species": species[None]}


def setup_seconds(name: str, workload, seed: int, toy: bool, repeats: int) -> list[tuple]:
    """(set-up time, reference time) measured in ``repeats`` fresh interpreters."""
    OUT.mkdir(exist_ok=True)
    handle, path = tempfile.mkstemp(suffix=".npz", dir=OUT)
    os.close(handle)
    try:
        np.savez(path, **_probe_inputs(workload, seed))
        command = [sys.executable, str(HERE / "probe.py"), "--workload", name,
                   "--seed", str(seed), "--inputs", path, "--src", str(SRC)]
        if toy:
            command.append("--toy")
        times = []
        for _ in range(repeats):
            done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
            probe = json.loads(done.stdout.strip().splitlines()[-1])
            times.append((probe["setup_s"], probe["reference_s"]))
        return times
    finally:
        os.unlink(path)


def run_workload(name: str, seed: int, seconds: float, trace: int, toy: bool = False) -> dict:
    workload = (TOY if toy else WORKLOADS)[name]
    train = isinstance(workload, Train)
    if trace:
        spans_path = OUT / f"{name}-seed{seed}-spans.npz"
        OUT.mkdir(exist_ok=True)
        runner = measure.trace_train if train else measure.trace_forces
        metrics, outcome, detail = runner(workload, seed, seconds, spans_path)
        units = PER_LAYER
    else:
        # Half the probes before the timed loop and half after, so that one
        # slow spell of the host does not set the median.  The very first
        # probe only warms the file cache.
        setup = setup_seconds(name, workload, seed, toy, SETUP_REPEATS // 2 + 1)[1:]
        runner = measure.run_train if train else measure.run_forces
        metrics, outcome, detail = runner(workload, seed, seconds)
        setup += setup_seconds(name, workload, seed, toy, SETUP_REPEATS - len(setup))
        raw, reference = (np.array(column) for column in zip(*setup))
        metrics["setup_s"] = statistics.median(raw * (hostspeed.REFERENCE_MS / 1000.0) / reference)
        metrics["raw_setup_s"] = float(statistics.median(raw))
        detail["setup_s"] = raw.tolist()
        detail["setup_reference_s"] = reference.tolist()
        units = END_TO_END
    if outcome.attempted == 0:
        outcome.attempted = 1
        outcome.fail(["no operation ran"])
    missing = [key for key in metrics if not np.isfinite(metrics[key])]
    missing += [key for key in units if key not in metrics]
    if missing:
        outcome.fail([f"metrics not measured: {missing}"])
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            # JSON has no NaN: an unmeasured metric reads 0 and fails the run.
            key: {"value": 0.0 if key in missing else float(metrics[key]), "unit": unit}
            for key, unit in units.items()
        },
    }
    detail["unreported"] = {key: value for key, value in metrics.items() if key not in units}
    for key, value in detail["unreported"].items():
        print(f"{name}: {key} = {value!r} (not gated)", file=sys.stderr)
    report = {"workload": name, "environment": environment(seed, seconds, trace),
              "result": result, "problems": outcome.problems, "detail": detail}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)
    for problem in outcome.problems:
        print(f"{name}: {problem}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinfusion" / "model.py").is_file():
        print(f"spinfusion sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinfusion.model

    if SRC not in Path(spinfusion.model.__file__).resolve().parents:
        print(f"spinfusion was imported from {spinfusion.model.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps({"environment": environment(args.seed, args.seconds, args.trace)}))
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    # One process per workload, so that peak RSS and the CG cache of one
    # workload do not carry over into the next.
    results = {}
    for name in sorted(WORKLOADS):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **results[name]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{key}": value for name, r in results.items()
                    for key, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
