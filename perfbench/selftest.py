"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks that every workload runs, untraced and traced, and prints each named
metric with its unit and without failures; that BENCHMARK.json names the
same metrics; that the computed counts repeat exactly; and that a wrong
force is caught by the correctness checks.  Exits non-zero on the first
failed check.
"""

from __future__ import annotations

import json
import sys

import run  # first: it sets the BLAS thread count before NumPy loads

import numpy as np  # noqa: E402

import checks  # noqa: E402
import measure  # noqa: E402
from workloads import TOY, cloud_sets, model_config  # noqa: E402

COUNT_UNITS = {"count", "flop", "B"}
SEED = 3


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_result(result: dict, units: dict, label: str) -> None:
    expect(result["correct"] and result["failed"] == 0, f"{label}: {result}")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    expect(list(result["metrics"]) == list(units), f"{label}: metric names differ")
    for name, unit in units.items():
        entry = result["metrics"][name]
        expect(entry["unit"] == unit, f"{label}: {name} has unit {entry['unit']}")
        expect(np.isfinite(entry["value"]), f"{label}: {name} is not finite")


def check_benchmark_json() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == units, f"BENCHMARK.json {key} differs from run.py")
    expect({w["name"] for w in spec["workloads"]} <= set(TOY), "unknown workload in BENCHMARK.json")


def check_workloads() -> None:
    for name in TOY:
        result = run.run_workload(name, SEED, seconds=0.5, trace=0, toy=True)
        check_result(result, run.END_TO_END, f"{name} untraced")
        counts = []
        for _ in range(2):
            result = run.run_workload(name, SEED, seconds=0.5, trace=1, toy=True)
            check_result(result, run.PER_LAYER, f"{name} traced")
            counts.append({
                key: entry["value"] for key, entry in result["metrics"].items()
                # The CG cache is shared by the whole process, so only the
                # first traced run sees misses.
                if entry["unit"] in COUNT_UNITS and not key.startswith("cg.cache")
                and key != "trace.ops"
            })
        expect(counts[0] == counts[1], f"{name}: counts differ between two traced runs")
        print(f"selftest: {name} ok", file=sys.stderr)


def check_wrong_force_is_caught() -> None:
    from spinfusion.model import Model

    workload = TOY["forces_large"]
    model = Model(model_config(workload, SEED))
    positions, species = cloud_sets(workload, SEED)[0][0]
    energy, forces = model.energy_and_forces(positions, species)
    expect(not checks.force_call_problems(energy, forces, len(species)), "clean call flagged")
    expect(not checks.symmetry_problems(model, positions, species, energy, forces, SEED),
           "clean symmetry flagged")
    wrong = forces.copy()
    wrong[0, 0] += 1e-3
    expect(checks.force_call_problems(energy, wrong, len(species)), "net force not caught")
    expect(checks.symmetry_problems(model, positions, species, energy, wrong, SEED),
           "wrong force not caught by rotation or central difference")

    # The same fault inside the program, seen by a whole benchmark run.
    original = Model.energy_and_forces

    def faulty(self, positions, species):
        energy, forces = original(self, positions, species)
        forces = forces.copy()
        forces[0, 0] += 1e-3
        return energy, forces

    Model.energy_and_forces = faulty
    try:
        _, outcome, _ = measure.run_forces(workload, SEED, seconds=0.2)
    finally:
        Model.energy_and_forces = original
    expect(outcome.failed == outcome.attempted > 0, "a run with wrong forces was not failed")
    print("selftest: wrong force caught", file=sys.stderr)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    check_benchmark_json()
    check_wrong_force_is_caught()
    check_workloads()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
