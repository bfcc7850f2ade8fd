"""Timed loops for each workload kind, and the metrics they yield.

``run_train`` and ``run_forces`` measure with tracing off and give the
end-to-end metrics; ``trace_train`` and ``trace_forces`` repeat one fixed
pass, alternately untraced and traced, and give the per-layer metrics.
"""

from __future__ import annotations

import gc
import resource
import time
import traceback
from collections import defaultdict

import numpy as np

import checks
import hostspeed
from spans import FEATURES, PRIMITIVES, Tracer
from workloads import Forces, Train, cloud_sets, model_config, training_seeds

_clock = time.perf_counter


class Outcome:
    """Operations attempted and failed, and why each failure happened."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problems) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def check(self, problems) -> None:
        """A failed check marks one already-attempted operation as failed."""
        if problems:
            self.fail(problems)


class StepClock:
    """Training-step boundaries, observed from outside the program.

    ``training.train`` calls ``Model.parameter_nodes`` once at the start of
    each step, and after the last step runs ``evaluate``, whose first
    ``Model.energy_and_forces`` call ends that step.  ``parameter_nodes``
    calls made inside ``energy_and_forces`` are not steps.  With a tracer,
    each step is one traced operation.  With ``reference``, a list, the
    host's speed is measured (``hostspeed.reference_s``) and appended to it
    before each step starts, outside the step's time.
    """

    def __init__(self, tracer: Tracer | None = None, reference: list | None = None) -> None:
        self.tracer = tracer
        self.reference = reference
        self.steps: list[tuple[float, float]] = []
        self._start: float | None = None
        self._depth = 0
        self.tracing = False
        self._restore: list = []

    def close(self) -> None:
        if self._start is None:
            return
        end = _clock()
        self.steps.append((self._start, end))
        self._start = None
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.end_op(end)

    def take(self) -> list[tuple[float, float]]:
        self.close()
        steps, self.steps = self.steps, []
        return steps

    def install(self) -> None:
        from spinfusion.model import Model

        parameter_nodes = Model.parameter_nodes
        energy_and_forces = Model.energy_and_forces
        clock = self
        tracer = self.tracer
        if tracer is not None:
            traced_parameter_nodes = tracer.span_wrapper("model.parameter_nodes", parameter_nodes)

        def hooked_parameter_nodes(model, tape):
            if clock._depth == 0:
                clock.close()
                if clock.reference is not None:
                    clock.reference.append(hostspeed.reference_s())
                clock._start = _clock()
                if tracer is not None and clock.tracing:
                    tracer.begin_op(clock._start)
            if tracer is None:
                return parameter_nodes(model, tape)
            nodes = traced_parameter_nodes(model, tape)
            tracer.see_tape(tape, nodes)
            return nodes

        def hooked_energy_and_forces(model, positions, species):
            clock.close()
            clock._depth += 1
            try:
                return energy_and_forces(model, positions, species)
            finally:
                clock._depth -= 1

        self._restore = [
            ("parameter_nodes", parameter_nodes),
            ("energy_and_forces", energy_and_forces),
        ]
        Model.parameter_nodes = hooked_parameter_nodes
        Model.energy_and_forces = hooked_energy_and_forces

    def uninstall(self) -> None:
        from spinfusion.model import Model

        for attr, original in self._restore:
            setattr(Model, attr, original)
        self._restore = []


def _timing(samples_s, reference_s, units: list[tuple[int, int]]) -> dict:
    """Latency percentiles and edge throughput, both normalised to the
    host's speed (``hostspeed``) and, not gated, as measured.  ``units``
    holds (operations, edges) for consecutive units of work (training runs
    or passes).  Each figure is taken within every unit and the median over
    units is reported, so that one slow spell or collector pause does not
    set it.  Only the normalised p90 and throughput are gated; the rest go
    to the run's details (see NOTES.md)."""
    if not samples_s:
        return {"norm_op_ms.p90": float("nan"), "norm_edges_per_s": float("nan")}
    bounds = np.cumsum([0] + [ops for ops, _ in units])
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    samples_s, reference_s = np.asarray(samples_s), np.asarray(reference_s)
    metrics = {}
    for prefix, unit_times in (
        ("norm_", [hostspeed.normalised(samples_s[s], reference_s[s]) for s in slices]),
        ("raw_", [samples_s[s] for s in slices]),
    ):
        p10, p50, p90 = np.median(
            [np.percentile(t * 1000.0, [10, 50, 90]) for t in unit_times], axis=0
        )
        metrics.update({
            f"{prefix}op_ms.p10": float(p10),
            f"{prefix}op_ms.p50": float(p50),
            f"{prefix}op_ms.p90": float(p90),
            f"{prefix}edges_per_s": float(np.median([
                edges / np.sum(t) for (_, edges), t in zip(units, unit_times)
            ])),
        })
    metrics["reference_ms.p50"] = float(np.median(reference_s)) * 1000.0
    return metrics


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _edge_count(positions, species, cutoff: float) -> int:
    from spinfusion.geometry import PointCloud, build_neighborhood

    nbr = build_neighborhood(PointCloud(positions, species), cutoff)
    return sum(len(members) for members in nbr.lists)


def _report_exception(outcome: Outcome, where: str) -> None:
    outcome.fail([f"{where}: {traceback.format_exc(limit=3)}"])


# ---------------------------------------------------------------------------
# end-to-end runs (tracing off)
# ---------------------------------------------------------------------------


def run_train(workload: Train, seed: int, seconds: float) -> tuple[dict, Outcome, dict]:
    """Back-to-back identical training runs until ``seconds`` pass."""
    from spinfusion.data import generate_dataset
    from spinfusion.model import Model
    from spinfusion.training import evaluate, train

    outcome = Outcome()
    data_seed, shuffle_seed, model_seed = training_seeds(seed)
    data = generate_dataset(workload.n_samples, workload.n_atoms, "morse", seed=data_seed)
    run_edges = workload.epochs * sum(
        _edge_count(s.positions, s.species, workload.model["cutoff"]) for s in data
    )
    # Untimed: the MAE baseline, which also fills the CG cache.
    _, mae_before = evaluate(Model(model_config(workload, model_seed)), data)
    reference: list[float] = []
    clock = StepClock(reference=reference)
    clock.install()
    step_s: list[float] = []
    step_reference: list[float] = []
    units: list[tuple[int, int]] = []
    first_losses: list[float] = []
    runs = 0
    started = _clock()
    try:
        while runs == 0 or _clock() - started < seconds:
            runs += 1
            model = Model(model_config(workload, model_seed))
            # Untimed: tapes form reference cycles, so uncollected ones pile
            # up within a run; each run starts from the same heap.
            gc.collect()
            clock.take()
            del reference[:]
            try:
                record = train(
                    model, data, n_epochs=workload.epochs,
                    batch_size=workload.batch_size, seed=shuffle_seed,
                )
            except Exception:
                steps = clock.take()
                outcome.attempted += len(steps) + 1
                _report_exception(outcome, f"training run {runs - 1}")
                continue
            steps = clock.take()
            expected = workload.epochs * workload.steps_per_epoch
            outcome.attempted += len(steps)
            if len(steps) != expected:
                outcome.fail([f"saw {len(steps)} steps, expected {expected}"])
                continue
            problems = checks.training_problems(
                record.train_losses, mae_before, record.final_force_mae
            )
            if not first_losses:
                first_losses.extend(record.train_losses)
            elif record.train_losses != first_losses:
                problems.append(f"run {runs - 1} gave other losses than run 0")
            outcome.check(problems)
            step_s.extend(end - start for start, end in steps)
            step_reference.extend(reference)
            units.append((len(steps), run_edges))
    finally:
        clock.uninstall()

    metrics = {
        **_timing(step_s, step_reference, units),
        "peak_rss_mb": _peak_rss_mb(),
    }
    detail = {"training_runs": runs, "steps": len(step_s), "losses": first_losses,
              "step_ms": [round(s * 1000.0, 4) for s in step_s],
              "reference_ms": [round(s * 1000.0, 4) for s in step_reference]}
    return metrics, outcome, detail


def _full_checks(model, clouds, outcome: Outcome, seed: int, expected=None) -> list:
    """An evaluation of every cloud, with the rotation and central-difference
    checks on each and the plain_energy oracle on the smallest.  Where
    ``expected`` holds an earlier (energy, forces), the values must repeat."""
    results = []
    for k, (positions, species) in enumerate(clouds):
        outcome.attempted += 1
        try:
            energy, forces = model.energy_and_forces(positions, species)
            problems = checks.force_call_problems(energy, forces, len(species))
            problems += checks.symmetry_problems(
                model, positions, species, energy, forces, seed + k
            )
            if k == 0:
                problems += checks.oracle_problems(model, positions, species, energy)
        except Exception:
            _report_exception(outcome, f"checking cloud {k}")
            results.append(None)
            continue
        seen = expected[k] if expected else None
        if seen is not None and (energy != seen[0] or not np.array_equal(forces, seen[1])):
            problems.append(f"cloud {k}: a repeated call gave other values")
        outcome.check(problems)
        results.append((energy, forces))
    return results


def run_forces(workload: Forces, seed: int, seconds: float) -> tuple[dict, Outcome, dict]:
    """Complete passes over the cloud sets until ``seconds`` pass."""
    from spinfusion.model import Model

    outcome = Outcome()
    sets = cloud_sets(workload, seed)
    model = Model(model_config(workload, seed))
    edges = [[_edge_count(p, s, model.config.cutoff) for p, s in clouds] for clouds in sets]
    first = [[None] * len(clouds) for clouds in sets]
    reference: list[float] = []

    def call(index: int, k: int):
        """One checked force call; its time, or None if it raised."""
        positions, species = sets[index][k]
        outcome.attempted += 1
        # Untimed: each call starts from the same heap.  Tapes form
        # reference cycles, so without this, how many earlier tapes are
        # still alive (and so the peak RSS) depends on when the collector
        # last ran.
        gc.collect()
        speed = hostspeed.reference_s()
        begin = _clock()
        try:
            energy, forces = model.energy_and_forces(positions, species)
        except Exception:
            _report_exception(outcome, f"force call on set {index} cloud {k}")
            return None
        reference.append(speed)
        elapsed = _clock() - begin
        problems = checks.force_call_problems(energy, forces, len(species))
        seen = first[index][k]
        if seen is None:
            first[index][k] = (energy, forces)
        elif energy != seen[0] or not np.array_equal(forces, seen[1]):
            problems.append(f"set {index} cloud {k}: a repeated call gave other values")
        outcome.check(problems)
        return elapsed

    call(0, 0)  # untimed warm-up: fills the CG cache
    del reference[:]
    call_s: list[float] = []
    units: list[tuple[int, int]] = []
    passes = 0
    started = _clock()
    while passes == 0 or _clock() - started < seconds:
        index = passes % len(sets)
        passes += 1
        calls = done_edges = 0
        for k in range(len(sets[index])):
            elapsed = call(index, k)
            if elapsed is not None:
                call_s.append(elapsed)
                calls += 1
                done_edges += edges[index][k]
        if calls:
            units.append((calls, done_edges))
    # Before the full checks, which keep several tapes alive at once.
    peak_rss_mb = _peak_rss_mb()
    _full_checks(model, sets[0], outcome, seed, expected=first[0])

    metrics = {
        **_timing(call_s, reference, units),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"passes": passes, "calls": len(call_s), "edges": edges,
              "call_ms": [round(s * 1000.0, 4) for s in call_s],
              "reference_ms": [round(s * 1000.0, 4) for s in reference]}
    return metrics, outcome, detail


# ---------------------------------------------------------------------------
# traced runs: one fixed pass, repeated alternately untraced and traced
# ---------------------------------------------------------------------------


def _alternate(one_pass, set_tracing, seconds: float) -> tuple[list, list]:
    """Untraced and traced passes in turn, at least two of each, until
    ``seconds`` pass, so that the host's speed swings reach both alike."""
    untraced, traced = [], []
    started = _clock()
    while len(traced) < 2 or _clock() - started < seconds:
        untraced.append(one_pass())
        set_tracing(True)
        try:
            traced.append(one_pass())
        finally:
            set_tracing(False)
    return untraced, traced


def _pass_counts(ops: list[dict]) -> dict:
    """Every count and call total of one pass; these must repeat exactly."""
    total: dict = defaultdict(int)
    for op in ops:
        for key, value in op["counts"].items():
            total[key] += value
        for key, value in op["calls"].items():
            total[f"calls.{key}"] += value
    return dict(total)


def _traced(tracer: Tracer, untraced_s: list[float], pass_sizes: list[int],
            outcome: Outcome, path) -> tuple[dict, dict]:
    """Per-layer metrics (means per operation) from the traced operations."""
    ops = tracer.ops
    bounds = np.cumsum([0] + pass_sizes)
    per_pass = [_pass_counts(ops[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    for k, counts in enumerate(per_pass[1:], 1):
        if counts != per_pass[0]:
            changed = sorted(key for key in counts.keys() | per_pass[0].keys()
                             if counts.get(key) != per_pass[0].get(key))
            outcome.fail([f"traced pass {k} counts differ from pass 0 in {changed}"])
    tracer.save(path)

    n = len(ops)

    def per_op(field: str, scale: float = 1.0) -> dict:
        # Sum first and divide once, so integer counts give exact means.
        total: dict = defaultdict(int)
        for op in ops:
            for key, value in op[field].items():
                total[key] += value
        return defaultdict(float, {key: value * scale / n for key, value in total.items()})

    self_ms, incl_ms, phase_ms = (per_op(f, 1000.0) for f in ("self_s", "incl_s", "phase_s"))
    calls, counts = per_op("calls"), per_op("counts")
    wall_ms = sum(op["wall_s"] for op in ops) * 1000.0 / n
    untraced_ms = float(np.mean(untraced_s)) * 1000.0

    metrics = {}
    for name in PRIMITIVES + ("other",):
        metrics[f"autodiff.{name}.calls"] = calls[f"autodiff.{name}"]
        metrics[f"autodiff.{name}.self_ms"] = self_ms[f"autodiff.{name}"]
    metrics.update({
        "autodiff.einsum3.flops": counts["einsum3.flops"],
        "autodiff.einsum3.bytes": counts["einsum3.bytes"],
        "autodiff.backward.calls": calls["autodiff.backward"],
        "autodiff.backward.self_ms": self_ms["autodiff.backward"],
        "autodiff.backward.scanned_nodes": counts["backward.scanned_nodes"],
        "autodiff.nodes.forward": counts["nodes.total"] - counts["nodes.force_backward"]
        - counts["nodes.param_backward"],
        "autodiff.nodes.force_backward": counts["nodes.force_backward"],
        "autodiff.nodes.param_backward": counts["nodes.param_backward"],
        "autodiff.tape_mb": counts["tape_bytes"] / 1e6,
        "phase.forward_ms": wall_ms - phase_ms["force_backward"] - phase_ms["param_backward"]
        - phase_ms["adam"],
        "phase.force_backward_ms": phase_ms["force_backward"],
        "phase.param_backward_ms": phase_ms["param_backward"],
        "training.adam_ms": phase_ms["adam"],
        "model.taped_forward.self_ms": self_ms["model.taped_forward"],
        "model.parameter_nodes.self_ms": self_ms["model.parameter_nodes"],
        "layers.interaction.self_ms": self_ms["layers.interaction"],
        "layers.interaction.nodes": counts["layers.interaction.nodes"],
        "layers.three_body.self_ms": self_ms["layers.three_body"],
        "layers.three_body.nodes": counts["layers.three_body.nodes"],
        # Inclusive of the primitives the feature functions record.
        "features.edge_ms": sum(incl_ms[f"features.{name}"] for name in FEATURES),
        "harmonics.sph_values_ms": self_ms["harmonics.sph_values"],
        "harmonics.sph_jacobian_ms": self_ms["harmonics.sph_jacobian"],
        "geometry.neighbors_ms": self_ms["geometry.build_neighborhood"]
        + self_ms["geometry.edge_index"],
        "geometry.edges": counts["geometry.edges"],
        "cg.tensor_calls": counts["cg.tensor_calls"],
        "cg.cache_misses": float(tracer.cg_misses),
        "cg.miss_ms": tracer.cg_miss_s * 1000.0,
        "cg.warm_misses": float(tracer.cg_warm_misses),
        "trace.op_ms": wall_ms,
        "trace.untraced_op_ms": untraced_ms,
        "trace.overhead_pct": (wall_ms / untraced_ms - 1.0) * 100.0,
        "trace.coverage_pct": 100.0 - self_ms["op"] / wall_ms * 100.0,
        "trace.ops": float(n),
    })
    detail = {"passes": len(pass_sizes), "ops": n, "pass_counts": per_pass[0]}
    return metrics, detail


def trace_train(workload: Train, seed: int, seconds: float, path) -> tuple[dict, Outcome, dict]:
    """Repeat the first ``trace_epochs`` epochs of the training run."""
    from spinfusion.data import generate_dataset
    from spinfusion.model import Model
    from spinfusion.training import evaluate, train

    outcome = Outcome()
    tracer = Tracer()
    tracer.install_cg()
    data_seed, shuffle_seed, model_seed = training_seeds(seed)
    data = generate_dataset(workload.n_samples, workload.n_atoms, "morse", seed=data_seed)
    _, mae_before = evaluate(Model(model_config(workload, model_seed)), data)
    clock = StepClock(tracer)
    clock.install()
    first_losses = []

    def one_pass():
        model = Model(model_config(workload, model_seed))
        gc.collect()
        try:
            record = train(model, data, n_epochs=workload.trace_epochs,
                           batch_size=workload.batch_size, seed=shuffle_seed)
        except Exception:
            steps = clock.take()
            outcome.attempted += len(steps)
            _report_exception(outcome, "traced training pass")
            return steps
        steps = clock.take()
        outcome.attempted += len(steps)
        outcome.check(checks.training_problems(
            record.train_losses, mae_before, record.final_force_mae))
        if not first_losses:
            first_losses.extend(record.train_losses)
        elif record.train_losses != first_losses:
            outcome.fail(["a repeated training pass gave other losses"])
        return steps

    def set_tracing(on: bool) -> None:
        (tracer.install if on else tracer.uninstall)()
        clock.tracing = on

    try:
        one_pass()  # warms up
        untraced, traced = _alternate(one_pass, set_tracing, seconds)
    finally:
        clock.uninstall()
        tracer.uninstall()
        tracer.uninstall_cg()
    untraced_s = [end - start for steps in untraced for start, end in steps]
    metrics, detail = _traced(tracer, untraced_s, [len(steps) for steps in traced], outcome, path)
    return metrics, outcome, detail


def trace_forces(workload: Forces, seed: int, seconds: float, path) -> tuple[dict, Outcome, dict]:
    """Repeat one call per cloud of the first cloud set."""
    from spinfusion.model import Model

    outcome = Outcome()
    tracer = Tracer()
    tracer.install_cg()
    clouds = cloud_sets(workload, seed)[0]
    model = Model(model_config(workload, seed))
    first = _full_checks(model, clouds, outcome, seed)  # also warms up
    clock = StepClock(tracer)  # only to hand the tape to the tracer
    clock.install()
    tracing = [False]

    def one_pass():
        times = []
        for k, (positions, species) in enumerate(clouds):
            outcome.attempted += 1
            gc.collect()
            begin = _clock()
            if tracing[0]:
                tracer.begin_op(begin)
            try:
                energy, forces = model.energy_and_forces(positions, species)
            except Exception:
                _report_exception(outcome, f"force call on cloud {k}")
                continue
            finally:
                end = _clock()
                times.append(end - begin)
                if tracing[0]:
                    tracer.end_op(end)
            problems = checks.force_call_problems(energy, forces, len(species))
            if first[k] is not None and (
                energy != first[k][0] or not np.array_equal(forces, first[k][1])
            ):
                problems.append(f"cloud {k}: a repeated call gave other values")
            outcome.check(problems)
        return times

    def set_tracing(on: bool) -> None:
        (tracer.install if on else tracer.uninstall)()
        tracing[0] = on

    try:
        untraced, traced = _alternate(one_pass, set_tracing, seconds)
    finally:
        clock.uninstall()
        tracer.uninstall()
        tracer.uninstall_cg()
    untraced_s = [t for times in untraced for t in times]
    metrics, detail = _traced(tracer, untraced_s, [len(times) for times in traced], outcome, path)
    return metrics, outcome, detail
