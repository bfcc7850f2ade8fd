"""Set-up time of one workload in a fresh interpreter: the import of
spinfusion, ``Model(...)`` and the first operation, with a cold CG cache.

Run by run.py, which writes the inputs to an .npz file first so that this
process imports NumPy, but not spinfusion, before the clock starts.  Then
measures the host's speed with the reference kernel (``hostspeed``).  Prints
one JSON line: {"setup_s": seconds, "reference_s": seconds}.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
from workloads import TOY, WORKLOADS, Train, model_config  # noqa: E402


REFERENCE_REPEATS = 5


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()
    workload = (TOY if args.toy else WORKLOADS)[args.workload]
    sys.path.insert(0, args.src)
    with np.load(args.inputs) as stored:
        inputs = {key: stored[key] for key in stored.files}

    start = time.perf_counter()
    from spinfusion.model import Model

    model = Model(model_config(workload, args.seed))
    if isinstance(workload, Train):
        from spinfusion.data import Sample
        from spinfusion.training import train

        batch = [
            Sample(p, s, e, f)
            for p, s, e, f in zip(
                inputs["positions"], inputs["species"], inputs["energy"], inputs["forces"]
            )
        ]
        # train() evaluates after its last step; the first force call ends the step.
        step_end = []
        evaluate_call = Model.energy_and_forces

        def stamp(self, positions, species):
            if not step_end:
                step_end.append(time.perf_counter())
            return evaluate_call(self, positions, species)

        Model.energy_and_forces = stamp
        train(model, batch, n_epochs=1, batch_size=len(batch), seed=0)
        end = step_end[0]
    else:
        model.energy_and_forces(inputs["positions"][0], inputs["species"][0])
        end = time.perf_counter()
    # After the clock stops, so the set-up itself stays cold.
    reference = float(np.median([hostspeed.reference_s() for _ in range(REFERENCE_REPEATS)]))
    print(json.dumps({"setup_s": end - start, "reference_s": reference}))


if __name__ == "__main__":
    main()
