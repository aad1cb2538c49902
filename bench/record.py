"""Rewrite ``reference.json``: the input fingerprint and the final
``icews14-train`` loss for each recorded seed of each shape.

    python3 bench/record.py

Run it only when the generator or the training workload is meant to change;
the benchmark then measures a different input, so earlier numbers no longer
compare.
"""

from __future__ import annotations

import json

import run

SEEDS = range(16)


def main() -> None:
    run.pin_threads()
    run.import_program()
    import inputs
    import workloads

    reference = {"fingerprints": {}, "train_final_loss": {}}
    for shape in inputs.SHAPES.values():
        reference["fingerprints"][shape.name] = {
            str(seed): inputs.fingerprint(inputs.serialize(shape, inputs.generate(shape, seed)))
            for seed in SEEDS}
    for shape in inputs.SHAPES.values():
        losses = reference["train_final_loss"][shape.name] = {}
        for seed in SEEDS:
            data_dir = inputs.materialize(shape, seed, run.ROOT / ".bench_cache", reference)
            state = workloads.setup(data_dir, seed, for_eval=False)
            epochs = workloads.plan_train(state, shape, seed).round()
            losses[str(seed)] = epochs[-1].loss
            print(shape.name, seed, epochs[0].loss, epochs[-1].loss, flush=True)
    inputs.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
