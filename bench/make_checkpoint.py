"""Regenerate bench/checkpoint.json, the model the serve and longspan
workloads load.

It trains exactly what `edgereid train --config configs/benchmark.json`
trains (shipped scene, seeds and 90-epoch schedule) with BLAS pinned to one
thread, and writes the checkpoint next to this script. Run from the
repository root:

    python3 bench/make_checkpoint.py

Then update "checkpoint_sha256" in bench/reference.json to the printed
digest; the benchmark refuses a checkpoint whose digest differs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

from edgereid import scene as sc  # noqa: E402
from edgereid.config import load_config  # noqa: E402
from edgereid.transition import TransitionNet, save_checkpoint, train  # noqa: E402


def main() -> int:
    config = load_config(os.path.join("configs", "benchmark.json"))
    gen_rng, split_rng = np.random.default_rng(config.scene.seed).spawn(2)
    scene = sc.split_identities(sc.generate(config.scene.generator, gen_rng),
                                config.scene.train_fraction, split_rng)
    model = TransitionNet(config.model.build_config(scene.num_cameras),
                          np.random.default_rng(config.model.seed))
    history = train(model, scene, config.train.schedule(),
                    np.random.default_rng(config.train.seed))
    path = os.path.join(HERE, "checkpoint.json")
    save_checkpoint(model, path, {
        "tool": "edgereid", "source": "configs/benchmark.json",
        "epochs": len(history),
        "final_holdout_accuracy": history[-1]["holdout_accuracy"]})
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"wrote {path}: {len(history)} epochs, hold-out accuracy "
          f"{history[-1]['holdout_accuracy']:.4f}, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
