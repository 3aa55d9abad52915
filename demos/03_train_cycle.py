"""Train the shipped deterministic-cycle config and watch it converge.

Six cameras in a fixed ring with a 10-tick delay: given a camera and a
time offset, the next camera is fully determined, so held-out next-camera
accuracy should reach 1.0 well inside the schedule. Takes around fifteen
seconds.
"""

import json
import os

import numpy as np

from edgereid.config import parse_config
from edgereid.scene import generate, split_identities
from edgereid.transition import TransitionNet, train

CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                      "cycle.json")


def main():
    with open(CONFIG) as fh:
        config = parse_config(json.load(fh))
    gen_rng, split_rng = np.random.default_rng(config.scene.seed).spawn(2)
    scene = split_identities(generate(config.scene.generator, gen_rng),
                             config.scene.train_fraction, split_rng)
    print(f"scene: {len(scene)} observations, "
          f"{scene.num_cameras} cameras, "
          f"{len(scene.train_identities)} train identities")

    model = TransitionNet(config.model.build_config(scene.num_cameras),
                          np.random.default_rng(config.model.seed))
    history = train(model, scene, config.train.schedule(),
                    np.random.default_rng(config.train.seed))

    print("epoch    lr       loss     holdout accuracy")
    for row in history[::10] + [history[-1]]:
        print(f"{row['epoch']:5d}  {row['lr']:.4f}  {row['loss']:7.4f}  "
              f"{row['holdout_accuracy']:.4f}")


if __name__ == "__main__":
    main()
