"""Run the full five-strategy benchmark on a compact scene.

Centralized upload ships everything in timestamp order; visual ordering
uses cosine similarity only; bandwidth keeps visual order but splits the
budget by the model's camera logits; rerank uploads by the joint
spatio-temporal/visual score under uniform budgets; combined does both.
Expect centralized mTN to be far above the rest and the learned
strategies to edge out visual. About a minute end to end.
"""

import time

import numpy as np

from edgereid import scene as sc
from edgereid.config import TrainSection
from edgereid.metrics import summarize
from edgereid.simulate import (InferenceParams, Models, QuerySpec, Strategy,
                               build_transition_table, run_benchmark)
from edgereid.transition import TransitionNet, TransitionNetConfig, train

SPEC = sc.GeneratorSpec(
    num_cameras=6,
    edges=tuple(sc.Edge(i, (i + 1) % 6, 1.0,
                        sc.LogNormalDelay(mu=4.1, sigma=0.15))
                for i in range(6)),
    num_identities=150,
    visits=6,
    feature_dim=3,
    feature_noise=0.55,
    start_spread=80,
)


def main():
    scene = sc.split_identities(sc.generate(SPEC, np.random.default_rng(10)),
                                0.5, np.random.default_rng(11))
    model = TransitionNet(TransitionNetConfig(num_cameras=6, embed_dim=32,
                                              num_blocks=2, time_scale=0.1),
                          np.random.default_rng(12))
    schedule = TrainSection(epochs=40, pairs_per_epoch=2048,
                            holdout_pairs=500).schedule()
    start = time.monotonic()
    history = train(model, scene, schedule, np.random.default_rng(13))
    print(f"trained 40 epochs in {time.monotonic() - start:.0f}s, "
          f"holdout accuracy {history[-1]['holdout_accuracy']:.3f}")

    table = build_transition_table(
        model, np.array([o.timestamp for o in scene.observations]))
    models = Models(transition=table)
    # alpha well above 1 makes the spatial factor bite; default 0.1 only
    # nudges scores by a few percent.
    params = InferenceParams(alpha=20.0, beta=0.05, gamma0=0.05)
    reports = run_benchmark(scene, list(Strategy), models, 18, params,
                            QuerySpec(max_queries=300),
                            np.random.default_rng(14))

    print(f"\n{'strategy':12s} {'mTN':>8s} {'pR-1':>7s} {'pR-5':>7s} "
          f"{'mpR':>7s}")
    for name in ("centralized", "visual", "bandwidth", "rerank", "combined"):
        view = summarize(reports[name], ks=(1, 5))
        print(f"{name:12s} {view.mtn:8.2f} {view.precise_rank[1]:7.3f} "
              f"{view.precise_rank[5]:7.3f} {view.mean_precise_rank:7.2f}")


if __name__ == "__main__":
    main()
