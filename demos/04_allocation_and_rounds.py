"""Walk one query through budgets, upload sequences, and arrival rounds.

Trains a small model on a noisy ring scene, then takes a single query and
shows what each side decides: the cloud splits the round budget across
cameras from the model's logits, each edge device orders its uploads, and
the target's transmission number is just the round in which its camera
finally sends it.
"""

import numpy as np

from edgereid import scene as sc
from edgereid import strategy as strat
from edgereid.config import TrainSection
from edgereid.simulate import (InferenceParams, Models, Strategy,
                               build_gallery, build_transition_table,
                               eligible_queries, make_task, plan, run_rounds,
                               transmission_number)
from edgereid.transition import TransitionNet, TransitionNetConfig, train

SPEC = sc.GeneratorSpec(
    num_cameras=4,
    edges=tuple(sc.Edge(i, (i + 1) % 4, 1.0,
                        sc.LogNormalDelay(mu=3.7, sigma=0.2))
                for i in range(4)),
    num_identities=80,
    visits=4,
    feature_dim=8,
    feature_noise=0.3,
    start_spread=60,
)


def main():
    scene = sc.split_identities(sc.generate(SPEC, np.random.default_rng(1)),
                                0.5, np.random.default_rng(2))
    model = TransitionNet(TransitionNetConfig(num_cameras=4, embed_dim=16,
                                              num_blocks=1),
                          np.random.default_rng(3))
    schedule = TrainSection(epochs=20, pairs_per_epoch=512,
                            holdout_pairs=200).schedule()
    train(model, scene, schedule, np.random.default_rng(4))

    gallery = build_gallery(scene.test_observations(), scene.num_cameras)
    table = build_transition_table(model, gallery.timestamps)
    models = Models(transition=table)
    params = InferenceParams(gamma0=0.1)

    query = int(eligible_queries(gallery)[0][0])
    target_time = int(gallery.timestamps[query]) + 45
    task = make_task(gallery, query, target_time)
    print(f"query: item {query} at camera {task.query_camera}, "
          f"t={task.query_time}, asking about t={target_time}")

    logits = model.eval_logits(task.query_camera, float(task.query_time),
                               float(target_time))[0]
    sizes = np.array([d.size for d in task.device_items], dtype=np.float64)
    alloc = strat.allocate_bandwidth(logits, sizes, 12, gamma0=params.gamma0)
    print(f"model logits  {np.array2string(logits, precision=2)}")
    print(f"device sizes  {sizes.astype(int)}")
    print(f"budgets (B=12) {alloc.budgets} -> sum {alloc.budgets.sum()}")

    same_id = gallery.identities == gallery.identities[query]
    for name in (Strategy.VISUAL, Strategy.COMBINED):
        plan_ = plan(task, name, 12, params, models)
        log = run_rounds(plan_, gallery.size)
        targets = np.flatnonzero(same_id
                                 & (gallery.cameras != task.query_camera))
        tns = [transmission_number(log, int(t)) for t in targets]
        print(f"{name.value:10s} budgets {plan_.budgets} "
              f"target arrival rounds {sorted(tns)}")


if __name__ == "__main__":
    main()
