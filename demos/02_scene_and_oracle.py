"""Generate a branching camera network and compare it with its closed form.

A scene is a seeded random walk per identity over a camera graph. The
TransitionOracle integrates the same edge laws analytically, so the
empirical (next camera, delay bin) frequencies from a large sample must
approach its conditional distribution. This prints both side by side for
one source camera.
"""

import numpy as np

from edgereid import scene as sc

SPEC = sc.GeneratorSpec(
    num_cameras=4,
    edges=(
        sc.Edge(0, 1, 0.7, sc.LogNormalDelay(mu=3.9, sigma=0.25)),
        sc.Edge(0, 2, 0.3, sc.LogNormalDelay(mu=4.6, sigma=0.25)),
        sc.Edge(1, 2, 1.0, sc.FixedDelay(30)),
        sc.Edge(2, 3, 1.0, sc.FixedDelay(40)),
        sc.Edge(3, 0, 1.0, sc.FixedDelay(50)),
    ),
    num_identities=4000,
    visits=3,
    start_spread=100,
)

EDGES = np.array([20.0, 45.0, 70.0, 95.0, 120.0, 145.0])


def empirical_conditional(scene, camera, edges):
    """Histogram p(next camera | camera, delay bin) from consecutive visits."""
    # each identity's sightings in time order, one after another
    order = np.lexsort((scene.cameras, scene.timestamps, scene.identities))
    ids, ts, cams = (col[order] for col in
                     (scene.identities, scene.timestamps, scene.cameras))
    step = (ids[1:] == ids[:-1]) & (cams[:-1] == camera)
    bins = np.searchsorted(edges, (ts[1:] - ts[:-1])[step], side="right") - 1
    inside = (bins >= 0) & (bins < edges.size - 1)
    counts = np.zeros((edges.size - 1, scene.num_cameras))
    np.add.at(counts, (bins[inside], cams[1:][step][inside]), 1)
    totals = counts.sum(axis=1, keepdims=True)
    out = np.zeros_like(counts)
    np.divide(counts, totals, out=out, where=totals > 0)
    return out


def main():
    scene = sc.generate(SPEC, np.random.default_rng(0))
    print(f"scene: {len(scene)} observations over "
          f"{scene.num_cameras} cameras")

    oracle = sc.TransitionOracle(SPEC, EDGES)
    exact = oracle.conditional(0)
    sampled = empirical_conditional(scene, 0, EDGES)

    print("\nfrom camera 0 (70% short hop to 1, 30% long hop to 2):")
    print("  delay bin    exact p(next)           sampled p(next)")
    centres = oracle.bin_centres()
    for b, centre in enumerate(centres):
        ex = " ".join(f"{v:.2f}" for v in exact[b])
        em = " ".join(f"{v:.2f}" for v in sampled[b])
        print(f"  ~{centre:5.0f} ticks  [{ex}]    [{em}]")


if __name__ == "__main__":
    main()
