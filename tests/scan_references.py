"""The serving paths that the identity index and the counted positions
replaced, kept as slow references for edgereid.simulate.

eligible_queries, partners and desired_index scan every cross-camera pair
or the whole gallery per call; central_rankings sorts each block's scores
twice, visually and jointly, and reads the matches' positions from the
orders (ranked). Each takes a gallery or scene as its edgereid.simulate
counterpart does and builds nothing it shares.
"""

import numpy as np

from edgereid import simulate as sim
from edgereid import strategy as sg
from edgereid.errors import ConfigError, DataError
from edgereid.scene import cross_camera_pairs


def eligible_queries(gallery):
    """Items in any cross_camera_pairs pair, ascending, and the count of the
    others."""
    eligible = np.unique(np.concatenate(
        cross_camera_pairs(gallery.identities, gallery.cameras)))
    return eligible, gallery.size - eligible.size


def partners(gallery, queries):
    """Each query's same-identity partners on other cameras, ascending: one
    lexsort of every directed cross-camera pair."""
    first, second = cross_camera_pairs(gallery.identities, gallery.cameras)
    query, partner = np.concatenate((first, second)), np.concatenate((second, first))
    order = np.lexsort((partner, query))
    query, partner = query[order], partner[order]
    lo, hi = (np.searchsorted(query, queries, side=s) for s in ("left", "right"))
    return [partner[a:b] for a, b in zip(lo, hi)]


def desired_index(gallery, query_index, target_time):
    """The query's other same-identity item closest to target_time, ties to
    the earlier timestamp, then the lower index: one scan of the gallery."""
    same = gallery.identities == gallery.identities[query_index]
    same[query_index] = False
    candidates = np.flatnonzero(same)
    dist = np.abs(gallery.timestamps[candidates] - target_time)
    keys = np.lexsort((candidates, gallery.timestamps[candidates], dist))
    return int(candidates[keys[0]])


def ranked(gallery, queries, order):
    """Each query's RankedQuery from its ranked list, a row of order: one
    np.nonzero over the identity matches."""
    rows, cols = np.nonzero(gallery.identities[order]
                            == gallery.identities[queries, None])
    same = gallery.cameras[order[rows, cols]] == gallery.cameras[queries[rows]]
    bounds = np.cumsum(np.bincount(rows, minlength=queries.size))[:-1]
    return [sim.RankedQuery(query_identity=int(gallery.identities[q]),
                            query_camera=int(gallery.cameras[q]),
                            positions=positions, on_query_camera=flags)
            for q, positions, flags in zip(
                queries, np.split(cols + 1, bounds), np.split(same, bounds))]


def central_rankings(scene, models, params, max_queries, rng):
    """central_rankings by sorting: per block of QUERY_CHUNK queries, the
    visual order and the joint order of the gallery without each query,
    ties by gallery index (simulate._order), and ranked on each."""
    sim.QuerySpec(max_queries=max_queries)
    if scene.test_identities is None:
        raise DataError("scene has no train/test split")
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    if gallery.features is None:
        raise ConfigError("centralized evaluation needs appearance features")
    eligible, _ = eligible_queries(gallery)
    if eligible.size == 0:
        raise DataError("no eligible queries in the test split")
    chosen = eligible
    if max_queries is not None and eligible.size > max_queries:
        keep = rng.choice(eligible.size, size=max_queries, replace=False)
        chosen = eligible[np.sort(keep)]
    visual_lists, joint_lists = [], []
    everything = np.arange(gallery.size)
    for chunk in sim._chunks(chosen.size):
        queries = chosen[chunk]
        keep = everything != queries[:, None]
        others = sim._drop(everything, queries)
        v = sim._without(sim._visual_scores(gallery, queries), keep)
        visual_lists += ranked(gallery, queries, sim._order(-v, others))
        own = sim._own_camera(sim._transition_rows(models, gallery, queries), gallery)
        o = sim._st_scores(models, params, gallery, queries, others,
                           None if own is None else sim._without(own, keep))
        s = sg.joint_similarity(o, v, params.alpha, params.beta, params.orientation)
        joint_lists += ranked(gallery, queries, sim._order(s, others))
    return visual_lists, joint_lists
