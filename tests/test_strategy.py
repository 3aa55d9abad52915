"""Frequency table, joint similarity, time-targeted rescoring, allocation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgereid import strategy as sg
from edgereid.nn import softmax
from edgereid.errors import ConfigError, DataError, InputError, ShapeError
from edgereid.scene import Observation, Scene

# single gallery item, spatio-temporal softmax collapses to 1, visual gate
# open at v=1: s = -[1 / (1 + 0.1 e)] / 2, frozen by hand
SINGLE_ITEM_JOINT = -0.3931348642402118


def two_sighting_scene(bin_width=20):
    obs = (Observation(0, 0, 0), Observation(0, 1, 50),
           Observation(1, 0, 7), Observation(1, 0, 11))
    scene = Scene(num_cameras=3, observations=obs,
                  train_identities=frozenset({0, 1}),
                  test_identities=frozenset())
    return sg.fit_frequency(scene, bin_width=bin_width, sigma_bins=0.0,
                            floor=1e-12)


def test_frequency_counts_land_in_signed_bins():
    freq = two_sighting_scene()
    # identity 0 contributes exactly the ordered pairs (0->1, +50), (1->0, -50)
    assert freq.observed[0, 1] and freq.observed[1, 0]
    assert not freq.observed[0, 2] and not freq.observed[0, 0]
    assert freq.bounded_score(0, 1, 50.0) == 1.0
    assert freq.bounded_score(1, 0, -50.0) == 1.0
    # wrong sign of the delay finds only the floor
    assert freq.bounded_score(0, 1, -50.0) < 1e-6
    # never co-observed pairs score zero, not the floor
    assert freq.bounded_score(0, 2, 50.0) == 0.0
    np.testing.assert_array_equal(freq.bounded_score(2, 1, np.array([1.0, 2.0])),
                                  [0.0, 0.0])


def test_frequency_normalised_per_source_camera():
    freq = two_sighting_scene()
    totals = freq.table.sum(axis=(1, 2))
    np.testing.assert_allclose(totals, 1.0, atol=1e-12)
    assert np.all(freq.table > 0.0)


def test_frequency_out_of_range_uses_slice_minimum():
    freq = two_sighting_scene()
    far = freq.prob(0, 1, 1e12)
    assert far == freq.table[0, 1].min()


def test_frequency_gaussian_smoothing_ratio():
    obs = (Observation(0, 0, 0), Observation(0, 1, 50))
    scene = Scene(num_cameras=2, observations=obs,
                  train_identities=frozenset({0}), test_identities=frozenset())
    freq = sg.fit_frequency(scene, bin_width=20, sigma_bins=1.0, floor=1e-15)
    centre = freq.prob(0, 1, np.array([50.0]))[0]
    side = freq.prob(0, 1, np.array([30.0]))[0]
    np.testing.assert_allclose(side / centre, math.exp(-0.5), atol=1e-6)


def test_frequency_validation():
    obs = (Observation(0, 0, 0), Observation(0, 0, 5))
    scene = Scene(num_cameras=2, observations=obs,
                  train_identities=frozenset({0}), test_identities=frozenset())
    with pytest.raises(DataError, match="cross-camera"):
        sg.fit_frequency(scene)
    with pytest.raises(ConfigError):
        sg.fit_frequency(scene, bin_width=0)
    freq = two_sighting_scene()
    with pytest.raises(InputError):
        freq.prob(0, 9, 1.0)
    with pytest.raises(InputError):
        freq.prob(0, 1, float("nan"))


def test_fuse_scores_endpoints_and_blend():
    a = np.array([0.2, 0.8])
    b = np.array([1.0, 0.0])
    np.testing.assert_array_equal(sg.fuse_scores(a, b, mu=0.0), a)
    np.testing.assert_array_equal(sg.fuse_scores(a, b, mu=1.0), b)
    np.testing.assert_allclose(sg.fuse_scores(a, b, mu=0.5), [0.6, 0.4])
    with pytest.raises(ConfigError):
        sg.fuse_scores(a, b, mu=1.5)
    with pytest.raises(ShapeError):
        sg.fuse_scores(a, np.array([1.0]))


def test_joint_similarity_single_item_hand_value():
    for mode in ("consistent", "inverted"):
        s = sg.joint_similarity(np.array([0.42]), np.array([1.0]),
                                alpha=0.1, beta=0.1, orientation=mode)
        assert abs(s[0] - SINGLE_ITEM_JOINT) < 1e-6


def test_joint_similarity_range_and_monotonicity():
    rng = np.random.default_rng(1)
    o = rng.uniform(0.0, 1.0, 12)
    v = rng.uniform(-1.0, 1.0, 12)
    s = sg.joint_similarity(o, v)
    assert np.all(s < 0.0) and np.all(s > -1.0)
    # raising one item's spatio-temporal score improves (lowers) its similarity
    bumped = o.copy()
    bumped[3] += 0.05
    s2 = sg.joint_similarity(bumped, v)
    assert s2[3] < s[3]


def test_joint_similarity_ties_broken_by_visual():
    o = np.array([0.5, 0.5, 0.5])
    v = np.array([0.1, 0.9, -0.3])
    s = sg.joint_similarity(o, v)
    assert s[1] < s[0] < s[2]
    inv = sg.joint_similarity(o, v, orientation="inverted")
    assert inv[1] > inv[0] > inv[2]  # the verbatim gate prefers dissimilar items


def test_joint_similarity_validation():
    with pytest.raises(ConfigError):
        sg.joint_similarity([0.1], [0.1], orientation="sideways")
    with pytest.raises(ConfigError):
        sg.joint_similarity([0.1], [0.1], alpha=0.0)
    with pytest.raises(InputError):
        sg.joint_similarity(np.array([]), np.array([]))
    with pytest.raises(InputError):
        sg.joint_similarity([float("nan")], [0.0])
    with pytest.raises(ShapeError):
        sg.joint_similarity([0.1, 0.2], [0.1])


def test_time_targeted_divisors():
    target = np.array([0.7, 0.2, 0.1])
    rows = np.stack([target,                      # aligned, cosine 1
                     np.array([-0.2, 0.7, -0.1])])
    rows[1] -= (rows[1] @ target) / (target @ target) * target  # orthogonal
    s = np.array([-0.5, -0.5])
    out = sg.time_targeted_scores(s, sg.PatternBank(rows=rows, target=target))
    np.testing.assert_allclose(out[0], -0.5 / 2.0, atol=1e-12)
    np.testing.assert_allclose(out[1], -0.5 / (1.0 + math.e), atol=1e-12)
    # aligned items keep more weight, so they rank ahead
    assert out[0] < out[1]
    inv = sg.time_targeted_scores(s, sg.PatternBank(rows=rows, target=target),
                                  orientation="inverted")
    np.testing.assert_allclose(inv[0], -0.5 / 2.0, atol=1e-12)
    np.testing.assert_allclose(inv[1], -0.5 / (1.0 + math.exp(-1.0)), atol=1e-12)


def test_time_targeted_zero_norm_warns():
    bank = sg.PatternBank(rows=np.zeros((1, 3)), target=np.array([1.0, 0.0, 0.0]))
    with pytest.warns(UserWarning, match="zero-norm"):
        out = sg.time_targeted_scores(np.array([-0.4]), bank)
    np.testing.assert_allclose(out, -0.4 / (1.0 + math.e))


def test_pattern_bank_shape_validation():
    with pytest.raises(ShapeError):
        sg.PatternBank(rows=np.zeros((2, 3)), target=np.zeros(4))
    bank = sg.PatternBank(rows=np.zeros((2, 3)), target=np.ones(3))
    with pytest.raises(ShapeError):
        sg.time_targeted_scores(np.zeros(3), bank)


def test_allocation_two_thirds_example():
    # logits / gamma0 = [ln 2, 0] with equal gallery sizes and budget 6
    gamma0 = 0.01
    logits = np.array([math.log(2.0) * gamma0, 0.0])
    alloc = sg.allocate_bandwidth(logits, np.array([10.0, 10.0]), 6,
                                  gamma0=gamma0)
    np.testing.assert_array_equal(alloc.budgets, [4, 2])
    np.testing.assert_allclose(alloc.shares, [4.0, 2.0], atol=1e-9)


def test_allocation_uniform_eight_cameras():
    alloc = sg.uniform_allocation(8, 24)
    np.testing.assert_array_equal(alloc.budgets, np.full(8, 3))


def test_allocation_gamma1_cancels():
    logits = np.array([0.03, 0.01, -0.02])
    sizes = np.array([5.0, 9.0, 2.0])
    a = sg.allocate_bandwidth(logits, sizes, 12, gamma1=0.01)
    b = sg.allocate_bandwidth(logits, sizes, 12, gamma1=7.3)
    np.testing.assert_array_equal(a.budgets, b.budgets)


def test_allocation_enforces_floor_of_one():
    logits = np.array([5.0, 0.0, 0.0])
    alloc = sg.allocate_bandwidth(logits, np.full(3, 4.0), 9, gamma0=0.01)
    assert alloc.budgets.min() >= 1
    assert alloc.budgets.sum() == 9
    np.testing.assert_array_equal(alloc.budgets, [7, 1, 1])


def test_allocation_validation():
    with pytest.raises(ConfigError):
        sg.allocate_bandwidth(np.zeros(3), np.zeros(3), 2)
    with pytest.raises(InputError):
        sg.allocate_bandwidth(np.zeros(1), np.zeros(1), 5)
    with pytest.raises(InputError):
        sg.allocate_bandwidth(np.array([float("inf"), 0.0]), np.zeros(2), 5)
    with pytest.raises(InputError):
        sg.allocate_bandwidth(np.zeros(2), np.array([-1.0, 1.0]), 5)
    with pytest.raises(ConfigError):
        sg.allocate_bandwidth(np.zeros(2), np.zeros(2), 5, gamma0=0.0)


def test_largest_remainder_tie_goes_to_lower_index():
    np.testing.assert_array_equal(
        sg.largest_remainder(np.array([1.5, 1.5, 3.0]), 6), [2, 1, 3])
    np.testing.assert_array_equal(
        sg.largest_remainder(np.array([2.0, 2.0, 2.0]), 6), [2, 2, 2])


@settings(deadline=None, max_examples=100)
@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_allocation_always_sums_to_total(c, seed):
    rng = np.random.default_rng(seed)
    total = int(rng.integers(c, 60))
    logits = rng.normal(scale=0.2, size=c)
    sizes = rng.integers(0, 50, size=c).astype(float)
    alloc = sg.allocate_bandwidth(logits, sizes, total, gamma0=0.5)
    assert alloc.budgets.sum() == total
    assert alloc.budgets.min() >= 1


def reference_largest_remainder(shares, total):
    """The scalar loop largest_remainder_rows replaced, for one row."""
    shares = np.asarray(shares, dtype=np.float64)
    n = shares.size
    if total < n:
        raise ConfigError(f"total bandwidth {total} cannot cover {n} cameras")
    base = np.floor(shares).astype(np.int64)
    remainder = shares - base
    leftover = int(total - base.sum())
    if leftover > 0:
        order = np.lexsort((np.arange(n), -remainder))
        base[order[:leftover]] += 1
    elif leftover < 0:
        order = np.lexsort((np.arange(n), remainder))
        for idx in order:
            if leftover == 0:
                break
            if base[idx] > 0:
                base[idx] -= 1
                leftover += 1
    while True:
        needy = np.flatnonzero(base == 0)
        if needy.size == 0:
            break
        donor = int(np.argmax(base))
        if base[donor] <= 1:
            raise ConfigError("cannot give every camera at least one slot")
        base[donor] -= 1
        base[needy[0]] += 1
    return base


def reference_rows(shares, total):
    """Each row through the reference, or the first row's ConfigError."""
    try:
        return np.array([reference_largest_remainder(row, total) for row in shares])
    except ConfigError as exc:
        return exc


SHARE_KINDS = ("split", "halves", "free", "peaked")


def draw_shares(kind, rows, n, total, rng):
    """split: shares summing to total; halves: ties at .5 and whole numbers;
    free: any sum, so both leftover signs; peaked: one camera takes nearly
    all, so the floor of one must move units."""
    if kind == "split":
        return rng.dirichlet(np.ones(n), size=rows) * total
    if kind == "halves":
        return rng.integers(-2, 2 * total // n + 3, size=(rows, n)) / 2.0
    if kind == "free":
        return rng.uniform(-2.0, 2.0 * total / n + 2.0, size=(rows, n))
    return rng.dirichlet(np.full(n, 0.05), size=rows) * total


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 30),
       st.sampled_from(SHARE_KINDS), st.integers(0, 2**32 - 1))
@example(3, 1, 3, "halves", 0).via("tie at .5 goes to the lower column")
@example(4, 2, 0, "free", 1).via("negative leftover")
@example(8, 3, 0, "peaked", 2).via("floor-of-one donations")
def test_row_wise_largest_remainder_matches_the_scalar_loop(n, rows, extra, kind,
                                                            seed):
    total = n + extra
    shares = draw_shares(kind, rows, n, total, np.random.default_rng(seed))
    want = reference_rows(shares, total)
    if isinstance(want, ConfigError):
        with pytest.raises(ConfigError, match=str(want)):
            sg.largest_remainder_rows(shares, total)
        return
    got = sg.largest_remainder_rows(shares, total)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(sg.largest_remainder(shares[0], total), want[0])


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 30),
       st.data(), st.integers(0, 2**32 - 1))
@example(4, 1, 0, None, 0).via("every unit on one camera")
@example(8, 3, 2, None, 1).via("many empty cameras")
def test_largest_remainder_rows_never_raises_when_shares_split_the_total(
        n, rows, extra, data, seed):
    # non-negative shares summing to total >= n floor to at most total, and
    # the units above one then cover every empty camera
    total = n + extra
    rng = np.random.default_rng(seed)
    if data is None:
        weights = np.zeros((rows, n))
        weights[:, 0] = 1.0
    else:
        weights = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0.0, 1e-12, 0.5, 1.0, 3.0]) | st.floats(0, 1e3),
                     min_size=n, max_size=n),
            min_size=rows, max_size=rows))).reshape(rows, n)
        weights[weights.sum(axis=1) == 0.0, rng.integers(0, n)] = 1.0
    shares = weights / weights.sum(axis=1, keepdims=True) * total
    budgets = sg.largest_remainder_rows(shares, total)
    np.testing.assert_array_equal(budgets.sum(axis=1), total)
    assert budgets.min() >= 1


def test_row_wise_largest_remainder_errors():
    # negative shares leave two empty cameras and no budget above one to take
    shares = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, 0.0, 0.0]])
    assert isinstance(reference_rows(shares, 4), ConfigError)
    with pytest.raises(ConfigError, match="at least one slot"):
        sg.largest_remainder_rows(shares, 4)
    with pytest.raises(ConfigError, match="cannot cover"):
        sg.largest_remainder_rows(np.ones((2, 3)), 2)


@settings(deadline=None, max_examples=100)
@given(st.integers(2, 12), st.integers(1, 40), st.integers(0, 40),
       st.sampled_from([0.01, 0.03, 0.5]), st.integers(0, 2**32 - 1))
def test_row_wise_allocation_matches_one_row_at_a_time(c, rows, extra, gamma0,
                                                       seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=0.1, size=(rows, c))
    sizes = rng.integers(0, 500, size=(rows, c)).astype(float)
    total = c + extra
    budgets, shares = sg.allocate_bandwidth_rows(logits, sizes, total, gamma0,
                                                 gamma1=0.01)
    for k in range(rows):
        # row-wise softmax rows are the 1-d softmax, bit for bit
        assert softmax(logits, axis=1)[k].tobytes() == softmax(logits[k]).tobytes()
        z = (softmax((logits[k] - logits[k].max()) / gamma0)
             * softmax(sizes[k]) / 0.01)
        want = z / z.sum() * total
        assert shares[k].tobytes() == want.tobytes()
        np.testing.assert_array_equal(budgets[k],
                                      reference_largest_remainder(want, total))
        alloc = sg.allocate_bandwidth(logits[k], sizes[k], total, gamma0)
        np.testing.assert_array_equal(alloc.budgets, budgets[k])
        assert alloc.shares.tobytes() == shares[k].tobytes()


def test_frequency_scores_batches_by_camera():
    freq = two_sighting_scene()
    dest = np.array([1, 2, 1])
    ts = np.array([50.0, 50.0, -50.0])
    out = sg.frequency_scores(freq, 0, 0.0, dest, ts)
    assert out[0] == 1.0 and out[1] == 0.0 and out[2] < 1e-6
    with pytest.raises(ShapeError):
        sg.frequency_scores(freq, 0, 0.0, np.array([1, 2]), np.array([1.0]))


def reference_fit_frequency(scene, bin_width, sigma_bins, floor):
    """fit_frequency as it was before the pairs came from
    scene.cross_camera_pairs: a double loop over each identity's sightings."""
    by_identity = {}
    for obs in scene.train_observations():
        by_identity.setdefault(obs.identity, []).append(obs)
    sources, dests, deltas = [], [], []
    for group in by_identity.values():
        for a in group:
            for b in group:
                if a is b or a.camera == b.camera:
                    continue
                sources.append(a.camera)
                dests.append(b.camera)
                deltas.append(b.timestamp - a.timestamp)
    if not deltas:
        raise DataError("no cross-camera pairs in the train split")
    c = scene.num_cameras
    raw_bins = np.floor(np.asarray(deltas, dtype=np.float64) / bin_width)
    raw_bins = raw_bins.astype(np.int64)
    kernel = sg._gaussian_kernel(sigma_bins)
    pad = (kernel.size - 1) // 2
    lo = int(raw_bins.min()) - pad
    n_bins = int(raw_bins.max()) + pad - lo + 1
    counts = np.zeros((c, c, n_bins))
    np.add.at(counts, (np.asarray(sources), np.asarray(dests), raw_bins - lo), 1.0)
    observed = counts.sum(axis=2) > 0.0
    if kernel.size > 1:
        smoothed = np.apply_along_axis(
            lambda row: np.convolve(row, kernel, mode="same"), 2, counts)
    else:
        smoothed = counts
    smoothed += floor
    return smoothed / smoothed.sum(axis=(1, 2), keepdims=True), lo, observed


@settings(deadline=None, max_examples=80)
@given(st.lists(st.tuples(st.sampled_from([0, 2, 9, 40]), st.integers(0, 3),
                          st.integers(0, 400)), min_size=1, max_size=40),
       st.integers(1, 60), st.sampled_from([0.0, 0.7, 2.0]))
def test_fit_frequency_matches_the_double_loop(items, bin_width, sigma_bins):
    obs = tuple(Observation(i, c, t) for i, c, t in items)
    idents = frozenset(i for i, _, _ in items)
    scene = Scene(num_cameras=4, observations=obs, train_identities=idents,
                  test_identities=frozenset())
    try:
        table, lo, observed = reference_fit_frequency(scene, bin_width,
                                                      sigma_bins, 1e-6)
    except DataError:
        with pytest.raises(DataError, match="no cross-camera pairs"):
            sg.fit_frequency(scene, bin_width, sigma_bins, 1e-6)
        return
    freq = sg.fit_frequency(scene, bin_width, sigma_bins, 1e-6)
    assert freq.bin_offset == lo
    assert freq.table.shape == table.shape
    assert freq.table.tobytes() == table.tobytes()
    np.testing.assert_array_equal(freq.observed, observed)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from(["consistent", "inverted"]), st.sampled_from([0.01, 0.1, 2.0]),
       st.booleans())
def test_row_form_joint_similarity_matches_one_row_at_a_time(rows, n, seed,
                                                             orientation, beta,
                                                             fancy):
    rng = np.random.default_rng(seed)
    if fancy:
        # columns picked by fancy indexing come back F-ordered
        wide = n + 5
        columns = rng.permutation(wide)[:n]
        o = rng.uniform(0.0, 1.0, size=(rows, wide))[:, columns]
        v = rng.uniform(-1.0, 1.0, size=(rows, wide))[:, columns]
    else:
        o = rng.uniform(0.0, 1.0, size=(rows, n))
        v = rng.uniform(-1.0, 1.0, size=(rows, n))
    got = sg.joint_similarity(o, v, 5.0, beta, orientation)
    assert got.shape == (rows, n)
    for k in range(rows):
        want = sg.joint_similarity(np.array(o[k]), np.array(v[k]), 5.0, beta,
                                   orientation)
        assert got[k].tobytes() == want.tobytes()


def test_fancy_indexed_rows_are_not_c_ordered():
    # the layout the row-form joint similarity has to undo
    picked = np.arange(40.0).reshape(4, 10)[:, [3, 1, 4, 0, 9]]
    assert not picked.flags.c_contiguous
    got = sg.joint_similarity(picked / 40.0, picked / 40.0, 1.0, 0.1)
    for k in range(4):
        want = sg.joint_similarity(picked[k] / 40.0, picked[k] / 40.0, 1.0, 0.1)
        assert got[k].tobytes() == want.tobytes()


def reference_joint_similarity(o, v, alpha, beta, orientation):
    """joint_similarity's arithmetic on a fresh array per step, the softmax
    taken of (min(o) - o) / beta."""
    o = np.ascontiguousarray(o)
    phi = softmax((o.min(axis=-1, keepdims=True) - o) / beta)
    spatial = 1.0 / (1.0 + alpha * np.exp(phi))
    gate = (v - 1.0) if orientation == "inverted" else -(v - 1.0)
    visual_term = 1.0 / (1.0 + np.exp(gate))
    return -spatial * visual_term


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 5), st.integers(1, 30), st.integers(0, 2**32 - 1),
       st.sampled_from(["1-D", "rows", "F-ordered", "fancy"]),
       st.sampled_from(["consistent", "inverted"]),
       st.sampled_from([0.01, 0.1, 2.0]), st.sampled_from([0.5, 5.0, 100.0]))
def test_in_place_joint_similarity_matches_the_reference(rows, n, seed, layout,
                                                         orientation, beta, alpha):
    rng = np.random.default_rng(seed)
    o = rng.uniform(0.0, 1.0, size=(rows, n + 5))
    v = rng.uniform(-1.0, 1.0, size=(rows, n + 5))
    if layout == "1-D":
        o, v = o[0, :n], v[0, :n]
    elif layout == "rows":
        o, v = o[:, :n], v[:, :n]
    elif layout == "F-ordered":
        o, v = np.asfortranarray(o[:, :n]), np.asfortranarray(v[:, :n])
    else:  # columns picked by fancy indexing come back F-ordered
        columns = rng.permutation(n + 5)[:n]
        o, v = o[:, columns], v[:, columns]
    before = (o.copy(), v.copy())
    got = sg.joint_similarity(o, v, alpha, beta, orientation)
    want = reference_joint_similarity(o, v, alpha, beta, orientation)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    # the inputs are read, never written
    assert o.tobytes() == before[0].tobytes() and v.tobytes() == before[1].tobytes()


def test_joint_similarity_works_in_two_arrays_of_the_input_shape():
    rng = np.random.default_rng(5)
    rows, n = 16, 3995
    o = rng.uniform(0.0, 1.0, size=(rows, n + 1))[:, 1:]  # strided rows
    v = rng.uniform(-1.0, 1.0, size=(rows, n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sg.joint_similarity(o, v, 100.0, 0.01)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the result and the visual gate, plus bool and [rows, 1] temporaries;
    # allocating a fresh array per step peaked at about five
    assert peak < 2.5 * rows * n * 8


def reference_bounded_score(freq, source, dest, delta):
    """bounded_score of one (source, dest, delay), read off the table."""
    if not freq.observed[source, dest]:
        return 0.0
    row = freq.table[source, dest]
    b = int(np.floor(delta / freq.bin_width)) - freq.bin_offset
    return (row[b] if 0 <= b < row.size else row.min()) / row.max()


def test_row_form_frequency_scores_match_the_table():
    freq = two_sighting_scene()
    rng = np.random.default_rng(3)
    sources = np.array([0, 1, 2, 0])
    t_query = np.array([0.0, 13.0, -40.0, 7.0])
    dest = rng.integers(0, 3, size=(4, 9))
    ts = rng.integers(-200, 200, size=(4, 9)).astype(float)
    got = sg.frequency_scores(freq, sources[:, None], t_query[:, None], dest, ts)
    assert got.shape == (4, 9)
    for r in range(4):
        for j in range(9):
            assert got[r, j] == reference_bounded_score(
                freq, sources[r], dest[r, j], ts[r, j] - t_query[r])
        np.testing.assert_array_equal(
            sg.frequency_scores(freq, sources[r], t_query[r], dest[r], ts[r]), got[r])
    with pytest.raises(InputError):
        sg.frequency_scores(freq, 3, 0.0, np.array([1]), np.array([1.0]))
