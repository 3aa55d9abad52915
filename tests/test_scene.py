"""Scene generation, CSV round trips, splits, and the closed-form oracle."""

import hashlib
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from edgereid import scene as sc
from edgereid.config import load_config
from edgereid.errors import ConfigError, DataError, InputError


def ring_spec(num_cameras=4, ticks=10, **kwargs):
    """Deterministic ring: every camera hands off to the next after `ticks`."""
    edges = tuple(sc.Edge(i, (i + 1) % num_cameras, 1.0, sc.FixedDelay(ticks))
                  for i in range(num_cameras))
    defaults = dict(num_cameras=num_cameras, edges=edges, num_identities=1,
                    visits=5)
    defaults.update(kwargs)
    return sc.GeneratorSpec(**defaults)


def obs_tuples(scene):
    return [(o.identity, o.camera, o.timestamp) for o in scene.observations]


def test_ring_walk_is_fully_deterministic():
    spec = ring_spec()
    a = sc.generate(spec, np.random.default_rng(0))
    b = sc.generate(spec, np.random.default_rng(12345))
    expected = [(0, 0, 0), (0, 0, 40), (0, 1, 10), (0, 2, 20), (0, 3, 30)]
    assert sorted(obs_tuples(a)) == sorted(expected)
    assert obs_tuples(a) == obs_tuples(b)


def test_identity_k_starts_at_camera_k_mod_c():
    spec = ring_spec(num_cameras=3, num_identities=5, visits=1)
    scene = sc.generate(spec, np.random.default_rng(0))
    starts = {o.identity: o.camera for o in scene.observations}
    assert starts == {0: 0, 1: 1, 2: 2, 3: 0, 4: 1}


def test_observations_sorted_by_camera_then_time():
    spec = ring_spec(num_identities=6, visits=4)
    scene = sc.generate(spec, np.random.default_rng(0))
    keys = [(o.camera, o.timestamp, o.identity) for o in scene.observations]
    assert keys == sorted(keys)


def test_start_spread_uses_the_rng():
    spec = ring_spec(start_spread=1000, num_identities=20, visits=1)
    scene = sc.generate(spec, np.random.default_rng(3))
    times = {o.timestamp for o in scene.observations}
    assert len(times) > 5
    assert all(0 <= t <= 1000 for t in times)


def test_features_are_unit_norm_and_noisy():
    spec = ring_spec(num_identities=8, visits=3, feature_dim=5, feature_noise=0.2)
    scene = sc.generate(spec, np.random.default_rng(4))
    by_id = {}
    for o in scene.observations:
        assert abs(np.linalg.norm(o.feature) - 1.0) < 1e-12
        by_id.setdefault(o.identity, []).append(o.feature)
    # same identity stays closer than unrelated identities on average
    same = np.mean([f0 @ f1 for fs in by_id.values()
                    for i, f0 in enumerate(fs) for f1 in fs[i + 1:]])
    cross = np.mean([by_id[0][0] @ by_id[i][0] for i in range(1, 8)])
    assert same > 0.8 > abs(cross) + 0.2


def test_visibility_drops_observations():
    spec = ring_spec(num_identities=30, visits=10, visibility=0.4)
    scene = sc.generate(spec, np.random.default_rng(5))
    kept = len(scene.observations)
    assert 60 <= kept <= 180  # 300 visits at p=0.4, generous band


def test_transition_frequencies_match_edge_probabilities():
    edges = (sc.Edge(0, 1, 0.7, sc.FixedDelay(5)),
             sc.Edge(0, 2, 0.3, sc.FixedDelay(5)),
             sc.Edge(1, 0, 1.0, sc.FixedDelay(5)),
             sc.Edge(2, 0, 1.0, sc.FixedDelay(5)))
    spec = sc.GeneratorSpec(num_cameras=3, edges=edges, num_identities=3000,
                            visits=2)
    scene = sc.generate(spec, np.random.default_rng(6))
    moves = {}
    by_id = {}
    for o in scene.observations:
        by_id.setdefault(o.identity, []).append(o)
    for group in by_id.values():
        group.sort(key=lambda o: o.timestamp)
        first, second = group[0], group[1]
        if first.camera == 0:
            moves[second.camera] = moves.get(second.camera, 0) + 1
    total = moves.get(1, 0) + moves.get(2, 0)
    assert total == 1000  # identities 0, 3, 6, ... start at camera 0
    # binomial(1000, 0.7): 3 sigma is about 43
    assert abs(moves.get(1, 0) - 700) < 50


def test_warns_when_cameras_record_nothing():
    spec = ring_spec(num_cameras=3, num_identities=1, visits=1)
    with pytest.warns(UserWarning, match=r"\[1, 2\]"):
        sc.generate(spec, np.random.default_rng(0))


def reference_generate(spec, rng):
    """generate as the per-visit loop it replaced: `rng.choice` for the edge
    and `np.linalg.norm` and the feature arithmetic on every visible visit."""
    per_camera = [spec.edges_from(c) for c in range(spec.num_cameras)]
    observations = []
    seen_cameras = set()
    for ident in range(spec.num_identities):
        camera = ident % spec.num_cameras
        t = int(rng.integers(0, spec.start_spread + 1)) if spec.start_spread else 0
        mean = None
        if spec.feature_dim:
            mean = rng.standard_normal(spec.feature_dim)
            mean /= np.linalg.norm(mean)
        for _ in range(spec.visits):
            visible = spec.visibility >= 1.0 or rng.random() < spec.visibility
            if visible:
                feature = None
                if mean is not None:
                    feature = mean + spec.feature_noise * rng.standard_normal(spec.feature_dim)
                    feature /= np.linalg.norm(feature)
                observations.append(sc.Observation(ident, camera, t, feature))
                seen_cameras.add(camera)
            edges = per_camera[camera]
            probs = [e.prob for e in edges]
            choice = edges[rng.choice(len(edges), p=probs)] if len(edges) > 1 else edges[0]
            t += choice.delay.sample(rng)
            camera = choice.dest
    unseen = sorted(set(range(spec.num_cameras)) - seen_cameras)
    if unseen:
        warnings.warn(f"cameras {unseen} recorded no observations", stacklevel=2)
    return sc.Scene(num_cameras=spec.num_cameras, observations=tuple(observations),
                    generator=spec)


@st.composite
def generator_specs(draw):
    """Specs with 2-6 cameras and 1-3 outgoing edges per camera at uneven
    probabilities, fixed and log-normal delays, partial visibility, features
    of 0-8 dimensions and start spreads."""
    num_cameras = draw(st.integers(2, 6))
    delays = st.one_of(
        st.builds(sc.FixedDelay, st.integers(1, 30)),
        st.builds(sc.LogNormalDelay, st.floats(0.0, 4.0), st.floats(0.05, 1.0)))
    edges = []
    for source in range(num_cameras):
        weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
        for w in weights:
            edges.append(sc.Edge(source, draw(st.integers(0, num_cameras - 1)),
                                 w / sum(weights), draw(delays)))
    feature_dim = draw(st.sampled_from([0, 0, 1, 2, 3, 5, 8]))
    return sc.GeneratorSpec(
        num_cameras=num_cameras, edges=tuple(edges),
        num_identities=draw(st.integers(1, 12)), visits=draw(st.integers(1, 8)),
        feature_dim=feature_dim,
        feature_noise=draw(st.floats(0.0, 1.0)) if feature_dim else 0.0,
        start_spread=draw(st.sampled_from([0, 0, 1, 7, 200])),
        visibility=draw(st.sampled_from([1.0, 1.0, 0.9, 0.5, 0.1])))


def generate_recording_warnings(generator, spec, seed):
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scene = generator(spec, rng)
    return scene, rng, [(w.category, str(w.message), w.filename) for w in caught]


@settings(deadline=None, max_examples=150)
@given(generator_specs(), st.integers(0, 2 ** 32 - 1))
def test_generate_matches_the_per_visit_reference(spec, seed):
    got, got_rng, got_warnings = generate_recording_warnings(sc.generate, spec, seed)
    want, want_rng, want_warnings = generate_recording_warnings(
        reference_generate, spec, seed)
    assert got_warnings == want_warnings
    assert got.num_cameras == want.num_cameras and got.generator is spec
    assert len(got.observations) == len(want.observations)
    for a, b in zip(got.observations, want.observations):
        assert (a.identity, a.camera, a.timestamp) == (b.identity, b.camera, b.timestamp)
        if spec.feature_dim:
            assert a.feature.dtype == b.feature.dtype
            assert a.feature.tobytes() == b.feature.tobytes()
        else:
            assert a.feature is None and b.feature is None
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def scene_digest(scene):
    """sha256 over identities, cameras, timestamps and feature bytes, in the
    scene's order."""
    digest = hashlib.sha256()
    digest.update(np.array([(o.identity, o.camera, o.timestamp)
                            for o in scene.observations], dtype=np.int64).tobytes())
    for o in scene.observations:
        digest.update(o.feature.tobytes())
    return digest.hexdigest()


def test_shipped_benchmark_scene_is_pinned():
    """A change to generate's draw order moves every stored bundle: it fails
    here first, by name."""
    config = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "configs", "benchmark.json"))
    gen_rng, _ = np.random.default_rng(config.scene.seed).spawn(2)
    scene = sc.generate(config.scene.generator, gen_rng)
    assert len(scene.observations) == 8004
    assert scene_digest(scene) == (
        "9d046a1cc396bb1dedc76f7f0991c69c496ca895ca02cd7bfa5bf6791c8461c2")


def test_spec_validation():
    with pytest.raises(ConfigError):
        ring_spec(num_cameras=1)
    with pytest.raises(ConfigError):  # probabilities must sum to 1
        sc.GeneratorSpec(num_cameras=2,
                         edges=(sc.Edge(0, 1, 0.5, sc.FixedDelay(1)),
                                sc.Edge(1, 0, 1.0, sc.FixedDelay(1))),
                         num_identities=1, visits=1)
    with pytest.raises(ConfigError):  # camera 1 has no outgoing edge
        sc.GeneratorSpec(num_cameras=2,
                         edges=(sc.Edge(0, 1, 1.0, sc.FixedDelay(1)),),
                         num_identities=1, visits=1)
    with pytest.raises(ConfigError):
        sc.FixedDelay(0)
    with pytest.raises(ConfigError):
        sc.LogNormalDelay(0.0, -1.0)
    with pytest.raises(ConfigError):
        ring_spec(visibility=0.0)


@pytest.mark.parametrize("edit, message", [
    (lambda e: e.update({"from": 0.0}), "edges[0].from: expected int"),
    (lambda e: e.update({"to": True}), "edges[0].to: expected an integer"),
    (lambda e: e.update({"prob": "1"}), "edges[0].prob: expected float"),
    (lambda e: e.update({"prob": math.nan}), "edges[0].prob: value nan out of range"),
    (lambda e: e.update({"delay": {"fixed": 5.0}}), "edges[0].delay.fixed: expected int"),
    (lambda e: e.update({"delay": {"fixed": 0}}), "edges[0].delay.fixed: value 0 out of range"),
    (lambda e: e.update({"delay": {"fixed": 5, "x": 1}}), "edges[0].delay: unknown keys: x"),
    (lambda e: e.update({"delay": {"lognormal": {"mu": "3", "sigma": 0.3}}}),
     "edges[0].delay.lognormal.mu: expected float"),
    (lambda e: e.update({"delay": {"lognormal": {"mu": 3.0}}}),
     "edges[0].delay.lognormal.sigma: missing"),
    (lambda e: e.pop("delay"), "edges[0].delay: expected a mapping"),
])
def test_spec_edges_are_read_strictly(edit, message):
    # int(), float() and ignored keys used to pass such edges through
    doc = sc.spec_to_dict(ring_spec())
    edit(doc["edges"][0])
    with pytest.raises(ConfigError) as err:
        sc.spec_from_dict(doc)
    assert str(err.value) == f"generator.{message}"


def test_lognormal_delay_samples_are_positive_integers():
    law = sc.LogNormalDelay(math.log(40.0), 0.5)
    rng = np.random.default_rng(7)
    draws = [law.sample(rng) for _ in range(500)]
    assert all(isinstance(d, int) and d >= 1 for d in draws)
    assert 25 <= np.median(draws) <= 60


def test_lognormal_bin_mass_matches_scipy():
    law = sc.LogNormalDelay(math.log(40.0), 0.5)
    ref = stats.lognorm(s=0.5, scale=40.0)
    for lo, hi in ((0.0, 20.0), (20.0, 60.0), (60.0, 1e9)):
        assert abs(law.bin_mass(lo, hi) - (ref.cdf(hi) - ref.cdf(lo))) < 1e-12


def test_csv_roundtrip_is_exact(tmp_path):
    spec = ring_spec(num_identities=10, visits=4, feature_dim=3,
                     feature_noise=0.1, start_spread=7)
    scene = sc.generate(spec, np.random.default_rng(8))
    path = tmp_path / "scene.csv"
    sc.export_csv(scene, path)
    back = sc.ingest_csv(path)
    assert back.num_cameras == scene.num_cameras
    assert len(back.observations) == len(scene.observations)
    for a, b in zip(scene.observations, back.observations):
        assert (a.identity, a.camera, a.timestamp) == (b.identity, b.camera,
                                                       b.timestamp)
        np.testing.assert_array_equal(a.feature, b.feature)


def test_ingest_densifies_camera_labels(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("identity,camera,timestamp\n0,5,0\n0,9,10\n1,9,3\n")
    scene = sc.ingest_csv(path)
    assert scene.num_cameras == 2
    assert scene.camera_ids == (5, 9)
    assert {o.camera for o in scene.observations} == {0, 1}


def test_ingest_rejects_malformed_files(tmp_path):
    cases = {
        "head.csv": ("camera,identity,timestamp\n0,0,0\n", "header"),
        "cols.csv": ("identity,camera,timestamp\n0,0\n", ":2"),
        "feat.csv": ("identity,camera,timestamp,f0,f1\n0,0,0,1.0\n", ":2"),
        "negative.csv": ("identity,camera,timestamp\n0,0,-5\n", ">= 0"),
        "zero.csv": ("identity,camera,timestamp,f0\n0,0,0,0.0\n", "zero feature"),
        "fname.csv": ("identity,camera,timestamp,g0\n0,0,0,1.0\n", "f0"),
        "empty.csv": ("", "empty"),
    }
    for name, (content, needle) in cases.items():
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(DataError, match=needle):
            sc.ingest_csv(path)


def test_ingest_renormalises_with_warning(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("identity,camera,timestamp,f0,f1\n0,0,0,3.0,4.0\n0,1,1,1.0,0.0\n")
    with pytest.warns(UserWarning, match="renormalised 1"):
        scene = sc.ingest_csv(path)
    first = [o for o in scene.observations if o.camera == 0][0]
    np.testing.assert_allclose(first.feature, [0.6, 0.8], atol=1e-15)


def test_split_is_disjoint_and_clamped():
    spec = ring_spec(num_identities=10, visits=2)
    scene = sc.generate(spec, np.random.default_rng(9))
    split = sc.split_identities(scene, 0.5, np.random.default_rng(10))
    assert len(split.train_identities) == 5
    assert len(split.test_identities) == 5
    assert not split.train_identities & split.test_identities
    assert split.train_identities | split.test_identities == set(range(10))

    two = sc.generate(ring_spec(num_cameras=2, num_identities=2, visits=2),
                      np.random.default_rng(11))
    tiny = sc.split_identities(two, 0.01, np.random.default_rng(12))
    assert len(tiny.train_identities) == 1 and len(tiny.test_identities) == 1
    with pytest.raises(ConfigError):
        sc.split_identities(scene, 1.0, np.random.default_rng(13))


def test_split_required_for_split_views():
    scene = sc.generate(ring_spec(num_identities=3, visits=2),
                        np.random.default_rng(14))
    with pytest.raises(DataError):
        scene.train_observations()
    with pytest.raises(DataError):
        scene.test_observations()


def test_scene_rejects_out_of_range_camera():
    with pytest.raises(DataError):
        sc.Scene(num_cameras=2, observations=(sc.Observation(0, 2, 0),))


def test_oracle_fixed_and_lognormal_masses():
    edges = (sc.Edge(0, 1, 0.6, sc.FixedDelay(10)),
             sc.Edge(0, 2, 0.4, sc.LogNormalDelay(math.log(20.0), 0.5)),
             sc.Edge(1, 0, 1.0, sc.FixedDelay(10)),
             sc.Edge(2, 0, 1.0, sc.FixedDelay(10)))
    spec = sc.GeneratorSpec(num_cameras=3, edges=edges, num_identities=1, visits=1)
    oracle = sc.TransitionOracle(spec, [0.0, 15.0, 30.0, 1e9])
    ref = stats.lognorm(s=0.5, scale=20.0)
    joint = oracle.joint(0)
    assert joint.shape == (3, 3)
    assert joint[0, 1] == 0.6 and joint[1, 1] == 0.0
    np.testing.assert_allclose(joint[0, 2], 0.4 * ref.cdf(15.0), atol=1e-12)
    np.testing.assert_allclose(joint[:, 2].sum(), 0.4, atol=1e-9)
    np.testing.assert_allclose(joint.sum(), 1.0, atol=1e-9)

    cond = oracle.conditional(0)
    np.testing.assert_allclose(cond.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(oracle.bin_centres(), [7.5, 22.5, (30 + 1e9) / 2])
    with pytest.raises(InputError):
        oracle.joint(5)
    with pytest.raises(ConfigError):
        sc.TransitionOracle(spec, [0.0])
    with pytest.raises(ConfigError):
        sc.TransitionOracle(spec, [0.0, 0.0])


def test_spec_dict_roundtrip_and_files(tmp_path):
    spec = ring_spec(num_identities=4, visits=3, feature_dim=2,
                     feature_noise=0.3, start_spread=5, visibility=0.9)
    doc = sc.spec_to_dict(spec)
    assert sc.spec_from_dict(doc) == spec
    path = tmp_path / "spec.json"
    sc.save_spec(spec, path)
    assert sc.load_spec(path) == spec
    doc["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        sc.spec_from_dict(doc)
    with pytest.raises(ConfigError, match="edges\\[0\\]"):
        sc.spec_from_dict({"num_cameras": 2, "num_identities": 1, "visits": 1,
                           "edges": [{"from": 0, "to": 1, "prob": 1.0,
                                      "delay": {"beta": 1}}]})


def reference_cross_camera_pairs(identities, cameras):
    """The per-identity loop that cross_camera_pairs replaced: group items by
    identity in item order, pair each item with every later one of its group
    on another camera, and list the groups in ascending identity order."""
    groups = {}
    for i, ident in enumerate(identities):
        groups.setdefault(ident, []).append(i)
    first, second = [], []
    for ident in sorted(groups):
        group = groups[ident]
        for k, a in enumerate(group):
            for b in group[k + 1:]:
                if cameras[a] != cameras[b]:
                    first.append(a)
                    second.append(b)
    return first, second


@pytest.mark.parametrize("identities, cameras", [
    ([], []),                                 # no items
    ([4, 4, 4, 4], [0, 1, 0, 2]),             # one identity
    ([0, 1, 0, 1, 2], [3, 3, 3, 3, 3]),       # every item on one camera
    ([90, -2, 7, 90, 7, -2], [0, 1, 0, 1, 1, 0]),  # non-contiguous identities
    ([5], [1]),
])
def test_cross_camera_pairs_examples(identities, cameras):
    first, second = sc.cross_camera_pairs(identities, cameras)
    assert first.dtype == second.dtype == np.int64
    assert (first.tolist(), second.tolist()) == reference_cross_camera_pairs(
        identities, cameras)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.sampled_from([-3, 0, 1, 7, 1000, 2 ** 40]),
                          st.integers(0, 3)), max_size=40))
def test_cross_camera_pairs_matches_the_per_identity_loop(items):
    identities = [ident for ident, _ in items]
    cameras = [cam for _, cam in items]
    first, second = sc.cross_camera_pairs(identities, cameras)
    assert np.all(first < second)
    assert (first.tolist(), second.tolist()) == reference_cross_camera_pairs(
        identities, cameras)


def test_export_keeps_original_camera_labels(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("identity,camera,timestamp\n0,3,0\n0,7,10\n1,7,3\n")
    out = tmp_path / "out.csv"
    sc.export_csv(sc.ingest_csv(path), out)
    assert out.read_text() == ("identity,camera,timestamp\n"
                               "0,3,0\n1,7,3\n0,7,10\n")


feature_values = st.one_of(st.floats(0.125, 8.0), st.floats(-8.0, -0.125))


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 3), st.booleans(), st.data())
def test_csv_export_ingest_round_trip(dim, single_identity, data):
    labels = data.draw(st.lists(st.sampled_from([0, 3, 7, 12, 40, 999]),
                                min_size=1, max_size=4, unique=True))
    rows = data.draw(st.lists(st.tuples(
        st.just(5) if single_identity else st.integers(0, 3),
        st.sampled_from(labels), st.integers(0, 10 ** 6),
        st.lists(feature_values, min_size=dim, max_size=dim)),
        min_size=1, max_size=20))
    header = ",".join(list(sc.CSV_BASE_HEADER) + [f"f{i}" for i in range(dim)])
    lines = [header] + [",".join([str(i), str(c), str(t)] + [repr(v) for v in f])
                        for i, c, t, f in rows]
    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "source.csv")
        with open(source, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # non-unit features renormalise
            scene = sc.ingest_csv(source)
        first = os.path.join(tmp, "first.csv")
        sc.export_csv(scene, first)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no second renormalisation
            back = sc.ingest_csv(first)
        second = os.path.join(tmp, "second.csv")
        sc.export_csv(back, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
        with open(first, encoding="utf-8") as fh:
            exported = [ln.split(",")[:3] for ln in fh.read().splitlines()[1:]]
    assert sorted((int(i), int(c), int(t)) for i, c, t in exported) == sorted(
        (i, c, t) for i, c, t, _ in rows)
    assert back.camera_ids == scene.camera_ids == tuple(sorted({r[1] for r in rows}))
    assert obs_tuples(back) == obs_tuples(scene)
    for a, b in zip(scene.observations, back.observations):
        if dim:
            assert abs(float(np.linalg.norm(a.feature)) - 1.0) < 1e-12
            assert a.feature.tobytes() == b.feature.tobytes()
        else:
            assert a.feature is None and b.feature is None
