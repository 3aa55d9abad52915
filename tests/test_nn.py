"""Numeric kernel tests against hand-computed values and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import allocating_kernels as ref
from edgereid import nn
from edgereid.errors import ConfigError, InputError, ShapeError

# Frozen by hand: 0.5 * (1 + erf(1 / sqrt(2))) is the standard normal CDF at 1,
# the one-sided 68 percent point.
PHI_AT_ONE = 0.8413447460685429


def test_embed_matches_hand_values():
    out = nn.sinusoidal_embed(1.0, 4, max_period=10000.0)
    expected = np.array([math.sin(1.0), math.cos(1.0),
                         math.sin(0.01), math.cos(0.01)])
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)


def test_embed_zero_delta():
    out = nn.sinusoidal_embed(0.0, 6)
    np.testing.assert_array_equal(out[0::2], 0.0)
    np.testing.assert_array_equal(out[1::2], 1.0)


def test_embed_batch_shape_and_sign():
    deltas = np.array([[-3.0, 2.0], [0.5, -7.0]])
    out = nn.sinusoidal_embed(deltas, 8)
    assert out.shape == (2, 2, 8)
    # sin is odd, cos even in the time difference
    flipped = nn.sinusoidal_embed(-deltas, 8)
    np.testing.assert_allclose(out[..., 0::2], -flipped[..., 0::2], atol=1e-15)
    np.testing.assert_allclose(out[..., 1::2], flipped[..., 1::2], atol=1e-15)


def test_embed_pairwise_unit_norm():
    rng = np.random.default_rng(0)
    out = nn.sinusoidal_embed(rng.uniform(-5e4, 5e4, 64), 16)
    sq = out[:, 0::2] ** 2 + out[:, 1::2] ** 2
    np.testing.assert_allclose(sq, 1.0, rtol=0, atol=1e-12)


def test_embed_periodicity_dim4():
    # divisors are 1 and 100, so 20000*pi advances both angles by whole turns
    period = 20000.0 * math.pi
    for t in (0.0, 1.0, -13.0, 977.25):
        a = nn.sinusoidal_embed(t, 4)
        b = nn.sinusoidal_embed(t + period, 4)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_embed_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        nn.sinusoidal_embed(1.0, 5)
    with pytest.raises(ConfigError):
        nn.sinusoidal_embed(1.0, 0)
    with pytest.raises(ConfigError):
        nn.sinusoidal_embed(1.0, 4, max_period=1.0)
    with pytest.raises(InputError):
        nn.sinusoidal_embed(float("nan"), 4)


def test_gelu_hand_values():
    assert nn.gelu(np.array([0.0]))[0] == 0.0
    np.testing.assert_allclose(nn.gelu(np.array([1.0]))[0], PHI_AT_ONE,
                               rtol=0, atol=1e-12)
    # odd-part identity: gelu(x) + gelu(-x) = x * erf(x / sqrt 2)
    x = np.linspace(-3, 3, 41)
    lhs = nn.gelu(x) + nn.gelu(-x)
    rhs = x * (2.0 * 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2))) - 1.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def normal_cdf(x):
    return nn._normal_cdf(x, np.empty_like(x), np.empty((2,) + x.shape))


def test_normal_cdf_matches_scipy_in_both_tails():
    from scipy.special import ndtr  # a test-only dependency
    rng = np.random.default_rng(7)
    grid = np.linspace(-40.0, 40.0, 400_001)
    x = np.concatenate([grid, rng.uniform(-40.0, 40.0, 20_000),
                        rng.normal(0.0, 2.0, 20_000)])
    assert np.max(np.abs(normal_cdf(x) - ndtr(x))) <= 4e-16
    # the lower tail keeps its relative accuracy; 0.5 * (1 + erf(x / sqrt 2))
    # lost it to cancellation (relative error up to 4.3e-2 near x = -8)
    lower = np.linspace(-8.0, 0.0, 80_001)
    want = ndtr(lower)
    assert np.max(np.abs(normal_cdf(lower) - want) / want) <= 1e-13
    assert np.all(np.diff(normal_cdf(grid)) >= 0.0)
    ends = normal_cdf(np.array([-np.inf, np.inf, -1e300, 1e300]))
    assert ends.tolist() == [0.0, 1.0, 0.0, 1.0]


def test_gelu_in_place_keeps_the_bits_of_signed_zeros_and_far_tails():
    # gelu_in_place works on -|x| and x's sign bit: -0.0 and the tails where
    # Phi is exactly 0 or 1 must still give the bits of x * Phi(x)
    x = np.array([-0.0, 0.0, -5e-324, 5e-324, -40.0, 40.0, -1e300, 1e300, np.inf])
    got = x.copy()
    nn.gelu_in_place(got, np.empty(nn.gelu_scratch_size(x.size)))
    assert_bit_equal(got, nn.gelu(x))
    assert_bit_equal(got, ref.gelu(x))


def test_gelu_gradient_matches_finite_difference():
    x = np.linspace(-2.5, 2.5, 21)
    h = 1e-6
    numeric = (nn.gelu(x + h) - nn.gelu(x - h)) / (2 * h)
    analytic = nn.gelu_backward(np.ones_like(x), x, nn.gelu(x, keep_phi=True)[1])
    np.testing.assert_allclose(analytic, numeric, atol=1e-9)


def test_relu_and_backward():
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(nn.relu(x), [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(nn.relu_backward(np.ones(3), x), [0.0, 0.0, 1.0])


def test_softmax_hand_value():
    out = nn.softmax(np.array([math.log(2.0), 0.0]))
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=8))
def test_softmax_sums_to_one_at_large_magnitudes(values):
    out = nn.softmax(np.array(values))
    assert abs(out.sum() - 1.0) <= 1e-9
    assert np.all(out >= 0.0)


def reference_softmax(x, axis):
    """softmax as it was before it could write into out."""
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 6), st.integers(1, 9), st.sampled_from([0, 1, -1]),
       st.sampled_from(["C", "F"]), st.sampled_from(["fresh", "self"]),
       st.integers(0, 2**32 - 1))
def test_softmax_into_out_matches_the_reference(rows, cols, axis, layout, target,
                                                seed):
    x = np.random.default_rng(seed).normal(scale=30.0, size=(rows, cols))
    x = np.asarray(x, order=layout)
    want = reference_softmax(x, axis)
    assert nn.softmax(x, axis=axis).tobytes() == want.tobytes()
    out = np.empty_like(x) if target == "fresh" else x
    got = nn.softmax(x, axis=axis, out=out)
    assert got is out
    assert got.tobytes() == want.tobytes()


def test_cross_entropy_uniform_logits_is_log_c():
    logits = np.zeros((2, 3))
    loss, grad = nn.cross_entropy(logits, np.array([0, 2]))
    assert abs(loss - math.log(3.0)) < 1e-12
    expected = np.full((2, 3), 1.0 / 3.0)
    expected[0, 0] -= 1.0
    expected[1, 2] -= 1.0
    np.testing.assert_allclose(grad, expected / 2.0, atol=1e-15)


def test_cross_entropy_rejects_bad_targets():
    with pytest.raises(InputError):
        nn.cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ShapeError):
        nn.cross_entropy(np.zeros((2, 3)), np.array([0]))


def test_cross_entropy_gradient_matches_finite_difference():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 5))
    targets = np.array([0, 3, 1, 4])
    _, grad = nn.cross_entropy(logits, targets)
    h = 1e-6
    for i in range(4):
        for j in range(5):
            up = logits.copy()
            up[i, j] += h
            down = logits.copy()
            down[i, j] -= h
            numeric = (nn.cross_entropy(up, targets)[0]
                       - nn.cross_entropy(down, targets)[0]) / (2 * h)
            assert abs(grad[i, j] - numeric) < 1e-8


def test_layer_norm_rows_are_standardised():
    rng = np.random.default_rng(2)
    x = rng.normal(loc=3.0, scale=2.0, size=(5, 7))
    scale = nn.Param(np.ones(7))
    shift = nn.Param(np.zeros(7))
    y, _ = nn.layer_norm_forward(x, scale, shift)
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    # eps shrinks the variance slightly below 1
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_gradients_by_finite_difference():
    rng = np.random.default_rng(3)
    x = nn.Param(rng.normal(size=(3, 4)))
    scale = nn.Param(rng.uniform(0.5, 1.5, 4))
    shift = nn.Param(rng.normal(size=4))
    mix = rng.normal(size=(3, 4))

    def loss_fn():
        y, _ = nn.layer_norm_forward(x.value, scale, shift)
        return float((y * mix).sum())

    y, cache = nn.layer_norm_forward(x.value, scale, shift)
    nn.zero_grads([x, scale, shift])
    x.grad += nn.layer_norm_backward(mix, cache, scale, shift)
    report = nn.gradient_check(loss_fn, {"x": x, "scale": scale, "shift": shift},
                               tolerance=1e-6)
    assert report.passed, report.errors


def test_linear_gradients_by_finite_difference():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4))
    weight = nn.Param(rng.normal(size=(4, 2)))
    bias = nn.Param(rng.normal(size=2))

    def loss_fn():
        y = nn.linear_forward(x, weight, bias)
        return float(0.5 * (y ** 2).sum())

    y = nn.linear_forward(x, weight, bias)
    nn.zero_grads([weight, bias])
    nn.linear_backward(y, x, weight, bias)
    report = nn.gradient_check(loss_fn, {"w": weight, "b": bias}, tolerance=1e-6)
    assert report.passed, report.errors


def test_linear_shape_error():
    with pytest.raises(ShapeError):
        nn.linear_forward(np.zeros((2, 3)), nn.Param(np.zeros((4, 2))))


def test_batch_norm_train_standardises_and_tracks():
    rng = np.random.default_rng(5)
    bn = nn.BatchNorm(3)
    x = rng.normal(loc=2.0, scale=3.0, size=(16, 3))
    y, _ = bn.forward(x)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.var(axis=0), 1.0, atol=1e-4)
    mean = x.mean(axis=0)
    var = x.var(axis=0) * 16 / 15
    np.testing.assert_allclose(bn.running_mean, 0.1 * mean, atol=1e-12)
    np.testing.assert_allclose(bn.running_var, 0.9 + 0.1 * var, atol=1e-12)


def test_batch_norm_eval_uses_running_stats():
    bn = nn.BatchNorm(2)
    bn.running_mean = np.array([1.0, -1.0])
    bn.running_var = np.array([4.0, 0.25])
    x = np.array([[3.0, 0.0]])
    y = bn.eval_in_place(x.copy())
    expected = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
    np.testing.assert_allclose(y, expected, atol=1e-12)


def test_batch_norm_needs_two_rows_in_train_mode():
    bn = nn.BatchNorm(2)
    with pytest.raises(ConfigError):
        bn.forward(np.zeros((1, 2)))


def test_batch_norm_gradients_by_finite_difference():
    rng = np.random.default_rng(6)
    bn = nn.BatchNorm(3)
    x = rng.normal(size=(8, 3))
    mix = rng.normal(size=(8, 3))

    def loss_fn():
        y, _ = bn.forward(x)
        return float((y * mix).sum())

    _, cache = bn.forward(x)
    nn.zero_grads(bn.params())
    bn.backward(mix, cache)
    report = nn.gradient_check(loss_fn, {"scale": bn.scale, "shift": bn.shift},
                               tolerance=1e-6)
    assert report.passed, report.errors


def test_batch_norm_state_roundtrip():
    bn = nn.BatchNorm(2)
    bn.forward(np.random.default_rng(7).normal(size=(4, 2)))
    other = nn.BatchNorm(2)
    other.load_state(bn.state())
    np.testing.assert_array_equal(other.running_mean, bn.running_mean)
    np.testing.assert_array_equal(other.running_var, bn.running_var)
    with pytest.raises(ShapeError):
        nn.BatchNorm(3).load_state(bn.state())


def test_adam_first_step_moves_by_lr():
    p = nn.Param(np.array([1.0]))
    p.grad[:] = 0.5
    nn.adam_step([p], lr=0.01)
    # bias correction makes the first update lr * g / (|g| + eps)
    np.testing.assert_allclose(p.value, [0.99], atol=1e-8)
    assert p.step_count == 1


def test_adam_zero_gradient_is_a_no_op_on_values():
    p = nn.Param(np.array([2.0, -3.0]))
    nn.adam_step([p], lr=0.1)
    np.testing.assert_array_equal(p.value, [2.0, -3.0])
    assert p.step_count == 1
    with pytest.raises(ConfigError):
        nn.adam_step([p], lr=0.0)


def test_param_copies_and_zero_grads():
    source = np.array([1.0, 2.0])
    p = nn.Param(source)
    source[0] = 99.0
    assert p.value[0] == 1.0
    p.grad[:] = 5.0
    nn.zero_grads([p])
    np.testing.assert_array_equal(p.grad, [0.0, 0.0])


def test_gradient_check_flags_a_corrupted_gradient():
    rng = np.random.default_rng(8)
    w = nn.Param(rng.normal(size=(3,)))
    x = rng.normal(size=3)

    def loss_fn():
        return float(0.5 * ((w.value * x) ** 2).sum())

    nn.zero_grads([w])
    w.grad += (w.value * x) * x
    clean = nn.gradient_check(loss_fn, {"w": w})
    assert clean.passed and clean.max_error < 1e-7

    w.grad[1] += 0.7
    dirty = nn.gradient_check(loss_fn, {"w": w})
    assert not dirty.passed
    assert dirty.worst()[0] == "w"


def test_gradient_check_rejects_bad_step():
    with pytest.raises(ConfigError):
        nn.gradient_check(lambda: 0.0, {}, step=0.0)


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=-100.0, max_value=100.0))
def test_embed_values_stay_bounded(delta):
    out = nn.sinusoidal_embed(delta, 8)
    assert np.all(np.abs(out) <= 1.0 + 1e-15)


def reference_adam_step(params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam update one temporary per operation, as it was written before
    adam_step updated in place."""
    for p in params:
        p.step_count += 1
        t = p.step_count
        p.m *= beta1
        p.m += (1.0 - beta1) * p.grad
        p.v *= beta2
        p.v += (1.0 - beta2) * np.square(p.grad)
        m_hat = p.m / (1.0 - beta1 ** t)
        v_hat = p.v / (1.0 - beta2 ** t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)


def reference_gelu(x):
    return x * ref.normal_cdf(x)


def reference_gelu_backward(gy, x):
    """The GELU input gradient with Phi computed again from x."""
    phi = ref.normal_cdf(x)
    pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * np.square(x))
    return gy * (phi + x * pdf)


def assert_bit_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


shapes = st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
                  min_size=1, max_size=4)


@settings(deadline=None, max_examples=60)
@given(shapes, st.integers(1, 6), st.sampled_from([1e-4, 0.01, 0.3]),
       st.integers(0, 2**32 - 1))
def test_adam_in_place_matches_the_per_op_update(shape_list, steps, lr, seed):
    rng = np.random.default_rng(seed)
    got = [nn.Param(rng.normal(size=s)) for s in shape_list]
    want = [nn.Param(p.value) for p in got]
    # the same update through one workspace, reused by every parameter and step
    shared, work = [nn.Param(p.value) for p in got], nn.Workspace()
    for _ in range(steps):
        for a, b, c in zip(got, want, shared):
            # a few exact zeros and a wide range of magnitudes
            grad = rng.normal(size=a.shape) * 10.0 ** rng.integers(-6, 4, a.shape)
            grad[rng.random(a.shape) < 0.2] = 0.0
            a.grad[...] = grad
            b.grad[...] = grad
            c.grad[...] = grad
        nn.adam_step(got, lr)
        reference_adam_step(want, lr)
        nn.adam_step(shared, lr, work=work)
    for a, b, c in zip(got, want, shared):
        assert a.step_count == b.step_count == c.step_count == steps
        for name in ("value", "m", "v"):
            assert_bit_equal(getattr(a, name), getattr(b, name))
            assert_bit_equal(getattr(c, name), getattr(b, name))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=3),
       st.sampled_from([0.1, 1.0, 4.0, 40.0]), st.integers(0, 2**32 - 1))
def test_gelu_with_kept_phi_matches_the_recomputing_kernels(shape, spread, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=spread, size=shape)
    gy = rng.normal(size=shape)
    out, phi = nn.gelu(x, keep_phi=True)
    assert_bit_equal(out, reference_gelu(x))
    assert_bit_equal(nn.gelu(x), reference_gelu(x))
    want = reference_gelu_backward(gy, x)
    assert_bit_equal(nn.gelu_backward(gy, x, phi), want)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_linear_is_row_wise(rows, width, columns, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, width))
    weight = nn.Param(rng.normal(size=(width, columns)))
    bias = nn.Param(rng.normal(size=columns))
    y = nn.linear_forward(x, weight, bias)
    # within 1e-12 of the sum of the products' magnitudes
    scale = np.abs(x) @ np.abs(weight.value) + np.abs(bias.value)
    assert np.all(np.abs(y - (x @ weight.value + bias.value)) <= 1e-12 * scale)
    for i in rng.choice(rows, min(rows, 5), replace=False):
        assert_bit_equal(nn.linear_forward(x[i:i + 1], weight, bias), y[i:i + 1])


# -- workspace kernels against the allocating references ----------------------
#
# Each case runs a kernel twice or more through one shared workspace, with
# batch sizes that grow and shrink, so that the buffers are reused both at
# their allocated size and as smaller views.


def test_workspace_reuses_and_grows_buffers():
    work = nn.Workspace()
    a = work.get("x", (4, 3))
    assert a.shape == (4, 3) and a.flags.c_contiguous
    b = work.get("x", (2, 3))
    assert np.shares_memory(a, b)
    c = work.get("x", (5, 3))
    assert c.shape == (5, 3) and not np.shares_memory(a, c)
    assert np.shares_memory(work.get("x", (1, 2)), c)
    block = work.scope("block0")
    assert not np.shares_memory(block.get("x", (2, 3)), c)
    assert np.shares_memory(block.get("x", (2, 3)), work.scope("block0").get("x", (1,)))
    # names listed as shared take one buffer, whatever the scope
    shared = nn.Workspace({"t": "common", "u": "common"})
    assert np.shares_memory(shared.scope("block0").get("t", (2, 3)),
                            shared.scope("head").get("u", (6,)))
    assert not np.shares_memory(shared.scope("block0").get("x", (2,)),
                                shared.scope("block1").get("x", (2,)))
    # without a workspace a kernel allocates: two calls share nothing
    x = np.ones((3, 2))
    assert not np.shares_memory(nn.relu(x), nn.relu(x))


def twin_params(*params):
    return [nn.Param(p.value) for p in params]


def assert_params_bit_equal(got, want):
    for a, b in zip(got, want):
        for name in ("value", "grad", "m", "v"):
            assert_bit_equal(getattr(a, name), getattr(b, name))
        assert a.step_count == b.step_count


batch_sizes = st.lists(st.integers(1, 40), min_size=2, max_size=4)


@settings(deadline=None, max_examples=40)
@given(batch_sizes, st.lists(st.integers(1, 6), max_size=1), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_layer_norm_with_a_workspace_matches_the_allocating_kernel(
        sizes, middle, width, seed):
    rng = np.random.default_rng(seed)
    work = nn.Workspace()
    params = [nn.Param(rng.uniform(0.5, 1.5, width)), nn.Param(rng.normal(size=width))]
    twins = twin_params(*params)
    for n in sizes:
        shape = (n, *middle, width)
        x = rng.normal(scale=rng.choice([1e-3, 1.0, 50.0]), size=shape)
        gy = rng.normal(size=shape)
        y, cache = nn.layer_norm_forward(x, *params, work=work)
        want_y, want_cache = ref.layer_norm_forward(x, *twins)
        assert_bit_equal(y, want_y)
        for got, want in zip(cache, want_cache):
            assert_bit_equal(got, want)
        assert_bit_equal(nn.layer_norm_backward(gy, cache, *params, work),
                         ref.layer_norm_backward(gy, want_cache, *twins))
        assert_params_bit_equal(params, twins)


@settings(deadline=None, max_examples=40)
@given(batch_sizes, st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
def test_batch_norm_with_a_workspace_matches_the_allocating_kernel(
        sizes, width, strided, seed):
    rng = np.random.default_rng(seed)
    work = nn.Workspace()
    bn, twin = nn.BatchNorm(width), nn.BatchNorm(width)
    for got, want in ((bn.scale, twin.scale), (bn.shift, twin.shift)):
        got.value[...] = want.value[...] = rng.normal(size=width)
    for n in sizes:
        block = rng.normal(loc=3.0, size=(n, 3, width))
        # a per-node head normalises one camera's column of a block output
        x = block[:, 1, :] if strided else np.ascontiguousarray(block[:, 1, :])
        gy = rng.normal(size=(n, width))
        if n < 2:
            with pytest.raises(ConfigError, match="at least 2 rows"):
                bn.forward(x, work)
        else:
            y, cache = bn.forward(x, work)
            want_y, want_cache = ref.batch_norm_forward(twin, x, True)
            assert_bit_equal(y, want_y)
            for got, want in zip(cache, want_cache):
                assert_bit_equal(got, want)
            for name in ("running_mean", "running_var"):
                assert_bit_equal(getattr(bn, name), getattr(twin, name))
            assert_bit_equal(bn.backward(gy, cache, work),
                             ref.batch_norm_backward(twin, gy, want_cache))
            assert_params_bit_equal(bn.params(), twin.params())
        # the eval pass, on the running statistics training has moved
        got = block.copy()[:, 1, :] if strided else x.copy()
        assert_bit_equal(bn.eval_in_place(got),
                         ref.batch_norm_forward(twin, x, False)[0])


@settings(deadline=None, max_examples=40)
@given(batch_sizes, st.integers(1, 9), st.sampled_from([0.1, 1.0, 4.0, 40.0]),
       st.integers(0, 2**32 - 1))
def test_gelu_with_a_workspace_matches_the_allocating_kernel(sizes, width, spread,
                                                             seed):
    rng = np.random.default_rng(seed)
    work = nn.Workspace()
    for n in sizes:
        x = rng.normal(scale=spread, size=(n, width))
        gy = rng.normal(size=(n, width))
        out, phi = nn.gelu(x, keep_phi=True, work=work)
        want_out, want_phi = ref.gelu(x, keep_phi=True)
        assert_bit_equal(out, want_out)
        assert_bit_equal(phi, want_phi)
        assert_bit_equal(nn.gelu_backward(gy, x, phi, work),
                         ref.gelu_backward(gy, x, want_phi))


@settings(deadline=None, max_examples=40)
@given(batch_sizes, st.integers(1, 12), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_relu_and_linear_with_a_workspace_match_the_allocating_kernels(
        sizes, width, columns, seed):
    rng = np.random.default_rng(seed)
    work = nn.Workspace()
    weight = nn.Param(rng.normal(size=(width, columns)))
    bias = nn.Param(rng.normal(size=columns))
    twins = twin_params(weight, bias)
    for n in sizes:
        x = rng.normal(size=(n, width))
        x[rng.random(x.shape) < 0.2] = 0.0
        gy = rng.normal(size=(n, columns))
        hidden = nn.relu(x, work)
        assert_bit_equal(hidden, ref.relu(x))
        assert_bit_equal(nn.linear_forward(hidden, weight, bias, work),
                         ref.linear_forward(hidden, *twins))
        ghidden = nn.linear_backward(gy, hidden, weight, bias, work)
        want = ref.linear_backward(gy, hidden, *twins)
        assert_bit_equal(ghidden, want)
        assert_bit_equal(nn.relu_backward(ghidden, x, work), ref.relu_backward(want, x))
        assert_params_bit_equal([weight, bias], twins)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 40), st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
def test_in_place_kernels_match_the_allocating_kernels(n, width, strided, seed):
    rng = np.random.default_rng(seed)
    scale = nn.Param(rng.uniform(0.5, 1.5, width))
    shift = nn.Param(rng.normal(size=width))
    x = rng.normal(scale=rng.choice([1e-3, 1.0, 50.0]), size=(n, 3, width))
    got = x.copy()
    assert_bit_equal(nn.layer_norm_in_place(got, scale, shift, np.empty_like(x)),
                     ref.layer_norm_forward(x, scale, shift)[0])
    got = x.copy()
    assert_bit_equal(nn.gelu_in_place(got, np.empty_like(x)), ref.gelu(x))
    bn = nn.BatchNorm(width)
    bn.scale.value[...] = rng.normal(size=width)
    bn.shift.value[...] = rng.normal(size=width)
    bn.load_state({"running_mean": rng.normal(size=width),
                   "running_var": rng.uniform(0.5, 2.0, width)})
    # a per-node head normalises one camera's column of a block output
    got = x.copy()[:, 1, :] if strided else x[:, 1, :].copy()
    assert_bit_equal(bn.eval_in_place(got),
                     ref.batch_norm_forward(bn, x[:, 1, :], False)[0])
