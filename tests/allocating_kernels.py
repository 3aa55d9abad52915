"""The network's layers as they were written before they used a workspace:
every array is allocated afresh. They are the bit-exact references for the
workspace kernels in edgereid.nn and edgereid.transition.

Each function takes (and ignores) the workspace argument of the kernel it
stands for. net_forward and net_backward run the whole network on these
functions alone, so they are references for the training pass and, with
train=False, for the eval pass, which the package runs only through
TransitionNet.eval_logits. `installed` swaps them in for the package's own.
"""

import math

import numpy as np

from edgereid import nn
from edgereid import transition as tr
from edgereid.errors import ConfigError, InputError, NumericError, ShapeError


def layer_norm_forward(x, scale, shift, eps=1e-5, work=None):
    mean = x.mean(axis=-1, keepdims=True)
    centred = x - mean
    var = np.mean(np.square(centred), axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centred * inv_std
    return x_hat * scale.value + shift.value, (x_hat, inv_std)


def layer_norm_backward(gy, cache, scale, shift, work=None):
    x_hat, inv_std = cache
    scale.grad += np.sum(gy * x_hat, axis=tuple(range(gy.ndim - 1)))
    shift.grad += np.sum(gy, axis=tuple(range(gy.ndim - 1)))
    g_hat = gy * scale.value
    return (g_hat - g_hat.mean(axis=-1, keepdims=True)
            - x_hat * np.mean(g_hat * x_hat, axis=-1, keepdims=True)) * inv_std


def normal_cdf(x):
    """Phi(x) by the operations of nn._normal_cdf on fresh arrays: Horner's
    scheme in u = -|x| on the kernel's coefficients, h = Phi(u), then
    |(x >= 0) - h|."""
    u = -np.abs(x)
    coeffs = nn._CDF_COEFFS.reshape(nn._CDF_COEFFS.shape + (1,) * u.ndim)
    with np.errstate(over="ignore", invalid="ignore"):
        acc = u * coeffs[-1] + coeffs[-2]
        for c in coeffs[-3::-1]:
            acc = acc * u + c
        ratio = acc[0] / acc[1]
        square = np.square(u)
    h = np.fmax(ratio * np.exp(square * -0.5), 0.0)
    return np.abs((x >= 0.0) - h)


def gelu(x, keep_phi=False, work=None):
    phi = normal_cdf(x)
    out = x * phi
    return (out, phi) if keep_phi else out


def gelu_backward(gy, x, phi, work=None):
    grad = np.square(x)
    grad *= -0.5
    np.exp(grad, out=grad)
    grad *= 1.0 / math.sqrt(2.0 * math.pi)
    grad *= x
    grad += phi
    grad *= gy
    return grad


def relu(x, work=None):
    return np.maximum(x, 0.0)


def relu_backward(gy, x, work=None):
    return np.where(x > 0.0, gy, 0.0)


def linear_forward(x, weight, bias=None, work=None):
    y = (x[:, :, None] * weight.value).sum(axis=1)
    if bias is not None:
        y = y + bias.value
    return y


def linear_backward(gy, x, weight, bias=None, work=None):
    weight.grad += x.T @ gy
    if bias is not None:
        bias.grad += gy.sum(axis=0)
    return gy @ weight.value.T


def batch_norm_forward(bn, x, train, work=None):
    """Batch norm on the batch statistics, with the cache for backward; with
    train False, on the running statistics, with no cache."""
    if not train:
        x_hat = (x - bn.running_mean) * (1.0 / np.sqrt(bn.running_var + bn.eps))
        return x_hat * bn.scale.value + bn.shift.value, None
    n = x.shape[0]
    if n < 2:
        raise ConfigError(
            f"batch norm needs at least 2 rows in train mode, got {n}")
    mean = x.mean(axis=0)
    centred = x - mean
    var = np.mean(np.square(centred), axis=0)
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    x_hat = centred * inv_std
    bn.running_mean += bn.momentum * (mean - bn.running_mean)
    unbiased = var * n / (n - 1)
    bn.running_var += bn.momentum * (unbiased - bn.running_var)
    return x_hat * bn.scale.value + bn.shift.value, (x_hat, inv_std)


def batch_norm_backward(bn, gy, cache, work=None):
    x_hat, inv_std = cache
    bn.scale.grad += np.sum(gy * x_hat, axis=0)
    bn.shift.grad += np.sum(gy, axis=0)
    g_hat = gy * bn.scale.value
    return (g_hat - g_hat.mean(axis=0)
            - x_hat * np.mean(g_hat * x_hat, axis=0)) * inv_std


def adam_step(params, lr, beta1=0.9, beta2=0.999, eps=1e-8, work=None):
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    for p in params:
        p.step_count += 1
        t = p.step_count
        scratch = np.multiply(p.grad, 1.0 - beta1)
        p.m *= beta1
        p.m += scratch
        np.square(p.grad, out=scratch)
        scratch *= 1.0 - beta2
        p.v *= beta2
        p.v += scratch
        np.divide(p.v, 1.0 - beta2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += eps
        step = np.divide(p.m, 1.0 - beta1 ** t)
        step *= lr
        step /= scratch
        p.value -= step


def block_forward(block, a, work=None):
    normed, ln_cache = layer_norm_forward(a, block.norm_scale, block.norm_shift)
    mixed = np.matmul(block.adjacency.value, normed)
    pre = mixed @ block.transfer.value
    out, phi = gelu(pre, keep_phi=True)
    return out, (normed, ln_cache, mixed, pre, phi)


def block_backward(block, gout, cache, work=None):
    normed, ln_cache, mixed, pre, phi = cache
    gpre = gelu_backward(gout, pre, phi)
    n, c, d = gpre.shape
    block.transfer.grad += mixed.reshape(n * c, d).T @ gpre.reshape(n * c, d)
    gmixed = gpre @ block.transfer.value.T
    block.adjacency.grad += np.matmul(gmixed, normed.transpose(0, 2, 1)).sum(axis=0)
    gnormed = np.matmul(block.adjacency.value.T, gmixed)
    return layer_norm_backward(gnormed, ln_cache, block.norm_scale, block.norm_shift)


def head_forward(head, rows, train, work=None):
    bn_out, bn_cache = batch_norm_forward(head.bn, rows, train)
    hidden = relu(bn_out)
    logits = linear_forward(hidden, head.fc_weight, head.fc_bias)
    return logits, (bn_cache, bn_out, hidden)


def head_backward(head, glogits, cache, work=None):
    bn_cache, bn_out, hidden = cache
    ghidden = linear_backward(glogits, hidden, head.fc_weight, head.fc_bias)
    gbn = relu_backward(ghidden, bn_out)
    return batch_norm_backward(head.bn, gbn, bn_cache)


def spatial_forward(weight, weights, order, bounds, work=None):
    c, d = weight.shape[:2]
    blocks = weight.reshape(c, d, c * d)
    sorted_weights = weights[order]
    out = np.empty((order.size, c * d))
    for s in np.flatnonzero(np.diff(bounds)):
        rows = slice(bounds[s], bounds[s + 1])
        out[order[rows]] = np.einsum("nj,jk->nk", sorted_weights[rows], blocks[s])
    return out.reshape(-1, c, d)


def spatial_backward(weight_grad, weights, order, bounds, ga, work=None):
    c, d = weight_grad.shape[:2]
    sorted_weights = weights[order]
    sorted_ga = ga.reshape(-1, c * d)[order]
    for s in np.flatnonzero(np.diff(bounds)):
        rows = slice(bounds[s], bounds[s + 1])
        weight_grad[s] += np.einsum("nj,nk->jk", sorted_weights[rows],
                                    sorted_ga[rows]).reshape(d, c, d)


def net_forward(model, cameras, t_query, t_target, train=False):
    cfg = model.config
    cams = np.atleast_1d(np.asarray(cameras, dtype=np.int64))
    deltas = np.atleast_1d(model._deltas(t_query, t_target))
    cams, deltas = np.broadcast_arrays(cams, deltas)
    cams = cams.astype(np.int64)
    if cams.ndim != 1:
        raise ShapeError("cameras and timestamps must be scalars or 1-d arrays")
    tr.check_source_cameras(cams, cfg.num_cameras)
    n, c, d = cams.size, cfg.num_cameras, cfg.embed_dim
    embed = nn.sinusoidal_embed(deltas, d, cfg.max_period)
    raw_den = embed.sum(axis=1)
    sign = np.where(raw_den < 0.0, -1.0, 1.0)
    den = sign * np.maximum(np.abs(raw_den), cfg.denominator_floor)
    weights = embed / den[:, None]
    order, bounds = tr._group_by_camera(cams, c)
    a = (spatial_forward(model.spatial_weight.value, weights, order, bounds)
         + model.spatial_bias.value)
    block_caches = []
    for block in model.blocks:
        a, cache = block_forward(block, a)
        block_caches.append(cache)
    if cfg.per_node_classifier:
        logits = np.empty((n, c))
        head_caches = []
        for node, head in enumerate(model.heads):
            col, cache = head_forward(head, a[:, node, :], train)
            logits[:, node] = col[:, 0]
            head_caches.append(cache)
    else:
        flat, cache = head_forward(model.heads[0], a.reshape(n * c, d), train)
        logits = flat.reshape(n, c)
        head_caches = [cache]
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits; check inputs and learning rate")
    # as in the package, an eval pass leaves nothing for backward
    model._cache = ((order, bounds, weights, block_caches, head_caches, n)
                    if train else None)
    return logits


def net_eval_logits(model, cameras, t_query, t_target):
    """eval_logits on one thread: each group of EVAL_ROWS rows runs through
    the allocating forward pass in eval mode."""
    cams, tq, td = tr.batch_inputs(cameras, t_query, t_target,
                                   model.config.num_cameras)
    out = np.empty((cams.size, model.config.num_cameras))
    for start in range(0, cams.size, tr.EVAL_ROWS):
        rows = slice(start, start + tr.EVAL_ROWS)
        out[rows] = net_forward(model, cams[rows], tq[rows], td[rows])
    model._cache = None
    return out


def net_backward(model, glogits):
    if model._cache is None:
        raise InputError("backward called before forward")
    order, bounds, weights, block_caches, head_caches, n = model._cache
    cfg = model.config
    c, d = cfg.num_cameras, cfg.embed_dim
    glogits = nn.as_f64(glogits)
    if cfg.per_node_classifier:
        ga = np.empty((n, c, d))
        for node, head in enumerate(model.heads):
            ga[:, node, :] = head_backward(head, glogits[:, node:node + 1],
                                           head_caches[node])
    else:
        ga = head_backward(model.heads[0], glogits.reshape(n * c, 1),
                           head_caches[0]).reshape(n, c, d)
    for block, cache in zip(reversed(model.blocks), reversed(block_caches)):
        ga = block_backward(block, ga, cache)
    model.spatial_bias.grad += ga.sum(axis=0)
    spatial_backward(model.spatial_weight.grad, weights, order, bounds, ga)
    model._cache = None


def installed(mp):
    """Swap the model's passes and Adam for their allocating references on a
    pytest MonkeyPatch."""
    mp.setattr(nn, "adam_step", adam_step)
    mp.setattr(tr.TransitionNet, "forward", net_forward)
    mp.setattr(tr.TransitionNet, "backward", net_backward)
    mp.setattr(tr.TransitionNet, "eval_logits", net_eval_logits)
