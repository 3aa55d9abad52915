"""Minimal dense neural-network kernel on float64 numpy arrays.

Layers come as explicit forward/backward pairs so the transition network can
run its own backpropagation without an autodiff framework. All arrays are
C-contiguous float64; gradients accumulate into Param.grad until zero_grads
is called. Nothing here keeps hidden global state: random initialisation and
stochastic training draw from caller-owned numpy Generators.

The layer kernels write their large arrays into the buffers of a Workspace
passed by the caller, so that a training loop reuses the same memory every
step instead of allocating (and page-faulting) a fresh set of temporaries.
Called without one, a kernel allocates every array afresh. A workspace, and
every array a kernel returned from it, belongs to one caller at a time: the
next call that uses the workspace overwrites them, and two threads sharing
one would write into each other's temporaries. The in-place kernels below
only read their parameters, so threads may run them at once on disjoint
arrays: TransitionNet.eval_logits' workers each do so on their own rows.

An eval-only pass needs no cache, so layer norm, GELU and eval-mode batch
norm also come in-place (layer_norm_in_place, gelu_in_place,
BatchNorm.eval_in_place): they overwrite their input with the bits the
cached kernel returns.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping

import numpy as np
from scipy.special import erf

from .errors import ConfigError, InputError, ShapeError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def as_f64(x) -> np.ndarray:
    """Return x as a float64 ndarray without copying when already one."""
    return np.asarray(x, dtype=np.float64)


class Param:
    """A learnable array with its gradient and Adam moment buffers.

    Attributes:
        value: current parameter values, float64.
        grad: accumulated gradient, same shape as value.
        m, v: first/second Adam moment estimates.
        step_count: number of Adam updates applied to this parameter.
    """

    __slots__ = ("value", "grad", "m", "v", "step_count")

    def __init__(self, value):
        self.value = as_f64(value).copy()
        self.grad = np.zeros_like(self.value)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self.step_count = 0

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Param(shape={self.value.shape}, steps={self.step_count})"


class Workspace:
    """Reusable float64 work buffers, keyed by name.

    get(name, shape) returns a C-contiguous view of the buffer stored under
    name, allocating it only when it is missing or smaller than shape asks.
    scope(prefix) is a view of the same buffers whose names carry the prefix,
    so that the arrays one layer keeps for its backward pass do not collide
    with another layer's.
    """

    def __init__(self, buffers: dict | None = None, prefix: str = ""):
        self._buffers = {} if buffers is None else buffers
        self._prefix = prefix

    def get(self, name: str, shape) -> np.ndarray:
        key = self._prefix + name
        size = math.prod(shape)
        flat = self._buffers.get(key)
        if flat is None or flat.size < size:
            flat = self._buffers[key] = np.empty(size)
        return flat[:size].reshape(shape)

    def scope(self, prefix: str) -> "Workspace":
        return Workspace(self._buffers, f"{self._prefix}{prefix}.")


def zero_grads(params) -> None:
    for p in params:
        p.grad[...] = 0.0


def adam_step(params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8, work: Workspace | None = None) -> None:
    """Apply one bias-corrected Adam update to each parameter in place.

    With zero gradients and fresh moments the values are untouched while
    step_count still advances.
    """
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    work = work or Workspace()
    for p in params:
        p.step_count += 1
        t = p.step_count
        # the same operations in the same order as the textbook update,
        # written into two scratch arrays instead of one temporary each
        scratch = np.multiply(p.grad, 1.0 - beta1,
                              out=work.get("adam.scratch", p.shape))
        p.m *= beta1
        p.m += scratch
        np.square(p.grad, out=scratch)
        scratch *= 1.0 - beta2
        p.v *= beta2
        p.v += scratch
        np.divide(p.v, 1.0 - beta2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += eps
        step = np.divide(p.m, 1.0 - beta1 ** t, out=work.get("adam.step", p.shape))
        step *= lr
        step /= scratch
        p.value -= step


def sinusoidal_embed(delta_t, dim: int, max_period: float = 10000.0) -> np.ndarray:
    """Sinusoidal position code of a (signed) time difference.

    Entry 2i is sin(delta_t / max_period**(2i/dim)) and entry 2i+1 the cosine
    at the same frequency, for i in 0..dim/2-1. Accepts a scalar or an array
    of deltas; an array input of shape S yields shape S + (dim,).

    Args:
        delta_t: time difference(s), already divided by any time scale.
        dim: embedding width, positive and even.
        max_period: geometric progression base for the wavelengths, > 1.
    """
    delta = as_f64(delta_t)
    _check_embed(delta, dim, max_period)
    return _embed(delta, dim, max_period)


def _check_embed(delta: np.ndarray, dim: int, max_period: float) -> None:
    if dim <= 0 or dim % 2 != 0:
        raise ConfigError(f"embedding dim must be positive and even, got {dim}")
    if max_period <= 1.0:
        raise ConfigError(f"max_period must exceed 1, got {max_period}")
    if not np.all(np.isfinite(delta)):
        raise InputError("delta_t must be finite")


def _embed(delta: np.ndarray, dim: int, max_period: float) -> np.ndarray:
    """sinusoidal_embed of float64 deltas that _check_embed has passed, so
    that a batch checked once can be embedded in parts."""
    half = dim // 2
    divisors = max_period ** (2.0 * np.arange(half) / dim)
    args = delta[..., None] / divisors
    out = np.empty(delta.shape + (dim,), dtype=np.float64)
    out[..., 0::2] = np.sin(args)
    out[..., 1::2] = np.cos(args)
    return out


def linear_forward(x: np.ndarray, weight: Param, bias: Param | None = None,
                   work: Workspace | None = None) -> np.ndarray:
    """y = x @ weight (+ bias). x is [M, K], weight [K, N].

    The product is a row-wise sum of products, not a BLAS call, so a row's
    output does not depend on the other rows: a matrix-vector product's
    result for a row moves in the last bit with the row's position in the
    batch and with the batch size.
    """
    if x.ndim != 2 or weight.value.ndim != 2 or x.shape[1] != weight.value.shape[0]:
        raise ShapeError(
            f"linear expects [M,K] @ [K,N], got {x.shape} and {weight.value.shape}")
    product = (work or Workspace()).get("linear.product",
                                        x.shape + weight.value.shape[1:])
    return linear_rows(x, weight, bias, product)


def linear_rows(x: np.ndarray, weight: Param, bias: Param | None,
                product: np.ndarray) -> np.ndarray:
    """linear_forward's fresh output, with the [M, K, N] products written
    into product, which must be C-contiguous: the sum over K reads its
    layout, and the bits with it."""
    y = np.multiply(x[:, :, None], weight.value, out=product).sum(axis=1)
    if bias is not None:
        y += bias.value
    return y


def linear_backward(gy: np.ndarray, x: np.ndarray, weight: Param,
                    bias: Param | None = None,
                    work: Workspace | None = None) -> np.ndarray:
    """Accumulate weight/bias gradients and return the input gradient."""
    weight.grad += x.T @ gy
    if bias is not None:
        bias.grad += gy.sum(axis=0)
    gx = (work or Workspace()).get("linear_backward.grad", x.shape)
    return np.matmul(gy, weight.value.T, out=gx)


def layer_norm_forward(x: np.ndarray, scale: Param, shift: Param,
                       eps: float = 1e-5, work: Workspace | None = None):
    """Normalise each row of x over its last axis, then scale and shift.

    Returns (y, cache); pass the cache to layer_norm_backward.
    """
    if x.shape[-1] != scale.value.shape[0] or x.shape[-1] != shift.value.shape[0]:
        raise ShapeError(
            f"layer_norm feature width {x.shape[-1]} does not match "
            f"scale {scale.value.shape} / shift {shift.value.shape}")
    work = work or Workspace()
    x_hat = work.get("layer_norm.x_hat", x.shape)
    y = work.get("layer_norm.out", x.shape)
    inv_std = _standardize(x, x_hat, y, eps)
    np.multiply(x_hat, scale.value, out=y)
    y += shift.value
    cache = (x_hat, inv_std)
    return y, cache


def layer_norm_in_place(x: np.ndarray, scale: Param, shift: Param,
                        scratch: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """layer_norm_forward's output written over x, by the same operations in
    the same order (so the same bits) and with no cache; scratch, an array
    of x's shape, takes the squares."""
    _standardize(x, x, scratch, eps)
    x *= scale.value
    x += shift.value
    return x


def _standardize(x: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                 eps: float) -> np.ndarray:
    """(x - mean) / sqrt(var + eps) over the last axis, written into out
    (which may be x itself), with the squares in scratch; returns the
    1 / sqrt(var + eps) factors."""
    mean = x.mean(axis=-1, keepdims=True)
    centred = np.subtract(x, mean, out=out)
    var = np.mean(np.square(centred, out=scratch), axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    out *= inv_std
    return inv_std


def layer_norm_backward(gy: np.ndarray, cache, scale: Param, shift: Param,
                        work: Workspace | None = None) -> np.ndarray:
    x_hat, inv_std = cache
    work = work or Workspace()
    tmp = work.get("layer_norm_backward.tmp", gy.shape)
    g_hat = work.get("layer_norm_backward.grad", gy.shape)
    axes = tuple(range(gy.ndim - 1))
    scale.grad += np.sum(np.multiply(gy, x_hat, out=tmp), axis=axes)
    shift.grad += np.sum(gy, axis=axes)
    np.multiply(gy, scale.value, out=g_hat)
    # (g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat)) * inv_std, in g_hat
    proj = np.mean(np.multiply(g_hat, x_hat, out=tmp), axis=-1, keepdims=True)
    g_hat -= g_hat.mean(axis=-1, keepdims=True)
    g_hat -= np.multiply(x_hat, proj, out=tmp)
    g_hat *= inv_std
    return g_hat


def gelu(x: np.ndarray, keep_phi: bool = False, work: Workspace | None = None):
    """Exact Gaussian error linear unit, x * Phi(x).

    With keep_phi it returns (gelu(x), Phi(x)), so that gelu_backward can
    reuse Phi instead of computing erf again.
    """
    work = work or Workspace()
    phi = _normal_cdf(x, work.get("gelu.phi", x.shape))
    out = np.multiply(x, phi, out=work.get("gelu.out", x.shape))
    return (out, phi) if keep_phi else out


def gelu_in_place(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """gelu(x) written over x, by the same operations; scratch, an array of
    x's shape, takes Phi(x)."""
    x *= _normal_cdf(x, scratch)
    return x


def gelu_backward(gy: np.ndarray, x: np.ndarray, phi: np.ndarray,
                  work: Workspace | None = None) -> np.ndarray:
    """Input gradient of gelu; phi is Phi(x) as gelu(x, keep_phi=True)
    returned it."""
    grad = np.square(x, out=(work or Workspace()).get("gelu_backward.grad", x.shape))
    grad *= -0.5
    np.exp(grad, out=grad)
    grad *= _INV_SQRT_2PI
    grad *= x
    grad += phi
    grad *= gy
    return grad


def _normal_cdf(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt 2)), computed in out."""
    phi = np.divide(x, _SQRT2, out=out)
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return phi


def relu(x: np.ndarray, work: Workspace | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=(work or Workspace()).get("relu.out", x.shape))


def relu_backward(gy: np.ndarray, x: np.ndarray,
                  work: Workspace | None = None) -> np.ndarray:
    """gy where x > 0, else 0."""
    grad = (work or Workspace()).get("relu_backward.grad", gy.shape)
    grad[...] = 0.0
    np.copyto(grad, gy, where=x > 0.0)
    return grad


class BatchNorm:
    """Batch normalisation over axis 0 with running statistics.

    forward(x, train=True) normalises with the batch statistics and updates
    the running averages (momentum 0.1, unbiased variance); train=False uses
    the stored running statistics. The returned cache feeds backward, which
    only supports the mode it was produced under.
    """

    def __init__(self, width: int, momentum: float = 0.1, eps: float = 1e-5):
        if width <= 0:
            raise ConfigError(f"batch norm width must be positive, got {width}")
        self.scale = Param(np.ones(width))
        self.shift = Param(np.zeros(width))
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.momentum = float(momentum)
        self.eps = float(eps)

    def params(self):
        return [self.scale, self.shift]

    def forward(self, x: np.ndarray, train: bool, work: Workspace | None = None):
        if x.ndim != 2 or x.shape[1] != self.scale.value.shape[0]:
            raise ShapeError(
                f"batch norm expects [B,{self.scale.value.shape[0]}], got {x.shape}")
        work = work or Workspace()
        x_hat = work.get("batch_norm.x_hat", x.shape)
        y = work.get("batch_norm.out", x.shape)
        if train:
            n = x.shape[0]
            if n < 2:
                raise ConfigError(
                    f"batch norm needs at least 2 rows in train mode, got {n}")
            mean = x.mean(axis=0)
            centred = np.subtract(x, mean, out=x_hat)
            var = np.mean(np.square(centred, out=y), axis=0)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat *= inv_std
            self.running_mean += self.momentum * (mean - self.running_mean)
            unbiased = var * n / (n - 1)
            self.running_var += self.momentum * (unbiased - self.running_var)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            np.subtract(x, self.running_mean, out=x_hat)
            x_hat *= inv_std
        np.multiply(x_hat, self.scale.value, out=y)
        y += self.shift.value
        return y, (train, x_hat, inv_std)

    def eval_in_place(self, x: np.ndarray) -> np.ndarray:
        """forward(x, train=False)'s output written over x, by the same
        operations in the same order (so the same bits) and with no cache."""
        x -= self.running_mean
        x *= 1.0 / np.sqrt(self.running_var + self.eps)
        x *= self.scale.value
        x += self.shift.value
        return x

    def backward(self, gy: np.ndarray, cache,
                 work: Workspace | None = None) -> np.ndarray:
        train, x_hat, inv_std = cache
        work = work or Workspace()
        tmp = work.get("batch_norm_backward.tmp", gy.shape)
        g_hat = work.get("batch_norm_backward.grad", gy.shape)
        self.scale.grad += np.sum(np.multiply(gy, x_hat, out=tmp), axis=0)
        self.shift.grad += np.sum(gy, axis=0)
        np.multiply(gy, self.scale.value, out=g_hat)
        if train:
            # g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat), in g_hat
            proj = np.mean(np.multiply(g_hat, x_hat, out=tmp), axis=0)
            g_hat -= g_hat.mean(axis=0)
            g_hat -= np.multiply(x_hat, proj, out=tmp)
        g_hat *= inv_std
        return g_hat

    def state(self) -> dict:
        return {"running_mean": self.running_mean.copy(),
                "running_var": self.running_var.copy()}

    def load_state(self, state: Mapping[str, np.ndarray]) -> None:
        mean = as_f64(state["running_mean"])
        var = as_f64(state["running_var"])
        if mean.shape != self.running_mean.shape or var.shape != self.running_var.shape:
            raise ShapeError("batch norm running statistics have the wrong shape")
        self.running_mean = mean.copy()
        self.running_var = var.copy()


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along the given axis."""
    x = as_f64(x)
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)  # in place: one [rows, classes] array, not three
    e /= e.sum(axis=axis, keepdims=True)
    return e


def cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy of integer class targets.

    Returns (loss, dloss/dlogits). logits is [B, C]; targets is [B] with
    entries in [0, C).
    """
    logits = as_f64(logits)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.ndim != 1 or logits.shape[0] != targets.shape[0]:
        raise ShapeError(
            f"cross entropy expects [B,C] logits and [B] targets, "
            f"got {logits.shape} and {targets.shape}")
    n, c = logits.shape
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise InputError(f"targets must lie in [0, {c}), got range "
                         f"[{targets.min()}, {targets.max()}]")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted[np.arange(n), targets] - log_z
    loss = float(-log_probs.mean())
    grad = softmax(logits, axis=1)
    grad[np.arange(n), targets] -= 1.0
    grad /= n
    return loss, grad


@dataclasses.dataclass
class GradCheckReport:
    """Per-parameter maximum relative error of analytic vs numeric gradients."""

    errors: dict[str, float]
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def worst(self) -> tuple[str, float]:
        name = max(self.errors, key=self.errors.get)
        return name, self.errors[name]


def gradient_check(loss_fn: Callable[[], float], params: Mapping[str, Param],
                   step: float = 1e-5, tolerance: float = 1e-3) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    loss_fn must be a deterministic zero-argument closure that runs a fresh
    forward pass and returns a scalar; the analytic gradients must already be
    stored in each Param.grad before calling. Relative error per element is
    |a - n| / max(|a|, |n|, 1e-6); the report keeps the max per parameter.
    The 1e-6 floor keeps identically-zero gradients (a shared scoring bias
    under softmax cross-entropy has one) from amplifying one-ulp noise in the
    central differences into spurious failures.

    Elements that fail at `step` are re-measured once at step/32 and keep the
    better error. A ReLU pre-activation within one step of zero makes the
    central difference straddle the kink, which reads as an O(1) error on
    every upstream parameter even when the analytic gradient is exact;
    shrinking the step moves the probe off the kink, while a genuinely wrong
    gradient keeps failing at any step.
    """
    if step <= 0.0:
        raise ConfigError(f"finite-difference step must be positive, got {step}")
    errors: dict[str, float] = {}
    for name, p in params.items():
        flat = p.value.reshape(-1)
        analytic = p.grad.reshape(-1)
        worst = 0.0
        for k in range(flat.size):
            err = _element_error(loss_fn, flat, k, analytic[k], step)
            if err >= tolerance:
                err = min(err, _element_error(loss_fn, flat, k, analytic[k],
                                              step / 32.0))
            worst = max(worst, err)
        errors[name] = worst
    return GradCheckReport(errors=errors, tolerance=tolerance)


def _element_error(loss_fn, flat: np.ndarray, k: int, analytic: float,
                   step: float) -> float:
    original = flat[k]
    flat[k] = original + step
    up = loss_fn()
    flat[k] = original - step
    down = loss_fn()
    flat[k] = original
    numeric = (up - down) / (2.0 * step)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
