"""Minimal dense neural-network kernel on float64 numpy arrays.

Layers come as explicit forward/backward pairs so the transition network can
run its own backpropagation without an autodiff framework. All arrays are
C-contiguous float64; gradients accumulate into Param.grad until zero_grads
is called. Nothing here keeps hidden global state: random initialisation and
stochastic training draw from caller-owned numpy Generators. numpy is the
only dependency: GELU's normal CDF is a rational fit evaluated with numpy
ufuncs (_lower_tail) that keeps its accuracy in both tails, and training's
gelu and the eval pass's gelu_in_place run one kernel. Layer norm and
training batch norm run the same kernels, over the last axis and axis 0.

The layer kernels write their large arrays into the buffers of a Workspace
passed by the caller, so that a training loop reuses the same memory every
step instead of allocating (and page-faulting) a fresh set of temporaries.
Called without one, a kernel allocates every array afresh. A workspace, and
every array a kernel returned from it, belongs to one caller at a time: the
next call that uses the workspace overwrites them, and two threads sharing
one would write into each other's temporaries. The in-place kernels below
only read their parameters, so threads may run them at once on disjoint
arrays: TransitionNet.eval_logits' workers each do so on the groups of rows
they take, one at a time, from a shared iterator.

An eval pass needs no cache, so layer norm and GELU also come in place
(layer_norm_in_place, gelu_in_place) with the bits the cached kernel
returns, each writing its temporaries into a scratch array the caller
passes, and eval-mode batch norm comes only in place (BatchNorm.eval_in_place).
gelu_in_place runs over its input in pieces as large as that scratch
takes, with the same bits for any piece size: the eval pass hands it
544 KiB, pieces of 32,768 values, whatever the group's size, and training
a scratch that takes the whole batch in one piece.
TransitionNet.eval_logits, the one eval entry, runs them;
forward(train=False) returns it.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, InputError, ShapeError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# _lower_tail's R(u) = P(u) / Q(u), a fit of erfcx(-u / sqrt 2) / 2 on
# [-6 sqrt 2, 0] (largest relative error 1e-17 in exact arithmetic). The
# range ends at erfcx's argument 6, where exp(-36) = 2.3e-16, so beyond it
# Phi(u) stays below 1e-17. Row k holds the u**k coefficients of P (degree
# 8, padded with a zero) and Q (degree 9, Q(0) = 1). Their signs alternate
# with k: in t = -u >= 0 all are positive, so R has no pole there, and
# Horner's scheme in u gives the bits it gives in t. tools/fit_normal_cdf.py
# refits them, reproducing these values, and prints the kernel's errors.
_CDF_COEFFS = np.array([
    (0.5, 1.0),
    (-0.6618007723780192, -2.1214861055589056),
    (0.43688442672742955, 2.066469863038039),
    (-0.18109613461531915, -1.2162151358021966),
    (0.050866119562466665, 0.4781302569317655),
    (-0.009855595242766853, -0.13070437989111092),
    (0.0012854653644315181, 0.02496390317233299),
    (-0.00010355455680015778, -0.0032321569643847764),
    (3.978962952041367e-06, 0.00025957279594797643),
    (0.0, -9.97378085180626e-06),
])


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

    get(name, shape) returns a C-contiguous view of the start of the buffer
    stored under name, allocating it only when it is missing or smaller
    than shape asks. scope(prefix) is a view of the same buffers whose names
    carry the prefix, so that the arrays one layer keeps for its backward
    pass do not collide with another layer's.

    shared maps names to buffers common to every scope: get(name) for a
    name in it returns the start of that buffer, whatever the scope, so
    arrays whose lifetimes do not overlap take the same memory. The caller
    that lists a name makes sure that the buffer's previous occupant has
    been read for the last time. TransitionNet's training step keeps in
    scoped buffers only what backward reads: layer norm's x_hat, GELU's
    input and Phi, batch norm's x_hat and ReLU's output. Backward recomputes
    layer norm's output (layer_norm_output) and the mixing product from
    them, and every other array of the step is listed in shared.
    """

    def __init__(self, shared: Mapping[str, str] | None = None):
        self._buffers: dict[str, np.ndarray] = {}
        self._shared = dict(shared or {})
        self._prefix = ""

    def get(self, name: str, shape) -> np.ndarray:
        key = self._shared.get(name) or self._prefix + name
        size = math.prod(shape)
        flat = self._buffers.get(key)
        if flat is None or flat.size < size:
            flat = self._buffers[key] = np.empty(size)
        return flat[:size].reshape(shape)

    def scope(self, prefix: str) -> "Workspace":
        scoped = copy.copy(self)
        scoped._prefix = f"{self._prefix}{prefix}."
        return scoped


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


def valid_embed_dim(dim) -> bool:  # positive and even
    return dim > 0 and dim % 2 == 0


def valid_max_period(max_period) -> bool:  # above 1; NaN fails
    return max_period > 1.0


def _check_embed(delta: np.ndarray, dim: int, max_period: float) -> None:
    if not valid_embed_dim(dim):
        raise ConfigError(f"embedding dim must be positive and even, got {dim}")
    if not valid_max_period(max_period):
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
    _, _, inv_std = _standardize(x, x_hat, y, eps)
    return layer_norm_output(x_hat, scale, shift, y), (x_hat, inv_std)


def layer_norm_output(x_hat: np.ndarray, scale: Param, shift: Param,
                      out: np.ndarray) -> np.ndarray:
    """x_hat * scale + shift written into out: layer norm's and batch norm's
    output from their cached x_hat, with the bits forward returned."""
    np.multiply(x_hat, scale.value, out=out)
    out += shift.value
    return out


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
                 eps: float, axis: int = -1):
    """(x - mean) / sqrt(var + eps) over axis (the last for layer norm, 0
    for batch norm), written into out (which may be x itself), with the
    squares in scratch. Returns the mean, the variance and the
    1 / sqrt(var + eps) factors, each keeping axis with length 1."""
    mean = x.mean(axis=axis, keepdims=True)
    centred = np.subtract(x, mean, out=out)
    var = np.mean(np.square(centred, out=scratch), axis=axis, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    out *= inv_std
    return mean, var, inv_std


def layer_norm_backward(gy: np.ndarray, cache, scale: Param, shift: Param,
                        work: Workspace | None = None) -> np.ndarray:
    return _norm_backward(gy, cache, scale, shift, work or Workspace(),
                          "layer_norm_backward", axis=-1)


def _norm_backward(gy: np.ndarray, cache, scale: Param, shift: Param,
                   work: Workspace, name: str, axis: int) -> np.ndarray:
    """Input gradient of a normalisation over axis from its cached (x_hat,
    inv_std), in work's name.grad buffer with name.tmp as scratch; the scale
    and shift gradients sum over every axis but the last."""
    x_hat, inv_std = cache
    tmp = work.get(f"{name}.tmp", gy.shape)
    g_hat = work.get(f"{name}.grad", gy.shape)
    axes = tuple(range(gy.ndim - 1))
    scale.grad += np.sum(np.multiply(gy, x_hat, out=tmp), axis=axes)
    shift.grad += np.sum(gy, axis=axes)
    np.multiply(gy, scale.value, out=g_hat)
    # (g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat)) * inv_std, in g_hat
    proj = np.mean(np.multiply(g_hat, x_hat, out=tmp), axis=axis, keepdims=True)
    g_hat -= g_hat.mean(axis=axis, keepdims=True)
    g_hat -= np.multiply(x_hat, proj, out=tmp)
    g_hat *= inv_std
    return g_hat


def gelu(x: np.ndarray, work: Workspace | None = None):
    """Exact Gaussian error linear unit, x * Phi(x), by gelu_in_place's
    kernel: (gelu(x), Phi(x)) in work's buffers, so that gelu_backward can
    reuse Phi instead of computing it again."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    work = work or Workspace()
    phi = work.get("gelu.phi", x.shape)
    scratch = work.get("gelu.scratch", (gelu_scratch_size(x.size),))
    return gelu_in_place(x, scratch, work.get("gelu.out", x.shape), phi), phi


def gelu_in_place(x: np.ndarray, scratch: np.ndarray, out: np.ndarray | None = None,
                  phi: np.ndarray | None = None) -> np.ndarray:
    """gelu(x) written over x, or into out and x left as it is; phi, when
    given, receives Phi(x). scratch, a C-contiguous float64 array, holds
    Phi's work. x, out and phi, C-contiguous too, run through it in pieces of
    k values, two float64 arrays of k and k bools each, so a scratch of
    gelu_scratch_size(x.size) values takes x in one piece.

    A piece keeps u = -|x| and upper, whether x's sign bit is clear, and
    its product is u * (h - upper), h = Phi(u): -|x| * (h - 1) = |x| * Phi(x)
    above and x * h below, -0.0 included. A product's rounding does not
    depend on the signs of its factors, so these are the bits of x * Phi(x),
    NaN at x = -inf (-inf * 0). Phi(x) is |h - upper|: h below and 1 - h
    above, so both tails keep their relative accuracy, Phi is monotone, and
    Phi(-inf) = 0 and Phi(inf) = 1 exactly. Against scipy.special.ndtr the
    absolute error is at most 2.2e-16 on [-40, 40], and the relative error on
    [-8, 0] at most 1.2e-14 (0.5 * (1 + erf(x / sqrt 2)) loses the lower tail
    to cancellation: 4.3e-2 there). The operations are elementwise, so an
    element's bits do not depend on the others, on the array's shape or on
    the pieces.
    """
    out = x if out is None else out
    if not all(a is None or a.flags.c_contiguous for a in (x, scratch, out, phi)):
        raise ShapeError("gelu_in_place needs C-contiguous arrays")
    src, dst, space = x.reshape(-1), out.reshape(-1), scratch.reshape(-1)
    # the largest k with gelu_scratch_size(k) <= space.size
    step = 8 * space.size // 17
    if step == 0:
        if src.size:
            raise ShapeError(f"gelu_in_place needs a scratch of at least 3 "
                             f"values, got {space.size}")
        return out
    with np.errstate(invalid="ignore"):  # the product -inf * 0 at x = -inf
        for start in range(0, src.size, step):
            piece = slice(start, start + step)
            u = dst[piece]
            k = u.size
            work = space[:2 * k].reshape(2, k)
            upper = space[2 * k:gelu_scratch_size(k)].view(np.bool_)[:k]
            np.logical_not(np.signbit(src[piece], out=upper), out=upper)
            np.negative(np.abs(src[piece], out=u), out=u)
            h = _lower_tail(u, work)
            factor = np.subtract(h, upper, out=work[1])
            if phi is not None:
                np.abs(factor, out=phi.reshape(-1)[piece])
            u *= factor
    return out


def gelu_scratch_size(n: int) -> int:
    """Values of scratch gelu_in_place needs to take n values in one piece:
    two float64 arrays of n and n bools."""
    return 2 * n + -(-n // 8)


def gelu_backward(gy: np.ndarray, x: np.ndarray, phi: np.ndarray,
                  work: Workspace | None = None) -> np.ndarray:
    """Input gradient of gelu; phi is Phi(x) as gelu(x) returned it."""
    grad = np.square(x, out=(work or Workspace()).get("gelu_backward.grad", x.shape))
    grad *= -0.5
    np.exp(grad, out=grad)
    grad *= _INV_SQRT_2PI
    grad *= x
    grad += phi
    grad *= gy
    return grad


def _lower_tail(u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Phi(u) for u <= 0, written into scratch[0], a [2, *u.shape] array
    whose second half is free again on return: exp(-u**2 / 2) * P(u) / Q(u),
    the rational fit in _CDF_COEFFS, evaluated by one Horner pass over both
    polynomials at once.

    Below the fit's range R extrapolates, positive and finite, while the
    exponential sinks below 1e-17 and then to 0. Where |u| is so large that
    the powers overflow (|u|**9 past 1e308, or u = -inf), R is NaN, and fmax
    takes h to 0: the exact tail value in float64.
    """
    coeffs = _CDF_COEFFS.reshape(_CDF_COEFFS.shape + (1,) * u.ndim)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(u, coeffs[-1], out=scratch)
        scratch += coeffs[-2]
        for c in coeffs[-3::-1]:
            scratch *= u
            scratch += c
        h = np.divide(scratch[0], scratch[1], out=scratch[0])
        e = np.square(u, out=scratch[1])
    e *= -0.5
    np.exp(e, out=e)
    h *= e
    return np.fmax(h, 0.0, out=h)


def relu(x: np.ndarray, work: Workspace | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=(work or Workspace()).get("relu.out", x.shape))


def relu_backward(gy: np.ndarray, x: np.ndarray,
                  work: Workspace | None = None) -> np.ndarray:
    """gy where x > 0, else 0. x may be relu's input or its output: the two
    are positive at the same places, NaN in neither."""
    grad = (work or Workspace()).get("relu_backward.grad", gy.shape)
    grad[...] = 0.0
    np.copyto(grad, gy, where=x > 0.0)
    return grad


class BatchNorm:
    """Batch normalisation over axis 0 with running statistics.

    forward(x) trains: it normalises with the batch statistics, updates the
    running averages (momentum 0.1, unbiased variance) and returns the cache
    backward reads, by layer norm's kernels (_standardize, layer_norm_output,
    _norm_backward) over axis 0. eval_in_place normalises with the running
    statistics, in place and with no cache: the eval mode, for
    TransitionNet.eval_logits.
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

    def forward(self, x: np.ndarray, work: Workspace | None = None):
        if x.ndim != 2 or x.shape[1] != self.scale.value.shape[0]:
            raise ShapeError(
                f"batch norm expects [B,{self.scale.value.shape[0]}], got {x.shape}")
        n = x.shape[0]
        if n < 2:
            raise ConfigError(
                f"batch norm needs at least 2 rows in train mode, got {n}")
        work = work or Workspace()
        x_hat = work.get("batch_norm.x_hat", x.shape)
        y = work.get("batch_norm.out", x.shape)
        mean, var, inv_std = (stat[0] for stat in
                              _standardize(x, x_hat, y, self.eps, axis=0))
        self.running_mean += self.momentum * (mean - self.running_mean)
        unbiased = var * n / (n - 1)
        self.running_var += self.momentum * (unbiased - self.running_var)
        return layer_norm_output(x_hat, self.scale, self.shift, y), (x_hat, inv_std)

    def eval_in_place(self, x: np.ndarray) -> np.ndarray:
        """(x - running_mean) / sqrt(running_var + eps) * scale + shift,
        written over x, with no cache."""
        x -= self.running_mean
        x *= 1.0 / np.sqrt(self.running_var + self.eps)
        x *= self.scale.value
        x += self.shift.value
        return x

    def backward(self, gy: np.ndarray, cache,
                 work: Workspace | None = None) -> np.ndarray:
        return _norm_backward(gy, cache, self.scale, self.shift,
                              work or Workspace(), "batch_norm_backward", axis=0)

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


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None
            ) -> np.ndarray:
    """Numerically stable softmax along the given axis, written into out
    (x's shape, float64; x itself normalises in place) when given."""
    x = as_f64(x)
    e = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
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
