"""Scoring and bandwidth policies built on top of a transition model.

Three ingredients feed the upload strategies: a smoothed frequency table of
observed camera/delay co-occurrences, whose bounded scores can be fused with
the learned transition network's probabilities, and a joint similarity that
combines spatio-temporal and visual evidence. The
bandwidth allocator turns per-camera logits and gallery sizes into integer
upload budgets.
"""

from __future__ import annotations

import dataclasses
import warnings
import numpy as np

from .errors import ConfigError, DataError, InputError, ShapeError
from .nn import as_f64, softmax
from .scene import Scene, cross_camera_pairs

ORIENTATION_MODES = ("consistent", "inverted")


def _check_orientation(mode: str) -> None:
    if mode not in ORIENTATION_MODES:
        raise ConfigError(
            f"orientation must be one of {ORIENTATION_MODES}, got {mode!r}")


class FrequencyModel:
    """Smoothed histogram of p(dest camera, signed delay bin | source camera).

    Delays between same-identity cross-camera observations are binned at
    bin_width ticks, smoothed along the delay axis with a discrete Gaussian
    (sigma_bins bins wide), floored at `floor`, and normalised per source
    camera. bounded_score rescales each (source, dest) slice by its maximum
    so scores live in [0, 1]; camera pairs that were never co-observed score
    zero rather than inheriting the flat floor.
    """

    def __init__(self, table: np.ndarray, bin_offset: int, bin_width: int,
                 observed: np.ndarray):
        self.table = table
        self.bin_offset = bin_offset
        self.bin_width = bin_width
        self.observed = observed
        self._pair_max = table.max(axis=2)

    @property
    def num_cameras(self) -> int:
        return self.table.shape[0]

    @property
    def num_bins(self) -> int:
        return self.table.shape[2]

    def _bins(self, delta_t) -> np.ndarray:
        deltas = as_f64(delta_t)
        if not np.all(np.isfinite(deltas)):
            raise InputError("delta_t must be finite")
        return np.floor(deltas / self.bin_width).astype(np.int64) - self.bin_offset

    def prob(self, source: int, dest: int, delta_t) -> np.ndarray:
        """p(dest, bin(delta_t) | source); out-of-range delays get the
        smallest stored probability for that camera pair."""
        self._check(source, dest)
        bins = self._bins(delta_t)
        slice_ = self.table[source, dest]
        out = np.full(bins.shape, slice_.min(), dtype=np.float64)
        ok = (bins >= 0) & (bins < self.num_bins)
        out[ok] = slice_[bins[ok]]
        return out

    def bounded_score(self, source: int, dest: int, delta_t) -> np.ndarray:
        """prob rescaled to [0, 1] by the (source, dest) maximum; zero when
        the pair has no observed co-occurrences."""
        self._check(source, dest)
        if not self.observed[source, dest]:
            return np.zeros(np.shape(as_f64(delta_t)), dtype=np.float64)
        return self.prob(source, dest, delta_t) / self._pair_max[source, dest]

    def _check(self, source: int, dest: int) -> None:
        c = self.num_cameras
        if not (0 <= source < c and 0 <= dest < c):
            raise InputError(f"cameras ({source}, {dest}) outside [0, {c})")


def _gaussian_kernel(sigma_bins: float) -> np.ndarray:
    if sigma_bins <= 0.0:
        return np.array([1.0])
    radius = max(1, int(np.ceil(4.0 * sigma_bins)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * np.square(xs / sigma_bins))
    return kernel / kernel.sum()


def fit_frequency(scene: Scene, bin_width: int = 100, sigma_bins: float = 2.0,
                  floor: float = 1e-6) -> FrequencyModel:
    """Count signed delays of all ordered same-identity cross-camera train
    pairs, smooth, floor, and normalise per source camera."""
    if bin_width < 1:
        raise ConfigError(f"bin_width must be >= 1, got {bin_width}")
    if floor <= 0.0:
        raise ConfigError(f"floor must be positive, got {floor}")
    observations = scene.train_observations()
    if not observations:
        raise DataError("train split is empty")
    cams = np.array([o.camera for o in observations], dtype=np.int64)
    ts = np.array([o.timestamp for o in observations], dtype=np.int64)
    first, second = cross_camera_pairs([o.identity for o in observations], cams)
    if first.size == 0:
        raise DataError("no cross-camera pairs in the train split")
    sources = np.concatenate((cams[first], cams[second]))
    dests = np.concatenate((cams[second], cams[first]))
    deltas = np.concatenate((ts[second] - ts[first], ts[first] - ts[second]))
    c = scene.num_cameras
    raw_bins = np.floor(as_f64(deltas) / bin_width).astype(np.int64)
    kernel = _gaussian_kernel(sigma_bins)
    pad = (kernel.size - 1) // 2
    lo = int(raw_bins.min()) - pad
    hi = int(raw_bins.max()) + pad
    n_bins = hi - lo + 1
    counts = np.zeros((c, c, n_bins))
    np.add.at(counts, (sources, dests, raw_bins - lo), 1.0)
    observed = counts.sum(axis=2) > 0.0
    if kernel.size > 1:
        smoothed = np.apply_along_axis(
            lambda row: np.convolve(row, kernel, mode="same"), 2, counts)
    else:
        smoothed = counts
    smoothed += floor
    totals = smoothed.sum(axis=(1, 2), keepdims=True)
    table = smoothed / totals
    return FrequencyModel(table=table, bin_offset=lo, bin_width=bin_width,
                          observed=observed)


# -- spatio-temporal scores ----------------------------------------------------


def frequency_scores(freq: FrequencyModel, source_camera: int, t_query,
                     dest_cameras, t_gallery) -> np.ndarray:
    """Bounded [0, 1] frequency evidence for each gallery item."""
    dest = np.atleast_1d(np.asarray(dest_cameras, dtype=np.int64))
    ts = np.atleast_1d(as_f64(t_gallery))
    if dest.shape != ts.shape:
        raise ShapeError(f"cameras {dest.shape} and timestamps {ts.shape} differ")
    out = np.empty(dest.shape, dtype=np.float64)
    for cam in np.unique(dest):
        mask = dest == cam
        out[mask] = freq.bounded_score(source_camera, int(cam),
                                       ts[mask] - float(t_query))
    return out


def fuse_scores(model_part: np.ndarray, freq_part: np.ndarray,
                mu: float = 0.5) -> np.ndarray:
    """Convex blend (1 - mu) * model + mu * frequency."""
    if not 0.0 <= mu <= 1.0:
        raise ConfigError(f"mu must be in [0, 1], got {mu}")
    a, b = as_f64(model_part), as_f64(freq_part)
    if a.shape != b.shape:
        raise ShapeError(f"score shapes differ: {a.shape} vs {b.shape}")
    return (1.0 - mu) * a + mu * b


# -- joint similarity and time-targeted rescoring -------------------------------


def joint_similarity(st_scores, visual, alpha: float = 0.1, beta: float = 0.1,
                     orientation: str = "consistent") -> np.ndarray:
    """Joint spatio-temporal/visual similarity, ascending-is-better.

    s_k = -[1 / (1 + alpha * exp(softmax(-o / beta)_k))]
          * [1 / (1 + exp(g(v_k)))]
    with the softmax taken over the gallery axis. Orientation controls the
    visual gate: 'consistent' uses g(v) = -(v - 1) so similar items (v near 1)
    strengthen the score, while 'inverted' keeps g(v) = v - 1 verbatim.
    All outputs lie in (-1, 0); smaller means more similar.
    """
    _check_orientation(orientation)
    if alpha <= 0.0 or beta <= 0.0:
        raise ConfigError(f"alpha and beta must be positive, got {alpha}, {beta}")
    o = np.atleast_1d(as_f64(st_scores))
    v = np.atleast_1d(as_f64(visual))
    if o.shape != v.shape or o.ndim != 1:
        raise ShapeError(f"score shapes differ: {o.shape} vs {v.shape}")
    if o.size == 0:
        raise InputError("empty gallery")
    if not (np.all(np.isfinite(o)) and np.all(np.isfinite(v))):
        raise InputError("scores must be finite")
    phi = softmax(-o / beta)
    spatial = 1.0 / (1.0 + alpha * np.exp(phi))
    gate = (v - 1.0) if orientation == "inverted" else -(v - 1.0)
    visual_term = 1.0 / (1.0 + np.exp(gate))
    return -spatial * visual_term


@dataclasses.dataclass(frozen=True)
class PatternBank:
    """Per-gallery-item transition patterns plus the target-time pattern."""

    rows: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        rows = as_f64(self.rows)
        target = as_f64(self.target)
        if rows.ndim != 2 or target.ndim != 1 or rows.shape[1] != target.shape[0]:
            raise ShapeError(
                f"bank rows {rows.shape} incompatible with target {target.shape}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "target", target)


def time_targeted_scores(scores, bank: PatternBank,
                         orientation: str = "consistent") -> np.ndarray:
    """Rescale joint similarities by pattern agreement with the target time.

    Each score is divided by 1 + exp(h(cos_k)) where cos_k is the cosine
    between the item's transition pattern and the target-time pattern;
    'consistent' uses h = -(cos - 1) (aligned items divide by 2, orthogonal
    ones by 1 + e), 'inverted' uses h = cos - 1 verbatim. Zero-norm rows
    get cosine 0 with a warning.
    """
    _check_orientation(orientation)
    s = np.atleast_1d(as_f64(scores))
    if s.shape[0] != bank.rows.shape[0]:
        raise ShapeError(
            f"{s.shape[0]} scores for {bank.rows.shape[0]} bank rows")
    row_norms = np.linalg.norm(bank.rows, axis=1)
    target_norm = float(np.linalg.norm(bank.target))
    zero = (row_norms == 0.0)
    if target_norm == 0.0:
        zero = np.ones_like(zero)
    if np.any(zero):
        warnings.warn("zero-norm transition pattern; using cosine 0", stacklevel=2)
    denom = np.where(zero, 1.0, row_norms * (target_norm if target_norm else 1.0))
    cos = np.where(zero, 0.0, bank.rows @ bank.target / denom)
    h = (cos - 1.0) if orientation == "inverted" else -(cos - 1.0)
    return s / (1.0 + np.exp(h))


# -- bandwidth allocation --------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BandwidthAllocation:
    """Integer per-camera upload budgets summing exactly to the total."""

    budgets: np.ndarray
    total: int
    shares: np.ndarray

    def __post_init__(self):
        budgets = np.asarray(self.budgets, dtype=np.int64)
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "shares", as_f64(self.shares))
        if budgets.sum() != self.total:
            raise InputError("budgets do not sum to the total bandwidth")


def largest_remainder(shares: np.ndarray, total: int) -> np.ndarray:
    """Round non-negative real shares (summing to total) to integers >= 1.

    Floors each share, hands the leftover units to the largest fractional
    remainders (ties to the lower index), then enforces the floor of one by
    moving units from the largest budgets."""
    shares = as_f64(shares)
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


def allocate_bandwidth(logits, gallery_sizes, total: int, gamma0: float = 0.01,
                       gamma1: float = 0.01) -> BandwidthAllocation:
    """Split the round budget across cameras from logits and gallery sizes.

    Real-valued shares follow softmax(logits / gamma0) * softmax(sizes) /
    gamma1, renormalised to sum to the total; gamma1 cancels in the
    normalisation but is kept for configurability. Integerisation is largest-
    remainder with a floor of one slot per camera.
    """
    y = np.atleast_1d(as_f64(logits))
    sizes = np.atleast_1d(as_f64(gallery_sizes))
    if y.shape != sizes.shape or y.ndim != 1:
        raise ShapeError(f"logits {y.shape} and sizes {sizes.shape} differ")
    if y.size < 2:
        raise InputError("need at least two cameras to allocate")
    if gamma0 <= 0.0 or gamma1 <= 0.0:
        raise ConfigError(f"gamma0 and gamma1 must be positive, got "
                          f"{gamma0}, {gamma1}")
    if np.any(sizes < 0):
        raise InputError("gallery sizes must be non-negative")
    if total < y.size:
        raise ConfigError(
            f"total bandwidth {total} cannot give {y.size} cameras one slot each")
    if not np.all(np.isfinite(y)):
        raise InputError("logits must be finite")
    z = softmax(y / gamma0) * softmax(sizes) / gamma1
    shares = z / z.sum() * total
    budgets = largest_remainder(shares, total)
    return BandwidthAllocation(budgets=budgets, total=total, shares=shares)


def uniform_allocation(num_cameras: int, total: int) -> BandwidthAllocation:
    """Equal shares rounded by largest remainder (floor of one slot)."""
    if num_cameras < 1:
        raise InputError("need at least one camera")
    shares = np.full(num_cameras, total / num_cameras)
    budgets = largest_remainder(shares, total)
    return BandwidthAllocation(budgets=budgets, total=total, shares=shares)
