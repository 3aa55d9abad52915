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
import math
import sys
import warnings
import numpy as np

from .errors import ConfigError, DataError, InputError, ShapeError
from .nn import as_f64, softmax
from .scene import Scene, cross_camera_pairs
from .settings import positive

ORIENTATION_MODES = ("consistent", "inverted")
# fit_frequency's bounds. sigma_bins: a kernel of 8 * MAX_SIGMA_BINS + 1
# taps, which widens every camera pair's bins as much; wider smoothing is a
# wider bin_width away. floor: a pseudo-count added to every bin, at most one
# co-observed pair's count; above it the floor drowns the observations, and
# near float's range it overflows the per-camera totals. joint_similarity's
# alpha: up to MAX_ALPHA, alpha * exp(softmax) in [1, e] stays finite.
MAX_SIGMA_BINS, MAX_FLOOR, MAX_ALPHA = 256.0, 1.0, 1e300


def valid_gamma1(gamma1) -> bool:
    """Whether gamma1 is a normal positive float below inf (NaN fails): the
    range softmax(y / gamma0) * softmax(sizes) / gamma1 can divide by. gamma1
    cancels in the normalised shares, so no computation reads it."""
    return sys.float_info.min <= gamma1 < math.inf


def valid_alpha(alpha) -> bool:  # in (0, MAX_ALPHA]; NaN fails
    return 0.0 < alpha <= MAX_ALPHA


def valid_mu(mu) -> bool:  # a convex weight; NaN fails
    return 0.0 <= mu <= 1.0


def valid_sigma_bins(sigma_bins) -> bool:  # in [0, MAX_SIGMA_BINS]; NaN fails
    return 0.0 <= sigma_bins <= MAX_SIGMA_BINS


def valid_floor(floor) -> bool:  # in (0, MAX_FLOOR]; NaN fails
    return 0.0 < floor <= MAX_FLOOR


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
        self._pair_min = table.min(axis=2)

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

    def prob(self, source, dest, delta_t) -> np.ndarray:
        """p(dest, bin(delta_t) | source), with sources, destinations and
        delays broadcast together; out-of-range delays get the smallest
        stored probability for that camera pair."""
        source, dest, bins = np.broadcast_arrays(*self._cameras(source, dest),
                                                 self._bins(delta_t))
        inside = (bins >= 0) & (bins < self.num_bins)
        stored = self.table[source, dest, np.clip(bins, 0, self.num_bins - 1)]
        return np.where(inside, stored, self._pair_min[source, dest])

    def bounded_score(self, source, dest, delta_t) -> np.ndarray:
        """prob rescaled to [0, 1] by the (source, dest) maximum; zero when
        the pair has no observed co-occurrences."""
        source, dest = self._cameras(source, dest)
        prob = self.prob(source, dest, delta_t)
        # divided only where seen: an unseen pair's maximum is the floor's
        # share, which underflows to 0 for a subnormal floor
        return np.divide(prob, self._pair_max[source, dest], out=np.zeros_like(prob),
                         where=self.observed[source, dest])

    def _cameras(self, source, dest) -> tuple[np.ndarray, np.ndarray]:
        source = np.asarray(source, dtype=np.int64)
        dest = np.asarray(dest, dtype=np.int64)
        c = self.num_cameras
        if np.any((source < 0) | (source >= c)) or np.any((dest < 0) | (dest >= c)):
            raise InputError(f"cameras outside [0, {c})")
        return source, dest


def _gaussian_kernel(sigma_bins: float) -> np.ndarray:
    if sigma_bins <= 0.0:
        return np.array([1.0])
    radius = max(1, int(np.ceil(4.0 * sigma_bins)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    # below sigma_bins ~ 1e-154 the square overflows to inf off the centre,
    # where exp(-inf) = 0 is exact: the kernel is one-hot
    with np.errstate(over="ignore"):
        kernel = np.exp(-0.5 * np.square(xs / sigma_bins))
    return kernel / kernel.sum()


def fit_frequency(scene: Scene, bin_width: int = 100, sigma_bins: float = 2.0,
                  floor: float = 1e-6) -> FrequencyModel:
    """Count signed delays of all ordered same-identity cross-camera train
    pairs, smooth, floor, and normalise per source camera."""
    if bin_width < 1:
        raise ConfigError(f"bin_width must be >= 1, got {bin_width}")
    if not valid_sigma_bins(sigma_bins):
        raise ConfigError(f"sigma_bins must be finite, in [0, {MAX_SIGMA_BINS:g}], "
                          f"got {sigma_bins}")
    if not valid_floor(floor):
        raise ConfigError(f"floor must be positive and finite, at most "
                          f"{MAX_FLOOR:g}, got {floor}")
    split = scene.train_observations()
    cams, ts = split.cameras, split.timestamps
    first, second = cross_camera_pairs(split.identities, cams)
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


def frequency_scores(freq: FrequencyModel, source_camera, t_query,
                     dest_cameras, t_gallery) -> np.ndarray:
    """Bounded [0, 1] frequency evidence for each gallery item.

    The source camera and query time broadcast against the items, so [R, 1]
    columns against [R, n] items score one query per row.
    """
    dest = np.atleast_1d(np.asarray(dest_cameras, dtype=np.int64))
    ts = np.atleast_1d(as_f64(t_gallery))
    if dest.shape != ts.shape:
        raise ShapeError(f"cameras {dest.shape} and timestamps {ts.shape} differ")
    return freq.bounded_score(source_camera, dest, ts - as_f64(t_query))


def fuse_scores(model_part: np.ndarray, freq_part: np.ndarray,
                mu: float = 0.5) -> np.ndarray:
    """Convex blend (1 - mu) * model + mu * frequency."""
    if not valid_mu(mu):
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
    with the softmax taken over the gallery axis: the last one, so [R, n]
    scores give one gallery per row, each row the bits of its own 1-D call.
    Orientation controls the visual gate: 'consistent' uses g(v) = -(v - 1)
    so similar items (v near 1) strengthen the score, while 'inverted' keeps
    g(v) = v - 1 verbatim. All outputs lie in (-1, 0); smaller means more
    similar.
    """
    _check_orientation(orientation)
    if not (valid_alpha(alpha) and positive(beta)):
        raise ConfigError(f"alpha must be in (0, {MAX_ALPHA:g}] and beta positive, "
                          f"got {alpha}, {beta}")
    o = np.atleast_1d(as_f64(st_scores))
    v = np.atleast_1d(as_f64(visual))
    if o.shape != v.shape or o.ndim > 2:
        raise ShapeError(f"score shapes differ: {o.shape} vs {v.shape}")
    if o.shape[-1] == 0:
        raise InputError("empty gallery")
    if not (np.all(np.isfinite(o)) and np.all(np.isfinite(v))):
        raise InputError("scores must be finite")
    # Two arrays of o's shape, each step in place, in the formula's order.
    # The spatial one is C-ordered: a row's sum in the softmax depends on the
    # memory layout, and fancy indexing can hand over F-ordered rows.
    # 1 / (1 + alpha e^phi). The softmax is taken of (min(o) - o) / beta,
    # which is at most 0 and 0 at the minimum, so a tiny beta sends it to
    # -inf, a zero weight, never to +inf and NaN
    s = np.subtract(o.min(axis=-1, keepdims=True), o, out=np.empty(o.shape))
    with np.errstate(over="ignore"):
        s /= beta
    softmax(s, out=s)
    np.exp(s, out=s)
    s *= alpha
    s += 1.0
    np.divide(1.0, s, out=s)
    gate = np.subtract(v, 1.0, out=np.empty(v.shape))  # 1 / (1 + e^g(v))
    if orientation != "inverted":
        np.negative(gate, out=gate)
    np.exp(gate, out=gate)
    gate += 1.0
    np.divide(1.0, gate, out=gate)
    np.negative(s, out=s)
    s *= gate
    return s


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


def largest_remainder_rows(shares: np.ndarray, total: int) -> np.ndarray:
    """Round each row of real shares [R, C] (summing to total) to integers
    >= 1.

    Floors each share, hands a row's leftover units to its largest
    fractional remainders (ties to the lower column), or takes a surplus
    back one unit per positive budget from the smallest remainders; one
    stable argsort along the rows orders each by remainder, then column.
    Then each empty camera takes one unit from the largest budget (ties to
    the lower column), computed for all rows at once.
    """
    shares = as_f64(shares)
    if shares.ndim != 2:
        raise ShapeError(f"shares must be [rows, cameras], got {shares.shape}")
    rows, n = shares.shape
    if total < n:
        raise ConfigError(f"total bandwidth {total} cannot cover {n} cameras")
    base = np.floor(shares).astype(np.int64)
    leftover = total - base.sum(axis=1)
    row_ids = np.arange(rows)[:, None]
    columns = np.arange(n)
    if leftover.any():
        short = (leftover > 0)[:, None]
        key = np.where(short, base - shares, shares - base)
        order = np.argsort(key, axis=1, kind="stable")
        positive = base[row_ids, order] > 0
        give = short & (columns < leftover[:, None])
        take = ~short & positive & (np.cumsum(positive, axis=1) <= -leftover[:, None])
        base[row_ids, order] += give.astype(np.int64) - take
    empty = base == 0
    if empty.any():
        # Taking units one at a time from the largest budget removes them in
        # order of level, then column: every unit above some level T, then
        # one unit at T from each of the `rest` lowest columns holding T.
        # Only units above one can be given away.
        wanted = empty.sum(axis=1)
        if np.any(np.maximum(base - 1, 0).sum(axis=1) < wanted):
            raise ConfigError("cannot give every camera at least one slot")
        top = -np.sort(-base, axis=1)
        prefix = np.cumsum(top, axis=1)
        # the m largest budgets give units; T = ceil((their sum - wanted) / m)
        m = ((prefix - top * (columns + 1)) <= wanted[:, None]).sum(axis=1)
        level = -((wanted - prefix[np.arange(rows), m - 1]) // m)
        cut = np.minimum(base, level[:, None])
        at_level = base >= level[:, None]
        rest = wanted - (base - cut).sum(axis=1)
        base = cut - (at_level & (np.cumsum(at_level, axis=1) <= rest[:, None])) + empty
    return base


def largest_remainder(shares: np.ndarray, total: int) -> np.ndarray:
    """largest_remainder_rows of one row of shares."""
    return largest_remainder_rows(as_f64(shares).reshape(1, -1), total)[0]


def allocate_bandwidth_rows(logits, gallery_sizes, total: int,
                            gamma0: float = 0.01, gamma1: float = 0.01):
    """allocate_bandwidth for each row of logits and gallery sizes [R, C]:
    returns (budgets, shares), both [R, C]."""
    y = as_f64(logits)
    sizes = as_f64(gallery_sizes)
    if y.shape != sizes.shape or y.ndim != 2:
        raise ShapeError(f"logits {y.shape} and sizes {sizes.shape} differ")
    if y.shape[1] < 2:
        raise InputError("need at least two cameras to allocate")
    if not positive(gamma0):
        raise ConfigError(f"gamma0 must be positive, got {gamma0}")
    if not valid_gamma1(gamma1):
        raise ConfigError(f"gamma1 must be a normal positive float below inf, "
                          f"got {gamma1}")
    if np.any(sizes < 0):
        raise InputError("gallery sizes must be non-negative")
    if total < y.shape[1]:
        raise ConfigError(f"total bandwidth {total} cannot give {y.shape[1]} "
                          f"cameras one slot each")
    if not np.all(np.isfinite(y)):
        raise InputError("logits must be finite")
    # y less its row maximum is at most 0, and 0 at the top camera: a tiny
    # gamma0 sends the others to -inf, zero shares, never +inf and NaN ones
    with np.errstate(over="ignore"):
        scaled = (y - y.max(axis=1, keepdims=True)) / gamma0
    shares = softmax(scaled + sizes, axis=1) * total
    return largest_remainder_rows(shares, total), shares


def allocate_bandwidth(logits, gallery_sizes, total: int, gamma0: float = 0.01,
                       gamma1: float = 0.01) -> BandwidthAllocation:
    """Split the round budget across cameras from logits and gallery sizes.

    Real-valued shares are softmax((logits - max logit) / gamma0 + sizes) *
    total: softmax(logits / gamma0) * softmax(sizes) / gamma1 renormalised to
    the total, as one softmax that cannot underflow to 0 / 0. gamma1 cancels;
    it stays a validated argument because the benchmark's replay passes it.
    Integerisation is largest-remainder with a floor of one slot per camera.
    This is allocate_bandwidth_rows of one row.
    """
    budgets, shares = allocate_bandwidth_rows(
        np.atleast_1d(as_f64(logits))[None], np.atleast_1d(as_f64(gallery_sizes))[None],
        total, gamma0, gamma1)
    return BandwidthAllocation(budgets=budgets[0], total=total, shares=shares[0])


def uniform_allocation(num_cameras: int, total: int) -> BandwidthAllocation:
    """Equal shares rounded by largest remainder (floor of one slot)."""
    if num_cameras < 1:
        raise InputError("need at least one camera")
    shares = np.full(num_cameras, total / num_cameras)
    budgets = largest_remainder(shares, total)
    return BandwidthAllocation(budgets=budgets, total=total, shares=shares)
