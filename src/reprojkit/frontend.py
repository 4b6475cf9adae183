"""Handcrafted detector/descriptor frontend.

Deterministic classical components keep every downstream benchmark
number reproducible: a min-eigenvalue corner scorer, a gradient
orientation-histogram patch descriptor, and mutual-nearest-neighbor
matching with an optional ratio test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .adaptation import nms
from .errors import ImageTooSmallError, InvalidSpecError, ShapeError
from .geometry import _row_bands

PATCH = 16          # descriptor support side in pixels
SPATIAL_BINS = 4    # descriptor spatial grid per side
ORIENT_BINS = 8     # orientation histogram bins per spatial cell
_BORDER = PATCH // 2
_BLOCK = 128        # keypoints described, or descriptor rows matched, together


def to_gray(image: np.ndarray) -> np.ndarray:
    """Float grayscale in [0, 1] from RGB or single-channel input."""
    image = np.asarray(image)
    if image.ndim == 3 and image.shape[2] == 3:
        # (r + g) + b, then / 3: the channel mean's own summation order,
        # without its slow reduction over a length-3 axis
        gray = np.add(image[..., 0], image[..., 1], dtype=np.float64)
        gray += image[..., 2]
        gray /= 3.0
    elif image.ndim == 2:
        gray = image.astype(np.float64)
    else:
        raise ShapeError(f"expected HxW or HxWx3 image, got {image.shape}")
    if image.dtype == np.uint8:
        gray /= 255.0
    return gray


def _correlate3(a: np.ndarray, axis: int, center: float, side: float,
                odd: bool = False) -> np.ndarray:
    """Correlate 2-D float ``a`` along ``axis`` with the taps
    ``(side, center, side)``, or ``(-side, center, side)`` when ``odd``.

    Edges reflect about the half sample (``d c b a | a b c d``). Each
    output is ``c * center + (l + r) * side``, or ``c * center + (l - r)
    * -side``, with ``l``, ``c``, ``r`` the left, center and right input:
    the arithmetic of ``scipy.ndimage.correlate1d`` for symmetric and
    antisymmetric kernels, so the result is the same to the bit, signed
    zeros included. ``sobel`` is the odd ``(0, 1)`` pass along its axis,
    then ``(2, 1)`` along the other.
    """
    a = np.swapaxes(a, 0, axis)
    pair = np.empty_like(a)  # l + r, or l - r when odd
    combine = np.subtract if odd else np.add
    combine(a[:-2], a[2:], out=pair[1:-1])
    combine(a[0], a[1], out=pair[0])
    combine(a[-2], a[-1], out=pair[-1])
    pair *= -side if odd else side
    pair += a * center
    return np.swapaxes(pair, 0, axis)


def detect(image: np.ndarray) -> np.ndarray:
    """Corner heatmap in [0, 1]: min eigenvalue of the structure tensor.

    Sobel gradients, 3x3 binomial smoothing of the tensor entries, then
    the closed-form smaller eigenvalue, normalized by the image maximum.
    """
    gray = to_gray(image)
    if gray.shape[0] < 7 or gray.shape[1] < 7:
        raise ImageTooSmallError(f"image {gray.shape} too small for detection (needs 7x7)")
    gx = _correlate3(_correlate3(gray, 1, 0.0, 1.0, odd=True), 0, 2.0, 1.0)
    gy = _correlate3(_correlate3(gray, 0, 0.0, 1.0, odd=True), 1, 2.0, 1.0)

    def smooth(a):
        return _correlate3(_correlate3(a, 0, 0.5, 0.25), 1, 0.5, 0.25)

    jxx, jyy, jxy = smooth(gx * gx), smooth(gy * gy), smooth(gx * gy)
    half_trace = (jxx + jyy) / 2.0
    root = np.sqrt(((jxx - jyy) / 2.0) ** 2 + jxy * jxy)
    lam = np.maximum(half_trace - root, 0.0)
    peak = lam.max()
    return lam / peak if peak > 0 else lam


def top_k(heatmap: np.ndarray, k: int, nms_radius: int = 4,
          threshold: float = 0.0) -> np.ndarray:
    """Non-maximum suppression truncated to the k strongest: (N, 2) float
    (x, y) points, strongest first."""
    if k < 1:
        raise InvalidSpecError(f"k must be >= 1, got {k}")
    return nms(heatmap, nms_radius, threshold)[:k].astype(np.float64)


def describe(image: np.ndarray, xy: np.ndarray, dim: int = 128):
    """Orientation-histogram descriptors for keypoints.

    A 16x16 patch around each (rounded) keypoint is divided into a 4x4
    spatial grid; per cell, gradient magnitudes accumulate into 8
    orientation bins. The 128 raw values are resampled to ``dim``,
    mean-centered, L2-normalized, clipped at magnitude 0.2, and
    renormalized. Mean-centering removes the component shared by all
    gradient histograms, so unrelated patches score near zero.

    Keypoints are described in blocks of ``_BLOCK``: their patches are
    cut from one sliding-window view, and each block makes one gradient,
    one histogram accumulation and one normalization pass, so temporaries
    stay a few MB whatever the keypoint count. Each descriptor is the one
    a keypoint described alone gets, to the bit.

    Keypoints closer than 8 px to the border are dropped; returns
    ``(descriptors, kept)`` with ``kept`` indexing into ``xy``.
    """
    if dim < 2:
        raise InvalidSpecError(f"descriptor dim must be >= 2, got {dim}")
    gray = to_gray(image)
    h, w = gray.shape
    xy = np.asarray(xy, dtype=np.float64)
    xy = xy.reshape(0, 2) if xy.size == 0 else np.atleast_2d(xy)
    xi = np.rint(xy[:, 0]).astype(int)
    yi = np.rint(xy[:, 1]).astype(int)
    kept = np.flatnonzero((xi >= _BORDER - 1) & (xi <= w - _BORDER - 1)
                          & (yi >= _BORDER - 1) & (yi <= h - _BORDER - 1))
    out = np.zeros((len(kept), dim))
    if len(kept) == 0:  # also every image smaller than one patch
        return out, kept
    raw_len = SPATIAL_BINS * SPATIAL_BINS * ORIENT_BINS
    cell_px = PATCH // SPATIAL_BINS
    rr, cc = np.meshgrid(np.arange(PATCH), np.arange(PATCH), indexing="ij")
    sbin = ((rr // cell_px) * SPATIAL_BINS + (cc // cell_px)) * ORIENT_BINS
    windows = sliding_window_view(gray, (PATCH, PATCH))
    for start in range(0, len(kept), _BLOCK):
        rows = kept[start:start + _BLOCK]
        patches = windows[yi[rows] - _BORDER + 1, xi[rows] - _BORDER + 1]
        py, px = np.gradient(patches, axis=(1, 2))
        mag = np.hypot(px, py)
        ang = np.arctan2(py, px)
        obin = np.floor((ang + np.pi) / (2.0 * np.pi) * ORIENT_BINS).astype(int) % ORIENT_BINS
        bins = np.arange(len(rows))[:, None, None] * raw_len + sbin + obin
        hist = np.zeros((len(rows), raw_len))
        np.add.at(hist.reshape(-1), bins.ravel(), mag.ravel())
        if dim != raw_len:
            hist = _resample(hist, dim)
        hist -= hist.mean(axis=1, keepdims=True)
        out[start:start + len(rows)] = _normalize_clipped(hist)
    return out, kept


def features(image: np.ndarray, xy: np.ndarray | None = None, *, k: int | None = None,
             nms_radius: int = 4, threshold: float = 0.0, dim: int = 128):
    """Described keypoints of one frame: ``(xy, descriptors)``.

    Without ``xy`` the keypoints are detected: ``detect``, then ``top_k``
    with ``k``, ``nms_radius`` and ``threshold``. Given (N, 2) ``xy``,
    those points are described instead. Only the keypoints ``describe``
    keeps are returned, so row i of both arrays is one keypoint.
    """
    if xy is None:
        if k is None:
            raise InvalidSpecError("k is required when keypoints are detected")
        xy = top_k(detect(image), k, nms_radius=nms_radius, threshold=threshold)
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    desc, kept = describe(image, xy, dim=dim)
    return xy[kept], desc


def _resample(hist: np.ndarray, dim: int) -> np.ndarray:
    """``np.interp`` of every row onto ``dim`` evenly spaced positions.

    Same arithmetic as ``np.interp`` on finite rows with unit knot
    spacing: a query on a knot takes the knot's value, any other
    ``(hi - lo) * frac + lo``. Rows come back C-contiguous, because a row
    mean over strided rows rounds differently.
    """
    knots = hist.shape[1]
    x = np.linspace(0.0, knots - 1.0, dim)
    j = np.floor(x).astype(int)
    lo, hi = hist[:, j], hist[:, np.minimum(j + 1, knots - 1)]
    return np.ascontiguousarray(np.where(x == j, lo, (hi - lo) * (x - j) + lo))


def _normalize_clipped(rows: np.ndarray) -> np.ndarray:
    """Rows L2-normalized, clipped at magnitude 0.2 and renormalized; a row
    of norm below 1e-12 becomes the first unit vector.

    Row norms come from one dot product per row, as ``np.linalg.norm`` of
    a single vector computes them (a reduction over axis 1 rounds
    differently).
    """
    def norms(a):
        return np.sqrt(a[:, None, :] @ a[:, :, None])[:, :, 0]

    norm = norms(rows)
    flat = norm[:, 0] < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        vec = np.clip(rows / norm, -0.2, 0.2)
        vec /= norms(vec)
    vec[flat] = 0.0
    vec[flat, 0] = 1.0
    return vec


@dataclass(frozen=True)
class MatchSet:
    """Mutually-nearest descriptor matches between two keypoint sets."""

    indices1: np.ndarray  # (M,) into the first set
    indices2: np.ndarray  # (M,) into the second set
    similarity: np.ndarray  # (M,) descriptor inner products

    def __len__(self) -> int:
        return len(self.indices1)


def _ratio_ok(best: np.ndarray, second: np.ndarray, ratio: float) -> np.ndarray:
    """The Lowe-style test nearest/second-nearest distance < ``ratio`` from
    the largest and second largest similarities.

    The unit-descriptor distance ``sqrt(max(2 - 2s, 0))`` never increases
    with the similarity ``s``, so the two smallest distances are the
    distances of the two largest similarities: only those two are mapped.
    """
    best_d, second_d = np.sqrt(np.maximum(2.0 - 2.0 * np.stack([best, second]), 0.0))
    # a zero second-best distance means duplicates; ratio 1 fails the test
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(second_d > 0, best_d / second_d, 1.0) < ratio


def match_mnn(desc1: np.ndarray, desc2: np.ndarray, ratio: float | None = None) -> MatchSet:
    """Mutual nearest neighbors by inner product, optional symmetric ratio test.

    One pass over bands of ``_BLOCK`` rows of ``desc1`` (a one-row tail
    joins the band before it): each band's product with ``desc2`` gives
    its rows' argmax, best and second best similarity, and updates every
    column's running best, argmax and second best. A later band takes a
    column only with a strictly greater similarity, so the first index
    wins ties, as ``argmax`` does. A second best is the largest similarity
    outside the argmax cell, so an equal maximum elsewhere counts. No
    array is ``len(desc1) x len(desc2)``. A match's similarity is its
    row's best. At some shapes a band product differs from the same rows
    of the whole ``desc1 @ desc2.T`` in the last bit (BLAS picks kernels
    by shape). Descriptors must be finite.
    """
    if ratio is not None and not 0.0 < ratio <= 1.0:
        raise InvalidSpecError(f"ratio must be in (0, 1], got {ratio}")
    desc1 = np.atleast_2d(np.asarray(desc1, dtype=np.float64))
    desc2 = np.atleast_2d(np.asarray(desc2, dtype=np.float64))
    if desc1.shape[1] != desc2.shape[1]:
        raise ShapeError("descriptor dimensions differ")
    if not (np.isfinite(desc1).all() and np.isfinite(desc2).all()):
        raise InvalidSpecError("descriptors must be finite")
    n, m = len(desc1), len(desc2)
    if n == 0 or m == 0:
        z = np.zeros(0, dtype=int)
        return MatchSet(z, z, np.zeros(0))
    row_ratio = ratio is not None and m > 1
    col_ratio = ratio is not None and n > 1
    nn12 = np.empty(n, dtype=np.intp)
    best12 = np.empty(n)
    ok12 = np.ones(n, dtype=bool)
    nn21 = np.zeros(m, dtype=np.intp)
    best21 = np.full(m, -np.inf)
    second21 = np.full(m, -np.inf)
    cols = np.arange(m)
    for lo, hi in _row_bands(n, _BLOCK):
        sims = desc1[lo:hi] @ desc2.T
        arg = sims.argmax(axis=0)
        best = sims[arg, cols]
        take = best > best21
        if col_ratio:
            sims[arg, cols] = -np.inf
            second = sims.max(axis=0)
            sims[arg, cols] = best
            second21 = np.where(take, np.maximum(best21, second),
                                np.maximum(second21, best))
        nn21[take] = arg[take] + lo
        best21[take] = best[take]
        nn12[lo:hi] = sims.argmax(axis=1)
        top = np.arange(hi - lo), nn12[lo:hi]
        best12[lo:hi] = sims[top]
        if row_ratio:
            sims[top] = -np.inf
            ok12[lo:hi] = _ratio_ok(best12[lo:hi], sims.max(axis=1), ratio)
    ok21 = _ratio_ok(best21, second21, ratio) if col_ratio else np.ones(m, dtype=bool)
    idx1 = np.flatnonzero(nn21[nn12] == np.arange(n))
    idx2 = nn12[idx1]
    keep = ok12[idx1] & ok21[idx2]
    idx1, idx2 = idx1[keep], idx2[keep]
    return MatchSet(idx1, idx2, best12[idx1])
