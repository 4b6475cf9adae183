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


@dataclass(frozen=True)
class KeypointSet:
    """Detected points with scores, strongest first."""

    xy: np.ndarray     # (N, 2) float
    score: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.xy)


def top_k(heatmap: np.ndarray, k: int, nms_radius: int = 4,
          threshold: float = 0.0) -> KeypointSet:
    """Non-maximum suppression followed by truncation to the k strongest."""
    if k < 1:
        raise InvalidSpecError(f"k must be >= 1, got {k}")
    pts = nms(heatmap, nms_radius, threshold)[:k]
    scores = np.asarray(heatmap, dtype=np.float64)[pts[:, 1], pts[:, 0]] if len(pts) else \
        np.zeros(0)
    return KeypointSet(pts.astype(np.float64), scores)


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
        xy = top_k(detect(image), k, nms_radius=nms_radius, threshold=threshold).xy
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


def _nearest(sims: np.ndarray, ratio: float | None):
    """Per row: the column of the largest similarity and, with ``ratio``,
    whether the Lowe-style test nearest/second-nearest distance < ratio
    passes (all True without one).

    Rows are copied ``_BLOCK`` at a time, so a transposed ``sims`` costs
    no full-size copy. The unit-descriptor distance ``sqrt(max(2 - 2s, 0))``
    never increases with the similarity ``s``, so a row's two smallest
    distances are the distances of its two largest similarities: only
    those two are mapped. The second largest is the row maximum once the
    argmax cell is set to -inf, so an equal maximum elsewhere is found.
    """
    n, m = sims.shape
    nearest = np.empty(n, dtype=np.intp)
    ok = np.ones(n, dtype=bool)
    for start in range(0, n, _BLOCK):
        block = np.array(sims[start:start + _BLOCK], order="C")
        rows = slice(start, start + len(block))
        best_col = block.argmax(axis=1)
        nearest[rows] = best_col
        if ratio is None or m < 2:
            continue
        top = np.arange(len(block)), best_col
        best_sim = block[top]
        block[top] = -np.inf
        sim = np.stack([block.max(axis=1), best_sim])
        second, best = np.sqrt(np.maximum(2.0 - 2.0 * sim, 0.0))
        # a zero second-best distance means duplicates; ratio 1 fails the test
        with np.errstate(divide="ignore", invalid="ignore"):
            ok[rows] = np.where(second > 0, best / second, 1.0) < ratio
    return nearest, ok


def match_mnn(desc1: np.ndarray, desc2: np.ndarray, ratio: float | None = None) -> MatchSet:
    """Mutual nearest neighbors by inner product, optional symmetric ratio test.

    Only the similarity matrix is full size: each direction's argmax and
    ratio test work on copies of ``_BLOCK`` rows or columns. Descriptors
    must be finite.
    """
    desc1 = np.atleast_2d(np.asarray(desc1, dtype=np.float64))
    desc2 = np.atleast_2d(np.asarray(desc2, dtype=np.float64))
    if desc1.shape[1] != desc2.shape[1]:
        raise ShapeError("descriptor dimensions differ")
    if not (np.isfinite(desc1).all() and np.isfinite(desc2).all()):
        raise InvalidSpecError("descriptors must be finite")
    if len(desc1) == 0 or len(desc2) == 0:
        z = np.zeros(0, dtype=int)
        return MatchSet(z, z, np.zeros(0))
    if ratio is not None and not 0.0 < ratio <= 1.0:
        raise InvalidSpecError(f"ratio must be in (0, 1], got {ratio}")
    sims = desc1 @ desc2.T
    nn12, ok12 = _nearest(sims, ratio)
    nn21, ok21 = _nearest(sims.T, ratio)
    idx1 = np.flatnonzero(nn21[nn12] == np.arange(len(desc1)))
    idx2 = nn12[idx1]
    keep = ok12[idx1] & ok21[idx2]
    idx1, idx2 = idx1[keep], idx2[keep]
    return MatchSet(idx1, idx2, sims[idx1, idx2])
