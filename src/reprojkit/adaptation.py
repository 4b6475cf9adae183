"""Pseudo-ground-truth interest points from windows of consecutive frames.

A detector heatmap is computed on a reference frame and on a random
subset of the following frames; detections from those frames are
reprojected into the reference view, where small heatmap patches are
stamped at the landing pixels. Aggregating the stamped masks with the
reference heatmap and re-running non-maximum suppression yields the
label set.

Each frame's view, heatmap, NMS points and robust depth map are kept in a
per-frame cache (``FrameEntry`` by frame index) that the caller owns.
``generate_pseudo_labels`` slides one cache along the sequence: before
labelling reference frame ``ref`` it evicts every index below ``ref``, so
it holds at most ``window_len`` frames and computes each frame's work
once, however many windows the frame falls in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, ShapeError
from .geometry import (
    DepthMap,
    RenderedView,
    ReprojectionParams,
    _window_extreme,
    reproject_points,
    robust_depth_map,
)

AGGREGATE_MODES = ("max", "mean", "sum")


def nms(heatmap: np.ndarray, radius: int, threshold: float) -> np.ndarray:
    """Greedy non-maximum suppression; returns (N, 2) integer (x, y) points.

    Candidates at or above ``threshold`` are visited in descending score
    order (ties broken row-major); each kept point suppresses its
    (2*radius+1)^2 neighborhood. Output keeps the visit order, so scores
    are descending.

    Most of the greedy pass is decided by two window filters. A candidate
    that comes first in its own window has no earlier candidate that could
    suppress it, so it is kept; every other candidate in that window comes
    later, so it is suppressed. Only the candidates neither rule decides
    are visited one at a time, and the result is the full greedy pass's.
    """
    heatmap = np.asarray(heatmap, dtype=np.float64)
    if heatmap.ndim != 2:
        raise ShapeError(f"heatmap must be 2D, got shape {heatmap.shape}")
    if radius < 1:
        raise InvalidSpecError(f"nms radius must be >= 1, got {radius}")
    ys, xs = np.nonzero(heatmap >= threshold)
    if len(ys) == 0:
        return np.zeros((0, 2), dtype=int)
    # nonzero lists candidates row-major, so a stable sort on the score
    # alone breaks ties row-major: ys[i], xs[i] is the i-th visited
    order = np.argsort(-heatmap[ys, xs], kind="stable")
    ys, xs = ys[order], xs[order]
    n, size = len(ys), 2 * radius + 1
    # visit rank per pixel, n where there is no candidate; int32 halves the
    # filter's memory traffic wherever the ranks fit
    rank = np.full(heatmap.shape, n, dtype=np.int32 if n < 2**31 else np.intp)
    rank[ys, xs] = np.arange(n)
    kept = _window_extreme(rank, size, np.minimum)[ys, xs] == rank[ys, xs]
    covered = np.zeros(heatmap.shape, dtype=bool)
    covered[ys[kept], xs[kept]] = True
    covered = _window_extreme(covered, size, np.maximum)
    rest = np.flatnonzero(~covered[ys, xs])
    suppressed = np.zeros(heatmap.shape, dtype=bool)
    for i, y, x in zip(rest.tolist(), ys[rest].tolist(), xs[rest].tolist()):
        if suppressed[y, x]:
            continue
        kept[i] = True
        suppressed[max(0, y - radius):y + radius + 1,
                   max(0, x - radius):x + radius + 1] = True
    return np.column_stack([xs[kept], ys[kept]])


@dataclass(frozen=True)
class AdaptationParams:
    """Window shape and detection settings for pseudo-label generation."""

    window_len: int = 20
    n_sampled: int = 14
    nms_radius: int = 4
    patch: int = 3
    threshold: float = 0.015
    aggregate: str = "max"
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.n_sampled < self.window_len:
            raise InvalidSpecError(
                f"need 0 <= n_sampled < window_len, got {self.n_sampled}/{self.window_len}")
        if self.patch < 1 or self.patch % 2 == 0:
            raise InvalidSpecError(f"patch side must be odd and >= 1, got {self.patch}")
        if self.nms_radius < 1:
            raise InvalidSpecError(f"nms radius must be >= 1, got {self.nms_radius}")
        if not 0.0 <= self.threshold <= 1.0:
            raise InvalidSpecError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.aggregate not in AGGREGATE_MODES:
            raise InvalidSpecError(f"aggregate must be one of {AGGREGATE_MODES}")


@dataclass(frozen=True)
class PseudoLabels:
    """Integer pixel labels for one reference frame."""

    points: np.ndarray  # (N, 2) int (x, y)
    frame_index: int


@dataclass(frozen=True)
class FrameEntry:
    """One frame's share of pseudo-labelling, computed once per frame."""

    view: RenderedView
    heat: np.ndarray  # detector heatmap, float64, (H, W)
    points: np.ndarray  # nms(heat) as (N, 2) int (x, y)
    robust: DepthMap  # robust_depth_map(view.depth)


def _cached_entry(cache: dict, views, i: int, detector, params: AdaptationParams,
                  reproj: ReprojectionParams) -> FrameEntry:
    """``cache[i]``, built from ``views[i]`` on first use.

    Every frame's heatmap is checked against its image size here, so a
    misbehaving detector fails on whichever frame it first misbehaves.
    """
    entry = cache.get(i)
    if entry is None:
        view = views[i]
        heat = np.asarray(detector(view.image), dtype=np.float64)
        if heat.shape != (view.cam.height, view.cam.width):
            raise ShapeError(
                f"frame {i}: detector heatmap shape {heat.shape} does not match "
                f"the {view.cam.height}x{view.cam.width} image")
        entry = cache[i] = FrameEntry(view, heat,
                                      nms(heat, params.nms_radius, params.threshold),
                                      robust_depth_map(view.depth, reproj))
    return entry


def _stamp_patches(mask: np.ndarray, src: np.ndarray, src_xy: np.ndarray,
                   dst_xy: np.ndarray, radius: int) -> None:
    """Copy the (2r+1)^2 neighborhood of each ``src_xy`` pixel in src onto
    mask at the matching ``dst_xy`` pixel; both are (N, 2) int (x, y).

    Both neighborhoods are clipped at their image borders; overlapping
    stamps combine by per-pixel maximum so stamp order cannot matter.
    """
    oy, ox = np.indices((2 * radius + 1,) * 2).reshape(2, -1) - radius
    # one row per point, one column per offset
    sy, sx = src_xy[:, 1:] + oy, src_xy[:, :1] + ox
    dy, dx = dst_xy[:, 1:] + oy, dst_xy[:, :1] + ox
    keep = ((sy >= 0) & (sy < src.shape[0]) & (sx >= 0) & (sx < src.shape[1])
            & (dy >= 0) & (dy < mask.shape[0]) & (dx >= 0) & (dx < mask.shape[1]))
    np.maximum.at(mask, (dy[keep], dx[keep]), src[sy[keep], sx[keep]])


def pseudo_labels_for_frame(views, ref: int, detector, params: AdaptationParams,
                            reproj: ReprojectionParams, *,
                            cache: dict[int, FrameEntry] | None = None) -> PseudoLabels:
    """Labels for ``views[ref]`` from its window of following frames.

    ``views`` must expose ``views[i]`` as RenderedView and support len().
    The sampled-frame choice is seeded per (seed, ref), so every reference
    frame is reproducible in isolation.

    ``cache`` maps frame index to FrameEntry. Entries missing from it are
    built from ``views`` with ``detector`` and added, so a caller that
    passes the same dict for overlapping windows reads, detects and
    filters each frame once. It must only hold entries made from these
    views, detector and parameters. Without it a private one is used.
    """
    n = len(views)
    if ref < 0 or ref + params.window_len > n:
        raise InvalidSpecError(
            f"window [{ref}, {ref + params.window_len}) exceeds {n} frames")
    rng = np.random.default_rng([params.seed, ref])
    others = np.arange(ref + 1, ref + params.window_len)
    picked = sorted(rng.choice(others, size=params.n_sampled, replace=False).tolist())

    if cache is None:
        cache = {}
    dst = _cached_entry(cache, views, ref, detector, params, reproj)
    heat = dst.heat
    pr = params.patch // 2
    # each sampled frame's mask is folded in as soon as it is stamped, so one
    # mask buffer serves every frame: a running maximum from the reference
    # heatmap, or a left-to-right running sum (``sum(masks)`` to the bit)
    take_max = params.aggregate == "max" or not picked
    acc = heat.copy() if take_max else np.zeros_like(heat)
    fold = np.maximum if take_max else np.add
    mask = np.empty_like(heat)
    for r in picked:
        src = _cached_entry(cache, views, r, detector, params, reproj)
        mask.fill(0.0)
        if len(src.points):
            targets, _, reasons = reproject_points(
                src.points.astype(np.float64), src.view, dst.view, reproj,
                src_robust=src.robust, dst_robust=dst.robust)
            ok = reasons == 0
            _stamp_patches(mask, src.heat, src.points[ok],
                           np.rint(targets[ok]).astype(int), pr)
        fold(acc, mask, out=acc)

    if take_max:
        agg = acc
    elif params.aggregate == "mean":
        agg = (heat + acc) / (1.0 + len(picked))
    else:
        agg = np.clip(heat + acc, 0.0, 1.0)
    return PseudoLabels(nms(agg, params.nms_radius, params.threshold), ref)


def generate_pseudo_labels(views, detector, params: AdaptationParams,
                           reproj: ReprojectionParams) -> list[PseudoLabels]:
    """Pseudo-labels for every reference frame with a full window after it.

    One frame cache serves every window. Before reference frame ``ref``
    is labelled, entries below ``ref`` are evicted and the window's frames
    ``ref .. ref + window_len - 1`` are filled in ascending order. So the
    cache never holds more than ``window_len`` frames, and each of
    ``views[0] .. views[n - 1]`` is read, detected and filtered exactly
    once, in order; ``views`` can be a lazy sequence that reads from disk.
    """
    n = len(views)
    if n < params.window_len:
        raise InvalidSpecError(f"need at least {params.window_len} frames, have {n}")
    cache: dict[int, FrameEntry] = {}
    labels = []
    for ref in range(n - params.window_len + 1):
        for i in [i for i in cache if i < ref]:
            del cache[i]
        for i in range(ref, ref + params.window_len):
            _cached_entry(cache, views, i, detector, params, reproj)
        labels.append(pseudo_labels_for_frame(views, ref, detector, params, reproj,
                                              cache=cache))
    return labels


def write_labels(labels, path) -> None:
    """One `frame_idx x y` line per label point."""
    with open(path, "w") as f:
        for lab in labels:
            for x, y in lab.points:
                f.write(f"{lab.frame_index} {x} {y}\n")


def read_labels(path) -> list[PseudoLabels]:
    by_frame: dict[int, list] = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            idx, x, y = (int(v) for v in line.split())
            by_frame.setdefault(idx, []).append((x, y))
    return [PseudoLabels(np.array(pts, dtype=int), idx)
            for idx, pts in sorted(by_frame.items())]
