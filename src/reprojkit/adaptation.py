"""Pseudo-ground-truth interest points from windows of consecutive frames.

A detector heatmap is computed on a reference frame and on a random
subset of the following frames; detections from those frames are
reprojected into the reference view, where small heatmap patches are
stamped at the landing pixels. Aggregating the stamped masks with the
reference heatmap and re-running non-maximum suppression yields the
label set.

Each frame's NMS points, lifted to the world with their heatmap patches,
are kept in a per-frame cache (``FrameLift`` by frame index) that the
caller owns; a window's sampled frames then land in its reference view in
one batch. A frame's view, heatmap and robust depth map are needed in full
only while it is the reference being labelled. ``generate_pseudo_labels``
therefore walks the references from last to first: each frame is read,
detected, filtered and lifted once, the first time a window needs it, and
only one frame's full arrays are held at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, ShapeError
from .geometry import (
    DepthMap,
    RenderedView,
    ReprojectionParams,
    _land_points,
    _lift_points,
    _window_extreme,
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
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PseudoLabels:
    """Integer pixel labels for one reference frame."""

    points: np.ndarray  # (N, 2) int (x, y)
    frame_index: int


@dataclass(frozen=True)
class FrameLift:
    """What one frame contributes as a sampled frame, computed once per frame:
    its NMS points with valid robust depth, lifted to the world, and the
    heatmap patch each of them stamps wherever it lands."""

    world: np.ndarray  # (V, 3) world points of the V points with valid depth
    stamps: np.ndarray  # (V, (2p+1)^2) heat values around those points
    inside: np.ndarray  # (V, (2p+1)^2) bool: the stamp cell lies inside the image


def _read_frame(views, i: int, detector,
                reproj: ReprojectionParams) -> tuple[RenderedView, np.ndarray, DepthMap]:
    """``views[i]``, its detector heatmap and its robust depth map.

    Every frame's heatmap is checked against its image size here, so a
    misbehaving detector fails on whichever frame it first misbehaves.
    """
    view = views[i]
    heat = np.asarray(detector(view.image), dtype=np.float64)
    if heat.shape != (view.cam.height, view.cam.width):
        raise ShapeError(
            f"frame {i}: detector heatmap shape {heat.shape} does not match "
            f"the {view.cam.height}x{view.cam.width} image")
    return view, heat, robust_depth_map(view.depth, reproj)


def _lift_frame(view: RenderedView, heat: np.ndarray, robust: DepthMap,
                params: AdaptationParams) -> FrameLift:
    """The frame's NMS points lifted through its robust depth, with their stamps."""
    points = nms(heat, params.nms_radius, params.threshold)
    world, valid = _lift_points(points.astype(np.float64), view, robust)
    return FrameLift(world, *_source_stamps(heat, points[valid], params.patch // 2))


def _cached_lift(cache: dict, views, i: int, detector, params: AdaptationParams,
                 reproj: ReprojectionParams) -> FrameLift:
    """``cache[i]``, built from ``views[i]`` on first use; the frame's view,
    heatmap and robust depth map are dropped as soon as it is lifted."""
    lift = cache.get(i)
    if lift is None:
        lift = cache[i] = _lift_frame(*_read_frame(views, i, detector, reproj), params)
    return lift


def _patch_offsets(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column offsets of the (2r+1)^2 patch cells, row-major."""
    return np.indices((2 * radius + 1,) * 2).reshape(2, -1) - radius


def _source_stamps(src: np.ndarray, src_xy: np.ndarray,
                   radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2r+1)^2 neighborhood of each ``src_xy`` pixel in src, one row
    per (x, y) point and one column per offset, and where those cells lie
    inside src. Values of cells outside src are placeholders."""
    oy, ox = _patch_offsets(radius)
    sy, sx = src_xy[:, 1:] + oy, src_xy[:, :1] + ox
    h, w = src.shape
    inside = (sy >= 0) & (sy < h) & (sx >= 0) & (sx < w)
    return src[sy.clip(0, h - 1), sx.clip(0, w - 1)], inside


def _stamp_cells(shape: tuple[int, int], dst_xy: np.ndarray, inside: np.ndarray,
                 radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into an image of ``shape`` of the patch cells centred
    on each ``dst_xy`` pixel, and which cells to stamp: those inside both
    images (``inside`` says which lie inside the source)."""
    oy, ox = _patch_offsets(radius)
    dy, dx = dst_xy[:, 1:] + oy, dst_xy[:, :1] + ox
    keep = inside & (dy >= 0) & (dy < shape[0]) & (dx >= 0) & (dx < shape[1])
    return dy * shape[1] + dx, keep


def _stamp_patches(mask: np.ndarray, src: np.ndarray, src_xy: np.ndarray,
                   dst_xy: np.ndarray, radius: int) -> None:
    """Copy the (2r+1)^2 neighborhood of each ``src_xy`` pixel in src onto
    mask at the matching ``dst_xy`` pixel; both are (N, 2) int (x, y).

    Both neighborhoods are clipped at their image borders; overlapping
    stamps combine by per-pixel maximum so stamp order cannot matter.
    """
    stamps, inside = _source_stamps(src, src_xy, radius)
    cells, keep = _stamp_cells(mask.shape, dst_xy, inside, radius)
    np.maximum.at(mask, np.divmod(cells[keep], mask.shape[1]), stamps[keep])


def _window_stamps(dst: RenderedView, dst_robust: DepthMap, srcs: list[FrameLift],
                   reproj: ReprojectionParams, radius: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per sampled frame in ``srcs``, in order: the flat cells of dst's
    image its accepted points stamp and the heat values stamped there.

    Every frame's world points land in dst in one call, and the cells come
    in the order ``_stamp_patches`` would visit them frame by frame.
    """
    if not srcs:
        return []
    targets, _, reasons = _land_points(np.concatenate([s.world for s in srcs]),
                                       dst, dst_robust, reproj)
    ok = reasons == 0
    cells, keep = _stamp_cells((dst.cam.height, dst.cam.width),
                               np.rint(targets[ok]).astype(int),
                               np.concatenate([s.inside for s in srcs])[ok], radius)
    stamps = np.concatenate([s.stamps for s in srcs])[ok]
    # kept cells before each landed row; a frame's cells start with its first row's
    per_row = np.zeros(len(ok), dtype=np.intp)
    per_row[ok] = keep.sum(axis=1)
    before = np.concatenate([[0], np.cumsum(per_row)])
    bounds = before[np.cumsum([len(s.world) for s in srcs[:-1]], dtype=np.intp)]
    return list(zip(np.split(cells[keep], bounds), np.split(stamps[keep], bounds)))


def pseudo_labels_for_frame(views, ref: int, detector, params: AdaptationParams,
                            reproj: ReprojectionParams, *,
                            cache: dict[int, FrameLift] | None = None) -> PseudoLabels:
    """Labels for ``views[ref]`` from its window of following frames.

    ``views`` must expose ``views[i]`` as RenderedView and support len().
    The sampled-frame choice is seeded per (seed, ref), so every reference
    frame is reproducible in isolation.

    ``cache`` maps frame index to FrameLift. Sampled frames missing from it
    are read, detected and lifted one at a time and added; then the
    reference is read, and its lift is added too. A caller that passes the
    same dict while walking references from last to first (as
    ``generate_pseudo_labels`` does) therefore reads, detects, filters and
    lifts each frame once: a frame is read in full as the reference, and
    every earlier window only samples its lift. The cache must only hold
    lifts made from these views, detector and parameters. Without it a
    private one is used. The reference's view, heatmap and robust depth map
    live only for this call.

    The sampled frames' world points land in the reference in one call;
    their stamps are then applied one frame at a time, exactly as if each
    frame were reprojected and stamped on its own.
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
    srcs = [_cached_lift(cache, views, r, detector, params, reproj) for r in picked]
    view, heat, robust = _read_frame(views, ref, detector, reproj)
    cache[ref] = _lift_frame(view, heat, robust, params)
    # each sampled frame's mask is folded in as soon as it is stamped, so one
    # mask buffer serves every frame: a running maximum from the reference
    # heatmap, or a left-to-right running sum (``sum(masks)`` to the bit)
    take_max = params.aggregate == "max" or not picked
    acc = heat.copy() if take_max else np.zeros_like(heat)
    fold = np.maximum if take_max else np.add
    mask = np.empty(heat.shape)  # C order, so reshape(-1) is a view
    for cells, stamps in _window_stamps(view, robust, srcs, reproj, params.patch // 2):
        mask.fill(0.0)
        np.maximum.at(mask.reshape(-1), cells, stamps)
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
    """Pseudo-labels for every reference frame with a full window after it,
    in frame order.

    The references are labelled from last to first through one lift cache,
    so a frame is first needed as the reference of its own window, and
    every earlier window only samples its lift. The frames after the last
    reference, which are never references, are read and lifted first, in
    ascending order. Each of ``views[0] .. views[n - 1]`` is thus read,
    detected, filtered and lifted exactly once; ``views`` can be a lazy
    sequence that reads from disk. One frame's view, heatmap and robust
    depth map are held at a time, and the cache holds at most
    ``window_len`` lifts.
    """
    n = len(views)
    if n < params.window_len:
        raise InvalidSpecError(f"need at least {params.window_len} frames, have {n}")
    last = n - params.window_len
    cache: dict[int, FrameLift] = {}
    for i in range(last + 1, n):
        _cached_lift(cache, views, i, detector, params, reproj)
    labels = []
    for ref in range(last, -1, -1):
        labels.append(pseudo_labels_for_frame(views, ref, detector, params, reproj,
                                              cache=cache))
        # the next window, ref - 1 .. ref + window_len - 2, no longer samples it
        del cache[ref + params.window_len - 1]
    labels.reverse()
    return labels


def write_labels(labels, path) -> None:
    """One `frame_idx x y` line per label point."""
    with open(path, "w") as f:
        for lab in labels:
            f.write("".join(f"{lab.frame_index} {x} {y}\n" for x, y in lab.points.tolist()))


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
