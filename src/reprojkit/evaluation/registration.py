"""RGB-D pair registration: match, lift through depth, align rigidly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    DegenerateConfigurationError,
    EstimationFailedError,
    InvalidSpecError,
    ShapeError,
)
# `describe` stays bound, though unused, for perfbench's tracer binding check
from ..frontend import describe, features, match_mnn  # noqa: F401
from ..geometry import PoseSE3, RenderedView, backproject, relative_pose
from .pose import rotation_error_deg

GRID_STEP = 4   # pixel spacing of the keypoint grid each view is described on
CLOUD_STEP = 4  # stride through view1's valid pixels that forms the chamfer cloud

# ``_nearest_distances``: the first cell side is _FIRST_CELL times the
# spacing of n points spread over the two widest extents a, b of the cloud
# searched, sqrt(a * b / n) (a / n for a line), and never below 1 / _MAX_CELLS
# of the widest extent, which keeps every cell position exact to about 1e-11
# of a cell.
_FIRST_CELL = 0.25
_MAX_CELLS = 2 ** 16
_SLACK = 1e-9          # relative margin on every certified radius and pruning bound
_DESCEND = 256         # candidates above which a query leaves the grid for the pyramid
_TOP_CELLS = 8         # cells at the top of the pyramid
# Queries per block of grid lookups and of the descent, and query-point
# distances in flight at once. The grid's sizes keep its temporaries under
# 128 KB, so the allocator reuses heap blocks instead of mapping, faulting
# and returning fresh pages each level.
_QUERY_BLOCK = 1024
_DESCEND_BLOCK = 256
_MAX_CANDIDATES = 2 ** 13
_HASH = (-7046029254386353131, -4417276706812531889)  # odd 64-bit multipliers
_STEPS = np.array([-1, 0, 1])


def kabsch_weighted(P: np.ndarray, Q: np.ndarray, weights=None):
    """Rigid (R, t) minimizing sum of w * ||R p + t - q||^2.

    Weighted centroids plus SVD of the weighted cross-covariance, with
    the determinant correction that excludes reflections.
    """
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    if P.shape != Q.shape or P.shape[1] != 3:
        raise ShapeError("point sets must be equal (N, 3) arrays")
    n = len(P)
    if n < 3:
        raise DegenerateConfigurationError(f"alignment needs >= 3 points, got {n}")
    if weights is None:
        weights = np.ones(n)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,) or np.any(w < 0):
        raise ShapeError("weights must be (N,) nonnegative")
    total = w.sum()
    if total <= 0:
        raise DegenerateConfigurationError("all weights are zero")
    p_bar = w @ P / total
    q_bar = w @ Q / total
    Pc = P - p_bar
    Qc = Q - q_bar
    M = Pc.T @ (w[:, None] * Qc)
    u, s, vt = np.linalg.svd(M)
    if s[1] < 1e-12 * max(s[0], 1.0):
        raise DegenerateConfigurationError("weighted points are collinear or coincident")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    R = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = q_bar - R @ p_bar
    return R, t


def _run_minima(Bt: np.ndarray, At: np.ndarray, q: np.ndarray, first: np.ndarray,
                count: np.ndarray) -> np.ndarray:
    """Smallest squared distance from each query ``At[:, q]`` to the points
    ``Bt[:, first:first + count]`` of its runs (rows of ``first``/``count``),
    inf for a query without points.

    Squares sum as ``(dx² + dy²) + dz²``, the order of scipy's ``cKDTree``,
    and blocks of queries keep at most ``_MAX_CANDIDATES`` distances.
    """
    per_query = count.sum(axis=1)
    total = int(per_query.sum())
    if total > _MAX_CANDIDATES and len(q) > 1:
        half = len(q) // 2
        return np.concatenate([
            _run_minima(Bt, At, q[:half], first[:half], count[:half]),
            _run_minima(Bt, At, q[half:], first[half:], count[half:])])
    out = np.full(len(q), np.inf)
    if total == 0:
        return out
    count = count.ravel()
    idx = np.repeat(first.ravel() - (np.cumsum(count) - count), count) + np.arange(total)
    owner = np.repeat(q, per_query)
    sq = None
    for b, a in zip(Bt, At):
        d = b.take(idx)
        d -= a.take(owner)
        d *= d
        sq = d if sq is None else sq + d
    has = per_query > 0
    out[has] = np.minimum.reduceat(sq, (np.cumsum(per_query) - per_query)[has])
    return out


def _interleave(cells: np.ndarray) -> np.ndarray:
    """Morton codes of (N, 3) cell indices below 2**21: their bits
    interleaved, so each cell of every coarser level is a run of codes."""
    code = 0
    for axis in range(3):
        v = cells[:, axis]
        v = (v | v << 32) & 0x1F00000000FFFF
        v = (v | v << 16) & 0x1F0000FF0000FF
        v = (v | v << 8) & 0x100F00F00F00F00F
        v = (v | v << 4) & 0x10C30C30C30C30C3
        code = code | ((v | v << 2) & 0x1249249249249249) << axis
    return code


def _descend(Bt: np.ndarray, cells: np.ndarray, At: np.ndarray, q: np.ndarray,
             bound: np.ndarray) -> np.ndarray:
    """Smallest squared distance from each query ``At[:, q]`` to the points
    ``Bt`` in first-level ``cells``, given squared distances ``bound`` to
    points already seen.

    The cells, in Morton order, form a pyramid: each level merges 2 x 2 x 2
    cells and keeps the bounding box of their points. A query walks down
    from the top keeping the boxes that may hold a point within its bound,
    which falls to the smallest distance to a kept box's farthest corner
    (every box holds a point), then scans the first-level cells it kept.
    """
    code = _interleave(cells)
    order = np.argsort(code)
    code = code[order]
    Pt = Bt[:, order]
    starts = np.flatnonzero(np.diff(code, prepend=-1))  # first point of each cell
    sizes = np.diff(starts, append=len(code))
    lo = np.minimum.reduceat(Pt, starts, axis=1)
    hi = np.maximum.reduceat(Pt, starts, axis=1)
    levels = [(lo, hi, None)]
    cell_code = code[starts]
    while len(cell_code) > _TOP_CELLS:
        cell_code = cell_code >> 3
        first = np.flatnonzero(np.diff(cell_code, prepend=-1))  # first child of each cell
        cell_code = cell_code[first]
        lo = np.minimum.reduceat(lo, first, axis=1)
        hi = np.maximum.reduceat(hi, first, axis=1)
        levels.append((lo, hi, first))
    out = bound.copy()
    for i in range(0, len(q), _DESCEND_BLOCK):
        qb = q[i:i + _DESCEND_BLOCK]
        at = At[:, qb]
        u = bound[i:i + _DESCEND_BLOCK].copy()
        top = levels[-1][0].shape[1]
        owner = np.repeat(np.arange(len(qb)), top)
        cell = np.tile(np.arange(top), len(qb))
        for level in range(len(levels) - 1, -1, -1):
            lo, hi, first = levels[level]
            a = at[:, owner]
            below = lo[:, cell] - a
            above = a - hi[:, cell]
            near = (np.maximum(np.maximum(below, above), 0.0) ** 2).sum(axis=0)
            far = (np.maximum(-below, -above) ** 2).sum(axis=0)
            seg = np.flatnonzero(np.diff(owner, prepend=-1))
            u[owner[seg]] = np.minimum(u[owner[seg]], np.minimum.reduceat(far, seg))
            keep = near <= u[owner] * (1.0 + 4 * _SLACK)
            owner, cell = owner[keep], cell[keep]
            if level:
                end = np.append(first[1:], levels[level - 1][0].shape[1])
                c0 = first[cell]
                n_child = end[cell] - c0
                cell = np.repeat(c0 - (np.cumsum(n_child) - n_child), n_child) \
                    + np.arange(n_child.sum())
                owner = np.repeat(owner, n_child)
        leaf = _run_minima(Pt, At, qb[owner], starts[cell][:, None], sizes[cell][:, None])
        seg = np.flatnonzero(np.diff(owner, prepend=-1))
        rows = i + owner[seg]
        out[rows] = np.minimum(out[rows], np.minimum.reduceat(leaf, seg))
    return out


def _nearest_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distance from each row of finite (M, 3) ``A`` to its nearest row of
    finite, nonempty (N, 3) ``B``: ``cKDTree(B).query(A)[0]`` to the bit.

    B is bucketed into cubic cells, hashed by their (x, y) column with
    each column's z cells on consecutive buckets. A query scans the 3 x 3
    columns around its own, each over the z cells that meet the ball
    around the query: its best distance so far (widened by ``2 *
    _SLACK``), capped by how far its 3 x 3 columns reach in x and y. Every
    point of B inside that ball is scanned, so a best distance within it
    (less ``_SLACK``) is exact (Bentley, Stanat and Williams' cell-grid
    fixed-radius search). Queries left open go on to cells of twice the
    side. Hash collisions and clipped edge cells only add real points of
    B, which cannot lower a minimum below the true one. A query whose
    cells hold more than ``_DESCEND`` points, far from B's surface on
    coarse cells, leaves the grid for ``_descend``.
    """
    n = len(B)
    lo = B.min(axis=0)
    extent = np.sort(B.max(axis=0) - lo)[::-1]
    side = max(_FIRST_CELL * max(np.sqrt(extent[0] * extent[1] / n), extent[0] / n),
               extent[0] / _MAX_CELLS) or 1.0
    cells = np.floor((B - lo) / side).astype(np.int64)
    top = cells.max(axis=0)
    pos = (A - lo) / side                      # queries in first-level cell units
    Bt, At = np.ascontiguousarray(B.T), np.ascontiguousarray(A.T)
    mask = (1 << (4 * n).bit_length()) - 1   # at least 4n buckets
    best = np.full(len(A), np.inf)             # squared distances
    todo = np.arange(len(A))
    deep = [todo[:0]]
    level = 0
    while len(todo):
        grid = top >> level                    # largest cell index on each axis
        c = cells >> level
        key = ((c[:, 0] * _HASH[0] + c[:, 1] * _HASH[1]) & mask) + c[:, 2]
        order = np.argsort(key)
        start = np.zeros(mask + grid[2] + 3, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=len(start) - 1), out=start[1:])
        sorted_t = Bt[:, order]
        h = side * 2.0 ** level
        left = []
        for i in range(0, len(todo), _QUERY_BLOCK):
            q = todo[i:i + _QUERY_BLOCK]
            f = pos[q] * 0.5 ** level
            fl = np.floor(f)
            frac = f - fl
            edge = np.minimum(frac, 1.0 - frac)
            # squared ball radius in cell units
            r2 = np.minimum(best[q] * ((1.0 + 2 * _SLACK) / h) ** 2,
                            (1.0 + np.minimum(edge[:, 0], edge[:, 1])) ** 2)
            gap = np.stack([frac, np.zeros_like(frac), 1.0 - frac], axis=1) ** 2
            t2 = (r2[:, None] - gap[:, :, 0])[:, :, None] - gap[:, None, :, 1]
            tz = np.sqrt(np.maximum(t2, 0.0))
            z = f[:, 2, None, None]
            z0 = np.clip(np.floor(z - tz), 0, grid[2]).astype(np.int64)
            z1 = np.clip(np.floor(z + tz) + 1, 0, grid[2] + 1).astype(np.int64)
            z1[t2 <= 0] = 0                    # columns the ball misses
            xy = np.clip(fl[:, :2], -1, grid[:2] + 1).astype(np.int64)
            cx = np.clip(xy[:, :1] + _STEPS, 0, grid[0]) * _HASH[0]
            cy = np.clip(xy[:, 1:] + _STEPS, 0, grid[1]) * _HASH[1]
            col = (cx[:, :, None] + cy[:, None, :]) & mask
            first = start[col + z0].reshape(len(q), 9)
            count = np.maximum(start[col + z1].reshape(len(q), 9) - first, 0)
            heavy = count.sum(axis=1) > _DESCEND
            deep.append(q[heavy])
            count[heavy] = 0
            cur = np.minimum(best[q], _run_minima(sorted_t, At, q, first, count))
            best[q] = cur
            left.append(q[~heavy & (cur > r2 * (h * (1.0 - _SLACK)) ** 2)])
        todo = np.concatenate(left)
        level += 1
    deep = np.concatenate(deep)
    if len(deep):
        best[deep] = _descend(Bt, cells, At, deep, best[deep])
    return np.sqrt(best)


def _cloud(X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != 3:
        raise ShapeError(f"chamfer distance needs (N, 3) clouds, got shape {X.shape}")
    if len(X) == 0:
        raise ShapeError("chamfer distance needs nonempty clouds")
    if not np.isfinite(X).all():
        raise InvalidSpecError("chamfer distance needs finite coordinates")
    return X


def chamfer_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Symmetric mean nearest-neighbor distance between two finite,
    nonempty (N, 3) clouds."""
    A, B = _cloud(A), _cloud(B)
    return float((_nearest_distances(A, B).mean() + _nearest_distances(B, A).mean()) / 2.0)


def lift_to_camera(view: RenderedView, xy: np.ndarray):
    """Camera-frame points for the pixels nearest ``xy``, and the mask of
    those with valid depth; rows without depth are zeros. A pixel that
    rounds to outside the image raises ``ShapeError``."""
    xy = np.rint(np.atleast_2d(np.asarray(xy, dtype=np.float64)))
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ShapeError(f"pixel coordinates must be (N, 2), got shape {xy.shape}")
    inside = ((xy[:, 0] >= 0) & (xy[:, 0] < view.cam.width)
              & (xy[:, 1] >= 0) & (xy[:, 1] < view.cam.height))
    if not inside.all():
        raise ShapeError("pixel coordinates round to pixels outside the image")
    xi = xy[:, 0].astype(int)
    yi = xy[:, 1].astype(int)
    ok = view.depth.valid[yi, xi]
    xi, yi = xi[ok], yi[ok]
    points = np.zeros((len(ok), 3))
    points[ok] = backproject(np.column_stack([xi, yi]).astype(np.float64),
                             view.depth.values[yi, xi], view.cam, PoseSE3.identity())
    return points, ok


def _grid_keypoints(view: RenderedView, step: int, border: int = 8):
    xs = np.arange(border, view.cam.width - border, step)
    ys = np.arange(border, view.cam.height - border, step)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()]).astype(np.float64)


@dataclass(frozen=True)
class RegistrationResult:
    rotation: np.ndarray       # estimated view1-cam -> view2-cam
    translation: np.ndarray    # meters
    rotation_error_deg: float
    translation_error_cm: float
    chamfer_cm: float
    n_matches: int


def register_pair(view1: RenderedView, view2: RenderedView, ratio: float = 0.8,
                  dim: int = 128) -> RegistrationResult:
    """Descriptor matching on a dense grid, depth lifting, weighted Kabsch.

    Match similarities weight the alignment (negatives clipped to zero).
    The chamfer distance compares view1's cloud moved by the estimated
    transform vs the ground-truth one, in view2's camera frame.
    """
    kp1, d1 = features(view1.image, _grid_keypoints(view1, GRID_STEP), dim=dim)
    kp2, d2 = features(view2.image, _grid_keypoints(view2, GRID_STEP), dim=dim)
    matches = match_mnn(d1, d2, ratio=ratio)
    if len(matches) == 0:
        raise EstimationFailedError("no descriptor matches to register")
    p1, ok1 = lift_to_camera(view1, kp1[matches.indices1])
    p2, ok2 = lift_to_camera(view2, kp2[matches.indices2])
    usable = ok1 & ok2
    if usable.sum() < 3:
        raise EstimationFailedError("fewer than 3 matches carry valid depth")
    weights = np.clip(matches.similarity[usable], 0.0, None)
    if not weights.any():
        weights = np.ones(int(usable.sum()))
    R, t = kabsch_weighted(p1[usable], p2[usable], weights)

    R_gt, t_gt = relative_pose(view1.pose, view2.pose)
    rot_err = rotation_error_deg(R, R_gt)
    t_err_cm = float(np.linalg.norm(t - t_gt) * 100.0)

    ys, xs = np.nonzero(view1.depth.valid)
    cloud, _ = lift_to_camera(view1, np.column_stack([xs[::CLOUD_STEP], ys[::CLOUD_STEP]]))
    est_cloud = cloud @ R.T + t
    gt_cloud = cloud @ R_gt.T + t_gt
    chamfer_cm = chamfer_distance(est_cloud, gt_cloud) * 100.0
    return RegistrationResult(R, t, rot_err, t_err_cm, chamfer_cm, int(usable.sum()))
