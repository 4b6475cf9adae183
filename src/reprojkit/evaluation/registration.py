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

GRID_STEP = 4    # pixel spacing of the keypoint grid each view is described on
GRID_BORDER = 8  # pixels at each image edge that the keypoint grid leaves out
CLOUD_STEP = 4   # stride through view1's valid pixels that forms the chamfer cloud
_MAX_COORD = 1e150  # chamfer coordinates within it keep every squared distance finite

# ``_nearest_distances``: the first cell side is _FIRST_CELL times the
# spacing of n points spread over the two widest extents a, b of the cloud
# searched, sqrt(a * b / n) (a / n for a line). It is never below 1 /
# _MAX_CELLS of the widest extent, which keeps every cell position exact to
# about 1e-11 of a cell; nor below 1 / _MAX_CELLS**2 of the farthest query
# offset, which keeps query positions finite and the rounds of doubled cells
# under about 40; nor below _MIN_SIDE, so that, within _MAX_COORD, squared
# cell sides stay normal numbers and their inverses finite.
_FIRST_CELL = 0.25
_MAX_CELLS = 2 ** 16
_MIN_SIDE = 1e-150
_SLACK = 1e-9   # relative margin on every certified radius
_CROWDED = 256  # candidates above which a query scans the whole cloud instead
# Queries per block of grid lookups, and query-point distances in flight at
# once. These sizes keep the grid's temporaries under 128 KB, so the
# allocator reuses heap blocks instead of mapping, faulting and returning
# fresh pages each level.
_QUERY_BLOCK = 1024
_MAX_CANDIDATES = 2 ** 13
_HASH = (-7046029254386353131, -4417276706812531889)  # odd 64-bit multipliers
_STEPS = np.array([-1, 0, 1])


def kabsch_weighted(P: np.ndarray, Q: np.ndarray, weights=None):
    """Rigid (R, t) minimizing sum of w * ||R p + t - q||^2.

    Weighted centroids plus SVD of the weighted cross-covariance, with
    the determinant correction that excludes reflections. Non-finite
    input, and input whose centroids or covariance overflow, raise
    ``InvalidSpecError``.
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
    if not (np.isfinite(P).all() and np.isfinite(Q).all() and np.isfinite(w).all()):
        raise InvalidSpecError("alignment needs finite points and weights")
    if w.shape != (n,) or np.any(w < 0):
        raise ShapeError("weights must be (N,) nonnegative")
    # finite inputs can still overflow here; the check below catches that
    # before the SVD, which does not converge on inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        total = w.sum()
        if total <= 0:
            raise DegenerateConfigurationError("all weights are zero")
        p_bar = w @ P / total
        q_bar = w @ Q / total
        M = (P - p_bar).T @ (w[:, None] * (Q - q_bar))
    if not all(np.isfinite(a).all() for a in (total, p_bar, q_bar, M)):
        raise InvalidSpecError("alignment overflows: points or weights are too large")
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


def _scan_all(Bt: np.ndarray, At: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Smallest squared distance from each query ``At[:, q]`` to every
    point of ``Bt``, summed as ``_run_minima`` sums them, in chunks of
    queries that keep about ``_MAX_CANDIDATES`` distances."""
    out = np.empty(len(q))
    step = max(1, _MAX_CANDIDATES // Bt.shape[1])
    for i in range(0, len(q), step):
        rows = q[i:i + step]
        sq = None
        for b, a in zip(Bt, At):
            d = b - a[rows, None]
            d *= d
            sq = d if sq is None else sq + d
        out[i:i + step] = sq.min(axis=1)
    return out


def _nearest_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distance from each row of (M, 3) ``A`` to its nearest row of
    nonempty (N, 3) ``B``, both finite and within ``_MAX_COORD``:
    ``cKDTree(B).query(A)[0]`` to the bit.

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
    cells hold more than ``_CROWDED`` points, far from B's surface on
    coarse cells, scans every point of B instead, so the worst case is the
    plain M x N scan.
    """
    n = len(B)
    lo = B.min(axis=0)
    extent = np.sort(B.max(axis=0) - lo)[::-1]
    pos = A - lo
    side = max(_FIRST_CELL * max(np.sqrt(extent[0] * extent[1] / n), extent[0] / n),
               extent[0] / _MAX_CELLS, np.abs(pos).max() / _MAX_CELLS ** 2, _MIN_SIDE)
    cells = np.floor((B - lo) / side).astype(np.int64)
    top = cells.max(axis=0)
    pos /= side                                # queries in first-level cell units
    Bt, At = np.ascontiguousarray(B.T), np.ascontiguousarray(A.T)
    mask = (1 << (4 * n).bit_length()) - 1   # at least 4n buckets
    best = np.full(len(A), np.inf)             # squared distances
    todo = np.arange(len(A))
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
            heavy = count.sum(axis=1) > _CROWDED
            count[heavy] = 0
            cur = _run_minima(sorted_t, At, q, first, count)
            if heavy.any():
                cur[heavy] = _scan_all(Bt, At, q[heavy])
            cur = np.minimum(best[q], cur)
            best[q] = cur
            left.append(q[~heavy & (cur > r2 * (h * (1.0 - _SLACK)) ** 2)])
        todo = np.concatenate(left)
        level += 1
    return np.sqrt(best)


def _cloud(X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != 3:
        raise ShapeError(f"chamfer distance needs (N, 3) clouds, got shape {X.shape}")
    if len(X) == 0:
        raise ShapeError("chamfer distance needs nonempty clouds")
    if not (np.abs(X) <= _MAX_COORD).all():
        raise InvalidSpecError(
            f"chamfer distance needs finite coordinates within +-{_MAX_COORD:g}")
    return X


def chamfer_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Symmetric mean nearest-neighbor distance between two nonempty (N, 3)
    clouds whose coordinates are finite and within ``_MAX_COORD`` (1e150),
    where no squared distance can overflow."""
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


def _grid_keypoints(view: RenderedView):
    xs = np.arange(GRID_BORDER, view.cam.width - GRID_BORDER, GRID_STEP)
    ys = np.arange(GRID_BORDER, view.cam.height - GRID_BORDER, GRID_STEP)
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
    kp1, d1 = features(view1.image, _grid_keypoints(view1), dim=dim)
    kp2, d2 = features(view2.image, _grid_keypoints(view2), dim=dim)
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
