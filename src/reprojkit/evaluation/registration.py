"""RGB-D pair registration: match, lift through depth, align rigidly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateConfigurationError, EstimationFailedError, ShapeError
# `describe` stays bound, though unused, for perfbench's tracer binding check
from ..frontend import describe, features, match_mnn  # noqa: F401
from ..geometry import RenderedView, relative_pose
from .pose import rotation_error_deg


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


def chamfer_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Symmetric mean nearest-neighbor distance between two clouds."""
    # imported here so that only `eval --task register` loads scipy
    from scipy.spatial import cKDTree

    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if len(A) == 0 or len(B) == 0:
        raise ShapeError("chamfer distance needs nonempty clouds")
    d_ab = cKDTree(B).query(A)[0]
    d_ba = cKDTree(A).query(B)[0]
    return float((d_ab.mean() + d_ba.mean()) / 2.0)


def lift_to_camera(view: RenderedView, xy: np.ndarray):
    """3D camera-frame points for integer pixels with valid depth."""
    xy = np.atleast_2d(np.asarray(xy))
    xi = np.rint(xy[:, 0]).astype(int)
    yi = np.rint(xy[:, 1]).astype(int)
    ok = view.depth.valid[yi, xi]
    rays = view.cam.pixel_rays(np.column_stack([xi, yi]).astype(np.float64))
    dirs = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    return dirs * view.depth.values[yi, xi][:, None], ok


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
                  grid_step: int = 4, dim: int = 128,
                  cloud_step: int = 4) -> RegistrationResult:
    """Descriptor matching on a dense grid, depth lifting, weighted Kabsch.

    Match similarities weight the alignment (negatives clipped to zero).
    The chamfer distance compares view1's cloud moved by the estimated
    transform vs the ground-truth one, in view2's camera frame.
    """
    kp1, d1 = features(view1.image, _grid_keypoints(view1, grid_step), dim=dim)
    kp2, d2 = features(view2.image, _grid_keypoints(view2, grid_step), dim=dim)
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
    sel = slice(None, None, cloud_step)
    cloud, _ = lift_to_camera(view1, np.column_stack([xs[sel], ys[sel]]))
    est_cloud = cloud @ R.T + t
    gt_cloud = cloud @ R_gt.T + t_gt
    chamfer_cm = chamfer_distance(est_cloud, gt_cloud) * 100.0
    return RegistrationResult(R, t, rot_err, t_err_cm, chamfer_cm, int(usable.sum()))
