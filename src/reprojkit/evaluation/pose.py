"""Relative camera pose from matches: 8-point RANSAC, errors, and AUC.

The essential matrix is estimated on intrinsics-normalized coordinates
with the convention x2^T E x1 = 0 where E = [t]_x R and X2 = R X1 + t.

RANSAC shares ``homography._ransac``: every 8-point sample is drawn
before any is fitted, one ``rng.choice`` per iteration, then blocks of
samples get one stacked SVD pair and one (block, N) Sampson-distance
matrix. More iterations replay the shorter run's hypotheses first, and
ties keep the earlier hypothesis, as in a one-at-a-time loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EstimationFailedError, InvalidSpecError, ShapeError
from ..geometry import CameraIntrinsics
from .homography import _as_matches, _ransac

POSE_AUC_THRESHOLDS = (5.0, 10.0, 20.0)
TRANSLATION_SPLIT = 0.15


@dataclass(frozen=True)
class RelativePose:
    """Rotation and unit, scale-free translation."""

    rotation: np.ndarray
    translation: np.ndarray
    inliers: np.ndarray | None = None


def _fit_essential(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Least-squares E over >= 8 normalized points, projected to rank 2.

    Stacked samples (B, N, 3) give stacked matrices (B, 3, 3).
    """
    A = (x2[..., :, None] * x1[..., None, :]).reshape(x1.shape[:-1] + (9,))
    _, _, vt = np.linalg.svd(A)
    E = vt[..., -1, :].reshape(x1.shape[:-2] + (3, 3))
    u, _, vt2 = np.linalg.svd(E)
    return u @ np.diag([1.0, 1.0, 0.0]) @ vt2


def _sampson_distance(E: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Sampson distance of each match (N,) under E, or (B, N) under a
    stack (B, 3, 3); inf where not finite."""
    Ex1 = x1 @ np.swapaxes(E, -1, -2)
    Etx2 = x2 @ E
    num = np.einsum("...ij,...ij->...i", x2, Ex1)
    den = Ex1[..., 0] ** 2 + Ex1[..., 1] ** 2 + Etx2[..., 0] ** 2 + Etx2[..., 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.abs(num) / np.sqrt(den)
    return np.where(np.isfinite(d), d, np.inf)


def _triangulate(R, t, x1, x2):
    """Depths in both cameras: the least-squares solve of
    [R a, -b] [z1, z2]^T = -t for each ray pair (a, b), in closed form.

    With n = Ra x b, z1 = (b x t).n / |n|^2 and z2 = (Ra x t).n / |n|^2.
    Where ``lstsq`` would call [R a, -b] rank-deficient (parallel rays)
    the minimum-norm solution -[R a, -b]^T t / |[R a, -b]|^2 is returned,
    as ``lstsq`` does.
    """
    def dot(a, b):
        return np.einsum("ij,ij->i", a, b)

    ra = x1 @ R.T
    n = np.cross(ra, x2)
    aa, bb, ab, nn = dot(ra, ra), dot(x2, x2), dot(ra, x2), dot(n, n)
    # lstsq's rank test, rcond = 3 eps: sigma_min <= 3 eps sigma_max, where
    # sigma_min * sigma_max = |n| and sigma_max^2 is M^T M's larger eigenvalue
    lam_max = (aa + bb) / 2.0 + np.sqrt(((aa - bb) / 2.0) ** 2 + ab ** 2)
    singular = np.sqrt(nn) <= 3.0 * np.finfo(float).eps * lam_max
    with np.errstate(divide="ignore", invalid="ignore"):
        z1 = np.where(singular, -(ra @ t) / (aa + bb), dot(np.cross(x2, t), n) / nn)
        z2 = np.where(singular, (x2 @ t) / (aa + bb), dot(np.cross(ra, t), n) / nn)
    return z1, z2


def _decompose(E: np.ndarray):
    u, _, vt = np.linalg.svd(E)
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    R1 = u @ W @ vt
    R2 = u @ W.T @ vt
    t = u[:, 2]
    return [(R1, t), (R1, -t), (R2, t), (R2, -t)]


def estimate_essential(pts1, pts2, cam1: CameraIntrinsics, cam2: CameraIntrinsics,
                       threshold_px: float = 0.5, iterations: int = 1000,
                       rng=0) -> RelativePose:
    """8-point RANSAC; cheirality over the consensus picks the (R, t).

    The inlier test is Sampson distance in normalized coordinates against
    ``threshold_px`` divided by the mean focal length of both cameras.
    """
    pts1, pts2 = _as_matches(pts1, pts2)
    n = len(pts1)
    if n < 8:
        raise EstimationFailedError(f"essential matrix needs >= 8 matches, got {n}")
    x1 = cam1.pixel_rays(pts1)
    x2 = cam2.pixel_rays(pts2)
    thr = threshold_px / np.mean([cam1.fx, cam1.fy, cam2.fx, cam2.fy])
    best_count, best_inliers = _ransac(
        n, 8, iterations, rng,
        lambda idx: _sampson_distance(_fit_essential(x1[idx], x2[idx]), x1, x2) <= thr)
    if best_inliers is None or best_count < 8:
        raise EstimationFailedError("no essential hypothesis reached consensus")
    E = _fit_essential(x1[best_inliers], x2[best_inliers])
    best = None
    for R, t in _decompose(E):
        z1, z2 = _triangulate(R, t, x1[best_inliers], x2[best_inliers])
        front = int(((z1 > 0) & (z2 > 0)).sum())
        if best is None or front > best[0]:
            best = (front, R, t)
    if best is None or best[0] == 0:
        raise EstimationFailedError("no decomposition places points in front of both cameras")
    _, R, t = best
    return RelativePose(R, t / np.linalg.norm(t), best_inliers)


def rotation_error_deg(R_est: np.ndarray, R_gt: np.ndarray) -> float:
    cosang = (np.trace(np.asarray(R_est).T @ np.asarray(R_gt)) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))


def translation_error_deg(t_est: np.ndarray, t_gt: np.ndarray) -> float:
    """Angle between translation directions, sign-ambiguous."""
    t_gt = np.asarray(t_gt, dtype=np.float64)
    norm = np.linalg.norm(t_gt)
    if norm < 1e-12:
        raise InvalidSpecError("ground-truth translation is zero; use rotation_only")
    t_est = np.asarray(t_est, dtype=np.float64)
    cosang = abs(t_est @ t_gt) / (np.linalg.norm(t_est) * norm)
    return float(np.degrees(np.arccos(np.clip(cosang, 0.0, 1.0))))


def pose_error(est: RelativePose, gt_R: np.ndarray, gt_t: np.ndarray,
               rotation_only: bool = False) -> float:
    """Max of angular rotation and translation error, in degrees."""
    rot = rotation_error_deg(est.rotation, gt_R)
    if rotation_only:
        return rot
    return max(rot, translation_error_deg(est.translation, gt_t))


def pose_auc(errors, thresholds=POSE_AUC_THRESHOLDS) -> dict[float, float]:
    """Exact area under the cumulative error curve, per threshold.

    The cumulative fraction is piecewise constant, so the integral is a
    finite sum: AUC@t = sum(max(0, t - e_i)) / (n * t). Failed estimates
    enter as infinity and only lower the curve.
    """
    errors = np.asarray([np.inf if e is None else e for e in errors], dtype=np.float64)
    if len(errors) == 0:
        raise InvalidSpecError("pose AUC needs at least one error value")
    if np.any(errors < 0):
        raise InvalidSpecError("pose errors must be nonnegative")
    out = {}
    for t in thresholds:
        finite = errors[np.isfinite(errors)]
        out[float(t)] = float(np.maximum(t - finite, 0.0).sum() / (len(errors) * t))
    return out


@dataclass(frozen=True)
class PosePairRecord:
    """One evaluated pair: the estimate (None = failed) and ground truth."""

    estimate: RelativePose | None
    gt_rotation: np.ndarray
    gt_translation: np.ndarray


def pose_split_eval(records, split: float = TRANSLATION_SPLIT,
                    thresholds=POSE_AUC_THRESHOLDS) -> dict:
    """AUCs with the low-translation partition scored rotation-only.

    Pairs with ||t_gt|| <= split use the angular rotation error alone
    (their translation direction is unreliable); the rest use
    max(rotation, translation) error. Empty partitions report count 0
    and no AUC values. The top-level ``auc`` pools both partitions'
    errors in record order; it is absent when there are no records.
    """
    low, high, pooled = [], [], []
    for rec in records:
        norm = float(np.linalg.norm(rec.gt_translation))
        bucket, rotation_only = (low, True) if norm <= split else (high, False)
        if rec.estimate is None:
            err = np.inf
        else:
            err = pose_error(rec.estimate, rec.gt_rotation,
                             rec.gt_translation, rotation_only=rotation_only)
        bucket.append(err)
        pooled.append(err)
    report = {"split": float(split),
              "low_translation": {"count": len(low), "rotation_only": True},
              "general": {"count": len(high), "rotation_only": False}}
    if pooled:
        report["auc"] = pose_auc(pooled, thresholds)
    if low:
        report["low_translation"]["auc"] = pose_auc(low, thresholds)
    if high:
        report["general"]["auc"] = pose_auc(high, thresholds)
    return report
