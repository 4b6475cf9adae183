"""Robust homography estimation from point matches.

Normalized DLT inside a RANSAC loop. Hypotheses are sampled one rng call
per iteration, so a run with more iterations replays the shorter run's
hypotheses first and the best consensus can only grow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EstimationFailedError, ShapeError
from ..geometry import apply_homography


def _as_matches(pts1, pts2):
    pts1 = np.atleast_2d(np.asarray(pts1, dtype=np.float64))
    pts2 = np.atleast_2d(np.asarray(pts2, dtype=np.float64))
    if pts1.shape != pts2.shape or pts1.ndim != 2 or pts1.shape[1] != 2:
        raise ShapeError("matches must be two equal (N, 2) arrays")
    return pts1, pts2


def _hartley_normalization(pts: np.ndarray) -> np.ndarray:
    centroid = pts.mean(axis=0)
    scale = np.sqrt(2.0) / max(np.linalg.norm(pts - centroid, axis=1).mean(), 1e-12)
    return np.array([[scale, 0.0, -scale * centroid[0]],
                     [0.0, scale, -scale * centroid[1]],
                     [0.0, 0.0, 1.0]])


def fit_homography(pts1, pts2) -> np.ndarray:
    """Least-squares DLT on all matches (exact for noiseless data)."""
    pts1, pts2 = _as_matches(pts1, pts2)
    n = len(pts1)
    if n < 4:
        raise EstimationFailedError(f"homography needs >= 4 matches, got {n}")
    T1 = _hartley_normalization(pts1)
    T2 = _hartley_normalization(pts2)
    p1 = np.column_stack([pts1, np.ones(n)]) @ T1.T
    p2 = np.column_stack([pts2, np.ones(n)]) @ T2.T
    A = np.zeros((2 * n, 9))
    A[0::2, 0:3] = p1
    A[0::2, 6:9] = -p2[:, [0]] * p1
    A[1::2, 3:6] = p1
    A[1::2, 6:9] = -p2[:, [1]] * p1
    _, s, vt = np.linalg.svd(A)
    # a second vanishing singular value means the sample was degenerate
    if n == 4 and s[-2] < 1e-9 * max(s[0], 1.0):
        raise EstimationFailedError("degenerate (collinear) minimal sample")
    H = np.linalg.inv(T2) @ vt[-1].reshape(3, 3) @ T1
    if abs(H[2, 2]) < 1e-12:
        raise EstimationFailedError("ill-conditioned homography solution")
    return H / H[2, 2]


def transfer_error(H: np.ndarray, pts1: np.ndarray, pts2: np.ndarray) -> np.ndarray:
    err = np.linalg.norm(apply_homography(H, pts1) - pts2, axis=1)
    return np.where(np.isfinite(err), err, np.inf)


@dataclass(frozen=True)
class HomographyEstimate:
    H: np.ndarray
    inliers: np.ndarray  # (N,) bool consensus of the winning hypothesis
    iterations: int


def estimate_homography(pts1, pts2, threshold: float = 3.0, iterations: int = 1000,
                        rng=0) -> HomographyEstimate:
    """RANSAC with 4-point DLT hypotheses and an all-inlier DLT refit.

    Ties between hypotheses keep the earlier one; the reported inlier set
    is the winning hypothesis's consensus (the refit reuses exactly those
    matches).
    """
    pts1, pts2 = _as_matches(pts1, pts2)
    n = len(pts1)
    if n < 4:
        raise EstimationFailedError(f"homography needs >= 4 matches, got {n}")
    rng = np.random.default_rng(rng)
    best_count = 0
    best_inliers = None
    for _ in range(iterations):
        idx = rng.choice(n, 4, replace=False)
        try:
            H = fit_homography(pts1[idx], pts2[idx])
        except EstimationFailedError:
            continue
        inliers = transfer_error(H, pts1, pts2) <= threshold
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers
    if best_inliers is None or best_count < 4:
        raise EstimationFailedError("no homography hypothesis reached consensus")
    H = fit_homography(pts1[best_inliers], pts2[best_inliers])
    return HomographyEstimate(H, best_inliers, iterations)


def corner_error(H_est: np.ndarray, H_gt: np.ndarray, dims: tuple[int, int]) -> float:
    """Mean displacement of the four image corners between two homographies."""
    h, w = dims
    corners = np.array([[0.0, 0.0], [w - 1.0, 0.0], [w - 1.0, h - 1.0], [0.0, h - 1.0]])
    shift = apply_homography(H_est, corners) - apply_homography(H_gt, corners)
    return float(np.linalg.norm(shift, axis=1).mean())
