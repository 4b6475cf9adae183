"""Robust homography estimation from point matches.

Normalized DLT inside a RANSAC loop. Every minimal sample is drawn before
any is fitted, one ``rng.choice`` per iteration in iteration order, so a
run with more iterations replays the shorter run's hypotheses first and
the best consensus can only grow.

Hypotheses are fitted and scored in blocks of ``_BLOCK`` samples: one
stacked Hartley normalization and SVD per block, then one (block, N)
transfer-error matrix, so temporaries grow with the match count N but not
with the iteration count. Degenerate samples fail the same two checks a
single fit raises on and never win. Inside a block the first maximum
wins, and across blocks only a strictly larger count replaces the best,
so ties keep the earlier hypothesis, exactly as a one-at-a-time loop does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EstimationFailedError, ShapeError
from ..geometry import apply_homography

_BLOCK = 128  # RANSAC hypotheses fitted and scored together


def _as_matches(pts1, pts2):
    pts1 = np.atleast_2d(np.asarray(pts1, dtype=np.float64))
    pts2 = np.atleast_2d(np.asarray(pts2, dtype=np.float64))
    if pts1.shape != pts2.shape or pts1.ndim != 2 or pts1.shape[1] != 2:
        raise ShapeError("matches must be two equal (N, 2) arrays")
    return pts1, pts2


def _hartley_normalization(pts: np.ndarray) -> np.ndarray:
    """Similarities (B, 3, 3) moving each point set (B, N, 2) to mean
    distance sqrt(2) from the origin."""
    centroid = pts.mean(axis=-2)
    spread = np.linalg.norm(pts - centroid[:, None, :], axis=-1).mean(axis=-1)
    scale = np.sqrt(2.0) / np.maximum(spread, 1e-12)
    T = np.zeros((len(pts), 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = scale
    T[:, :2, 2] = -scale[:, None] * centroid
    T[:, 2, 2] = 1.0
    return T


def fit_homography(pts1, pts2) -> np.ndarray:
    """Least-squares DLT on all matches (exact for noiseless data).

    Takes (N, 2) matches, or stacks (B, N, 2) of B samples that are fitted
    with one batched SVD into (B, 3, 3). A single fit raises on a
    degenerate minimal sample or an ill-conditioned solution; a stacked
    fit returns an all-NaN H for such a sample instead.
    """
    stacked = np.ndim(pts1) == 3
    if stacked:
        pts1 = np.asarray(pts1, dtype=np.float64)
        pts2 = np.asarray(pts2, dtype=np.float64)
        if pts1.shape != pts2.shape or pts1.shape[2] != 2:
            raise ShapeError("stacked matches must be two equal (B, N, 2) arrays")
    else:
        pts1, pts2 = (p[None] for p in _as_matches(pts1, pts2))
    n = pts1.shape[1]
    if n < 4:
        raise EstimationFailedError(f"homography needs >= 4 matches, got {n}")
    T1 = _hartley_normalization(pts1)
    T2 = _hartley_normalization(pts2)
    ones = np.ones(pts1.shape[:2] + (1,))
    p1 = np.concatenate([pts1, ones], axis=2) @ T1.transpose(0, 2, 1)
    p2 = np.concatenate([pts2, ones], axis=2) @ T2.transpose(0, 2, 1)
    A = np.zeros((len(p1), 2 * n, 9))
    A[:, 0::2, 0:3] = p1
    A[:, 0::2, 6:9] = -p2[..., [0]] * p1
    A[:, 1::2, 3:6] = p1
    A[:, 1::2, 6:9] = -p2[..., [1]] * p1
    _, s, vt = np.linalg.svd(A)
    # a second vanishing singular value means the sample was degenerate
    degenerate = (s[:, -2] < 1e-9 * np.maximum(s[:, 0], 1.0)) if n == 4 else \
        np.zeros(len(A), dtype=bool)
    H = np.linalg.inv(T2) @ vt[:, -1].reshape(-1, 3, 3) @ T1
    ill = np.abs(H[:, 2, 2]) < 1e-12
    if not stacked:
        if degenerate[0]:
            raise EstimationFailedError("degenerate (collinear) minimal sample")
        if ill[0]:
            raise EstimationFailedError("ill-conditioned homography solution")
        return H[0] / H[0, 2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        H = H / H[:, 2:, 2:]
    H[degenerate | ill] = np.nan
    return H


def transfer_error(H: np.ndarray, pts1: np.ndarray, pts2: np.ndarray) -> np.ndarray:
    """Distance from H applied to each pts1 to its pts2, inf where not finite.

    A stack (B, 3, 3) of homographies gives a (B, N) error matrix.
    """
    err = np.linalg.norm(apply_homography(H, pts1) - pts2, axis=-1)
    return np.where(np.isfinite(err), err, np.inf)


def _ransac(n: int, k: int, iterations: int, rng, inliers_of):
    """Best consensus over ``iterations`` minimal samples of k of n matches.

    ``inliers_of`` maps a block of samples (B, k) to their (B, n) inlier
    masks, all False for a degenerate sample. Returns the winning count
    and mask, (0, None) when no hypothesis has an inlier.
    """
    rng = np.random.default_rng(rng)
    samples = np.array([rng.choice(n, k, replace=False)
                        for _ in range(iterations)], dtype=np.intp).reshape(-1, k)
    best_count, best_inliers = 0, None
    for start in range(0, len(samples), _BLOCK):
        inliers = inliers_of(samples[start:start + _BLOCK])
        counts = inliers.sum(axis=1)
        j = int(np.argmax(counts))
        if counts[j] > best_count:
            best_count, best_inliers = int(counts[j]), inliers[j].copy()
    return best_count, best_inliers


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

    def inliers_of(idx):
        H = fit_homography(pts1[idx], pts2[idx])
        fitted = ~np.isnan(H[:, 2, 2])
        return (transfer_error(H, pts1, pts2) <= threshold) & fitted[:, None]

    best_count, best_inliers = _ransac(n, 4, iterations, rng, inliers_of)
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
