"""Detector/descriptor quality metrics against a ground-truth point map.

The ground-truth transfer is either a plane-induced homography or the
depth-based reprojection map; both are wrapped behind the same
``transfer``/``inverse`` interface so every metric works with either.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidSpecError, ShapeError
from ..geometry import RenderedView, ReprojectionParams, apply_homography, reproject_points


class HomographyMap:
    """Pixel transfer through a 3x3 homography between images of given dims."""

    def __init__(self, H: np.ndarray, dims1: tuple[int, int], dims2: tuple[int, int]):
        H = np.asarray(H, dtype=np.float64)
        if H.shape != (3, 3):
            raise ShapeError(f"homography must be 3x3, got {H.shape}")
        if abs(np.linalg.det(H)) < 1e-12:
            raise InvalidSpecError("homography is not invertible")
        self.H = H
        self.dims1 = tuple(dims1)
        self.dims2 = tuple(dims2)

    def transfer(self, pts: np.ndarray):
        """Map (N, 2) pixels; ok = finite transfer landing inside image 2."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        mapped = apply_homography(self.H, pts)
        h, w = self.dims2
        ok = (np.isfinite(mapped).all(axis=1)
              & (mapped[:, 0] >= 0) & (mapped[:, 0] <= w - 1)
              & (mapped[:, 1] >= 0) & (mapped[:, 1] <= h - 1))
        return np.where(ok[:, None], mapped, np.nan), ok

    def inverse(self) -> "HomographyMap":
        return HomographyMap(np.linalg.inv(self.H), self.dims2, self.dims1)


class ReprojectionMap:
    """Pixel transfer through rendered depth and ground-truth poses."""

    def __init__(self, src: RenderedView, dst: RenderedView,
                 params: ReprojectionParams = ReprojectionParams()):
        self.src = src
        self.dst = dst
        self.params = params

    def transfer(self, pts: np.ndarray):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        targets, _, reasons = reproject_points(pts, self.src, self.dst, self.params)
        ok = reasons == 0
        return np.where(ok[:, None], targets, np.nan), ok

    def inverse(self) -> "ReprojectionMap":
        return ReprojectionMap(self.dst, self.src, self.params)


def _directional_repeatability(kps_a, kps_b, gt, eps):
    """(repeated, transferable) counts for the a -> b direction."""
    kps_a = np.atleast_2d(np.asarray(kps_a, dtype=np.float64))
    kps_b = np.atleast_2d(np.asarray(kps_b, dtype=np.float64))
    if len(kps_a) == 0:
        return 0, 0
    mapped, ok = gt.transfer(kps_a)
    mapped = mapped[ok]
    if len(mapped) == 0 or len(kps_b) == 0:
        return 0, int(ok.sum())
    d = np.linalg.norm(mapped[:, None, :] - kps_b[None, :, :], axis=-1)
    return int((d.min(axis=1) <= eps).sum()), int(ok.sum())


def repeatability(kps1, kps2, gt, eps: float = 3.0):
    """Symmetric fraction of detections re-found under the ground truth.

    Each direction counts only points whose transfer lands in the other
    image; directions with no transferable point are skipped. Returns
    None when neither direction has one (undefined pair).
    """
    r12, n12 = _directional_repeatability(kps1, kps2, gt, eps)
    r21, n21 = _directional_repeatability(kps2, kps1, gt.inverse(), eps)
    fracs = [r / n for r, n in ((r12, n12), (r21, n21)) if n > 0]
    if not fracs:
        return None
    return float(np.mean(fracs))


def _correct_matches(pts1, pts2, gt, eps):
    pts1 = np.atleast_2d(np.asarray(pts1, dtype=np.float64))
    pts2 = np.atleast_2d(np.asarray(pts2, dtype=np.float64))
    if pts1.shape != pts2.shape:
        raise ShapeError("match point arrays must have equal shapes")
    mapped, ok = gt.transfer(pts1)
    err = np.linalg.norm(mapped - pts2, axis=1)
    # transfers that fail (occluded, out of view) count as incorrect
    return ok & (err <= eps)


def mma(pts1, pts2, gt, eps: float = 3.0) -> float:
    """Fraction of matches whose transfer error is within eps pixels."""
    pts1 = np.atleast_2d(np.asarray(pts1, dtype=np.float64))
    if len(pts1) == 0:
        raise InvalidSpecError("matching accuracy needs at least one match")
    return float(_correct_matches(pts1, pts2, gt, eps).mean())


def matching_score(pts1, pts2, kps_total: int, gt, eps: float = 3.0) -> float:
    """Correct matches over the caller's detection count."""
    if kps_total < 1:
        raise InvalidSpecError(f"kps_total must be >= 1, got {kps_total}")
    pts1 = np.atleast_2d(np.asarray(pts1, dtype=np.float64))
    if len(pts1) == 0:
        return 0.0
    return float(_correct_matches(pts1, pts2, gt, eps).sum() / kps_total)
