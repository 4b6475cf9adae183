"""Pinhole camera model, SE(3) poses, and depth-based pixel reprojection.

Conventions used throughout the toolkit:

* Pixel coordinates are ``(x, y)`` with pixel centers at integer
  coordinates; ``x`` runs along image width (columns), ``y`` along height
  (rows). A sub-pixel location is in bounds iff ``0 <= x <= width - 1``
  and ``0 <= y <= height - 1``.
* Camera frame is right-handed with x right, y down, z forward.
* Poses are camera-to-world: ``X_world = R @ X_cam + t``.
* Depth maps store *ray distance* (the Euclidean distance from the
  camera center to the surface along the pixel ray), not z-depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import InvalidDepthError, ShapeError

# Minimum camera-frame z for a point to count as in front of the camera.
MIN_FRONT_Z = 1e-9
# How far outside the image border a landing still counts as inside: a
# pixel reprojected onto itself can come back at -1e-16.
BORDER_TOL = 1e-9


def _row_bands(n: int, size: int):
    """(start, stop) of the consecutive bands that cover ``n`` rows: at most
    ``size`` rows each, except that a one-row tail joins the band before it.

    A one-row matrix product can round differently from the same row in a
    larger product (numpy then takes another BLAS path), so only ``n == 1``
    gives a one-row band.
    """
    stops = list(range(size, n, size))
    if stops and n - stops[-1] == 1:
        stops.pop()
    return zip([0, *stops], [*stops, n])


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole calibration: focal lengths, principal point, image size."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError(
                f"focal lengths must be positive and finite, got fx={self.fx}, fy={self.fy}")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image "
                f"{self.width}x{self.height}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])

    def pixel_rays(self, points: np.ndarray) -> np.ndarray:
        """Un-normalized camera rays ``K^-1 [x, y, 1]`` for pixels (..., 2)."""
        points = np.asarray(points, dtype=np.float64)
        x = (points[..., 0] - self.cx) / self.fx
        y = (points[..., 1] - self.cy) / self.fy
        return np.stack([x, y, np.ones_like(x)], axis=-1)

    @cached_property
    def pixel_directions(self) -> np.ndarray:
        """Unit camera-frame rays through every pixel center, row-major
        (height * width, 3); computed once per intrinsics and read-only."""
        xs, ys = np.meshgrid(np.arange(self.width), np.arange(self.height))
        pix = np.stack([xs, ys], axis=-1).reshape(-1, 2).astype(np.float64)
        rays = self.pixel_rays(pix)
        dirs = rays / np.linalg.norm(rays, axis=-1, keepdims=True)
        dirs.flags.writeable = False
        return dirs

    def contains(self, points: np.ndarray) -> np.ndarray:
        """True where (..., 2) pixel locations fall inside the image, up to
        ``BORDER_TOL``."""
        points = np.asarray(points, dtype=np.float64)
        x, y = points[..., 0], points[..., 1]
        return ((x >= -BORDER_TOL) & (x <= self.width - 1.0 + BORDER_TOL)
                & (y >= -BORDER_TOL) & (y <= self.height - 1.0 + BORDER_TOL))


@dataclass(frozen=True)
class PoseSE3:
    """Camera-to-world rigid transform."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.array(self.rotation, dtype=np.float64)
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        if R.shape != (3, 3):
            raise ShapeError(f"rotation must be 3x3, got {R.shape}")
        if not np.allclose(R.T @ R, np.eye(3), atol=1e-9):
            raise ValueError("rotation is not orthonormal within 1e-9")
        if not np.isclose(np.linalg.det(R), 1.0, atol=1e-9):
            raise ValueError("rotation determinant is not +1 within 1e-9")
        R.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "PoseSE3":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "PoseSE3":
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ShapeError(f"expected 4x4 matrix, got {m.shape}")
        return cls(m[:3, :3], m[:3, 3])

    @property
    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return (points - self.translation) @ self.rotation

    def camera_to_world(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation.T + self.translation


def relative_pose(src: PoseSE3, dst: PoseSE3) -> tuple[np.ndarray, np.ndarray]:
    """Rigid map from src camera frame to dst camera frame.

    Returns (R, t) with ``X_dst = R @ X_src + t``.
    """
    R = dst.rotation.T @ src.rotation
    t = dst.rotation.T @ (src.translation - dst.translation)
    return R, t


class DepthMap:
    """Per-pixel ray distances with a validity mask."""

    def __init__(self, values: np.ndarray, valid: np.ndarray | None = None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ShapeError(f"depth values must be 2D, got shape {values.shape}")
        if valid is None:
            valid = np.isfinite(values) & (values > 0.0)
        else:
            valid = np.asarray(valid, dtype=bool)
            if valid.shape != values.shape:
                raise ShapeError("validity mask shape does not match depth values")
            bad = valid & ~(np.isfinite(values) & (values > 0.0))
            if np.any(bad):
                raise InvalidDepthError("valid depth entries must be positive and finite")
        self.values = values
        self.valid = valid

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class ReprojectionParams:
    """Depth-window stabilization settings.

    ``depth_eps`` is the tolerated depth spread in meters; ``window`` the
    odd side of the pixel window searched for the foreground depth.
    ``window=1`` disables the stabilization (the raw per-pixel depth is
    used).
    """

    depth_eps: float = 0.03
    window: int = 5

    def __post_init__(self):
        if not 0 < self.depth_eps < np.inf:
            raise ValueError(f"depth_eps must be positive and finite, got {self.depth_eps}")
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 1, got {self.window}")


class RejectReason(IntEnum):
    """Why a reprojection produced no usable target (0 is reserved for ok)."""

    INVALID_DEPTH = 1
    BEHIND_CAMERA = 2
    OUT_OF_BOUNDS = 3
    OCCLUDED = 4


@dataclass(frozen=True)
class RenderedView:
    """One synthetic frame: RGB image, ray-distance depth, and camera."""

    image: np.ndarray
    depth: DepthMap
    cam: CameraIntrinsics
    pose: PoseSE3
    index: int = 0

    def __post_init__(self):
        expected = (self.cam.height, self.cam.width)
        if self.image.shape[:2] != expected or self.image.shape[2:] != (3,):
            raise ShapeError(
                f"image shape {self.image.shape} does not match camera {expected} + RGB"
            )
        if self.depth.shape != expected:
            raise ShapeError(
                f"depth shape {self.depth.shape} does not match camera {expected}"
            )


def backproject(p: np.ndarray, d, cam: CameraIntrinsics, pose: PoseSE3) -> np.ndarray:
    """Lift pixel(s) to 3D world points using ray-distance depth.

    The pixel ray ``K^-1 [x, y, 1]`` is normalized to unit length and
    scaled by ``d`` before the camera-to-world transform, so ``d`` is the
    Euclidean distance from the camera center to the returned point.

    Parameters
    ----------
    p : (..., 2) pixel coordinates.
    d : scalar or (...,) ray distances, must be positive and finite.
    """
    d = np.asarray(d, dtype=np.float64)
    if np.any(~np.isfinite(d)) or np.any(d <= 0.0):
        raise InvalidDepthError("ray distance must be positive and finite")
    rays = cam.pixel_rays(p)
    dirs = rays / np.linalg.norm(rays, axis=-1, keepdims=True)
    return pose.camera_to_world(dirs * d[..., None])


def apply_homography(H: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map (N, 2) pixels through a 3x3 homography, or through each of a
    stack (B, 3, 3) of them into (B, N, 2).

    Points sent to infinity come back inf or NaN, without a warning;
    each caller decides what a non-finite or out-of-image result means.
    """
    points = np.asarray(points, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    hom = np.column_stack([points, np.ones(len(points))]) @ np.swapaxes(H, -1, -2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return hom[..., :2] / hom[..., 2:]


def _window_extreme(a: np.ndarray, size: int, op) -> np.ndarray:
    """Running minimum or maximum (``op`` is ``np.minimum`` or
    ``np.maximum``) of 2-D ``a`` over the ``size x size`` window.

    The window of pixel ``i`` along an axis spans ``i - size // 2`` to
    ``i - size // 2 + size - 1``, so even sizes reach one further back
    than forward. Cells outside the image are skipped, which is what
    ``scipy.ndimage`` gives with ``mode="constant"`` and the op's identity
    (``cval=inf`` for minima, ``-inf`` for maxima), bit for bit on input
    without NaN. One pass per axis makes ``size - 1`` shifted ``op`` calls.
    """
    lo = size // 2
    for axis in (0, 1):
        src = np.swapaxes(a, 0, axis)
        out = src.copy(order="K")
        n = len(src)
        for o in range(-lo, size - lo):
            if o == 0 or abs(o) >= n:  # a shift past the far edge would wrap the slice
                continue
            dst = out[max(0, -o):n - max(0, o)]
            op(dst, src[max(0, o):n - max(0, -o)], out=dst)
        a = np.swapaxes(out, 0, axis)
    return a


def robust_depth_map(depth: DepthMap, params: ReprojectionParams) -> DepthMap:
    """Depth-window stabilized ray distance at every pixel.

    Each pixel looks at the valid depths inside the ``window x window``
    patch centered on it (clipped at image borders). If its own depth is
    valid and the patch spread (max - min) does not exceed ``depth_eps``,
    it keeps its own depth; otherwise it takes the patch minimum, which
    keeps edge pixels attached to the foreground surface. Pixels whose
    window holds no valid depth are marked invalid.
    """
    vals = depth.values
    vmin = _window_extreme(np.where(depth.valid, vals, np.inf), params.window, np.minimum)
    vmax = _window_extreme(np.where(depth.valid, vals, -np.inf), params.window, np.maximum)
    any_valid = np.isfinite(vmin)
    uniform = depth.valid & (vmax - vmin <= params.depth_eps)
    out = np.where(uniform, vals, vmin)
    out = np.where(any_valid, out, 0.0)
    return DepthMap(out, any_valid)


def _lift_points(points: np.ndarray, src: RenderedView, src_robust: DepthMap):
    """The source half of ``reproject_points``: lift (N, 2) src pixels to
    world points through src's robust depth.

    Returns ``(world, valid)``: (V, 3) world points for the V pixels whose
    robust depth is valid, in order, and the (N,) mask of those pixels
    (the rest are rejected as INVALID_DEPTH).
    """
    xi = np.rint(points[:, 0]).astype(int)
    yi = np.rint(points[:, 1]).astype(int)
    if np.any((xi < 0) | (xi >= src.cam.width) | (yi < 0) | (yi >= src.cam.height)):
        raise ValueError("source pixels must lie inside the source image")
    valid = src_robust.valid[yi, xi]
    d = src_robust.values[yi[valid], xi[valid]]
    return backproject(points[valid], d, src.cam, src.pose), valid


def _land_points(world: np.ndarray, dst: RenderedView, dst_robust: DepthMap,
                 params: ReprojectionParams):
    """The destination half of ``reproject_points``: project (M, 3) world
    points into dst and test them.

    Returns ``(targets, depths, reasons)`` per world point, as
    ``reproject_points`` does, with reasons BEHIND_CAMERA, OUT_OF_BOUNDS
    or OCCLUDED. Each point is handled on its own, so landing a
    concatenation of lifts gives each lift's rows bit for bit.
    """
    m = len(world)
    targets = np.full((m, 2), np.nan)
    depths = np.full(m, np.nan)
    reasons = np.zeros(m, dtype=np.uint8)
    X = dst.pose.world_to_camera(world)
    z = X[:, 2]

    front = z > MIN_FRONT_Z
    reasons[~front] = RejectReason.BEHIND_CAMERA

    with np.errstate(divide="ignore", invalid="ignore"):
        px = dst.cam.fx * X[:, 0] / z + dst.cam.cx
        py = dst.cam.fy * X[:, 1] / z + dst.cam.cy
    pix = np.stack([px, py], axis=-1)

    inb = front & dst.cam.contains(pix)
    reasons[front & ~inb] = RejectReason.OUT_OF_BOUNDS
    # occlusion: projected ray distance must agree with dst's robust depth
    ray_dist = np.linalg.norm(X, axis=-1)
    pix_safe = np.where(np.isfinite(pix), pix, 0.0)
    lx = np.rint(pix_safe[:, 0]).astype(int)
    ly = np.rint(pix_safe[:, 1]).astype(int)
    lx = np.clip(lx, 0, dst.cam.width - 1)
    ly = np.clip(ly, 0, dst.cam.height - 1)
    dst_d = dst_robust.values[ly, lx]
    dst_ok = dst_robust.valid[ly, lx]
    occluded = inb & dst_ok & (ray_dist - dst_d > params.depth_eps)
    reasons[occluded] = RejectReason.OCCLUDED

    accepted = inb & ~occluded
    targets[accepted] = pix[accepted]
    depths[accepted] = z[accepted]
    return targets, depths, reasons


def reproject_points(points: np.ndarray, src: RenderedView, dst: RenderedView,
                     params: ReprojectionParams):
    """Reproject (N, 2) src pixels into dst through geometry and depth.

    Returns ``(targets, depths, reasons)``: (N, 2) dst pixels, (N,) dst
    camera-frame z, and (N,) uint8 reject codes (0 where the target is
    usable, else a RejectReason value). Rejected rows carry NaN targets.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    targets = np.full((n, 2), np.nan)
    depths = np.full(n, np.nan)
    reasons = np.full(n, RejectReason.INVALID_DEPTH, dtype=np.uint8)

    world, valid = _lift_points(points, src, robust_depth_map(src.depth, params))
    targets[valid], depths[valid], reasons[valid] = _land_points(
        world, dst, robust_depth_map(dst.depth, params), params)
    return targets, depths, reasons

