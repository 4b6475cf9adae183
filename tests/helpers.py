"""Shared fixtures-in-code for the test suite: analytic views and poses,
and the scalar robust-depth oracle."""

import functools

import numpy as np
from scipy.spatial.transform import Rotation

from reprojkit.config import load_scene
from reprojkit.errors import InvalidDepthError
from reprojkit.geometry import (CameraIntrinsics, DepthMap, PoseSE3, RenderedView,
                                ReprojectionParams)
from reprojkit.scene import TrajectorySpec, generate_trajectory, render_view


def rotation(axis, deg):
    axis = np.asarray(axis, dtype=np.float64)
    return Rotation.from_rotvec(axis / np.linalg.norm(axis) * np.radians(deg)).as_matrix()


def plane_depth(cam, pose, plane_z):
    """Analytic ray-distance map for the horizontal plane z = plane_z.

    Independent of the renderer: intersects each pixel ray with the plane
    directly. Pixels whose ray misses (parallel or hits behind) are invalid.
    """
    xs, ys = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    pts = np.stack([xs, ys], axis=-1).reshape(-1, 2).astype(np.float64)
    rays = cam.pixel_rays(pts)
    dirs = rays / np.linalg.norm(rays, axis=-1, keepdims=True)
    dirs_w = dirs @ pose.rotation.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (plane_z - pose.translation[2]) / dirs_w[:, 2]
    valid = np.isfinite(t) & (t > 1e-9)
    vals = np.where(valid, t, 0.0)
    return DepthMap(vals.reshape(cam.height, cam.width),
                    valid.reshape(cam.height, cam.width))


def flat_view(cam, pose, plane_z, index=0):
    """RenderedView of a blank image over an analytic plane-depth map."""
    img = np.zeros((cam.height, cam.width, 3), dtype=np.uint8)
    return RenderedView(img, plane_depth(cam, pose, plane_z), cam, pose, index)


def robust_depth(p: np.ndarray, depth: DepthMap, params: ReprojectionParams) -> float:
    """Depth-window stabilized ray distance at pixel ``p``.

    Looks at the valid depths inside the ``window x window`` patch
    centered on ``p`` (clipped at image borders). If the center depth is
    valid and the patch spread (max - min) does not exceed ``depth_eps``,
    the center depth is returned; otherwise the patch minimum, which
    keeps edge pixels attached to the foreground surface.
    """
    x, y = (int(v) for v in np.rint(np.asarray(p, dtype=np.float64)))
    h, w = depth.shape
    if not (0 <= x < w and 0 <= y < h):
        raise ValueError(f"pixel ({x}, {y}) outside {w}x{h} depth map")
    r = params.window // 2
    patch = depth.values[max(0, y - r):y + r + 1, max(0, x - r):x + r + 1]
    mask = depth.valid[max(0, y - r):y + r + 1, max(0, x - r):x + r + 1]
    vals = patch[mask]
    if vals.size == 0:
        raise InvalidDepthError(f"no valid depth in window around ({x}, {y})")
    vmin = float(vals.min())
    if depth.valid[y, x] and float(vals.max()) - vmin <= params.depth_eps:
        return float(depth.values[y, x])
    return vmin


def random_pose(rng, t_scale=2.0):
    R = Rotation.random(random_state=np.random.RandomState(rng.integers(2**31))).as_matrix()
    return PoseSE3(R, rng.uniform(-t_scale, t_scale, 3))


def default_cam(width=301, height=201, f=100.0):
    return CameraIntrinsics(fx=f, fy=f, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                            width=width, height=height)


@functools.cache
def rendered_frames(kind, n=8):
    """The first ``n`` frames of a rendered sequence, as a tuple of views.

    ``general`` is the builtin general scene on the default 200-frame
    orbit (160x160), ``hires`` the same scene through a 320x240 camera on
    a 40-frame line sweep, and ``plane`` the builtin plane on an 80-frame
    orbit.
    """
    if kind == "hires":
        spec, _ = load_scene("builtin:general")
        cam = CameraIntrinsics(fx=256.0, fy=256.0, cx=159.5, cy=119.5, width=320, height=240)
        traj = TrajectorySpec(kind="line", frames=40)
    else:
        spec, cam = load_scene(f"builtin:{kind}")
        traj = TrajectorySpec(frames=200 if kind == "general" else 80)
    poses = generate_trajectory(traj)[:n]
    return tuple(render_view(spec, cam, pose, index=i) for i, pose in enumerate(poses))
