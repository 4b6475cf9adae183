"""Shared fixtures-in-code for the test suite: analytic views and poses."""

import functools

import numpy as np
from scipy.spatial.transform import Rotation

from reprojkit.config import load_scene
from reprojkit.geometry import CameraIntrinsics, DepthMap, PoseSE3, RenderedView
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
