"""Deterministic ray-cast renderer for synthetic multi-view RGB-D data.

Scenes are lists of textured primitives (finite planes, axis-aligned
boxes, spheres). One ray is cast through each pixel center; the nearest
hit is shaded with the primitive's procedural texture and its Euclidean
hit distance becomes the depth value. Misses produce the background
color and an invalid depth.

Culling: a sphere or a box is intersected only with the rays that pass
within its bounding sphere (the sphere itself; for a box, the sphere of
radius ``|half_size|`` about its center) at a point ahead of the ray
origin. Every point a primitive can report as a hit lies inside that
bound, so a culled ray could only have missed. The bound's radius is
widened by ``1e-6 * (radius + |center| + distance to the origin)``. The
rounding of the cull test and of the primitive's own test is about 1e-16
of those magnitudes, so a ray that rounding puts on the surface is kept
too, and the margin can only add rays. The kept rays go through the
primitive's unchanged ``intersect``, and elementwise numpy arithmetic
does not depend on which other rays share the call, so the culled
renderer is bit-identical to intersecting every ray with every primitive.
Planes are never culled: the ground plane spans most of the view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySceneError, InvalidSpecError
from .geometry import CameraIntrinsics, DepthMap, PoseSE3, RenderedView
from .textures import _as_color

_EPS = 1e-9


def _vec3(v, what: str) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (3,) or not np.all(np.isfinite(a)):
        raise InvalidSpecError(f"{what} must be 3 finite numbers, got {v!r}")
    return a


def _unit(v) -> np.ndarray:
    v = _vec3(v, "direction")
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise InvalidSpecError("zero-length direction vector")
    return v / n


@dataclass(frozen=True)
class Plane:
    """Finite textured rectangle: origin, unit normal, half extents in meters.

    ``u_axis`` fixes the in-plane texture frame; when omitted an arbitrary
    axis orthogonal to the normal is chosen deterministically.
    """

    origin: tuple
    normal: tuple
    half_u: float
    half_v: float
    texture: int = 0
    u_axis: tuple | None = None

    def __post_init__(self):
        if not (0 < self.half_u < np.inf and 0 < self.half_v < np.inf):
            raise InvalidSpecError("plane extents must be positive and finite")
        _vec3(self.origin, "plane origin")
        n = _unit(self.normal)
        if self.u_axis is not None:
            u = _unit(self.u_axis)
            if abs(np.dot(u, n)) > 1e-9:
                raise InvalidSpecError("u_axis must be orthogonal to the plane normal")
        else:
            helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
            u = _unit(np.cross(helper, n))
        object.__setattr__(self, "normal", tuple(n))
        object.__setattr__(self, "u_axis", tuple(u))

    def bounding_sphere(self):
        """None: a plane is intersected with every ray."""
        return None

    def frame(self):
        n = np.asarray(self.normal)
        u = np.asarray(self.u_axis)
        return n, u, np.cross(n, u)

    def intersect(self, origins: np.ndarray, dirs: np.ndarray):
        n, u_ax, v_ax = self.frame()
        o = np.asarray(self.origin, dtype=np.float64)
        denom = dirs @ n
        facing = np.abs(denom) > 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((o - origins) @ n) / denom
        ts = np.where(facing, t, 0.0)
        rel = origins + dirs * ts[..., None] - o
        u, v = rel @ u_ax, rel @ v_ax
        ok = facing & (ts > _EPS) & (np.abs(u) <= self.half_u) & (np.abs(v) <= self.half_v)
        return np.where(ok, ts, np.inf), np.stack([u, v], axis=-1)


@dataclass(frozen=True)
class Box:
    """Axis-aligned textured box: center and half sizes in meters."""

    center: tuple
    half_size: tuple
    texture: int = 0

    def __post_init__(self):
        _vec3(self.center, "box center")
        hs = np.asarray(self.half_size, dtype=np.float64)
        if hs.shape != (3,) or not np.all((hs > 0) & (hs < np.inf)):
            raise InvalidSpecError("box half sizes must be 3 positive finite numbers")

    def bounding_sphere(self):
        return (np.asarray(self.center, dtype=np.float64),
                float(np.linalg.norm(np.asarray(self.half_size, dtype=np.float64))))

    def intersect(self, origins: np.ndarray, dirs: np.ndarray):
        c = np.asarray(self.center, dtype=np.float64)
        h = np.asarray(self.half_size, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (c - h - origins) / dirs
            t2 = (c + h - origins) / dirs
        tmin = np.minimum(t1, t2)
        tmax = np.maximum(t1, t2)
        tnear = np.nanmax(tmin, axis=-1)
        tfar = np.nanmin(tmax, axis=-1)
        t = np.where(tnear > _EPS, tnear, tfar)
        ok = (tnear <= tfar) & (t > _EPS)
        t = np.where(ok, t, np.inf)
        hit = origins + dirs * np.where(ok, t, 0.0)[..., None]
        # texture frame: the two coordinates of the entry face, by slab axis
        axis = np.argmax(np.where(tmin == tnear[..., None], np.abs(dirs), -np.inf), axis=-1)
        axis = np.where(tnear > _EPS, axis,
                        np.argmax(np.where(tmax == tfar[..., None], np.abs(dirs), -np.inf), axis=-1))
        rel = hit - c
        u = np.take_along_axis(rel, ((axis + 1) % 3)[..., None], axis=-1)[..., 0]
        v = np.take_along_axis(rel, ((axis + 2) % 3)[..., None], axis=-1)[..., 0]
        return t, np.stack([u, v], axis=-1)


@dataclass(frozen=True)
class Sphere:
    """Textured sphere: center and radius in meters."""

    center: tuple
    radius: float
    texture: int = 0

    def __post_init__(self):
        if not 0 < self.radius < np.inf:
            raise InvalidSpecError("sphere radius must be positive and finite")
        _vec3(self.center, "sphere center")

    def bounding_sphere(self):
        return np.asarray(self.center, dtype=np.float64), float(self.radius)

    def intersect(self, origins: np.ndarray, dirs: np.ndarray):
        oc = origins - np.asarray(self.center, dtype=np.float64)
        b = np.sum(oc * dirs, axis=-1)
        c = np.sum(oc * oc, axis=-1) - self.radius**2
        disc = b * b - c
        sq = np.sqrt(np.maximum(disc, 0.0))
        t = np.where(-b - sq > _EPS, -b - sq, -b + sq)
        ok = (disc >= 0.0) & (t > _EPS)
        t = np.where(ok, t, np.inf)
        hit = origins + dirs * np.where(ok, t, 0.0)[..., None] - np.asarray(self.center)
        with np.errstate(invalid="ignore"):
            d = hit / self.radius
            u = np.arctan2(d[..., 1], d[..., 0]) * self.radius
            v = np.arccos(np.clip(d[..., 2], -1.0, 1.0)) * self.radius
        return t, np.stack([u, v], axis=-1)


@dataclass(frozen=True)
class SceneSpec:
    """Primitives plus the texture palette they index into."""

    primitives: tuple
    textures: tuple
    background: tuple = (0.04, 0.05, 0.08)

    def __post_init__(self):
        if len(self.primitives) == 0:
            raise EmptySceneError("scene needs at least one primitive")
        if len(self.textures) == 0:
            raise InvalidSpecError("scene needs at least one texture")
        _as_color(self.background)
        for p in self.primitives:
            if not isinstance(p.texture, int) or not 0 <= p.texture < len(self.textures):
                raise InvalidSpecError(
                    f"texture id {p.texture!r} is not an index into {len(self.textures)} textures")
        object.__setattr__(self, "primitives", tuple(self.primitives))
        object.__setattr__(self, "textures", tuple(self.textures))

    def intersect(self, origins: np.ndarray, dirs: np.ndarray):
        """Nearest hit over all primitives: (t, primitive index, uv).

        ``uv`` holds the (..., 2) texture coordinates of each ray's nearest
        hit. A miss has t = inf, index -1 and uv NaN. Of two primitives hit
        at exactly the same t, the lower index wins. ``dirs`` are unit
        vectors, and ``origins`` is one point shared by every ray or one
        point per ray. Spheres and boxes see only the rays that pass within
        their bounding sphere (see the module docstring).
        """
        shape = dirs.shape[:-1]
        dirs = dirs.reshape(-1, 3)
        n = len(dirs)
        origins = np.asarray(origins, dtype=np.float64)
        if origins.ndim > 1:
            origins = np.broadcast_to(origins, (*shape, 3)).reshape(n, 3)
        t, nearest, uv = np.full(n, np.inf), np.full(n, -1), np.full((n, 2), np.nan)
        for i, prim in enumerate(self.primitives):
            bound = prim.bounding_sphere()
            rays = (slice(None) if bound is None
                    else np.flatnonzero(_passes_within(bound, origins, dirs)))
            d = dirs[rays]
            o = origins if origins.ndim == 1 else origins[rays]
            t_i, uv_i = prim.intersect(np.broadcast_to(o, d.shape), d)
            closer = t_i < t[rays]
            t[rays] = np.where(closer, t_i, t[rays])
            nearest[rays] = np.where(closer, i, nearest[rays])
            uv[rays] = np.where(closer[:, None], uv_i, uv[rays])
        return t.reshape(shape), nearest.reshape(shape), uv.reshape(*shape, 2)


def _passes_within(bound, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """True for the unit rays that come within the widened ``bound`` =
    (center, radius) at a point ahead of their origin; ``origins`` is one
    point shared by every ray or one point per ray."""
    center, radius = bound
    oc = center - origins
    if oc.ndim == 1:
        b, oo = dirs @ oc, oc @ oc
    else:
        b, oo = np.einsum("ij,ij->i", dirs, oc), np.einsum("ij,ij->i", oc, oc)
    r = radius + 1e-6 * (radius + np.linalg.norm(center) + np.sqrt(oo))
    r2 = r * r
    # oo - b^2 is the squared distance from the center to the ray's line;
    # from an origin outside the bound with b <= 0 the ray only moves away
    return (oo - b * b <= r2) & ((b > 0) | (oo <= r2))


def look_at(position, target, up=(0.0, 0.0, 1.0)) -> PoseSE3:
    """Camera-to-world pose at ``position`` with +z toward ``target``.

    Camera x points right, y down; ``up`` is the world up reference and
    must not be parallel to the viewing direction.
    """
    position = np.asarray(position, dtype=np.float64)
    f = _unit(np.asarray(target, dtype=np.float64) - position)
    upv = _unit(up)
    if abs(np.dot(f, upv)) > 1.0 - 1e-9:
        raise InvalidSpecError("viewing direction parallel to up vector")
    x = _unit(np.cross(f, upv))
    y = np.cross(f, x)
    return PoseSE3(np.column_stack([x, y, f]), position)


@dataclass(frozen=True)
class TrajectorySpec:
    """Camera path: orbit or line around/past ``center``, look-at oriented.

    ``kind`` is one of ``orbit``, ``line``, ``orbit-with-jitter``. Orbits
    place ``frames`` cameras on a circle of ``radius`` at ``height`` above
    the center, looking at it. Lines sweep laterally past the center at
    standoff ``radius``. Jitter composes each look-at pose with a random
    rotation of at most ``jitter_deg`` degrees (seeded).
    """

    kind: str = "orbit"
    center: tuple = (0.0, 0.0, 0.0)
    radius: float = 2.0
    height: float = 1.0
    frames: int = 50
    jitter_deg: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("orbit", "line", "orbit-with-jitter"):
            raise InvalidSpecError(f"unknown trajectory kind {self.kind!r}")
        if self.frames < 2:
            raise InvalidSpecError("trajectory needs at least 2 frames")
        if not self.radius > 0:
            raise InvalidSpecError("trajectory radius must be positive")
        if self.jitter_deg < 0:
            raise InvalidSpecError("trajectory jitter_deg must be nonnegative")
        if self.seed < 0:
            raise InvalidSpecError(f"trajectory seed must be >= 0, got {self.seed}")
        _vec3(self.center, "trajectory center")
        for name in ("radius", "height", "jitter_deg"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidSpecError(f"trajectory {name} must be finite, "
                                       f"got {getattr(self, name)!r}")


def _jitter_rotation(rng: np.random.Generator, max_deg: float) -> np.ndarray:
    # imported here so that only jittered trajectories load scipy
    from scipy.spatial.transform import Rotation

    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = np.radians(rng.uniform(0.0, max_deg))
    return Rotation.from_rotvec(axis * angle).as_matrix()


def generate_trajectory(spec: TrajectorySpec) -> list[PoseSE3]:
    """Deterministic list of ``spec.frames`` look-at poses."""
    center = np.asarray(spec.center, dtype=np.float64)
    rng = np.random.default_rng(spec.seed)
    positions = []
    if spec.kind in ("orbit", "orbit-with-jitter"):
        for k in range(spec.frames):
            a = 2.0 * np.pi * k / spec.frames
            positions.append(center + [spec.radius * np.cos(a),
                                       spec.radius * np.sin(a), spec.height])
    else:
        xs = np.linspace(-spec.radius, spec.radius, spec.frames)
        for x in xs:
            positions.append(center + [x, -spec.radius, spec.height])
    poses = []
    for pos in positions:
        pose = look_at(pos, center)
        if spec.kind == "orbit-with-jitter" and spec.jitter_deg > 0:
            pose = PoseSE3(pose.rotation @ _jitter_rotation(rng, spec.jitter_deg),
                           pose.translation)
        poses.append(pose)
    return poses


def render_view(scene: SceneSpec, cam: CameraIntrinsics, pose: PoseSE3,
                index: int = 0) -> RenderedView:
    """Ray-cast one frame; depth is the Euclidean distance to the hit."""
    dirs = cam.pixel_directions @ pose.rotation.T
    t, nearest, uv = scene.intersect(pose.translation, dirs)
    valid = nearest >= 0

    color = np.broadcast_to(_as_color(scene.background), dirs.shape).copy()
    for i, prim in enumerate(scene.primitives):
        mask = nearest == i
        if not mask.any():
            continue
        hit_uv = uv[mask]
        color[mask] = scene.textures[prim.texture].sample(hit_uv[:, 0], hit_uv[:, 1])

    image = np.clip(np.rint(color * 255.0), 0, 255).astype(np.uint8)
    image = image.reshape(cam.height, cam.width, 3)
    depth_vals = np.where(valid, t, 0.0).reshape(cam.height, cam.width)
    depth = DepthMap(depth_vals, valid.reshape(cam.height, cam.width))
    return RenderedView(image, depth, cam, pose, index)
