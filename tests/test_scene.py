import hashlib
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from helpers import default_cam
from reprojkit import scene as scene_module
from reprojkit.config import load_scene, scene_from_dict, scene_to_dict
from reprojkit.errors import ConfigError, EmptySceneError, InvalidSpecError
from reprojkit.geometry import CameraIntrinsics, PoseSE3
from reprojkit.scene import (
    Box,
    Plane,
    SceneSpec,
    Sphere,
    TrajectorySpec,
    _bands,
    _jitter_rotation,
    _rotvec_matrix,
    generate_trajectory,
    look_at,
    render_view,
)
from reprojkit.textures import (CheckerTexture, NoiseTexture, StripeTexture, _as_color,
                                _lattice_hash)

CAM = default_cam(width=81, height=61, f=60.0)
CHECKER = CheckerTexture(scale=0.1)


def simple_scene(*prims):
    return SceneSpec(tuple(prims), (CHECKER,))


# independent ray-surface solvers used as oracles (different construction
# from the renderer: scalar z-plane solve, per-axis slab loop, quadratic)

def oracle_rays(cam, pose):
    xs, ys = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    p = np.stack([xs, ys], axis=-1).reshape(-1, 2).astype(np.float64)
    r = np.stack([(p[:, 0] - cam.cx) / cam.fx, (p[:, 1] - cam.cy) / cam.fy,
                  np.ones(len(p))], axis=-1)
    d = r / np.linalg.norm(r, axis=-1, keepdims=True)
    return pose.translation, d @ pose.rotation.T


def oracle_zplane(o, d, z0):
    t = np.full(d.shape[0], np.inf)
    m = np.abs(d[:, 2]) > 1e-12
    cand = (z0 - o[2]) / d[m, 2]
    t[m] = np.where(cand > 1e-9, cand, np.inf)
    return t


def oracle_box(o, d, lo, hi):
    tn = np.full(d.shape[0], -np.inf)
    tf = np.full(d.shape[0], np.inf)
    ok = np.ones(d.shape[0], dtype=bool)
    for ax in range(3):
        par = np.abs(d[:, ax]) < 1e-15
        ok &= ~par | ((o[ax] >= lo[ax]) & (o[ax] <= hi[ax]))
        with np.errstate(divide="ignore"):
            a = (lo[ax] - o[ax]) / d[:, ax]
            b = (hi[ax] - o[ax]) / d[:, ax]
        tn = np.where(par, tn, np.maximum(tn, np.minimum(a, b)))
        tf = np.where(par, tf, np.minimum(tf, np.maximum(a, b)))
    t = np.where(tn > 1e-9, tn, tf)
    return np.where(ok & (tn <= tf) & (t > 1e-9), t, np.inf)


def oracle_sphere(o, d, c, r):
    oc = o - np.asarray(c)
    b = d @ oc
    disc = b * b - (oc @ oc - r * r)
    sq = np.sqrt(np.maximum(disc, 0.0))
    t = np.where(-b - sq > 1e-9, -b - sq, -b + sq)
    return np.where((disc >= 0) & (t > 1e-9), t, np.inf)


class TestRenderDepth:
    def test_fronto_parallel_plane(self):
        scene = simple_scene(Plane((0, 0, 2.0), (0, 0, -1.0), 50.0, 50.0))
        view = render_view(scene, CAM, PoseSE3.identity())
        assert view.depth.valid.all()
        assert np.all(view.depth.values >= 2.0 - 1e-12)
        assert view.depth.values[30, 40] == pytest.approx(2.0, abs=1e-12)  # (cx, cy)

    def test_off_center_plane_depth_is_ray_scaled(self):
        scene = simple_scene(Plane((0, 0, 2.0), (0, 0, -1.0), 50.0, 50.0))
        view = render_view(scene, CAM, PoseSE3.identity())
        for x, y in [(0, 0), (7, 55), (80, 13)]:
            pc = np.array([(x - CAM.cx) / CAM.fx, (y - CAM.cy) / CAM.fy, 1.0])
            expect = 2.0 * np.linalg.norm(pc) / pc[2]
            assert view.depth.values[y, x] == pytest.approx(expect, abs=1e-12)

    def test_axial_sphere_depth(self):
        scene = simple_scene(Sphere((0, 0, 3.0), 1.0))
        view = render_view(scene, CAM, PoseSE3.identity())
        assert view.depth.values[30, 40] == pytest.approx(2.0, abs=1e-12)

    def test_two_overlapping_boxes_take_nearest(self):
        b1 = Box((0.0, 0.0, 3.0), (0.6, 0.6, 0.6))
        b2 = Box((0.3, 0.1, 2.6), (0.5, 0.5, 0.5))
        view = render_view(SceneSpec((b1, b2), (CHECKER,)), CAM, PoseSE3.identity())
        o, d = oracle_rays(CAM, PoseSE3.identity())
        t1 = oracle_box(o, d, np.array([-0.6, -0.6, 2.4]), np.array([0.6, 0.6, 3.6]))
        t2 = oracle_box(o, d, np.array([-0.2, -0.4, 2.1]), np.array([0.8, 0.6, 3.1]))
        t = np.minimum(t1, t2).reshape(61, 81)
        hit = np.isfinite(t)
        np.testing.assert_array_equal(view.depth.valid, hit)
        np.testing.assert_allclose(view.depth.values[hit], t[hit], atol=1e-9)

    def test_mixed_scene_matches_analytic_intersections(self):
        scene = SceneSpec(
            (Plane((0, 0, 0.0), (0, 0, 1.0), 100.0, 100.0, texture=0),
             Box((0.3, 0.0, 0.3), (0.3, 0.3, 0.3), texture=1),
             Sphere((-0.5, 0.2, 0.4), 0.35, texture=2)),
            (CheckerTexture(0.1), StripeTexture(0.05), NoiseTexture(0.08)))
        pose = look_at([1.6, -1.2, 1.4], [0.0, 0.0, 0.2])
        view = render_view(scene, CAM, pose)
        o, d = oracle_rays(CAM, pose)
        t = np.minimum.reduce([
            oracle_zplane(o, d, 0.0),
            oracle_box(o, d, np.array([0.0, -0.3, 0.0]), np.array([0.6, 0.3, 0.6])),
            oracle_sphere(o, d, [-0.5, 0.2, 0.4], 0.35),
        ]).reshape(61, 81)
        hit = np.isfinite(t)
        np.testing.assert_array_equal(view.depth.valid, hit)
        assert np.abs(view.depth.values[hit] - t[hit]).max() < 1e-5

    def test_miss_pixels_use_background_and_invalid_depth(self):
        scene = SceneSpec((Sphere((0, 0, 3.0), 0.3),), (CHECKER,), background=(0.2, 0.4, 0.6))
        view = render_view(scene, CAM, PoseSE3.identity())
        assert not view.depth.valid[0, 0]
        np.testing.assert_array_equal(view.image[0, 0], np.rint(np.array([0.2, 0.4, 0.6]) * 255))

    def test_intersect_returns_each_primitives_uv(self):
        scene = simple_scene(Plane((0, 0, 2.0), (0, 0, -1.0), 5.0, 5.0),
                             Sphere((0.3, 0.1, 1.5), 0.4))
        o, d = oracle_rays(CAM, PoseSE3.identity())
        t, idx, uv = scene.intersect(o, d)
        assert uv.shape == (len(d), 2)
        assert set(np.unique(idx)) == {0, 1}
        for i, prim in enumerate(scene.primitives):
            t_i, uv_i = prim.intersect(o, d)
            np.testing.assert_array_equal(uv[idx == i], uv_i[idx == i])
            np.testing.assert_array_equal(t[idx == i], t_i[idx == i])
        assert np.all(np.isinf(t[idx == -1]))
        assert np.all(np.isnan(uv[idx == -1]))

    def test_render_is_deterministic(self):
        scene = simple_scene(Plane((0, 0, 2.0), (0, 0, -1.0), 5.0, 5.0),
                             Sphere((0.3, 0.1, 1.5), 0.4))
        a = render_view(scene, CAM, PoseSE3.identity())
        b = render_view(scene, CAM, PoseSE3.identity())
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.depth.values, b.depth.values)


# The renderer before culling, kept as the oracle the culled one must match
# bit for bit: every ray against every primitive, then the first argmin.

def full_ray_intersect(scene, origins, dirs):
    hits = [p.intersect(origins, dirs) for p in scene.primitives]
    ts = np.stack([t for t, _ in hits], axis=0)
    idx = np.argmin(ts, axis=0)
    t = np.take_along_axis(ts, idx[None], axis=0)[0]
    return t, np.where(np.isfinite(t), idx, -1), [uv for _, uv in hits]


def full_ray_render(scene, cam, pose):
    xs, ys = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    pix = np.stack([xs, ys], axis=-1).reshape(-1, 2).astype(np.float64)
    rays = cam.pixel_rays(pix)
    dirs = rays / np.linalg.norm(rays, axis=-1, keepdims=True)
    dirs = dirs @ pose.rotation.T
    origins = np.broadcast_to(pose.translation, dirs.shape)
    t, nearest, uvs = full_ray_intersect(scene, origins, dirs)
    valid = nearest >= 0
    color = np.broadcast_to(_as_color(scene.background), (pix.shape[0], 3)).copy()
    for i, prim in enumerate(scene.primitives):
        mask = nearest == i
        if not mask.any():
            continue
        uv = uvs[i][mask]
        color[mask] = scene.textures[prim.texture].sample(uv[:, 0], uv[:, 1])
    image = np.clip(np.rint(color * 255.0), 0, 255).astype(np.uint8)
    return (image.reshape(cam.height, cam.width, 3),
            np.where(valid, t, 0.0).reshape(cam.height, cam.width),
            valid.reshape(cam.height, cam.width))


def assert_renders_like_full_ray(scene, cam, pose):
    view = render_view(scene, cam, pose)
    image, depth, valid = full_ray_render(scene, cam, pose)
    np.testing.assert_array_equal(view.image, image)
    np.testing.assert_array_equal(view.depth.values, depth)
    np.testing.assert_array_equal(view.depth.valid, valid)
    return view


def assert_intersects_like_full_ray(scene, origins, dirs):
    """Per-ray origins and one shared origin both match the full-ray oracle."""
    t0, idx0, uvs = full_ray_intersect(scene, np.broadcast_to(origins, dirs.shape), dirs)
    for o in (origins, np.tile(origins, (len(dirs), 1))):
        t, idx, uv = scene.intersect(o, dirs)
        np.testing.assert_array_equal(t, t0)
        np.testing.assert_array_equal(idx, idx0)
        for i in range(len(scene.primitives)):
            np.testing.assert_array_equal(uv[idx == i], uvs[i][idx0 == i])
    return idx0


GENERAL_SCENE, GENERAL_CAM = load_scene("builtin:general")
PLANE_SCENE, PLANE_CAM = load_scene("builtin:plane")
HIRES_CAM = CameraIntrinsics(fx=256.0, fy=256.0, cx=159.5, cy=119.5, width=320, height=240)
SPHERE, _, BOX = GENERAL_SCENE.primitives[1:]


def _poses(spec, picks):
    poses = generate_trajectory(spec)
    return [poses[k] for k in picks]


class TestCulledRendererMatchesFullRay:
    @pytest.mark.parametrize("k", range(4))
    def test_general_orbit(self, k):
        pose = _poses(TrajectorySpec(frames=200), (0, 37, 111, 163))[k]
        assert_renders_like_full_ray(GENERAL_SCENE, GENERAL_CAM, pose)

    @pytest.mark.parametrize("k", range(3))
    def test_hires_line(self, k):
        # several bands at the default _BAND
        assert len(list(_bands(HIRES_CAM.width * HIRES_CAM.height))) > 1
        pose = _poses(TrajectorySpec(kind="line", frames=40), (0, 19, 39))[k]
        assert_renders_like_full_ray(GENERAL_SCENE, HIRES_CAM, pose)

    @pytest.mark.parametrize("k", range(2))
    def test_builtin_plane(self, k):
        pose = _poses(TrajectorySpec(frames=80), (0, 41))[k]
        assert_renders_like_full_ray(PLANE_SCENE, PLANE_CAM, pose)

    def test_jittered_orbit(self):
        spec = TrajectorySpec(kind="orbit-with-jitter", frames=200, jitter_deg=2.0, seed=1)
        for pose in _poses(spec, (5, 150)):
            assert_renders_like_full_ray(GENERAL_SCENE, GENERAL_CAM, pose)

    @pytest.mark.parametrize("where", ["sphere center", "inside sphere near surface",
                                       "box center", "inside box bound, outside box"])
    def test_camera_inside_a_bound(self, where):
        position = {"sphere center": SPHERE.center,
                    "inside sphere near surface": (0.35, 0.0, 0.599),
                    "box center": BOX.center,
                    "inside box bound, outside box": (0.14, -0.5, 0.15)}[where]
        assert_renders_like_full_ray(GENERAL_SCENE, GENERAL_CAM,
                                     look_at(position, (1.0, 1.0, 0.1)))

    def test_primitives_behind_the_camera(self):
        # the spheres and the box are behind; only the ground is in view
        view = assert_renders_like_full_ray(GENERAL_SCENE, GENERAL_CAM,
                                            look_at((1.5, 0.0, 0.4), (4.0, 0.0, 0.0)))
        assert view.depth.valid.any()

    def test_all_miss_view(self):
        scene = SceneSpec(GENERAL_SCENE.primitives[1:], GENERAL_SCENE.textures)
        view = assert_renders_like_full_ray(scene, GENERAL_CAM,
                                            look_at((2.0, 0.0, 0.3), (4.0, 0.5, 0.6)))
        assert not view.depth.valid.any()

    def test_non_square_camera(self):
        cam = CameraIntrinsics(fx=40.0, fy=40.0, cx=30.0, cy=20.0, width=61, height=41)
        for pose in _poses(TrajectorySpec(frames=200), (0, 90)):
            assert_renders_like_full_ray(GENERAL_SCENE, cam, pose)

    def test_random_poses_near_and_inside_the_objects(self):
        cam = CameraIntrinsics(fx=40.0, fy=40.0, cx=30.0, cy=20.0, width=61, height=41)
        rng = np.random.default_rng(3)
        for _ in range(30):
            position = rng.uniform([-0.8, -0.8, 0.05], [0.8, 0.8, 1.0])
            target = rng.uniform([-1.0, -1.0, -0.5], [1.0, 1.0, 1.0])
            forward = target - position
            if abs(forward[2]) > 0.99 * np.linalg.norm(forward):
                continue  # look_at needs a view direction away from up
            assert_renders_like_full_ray(GENERAL_SCENE, cam, look_at(position, target))

    def test_equal_t_keeps_the_lower_index(self):
        twins = (Sphere((0, 0, 3.0), 1.0, texture=1), Sphere((0, 0, 3.0), 1.0, texture=0),
                 Box((0, 0, 6.0), (0.5, 0.5, 0.5), texture=1),
                 Box((0, 0, 6.0), (0.5, 0.5, 0.5), texture=0))
        scene = SceneSpec(twins, (CHECKER, StripeTexture(0.05)))
        view = assert_renders_like_full_ray(scene, CAM, PoseSE3.identity())
        assert view.depth.valid.any()
        o, d = oracle_rays(CAM, PoseSE3.identity())
        _, idx, _ = scene.intersect(o, d)
        assert set(np.unique(idx)) == {-1, 0}

    @pytest.mark.parametrize("distance,step", [(3.0, 1e-16), (1e4, 1e-13)])
    def test_tangent_rays(self, distance, step):
        # rays whose line passes within rounding error of the sphere's
        # surface; from far away that error is large enough that an
        # unwidened bound culls rays the sphere's own test calls hits
        scene = simple_scene(Sphere((0.0, 0.0, distance), 1.0))
        theta = np.arcsin(1.0 / distance) + np.arange(-40, 41)[:, None] * step
        phi = np.linspace(0.0, 2.0 * np.pi, 37)[None, :]
        d = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                      np.cos(theta) * np.ones_like(phi)], axis=-1).reshape(-1, 3)
        idx = assert_intersects_like_full_ray(scene, np.zeros(3), d)
        assert 0 < (idx == 0).sum() < len(idx)

    @pytest.mark.parametrize("kind", ["sphere", "box"])
    def test_grazing_rays_at_any_scale(self, kind):
        # origins and objects from 1 to 1e6 apart and off the world origin,
        # rays aimed at the surface (a box's corners) with tiny offsets: an
        # unwidened bound culls some rays that the primitive's test hits
        rng = np.random.default_rng(1)
        for _ in range(40):
            origin = rng.normal(size=3) * 10 ** rng.uniform(0, 3)
            axis = rng.normal(size=3)
            distance, radius = 10 ** rng.uniform(0, 6), 10 ** rng.uniform(-2, 0.5)
            center = origin + axis / np.linalg.norm(axis) * max(distance, 2 * radius)
            aim = rng.normal(size=(500, 3))
            if kind == "sphere":
                prim = Sphere(tuple(center), radius)
                aim = center + radius * aim / np.linalg.norm(aim, axis=-1, keepdims=True)
            else:
                prim = Box(tuple(center), tuple(rng.uniform(0.2, 1.0, 3) * radius))
                aim = center + np.sign(aim) * np.asarray(prim.half_size)
            aim += rng.normal(size=aim.shape) * 10 ** rng.uniform(-16, -10) * np.abs(aim).max()
            d = aim - origin
            d /= np.linalg.norm(d, axis=-1, keepdims=True)
            assert_intersects_like_full_ray(simple_scene(prim), origin, d)

    def test_rays_through_box_corners(self):
        box = Box((0.2, -0.1, 3.0), (0.5, 0.4, 0.3))
        scene = simple_scene(box)
        origin = np.array([0.1, -0.2, 0.0])
        signs = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).reshape(3, -1).T
        corners = np.asarray(box.center) + signs * np.asarray(box.half_size)
        rng = np.random.default_rng(0)
        aims = (corners[:, None, :] + rng.normal(scale=1e-15, size=(8, 200, 3))).reshape(-1, 3)
        d = aims - origin
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        idx = assert_intersects_like_full_ray(scene, origin, d)
        assert 0 < (idx == 0).sum() < len(idx)


class TestBands:
    SMALL_CAM = CameraIntrinsics(fx=40.0, fy=40.0, cx=30.0, cy=20.0, width=61, height=41)

    @pytest.mark.parametrize("band", [2, 7, 100, 2500, 2501, 4096])
    def test_band_edges(self, monkeypatch, band):
        # 2,501 rays: bands of 100 and of 2500 leave a one-ray tail to merge
        monkeypatch.setattr(scene_module, "_BAND", band)
        for pose in _poses(TrajectorySpec(frames=200), (0, 90)):
            assert_renders_like_full_ray(GENERAL_SCENE, self.SMALL_CAM, pose)

    def test_one_ray_tail_pointed_at_the_sphere(self, monkeypatch):
        # the last pixel sees the sphere, whose hit depends on every bit of
        # the ray; on some BLAS builds a one-row rotation rounds it
        # differently from the same row in a larger product
        monkeypatch.setattr(scene_module, "_BAND", 100)
        cam = CameraIntrinsics(fx=40.0, fy=40.0, cx=57.0, cy=38.0, width=61, height=41)
        spec = TrajectorySpec(frames=200, center=SPHERE.center)
        for pose in _poses(spec, (34, 129, 171)):
            view = assert_renders_like_full_ray(GENERAL_SCENE, cam, pose)
            assert view.depth.valid[-1, -1]

    @pytest.mark.parametrize("band", [2, 3, 100, 2500])
    @pytest.mark.parametrize("n", [1, 2, 3, 99, 100, 101, 2500, 2501, 2502])
    def test_bands_cover_the_frame_without_one_ray_bands(self, monkeypatch, band, n):
        monkeypatch.setattr(scene_module, "_BAND", band)
        bands = list(_bands(n))
        assert bands[0][0] == 0 and bands[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bands, bands[1:]))
        sizes = [hi - lo for lo, hi in bands]
        assert all(1 < k <= band + 1 or n == 1 for k in sizes), sizes
        assert sum(k > band for k in sizes) <= 1

    def test_one_pixel_camera(self):
        cam = CameraIntrinsics(fx=2.0, fy=2.0, cx=0.5, cy=0.5, width=1, height=1)
        for pose in _poses(TrajectorySpec(frames=200), (0, 90)):
            view = assert_renders_like_full_ray(GENERAL_SCENE, cam, pose)
            assert view.depth.valid.all()

    @pytest.mark.parametrize("size", [(320, 240), (1280, 960)])
    def test_scratch_memory_does_not_grow_with_the_frame(self, size):
        width, height = size
        cam = CameraIntrinsics(fx=0.8 * width, fy=0.8 * width, cx=(width - 1) / 2,
                               cy=(height - 1) / 2, width=width, height=height)
        pose = generate_trajectory(TrajectorySpec(frames=200))[0]
        cam.pixel_directions  # the camera's cached rays are not render scratch
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            view = render_view(GENERAL_SCENE, cam, pose)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        frame = view.image.nbytes + view.depth.values.nbytes + view.depth.valid.nbytes
        assert peak - frame < 8e6, (peak, frame)


class TestCulling:
    def test_default_orbit_frame_0_casts_few_rays_at_spheres_and_boxes(self, monkeypatch):
        # each sphere and box is called at most once per band, and over the
        # frame's bands it sees few of the frame's rays
        rays = {}
        for cls in (Sphere, Box):
            def counting(self, origins, dirs, real=cls.intersect):
                rays.setdefault(self, []).append(len(dirs))
                return real(self, origins, dirs)
            monkeypatch.setattr(cls, "intersect", counting)
        pose = generate_trajectory(TrajectorySpec(frames=200))[0]
        render_view(GENERAL_SCENE, GENERAL_CAM, pose)
        n = GENERAL_CAM.width * GENERAL_CAM.height
        culled = [p for p in GENERAL_SCENE.primitives if not isinstance(p, Plane)]
        assert len(culled) == 3 and set(rays) == set(culled)
        n_bands = len(list(_bands(n)))
        assert all(len(k) <= n_bands for k in rays.values()), rays
        assert all(0 < sum(k) < 0.1 * n for k in rays.values()), rays

    def test_pixel_directions_are_computed_once_per_camera(self, monkeypatch):
        cam = CameraIntrinsics(fx=40.0, fy=40.0, cx=30.0, cy=20.0, width=61, height=41)
        calls = []
        real = CameraIntrinsics.pixel_rays
        monkeypatch.setattr(CameraIntrinsics, "pixel_rays",
                            lambda self, p: calls.append(1) or real(self, p))
        for pose in _poses(TrajectorySpec(frames=200), (0, 1, 2)):
            render_view(GENERAL_SCENE, cam, pose)
        assert len(calls) == 1
        dirs = cam.pixel_directions
        assert dirs.shape == (41 * 61, 3) and not dirs.flags.writeable
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-15)

    def test_pixel_directions_under_concurrent_first_use(self):
        # synth renders in a thread pool, so several threads may fill the
        # cache at once; each must get the same read-only directions
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                cam = CameraIntrinsics(fx=40.0, fy=40.0, cx=30.0, cy=20.0, width=61, height=41)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(pool.map(lambda _: cam.pixel_directions, range(32), timeout=60))
                for dirs in got:
                    assert not dirs.flags.writeable
                    np.testing.assert_array_equal(dirs, got[0])
                assert cam.pixel_directions is cam.pixel_directions
        finally:
            sys.setswitchinterval(interval)


class TestTextures:
    def test_checker_parity(self):
        tex = CheckerTexture(scale=0.1, color1=(1, 1, 1), color2=(0, 0, 0))
        got = tex.sample(np.array([0.05, 0.15, -0.05]), np.array([0.05, 0.05, 0.05]))
        np.testing.assert_array_equal(got[0], [1, 1, 1])
        np.testing.assert_array_equal(got[1], [0, 0, 0])
        np.testing.assert_array_equal(got[2], [0, 0, 0])  # floor(-0.5) = -1, odd

    def test_stripes_ignore_v(self):
        tex = StripeTexture(scale=0.05, color1=(1, 0, 0), color2=(0, 1, 0))
        a = tex.sample(np.array([0.02]), np.array([0.0]))
        b = tex.sample(np.array([0.02]), np.array([7.3]))
        np.testing.assert_array_equal(a, b)

    def test_noise_is_deterministic_and_bounded(self):
        tex = NoiseTexture(scale=0.08, color1=(0, 0, 0), color2=(1, 1, 1), seed=3)
        u = np.linspace(-2, 2, 200)
        v = np.linspace(-1, 3, 200)
        a = tex.sample(u, v)
        b = tex.sample(u, v)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert a.std() > 0.01  # actually varies

    def test_noise_seed_changes_field(self):
        u = np.linspace(0, 1, 50)
        a = NoiseTexture(seed=1).sample(u, u)
        b = NoiseTexture(seed=2).sample(u, u)
        assert np.abs(a - b).max() > 1e-3

    def test_lattice_hash_wraps_seed_product_without_warning(self):
        # splitmix-style hash in Python ints, each product reduced mod 2**64
        def oracle(x, y, seed):
            mask = (1 << 64) - 1
            h = (x * 0x9E3779B97F4A7C15 + y * 0xC2B2AE3D27D4EB4F
                 + seed * 0x165667B19E3779F9) & mask
            h ^= h >> 30
            h = h * 0xBF58476D1CE4E5B9 & mask
            h ^= h >> 27
            h = h * 0x94D049BB133111EB & mask
            h ^= h >> 31
            return (h >> 11) / float(1 << 53)

        ix = np.array([-3, 0, 1, 7, 2**40])
        iy = np.array([5, 0, -1, 2**33, 9])
        for seed in range(64):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _lattice_hash(ix, iy, seed)
            want = [oracle(int(x) % 2**64, int(y) % 2**64, seed) for x, y in zip(ix, iy)]
            assert got.tolist() == want, seed


class TestTrajectories:
    def test_orbit_symmetry(self):
        spec = TrajectorySpec(kind="orbit", center=(0, 0, 0), radius=1.0, height=0.8, frames=4)
        poses = generate_trajectory(spec)
        got = np.array([p.translation for p in poses])
        expect = np.array([[1, 0, 0.8], [0, 1, 0.8], [-1, 0, 0.8], [0, -1, 0.8]])
        np.testing.assert_allclose(got, expect, atol=1e-12)
        for p in poses:
            fwd = p.rotation[:, 2]
            np.testing.assert_allclose(fwd, -p.translation / np.linalg.norm(p.translation),
                                       atol=1e-12)

    def test_deterministic_under_seed(self):
        spec = TrajectorySpec(kind="orbit-with-jitter", radius=2.0, height=1.0,
                              frames=8, jitter_deg=3.0, seed=42)
        a = generate_trajectory(spec)
        b = generate_trajectory(spec)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.rotation, pb.rotation)
            np.testing.assert_array_equal(pa.translation, pb.translation)

    def test_jitter_bound_respected(self):
        base = TrajectorySpec(kind="orbit", radius=2.0, height=1.0, frames=12)
        jit = TrajectorySpec(kind="orbit-with-jitter", radius=2.0, height=1.0,
                             frames=12, jitter_deg=2.0, seed=9)
        for p0, p1 in zip(generate_trajectory(base), generate_trajectory(jit)):
            rel = p0.rotation.T @ p1.rotation
            ang = np.degrees(np.arccos(np.clip((np.trace(rel) - 1) / 2, -1, 1)))
            assert ang <= 2.0 + 1e-9

    def test_consecutive_spacing_bound(self):
        for kind in ("orbit", "line"):
            spec = TrajectorySpec(kind=kind, radius=1.5, height=1.0, frames=25)
            poses = generate_trajectory(spec)
            centers = np.array([p.translation for p in poses])
            gaps = np.linalg.norm(np.diff(centers, axis=0), axis=1)
            assert gaps.max() <= 2 * np.pi * 1.5 / 25 * 1.5

    def test_bad_specs_rejected(self):
        with pytest.raises(InvalidSpecError):
            TrajectorySpec(kind="spiral")
        with pytest.raises(InvalidSpecError):
            TrajectorySpec(radius=0.0)
        with pytest.raises(InvalidSpecError):
            TrajectorySpec(frames=1)
        # only orbit-with-jitter reads jitter_deg
        for kind in ("orbit", "line"):
            with pytest.raises(InvalidSpecError, match="orbit-with-jitter"):
                TrajectorySpec(kind=kind, jitter_deg=2.0)

    @pytest.mark.parametrize("kw", [
        {"center": (0.0, 0.0)}, {"center": ()}, {"center": (0.0, 0.0, 0.0, 0.0)},
        {"center": (0.0, np.nan, 0.0)}, {"center": (np.inf, 0.0, 0.0)},
        {"radius": np.inf}, {"height": np.inf}, {"height": -np.inf}, {"height": np.nan},
        {"jitter_deg": np.inf}, {"jitter_deg": np.nan},
    ])
    def test_center_and_sizes_must_be_finite(self, kw):
        with pytest.raises(InvalidSpecError):
            TrajectorySpec(**kw)

    def test_finite_legal_values_accepted(self):
        spec = TrajectorySpec(center=[1, -2, 0.5], height=-0.5, jitter_deg=0.0)
        assert spec.center == [1, -2, 0.5]

    def test_look_at_straight_down_degenerate(self):
        with pytest.raises(InvalidSpecError):
            look_at([0, 0, 2.0], [0, 0, 0.0])


class TestJitterRotation:
    """The numpy rotation of jittered orbits equals scipy's to the bit."""

    @staticmethod
    def scipy_matrix(rotvec):
        from scipy.spatial.transform import Rotation
        return Rotation.from_rotvec(rotvec).as_matrix()

    @pytest.mark.parametrize("angle", [0.0, 1e-300, np.nextafter(1e-3, 0.0), 1e-3,
                                       np.nextafter(1e-3, 1.0), 0.5, np.pi, 3.5])
    def test_angles_at_and_about_the_series_switch(self, angle):
        for axis in ([1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.6, -0.8, 0.0]):
            rotvec = np.array(axis) * angle
            got = _rotvec_matrix(rotvec)
            assert got.tobytes() == self.scipy_matrix(rotvec).tobytes(), (axis, angle)

    @pytest.mark.parametrize("max_deg", [0.05, 2.0, 30.0, 180.0])
    def test_random_rotation_vectors(self, max_deg):
        # 0.05 degrees keeps every angle on the series branch (<= 1e-3 rad);
        # 2 degrees and more put most of them on the sine branch
        rng = np.random.default_rng(int(max_deg * 100))
        for _ in range(500):
            axis = rng.normal(size=3)
            rotvec = axis / np.linalg.norm(axis) * np.radians(rng.uniform(0.0, max_deg))
            got = _rotvec_matrix(rotvec)
            assert got.tobytes() == self.scipy_matrix(rotvec).tobytes(), rotvec

    def test_jitter_rotation_draws_and_matches_scipy(self):
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(200):
            axis = twin.normal(size=3)
            axis /= np.linalg.norm(axis)
            want = self.scipy_matrix(axis * np.radians(twin.uniform(0.0, 2.0)))
            assert _jitter_rotation(rng, 2.0).tobytes() == want.tobytes()

    def test_golden_jittered_orbit(self):
        # sha256 of the poses computed with scipy 1.17.1's Rotation; a change
        # of this hash moves every jittered dataset
        spec = TrajectorySpec(kind="orbit-with-jitter", frames=200, jitter_deg=2.0, seed=1)
        poses = np.stack([p.matrix for p in generate_trajectory(spec)])
        assert hashlib.sha256(poses.tobytes()).hexdigest() == (
            "2725dbcafafecb60fb64f14b20f717729572fc0e58d37178005d73e2bebec3cd")


class TestSceneSpec:
    @pytest.mark.parametrize("make", [
        lambda x: Sphere((0, 0, 2), x),
        lambda x: Box((0, 0, 2), (0.5, x, 0.5)),
        lambda x: Plane((0, 0, 0), (0, 0, 1), x, 1.0),
        lambda x: Plane((0, 0, 0), (0, 0, 1), 1.0, x),
    ], ids=["sphere radius", "box half size", "plane half_u", "plane half_v"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0])
    def test_non_finite_or_non_positive_sizes_rejected(self, make, bad):
        with pytest.raises(InvalidSpecError):
            make(bad)

    def test_requires_primitives_and_valid_texture_ids(self):
        with pytest.raises(EmptySceneError):
            SceneSpec((), (CHECKER,))
        with pytest.raises(InvalidSpecError):
            SceneSpec((Sphere((0, 0, 2), 1.0, texture=3),), (CHECKER,))

    def test_dict_round_trip(self):
        scene = SceneSpec(
            (Plane((0, 0, 0.0), (0, 0, 1.0), 4.0, 3.0, texture=0),
             Box((1, 2, 3), (0.5, 0.4, 0.3), texture=1),
             Sphere((0, -1, 2), 0.7, texture=2)),
            (CheckerTexture(0.1), StripeTexture(0.05), NoiseTexture(0.08, seed=5)),
            background=(0.1, 0.2, 0.3))
        again, _ = scene_from_dict(scene_to_dict(scene, CAM))
        assert again == scene

    def test_malformed_dict_rejected(self):
        camera = asdict(CAM)
        with pytest.raises(ConfigError, match="malformed scene"):
            scene_from_dict({"camera": camera, "primitives": [{"kind": "torus"}],
                             "textures": []})
        bad_box = {"kind": "box", "center": [0, 0, 0], "half_size": ["a", "b", "c"]}
        with pytest.raises(ConfigError, match="malformed scene"):
            scene_from_dict({"camera": camera, "primitives": [bad_box],
                             "textures": [{"kind": "checker"}]})
