from dataclasses import asdict

import numpy as np
import pytest

from helpers import default_cam
from reprojkit.config import scene_from_dict, scene_to_dict
from reprojkit.errors import ConfigError, EmptySceneError, InvalidSpecError
from reprojkit.geometry import CameraIntrinsics, PoseSE3
from reprojkit.scene import (
    Box,
    Plane,
    SceneSpec,
    Sphere,
    TrajectorySpec,
    generate_trajectory,
    look_at,
    render_view,
)
from reprojkit.textures import CheckerTexture, NoiseTexture, StripeTexture

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
        t, idx, uvs = scene.intersect(o, d)
        assert len(uvs) == 2
        for i, prim in enumerate(scene.primitives):
            t_i, uv_i = prim.intersect(o, d)
            np.testing.assert_array_equal(uvs[i], uv_i)
            np.testing.assert_array_equal(t[idx == i], t_i[idx == i])
        assert np.all(np.isinf(t[idx == -1]))

    def test_render_is_deterministic(self):
        scene = simple_scene(Plane((0, 0, 2.0), (0, 0, -1.0), 5.0, 5.0),
                             Sphere((0.3, 0.1, 1.5), 0.4))
        a = render_view(scene, CAM, PoseSE3.identity())
        b = render_view(scene, CAM, PoseSE3.identity())
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.depth.values, b.depth.values)


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

    def test_look_at_straight_down_degenerate(self):
        with pytest.raises(InvalidSpecError):
            look_at([0, 0, 2.0], [0, 0, 0.0])


class TestSceneSpec:
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
