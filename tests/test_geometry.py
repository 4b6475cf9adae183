import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    default_cam,
    flat_view,
    plane_depth,
    project,
    random_pose,
    rendered_frames,
    robust_depth,
    rotation,
)
from reprojkit.errors import InvalidDepthError
from reprojkit.geometry import (
    CameraIntrinsics,
    DepthMap,
    PoseSE3,
    RejectReason,
    RenderedView,
    ReprojectionParams,
    _land_points,
    _lift_points,
    _window_extreme,
    apply_homography,
    backproject,
    relative_pose,
    reproject_points,
    robust_depth_map,
)

CAM = default_cam()  # 301x201, f=100, principal point (150, 100)


class TestBackproject:
    def test_principal_point_ray_is_optical_axis(self):
        P = backproject(np.array([150.0, 100.0]), 2.0, CAM, PoseSE3.identity())
        np.testing.assert_allclose(P, [0.0, 0.0, 2.0], atol=1e-12)

    def test_unit_offset_pixel(self):
        # p_c = (1, 0, 1), unit direction (1,0,1)/sqrt(2), scaled by sqrt(2)
        P = backproject(np.array([250.0, 100.0]), np.sqrt(2.0), CAM, PoseSE3.identity())
        np.testing.assert_allclose(P, [1.0, 0.0, 1.0], atol=1e-12)

    def test_rejects_bad_depth(self):
        for d in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidDepthError):
                backproject(np.array([150.0, 100.0]), d, CAM, PoseSE3.identity())

    def test_distance_from_center_equals_d(self):
        rng = np.random.default_rng(7)
        pose = random_pose(rng)
        p = np.array([33.0, 181.0])
        P = backproject(p, 5.0, CAM, pose)
        assert np.linalg.norm(P - pose.translation) == pytest.approx(5.0, abs=1e-12)


class TestProject:
    def test_inverse_of_principal_backprojection(self):
        pix, z = project(np.array([0.0, 0.0, 2.0]), CAM, PoseSE3.identity())
        np.testing.assert_allclose(pix, [150.0, 100.0], atol=1e-12)
        assert z == pytest.approx(2.0)

    def test_round_trip_batch(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cam = CameraIntrinsics(
                fx=rng.uniform(50, 500), fy=rng.uniform(50, 500),
                cx=rng.uniform(10, 290), cy=rng.uniform(10, 190),
                width=301, height=201)
            pose = random_pose(rng)
            p = np.column_stack([rng.uniform(0, 300, 50), rng.uniform(0, 200, 50)])
            d = rng.uniform(0.1, 20.0, 50)
            pix, z = project(backproject(p, d, cam, pose), cam, pose)
            np.testing.assert_allclose(pix, p, atol=1e-6)
            # recovered z is d scaled by the ray's z-component
            rays = cam.pixel_rays(p)
            np.testing.assert_allclose(z, d / np.linalg.norm(rays, axis=-1), atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(0.0, 300.0), y=st.floats(0.0, 200.0),
           d=st.floats(0.05, 50.0), seed=st.integers(0, 2**31 - 1))
    def test_round_trip_property(self, x, y, d, seed):
        pose = random_pose(np.random.default_rng(seed))
        pix, _ = project(backproject(np.array([x, y]), d, CAM, pose), CAM, pose)
        np.testing.assert_allclose(pix, [x, y], atol=1e-6)


def scipy_robust_depth_map(depth, params):
    """Oracle: ``robust_depth_map`` on ``scipy.ndimage``'s window filters."""
    from scipy.ndimage import maximum_filter, minimum_filter

    vals = depth.values
    vmin = minimum_filter(np.where(depth.valid, vals, np.inf),
                          size=params.window, mode="constant", cval=np.inf)
    vmax = maximum_filter(np.where(depth.valid, vals, -np.inf),
                          size=params.window, mode="constant", cval=-np.inf)
    any_valid = np.isfinite(vmin)
    uniform = depth.valid & (vmax - vmin <= params.depth_eps)
    out = np.where(uniform, vals, vmin)
    out = np.where(any_valid, out, 0.0)
    return DepthMap(out, any_valid)


class TestWindowExtreme:
    """The numpy min/max window kernel equals ``scipy.ndimage`` exactly."""

    @pytest.mark.parametrize("size", range(1, 10))
    def test_matches_scipy_filters(self, size):
        from scipy.ndimage import maximum_filter, minimum_filter

        rng = np.random.default_rng(size)
        shapes = [(1, 1), (1, 7), (6, 1), (2, 3), (size, size), (size + 1, size - 1 or 1),
                  (13, 17), (40, 33)]
        for shape in shapes:
            a = rng.uniform(-5.0, 5.0, shape)
            a[rng.random(shape) < 0.2] = np.inf
            a[rng.random(shape) < 0.2] = -np.inf
            for op, scipy_filter, cval in ((np.minimum, minimum_filter, np.inf),
                                           (np.maximum, maximum_filter, -np.inf)):
                got = _window_extreme(a, size, op)
                want = scipy_filter(a, size=size, mode="constant", cval=cval)
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want)
            ranks = rng.permutation(a.size).reshape(shape).astype(np.int32)
            np.testing.assert_array_equal(
                _window_extreme(ranks, size, np.minimum),
                minimum_filter(ranks, size=size, mode="constant", cval=np.iinfo(np.int32).max))
            flags = rng.random(shape) < 0.1
            np.testing.assert_array_equal(_window_extreme(flags, size, np.maximum),
                                          maximum_filter(flags, size=size, mode="constant"))

    def test_input_untouched(self):
        a = np.arange(20.0).reshape(4, 5)
        _window_extreme(a, 3, np.minimum)
        np.testing.assert_array_equal(a, np.arange(20.0).reshape(4, 5))

    @pytest.mark.parametrize("window", [1, 3, 5, 7, 9])
    def test_robust_depth_map_matches_scipy_version(self, window):
        rng = np.random.default_rng(window)
        params = ReprojectionParams(depth_eps=0.05, window=window)
        depths = [plane_depth(CAM, random_pose(rng), 2.0) for _ in range(3)]
        for shape in [(1, 1), (3, 8), (24, 31)]:
            vals = rng.uniform(0.5, 3.0, shape)
            vals[rng.random(shape) < 0.3] = 0.0
            depths.append(DepthMap(vals))
        depths.append(DepthMap(np.zeros((5, 6))))
        for depth in depths:
            got, want = robust_depth_map(depth, params), scipy_robust_depth_map(depth, params)
            assert got.values.tobytes() == want.values.tobytes()
            np.testing.assert_array_equal(got.valid, want.valid)


class TestRobustDepth:
    def make_depth(self, vals):
        return DepthMap(np.asarray(vals, dtype=np.float64))

    def test_flat_patch_returns_center(self):
        depth = self.make_depth(np.full((7, 7), 3.0))
        params = ReprojectionParams(depth_eps=0.03, window=5)
        assert robust_depth(np.array([3.0, 3.0]), depth, params) == 3.0

    def test_spread_beyond_eps_takes_min(self):
        vals = np.full((7, 7), 5.0)
        vals[2, 3] = 1.0
        params = ReprojectionParams(depth_eps=0.03, window=5)
        assert robust_depth(np.array([3.0, 3.0]), self.make_depth(vals), params) == 1.0

    def test_spread_exactly_eps_counts_as_uniform(self):
        # 0.03125 is exact in binary, so max - min == eps_d with no rounding
        vals = np.full((5, 5), 2.0)
        vals[0, 0] = 2.0 + 0.03125
        params = ReprojectionParams(depth_eps=0.03125, window=5)
        assert robust_depth(np.array([2.0, 2.0]), self.make_depth(vals), params) == 2.0

    def test_window_clipped_at_border(self):
        vals = np.full((7, 7), 4.0)
        vals[6, 6] = 1.0  # far corner, outside the 3x3 window of (0,0)
        params = ReprojectionParams(depth_eps=0.01, window=3)
        assert robust_depth(np.array([0.0, 0.0]), self.make_depth(vals), params) == 4.0

    def test_no_valid_depth_raises(self):
        depth = DepthMap(np.zeros((7, 7)))
        params = ReprojectionParams(depth_eps=0.03, window=3)
        with pytest.raises(InvalidDepthError):
            robust_depth(np.array([3.0, 3.0]), depth, params)

    def test_invalid_center_falls_back_to_window_min(self):
        vals = np.full((5, 5), 2.0)
        vals[2, 2] = 0.0
        params = ReprojectionParams(depth_eps=0.03, window=3)
        assert robust_depth(np.array([2.0, 2.0]), self.make_depth(vals), params) == 2.0

    def test_result_stays_within_window_range(self):
        rng = np.random.default_rng(5)
        params = ReprojectionParams(depth_eps=0.05, window=5)
        vals = rng.uniform(0.5, 3.0, (20, 20))
        vals[rng.random((20, 20)) < 0.2] = 0.0
        depth = DepthMap(vals)
        for _ in range(200):
            x, y = rng.integers(0, 20, 2)
            patch = vals[max(0, y - 2):y + 3, max(0, x - 2):x + 3]
            valid = patch[patch > 0]
            if valid.size == 0:
                continue
            got = robust_depth(np.array([float(x), float(y)]), depth, params)
            assert valid.min() <= got <= valid.max()

    def test_map_matches_scalar_everywhere(self):
        rng = np.random.default_rng(13)
        vals = rng.uniform(0.5, 3.0, (24, 31))
        vals[rng.random((24, 31)) < 0.15] = 0.0
        depth = DepthMap(vals)
        for window in (1, 3, 5):
            params = ReprojectionParams(depth_eps=0.04, window=window)
            rmap = robust_depth_map(depth, params)
            for y in range(24):
                for x in range(31):
                    p = np.array([float(x), float(y)])
                    if rmap.valid[y, x]:
                        assert rmap.values[y, x] == robust_depth(p, depth, params)
                    else:
                        with pytest.raises(InvalidDepthError):
                            robust_depth(p, depth, params)


class TestLiftThenLand:
    """``reproject_points`` is ``_lift_points`` then ``_land_points``, and a
    concatenation of lifts lands row for row as each lift alone."""

    @pytest.mark.parametrize("kind", ["general", "hires", "plane"])
    def test_concatenation_equals_per_source_calls(self, kind):
        views = rendered_frames(kind)
        # the orbits' far frames put points behind the reference camera
        if kind != "hires":
            views = views[:4] + tuple(rendered_frames(kind, 60)[40::6])
        params = ReprojectionParams()
        robust = [robust_depth_map(v.depth, params) for v in views]
        rng = np.random.default_rng(len(kind))
        dst, dst_robust = views[0], robust[0]
        lifted, want = [], []
        for src, src_robust in zip(views[1:], robust[1:]):
            h, w = src.depth.shape
            pts = np.column_stack([rng.integers(0, w, 300), rng.integers(0, h, 300)])
            pts = pts.astype(np.float64)
            lifted.append(_lift_points(pts, src, src_robust))
            want.append(reproject_points(pts, src, dst, params))
        got = _land_points(np.concatenate([world for world, _ in lifted]), dst, dst_robust,
                           params)
        start = 0
        seen = set()
        for (world, valid), (targets, depths, reasons) in zip(lifted, want):
            rows = slice(start, start + len(world))
            start += len(world)
            assert (reasons[~valid] == RejectReason.INVALID_DEPTH).all()
            for part, full in zip(got, (targets, depths, reasons)):
                assert part[rows].tobytes() == full[valid].tobytes()
            seen.update(reasons.tolist())
        assert start == len(got[0])
        assert seen == {0, *RejectReason} or kind != "general"

    def test_empty_lift_lands_nothing(self):
        view = flat_view(CAM, PoseSE3.identity(), plane_z=2.0)
        robust = robust_depth_map(view.depth, ReprojectionParams())
        world, valid = _lift_points(np.zeros((0, 2)), view, robust)
        assert world.shape == (0, 3) and valid.shape == (0,)
        targets, depths, reasons = _land_points(world, view, robust, ReprojectionParams())
        assert targets.shape == (0, 2) and depths.shape == (0,) and reasons.shape == (0,)


class TestReproject:
    PARAMS = ReprojectionParams(depth_eps=0.03, window=5)

    def test_identity_pair_maps_to_self(self):
        view = flat_view(CAM, PoseSE3.identity(), plane_z=2.0)
        pts = np.array([[150.0, 100.0], [10.0, 10.0], [287.0, 154.0]])
        targets, _, reasons = reproject_points(pts, view, view, self.PARAMS)
        assert not reasons.any()
        np.testing.assert_allclose(targets, pts, atol=1e-6)

    def test_translation_parallel_to_plane_shifts_by_disparity(self):
        src = flat_view(CAM, PoseSE3.identity(), plane_z=2.0)
        shift = 0.4
        dst = flat_view(CAM, PoseSE3(np.eye(3), [shift, 0.0, 0.0]), plane_z=2.0)
        targets, depths, reasons = reproject_points(np.array([[170.0, 90.0]]), src, dst,
                                                    self.PARAMS)
        assert reasons[0] == 0
        # fronto-parallel plane: disparity = fx * dx / z
        assert targets[0, 0] == pytest.approx(170.0 - CAM.fx * shift / 2.0, abs=1e-9)
        assert targets[0, 1] == pytest.approx(90.0, abs=1e-9)
        assert depths[0] == pytest.approx(2.0, abs=1e-12)

    def test_rotation_only_is_depth_independent(self):
        R = rotation([0.3, 1.0, 0.1], 4.0)
        src_pose = PoseSE3.identity()
        dst_pose = PoseSE3(R, np.zeros(3))
        pts = np.array([[150.0, 100.0], [80.0, 60.0], [220.0, 140.0]])
        outs = []
        for scale in (1.0, 2.0):
            src = flat_view(CAM, src_pose, plane_z=2.0 * scale)
            dst = flat_view(CAM, dst_pose, plane_z=2.0 * scale)
            targets, _, reasons = reproject_points(pts, src, dst, self.PARAMS)
            assert not reasons.any()
            outs.append(targets)
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-6)

    def chain(self, poses, pts, cam=CAM):
        views = [flat_view(cam, p, plane_z=2.0, index=i) for i, p in enumerate(poses)]
        ab, _, r_ab = reproject_points(pts, views[0], views[1], self.PARAMS)
        bc, _, r_bc = reproject_points(ab[r_ab == 0], views[1], views[2], self.PARAMS)
        ac, _, r_ac = reproject_points(pts[r_ab == 0], views[0], views[2], self.PARAMS)
        keep = (r_bc == 0) & (r_ac == 0)
        return bc[keep], ac[keep]

    def test_pose_composition_exact_at_pixel_centers(self):
        # A->B disparity is exactly 4 px (f * 0.0625 / 2 = 4 with f=128), so the
        # intermediate landing sits on pixel centers and the depth resample at B
        # is exact; the chain then agrees with the direct map to float precision.
        cam = default_cam(f=128.0)
        poses = [
            PoseSE3.identity(),
            PoseSE3(np.eye(3), [0.0625, 0.0, 0.0]),
            PoseSE3(rotation([1, 0, 0], -2.5), [0.18, -0.05, 0.04]),
        ]
        # central pixels only: further out, the ray-distance spread across the
        # 5x5 window exceeds depth_eps and the min rule would perturb the depth
        pts = np.array([[x, y] for x in range(126, 177, 10) for y in range(76, 127, 10)],
                       dtype=np.float64)
        bc, ac = self.chain(poses, pts, cam)
        assert len(bc) > 30
        np.testing.assert_allclose(bc, ac, atol=1e-5)

    def test_pose_composition_subpixel_drift_is_bounded(self):
        # generic sub-pixel intermediate landings resample depth at the rounded
        # pixel, so the chain drifts by O(half-pixel * depth gradient)
        poses = [
            PoseSE3.identity(),
            PoseSE3(rotation([0, 1, 0], 2.0), [0.1, 0.02, -0.03]),
            PoseSE3(rotation([1, 0, 0], -2.5), [0.18, -0.05, 0.04]),
        ]
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(60, 240, 40), rng.uniform(50, 150, 40)])
        bc, ac = self.chain(poses, pts)
        assert len(bc) > 30
        assert np.linalg.norm(bc - ac, axis=1).max() < 0.1

    def test_occluded_landing_is_rejected(self):
        src = flat_view(CAM, PoseSE3.identity(), plane_z=4.0)
        dst = RenderedView(np.zeros((201, 301, 3), dtype=np.uint8),
                           DepthMap(np.full((201, 301), 1.0)), CAM, PoseSE3.identity())
        _, _, reasons = reproject_points(np.array([[150.0, 100.0]]), src, dst, self.PARAMS)
        assert reasons[0] == RejectReason.OCCLUDED

    def test_out_of_bounds_landing_is_rejected(self):
        src = flat_view(CAM, PoseSE3.identity(), plane_z=2.0)
        dst = flat_view(CAM, PoseSE3(np.eye(3), [4.0, 0.0, 0.0]), plane_z=2.0)
        _, _, reasons = reproject_points(np.array([[20.0, 100.0]]), src, dst, self.PARAMS)
        assert reasons[0] == RejectReason.OUT_OF_BOUNDS

    def test_behind_camera_is_rejected(self):
        src = flat_view(CAM, PoseSE3.identity(), plane_z=2.0)
        dst = flat_view(CAM, PoseSE3(rotation([0, 1, 0], 180.0), [0.0, 0.0, 0.0]), plane_z=2.0)
        _, _, reasons = reproject_points(np.array([[150.0, 100.0]]), src, dst, self.PARAMS)
        assert reasons[0] == RejectReason.BEHIND_CAMERA

    def test_missing_source_depth_is_rejected(self):
        vals = np.full((201, 301), 2.0)
        vals[80:120, 130:170] = 0.0
        src = RenderedView(np.zeros((201, 301, 3), dtype=np.uint8), DepthMap(vals),
                           CAM, PoseSE3.identity())
        dst = flat_view(CAM, PoseSE3.identity(), plane_z=2.0)
        _, _, reasons = reproject_points(np.array([[150.0, 100.0]]), src, dst, self.PARAMS)
        assert reasons[0] == RejectReason.INVALID_DEPTH

    def test_source_pixel_outside_image_raises(self):
        view = flat_view(CAM, PoseSE3.identity(), plane_z=2.0)
        with pytest.raises(ValueError):
            reproject_points(np.array([[-5.0, 10.0]]), view, view, self.PARAMS)


class TestPose:
    def test_relative_pose_matches_frame_chain(self):
        rng = np.random.default_rng(21)
        a, b = random_pose(rng), random_pose(rng)
        R, t = relative_pose(a, b)
        X = rng.uniform(-3, 3, (10, 3))
        np.testing.assert_allclose(
            X @ R.T + t, b.world_to_camera(a.camera_to_world(X)), atol=1e-12)

    def test_inverse_consistency(self):
        rng = np.random.default_rng(22)
        a, b = random_pose(rng), random_pose(rng)
        Rab, tab = relative_pose(a, b)
        Rba, tba = relative_pose(b, a)
        np.testing.assert_allclose(Rab @ Rba, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(Rab @ tba + tab, 0.0, atol=1e-12)

    def test_matrix_round_trip(self):
        pose = random_pose(np.random.default_rng(23))
        again = PoseSE3.from_matrix(pose.matrix)
        np.testing.assert_array_equal(again.rotation, pose.rotation)
        np.testing.assert_array_equal(again.translation, pose.translation)


class TestApplyHomography:
    def test_matches_per_point_division(self):
        rng = np.random.default_rng(24)
        H = np.eye(3) + rng.normal(0.0, 0.1, (3, 3))
        pts = rng.uniform(0, 100, (6, 2))
        expected = [(H @ [x, y, 1.0])[:2] / (H @ [x, y, 1.0])[2] for x, y in pts]
        np.testing.assert_allclose(apply_homography(H, pts), expected, rtol=1e-12)

    def test_point_at_infinity_is_not_finite(self):
        H = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        mapped = apply_homography(H, np.array([[0.0, 5.0], [2.0, 5.0]]))
        assert not np.isfinite(mapped[0]).any()
        np.testing.assert_allclose(mapped[1], [1.0, 2.5])


class TestValidation:
    def test_intrinsics_reject_bad_values(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1, fy=1, cx=1, cy=1, width=4, height=4)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1, fy=1, cx=9, cy=1, width=4, height=4)

    def test_pose_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            PoseSE3(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            PoseSE3(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det -1

    def test_depth_map_rejects_bad_valid_entries(self):
        with pytest.raises(InvalidDepthError):
            DepthMap(np.zeros((3, 3)), np.ones((3, 3), dtype=bool))

    def test_params_reject_even_window(self):
        with pytest.raises(ValueError):
            ReprojectionParams(depth_eps=0.03, window=4)
        with pytest.raises(ValueError):
            ReprojectionParams(depth_eps=0.0, window=5)
