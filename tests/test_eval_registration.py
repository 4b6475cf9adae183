"""Weighted rigid alignment, chamfer distance, and depth-map registration."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from reprojkit.errors import (
    DegenerateConfigurationError,
    EstimationFailedError,
    ShapeError,
)
from reprojkit.evaluation import (
    chamfer_distance,
    kabsch_weighted,
    lift_to_camera,
    register_pair,
    rotation_error_deg,
)
from reprojkit.evaluation.registration import _grid_keypoints
from reprojkit.frontend import describe, match_mnn
from reprojkit.geometry import PoseSE3, relative_pose
from reprojkit.scene import Plane, SceneSpec, render_view
from reprojkit.textures import NoiseTexture

from helpers import default_cam, flat_view, rendered_frames, rotation


def rigid_instance(rng, n=30, noise=0.0):
    P = rng.uniform(-2, 2, (n, 3))
    R = rotation(rng.normal(size=3), rng.uniform(5, 90))
    t = rng.uniform(-1, 1, 3)
    Q = P @ R.T + t
    if noise:
        Q = Q + rng.normal(0, noise, Q.shape)
    return P, Q, R, t


class TestKabsch:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            P, Q, R, t = rigid_instance(rng)
            R_est, t_est = kabsch_weighted(P, Q)
            np.testing.assert_allclose(R_est, R, atol=1e-9)
            np.testing.assert_allclose(t_est, t, atol=1e-9)

    def test_zero_weight_ignores_outlier(self):
        rng = np.random.default_rng(1)
        P, Q, R, t = rigid_instance(rng)
        Q[5] += 100.0
        w = np.ones(len(P))
        w[5] = 0.0
        R_est, t_est = kabsch_weighted(P, Q, w)
        np.testing.assert_allclose(R_est, R, atol=1e-9)
        np.testing.assert_allclose(t_est, t, atol=1e-9)

    def test_matches_scipy_on_noisy_weighted_problem(self):
        rng = np.random.default_rng(2)
        P, Q, _, _ = rigid_instance(rng, noise=0.05)
        w = rng.uniform(0.1, 2.0, len(P))
        R_est, t_est = kabsch_weighted(P, Q, w)
        pbar = np.average(P, axis=0, weights=w)
        qbar = np.average(Q, axis=0, weights=w)
        R_ref, _ = Rotation.align_vectors(Q - qbar, P - pbar, weights=w)
        np.testing.assert_allclose(R_est, R_ref.as_matrix(), atol=1e-9)
        np.testing.assert_allclose(t_est, qbar - R_est @ pbar, atol=1e-12)

    def test_weighted_residual_optimality(self):
        # At the optimum the weighted mean residual vanishes.
        rng = np.random.default_rng(3)
        P, Q, _, _ = rigid_instance(rng, noise=0.1)
        w = rng.uniform(0.0, 1.0, len(P))
        R_est, t_est = kabsch_weighted(P, Q, w)
        resid = (P @ R_est.T + t_est) - Q
        np.testing.assert_allclose(w @ resid, 0.0, atol=1e-9)

    def test_planar_points_stay_proper(self):
        # Rank-2 covariance: the determinant correction must keep det +1.
        rng = np.random.default_rng(4)
        P = np.column_stack([rng.uniform(-1, 1, (20, 2)), np.zeros(20)])
        R = rotation([1, 0.3, -0.2], 40.0)
        t = np.array([0.1, 0.2, 0.3])
        R_est, t_est = kabsch_weighted(P, P @ R.T + t)
        assert np.linalg.det(R_est) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(R_est @ R_est.T, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(P @ R_est.T + t_est, P @ R.T + t, atol=1e-9)

    def test_collinear_points_degenerate(self):
        P = np.outer(np.arange(5.0), [1.0, 1.0, 0.0])
        with pytest.raises(DegenerateConfigurationError):
            kabsch_weighted(P, P + 1.0)

    def test_validation(self):
        P = np.random.default_rng(5).normal(size=(10, 3))
        with pytest.raises(DegenerateConfigurationError):
            kabsch_weighted(P[:2], P[:2])
        with pytest.raises(ShapeError):
            kabsch_weighted(P, P[:9])
        with pytest.raises(ShapeError):
            kabsch_weighted(P, P, weights=-np.ones(10))
        with pytest.raises(DegenerateConfigurationError):
            kabsch_weighted(P, P, weights=np.zeros(10))


class TestChamfer:
    def test_identical_clouds(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(50, 3))
        assert chamfer_distance(A, A) == 0.0

    def test_hand_example(self):
        A = np.array([[0.0, 0.0, 0.0]])
        B = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        # A->B nearest: 1; B->A nearest: 1 and 3, mean 2; symmetric mean 1.5
        assert chamfer_distance(A, B) == pytest.approx(1.5)

    def test_small_shift(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(40, 3))
        gaps = np.linalg.norm(A[:, None] - A[None], axis=2)
        np.fill_diagonal(gaps, np.inf)
        # Below half the minimum gap each point's nearest stays its own copy
        d = 0.4 * gaps.min()
        B = A + np.array([d, 0.0, 0.0])
        assert chamfer_distance(A, B) == pytest.approx(d, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            A = rng.normal(size=(25, 3))
            B = rng.normal(size=(35, 3))
            d_ab = np.linalg.norm(A[:, None] - B[None], axis=2)
            want = (d_ab.min(axis=1).mean() + d_ab.min(axis=0).mean()) / 2.0
            assert chamfer_distance(A, B) == pytest.approx(want, rel=1e-12)

    def test_empty_rejected(self):
        A = np.zeros((0, 3))
        with pytest.raises(ShapeError):
            chamfer_distance(A, np.ones((3, 3)))


class TestLiftToCamera:
    def test_fronto_parallel_plane(self):
        cam = default_cam(width=65, height=65, f=64.0)
        view = flat_view(cam, PoseSE3.identity(), plane_z=2.0)
        xy = np.array([[32.0, 32.0], [10.0, 50.0], [0.0, 0.0]])
        pts, ok = lift_to_camera(view, xy)
        assert ok.all()
        np.testing.assert_allclose(pts[:, 2], 2.0, atol=1e-12)
        np.testing.assert_allclose(pts[0], [0.0, 0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(pts[1, 0], 2.0 * (10 - 32) / 64.0, atol=1e-12)

    def test_invalid_depth_flagged(self):
        cam = default_cam(width=33, height=33, f=32.0)
        view = flat_view(cam, PoseSE3.identity(), plane_z=2.0)
        view.depth.values[5, 7] = 0.0
        view.depth.valid[5, 7] = False
        pts, ok = lift_to_camera(view, np.array([[7.0, 5.0], [8.0, 5.0]]))
        assert not ok[0] and ok[1]


def textured_pair(shift_x, seed=0, size=160, f=128.0, z=2.0):
    """Two renders of a noise-textured plane, camera 2 shifted along x."""
    cam = default_cam(width=size, height=size, f=f)
    plane = Plane(origin=(0.0, 0.0, z), normal=(0.0, 0.0, -1.0),
                  half_u=50.0, half_v=50.0, texture=0)
    spec = SceneSpec(primitives=(plane,), textures=(NoiseTexture(seed=seed),))
    v1 = render_view(spec, cam, PoseSE3.identity(), index=0)
    v2 = render_view(spec, cam, PoseSE3(np.eye(3), [shift_x, 0.0, 0.0]), index=1)
    return v1, v2


class TestRegisterPair:
    def test_identical_views(self):
        v1, _ = textured_pair(0.125)
        res = register_pair(v1, v1)
        assert res.rotation_error_deg < 1e-9
        assert res.translation_error_cm < 1e-9
        assert res.chamfer_cm < 1e-9
        np.testing.assert_allclose(res.rotation, np.eye(3), atol=1e-12)

    def test_integer_disparity_recovers_exactly(self):
        # Disparity f*B/z = 128*0.125/2 = 8 px, a multiple of the keypoint
        # grid step, so every match is pixel-exact and the fit is rigid.
        v1, v2 = textured_pair(0.125)
        res = register_pair(v1, v2)
        assert res.n_matches > 200
        assert res.rotation_error_deg < 0.1
        assert res.translation_error_cm < 0.1
        assert res.chamfer_cm < 0.1

    def test_textureless_views_fail(self):
        cam = default_cam(width=64, height=64, f=64.0)
        v1 = flat_view(cam, PoseSE3.identity(), plane_z=2.0)
        v2 = flat_view(cam, PoseSE3(np.eye(3), [0.1, 0.0, 0.0]), plane_z=2.0)
        with pytest.raises(EstimationFailedError):
            register_pair(v1, v2)

    def test_reports_relative_pose(self):
        v1, v2 = textured_pair(0.125)
        res = register_pair(v1, v2)
        # view2 sits 0.125 to the right, so view1 points map left by 0.125
        np.testing.assert_allclose(res.translation, [-0.125, 0.0, 0.0], atol=1e-3)
        np.testing.assert_allclose(res.rotation, np.eye(3), atol=1e-4)

    @pytest.mark.parametrize("kind, pair", [("general", (0, 3)), ("hires", (2, 5))])
    def test_equals_inline_grid_path(self, kind, pair):
        """The grid path as written before ``features``: describe each grid,
        keep the described points, match, lift, weighted Kabsch, chamfer."""
        frames = rendered_frames(kind)
        v1, v2 = frames[pair[0]], frames[pair[1]]
        kp1, kp2 = _grid_keypoints(v1, 4), _grid_keypoints(v2, 4)
        d1, kept1 = describe(v1.image, kp1, dim=128)
        d2, kept2 = describe(v2.image, kp2, dim=128)
        kp1, kp2 = kp1[kept1], kp2[kept2]
        m = match_mnn(d1, d2, ratio=0.8)
        p1, ok1 = lift_to_camera(v1, kp1[m.indices1])
        p2, ok2 = lift_to_camera(v2, kp2[m.indices2])
        usable = ok1 & ok2
        weights = np.clip(m.similarity[usable], 0.0, None)
        R, t = kabsch_weighted(p1[usable], p2[usable], weights)
        R_gt, t_gt = relative_pose(v1.pose, v2.pose)
        ys, xs = np.nonzero(v1.depth.valid)
        cloud, _ = lift_to_camera(v1, np.column_stack([xs[::4], ys[::4]]))
        chamfer_cm = chamfer_distance(cloud @ R.T + t, cloud @ R_gt.T + t_gt) * 100.0

        res = register_pair(v1, v2)
        assert weights.any() and res.n_matches == int(usable.sum())
        np.testing.assert_array_equal(res.rotation, R)
        np.testing.assert_array_equal(res.translation, t)
        assert res.chamfer_cm == chamfer_cm
