"""Weighted rigid alignment, chamfer distance, and depth-map registration."""

import warnings

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from reprojkit.errors import (
    DegenerateConfigurationError,
    EstimationFailedError,
    InvalidSpecError,
    ShapeError,
)
from reprojkit.evaluation import (
    chamfer_distance,
    kabsch_weighted,
    lift_to_camera,
    register_pair,
    rotation_error_deg,
)
from reprojkit.evaluation import registration
from reprojkit.evaluation.registration import _grid_keypoints, _nearest_distances
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["P", "Q", "weights"])
    def test_non_finite_rejected(self, where, value):
        args = {"P": np.random.default_rng(5).normal(size=(10, 3)), "weights": np.ones(10)}
        args["Q"] = args["P"] + 1.0
        args[where][3, ...] = value
        with pytest.raises(InvalidSpecError):
            kabsch_weighted(**args)

    def test_overflowing_points_rejected(self):
        # finite, but the cross-covariance overflows to inf
        P = np.random.default_rng(5).normal(size=(10, 3)) * 1e200
        with pytest.raises(InvalidSpecError, match="overflows"):
            kabsch_weighted(P, P + 1.0)

    def test_overflowing_weights_rejected(self):
        # finite, but the weight total overflows to inf
        P = np.random.default_rng(5).normal(size=(10, 3))
        with pytest.raises(InvalidSpecError, match="overflows"):
            kabsch_weighted(P, P + 1.0, weights=np.full(10, 1e308))


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

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (2, 2, 3), (2,)])
    def test_non_3d_clouds_rejected(self, shape):
        bad = np.zeros(shape)
        with pytest.raises(ShapeError):
            chamfer_distance(bad, bad)
        with pytest.raises(ShapeError):
            chamfer_distance(np.zeros((4, 3)), bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        A = np.zeros((4, 3))
        B = np.ones((5, 3))
        B[2, 1] = value
        with pytest.raises(InvalidSpecError):
            chamfer_distance(A, B)
        with pytest.raises(InvalidSpecError):
            chamfer_distance(B, A)

    @pytest.mark.parametrize("A, B", [
        ([[1e308, 0.0, 0.0]], [[0.0, 0.0, 0.0]]),
        ([[0.0, 0.0, 0.0]], [[1e300, 0.0, 0.0]]),
        ([[-1e308, 0.0, 0.0]], [[1e308, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        ([[0.0, -1.1e150, 0.0]], [[1.0, 1.0, 1.0]]),
    ])
    def test_overflowing_coordinates_rejected(self, A, B):
        # Squared distances of such clouds could overflow.
        with pytest.raises(InvalidSpecError):
            chamfer_distance(A, B)
        with pytest.raises(InvalidSpecError):
            chamfer_distance(B, A)


def register_clouds(kind, pair, monkeypatch):
    """The estimated and true clouds ``register_pair`` passes to chamfer."""
    clouds = []

    def spy(A, B):
        clouds.append((A, B))
        return chamfer_distance(A, B)

    frames = rendered_frames(kind)
    with monkeypatch.context() as m:
        m.setattr(registration, "chamfer_distance", spy)
        register_pair(frames[pair[0]], frames[pair[1]])
    (A, B), = clouds
    return A, B


def kdtree_distances(A, B):
    """Oracle: nearest-neighbor distances from scipy's KD-tree."""
    from scipy.spatial import cKDTree
    return cKDTree(B).query(A)[0]


class TestNearestDistances:
    """``_nearest_distances`` equals ``cKDTree(B).query(A)[0]`` bit for bit."""

    @staticmethod
    def check(A, B):
        A, B = np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64)
        for X, Y in ((A, B), (B, A)):
            got, want = _nearest_distances(X, Y), kdtree_distances(X, Y)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_random_clouds_with_ties_and_duplicates(self):
        # Lattice points put many queries at equal distances from several
        # points; repeated rows are duplicates at distance zero.
        rng = np.random.default_rng(11)
        for _ in range(40):
            n, m = rng.integers(1, 300, 2)
            B = rng.integers(-6, 7, (n, 3)) * 0.25
            B = np.concatenate([B, B[:n // 3]])
            A = rng.integers(-9, 10, (m, 3)) * 0.125
            A[::2] += rng.normal(0.0, 0.05, A[::2].shape)
            self.check(A, B)

    def test_gaussian_and_clustered_clouds(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            B = rng.normal(size=(500, 3)) * rng.uniform(0.01, 10.0, 3)
            centers = rng.uniform(-5, 5, (4, 3))
            A = (centers[rng.integers(0, 4, 400)]
                 + rng.normal(0.0, 0.02, (400, 3)))
            self.check(A, B)

    def test_one_point_cloud(self):
        rng = np.random.default_rng(13)
        self.check(rng.normal(size=(50, 3)) * 100.0, [[0.5, -2.0, 3.0]])
        self.check([[1.0, 1.0, 1.0]], [[1.0, 1.0, 1.0]])

    def test_coplanar_and_collinear_clouds(self):
        rng = np.random.default_rng(14)
        for axis in range(3):
            B = rng.uniform(-1, 1, (400, 3))
            B[:, axis] = 0.5
            A = rng.uniform(-2, 2, (300, 3))
            self.check(A, B)
            self.check(B[:300] + rng.normal(0.0, 1e-3, (300, 3)), B)
        line = np.outer(np.linspace(0.0, 3.0, 200), [1.0, -2.0, 0.5])
        self.check(rng.uniform(-4, 4, (300, 3)), line)

    def test_queries_far_outside_the_cloud(self):
        # Each query needs many rounds of doubled cells before its ball
        # reaches the cloud, or the grid shrinks to one cell.
        rng = np.random.default_rng(15)
        B = rng.uniform(0, 1, (800, 3))
        for scale in (10.0, 1e3, 1e5):
            A = rng.normal(size=(200, 3)) * scale
            A[:100] += scale * 2
            self.check(A, B)
        self.check(B + 1e4, B)

    def test_misregistered_surfaces(self, monkeypatch):
        # Rotating two surfaces far off themselves leaves most queries far
        # from every point, where their grid blocks grow crowded and they
        # scan the whole other cloud instead.
        scanned = set()
        scan_all = registration._scan_all

        def spy(Bt, At, q):
            scanned.update(q.tolist())
            return scan_all(Bt, At, q)

        monkeypatch.setattr(registration, "_scan_all", spy)
        rng = np.random.default_rng(17)
        ground = np.column_stack([rng.uniform(-3, 3, 3000), np.full(3000, 0.6),
                                  rng.uniform(2, 8, 3000)])
        wall = np.column_stack([rng.uniform(-3, 3, 1500), rng.uniform(-2, 0.6, 1500),
                                np.full(1500, 8.0)])
        B = np.concatenate([ground, wall])
        full_scans = 0
        for deg in (30.0, 90.0):
            A = B @ rotation([0.3, 1.0, 0.2], deg).T
            for X, Y in ((A, B), (B, A)):
                scanned.clear()
                got = _nearest_distances(X, Y)
                full_scans += len(scanned)
                assert got.tobytes() == kdtree_distances(X, Y).tobytes()
        assert full_scans > 1000
        # The real registration cloud, turned about its centroid
        _, B = register_clouds("general", (0, 3), monkeypatch)
        center = B.mean(axis=0)
        for deg in (60.0, 90.0):
            self.check((B - center) @ rotation([0.3, 1.0, 0.2], deg).T + center, B)

    @pytest.mark.parametrize("span", [1e-6, 1e6])
    def test_tiny_and_huge_spans(self, span):
        rng = np.random.default_rng(16)
        for offset in (0.0, 5e5, -3e-3):
            B = offset + rng.uniform(0, span, (600, 3))
            A = offset + rng.uniform(-span, 2 * span, (500, 3))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                self.check(A, B)

    def test_subnormal_spread(self):
        # A cell side of 1e-310 / 8 puts the query past the float range.
        self.check([[1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1e-310, 0.0, 0.0]])
        rng = np.random.default_rng(18)
        self.check(rng.uniform(0, 1e-300, (300, 3)), rng.uniform(0, 1e-310, (400, 3)))
        self.check(rng.uniform(0, 1e-160, (300, 3)), rng.uniform(0, 1e-160, (400, 3)))

    def test_coordinates_at_the_bound(self):
        # Far queries around a tiny cloud, and squared distances near 1e301
        rng = np.random.default_rng(19)
        self.check(rng.uniform(0, 1e-100, (300, 3)), [[1e110, 0.0, 0.0], [-1e140, 3.0, 1e150]])
        self.check([[-1e150, 0.0, 0.0]], [[1e150, 0.0, 0.0], [0.0, 0.0, 0.0]])
        self.check(rng.uniform(-1e150, 1e150, (300, 3)), rng.uniform(-1e150, 1e150, (200, 3)))

    @pytest.mark.parametrize("kind, pair", [("general", (0, 3)), ("hires", (2, 5))])
    def test_register_pair_clouds(self, kind, pair, monkeypatch):
        A, B = register_clouds(kind, pair, monkeypatch)
        assert len(A) > 4000
        self.check(A, B)


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

    @pytest.mark.parametrize("xy", [(-3.0, 5.0), (5.0, -0.6), (32.6, 5.0), (5.0, 33.0),
                                    (np.nan, 5.0)])
    def test_pixels_outside_the_image_rejected(self, xy):
        # A rounded index of -3 would otherwise wrap to the right edge.
        cam = default_cam(width=33, height=33, f=32.0)
        view = flat_view(cam, PoseSE3.identity(), plane_z=2.0)
        with pytest.raises(ShapeError):
            lift_to_camera(view, np.array([[16.0, 16.0], xy]))

    def test_border_pixels_accepted(self):
        cam = default_cam(width=33, height=33, f=32.0)
        view = flat_view(cam, PoseSE3.identity(), plane_z=2.0)
        _, ok = lift_to_camera(view, np.array([[-0.5, 0.0], [32.4, 32.4], [0.0, 32.0]]))
        assert ok.all()


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
        keep the described points, match, lift, weighted Kabsch, chamfer.
        The lift is the rounded pixels' rays, normalized, times raw depth."""
        def lift(view, xy):
            xi, yi = np.rint(xy[:, 0]).astype(int), np.rint(xy[:, 1]).astype(int)
            rays = view.cam.pixel_rays(np.column_stack([xi, yi]).astype(np.float64))
            dirs = rays / np.linalg.norm(rays, axis=1, keepdims=True)
            return dirs * view.depth.values[yi, xi][:, None], view.depth.valid[yi, xi]

        frames = rendered_frames(kind)
        v1, v2 = frames[pair[0]], frames[pair[1]]
        kp1, kp2 = _grid_keypoints(v1), _grid_keypoints(v2)
        d1, kept1 = describe(v1.image, kp1, dim=128)
        d2, kept2 = describe(v2.image, kp2, dim=128)
        kp1, kp2 = kp1[kept1], kp2[kept2]
        m = match_mnn(d1, d2, ratio=0.8)
        p1, ok1 = lift(v1, kp1[m.indices1])
        p2, ok2 = lift(v2, kp2[m.indices2])
        usable = ok1 & ok2
        weights = np.clip(m.similarity[usable], 0.0, None)
        R, t = kabsch_weighted(p1[usable], p2[usable], weights)
        R_gt, t_gt = relative_pose(v1.pose, v2.pose)
        ys, xs = np.nonzero(v1.depth.valid)
        cloud, _ = lift(v1, np.column_stack([xs[::4], ys[::4]]))
        chamfer_cm = chamfer_distance(cloud @ R.T + t, cloud @ R_gt.T + t_gt) * 100.0

        res = register_pair(v1, v2)
        assert weights.any() and res.n_matches == int(usable.sum())
        np.testing.assert_array_equal(res.rotation, R)
        np.testing.assert_array_equal(res.translation, t)
        assert res.chamfer_cm == chamfer_cm
