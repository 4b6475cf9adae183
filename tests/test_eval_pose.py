"""Essential-matrix estimation, pose errors, AUC, and the split protocol."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from reprojkit.errors import EstimationFailedError, InvalidSpecError
from reprojkit.evaluation import homography, pose
from reprojkit.evaluation import (
    PosePairRecord,
    RelativePose,
    estimate_essential,
    pose_auc,
    pose_error,
    pose_split_eval,
    rotation_error_deg,
    translation_error_deg,
)
from reprojkit.geometry import CameraIntrinsics, PoseSE3, project, relative_pose

from helpers import default_cam, rotation


def two_view_matches(rng, pose1, pose2, cam, n=60, noise=0.0):
    """Pixel matches of random 3D points visible in both cameras."""
    pts1, pts2 = [], []
    while len(pts1) < n:
        P = rng.uniform([-1.5, -1.5, 2.0], [1.5, 1.5, 6.0], 3)
        try:
            p1, _ = project(P, cam, pose1)
            p2, _ = project(P, cam, pose2)
        except Exception:
            continue
        if cam.contains(p1) and cam.contains(p2):
            pts1.append(p1)
            pts2.append(p2)
    pts1 = np.array(pts1)
    pts2 = np.array(pts2)
    if noise:
        pts1 = pts1 + rng.normal(0, noise, pts1.shape)
        pts2 = pts2 + rng.normal(0, noise, pts2.shape)
    return pts1, pts2


class TestEstimateEssential:
    def test_exact_two_view_recovery(self):
        rng = np.random.default_rng(0)
        cam = default_cam(width=320, height=240, f=260.0)
        pose1 = PoseSE3.identity()
        pose2 = PoseSE3(rotation([0.2, 1.0, 0.1], 8.0), [0.4, 0.05, 0.1])
        pts1, pts2 = two_view_matches(rng, pose1, pose2, cam)
        est = estimate_essential(pts1, pts2, cam, cam, iterations=200, rng=1)
        R_gt, t_gt = relative_pose(pose1, pose2)
        assert rotation_error_deg(est.rotation, R_gt) < 0.1
        assert translation_error_deg(est.translation, t_gt) < 0.5
        assert est.inliers.all()

    def test_pure_rotation_recovers_rotation(self):
        rng = np.random.default_rng(2)
        cam = default_cam(width=320, height=240, f=260.0)
        pose1 = PoseSE3.identity()
        pose2 = PoseSE3(rotation([0.0, 1.0, 0.2], 6.0), [0.0, 0.0, 0.0])
        pts1, pts2 = two_view_matches(rng, pose1, pose2, cam)
        est = estimate_essential(pts1, pts2, cam, cam, iterations=200, rng=3)
        R_gt, _ = relative_pose(pose1, pose2)
        assert rotation_error_deg(est.rotation, R_gt) < 0.5

    def test_outliers_rejected(self):
        # Seed chosen so no corrupted match lands inside the Sampson band
        # of the true pose; such points are geometrically consistent and
        # would legitimately join the consensus.
        rng = np.random.default_rng(5)
        cam = default_cam(width=320, height=240, f=260.0)
        pose2 = PoseSE3(rotation([0, 1, 0], 10.0), [0.5, 0.0, 0.0])
        pts1, pts2 = two_view_matches(rng, PoseSE3.identity(), pose2, cam, n=80)
        bad = rng.choice(80, 20, replace=False)
        pts2[bad] = rng.uniform([0, 0], [319, 239], (20, 2))
        est = estimate_essential(pts1, pts2, cam, cam, iterations=500, rng=6)
        R_gt, t_gt = relative_pose(PoseSE3.identity(), pose2)
        assert rotation_error_deg(est.rotation, R_gt) < 0.1
        assert translation_error_deg(est.translation, t_gt) < 0.5
        assert not est.inliers[bad].any()
        assert est.inliers.sum() == 60

    def test_too_few_matches(self):
        cam = default_cam(width=64, height=64)
        pts = np.tile(np.arange(7.0), (2, 1)).T
        with pytest.raises(EstimationFailedError):
            estimate_essential(pts, pts, cam, cam)

    def test_threshold_scales_with_focal_length(self):
        # Doubling image and intrinsics leaves normalized coordinates
        # unchanged, so doubling the pixel threshold reproduces the run.
        rng = np.random.default_rng(6)
        cam = default_cam(width=320, height=240, f=260.0)
        pose2 = PoseSE3(rotation([0.1, 1, 0], 7.0), [0.3, 0.1, 0.0])
        pts1, pts2 = two_view_matches(rng, PoseSE3.identity(), pose2, cam, noise=0.2)
        s = 2.0
        cam_s = CameraIntrinsics(fx=cam.fx * s, fy=cam.fy * s, cx=cam.cx * s,
                                 cy=cam.cy * s, width=cam.width * 2, height=cam.height * 2)
        a = estimate_essential(pts1, pts2, cam, cam,
                               threshold_px=0.5, iterations=100, rng=7)
        b = estimate_essential(pts1 * s, pts2 * s, cam_s, cam_s,
                               threshold_px=1.0, iterations=100, rng=7)
        np.testing.assert_array_equal(a.inliers, b.inliers)
        np.testing.assert_array_equal(a.rotation, b.rotation)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        cam = default_cam(width=320, height=240, f=260.0)
        pose2 = PoseSE3(rotation([0, 1, 0], 9.0), [0.4, 0.0, 0.1])
        pts1, pts2 = two_view_matches(rng, PoseSE3.identity(), pose2, cam, noise=0.3)
        a = estimate_essential(pts1, pts2, cam, cam, iterations=150, rng=9)
        b = estimate_essential(pts1, pts2, cam, cam, iterations=150, rng=9)
        np.testing.assert_array_equal(a.rotation, b.rotation)
        np.testing.assert_array_equal(a.translation, b.translation)


def _fit_essential_oracle(x1, x2):
    A = (x2[:, :, None] * x1[:, None, :]).reshape(len(x1), 9)
    _, _, vt = np.linalg.svd(A)
    u, _, vt2 = np.linalg.svd(vt[-1].reshape(3, 3))
    return u @ np.diag([1.0, 1.0, 0.0]) @ vt2


def _sampson_oracle(E, x1, x2):
    Ex1 = x1 @ E.T
    Etx2 = x2 @ E
    num = np.einsum("ij,ij->i", x2, Ex1)
    den = Ex1[:, 0] ** 2 + Ex1[:, 1] ** 2 + Etx2[:, 0] ** 2 + Etx2[:, 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.abs(num) / np.sqrt(den)
    return np.where(np.isfinite(d), d, np.inf)


def triangulate_lstsq(R, t, x1, x2):
    """The per-point ``lstsq`` loop the closed form replaced."""
    z = np.array([np.linalg.lstsq(np.column_stack([R @ a, -b]), -t, rcond=None)[0]
                  for a, b in zip(x1, x2)]).reshape(-1, 2)
    return z[:, 0], z[:, 1]


def estimate_essential_oracle(pts1, pts2, cam1, cam2, threshold_px=0.5,
                              iterations=1000, rng=0):
    """The one-hypothesis-at-a-time RANSAC loop block scoring replaced."""
    n = len(pts1)
    x1 = cam1.pixel_rays(pts1)
    x2 = cam2.pixel_rays(pts2)
    thr = threshold_px / np.mean([cam1.fx, cam1.fy, cam2.fx, cam2.fy])
    rng = np.random.default_rng(rng)
    best_count = 0
    best_inliers = None
    for _ in range(iterations):
        idx = rng.choice(n, 8, replace=False)
        E = _fit_essential_oracle(x1[idx], x2[idx])
        inliers = _sampson_oracle(E, x1, x2) <= thr
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers
    if best_inliers is None or best_count < 8:
        raise EstimationFailedError("no essential hypothesis reached consensus")
    E = _fit_essential_oracle(x1[best_inliers], x2[best_inliers])
    best = None
    for R, t in pose._decompose(E):
        z1, z2 = triangulate_lstsq(R, t, x1[best_inliers], x2[best_inliers])
        front = int(((z1 > 0) & (z2 > 0)).sum())
        if best is None or front > best[0]:
            best = (front, R, t)
    if best[0] == 0:
        raise EstimationFailedError("no decomposition places points in front of both cameras")
    return best[1], best[2] / np.linalg.norm(best[2]), best_inliers


class TestBlockScoring:
    """Block-wise essential RANSAC against the one-at-a-time loop, bit for bit."""

    cam = default_cam(width=320, height=240, f=260.0)

    def check(self, pts1, pts2, threshold_px=0.5, iterations=1000, seed=0):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            want = estimate_essential_oracle(pts1, pts2, self.cam, self.cam,
                                             threshold_px, iterations, rng_ref)
        except EstimationFailedError:
            with pytest.raises(EstimationFailedError):
                estimate_essential(pts1, pts2, self.cam, self.cam,
                                   threshold_px, iterations, rng_new)
            want = None
        else:
            est = estimate_essential(pts1, pts2, self.cam, self.cam,
                                     threshold_px, iterations, rng_new)
            np.testing.assert_array_equal(est.rotation, want[0])
            np.testing.assert_array_equal(est.translation, want[1])
            np.testing.assert_array_equal(est.inliers, want[2])
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        return want

    def instance(self, rng, n, outlier_frac=0.3, noise=0.3):
        pose2 = PoseSE3(rotation(rng.normal(size=3), rng.uniform(2, 12)),
                        rng.uniform(-0.5, 0.5, 3))
        pts1, pts2 = two_view_matches(rng, PoseSE3.identity(), pose2, self.cam,
                                      n=n, noise=noise)
        bad = rng.choice(n, int(n * outlier_frac), replace=False)
        pts2[bad] = rng.uniform([0, 0], [319, 239], (len(bad), 2))
        return pts1, pts2

    def test_random_instances_with_outliers(self):
        rng = np.random.default_rng(40)
        for trial in range(8):
            pts1, pts2 = self.instance(rng, int(rng.integers(9, 90)),
                                       outlier_frac=rng.uniform(0.0, 0.5))
            self.check(pts1, pts2, threshold_px=rng.uniform(0.3, 2.0),
                       iterations=int(rng.integers(1, 300)), seed=trial)

    def test_exactly_eight_matches(self):
        rng = np.random.default_rng(41)
        pts1, pts2 = self.instance(rng, 8, outlier_frac=0.0, noise=0.0)
        assert self.check(pts1, pts2, iterations=50, seed=1) is not None

    def test_block_boundary_iteration_counts(self):
        rng = np.random.default_rng(42)
        pts1, pts2 = self.instance(rng, 40, outlier_frac=0.4)
        block = homography._BLOCK
        for iterations in (1, block - 1, block, block + 1, 1000):
            self.check(pts1, pts2, iterations=iterations, seed=iterations)

    def test_collinear_and_duplicate_samples(self):
        rng = np.random.default_rng(43)
        pts1, pts2 = self.instance(rng, 12, outlier_frac=0.0)
        pts1[:6] = np.column_stack([np.linspace(20, 300, 6), np.linspace(30, 200, 6)])
        pts1[6:9] = pts1[9]
        pts2[6:9] = pts2[9]
        self.check(pts1, pts2, threshold_px=2.0, iterations=300, seed=2)

    def test_pure_rotation_pair(self):
        rng = np.random.default_rng(44)
        pose2 = PoseSE3(rotation([0.0, 1.0, 0.2], 6.0), [0.0, 0.0, 0.0])
        pts1, pts2 = two_view_matches(rng, PoseSE3.identity(), pose2, self.cam)
        self.check(pts1, pts2, iterations=200, seed=3)


    def test_temporaries_bounded_by_block(self):
        # all 1000 hypotheses at once would need 7.2 MB per (1000, 300, 3)
        rng = np.random.default_rng(47)
        pts1, pts2 = self.instance(rng, 300)
        tracemalloc.start()
        try:
            estimate_essential(pts1, pts2, self.cam, self.cam, iterations=1000, rng=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestTriangulate:
    def test_matches_lstsq(self):
        rng = np.random.default_rng(45)
        R = rotation([0.3, 1.0, -0.2], 9.0)
        t = np.array([0.4, -0.1, 0.2])
        x1 = np.column_stack([rng.uniform(-0.6, 0.6, (200, 2)), np.ones(200)])
        x2 = np.column_stack([rng.uniform(-0.6, 0.6, (200, 2)), np.ones(200)])
        z1, z2 = pose._triangulate(R, t, x1, x2)
        w1, w2 = triangulate_lstsq(R, t, x1, x2)
        np.testing.assert_allclose(z1, w1, rtol=1e-9)
        np.testing.assert_allclose(z2, w2, rtol=1e-9)
        np.testing.assert_array_equal((z1 > 0) & (z2 > 0), (w1 > 0) & (w2 > 0))

    def test_parallel_rays_give_the_min_norm_solution(self):
        # rank-deficient rows: lstsq returns its minimum-norm solution
        rng = np.random.default_rng(46)
        R = rotation([0.0, 1.0, 0.2], 6.0)
        t = np.array([0.3, 0.1, -0.2])
        x1 = np.column_stack([rng.uniform(-0.5, 0.5, (30, 2)), np.ones(30)])
        x2 = x1 @ R.T * rng.uniform(0.5, 2.0, (30, 1))
        z1, z2 = pose._triangulate(R, t, x1, x2)
        w1, w2 = triangulate_lstsq(R, t, x1, x2)
        np.testing.assert_allclose(z1, w1, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(z2, w2, rtol=1e-9, atol=1e-12)
        x2[:, :] = x1 @ R.T  # exactly parallel: both depths from -M^T t / |M|^2
        z1, z2 = pose._triangulate(R, t, x1, x2)
        w1, w2 = triangulate_lstsq(R, t, x1, x2)
        np.testing.assert_allclose(z1, w1, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(z2, w2, rtol=1e-9, atol=1e-12)


class TestPoseError:
    def test_exact_estimate_is_zero(self):
        R = rotation([1, 2, 3], 25.0)
        t = np.array([0.3, -0.2, 0.5])
        est = RelativePose(R, t / np.linalg.norm(t))
        assert pose_error(est, R, t) == pytest.approx(0.0, abs=1e-9)

    def test_rotation_offset_dominates(self):
        R_gt = rotation([0, 0, 1], 30.0)
        R_est = R_gt @ rotation([1, 0, 0], 10.0)
        t = np.array([1.0, 0.0, 0.0])
        est = RelativePose(R_est, t)
        assert pose_error(est, R_gt, t) == pytest.approx(10.0, abs=1e-9)

    def test_translation_sign_ambiguity(self):
        t = np.array([0.0, 1.0, 0.0])
        est = RelativePose(np.eye(3), -t)
        assert pose_error(est, np.eye(3), t) == pytest.approx(0.0, abs=1e-9)

    def test_matches_quaternion_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            R1 = Rotation.from_quat(rng.normal(size=4))
            R2 = Rotation.from_quat(rng.normal(size=4))
            want = np.degrees((R1.inv() * R2).magnitude())
            got = rotation_error_deg(R1.as_matrix(), R2.as_matrix())
            assert got == pytest.approx(want, abs=1e-9)

    def test_zero_translation_needs_rotation_only(self):
        est = RelativePose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(InvalidSpecError):
            pose_error(est, np.eye(3), np.zeros(3))
        assert pose_error(est, np.eye(3), np.zeros(3), rotation_only=True) == 0.0


class TestPoseAuc:
    def test_all_zero_errors(self):
        auc = pose_auc([0.0, 0.0, 0.0])
        assert auc == {5.0: 1.0, 10.0: 1.0, 20.0: 1.0}

    def test_all_beyond_last_threshold(self):
        auc = pose_auc([25.0, 90.0, np.inf])
        assert auc == {5.0: 0.0, 10.0: 0.0, 20.0: 0.0}

    def test_two_point_example(self):
        auc = pose_auc([0.0, 10.0], thresholds=(10.0,))
        assert auc[10.0] == pytest.approx(0.5)

    def test_failures_count_as_infinite(self):
        auc_with = pose_auc([0.0, None], thresholds=(10.0,))
        assert auc_with[10.0] == pytest.approx(0.5)

    def numeric_oracle(self, errors, t, step=1e-4):
        errors = np.asarray(errors)
        grid = np.arange(0.0, t, step) + step / 2.0
        frac = (errors[None, :] <= grid[:, None]).mean(axis=1)
        return frac.mean()

    def test_matches_numeric_integration(self):
        rng = np.random.default_rng(11)
        errors = np.concatenate([rng.uniform(0, 30, 40), [np.inf, np.inf]])
        auc = pose_auc(errors)
        for t in (5.0, 10.0, 20.0):
            assert auc[t] == pytest.approx(self.numeric_oracle(errors, t), abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(InvalidSpecError):
            pose_auc([])
        with pytest.raises(InvalidSpecError):
            pose_auc([-1.0])


class TestSplitEval:
    def record(self, err_deg, t_norm, fail=False):
        R_gt = rotation([0, 0, 1], 15.0)
        t_gt = np.array([t_norm, 0.0, 0.0])
        if fail:
            return PosePairRecord(None, R_gt, t_gt)
        est = RelativePose(R_gt @ rotation([1, 0, 0], err_deg),
                           np.array([1.0, 0.0, 0.0]))
        return PosePairRecord(est, R_gt, t_gt)

    def test_all_low_translation(self):
        recs = [self.record(1.0, 0.0), self.record(2.0, 0.1)]
        rep = pose_split_eval(recs)
        assert rep["low_translation"]["count"] == 2
        assert rep["general"]["count"] == 0
        assert "auc" not in rep["general"]
        assert rep["low_translation"]["auc"][5.0] > 0

    def test_partition_counts(self):
        recs = [self.record(1.0, tn) for tn in (0.0, 0.1, 0.15, 0.2, 0.5, 1.0)]
        rep = pose_split_eval(recs)
        assert rep["low_translation"]["count"] == 3  # boundary 0.15 goes low
        assert rep["general"]["count"] == 3

    def test_partition_aucs_match_subset_recomputation(self):
        recs = [self.record(3.0, 0.05), self.record(8.0, 0.01),
                self.record(2.0, 0.4), self.record(12.0, 0.9),
                self.record(0.0, 0.3, fail=True)]
        rep = pose_split_eval(recs)
        low_errors = [pose_error(r.estimate, r.gt_rotation, r.gt_translation,
                                 rotation_only=True)
                      for r in recs[:2]]
        high_errors = [pose_error(r.estimate, r.gt_rotation, r.gt_translation)
                       for r in recs[2:4]] + [np.inf]
        assert rep["low_translation"]["auc"] == pose_auc(low_errors)
        assert rep["general"]["auc"] == pose_auc(high_errors)

    def test_pooled_auc_uses_record_order_errors(self):
        recs = [self.record(3.0, 0.05), self.record(2.0, 0.4),
                self.record(0.0, 0.3, fail=True), self.record(8.0, 0.01)]
        rep = pose_split_eval(recs)
        errors = [pose_error(recs[0].estimate, recs[0].gt_rotation,
                             recs[0].gt_translation, rotation_only=True),
                  pose_error(recs[1].estimate, recs[1].gt_rotation, recs[1].gt_translation),
                  np.inf,
                  pose_error(recs[3].estimate, recs[3].gt_rotation,
                             recs[3].gt_translation, rotation_only=True)]
        assert rep["auc"] == pose_auc(errors)
        assert "auc" not in pose_split_eval([])

    def test_low_partition_ignores_translation_direction(self):
        R_gt = np.eye(3)
        est = RelativePose(R_gt, np.array([0.0, 0.0, 1.0]))
        rec = PosePairRecord(est, R_gt, np.array([0.1, 0.0, 0.0]))
        rep = pose_split_eval([rec])
        assert rep["low_translation"]["auc"][5.0] == 1.0


def test_translation_instability_under_noise():
    """Small-baseline pairs give far noisier translation directions."""
    rng = np.random.default_rng(12)
    cam = default_cam(width=320, height=240, f=260.0)

    def median_err(t_norm, n_pairs=25):
        errs = []
        for _ in range(n_pairs):
            axis = rng.normal(size=3)
            t = rng.normal(size=3)
            t = t / np.linalg.norm(t) * t_norm
            pose2 = PoseSE3(rotation(axis, rng.uniform(2, 10)), t)
            pts1, pts2 = two_view_matches(rng, PoseSE3.identity(), pose2, cam,
                                          n=50, noise=0.3)
            try:
                est = estimate_essential(pts1, pts2, cam, cam, iterations=60,
                                         rng=rng)
                _, t_gt = relative_pose(PoseSE3.identity(), pose2)
                errs.append(translation_error_deg(est.translation, t_gt))
            except EstimationFailedError:
                errs.append(90.0)
        return np.median(errs)

    assert median_err(0.04) > median_err(0.5)
