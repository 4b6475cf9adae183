"""DLT fitting, RANSAC behavior, and corner-error metrics."""

import numpy as np
import pytest

from reprojkit.errors import EstimationFailedError
from reprojkit.evaluation import (
    corner_error,
    estimate_homography,
    fit_homography,
    transfer_error,
)


def random_h(rng, scale=0.1):
    H = np.eye(3) + rng.normal(0.0, scale, (3, 3))
    H[2, 2] = 1.0
    if abs(np.linalg.det(H)) < 1e-3:
        return random_h(rng, scale)
    return H


def apply_h(H, pts):
    hom = np.column_stack([pts, np.ones(len(pts))]) @ H.T
    return hom[:, :2] / hom[:, 2:]


class TestFitHomography:
    def test_exact_recovery_from_clean_matches(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            H = random_h(rng)
            pts1 = rng.uniform(0, 200, (12, 2))
            H_est = fit_homography(pts1, apply_h(H, pts1))
            assert corner_error(H_est, H, (240, 320)) < 1e-6

    def test_minimal_sample(self):
        rng = np.random.default_rng(1)
        H = random_h(rng)
        pts1 = np.array([[0.0, 0.0], [100.0, 10.0], [20.0, 120.0], [130.0, 140.0]])
        H_est = fit_homography(pts1, apply_h(H, pts1))
        assert corner_error(H_est, H, (240, 320)) < 1e-6

    def test_too_few_matches(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(EstimationFailedError):
            fit_homography(pts, pts)

    def test_collinear_minimal_sample_degenerate(self):
        pts1 = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 20.0], [30.0, 30.0]])
        with pytest.raises(EstimationFailedError):
            fit_homography(pts1, pts1 + 1.0)


class TestRansac:
    def make_instance(self, rng, n=60, outlier_frac=0.5):
        H = random_h(rng, scale=0.05)
        pts1 = rng.uniform(10, 300, (n, 2))
        pts2 = apply_h(H, pts1)
        n_out = int(n * outlier_frac)
        idx = rng.choice(n, n_out, replace=False)
        pts2[idx] = rng.uniform(10, 300, (n_out, 2))
        return H, pts1, pts2, idx

    def test_half_outliers_recovered(self):
        # an outlier can land inside the 3 px inlier band by chance and
        # bias the refit, so a small failure rate is part of the contract
        rng = np.random.default_rng(2)
        failures = 0
        for _ in range(20):
            H, pts1, pts2, _ = self.make_instance(rng)
            est = estimate_homography(pts1, pts2, threshold=3.0,
                                      iterations=1000, rng=rng)
            if corner_error(est.H, H, (240, 320)) >= 0.5:
                failures += 1
        assert failures <= 1

    def test_inliers_identify_clean_matches(self):
        rng = np.random.default_rng(3)
        H, pts1, pts2, outliers = self.make_instance(rng, n=40)
        est = estimate_homography(pts1, pts2, iterations=500, rng=7)
        assert not est.inliers[outliers].any()
        clean = np.setdiff1d(np.arange(40), outliers)
        assert est.inliers[clean].all()

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(4)
        _, pts1, pts2, _ = self.make_instance(rng)
        a = estimate_homography(pts1, pts2, iterations=300, rng=11)
        b = estimate_homography(pts1, pts2, iterations=300, rng=11)
        np.testing.assert_array_equal(a.H, b.H)
        np.testing.assert_array_equal(a.inliers, b.inliers)

    def test_more_iterations_never_lose_inliers(self):
        rng = np.random.default_rng(5)
        _, pts1, pts2, _ = self.make_instance(rng, n=50, outlier_frac=0.4)
        counts = [estimate_homography(pts1, pts2, iterations=k, rng=13).inliers.sum()
                  for k in (50, 100, 200, 400)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_fewer_than_four_matches(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(EstimationFailedError):
            estimate_homography(pts, pts)

    def test_transfer_error_values(self):
        H = np.eye(3)
        pts1 = np.array([[10.0, 10.0], [20.0, 20.0]])
        pts2 = pts1 + [3.0, 4.0]
        np.testing.assert_allclose(transfer_error(H, pts1, pts2), [5.0, 5.0])


class TestCornerError:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(6)
        H = random_h(rng)
        assert corner_error(H, H, (120, 160)) == 0.0
        assert corner_error(2.5 * H, H, (120, 160)) < 1e-12

    def test_pure_translation_is_its_length(self):
        H = np.eye(3)
        H[0, 2] = 4.0
        assert corner_error(H, np.eye(3), (120, 160)) == pytest.approx(4.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            Ha, Hb = random_h(rng), random_h(rng)
            h, w = 120, 160
            errs = []
            for cx, cy in [(0, 0), (w - 1, 0), (w - 1, h - 1), (0, h - 1)]:
                va = Ha @ [cx, cy, 1.0]
                vb = Hb @ [cx, cy, 1.0]
                errs.append(np.hypot(va[0] / va[2] - vb[0] / vb[2],
                                     va[1] / va[2] - vb[1] / vb[2]))
            assert corner_error(Ha, Hb, (h, w)) == pytest.approx(np.mean(errs))

