"""DLT fitting, RANSAC behavior, and corner-error metrics."""

import tracemalloc

import numpy as np
import pytest

from reprojkit.errors import EstimationFailedError
from reprojkit.evaluation import homography
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


def _hartley_oracle(pts):
    centroid = pts.mean(axis=0)
    scale = np.sqrt(2.0) / max(np.linalg.norm(pts - centroid, axis=1).mean(), 1e-12)
    return np.array([[scale, 0.0, -scale * centroid[0]],
                     [0.0, scale, -scale * centroid[1]],
                     [0.0, 0.0, 1.0]])


def fit_homography_oracle(pts1, pts2):
    """The single-sample DLT the stacked ``fit_homography`` replaced."""
    n = len(pts1)
    T1 = _hartley_oracle(pts1)
    T2 = _hartley_oracle(pts2)
    p1 = np.column_stack([pts1, np.ones(n)]) @ T1.T
    p2 = np.column_stack([pts2, np.ones(n)]) @ T2.T
    A = np.zeros((2 * n, 9))
    A[0::2, 0:3] = p1
    A[0::2, 6:9] = -p2[:, [0]] * p1
    A[1::2, 3:6] = p1
    A[1::2, 6:9] = -p2[:, [1]] * p1
    _, s, vt = np.linalg.svd(A)
    if n == 4 and s[-2] < 1e-9 * max(s[0], 1.0):
        raise EstimationFailedError("degenerate (collinear) minimal sample")
    H = np.linalg.inv(T2) @ vt[-1].reshape(3, 3) @ T1
    if abs(H[2, 2]) < 1e-12:
        raise EstimationFailedError("ill-conditioned homography solution")
    return H / H[2, 2]


def transfer_error_oracle(H, pts1, pts2):
    hom = np.column_stack([pts1, np.ones(len(pts1))]) @ H.T
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.linalg.norm(hom[:, :2] / hom[:, 2:] - pts2, axis=1)
    return np.where(np.isfinite(err), err, np.inf)


def estimate_homography_oracle(pts1, pts2, threshold=3.0, iterations=1000, rng=0):
    """The one-hypothesis-at-a-time RANSAC loop block scoring replaced."""
    n = len(pts1)
    rng = np.random.default_rng(rng)
    best_count = 0
    best_inliers = None
    for _ in range(iterations):
        idx = rng.choice(n, 4, replace=False)
        try:
            H = fit_homography_oracle(pts1[idx], pts2[idx])
        except EstimationFailedError:
            continue
        inliers = transfer_error_oracle(H, pts1, pts2) <= threshold
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers
    if best_inliers is None or best_count < 4:
        raise EstimationFailedError("no homography hypothesis reached consensus")
    return fit_homography_oracle(pts1[best_inliers], pts2[best_inliers]), best_inliers


class TestBlockScoring:
    """Block-wise RANSAC against the one-at-a-time loop, bit for bit."""

    def check(self, pts1, pts2, threshold=3.0, iterations=1000, seed=0):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            want = estimate_homography_oracle(pts1, pts2, threshold, iterations, rng_ref)
        except EstimationFailedError:
            with pytest.raises(EstimationFailedError):
                estimate_homography(pts1, pts2, threshold, iterations, rng_new)
            want = None
        else:
            est = estimate_homography(pts1, pts2, threshold, iterations, rng_new)
            np.testing.assert_array_equal(est.H, want[0])
            np.testing.assert_array_equal(est.inliers, want[1])
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        return want

    def test_random_instances_with_outliers(self):
        rng = np.random.default_rng(30)
        for trial in range(12):
            n = int(rng.integers(5, 120))
            H, pts1, pts2, _ = TestRansac().make_instance(
                rng, n=n, outlier_frac=rng.uniform(0.1, 0.8))
            pts2 = pts2 + rng.normal(0.0, 0.8, pts2.shape)
            self.check(pts1, pts2, threshold=rng.uniform(0.5, 4.0),
                       iterations=int(rng.integers(1, 400)), seed=trial)

    @pytest.mark.parametrize("n", [4, 8])
    def test_exact_minimal_counts(self, n):
        rng = np.random.default_rng(31 + n)
        H, pts1, pts2, _ = TestRansac().make_instance(rng, n=n, outlier_frac=0.25)
        assert self.check(pts1, pts2, iterations=200, seed=n) is not None

    def test_block_boundary_iteration_counts(self):
        rng = np.random.default_rng(32)
        _, pts1, pts2, _ = TestRansac().make_instance(rng, n=30, outlier_frac=0.6)
        pts2 = pts2 + rng.normal(0.0, 1.0, pts2.shape)
        block = homography._BLOCK
        for iterations in (1, block - 1, block, block + 1, 1000):
            self.check(pts1, pts2, iterations=iterations, seed=iterations)

    def test_collinear_and_duplicate_samples(self):
        # most minimal samples are degenerate: a line of points, repeats
        rng = np.random.default_rng(33)
        line = np.column_stack([np.linspace(0, 100, 9), np.linspace(5, 60, 9)])
        pts1 = np.vstack([line, line[:3], [[10.0, 90.0], [80.0, 5.0]]])
        pts2 = pts1 * 1.1 + [3.0, -2.0] + rng.normal(0, 0.3, pts1.shape)
        self.check(pts1, pts2, iterations=300, seed=1)
        dup = np.repeat(rng.uniform(0, 50, (3, 2)), 3, axis=0)
        self.check(dup, dup + 1.0, iterations=150, seed=2)

    def test_points_sent_to_infinity(self):
        # pts1 on the line H maps to infinity transfer to inf/NaN
        H = np.array([[1.0, 0.1, 2.0], [0.05, 1.0, -1.0], [0.002, 0.001, 1.0]])
        rng = np.random.default_rng(34)
        pts1 = rng.uniform(0, 200, (40, 2))
        xs = rng.uniform(-600, 0, 8)
        pts1[:8] = np.column_stack([xs, -(1.0 + 0.002 * xs) / 0.001])
        with np.errstate(divide="ignore", invalid="ignore"):
            pts2 = apply_h(H, pts1)
            assert not np.isfinite(pts2[:8]).all()
        pts2[:8] = rng.uniform(0, 200, (8, 2))
        self.check(pts1, pts2, iterations=200, seed=3)
        self.check(pts1, pts2, threshold=np.inf, iterations=50, seed=4)

    def test_no_consensus_consumes_the_same_stream(self):
        pts = np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0)])
        assert self.check(pts, pts + 1.0, iterations=40, seed=5) is None

    def test_tie_across_block_boundary_keeps_earlier(self):
        # counts peak first at the last hypothesis of block 0 and again
        # in block 1; the earlier one wins, as it does in a plain loop
        block = homography._BLOCK
        counts = np.ones(3 * block, dtype=int)
        counts[block - 1] = counts[block] = counts[2 * block + 5] = 7
        seen = []

        def inliers_of(idx):
            start = sum(len(b) for b in seen)
            seen.append(idx)
            # hypothesis i's consensus: its count of matches, rolled by i
            return np.array([np.roll(np.arange(10) < c, i % 10) for i, c in
                             enumerate(counts[start:start + len(idx)], start)])

        def consensus_of(i):
            return np.roll(np.arange(10) < 7, i % 10)

        count, inliers = homography._ransac(10, 4, 3 * block, 0, inliers_of)
        assert count == 7
        np.testing.assert_array_equal(inliers, consensus_of(block - 1))
        counts[block - 1] = 1
        seen.clear()
        count, inliers = homography._ransac(10, 4, 3 * block, 0, inliers_of)
        assert count == 7
        np.testing.assert_array_equal(inliers, consensus_of(block))

    def test_temporaries_bounded_by_block(self):
        # all 1000 hypotheses at once would need 7.2 MB per (1000, 300, 3)
        rng = np.random.default_rng(36)
        _, pts1, pts2, _ = TestRansac().make_instance(rng, n=300)
        tracemalloc.start()
        try:
            estimate_homography(pts1, pts2, iterations=1000, rng=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_stacked_fit_matches_single_fits(self):
        rng = np.random.default_rng(35)
        pts1 = rng.uniform(0, 100, (50, 4, 2))
        pts1[:10, :, 1] = 0.5 * pts1[:10, :, 0]  # collinear samples
        pts1[10:15, 1] = pts1[10:15, 0]          # duplicate points
        pts2 = pts1 + rng.normal(0, 5.0, pts1.shape)
        H = fit_homography(pts1, pts2)
        for b in range(50):
            try:
                want = fit_homography_oracle(pts1[b], pts2[b])
            except EstimationFailedError:
                assert np.isnan(H[b]).all()
            else:
                np.testing.assert_array_equal(H[b], want)
        assert np.isnan(H[:10, 2, 2]).all()
        errs = transfer_error(H, pts1[20], pts2[20])
        assert errs.shape == (50, 4)
        np.testing.assert_array_equal(errs[25], transfer_error_oracle(H[25], pts1[20], pts2[20]))


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

