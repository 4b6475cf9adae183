"""Hinge descriptor loss and per-cell detector cross-entropy."""

import numpy as np
import pytest

from reprojkit import losses
from reprojkit.correspondence import cell_correspondence_homography
from reprojkit.errors import InvalidSpecError, ShapeError
from reprojkit.losses import (
    DescriptorLossParams,
    descriptor_loss,
    detector_loss,
    detector_targets,
)


def unit_rows(rng, shape):
    """Random unit descriptors in a (..., D) grid."""
    g = rng.normal(size=shape)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def one_cell_loss(a, b, s):
    """``descriptor_loss`` of one 1x1-cell grid pair: the hinge on a . b."""
    S = np.full((1, 1, 1, 1), bool(s))
    return descriptor_loss(np.reshape(a, (1, 1, -1)), np.reshape(b, (1, 1, -1)), S)[0]


class TestHingeTerm:
    def test_identical_positive_is_zero(self):
        d = np.array([0.6, 0.8])
        assert one_cell_loss(d, d, 1) == 0.0

    def test_identical_negative_pays_margin(self):
        d = np.array([0.6, 0.8])
        assert one_cell_loss(d, d, 0) == pytest.approx(0.8)

    def test_orthogonal_negative_is_zero(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert one_cell_loss(a, b, 0) == 0.0

    def test_orthogonal_positive_pays_weighted_margin(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert one_cell_loss(a, b, 1) == pytest.approx(250.0)

    def test_param_validation(self):
        with pytest.raises(InvalidSpecError):
            DescriptorLossParams(positive_margin=0.1, negative_margin=0.2)
        with pytest.raises(InvalidSpecError):
            DescriptorLossParams(positive_margin=1.2)
        with pytest.raises(InvalidSpecError):
            DescriptorLossParams(positive_weight=0.0)
        for bad in (np.inf, np.nan, -np.inf):
            with pytest.raises(InvalidSpecError):
                DescriptorLossParams(positive_weight=bad)


class TestDescriptorLoss:
    def test_all_identical_no_positives_is_exactly_point_eight(self):
        # one-hot unit descriptors make every inner product exactly 1.0;
        # 4x4 grids give 256 pairs, so the mean stays float-exact
        grid = np.zeros((4, 4, 8))
        grid[..., 0] = 1.0
        S = np.zeros((4, 4, 4, 4), dtype=bool)
        loss, g1, g2 = descriptor_loss(grid, grid, S)
        assert loss == 0.8

    def test_matching_descriptors_under_full_positives_is_zero(self):
        grid = np.zeros((4, 4, 8))
        grid[..., 0] = 1.0
        S = np.ones((4, 4, 4, 4), dtype=bool)
        loss, g1, g2 = descriptor_loss(grid, grid, S)
        assert loss == 0.0
        assert not g1.any() and not g2.any()

    def test_orthogonal_negatives_cost_nothing(self):
        rng = np.random.default_rng(0)
        g1 = np.zeros((2, 2, 4))
        g2 = np.zeros((2, 2, 4))
        g1[..., 0] = 1.0
        g2[..., 1] = 1.0
        S = np.zeros((2, 2, 2, 2), dtype=bool)
        loss, d1, d2 = descriptor_loss(g1, g2, S)
        assert loss == 0.0

    def test_mean_normalization_uses_all_pairs(self):
        # one positive pair violated by sim=0 among 2x2 grids: 250 * 1 / 16
        g1 = np.zeros((2, 1, 3))
        g2 = np.zeros((2, 1, 3))
        g1[..., 0] = 1.0
        g2[..., 1] = 1.0
        S = np.zeros((2, 1, 2, 1), dtype=bool)
        S[0, 0, 0, 0] = True
        loss, _, _ = descriptor_loss(g1, g2, S)
        assert loss == pytest.approx(250.0 * 1.0 / 4.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        g1 = unit_rows(rng, (3, 2, 6))
        g2 = unit_rows(rng, (2, 2, 6))
        S = rng.random((3, 2, 2, 2)) < 0.3
        params = DescriptorLossParams()
        sims = g1.reshape(-1, 6) @ g2.reshape(-1, 6).T
        # stay away from both hinge kinks so the loss is differentiable
        assert np.abs(sims - params.positive_margin).min() > 1e-3
        assert np.abs(sims - params.negative_margin).min() > 1e-3
        loss, a1, a2 = descriptor_loss(g1, g2, S, params)
        h = 1e-6
        for grid, analytic, which in ((g1, a1, 0), (g2, a2, 1)):
            flat = grid.ravel()
            num = np.zeros_like(flat)
            for i in range(flat.size):
                for sign in (1.0, -1.0):
                    bumped = flat.copy()
                    bumped[i] += sign * h
                    args = [g1, g2]
                    args[which] = bumped.reshape(grid.shape)
                    num[i] += sign * descriptor_loss(args[0], args[1], S, params)[0]
            num /= 2 * h
            np.testing.assert_allclose(analytic.ravel(), num, rtol=1e-4, atol=1e-9)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        g1 = unit_rows(rng, (2, 3, 5))
        g2 = unit_rows(rng, (3, 2, 5))
        S = rng.random((2, 3, 3, 2)) < 0.4
        loss_a, a1, a2 = descriptor_loss(g1, g2, S)
        loss_b, b2, b1 = descriptor_loss(g2, g1, S.transpose(2, 3, 0, 1))
        assert loss_a == pytest.approx(loss_b, rel=1e-12)
        np.testing.assert_allclose(a1, b1, atol=1e-15)
        np.testing.assert_allclose(a2, b2, atol=1e-15)

    def test_invariant_under_joint_orthogonal_rotation(self):
        rng = np.random.default_rng(8)
        g1 = unit_rows(rng, (2, 2, 6))
        g2 = unit_rows(rng, (2, 2, 6))
        S = rng.random((2, 2, 2, 2)) < 0.4
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        loss, a1, a2 = descriptor_loss(g1, g2, S)
        loss_r, r1, r2 = descriptor_loss(g1 @ Q.T, g2 @ Q.T, S)
        assert loss_r == pytest.approx(loss, rel=1e-12)
        np.testing.assert_allclose(r1, a1 @ Q.T, atol=1e-12)
        np.testing.assert_allclose(r2, a2 @ Q.T, atol=1e-12)

    def test_accepts_cell_correspondence(self):
        H = np.eye(3)
        cc = cell_correspondence_homography(H, (16, 16), cell=8, eps=4.0)
        rng = np.random.default_rng(2)
        g1 = unit_rows(rng, (2, 2, 4))
        g2 = unit_rows(rng, (2, 2, 4))
        via_cc = descriptor_loss(g1, g2, cc)
        via_dense = descriptor_loss(g1, g2, cc.to_dense())
        assert via_cc[0] == via_dense[0]
        with pytest.raises(ShapeError):
            descriptor_loss(unit_rows(rng, (3, 3, 4)), g2, cc)

    def test_shape_validation(self):
        rng = np.random.default_rng(1)
        g1 = unit_rows(rng, (2, 2, 4))
        g2 = unit_rows(rng, (2, 2, 5))
        with pytest.raises(ShapeError):
            descriptor_loss(g1, g2, np.zeros((2, 2, 2, 2), bool))
        with pytest.raises(ShapeError):
            descriptor_loss(g1, g1, np.zeros((3, 3), bool))


class TestDetectorTargets:
    def test_single_label_sets_cell_class(self):
        t = detector_targets(np.array([[10, 9]]), (2, 2))
        assert t[1, 1] == (9 % 8) * 8 + (10 % 8)
        assert t[0, 0] == t[0, 1] == t[1, 0] == 64

    def test_empty_labels_all_dustbin(self):
        t = detector_targets(np.zeros((0, 2), dtype=int), (3, 4))
        assert (t == 64).all()

    def test_row_major_smallest_wins(self):
        labels = np.array([[10, 9], [9, 10], [12, 9]])
        t = detector_targets(labels, (2, 2))
        # (y, x) sorted: (9, 10), (9, 12), (10, 9); first lands in cell (1, 1)
        assert t[1, 1] == (9 % 8) * 8 + (10 % 8)

    def test_out_of_grid_label_rejected(self):
        with pytest.raises(InvalidSpecError):
            detector_targets(np.array([[16, 3]]), (2, 2))
        with pytest.raises(InvalidSpecError):
            detector_targets(np.array([[-1, 3]]), (2, 2))


class TestDetectorLoss:
    def test_uniform_logits_cost_log65(self):
        logits = np.zeros((3, 4, 65))
        loss, grad = detector_loss(logits, np.zeros((0, 2), dtype=int))
        assert loss == pytest.approx(np.log(65.0), rel=1e-15)
        np.testing.assert_allclose(grad.sum(axis=-1), 0.0, atol=1e-15)

    def test_confident_correct_logits_near_zero(self):
        logits = np.zeros((2, 2, 65))
        labels = np.array([[3, 2], [9, 1], [1, 10], [14, 15]])
        targets = detector_targets(labels, (2, 2))
        for cy in range(2):
            for cx in range(2):
                logits[cy, cx, targets[cy, cx]] = 40.0
            # remaining classes stay at 0
        loss, _ = detector_loss(logits, labels)
        assert loss < 1e-9

    def test_loss_decomposes_per_cell(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(1, 2, 65))
        labels = np.array([[2, 3]])
        loss, _ = detector_loss(logits, labels)
        left, _ = detector_loss(logits[:, :1], labels)
        right, _ = detector_loss(logits[:, 1:], np.zeros((0, 2), dtype=int))
        assert loss == pytest.approx((left + right) / 2.0, rel=1e-12)

    def test_gradient_matches_finite_differences_single_cell(self):
        rng = np.random.default_rng(23)
        logits = rng.normal(size=(1, 1, 65))
        labels = np.array([[4, 6]])
        _, grad = detector_loss(logits, labels)
        h = 1e-5
        num = np.zeros(65)
        for i in range(65):
            up = logits.copy()
            dn = logits.copy()
            up[0, 0, i] += h
            dn[0, 0, i] -= h
            num[i] = (detector_loss(up, labels)[0] - detector_loss(dn, labels)[0]) / (2 * h)
        scale = np.abs(grad).max()
        np.testing.assert_allclose(grad[0, 0], num, rtol=1e-6, atol=scale * 1e-6)

    def test_accepts_pseudolabels(self):
        from reprojkit.adaptation import PseudoLabels
        logits = np.zeros((2, 2, 65))
        pl = PseudoLabels(np.array([[3, 2]]), 0)
        a, _ = detector_loss(logits, pl)
        b, _ = detector_loss(logits, pl.points)
        assert a == b

    def test_validation(self):
        with pytest.raises(ShapeError):
            detector_loss(np.zeros((2, 2, 64)), np.zeros((0, 2), dtype=int))
        bad = np.zeros((1, 1, 65))
        bad[0, 0, 0] = np.inf
        with pytest.raises(InvalidSpecError):
            detector_loss(bad, np.zeros((0, 2), dtype=int))


class TestBatchedLosses:
    """A leading batch axis gives each item's unbatched result, to the bit."""

    def test_descriptor_batch_matches_single_calls(self):
        rng = np.random.default_rng(30)
        params = DescriptorLossParams(positive_margin=0.9, negative_margin=0.1)
        for s1, s2, batch1, batch2 in (((3, 3), (3, 3), True, False),
                                       ((2, 3), (3, 2), False, True),
                                       ((1, 4), (2, 2), True, True)):
            g1 = unit_rows(rng, ((5,) if batch1 else ()) + s1 + (6,))
            g2 = unit_rows(rng, ((5,) if batch2 else ()) + s2 + (6,))
            S = rng.random(s1 + s2) < 0.3
            loss, a1, a2 = descriptor_loss(g1, g2, S, params)
            assert loss.shape == (5,)
            assert a1.shape == (5,) + s1 + (6,) and a2.shape == (5,) + s2 + (6,)
            for b in range(5):
                one = descriptor_loss(g1[b] if batch1 else g1, g2[b] if batch2 else g2,
                                      S, params)
                assert type(one[0]) is float
                assert one[0] == loss[b]
                np.testing.assert_array_equal(one[1], a1[b])
                np.testing.assert_array_equal(one[2], a2[b])

    def test_detector_batch_matches_single_calls(self):
        rng = np.random.default_rng(31)
        logits = rng.normal(size=(7, 3, 4, 65)) * 5.0
        labels = np.array([[3, 2], [17, 9], [30, 20]])
        loss, grad = detector_loss(logits, labels)
        assert loss.shape == (7,) and grad.shape == logits.shape
        for b in range(7):
            one, g = detector_loss(logits[b], labels)
            assert type(one) is float
            assert one == loss[b]
            np.testing.assert_array_equal(g, grad[b])

    def test_batched_shapes_validated(self):
        with pytest.raises(ShapeError):
            detector_loss(np.zeros((1, 2, 2, 2, 65)), np.zeros((0, 2), dtype=int))
        with pytest.raises(ShapeError):
            descriptor_loss(np.zeros((1, 1, 2, 2, 4)), np.zeros((2, 2, 4)),
                            np.zeros((2, 2, 2, 2), bool))


def _max_rel_fd_error_oracle(loss, x, grad, h):
    """The one-coordinate-at-a-time loop: ``loss()`` reads ``x``, which is
    perturbed in place."""
    fd = np.zeros_like(grad)
    flat = x.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = loss()
        flat[k] = orig - h
        dn = loss()
        flat[k] = orig
        fd.reshape(-1)[k] = (up - dn) / (2 * h)
    scale = max(float(np.abs(grad).max()), 1e-12)
    return float(np.abs(fd - grad).max()) / scale


class TestBatchedFiniteDifferences:
    def test_descriptor_error_equals_per_coordinate_loop(self):
        rng = np.random.default_rng(32)
        params = DescriptorLossParams()
        h = 1e-4
        for _ in range(5):
            d1, d2 = unit_rows(rng, (3, 3, 6)), unit_rows(rng, (2, 3, 6))
            S = rng.random((3, 3, 2, 3)) < 0.2
            _, g1, g2 = descriptor_loss(d1, d2, S, params)
            calls = []

            def batched(b):
                calls.append(len(b))
                return descriptor_loss(b, d2, S, params)[0]

            got = losses._max_rel_fd_error(batched, d1, g1, h)
            assert calls == [2 * d1.size]
            want = _max_rel_fd_error_oracle(
                lambda: descriptor_loss(d1, d2, S, params)[0], d1, g1, h)
            assert got == want
            got2 = losses._max_rel_fd_error(
                lambda b: descriptor_loss(d1, b, S, params)[0], d2, g2, h)
            want2 = _max_rel_fd_error_oracle(
                lambda: descriptor_loss(d1, d2, S, params)[0], d2, g2, h)
            assert got2 == want2

    def test_detector_error_equals_per_coordinate_loop(self):
        rng = np.random.default_rng(33)
        h = 1e-4
        for _ in range(5):
            logits = rng.normal(size=(2, 3, 65))
            pts = rng.integers(0, 16, (3, 2))
            _, grad = detector_loss(logits, pts)
            got = losses._max_rel_fd_error(lambda b: detector_loss(b, pts)[0],
                                           logits, grad, h)
            want = _max_rel_fd_error_oracle(lambda: detector_loss(logits, pts)[0],
                                            logits, grad, h)
            assert got == want
