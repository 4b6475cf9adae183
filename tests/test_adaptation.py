"""NMS and pseudo-label generation over frame windows."""

import itertools
import weakref

import numpy as np
import pytest

from reprojkit import adaptation, frontend, geometry
from reprojkit.adaptation import (
    AGGREGATE_MODES,
    AdaptationParams,
    PseudoLabels,
    _stamp_patches,
    generate_pseudo_labels,
    nms,
    pseudo_labels_for_frame,
    read_labels,
    write_labels,
)
from reprojkit.errors import InvalidSpecError, ShapeError
from reprojkit.geometry import (
    DepthMap,
    PoseSE3,
    RejectReason,
    RenderedView,
    ReprojectionParams,
    reproject_points,
    robust_depth_map,
)

from helpers import default_cam, flat_view, plane_depth, rendered_frames, rotation


def brute_force_nms(heatmap, radius, threshold):
    """Independent greedy reference: repeatedly take the best candidate."""
    heat = np.array(heatmap, dtype=float)
    alive = heat >= threshold
    kept = []
    while alive.any():
        ys, xs = np.nonzero(alive)
        scores = heat[ys, xs]
        best = min(range(len(ys)), key=lambda i: (-scores[i], ys[i], xs[i]))
        y, x = ys[best], xs[best]
        kept.append((x, y))
        alive[max(0, y - radius):y + radius + 1, max(0, x - radius):x + radius + 1] = False
    return np.array(kept, dtype=int) if kept else np.zeros((0, 2), dtype=int)


def greedy_nms(heatmap, radius, threshold):
    """Oracle: the one-candidate-at-a-time greedy pass that ``nms`` replaces."""
    heatmap = np.asarray(heatmap, dtype=np.float64)
    ys, xs = np.nonzero(heatmap >= threshold)
    if len(ys) == 0:
        return np.zeros((0, 2), dtype=int)
    scores = heatmap[ys, xs]
    order = np.lexsort((xs, ys, -scores))
    suppressed = np.zeros(heatmap.shape, dtype=bool)
    kept = []
    for i in order:
        y, x = int(ys[i]), int(xs[i])
        if suppressed[y, x]:
            continue
        kept.append((x, y))
        suppressed[max(0, y - radius):y + radius + 1,
                   max(0, x - radius):x + radius + 1] = True
    return np.array(kept, dtype=int)


def assert_same_points(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


class TestNmsMatchesGreedy:
    """``nms`` returns exactly what the greedy pass returns, in its order."""

    @pytest.mark.parametrize("radius", [1, 2, 4, 7])
    def test_random_maps(self, radius):
        rng = np.random.default_rng(radius)
        for shape in [(1, 1), (1, 9), (9, 1), (5, 6), (32, 32), (61, 47)]:
            for threshold in (0.0, 0.015, 0.5, 1.0):
                heat = rng.random(shape)
                heat[rng.random(shape) < 0.3] = 0.0
                assert_same_points(nms(heat, radius, threshold),
                                   greedy_nms(heat, radius, threshold))

    @pytest.mark.parametrize("levels", [1, 2, 3, 8])
    def test_plateaus(self, levels):
        # few distinct scores: long runs of ties, broken row-major
        rng = np.random.default_rng(levels)
        for shape in [(7, 7), (20, 33), (48, 40)]:
            heat = rng.integers(0, levels + 1, shape) / levels
            for radius in (1, 2, 3, 5):
                for threshold in (0.0, 1.0):
                    assert_same_points(nms(heat, radius, threshold),
                                       greedy_nms(heat, radius, threshold))
            blocks = np.kron(rng.integers(0, 3, (6, 6)), np.ones((4, 5))) / 2.0
            assert_same_points(nms(blocks, 2, 0.0), greedy_nms(blocks, 2, 0.0))

    def test_radius_larger_than_map(self):
        rng = np.random.default_rng(5)
        for shape in [(3, 4), (10, 10), (4, 25)]:
            heat = rng.random(shape)
            for radius in (10, 30):
                got = nms(heat, radius, 0.0)
                assert_same_points(got, greedy_nms(heat, radius, 0.0))
                assert len(got) == 1 or radius < max(shape)

    def test_no_candidates(self):
        for heat, threshold in [(np.zeros((8, 8)), 0.1), (np.full((5, 9), 0.99), 1.0),
                                (np.full((4, 4), np.nan), 0.0), (np.zeros((0, 5)), 0.0)]:
            assert_same_points(nms(heat, 2, threshold), greedy_nms(heat, 2, threshold))

    def test_threshold_one_keeps_exact_peaks(self):
        heat = np.zeros((12, 12))
        heat[[2, 2, 9], [3, 5, 9]] = 1.0
        assert_same_points(nms(heat, 2, 1.0), greedy_nms(heat, 2, 1.0))
        np.testing.assert_array_equal(nms(heat, 2, 1.0), [[3, 2], [9, 9]])

    def test_detector_heatmaps_and_label_maps(self, monkeypatch):
        from reprojkit.config import load_scene
        from reprojkit.frontend import detect
        from reprojkit.scene import TrajectorySpec, generate_trajectory, render_view

        spec, cam = load_scene("builtin:general")
        poses = generate_trajectory(TrajectorySpec(frames=8))
        views = [render_view(spec, cam, pose, i) for i, pose in enumerate(poses)]
        for view in views:
            heat = detect(view.image)
            for radius, threshold in ((4, 0.015), (1, 0.0), (2, 0.3)):
                assert_same_points(nms(heat, radius, threshold),
                                   greedy_nms(heat, radius, threshold))
        params = AdaptationParams(window_len=4, n_sampled=3, threshold=0.015)
        got = generate_pseudo_labels(views, detect, params, ReprojectionParams())
        monkeypatch.setattr(adaptation, "nms", greedy_nms)
        want = generate_pseudo_labels(views, detect, params, ReprojectionParams())
        assert len(got) == len(want) == 5
        for g, w in zip(got, want):
            assert len(g.points) > 10
            assert_same_points(g.points, w.points)


class TestNms:
    def test_single_spike(self):
        heat = np.zeros((20, 30))
        heat[7, 21] = 0.9
        np.testing.assert_array_equal(nms(heat, 4, 0.1), [[21, 7]])

    def test_close_spikes_keep_higher(self):
        heat = np.zeros((20, 20))
        heat[10, 10] = 0.5
        heat[10, 13] = 0.8
        np.testing.assert_array_equal(nms(heat, 4, 0.1), [[13, 10]])

    def test_spikes_beyond_radius_both_kept(self):
        heat = np.zeros((20, 20))
        heat[3, 3] = 0.5
        heat[3, 12] = 0.8
        np.testing.assert_array_equal(nms(heat, 4, 0.1), [[12, 3], [3, 3]])

    def test_threshold_filters(self):
        heat = np.zeros((10, 10))
        heat[2, 2] = 0.01
        heat[7, 7] = 0.5
        np.testing.assert_array_equal(nms(heat, 2, 0.015), [[7, 7]])
        assert len(nms(heat, 2, 0.6)) == 0

    def test_ties_break_row_major(self):
        heat = np.zeros((12, 12))
        heat[8, 2] = 0.5
        heat[1, 9] = 0.5
        heat[1, 1] = 0.5
        np.testing.assert_array_equal(nms(heat, 3, 0.1), [[1, 1], [9, 1], [2, 8]])

    def test_matches_brute_force_on_random_maps(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            heat = rng.random((32, 32))
            heat[heat < 0.5] = 0.0
            got = nms(heat, 4, 0.015)
            want = brute_force_nms(heat, 4, 0.015)
            np.testing.assert_array_equal(got, want)

    def test_kept_points_respect_spacing(self):
        rng = np.random.default_rng(3)
        pts = nms(rng.random((40, 40)), 5, 0.0)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert max(abs(pts[i, 0] - pts[j, 0]), abs(pts[i, 1] - pts[j, 1])) > 5

    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            nms(np.zeros((5, 5)), 0, 0.1)
        with pytest.raises(ShapeError):
            nms(np.zeros(5), 1, 0.1)


def spike_detector(spikes_by_marker):
    """Detector keyed on image[0, 0, 0]: returns the registered spike map."""

    def detector(image):
        heat = np.zeros(image.shape[:2])
        for x, y, score in spikes_by_marker.get(int(image[0, 0, 0]), []):
            heat[y, x] = score
        return heat

    return detector


def marked_views(cam, poses, plane_z=2.0):
    views = []
    for i, pose in enumerate(poses):
        img = np.zeros((cam.height, cam.width, 3), dtype=np.uint8)
        img[0, 0, 0] = i
        views.append(RenderedView(img, plane_depth(cam, pose, plane_z), cam, pose, i))
    return views


def static_views(cam, n):
    return marked_views(cam, [PoseSE3.identity()] * n)


class TestPseudoLabels:
    def test_detector_firing_only_in_reference(self):
        cam = default_cam(width=48, height=48, f=96.0)
        views = static_views(cam, 6)
        det = spike_detector({0: [(20, 12, 0.9), (5, 30, 0.5)]})
        params = AdaptationParams(window_len=6, n_sampled=4, seed=1)
        labels = pseudo_labels_for_frame(views, 0, det, params, ReprojectionParams())
        want = nms(det(views[0].image), params.nms_radius, params.threshold)
        np.testing.assert_array_equal(labels.points, want)
        assert labels.frame_index == 0

    def test_n_sampled_zero_reduces_to_reference_nms(self):
        cam = default_cam(width=48, height=48, f=96.0)
        views = static_views(cam, 3)
        spikes = {i: [(10 + i, 20, 0.8)] for i in range(3)}
        det = spike_detector(spikes)
        params = AdaptationParams(window_len=3, n_sampled=0)
        labels = pseudo_labels_for_frame(views, 0, det, params, ReprojectionParams())
        np.testing.assert_array_equal(labels.points, [[10, 20]])

    def test_static_corner_yields_single_exact_label(self):
        cam = default_cam(width=48, height=48, f=96.0)
        views = static_views(cam, 8)
        det = spike_detector({i: [(22, 17, 0.7)] for i in range(8)})
        params = AdaptationParams(window_len=8, n_sampled=5, seed=0)
        labels = pseudo_labels_for_frame(views, 0, det, params, ReprojectionParams())
        np.testing.assert_array_equal(labels.points, [[22, 17]])

    def test_transfer_lands_at_projected_pixel(self):
        cam = default_cam(width=64, height=64, f=128.0)
        shift_pose = PoseSE3(np.eye(3), [0.25, 0.0, 0.0])
        views = marked_views(cam, [PoseSE3.identity(), shift_pose])
        # only frame 1 detects; its point projects 16 px right in frame 0
        det = spike_detector({1: [(20, 31, 0.9)]})
        params = AdaptationParams(window_len=2, n_sampled=1, threshold=0.015)
        labels = pseudo_labels_for_frame(views, 0, det, params, ReprojectionParams())
        # disparity = fx * baseline / z = 128 * 0.25 / 2 = 16
        np.testing.assert_array_equal(labels.points, [[36, 31]])

    def test_rejected_transfers_are_dropped(self):
        cam = default_cam(width=48, height=48, f=96.0)
        behind = PoseSE3(rotation([0, 1, 0], 180.0), [0.0, 0.0, 0.0])
        views = marked_views(cam, [behind, PoseSE3.identity()])
        det = spike_detector({1: [(10, 10, 0.9)]})
        params = AdaptationParams(window_len=2, n_sampled=1)
        labels = pseudo_labels_for_frame(views, 0, det, params, ReprojectionParams())
        assert len(labels.points) == 0

    def test_reference_detections_survive_aggregation(self):
        cam = default_cam(width=64, height=64, f=128.0)
        rng = np.random.default_rng(4)
        views = static_views(cam, 5)
        spikes = {}
        for i in range(5):
            spikes[i] = [(int(x), int(y), float(s))
                         for x, y, s in zip(rng.integers(2, 62, 8),
                                            rng.integers(2, 62, 8),
                                            rng.uniform(0.2, 1.0, 8))]
        det = spike_detector(spikes)
        params = AdaptationParams(window_len=5, n_sampled=3, seed=7)
        labels = pseudo_labels_for_frame(views, 0, det, params, ReprojectionParams())
        base = nms(det(views[0].image), params.nms_radius, params.threshold)
        for x, y in base:
            cheb = np.max(np.abs(labels.points - [x, y]), axis=1)
            assert cheb.min() <= params.nms_radius

    def test_untouched_pixels_keep_reference_scores(self):
        cam = default_cam(width=64, height=64, f=128.0)
        views = static_views(cam, 2)
        det = spike_detector({0: [(10, 10, 0.4)], 1: [(40, 40, 0.9)]})
        params = AdaptationParams(window_len=2, n_sampled=1, patch=3)
        labels = pseudo_labels_for_frame(views, 0, det, params, ReprojectionParams())
        # the transferred corner shows up besides the reference one
        got = {tuple(p) for p in labels.points}
        assert got == {(10, 10), (40, 40)}

    def test_deterministic_under_seed(self):
        cam = default_cam(width=48, height=48, f=96.0)
        rng = np.random.default_rng(12)
        views = static_views(cam, 9)
        spikes = {i: [(int(x), int(y), float(s))
                      for x, y, s in zip(rng.integers(0, 48, 5),
                                         rng.integers(0, 48, 5),
                                         rng.uniform(0.1, 1.0, 5))]
                  for i in range(9)}
        det = spike_detector(spikes)
        params = AdaptationParams(window_len=9, n_sampled=5, seed=21)
        a = pseudo_labels_for_frame(views, 0, det, params, ReprojectionParams())
        b = pseudo_labels_for_frame(views, 0, det, params, ReprojectionParams())
        np.testing.assert_array_equal(a.points, b.points)

    def test_inverse_consistency_rotation_only(self):
        cam = default_cam(width=64, height=64, f=160.0)
        pose_b = PoseSE3(rotation([0, 1, 0], 2.0), [0.0, 0.0, 0.0])
        params = AdaptationParams(window_len=2, n_sampled=1)
        views_fwd = marked_views(cam, [PoseSE3.identity(), pose_b])
        det_fwd = spike_detector({1: [(40, 30, 0.9)]})
        fwd = pseudo_labels_for_frame(views_fwd, 0, det_fwd, params, ReprojectionParams())
        assert len(fwd.points) == 1
        px, py = (int(v) for v in fwd.points[0])

        views_bwd = marked_views(cam, [pose_b, PoseSE3.identity()])
        det_bwd = spike_detector({1: [(px, py, 0.9)]})
        back = pseudo_labels_for_frame(views_bwd, 0, det_bwd, params, ReprojectionParams())
        assert len(back.points) == 1
        assert np.abs(back.points[0] - [40, 30]).max() <= 1

    def test_window_bounds_checked(self):
        cam = default_cam(width=32, height=32, f=64.0)
        views = static_views(cam, 4)
        det = spike_detector({})
        params = AdaptationParams(window_len=5, n_sampled=2)
        with pytest.raises(InvalidSpecError):
            pseudo_labels_for_frame(views, 0, det, params, ReprojectionParams())
        with pytest.raises(InvalidSpecError):
            pseudo_labels_for_frame(views, -1, det,
                                    AdaptationParams(window_len=2, n_sampled=1),
                                    ReprojectionParams())

    def test_generate_covers_all_full_windows(self):
        cam = default_cam(width=32, height=32, f=64.0)
        views = static_views(cam, 7)
        det = spike_detector({i: [(8, 8, 0.5)] for i in range(7)})
        params = AdaptationParams(window_len=5, n_sampled=2)
        labels = generate_pseudo_labels(views, det, params, ReprojectionParams())
        assert [lab.frame_index for lab in labels] == [0, 1, 2]
        for lab in labels:
            np.testing.assert_array_equal(lab.points, [[8, 8]])
        with pytest.raises(InvalidSpecError):
            generate_pseudo_labels(views[:3], det, params, ReprojectionParams())


def _stamp_patch(mask, src, sx, sy, dx, dy, radius):
    """Scalar oracle: copy the (2r+1)^2 neighborhood of (sx, sy) in src onto
    mask at (dx, dy), both clipped at their borders, combined by maximum."""
    h, w = mask.shape
    y0 = max(-radius, -sy, -dy)
    x0 = max(-radius, -sx, -dx)
    y1 = min(radius + 1, src.shape[0] - sy, h - dy)
    x1 = min(radius + 1, src.shape[1] - sx, w - dx)
    if y0 >= y1 or x0 >= x1:
        return
    piece = src[sy + y0:sy + y1, sx + x0:sx + x1]
    region = mask[dy + y0:dy + y1, dx + x0:dx + x1]
    np.maximum(region, piece, out=region)


def reference_pseudo_labels(views, ref, detector, params, reproj):
    """Uncached oracle: detect, reproject and stamp one point at a time."""
    rng = np.random.default_rng([params.seed, ref])
    others = np.arange(ref + 1, ref + params.window_len)
    picked = sorted(rng.choice(others, size=params.n_sampled, replace=False).tolist())
    heat = np.asarray(detector(views[ref].image), dtype=np.float64)
    masks = []
    for r in picked:
        heat_r = np.asarray(detector(views[r].image), dtype=np.float64)
        points = nms(heat_r, params.nms_radius, params.threshold)
        mask = np.zeros_like(heat)
        if len(points):
            targets, _, reasons = reproject_points(points.astype(np.float64),
                                                   views[r], views[ref], reproj)
            for (sx, sy), target, reason in zip(points, targets, reasons):
                if reason == 0:
                    dx, dy = (int(v) for v in np.rint(target))
                    _stamp_patch(mask, heat_r, int(sx), int(sy), dx, dy, params.patch // 2)
        masks.append(mask)
    if params.aggregate == "max" or not masks:
        agg = heat.copy()
        for m in masks:
            np.maximum(agg, m, out=agg)
    elif params.aggregate == "mean":
        agg = (heat + sum(masks)) / (1.0 + len(masks))
    else:
        agg = np.clip(heat + sum(masks), 0.0, 1.0)
    return nms(agg, params.nms_radius, params.threshold)


def per_source_pseudo_labels(views, ref, detector, params, reproj):
    """Oracle: each sampled frame reprojected by its own ``reproject_points``
    call and stamped by its own ``_stamp_patches`` call, folded in order."""
    rng = np.random.default_rng([params.seed, ref])
    others = np.arange(ref + 1, ref + params.window_len)
    picked = sorted(rng.choice(others, size=params.n_sampled, replace=False).tolist())
    heat = np.asarray(detector(views[ref].image), dtype=np.float64)
    take_max = params.aggregate == "max" or not picked
    acc = heat.copy() if take_max else np.zeros_like(heat)
    fold = np.maximum if take_max else np.add
    mask = np.empty(heat.shape)
    for r in picked:
        heat_r = np.asarray(detector(views[r].image), dtype=np.float64)
        points = nms(heat_r, params.nms_radius, params.threshold)
        mask.fill(0.0)
        if len(points):
            targets, _, reasons = reproject_points(points.astype(np.float64), views[r],
                                                   views[ref], reproj)
            ok = reasons == 0
            _stamp_patches(mask, heat_r, points[ok], np.rint(targets[ok]).astype(int),
                           params.patch // 2)
        fold(acc, mask, out=acc)
    if take_max:
        agg = acc
    elif params.aggregate == "mean":
        agg = (heat + acc) / (1.0 + len(picked))
    else:
        agg = np.clip(heat + acc, 0.0, 1.0)
    return nms(agg, params.nms_radius, params.threshold)


def assert_matches_per_source(views, detector, params, reproj=ReprojectionParams()):
    got = generate_pseudo_labels(views, detector, params, reproj)
    assert [lab.frame_index for lab in got] == list(range(len(views) - params.window_len + 1))
    for lab in got:
        assert_same_points(lab.points,
                           per_source_pseudo_labels(views, lab.frame_index, detector,
                                                    params, reproj))
    return got


class TestWindowLanding:
    """One landing per window gives the per-source loop's labels exactly."""

    @pytest.mark.parametrize("kind", ["general", "hires", "plane"])
    @pytest.mark.parametrize("patch", [1, 3, 5])
    @pytest.mark.parametrize("aggregate", AGGREGATE_MODES)
    def test_rendered_windows(self, kind, patch, aggregate):
        views = rendered_frames(kind)
        params = AdaptationParams(window_len=6, n_sampled=4, patch=patch,
                                  aggregate=aggregate, seed=3)
        got = assert_matches_per_source(views, frontend.detect, params)
        assert all(len(lab.points) for lab in got)

    @pytest.mark.parametrize("aggregate", AGGREGATE_MODES)
    def test_frames_without_nms_points(self, aggregate):
        views, det = random_spike_setup(8, 4)
        # frames 2, 3 and 5 detect nothing; the window still folds their masks
        empty = spike_detector({})
        params = AdaptationParams(window_len=5, n_sampled=4, aggregate=aggregate, seed=1)
        got = assert_matches_per_source(
            views, lambda im: empty(im) if im[0, 0, 0] in (2, 3, 5) else det(im), params)
        assert any(len(lab.points) for lab in got)
        assert_matches_per_source(views, empty, params)

    @staticmethod
    def rejecting_views(reason):
        """Frame 0 and four sampled frames whose every point ``reason`` rejects."""
        cam = default_cam(width=48, height=48, f=96.0)
        ident = PoseSE3.identity()
        ref_pose = {RejectReason.BEHIND_CAMERA: PoseSE3(rotation([0, 1, 0], 180.0), np.zeros(3)),
                    RejectReason.OUT_OF_BOUNDS: PoseSE3(np.eye(3), [5.0, 0.0, 0.0])}.get(reason,
                                                                                         ident)
        views = marked_views(cam, [ref_pose] + [ident] * 4)
        if reason == RejectReason.INVALID_DEPTH:
            no_depth = DepthMap(np.zeros((48, 48)), np.zeros((48, 48), dtype=bool))
            views[1:] = [RenderedView(v.image, no_depth, cam, v.pose, v.index)
                         for v in views[1:]]
        elif reason == RejectReason.OCCLUDED:
            # the reference sees a surface at 1 m in front of the 2 m plane
            views[0] = RenderedView(views[0].image, plane_depth(cam, ident, 1.0), cam, ident, 0)
        return views

    @pytest.mark.parametrize("reason", list(RejectReason), ids=lambda r: r.name)
    @pytest.mark.parametrize("aggregate", AGGREGATE_MODES)
    def test_every_point_rejected(self, reason, aggregate):
        views = self.rejecting_views(reason)
        rng = np.random.default_rng(int(reason))
        spikes = {i: [(int(x), int(y), float(s))
                      for x, y, s in zip(rng.integers(0, 48, 10), rng.integers(0, 48, 10),
                                         rng.uniform(0.1, 1.0, 10))]
                  for i in range(5)}
        det = spike_detector(spikes)
        params = AdaptationParams(window_len=5, n_sampled=4, aggregate=aggregate)
        reproj = ReprojectionParams()
        for r in range(1, 5):
            points = nms(det(views[r].image), params.nms_radius, params.threshold)
            assert len(points)
            _, _, reasons = reproject_points(points.astype(np.float64), views[r], views[0],
                                             reproj)
            assert (reasons == reason).all()
        (lab,) = assert_matches_per_source(views, det, params, reproj)
        heat = det(views[0].image)
        if aggregate == "mean":
            heat = heat / 5.0
        assert_same_points(lab.points, nms(heat, params.nms_radius, params.threshold))

    @pytest.mark.parametrize("aggregate", AGGREGATE_MODES)
    def test_points_without_depth_stamp_nothing(self, aggregate):
        views, _ = random_spike_setup(7, 5)
        # no depth left of column 20 or above row 10 in the sampled frames
        valid = np.ones((48, 48), dtype=bool)
        valid[:, :20] = valid[:10] = False
        views = views[:1] + [
            RenderedView(v.image, DepthMap(np.where(valid, v.depth.values, 0.0), valid),
                         v.cam, v.pose, v.index) for v in views[1:]]

        def det(image):
            return np.random.default_rng(int(image[0, 0, 0])).uniform(0.0, 1.0, (48, 48))

        params = AdaptationParams(window_len=5, n_sampled=3, aggregate=aggregate, seed=4)
        robust = robust_depth_map(views[1].depth, ReprojectionParams())
        points = nms(det(views[1].image), params.nms_radius, params.threshold)
        has_depth = robust.valid[points[:, 1], points[:, 0]]
        assert has_depth.any() and not has_depth.all()
        assert_matches_per_source(views, det, params)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("aggregate", AGGREGATE_MODES)
    @pytest.mark.parametrize("patch", [1, 3, 5])
    def test_negative_nan_and_fortran_heat(self, aggregate, patch):
        views, _ = random_spike_setup(9, 6)

        def det(image):
            rng = np.random.default_rng(int(image[0, 0, 0]))
            heat = rng.uniform(-0.5, 1.0, image.shape[:2])
            heat[rng.random(heat.shape) < 0.05] = np.nan
            return np.asfortranarray(heat)

        params = AdaptationParams(window_len=5, n_sampled=3, patch=patch,
                                  aggregate=aggregate, threshold=0.9, seed=2)
        got = assert_matches_per_source(views, det, params)
        # a stamped NaN spreads through a mean or sum, never through a maximum
        assert all(len(lab.points) for lab in got) or aggregate != "max"

    @pytest.mark.parametrize("n_sampled", [0, 1, 5])
    def test_lifts_each_frame_once_and_lands_each_window_once(self, monkeypatch, n_sampled):
        n, window_len = 11, 6
        views, det = random_spike_setup(n, 8)
        params = AdaptationParams(window_len=window_len, n_sampled=n_sampled, seed=8)
        want = [per_source_pseudo_labels(views, ref, det, params, ReprojectionParams())
                for ref in range(n - window_len + 1)]
        calls = {"lift": [], "land": 0}
        lift, land = adaptation._lift_points, adaptation._land_points

        def counting_lift(points, src, src_robust):
            calls["lift"].append(src.index)
            return lift(points, src, src_robust)

        def counting_land(world, dst, dst_robust, params):
            calls["land"] += 1
            return land(world, dst, dst_robust, params)

        def no_reproject(*args, **kwargs):
            raise AssertionError("labels must not call reproject_points")

        monkeypatch.setattr(adaptation, "_lift_points", counting_lift)
        monkeypatch.setattr(adaptation, "_land_points", counting_land)
        monkeypatch.setattr(geometry, "reproject_points", no_reproject)
        got = generate_pseudo_labels(views, det, params, ReprojectionParams())
        for g, w in zip(got, want, strict=True):
            assert_same_points(g.points, w)
        # frames after the last reference ascending, then each reference from last to first
        assert calls == {"lift": read_order(n, window_len),
                         "land": (n - window_len + 1) if n_sampled else 0}


class TestStampPatches:
    @pytest.mark.parametrize("patch", [1, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_oracle(self, patch, seed):
        rng = np.random.default_rng(seed)
        src = rng.random((13, 17))
        shape = (11, 19)
        r = patch // 2
        # random pixels, plus every corner and edge of both images so each
        # top/bottom/left/right clipping case is hit on either side
        src_xy = np.stack([rng.integers(0, 17, 60), rng.integers(0, 13, 60)], axis=1)
        dst_xy = np.stack([rng.integers(-r - 1, 19 + r + 1, 60),
                           rng.integers(-r - 1, 11 + r + 1, 60)], axis=1)
        src_edges = [(0, 0), (16, 0), (0, 12), (16, 12), (8, 0), (8, 12), (0, 6), (16, 6)]
        dst_edges = [(0, 0), (18, 0), (0, 10), (18, 10), (9, 0), (9, 10), (0, 5), (18, 5),
                     (-1, 5), (19, 5), (9, -1), (9, 11), (-r, -r), (18 + r, 10 + r)]
        src_xy = np.vstack([src_xy, [s for s in src_edges for _ in dst_edges],
                            np.tile(np.array([5, 6]), (len(dst_edges), 1))])
        dst_xy = np.vstack([dst_xy, dst_edges * len(src_edges), dst_edges])
        want = np.zeros(shape)
        for (sx, sy), (dx, dy) in zip(src_xy, dst_xy):
            _stamp_patch(want, src, int(sx), int(sy), int(dx), int(dy), r)
        got = np.zeros(shape)
        _stamp_patches(got, src, src_xy, dst_xy, r)
        np.testing.assert_array_equal(got, want)
        assert want.any()

    def test_no_points_leaves_mask(self):
        mask = np.full((6, 6), 0.25)
        _stamp_patches(mask, np.ones((6, 6)), np.zeros((0, 2), dtype=int),
                       np.zeros((0, 2), dtype=int), 1)
        np.testing.assert_array_equal(mask, np.full((6, 6), 0.25))


class RecordingViews:
    """len()/[i] sequence that records which frames are read."""

    def __init__(self, views):
        self.views = views
        self.reads = []

    def __len__(self):
        return len(self.views)

    def __getitem__(self, i):
        self.reads.append(i)
        return self.views[i]


def read_order(n, window_len):
    """The frame order of ``generate_pseudo_labels``: the frames that are
    never references ascending, then the references from last to first."""
    return list(range(n - window_len + 1, n)) + list(range(n - window_len, -1, -1))


def random_spike_setup(n, seed, size=48):
    """Views of a plane from jittered poses, with random detector spikes."""
    cam = default_cam(width=size, height=size, f=2.0 * size)
    rng = np.random.default_rng(seed)
    poses = [PoseSE3(rotation([0, 1, 0], float(rng.uniform(-2, 2))),
                     rng.uniform([-0.1, -0.1, -0.5], [0.1, 0.1, 0.5])) for _ in range(n)]
    spikes = {i: [(int(x), int(y), float(s))
                  for x, y, s in zip(rng.integers(0, size, 12),
                                     rng.integers(0, size, 12),
                                     rng.uniform(0.0, 1.0, 12))]
              for i in range(n)}
    return marked_views(cam, poses), spike_detector(spikes)


class TestFrameCache:
    @pytest.mark.parametrize("window_len, n_sampled, seed, aggregate", [
        (5, 2, 0, "max"),
        (6, 5, 3, "mean"),
        (4, 0, 1, "sum"),
        (7, 3, 11, "max"),
        (3, 1, 5, "sum"),
    ])
    def test_equals_uncached_and_does_each_frame_once(self, monkeypatch, window_len,
                                                      n_sampled, seed, aggregate):
        n = 12
        views, det = random_spike_setup(n, seed)
        params = AdaptationParams(window_len=window_len, n_sampled=n_sampled,
                                  seed=seed, aggregate=aggregate)
        reproj = ReprojectionParams()
        want = [pseudo_labels_for_frame(views, i, det, params, reproj)
                for i in range(n - window_len + 1)]
        for lab in want:
            np.testing.assert_array_equal(
                lab.points,
                reference_pseudo_labels(views, lab.frame_index, det, params, reproj))

        calls = {"detect": 0, "robust": 0}

        def counting_det(image):
            calls["detect"] += 1
            return det(image)

        robust = adaptation.robust_depth_map

        def counting_robust(depth, p):
            calls["robust"] += 1
            return robust(depth, p)

        held = []
        per_frame = adaptation.pseudo_labels_for_frame

        def recording_per_frame(views, ref, *args, cache):
            held.append((ref, sorted(cache)))
            return per_frame(views, ref, *args, cache=cache)

        monkeypatch.setattr(adaptation, "robust_depth_map", counting_robust)
        monkeypatch.setattr(adaptation, "pseudo_labels_for_frame", recording_per_frame)
        seq = RecordingViews(views)
        got = generate_pseudo_labels(seq, counting_det, params, reproj)
        # references are labelled from last to first, and when each is, the
        # cache holds exactly the lifts of the frames after it in its window
        assert held == [(ref, list(range(ref + 1, ref + window_len)))
                        for ref in range(n - window_len, -1, -1)]
        assert [lab.frame_index for lab in got] == [lab.frame_index for lab in want]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.points, w.points)
        assert calls == {"detect": n, "robust": n}
        assert seq.reads == read_order(n, window_len)

    def test_shared_cache_is_reused(self):
        views, det = random_spike_setup(6, 2)
        params = AdaptationParams(window_len=4, n_sampled=3, seed=2)
        reproj = ReprojectionParams(depth_eps=0.01, window=3)
        cache = {}
        first = pseudo_labels_for_frame(views, 0, det, params, reproj, cache=cache)
        assert sorted(cache) == [0, 1, 2, 3]
        r = params.patch // 2
        oy, ox = np.indices((2 * r + 1,) * 2).reshape(2, -1) - r
        for i, lift in cache.items():
            view = views[i]
            heat = det(view.image)
            points = nms(heat, params.nms_radius, params.threshold)
            robust = robust_depth_map(view.depth, reproj)
            xy = points[robust.valid[points[:, 1], points[:, 0]]]
            assert len(xy)
            depth = robust.values[xy[:, 1], xy[:, 0]]
            np.testing.assert_array_equal(
                lift.world, geometry.backproject(xy.astype(np.float64), depth, view.cam,
                                                 view.pose))
            sy, sx = xy[:, 1:] + oy, xy[:, :1] + ox
            inside = (sy >= 0) & (sy < heat.shape[0]) & (sx >= 0) & (sx < heat.shape[1])
            np.testing.assert_array_equal(lift.inside, inside)
            np.testing.assert_array_equal(lift.stamps[inside], heat[sy[inside], sx[inside]])
        # the sampled frames come from the cache; only the reference is read again
        seq = RecordingViews(views)
        again = pseudo_labels_for_frame(seq, 0, det, params, reproj, cache=cache)
        assert seq.reads == [0]
        np.testing.assert_array_equal(again.points, first.points)

    @pytest.mark.parametrize("window_len, n_sampled", [(6, 4), (6, 5), (3, 1), (1, 0)])
    def test_holds_one_frame_at_a_time(self, window_len, n_sampled):
        n = 12
        views, det = random_spike_setup(n, 5)
        params = AdaptationParams(window_len=window_len, n_sampled=n_sampled, seed=5)
        alive = {"view": set(), "heat": set()}
        peak = {"view": 0, "heat": 0}
        made = itertools.count()

        def track(kind, obj):
            key = next(made)
            alive[kind].add(key)
            peak[kind] = max(peak[kind], len(alive[kind]))
            weakref.finalize(obj, alive[kind].discard, key)
            return obj

        class LazyViews:
            """A fresh copy of the frame on every read, as from disk."""

            def __len__(self):
                return n

            def __getitem__(self, i):
                v = views[i]
                return track("view", RenderedView(v.image.copy(), v.depth, v.cam, v.pose,
                                                  v.index))

        got = generate_pseudo_labels(LazyViews(), lambda image: track("heat", det(image)),
                                     params, ReprojectionParams())
        assert next(made) == 2 * n
        for g, w in zip(got, generate_pseudo_labels(views, det, params, ReprojectionParams()),
                        strict=True):
            assert g.frame_index == w.frame_index
            assert_same_points(g.points, w.points)
        # one frame at a time: the reference, or a frame being lifted, never a window
        assert peak == {"view": 1, "heat": 1}
        assert not alive["view"] and not alive["heat"]

    def test_every_frame_heatmap_shape_checked(self):
        cam = default_cam(width=48, height=48, f=96.0)
        views = static_views(cam, 3)

        def det(image):
            if image[0, 0, 0] == 0:
                heat = np.zeros((48, 48))
                heat[10, 10] = 0.5
            else:
                heat = np.zeros((20, 20))
                heat[15, 12] = 0.9
            return heat

        params = AdaptationParams(window_len=3, n_sampled=2)
        with pytest.raises(ShapeError, match="frame 1"):
            pseudo_labels_for_frame(views, 0, det, params, ReprojectionParams())
        with pytest.raises(ShapeError, match="frame 1"):
            generate_pseudo_labels(views, det, params, ReprojectionParams())


class TestAggregateModes:
    def build(self, mode):
        cam = default_cam(width=48, height=48, f=96.0)
        views = static_views(cam, 3)
        det = spike_detector({0: [(10, 10, 0.5)], 1: [(30, 30, 0.9)], 2: [(30, 30, 0.9)]})
        params = AdaptationParams(window_len=3, n_sampled=2, aggregate=mode, seed=0)
        return pseudo_labels_for_frame(views, 0, det, params, ReprojectionParams())

    def test_max_keeps_both(self):
        got = {tuple(p) for p in self.build("max").points}
        assert got == {(10, 10), (30, 30)}

    def test_mean_divides_by_mask_count(self):
        # 0.9 stamped twice, averaged over 3 maps: 1.8/3 = 0.6 > threshold
        got = {tuple(p) for p in self.build("mean").points}
        assert got == {(10, 10), (30, 30)}

    def test_sum_clips_to_one(self):
        got = self.build("sum")
        assert (30, 30) in {tuple(p) for p in got.points}

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidSpecError):
            AdaptationParams(aggregate="median")


class TestParamsValidation:
    @pytest.mark.parametrize("kw", [
        {"window_len": 5, "n_sampled": 5},
        {"window_len": 5, "n_sampled": -1},
        {"patch": 4},
        {"patch": -3},
        {"nms_radius": 0},
        {"threshold": 1.5},
        {"threshold": -0.1},
    ])
    def test_bad_params(self, kw):
        with pytest.raises(InvalidSpecError):
            AdaptationParams(**kw)

    def test_defaults(self):
        p = AdaptationParams()
        assert (p.window_len, p.n_sampled, p.patch) == (20, 14, 3)
        assert (p.nms_radius, p.threshold, p.aggregate) == (4, 0.015, "max")


def test_label_io_roundtrip(tmp_path):
    labels = [
        PseudoLabels(np.array([[3, 4], [10, 2]]), 0),
        PseudoLabels(np.array([[7, 7]]), 2),
    ]
    path = tmp_path / "labels.txt"
    write_labels(labels, path)
    back = read_labels(path)
    assert [lab.frame_index for lab in back] == [0, 2]
    np.testing.assert_array_equal(back[0].points, labels[0].points)
    np.testing.assert_array_equal(back[1].points, labels[1].points)
