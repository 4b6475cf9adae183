"""Pair sampling, dense reprojection over the pixel grid, and cell indicators."""

import numpy as np
import pytest

from reprojkit.correspondence import (
    CellCorrespondence,
    PairSampler,
    PairSamplingParams,
    cell_centers,
    cell_correspondence_homography,
    cell_correspondence_reprojection,
    read_cell_positives,
    write_cell_correspondence,
)
from reprojkit.errors import EmptySceneError, InvalidSpecError, ShapeError
from reprojkit.geometry import (
    DepthMap,
    PoseSE3,
    RejectReason,
    RenderedView,
    ReprojectionParams,
    relative_pose,
    reproject_points,
)

from helpers import default_cam, flat_view, rotation


def small_cam(side=64, f=128.0):
    return default_cam(width=side, height=side, f=f)


# ---------------------------------------------------------------- sampling

def test_unique_pair_two_frames():
    params = PairSamplingParams(min_offset=1, max_offset=1, seed=3)
    sampler = PairSampler(2, params)
    for _ in range(5):
        assert sampler.sample() == (0, 1)


def test_sampled_pairs_respect_offsets():
    params = PairSamplingParams(min_offset=70, max_offset=150, seed=1)
    sampler = PairSampler(300, params)
    for i, j in sampler.draw(500):
        assert 0 <= i < j <= 299
        assert 70 <= j - i <= 150


def test_sampler_deterministic_under_seed():
    params = PairSamplingParams(min_offset=2, max_offset=9, seed=42)
    a = PairSampler(50, params).draw(20)
    b = PairSampler(50, params).draw(20)
    assert a == b
    c = PairSampler(50, PairSamplingParams(2, 9, seed=43)).draw(20)
    assert a != c


def test_sampler_covers_all_pairs():
    params = PairSamplingParams(min_offset=1, max_offset=2, seed=0)
    got = set(PairSampler(4, params).draw(300))
    assert got == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}


def test_no_admissible_pair_raises():
    with pytest.raises(EmptySceneError):
        PairSampler(5, PairSamplingParams(min_offset=10, max_offset=20))


@pytest.mark.parametrize("lo,hi", [(0, 5), (-1, 5), (7, 3)])
def test_bad_offsets_rejected(lo, hi):
    with pytest.raises(InvalidSpecError):
        PairSamplingParams(min_offset=lo, max_offset=hi)


# ---------------------------------------------------------------- dense maps

def dense_reproject(src, dst, params):
    """``reproject_points`` over every src pixel center.

    Returns (H, W, 2) targets, an (H, W) validity mask and (H, W) reasons.
    """
    h, w = src.cam.height, src.cam.width
    xs, ys = np.meshgrid(np.arange(w), np.arange(h))
    pts = np.stack([xs, ys], axis=-1).reshape(-1, 2).astype(np.float64)
    targets, _, reasons = reproject_points(pts, src, dst, params)
    reasons = reasons.reshape(h, w)
    return targets.reshape(h, w, 2), reasons == 0, reasons


def test_identity_pair_maps_pixels_to_themselves():
    cam = small_cam()
    view = flat_view(cam, PoseSE3.identity(), plane_z=2.0)
    targets, valid, reasons = dense_reproject(view, view, ReprojectionParams())
    assert valid.all()
    xs, ys = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    np.testing.assert_allclose(targets[..., 0], xs, atol=1e-9)
    np.testing.assert_allclose(targets[..., 1], ys, atol=1e-9)
    assert (reasons == 0).all()


def test_translation_pair_is_uniform_disparity():
    cam = small_cam()
    baseline, z = 0.25, 2.0
    src = flat_view(cam, PoseSE3.identity(), z, index=0)
    dst = flat_view(cam, PoseSE3(np.eye(3), [baseline, 0.0, 0.0]), z, index=1)
    targets, valid, reasons = dense_reproject(src, dst, ReprojectionParams(window=1))
    disparity = cam.fx * baseline / z
    xs, ys = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    expected_x = xs - disparity
    inb = expected_x >= 0
    assert valid[inb].all()
    assert not valid[~inb].any()
    assert (reasons[~inb] == RejectReason.OUT_OF_BOUNDS).all()
    np.testing.assert_allclose(targets[inb][:, 0], expected_x[inb], atol=1e-6)
    np.testing.assert_allclose(targets[inb][:, 1], ys[inb], atol=1e-6)


def test_foreground_strip_occludes():
    cam = small_cam()
    pose = PoseSE3.identity()
    bg = plane_view_with_strip(cam, pose, strip=None)
    fg = plane_view_with_strip(cam, pose, strip=(24, 40))
    targets, valid, reasons = dense_reproject(bg, fg, ReprojectionParams())
    assert (reasons[:, 27:37] == RejectReason.OCCLUDED).all()
    far = np.ones(cam.width, dtype=bool)
    far[21:43] = False
    assert valid[:, far].all()
    xs = np.arange(cam.width)[far]
    np.testing.assert_allclose(targets[:, far, 0],
                               np.broadcast_to(xs, (cam.height, far.sum())), atol=1e-9)


def plane_view_with_strip(cam, pose, strip, z_bg=2.0, z_fg=0.5, index=0):
    from helpers import plane_depth
    base = plane_depth(cam, pose, z_bg)
    vals = base.values.copy()
    if strip is not None:
        near = plane_depth(cam, pose, z_fg)
        lo, hi = strip
        vals[:, lo:hi] = near.values[:, lo:hi]
    img = np.zeros((cam.height, cam.width, 3), dtype=np.uint8)
    return RenderedView(img, DepthMap(vals, base.valid), cam, pose, index)


def test_invalid_source_depth_marks_reason():
    cam = small_cam()
    view = flat_view(cam, PoseSE3.identity(), 2.0)
    vals = view.depth.values.copy()
    depth_valid = view.depth.valid.copy()
    depth_valid[10:14, 20:25] = False
    src = RenderedView(view.image, DepthMap(vals, depth_valid), cam, view.pose, 0)
    _, valid, reasons = dense_reproject(src, view, ReprojectionParams())
    # a 5x5 window recovers depth near the small hole, so only pixels
    # whose whole window is invalid are errors; the center of the hole is
    assert reasons[12, 22] == RejectReason.INVALID_DEPTH or valid[12, 22]
    big = depth_valid.copy()
    big[:] = True
    big[:20, :32] = False
    src2 = RenderedView(view.image, DepthMap(vals, big), cam, view.pose, 0)
    _, valid2, reasons2 = dense_reproject(src2, view, ReprojectionParams())
    assert (reasons2[:17, :29] == RejectReason.INVALID_DEPTH).all()
    assert valid2[25:, 40:].all()


def test_forward_backward_consistency():
    cam = small_cam()
    src = flat_view(cam, PoseSE3.identity(), 2.0, index=0)
    dst = flat_view(cam, PoseSE3(rotation([0, 1, 0], 3.0), [0.12, 0.05, 0.0]), 2.0, index=1)
    params = ReprojectionParams()
    fwd_targets, fwd_valid, _ = dense_reproject(src, dst, params)
    bwd_targets, bwd_valid, _ = dense_reproject(dst, src, params)
    ys, xs = np.nonzero(fwd_valid)
    landed = np.rint(fwd_targets[ys, xs]).astype(int)
    ok = bwd_valid[landed[:, 1], landed[:, 0]]
    back = bwd_targets[landed[ok, 1], landed[ok, 0]]
    err = np.hypot(back[:, 0] - xs[ok], back[:, 1] - ys[ok])
    assert ok.mean() > 0.9
    assert err.max() <= 1.0


# ---------------------------------------------------------------- cell grids

def oracle_positives(mapped, ok, src_cells, dst_cells, cell, eps):
    """All-pairs reference for the windowed candidate search."""
    centers2 = cell_centers(*dst_cells, cell)
    out = []
    for h in range(src_cells[0]):
        for w in range(src_cells[1]):
            if not ok[h, w]:
                continue
            for h2 in range(dst_cells[0]):
                for w2 in range(dst_cells[1]):
                    d = mapped[h, w] - centers2[h2, w2]
                    if d[0] ** 2 + d[1] ** 2 <= eps * eps:
                        out.append((h, w, h2, w2))
    return np.array(sorted(out), dtype=int) if out else np.zeros((0, 4), dtype=int)


def test_cell_centers_values():
    c = cell_centers(2, 3, 8)
    assert c.shape == (2, 3, 2)
    np.testing.assert_allclose(c[0, 0], [3.5, 3.5])
    np.testing.assert_allclose(c[1, 2], [2 * 8 + 3.5, 8 + 3.5])


def test_identity_reprojection_indicator_is_diagonal():
    cam = small_cam(side=64)
    view = flat_view(cam, PoseSE3.identity(), 2.0)
    cc = cell_correspondence_reprojection(view, view, ReprojectionParams(), cell=8, eps=4.0)
    assert cc.src_cells == (8, 8)
    want = [(h, w, h, w) for h in range(8) for w in range(8)]
    np.testing.assert_array_equal(cc.positives, np.array(sorted(want)))
    dense = cc.to_dense()
    idx = np.arange(8)
    assert dense.sum() == 64
    assert dense[idx[:, None], idx[None, :], idx[:, None], idx[None, :]].all()


def test_identity_homography_indicator_is_diagonal():
    cc = cell_correspondence_homography(np.eye(3), (64, 64), cell=8, eps=4.0)
    want = [(h, w, h, w) for h in range(8) for w in range(8)]
    np.testing.assert_array_equal(cc.positives, np.array(sorted(want)))


def test_shift_homography_matches_self_and_right_neighbor():
    H = np.eye(3)
    H[0, 2] = 4.0
    cc = cell_correspondence_homography(H, (64, 64), cell=8, eps=4.0)
    want = []
    for h in range(8):
        for w in range(8):
            want.append((h, w, h, w))
            if w + 1 < 8:
                want.append((h, w, h, w + 1))
    np.testing.assert_array_equal(cc.positives, np.array(sorted(want)))


def test_random_homography_equals_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(5):
        H = np.eye(3) + rng.normal(0.0, 0.05, (3, 3))
        H[2, 2] = 1.0
        cc = cell_correspondence_homography(H, (32, 32), cell=8, eps=8.0)
        centers = cell_centers(4, 4, 8).reshape(-1, 2)
        hom = np.column_stack([centers, np.ones(16)]) @ H.T
        mapped = (hom[:, :2] / hom[:, 2:]).reshape(4, 4, 2)
        want = oracle_positives(mapped, np.ones((4, 4), bool), (4, 4), (4, 4), 8, 8.0)
        np.testing.assert_array_equal(cc.positives, want)


def test_eps_nesting():
    rng = np.random.default_rng(5)
    H = np.eye(3) + rng.normal(0.0, 0.03, (3, 3))
    small = cell_correspondence_homography(H, (64, 64), eps=4.0)
    big = cell_correspondence_homography(H, (64, 64), eps=8.0)
    small_set = {tuple(r) for r in small.positives}
    big_set = {tuple(r) for r in big.positives}
    assert small_set <= big_set
    assert len(big_set) > len(small_set)


def test_reprojection_indicator_equals_brute_force():
    cam = small_cam(side=48)
    src = flat_view(cam, PoseSE3.identity(), 2.0, index=0)
    dst = flat_view(cam, PoseSE3(rotation([0, 0, 1], 4.0), [0.08, 0.0, 0.0]), 2.0, index=1)
    params = ReprojectionParams()
    cc = cell_correspondence_reprojection(src, dst, params, cell=8, eps=4.0)
    from reprojkit.geometry import reproject_points
    centers = cell_centers(6, 6, 8).reshape(-1, 2)
    targets, _, reasons = reproject_points(centers, src, dst, params)
    want = oracle_positives(targets.reshape(6, 6, 2), (reasons == 0).reshape(6, 6),
                            (6, 6), (6, 6), 8, 4.0)
    np.testing.assert_array_equal(cc.positives, want)


def test_behind_camera_cells_give_zero_rows():
    cam = small_cam()
    src = flat_view(cam, PoseSE3.identity(), 2.0, index=0)
    dst = flat_view(cam, PoseSE3(rotation([0, 1, 0], 180.0), [0.0, 0.0, 0.0]), 2.0, index=1)
    cc = cell_correspondence_reprojection(src, dst, ReprojectionParams())
    assert len(cc.positives) == 0
    assert not cc.to_dense().any()


def test_rotation_only_plane_matches_homography_indicator():
    cam = small_cam(side=64, f=160.0)
    src = flat_view(cam, PoseSE3.identity(), 2.0, index=0)
    dst = flat_view(cam, PoseSE3(rotation([0, 1, 0], 2.0), [0.0, 0.0, 0.0]), 2.0, index=1)
    R, t = relative_pose(src.pose, dst.pose)
    assert np.linalg.norm(t) < 1e-12
    K = cam.matrix
    H = K @ R @ np.linalg.inv(K)
    via_prp = cell_correspondence_reprojection(src, dst, ReprojectionParams())
    via_h = cell_correspondence_homography(H, (64, 64), eps=via_prp.eps)
    np.testing.assert_array_equal(via_prp.positives, via_h.positives)
    assert len(via_prp.positives) > 0


def test_degenerate_homography_rejected():
    H = np.eye(3)
    H[2] = 0.0
    with pytest.raises(InvalidSpecError):
        cell_correspondence_homography(H, (64, 64))
    with pytest.raises(ShapeError):
        cell_correspondence_homography(np.eye(4), (64, 64))
    with pytest.raises(ShapeError):
        cell_correspondence_homography(np.eye(3), (4, 4))


def test_nondivisible_dims_are_cropped():
    cc = cell_correspondence_homography(np.eye(3), (70, 67), cell=8, eps=4.0)
    assert cc.src_cells == (8, 8)
    assert cc.dst_cells == (8, 8)


def test_cell_export_roundtrip(tmp_path):
    H = np.eye(3)
    H[0, 2] = 4.0
    cc = cell_correspondence_homography(H, (64, 64), eps=4.0)
    path = tmp_path / "cells.txt"
    write_cell_correspondence(cc, path)
    back = read_cell_positives(path)
    np.testing.assert_array_equal(back, cc.positives)
    empty = CellCorrespondence(np.zeros((0, 4), dtype=int), (2, 2), (2, 2), 8, 4.0)
    write_cell_correspondence(empty, path)
    assert len(read_cell_positives(path)) == 0
