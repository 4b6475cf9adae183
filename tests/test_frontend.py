"""Corner detection, patch descriptors, and mutual-nearest matching."""

import tracemalloc

import numpy as np
import pytest

from reprojkit import frontend
from reprojkit.errors import ImageTooSmallError, InvalidSpecError, ShapeError
from reprojkit.frontend import describe, detect, features, match_mnn, top_k
from reprojkit.geometry import PoseSE3, project
from reprojkit.scene import Plane, SceneSpec, render_view
from reprojkit.textures import CheckerTexture

from helpers import default_cam, rendered_frames


def checkerboard(side=64, pitch=8):
    ys, xs = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    return (((xs // pitch) + (ys // pitch)) % 2).astype(np.float64)


class TestDetect:
    def test_constant_image_gives_zero_heatmap(self):
        assert not detect(np.full((32, 32), 0.7)).any()
        assert not detect(np.zeros((32, 32, 3), dtype=np.uint8)).any()

    def test_range_and_peak_normalization(self):
        rng = np.random.default_rng(0)
        heat = detect(rng.random((40, 40)))
        assert heat.min() >= 0.0
        assert heat.max() == 1.0

    def test_single_corner_peaks_at_corner(self):
        img = np.zeros((41, 41))
        img[20:, 20:] = 1.0  # one L-corner at (20, 20)
        heat = detect(img)
        y, x = np.unravel_index(np.argmax(heat), heat.shape)
        assert abs(x - 20) <= 1 and abs(y - 20) <= 1

    def test_offset_invariance(self):
        rng = np.random.default_rng(1)
        img = rng.random((30, 30)) * 0.5
        np.testing.assert_allclose(detect(img), detect(img + 0.3), atol=1e-12)

    def test_edges_score_below_corners(self):
        img = np.zeros((41, 41))
        img[:, 20:] = 1.0  # pure vertical edge, no corner anywhere
        corner = np.zeros((41, 41))
        corner[20:, 20:] = 1.0
        edge_response = detect(img)[20, 20] * detect(corner).max()
        assert detect(corner)[20, 20] >= detect(img).max() or edge_response == 0.0

    def test_small_image_rejected(self):
        with pytest.raises(ImageTooSmallError):
            detect(np.zeros((6, 40)))
        with pytest.raises(ShapeError):
            detect(np.zeros((5, 5, 2)))


def scipy_to_gray(image):
    """The channel mean as ``np.mean`` computes it."""
    image = np.asarray(image)
    gray = image.astype(np.float64).mean(axis=2) if image.ndim == 3 else \
        image.astype(np.float64)
    if image.dtype == np.uint8:
        gray /= 255.0
    return gray


def scipy_detect(image):
    """Oracle: ``detect`` built on ``scipy.ndimage``'s Sobel and 1-D correlation."""
    from scipy.ndimage import correlate1d, sobel

    gray = scipy_to_gray(image)
    gx = sobel(gray, axis=1, mode="reflect")
    gy = sobel(gray, axis=0, mode="reflect")
    kernel = np.array([1.0, 2.0, 1.0]) / 4.0

    def smooth(a):
        return correlate1d(correlate1d(a, kernel, axis=0, mode="reflect"),
                           kernel, axis=1, mode="reflect")

    jxx, jyy, jxy = smooth(gx * gx), smooth(gy * gy), smooth(gx * gy)
    half_trace = (jxx + jyy) / 2.0
    root = np.sqrt(((jxx - jyy) / 2.0) ** 2 + jxy * jxy)
    lam = np.maximum(half_trace - root, 0.0)
    peak = lam.max()
    return lam / peak if peak > 0 else lam


def _images(rng, h, w):
    signed = rng.random((h, w)) - 0.5
    signed[rng.random((h, w)) < 0.2] = -0.0
    return {
        "random gray": rng.random((h, w)),
        "random rgb": rng.random((h, w, 3)),
        "uint8 rgb": rng.integers(0, 256, (h, w, 3), dtype=np.uint8),
        "uint8 gray": rng.integers(0, 256, (h, w), dtype=np.uint8),
        "constant": np.full((h, w), 0.7),
        "constant uint8 rgb": np.full((h, w, 3), 200, dtype=np.uint8),
        "signed with -0": signed,
        "wide range": rng.random((h, w, 3)) * 10.0 ** rng.uniform(-6, 6, (h, w, 3)),
        "float32 rgb": rng.random((h, w, 3)).astype(np.float32),
    }


class TestDetectMatchesScipy:
    """``detect`` and its kernels equal the ``scipy.ndimage`` version bit for bit."""

    @pytest.mark.parametrize("shape", [(7, 7), (7, 12), (12, 7), (9, 31), (40, 33),
                                       (160, 160), (240, 320)])
    def test_detect(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for name, img in _images(rng, *shape).items():
            got, want = detect(img), scipy_detect(img)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_rendered_frames(self):
        cam = default_cam()
        scene = SceneSpec((Plane((0, 0, 0.0), (0, 0, 1.0), 4.0, 4.0),), (CheckerTexture(0.2),))
        for z in (1.5, 2.5):
            view = render_view(scene, cam, PoseSE3(np.diag([1.0, -1.0, -1.0]), [0.1, 0.0, z]))
            assert detect(view.image).tobytes() == scipy_detect(view.image).tobytes()

    def test_to_gray(self):
        rng = np.random.default_rng(4)
        for name, img in _images(rng, 23, 17).items():
            assert frontend.to_gray(img).tobytes() == scipy_to_gray(img).tobytes(), name

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("center, side, odd", [(0.0, 1.0, True), (2.0, 1.0, False),
                                                   (0.5, 0.25, False), (-1.5, 0.3, True)])
    def test_correlate3(self, axis, center, side, odd):
        from scipy.ndimage import correlate1d

        rng = np.random.default_rng(11)
        weights = [-side if odd else side, center, side]
        for shape in [(2, 2), (2, 9), (9, 2), (3, 3), (17, 23)]:
            a = rng.random(shape) * 4.0 - 2.0
            a[rng.random(shape) < 0.1] = np.inf
            a[rng.random(shape) < 0.1] = -0.0
            with np.errstate(invalid="ignore"):  # inf - inf and inf * 0
                got = frontend._correlate3(a, axis, center, side, odd=odd)
            want = correlate1d(a, weights, axis=axis, mode="reflect")
            np.testing.assert_array_equal(got, want)
            # zeros keep their sign too (NaN signs are not compared)
            number = ~np.isnan(want)
            np.testing.assert_array_equal(np.signbit(got)[number], np.signbit(want)[number])


class TestTopK:
    def test_k_one_returns_higher_spike(self):
        heat = np.zeros((30, 30))
        heat[5, 5] = 0.4
        heat[20, 20] = 0.9
        kps = top_k(heat, 1, nms_radius=4)
        np.testing.assert_array_equal(kps.xy, [[20, 20]])
        np.testing.assert_allclose(kps.score, [0.9])

    def test_k_exceeding_detections_returns_all(self):
        heat = np.zeros((30, 30))
        heat[5, 5] = 0.4
        heat[20, 20] = 0.9
        kps = top_k(heat, 100, nms_radius=4, threshold=0.1)
        assert len(kps) == 2

    def test_scores_descend(self):
        rng = np.random.default_rng(2)
        kps = top_k(rng.random((50, 50)), 20, nms_radius=3)
        assert (np.diff(kps.score) <= 0).all()

    def test_k_validation(self):
        with pytest.raises(InvalidSpecError):
            top_k(np.zeros((10, 10)), 0)


class TestDescribe:
    def test_identical_patches_identical_descriptors(self):
        rng = np.random.default_rng(3)
        tile = rng.random((16, 16))
        img = np.zeros((48, 48))
        img[8:24, 8:24] = tile
        img[24:40, 24:40] = tile
        d, kept = describe(img, np.array([[15.0, 15.0], [31.0, 31.0]]))
        assert len(kept) == 2
        assert float(d[0] @ d[1]) == pytest.approx(1.0, abs=1e-12)

    def test_brightness_gain_leaves_descriptor_unchanged(self):
        rng = np.random.default_rng(4)
        img = rng.random((40, 40)) * 0.7
        d1, _ = describe(img, np.array([[20.0, 20.0]]))
        d2, _ = describe(img * 1.3, np.array([[20.0, 20.0]]))
        assert float(d1[0] @ d2[0]) > 0.99

    def test_random_noise_patches_weakly_similar(self):
        rng = np.random.default_rng(5)
        sims = []
        for _ in range(40):
            a, _ = describe(rng.random((32, 32)), np.array([[16.0, 16.0]]))
            b, _ = describe(rng.random((32, 32)), np.array([[16.0, 16.0]]))
            sims.append(abs(float(a[0] @ b[0])))
        assert np.mean(sims) < 0.5

    def test_unit_norm_requirement(self):
        rng = np.random.default_rng(6)
        img = rng.random((64, 64))
        pts = np.column_stack([rng.uniform(8, 55, 30), rng.uniform(8, 55, 30)])
        for dim in (4, 16, 64, 128):
            d, kept = describe(img, pts, dim=dim)
            assert d.shape == (len(kept), dim)
            np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-6)

    def test_border_keypoints_dropped_and_reported(self):
        img = np.zeros((32, 32))
        pts = np.array([[6.0, 16.0], [7.0, 16.0], [23.0, 16.0], [24.0, 16.0],
                        [16.0, 6.9], [16.0, 23.4]])
        d, kept = describe(img, pts)
        np.testing.assert_array_equal(kept, [1, 2, 4, 5])

    def test_flat_patch_gets_fallback_unit_vector(self):
        img = np.full((32, 32), 0.5)
        d, kept = describe(img, np.array([[16.0, 16.0]]))
        assert len(kept) == 1
        np.testing.assert_allclose(np.linalg.norm(d[0]), 1.0)

    def test_descriptors_deterministic(self):
        rng = np.random.default_rng(7)
        img = rng.random((32, 32))
        d1, _ = describe(img, np.array([[16.0, 16.0]]))
        d2, _ = describe(img.copy(), np.array([[16.0, 16.0]]))
        np.testing.assert_array_equal(d1, d2)

    def test_dim_validation(self):
        with pytest.raises(InvalidSpecError):
            describe(np.zeros((32, 32)), np.array([[16.0, 16.0]]), dim=1)


class TestFeatures:
    """``features`` is ``detect`` -> ``top_k`` -> ``describe`` -> ``xy[kept]``."""

    KNOBS = [dict(k=256, nms_radius=4, threshold=0.015, dim=128),
             dict(k=40, nms_radius=2, threshold=0.0, dim=32)]

    @pytest.mark.parametrize("kind", ["general", "hires"])
    @pytest.mark.parametrize("knobs", KNOBS)
    def test_detected_path_equals_composition(self, kind, knobs):
        for view in rendered_frames(kind)[:3]:
            kps = top_k(detect(view.image), knobs["k"], nms_radius=knobs["nms_radius"],
                        threshold=knobs["threshold"])
            want_desc, kept = describe(view.image, kps.xy, dim=knobs["dim"])
            xy, desc = features(view.image, **knobs)
            assert len(kept) > 0
            np.testing.assert_array_equal(xy, kps.xy[kept])
            np.testing.assert_array_equal(desc, want_desc)

    @pytest.mark.parametrize("kind", ["general", "hires"])
    def test_given_keypoints_drop_the_border(self, kind):
        view = rendered_frames(kind)[1]
        h, w = view.image.shape[:2]
        xs = np.array([0.0, 3.0, 6.0, 6.6, 7.0, 20.0, w - 9.0, w - 8.4, w - 1.0])
        ys = np.array([1.0, 5.5, 7.0, 30.0, h - 9.0, h - 8.0, h - 2.0])
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        want_desc, kept = describe(view.image, pts, dim=64)
        xy, desc = features(view.image, pts, dim=64)
        assert 0 < len(kept) < len(pts)
        np.testing.assert_array_equal(xy, pts[kept])
        np.testing.assert_array_equal(desc, want_desc)
        xi, yi = np.rint(xy).T
        assert (xi >= 7).all() and (yi >= 7).all() and (xi <= w - 9).all() and (yi <= h - 9).all()

    def test_detection_needs_k(self):
        with pytest.raises(InvalidSpecError):
            features(checkerboard())


def _normalize_clipped_oracle(vec):
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        flat = np.zeros_like(vec)
        flat[0] = 1.0
        return flat
    vec = vec / norm
    vec = np.clip(vec, -0.2, 0.2)
    return vec / np.linalg.norm(vec)


def describe_oracle(image, xy, dim=128):
    """The one-keypoint-at-a-time loop ``describe`` replaced."""
    gray = frontend.to_gray(image)
    h, w = gray.shape
    xy = np.atleast_2d(np.asarray(xy, dtype=np.float64))
    xi = np.rint(xy[:, 0]).astype(int)
    yi = np.rint(xy[:, 1]).astype(int)
    kept = np.flatnonzero((xi >= 7) & (xi <= w - 9) & (yi >= 7) & (yi <= h - 9))
    out = np.zeros((len(kept), dim))
    for row, idx in enumerate(kept):
        x, y = xi[idx], yi[idx]
        patch = gray[y - 7:y + 9, x - 7:x + 9]
        py, px = np.gradient(patch)
        mag = np.hypot(px, py)
        ang = np.arctan2(py, px)
        obin = np.floor((ang + np.pi) / (2.0 * np.pi) * 8).astype(int) % 8
        rr, cc = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        sbin = (rr // 4) * 4 + (cc // 4)
        hist = np.zeros(128)
        np.add.at(hist, sbin.ravel() * 8 + obin.ravel(), mag.ravel())
        if dim != 128:
            hist = np.interp(np.linspace(0.0, 127.0, dim), np.arange(128), hist)
        hist -= hist.mean()
        out[row] = _normalize_clipped_oracle(hist)
    return out, kept


class TestDescribeBlocks:
    """Block-wise ``describe`` against the per-keypoint loop, bit for bit."""

    def check(self, image, xy, dim=128):
        d, kept = describe(image, xy, dim=dim)
        d_ref, kept_ref = describe_oracle(image, xy, dim=dim)
        np.testing.assert_array_equal(kept, kept_ref)
        np.testing.assert_array_equal(d, d_ref)
        return d, kept

    @pytest.mark.parametrize("dim", [128, 64, 130, 2, 3, 127, 129, 256])
    def test_random_image_every_dim(self, dim):
        rng = np.random.default_rng(20 + dim)
        img = rng.random((60, 70))
        pts = rng.uniform(-3, 73, (300, 2))
        _, kept = self.check(img, pts, dim=dim)
        assert 0 < len(kept) < 300

    def test_block_boundaries(self):
        rng = np.random.default_rng(21)
        img = rng.random((48, 48))
        block = frontend._BLOCK
        for k in (1, block - 1, block, block + 1, 2 * block + 3):
            pts = rng.uniform(7, 39, (k, 2))
            _, kept = self.check(img, pts)
            assert len(kept) == k

    def test_flat_and_textured_patches(self):
        rng = np.random.default_rng(22)
        img = np.full((64, 64), 0.5)
        img[:, 32:] = rng.random((64, 32))
        pts = np.array([[12.0, 12.0], [40.0, 20.0], [16.0, 50.0], [50.0, 50.0]])
        d, _ = self.check(img, pts)
        np.testing.assert_array_equal(d[0], np.eye(128)[0])
        np.testing.assert_array_equal(d[2], np.eye(128)[0])

    def test_uint8_rgb_image(self):
        rng = np.random.default_rng(23)
        img = rng.integers(0, 256, (50, 60, 3), dtype=np.uint8)
        pts = rng.uniform(0, 60, (80, 2))
        self.check(img, pts)
        self.check(img, pts, dim=130)

    def test_single_point_as_flat_list(self):
        rng = np.random.default_rng(24)
        img = rng.random((32, 32))
        d, kept = self.check(img, [16.2, 15.7])
        assert d.shape == (1, 128)
        np.testing.assert_array_equal(kept, [0])

    def test_hires_register_grid_in_bounded_memory(self):
        # the 4256-keypoint grid register_pair describes on a 320x240 view
        rng = np.random.default_rng(25)
        img = rng.random((240, 320))
        xs, ys = np.meshgrid(np.arange(8, 312, 4), np.arange(8, 232, 4))
        pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64)
        assert len(pts) == 4256
        _, kept = self.check(img, pts)
        assert len(kept) == 4256
        tracemalloc.start()
        try:
            d, _ = describe(img, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # temporaries stay a few blocks' worth; all 4256 patches at once
        # would take 8.7 MB per (k, 16, 16) array
        assert peak - d.nbytes < 8e6

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 2)), np.zeros(0)])
    def test_no_keypoints(self, empty):
        d, kept = describe(np.zeros((32, 32)), empty, dim=64)
        assert d.shape == (0, 64)
        assert kept.shape == (0,)


class TestCheckerboardRecovery:
    def test_recovers_analytic_corners(self):
        cam = default_cam(width=160, height=160, f=128.0)
        pitch = 0.25  # 16 px at z=2
        plane = Plane(origin=(0.0, 0.0, 2.0), normal=(0.0, 0.0, -1.0),
                      half_u=50.0, half_v=50.0, texture=0)
        spec = SceneSpec(primitives=(plane,),
                         textures=(CheckerTexture(scale=pitch),),
                         background=(0.0, 0.0, 0.0))
        view = render_view(spec, cam, PoseSE3.identity(), index=0)

        u = np.asarray(plane.u_axis)
        v = np.cross(np.asarray(plane.normal), u)
        origin = np.asarray(plane.origin)
        corners = []
        for i in range(-4, 5):
            for j in range(-4, 5):
                world = origin + pitch * (i * u + j * v)
                px = project(world, cam, PoseSE3.identity())[0]
                if 12 <= px[0] <= 147 and 12 <= px[1] <= 147:
                    corners.append(px)
        corners = np.array(corners)
        assert len(corners) >= 49

        kps = top_k(detect(view.image), len(corners) + 30, nms_radius=4, threshold=0.015)
        hits = 0
        for c in corners:
            if len(kps) and np.hypot(*(kps.xy - c).T).min() <= 2.0:
                hits += 1
        assert hits / len(corners) >= 0.95


class TestMatching:
    def test_identity_sets_match_identically(self):
        rng = np.random.default_rng(8)
        d = rng.normal(size=(12, 16))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        m = match_mnn(d, d)
        np.testing.assert_array_equal(m.indices1, np.arange(12))
        np.testing.assert_array_equal(m.indices2, np.arange(12))
        np.testing.assert_allclose(m.similarity, 1.0)

    def test_permutation_recovered(self):
        rng = np.random.default_rng(9)
        d = rng.normal(size=(15, 8))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        perm = rng.permutation(15)
        m = match_mnn(d, d[perm])
        assert len(m) == 15
        np.testing.assert_array_equal(perm[m.indices2], m.indices1)

    def test_equals_brute_force_mutual_nn(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            a = rng.normal(size=(20, 6))
            b = rng.normal(size=(17, 6))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            want = []
            for i in range(20):
                j = max(range(17), key=lambda jj: a[i] @ b[jj])
                i_back = max(range(20), key=lambda ii: a[ii] @ b[j])
                if i_back == i:
                    want.append((i, j))
            m = match_mnn(a, b)
            assert sorted(zip(m.indices1, m.indices2)) == want

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(14, 5))
        b = rng.normal(size=(11, 5))
        fwd = match_mnn(a, b, ratio=0.9)
        bwd = match_mnn(b, a, ratio=0.9)
        assert sorted(zip(fwd.indices1, fwd.indices2)) == \
            sorted(zip(bwd.indices2, bwd.indices1))

    def test_ratio_test_rejects_ambiguous(self):
        base = np.array([[1.0, 0.0], [0.0, 1.0]])
        dup = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        loose = match_mnn(base, dup)
        strict = match_mnn(base, dup, ratio=0.8)
        assert len(strict) < len(loose) or (0 not in strict.indices1)
        assert all(i != 0 for i in strict.indices1)

    def test_empty_inputs(self):
        m = match_mnn(np.zeros((0, 8)), np.zeros((3, 8)))
        assert len(m) == 0

    def test_validation(self):
        with pytest.raises(ShapeError):
            match_mnn(np.zeros((2, 4)), np.zeros((2, 5)))
        with pytest.raises(InvalidSpecError):
            match_mnn(np.ones((2, 4)), np.ones((2, 4)), ratio=1.5)


def _ratio_ok_oracle(sims, nearest, ratio):
    """The full-matrix ratio test ``match_mnn`` used before blocking."""
    n, m = sims.shape
    if m < 2:
        return np.ones(n, dtype=bool)
    dist = np.sqrt(np.maximum(2.0 - 2.0 * sims, 0.0))
    part = np.partition(dist, 1, axis=1)
    best = dist[np.arange(n), nearest]
    second = np.where(part[:, 0] == best, part[:, 1], part[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(second > 0, best / second, 1.0)
    return r < ratio


def match_mnn_oracle(desc1, desc2, ratio=None):
    """Full-size ``match_mnn``: column argmax and both ratio tests over the
    whole similarity matrix."""
    sims = desc1 @ desc2.T
    nn12 = np.argmax(sims, axis=1)
    nn21 = np.argmax(sims, axis=0)
    idx1 = np.flatnonzero(nn21[nn12] == np.arange(len(desc1)))
    idx2 = nn12[idx1]
    if ratio is not None:
        ok = (_ratio_ok_oracle(sims, nn12, ratio)[idx1]
              & _ratio_ok_oracle(sims.T, nn21, ratio)[idx2])
        idx1, idx2 = idx1[ok], idx2[ok]
    return idx1, idx2, sims[idx1, idx2]


def _unit_rows(rng, n, d):
    a = rng.normal(size=(n, d))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _register_grid_descriptors(seed):
    # the 36 x 36 = 1296-point grid register_pair describes on a 160x160 view
    img = np.random.default_rng(seed).random((160, 160))
    xs, ys = np.meshgrid(np.arange(8, 152, 4), np.arange(8, 152, 4))
    d, kept = describe(img, np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64))
    assert len(kept) == 1296
    return d


class TestMatchBlocks:
    """Block-wise ``match_mnn`` against the full-matrix version, exactly."""

    def check(self, a, b, ratio):
        m = match_mnn(a, b, ratio=ratio)
        i1, i2, sim = match_mnn_oracle(a, b, ratio)
        np.testing.assert_array_equal(m.indices1, i1)
        np.testing.assert_array_equal(m.indices2, i2)
        np.testing.assert_array_equal(m.similarity, sim)
        return m

    @pytest.mark.parametrize("ratio", [None, 0.8, 0.95, 1.0])
    def test_random_sizes_across_block_boundaries(self, ratio):
        rng = np.random.default_rng(40)
        block = frontend._BLOCK
        for n, m in ((1, 1), (1, 5), (5, 1), (2, 2), (block, block + 1),
                     (block + 1, block - 1), (2 * block + 3, 300), (37, 2 * block)):
            self.check(_unit_rows(rng, n, 8), _unit_rows(rng, m, 8), ratio)

    @pytest.mark.parametrize("ratio", [None, 0.8, 0.95, 1.0])
    def test_ties_and_exact_duplicates(self, ratio):
        rng = np.random.default_rng(41)
        for _ in range(20):
            # few distinct rounded directions: many tied similarities
            a = np.round(rng.normal(size=(int(rng.integers(2, 200)), 3)))
            b = np.round(rng.normal(size=(int(rng.integers(2, 200)), 3)))
            a[~a.any(axis=1), 0] = 1.0
            b[~b.any(axis=1), 0] = 1.0
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            b[:len(b) // 2] = a[rng.integers(0, len(a), len(b) // 2)]
            self.check(a, b, ratio)

    def test_unnormalized_descriptors(self):
        # similarities above 1 all map to distance 0: ties in distance only
        rng = np.random.default_rng(42)
        for ratio in (None, 0.8, 1.0):
            self.check(rng.normal(size=(150, 4)) * 3, rng.normal(size=(140, 4)) * 3, ratio)

    def test_register_grid(self):
        a, b = _register_grid_descriptors(43), _register_grid_descriptors(44)
        for ratio in (None, 0.8, 0.95):
            self.check(a, b, ratio)

    def test_register_grid_in_bounded_memory(self):
        a, b = _register_grid_descriptors(45), _register_grid_descriptors(46)
        sims_bytes = len(a) * len(b) * 8
        tracemalloc.start()
        try:
            match_mnn(a, b, ratio=0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # only the 13.4 MB similarity matrix is full size; a full-size
        # distance matrix or column-argmax copy would add another 13.4 MB
        assert peak <= sims_bytes + 4e6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_descriptors_rejected(self, bad):
        rng = np.random.default_rng(47)
        a, b = _unit_rows(rng, 6, 4), _unit_rows(rng, 5, 4)
        a[2, 1] = bad
        with pytest.raises(InvalidSpecError, match="finite"):
            match_mnn(a, b, ratio=0.8)
        with pytest.raises(InvalidSpecError, match="finite"):
            match_mnn(b, a)
