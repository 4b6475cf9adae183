import weakref

import numpy as np
import pytest

from helpers import default_cam, random_pose
from reprojkit.dataset import (
    Dataset,
    read_dataset,
    read_pfm,
    read_ppm,
    write_dataset,
    write_pfm,
    write_ppm,
)
from reprojkit.errors import DatasetError, ShapeError
from reprojkit.geometry import DepthMap, RenderedView

CAM = default_cam(width=33, height=25, f=20.0)


def make_views(n, seed=0):
    rng = np.random.default_rng(seed)
    views = []
    for i in range(n):
        image = rng.integers(0, 256, (25, 33, 3), dtype=np.uint8)
        vals = rng.uniform(0.5, 4.0, (25, 33))
        vals[rng.random((25, 33)) < 0.1] = 0.0
        views.append(RenderedView(image, DepthMap(vals), CAM, random_pose(rng), i))
    return views


class TestPixelFormats:
    def test_ppm_round_trip(self, tmp_path):
        img = np.random.default_rng(1).integers(0, 256, (7, 5, 3), dtype=np.uint8)
        write_ppm(tmp_path / "a.ppm", img)
        np.testing.assert_array_equal(read_ppm(tmp_path / "a.ppm"), img)

    def test_pfm_round_trip_is_float32_exact(self, tmp_path):
        vals = np.random.default_rng(2).uniform(-10, 10, (6, 9))
        write_pfm(tmp_path / "a.pfm", vals)
        got = read_pfm(tmp_path / "a.pfm")
        np.testing.assert_array_equal(got, vals.astype(np.float32))

    def test_truncated_ppm_rejected(self, tmp_path):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        write_ppm(tmp_path / "a.ppm", img)
        data = (tmp_path / "a.ppm").read_bytes()
        (tmp_path / "a.ppm").write_bytes(data[:-5])
        with pytest.raises(DatasetError):
            read_ppm(tmp_path / "a.ppm")

    def test_ppm_header_and_error_texts(self, tmp_path):
        path = tmp_path / "a.ppm"
        write_ppm(path, np.zeros((7, 5, 3), dtype=np.uint8))
        assert path.read_bytes() == b"P6\n5 7\n255\n" + bytes(105)
        with pytest.raises(ShapeError, match=r"^PPM wants uint8 HxWx3, got float64 \(4, 4, 3\)$"):
            write_ppm(path, np.zeros((4, 4, 3)))
        with pytest.raises(ShapeError, match=r"^PPM wants uint8 HxWx3, got uint8 \(4, 4\)$"):
            write_ppm(path, np.zeros((4, 4), dtype=np.uint8))
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(DatasetError, match=r"^corrupt PPM .*a\.ppm: unsupported PPM variant$"):
            read_ppm(path)
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))
        with pytest.raises(DatasetError, match=r"^corrupt PPM .*a\.ppm: truncated pixel data$"):
            read_ppm(path)

    def test_wrong_magic_rejected(self, tmp_path):
        (tmp_path / "a.pfm").write_bytes(b"PF\n3 3\n-1.0\n" + b"\0" * 108)
        with pytest.raises(DatasetError):
            read_pfm(tmp_path / "a.pfm")


class TestDatasetRoundTrip:
    def test_lossless_round_trip(self, tmp_path):
        views = make_views(10)
        write_dataset(views, tmp_path / "ds")
        ds = read_dataset(tmp_path / "ds")
        assert len(ds) == 10
        assert ds.cam == CAM
        for i, orig in enumerate(views):
            again = ds.view(i)
            np.testing.assert_array_equal(again.image, orig.image)
            np.testing.assert_array_equal(again.pose.rotation, orig.pose.rotation)
            np.testing.assert_array_equal(again.pose.translation, orig.pose.translation)
            np.testing.assert_array_equal(again.depth.valid, orig.depth.valid)
            np.testing.assert_array_equal(
                again.depth.values[again.depth.valid],
                orig.depth.values[orig.depth.valid].astype(np.float32).astype(np.float64))

    def test_rewrite_is_bit_identical(self, tmp_path):
        views = make_views(3, seed=5)
        write_dataset(views, tmp_path / "a")
        write_dataset(views, tmp_path / "b")
        for rel in ["manifest.json", "frames/00001.ppm", "frames/00002.pfm"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_empty_write_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            write_dataset([], tmp_path / "ds")

    def test_mixed_intrinsics_rejected(self, tmp_path):
        views = make_views(2)
        other = default_cam(width=33, height=25, f=21.0)
        bad = RenderedView(views[1].image, views[1].depth, other, views[1].pose, 1)
        with pytest.raises(DatasetError):
            write_dataset([views[0], bad], tmp_path / "ds")


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestStreamedWrite:
    def test_generator_write_is_byte_identical_to_list(self, tmp_path):
        views = make_views(6, seed=7)
        write_dataset(views, tmp_path / "list")
        write_dataset((v for v in views), tmp_path / "gen")
        assert _tree_bytes(tmp_path / "gen") == _tree_bytes(tmp_path / "list")

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_failed_rewrite_leaves_no_manifest(self, tmp_path, k):
        root = tmp_path / "ds"
        write_dataset(make_views(4, seed=1), root)
        new = make_views(4, seed=2)

        def renders():
            yield from new[:k]
            raise RuntimeError("render failed")

        with pytest.raises(RuntimeError):
            write_dataset(renders(), root)
        if k == 0:  # nothing arrived: the old dataset is left as it was
            assert len(read_dataset(root)) == 4
        else:
            with pytest.raises(DatasetError, match="no manifest.json"):
                read_dataset(root)
        assert not (root / "manifest.json.tmp").exists()

    def test_mismatched_intrinsics_midway_leaves_no_manifest(self, tmp_path):
        root = tmp_path / "ds"
        write_dataset(make_views(4, seed=1), root)
        views = make_views(3, seed=2)
        other = default_cam(width=33, height=25, f=21.0)
        bad = RenderedView(views[2].image, views[2].depth, other, views[2].pose, 2)
        with pytest.raises(DatasetError, match="share intrinsics"):
            write_dataset(iter(views[:2] + [bad]), root)
        with pytest.raises(DatasetError, match="no manifest.json"):
            read_dataset(root)

    def test_successful_rewrite_replaces_manifest(self, tmp_path):
        root = tmp_path / "ds"
        write_dataset(make_views(5, seed=1), root)
        write_dataset(make_views(3, seed=2), root)
        assert len(read_dataset(root)) == 3
        assert not (root / "manifest.json.tmp").exists()

    @pytest.mark.parametrize("n", [10, 100])
    def test_holds_a_bounded_number_of_views(self, tmp_path, n):
        alive, peak = set(), [0]

        def renders():
            for v in make_views(n, seed=3):
                # a fresh object per view, so only the writer can keep it alive
                v = RenderedView(v.image.copy(), v.depth, v.cam, v.pose, v.index)
                alive.add(v.index)
                weakref.finalize(v, alive.discard, v.index)
                peak[0] = max(peak[0], len(alive))
                yield v
                del v

        write_dataset(renders(), tmp_path / "ds")
        assert len(read_dataset(tmp_path / "ds")) == n
        # the view being written and the one just produced, whatever n is
        assert peak[0] <= 2


class TestDatasetErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError):
            read_dataset(tmp_path)

    def test_missing_frame_file_named(self, tmp_path):
        write_dataset(make_views(4), tmp_path / "ds")
        (tmp_path / "ds" / "frames" / "00002.pfm").unlink()
        with pytest.raises(DatasetError, match="frame 2"):
            read_dataset(tmp_path / "ds")

    def test_wrong_depth_dimensions_named(self, tmp_path):
        write_dataset(make_views(3), tmp_path / "ds")
        write_pfm(tmp_path / "ds" / "frames" / "00001.pfm", np.ones((4, 4), dtype=np.float32))
        ds = read_dataset(tmp_path / "ds")
        with pytest.raises(DatasetError, match="frame 1"):
            ds.view(1)

    def test_corrupt_manifest(self, tmp_path):
        write_dataset(make_views(2), tmp_path / "ds")
        (tmp_path / "ds" / "manifest.json").write_text("{not json")
        with pytest.raises(DatasetError):
            read_dataset(tmp_path / "ds")
