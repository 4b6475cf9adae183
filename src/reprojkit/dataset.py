"""On-disk dataset layout and pixel/depth file formats.

A dataset directory holds ``manifest.json`` plus ``frames/NNNNN.ppm``
(binary 8-bit RGB) and ``frames/NNNNN.pfm`` (32-bit float ray-distance
depth, 0 where invalid) per frame. The manifest carries shared
intrinsics and one camera-to-world matrix per frame, so a read-back
reproduces images bit-exactly and poses to full float precision.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DatasetError, ShapeError
from .geometry import CameraIntrinsics, DepthMap, PoseSE3, RenderedView


def write_ppm(path, image: np.ndarray):
    """Binary 8-bit RGB PPM."""
    image = np.asarray(image)
    if image.dtype != np.uint8 or image.ndim != 3 or image.shape[2] != 3:
        raise ShapeError(f"PPM wants uint8 HxWx3, got {image.dtype} {image.shape}")
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    try:
        head, dims, maxval, rest = data.split(b"\n", 3)
        w, h = (int(v) for v in dims.split())
        if head != b"P6" or int(maxval) != 255:
            raise ValueError("unsupported PPM variant")
        pixels = np.frombuffer(rest[: w * h * 3], dtype=np.uint8)
        if pixels.size != w * h * 3:
            raise ValueError("truncated pixel data")
    except ValueError as e:
        raise DatasetError(f"corrupt PPM {path}: {e}") from e
    return pixels.reshape(h, w, 3).copy()


def write_pfm(path, values: np.ndarray):
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 2:
        raise ShapeError(f"PFM wants a 2D grayscale array, got shape {values.shape}")
    h, w = values.shape
    with open(path, "wb") as f:
        # negative scale marks little-endian; rows are stored bottom-to-top
        f.write(f"Pf\n{w} {h}\n-1.0\n".encode("ascii"))
        f.write(np.flipud(values).astype("<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    try:
        magic, dims, scale, rest = data.split(b"\n", 3)
        if magic != b"Pf":
            raise ValueError("only grayscale Pf supported")
        w, h = (int(v) for v in dims.split())
        endian = "<" if float(scale) < 0 else ">"
        vals = np.frombuffer(rest[: w * h * 4], dtype=f"{endian}f4")
        if vals.size != w * h:
            raise ValueError("truncated float data")
    except ValueError as e:
        raise DatasetError(f"corrupt PFM {path}: {e}") from e
    return np.flipud(vals.reshape(h, w)).astype(np.float32)


@dataclass(frozen=True)
class FrameRecord:
    idx: int
    pose: PoseSE3
    image_path: Path
    depth_path: Path


class Dataset:
    """Lazy view over a dataset directory: poses up front, pixels on demand."""

    def __init__(self, cam: CameraIntrinsics, frames: list[FrameRecord]):
        self.cam = cam
        self.frames = list(frames)

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, i: int) -> RenderedView:
        """``data[i]`` is ``data.view(i)``: read from disk on every access."""
        return self.view(i)

    def view(self, i: int) -> RenderedView:
        rec = self.frames[i]
        image = read_ppm(rec.image_path)
        vals = read_pfm(rec.depth_path).astype(np.float64)
        expected = (self.cam.height, self.cam.width)
        if image.shape[:2] != expected:
            raise DatasetError(
                f"frame {rec.idx}: image is {image.shape[1]}x{image.shape[0]}, "
                f"manifest says {self.cam.width}x{self.cam.height}")
        if vals.shape != expected:
            raise DatasetError(
                f"frame {rec.idx}: depth is {vals.shape[1]}x{vals.shape[0]}, "
                f"manifest says {self.cam.width}x{self.cam.height}")
        depth = DepthMap(vals)
        return RenderedView(image, depth, self.cam, rec.pose, rec.idx)


def write_dataset(views, path) -> None:
    """Write rendered views as manifest + PPM/PFM frame files.

    ``views`` may be any iterable, such as a generator of renders: each
    frame's files are written as its view arrives, and no view is kept
    after that. The manifest is written last. Any manifest already under
    ``path`` is removed before the first frame is written, and the new one
    is renamed into place whole, so a write that fails partway (a render
    error, or a view whose intrinsics differ from the first) leaves a
    directory that ``read_dataset`` rejects, not a manifest pointing at a
    mix of old and new frames.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    cam = None
    frames = []
    for v in views:
        if cam is None:
            cam = v.cam
            (root / "frames").mkdir(parents=True, exist_ok=True)
            manifest_path.unlink(missing_ok=True)
        elif v.cam != cam:
            raise DatasetError("all views in a dataset must share intrinsics")
        stem = f"{v.index:05d}"
        image_rel, depth_rel = f"frames/{stem}.ppm", f"frames/{stem}.pfm"
        write_ppm(root / image_rel, v.image)
        write_pfm(root / depth_rel, np.where(v.depth.valid, v.depth.values, 0.0))
        frames.append({"idx": v.index, "c2w": [float(x) for x in v.pose.matrix.ravel()],
                       "image": image_rel, "depth": depth_rel})
    if cam is None:
        raise DatasetError("cannot write an empty dataset")
    manifest = {**asdict(cam), "frames": frames}
    tmp_path = root / "manifest.json.tmp"
    with open(tmp_path, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp_path, manifest_path)


def read_dataset(path) -> Dataset:
    """Load a dataset directory; verifies every referenced frame file."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise DatasetError(f"no manifest.json under {root}")
    try:
        with open(manifest_path) as f:
            m = json.load(f)
        cam = CameraIntrinsics(**{f.name: m[f.name] for f in fields(CameraIntrinsics)})
        entries = m["frames"]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
        raise DatasetError(f"malformed manifest {manifest_path}: {e}") from e
    frames = []
    for entry in entries:
        try:
            idx = int(entry["idx"])
            pose = PoseSE3.from_matrix(np.array(entry["c2w"], dtype=np.float64).reshape(4, 4))
            image_path = root / entry["image"]
            depth_path = root / entry["depth"]
        except (KeyError, TypeError, ValueError) as e:
            raise DatasetError(f"malformed frame entry {entry!r}: {e}") from e
        for p in (image_path, depth_path):
            if not p.is_file():
                raise DatasetError(f"frame {idx}: missing file {p}")
        frames.append(FrameRecord(idx, pose, image_path, depth_path))
    frames.sort(key=lambda r: r.idx)
    return Dataset(cam, frames)
