"""Training-pair sampling and ground-truth correspondence generation.

Cell-level indicators mark pairs of 8x8 grid cells whose centers land
within a pixel threshold of each other, either through the depth-based
reprojection map or through a homography.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySceneError, InvalidSpecError, ShapeError
from .geometry import RenderedView, ReprojectionParams, apply_homography, reproject_points


@dataclass(frozen=True)
class PairSamplingParams:
    """Frame-offset window for training pairs, in frames."""

    min_offset: int = 70
    max_offset: int = 150
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.min_offset <= self.max_offset:
            raise InvalidSpecError(
                f"need 0 < min_offset <= max_offset, got [{self.min_offset}, {self.max_offset}]")


class PairSampler:
    """Uniform sampler over frame pairs (i, j), i < j, with j - i in the window."""

    def __init__(self, n_frames: int, params: PairSamplingParams):
        pairs = [(i, j) for i in range(n_frames)
                 for j in range(i + params.min_offset,
                                min(i + params.max_offset, n_frames - 1) + 1)]
        if not pairs:
            raise EmptySceneError(
                f"no admissible pair in {n_frames} frames with offsets "
                f"[{params.min_offset}, {params.max_offset}]")
        self._pairs = np.array(pairs)
        self._rng = np.random.default_rng(params.seed)

    def sample(self) -> tuple[int, int]:
        i, j = self._pairs[self._rng.integers(len(self._pairs))]
        return int(i), int(j)

    def draw(self, k: int) -> list[tuple[int, int]]:
        return [self.sample() for _ in range(k)]


@dataclass(frozen=True)
class CellCorrespondence:
    """Sparse binary indicator over (src cell, dst cell) pairs.

    ``positives`` holds one (h, w, h2, w2) row per matching pair, sorted
    lexicographically. Grid shapes are the images' dims floor-divided by
    the cell size (remainders are cropped).
    """

    positives: np.ndarray  # (N, 4) int
    src_cells: tuple[int, int]
    dst_cells: tuple[int, int]
    cell: int
    eps: float

    def to_dense(self) -> np.ndarray:
        S = np.zeros(self.src_cells + self.dst_cells, dtype=bool)
        if len(self.positives):
            h, w, h2, w2 = self.positives.T
            S[h, w, h2, w2] = True
        return S


def cell_centers(n_rows: int, n_cols: int, cell: int) -> np.ndarray:
    """(n_rows, n_cols, 2) geometric centers (x, y) of a cell grid."""
    off = (cell - 1) / 2.0
    xs = np.arange(n_cols) * cell + off
    ys = np.arange(n_rows) * cell + off
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx, gy], axis=-1)


def _match_cells(targets: np.ndarray, ok: np.ndarray, src_cells, dst_cells,
                 cell: int, eps: float) -> np.ndarray:
    """Positives for mapped src-cell centers vs the dst cell-center grid.

    The distance test is on squared Euclidean distance (<= eps^2); only
    dst cells in the bounding window |dx| <= eps, |dy| <= eps are probed,
    which cannot miss a positive.
    """
    hc2, wc2 = dst_cells
    off = (cell - 1) / 2.0
    eps2 = eps * eps
    out = []
    flat = targets.reshape(-1, 2)
    okf = ok.reshape(-1)
    for idx in np.flatnonzero(okf):
        cx, cy = flat[idx]
        h, w = divmod(idx, src_cells[1])
        w2_lo = max(int(np.ceil((cx - off - eps) / cell)), 0)
        w2_hi = min(int(np.floor((cx - off + eps) / cell)), wc2 - 1)
        h2_lo = max(int(np.ceil((cy - off - eps) / cell)), 0)
        h2_hi = min(int(np.floor((cy - off + eps) / cell)), hc2 - 1)
        for h2 in range(h2_lo, h2_hi + 1):
            dy = cy - (h2 * cell + off)
            for w2 in range(w2_lo, w2_hi + 1):
                dx = cx - (w2 * cell + off)
                if dx * dx + dy * dy <= eps2:
                    out.append((h, w, h2, w2))
    if not out:
        return np.zeros((0, 4), dtype=int)
    return np.array(sorted(out), dtype=int)


def cell_correspondence_reprojection(src: RenderedView, dst: RenderedView,
                                     params: ReprojectionParams,
                                     cell: int = 8, eps: float = 4.0) -> CellCorrespondence:
    """Cell indicator through the depth-based reprojection map.

    Rejected cell centers (no depth, occluded, behind camera, out of
    bounds) contribute all-zero rows.
    """
    src_cells = (src.cam.height // cell, src.cam.width // cell)
    dst_cells = (dst.cam.height // cell, dst.cam.width // cell)
    if min(src_cells) == 0 or min(dst_cells) == 0:
        raise ShapeError(f"images smaller than one {cell}x{cell} cell")
    centers = cell_centers(*src_cells, cell).reshape(-1, 2)
    targets, _, reasons = reproject_points(centers, src, dst, params)
    pos = _match_cells(targets.reshape(*src_cells, 2), (reasons == 0).reshape(src_cells),
                       src_cells, dst_cells, cell, eps)
    return CellCorrespondence(pos, src_cells, dst_cells, cell, eps)


def cell_correspondence_homography(H: np.ndarray, dims: tuple[int, int],
                                   cell: int = 8, eps: float = 8.0) -> CellCorrespondence:
    """Cell indicator through a homography on an image of ``dims`` = (H, W)."""
    H = np.asarray(H, dtype=np.float64)
    if H.shape != (3, 3):
        raise ShapeError(f"homography must be 3x3, got {H.shape}")
    if abs(np.linalg.det(H)) < 1e-12:
        raise InvalidSpecError("homography is not invertible")
    height, width = dims
    cells = (height // cell, width // cell)
    if min(cells) == 0:
        raise ShapeError(f"images smaller than one {cell}x{cell} cell")
    centers = cell_centers(*cells, cell).reshape(-1, 2)
    mapped = apply_homography(H, centers)
    ok = np.isfinite(mapped).all(axis=1)
    mapped = np.where(ok[:, None], mapped, 0.0)
    pos = _match_cells(mapped.reshape(*cells, 2), ok.reshape(cells), cells, cells, cell, eps)
    return CellCorrespondence(pos, cells, cells, cell, eps)


def write_cell_correspondence(cc: CellCorrespondence, path) -> None:
    """One `h w h2 w2` line per positive."""
    with open(path, "w") as f:
        for h, w, h2, w2 in cc.positives:
            f.write(f"{h} {w} {h2} {w2}\n")


def read_cell_positives(path) -> np.ndarray:
    rows = []
    with open(path) as f:
        for line in f:
            if line.strip():
                rows.append([int(v) for v in line.split()])
    return np.array(rows, dtype=int) if rows else np.zeros((0, 4), dtype=int)
