"""Detector and descriptor training losses with analytic gradients.

Both losses are plain numpy and return exact gradients, checked against
central finite differences in the test suite. The descriptor loss treats
the descriptor entries as free variables: re-normalizing onto the unit
sphere is the caller's projection step, so no normalization Jacobian
appears in the gradient. At hinge kinks the subgradient 0 is used (a
margin counts as active only when strictly violated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correspondence import CellCorrespondence
from .errors import InvalidSpecError, ShapeError


@dataclass(frozen=True)
class DescriptorLossParams:
    positive_margin: float = 1.0
    negative_margin: float = 0.2
    positive_weight: float = 250.0

    def __post_init__(self):
        if not 0.0 <= self.negative_margin < self.positive_margin <= 1.0:
            raise InvalidSpecError(
                f"need 0 <= negative_margin < positive_margin <= 1, got "
                f"{self.negative_margin}, {self.positive_margin}")
        if not 0 < self.positive_weight < np.inf:
            raise InvalidSpecError(
                f"positive_weight must be finite and > 0, got {self.positive_weight}")


def _dense_indicator(S, src_shape, dst_shape) -> np.ndarray:
    if isinstance(S, CellCorrespondence):
        if S.src_cells != src_shape or S.dst_cells != dst_shape:
            raise ShapeError(
                f"indicator cells {S.src_cells}x{S.dst_cells} do not match "
                f"grids {src_shape}x{dst_shape}")
        return S.to_dense().reshape(np.prod(src_shape), np.prod(dst_shape))
    S = np.asarray(S, dtype=bool)
    flat = (int(np.prod(src_shape)), int(np.prod(dst_shape)))
    if S.shape != src_shape + dst_shape and S.shape != flat:
        raise ShapeError(f"indicator shape {S.shape} does not match grids")
    return S.reshape(flat)


def descriptor_loss(grid1: np.ndarray, grid2: np.ndarray, S,
                    params: DescriptorLossParams = DescriptorLossParams()):
    """Mean hinge loss over all cell pairs and its gradients.

    Returns ``(loss, grad1, grad2)`` where the gradients have the grids'
    shapes. ``S`` may be a CellCorrespondence or a dense boolean array of
    shape (Hc, Wc, Hc2, Wc2).

    Either grid may carry a leading batch axis, (B, Hc, Wc, D); an
    unbatched grid and ``S`` are shared by every batch item. Then ``loss``
    is a (B,) array and each gradient is (B, Hc, Wc, D), every item equal
    to the unbatched call on that item.
    """
    grid1 = np.asarray(grid1, dtype=np.float64)
    grid2 = np.asarray(grid2, dtype=np.float64)
    if grid1.ndim not in (3, 4) or grid2.ndim not in (3, 4):
        raise ShapeError("descriptor grids must be (Hc, Wc, D) or (B, Hc, Wc, D)")
    if grid1.shape[-1] != grid2.shape[-1]:
        raise ShapeError(
            f"descriptor dims differ: {grid1.shape[-1]} vs {grid2.shape[-1]}")
    s1, s2 = grid1.shape[-3:-1], grid2.shape[-3:-1]
    ind = _dense_indicator(S, s1, s2)
    d1 = grid1.reshape(grid1.shape[:-3] + (-1, grid1.shape[-1]))
    d2 = grid2.reshape(grid2.shape[:-3] + (-1, grid2.shape[-1]))
    n = d1.shape[-2] * d2.shape[-2]

    sims = d1 @ np.swapaxes(d2, -1, -2)
    pos_active = ind & (sims < params.positive_margin)
    neg_active = ~ind & (sims > params.negative_margin)
    # compensated sums, one per batch item: order-independent and correctly
    # rounded, so a grid of identical contributions yields the contribution
    items = (-1,) + sims.shape[-2:]
    loss = [(params.positive_weight * math.fsum(params.positive_margin - s[p])
             + math.fsum(s[q] - params.negative_margin)) / n
            for s, p, q in zip(sims.reshape(items), pos_active.reshape(items),
                               neg_active.reshape(items))]
    coeff = np.where(pos_active, -params.positive_weight, 0.0) + np.where(neg_active, 1.0, 0.0)
    lead = sims.shape[:-2]
    grad1 = (coeff @ d2 / n).reshape(lead + grid1.shape[-3:])
    grad2 = (np.swapaxes(coeff, -1, -2) @ d1 / n).reshape(lead + grid2.shape[-3:])
    if not lead:
        return float(loss[0]), grad1, grad2
    return np.array(loss), grad1, grad2


def detector_targets(labels: np.ndarray, grid_shape: tuple[int, int],
                     cell: int = 8) -> np.ndarray:
    """Per-cell class targets from integer label pixels.

    Class = flattened offset of the label inside its cell; cells without
    a label get the dustbin class (cell^2, the 65th for cell=8). When
    several labels share a cell the row-major smallest (y, then x) wins.
    """
    hc, wc = grid_shape
    labels = np.asarray(labels, dtype=int).reshape(-1, 2)
    dustbin = cell * cell
    targets = np.full(grid_shape, dustbin, dtype=int)
    if len(labels) == 0:
        return targets
    x, y = labels[:, 0], labels[:, 1]
    if np.any((x < 0) | (x >= wc * cell) | (y < 0) | (y >= hc * cell)):
        raise InvalidSpecError("label outside the cell grid")
    order = np.lexsort((x, y))
    taken = np.zeros(grid_shape, dtype=bool)
    for i in order:
        cy, cx = y[i] // cell, x[i] // cell
        if not taken[cy, cx]:
            taken[cy, cx] = True
            targets[cy, cx] = (y[i] % cell) * cell + (x[i] % cell)
    return targets


def detector_loss(logits: np.ndarray, labels, cell: int = 8):
    """Mean per-cell softmax cross-entropy and its gradient.

    ``logits`` is (Hc, Wc, cell^2 + 1); ``labels`` is an (N, 2) integer
    pixel array or a PseudoLabels-like object with ``.points``.

    ``logits`` may carry a leading batch axis, (B, Hc, Wc, cell^2 + 1),
    whose items share ``labels``. Then the loss is a (B,) array and the
    gradient has the logits' shape, every item equal to the unbatched call
    on that item.
    """
    logits = np.asarray(logits, dtype=np.float64)
    classes = cell * cell + 1
    if logits.ndim not in (3, 4) or logits.shape[-1] != classes:
        raise ShapeError(
            f"logits must be (Hc, Wc, {classes}) or (B, Hc, Wc, {classes}), "
            f"got {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise InvalidSpecError("logits must be finite")
    points = getattr(labels, "points", labels)
    batch = logits.reshape((-1,) + logits.shape[-3:])
    targets = detector_targets(points, batch.shape[1:3], cell)

    top = batch.max(axis=-1, keepdims=True)
    expn = np.exp(batch - top)
    grad = expn / expn.sum(axis=-1, keepdims=True)
    log_z = np.log(expn.sum(axis=-1)) + top[..., 0]
    hc, wc = targets.shape
    gy, gx = np.meshgrid(np.arange(hc), np.arange(wc), indexing="ij")
    picked = batch[:, gy, gx, targets]
    n_cells = hc * wc
    loss = (log_z - picked).reshape(len(batch), -1).sum(axis=1) / n_cells
    grad[:, gy, gx, targets] -= 1.0
    grad /= n_cells
    if logits.ndim == 3:
        return float(loss[0]), grad[0]
    return loss, grad


def _max_rel_fd_error(loss, x: np.ndarray, grad: np.ndarray, h: float) -> float:
    """Max central-difference error against ``grad``, relative to its largest entry.

    ``loss`` maps a stack of B copies of ``x``, shape (B,) + x.shape, to
    their B loss values. Every +h and -h copy (one entry of ``x`` moved
    each) goes through one call.
    """
    k = x.size
    flat = x.reshape(-1)
    rows = np.arange(k)
    copies = np.broadcast_to(flat, (2, k, k)).copy()
    copies[0, rows, rows] = flat + h
    copies[1, rows, rows] = flat - h
    up, dn = loss(copies.reshape((2 * k,) + x.shape)).reshape(2, k)
    fd = ((up - dn) / (2 * h)).reshape(grad.shape)
    scale = max(float(np.abs(grad).max()), 1e-12)
    return float(np.abs(fd - grad).max()) / scale


def descriptor_fd_error(rng: np.random.Generator,
                        params: DescriptorLossParams = DescriptorLossParams()) -> float:
    """Max relative central-difference error on one random loss instance.

    Instances with a similarity within 10 difference steps of a hinge
    kink are redrawn, since the difference quotient is wrong across a kink.
    """
    grid = (3, 3)
    dim = 6
    h = 1e-4
    while True:
        d1 = rng.normal(size=grid + (dim,))
        d2 = rng.normal(size=grid + (dim,))
        d1 /= np.linalg.norm(d1, axis=-1, keepdims=True)
        d2 /= np.linalg.norm(d2, axis=-1, keepdims=True)
        S = rng.random(grid + grid) < 0.12
        sims = np.einsum("ijd,kld->ijkl", d1, d2)
        margins = np.where(S, np.abs(sims - params.positive_margin),
                           np.abs(sims - params.negative_margin))
        if margins.min() > 10 * h:
            break
    _, g1, g2 = descriptor_loss(d1, d2, S, params)
    return max(_max_rel_fd_error(lambda b: descriptor_loss(b, d2, S, params)[0], d1, g1, h),
               _max_rel_fd_error(lambda b: descriptor_loss(d1, b, S, params)[0], d2, g2, h))


def detector_fd_error(rng: np.random.Generator) -> float:
    """Max relative central-difference error on one random detector instance."""
    cells = (2, 3)
    h = 1e-4
    logits = rng.normal(size=cells + (65,))
    pts = np.array([[float(rng.integers(0, 24)), float(rng.integers(0, 16))]
                    for _ in range(3)])
    _, grad = detector_loss(logits, pts)
    return _max_rel_fd_error(lambda b: detector_loss(b, pts)[0], logits, grad, h)
