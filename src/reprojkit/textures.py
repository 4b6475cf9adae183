"""Procedural surface textures evaluated in local (u, v) surface coordinates.

Each texture maps (u, v) arrays in meters to RGB floats in [0, 1]. All
textures are pure functions of their parameters, so renders are exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError

_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)
_MIX3 = 0x165667B19E3779F9  # a Python int: the seed product wraps before numpy sees it
_MIX4 = np.uint64(0xBF58476D1CE4E5B9)
_MIX5 = np.uint64(0x94D049BB133111EB)


def _lattice_hash(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic [0, 1) value per integer lattice point (splitmix-style)."""
    x = ix.astype(np.int64).view(np.uint64) if ix.dtype != np.uint64 else ix
    y = iy.astype(np.int64).view(np.uint64) if iy.dtype != np.uint64 else iy
    h = x * _MIX1 + y * _MIX2 + np.uint64(seed * _MIX3 & 0xFFFFFFFFFFFFFFFF)
    h ^= h >> np.uint64(30)
    h *= _MIX4
    h ^= h >> np.uint64(27)
    h *= _MIX5
    h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _as_color(c) -> np.ndarray:
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (3,) or np.any(c < 0.0) or np.any(c > 1.0):
        raise InvalidSpecError(f"color must be 3 floats in [0, 1], got {c!r}")
    return c


def _check_scale(scale: float):
    if not scale > 0:
        raise InvalidSpecError(f"texture scale must be positive, got {scale}")


@dataclass(frozen=True)
class CheckerTexture:
    """Alternating squares of side ``scale`` meters."""

    scale: float = 0.1
    color1: tuple = (0.95, 0.95, 0.95)
    color2: tuple = (0.08, 0.08, 0.08)

    def __post_init__(self):
        _check_scale(self.scale)

    def sample(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        parity = (np.floor(u / self.scale) + np.floor(v / self.scale)) % 2.0
        c1, c2 = _as_color(self.color1), _as_color(self.color2)
        return np.where(parity[..., None] < 0.5, c1, c2)


@dataclass(frozen=True)
class StripeTexture:
    """Bands of width ``scale`` meters along the u axis."""

    scale: float = 0.05
    color1: tuple = (0.9, 0.75, 0.2)
    color2: tuple = (0.15, 0.2, 0.7)

    def __post_init__(self):
        _check_scale(self.scale)

    def sample(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        parity = np.floor(u / self.scale) % 2.0
        c1, c2 = _as_color(self.color1), _as_color(self.color2)
        return np.where(parity[..., None] < 0.5, c1, c2)


@dataclass(frozen=True)
class NoiseTexture:
    """Smoothly interpolated value noise on an integer lattice of ``scale`` m."""

    scale: float = 0.08
    color1: tuple = (0.1, 0.25, 0.1)
    color2: tuple = (0.85, 0.9, 0.8)
    seed: int = 0

    def __post_init__(self):
        _check_scale(self.scale)

    def sample(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        gu = np.asarray(u, dtype=np.float64) / self.scale
        gv = np.asarray(v, dtype=np.float64) / self.scale
        iu, iv = np.floor(gu), np.floor(gv)
        fu, fv = gu - iu, gv - iv
        # smoothstep weights keep the field C1 across cell boundaries
        wu = fu * fu * (3.0 - 2.0 * fu)
        wv = fv * fv * (3.0 - 2.0 * fv)
        v00 = _lattice_hash(iu, iv, self.seed)
        v10 = _lattice_hash(iu + 1, iv, self.seed)
        v01 = _lattice_hash(iu, iv + 1, self.seed)
        v11 = _lattice_hash(iu + 1, iv + 1, self.seed)
        top = v00 + (v10 - v00) * wu
        bot = v01 + (v11 - v01) * wu
        t = (top + (bot - top) * wv)[..., None]
        c1, c2 = _as_color(self.color1), _as_color(self.color2)
        return c1 + (c2 - c1) * t
