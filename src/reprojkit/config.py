"""Run configuration: defaults, JSON round trip, scene files, digests."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .adaptation import AdaptationParams
from .correspondence import PairSamplingParams
from .errors import ConfigError, InvalidSpecError
from .geometry import CameraIntrinsics, ReprojectionParams
from .losses import DescriptorLossParams
from .scene import Box, Plane, SceneSpec, Sphere, TrajectorySpec
from .textures import CheckerTexture, NoiseTexture


@dataclass(frozen=True)
class EvalParams:
    """Thresholds and sizes shared by the evaluation commands."""

    cell: int = 8
    cell_eps_reprojection: float = 4.0
    cell_eps_homography: float = 8.0
    pair_min_offset: int = 1
    pair_max_offset: int = 10
    detect_k: int = 256
    nms_radius: int = 4
    detect_threshold: float = 0.015
    match_ratio: float = 0.8
    descriptor_dim: int = 128
    pixel_eps: float = 3.0
    homography_threshold_px: float = 3.0
    homography_auc_px: tuple = (3.0, 5.0)
    essential_threshold_px: float = 0.5
    ransac_iterations: int = 1000
    pose_auc_deg: tuple = (5.0, 10.0, 20.0)
    translation_split: float = 0.15
    rotation_acc_deg: tuple = (5.0, 10.0, 45.0)
    translation_acc_cm: tuple = (5.0, 10.0, 25.0)
    chamfer_acc_cm: tuple = (1.0, 5.0, 10.0)

    def __post_init__(self):
        if self.cell < 1:
            raise InvalidSpecError("cell must be positive")
        for name in ("cell_eps_reprojection", "cell_eps_homography", "pixel_eps",
                     "homography_threshold_px", "essential_threshold_px",
                     "translation_split"):
            if not getattr(self, name) > 0:
                raise InvalidSpecError(f"{name} must be positive")
        if self.detect_k < 1 or self.ransac_iterations < 1:
            raise InvalidSpecError("detect_k and ransac_iterations must be positive")
        if not 1 <= self.pair_min_offset <= self.pair_max_offset:
            raise InvalidSpecError("need 1 <= pair_min_offset <= pair_max_offset")
        if not 0.0 < self.match_ratio <= 1.0:
            raise InvalidSpecError("match_ratio must be in (0, 1]")
        for name in ("homography_auc_px", "pose_auc_deg", "rotation_acc_deg",
                     "translation_acc_cm", "chamfer_acc_cm"):
            values = getattr(self, name)
            if len(values) == 0 or any(not v > 0 for v in values):
                raise InvalidSpecError(f"{name} must be positive thresholds")
            object.__setattr__(self, name, tuple(float(v) for v in values))


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: scene, trajectory, parameters, seed."""

    scene: str | None = None
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    reprojection: ReprojectionParams = field(default_factory=ReprojectionParams)
    sampling: PairSamplingParams = field(default_factory=PairSamplingParams)
    adaptation: AdaptationParams = field(default_factory=AdaptationParams)
    loss: DescriptorLossParams = field(default_factory=DescriptorLossParams)
    eval: EvalParams = field(default_factory=EvalParams)
    n_pairs: int = 20
    seed: int = 0
    output_dir: str = "out"

    def __post_init__(self):
        if self.n_pairs < 1:
            raise InvalidSpecError("n_pairs must be positive")
        if not self.output_dir:
            raise InvalidSpecError("output_dir must be nonempty")


def default_config() -> RunConfig:
    """The documented defaults; the trajectory is long enough to admit
    pair offsets inside the default sampling bounds."""
    return RunConfig(trajectory=TrajectorySpec(frames=200))


_SECTION_TYPES = {
    "trajectory": TrajectorySpec,
    "reprojection": ReprojectionParams,
    "sampling": PairSamplingParams,
    "adaptation": AdaptationParams,
    "loss": DescriptorLossParams,
    "eval": EvalParams,
}


def _section_to_dict(obj) -> dict:
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


def _section_from_dict(cls, d: dict, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a table of keys")
    known = {f.name for f in fields(cls)}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
    try:
        return cls(**kwargs)
    except (InvalidSpecError, ValueError) as e:
        raise ConfigError(f"invalid {where}: {e}") from e
    except TypeError as e:
        raise ConfigError(f"malformed {where}: {e}") from e


def config_to_dict(cfg: RunConfig) -> dict:
    out = {"scene": cfg.scene, "n_pairs": cfg.n_pairs, "seed": cfg.seed,
           "output_dir": cfg.output_dir}
    for name, _ in _SECTION_TYPES.items():
        out[name] = _section_to_dict(getattr(cfg, name))
    return out


def config_from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigError("config root must be a table of keys")
    known = set(_SECTION_TYPES) | {"scene", "n_pairs", "seed", "output_dir"}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTION_TYPES.items():
        if name in d:
            kwargs[name] = _section_from_dict(cls, d[name], name)
    for name in ("scene", "n_pairs", "seed", "output_dir"):
        if name in d:
            kwargs[name] = d[name]
    try:
        return RunConfig(**kwargs)
    except (InvalidSpecError, ValueError) as e:
        raise ConfigError(str(e)) from e
    except TypeError as e:
        raise ConfigError(f"malformed config: {e}") from e


def load_config(path) -> RunConfig:
    """Parse a JSON config file; referenced scene paths must exist."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    cfg = config_from_dict(data)
    if cfg.scene is not None and not cfg.scene.startswith("builtin:"):
        scene_path = Path(cfg.scene)
        if not scene_path.is_absolute():
            scene_path = path.parent / scene_path
        if not scene_path.is_file():
            raise ConfigError(f"scene file {scene_path} does not exist")
        cfg = replace(cfg, scene=str(scene_path))
    return cfg


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(canonical_json(config_to_dict(cfg)))


def canonical_json(data) -> str:
    """Stable serialization: sorted keys, fixed separators, trailing newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def config_digest(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_json(config_to_dict(cfg)).encode()).hexdigest()


def scene_to_dict(spec: SceneSpec, cam: CameraIntrinsics) -> dict:
    """A scene file: the camera block plus ``SceneSpec.to_dict``."""
    return {"camera": {"fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
                       "width": cam.width, "height": cam.height},
            **spec.to_dict()}


def scene_from_dict(d: dict) -> tuple[SceneSpec, CameraIntrinsics]:
    try:
        c = d["camera"]
        cam = CameraIntrinsics(fx=c["fx"], fy=c["fy"], cx=c["cx"], cy=c["cy"],
                               width=c["width"], height=c["height"])
        spec = SceneSpec.from_dict(d)
    except (KeyError, TypeError, ValueError, InvalidSpecError) as e:
        raise ConfigError(f"malformed scene: {e}") from e
    return spec, cam


def _builtin_plane() -> tuple[SceneSpec, CameraIntrinsics]:
    cam = CameraIntrinsics(fx=128.0, fy=128.0, cx=79.5, cy=79.5,
                           width=160, height=160)
    plane = Plane(origin=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0),
                  half_u=6.0, half_v=6.0, texture=0)
    spec = SceneSpec(primitives=(plane,),
                     textures=(NoiseTexture(scale=0.15, seed=3),))
    return spec, cam


def _builtin_general() -> tuple[SceneSpec, CameraIntrinsics]:
    cam = CameraIntrinsics(fx=128.0, fy=128.0, cx=79.5, cy=79.5,
                           width=160, height=160)
    ground = Plane(origin=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0),
                   half_u=6.0, half_v=6.0, texture=0)
    spec = SceneSpec(
        primitives=(ground,
                    Sphere(center=(0.35, 0.0, 0.3), radius=0.3, texture=1),
                    Sphere(center=(-0.5, 0.4, 0.2), radius=0.2, texture=0),
                    Box(center=(-0.1, -0.5, 0.15),
                        half_size=(0.22, 0.16, 0.15), texture=2)),
        textures=(NoiseTexture(scale=0.15, seed=3),
                  CheckerTexture(scale=0.1),
                  NoiseTexture(scale=0.08, seed=11,
                               color1=(0.7, 0.3, 0.2), color2=(0.95, 0.8, 0.6))))
    return spec, cam


BUILTIN_SCENES = {"builtin:plane": _builtin_plane, "builtin:general": _builtin_general}


def load_scene(ref: str | None) -> tuple[SceneSpec, CameraIntrinsics]:
    """Resolve a config scene reference: None, a builtin tag, or a file."""
    if ref is None:
        return _builtin_general()
    if ref.startswith("builtin:"):
        try:
            return BUILTIN_SCENES[ref]()
        except KeyError:
            raise ConfigError(f"unknown builtin scene {ref!r}") from None
    path = Path(ref)
    try:
        data = json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read scene {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"scene {path} is not valid JSON: {e}") from e
    return scene_from_dict(data)
