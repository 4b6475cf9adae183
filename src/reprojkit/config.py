"""Run configuration: defaults, JSON round trip, scene files, digests."""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .adaptation import AdaptationParams
from .correspondence import PairSamplingParams
from .errors import ConfigError, InvalidSpecError
from .geometry import CameraIntrinsics, ReprojectionParams
from .losses import DescriptorLossParams
from .scene import Box, Plane, SceneSpec, Sphere, TrajectorySpec
from .textures import CheckerTexture, NoiseTexture, StripeTexture


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
            if not 0 < getattr(self, name) < np.inf:
                raise InvalidSpecError(f"{name} must be positive and finite")
        if self.detect_k < 1 or self.ransac_iterations < 1:
            raise InvalidSpecError("detect_k and ransac_iterations must be positive")
        if self.nms_radius < 1:
            raise InvalidSpecError(f"nms_radius must be >= 1, got {self.nms_radius}")
        if self.descriptor_dim < 2:
            raise InvalidSpecError(f"descriptor_dim must be >= 2, got {self.descriptor_dim}")
        if not 0.0 <= self.detect_threshold <= 1.0:
            raise InvalidSpecError(
                f"detect_threshold must be in [0, 1], got {self.detect_threshold}")
        if not 1 <= self.pair_min_offset <= self.pair_max_offset:
            raise InvalidSpecError("need 1 <= pair_min_offset <= pair_max_offset")
        if not 0.0 < self.match_ratio <= 1.0:
            raise InvalidSpecError("match_ratio must be in (0, 1]")
        for name in ("homography_auc_px", "pose_auc_deg", "rotation_acc_deg",
                     "translation_acc_cm", "chamfer_acc_cm"):
            values = getattr(self, name)
            if len(values) == 0 or any(not 0 < v < np.inf for v in values):
                raise InvalidSpecError(f"{name} must be positive finite thresholds")
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
        if self.scene is not None and not isinstance(self.scene, str):
            raise InvalidSpecError(f"scene must be a builtin tag or a path, got {self.scene!r}")
        if self.n_pairs < 1:
            raise InvalidSpecError("n_pairs must be positive")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise InvalidSpecError(f"output_dir must be a nonempty string, got {self.output_dir!r}")


def default_config() -> RunConfig:
    """The documented defaults; the trajectory is long enough to admit
    pair offsets inside the default sampling bounds."""
    return RunConfig(trajectory=TrajectorySpec(frames=200))


# the config's sections are its dataclass-valued fields
_SECTION_TYPES = {f.name: f.default_factory for f in fields(RunConfig)
                  if f.default_factory is not MISSING}

PRIMITIVE_KINDS = {"plane": Plane, "box": Box, "sphere": Sphere}
TEXTURE_KINDS = {"checker": CheckerTexture, "stripes": StripeTexture, "noise": NoiseTexture}
_KIND_TAGS = {cls: kind for kinds in (PRIMITIVE_KINDS, TEXTURE_KINDS)
              for kind, cls in kinds.items()}


def _json_value(v):
    if is_dataclass(v):
        return _spec_to_dict(v)
    if isinstance(v, (tuple, list, np.ndarray)):
        return [_json_value(x) for x in v]
    return v


def _spec_to_dict(spec) -> dict:
    """A spec dataclass as a JSON table: one key per field, sequences as
    lists, nested specs as tables, and a ``kind`` tag for the classes of a
    kind registry."""
    out = {f.name: _json_value(getattr(spec, f.name)) for f in fields(spec)}
    if type(spec) in _KIND_TAGS:
        out["kind"] = _KIND_TAGS[type(spec)]
    return out


def _spec_from_dict(cls_or_kinds, table, where: str):
    """Build a spec from one JSON table; the inverse of ``_spec_to_dict``.

    ``cls_or_kinds`` is a spec class, or a kind registry whose class the
    table's ``kind`` key picks. Unknown keys are rejected, lists become
    tuples, and every failure is a ``ConfigError`` naming ``where``.
    """
    if not isinstance(table, dict):
        raise ConfigError(f"{where} must be a table of keys")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in table.items()}
    cls = cls_or_kinds
    if isinstance(cls_or_kinds, dict):
        kind = kwargs.pop("kind", None)
        if not isinstance(kind, str) or kind not in cls_or_kinds:
            raise ConfigError(f"unknown {where} kind {kind!r}")
        cls = cls_or_kinds[kind]
    unknown = set(kwargs) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    try:
        # JSON numbers: an int field takes no float or bool; a float field
        # takes ints but no bool
        hints = get_type_hints(cls)
        for name, value in kwargs.items():
            if hints[name] is int and (not isinstance(value, int) or isinstance(value, bool)):
                raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
            if hints[name] in (float, float | None) and isinstance(value, bool):
                raise InvalidSpecError(f"{name} must be a number, got {value!r}")
        return cls(**kwargs)
    except (InvalidSpecError, ValueError) as e:
        raise ConfigError(f"invalid {where}: {e}") from e
    except TypeError as e:
        raise ConfigError(f"malformed {where}: {e}") from e


def config_to_dict(cfg: RunConfig) -> dict:
    return _spec_to_dict(cfg)


def config_from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigError("config root must be a table of keys")
    return _spec_from_dict(RunConfig, {
        k: _spec_from_dict(_SECTION_TYPES[k], v, k) if k in _SECTION_TYPES else v
        for k, v in d.items()}, "config")


def _read_json(path: Path, what: str):
    """The parsed contents of a JSON file; a ``ConfigError`` naming ``what``
    if it cannot be read or parsed."""
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} {path} is not valid JSON: {e}") from e


def load_config(path) -> RunConfig:
    """Parse a JSON config file; referenced scene paths must exist."""
    path = Path(path)
    cfg = config_from_dict(_read_json(path, "config"))
    if cfg.scene is not None and not cfg.scene.startswith("builtin:"):
        scene_path = Path(cfg.scene)
        if not scene_path.is_absolute():
            scene_path = path.parent / scene_path
        if not scene_path.is_file():
            raise ConfigError(f"scene file {scene_path} does not exist")
        cfg = replace(cfg, scene=str(scene_path))
    return cfg


def canonical_json(data) -> str:
    """Stable serialization: sorted keys, fixed separators, trailing newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def config_digest(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_json(config_to_dict(cfg)).encode()).hexdigest()


def scene_to_dict(spec: SceneSpec, cam: CameraIntrinsics) -> dict:
    """A scene file: the camera block plus the scene's fields."""
    return {"camera": _spec_to_dict(cam), **_spec_to_dict(spec)}


# scene-file lists: key, kind registry, name of one entry
_SCENE_LISTS = (("primitives", PRIMITIVE_KINDS, "primitive"),
                ("textures", TEXTURE_KINDS, "texture"))


def scene_from_dict(d: dict) -> tuple[SceneSpec, CameraIntrinsics]:
    try:
        if not isinstance(d, dict):
            raise ConfigError("scene must be a table of keys")
        d = dict(d)
        cam = _spec_from_dict(CameraIntrinsics, d.pop("camera", None), "camera")
        for key, kinds, entry in _SCENE_LISTS:
            if not isinstance(d.get(key), list):
                raise ConfigError(f"{key} must be a list")
            d[key] = [_spec_from_dict(kinds, t, entry) for t in d[key]]
        spec = _spec_from_dict(SceneSpec, d, "scene")
    except ConfigError as e:
        raise ConfigError(f"malformed scene: {e}") from e.__cause__
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
    return scene_from_dict(_read_json(Path(ref), "scene"))
