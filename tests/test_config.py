"""Config defaults, JSON round trips, scene files, and validation."""

import hashlib
import json
from dataclasses import asdict, fields, is_dataclass, replace
from typing import get_type_hints

import pytest

from reprojkit.config import (
    BUILTIN_SCENES,
    EvalParams,
    RunConfig,
    canonical_json,
    config_digest,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    load_scene,
    scene_from_dict,
    scene_to_dict,
)
from reprojkit.errors import ConfigError, InvalidSpecError
from reprojkit.geometry import CameraIntrinsics
from reprojkit.scene import Box, Plane, SceneSpec, Sphere, TrajectorySpec
from reprojkit.textures import CheckerTexture, NoiseTexture, StripeTexture


def sha256_of_json(data) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


class TestDefaults:
    def test_named_constants(self):
        cfg = default_config()
        assert cfg.sampling.min_offset == 70
        assert cfg.sampling.max_offset == 150
        assert cfg.reprojection.depth_eps == 0.03
        assert cfg.reprojection.window == 5
        assert cfg.eval.cell_eps_reprojection == 4.0
        assert cfg.eval.cell_eps_homography == 8.0
        assert cfg.adaptation.window_len == 20
        assert cfg.adaptation.n_sampled == 14
        assert cfg.adaptation.patch == 3
        assert cfg.eval.pose_auc_deg == (5.0, 10.0, 20.0)
        assert cfg.eval.translation_split == 0.15
        assert cfg.eval.essential_threshold_px == 0.5
        assert cfg.loss.positive_margin == 1.0
        assert cfg.loss.negative_margin == 0.2
        assert cfg.loss.positive_weight == 250.0

    def test_trajectory_admits_sampling_offsets(self):
        cfg = default_config()
        assert cfg.trajectory.frames > cfg.sampling.min_offset

    def test_round_trip(self):
        cfg = default_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_digest_tracks_values(self):
        a = default_config()
        d = config_to_dict(a)
        d["reprojection"]["depth_eps"] = 0.05
        b = config_from_dict(d)
        assert config_digest(a) != config_digest(b)
        assert config_digest(a) == config_digest(default_config())


class TestValidation:
    def test_unknown_root_key(self):
        with pytest.raises(ConfigError, match=r"unknown key\(s\) in config"):
            config_from_dict({"seeed": 3})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"eval": {"cel": 8}})

    def test_invalid_section_value(self):
        with pytest.raises(ConfigError):
            config_from_dict({"reprojection": {"depth_eps": -1.0}})
        with pytest.raises(ConfigError):
            config_from_dict({"trajectory": {"kind": "spiral"}})

    def test_jitter_on_unjittered_kind_rejected(self):
        with pytest.raises(ConfigError, match="^invalid trajectory: jitter_deg > 0 needs kind"):
            config_from_dict({"trajectory": {"kind": "line", "jitter_deg": 2.0}})

    def test_invalid_top_level_value(self):
        with pytest.raises(ConfigError):
            config_from_dict({"n_pairs": 0})

    def test_eval_params_bounds(self):
        with pytest.raises(InvalidSpecError):
            EvalParams(match_ratio=0.0)
        with pytest.raises(InvalidSpecError):
            EvalParams(pose_auc_deg=())
        with pytest.raises(InvalidSpecError):
            EvalParams(pair_min_offset=5, pair_max_offset=2)

    @pytest.mark.parametrize("kw", [
        {"nms_radius": 0}, {"nms_radius": -3}, {"descriptor_dim": 1}, {"descriptor_dim": 0},
        {"detect_threshold": -0.1}, {"detect_threshold": 1.5},
        {"detect_threshold": float("nan")}, {"detect_threshold": float("inf")},
    ])
    def test_frontend_knobs_checked_at_load(self, kw):
        with pytest.raises(InvalidSpecError):
            EvalParams(**kw)
        with pytest.raises(ConfigError, match=f"invalid eval: {next(iter(kw))} "):
            config_from_dict({"eval": kw})

    def test_frontend_knob_edges_accepted(self):
        EvalParams(nms_radius=1, descriptor_dim=2, detect_threshold=0.0)
        EvalParams(detect_threshold=1.0)


class TestFiles:
    def test_save_load(self, tmp_path):
        cfg = RunConfig(trajectory=TrajectorySpec(frames=12), seed=9,
                        n_pairs=4, output_dir="elsewhere")
        path = tmp_path / "cfg.json"
        path.write_text(canonical_json(config_to_dict(cfg)))
        assert load_config(path) == cfg

    def test_not_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_scene_path_must_exist(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scene": "no-such-scene.json"}))
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(path)

    def test_scene_path_resolved_relative_to_config(self, tmp_path):
        spec, cam = load_scene("builtin:plane")
        (tmp_path / "scene.json").write_text(
            canonical_json(scene_to_dict(spec, cam)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scene": "scene.json"}))
        cfg = load_config(path)
        assert cfg.scene == str(tmp_path / "scene.json")
        spec2, cam2 = load_scene(cfg.scene)
        assert spec2 == spec and cam2 == cam

    def test_canonical_json_is_stable(self):
        d = config_to_dict(default_config())
        assert canonical_json(d) == canonical_json(json.loads(canonical_json(d)))


class TestScenes:
    def test_builtins_load(self):
        for tag in BUILTIN_SCENES:
            spec, cam = load_scene(tag)
            assert len(spec.primitives) >= 1
            assert cam.width > 0

    def test_none_is_general(self):
        assert load_scene(None) == load_scene("builtin:general")

    def test_plane_builtin_is_plane_only(self):
        spec, _ = load_scene("builtin:plane")
        assert len(spec.primitives) == 1
        assert isinstance(spec.primitives[0], Plane)

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError, match="unknown builtin"):
            load_scene("builtin:nebula")

    def test_scene_dict_round_trip(self):
        spec, cam = load_scene("builtin:general")
        spec2, cam2 = scene_from_dict(scene_to_dict(spec, cam))
        assert spec2 == spec and cam2 == cam

    def test_malformed_scene_dict(self):
        with pytest.raises(ConfigError, match="malformed scene"):
            scene_from_dict({"camera": {}})
        spec, cam = load_scene("builtin:plane")
        d = scene_to_dict(spec, cam)
        d["primitives"][0]["kind"] = "torus"
        with pytest.raises(ConfigError):
            scene_from_dict(d)


class TestFormat:
    """The JSON format of configs and scene files, pinned byte for byte."""

    def test_golden_digests(self):
        assert sha256_of_json(config_to_dict(default_config())) == (
            "e3cee233285f1d91ee066d38aa0bec1733fc113ac713df30770c83f6e74c9a50")
        assert sha256_of_json(scene_to_dict(*load_scene("builtin:plane"))) == (
            "fc6ec17c4d6fcb40623cc20ecc2fd224e7dcc957f3b831b668f32627f0657993")
        assert sha256_of_json(scene_to_dict(*load_scene("builtin:general"))) == (
            "30bbf6fda23948bd31dac635676b2cb3f42d44b4de128dd6723820548efbf7b3")

    def test_config_round_trip_through_text(self):
        base = RunConfig()
        cfg = RunConfig(
            scene="builtin:plane",
            trajectory=TrajectorySpec(kind="orbit-with-jitter", center=(0.5, 0.0, 0.1),
                                      jitter_deg=2.5, frames=30),
            reprojection=replace(base.reprojection, depth_eps=0.05, window=3),
            sampling=replace(base.sampling, min_offset=3, max_offset=9, seed=4),
            adaptation=replace(base.adaptation, window_len=6, n_sampled=3),
            loss=replace(base.loss, negative_margin=0.1),
            eval=replace(base.eval, pose_auc_deg=(2.0, 4.0), match_ratio=0.9),
            n_pairs=7, seed=11, output_dir="runs/a")
        for name in asdict(cfg):
            assert getattr(cfg, name) != getattr(base, name), name
        again = config_from_dict(json.loads(canonical_json(config_to_dict(cfg))))
        assert again == cfg

    def test_scene_round_trip_through_text(self):
        spec = SceneSpec(
            (Plane((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 3.0, 2.0, texture=2,
                   u_axis=(0.0, 1.0, 0.0)),
             Box((0.2, -0.3, 0.4), (0.1, 0.2, 0.3), texture=1),
             Sphere((-0.5, 0.5, 0.25), 0.25, texture=0)),
            (CheckerTexture(0.2, color1=(1.0, 0.0, 0.0)), StripeTexture(0.03),
             NoiseTexture(0.1, seed=9)),
            background=(0.5, 0.5, 0.5))
        cam = CameraIntrinsics(fx=100.0, fy=90.0, cx=40.0, cy=30.0, width=80, height=60)
        text = canonical_json(scene_to_dict(spec, cam))
        assert json.loads(text)["primitives"][0]["u_axis"] == [0.0, 1.0, 0.0]
        assert scene_from_dict(json.loads(text)) == (spec, cam)


def _plane_scene() -> dict:
    return scene_to_dict(*load_scene("builtin:plane"))


def _edited(**changes) -> dict:
    d = _plane_scene()
    d.update(changes)
    return d


def _without(key) -> dict:
    d = _plane_scene()
    del d[key]
    return d


def _camera_with(**changes) -> dict:
    d = _plane_scene()
    d["camera"].update(changes)
    return d


MALFORMED_SCENES = {
    "non-table primitive": _edited(primitives=[3]),
    "non-table texture": _edited(textures=[3]),
    "non-list primitives": _edited(primitives={"kind": "sphere", "center": [0, 0, 0],
                                               "radius": 1.0}),
    "unknown camera key": _camera_with(fov=60),
    "float camera width": _camera_with(width=160.5),
    "unknown scene key": _edited(lights=[]),
    "missing camera": _without("camera"),
    "non-table camera": _edited(camera=[128.0, 128.0]),
    "unknown kind": _edited(primitives=[{"kind": "torus", "radius": 1.0}]),
    "texture kind in primitives": _edited(primitives=[{"kind": "checker"}]),
    "primitive kind in textures": _edited(textures=[{"kind": "sphere", "radius": 1.0}]),
    "missing kind": _edited(textures=[{"scale": 0.1}]),
    "non-integer texture index": _edited(primitives=[
        {"kind": "sphere", "center": [0, 0, 0], "radius": 1.0, "texture": 0.5}]),
    "2-vector center": _edited(primitives=[
        {"kind": "sphere", "center": [0, 0], "radius": 1.0}]),
    "non-table root": [1, 2],
    "infinite sphere radius": _edited(primitives=[
        {"kind": "sphere", "center": [0, 0, 0], "radius": float("inf")}]),
    "infinite box half size": _edited(primitives=[
        {"kind": "box", "center": [0, 0, 0], "half_size": [1.0, float("inf"), 1.0]}]),
    "infinite plane extent": _edited(primitives=[
        {"kind": "plane", "origin": [0, 0, 0], "normal": [0, 0, 1], "half_u": 1.0,
         "half_v": float("inf")}]),
    "bool sphere radius": _edited(primitives=[
        {"kind": "sphere", "center": [0, 0, 0], "radius": True}]),
    "bool camera focal length": _camera_with(fx=True),
}

MALFORMED_CONFIGS = {
    "scene not a string": {"scene": 5},
    "seed not an int": {"seed": "x"},
    "seed a bool": {"seed": True},
    "n_pairs a float": {"n_pairs": 2.5},
    "output_dir not a string": {"output_dir": 3},
    "non-table section": {"eval": [8]},
    "non-table root": [],
}


# every int-annotated field of the numeric config sections
INT_FIELDS = {
    "trajectory": ("frames", "seed"),
    "sampling": ("min_offset", "max_offset", "seed"),
    "adaptation": ("window_len", "n_sampled", "nms_radius", "patch", "seed"),
    "eval": ("cell", "pair_min_offset", "pair_max_offset", "detect_k", "nms_radius",
             "descriptor_dim", "ransac_iterations"),
}
INT_FIELD_CASES = [(section, name, bad) for section, names in INT_FIELDS.items()
                   for name in names for bad in (4.5, 4.0, True)]


FLOAT_FIELDS = {
    "trajectory": ("radius", "height", "jitter_deg"),
    "reprojection": ("depth_eps",),
    "adaptation": ("threshold",),
    "loss": ("positive_margin", "negative_margin", "positive_weight"),
    "eval": ("cell_eps_reprojection", "cell_eps_homography", "detect_threshold",
             "match_ratio", "pixel_eps", "homography_threshold_px", "essential_threshold_px",
             "translation_split"),
}
FLOAT_FIELD_CASES = [(section, name, bad) for section, names in FLOAT_FIELDS.items()
                     for name in names for bad in (True, False)]


class TestFloatFields:
    def test_table_lists_every_float_field(self):
        cfg = default_config()
        sections = [f.name for f in fields(cfg) if is_dataclass(getattr(cfg, f.name))]
        assert set(FLOAT_FIELDS) <= set(sections)
        for section in sections:
            hints = get_type_hints(type(getattr(cfg, section)))
            names = tuple(k for k, v in hints.items() if v in (float, float | None))
            assert FLOAT_FIELDS.get(section, ()) == names, section

    @pytest.mark.parametrize("section,name,bad", FLOAT_FIELD_CASES,
                             ids=[f"{s}.{n}={b!r}" for s, n, b in FLOAT_FIELD_CASES])
    def test_bool_rejected(self, section, name, bad):
        with pytest.raises(ConfigError,
                           match=rf"^invalid {section}: {name} must be a number, got ") as info:
            config_from_dict({section: {name: bad}})
        assert isinstance(info.value.__cause__, InvalidSpecError)

    @pytest.mark.parametrize("section,name", [(s, n) for s, names in FLOAT_FIELDS.items()
                                              for n in names])
    def test_int_accepted(self, section, name):
        # a valid int for every float field: negative_margin < positive_margin = 1
        value = 0 if name == "negative_margin" else 1
        # a nonzero jitter needs the jittered trajectory kind
        extra = {"kind": "orbit-with-jitter"} if name == "jitter_deg" else {}
        cfg = config_from_dict({section: {name: value, **extra}})
        assert getattr(getattr(cfg, section), name) == value


class TestIntFields:
    def test_table_lists_every_int_field(self):
        cfg = default_config()
        for section, names in INT_FIELDS.items():
            hints = get_type_hints(type(getattr(cfg, section)))
            assert names == tuple(k for k, v in hints.items() if v is int), section

    @pytest.mark.parametrize("section,name,bad", INT_FIELD_CASES,
                             ids=[f"{s}.{n}={b!r}" for s, n, b in INT_FIELD_CASES])
    def test_non_int_rejected(self, section, name, bad):
        with pytest.raises(ConfigError,
                           match=rf"^invalid {section}: {name} must be an integer, got ") as info:
            config_from_dict({section: {name: bad}})
        assert isinstance(info.value.__cause__, InvalidSpecError)

    def test_float_fields_take_ints_as_given(self):
        cfg = config_from_dict({"eval": {"match_ratio": 1, "pixel_eps": 2},
                                "reprojection": {"depth_eps": 1}})
        assert cfg.eval.match_ratio == 1 and type(cfg.eval.match_ratio) is int
        assert cfg.eval.pixel_eps == 2 and type(cfg.eval.pixel_eps) is int
        assert cfg.reprojection.depth_eps == 1 and type(cfg.reprojection.depth_eps) is int


# every float and tuple field of every section, each with every non-finite value
NON_FINITE_CASES = [
    (f.name, g.name, bad)
    for f in fields(RunConfig) if is_dataclass(section := getattr(default_config(), f.name))
    for g in fields(section)
    if get_type_hints(type(section))[g.name] in (float, float | None, tuple)
    for bad in ("inf", "-inf", "nan")]


class TestNonFiniteFields:
    """Every float knob and every entry of a tuple field must be finite."""

    def test_table_covers_every_section_and_list(self):
        assert {s for s, _, _ in NON_FINITE_CASES} == {
            "trajectory", "reprojection", "adaptation", "loss", "eval"}
        assert {("trajectory", "center"), ("eval", "homography_auc_px"),
                ("eval", "pose_auc_deg"), ("eval", "rotation_acc_deg"),
                ("eval", "translation_acc_cm"), ("eval", "chamfer_acc_cm")} <= {
            (s, n) for s, n, _ in NON_FINITE_CASES}

    @pytest.mark.parametrize("section,name,bad", NON_FINITE_CASES,
                             ids=[f"{s}.{n}={b}" for s, n, b in NON_FINITE_CASES])
    def test_rejected_at_load(self, tmp_path, section, name, bad):
        default = getattr(getattr(default_config(), section), name)
        if isinstance(default, tuple):
            # the bad value in each position of the default list in turn
            values = [[float(bad) if j == i else v for j, v in enumerate(default)]
                      for i in range(len(default))]
        else:
            values = [float(bad)]
        path = tmp_path / "cfg.json"
        for value in values:
            path.write_text(json.dumps({section: {name: value}}))  # writes Infinity, NaN
            with pytest.raises(ConfigError, match=rf"^invalid {section}: .*\b{name}\b") as info:
                load_config(path)
            assert isinstance(info.value.__cause__, (InvalidSpecError, ValueError))


# every seed field: None is the root ``seed``, the rest are sections
SEED_SECTIONS = (None, "trajectory", "sampling", "adaptation")


def _with_seed(section, value):
    return {"seed": value} if section is None else {section: {"seed": value}}


class TestSeedFields:
    def test_table_lists_every_seed_field(self):
        cfg = default_config()
        sections = {f.name for f in fields(cfg) if is_dataclass(getattr(cfg, f.name))
                    and "seed" in {g.name for g in fields(getattr(cfg, f.name))}}
        assert "seed" in {f.name for f in fields(cfg)}
        assert sections == set(SEED_SECTIONS[1:])

    @pytest.mark.parametrize("section", SEED_SECTIONS)
    @pytest.mark.parametrize("bad", [-1, -5, -2**70])
    def test_negative_rejected(self, section, bad):
        where = section or "config"
        with pytest.raises(ConfigError,
                           match=rf"^invalid {where}: .*seed must be >= 0, got {bad}$") as info:
            config_from_dict(_with_seed(section, bad))
        assert isinstance(info.value.__cause__, InvalidSpecError)

    @pytest.mark.parametrize("section", SEED_SECTIONS)
    @pytest.mark.parametrize("good", [0, 2**70])
    def test_non_negative_accepted(self, section, good):
        cfg = config_from_dict(_with_seed(section, good))
        assert (getattr(cfg, section) if section else cfg).seed == good


class TestMalformedInput:
    @pytest.mark.parametrize("data", MALFORMED_SCENES.values(), ids=MALFORMED_SCENES)
    def test_scene_rejected(self, data):
        with pytest.raises(ConfigError, match="malformed scene"):
            scene_from_dict(data)

    @pytest.mark.parametrize("data", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS)
    def test_config_rejected(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_scalar_error_names_the_key(self):
        with pytest.raises(ConfigError, match="seed must be an integer") as info:
            config_from_dict({"seed": "x"})
        assert isinstance(info.value.__cause__, InvalidSpecError)

    def test_scene_error_keeps_the_spec_error_as_cause(self):
        d = _plane_scene()
        d["primitives"][0]["half_u"] = -1.0
        with pytest.raises(ConfigError, match="malformed scene: invalid primitive") as info:
            scene_from_dict(d)
        assert isinstance(info.value.__cause__, InvalidSpecError)

    def test_unknown_camera_key_is_named(self):
        with pytest.raises(ConfigError, match=r"unknown key\(s\) in camera: \['fov'\]"):
            scene_from_dict(_camera_with(fov=60))

    def test_load_config_rejects_non_string_scene(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scene": 5}))
        with pytest.raises(ConfigError, match="scene must be"):
            load_config(path)
