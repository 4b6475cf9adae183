"""End-to-end CLI runs on a tiny scene: artifacts, reports, exit codes."""

import json
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from reprojkit import cli, losses
from reprojkit.config import canonical_json, load_scene, scene_to_dict
from reprojkit.errors import InvalidSpecError
from reprojkit.geometry import CameraIntrinsics, DepthMap, RenderedView
from reprojkit.scene import Plane, SceneSpec, Sphere
from reprojkit.textures import CheckerTexture, NoiseTexture


@pytest.fixture()
def runner():
    return CliRunner()


def small_scene_file(tmp_path, plane_only=False, size=(64, 64)):
    width, height = size
    cam = CameraIntrinsics(fx=64.0, fy=64.0, cx=(width - 1) / 2, cy=(height - 1) / 2,
                           width=width, height=height)
    ground = Plane(origin=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0),
                   half_u=6.0, half_v=6.0, texture=0)
    if plane_only:
        prims = (ground,)
    else:
        prims = (ground, Sphere(center=(0.2, 0.0, 0.25), radius=0.25, texture=1))
    spec = SceneSpec(primitives=prims,
                     textures=(NoiseTexture(scale=0.2, seed=5),
                               CheckerTexture(scale=0.12)))
    path = tmp_path / "scene.json"
    path.write_text(canonical_json(scene_to_dict(spec, cam)))
    return path


def small_config_file(tmp_path, out_dir, plane_only=False, size=(64, 64), **extra):
    scene = small_scene_file(tmp_path, plane_only=plane_only, size=size)
    data = {"scene": scene.name,
            "trajectory": {"kind": "line", "frames": 14, "radius": 2.0,
                           "height": 1.2},
            "sampling": {"min_offset": 2, "max_offset": 5},
            "adaptation": {"window_len": 4, "n_sampled": 2},
            "eval": {"pair_min_offset": 1, "pair_max_offset": 3,
                     "detect_k": 128, "ransac_iterations": 200},
            "n_pairs": 3,
            "seed": 5,
            "output_dir": str(out_dir)}
    data.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


class TestSynth:
    def test_writes_dataset_and_report(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out)
        res = runner.invoke(cli.main, ["synth", "-c", str(cfg)])
        assert res.exit_code == 0, res.output
        assert "14 frames" in res.output and "seed 5" in res.output
        assert (out / "manifest.json").is_file()
        assert len(list((out / "frames").glob("*.ppm"))) == 14
        assert len(list((out / "frames").glob("*.pfm"))) == 14
        rep = read_report(out)
        assert rep["command"] == "synth"
        assert rep["results"]["frames"] == 14
        assert rep["config"]["seed"] == 5

    def test_rerun_and_threads_identical(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        res = runner.invoke(cli.main, ["synth", "-c", str(cfg), "--threads", "4"])
        assert res.exit_code == 0
        after = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        assert before == after

    @pytest.mark.parametrize("frames", [10, 100])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_holds_a_bounded_number_of_views(self, runner, tmp_path, monkeypatch,
                                             frames, threads):
        alive, peak, lock = set(), [0], threading.Lock()

        def forget(index):
            with lock:
                alive.discard(index)

        def fake_render(spec, cam, pose, index=0):
            view = RenderedView(np.full((cam.height, cam.width, 3), index % 256, np.uint8),
                                DepthMap(np.ones((cam.height, cam.width))), cam, pose, index)
            with lock:
                alive.add(index)
                peak[0] = max(peak[0], len(alive))
            weakref.finalize(view, forget, index)
            return view

        monkeypatch.setattr(cli, "render_view", fake_render)
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out, size=(16, 16),
                                trajectory={"kind": "line", "frames": frames})
        res = runner.invoke(cli.main, ["synth", "-c", str(cfg), "--threads", str(threads)])
        assert res.exit_code == 0, res.output
        assert len(list((out / "frames").glob("*.ppm"))) == frames
        # 2 * threads renders submitted ahead plus the one being written
        assert peak[0] <= 2 * threads + 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_rerun_leaves_no_manifest(self, runner, tmp_path, monkeypatch, threads):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out, size=(16, 16),
                                trajectory={"kind": "line", "frames": 100})
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        real_render, calls = cli.render_view, []

        def failing_render(spec, cam, pose, index=0):
            calls.append(index)
            if index == 5:
                raise InvalidSpecError("render failed")
            return real_render(spec, cam, pose, index=index)

        monkeypatch.setattr(cli, "render_view", failing_render)
        res = runner.invoke(cli.main, ["synth", "-c", str(cfg), "--threads", str(threads)])
        assert res.exit_code == 2 and "render failed" in res.output
        assert not (out / "manifest.json").exists()
        # at most the submission window runs past the failed frame
        assert len(calls) <= 6 + 2 * threads

    def test_seed_override_lands_in_report(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out)
        res = runner.invoke(cli.main, ["synth", "-c", str(cfg), "--seed", "99"])
        assert res.exit_code == 0
        assert read_report(out)["config"]["seed"] == 99

    def test_bad_config_exits_1(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        res = runner.invoke(cli.main, ["synth", "-c", str(cfg)])
        assert res.exit_code == 1
        assert "config error" in res.output

    def test_missing_scene_exits_1(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": "gone.json"}))
        res = runner.invoke(cli.main, ["synth", "-c", str(cfg)])
        assert res.exit_code == 1

    @pytest.mark.parametrize("case", ["non-table primitive", "string seed", "float frames",
                                      "bool radius", "infinite sphere radius",
                                      "short trajectory center", "infinite trajectory radius",
                                      "infinite trajectory height"])
    def test_malformed_input_exits_1_without_traceback(self, tmp_path, case):
        out = tmp_path / "run"
        if case == "short trajectory center":
            cfg = small_config_file(tmp_path, out, trajectory={"center": [0, 0], "frames": 3})
        elif case == "infinite trajectory radius":
            cfg = small_config_file(tmp_path, out, trajectory={"radius": 1e999, "frames": 3})
        elif case == "infinite trajectory height":
            cfg = small_config_file(tmp_path, out, trajectory={"height": 1e999, "frames": 3})
        elif case == "string seed":
            cfg = small_config_file(tmp_path, out, seed="x")
        elif case == "float frames":
            cfg = small_config_file(tmp_path, out, trajectory={"kind": "line", "frames": 4.5})
        elif case == "bool radius":
            cfg = small_config_file(tmp_path, out, trajectory={"radius": True, "frames": 3})
        elif case == "infinite sphere radius":
            cfg = small_config_file(tmp_path, out)
            text = (tmp_path / "scene.json").read_text()
            assert text.count('"radius": 0.25') == 1
            (tmp_path / "scene.json").write_text(text.replace('"radius": 0.25', '"radius": 1e999'))
        else:
            cfg = small_config_file(tmp_path, out)
            scene = json.loads((tmp_path / "scene.json").read_text())
            scene["primitives"] = [3]
            (tmp_path / "scene.json").write_text(json.dumps(scene))
        # a real process, so that an escaping exception shows as a traceback
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        res = subprocess.run([sys.executable, "-m", "reprojkit.cli", "synth", "-c", str(cfg)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert res.returncode == 1
        assert res.stderr.startswith("config error: ")
        assert "Traceback" not in res.stderr
        assert not (out / "report.json").exists()


class TestNegativeSeeds:
    """Every seed field and ``--seed`` must be >= 0; a negative one exits 1
    at load in every stage that reads it, with no traceback."""

    CASES = [("--seed", ["synth"]), ("--seed", ["pairs"]), ("--seed", ["labels"]),
             ("--seed", ["eval", "--task", "pose"]), ("--seed", ["losscheck"]),
             ("seed", ["pairs"]), ("seed", ["labels"]), ("seed", ["eval", "--task", "pose"]),
             ("seed", ["losscheck"]), ("trajectory.seed", ["synth"]),
             ("sampling.seed", ["pairs"]), ("adaptation.seed", ["labels"])]

    @pytest.mark.parametrize("where, command", CASES,
                             ids=[f"{w}-{c[-1]}" for w, c in CASES])
    def test_exits_1_at_load(self, tmp_path, where, command):
        out = tmp_path / "run"
        extra, flags = {}, []
        if where == "--seed":
            flags = ["--seed", "-1"]
        elif where == "seed":
            extra = {"seed": -5}
        elif where == "trajectory.seed":
            extra = {"trajectory": {"kind": "orbit-with-jitter", "jitter_deg": 2.0,
                                    "frames": 3, "seed": -2}}
        else:
            extra = {where.split(".")[0]: {"seed": -3}}
        cfg = small_config_file(tmp_path, out, **extra)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        res = subprocess.run([sys.executable, "-m", "reprojkit.cli", *command, "-c", str(cfg),
                              *flags], capture_output=True, text=True, env=env, timeout=120)
        assert res.returncode == 1, res.stdout + res.stderr
        assert res.stderr.startswith("config error: invalid ")
        assert "seed must be >= 0, got -" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()


class TestPairs:
    def test_offsets_respect_bounds(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out, n_pairs=6)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        res = runner.invoke(cli.main, ["pairs", "-c", str(cfg)])
        assert res.exit_code == 0, res.output
        listing = (out / "pairs" / "list.txt").read_text().splitlines()
        assert len(listing) == 6
        for line in listing:
            i, j = map(int, line.split())
            assert 2 <= j - i <= 5
        assert len(list((out / "pairs").glob("pair_*.txt"))) >= 1
        rep = read_report(out)
        assert rep["results"]["min_offset"] >= 2
        assert rep["results"]["max_offset"] <= 5

    def test_equal_bounds_pin_offset(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out,
                                sampling={"min_offset": 3, "max_offset": 3})
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        assert runner.invoke(cli.main, ["pairs", "-c", str(cfg)]).exit_code == 0
        for line in (out / "pairs" / "list.txt").read_text().splitlines():
            i, j = map(int, line.split())
            assert j - i == 3

    def test_missing_dataset_exits_2(self, runner, tmp_path):
        cfg = small_config_file(tmp_path, tmp_path / "nowhere")
        res = runner.invoke(cli.main, ["pairs", "-c", str(cfg)])
        assert res.exit_code == 2
        assert "data error" in res.output

    def test_unsatisfiable_offsets_exit_2(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out,
                                sampling={"min_offset": 50, "max_offset": 60})
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        res = runner.invoke(cli.main, ["pairs", "-c", str(cfg)])
        assert res.exit_code == 2

    def test_identical_across_threads(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out, n_pairs=6)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        outputs = []
        for threads in ("1", "2"):
            res = runner.invoke(cli.main, ["pairs", "-c", str(cfg), "--threads", threads])
            assert res.exit_code == 0, res.output
            outputs.append({p.name: p.read_bytes()
                            for p in [out / "report.json", *sorted((out / "pairs").iterdir())]})
        assert "list.txt" in outputs[0] and len(outputs[0]) >= 3
        assert outputs[0] == outputs[1]


class TestLabels:
    def test_writes_labels(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        res = runner.invoke(cli.main, ["labels", "-c", str(cfg)])
        assert res.exit_code == 0, res.output
        text = (out / "labels.txt").read_text()
        assert len(text.splitlines()) > 1
        rep = read_report(out)
        assert rep["results"]["frames"] == 14 - 4 + 1
        assert rep["results"]["points"] > 0

    def test_deterministic(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        outputs = []
        for threads in ("1", "2"):
            res = runner.invoke(cli.main, ["labels", "-c", str(cfg), "--threads", threads])
            assert res.exit_code == 0, res.output
            outputs.append([(out / name).read_bytes()
                            for name in ("labels.txt", "report.json")])
        assert outputs[0] == outputs[1]
        assert outputs[0][0]


class TestEval:
    def run_eval(self, runner, cfg, task, threads=1):
        return runner.invoke(cli.main, ["eval", "--task", task, "-c", str(cfg),
                                        "--threads", str(threads)])

    def test_homography_report_fields(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out, plane_only=True)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        res = self.run_eval(runner, cfg, "homography")
        assert res.exit_code == 0, res.output
        r = read_report(out)["results"]
        for key in ("acc@3", "acc@5", "auc@3", "auc@5", "repeatability",
                    "mma", "matching_score", "pairs", "failed"):
            assert key in r

    def test_homography_passes_height_width_on_wide_frames(self, runner, tmp_path,
                                                          monkeypatch):
        # corner_error and HomographyMap take (h, w); on a 96x64 frame a
        # swapped (w, h) picks the wrong corners and image bounds
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out, plane_only=True, size=(96, 64))
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        seen = []
        real_map, real_corner_error = cli.HomographyMap, cli.corner_error

        def spy_map(H, dims1, dims2):
            seen.extend([dims1, dims2])
            return real_map(H, dims1, dims2)

        def spy_corner_error(H_est, H_gt, dims):
            seen.append(dims)
            return real_corner_error(H_est, H_gt, dims)

        monkeypatch.setattr(cli, "HomographyMap", spy_map)
        monkeypatch.setattr(cli, "corner_error", spy_corner_error)
        res = self.run_eval(runner, cfg, "homography")
        assert res.exit_code == 0, res.output
        assert read_report(out)["results"]["failed"] < 3
        assert len(seen) > 6 and set(seen) == {(64, 96)}

    def test_homography_needs_plane_scene(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out, plane_only=False)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        res = self.run_eval(runner, cfg, "homography")
        assert res.exit_code == 1
        assert "plane-only" in res.output

    def test_pose_report_fields(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        res = self.run_eval(runner, cfg, "pose")
        assert res.exit_code == 0, res.output
        r = read_report(out)["results"]
        for key in ("auc@5", "auc@10", "auc@20", "low_translation", "general",
                    "split"):
            assert key in r
        assert r["low_translation"]["count"] + r["general"]["count"] == r["pairs"]

    def test_register_report_fields(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        res = self.run_eval(runner, cfg, "register")
        assert res.exit_code == 0, res.output
        r = read_report(out)["results"]
        for family in ("rotation", "translation", "chamfer"):
            assert "mean" in r[family] and "median" in r[family]
            assert any(k.startswith("acc@") for k in r[family])

    @pytest.mark.parametrize("command, section, key, value", [
        (["eval", "--task", "register"], "eval", "descriptor_dim", 0),
        (["eval", "--task", "pose"], "eval", "nms_radius", 0),
        (["eval", "--task", "pose"], "eval", "detect_threshold", float("nan")),
        (["losscheck"], "loss", "positive_weight", float("inf")),
        (["eval", "--task", "pose"], "eval", "pose_auc_deg", [float("inf")]),
        (["eval", "--task", "homography"], "eval", "homography_auc_px", [3.0, float("inf")]),
    ])
    def test_bad_knob_exits_1_at_load(self, runner, tmp_path, command, section, key, value):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        data = json.loads(cfg.read_text())
        data.setdefault(section, {})[key] = value
        cfg.write_text(json.dumps(data))  # NaN and Infinity, as Python's json writes them
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        res = subprocess.run([sys.executable, "-m", "reprojkit.cli", *command, "-c", str(cfg)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert res.returncode == 1, res.stdout + res.stderr
        assert res.stderr.startswith(f"config error: invalid {section}: {key} ")
        assert "Traceback" not in res.stderr

    def test_register_spec_error_is_not_a_failed_pair(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0

        def bad_spec(*args, **kwargs):
            raise InvalidSpecError("descriptor dim must be >= 2, got 0")

        monkeypatch.setattr(cli, "register_pair", bad_spec)
        res = self.run_eval(runner, cfg, "register")
        assert res.exit_code == 2
        assert "data error: descriptor dim must be >= 2" in res.output
        assert read_report(out)["command"] == "synth"

    def test_reports_identical_across_threads(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        assert self.run_eval(runner, cfg, "pose", threads=1).exit_code == 0
        j1 = (out / "report.json").read_bytes()
        c1 = (out / "report.csv").read_bytes()
        assert self.run_eval(runner, cfg, "pose", threads=4).exit_code == 0
        assert (out / "report.json").read_bytes() == j1
        assert (out / "report.csv").read_bytes() == c1

    # pose across 1 and 4 threads is test_reports_identical_across_threads
    @pytest.mark.parametrize("task", ["homography", "register"])
    def test_identical_across_one_and_two_threads(self, runner, tmp_path, task):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out, plane_only=task == "homography")
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        reports = []
        for threads in (1, 2):
            res = self.run_eval(runner, cfg, task, threads=threads)
            assert res.exit_code == 0, res.output
            reports.append(((out / "report.json").read_bytes(),
                            (out / "report.csv").read_bytes()))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("task", ["pose", "register"])
    def test_corrupt_frame_is_a_data_error(self, runner, tmp_path, task):
        # views are read inside each pair's worker; a bad file must still
        # end the run with exit 2, not count as a failed pair
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        for p in (out / "frames").glob("*.pfm"):
            p.write_bytes(p.read_bytes()[:-8])
        res = self.run_eval(runner, cfg, task)
        assert res.exit_code == 2, res.output
        assert "data error" in res.output

    def test_csv_mirrors_json(self, runner, tmp_path):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        assert self.run_eval(runner, cfg, "register").exit_code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "key,value"
        keys = [ln.split(",", 1)[0] for ln in lines[1:]]
        assert keys == sorted(keys)
        assert "command" in keys
        assert "config.seed" in keys
        assert any(k.startswith("results.rotation") for k in keys)


class TestLosscheck:
    def test_passes_and_reports(self, runner, tmp_path):
        out = tmp_path / "lc"
        res = runner.invoke(cli.main, ["losscheck", "--out", str(out),
                                       "--instances", "3", "--seed", "2"])
        assert res.exit_code == 0, res.output
        r = read_report(out)["results"]
        assert r["descriptor_max_rel_error"] < 1e-3
        assert r["detector_max_rel_error"] < 1e-3
        assert r["passed"] is True

    def test_deterministic(self, runner, tmp_path):
        out = tmp_path / "lc"
        args = ["losscheck", "--out", str(out), "--instances", "3", "--seed", "2"]
        assert runner.invoke(cli.main, args).exit_code == 0
        first = (out / "report.json").read_bytes()
        assert runner.invoke(cli.main, args + ["--threads", "4"]).exit_code == 0
        assert (out / "report.json").read_bytes() == first

    def test_checks_the_configured_loss(self, runner, tmp_path):
        args = ["losscheck", "--instances", "2", "--seed", "2"]
        assert runner.invoke(cli.main, args + ["--out", str(tmp_path / "a")]).exit_code == 0
        loss = {"positive_margin": 0.9, "negative_margin": 0.3, "positive_weight": 50.0}
        cfg = tmp_path / "loss.json"
        cfg.write_text(json.dumps({"loss": loss}))
        res = runner.invoke(cli.main, args + ["-c", str(cfg), "--out", str(tmp_path / "b")])
        assert res.exit_code == 0, res.output
        default = read_report(tmp_path / "a")["results"]["descriptor_max_rel_error"]
        configured = read_report(tmp_path / "b")["results"]["descriptor_max_rel_error"]
        rng = np.random.default_rng(cli._derive_seed(2, 5))
        params = losses.DescriptorLossParams(**loss)
        expected = max(losses.descriptor_fd_error(rng, params) for _ in range(2))
        assert configured == expected
        assert configured != default

    def test_failure_exits_3(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(losses, "descriptor_fd_error", lambda rng, params: 0.5)
        out = tmp_path / "lc"
        res = runner.invoke(cli.main, ["losscheck", "--out", str(out),
                                       "--instances", "1"])
        assert res.exit_code == 3
        assert read_report(out)["results"]["passed"] is False


# runs one CLI command in a fresh interpreter, then prints the scipy
# modules that command loaded as the last line of stderr
_LOADED_SCIPY = """\
import json, sys
from reprojkit import cli
try:
    cli.main(sys.argv[1:])
finally:
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")),
          file=sys.stderr)
"""


def _scipy_modules_loaded(args):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", _LOADED_SCIPY, *args],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    return json.loads(res.stderr.strip().splitlines()[-1])


def test_stages_run_without_scipy(tmp_path):
    """Only `eval --task register` needs scipy, and only `scipy.spatial`."""
    out = tmp_path / "run"
    cfg = str(small_config_file(tmp_path, out, plane_only=True))
    for command in (["synth"], ["pairs"], ["labels"], ["eval", "--task", "pose"],
                    ["eval", "--task", "homography"], ["losscheck", "--instances", "2"]):
        assert _scipy_modules_loaded([*command, "-c", cfg]) == [], command
    loaded = _scipy_modules_loaded(["eval", "--task", "register", "-c", cfg])
    assert "scipy.spatial" in loaded
    assert not [m for m in loaded if m.startswith("scipy.ndimage")]


def test_builtin_scene_configs_pass_validation():
    for tag in ("builtin:plane", "builtin:general", None):
        spec, cam = load_scene(tag)
        assert cam.width == cam.height == 160
