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

from reprojkit import cli, frontend, losses
from reprojkit.config import canonical_json, load_config, load_scene, scene_to_dict
from reprojkit.dataset import Dataset
from reprojkit.errors import EstimationFailedError, InvalidSpecError
from reprojkit.evaluation import (HomographyMap, PosePairRecord, corner_error,
                                  estimate_essential, estimate_homography,
                                  matching_score, mma, repeatability)
from reprojkit.geometry import CameraIntrinsics, DepthMap, RenderedView, relative_pose
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
        # pose reads each drawn frame once before its pairs run, register
        # reads views in each pair's worker; either way a bad file must end
        # the run with exit 2, not count as a failed pair
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


def old_pair_row(task, cfg, data, i, j):
    """One pair as `eval` computed it when each pair's worker read its two
    views and described both frames itself."""
    ev = cfg.eval
    v1, v2 = data.view(i), data.view(j)
    knobs = dict(k=ev.detect_k, nms_radius=ev.nms_radius,
                 threshold=ev.detect_threshold, dim=ev.descriptor_dim)
    pts1, d1 = frontend.features(v1.image, **knobs)
    pts2, d2 = frontend.features(v2.image, **knobs)
    m = frontend.match_mnn(d1, d2, ratio=ev.match_ratio)
    mpts1, mpts2 = pts1[m.indices1], pts2[m.indices2]
    if task == "pose":
        R_gt, t_gt = relative_pose(v1.pose, v2.pose)
        try:
            est = estimate_essential(mpts1, mpts2, v1.cam, v2.cam,
                                     threshold_px=ev.essential_threshold_px,
                                     iterations=ev.ransac_iterations,
                                     rng=cli._derive_seed(cfg.seed, 4, i, j))
        except EstimationFailedError:
            est = None
        return PosePairRecord(est, R_gt, t_gt)
    plane = load_scene(cfg.scene)[0].primitives[0]
    R, t = relative_pose(v1.pose, v2.pose)
    n1 = v1.pose.rotation.T @ np.asarray(plane.normal)
    delta = float(np.asarray(plane.normal) @ (np.asarray(plane.origin) - v1.pose.translation))
    H_gt = v2.cam.matrix @ (R + np.outer(t, n1) / delta) @ np.linalg.inv(v1.cam.matrix)
    H_gt = H_gt / H_gt[2, 2]
    dims = (v1.cam.height, v1.cam.width)
    gt = HomographyMap(H_gt, dims, (v2.cam.height, v2.cam.width))
    try:
        est = estimate_homography(mpts1, mpts2, threshold=ev.homography_threshold_px,
                                  iterations=ev.ransac_iterations,
                                  rng=cli._derive_seed(cfg.seed, 3, i, j))
        err = corner_error(est.H, H_gt, dims)
    except EstimationFailedError:
        err = np.inf
    rep = repeatability(pts1, pts2, gt, eps=ev.pixel_eps)
    acc = mma(mpts1, mpts2, gt, eps=ev.pixel_eps) if len(mpts1) else None
    ms = matching_score(mpts1, mpts2, max(min(len(pts1), len(pts2)), 1),
                        gt, eps=ev.pixel_eps)
    return err, rep, acc, ms


def row_bytes(row):
    """A pair's row from ``cli._eval_pairs`` as bytes, for exact comparison."""
    if isinstance(row, PosePairRecord):
        est = row.estimate
        fit = None if est is None else (est.rotation.tobytes(), est.translation.tobytes())
        return fit, row.gt_rotation.tobytes(), row.gt_translation.tobytes()
    return tuple(None if v is None else np.float64(v).tobytes() for v in row)


class TestEvalDescribesEachFrameOnce:
    """`eval pose` and `eval homography` read and describe every drawn frame
    once (`cli._eval_pairs`), not once per pair it appears in."""

    def synth(self, runner, tmp_path, task, **extra):
        out = tmp_path / "run"
        cfg = small_config_file(tmp_path, out, plane_only=task == "homography", **extra)
        assert runner.invoke(cli.main, ["synth", "-c", str(cfg)]).exit_code == 0
        return out, cfg

    def run_eval(self, runner, cfg, task, threads):
        res = runner.invoke(cli.main, ["eval", "--task", task, "-c", str(cfg),
                                       "--threads", str(threads)])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("task", ["pose", "homography"])
    def test_rows_and_reports_equal_the_per_pair_path(self, runner, tmp_path,
                                                      monkeypatch, task):
        out, cfg_path = self.synth(runner, tmp_path, task, n_pairs=12)
        cfg = load_config(cfg_path)
        expected_rows = []

        def per_pair(data, drawn, ev, one, threads):
            expected_rows[:] = [old_pair_row(task, cfg, data, i, j) for i, j in drawn]
            return expected_rows

        with monkeypatch.context() as m:
            m.setattr(cli, "_eval_pairs", per_pair)
            self.run_eval(runner, cfg_path, task, threads=1)
        expected = ((out / "report.json").read_bytes(), (out / "report.csv").read_bytes())
        assert read_report(out)["results"]["failed"] < len(expected_rows)
        real_eval_pairs, seen, rows = cli._eval_pairs, [], []

        def capture(data, drawn, *args):
            seen.append(list(drawn))
            rows[:] = real_eval_pairs(data, drawn, *args)
            return rows

        monkeypatch.setattr(cli, "_eval_pairs", capture)
        for threads in (1, 2, 3):
            (out / "report.json").unlink()
            self.run_eval(runner, cfg_path, task, threads=threads)
            assert [row_bytes(r) for r in rows] == [row_bytes(r) for r in expected_rows]
            got = ((out / "report.json").read_bytes(), (out / "report.csv").read_bytes())
            assert got == expected
        # the draw repeats a pair, shares frames between pairs and is not in
        # order of the later frame, so the reordering and reuse are exercised
        drawn = seen[0]
        assert len(set(drawn)) < len(drawn)
        assert drawn != sorted(drawn, key=lambda ij: ij[1])

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("task", ["pose", "homography"])
    def test_reads_and_describes_each_drawn_frame_once(self, runner, tmp_path,
                                                       monkeypatch, task, threads):
        _, cfg_path = self.synth(runner, tmp_path, task, n_pairs=12)
        lock, in_pair = threading.Lock(), threading.local()
        images, views, described, views_in_pairs, drawn = {}, [], [], [], []
        real_view, real_features = Dataset.view, frontend.features
        real_eval_pairs = cli._eval_pairs

        def view(self, i):
            v = real_view(self, i)
            with lock:
                views.append(i)
                images[i] = v.image
                if getattr(in_pair, "on", False):
                    views_in_pairs.append(i)
            return v

        def features(image, *args, **kwargs):
            with lock:
                described.extend(f for f, im in images.items() if im is image)
            return real_features(image, *args, **kwargs)

        def eval_pairs(data, pairs, ev, one, threads):
            drawn.extend(pairs)

            def marked(*job):
                in_pair.on = True
                try:
                    return one(*job)
                finally:
                    in_pair.on = False

            return real_eval_pairs(data, pairs, ev, marked, threads)

        monkeypatch.setattr(Dataset, "view", view)
        monkeypatch.setattr(frontend, "features", features)
        monkeypatch.setattr(cli, "_eval_pairs", eval_pairs)
        self.run_eval(runner, cfg_path, task, threads)
        frames = sorted({f for ij in drawn for f in ij})
        assert len(frames) < 2 * len(drawn)
        assert sorted(views) == frames
        assert sorted(described) == frames
        assert views_in_pairs == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_holds_a_bounded_number_of_frames_features(self, runner, tmp_path,
                                                       monkeypatch, threads):
        max_offset = 3
        _, cfg_path = self.synth(
            runner, tmp_path, "pose", size=(32, 32), n_pairs=60,
            trajectory={"kind": "line", "frames": 100},
            eval={"pair_min_offset": 1, "pair_max_offset": max_offset,
                  "detect_k": 16, "ransac_iterations": 20})
        alive, peak, lock, calls = set(), [0], threading.Lock(), [0]
        real_features = frontend.features

        def forget(n):
            with lock:
                alive.discard(n)

        def features(image, *args, **kwargs):
            xy, desc = real_features(image, *args, **kwargs)
            with lock:
                n = calls[0] = calls[0] + 1
                alive.add(n)
                peak[0] = max(peak[0], len(alive))
            weakref.finalize(desc, forget, n)
            return xy, desc

        monkeypatch.setattr(frontend, "features", features)
        self.run_eval(runner, cfg_path, "pose", threads)
        assert calls[0] > 50
        # the bound that cli._eval_pairs states
        assert peak[0] <= max_offset + 1 + 6 * threads


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


class TestStageFrame:
    """Every command runs in one frame: shared options, config overrides,
    dataset read and report."""

    # report command name -> (argv, the command's own option names)
    STAGES = {
        "synth": (["synth"], []),
        "pairs": (["pairs"], []),
        "labels": (["labels"], []),
        "eval-homography": (["eval", "--task", "homography"], ["task"]),
        "eval-pose": (["eval", "--task", "pose"], ["task"]),
        "eval-register": (["eval", "--task", "register"], ["task"]),
        "losscheck": (["losscheck", "--instances", "1"], ["instances"]),
    }
    WITH_DATASET = ["pairs", "labels", "eval-homography", "eval-pose", "eval-register"]

    @pytest.mark.parametrize("stage", STAGES)
    def test_shared_options_follow_own_options(self, stage):
        argv, own = self.STAGES[stage]
        params = [p.name for p in cli.main.commands[argv[0]].params]
        assert params == own + ["config_path", "seed", "out", "threads"]

    @pytest.mark.parametrize("stage", STAGES)
    def test_seed_and_out_land_in_report(self, runner, tmp_path, stage):
        argv, _ = self.STAGES[stage]
        out = tmp_path / "elsewhere"
        cfg = small_config_file(tmp_path, tmp_path / "unused", plane_only=True)
        if stage in self.WITH_DATASET:
            res = runner.invoke(cli.main, ["synth", "-c", str(cfg), "--out", str(out)])
            assert res.exit_code == 0, res.output
        res = runner.invoke(cli.main, [*argv, "-c", str(cfg), "--seed", "11",
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output
        rep = read_report(out)
        assert rep["command"] == stage
        assert rep["config"]["seed"] == 11
        assert rep["config"]["output_dir"] == str(out)
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("stage", WITH_DATASET)
    def test_missing_manifest_exits_2_and_keeps_the_report(self, runner, tmp_path, stage):
        argv, _ = self.STAGES[stage]
        out = tmp_path / "run"
        out.mkdir()
        before = {name: f"previous {name}\n".encode() for name in ("report.json", "report.csv")}
        for name, data in before.items():
            (out / name).write_bytes(data)
        cfg = small_config_file(tmp_path, out, plane_only=True)
        res = runner.invoke(cli.main, [*argv, "-c", str(cfg)])
        assert res.exit_code == 2
        assert "data error:" in res.output
        assert {name: (out / name).read_bytes() for name in before} == before


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
    """No stage loads scipy."""
    out = tmp_path / "run"
    cfg = str(small_config_file(tmp_path, out, plane_only=True))
    for command in (["synth"], ["pairs"], ["labels"], ["eval", "--task", "pose"],
                    ["eval", "--task", "homography"], ["eval", "--task", "register"],
                    ["losscheck", "--instances", "2"]):
        assert _scipy_modules_loaded([*command, "-c", cfg]) == [], command
    jittered = tmp_path / "jittered"
    jittered.mkdir()
    cfg = small_config_file(jittered, jittered / "run", plane_only=True,
                            trajectory={"kind": "orbit-with-jitter", "frames": 4,
                                        "radius": 2.0, "height": 1.2,
                                        "jitter_deg": 2.0, "seed": 1})
    assert _scipy_modules_loaded(["synth", "-c", str(cfg)]) == []


def test_builtin_scene_configs_pass_validation():
    for tag in ("builtin:plane", "builtin:general", None):
        spec, cam = load_scene(tag)
        assert cam.width == cam.height == 160
