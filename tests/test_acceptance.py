"""Release acceptance suite: one numbered pass/fail line per criterion.

Every test prints its verdict even under pytest capture so a plain
``pytest tests/test_acceptance.py`` run reads as a checklist. Oracles are
local to this file or imported from the unit-test modules; none of them
call the code path they are checking.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from numpy.random import default_rng
from scipy.spatial.transform import Rotation

from helpers import default_cam, flat_view, robust_depth, rotation
from test_cli import small_config_file
from test_correspondence import oracle_positives
from test_eval_pose import two_view_matches
from test_eval_registration import textured_pair

from reprojkit import cli, frontend, losses
from reprojkit.adaptation import AdaptationParams, pseudo_labels_for_frame
from reprojkit.config import config_to_dict, default_config, load_scene
from reprojkit.correspondence import (cell_centers, cell_correspondence_homography,
                                      cell_correspondence_reprojection)
from reprojkit.evaluation.homography import corner_error, estimate_homography
from reprojkit.evaluation.pose import (estimate_essential, pose_auc,
                                       rotation_error_deg, translation_error_deg)
from reprojkit.evaluation.registration import register_pair
from reprojkit.geometry import (CameraIntrinsics, DepthMap, PoseSE3, RenderedView,
                                ReprojectionParams, backproject, project,
                                relative_pose, reproject_points)
from reprojkit.losses import descriptor_loss
from reprojkit.scene import (Plane, SceneSpec, TrajectorySpec, generate_trajectory,
                             render_view)
from reprojkit.textures import CheckerTexture


def _report(capsys, num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


# ------------------------------------------------------------------ 1

def test_01_lift_project_round_trip(capsys):
    """1e6 random pixel/depth/camera/pose round trips, sub-1e-6 px, <10 s."""
    rng = default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        f = rng.uniform(60.0, 400.0)
        w = int(rng.integers(64, 640))
        h = int(rng.integers(64, 640))
        cam = CameraIntrinsics(fx=f * rng.uniform(0.9, 1.1), fy=f,
                               cx=(w - 1) / 2.0 + rng.uniform(-5.0, 5.0),
                               cy=(h - 1) / 2.0 + rng.uniform(-5.0, 5.0),
                               width=w, height=h)
        pose = PoseSE3(Rotation.from_quat(rng.normal(size=4)).as_matrix(),
                       rng.uniform(-3.0, 3.0, 3))
        pts = np.column_stack([rng.uniform(0, w - 1, 10_000),
                               rng.uniform(0, h - 1, 10_000)])
        d = rng.uniform(0.3, 12.0, 10_000)
        back, _ = project(backproject(pts, d, cam, pose), cam, pose)
        worst = max(worst, float(np.abs(back - pts).max()))
    elapsed = time.perf_counter() - t0
    _report(capsys, 1, "lift/project round trip on 1e6 samples",
            worst < 1e-6 and elapsed < 10.0,
            f"max err {worst:.2e} px, {elapsed:.2f} s")


# ------------------------------------------------------------------ 2

def test_02_reprojection_matches_analytic_hits(capsys):
    """Depth-map lift + project agrees with analytic ray hits on 50 frames."""
    spec, cam = load_scene("builtin:general")
    traj = generate_trajectory(TrajectorySpec(frames=50, radius=2.0, height=1.0))
    views = [render_view(spec, cam, p, index=i) for i, p in enumerate(traj)]
    pairs = [(i, i + 2) for i in range(0, 48, 6)] + [(i, i + 5) for i in range(3, 45, 12)]
    kept = good = 0
    for i, j in pairs:
        src, dst = views[i], views[j]
        ys, xs = np.nonzero(src.depth.valid)
        pts = np.column_stack([xs, ys]).astype(np.float64)
        impl, _ = project(backproject(pts, src.depth.values[ys, xs], src.cam, src.pose),
                          dst.cam, dst.pose)

        rays = src.cam.pixel_rays(pts)
        dirs = rays / np.linalg.norm(rays, axis=-1, keepdims=True)
        dirs_w = dirs @ src.pose.rotation.T
        o1 = np.broadcast_to(src.pose.translation, dirs_w.shape)
        t_hit, _, _ = spec.intersect(o1, dirs_w)
        P = o1 + dirs_w * t_hit[:, None]
        X2 = (P - dst.pose.translation) @ dst.pose.rotation
        z2 = X2[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            px = dst.cam.fx * X2[:, 0] / z2 + dst.cam.cx
            py = dst.cam.fy * X2[:, 1] / z2 + dst.cam.cy
        inb = (np.isfinite(t_hit) & (z2 > 1e-9)
               & (px >= -0.5) & (px <= dst.cam.width - 0.5)
               & (py >= -0.5) & (py <= dst.cam.height - 0.5))
        vec = P - dst.pose.translation
        dist = np.linalg.norm(vec, axis=-1)
        with np.errstate(invalid="ignore"):
            t2_hit, _, _ = spec.intersect(np.broadcast_to(dst.pose.translation, vec.shape),
                                       vec / dist[:, None])
        keep = inb & (t2_hit >= dist - 1e-6)
        err = np.linalg.norm(impl[keep] - np.column_stack([px, py])[keep], axis=1)
        kept += int(keep.sum())
        good += int((err <= 0.5).sum())
    frac = good / kept
    _report(capsys, 2, "reprojected pixels within 0.5 px of analytic hits",
            kept > 100_000 and frac >= 0.99,
            f"{frac:.6f} of {kept} visible pixels")


# ------------------------------------------------------------------ 3

def _two_plane_view(cam_x, index, zf=1.0, zb=4.0, edge_x=0.0):
    """Fronto-parallel far plane with a near half-plane covering x >= edge_x."""
    cam = CameraIntrinsics(fx=100.0, fy=100.0, cx=80.0, cy=60.0, width=161, height=121)
    xs, ys = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    pts = np.stack([xs, ys], axis=-1).reshape(-1, 2).astype(np.float64)
    rays = cam.pixel_rays(pts)
    dirs = rays / np.linalg.norm(rays, axis=-1, keepdims=True)
    t_near = zf / dirs[:, 2]
    on_near = cam_x + t_near * dirs[:, 0] >= edge_x
    depth = np.where(on_near, t_near, zb / dirs[:, 2]).reshape(cam.height, cam.width)
    img = np.zeros((cam.height, cam.width, 3), dtype=np.uint8)
    return RenderedView(img, DepthMap(depth, np.ones(depth.shape, bool)), cam,
                        PoseSE3(np.eye(3), [cam_x, 0.0, 0.0]), index)


def test_03_depth_window_keeps_edge_points_on_foreground(capsys):
    """Edge keypoints stay on the near surface with the 5x5 window rule."""
    src = _two_plane_view(0.0, 0)
    dst = _two_plane_view(0.1, 1)
    rows = np.arange(10, 111, 4).astype(np.float64)
    kp = np.column_stack([np.full(rows.size, 78.4), rows])
    # true correspondence of a near-surface feature: disparity f*B/zf = 10 px
    expected = kp - [10.0, 0.0]

    targets, _, reasons = reproject_points(kp, src, dst, ReprojectionParams())
    accepted = reasons == 0
    err_rule = np.linalg.norm(targets[accepted] - expected[accepted], axis=1)

    raw_params = ReprojectionParams(window=1)
    err_raw = []
    for p, want in zip(kp, expected):
        d = robust_depth(p, src.depth, raw_params)
        pix, _ = project(backproject(p[None, :], np.array([d]), src.cam, src.pose),
                         dst.cam, dst.pose)
        err_raw.append(float(np.linalg.norm(pix[0] - want)))
    med_rule = float(np.median(err_rule))
    med_raw = float(np.median(err_raw))
    _report(capsys, 3, "depth-window rule beats raw center depth at edges",
            accepted.all() and med_rule < 1.0 and med_raw > 5.0,
            f"median {med_rule:.3f} px with rule vs {med_raw:.2f} px raw")


# ------------------------------------------------------------------ 4

def test_04_sparse_cells_equal_brute_force(capsys):
    """Windowed cell matcher equals the all-pairs oracle on 200 instances."""
    params = ReprojectionParams()
    cam = CameraIntrinsics(fx=110.0, fy=110.0, cx=23.5, cy=23.5, width=48, height=48)
    bad = []
    nonempty = 0
    for k in range(100):
        rng = default_rng([91, k])
        src = flat_view(cam, PoseSE3.identity(), 2.0, index=0)
        dst = flat_view(cam, PoseSE3(rotation(rng.normal(size=3), rng.uniform(0.0, 6.0)),
                                     rng.uniform(-0.15, 0.15, 3)), 2.0, index=1)
        cc = cell_correspondence_reprojection(src, dst, params, cell=8, eps=4.0)
        centers = cell_centers(6, 6, 8).reshape(-1, 2)
        targets, _, reasons = reproject_points(centers, src, dst, params)
        want = oracle_positives(targets.reshape(6, 6, 2), (reasons == 0).reshape(6, 6),
                                (6, 6), (6, 6), 8, 4.0)
        if not np.array_equal(cc.positives, want):
            bad.append(("pose", k))
        nonempty += len(cc.positives) > 0
    for k in range(100):
        rng = default_rng([92, k])
        H = np.eye(3) + rng.normal(0.0, 0.05, (3, 3))
        H[2, 2] = 1.0
        dims = (int(rng.choice([32, 48, 64])), int(rng.choice([32, 48, 64])))
        cc = cell_correspondence_homography(H, dims, cell=8, eps=8.0)
        grid = (dims[0] // 8, dims[1] // 8)
        centers = cell_centers(*grid, 8).reshape(-1, 2)
        hom = np.column_stack([centers, np.ones(len(centers))]) @ H.T
        mapped = (hom[:, :2] / hom[:, 2:]).reshape(*grid, 2)
        want = oracle_positives(mapped, np.ones(grid, bool), grid, grid, 8, 8.0)
        if not np.array_equal(cc.positives, want):
            bad.append(("homography", k))
    _report(capsys, 4, "sparse cell correspondences equal dense brute force",
            not bad and nonempty > 90,
            f"100 pose pairs + 100 homographies, {len(bad)} mismatches")


# ------------------------------------------------------------------ 5

def test_05_plane_rotation_routes_agree_exactly(capsys):
    """Reprojection-induced cells equal homography-induced cells bit for bit."""
    cam = CameraIntrinsics(fx=160.0, fy=160.0, cx=31.5, cy=31.5, width=64, height=64)
    src = flat_view(cam, PoseSE3.identity(), 2.0, index=0)
    dst = flat_view(cam, PoseSE3(rotation([0.0, 1.0, 0.0], 2.0), [0.0, 0.0, 0.0]),
                    2.0, index=1)
    R, t = relative_pose(src.pose, dst.pose)
    K = cam.matrix
    H = K @ R @ np.linalg.inv(K)
    via_prp = cell_correspondence_reprojection(src, dst, ReprojectionParams())
    via_h = cell_correspondence_homography(H, (64, 64), eps=via_prp.eps)
    _report(capsys, 5, "plane + pure-rotation cell labels identical via both routes",
            np.linalg.norm(t) < 1e-12 and len(via_prp.positives) > 0
            and np.array_equal(via_prp.positives, via_h.positives),
            f"{len(via_prp.positives)} positive cell pairs")


# ------------------------------------------------------------------ 6

def test_06_loss_gradients_and_exact_value(capsys):
    """Analytic gradients match central differences; degenerate value exact."""
    desc_err = max(losses.descriptor_fd_error(default_rng([61, i])) for i in range(100))
    det_err = max(losses.detector_fd_error(default_rng([62, i])) for i in range(100))

    grid = np.zeros((4, 4, 8))
    grid[..., 0] = 1.0
    loss, _, _ = descriptor_loss(grid, grid, np.zeros((4, 4, 4, 4), dtype=bool))
    _report(capsys, 6, "loss gradients match finite differences",
            desc_err < 1e-4 and det_err < 1e-4 and loss == 0.8,
            f"descriptor {desc_err:.2e}, detector {det_err:.2e}, "
            f"no-positive loss {loss!r}")


# ------------------------------------------------------------------ 7

def test_07_adaptation_keeps_single_dominant_corner(capsys):
    """Static single-junction plane yields exactly one stable pseudo-label."""
    cam = CameraIntrinsics(fx=128.0, fy=128.0, cx=31.5, cy=31.5, width=64, height=64)
    plane = Plane(origin=(-0.2, -0.15, 2.0), normal=(0.0, 0.0, -1.0),
                  half_u=6.0, half_v=6.0, texture=0)
    spec = SceneSpec(primitives=(plane,), textures=(CheckerTexture(scale=1.2),))
    views = [render_view(spec, cam, PoseSE3.identity(), index=i) for i in range(20)]
    params = AdaptationParams()

    heat = frontend.detect(views[0].image)
    ref = frontend.top_k(heat, 10, nms_radius=params.nms_radius,
                         threshold=params.threshold)
    one_ref = len(ref.xy) == 1

    stable = True
    dist = np.inf
    for s in range(50):
        labs = pseudo_labels_for_frame(views, 0, frontend.detect,
                                       replace(params, seed=s), ReprojectionParams())
        if len(labs.points) != 1:
            stable = False
            break
        dist = float(np.linalg.norm(labs.points[0] - ref.xy[0]))
        if dist > 1.0:
            stable = False
            break
    _report(capsys, 7, "single dominant corner survives 50 adaptation seeds",
            one_ref and stable,
            f"label-to-detection distance {dist:.2f} px")


# ------------------------------------------------------------------ 8

def _apply_h(H, pts):
    q = np.column_stack([pts, np.ones(len(pts))]) @ H.T
    return q[:, :2] / q[:, 2:]


def test_08_homography_estimation(capsys):
    """Exact matches recover H to 1e-6 px; 50% outliers survive 95/100 trials."""
    rng = default_rng(7)
    H = np.eye(3) + rng.normal(0.0, 0.05, (3, 3))
    H[2, 2] = 1.0
    pts1 = rng.uniform(2.0, 62.0, (50, 2))
    est = estimate_homography(pts1, _apply_h(H, pts1), iterations=200, rng=1)
    exact_err = corner_error(est.H, H, (64, 64))

    ok_count = 0
    for trial in range(100):
        rng = default_rng([2024, trial])
        H = np.eye(3) + rng.normal(0.0, 0.05, (3, 3))
        H[2, 2] = 1.0
        inl = rng.uniform(2.0, 62.0, (40, 2))
        p1 = np.vstack([inl, rng.uniform(2.0, 62.0, (40, 2))])
        p2 = np.vstack([_apply_h(H, inl), rng.uniform(2.0, 62.0, (40, 2))])
        est = estimate_homography(p1, p2, threshold=1.0, iterations=500, rng=trial)
        ok_count += corner_error(est.H, H, (64, 64)) < 0.5
    _report(capsys, 8, "homography RANSAC exact and under 50% outliers",
            exact_err < 1e-6 and ok_count >= 95,
            f"exact {exact_err:.1e} px, robust {ok_count}/100 under 0.5 px")


# ------------------------------------------------------------------ 9

def _auc_numeric(errors, t, step=1e-4):
    errors = np.asarray(errors, dtype=np.float64)
    grid = np.arange(0.0, t, step) + step / 2.0
    return float((errors[None, :] <= grid[:, None]).mean(axis=1).mean())


def test_09_relative_pose_and_auc(capsys):
    """Exact correspondences recover pose; AUC matches numerical integration."""
    rng = default_rng(0)
    cam = default_cam(width=320, height=240, f=260.0)
    pose2 = PoseSE3(rotation([0.2, 1.0, 0.1], 8.0), [0.4, 0.05, 0.1])
    pts1, pts2 = two_view_matches(rng, PoseSE3.identity(), pose2, cam)
    est = estimate_essential(pts1, pts2, cam, cam, iterations=200, rng=1)
    R_gt, t_gt = relative_pose(PoseSE3.identity(), pose2)
    rot_err = rotation_error_deg(est.rotation, R_gt)
    trans_err = translation_error_deg(est.translation, t_gt)

    errors = np.concatenate([default_rng(11).uniform(0.0, 30.0, 40), [np.inf, np.inf]])
    auc = pose_auc(errors)
    auc_gap = max(abs(auc[t] - _auc_numeric(errors, t)) for t in (5.0, 10.0, 20.0))
    _report(capsys, 9, "essential-matrix pose recovery and AUC oracle",
            rot_err < 0.1 and trans_err < 0.5 and auc_gap < 1e-3,
            f"rot {rot_err:.2e} deg, trans {trans_err:.2e} deg, AUC gap {auc_gap:.1e}")


# ------------------------------------------------------------------ 10

def _bucket_median_translation_error(t_norm, tag):
    cam = default_cam(width=320, height=240, f=260.0)
    errs = []
    for k in range(100):
        rng = default_rng([77, tag, k])
        direction = rng.normal(size=3)
        pose2 = PoseSE3(rotation(rng.normal(size=3), rng.uniform(2.0, 10.0)),
                        t_norm * direction / np.linalg.norm(direction))
        pts1, pts2 = two_view_matches(rng, PoseSE3.identity(), pose2, cam,
                                      n=50, noise=0.3)
        try:
            est = estimate_essential(pts1, pts2, cam, cam, threshold_px=1.0,
                                     iterations=100, rng=int(rng.integers(2**31)))
            _, t_gt = relative_pose(PoseSE3.identity(), pose2)
            errs.append(translation_error_deg(est.translation, t_gt))
        except Exception:
            errs.append(90.0)
    return float(np.median(errs))


def test_10_small_baselines_destabilize_translation(capsys):
    """Same pixel noise hurts translation direction far more at tiny baselines."""
    med_small = _bucket_median_translation_error(0.04, 1)
    med_large = _bucket_median_translation_error(0.5, 2)
    _report(capsys, 10, "translation error median: small baseline > large baseline",
            med_small > med_large,
            f"{med_small:.1f} deg at |t|=0.04 vs {med_large:.1f} deg at |t|=0.5")


# ------------------------------------------------------------------ 11

def test_11_rgbd_registration_pipeline(capsys):
    """Noiseless shifted pair registers to sub-0.1 rotation/translation/chamfer."""
    v1, v2 = textured_pair(0.125)
    res = register_pair(v1, v2)
    _report(capsys, 11, "match/lift/Kabsch registration on a noiseless pair",
            res.rotation_error_deg < 0.1 and res.translation_error_cm < 0.1
            and res.chamfer_cm < 0.1,
            f"rot {res.rotation_error_deg:.2e} deg, trans {res.translation_error_cm:.2e} cm, "
            f"chamfer {res.chamfer_cm:.2e} cm, {res.n_matches} matches")


# ------------------------------------------------------------------ 12

def test_12_default_config_constants(capsys):
    """Golden audit of the protocol constants in the default config."""
    cfg = config_to_dict(default_config())
    want = {
        ("sampling", "min_offset"): 70,
        ("sampling", "max_offset"): 150,
        ("reprojection", "depth_eps"): 0.03,
        ("reprojection", "window"): 5,
        ("eval", "cell_eps_reprojection"): 4.0,
        ("eval", "cell_eps_homography"): 8.0,
        ("adaptation", "window_len"): 20,
        ("adaptation", "n_sampled"): 14,
        ("adaptation", "patch"): 3,
        ("eval", "pose_auc_deg"): [5.0, 10.0, 20.0],
        ("eval", "translation_split"): 0.15,
        ("eval", "essential_threshold_px"): 0.5,
    }
    bad = [f"{s}.{k}" for (s, k), v in want.items() if cfg[s][k] != v]
    _report(capsys, 12, "default config carries the documented constants",
            not bad, "all 12 audited" if not bad else f"wrong: {', '.join(bad)}")


# ------------------------------------------------------------------ 13

def test_13_cli_reports_are_deterministic(capsys, tmp_path):
    """Every command yields byte-identical reports across reruns and threads."""
    runner = CliRunner()
    (tmp_path / "g").mkdir()
    (tmp_path / "p").mkdir()
    cfg_general = small_config_file(tmp_path / "g", tmp_path / "run_g")
    cfg_plane = small_config_file(tmp_path / "p", tmp_path / "run_p", plane_only=True)
    plan = [
        (cfg_general, tmp_path / "run_g", ["synth"]),
        (cfg_general, tmp_path / "run_g", ["pairs"]),
        (cfg_general, tmp_path / "run_g", ["labels"]),
        (cfg_general, tmp_path / "run_g", ["eval", "--task", "pose"]),
        (cfg_general, tmp_path / "run_g", ["eval", "--task", "register"]),
        (cfg_general, tmp_path / "run_g", ["losscheck", "--instances", "5"]),
        (cfg_plane, tmp_path / "run_p", ["synth"]),
        (cfg_plane, tmp_path / "run_p", ["eval", "--task", "homography"]),
    ]
    bad = []
    for cfg_path, out_dir, args in plan:
        snaps = []
        for threads in (1, 1, 4):
            res = runner.invoke(cli.main, args + ["-c", str(cfg_path),
                                                  "--threads", str(threads)])
            if res.exit_code != 0:
                bad.append(f"{' '.join(args)} exit {res.exit_code}")
                break
            snaps.append(((out_dir / "report.json").read_bytes(),
                          (out_dir / "report.csv").read_bytes()))
        else:
            if not (snaps[0] == snaps[1] == snaps[2]):
                bad.append(f"{' '.join(args)} reports differ")
    _report(capsys, 13, "CLI reports byte-identical for reruns and threads 1/4",
            not bad, "8 command invocations" if not bad else "; ".join(bad))
